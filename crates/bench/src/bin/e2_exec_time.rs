//! E2 — §III-K execution time of nanoBench.
//!
//! Paper: a NOP benchmark with unrollCount=100, loopCount=0,
//! nMeasurements=10 and a 4-event config takes ~15 ms (kernel) and ~50 ms
//! (user) on an i7-8700K. We reproduce the *shape*: the kernel version is
//! faster than the user version (the user version pays for page-table
//! translation and interrupt handling), and the cost scales linearly in
//! nMeasurements. Absolute numbers depend on the simulator host.

use nanobench_bench::write_metrics_json;
use nanobench_core::{BenchSpec, Session};
use nanobench_uarch::port::MicroArch;
use std::time::Instant;

const CFG: &str = "\
0E.01 UOPS_ISSUED.ANY
A1.01 UOPS_DISPATCHED_PORT.PORT_0
A1.02 UOPS_DISPATCHED_PORT.PORT_1
D1.01 MEM_LOAD_RETIRED.L1_HIT
";

fn time_version(kernel: bool) -> f64 {
    let mut session = if kernel {
        Session::kernel(MicroArch::CoffeeLake)
    } else {
        Session::user(MicroArch::CoffeeLake)
    };
    let mut spec = BenchSpec::new();
    spec.asm("nop")
        .unwrap()
        .config_str(CFG)
        .unwrap()
        .unroll_count(100)
        .loop_count(0)
        .n_measurements(10);
    let start = Instant::now();
    let reps = 20;
    for _ in 0..reps {
        session.run(&spec).expect("nop benchmark runs");
    }
    start.elapsed().as_secs_f64() * 1000.0 / reps as f64
}

fn main() {
    println!("== E2: §III-K execution time (NOP, unroll=100, n=10, 4 events) ==");
    let kernel_ms = time_version(true);
    let user_ms = time_version(false);
    println!("kernel version: {kernel_ms:.2} ms per invocation   (paper: ~15 ms)");
    println!("user version:   {user_ms:.2} ms per invocation   (paper: ~50 ms)");
    println!(
        "user/kernel ratio: {:.2}x (paper: ~3.3x)",
        user_ms / kernel_ms
    );
    assert!(
        user_ms > kernel_ms,
        "the user-space version must be slower (§III-K)"
    );
    write_metrics_json(
        "BENCH_e2_exec_time.json",
        "e2_exec_time",
        "ms",
        &[
            ("kernel_ms_per_invocation", kernel_ms),
            ("user_ms_per_invocation", user_ms),
        ],
    );
}
