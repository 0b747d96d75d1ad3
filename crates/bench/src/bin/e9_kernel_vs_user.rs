//! E9 — §III-D ablation: measurement accuracy, kernel vs user mode.
//!
//! The kernel version "can allow for more accurate measurement results as
//! it disables interrupts and preemptions". We run the same long
//! benchmark in both modes and compare the run-to-run spread of the raw
//! core-cycle measurements (no aggregate): kernel runs are identical;
//! user runs are perturbed by interrupt injection.

use nanobench_bench::write_metrics_json;
use nanobench_core::{Aggregate, BenchSpec, Session};
use nanobench_uarch::port::MicroArch;

fn spread(kernel: bool) -> (f64, f64) {
    let mut session = if kernel {
        Session::kernel(MicroArch::Skylake)
    } else {
        Session::user(MicroArch::Skylake)
    };
    let mut spec = BenchSpec::new();
    spec.asm("add rax, rax")
        .unwrap()
        .unroll_count(50)
        .loop_count(2000)
        .n_measurements(1)
        .aggregate(Aggregate::Min);
    let mut lo = f64::MAX;
    let mut hi = f64::MIN;
    for _ in 0..12 {
        let v = session
            .run(&spec)
            .expect("runs")
            .core_cycles()
            .unwrap_or(0.0);
        lo = lo.min(v);
        hi = hi.max(v);
    }
    (lo, hi)
}

fn main() {
    println!("== E9: §III-D kernel vs user measurement accuracy ==");
    let (klo, khi) = spread(true);
    println!(
        "kernel mode: per-rep cycles {klo:.3}..{khi:.3} (spread {:.4})",
        khi - klo
    );
    let (ulo, uhi) = spread(false);
    println!(
        "user mode:   per-rep cycles {ulo:.3}..{uhi:.3} (spread {:.4})",
        uhi - ulo
    );
    assert!(
        (uhi - ulo) > (khi - klo),
        "interrupt injection must make user-mode measurements noisier"
    );
    println!("\nkernel-space measurements are more precise, as §III-D claims");
    write_metrics_json(
        "BENCH_e9_kernel_vs_user.json",
        "e9_kernel_vs_user",
        "cycles_per_rep",
        &[
            ("kernel_min", klo),
            ("kernel_max", khi),
            ("kernel_spread", khi - klo),
            ("user_min", ulo),
            ("user_max", uhi),
            ("user_spread", uhi - ulo),
        ],
    );
}
