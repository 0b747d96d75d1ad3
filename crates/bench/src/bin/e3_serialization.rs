//! E3 — §IV-A1 serializing-instruction study: CPUID vs LFENCE.
//!
//! Paper claims: (1) CPUID has variable latency and µop count run to run
//! (Paoloni observed differences of hundreds of cycles); (2) fixing RAX
//! reduces but does not eliminate the variance; (3) LFENCE-based
//! measurements are stable, which is why nanoBench uses LFENCE.

use nanobench_core::{Aggregate, BenchSpec, Session};
use nanobench_uarch::port::MicroArch;

fn spread(asm: &str, init: &str) -> (f64, f64) {
    let mut lo = f64::MAX;
    let mut hi = f64::MIN;
    let mut session = Session::kernel(MicroArch::Skylake);
    let mut spec = BenchSpec::new();
    spec.asm(asm)
        .unwrap()
        .asm_init(init)
        .unwrap()
        .unroll_count(1)
        .n_measurements(1)
        .aggregate(Aggregate::Min);
    for _ in 0..25 {
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
    println!("== E3: §IV-A1 CPUID vs LFENCE serialization ==");
    // CPUID with whatever RAX happens to hold (varies across runs).
    let (lo, hi) = spread("cpuid", "rdtsc; imul rax, 2654435761; shr rax, 16"); // RAX varies per run
    println!(
        "CPUID, variable RAX:  {lo:.0}..{hi:.0} cycles (spread {:.0})",
        hi - lo
    );
    let var_spread = hi - lo;
    // CPUID with RAX fixed before each execution.
    let (lo, hi) = spread("mov rax, 0; cpuid", "");
    println!(
        "CPUID, fixed RAX:     {lo:.0}..{hi:.0} cycles (spread {:.0})",
        hi - lo
    );
    let fixed_spread = hi - lo;
    // LFENCE-only serialization.
    let (lo, hi) = spread("lfence", "");
    println!(
        "LFENCE:               {lo:.0}..{hi:.0} cycles (spread {:.0})",
        hi - lo
    );
    let lfence_spread = hi - lo;
    println!();
    println!("paper: CPUID differs by hundreds of cycles; fixing RAX reduces but");
    println!("does not eliminate the variance; LFENCE is stable.");
    assert!(var_spread > fixed_spread, "fixing RAX must reduce variance");
    assert!(
        var_spread >= 100.0,
        "CPUID must differ by hundreds of cycles"
    );
    assert!(
        fixed_spread > lfence_spread,
        "LFENCE must be the most stable"
    );
}
