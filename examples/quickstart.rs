//! Quickstart: the paper's §III-A example — measuring the L1 data cache
//! latency with one nanoBench call.
//!
//! Run with `cargo run --example quickstart`.

use nanobench::nb::{BenchSpec, Session};
use nanobench::uarch::port::MicroArch;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Equivalent to:
    //   ./nanoBench.sh -asm "mov R14, [R14]"
    //                  -asm_init "mov [R14], R14"
    //                  -config cfg_Skylake.txt
    let mut session = Session::kernel(MicroArch::Skylake);
    let mut spec = BenchSpec::new();
    spec.asm("mov R14, [R14]")?
        .asm_init("mov [R14], R14")?
        .config_str(nanobench::pmu::config::cfg_skylake())?
        .unroll_count(100)
        .warm_up_count(2);
    let result = session.run(&spec)?;

    print!("{result}");
    println!();
    println!(
        "L1 data cache latency: {} cycles",
        result.core_cycles().expect("core cycles measured")
    );
    Ok(())
}
