//! Criterion benches for tool overhead.
//!
//! * `nanobench_invocation` — E2 (§III-K): wall-clock cost of one
//!   nanoBench invocation (NOP, unroll=100, loop=0, nMeasurements=10, 4
//!   events), kernel vs user version. The paper reports ~15 ms vs ~50 ms
//!   on real hardware; the reproduction checks the *relative* shape.
//! * `campaign_throughput` — the point of the Session/Campaign layer: the
//!   same batch of benchmarks run (a) the pre-session way, rebuilding the
//!   whole machine per benchmark, (b) on one reused session, and (c)
//!   fanned out across campaign workers. Session reuse must beat
//!   rebuild-per-run.

use criterion::{criterion_group, criterion_main, Criterion};
use nanobench_core::{BenchSpec, Campaign, Session, NB_SEED};
use nanobench_uarch::port::MicroArch;

const CFG: &str = "\
0E.01 UOPS_ISSUED.ANY
A1.01 UOPS_DISPATCHED_PORT.PORT_0
A1.02 UOPS_DISPATCHED_PORT.PORT_1
D1.01 MEM_LOAD_RETIRED.L1_HIT
";

fn setup(kernel: bool) -> (Session, BenchSpec) {
    let session = if kernel {
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
        .n_measurements(10);
    (session, spec)
}

fn bench_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("nanobench_invocation");
    group.sample_size(10);
    let (mut kernel, spec) = setup(true);
    group.bench_function("kernel_nop_u100_n10", |b| {
        b.iter(|| kernel.run(&spec).expect("runs"))
    });
    let (mut user, spec) = setup(false);
    group.bench_function("user_nop_u100_n10", |b| {
        b.iter(|| user.run(&spec).expect("runs"))
    });
    group.finish();
}

/// A small campaign: a handful of one-instruction benchmarks, the shape of
/// the §V suite.
fn campaign_specs() -> Vec<BenchSpec> {
    ["nop", "add rax, rax", "imul rax, rax", "xor rax, rax"]
        .iter()
        .cycle()
        .take(12)
        .map(|asm| {
            let mut spec = BenchSpec::new();
            spec.asm(asm)
                .unwrap()
                .config_str(CFG)
                .unwrap()
                .unroll_count(100)
                .n_measurements(10);
            spec
        })
        .collect()
}

fn bench_campaign(c: &mut Criterion) {
    let specs = campaign_specs();
    let mut group = c.benchmark_group("campaign_throughput");
    group.sample_size(10);

    // (a) The pre-session way: build the machine + arenas per benchmark.
    group.bench_function("rebuild_per_run", |b| {
        b.iter(|| {
            specs
                .iter()
                .enumerate()
                .map(|(j, spec)| {
                    let mut session = Session::with_seed(
                        MicroArch::CoffeeLake,
                        nanobench_machine::Mode::Kernel,
                        NB_SEED ^ j as u64,
                    );
                    session.run(spec).expect("runs")
                })
                .collect::<Vec<_>>()
        })
    });

    // (b) One session, reset between benchmarks (1 worker campaign).
    group.bench_function("session_reuse", |b| {
        let campaign = Campaign::kernel(MicroArch::CoffeeLake).workers(1);
        b.iter(|| campaign.run_all(&specs).expect("runs"))
    });

    // (c) Sharded across worker threads; results stay bit-identical.
    group.bench_function("parallel_workers", |b| {
        let campaign = Campaign::kernel(MicroArch::CoffeeLake).workers(4);
        b.iter(|| campaign.run_all(&specs).expect("runs"))
    });
    group.finish();
}

criterion_group!(benches, bench_overhead, bench_campaign);
criterion_main!(benches);
