//! Determinism suite for the Session/Campaign layer.
//!
//! The campaign contract: job *j* always runs on a session seeded
//! `base_seed ^ j`, so results are byte-identical for any worker count and
//! identical to sequential fresh-session runs. The machine contract:
//! `Machine::reset()` + rerun equals a fresh machine making the same
//! allocation calls — in kernel *and* user mode, where page mappings and
//! the interrupt stream are random-seeded — on every microarchitecture,
//! even though a reset is O(1) and the caches rewind their sets lazily.

use nanobench_cache::hierarchy::{HitLevel, L3PolicyConfig, SnoopResult};
use nanobench_cache::{Cache, CacheStats, LineState};
use nanobench_core::{BenchSpec, Campaign, Session, NB_SEED};
use nanobench_machine::{Machine, Mode};
use nanobench_uarch::engine::RunStats;
use nanobench_uarch::port::MicroArch;
use nanobench_x86::asm::parse_asm;
use nanobench_x86::reg::Gpr;
use nanobench_x86::Instruction;

/// A mixed batch the shape of a real campaign: ALU chains, loads/stores
/// against the arenas, a looped benchmark, and different aggregates.
fn campaign_specs() -> Vec<BenchSpec> {
    let mut specs = Vec::new();
    for asm in [
        "add rax, rax",
        "imul rax, rax",
        "mov r14, [r14]",
        "nop",
        "xor rax, rax; add rbx, rbx",
    ] {
        let mut spec = BenchSpec::new();
        spec.asm(asm)
            .unwrap()
            .config_str("0E.01 UOPS_ISSUED.ANY\nD1.01 MEM_LOAD_RETIRED.L1_HIT")
            .unwrap()
            .unroll_count(60)
            .warm_up_count(2)
            .n_measurements(5);
        if asm.starts_with("mov r14") {
            spec.asm_init("mov [r14], r14").unwrap();
        }
        specs.push(spec);
    }
    let mut looped = BenchSpec::new();
    looped
        .asm("add rcx, 1")
        .unwrap()
        .unroll_count(10)
        .loop_count(50)
        .warm_up_count(1)
        .n_measurements(4)
        .aggregate(nanobench_core::Aggregate::TrimmedMean);
    specs.push(looped);
    specs
}

#[test]
fn campaign_worker_count_does_not_change_results() {
    let specs = campaign_specs();
    for mode in ["kernel", "user"] {
        let campaign = |workers| {
            let c = if mode == "kernel" {
                Campaign::kernel(MicroArch::Skylake)
            } else {
                Campaign::user(MicroArch::Skylake)
            };
            c.workers(workers).run_all(&specs).unwrap()
        };
        let sequential = campaign(1);
        for workers in [2usize, 8] {
            assert_eq!(
                campaign(workers),
                sequential,
                "{mode}: {workers} workers vs sequential"
            );
        }
        // The sequential path itself must equal per-job fresh sessions.
        for (j, spec) in specs.iter().enumerate() {
            let machine_mode = if mode == "kernel" {
                Mode::Kernel
            } else {
                Mode::User
            };
            let mut fresh =
                Session::with_seed(MicroArch::Skylake, machine_mode, NB_SEED ^ j as u64);
            assert_eq!(sequential[j], fresh.run(spec).unwrap(), "{mode}: job {j}");
        }
    }
}

#[test]
fn store_backed_campaign_is_bit_identical_for_any_worker_count() {
    // The store pin of the campaign contract: cold store-backed runs,
    // warm store-backed re-runs (fresh handle over the same log), and
    // store-less runs must all be bit-identical, for every worker count,
    // in both modes.
    let specs = campaign_specs();
    let path = std::env::temp_dir().join(format!("nbstore-det-{}", std::process::id()));
    for mode in ["kernel", "user"] {
        let _ = std::fs::remove_file(&path);
        let base = |workers: usize| {
            let c = if mode == "kernel" {
                Campaign::kernel(MicroArch::Skylake)
            } else {
                Campaign::user(MicroArch::Skylake)
            };
            c.workers(workers)
        };
        let cold_plain = base(1).run_all(&specs).unwrap();
        for workers in [1usize, 2, 8] {
            let campaign = base(workers).with_store(&path).unwrap();
            assert_eq!(
                campaign.run_all(&specs).unwrap(),
                cold_plain,
                "{mode}: store-backed, {workers} workers"
            );
        }
        // After the first pass every job is stored: a fresh handle must
        // answer all jobs from disk and still match bit-exactly.
        let warm = base(2).with_store(&path).unwrap();
        assert_eq!(warm.run_all(&specs).unwrap(), cold_plain, "{mode}: warm");
        let stats = warm.store_stats().unwrap();
        assert_eq!(stats.hits as usize, specs.len(), "{mode}: all jobs hit");
        assert_eq!(stats.inserts, 0, "{mode}: nothing recomputed");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn interrupted_campaign_resumes_from_partial_store() {
    // Simulate an interrupted campaign: only a subset of jobs made it
    // into the store. A re-run must compute exactly the missing jobs and
    // still produce bit-identical output.
    let specs = campaign_specs();
    let path = std::env::temp_dir().join(format!("nbstore-resume-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let cold = Campaign::kernel(MicroArch::Skylake)
        .workers(2)
        .run_all(&specs)
        .unwrap();

    // First pass over a prefix of the batch, as if the campaign died
    // after three jobs (job seeds are position-based, so a prefix of the
    // spec list stores the same records the full batch would).
    let partial = Campaign::kernel(MicroArch::Skylake)
        .workers(1)
        .with_store(&path)
        .unwrap();
    let prefix = partial.run_all(&specs[..3]).unwrap();
    assert_eq!(prefix, cold[..3], "prefix results match the full cold run");
    drop(partial);

    let resumed = Campaign::kernel(MicroArch::Skylake)
        .workers(2)
        .with_store(&path)
        .unwrap();
    assert_eq!(resumed.run_all(&specs).unwrap(), cold, "resumed output");
    let stats = resumed.store_stats().unwrap();
    assert_eq!(stats.hits, 3, "the three stored jobs are not recomputed");
    assert_eq!(
        stats.inserts as usize,
        specs.len() - 3,
        "only the missing jobs are computed and published"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn campaign_base_seed_flows_into_jobs() {
    let specs = campaign_specs();
    let seeded = Campaign::kernel(MicroArch::Skylake)
        .base_seed(0xFEED)
        .workers(2)
        .run_all(&specs)
        .unwrap();
    for (j, spec) in specs.iter().enumerate() {
        let mut fresh = Session::with_seed(MicroArch::Skylake, Mode::Kernel, 0xFEED ^ j as u64);
        assert_eq!(seeded[j], fresh.run(spec).unwrap(), "job {j}");
    }
}

/// Runs a fixed little workload on a machine and digests everything
/// observable: run stats, final registers, readback of the touched memory.
fn drive(machine: &mut Machine, base: u64) -> Vec<u64> {
    let mut observed = Vec::new();
    machine.state_mut().set_gpr(Gpr::R14, base);
    let plan = machine.decode(
        &parse_asm(
            "mov [r14], r14; mov rax, [r14]; add rax, 5; mov [r14+64], rax; \
             mov rcx, 3; add rbx, rcx; imul rbx, rcx",
        )
        .unwrap(),
    );
    for _ in 0..3 {
        let stats = machine.run_plan(&plan).unwrap();
        observed.push(stats.instructions);
        observed.push(stats.uops);
        observed.push(stats.cycles);
        observed.push(stats.end_cycle);
    }
    observed.push(machine.state().gpr(Gpr::Rax));
    observed.push(machine.state().gpr(Gpr::Rbx));
    observed.push(machine.read_mem(base + 64, 8).unwrap());
    observed.push(machine.cycle());
    let stats = machine.hierarchy().l1_stats();
    observed.extend([stats.hits, stats.misses, stats.evictions]);
    observed
}

#[test]
fn machine_reset_equals_fresh_machine_kernel_and_user() {
    for mode in [Mode::Kernel, Mode::User] {
        let mut machine = Machine::new(MicroArch::Skylake, mode, 77);
        let base = machine.alloc_region(1 << 16);
        let first = drive(&mut machine, base);

        // Reset + rerun on the same machine must replay bit-identically.
        machine.reset();
        assert_eq!(drive(&mut machine, base), first, "{mode:?}: reset + rerun");

        // And equal a fresh machine making the same allocation calls.
        let mut fresh = Machine::new(MicroArch::Skylake, mode, 77);
        let fresh_base = fresh.alloc_region(1 << 16);
        assert_eq!(fresh_base, base, "{mode:?}: allocation addresses");
        if mode == Mode::User {
            // The frame scattering must replay identically too.
            for page in 0..16u64 {
                assert_eq!(
                    machine.translate(base + page * 4096),
                    fresh.translate(base + page * 4096),
                    "{mode:?}: page {page}"
                );
            }
        }
        assert_eq!(drive(&mut fresh, fresh_base), first, "{mode:?}: fresh");
    }
}

#[test]
fn machine_reset_with_seed_matches_fresh_seed() {
    // Resetting to a *different* seed must equal a fresh machine built
    // with that seed (same allocation calls), including user-mode page
    // scattering and the interrupt stream.
    for mode in [Mode::Kernel, Mode::User] {
        let mut machine = Machine::new(MicroArch::Skylake, mode, 77);
        let base = machine.alloc_region(1 << 16);
        let _ = drive(&mut machine, base);
        machine.reset_with_seed(1234);

        let mut fresh = Machine::new(MicroArch::Skylake, mode, 1234);
        let fresh_base = fresh.alloc_region(1 << 16);
        assert_eq!(fresh_base, base);
        assert_eq!(
            drive(&mut machine, base),
            drive(&mut fresh, fresh_base),
            "{mode:?}"
        );
    }
}

/// An e10-shaped batch: measured programs on core 0 with co-runners
/// looping on cores 1..3 (same-line stores and a streaming walk).
fn multicore_specs() -> Vec<BenchSpec> {
    // Every session allocates identically, so the R14 arena sits at the
    // same address in every campaign worker — probe it once.
    let arena = Session::kernel(MicroArch::Skylake)
        .arena_base(Gpr::R14)
        .unwrap();
    let mut specs = Vec::new();
    for (asm, init) in [
        ("mov r14, [r14]", Some("mov [r14], r14")),
        ("mov rax, [r14]", Some("mov [r14], r14")),
        ("add rax, rax", None),
    ] {
        let mut spec = BenchSpec::new();
        spec.asm(asm)
            .unwrap()
            .unroll_count(40)
            .loop_count(8)
            .warm_up_count(1)
            .n_measurements(3);
        if let Some(init) = init {
            spec.asm_init(init).unwrap();
        }
        // Co-runner 1: false-sharing stores into the line the measured
        // code self-chases. Co-runner 2: a short streaming loop.
        spec.corunner_asm(&format!("mov [{0:#x}], rbx; mov [{0:#x}], rbx", arena + 8))
            .unwrap();
        spec.corunner_asm(
            "mov rbx, 0x60000000; mov rax, [rbx]; add rbx, 64; \
             mov rax, [rbx]; add rbx, 64; mov rax, [rbx]",
        )
        .unwrap();
        specs.push(spec);
    }
    specs
}

#[test]
fn multicore_campaign_is_bit_identical_across_worker_counts() {
    let specs = multicore_specs();
    let campaign = |workers| {
        Campaign::kernel(MicroArch::Skylake)
            .cores(3)
            .workers(workers)
            .run_all(&specs)
            .unwrap()
    };
    let sequential = campaign(1);
    for workers in [2usize, 8] {
        assert_eq!(campaign(workers), sequential, "{workers} workers");
    }
    // And equal to per-job fresh multi-core sessions.
    for (j, spec) in specs.iter().enumerate() {
        let mut fresh =
            Session::with_seed_cores(MicroArch::Skylake, Mode::Kernel, NB_SEED ^ j as u64, 3);
        assert_eq!(sequential[j], fresh.run(spec).unwrap(), "job {j}");
    }
}

#[test]
fn multicore_machine_reset_equals_fresh_machine() {
    // Interfered runs must replay bit-identically after Machine::reset,
    // and equal a fresh machine making the same calls.
    let drive_interfered = |machine: &mut Machine, base: u64| -> Vec<u64> {
        machine.state_mut().set_gpr(Gpr::R14, base);
        machine
            .run_plan(&machine.decode(&parse_asm("mov [r14], r14").unwrap()))
            .unwrap();
        let chase = machine.decode(&parse_asm(&"mov r14, [r14]; ".repeat(60)).unwrap());
        let store =
            machine.decode(&parse_asm(&format!("mov [{:#x}], rax", base + 8).repeat(1)).unwrap());
        let stream = machine.decode(
            &parse_asm("mov rbx, 0x60000000; mov rax, [rbx]; add rbx, 64; mov rax, [rbx]").unwrap(),
        );
        let mut observed = Vec::new();
        for _ in 0..3 {
            let stats = machine
                .run_plan_with_corunners(&chase, &[&store, &stream])
                .unwrap();
            observed.extend([
                stats.instructions,
                stats.uops,
                stats.cycles,
                stats.end_cycle,
            ]);
        }
        observed.push(machine.cycle_of(1));
        observed.push(machine.cycle_of(2));
        observed.push(machine.hierarchy().invalidations());
        observed.extend(machine.hierarchy().snoop_hits().iter().copied());
        let l1 = machine.hierarchy().l1_stats_of(1);
        observed.extend([l1.hits, l1.misses]);
        observed
    };

    let mut machine = Machine::with_cores(MicroArch::Skylake, Mode::Kernel, 77, 3);
    let base = machine.alloc_region(1 << 16);
    let first = drive_interfered(&mut machine, base);
    assert!(
        *first.last().unwrap() > 0 || first.iter().any(|v| *v > 0),
        "the interfered run must actually run"
    );

    machine.reset();
    assert_eq!(
        drive_interfered(&mut machine, base),
        first,
        "reset + rerun must replay the interfered workload bit-identically"
    );

    let mut fresh = Machine::with_cores(MicroArch::Skylake, Mode::Kernel, 77, 3);
    let fresh_base = fresh.alloc_region(1 << 16);
    assert_eq!(fresh_base, base);
    assert_eq!(drive_interfered(&mut fresh, fresh_base), first, "fresh");
}

#[test]
fn session_reset_replays_noisy_user_benchmarks() {
    // User mode injects interrupts from the machine's random stream; a
    // reset must rewind that stream so even *noisy* results replay.
    let mut spec = BenchSpec::new();
    spec.asm("add rax, rax")
        .unwrap()
        .unroll_count(50)
        .loop_count(800)
        .n_measurements(6);
    let mut session = Session::user(MicroArch::Skylake);
    let first = session.run(&spec).unwrap();
    session.reset();
    assert_eq!(session.run(&spec).unwrap(), first);
}

/// Every observable of a machine's caches: each cache's statistics and
/// valid lines (each core's L1 and L2, then the L3 slices) and the PSEL
/// counter.
type CacheView = (Vec<CacheStats>, Vec<Vec<(u64, LineState)>>, i32);

fn cache_view(machine: &Machine) -> CacheView {
    let h = machine.hierarchy();
    (
        h.caches().map(Cache::stats).collect(),
        h.caches().map(|c| c.valid_lines().collect()).collect(),
        h.psel().value(),
    )
}

/// Sets holding at least one valid line, summed over every cache: after a
/// reset, exactly the sets that work since then has rewound (as long as
/// nothing was invalidated).
fn nonempty_sets(machine: &Machine) -> u64 {
    machine
        .hierarchy()
        .caches()
        .map(|c| {
            let mut sets: Vec<usize> = c.valid_lines().map(|(p, _)| c.set_index(p)).collect();
            sets.sort_unstable();
            sets.dedup();
            sets.len() as u64
        })
        .sum()
}

/// A §V-suite-shaped throughput benchmark: independent copies of a few
/// instructions, one of them a load, with port and L1-hit counters.
fn suite_variant() -> BenchSpec {
    let mut spec = BenchSpec::new();
    spec.asm("imul rax, rbx; mov rcx, [r14]; mulps xmm1, xmm2")
        .unwrap()
        .config_str(
            "0E.01 UOPS_ISSUED.ANY\nA1.01 UOPS_DISPATCHED_PORT.PORT_0\n\
             D1.01 MEM_LOAD_RETIRED.L1_HIT",
        )
        .unwrap()
        .unroll_count(50)
        .warm_up_count(2)
        .n_measurements(5);
    spec
}

/// Lays a pointer chase at `base` that thrashes some L3 follower sets and
/// slice 0's first leader-set range (§VI-D: sets 512–575, which lead for
/// policy A on every dueling part, so the PSEL leaves its midpoint): 2 × assoc ×
/// slices rows of lines one slice-set stride apart (`base` rounded up to
/// that stride; the region must span one row more), so every chased
/// (slice, set) sees about twice its associativity. Returns the chase
/// program and the first line (start it with R14 there).
fn l3_chase(machine: &mut Machine, base: u64) -> (Vec<Instruction>, u64) {
    let l3 = &machine.hierarchy().config().l3;
    let (sets, rows) = (
        l3.sets_per_slice() as u64,
        (2 * l3.assoc * l3.slices) as u64,
    );
    // Kernel mode maps identically, so aligning the virtual base to the
    // slice-set stride puts row line `set` in L3 set `set`.
    let base = base.next_multiple_of(sets * 64);
    let h = machine.hierarchy();
    let lines: Vec<u64> = (0..rows)
        .flat_map(|row| {
            (0..64u64)
                .step_by(8)
                .chain((512..576).step_by(4))
                .map(move |set| base + (row * sets + set % sets) * 64)
        })
        .filter(|&line| h.l3_location(line).1 < 512 || h.l3_location(line).0 == 0)
        .collect();
    for pair in lines.windows(2) {
        machine.write_mem(pair[0], 8, pair[1]).unwrap();
    }
    let chase = parse_asm(&"mov r14, [r14]; ".repeat(lines.len() - 1)).unwrap();
    (chase, lines[0])
}

/// A kernel session over `Machine::new(uarch, Kernel, seed)`, plus the
/// region [`l3_chase`] runs in.
fn session_with_chase_region(uarch: MicroArch, seed: u64) -> (Session, u64) {
    let mut session = Session::with_machine(Machine::new(uarch, Mode::Kernel, seed));
    let l3 = &session.machine().hierarchy().config().l3;
    let bytes = (2 * l3.assoc * l3.slices + 1) as u64 * l3.sets_per_slice() as u64 * 64;
    let base = session.machine_mut().alloc_region(bytes);
    (session, base)
}

/// Runs the suite variant and then the L3 chase; returns everything they
/// report.
fn run_variant_and_chase(
    session: &mut Session,
    base: u64,
) -> (nanobench_core::BenchmarkResult, RunStats) {
    let result = session.run(&suite_variant()).unwrap();
    let machine = session.machine_mut();
    let (chase, start) = l3_chase(machine, base);
    machine.state_mut().set_gpr(Gpr::R14, start);
    let stats = machine.run_plan(&machine.decode(&chase)).unwrap();
    (result, stats)
}

#[test]
fn reset_equals_fresh_on_every_microarchitecture() {
    // A machine dirtied by a suite variant and an L3-thrashing chase, then
    // reset to seed `s`, must be indistinguishable from a fresh machine
    // built with `s`: right after the reset (stale sets read as empty) and
    // through its next run (sets rewound on first touch replay the
    // construction-time random streams, leader-B QLRU sets included).
    let s = 0x5EED;
    for uarch in MicroArch::ALL {
        let (mut dirty, base) = session_with_chase_region(uarch, 77);
        run_variant_and_chase(&mut dirty, base);
        let h = dirty.machine().hierarchy();
        assert!(
            h.l3_stats().evictions > 0,
            "{uarch:?}: the chase must thrash the L3"
        );
        if matches!(h.config().l3.policy, L3PolicyConfig::Adaptive { .. }) {
            assert_ne!(h.psel().value(), 512, "{uarch:?}: the chase must move PSEL");
        }
        dirty.reset_with_seed(s);

        let (mut fresh, fresh_base) = session_with_chase_region(uarch, s);
        assert_eq!(base, fresh_base, "{uarch:?}: allocation addresses");
        assert_eq!(
            cache_view(dirty.machine()),
            cache_view(fresh.machine()),
            "{uarch:?}: right after the reset"
        );
        assert_eq!(
            run_variant_and_chase(&mut dirty, base),
            run_variant_and_chase(&mut fresh, fresh_base),
            "{uarch:?}: next run"
        );
        assert_eq!(
            format!("{:?}", dirty.machine().pmu()),
            format!("{:?}", fresh.machine().pmu()),
            "{uarch:?}: PMU"
        );
        assert_eq!(
            cache_view(dirty.machine()),
            cache_view(fresh.machine()),
            "{uarch:?}: caches after the next run"
        );
    }
}

#[test]
fn reset_leaves_no_stale_line_for_snoops_or_the_audit() {
    // Core 0 holds a line Modified; after a reset, core 1's write to it must
    // find no remote copy, and the audit must see a coherent hierarchy.
    let mut machine = Machine::with_cores(MicroArch::Skylake, Mode::Kernel, 77, 2);
    let line = machine.alloc_region(4096);
    let h = machine.hierarchy_mut();
    h.access_from(0, line, true).unwrap();
    assert_eq!(h.line_state(0, line).unwrap(), LineState::Modified);
    machine.reset();

    let h = machine.hierarchy_mut();
    assert_eq!(h.line_state(0, line).unwrap(), LineState::Invalid);
    assert_eq!(h.probe_level_from(0, line).unwrap(), HitLevel::Memory);
    let write = h.access_from(1, line, true).unwrap();
    assert_eq!(write.snoop, SnoopResult::Miss, "snoop hit a stale line");
    assert_eq!(write.invalidated, 0);
    assert_eq!(write.level, HitLevel::Memory);
    assert_eq!(h.line_state(0, line).unwrap(), LineState::Invalid);
    assert_eq!(h.line_state(1, line).unwrap(), LineState::Modified);
    assert_eq!(h.check_invariants(), Ok(()));
}

#[test]
fn resets_rewind_only_the_sets_a_job_touches_and_reads_rewind_none() {
    let mut machine = Machine::new(MicroArch::Skylake, Mode::Kernel, 77);
    let base = machine.alloc_region(1 << 16);
    drive(&mut machine, base);
    assert!(machine.hierarchy().sets_reset() == 0, "no reset yet");

    machine.reset_with_seed(0x5EED);
    machine.reset();
    let before = machine.hierarchy().sets_reset();
    // Reads of stale sets see nothing and rewind nothing.
    let h = machine.hierarchy();
    assert_eq!(h.check_invariants(), Ok(()));
    assert_eq!(h.line_state(0, base).unwrap(), LineState::Invalid);
    assert_eq!(h.probe_level(base), HitLevel::Memory);
    assert_eq!(
        h.caches().map(|c| c.valid_lines().count()).sum::<usize>(),
        0
    );
    assert_eq!(
        machine.hierarchy().sets_reset(),
        before,
        "reads rewound sets"
    );

    // A one-load job rewinds exactly the L1, L2 and L3 sets it fills
    // (prefetches included): one of each for the demand line, at least.
    machine.state_mut().set_gpr(Gpr::R14, base);
    let load = machine.decode(&parse_asm("mov rax, [r14]").unwrap());
    machine.run_plan(&load).unwrap();
    let rewound = machine.hierarchy().sets_reset() - before;
    assert!(rewound >= 3, "one L1, L2 and L3 set at least: {rewound}");
    assert_eq!(rewound, nonempty_sets(&machine));

    // Reading the result rewinds nothing; rerunning the load hits.
    let h = machine.hierarchy();
    assert_eq!(h.check_invariants(), Ok(()));
    assert_eq!(h.probe_level(base), HitLevel::L1);
    assert_eq!(h.line_state(0, base).unwrap(), LineState::Exclusive);
    machine.run_plan(&load).unwrap();
    assert_eq!(machine.hierarchy().sets_reset() - before, rewound);
}
