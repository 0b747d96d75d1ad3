//! Cross-crate integration tests: the full pipeline from assembler text
//! through code generation, the simulated machine, and back to counter
//! values — plus end-to-end checks of both case-study toolkits.

use nanobench::cache::presets::{cpu_by_microarch, table1_cpus};
use nanobench::cache_tools::{fit_policy, AccessSeq, CacheSeq, Level};
use nanobench::nb::shell::{kernel_nanobench, user_nanobench};
use nanobench::nb::{Aggregate, BenchSpec, Session};
use nanobench::uarch::port::MicroArch;

#[test]
fn paper_example_reproduces_exactly() {
    let out = kernel_nanobench(
        MicroArch::Skylake,
        r#"-asm "mov R14, [R14]" -asm_init "mov [R14], R14" -config cfg_Skylake.txt -unroll_count 100 -warm_up_count 2"#,
    )
    .expect("benchmark runs");
    assert_eq!(out.get("Instructions retired"), Some(1.0));
    assert_eq!(out.core_cycles(), Some(4.0));
    let refc = out.get("Reference cycles").unwrap();
    assert!(
        (refc - 3.52).abs() < 0.01,
        "reference cycles {refc} vs paper 3.52"
    );
    // The load µop alternates between the two load ports; the exact split
    // per multiplexing round varies slightly, the sum is exactly one µop.
    let p2 = out.get("UOPS_DISPATCHED_PORT.PORT_2").unwrap();
    let p3 = out.get("UOPS_DISPATCHED_PORT.PORT_3").unwrap();
    assert!((p2 + p3 - 1.0).abs() < 0.1, "p2 {p2} + p3 {p3}");
    assert!((0.3..0.7).contains(&p2) && (0.3..0.7).contains(&p3));
    assert_eq!(out.get("MEM_LOAD_RETIRED.L1_HIT"), Some(1.0));
    assert_eq!(out.get("MEM_LOAD_RETIRED.L1_MISS"), Some(0.0));
}

#[test]
fn privileged_instructions_need_the_kernel_version() {
    let opts = r#"-asm "wbinvd" -n_measurements 2"#;
    assert!(kernel_nanobench(MicroArch::Skylake, opts).is_ok());
    assert!(user_nanobench(MicroArch::Skylake, opts).is_err());
}

#[test]
fn loop_and_unroll_agree_on_throughput() {
    // §III-F: loops and unrolling are different ways to repeat code; for a
    // simple ALU benchmark they must agree on the steady-state result.
    let mut unrolled = BenchSpec::new();
    unrolled
        .asm("add rax, rax")
        .unwrap()
        .unroll_count(200)
        .warm_up_count(2);
    let u = Session::kernel(MicroArch::Skylake).run(&unrolled).unwrap();
    let mut looped = BenchSpec::new();
    looped
        .asm("add rax, rax")
        .unwrap()
        .unroll_count(20)
        .loop_count(100)
        .warm_up_count(3);
    let l = Session::kernel(MicroArch::Skylake).run(&looped).unwrap();
    assert_eq!(u.core_cycles(), Some(1.0), "dependency chain: 1 cycle/add");
    let looped_cycles = l.core_cycles().unwrap();
    assert!(
        (looped_cycles - 1.0).abs() < 0.1,
        "loop overhead must be amortized: got {looped_cycles}"
    );
}

#[test]
fn binary_code_input_with_magic_markers() {
    // §III-E/§III-I: code can be supplied as machine-code bytes; magic
    // byte sequences pause and resume counting. Instructions between
    // PAUSE and RESUME must not be counted.
    use nanobench::x86::encode::{MAGIC_PAUSE, MAGIC_RESUME};
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&[0x48, 0x01, 0xC0]); // add rax, rax
    bytes.extend_from_slice(&MAGIC_PAUSE);
    for _ in 0..10 {
        bytes.extend_from_slice(&[0x48, 0x01, 0xDB]); // add rbx, rbx (paused)
    }
    bytes.extend_from_slice(&MAGIC_RESUME);
    bytes.extend_from_slice(&[0x48, 0x01, 0xC9]); // add rcx, rcx
    let mut spec = BenchSpec::new();
    spec.code_bytes(&bytes)
        .unwrap()
        .no_mem(true)
        .unroll_count(10)
        .warm_up_count(1);
    let out = Session::kernel(MicroArch::Skylake).run(&spec).unwrap();
    let retired = out.get("Instructions retired").unwrap();
    assert!(
        (retired - 2.0).abs() < 0.2,
        "only the 2 unpaused adds count, got {retired}"
    );
}

#[test]
fn aggregate_functions_order_sensibly() {
    // In user mode (noisy), min <= median <= trimmed mean typically holds
    // for cycle counts perturbed by one-sided interrupt noise.
    let run = |agg| {
        let mut spec = BenchSpec::new();
        spec.asm("add rax, rax")
            .unwrap()
            .unroll_count(50)
            .loop_count(500)
            .n_measurements(15)
            .aggregate(agg);
        Session::user(MicroArch::Skylake)
            .run(&spec)
            .unwrap()
            .core_cycles()
            .unwrap()
    };
    let min = run(Aggregate::Min);
    let median = run(Aggregate::Median);
    assert!(min <= median + 0.05, "min {min} vs median {median}");
}

#[test]
fn cacheseq_matches_policy_simulation_on_l2() {
    // End-to-end case study II consistency on a different CPU/level than
    // the unit tests: Cannon Lake's L2 (QLRU_H00_M1_R0_U1, 4 ways).
    let cpu = cpu_by_microarch("Cannon Lake").unwrap();
    let mut cs = CacheSeq::new(&cpu, Level::L2, 9, None, 8, 3).unwrap();
    let fit = fit_policy(&mut cs, cpu.l2_assoc, 60, 9).unwrap();
    let expected = nanobench::cache::policy::PolicyKind::parse("QLRU_H00_M1_R0_U1").unwrap();
    assert!(fit.contains(&expected), "got: {}", fit.summary());
    assert!(fit.is_unique(), "got: {}", fit.summary());
}

#[test]
fn sequence_notation_round_trips_through_measurement() {
    let cpu = cpu_by_microarch("Haswell").unwrap();
    let mut cs = CacheSeq::new(&cpu, Level::L1, 11, None, 12, 5).unwrap();
    // 8-way PLRU L1: after filling 8 blocks, all 8 re-accesses hit.
    let blocks: Vec<usize> = (0..8).chain(0..8).collect();
    let seq = AccessSeq::measured_all(&blocks);
    assert_eq!(cs.run_hits(&seq).unwrap(), 8);
}

#[test]
fn every_table1_preset_boots_and_measures() {
    for cpu in table1_cpus() {
        let uarch = MicroArch::parse(cpu.microarch).unwrap();
        let mut spec = BenchSpec::new();
        spec.asm("add rax, rax")
            .unwrap()
            .unroll_count(50)
            .warm_up_count(1)
            .n_measurements(3);
        let out = Session::kernel(uarch).run(&spec).unwrap();
        let cyc = out.core_cycles().unwrap();
        assert!((cyc - 1.0).abs() < 0.05, "{}: {cyc}", cpu.model);
    }
}

#[test]
fn coherence_audit_is_clean_after_an_interference_run() {
    use nanobench::machine::Mode;
    use nanobench::nb::NB_SEED;

    // A deliberately contended run: core 1 stores into the very line the
    // measured pointer chase keeps hot. The coherence layer is exercised
    // hard (RFO upgrades, HITM forwards, downgrades) — and afterwards the
    // hierarchy must still satisfy every MESI safety invariant nbverify
    // proves on the abstract protocol.
    let mut session = Session::with_seed_cores(MicroArch::Skylake, Mode::Kernel, NB_SEED, 3);
    let base = session
        .arena_base(nanobench::x86::reg::Gpr::R14)
        .expect("r14 is an arena register");
    let mut spec = BenchSpec::new();
    spec.asm("mov R14, [R14]")
        .expect("parses")
        .asm_init("mov [R14], R14")
        .expect("parses")
        .corunner_asm(&format!("mov [{base:#x}], rbx"))
        .expect("parses")
        .unroll_count(50)
        .warm_up_count(1);

    // The new lint flags the false sharing the spec sets up on purpose...
    let diags = session.analyze(&spec);
    assert!(
        diags
            .iter()
            .any(|d| d.code == nanobench::analysis::Code::CorunnerFalseShare),
        "the interference spec should trip the false-sharing lint: {diags:?}"
    );

    // ...the run still executes (warnings are not errors), and the
    // hierarchy comes out of it coherent.
    session.run(&spec).expect("contended benchmark runs");
    session
        .coherence_audit()
        .expect("post-run hierarchy satisfies the MESI invariants");
}
