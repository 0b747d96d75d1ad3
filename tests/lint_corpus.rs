//! Pins the repository's clean-lint state: every kernel the repo ships —
//! the x86 round-trip corpus, the case-study-I instruction suite, and the
//! inline e*/example kernels — passes the static analyzer with zero
//! error-severity diagnostics, and its decoded plan satisfies every
//! interpreter invariant. Seeded negatives pin the rejection side: the
//! expected code AND span, so regressions in either direction fail here
//! before they reach the nblint CI sweep.

use nanobench::analysis::{has_errors, plan_diagnostics, Code, Severity};
use nanobench::inst_tools::benchmark_suite;
use nanobench::nb::{BenchSpec, LintGate, NbError, Session};
use nanobench::uarch::port::MicroArch;
use nanobench::x86::corpus::ROUNDTRIP_CORPUS;

fn spec(init: &str, code: &str) -> BenchSpec {
    let mut s = BenchSpec::new();
    s.asm_init(init).expect("init parses");
    s.asm(code).expect("code parses");
    s
}

/// Asserts a spec lints with zero errors and a clean plan in the session.
fn assert_clean(session: &Session, name: &str, init: &str, code: &str) {
    let s = spec(init, code);
    let errors: Vec<_> = session
        .analyze(&s)
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    assert!(errors.is_empty(), "{name} should lint clean: {errors:?}");
    let plan = session.machine().decode(&s.code);
    let plan_diags = plan_diagnostics(&plan);
    assert!(
        plan_diags.is_empty(),
        "{name} plan should verify: {plan_diags:?}"
    );
}

#[test]
fn the_roundtrip_corpus_lints_clean() {
    let session = Session::kernel(MicroArch::Skylake);
    for line in ROUNDTRIP_CORPUS {
        assert_clean(&session, &format!("corpus `{line}`"), "", line);
    }
}

#[test]
fn the_instruction_suite_lints_clean() {
    let session = Session::kernel(MicroArch::Skylake);
    for s in benchmark_suite() {
        if let Some(lat) = &s.latency_asm {
            assert_clean(
                &session,
                &format!("{} (latency)", s.name),
                &s.latency_init,
                lat,
            );
        }
        assert_clean(
            &session,
            &format!("{} (throughput)", s.name),
            &s.throughput_init,
            &s.throughput_asm,
        );
    }
}

#[test]
fn the_experiment_kernels_lint_clean() {
    let kernel = Session::kernel(MicroArch::Skylake);
    let user = Session::user(MicroArch::Skylake);
    let inline: &[(&str, &str, &str)] = &[
        ("e1/quickstart chase", "mov [R14], R14", "mov R14, [R14]"),
        ("e2 nop", "", "nop"),
        ("e3 cpuid fixed rax", "", "mov rax, 0; cpuid"),
        ("e3 lfence", "", "lfence"),
        ("e9 add", "", "add rax, rax"),
        ("e10 chase", "mov [r14], r14", "mov r14, [r14]"),
        ("kernel_vs_user wbinvd", "", "wbinvd"),
        ("port_usage rdmsr", "mov rcx, 0xE8; mov rdx, 0", "rdmsr"),
    ];
    for (name, init, code) in inline {
        assert_clean(&kernel, name, init, code);
    }
    assert_clean(&user, "e9 add (user)", "", "add rax, rax");
}

/// The four rejection cases the issue seeds, pinned by code AND span.
#[test]
fn seeded_negatives_are_rejected_with_code_and_span() {
    let kernel = Session::kernel(MicroArch::Skylake);
    let user = Session::user(MicroArch::Skylake);

    // 1. Uninitialized address register: faults in either mode.
    let diags = kernel.analyze(&spec("", "mov rax, [rbx]"));
    assert!(has_errors(&diags), "uninit address must be an error");
    let d = diags
        .iter()
        .find(|d| d.code == Code::UninitAddress)
        .expect("uninit-address diagnostic");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.span.start, 0, "the fault is at body instruction 0");

    // 2. Privileged instruction in a user-mode session (§III-D).
    let diags = user.analyze(&spec("", "nop; wbinvd"));
    let d = diags
        .iter()
        .find(|d| d.code == Code::Privileged)
        .expect("privileged diagnostic");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.span.start, 1, "wbinvd is body instruction 1");

    // 3. Memory operand provably outside every mapped region: an error
    // only in user mode (the kernel identity map cannot fault).
    let diags = user.analyze(&spec("", "mov rax, [0x100]"));
    let d = diags
        .iter()
        .find(|d| d.code == Code::MemRange)
        .expect("mem-range diagnostic");
    assert_eq!(d.severity, Severity::Error);
    let diags = kernel.analyze(&spec("", "mov rax, [0x100]"));
    assert!(
        diags
            .iter()
            .all(|d| d.code != Code::MemRange || d.severity == Severity::Warning),
        "kernel-mode unmapped absolute is a warning, got {diags:?}"
    );

    // 4. Memory operand provably straddling a 64-byte cache line: a
    // warning in either mode (the access runs, but split-line cycles skew
    // what the kernel means to measure).
    for session in [&kernel, &user] {
        let diags = session.analyze(&spec("mov [r14], r14", "nop; mov rax, [r14 + 60]"));
        let d = diags
            .iter()
            .find(|d| d.code == Code::LineStraddle)
            .expect("line-straddle diagnostic");
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.span.start, 1, "the straddling load is body instruction 1");
        let diags = session.analyze(&spec("mov [r14], r14", "mov rax, [r14 + 56]"));
        assert!(
            diags.iter().all(|d| d.code != Code::LineStraddle),
            "a line-interior access must not warn, got {diags:?}"
        );
    }
}

/// The co-runner false-sharing lint end to end through a real session's
/// arena bases, pinned by code AND span in both directions.
#[test]
fn corunner_false_sharing_is_pinned() {
    use nanobench::x86::reg::Gpr;
    let kernel = Session::kernel(MicroArch::Skylake);
    let base = kernel
        .arena_base(Gpr::R14)
        .expect("r14 is an arena register");

    // Positive: the co-runner's store provably lands on the cache line the
    // measured pointer chase keeps in `[r14]`.
    let mut s = spec("mov [r14], r14", "mov r14, [r14]");
    s.corunner_asm(&format!("mov rax, {base:#x}; mov qword [rax], 1"))
        .expect("corunner parses");
    let diags = kernel.analyze(&s);
    let d = diags
        .iter()
        .find(|d| d.code == Code::CorunnerFalseShare)
        .expect("corunner-false-sharing diagnostic");
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(
        d.span.start, 1,
        "the offending store is corunner instruction 1"
    );

    // Negative: the same co-runner streaming a line of its own, far from
    // anything the kernel touches, must stay clean.
    let mut s = spec("mov [r14], r14", "mov r14, [r14]");
    s.corunner_asm(&format!(
        "mov rax, {:#x}; mov qword [rax], 1",
        base + 0x8_0000
    ))
    .expect("corunner parses");
    assert!(
        kernel
            .analyze(&s)
            .iter()
            .all(|d| d.code != Code::CorunnerFalseShare),
        "a co-runner on its own lines must not warn"
    );
}

/// The `-lint` gate end to end: a Deny-gated run returns a structured
/// `NbError::Lint` carrying only the error-severity diagnostics.
#[test]
fn the_deny_gate_rejects_and_reports_structured_errors() {
    let mut spec = BenchSpec::new();
    spec.asm("wbinvd").expect("parses");
    let err = Session::user(MicroArch::Skylake)
        .lint(LintGate::Deny)
        .run(&spec)
        .expect_err("user-mode wbinvd must be rejected by the gate");
    match err {
        NbError::Lint(diags) => {
            assert!(!diags.is_empty());
            assert!(diags.iter().all(|d| d.severity == Severity::Error));
            assert!(diags.iter().any(|d| d.code == Code::Privileged));
        }
        other => panic!("expected NbError::Lint, got {other}"),
    }
}
