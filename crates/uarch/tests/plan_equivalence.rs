//! Fresh-decode-vs-cached-plan equivalence over the full corpus.
//!
//! A decoded plan is pure static decode and must carry no state from one
//! run to the next: for every program in `x86::corpus` — in kernel mode
//! and in user mode with interrupt injection enabled — decoding a fresh
//! plan for every run (`Engine::decode` + `Engine::run_plan` each time)
//! and replaying one cached plan for every dynamic run produce
//! bit-identical `RunStats`, PMU readings, and architectural state,
//! including identical faults for the lines that fault.

use nanobench_cache::hierarchy::CacheHierarchy;
use nanobench_cache::presets::table1_cpus;
use nanobench_pmu::event::events;
use nanobench_pmu::Pmu;
use nanobench_uarch::bus::{Bus, CpuFault, InterruptEvent};
use nanobench_uarch::engine::Engine;
use nanobench_uarch::port::MicroArch;
use nanobench_uarch::state::CpuState;
use nanobench_x86::asm::parse_asm;
use nanobench_x86::corpus::ROUNDTRIP_CORPUS;
use nanobench_x86::inst::{Instruction, Mnemonic};
use nanobench_x86::reg::{Flag, Gpr};
use std::collections::HashMap;

/// A deterministic test environment: flat byte-addressed memory, a real
/// cache hierarchy (Skylake geometry), and — in user mode — interrupt
/// injection at fixed intervals. Two instances fed the same call sequence
/// evolve identically, so any divergence between the two engine paths
/// shows up as a state mismatch.
struct TestBus {
    mem: HashMap<u64, u8>,
    hierarchy: CacheHierarchy,
    kernel: bool,
    interrupts_enabled: bool,
    next_interrupt: u64,
    interrupts_taken: u64,
    uncore_seen: Vec<u64>,
}

impl TestBus {
    fn new(kernel: bool, seed: u64) -> TestBus {
        let cpu = table1_cpus()
            .into_iter()
            .find(|c| c.microarch == "Skylake")
            .expect("Skylake preset exists");
        let cfg = cpu.hierarchy_config();
        let slices = cfg.slice_count();
        TestBus {
            mem: HashMap::new(),
            hierarchy: CacheHierarchy::new(&cfg, seed),
            kernel,
            interrupts_enabled: !kernel,
            next_interrupt: 2_000,
            interrupts_taken: 0,
            uncore_seen: vec![0; slices],
        }
    }
}

impl Bus for TestBus {
    fn read(&mut self, vaddr: u64, len: u8) -> Result<u64, CpuFault> {
        let mut v = 0u64;
        for i in (0..len as u64).rev() {
            v = (v << 8) | u64::from(*self.mem.get(&(vaddr + i)).unwrap_or(&0));
        }
        Ok(v)
    }

    fn write(&mut self, vaddr: u64, len: u8, value: u64) -> Result<(), CpuFault> {
        for i in 0..len as u64 {
            self.mem.insert(vaddr + i, (value >> (8 * i)) as u8);
        }
        Ok(())
    }

    fn access(
        &mut self,
        vaddr: u64,
        _is_write: bool,
    ) -> Result<nanobench_cache::hierarchy::MemAccessResult, CpuFault> {
        Ok(self.hierarchy.access(vaddr))
    }

    fn is_kernel(&self) -> bool {
        self.kernel
    }

    fn rdpmc_allowed(&self) -> bool {
        true
    }

    fn rdmsr(&mut self, addr: u32) -> Result<u64, CpuFault> {
        Err(CpuFault::BadMsr { addr })
    }

    fn wrmsr(&mut self, addr: u32, _value: u64) -> Result<(), CpuFault> {
        Err(CpuFault::BadMsr { addr })
    }

    fn wbinvd(&mut self) {
        self.hierarchy.wbinvd();
    }

    fn clflush(&mut self, vaddr: u64) {
        self.hierarchy.clflush(vaddr);
    }

    fn prefetch(&mut self, vaddr: u64) {
        self.hierarchy.access(vaddr);
    }

    fn poll_interrupt(&mut self, cycle: u64) -> Option<InterruptEvent> {
        if !self.interrupts_enabled || cycle < self.next_interrupt {
            return None;
        }
        self.next_interrupt = cycle + 2_500;
        self.interrupts_taken += 1;
        // The handler perturbs the cache deterministically.
        for k in 0..4u64 {
            self.hierarchy
                .access(0x9_0000 + (self.interrupts_taken * 4 + k) * 64);
        }
        Some(InterruptEvent {
            cycles: 777,
            instructions: 100,
            uops: 150,
        })
    }

    fn set_interrupt_flag(&mut self, enabled: bool) {
        self.interrupts_enabled = enabled;
    }

    fn drain_uncore_lookups(&mut self, out: &mut Vec<u64>) {
        let current = self.hierarchy.uncore_lookups();
        out.extend(
            current
                .iter()
                .zip(self.uncore_seen.iter())
                .map(|(c, s)| c - s),
        );
        self.uncore_seen.copy_from_slice(current);
    }
}

/// One side of the comparison: engine + state + PMU + bus + cycle cursor.
struct Side {
    engine: Engine,
    state: CpuState,
    pmu: Pmu,
    bus: TestBus,
    cycle: u64,
}

const SEED: u64 = 0x517A;

impl Side {
    fn new(kernel: bool) -> Side {
        let bus = TestBus::new(kernel, SEED);
        let mut pmu = Pmu::new(4, bus.uncore_seen.len());
        for (i, code) in [
            events::UOPS_ISSUED_ANY,
            events::MEM_LOAD_L1_HIT,
            events::BR_INST_RETIRED,
            events::BR_MISP_RETIRED,
        ]
        .into_iter()
        .enumerate()
        {
            pmu.configure(i, Some(code));
        }
        let mut state = CpuState::new();
        // Point the address-forming registers somewhere harmless so the
        // corpus's memory operands land in a small, cacheable region.
        state.set_gpr(Gpr::R14, 0x5000);
        state.set_gpr(Gpr::Rbp, 0x6000);
        state.set_gpr(Gpr::Rsp, 0x7000);
        Side {
            engine: Engine::new(MicroArch::Skylake, SEED),
            state,
            pmu,
            bus,
            cycle: 0,
        }
    }

    fn pmu_readings(&self) -> Vec<Option<u64>> {
        let mut out = Vec::new();
        for fixed in 0..3u32 {
            out.push(self.pmu.rdpmc((1 << 30) | fixed));
        }
        for prog in 0..4u32 {
            out.push(self.pmu.rdpmc(prog));
        }
        out
    }

    fn arch_state(&self) -> (Vec<u64>, Vec<bool>, Vec<u64>) {
        (
            Gpr::ALL.iter().map(|g| self.state.gpr(*g)).collect(),
            Flag::ALL.iter().map(|f| self.state.flag(*f)).collect(),
            (0..32).map(|v| self.state.vreg_digest(v)).collect(),
        )
    }
}

/// Runs every corpus line (as its own program, three dynamic runs each —
/// the warm-up/counter-half shape that exercises plan reuse) plus a
/// branchy looped program, decoding a fresh plan every run on one side
/// and replaying one cached plan on the other, asserting bit-identical
/// results after every run.
fn corpus_equivalence(kernel: bool) {
    let mut fresh = Side::new(kernel);
    let mut planned = Side::new(kernel);

    let mut programs: Vec<(String, Vec<Instruction>)> = ROUNDTRIP_CORPUS
        .iter()
        .map(|line| ((*line).to_string(), parse_asm(line).unwrap()))
        .collect();
    // A looped, branchy, memory-touching program: long enough for the
    // user-mode interrupt injection to fire mid-run, with magic
    // pause/resume markers (§III-I) in the body.
    let mut looped = parse_asm(
        "mov r15, 200; mov rax, 0; l: add rax, 1; mov [r14+8], rax; \
         mov rbx, [r14+8]; imul rbx, rbx; dec r15; jnz l",
    )
    .unwrap();
    looped.insert(2, Instruction::new(Mnemonic::NbResume));
    looped.push(Instruction::new(Mnemonic::NbPause));
    programs.push(("looped body".to_string(), looped));

    for (name, program) in &programs {
        let plan = planned.engine.decode(program);
        assert_eq!(plan.len(), program.len());
        for round in 0..3 {
            let fresh_plan = fresh.engine.decode(program);
            let a = fresh.engine.run_plan(
                &fresh_plan,
                &mut fresh.state,
                &mut fresh.pmu,
                &mut fresh.bus,
                fresh.cycle,
            );
            let b = planned.engine.run_plan(
                &plan,
                &mut planned.state,
                &mut planned.pmu,
                &mut planned.bus,
                planned.cycle,
            );
            assert_eq!(a, b, "{name} (round {round}): RunStats/fault diverged");
            if let Ok(stats) = a {
                fresh.cycle = stats.end_cycle;
                planned.cycle = b.unwrap().end_cycle;
            }
            assert_eq!(
                fresh.pmu_readings(),
                planned.pmu_readings(),
                "{name} (round {round}): PMU diverged"
            );
            assert_eq!(
                fresh.arch_state(),
                planned.arch_state(),
                "{name} (round {round}): architectural state diverged"
            );
        }
    }
    assert_eq!(fresh.cycle, planned.cycle);
    assert_eq!(fresh.bus.interrupts_taken, planned.bus.interrupts_taken);
    if !kernel {
        assert!(
            fresh.bus.interrupts_taken > 0,
            "user-mode sweep must actually exercise interrupt injection"
        );
    }
}

#[test]
fn corpus_kernel_mode() {
    corpus_equivalence(true);
}

#[test]
fn corpus_user_mode_with_interrupts() {
    corpus_equivalence(false);
}

/// The public stepping API (`begin_plan` / `step_plan` / `finish_plan`)
/// — what the multi-core scheduler interleaves — is bit-identical to a
/// monolithic `run_plan`, including the mid-run interrupt injection that
/// `poll_interrupt` drives off the context's local cycle.
#[test]
fn stepped_execution_equals_monolithic_run() {
    for kernel in [true, false] {
        let mut mono = Side::new(kernel);
        let mut stepped = Side::new(kernel);
        let program = parse_asm(
            "mov r15, 300; l: add rax, 1; mov [r14+8], rax; \
             mov rbx, [r14+8]; dec r15; jnz l",
        )
        .unwrap();
        let plan_a = mono.engine.decode(&program);
        let plan_b = stepped.engine.decode(&program);
        for _ in 0..2 {
            let a = mono
                .engine
                .run_plan(
                    &plan_a,
                    &mut mono.state,
                    &mut mono.pmu,
                    &mut mono.bus,
                    mono.cycle,
                )
                .unwrap();
            let mut ctx = stepped.engine.begin_plan(stepped.cycle);
            let mut steps = 0u64;
            while stepped
                .engine
                .step_plan(
                    &mut ctx,
                    &plan_b,
                    &mut stepped.state,
                    &mut stepped.pmu,
                    &mut stepped.bus,
                )
                .unwrap()
            {
                steps += 1;
            }
            let b = stepped.engine.finish_plan(&mut ctx, &mut stepped.pmu);
            assert_eq!(a, b, "kernel={kernel}: RunStats diverged");
            // A step dispatches one instruction or one fused ALU
            // superblock, so there are at most as many steps as
            // instructions (and strictly fewer when runs fuse).
            assert!(steps <= a.instructions, "kernel={kernel}");
            assert_eq!(ctx.instructions(), a.instructions);
            assert_eq!(ctx.now(), a.end_cycle);
            mono.cycle = a.end_cycle;
            stepped.cycle = b.end_cycle;
            assert_eq!(mono.pmu_readings(), stepped.pmu_readings());
            assert_eq!(mono.arch_state(), stepped.arch_state());
        }
    }
}

/// A single decoded plan replayed across engine resets stays valid: plans
/// are pure static decode and hold no machine state.
#[test]
fn plan_survives_engine_reset() {
    let program = parse_asm("add rax, rax; mulps xmm0, xmm1; mov rbx, [r14]").unwrap();
    let mut side = Side::new(true);
    let plan = side.engine.decode(&program);

    let first = side
        .engine
        .run_plan(&plan, &mut side.state, &mut side.pmu, &mut side.bus, 0)
        .unwrap();
    let first_state = side.arch_state();

    // Fresh everything except the plan object.
    let mut fresh = Side::new(true);
    let again = fresh
        .engine
        .run_plan(&plan, &mut fresh.state, &mut fresh.pmu, &mut fresh.bus, 0)
        .unwrap();
    assert_eq!(first, again);
    assert_eq!(first_state, fresh.arch_state());
}
