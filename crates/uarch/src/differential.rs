//! The specialized handlers against the reference.
//!
//! Every program runs on two identical kernel-mode sides: one replays its
//! decoded plan (fused superblocks, pre-decoded shapes, the specialized
//! load/store/branch entries, loop-close fusion), the other the same plan
//! with every non-special entry rerouted to `step_generic`. After every
//! run the two must agree on the run result (stats or fault), every fixed,
//! programmable and C-Box counter, the architectural state, memory, the
//! L1/L2/L3 statistics, and the coherence state of every touched line.

use crate::bus::{Bus, CpuFault, InterruptEvent};
use crate::engine::{Engine, RunStats};
use crate::plan::DecodedProgram;
use crate::port::MicroArch;
use crate::state::CpuState;
use nanobench_cache::cache::{CacheStats, LineState};
use nanobench_cache::hierarchy::{CacheHierarchy, MemAccessResult};
use nanobench_cache::presets::table1_cpus;
use nanobench_pmu::event::{events, EventCode};
use nanobench_pmu::msr::MSR_UNC_CBO_PERFCTR0;
use nanobench_pmu::Pmu;
use nanobench_x86::asm::parse_asm;
use nanobench_x86::corpus::ROUNDTRIP_CORPUS;
use nanobench_x86::reg::Gpr;
use std::collections::{BTreeSet, HashMap};

/// Flat byte-addressed memory in front of a real Skylake hierarchy. Kernel
/// mode with interrupts off: fused and unfused stepping poll for
/// interrupts at different points, so injection would differ by design.
struct RefBus {
    mem: HashMap<u64, u8>,
    hierarchy: CacheHierarchy,
    uncore_seen: Vec<u64>,
    /// Every line a demand walk touched, for the coherence-state check.
    lines: BTreeSet<u64>,
}

impl Bus for RefBus {
    fn read(&mut self, vaddr: u64, len: u8) -> Result<u64, CpuFault> {
        let mut v = 0u64;
        for i in (0..u64::from(len)).rev() {
            v = (v << 8) | u64::from(*self.mem.get(&(vaddr + i)).unwrap_or(&0));
        }
        Ok(v)
    }

    fn write(&mut self, vaddr: u64, len: u8, value: u64) -> Result<(), CpuFault> {
        for i in 0..u64::from(len) {
            self.mem.insert(vaddr + i, (value >> (8 * i)) as u8);
        }
        Ok(())
    }

    fn access(&mut self, vaddr: u64, is_write: bool) -> Result<MemAccessResult, CpuFault> {
        self.lines.insert(vaddr & !63);
        Ok(self
            .hierarchy
            .access_from(0, vaddr, is_write)
            .expect("core 0 exists"))
    }

    fn is_kernel(&self) -> bool {
        true
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

    fn poll_interrupt(&mut self, _cycle: u64) -> Option<InterruptEvent> {
        None
    }

    fn set_interrupt_flag(&mut self, _enabled: bool) {}

    fn drain_uncore_lookups(&mut self, out: &mut Vec<u64>) {
        let current = self.hierarchy.uncore_lookups();
        out.extend(current.iter().zip(&self.uncore_seen).map(|(c, s)| c - s));
        self.uncore_seen.copy_from_slice(current);
    }
}

/// Every event the engine counts, one programmable counter each.
fn all_events() -> Vec<EventCode> {
    let mut all = vec![
        events::UOPS_ISSUED_ANY,
        events::MEM_LOAD_L1_HIT,
        events::MEM_LOAD_L2_HIT,
        events::MEM_LOAD_L3_HIT,
        events::MEM_LOAD_L1_MISS,
        events::MEM_LOAD_L2_MISS,
        events::MEM_LOAD_L3_MISS,
        events::BR_MISP_RETIRED,
        events::BR_INST_RETIRED,
        events::L2_RQSTS_REFERENCES,
        events::MEM_LOAD_XSNP_HIT,
        events::MEM_LOAD_XSNP_HITM,
        events::OFFCORE_DEMAND_RFO,
    ];
    all.extend((0..8).map(events::uops_dispatched_port));
    all
}

struct Side {
    engine: Engine,
    state: CpuState,
    pmu: Pmu,
    bus: RefBus,
    cycle: u64,
}

const SEED: u64 = 0xD1FF;

impl Side {
    fn new() -> Side {
        let cpu = table1_cpus()
            .into_iter()
            .find(|c| c.microarch == "Skylake")
            .expect("Skylake preset exists");
        let cfg = cpu.hierarchy_config();
        let slices = cfg.slice_count();
        assert!(slices <= 8, "C-Box counters are read through eight MSRs");
        let events = all_events();
        let mut pmu = Pmu::new(events.len(), slices);
        for (i, code) in events.into_iter().enumerate() {
            pmu.configure(i, Some(code));
        }
        let mut state = CpuState::new();
        state.set_gpr(Gpr::R14, 0x5000);
        state.set_gpr(Gpr::R13, 0x40_0000);
        state.set_gpr(Gpr::Rbp, 0x6000);
        state.set_gpr(Gpr::Rsp, 0x7000);
        Side {
            engine: Engine::new(MicroArch::Skylake, SEED),
            state,
            pmu,
            bus: RefBus {
                mem: HashMap::new(),
                hierarchy: CacheHierarchy::new(&cfg, SEED),
                uncore_seen: vec![0; slices],
                lines: BTreeSet::new(),
            },
            cycle: 0,
        }
    }

    fn run(&mut self, plan: &DecodedProgram) -> Result<RunStats, CpuFault> {
        let r = self.engine.run_plan(
            plan,
            &mut self.state,
            &mut self.pmu,
            &mut self.bus,
            self.cycle,
        );
        if let Ok(stats) = &r {
            self.cycle = stats.end_cycle;
        }
        r
    }

    /// Fixed, programmable, then C-Box counter readings.
    fn counters(&self) -> Vec<Option<u64>> {
        let fixed = (0..3u32).map(|i| self.pmu.rdpmc((1 << 30) | i));
        let prog = (0..self.pmu.n_programmable() as u32).map(|i| self.pmu.rdpmc(i));
        let cbo = (0..self.bus.uncore_seen.len() as u32)
            .map(|s| self.pmu.rdmsr(MSR_UNC_CBO_PERFCTR0 + s));
        fixed.chain(prog).chain(cbo).collect()
    }

    fn cache_stats(&self) -> Vec<CacheStats> {
        let h = &self.bus.hierarchy;
        vec![h.l1_stats(), h.l2_stats(), h.l3_stats()]
    }

    /// The MESI state of every line a demand walk touched (a read walk
    /// where a write walk belongs leaves E instead of M).
    fn line_states(&self) -> Vec<(u64, LineState)> {
        let h = &self.bus.hierarchy;
        let state = |line: u64| h.line_state(0, line).expect("core 0 exists");
        self.bus.lines.iter().map(|&l| (l, state(l))).collect()
    }
}

/// Runs each program three times on both sides and requires identical
/// observables after every run.
fn assert_fast_matches_reference(programs: &[(String, String)]) {
    let mut fast = Side::new();
    let mut reference = Side::new();
    for (name, text) in programs {
        let program = parse_asm(text).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        let plan = fast.engine.decode(&program);
        let generic = plan.generic_reference();
        for round in 0..3 {
            let at = format!("{name} (round {round})");
            assert_eq!(fast.run(&plan), reference.run(&generic), "{at}: run result");
            assert_eq!(fast.counters(), reference.counters(), "{at}: counters");
            assert_eq!(fast.state, reference.state, "{at}: CPU state");
            assert_eq!(fast.bus.mem, reference.bus.mem, "{at}: memory");
            assert_eq!(fast.cache_stats(), reference.cache_stats(), "{at}: caches");
            assert_eq!(fast.line_states(), reference.line_states(), "{at}: MESI");
        }
    }
}

#[test]
fn corpus_lines_match_the_reference() {
    let programs: Vec<(String, String)> = ROUNDTRIP_CORPUS
        .iter()
        .map(|line| ((*line).to_string(), (*line).to_string()))
        .collect();
    assert_fast_matches_reference(&programs);
}

/// The loop body of the `profile_engine` throughput probe.
const ENGINE_BODY: &str = "add rax, 1; mov [r14], rax; mov rbx, [r14]; imul rbx, rbx; \
                           add [r14+64], rbx; xor rcx, rbx; lea rdx, [rcx+rbx]; sub r9, rdx";

/// Units the unrolled mixes draw from: pre-decoded and generic ALU shapes,
/// quadword and partial-width loads, stores and read-modify-writes, a
/// cold-line walk over 1 MB (L2/L3 misses and C-Box lookups), forward
/// `jcc` skips (`{k}` makes each label unique), a stack round trip, and a
/// divide that faults once RCX reaches zero mid-superblock.
const MIX: &[&str] = &[
    "add rax, 1",
    "imul rbx, rax",
    "xor rcx, rbx",
    "lea rdx, [rcx+rbx]",
    "sub r9, rdx",
    "inc r10",
    "mov eax, ebx",
    "shl rdx, 3",
    "mov rbx, [r14+8]",
    "add rax, [r14+16]",
    "mov ecx, [r14+12]",
    "mov [r14+24], rax",
    "mov qword ptr [r14+32], 7",
    "mov [r14+40], ecx",
    "add [r14+64], rbx",
    "add dword ptr [r14+72], eax",
    "add rsi, 0x1040; and rsi, 0xFFFC0; mov rdi, [r13+rsi]",
    "mov [r13+rsi+8], rdi",
    "add [r13+rsi+16], rax",
    "cmp rax, rbx; jnz s{k}; add r11, 1; s{k}:",
    "test rcx, 1; jz s{k}; mov [r14+48], r11; s{k}:",
    "add r8, rax; jc s{k}; sub r8, 3; s{k}:",
    "add r8, rdx; jnc s{k}; s{k}:",
    "push rax; pop rbx",
];

/// `units` units drawn from [`MIX`] by a fixed xorshift stream.
fn mix(seed: u64, units: usize, label: &str) -> String {
    let mut x = seed;
    (0..units)
        .map(|k| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            MIX[(x % MIX.len() as u64) as usize].replace("{k}", &format!("{label}{k}"))
        })
        .collect::<Vec<_>>()
        .join("; ")
}

#[test]
fn engine_loop_and_unrolled_mixes_match_the_reference() {
    let mut programs = vec![(
        "profile_engine loop".to_string(),
        format!("mov r15, 200; l: {ENGINE_BODY}; dec r15; jnz l"),
    )];
    for seed in 1..=4u64 {
        programs.push((format!("unrolled mix {seed}"), mix(seed, 300, "u")));
        programs.push((
            format!("looped mix {seed}"),
            format!(
                "mov r15, 20; top: {}; dec r15; jnz top",
                mix(seed * 77, 40, "t")
            ),
        ));
    }
    programs.push((
        "mid-block divide fault".to_string(),
        "add rax, 1; mov [r14], rax; xor ecx, ecx; xor edx, edx; div rcx; add rbx, 1".to_string(),
    ));
    assert_fast_matches_reference(&programs);
}
