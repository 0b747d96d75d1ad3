//! Batched PMU delivery must preserve 48-bit wraparound (regression).
//!
//! The plan interpreter accumulates event counts in a per-run batch and
//! delivers them to the [`Pmu`] in bulk. The PMU masks to the 48-bit
//! counter width only at architectural reads and writes, so batched
//! addition commutes with per-µop addition — including when a counter
//! crosses 2^48 *inside* one batch. These tests park counters just below
//! the boundary, run a looped program whose single batch carries them
//! past it, and check both the absolute wrapped values and bit-identity
//! between a freshly decoded plan and a cached one, in kernel and user
//! mode.

use nanobench_cache::hierarchy::CacheHierarchy;
use nanobench_cache::presets::table1_cpus;
use nanobench_pmu::event::events;
use nanobench_pmu::{msr, Pmu, COUNTER_WIDTH};
use nanobench_uarch::bus::{Bus, CpuFault, InterruptEvent};
use nanobench_uarch::engine::Engine;
use nanobench_uarch::port::MicroArch;
use nanobench_uarch::state::CpuState;
use nanobench_x86::asm::parse_asm;
use nanobench_x86::reg::Gpr;
use std::collections::HashMap;

const CTR_MASK: u64 = (1 << COUNTER_WIDTH) - 1;

/// Flat-memory bus with a real cache hierarchy; user mode injects
/// interrupts so the wrap also survives interrupt-event accounting.
struct TestBus {
    mem: HashMap<u64, u8>,
    hierarchy: CacheHierarchy,
    kernel: bool,
    interrupts_enabled: bool,
    next_interrupt: u64,
    uncore_seen: Vec<u64>,
}

impl TestBus {
    fn new(kernel: bool) -> TestBus {
        let cpu = table1_cpus()
            .into_iter()
            .find(|c| c.microarch == "Skylake")
            .expect("Skylake preset exists");
        let cfg = cpu.hierarchy_config();
        let slices = cfg.slice_count();
        TestBus {
            mem: HashMap::new(),
            hierarchy: CacheHierarchy::new(&cfg, 3),
            kernel,
            interrupts_enabled: !kernel,
            next_interrupt: 1_500,
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
        self.next_interrupt = cycle + 2_000;
        Some(InterruptEvent {
            cycles: 500,
            instructions: 40,
            uops: 60,
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

struct Side {
    engine: Engine,
    state: CpuState,
    pmu: Pmu,
    bus: TestBus,
}

impl Side {
    fn new(kernel: bool) -> Side {
        let bus = TestBus::new(kernel);
        let mut pmu = Pmu::new(4, bus.uncore_seen.len());
        pmu.configure(0, Some(events::UOPS_ISSUED_ANY));
        pmu.configure(1, Some(events::MEM_LOAD_L1_HIT));
        let mut state = CpuState::new();
        state.set_gpr(Gpr::R14, 0x5000);
        Side {
            engine: Engine::new(MicroArch::Skylake, 3),
            state,
            pmu,
            bus,
        }
    }

    /// Parks the instruction, µop, and L1-hit counters `headroom` short of
    /// the 2^48 boundary, as nanoBench's WRMSR preloading would. The
    /// L1-hit counter sees only ~200 increments per run, so its headroom
    /// is capped to keep the crossing guaranteed.
    fn park_counters(&mut self, headroom: u64) -> [u64; 3] {
        let parks = [
            (1u64 << COUNTER_WIDTH) - headroom,
            (1u64 << COUNTER_WIDTH) - headroom,
            (1u64 << COUNTER_WIDTH) - headroom.min(100),
        ];
        assert!(self.pmu.wrmsr(msr::IA32_FIXED_CTR0, parks[0]));
        assert!(self.pmu.wrmsr(msr::IA32_PMC0, parks[1]));
        assert!(self.pmu.wrmsr(msr::IA32_PMC0 + 1, parks[2]));
        parks
    }

    fn readings(&self) -> [u64; 3] {
        [
            self.pmu.rdpmc(1 << 30).unwrap(),
            self.pmu.rdpmc(0).unwrap(),
            self.pmu.rdpmc(1).unwrap(),
        ]
    }
}

/// ~1000 retired instructions and ~400 L1 hits per run: far more than the
/// preload headroom, so the boundary crossing happens inside one batch.
const LOOPED: &str = "mov r15, 200; l: add rax, 1; mov [r14+8], rax; \
                      mov rbx, [r14+8]; sub r9, rbx; dec r15; jnz l";

fn wrap_mid_batch(kernel: bool) {
    // Headroom 1: the very first increment of the batch crosses.
    // Headroom 500: the crossing lands mid-batch.
    for headroom in [1u64, 500] {
        let mut fresh = Side::new(kernel);
        let mut planned = Side::new(kernel);
        let program = parse_asm(LOOPED).unwrap();
        let plan = planned.engine.decode(&program);

        let parks = fresh.park_counters(headroom);
        planned.park_counters(headroom);
        let park = parks[0];

        let fresh_plan = fresh.engine.decode(&program);
        let a = fresh
            .engine
            .run_plan(
                &fresh_plan,
                &mut fresh.state,
                &mut fresh.pmu,
                &mut fresh.bus,
                0,
            )
            .unwrap();
        let b = planned
            .engine
            .run_plan(
                &plan,
                &mut planned.state,
                &mut planned.pmu,
                &mut planned.bus,
                0,
            )
            .unwrap();
        assert_eq!(
            a, b,
            "kernel={kernel} headroom={headroom}: RunStats diverged"
        );

        // The cached plan must agree with the freshly decoded one...
        assert_eq!(
            fresh.readings(),
            planned.readings(),
            "kernel={kernel} headroom={headroom}: wrapped readings diverged"
        );
        // ...and the counters must have wrapped to small values rather
        // than saturating or staying near 2^48.
        assert!(
            park + a.instructions > CTR_MASK,
            "kernel={kernel} headroom={headroom}: run must actually cross 2^48"
        );
        for (i, v) in planned.readings().into_iter().enumerate() {
            assert!(
                v < parks[i],
                "kernel={kernel} headroom={headroom}: counter {i} read {v:#x}, did not wrap"
            );
        }
        if kernel {
            // No interrupt noise: the exact arithmetic truth holds,
            // (park + total) mod 2^48. Injected interrupts (user mode)
            // add their own retired instructions to the same batch; the
            // differential check above covers that case.
            let expected_inst = (park + a.instructions) & CTR_MASK;
            assert_eq!(
                planned.readings()[0],
                expected_inst,
                "headroom={headroom}: instructions must wrap modulo 2^48"
            );
            // RDMSR sees the same wrapped value as RDPMC.
            assert_eq!(planned.pmu.rdmsr(msr::IA32_FIXED_CTR0), Some(expected_inst));
        }
    }
}

#[test]
fn counters_wrap_mid_batch_kernel_mode() {
    wrap_mid_batch(true);
}

#[test]
fn counters_wrap_mid_batch_user_mode_with_interrupts() {
    wrap_mid_batch(false);
}

/// A mid-run RDPMC forces a batch flush at the observation point; the
/// value read into RAX must be the wrapped one even though the batch that
/// delivered it crossed 2^48.
#[test]
fn mid_run_rdpmc_observes_wrapped_value() {
    for kernel in [true, false] {
        let mut side = Side::new(kernel);
        // Interrupt injection would add its own retired instructions to
        // the batch; disable it so the expected value is exact (the
        // with-interrupts crossing is covered differentially above).
        side.bus.interrupts_enabled = false;
        // 2^30 selects fixed counter 0 (instructions retired).
        let program = parse_asm(&format!(
            "mov r15, 100; l: add rax, 1; dec r15; jnz l; \
             mov rcx, {}; rdpmc",
            1u64 << 30
        ))
        .unwrap();
        let plan = side.engine.decode(&program);
        side.park_counters(10);
        let park = (1u64 << COUNTER_WIDTH) - 10;

        let stats = side
            .engine
            .run_plan(&plan, &mut side.state, &mut side.pmu, &mut side.bus, 0)
            .unwrap();
        // RDPMC returns EDX:EAX; the instructions retired *before* the
        // rdpmc itself are the loop's 302 plus the mov rcx.
        let retired_before_rdpmc = stats.instructions - 1;
        let expected = (park + retired_before_rdpmc) & CTR_MASK;
        let read = (side.state.gpr(Gpr::Rdx) << 32) | (side.state.gpr(Gpr::Rax) & 0xFFFF_FFFF);
        assert_eq!(read, expected, "kernel={kernel}");
        assert!(park + retired_before_rdpmc > CTR_MASK, "must cross 2^48");
    }
}
