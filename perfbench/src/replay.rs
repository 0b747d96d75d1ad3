//! Replays of the campaign jobs through the public calls of each layer.
//!
//! Some layers are only reachable inside `Session::run`,
//! `measure_instruction_on`, `fit_policy` or the `*_stored` drivers. The
//! traced run therefore re-executes each job step by step through the
//! public calls those functions make (`parse_asm` → `codegen::generate` →
//! `Machine::decode` → `runner::measure` on the session's own arenas;
//! `CacheSeq::new` → the `fit_policy` loop; `Session::with_seed_cores` →
//! `reset_with_seed` → `ResultStore::get`), with a span around each call.
//! Every replay result is compared with the real path's output by the
//! caller, and for instruction-table jobs also the machine state the job
//! leaves behind, so the split cannot drift from what the untraced run
//! measures.

use crate::trace::Tracer;
use nanobench_cache::policy::{simulate_sequence, PolicyKind};
use nanobench_cache_tools::addresses::AddrPool;
use nanobench_cache_tools::{
    candidate_library, equivalence_classes, AccessSeq, CacheSeq, FitResult, InferRequest,
};
use nanobench_core::codegen::{self, Arenas, CodegenRequest, ARENA_REGS, NO_MEM_ACC_REGS};
use nanobench_core::result::FIXED_COUNTER_NAMES;
use nanobench_core::runner::{self, Aggregate};
use nanobench_core::{BenchmarkResult, NbError, Session};
use nanobench_inst_tools::{InstMeasurement, InstSpec};
use nanobench_machine::{Machine, Mode};
use nanobench_pmu::msr::IA32_FIXED_CTR0;
use nanobench_pmu::{parse_config, PerfEvent};
use nanobench_uarch::plan::DecodedProgram;
use nanobench_x86::asm::parse_asm;
use nanobench_x86::inst::{Instruction, Mnemonic};
use nanobench_x86::operand::{MemRef, Operand};
use nanobench_x86::reg::{Gpr, Width};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Exact work counts of a replayed job or pass. Simulated counts are
/// deltas taken around each `runner::measure` call, so session resets in
/// between do not disturb them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `codegen::generate` calls.
    pub codegen_calls: u64,
    /// Instructions in the generated programs.
    pub program_insts: u64,
    /// Plan-cache hits (lookups are hits plus decodes: one lookup per
    /// generated program).
    pub plan_hits: u64,
    /// `Machine::decode` calls (plan-cache misses).
    pub decodes: u64,
    /// Instructions retired while counting (PMU fixed counter 0).
    pub sim_instructions: u64,
    /// Simulated core cycles (`Machine::cycle`).
    pub sim_cycles: u64,
    /// Address translations for demand accesses.
    pub translations: u64,
    /// Hierarchy walks for demand accesses.
    pub walks: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// L3 misses.
    pub l3_misses: u64,
    /// L3 evictions.
    pub l3_evictions: u64,
    /// Sequences measured by the policy fit.
    pub sequences_measured: u64,
    /// `Session::with_seed_cores` calls.
    pub session_builds: u64,
    /// `reset` / `reset_with_seed` calls.
    pub resets: u64,
    /// `ResultStore::get` calls.
    pub store_gets: u64,
    /// `ResultStore::get` calls that hit.
    pub store_hits: u64,
}

impl Counts {
    /// Field-wise sum.
    pub fn add(&mut self, o: &Counts) {
        self.codegen_calls += o.codegen_calls;
        self.program_insts += o.program_insts;
        self.plan_hits += o.plan_hits;
        self.decodes += o.decodes;
        self.sim_instructions += o.sim_instructions;
        self.sim_cycles += o.sim_cycles;
        self.translations += o.translations;
        self.walks += o.walks;
        self.l1_hits += o.l1_hits;
        self.l1_misses += o.l1_misses;
        self.l2_misses += o.l2_misses;
        self.l3_misses += o.l3_misses;
        self.l3_evictions += o.l3_evictions;
        self.sequences_measured += o.sequences_measured;
        self.session_builds += o.session_builds;
        self.resets += o.resets;
        self.store_gets += o.store_gets;
        self.store_hits += o.store_hits;
    }
}

/// The observable machine counters one measurement moves.
#[derive(Debug, Clone, Copy)]
struct Snapshot {
    ctr0: u64,
    cycle: u64,
    translations: u64,
    walks: u64,
    l1: (u64, u64),
    l2_misses: u64,
    l3: (u64, u64),
}

impl Snapshot {
    fn of(m: &Machine) -> Snapshot {
        let h = m.hierarchy();
        let (l1, l2, l3) = (h.l1_stats(), h.l2_stats(), h.l3_stats());
        let (translations, walks) = m.mem_path_counters();
        Snapshot {
            ctr0: m.pmu().rdmsr(IA32_FIXED_CTR0).unwrap_or(0),
            cycle: m.cycle(),
            translations,
            walks,
            l1: (l1.hits, l1.misses),
            l2_misses: l2.misses,
            l3: (l3.misses, l3.evictions),
        }
    }

    fn add_delta(c: &mut Counts, a: &Snapshot, b: &Snapshot) {
        // Fixed counters are 48 bits wide.
        c.sim_instructions += b.ctr0.wrapping_sub(a.ctr0) & ((1 << 48) - 1);
        c.sim_cycles += b.cycle - a.cycle;
        c.translations += b.translations - a.translations;
        c.walks += b.walks - a.walks;
        c.l1_hits += b.l1.0 - a.l1.0;
        c.l1_misses += b.l1.1 - a.l1.1;
        c.l2_misses += b.l2_misses - a.l2_misses;
        c.l3_misses += b.l3.0 - a.l3.0;
        c.l3_evictions += b.l3.1 - a.l3.1;
    }
}

/// The machine state a job leaves behind: what the real path and its
/// replay must agree on beyond the returned values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndState {
    /// PMU fixed counter 0.
    pub ctr0: u64,
    /// Core cycle.
    pub cycle: u64,
    /// L1 `(hits, misses)`, L2 misses, L3 `(misses, evictions)` since the
    /// last reset.
    pub caches: [u64; 5],
    /// Plan-cache `(hits, misses)` during the job.
    pub plans: (u64, u64),
}

impl EndState {
    /// Whether `self` and `o` agree on the simulated state (counter 0,
    /// cycle, cache statistics), whatever their plan-cache traffic.
    pub fn same_sim(&self, o: &EndState) -> bool {
        (self.ctr0, self.cycle, self.caches) == (o.ctr0, o.cycle, o.caches)
    }

    /// The state of `m`, with the job's plan-cache traffic.
    pub fn of(m: &Machine, plans: (u64, u64)) -> EndState {
        let s = Snapshot::of(m);
        EndState {
            ctr0: s.ctr0,
            cycle: s.cycle,
            caches: [s.l1.0, s.l1.1, s.l2_misses, s.l3.0, s.l3.1],
            plans,
        }
    }
}

/// Upper bound on cached plans, as in the session's plan cache.
const PLAN_CACHE_CAP: usize = 64;

/// A replay session: the session's §III-G arenas and a replica of its
/// decoded-plan cache (same key, full-program verification and LRU
/// eviction), which the replay uses instead of the session's own.
#[derive(Debug)]
pub struct ReplaySession {
    arenas: Arenas,
    plans: HashMap<u64, (DecodedProgram, u64)>,
    tick: u64,
    scratch: Vec<i64>,
}

impl ReplaySession {
    /// Replays on `session`'s arenas. `Session::with_machine` maps a 4 KiB
    /// control page (register save area, scratch, and the two
    /// counter-result areas at 0x100-byte steps) right before the five
    /// register arenas.
    pub fn new(session: &Session) -> ReplaySession {
        let arena_bases = ARENA_REGS.map(|r| session.arena_base(r).expect("arena register"));
        let regions = session.machine().mapped_regions();
        let first = regions
            .iter()
            .position(|&(start, _)| start == arena_bases[0])
            .expect("arenas are mapped regions");
        let control = regions[first
            .checked_sub(1)
            .expect("control page precedes the arenas")]
        .0;
        ReplaySession {
            arenas: Arenas {
                save_area: control,
                scratch: control + 0x100,
                m1: control + 0x200,
                m2: control + 0x300,
                arena_bases,
            },
            plans: HashMap::new(),
            tick: 0,
            scratch: Vec::new(),
        }
    }

    fn ensure_plan(
        &mut self,
        machine: &Machine,
        program: &[Instruction],
        t: &mut Tracer,
        c: &mut Counts,
    ) -> u64 {
        let mut h = DefaultHasher::new();
        program.hash(&mut h);
        let key = h.finish();
        self.tick += 1;
        let tick = self.tick;
        match self.plans.get_mut(&key) {
            Some((plan, used)) if plan.instructions() == program => {
                *used = tick;
                c.plan_hits += 1;
            }
            Some(slot) => {
                c.decodes += 1;
                *slot = (t.span("plan.decode", || machine.decode(program)), tick);
            }
            None => {
                if self.plans.len() >= PLAN_CACHE_CAP {
                    let victim = self
                        .plans
                        .iter()
                        .min_by_key(|(_, (_, used))| *used)
                        .map(|(k, _)| *k);
                    if let Some(victim) = victim {
                        self.plans.remove(&victim);
                    }
                }
                c.decodes += 1;
                let plan = t.span("plan.decode", || machine.decode(program));
                self.plans.insert(key, (plan, tick));
            }
        }
        key
    }
}

/// The run settings of a `BenchSpec` that the replay needs.
#[derive(Debug, Clone, Copy)]
pub struct RunShape {
    /// `unrollCount`.
    pub unroll: usize,
    /// Discarded warm-up runs.
    pub warm_up: usize,
    /// Measured runs.
    pub n: usize,
    /// Aggregate over the measured runs.
    pub aggregate: Aggregate,
    /// noMem mode.
    pub no_mem: bool,
    /// Basic mode (baseline unroll 0).
    pub basic: bool,
}

/// Replays `Session::run` for a kernel-mode, single-core session with the
/// lint gate off and no loop: counter rounds, both unroll versions per
/// round, each generated, looked up in the plan cache, and measured.
#[allow(clippy::too_many_arguments)]
pub fn replay_run(
    session: &mut Session,
    rs: &mut ReplaySession,
    init: &[Instruction],
    code: &[Instruction],
    events: &[PerfEvent],
    shape: RunShape,
    t: &mut Tracer,
    c: &mut Counts,
) -> Result<BenchmarkResult, NbError> {
    assert_eq!(
        session.machine().mode(),
        Mode::Kernel,
        "replay covers kernel sessions"
    );
    assert_eq!(
        session.machine().core_count(),
        1,
        "replay covers single-core sessions"
    );
    let unroll = shape.unroll.max(1);
    let denom = unroll as f64;
    let n_prog = session.machine().pmu().n_programmable();
    let per_round = if shape.no_mem {
        (NO_MEM_ACC_REGS.len() - FIXED_COUNTER_NAMES.len()).min(n_prog)
    } else {
        n_prog
    };
    let chunks: Vec<&[PerfEvent]> = if events.is_empty() {
        vec![&[]]
    } else {
        events.chunks(per_round).collect()
    };
    let mut fixed = [0.0f64; 3];
    let mut prog = Vec::new();
    for (round, chunk) in chunks.iter().enumerate() {
        for i in 0..n_prog {
            session
                .machine_mut()
                .pmu_mut()
                .configure(i, chunk.get(i).map(|e| e.code));
        }
        let mut selectors: Vec<u32> = (0..3).map(|i| (1 << 30) | i).collect();
        selectors.extend((0..chunk.len()).map(|i| i as u32));
        let (a, b) = if shape.basic {
            (0, unroll)
        } else {
            (unroll, 2 * unroll)
        };
        let agg_a = measure_version(session, rs, init, code, a, &selectors, shape, t, c)?;
        let agg_b = measure_version(session, rs, init, code, b, &selectors, shape, t, c)?;
        for (slot, (vb, va)) in agg_b.iter().zip(&agg_a).enumerate() {
            let value = (vb - va) / denom;
            if slot < 3 {
                if round == 0 {
                    fixed[slot] = value;
                }
            } else {
                prog.push((chunk[slot - 3].name.clone(), value));
            }
        }
    }
    let mut entries: Vec<(String, f64)> = FIXED_COUNTER_NAMES
        .iter()
        .zip(fixed)
        .map(|(n, v)| ((*n).to_string(), v))
        .collect();
    entries.extend(prog);
    Ok(BenchmarkResult::new(entries))
}

#[allow(clippy::too_many_arguments)]
fn measure_version(
    session: &mut Session,
    rs: &mut ReplaySession,
    init: &[Instruction],
    code: &[Instruction],
    local_unroll: usize,
    selectors: &[u32],
    shape: RunShape,
    t: &mut Tracer,
    c: &mut Counts,
) -> Result<Vec<f64>, NbError> {
    let request = CodegenRequest {
        init,
        code,
        local_unroll,
        loop_count: 0,
        selectors,
        no_mem: shape.no_mem,
        arenas: rs.arenas,
    };
    let generated = t.span("codegen.generate", || codegen::generate(&request));
    c.codegen_calls += 1;
    c.program_insts += generated.program.len() as u64;
    let key = rs.ensure_plan(session.machine(), &generated.program, t, c);
    let plan = &rs.plans[&key].0;
    let before = Snapshot::of(session.machine());
    let open = t.enter("runner.measure");
    let values = runner::measure(
        session.machine_mut(),
        &generated,
        plan,
        &[],
        None,
        &rs.arenas,
        shape.warm_up,
        shape.n.max(1),
        shape.aggregate,
        &mut rs.scratch,
    );
    t.exit(open);
    Snapshot::add_delta(c, &before, &Snapshot::of(session.machine()));
    values
}

fn traced_reset(session: &mut Session, t: &mut Tracer, c: &mut Counts) {
    c.resets += 1;
    t.span("session.reset", || session.reset());
}

fn traced_parse(text: &str, t: &mut Tracer) -> Result<Vec<Instruction>, NbError> {
    Ok(t.span("x86.parse_asm", || parse_asm(text))?)
}

/// The port-pressure counter configuration `measure_instruction_on` uses.
const PORTS_CONFIG: &str = "\
0E.01 UOPS_ISSUED.ANY
A1.01 UOPS_DISPATCHED_PORT.PORT_0
A1.02 UOPS_DISPATCHED_PORT.PORT_1
A1.04 UOPS_DISPATCHED_PORT.PORT_2
A1.08 UOPS_DISPATCHED_PORT.PORT_3
A1.10 UOPS_DISPATCHED_PORT.PORT_4
A1.20 UOPS_DISPATCHED_PORT.PORT_5
A1.40 UOPS_DISPATCHED_PORT.PORT_6
A1.80 UOPS_DISPATCHED_PORT.PORT_7
";

/// Replays `measure_instruction_on(session, spec)` (the asm path): the
/// latency chain and the throughput run, each on a freshly reset session.
pub fn replay_measure(
    session: &mut Session,
    rs: &mut ReplaySession,
    spec: &InstSpec,
    t: &mut Tracer,
    c: &mut Counts,
) -> Result<InstMeasurement, NbError> {
    let open = t.enter("inst_tools.measure");
    let out = replay_measure_inner(session, rs, spec, t, c);
    t.exit(open);
    out
}

fn replay_measure_inner(
    session: &mut Session,
    rs: &mut ReplaySession,
    spec: &InstSpec,
    t: &mut Tracer,
    c: &mut Counts,
) -> Result<InstMeasurement, NbError> {
    let shape = |unroll| RunShape {
        unroll,
        warm_up: 2,
        n: 5,
        aggregate: Aggregate::Median,
        no_mem: false,
        basic: false,
    };
    let latency = match &spec.latency_asm {
        Some(chain) => {
            traced_reset(session, t, c);
            let code = traced_parse(chain, t)?;
            let init = traced_parse(&spec.latency_init, t)?;
            let events = parse_config("0E.01 UOPS_ISSUED.ANY")?;
            replay_run(session, rs, &init, &code, &events, shape(100), t, c)?.core_cycles()
        }
        None => None,
    };
    traced_reset(session, t, c);
    let code = traced_parse(&spec.throughput_asm, t)?;
    let init = traced_parse(&spec.throughput_init, t)?;
    let events = parse_config(PORTS_CONFIG)?;
    let result = replay_run(session, rs, &init, &code, &events, shape(50), t, c)?;
    let copies = spec.throughput_copies as f64;
    let per_copy = |name: &str| result.get(name).unwrap_or(0.0) / copies;
    Ok(InstMeasurement {
        name: spec.name.clone(),
        latency: latency.map(|l| l.max(0.0)),
        throughput: (result.core_cycles().unwrap_or(0.0) / copies).max(0.0),
        uops: per_copy("UOPS_ISSUED.ANY").max(0.0),
        ports: (0..8)
            .map(|p| per_copy(&format!("UOPS_DISPATCHED_PORT.PORT_{p}")))
            .collect(),
    })
}

fn load_of(addr: u64) -> Instruction {
    Instruction::binary(
        Mnemonic::Mov,
        Operand::gpr(Gpr::Rbx),
        Operand::Mem(MemRef::absolute(addr, Width::Q)),
    )
}

/// The microbenchmark body cacheSeq generates for `seq`: eviction loads
/// (not counted) between same-set accesses, counting paused around
/// unmeasured accesses.
fn seq_body(pool: &AddrPool, seq: &AccessSeq) -> Vec<Instruction> {
    let mut out = Vec::new();
    let mut counting = true;
    let mut set_counting = |out: &mut Vec<Instruction>, on: bool| {
        if counting != on {
            out.push(Instruction::new(if on {
                Mnemonic::NbResume
            } else {
                Mnemonic::NbPause
            }));
            counting = on;
        }
    };
    for (i, item) in seq.items.iter().enumerate() {
        if i > 0 && !pool.evictors.is_empty() {
            set_counting(&mut out, false);
            for _ in 0..2 {
                out.extend(pool.evictors.iter().map(|&e| load_of(e)));
            }
        }
        set_counting(&mut out, item.measured);
        out.push(load_of(pool.target_blocks[item.block]));
    }
    set_counting(&mut out, true);
    out
}

/// Replays `CacheSeq::run_hits`.
fn replay_run_hits(
    cs: &mut CacheSeq,
    rs: &mut ReplaySession,
    events: &[PerfEvent],
    seq: &AccessSeq,
    t: &mut Tracer,
    c: &mut Counts,
) -> Result<u64, NbError> {
    let open = t.enter("cacheseq.run_hits");
    let body = seq_body(cs.pool(), seq);
    let init = if seq.wbinvd {
        vec![Instruction::new(Mnemonic::Wbinvd)]
    } else {
        Vec::new()
    };
    let level = cs.pool().level;
    let shape = RunShape {
        unroll: 1,
        warm_up: 0,
        n: 1,
        aggregate: Aggregate::Median,
        no_mem: true,
        basic: true,
    };
    let result = replay_run(cs.session_mut(), rs, &init, &body, events, shape, t, c);
    t.exit(open);
    let value = result?.get(level.hit_event()).unwrap_or(0.0);
    Ok(value.round().max(0.0) as u64)
}

/// Replays `run_infer(req)`: `CacheSeq::new`, then the `fit_policy` loop
/// (host-side candidate simulation in `policy_fit.search` and
/// `policy_fit.classes`, measurements in `cacheseq.run_hits`).
pub fn replay_infer(
    req: &InferRequest,
    t: &mut Tracer,
    c: &mut Counts,
) -> Result<FitResult, NbError> {
    let mut cs = t.span("cacheseq.new", || {
        CacheSeq::new(
            &req.cpu,
            req.level,
            req.set,
            req.slice,
            req.n_blocks,
            req.seq_seed,
        )
    })?;
    let mut rs = ReplaySession::new(cs.session_mut());
    let events = parse_config(req.level.hit_event_config())?;
    let open = t.enter("policy_fit.fit");
    let fit = replay_fit(&mut cs, &mut rs, &events, req, t, c);
    t.exit(open);
    fit
}

fn replay_fit(
    cs: &mut CacheSeq,
    rs: &mut ReplaySession,
    events: &[PerfEvent],
    req: &InferRequest,
    t: &mut Tracer,
    c: &mut Counts,
) -> Result<FitResult, NbError> {
    let assoc = req.assoc;
    let mut survivors = candidate_library(assoc);
    let mut rng = SmallRng::seed_from_u64(req.fit_seed);
    let universe = assoc + 2;
    let mut tested = 0usize;
    while tested < req.max_sequences && survivors.len() > 1 {
        let chosen = t.span("policy_fit.search", || {
            for _ in 0..4000 {
                let len = assoc * 3 + rng.gen_range(0..assoc);
                let blocks: Vec<usize> = (0..len).map(|_| rng.gen_range(0..universe)).collect();
                let blocks_u64: Vec<u64> = blocks.iter().map(|b| *b as u64).collect();
                let counts: Vec<u64> = survivors
                    .iter()
                    .map(|cand| {
                        simulate_sequence(cand, assoc, 0, &blocks_u64)
                            .iter()
                            .filter(|h| **h)
                            .count() as u64
                    })
                    .collect();
                if counts.windows(2).any(|w| w[0] != w[1]) {
                    return Some((blocks, counts));
                }
            }
            None
        });
        let Some((blocks, counts)) = chosen else {
            break;
        };
        let measured = replay_run_hits(cs, rs, events, &AccessSeq::measured_all(&blocks), t, c)?;
        tested += 1;
        let mut keep = counts.iter().map(|n| *n == measured);
        survivors.retain(|_| keep.next().unwrap());
    }
    c.sequences_measured += tested as u64;
    let matching: Vec<Vec<PolicyKind>> = if survivors.is_empty() {
        Vec::new()
    } else {
        t.span("policy_fit.classes", || {
            equivalence_classes(&survivors, assoc, 40, req.fit_seed ^ 0xC1A55)
        })
    };
    Ok(FitResult {
        matching,
        sequences_tested: tested,
    })
}
