//! Repeatable campaign benchmark for the nanoBench simulator.
//!
//! One run executes one workload (see [`Workload`]) with a seed for a
//! fixed number of seconds. The untraced run times the user path and
//! reports the end-to-end metrics; the traced run replays the same jobs
//! through each layer's public calls with spans around them and reports
//! per-layer self times and exact work counts. Every answer goes through
//! a correctness gate, and every pass must reproduce the set-up pass's
//! result digest.

pub mod replay;
pub mod trace;
pub mod workload;

use nanobench_store::ResultStore;
use replay::Counts;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::{self_times, write_spans};
use workload::{
    digest, infer_real, infer_replay, insert_replay, inst_real, inst_replay, store_jobs,
    store_pass, store_replay, JobOut, Jobs, Replayed, StorePass, DEFAULT_SEED,
};

pub use workload::{Workload, WORKERS};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The seed every input derives from.
    pub seed: u64,
    /// How long the timed passes run (at least one pass runs).
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
    /// `Some` replaces the full job lists (tests use cut-down lists).
    pub jobs: Option<Jobs>,
    /// Directory for the result store and the span file.
    pub work_dir: PathBuf,
}

impl Options {
    fn jobs(&self) -> Jobs {
        self.jobs
            .clone()
            .unwrap_or_else(|| Jobs::full(self.seed, WORKERS))
    }

    fn full_lists(&self) -> bool {
        self.jobs.is_none()
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of a run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Human-readable report lines.
    pub lines: Vec<String>,
    /// The metrics for the final JSON line.
    pub metrics: Vec<Metric>,
    /// Operations attempted: timed jobs plus whole-run checks.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Why they failed (at most a few per kind).
    pub failures: Vec<String>,
    /// Digest of the set-up pass's answers.
    pub digest: u64,
}

impl Outcome {
    /// Whether every job and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(what());
        }
    }

    fn note(&mut self, why: String) {
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// Scores a pass's answers against the reference answers: a job fails
    /// on a gate failure, a different answer, or a different simulated
    /// machine state. `with_plans` also compares each job's plan-cache
    /// traffic, which is host-side bookkeeping rather than output: only
    /// the traced run's replay, which mirrors the plan cache, must match
    /// it.
    fn score(&mut self, outs: &[JobOut], reference: &[JobOut], what: &str, with_plans: bool) {
        self.check(outs.len() == reference.len(), || {
            format!(
                "{what}: {} answers, expected {}",
                outs.len(),
                reference.len()
            )
        });
        for (j, (out, want)) in outs.iter().zip(reference).enumerate() {
            self.attempted += 1;
            let why = if let Some(why) = &out.why {
                Some(why.clone())
            } else if out.bytes != want.bytes {
                Some(format!(
                    "{what}: job {j} answer differs from the set-up pass"
                ))
            } else if match (&out.end, &want.end) {
                (Some(a), Some(b)) => !a.same_sim(b) || (with_plans && a.plans != b.plans),
                _ => false,
            } {
                Some(format!(
                    "{what}: job {j} left a different machine state ({:?} vs {:?})",
                    out.end, want.end
                ))
            } else {
                None
            };
            if let Some(why) = why {
                self.failed += 1;
                self.note(why);
            }
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..1) of sorted samples.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The tail percentile of a workload with `jobs_per_pass` jobs: the
/// highest one that leaves at least ten jobs of every pass beyond it, so
/// a run of k passes has at least 10·k samples beyond it. It depends only
/// on the job list, never on how many passes fit into the run.
pub fn tail_quantile(jobs_per_pass: usize) -> f64 {
    (1.0 - 10.0 / jobs_per_pass as f64).max(0.5)
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` matches the Linux x86-64 `struct rusage` layout and
    // outlives the call; RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    usage.maxrss as f64 / 1024.0
}

fn store_path(opts: &Options, tag: &str) -> PathBuf {
    opts.work_dir.join(format!(
        "store-{}-{tag}-{}.nbstore",
        opts.workload.name(),
        std::process::id()
    ))
}

/// The set-up pass of a workload: its answers are the reference every
/// later pass must reproduce. For `rerun_warm` the set-up also fills a
/// fresh store (the cold pass) and checks one warm pass against it.
fn setup_pass(opts: &Options, jobs: &Jobs, store: &Path, out: &mut Outcome) -> Vec<JobOut> {
    match opts.workload {
        Workload::InstTable => inst_real(jobs),
        Workload::PolicyInfer => infer_real(jobs),
        Workload::RerunWarm => {
            let _ = std::fs::remove_file(store);
            let n = store_jobs(jobs) as u64;
            let cold = store_pass(jobs, store);
            out.check(cold.inserts == n && cold.hits == 0, || {
                format!(
                    "cold fill: {} inserts and {} hits for {n} jobs",
                    cold.inserts, cold.hits
                )
            });
            let warm = store_pass(jobs, store);
            check_warm(out, &warm, n);
            out.score(&warm.outs, &cold.outs, "warm-up pass", false);
            cold.outs
        }
    }
}

fn check_warm(out: &mut Outcome, pass: &StorePass, n: u64) {
    out.check(
        pass.hits == n && pass.misses == 0 && pass.inserts == 0,
        || {
            format!(
                "warm pass: {} hits, {} misses, {} inserts for {n} jobs",
                pass.hits, pass.misses, pass.inserts
            )
        },
    );
}

/// One timed pass of the user path.
fn real_pass(opts: &Options, jobs: &Jobs, store: &Path, out: &mut Outcome) -> Vec<JobOut> {
    match opts.workload {
        Workload::InstTable => inst_real(jobs),
        Workload::PolicyInfer => infer_real(jobs),
        Workload::RerunWarm => {
            let pass = store_pass(jobs, store);
            check_warm(out, &pass, store_jobs(jobs) as u64);
            pass.outs
        }
    }
}

/// Runs `n` set-ups, checks that they agree (and, at the default seed,
/// match the recorded digest), and returns the job lists, the reference
/// answers and the set-up times.
fn setups(
    opts: &Options,
    n: usize,
    store: &Path,
    out: &mut Outcome,
) -> (Jobs, Vec<JobOut>, Vec<f64>) {
    let mut times = Vec::new();
    let mut reference: Option<(Jobs, Vec<JobOut>)> = None;
    for _ in 0..n.max(1) {
        let t0 = Instant::now();
        let jobs = opts.jobs();
        let answers = setup_pass(opts, &jobs, store, out);
        times.push(t0.elapsed().as_secs_f64());
        if let Some((_, first)) = &reference {
            out.check(digest(first) == digest(&answers), || {
                "set-up passes disagree on the result digest".to_string()
            });
        }
        reference = Some((jobs, answers));
    }
    let (jobs, answers) = reference.expect("at least one set-up");
    out.digest = digest(&answers);
    if opts.seed == DEFAULT_SEED && opts.full_lists() {
        let (got, want) = (out.digest, opts.workload.recorded_digest());
        out.check(got == want, || {
            format!("digest {got:016x} differs from the recorded {want:016x}")
        });
    }
    (jobs, answers, times)
}

fn replayed_pass(opts: &Options, jobs: &Jobs, store: &Path, epoch: Option<Instant>) -> Replayed {
    match opts.workload {
        Workload::InstTable => inst_replay(jobs, epoch),
        Workload::PolicyInfer => infer_replay(jobs, epoch),
        Workload::RerunWarm => store_replay(jobs, store, epoch),
    }
}

fn header(opts: &Options, jobs: &Jobs) -> String {
    let provenance: Vec<String> = nanobench_bench::provenance_from_env()
        .into_iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    format!(
        "perfbench {} seed={} seconds={} trace={} workers={} nproc={} rustc={} {}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        jobs.workers,
        nanobench_core::auto_workers(),
        env!("PERFBENCH_RUSTC"),
        if provenance.is_empty() {
            "provenance=none".to_string()
        } else {
            provenance.join(" ")
        }
    )
}

/// Runs the benchmark.
pub fn run(opts: &Options) -> Outcome {
    let _ = std::fs::create_dir_all(&opts.work_dir);
    let store = store_path(opts, "main");
    let outcome = if opts.trace {
        run_traced(opts, &store)
    } else {
        run_untraced(opts, &store)
    };
    let _ = std::fs::remove_file(&store);
    outcome
}

fn run_untraced(opts: &Options, store: &Path) -> Outcome {
    let mut out = Outcome::default();
    let (jobs, reference, setup_times) = setups(opts, SETUPS, store, &mut out);
    out.lines.push(header(opts, &jobs));

    // One replayed pass (tracer off) gives the exact simulated work per
    // pass and checks that the replay still matches the user path.
    let sim_per_pass = if opts.workload == Workload::RerunWarm {
        out.lines
            .push("sim counts: none (every job is a store hit)".into());
        0
    } else {
        let replayed = replayed_pass(opts, &jobs, store, None);
        out.score(&replayed.outs, &reference, "replay", false);
        out.lines
            .push(format!("sim counts per pass: {:?}", replayed.counts));
        replayed.counts.sim_instructions
    };

    let n = reference.len();
    let q = tail_quantile(n);
    let (mut rates, mut sim_rates, mut p50s, mut tails) = (vec![], vec![], vec![], vec![]);
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    while rates.is_empty() || start.elapsed() < budget {
        let t0 = Instant::now();
        let outs = real_pass(opts, &jobs, store, &mut out);
        let wall = t0.elapsed().as_secs_f64();
        let mut ns: Vec<u64> = outs.iter().map(|o| o.ns).collect();
        ns.sort_unstable();
        rates.push(n as f64 / wall);
        sim_rates.push(sim_per_pass as f64 / wall);
        p50s.push(percentile(&ns, 0.5) as f64 / 1e6);
        tails.push(percentile(&ns, q) as f64 / 1e6);
        out.lines.push(format!(
            "pass {}: {wall:.4} s, p50 {:.4} ms, tail {:.4} ms",
            rates.len(),
            p50s[p50s.len() - 1],
            tails[tails.len() - 1]
        ));
        out.score(&outs, &reference, "timed pass", false);
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;

    out.metric("jobs_per_s", median(&rates), "1/s");
    out.metric("job_p50_ms", median(&p50s), "ms");
    out.metric("job_tail_ms", median(&tails), "ms");
    out.metric("setup_s", median(&setup_times), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.lines.push(format!(
        "timed passes: {} of {n} jobs, set-ups: {:.3?} s",
        rates.len(),
        setup_times
    ));
    for m in &out.metrics {
        out.lines
            .push(format!("metric {} = {} {}", m.name, m.value, m.unit));
    }
    out.lines.push(format!(
        "job_p50_ms and job_tail_ms are medians over {} passes of each pass's p50 and p{:.3} \
         of its {n} job times ({} samples in all)",
        rates.len(),
        q * 100.0,
        n * rates.len()
    ));
    if opts.workload == Workload::RerunWarm {
        out.lines
            .push("metric sim_inst_per_s = n/a (no simulation on this workload)".into());
    } else {
        out.lines.push(format!(
            "metric sim_inst_per_s = {} 1/s",
            median(&sim_rates)
        ));
    }
    out.lines.push(format!(
        "metric failed_frac = {failed_frac} ({} of {} operations)",
        out.failed, out.attempted
    ));
    out.lines.push(format!("digest {:016x}", out.digest));
    out
}

/// Per-pass layer numbers of a traced pass.
struct TracedPass {
    self_ns: BTreeMap<&'static str, u64>,
    counts: Counts,
}

fn run_traced(opts: &Options, store: &Path) -> Outcome {
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let (jobs, reference, _) = setups(opts, 1, store, &mut out);
    out.lines.push(header(opts, &jobs));
    let n = reference.len();

    // Store writes happen in set-up; replay them into a second store.
    let mut insert_ns = 0;
    let mut real_records = 0usize;
    let mut log_bytes = 0u64;
    if opts.workload == Workload::RerunWarm {
        real_records = ResultStore::open(store).map_or(0, |s| s.len());
        log_bytes = std::fs::metadata(store).map_or(0, |m| m.len());
        let copy = store_path(opts, "insert-replay");
        let (spans, records, bytes) = insert_replay(&jobs, &reference, &copy, epoch);
        out.check(records == real_records && bytes == log_bytes, || {
            format!(
                "insert replay wrote {records} records / {bytes} bytes, the cold fill \
                 {real_records} / {log_bytes}"
            )
        });
        insert_ns = self_times(&spans).get("store.insert").copied().unwrap_or(0);
    }

    // Each round runs the user path, then the replay with the tracer off
    // and on, in alternating order. The user path against the untraced
    // replay gives the replay's own cost; the untraced against the traced
    // replay gives the tracer's.
    let (mut real_rates, mut quiet_rates, mut traced_rates) = (vec![], vec![], vec![]);
    let mut passes: Vec<TracedPass> = Vec::new();
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    while passes.is_empty() || start.elapsed() < budget {
        let t0 = Instant::now();
        let outs = real_pass(opts, &jobs, store, &mut out);
        real_rates.push(n as f64 / t0.elapsed().as_secs_f64());
        out.score(&outs, &reference, "user-path pass", false);

        let order = if passes.len().is_multiple_of(2) {
            [false, true]
        } else {
            [true, false]
        };
        let (mut quiet, mut replayed) = (Replayed::default(), Replayed::default());
        for traced in order {
            let t0 = Instant::now();
            let pass = replayed_pass(opts, &jobs, store, traced.then_some(epoch));
            let rate = n as f64 / t0.elapsed().as_secs_f64();
            if traced {
                traced_rates.push(rate);
                replayed = pass;
            } else {
                quiet_rates.push(rate);
                quiet = pass;
            }
        }
        out.score(&quiet.outs, &reference, "untraced replay", true);
        out.score(&replayed.outs, &reference, "traced replay", true);
        out.check(quiet.counts == replayed.counts, || {
            format!(
                "work counts differ with the tracer off and on: {:?} vs {:?}",
                quiet.counts, replayed.counts
            )
        });
        if let Some(first) = passes.first() {
            out.check(first.counts == replayed.counts, || {
                "work counts differ between traced passes".to_string()
            });
        } else {
            let path = opts.work_dir.join(format!(
                "trace-{}-seed{}.jsonl",
                opts.workload.name(),
                opts.seed
            ));
            let written = File::create(&path)
                .map(BufWriter::new)
                .and_then(|mut f| write_spans(&mut f, &replayed.spans));
            match written {
                Ok(()) => out.lines.push(format!(
                    "spans of the first traced pass: {}",
                    path.display()
                )),
                Err(e) => out.note(format!("writing {}: {e}", path.display())),
            }
        }
        let mut self_ns = BTreeMap::new();
        for spans in &replayed.spans {
            for (name, ns) in self_times(spans) {
                *self_ns.entry(name).or_default() += ns;
            }
        }
        passes.push(TracedPass {
            self_ns,
            counts: replayed.counts,
        });
    }
    let counts = passes[0].counts;
    if opts.workload == Workload::RerunWarm {
        out.check(
            counts.store_hits == n as u64 && counts.store_gets == n as u64,
            || {
                format!(
                    "traced pass: {} of {} lookups hit, {n} jobs",
                    counts.store_hits, counts.store_gets
                )
            },
        );
    }

    // Self time of `names`, per pass (median over traced passes).
    let self_ns = |names: &[&str]| {
        let per_pass: Vec<f64> = passes
            .iter()
            .map(|p| {
                names
                    .iter()
                    .map(|n| p.self_ns.get(n).copied().unwrap_or(0) as f64)
                    .sum()
            })
            .collect();
        median(&per_pass)
    };
    let count_ratio = |num: u64, den: u64| ratio(num as f64, den as f64);
    let (us, ms) = (1e3, 1e6);
    let measure_ns = self_ns(&["runner.measure"]);

    out.metric("x86.parse_asm_us", self_ns(&["x86.parse_asm"]) / us, "us");
    out.metric(
        "codegen.generate_us",
        self_ns(&["codegen.generate"]) / us,
        "us",
    );
    out.metric("codegen.calls", counts.codegen_calls as f64, "count");
    out.metric(
        "codegen.program_insts",
        counts.program_insts as f64,
        "count",
    );
    out.metric("plan.decode_us", self_ns(&["plan.decode"]) / us, "us");
    out.metric("plan.decodes", counts.decodes as f64, "count");
    out.metric(
        "plan.cache_hit_ratio",
        count_ratio(counts.plan_hits, counts.plan_hits + counts.decodes),
        "ratio",
    );
    out.metric("runner.measure_us", measure_ns / us, "us");
    out.metric(
        "engine.sim_instructions",
        counts.sim_instructions as f64,
        "count",
    );
    out.metric("engine.sim_cycles", counts.sim_cycles as f64, "count");
    out.metric(
        "engine.host_ns_per_sim_inst",
        if counts.sim_instructions == 0 {
            0.0
        } else {
            measure_ns / counts.sim_instructions as f64
        },
        "ns",
    );
    out.metric("mem.translations", counts.translations as f64, "count");
    out.metric("mem.walks", counts.walks as f64, "count");
    out.metric("cache.l1_hits", counts.l1_hits as f64, "count");
    out.metric("cache.l1_misses", counts.l1_misses as f64, "count");
    out.metric("cache.l2_misses", counts.l2_misses as f64, "count");
    out.metric("cache.l3_misses", counts.l3_misses as f64, "count");
    out.metric("cache.l3_evictions", counts.l3_evictions as f64, "count");
    out.metric("cacheseq.new_ms", self_ns(&["cacheseq.new"]) / ms, "ms");
    out.metric(
        "cacheseq.run_hits_ms",
        self_ns(&["cacheseq.run_hits"]) / ms,
        "ms",
    );
    out.metric(
        "policy_fit.fit_ms",
        self_ns(&["policy_fit.fit", "policy_fit.search", "policy_fit.classes"]) / ms,
        "ms",
    );
    out.metric(
        "policy_fit.sequences_measured",
        counts.sequences_measured as f64,
        "count",
    );
    out.metric(
        "inst_tools.measure_ms",
        self_ns(&["inst_tools.measure"]) / ms,
        "ms",
    );
    out.metric("session.build_ms", self_ns(&["session.build"]) / ms, "ms");
    out.metric("session.reset_us", self_ns(&["session.reset"]) / us, "us");
    out.metric("session.resets", counts.resets as f64, "count");
    out.metric("store.open_ms", self_ns(&["store.open"]) / ms, "ms");
    out.metric("store.get_us", self_ns(&["store.get"]) / us, "us");
    out.metric("store.insert_us", insert_ns as f64 / us, "us");
    out.metric(
        "store.hit_ratio",
        count_ratio(counts.store_hits, counts.store_gets),
        "ratio",
    );
    out.metric("store.records", real_records as f64, "count");
    out.metric("store.log_bytes", log_bytes as f64, "bytes");
    let (real, quiet, traced) = (
        median(&real_rates),
        median(&quiet_rates),
        median(&traced_rates),
    );
    out.metric("trace.untraced_jobs_per_s", quiet, "1/s");
    out.metric("trace.traced_jobs_per_s", traced, "1/s");
    out.metric("trace.overhead_frac", 1.0 - ratio(traced, quiet), "ratio");
    out.metric("trace.replay_gap_frac", 1.0 - ratio(quiet, real), "ratio");

    out.lines.push(format!(
        "rounds: {}, each a user-path pass ({real:.3} jobs/s, median) and a replay with the tracer \
         off and on; times are self times per pass, medians over the traced passes",
        passes.len()
    ));
    out.lines.push(format!(
        "sim counts per pass (identical with the tracer off and on): {counts:?}"
    ));
    out.lines.push(format!(
        "ratio bases: plan.cache_hit_ratio = {} hits / {} lookups; store.hit_ratio = {} hits / {} lookups; \
         engine.host_ns_per_sim_inst = runner.measure self time / {} instructions; \
         trace.overhead_frac = 1 - traced / untraced replay jobs_per_s; \
         trace.replay_gap_frac = 1 - untraced replay / user-path jobs_per_s",
        counts.plan_hits, counts.plan_hits + counts.decodes, counts.store_hits, counts.store_gets, counts.sim_instructions
    ));
    for m in &out.metrics {
        out.lines
            .push(format!("metric {} = {} {}", m.name, m.value, m.unit));
    }
    out.lines.push(format!("digest {:016x}", out.digest));
    out
}

/// `num / den`, or 0 without a base.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_jobs_of_a_pass_beyond_it() {
        for jobs in [164usize, 935, 1099] {
            let q = tail_quantile(jobs);
            let sorted: Vec<u64> = (1..=jobs as u64).collect();
            let beyond = jobs - percentile(&sorted, q) as usize;
            assert_eq!(beyond, 10, "{jobs} jobs: p{q}");
        }
        assert_eq!(tail_quantile(12), 0.5, "tiny lists fall back to the median");
    }

    #[test]
    fn median_and_percentile_of_small_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(percentile(&[10, 20, 30, 40], 0.5), 20);
        assert_eq!(percentile(&[10, 20, 30, 40], 1.0), 40);
    }
}
