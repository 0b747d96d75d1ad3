//! Seed handling and correctness gates on cut-down job lists: results
//! repeat across passes and worker counts, the default seed reproduces
//! the recorded digests, the traced replay matches the user path, and a
//! second seed passes every gate.

use nanobench_store::ResultStore;
use perfbench::workload::{
    digest, infer_real, infer_replay, inst_real, inst_replay, store_jobs, store_pass, store_replay,
    JobOut, Jobs, DEFAULT_SEED,
};
use perfbench::{run, Options, Workload};
use std::path::PathBuf;
use std::time::Instant;

/// Digests of the cut-down lists at the default seed.
const CUT_DOWN_INST: u64 = 0xb0a0_4071_856d_8f8c;
const CUT_DOWN_INFER: u64 = 0xfc70_5503_2c74_9c4d;

/// Inferences of the cut-down list: Table I L1 and L2 jobs plus a
/// four-slice L3 job.
const INFER: [usize; 3] = [0, 1, 12];

fn jobs(seed: u64, workers: usize) -> Jobs {
    Jobs::cut_down(seed, workers, 16, &INFER)
}

fn all_ok(outs: &[JobOut]) -> bool {
    outs.iter().all(|o| o.why.is_none())
}

fn work_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn inst_table_repeats_across_passes_and_worker_counts() {
    let two = jobs(DEFAULT_SEED, 2);
    let first = inst_real(&two);
    assert!(all_ok(&first));
    assert_eq!(digest(&first), digest(&inst_real(&two)));
    assert_eq!(digest(&first), digest(&inst_real(&jobs(DEFAULT_SEED, 1))));
    assert_eq!(digest(&first), CUT_DOWN_INST, "recorded cut-down digest");
}

#[test]
fn policy_infer_repeats_across_passes_and_worker_counts() {
    let two = jobs(DEFAULT_SEED, 2);
    let first = infer_real(&two);
    assert!(
        all_ok(&first),
        "{:?}",
        first.iter().map(|o| &o.why).collect::<Vec<_>>()
    );
    assert_eq!(digest(&first), digest(&infer_real(&two)));
    assert_eq!(digest(&first), digest(&infer_real(&jobs(DEFAULT_SEED, 1))));
    assert_eq!(digest(&first), CUT_DOWN_INFER, "recorded cut-down digest");
}

#[test]
fn seed_changes_policy_inputs_and_still_passes_gates() {
    let other = infer_real(&jobs(7, 2));
    assert!(all_ok(&other));
    assert_ne!(digest(&other), CUT_DOWN_INFER);
}

#[test]
fn replay_matches_user_path_with_and_without_tracing() {
    let j = jobs(3, 2);
    let real = inst_real(&j);
    let quiet = inst_replay(&j, None);
    let traced = inst_replay(&j, Some(Instant::now()));
    for (r, q) in real.iter().zip(&quiet.outs) {
        assert_eq!(r.bytes, q.bytes);
        assert_eq!(r.end, q.end, "replay leaves the same machine state");
    }
    assert_eq!(
        quiet.counts, traced.counts,
        "tracing does not change counts"
    );
    assert!(quiet.spans.iter().all(Vec::is_empty));
    assert!(traced.spans.iter().any(|s| !s.is_empty()));

    let real = infer_real(&j);
    let traced = infer_replay(&j, Some(Instant::now()));
    assert_eq!(digest(&real), digest(&traced.outs));
    assert_eq!(traced.counts, infer_replay(&j, None).counts);
}

#[test]
fn warm_store_answers_every_job_bit_identically() {
    let dir = work_dir("store");
    let path = dir.join("store.nbstore");
    let j = jobs(DEFAULT_SEED, 2);
    let n = store_jobs(&j) as u64;
    let cold = store_pass(&j, &path);
    assert_eq!((cold.inserts, cold.hits), (n, 0));
    assert!(all_ok(&cold.outs));
    let warm = store_pass(&j, &path);
    assert_eq!((warm.hits, warm.misses, warm.inserts), (n, 0, 0));
    assert_eq!(digest(&warm.outs), digest(&cold.outs));
    let replayed = store_replay(&j, &path, Some(Instant::now()));
    assert_eq!(ResultStore::open(&path).unwrap().len() as u64, n);
    assert_eq!(digest(&replayed.outs), digest(&cold.outs));
    assert_eq!(replayed.counts.store_hits, n);
    let quiet = store_replay(&j, &path, None);
    assert_eq!(digest(&quiet.outs), digest(&cold.outs));
    assert_eq!(
        quiet.counts, replayed.counts,
        "tracing does not change counts"
    );
    assert!(quiet.spans.iter().all(Vec::is_empty));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn runs_report_every_metric_and_pass_their_gates() {
    let dir = work_dir("run");
    for workload in Workload::ALL {
        for trace in [false, true] {
            let opts = Options {
                workload,
                seed: 5,
                seconds: 0.01,
                trace,
                jobs: Some(jobs(5, 2)),
                work_dir: dir.clone(),
            };
            let out = run(&opts);
            assert!(
                out.correct(),
                "{} trace={trace}: {:?}",
                workload.name(),
                out.failures
            );
            let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
            let want: &[&str] = if trace {
                &[
                    "x86.parse_asm_us",
                    "plan.decodes",
                    "store.hit_ratio",
                    "trace.overhead_frac",
                    "trace.replay_gap_frac",
                ]
            } else {
                &[
                    "jobs_per_s",
                    "job_p50_ms",
                    "job_tail_ms",
                    "setup_s",
                    "peak_rss_mb",
                ]
            };
            for w in want {
                assert!(names.contains(w), "{w} missing from {names:?}");
            }
            assert!(out.metrics.iter().all(|m| m.value.is_finite()));
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
