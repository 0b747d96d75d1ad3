//! Store-aware policy-inference entry points.
//!
//! A full [`fit_policy`] run measures dozens of random sequences through
//! cacheSeq — seconds of simulation per cache level. [`InferRequest`]
//! packages one such inference as a self-describing job, and
//! [`run_infer_stored`] answers it from a persistent
//! [`ResultStore`](nanobench_store::ResultStore) when the identical
//! request (same CPU configuration, level, set, seeds, budget) has run
//! before — so policy sweeps and Table I re-runs are warm-started across
//! processes.
//!
//! Keys follow the campaign scheme in `nanobench-core`: the `spec`
//! component fingerprints the request parameters, the `uarch` component
//! fingerprints the simulated CPU ([`CpuSpec::hash_config`]), the `seed`
//! component is the fit seed, and the version is
//! [`INFER_FORMAT_VERSION`] — bump it whenever the stored [`FitResult`]
//! encoding *or the semantics of the inference itself* change, so stale
//! records recompute instead of being trusted.

use crate::addresses::Level;
use crate::cacheseq::CacheSeq;
use crate::policy_fit::{fit_policy, FitResult};
use nanobench_cache::policy::PolicyKind;
use nanobench_cache::CpuSpec;
use nanobench_core::NbError;
use nanobench_store::{ByteReader, ByteWriter, Fnv1a, ResultStore, StoreKey};
use std::hash::{Hash, Hasher};

/// Version of [`FitResult`]'s persistent-store encoding. Bump on any
/// change to the encoding or to the inference algorithm's behaviour.
pub const INFER_FORMAT_VERSION: u32 = 1;

/// One policy-inference job: everything [`run_infer`] needs to build a
/// cacheSeq and fit a policy, in a form that can be fingerprinted for the
/// persistent store.
#[derive(Debug, Clone)]
pub struct InferRequest {
    /// The CPU model to infer against.
    pub cpu: CpuSpec,
    /// The cache level under test.
    pub level: Level,
    /// The cache set accessed.
    pub set: usize,
    /// The L3 slice (must be `Some` exactly for [`Level::L3`]).
    pub slice: Option<usize>,
    /// Number of same-set blocks the cacheSeq pool holds.
    pub n_blocks: usize,
    /// Associativity the candidates are simulated at.
    pub assoc: usize,
    /// Maximum number of random sequences measured on the machine.
    pub max_sequences: usize,
    /// Seed of the cacheSeq machine.
    pub seq_seed: u64,
    /// Seed of the random-sequence generator in [`fit_policy`].
    pub fit_seed: u64,
}

impl InferRequest {
    /// The standard Table I inference for `level` of `cpu`: the set,
    /// block-count and seed choices of the E6 experiment (`n_blocks =
    /// assoc + 4`, machine seed 7, fit seed 21, 80-sequence budget).
    pub fn table1(cpu: &CpuSpec, level: Level, set: usize, assoc: usize) -> InferRequest {
        InferRequest {
            cpu: cpu.clone(),
            level,
            set,
            slice: Some(0).filter(|_| level == Level::L3),
            n_blocks: assoc + 4,
            assoc,
            max_sequences: 80,
            seq_seed: 7,
            fit_seed: 21,
        }
    }

    /// The request's [`StoreKey`]: parameters in `spec`, CPU
    /// configuration in `uarch`, fit seed in `seed`.
    pub fn store_key(&self) -> StoreKey {
        let mut spec = Fnv1a::new();
        match self.level {
            Level::L1 => 0u8,
            Level::L2 => 1u8,
            Level::L3 => 2u8,
        }
        .hash(&mut spec);
        self.set.hash(&mut spec);
        self.slice.hash(&mut spec);
        self.n_blocks.hash(&mut spec);
        self.assoc.hash(&mut spec);
        self.max_sequences.hash(&mut spec);
        self.seq_seed.hash(&mut spec);
        let mut uarch = Fnv1a::new();
        self.cpu.hash_config(&mut uarch);
        StoreKey {
            spec: spec.finish(),
            uarch: uarch.finish(),
            seed: self.fit_seed,
            version: INFER_FORMAT_VERSION,
        }
    }
}

/// Runs the inference cold: builds the cacheSeq and fits the policy.
///
/// # Errors
///
/// Propagates cacheSeq construction and measurement errors.
pub fn run_infer(req: &InferRequest) -> Result<FitResult, NbError> {
    let mut cs = CacheSeq::new(
        &req.cpu,
        req.level,
        req.set,
        req.slice,
        req.n_blocks,
        req.seq_seed,
    )?;
    fit_policy(&mut cs, req.assoc, req.max_sequences, req.fit_seed)
}

/// Runs the inference against a persistent store: answers from the store
/// when the identical request ran before, otherwise computes via
/// [`run_infer`] and publishes the result. Undecodable stored payloads
/// (corruption, a policy name a newer library no longer parses) recompute
/// and overwrite — never an error.
///
/// # Errors
///
/// Propagates [`run_infer`] errors and store I/O failures.
pub fn run_infer_stored(req: &InferRequest, store: &ResultStore) -> Result<FitResult, NbError> {
    store.get_or_compute(
        req.store_key(),
        fit_result_from_bytes,
        fit_result_to_bytes,
        || run_infer(req),
    )
}

/// Serializes a [`FitResult`] for the persistent store (version
/// [`INFER_FORMAT_VERSION`]): sequence count, then the equivalence
/// classes as length-prefixed lists of policy names — names rather than
/// in-memory representations, so the payload survives representation
/// changes and round-trips through [`PolicyKind::parse`].
pub fn fit_result_to_bytes(fit: &FitResult) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(fit.sequences_tested as u32)
        .put_u32(fit.matching.len() as u32);
    for class in &fit.matching {
        w.put_u32(class.len() as u32);
        for kind in class {
            w.put_str(&kind.name());
        }
    }
    w.into_bytes()
}

/// Decodes a [`FitResult`] from its store encoding. Returns `None` for
/// any malformed input, including policy names the current candidate
/// library no longer parses — the caller then recomputes.
pub fn fit_result_from_bytes(bytes: &[u8]) -> Option<FitResult> {
    let mut r = ByteReader::new(bytes);
    let sequences_tested = r.take_u32()? as usize;
    let n_classes = r.take_u32()? as usize;
    let mut matching = Vec::with_capacity(n_classes.min(1024));
    for _ in 0..n_classes {
        let n_members = r.take_u32()? as usize;
        let mut class = Vec::with_capacity(n_members.min(1024));
        for _ in 0..n_members {
            class.push(PolicyKind::parse(r.take_str()?).ok()?);
        }
        matching.push(class);
    }
    r.finish(FitResult {
        matching,
        sequences_tested,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy_fit::candidate_library;
    use nanobench_cache::presets::cpu_by_microarch;
    use nanobench_cache::L3PolicyConfig;

    #[test]
    fn fit_result_codec_round_trips_the_whole_library() {
        let fit = FitResult {
            matching: vec![candidate_library(8), vec![PolicyKind::Lru]],
            sequences_tested: 42,
        };
        let bytes = fit_result_to_bytes(&fit);
        let back = fit_result_from_bytes(&bytes).unwrap();
        assert_eq!(back.sequences_tested, 42);
        assert_eq!(back.matching, fit.matching);
        assert!(fit_result_from_bytes(&bytes[..bytes.len() - 1]).is_none());
        let mut extended = bytes;
        extended.push(0);
        assert!(fit_result_from_bytes(&extended).is_none());
        assert!(fit_result_from_bytes(&[]).is_none());
    }

    #[test]
    fn store_keys_separate_requests_and_cpus() {
        let skylake = cpu_by_microarch("Skylake").unwrap();
        let base = InferRequest::table1(&skylake, Level::L1, 5, skylake.l1_assoc);
        assert_eq!(base.store_key(), base.clone().store_key());
        let l2 = InferRequest::table1(&skylake, Level::L2, 21, skylake.l2_assoc);
        assert_ne!(base.store_key(), l2.store_key());
        let haswell = cpu_by_microarch("Haswell").unwrap();
        let other_cpu = InferRequest::table1(&haswell, Level::L1, 5, haswell.l1_assoc);
        assert_ne!(base.store_key().uarch, other_cpu.store_key().uarch);
        // Changing only the ground-truth policy changes the uarch hash:
        // warm results must never leak across policy configurations.
        let mut lru_l3 = skylake.clone();
        lru_l3.l3_policy = L3PolicyConfig::Uniform(PolicyKind::Lru);
        let changed = InferRequest::table1(&lru_l3, Level::L1, 5, lru_l3.l1_assoc);
        assert_ne!(base.store_key().uarch, changed.store_key().uarch);
        let mut reseeded = base.clone();
        reseeded.fit_seed = 22;
        assert_ne!(base.store_key(), reseeded.store_key());
    }

    #[test]
    fn stored_inference_matches_cold_and_hits_on_rerun() {
        let path = std::env::temp_dir().join(format!("nbstore-infer-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let store = ResultStore::open(&path).unwrap();
        let cpu = cpu_by_microarch("Skylake").unwrap();
        let req = InferRequest::table1(&cpu, Level::L1, 5, cpu.l1_assoc);
        let cold = run_infer(&req).unwrap();
        let first = run_infer_stored(&req, &store).unwrap();
        assert_eq!(first.matching, cold.matching);
        assert_eq!(first.sequences_tested, cold.sequences_tested);
        let warm = run_infer_stored(&req, &store).unwrap();
        assert_eq!(warm.matching, cold.matching);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.inserts), (1, 1));
        let _ = std::fs::remove_file(&path);
    }
}
