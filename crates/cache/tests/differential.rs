//! Differential test: the arena/enum cache against a naive reference model.
//!
//! The oracle keeps the pre-refactor representation — per-set
//! `Vec<Option<u64>>` tags plus per-set `Box<dyn SetPolicy>` built
//! directly from the concrete policy types, with its own set-dueling
//! leader/follower wrappers — and always hands the policy a full occupancy
//! slice on hits, i.e. it does not use the `wants_occupied_on_hit` fast
//! path, has no MRU-way probe, and no packed state words. Agreement on
//! every observable (hit/miss + MESI state, eviction victim, invalidation
//! result, stats, contents) pins the storage layout, the `PolicySlot`
//! factory and enum dispatch as behaviour-preserving across the whole
//! policy library, set dueling included.
//!
//! The streams also interleave resets with fresh seeds. The arena resets
//! in place (an O(1) epoch bump, with sets rewound lazily on first touch);
//! the oracle is never reset but built afresh for the new seed, so
//! agreement after every op pins the lazy rewind — stale sets reading as
//! empty, per-set reseeding of the random streams — against construction.

use std::sync::Arc;

use nanobench_cache::cache::DuelingSet;
use nanobench_cache::policy::{Fifo, Lru, Mru, PermutationPolicy, Plru, QlruPolicy, RandomPolicy};
use nanobench_cache::{
    Cache, CacheStats, LineState, PolicyKind, PselCounter, SetPolicy, SetRole, LINE_SIZE,
};
use proptest::prelude::*;
use proptest::TestRng;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const NUM_SETS: usize = 4;
/// Distinct cache blocks the generated streams touch: 8 per set, i.e.
/// 2x the largest associativity, so evictions and re-fills are common.
const BLOCK_SPAN: u64 = 32;

/// Mirrors the salt `DuelingSet` uses to split a dueling set's policy-B
/// stream from its policy-A stream.
const B_SEED_SALT: u64 = 0xB00B;

/// Per-set seed derivation applied identically to both models: the arena
/// keeps it as its seed rule, the oracle calls it at every rebuild (the
/// cache-internal derivation is private, which is fine: equivalence only
/// needs symmetry, not the same constants).
fn set_seed(case_seed: u64, set: usize) -> u64 {
    case_seed ^ (set as u64).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// The oracle's policy factory: the concrete policy types, boxed, with
/// the same seeding as `PolicyKind::try_instantiate`.
fn concrete(kind: &PolicyKind, assoc: usize, seed: u64) -> Box<dyn SetPolicy> {
    match kind {
        PolicyKind::Lru => Box::new(Lru::new(assoc)),
        PolicyKind::Fifo => Box::new(Fifo::new(assoc)),
        PolicyKind::Plru => Box::new(Plru::new(assoc)),
        PolicyKind::Mru { fill_sets_all_ones } => Box::new(Mru::new(assoc, *fill_sets_all_ones)),
        PolicyKind::Qlru(v) => Box::new(QlruPolicy::new(assoc, *v, SmallRng::seed_from_u64(seed))),
        PolicyKind::Permutation(spec) => Box::new(PermutationPolicy::new(spec.clone())),
        PolicyKind::Random => Box::new(RandomPolicy::new(assoc, SmallRng::seed_from_u64(seed))),
    }
}

/// The oracle's leader set: one policy, misses reported to the PSEL.
#[derive(Debug)]
struct NaiveLeader {
    inner: Box<dyn SetPolicy>,
    psel: Arc<PselCounter>,
    is_a: bool,
}

impl SetPolicy for NaiveLeader {
    fn on_hit(&mut self, way: usize, occupied: &[bool]) {
        self.inner.on_hit(way, occupied);
    }
    fn on_miss(&mut self, occupied: &[bool]) -> usize {
        if self.is_a {
            self.psel.miss_in_a();
        } else {
            self.psel.miss_in_b();
        }
        self.inner.on_miss(occupied)
    }
    fn on_invalidate(&mut self, way: usize) {
        self.inner.on_invalidate(way);
    }
    fn on_flush(&mut self) {
        self.inner.on_flush();
    }
    fn reset(&mut self, _seed: u64) {
        unreachable!("the oracle is rebuilt, never reset")
    }
}

/// The oracle's follower set: both policies, decisions by the PSEL.
#[derive(Debug)]
struct NaiveFollower {
    a: Box<dyn SetPolicy>,
    b: Box<dyn SetPolicy>,
    psel: Arc<PselCounter>,
}

impl NaiveFollower {
    fn active(&mut self) -> &mut dyn SetPolicy {
        if self.psel.use_policy_b() {
            self.b.as_mut()
        } else {
            self.a.as_mut()
        }
    }
}

impl SetPolicy for NaiveFollower {
    fn on_hit(&mut self, way: usize, occupied: &[bool]) {
        self.active().on_hit(way, occupied);
    }
    fn on_miss(&mut self, occupied: &[bool]) -> usize {
        self.active().on_miss(occupied)
    }
    fn on_invalidate(&mut self, way: usize) {
        self.a.on_invalidate(way);
        self.b.on_invalidate(way);
    }
    fn on_flush(&mut self) {
        self.a.on_flush();
        self.b.on_flush();
    }
    fn reset(&mut self, _seed: u64) {
        unreachable!("the oracle is rebuilt, never reset")
    }
}

/// The pre-refactor cache representation, reimplemented as a test oracle.
struct NaiveSet {
    tags: Vec<Option<u64>>,
    states: Vec<LineState>,
    policy: Box<dyn SetPolicy>,
}

struct NaiveCache {
    sets: Vec<NaiveSet>,
    stats: CacheStats,
    /// The PSEL counter the dueling sets share (`None` for uniform caches).
    psel: Option<Arc<PselCounter>>,
}

impl NaiveCache {
    fn new(
        num_sets: usize,
        assoc: usize,
        psel: Option<Arc<PselCounter>>,
        mut factory: impl FnMut(usize) -> Box<dyn SetPolicy>,
    ) -> NaiveCache {
        NaiveCache {
            sets: (0..num_sets)
                .map(|s| NaiveSet {
                    tags: vec![None; assoc],
                    states: vec![LineState::Invalid; assoc],
                    policy: factory(s),
                })
                .collect(),
            stats: CacheStats::default(),
            psel,
        }
    }

    fn set_index(&self, paddr: u64) -> usize {
        ((paddr / LINE_SIZE) & (self.sets.len() as u64 - 1)) as usize
    }

    fn find_way(&self, set: usize, block: u64) -> Option<usize> {
        self.sets[set].tags.iter().position(|&t| t == Some(block))
    }

    fn occupied(&self, set: usize) -> Vec<bool> {
        self.sets[set].tags.iter().map(|t| t.is_some()).collect()
    }

    fn access_with_state(&mut self, paddr: u64) -> Option<LineState> {
        let block = paddr / LINE_SIZE;
        let set = self.set_index(paddr);
        match self.find_way(set, block) {
            Some(way) => {
                let occ = self.occupied(set);
                self.sets[set].policy.on_hit(way, &occ);
                self.stats.hits += 1;
                Some(self.sets[set].states[way])
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn fill_with_state(&mut self, paddr: u64, state: LineState) -> Option<u64> {
        let block = paddr / LINE_SIZE;
        let set = self.set_index(paddr);
        if let Some(way) = self.find_way(set, block) {
            self.sets[set].states[way] = state;
            return None;
        }
        let occ = self.occupied(set);
        let way = self.sets[set].policy.on_miss(&occ);
        let evicted = self.sets[set].tags[way];
        self.sets[set].tags[way] = Some(block);
        self.sets[set].states[way] = state;
        evicted.map(|block| {
            self.stats.evictions += 1;
            block * LINE_SIZE
        })
    }

    fn set_state(&mut self, paddr: u64, state: LineState) -> bool {
        let block = paddr / LINE_SIZE;
        let set = self.set_index(paddr);
        match self.find_way(set, block) {
            Some(way) => {
                self.sets[set].states[way] = state;
                true
            }
            None => false,
        }
    }

    fn state_of(&self, paddr: u64) -> LineState {
        let block = paddr / LINE_SIZE;
        let set = self.set_index(paddr);
        self.find_way(set, block)
            .map_or(LineState::Invalid, |way| self.sets[set].states[way])
    }

    fn invalidate(&mut self, paddr: u64) -> bool {
        let block = paddr / LINE_SIZE;
        let set = self.set_index(paddr);
        match self.find_way(set, block) {
            Some(way) => {
                self.sets[set].tags[way] = None;
                self.sets[set].states[way] = LineState::Invalid;
                self.sets[set].policy.on_invalidate(way);
                true
            }
            None => false,
        }
    }

    fn flush_all(&mut self) {
        for set in &mut self.sets {
            set.tags.fill(None);
            set.states.fill(LineState::Invalid);
            set.policy.on_flush();
        }
    }

    fn set_contents(&self, set: usize) -> Vec<Option<u64>> {
        self.sets[set].tags.clone()
    }

    fn valid_lines(&self) -> Vec<(u64, LineState)> {
        self.sets
            .iter()
            .flat_map(|set| set.tags.iter().zip(&set.states))
            .filter_map(|(tag, &state)| tag.map(|block| (block * LINE_SIZE, state)))
            .collect()
    }
}

/// One generated operation against both models.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Access; on a miss, fill with the given state.
    Access(u64, LineState),
    Invalidate(u64),
    SetState(u64, LineState),
    StateOf(u64),
    Flush,
    /// Reset to a fresh cache seed: in place on the arena, by rebuilding
    /// the oracle.
    Reset(u64),
}

/// Draws one [`Op`], weighted toward accesses so replacement state gets
/// exercised deeply, with flushes and resets rare.
struct OpStrategy;

impl Strategy for OpStrategy {
    type Value = Op;
    fn generate(&self, rng: &mut TestRng) -> Op {
        let paddr = (0..BLOCK_SPAN).generate(rng) * LINE_SIZE + (0..LINE_SIZE).generate(rng);
        let state = match (0u8..3).generate(rng) {
            0 => LineState::Exclusive,
            1 => LineState::Shared,
            _ => LineState::Modified,
        };
        match (0u8..21).generate(rng) {
            0..=11 => Op::Access(paddr, state),
            12 | 13 => Op::Invalidate(paddr),
            14 | 15 => Op::SetState(paddr, state),
            16 | 17 => Op::StateOf(paddr),
            18 => Op::Flush,
            _ => Op::Reset((0..u64::MAX).generate(rng)),
        }
    }
}

/// Checks every observable of the two models: stats, per-set contents,
/// the MESI state of every block, the valid-line list and the PSEL counter.
/// These are all reads, so the arena's rewind count must not move.
fn assert_same(arena: &Cache, arena_psel: Option<&PselCounter>, oracle: &NaiveCache, at: &str) {
    let sets_reset = arena.sets_reset();
    assert_eq!(arena.stats(), oracle.stats, "{at}: stats");
    for set in 0..arena.num_sets() {
        assert_eq!(
            arena.set_contents(set),
            oracle.set_contents(set),
            "{at}: contents of set {set}"
        );
    }
    for block in 0..BLOCK_SPAN {
        let paddr = block * LINE_SIZE;
        assert_eq!(
            arena.state_of(paddr),
            oracle.state_of(paddr),
            "{at}: state of block {block}"
        );
    }
    let mut lines: Vec<_> = arena.valid_lines().collect();
    let mut expected = oracle.valid_lines();
    lines.sort_unstable();
    expected.sort_unstable();
    assert_eq!(lines, expected, "{at}: valid lines");
    assert_eq!(
        arena_psel.map(PselCounter::value),
        oracle.psel.as_deref().map(PselCounter::value),
        "{at}: PSEL"
    );
    assert_eq!(arena.sets_reset(), sets_reset, "{at}: reads rewound a set");
}

/// Drives the same stream through both models and checks every observable
/// after every op. `oracle_for(seed)` builds a fresh oracle for a cache
/// seed; the arena was built for `case_seed` and shares `arena_psel`, if
/// any, between its dueling sets.
///
/// Also pins the rewind count exactly: after a reset, each set is rewound
/// once, by the first access (hit probe or fill) or flush that reaches it,
/// and never by invalidations, state writes or reads of a stale set.
fn check_equivalence(
    mut arena: Cache,
    arena_psel: Option<&PselCounter>,
    mut oracle_for: impl FnMut(u64) -> NaiveCache,
    case_seed: u64,
    ops: &[Op],
) {
    let mut oracle = oracle_for(case_seed);
    let mut stale = vec![false; arena.num_sets()];
    let mut rewinds = 0u64;
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Access(paddr, state) => {
                let set = arena.set_index(paddr);
                rewinds += u64::from(std::mem::take(&mut stale[set]));
                let a = arena.access_with_state(paddr);
                let o = oracle.access_with_state(paddr);
                assert_eq!(a, o, "op {i}: hit/state mismatch at {paddr:#x}");
                if a.is_none() {
                    let ev_a = arena.fill_with_state(paddr, state);
                    let ev_o = oracle.fill_with_state(paddr, state);
                    assert_eq!(ev_a, ev_o, "op {i}: eviction mismatch at {paddr:#x}");
                }
            }
            Op::Invalidate(paddr) => {
                assert_eq!(arena.invalidate(paddr), oracle.invalidate(paddr), "op {i}");
            }
            Op::SetState(paddr, state) => {
                assert_eq!(
                    arena.set_state(paddr, state),
                    oracle.set_state(paddr, state),
                    "op {i}"
                );
            }
            Op::StateOf(paddr) => {
                assert_eq!(arena.state_of(paddr), oracle.state_of(paddr), "op {i}");
            }
            Op::Flush => {
                rewinds += stale.iter().filter(|&&s| s).count() as u64;
                stale.fill(false);
                arena.flush_all();
                oracle.flush_all();
            }
            Op::Reset(seed) => {
                // The hierarchy recentres the PSEL alongside the caches.
                arena.reset_seeded(seed);
                if let Some(psel) = arena_psel {
                    psel.reset();
                }
                oracle = oracle_for(seed);
                stale.fill(true);
            }
        }
        assert_same(
            &arena,
            arena_psel,
            &oracle,
            &format!("after op {i} ({op:?})"),
        );
        assert_eq!(arena.sets_reset(), rewinds, "op {i}: sets rewound");
    }
}

/// Every parseable policy family exercised by the plain differential run.
const POLICIES: &[&str] = &[
    "LRU",
    "FIFO",
    "PLRU",
    "MRU",
    "MRU*",
    "RANDOM",
    "QLRU_H11_M1_R0_U0",
    "QLRU_H00_M1_R2_U1",
    "QLRU_H11_MR161_R1_U2",
    "QLRU_H00_MR162_R0_U0_UMO",
];

/// Policy B of the generated dueling caches: a deterministic QLRU and the
/// probabilistic leader-B policies of the Ivy Bridge-family L3s.
const DUELING_B: &[&str] = &["QLRU_H00_M1_R2_U1", "QLRU_H11_MR161_R1_U2"];

/// The dueling role of set `set` in the generated caches: set 0 leads for
/// policy A, set 1 for policy B, the rest follow.
fn role_of(set: usize) -> SetRole {
    match set {
        0 => SetRole::LeaderA,
        1 => SetRole::LeaderB,
        _ => SetRole::Follower,
    }
}

proptest! {
    /// Uniform-policy caches: the enum fast path against the boxed oracle.
    #[test]
    fn arena_cache_matches_naive_model(
        policy_idx in 0..POLICIES.len(),
        assoc in prop_oneof![Just(4usize), Just(8usize)],
        case_seed in 0..u64::MAX,
        ops in collection::vec(OpStrategy, 1..200),
    ) {
        let kind = PolicyKind::parse(POLICIES[policy_idx]).unwrap();
        let arena = Cache::with_policies(NUM_SETS, assoc, case_seed, set_seed, |_, seed| {
            kind.try_instantiate(assoc, seed)
        })
        .unwrap();
        let oracle_for = |seed| {
            NaiveCache::new(NUM_SETS, assoc, None, |set| {
                concrete(&kind, assoc, set_seed(seed, set))
            })
        };
        check_equivalence(arena, None, oracle_for, case_seed, &ops);
    }

    /// Set dueling: `DuelingSet` slots against the oracle's own leader and
    /// follower wrappers, each model owning an independent PSEL counter
    /// that must evolve identically.
    #[test]
    fn dueling_cache_matches_naive_model(
        b_idx in 0..DUELING_B.len(),
        assoc in prop_oneof![Just(4usize), Just(8usize)],
        case_seed in 0..u64::MAX,
        ops in collection::vec(OpStrategy, 1..200),
    ) {
        let a = PolicyKind::Lru;
        let b = PolicyKind::parse(DUELING_B[b_idx]).unwrap();
        let arena_psel = PselCounter::new();
        let arena = Cache::with_policies(NUM_SETS, assoc, case_seed, set_seed, |set, seed| {
            DuelingSet::try_new(role_of(set), &a, &b, assoc, seed, &arena_psel)
        })
        .unwrap();
        let oracle_for = |seed| {
            let oracle_psel = PselCounter::new();
            NaiveCache::new(NUM_SETS, assoc, Some(Arc::clone(&oracle_psel)), |set| -> Box<dyn SetPolicy> {
                let sa = set_seed(seed, set);
                let sb = sa ^ B_SEED_SALT;
                let psel = Arc::clone(&oracle_psel);
                match role_of(set) {
                    SetRole::LeaderA => Box::new(NaiveLeader { inner: concrete(&a, assoc, sa), psel, is_a: true }),
                    SetRole::LeaderB => Box::new(NaiveLeader { inner: concrete(&b, assoc, sb), psel, is_a: false }),
                    SetRole::Follower => Box::new(NaiveFollower {
                        a: concrete(&a, assoc, sa),
                        b: concrete(&b, assoc, sb),
                        psel,
                    }),
                }
            })
        };
        check_equivalence(arena, Some(&arena_psel), oracle_for, case_seed, &ops);
    }
}
