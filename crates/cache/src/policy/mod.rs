//! Cache replacement policies.
//!
//! This module implements every policy family the paper discusses (§VI-B):
//! permutation-based policies (LRU, FIFO, tree-based PLRU, and arbitrary
//! permutation specifications), the one-bit MRU/NRU policy with the Sandy
//! Bridge WBINVD variant, the fully parameterized QLRU family with the
//! paper's naming scheme (`QLRU_Hxy_Mz_Rr_Uu[_UMO]`), and a random policy.
//!
//! A policy instance manages one cache set. "Locations" (ways) are indexed
//! from 0; the paper's "leftmost" is way 0.

mod basic;
mod mru;
mod permutation;
mod qlru;

pub use basic::{Fifo, Lru, Plru, RandomPolicy};
pub use mru::Mru;
pub use permutation::{fifo_spec, lru_spec, plru_spec, Perm, PermutationPolicy, PermutationSpec};
pub use qlru::{
    all_meaningful_qlru_variants, HitFunc, InsertAge, QlruPolicy, QlruVariant, RVariant, UVariant,
};

use crate::cache::{Cache, DuelingSet, LineState};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt;

/// Per-set replacement policy state machine.
///
/// The cache set tells the policy about hits and asks it for a placement
/// location on misses; the policy never sees addresses, only way indices and
/// the current occupancy. This mirrors how real replacement logic only
/// observes per-line status bits.
pub trait SetPolicy: fmt::Debug + Send {
    /// Called when an access hits the block at `way`.
    ///
    /// `occupied[w]` indicates which ways currently hold valid lines.
    /// The slice is only guaranteed to be populated when
    /// [`SetPolicy::wants_occupied_on_hit`] returns `true`; policies that
    /// ignore it on hits let the cache skip the occupancy scan entirely.
    fn on_hit(&mut self, way: usize, occupied: &[bool]);

    /// Whether [`SetPolicy::on_hit`] reads `occupied`. Defaults to `false`
    /// so the cache's hit fast path avoids building the occupancy vector;
    /// policies whose hit transition depends on it (e.g. QLRU update
    /// heuristics) must override this.
    fn wants_occupied_on_hit(&self) -> bool {
        false
    }

    /// Called on a miss; returns the way where the new block is placed
    /// (evicting any valid line there) and updates internal state as if the
    /// new block had been inserted.
    fn on_miss(&mut self, occupied: &[bool]) -> usize;

    /// Called when the line at `way` is invalidated (e.g. `CLFLUSH`).
    fn on_invalidate(&mut self, way: usize);

    /// Called when the whole cache is flushed (e.g. `WBINVD`).
    fn on_flush(&mut self);

    /// Restores the just-constructed state for `seed`, reusing existing
    /// allocations. Unlike [`SetPolicy::on_flush`] — which models a
    /// hardware flush and leaves any random-number stream where it is —
    /// this also rewinds the stream of probabilistic policies, so a reset
    /// cache replays bit-identically to a freshly built one.
    /// Deterministic policies ignore `seed`.
    fn reset(&mut self, seed: u64);
}

/// Per-set replacement state, the only form in which a policy runs: one
/// variant per built-in policy family, so the cache's access path resolves
/// policy calls through a direct `match` instead of a vtable.
/// [`PolicyKind::try_instantiate`] builds the single-policy variants and
/// [`DuelingSet::try_new`] the set-dueling one.
#[derive(Debug, Clone)]
pub enum PolicySlot {
    /// Least-recently-used.
    Lru(Lru),
    /// First-in first-out.
    Fifo(Fifo),
    /// Tree-based pseudo-LRU.
    Plru(Plru),
    /// One-bit MRU / NRU (both WBINVD variants).
    Mru(Mru),
    /// A QLRU variant.
    Qlru(QlruPolicy),
    /// An arbitrary permutation policy; boxed, as its specification is
    /// larger than every other policy's state.
    Permutation(Box<PermutationPolicy>),
    /// Uniformly random replacement.
    Random(RandomPolicy),
    /// A set-dueling set (§VI-B3); boxed, as it holds up to two policies.
    Dueling(Box<DuelingSet>),
}

/// Delegates a [`SetPolicy`] method call to whichever policy the slot
/// holds (a direct call, never through a vtable).
macro_rules! for_each_slot {
    ($slot:expr, $p:ident => $call:expr) => {
        match $slot {
            PolicySlot::Lru($p) => $call,
            PolicySlot::Fifo($p) => $call,
            PolicySlot::Plru($p) => $call,
            PolicySlot::Mru($p) => $call,
            PolicySlot::Qlru($p) => $call,
            PolicySlot::Permutation($p) => $call,
            PolicySlot::Random($p) => $call,
            PolicySlot::Dueling($p) => $call,
        }
    };
}

impl PolicySlot {
    /// [`SetPolicy::on_hit`].
    #[inline]
    pub fn on_hit(&mut self, way: usize, occupied: &[bool]) {
        for_each_slot!(self, p => p.on_hit(way, occupied))
    }

    /// [`SetPolicy::wants_occupied_on_hit`].
    #[inline]
    pub fn wants_occupied_on_hit(&self) -> bool {
        for_each_slot!(self, p => p.wants_occupied_on_hit())
    }

    /// [`SetPolicy::on_miss`].
    #[inline]
    pub fn on_miss(&mut self, occupied: &[bool]) -> usize {
        for_each_slot!(self, p => p.on_miss(occupied))
    }

    /// [`SetPolicy::on_invalidate`].
    #[inline]
    pub fn on_invalidate(&mut self, way: usize) {
        for_each_slot!(self, p => p.on_invalidate(way))
    }

    /// [`SetPolicy::on_flush`].
    #[inline]
    pub fn on_flush(&mut self) {
        for_each_slot!(self, p => p.on_flush())
    }

    /// [`SetPolicy::reset`].
    pub fn reset(&mut self, seed: u64) {
        for_each_slot!(self, p => p.reset(seed))
    }
}

/// A policy selector: everything needed to instantiate per-set policy state.
///
/// `PolicyKind` is the configuration-level description used by cache
/// configurations ([Table I presets](crate::presets)) and by the candidate
/// library of the policy-inference tools.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyKind {
    /// Least-recently-used.
    Lru,
    /// First-in first-out.
    Fifo,
    /// Tree-based pseudo-LRU (associativity must be a power of two).
    Plru,
    /// One-bit MRU / bit-PLRU / NRU (§VI-B2). `fill_sets_all_ones` selects
    /// the Sandy Bridge variant that keeps all status bits set while the
    /// cache is not yet full after a WBINVD (reported as `MRU*` in Table I).
    Mru {
        /// Sandy Bridge WBINVD variant flag.
        fill_sets_all_ones: bool,
    },
    /// A QLRU variant per the paper's naming scheme (§VI-B2).
    Qlru(QlruVariant),
    /// An arbitrary permutation policy given by its A+1 permutations.
    Permutation(PermutationSpec),
    /// Uniformly random replacement.
    Random,
}

impl PolicyKind {
    /// Short human-readable name, matching the paper's naming scheme
    /// (`PLRU`, `MRU`, `MRU*`, `QLRU_H11_M1_R0_U0`, ...).
    pub fn name(&self) -> String {
        match self {
            PolicyKind::Lru => "LRU".to_string(),
            PolicyKind::Fifo => "FIFO".to_string(),
            PolicyKind::Plru => "PLRU".to_string(),
            PolicyKind::Mru {
                fill_sets_all_ones: false,
            } => "MRU".to_string(),
            PolicyKind::Mru {
                fill_sets_all_ones: true,
            } => "MRU*".to_string(),
            PolicyKind::Qlru(v) => v.name(),
            PolicyKind::Permutation(_) => "PERMUTATION".to_string(),
            PolicyKind::Random => "RANDOM".to_string(),
        }
    }

    /// Parses a policy name produced by [`PolicyKind::name`].
    ///
    /// # Errors
    ///
    /// Returns an error string when the name is not recognized.
    pub fn parse(name: &str) -> Result<PolicyKind, String> {
        match name {
            "LRU" => Ok(PolicyKind::Lru),
            "FIFO" => Ok(PolicyKind::Fifo),
            "PLRU" => Ok(PolicyKind::Plru),
            "MRU" => Ok(PolicyKind::Mru {
                fill_sets_all_ones: false,
            }),
            "MRU*" => Ok(PolicyKind::Mru {
                fill_sets_all_ones: true,
            }),
            "RANDOM" => Ok(PolicyKind::Random),
            other if other.starts_with("QLRU_") => QlruVariant::parse(other).map(PolicyKind::Qlru),
            other => Err(format!("unknown policy name `{other}`")),
        }
    }

    /// Whether the policy makes probabilistic decisions.
    pub fn is_probabilistic(&self) -> bool {
        match self {
            PolicyKind::Random => true,
            PolicyKind::Qlru(v) => v.is_probabilistic(),
            _ => false,
        }
    }

    /// Checks that this policy can manage a set with `assoc` ways.
    ///
    /// This is the fallible counterpart of the constraints
    /// [`PolicyKind::instantiate`] enforces by panicking; configuration
    /// code that handles user-supplied policies should call this (or
    /// [`PolicyKind::try_instantiate`]) so a bad policy/associativity
    /// combination surfaces as an error instead of aborting a worker.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint: zero
    /// associativity, PLRU with a non-power-of-two or >64-way set, or an
    /// inconsistent permutation specification.
    pub fn validate(&self, assoc: usize) -> Result<(), String> {
        if assoc == 0 {
            return Err("associativity must be positive".to_string());
        }
        match self {
            PolicyKind::Plru => {
                if !assoc.is_power_of_two() {
                    return Err(format!(
                        "PLRU requires a power-of-two associativity, got {assoc}"
                    ));
                }
                if assoc > 64 {
                    return Err(format!("PLRU supports at most 64 ways, got {assoc}"));
                }
            }
            PolicyKind::Permutation(spec) => {
                spec.validate()?;
                if spec.assoc() != assoc {
                    return Err(format!(
                        "permutation spec is for {} ways, set has {assoc}",
                        spec.assoc()
                    ));
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Instantiates per-set state for a set with `assoc` ways, validating
    /// the policy/associativity combination first. This is the one
    /// factory every cache, dueling set and [`SetSim`] builds its policies
    /// with.
    ///
    /// `seed` provides determinism for probabilistic policies; derive it
    /// from (cache seed, set index) so different sets draw independently.
    ///
    /// # Errors
    ///
    /// Returns the error of [`PolicyKind::validate`].
    pub fn try_instantiate(&self, assoc: usize, seed: u64) -> Result<PolicySlot, String> {
        self.validate(assoc)?;
        Ok(match self {
            PolicyKind::Lru => PolicySlot::Lru(Lru::new(assoc)),
            PolicyKind::Fifo => PolicySlot::Fifo(Fifo::new(assoc)),
            PolicyKind::Plru => PolicySlot::Plru(Plru::new(assoc)),
            PolicyKind::Mru { fill_sets_all_ones } => {
                PolicySlot::Mru(Mru::new(assoc, *fill_sets_all_ones))
            }
            PolicyKind::Qlru(v) => {
                PolicySlot::Qlru(QlruPolicy::new(assoc, *v, SmallRng::seed_from_u64(seed)))
            }
            PolicyKind::Permutation(spec) => {
                PolicySlot::Permutation(Box::new(PermutationPolicy::try_new(spec.clone())?))
            }
            PolicyKind::Random => {
                PolicySlot::Random(RandomPolicy::new(assoc, SmallRng::seed_from_u64(seed)))
            }
        })
    }

    /// Panicking counterpart of [`PolicyKind::try_instantiate`], for
    /// validated configurations.
    ///
    /// # Panics
    ///
    /// Panics if [`PolicyKind::validate`] rejects the combination (e.g.
    /// `assoc` is 0, or the policy is PLRU and `assoc` is not a power of
    /// two).
    pub fn instantiate(&self, assoc: usize, seed: u64) -> PolicySlot {
        match self.try_instantiate(assoc, seed) {
            Ok(slot) => slot,
            Err(e) => panic!("cannot instantiate policy {}: {e}", self.name()),
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// Simulates an access sequence of abstract blocks against a policy on a
/// single cache set, returning per-access hit/miss.
///
/// Blocks are identified by arbitrary `u64` ids; the set starts empty. This
/// is the "simulation of different replacement policies" the paper's
/// inference tool compares measurements against (§VI-C1).
///
/// # Examples
///
/// ```
/// use nanobench_cache::policy::{simulate_sequence, PolicyKind};
/// // 2-way LRU: A B A -> miss miss hit
/// let hits = simulate_sequence(&PolicyKind::Lru, 2, 0, &[0, 1, 0]);
/// assert_eq!(hits, vec![false, false, true]);
/// ```
pub fn simulate_sequence(kind: &PolicyKind, assoc: usize, seed: u64, blocks: &[u64]) -> Vec<bool> {
    let mut sim = SetSim::new(kind, assoc, seed);
    blocks.iter().map(|b| sim.access(*b)).collect()
}

/// A standalone single-set simulator: a block-id view over a one-set
/// [`Cache`], so candidate policies run through the same tag arena and
/// [`PolicySlot`] dispatch as the simulated hierarchy.
#[derive(Debug, Clone)]
pub struct SetSim {
    cache: Cache,
    /// The arena marks empty ways with `u64::MAX`, so while block id
    /// `u64::MAX` is cached it is stored under this stand-in tag, which no
    /// other cached block has.
    max_alias: Option<u64>,
}

impl SetSim {
    /// Creates an empty set with `assoc` ways governed by `kind`.
    ///
    /// # Panics
    ///
    /// Panics where [`SetSim::try_new`] returns an error.
    pub fn new(kind: &PolicyKind, assoc: usize, seed: u64) -> SetSim {
        match SetSim::try_new(kind, assoc, seed) {
            Ok(sim) => sim,
            Err(e) => panic!("cannot instantiate policy {}: {e}", kind.name()),
        }
    }

    /// Fallible counterpart of [`SetSim::new`].
    ///
    /// # Errors
    ///
    /// Returns the error of [`PolicyKind::validate`], or of
    /// [`Cache::with_policies`] when `assoc` exceeds
    /// [`MAX_ASSOC`](crate::cache::MAX_ASSOC).
    pub fn try_new(kind: &PolicyKind, assoc: usize, seed: u64) -> Result<SetSim, String> {
        Ok(SetSim {
            cache: Cache::with_policies(1, assoc, |_| kind.try_instantiate(assoc, seed))?,
            max_alias: None,
        })
    }

    /// Accesses `block`; returns `true` on a hit.
    pub fn access(&mut self, block: u64) -> bool {
        let tag = self.tag_for_access(block);
        if self.cache.access_block(0, tag).is_some() {
            return true;
        }
        let evicted = self.cache.fill_block(0, tag, LineState::Exclusive);
        if evicted.is_some() && evicted == self.max_alias {
            self.max_alias = None;
        }
        false
    }

    /// The arena tag an access to `block` looks up, moving the stand-in
    /// for `u64::MAX` out of the way when `block` itself is that tag.
    fn tag_for_access(&mut self, block: u64) -> u64 {
        if block == u64::MAX {
            let alias = self.max_alias.unwrap_or_else(|| self.unused_tag());
            return *self.max_alias.insert(alias);
        }
        if self.max_alias == Some(block) {
            let fresh = self.unused_tag();
            self.cache.retag(0, block, fresh);
            self.max_alias = Some(fresh);
        }
        block
    }

    /// A tag no cached block is stored under (the set holds at most
    /// [`MAX_ASSOC`](crate::cache::MAX_ASSOC) blocks, so the search is
    /// short).
    fn unused_tag(&self) -> u64 {
        (1..)
            .map(|k| u64::MAX - k)
            .find(|&t| !self.cache.holds_block(0, t))
            .expect("a set holds at most MAX_ASSOC blocks")
    }

    /// Returns `true` if `block` is currently cached (without touching
    /// policy state).
    pub fn contains(&self, block: u64) -> bool {
        if block == u64::MAX {
            self.max_alias.is_some()
        } else {
            self.max_alias != Some(block) && self.cache.holds_block(0, block)
        }
    }

    /// Empties the set, as after `WBINVD`.
    pub fn flush(&mut self) {
        self.cache.flush_all();
        self.max_alias = None;
    }

    /// The current contents by way (left = way 0).
    pub fn contents(&self) -> Vec<Option<u64>> {
        let mut contents = self.cache.set_contents(0);
        if let Some(alias) = self.max_alias {
            for tag in contents.iter_mut().flatten() {
                if *tag == alias {
                    *tag = u64::MAX;
                }
            }
        }
        contents
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_round_trip() {
        let kinds = [
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::Plru,
            PolicyKind::Mru {
                fill_sets_all_ones: false,
            },
            PolicyKind::Mru {
                fill_sets_all_ones: true,
            },
            PolicyKind::Random,
        ];
        for kind in kinds {
            assert_eq!(PolicyKind::parse(&kind.name()).unwrap(), kind);
        }
        for v in all_meaningful_qlru_variants() {
            let kind = PolicyKind::Qlru(v);
            assert_eq!(PolicyKind::parse(&kind.name()).unwrap(), kind, "{}", kind);
        }
    }

    #[test]
    fn validate_rejects_bad_combinations() {
        assert!(PolicyKind::Lru.validate(0).is_err());
        assert!(PolicyKind::Plru.validate(12).is_err());
        assert!(PolicyKind::Plru.validate(128).is_err());
        assert!(PolicyKind::Plru.validate(16).is_ok());
        let mut spec = lru_spec(4);
        assert!(PolicyKind::Permutation(spec.clone()).validate(8).is_err());
        assert!(PolicyKind::Permutation(spec.clone()).validate(4).is_ok());
        spec.miss = vec![0, 0, 1, 2];
        assert!(PolicyKind::Permutation(spec).validate(4).is_err());
    }

    #[test]
    fn try_instantiate_errors_instead_of_panicking() {
        assert!(PolicyKind::Plru.try_instantiate(12, 0).is_err());
        assert!(SetSim::try_new(&PolicyKind::Plru, 12, 0).is_err());
        let sim = SetSim::try_new(&PolicyKind::Plru, 8, 0);
        assert!(sim.is_ok());
        // The arena's occupancy buffer bounds every set, SetSim's included.
        let too_wide = crate::cache::MAX_ASSOC + 1;
        assert!(SetSim::try_new(&PolicyKind::Lru, too_wide, 0).is_err());
    }

    #[test]
    fn set_sim_caches_the_empty_way_sentinel_like_any_block() {
        // The arena marks empty ways with `u64::MAX`; as a block id it must
        // still miss on an empty set, then behave like any other block.
        assert_eq!(
            simulate_sequence(&PolicyKind::Lru, 2, 0, &[u64::MAX]),
            [false]
        );
        let hits = simulate_sequence(
            &PolicyKind::Lru,
            2,
            0,
            &[u64::MAX, u64::MAX, 0, 1, u64::MAX],
        );
        assert_eq!(hits, [false, true, false, false, false]);
        // Blocks next to the sentinel stay distinct from it.
        let seq = [u64::MAX, u64::MAX - 1, u64::MAX - 2, u64::MAX, u64::MAX - 1];
        assert_eq!(
            simulate_sequence(&PolicyKind::Lru, 4, 0, &seq),
            [false, false, false, true, true]
        );
        let mut sim = SetSim::new(&PolicyKind::Fifo, 2, 0);
        sim.access(u64::MAX);
        sim.access(u64::MAX - 1);
        assert_eq!(sim.contents(), [Some(u64::MAX), Some(u64::MAX - 1)]);
        assert!(sim.contains(u64::MAX) && sim.contains(u64::MAX - 1));
        assert!(!sim.access(0)); // FIFO evicts u64::MAX
        assert!(!sim.contains(u64::MAX));
        assert!(sim.contains(u64::MAX - 1));
        sim.flush();
        assert!(!sim.access(u64::MAX));
    }

    #[test]
    fn policy_slot_stays_within_its_size_budget() {
        // Every set of every cache holds one slot, so the permutation and
        // dueling arms are boxed: the slot is the size of the QLRU state
        // (72 bytes on x86-64; 120 before permutation specs were boxed).
        assert!(std::mem::size_of::<PolicySlot>() <= 72);
    }

    #[test]
    fn simulate_lru_basics() {
        // 2-way LRU, sequence A B C A: C evicts A (LRU), so final A misses.
        let hits = simulate_sequence(&PolicyKind::Lru, 2, 0, &[0, 1, 2, 0]);
        assert_eq!(hits, vec![false, false, false, false]);
        // A B A C B: A hit; C evicts B? no, evicts LRU=B after A touched. B misses.
        let hits = simulate_sequence(&PolicyKind::Lru, 2, 0, &[0, 1, 0, 2, 1]);
        assert_eq!(hits, vec![false, false, true, false, false]);
    }

    #[test]
    fn set_sim_flush() {
        let mut sim = SetSim::new(&PolicyKind::Lru, 4, 0);
        sim.access(1);
        assert!(sim.contains(1));
        sim.flush();
        assert!(!sim.contains(1));
        assert!(!sim.access(1));
    }
}
