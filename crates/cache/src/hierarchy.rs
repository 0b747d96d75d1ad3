//! The three-level cache hierarchy: per-core private L1/L2 and a sliced,
//! inclusive L3 shared by all cores, with C-Box lookup counters, (optional)
//! adaptive replacement via set dueling, and a MESI-style snooping
//! coherence layer between the cores' private caches.

use crate::cache::{Cache, CacheConfig, CacheStats, DuelingSet, LineState, PselCounter};
use crate::policy::PolicyKind;
use crate::prefetch::Prefetchers;
use crate::slice::{SliceHash, SliceHashError};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// A core index outside the hierarchy's `0..n_cores` range, returned by
/// the fallible entry points ([`CacheHierarchy::access_from`] and
/// friends) instead of panicking — a bad index coming in over the public
/// API is a caller bug the simulator must reject, not abort on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreOutOfRange {
    /// The offending core index.
    pub core: usize,
    /// The number of cores the hierarchy was built with.
    pub n_cores: usize,
}

impl fmt::Display for CoreOutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "core index {} out of range for a {}-core hierarchy",
            self.core, self.n_cores
        )
    }
}

impl std::error::Error for CoreOutOfRange {}

/// Why a hierarchy could not be constructed (the fallible counterpart of
/// the panics [`CacheHierarchy::new_multi`] documents).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HierarchyError {
    /// `n_cores` outside `1..=8`.
    CoreCount(usize),
    /// A multi-core hierarchy over a non-inclusive L3 (the snoop protocol
    /// relies on inclusion).
    NonInclusiveMultiCore,
    /// Invalid L3 slice count.
    Slice(SliceHashError),
    /// A cache level whose geometry or replacement policy cannot be built
    /// (e.g. a non-power-of-two set count, or PLRU on a 12-way set).
    Level {
        /// `"L1"`, `"L2"` or `"L3"`.
        level: &'static str,
        /// The violated constraint.
        reason: String,
    },
}

impl fmt::Display for HierarchyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HierarchyError::CoreCount(n) => {
                write!(f, "core count must be between 1 and 8 (got {n})")
            }
            HierarchyError::NonInclusiveMultiCore => {
                f.write_str("multi-core hierarchies require an inclusive L3")
            }
            HierarchyError::Slice(e) => e.fmt(f),
            HierarchyError::Level { level, reason } => write!(f, "invalid {level}: {reason}"),
        }
    }
}

impl std::error::Error for HierarchyError {}

impl HierarchyError {
    /// Wraps a cache constructor's error as [`HierarchyError::Level`].
    fn level(level: &'static str) -> impl FnOnce(String) -> HierarchyError {
        move |reason| HierarchyError::Level { level, reason }
    }
}

/// A coherence-protocol invariant the hierarchy's state violates,
/// reported by [`CacheHierarchy::check_invariants`]. Under
/// `debug_assertions` every access asserts these for the touched line,
/// turning every debug-mode suite into a continuous protocol monitor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoherenceViolation {
    /// Single-writer-multiple-reader broken: a core holds the line
    /// `Modified` while another core also holds a copy.
    MultipleOwners {
        /// The line.
        paddr: u64,
        /// The core holding the `Modified` copy.
        owner: usize,
        /// A different core that also holds the line.
        other: usize,
        /// The state of `other`'s copy.
        other_state: LineState,
    },
    /// `Exclusive` is not exclusive: a core holds the line `E` while
    /// another core also holds a copy.
    SharedExclusive {
        /// The line.
        paddr: u64,
        /// The core holding the `Exclusive` copy.
        owner: usize,
        /// A different core that also holds the line.
        other: usize,
    },
    /// Inclusion broken: a private L1/L2 copy exists but the line is not
    /// present in the (inclusive) L3.
    InclusionHole {
        /// The line.
        paddr: u64,
        /// The core whose private caches hold the orphaned copy.
        core: usize,
        /// The orphaned copy's state.
        state: LineState,
    },
}

impl fmt::Display for CoherenceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoherenceViolation::MultipleOwners {
                paddr,
                owner,
                other,
                other_state,
            } => write!(
                f,
                "SWMR violated at {paddr:#x}: core {owner} holds M while core {other} holds {}",
                other_state.letter()
            ),
            CoherenceViolation::SharedExclusive {
                paddr,
                owner,
                other,
            } => write!(
                f,
                "exclusivity violated at {paddr:#x}: core {owner} holds E while core {other} \
                 also holds a copy"
            ),
            CoherenceViolation::InclusionHole { paddr, core, state } => write!(
                f,
                "inclusion violated at {paddr:#x}: core {core} holds {} but the line is not in \
                 the L3",
                state.letter()
            ),
        }
    }
}

impl std::error::Error for CoherenceViolation {}

/// A seeded protocol corruption, used to mutation-test `nbverify`'s
/// conformance bridge and the runtime invariant monitor: each variant
/// disables one coherence action, and the checkers must catch every one
/// with a counterexample. `None` (the default) is the faithful protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolMutation {
    /// `clflush`/inclusive-victim back-invalidation skips the private
    /// caches entirely, leaving orphaned copies behind.
    SkipBackInvalidation,
    /// A read that snoop-hits a remote `Modified` copy forwards the data
    /// but leaves the remote copy `Modified` instead of downgrading it.
    ForwardWithoutDowngrade,
    /// A store's RFO stops invalidating remote copies.
    DropRfoInvalidate,
    /// An L3 eviction back-invalidates only the L1s, leaving stale L2
    /// copies behind (inclusion broken on the evict path).
    BreakInclusionOnEvict,
    /// A read that snoop-hits a remote `Modified` copy is served from the
    /// (stale) L3 data as a clean hit instead of the dirty forward.
    StaleDataForward,
}

/// Which level of the memory hierarchy served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HitLevel {
    /// Served by the L1 data cache.
    L1,
    /// Served by the private L2.
    L2,
    /// Served by the shared L3.
    L3,
    /// Served by main memory.
    Memory,
}

/// What the coherence snoop of the *other* cores' private caches found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SnoopResult {
    /// No other core held the line (always the case on a 1-core machine).
    Miss,
    /// Another core held a clean (`E`/`S`) copy.
    Hit,
    /// Another core held the line `Modified`; its copy was downgraded
    /// (read) or invalidated (write), and the data was forwarded
    /// cross-core at [`Latencies::snoop_hitm`] cost.
    HitM,
}

/// The outcome of one data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccessResult {
    /// The level that served the access.
    pub level: HitLevel,
    /// Load-to-use latency in core cycles.
    pub latency: u64,
    /// The L3 slice looked up, when the access reached the L3.
    pub slice: Option<usize>,
    /// What snooping the other cores found (`Miss` on a 1-core machine).
    pub snoop: SnoopResult,
    /// Remote private-cache copies invalidated by this access (stores to
    /// shared lines; 0 on a 1-core machine).
    pub invalidated: u8,
}

/// Load-to-use latencies per level, in core cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Latencies {
    /// L1 data cache hit latency (4 cycles on all Table I parts; this is
    /// the number §III-A's example measures).
    pub l1: u64,
    /// L2 hit latency.
    pub l2: u64,
    /// L3 hit latency.
    pub l3: u64,
    /// Main-memory latency.
    pub mem: u64,
    /// Cross-core forward latency when the snoop finds a `Modified` copy
    /// in another core's private caches (an `XSNP_HITM` hit).
    pub snoop_hitm: u64,
}

impl Default for Latencies {
    fn default() -> Latencies {
        Latencies {
            l1: 4,
            l2: 12,
            l3: 42,
            mem: 200,
            snoop_hitm: 70,
        }
    }
}

/// Leader-set ranges of one L3 slice for set dueling (§VI-B3).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SliceLeaders {
    /// Set ranges dedicated to policy A.
    pub a: Vec<Range<usize>>,
    /// Set ranges dedicated to policy B.
    pub b: Vec<Range<usize>>,
}

impl SliceLeaders {
    fn role_of(&self, set: usize) -> SetRole {
        if self.a.iter().any(|r| r.contains(&set)) {
            SetRole::LeaderA
        } else if self.b.iter().any(|r| r.contains(&set)) {
            SetRole::LeaderB
        } else {
            SetRole::Follower
        }
    }
}

/// The dueling role of an L3 set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetRole {
    /// Dedicated to policy A.
    LeaderA,
    /// Dedicated to policy B.
    LeaderB,
    /// Follows the currently winning policy.
    Follower,
}

/// L3 replacement configuration: a single policy, or set dueling between
/// two policies with per-slice leader ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum L3PolicyConfig {
    /// All sets use one policy.
    Uniform(PolicyKind),
    /// Set dueling (Ivy Bridge / Haswell / Broadwell in Table I).
    Adaptive {
        /// Policy run by the A leader sets (and followers when A wins).
        policy_a: PolicyKind,
        /// Policy run by the B leader sets.
        policy_b: PolicyKind,
        /// Leader ranges, indexed by slice. Slices beyond the vector's
        /// length have no leaders (all sets are followers).
        leaders: Vec<SliceLeaders>,
    },
}

/// Geometry and policy of the sliced L3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct L3Config {
    /// Total capacity across all slices, in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub assoc: usize,
    /// Number of slices (1, 2, 4 or 8).
    pub slices: usize,
    /// Replacement configuration.
    pub policy: L3PolicyConfig,
}

impl L3Config {
    /// Sets per slice (0 for a zero slice count or associativity).
    pub fn sets_per_slice(&self) -> usize {
        let per_slice = self.size_bytes.checked_div(self.slices as u64).unwrap_or(0);
        per_slice.checked_div(self.assoc as u64 * 64).unwrap_or(0) as usize
    }
}

/// Full hierarchy configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 data cache.
    pub l1: CacheConfig,
    /// Private L2.
    pub l2: CacheConfig,
    /// Shared, sliced L3.
    pub l3: L3Config,
    /// Per-level latencies.
    pub latencies: Latencies,
    /// Whether the L3 is inclusive (evictions back-invalidate L1/L2);
    /// true for all Table I parts.
    pub inclusive_l3: bool,
}

impl HierarchyConfig {
    /// The number of L3 slices / C-Boxes. This is the *single* derivation
    /// point every consumer that must agree with the hierarchy uses — the
    /// slice hash, the C-Box lookup counters, `Pmu::new`'s uncore counter
    /// count, and the machine's per-core drain buffers.
    pub fn slice_count(&self) -> usize {
        self.l3.slices
    }
}

/// One core's private cache levels plus its prefetcher bank.
#[derive(Debug)]
struct PrivateCaches {
    l1: Cache,
    l2: Cache,
    prefetchers: Prefetchers,
}

/// Seed salt separating core `i`'s private-cache random streams from core
/// 0's; core 0's salt is 0, so a 1-core hierarchy is bit-identical to the
/// historical single-core one.
fn core_salt(core: usize) -> u64 {
    (core as u64) << 40
}

/// The cache seed of L3 slice `slice`.
fn slice_seed(seed: u64, slice: usize) -> u64 {
    seed ^ ((slice as u64 + 1) << 48)
}

/// The per-set seed rule of an L3 slice.
fn l3_set_seed(slice_seed: u64, set: usize) -> u64 {
    slice_seed ^ set as u64
}

impl PrivateCaches {
    fn try_new(
        config: &HierarchyConfig,
        seed: u64,
        core: usize,
    ) -> Result<PrivateCaches, HierarchyError> {
        Ok(PrivateCaches {
            l1: Cache::try_new(&config.l1, seed ^ 0x11 ^ core_salt(core))
                .map_err(HierarchyError::level("L1"))?,
            l2: Cache::try_new(&config.l2, seed ^ 0x22 ^ core_salt(core))
                .map_err(HierarchyError::level("L2"))?,
            prefetchers: Prefetchers::new(),
        })
    }

    /// The strongest MESI state this core holds the line in (its L1 and
    /// L2 copies normally agree; prefetch fills may leave only one level).
    fn state_of(&self, paddr: u64) -> LineState {
        let l1 = self.l1.state_of(paddr);
        if l1 == LineState::Modified {
            return l1; // already the strongest state; skip the L2 scan
        }
        l1.max(self.l2.state_of(paddr))
    }

    fn set_state(&mut self, paddr: u64, state: LineState) {
        self.l1.set_state(paddr, state);
        self.l2.set_state(paddr, state);
    }

    fn invalidate(&mut self, paddr: u64) -> bool {
        let in_l1 = self.l1.invalidate(paddr);
        let in_l2 = self.l2.invalidate(paddr);
        in_l1 || in_l2
    }
}

/// The simulated cache hierarchy: per-core private L1/L2 + shared L3,
/// kept coherent with a MESI-style snooping protocol.
#[derive(Debug)]
pub struct CacheHierarchy {
    config: HierarchyConfig,
    cores: Vec<PrivateCaches>,
    l3: Vec<Cache>,
    hash: SliceHash,
    psel: Arc<PselCounter>,
    uncore_lookups: Vec<u64>,
    /// Sum of `uncore_lookups`, maintained incrementally so per-access
    /// drain polling can early-out without touching the per-slice counts.
    uncore_total: u64,
    /// Per-slice snoops that found a copy in another core (HIT or HITM).
    snoop_hits: Vec<u64>,
    /// Total cross-core invalidations (remote copies killed by stores).
    invalidations: u64,
    /// Seeded protocol corruption (mutation testing); `None` is faithful.
    mutation: Option<ProtocolMutation>,
    /// Whether the debug-build per-access invariant assert is armed.
    /// Mutation tests disarm it to observe violations via
    /// [`CacheHierarchy::check_invariants`] instead of aborting.
    monitor: bool,
}

impl CacheHierarchy {
    /// Builds a single-core hierarchy; `seed` drives probabilistic
    /// replacement. Identical to `new_multi(config, seed, 1)`.
    pub fn new(config: &HierarchyConfig, seed: u64) -> CacheHierarchy {
        CacheHierarchy::new_multi(config, seed, 1)
    }

    /// Builds the hierarchy with `n_cores` sets of private L1/L2 caches
    /// sharing the sliced L3. Core 0's caches derive the same random
    /// streams as the historical single-core hierarchy.
    ///
    /// # Panics
    ///
    /// Panics where [`CacheHierarchy::try_new_multi`] returns an error.
    pub fn new_multi(config: &HierarchyConfig, seed: u64, n_cores: usize) -> CacheHierarchy {
        match CacheHierarchy::try_new_multi(config, seed, n_cores) {
            Ok(h) => h,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`CacheHierarchy::new_multi`]: returns the
    /// constraint violation instead of panicking, for callers assembling
    /// configurations from external input.
    ///
    /// # Errors
    ///
    /// Returns a [`HierarchyError`] if `n_cores` is outside `1..=8`, a
    /// multi-core L3 is not inclusive, the slice count is invalid, or a
    /// level's geometry or policy cannot be built.
    pub fn try_new_multi(
        config: &HierarchyConfig,
        seed: u64,
        n_cores: usize,
    ) -> Result<CacheHierarchy, HierarchyError> {
        if !(1..=8).contains(&n_cores) {
            return Err(HierarchyError::CoreCount(n_cores));
        }
        // The snoop protocol relies on inclusion: a line held in any
        // core's private caches is guaranteed to be in the L3, so only
        // the L3-hit path needs to probe remote cores. A non-inclusive
        // multi-core L3 would let private copies outlive their L3 line
        // and break the coherence invariants (all Table I parts are
        // inclusive, so this constrains nothing the paper models).
        if n_cores > 1 && !config.inclusive_l3 {
            return Err(HierarchyError::NonInclusiveMultiCore);
        }
        let hash = SliceHash::new(config.slice_count()).map_err(HierarchyError::Slice)?;
        let psel = PselCounter::new();
        let sets_per_slice = config.l3.sets_per_slice();
        let assoc = config.l3.assoc;
        let mut l3 = Vec::with_capacity(config.l3.slices);
        for slice in 0..config.l3.slices {
            let slice_seed = slice_seed(seed, slice);
            let cache = match &config.l3.policy {
                L3PolicyConfig::Uniform(kind) => Cache::with_policies(
                    sets_per_slice,
                    assoc,
                    slice_seed,
                    l3_set_seed,
                    |_, set_seed| kind.try_instantiate(assoc, set_seed),
                ),
                L3PolicyConfig::Adaptive {
                    policy_a,
                    policy_b,
                    leaders,
                } => {
                    let slice_leaders = leaders.get(slice).cloned().unwrap_or_default();
                    Cache::with_policies(
                        sets_per_slice,
                        assoc,
                        slice_seed,
                        l3_set_seed,
                        |set, set_seed| {
                            DuelingSet::try_new(
                                slice_leaders.role_of(set),
                                policy_a,
                                policy_b,
                                assoc,
                                set_seed,
                                &psel,
                            )
                        },
                    )
                }
            };
            l3.push(cache.map_err(HierarchyError::level("L3"))?);
        }
        let slices = config.slice_count();
        Ok(CacheHierarchy {
            cores: (0..n_cores)
                .map(|core| PrivateCaches::try_new(config, seed, core))
                .collect::<Result<_, _>>()?,
            l3,
            hash,
            psel,
            uncore_lookups: vec![0; slices],
            uncore_total: 0,
            snoop_hits: vec![0; slices],
            invalidations: 0,
            config: config.clone(),
            mutation: None,
            monitor: true,
        })
    }

    /// The configuration this hierarchy was built from.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Number of cores (sets of private L1/L2 caches).
    pub fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// Performs a data access from core 0 (load semantics). Kept for the
    /// single-core callers; see [`CacheHierarchy::access_from`].
    pub fn access(&mut self, paddr: u64) -> MemAccessResult {
        self.access_from(0, paddr, false)
            .expect("core 0 always exists")
    }

    /// Performs a data access from `core` (load or store — both allocate
    /// on miss), running the MESI coherence protocol against the other
    /// cores' private caches:
    ///
    /// * a store that hits a `Shared` line issues an RFO upgrade —
    ///   invalidating every remote copy — before writing (`S → M`);
    /// * a load that misses privately but snoop-hits a remote `Modified`
    ///   copy is forwarded cross-core ([`Latencies::snoop_hitm`]) and
    ///   downgrades the remote copy (`M → S`);
    /// * a store that misses privately invalidates all remote copies
    ///   (read-for-ownership) and fills `Modified`.
    ///
    /// With one core every snoop loop is empty, so the behaviour — hit
    /// levels, latencies, replacement updates, C-Box counts — is
    /// bit-identical to the historical single-core hierarchy.
    ///
    /// # Errors
    ///
    /// Returns [`CoreOutOfRange`] when `core >= n_cores` — an out-of-range
    /// index must not panic in release builds.
    #[inline]
    pub fn access_from(
        &mut self,
        core: usize,
        paddr: u64,
        is_write: bool,
    ) -> Result<MemAccessResult, CoreOutOfRange> {
        // The L1 lookup runs exactly once per access; its hit state feeds
        // the two provable-no-op early returns without a second tag probe:
        //
        // * a read hit — the DCU prefetcher ignores hits, reads trigger no
        //   coherence transition, and no prefetch was generated;
        // * a write hit on an already-Modified line — no upgrade, no
        //   snoop, no prefetch.
        //
        // Everything else takes the outlined general path, keeping this
        // wrapper small enough to inline into the engine's fused load.
        let l1 = match self.cores.get_mut(core) {
            Some(c) => &mut c.l1,
            None => return Err(self.core_out_of_range(core)),
        };
        let l1_state = l1.access_with_state(paddr);
        if let Some(state) = l1_state {
            if !is_write || state == LineState::Modified {
                return Ok(MemAccessResult {
                    level: HitLevel::L1,
                    latency: self.config.latencies.l1,
                    slice: None,
                    snoop: SnoopResult::Miss,
                    invalidated: 0,
                });
            }
        }
        let res = self.access_from_after_l1(core, paddr, is_write, l1_state.is_some());
        #[cfg(debug_assertions)]
        self.assert_line_invariants(paddr);
        Ok(res)
    }

    #[cold]
    fn core_out_of_range(&self, core: usize) -> CoreOutOfRange {
        CoreOutOfRange {
            core,
            n_cores: self.cores.len(),
        }
    }

    /// Panics (debug builds only) if the line's coherence invariants do
    /// not hold; the mutation tests disarm this via
    /// [`CacheHierarchy::set_invariant_monitor`].
    #[cfg(debug_assertions)]
    fn assert_line_invariants(&self, paddr: u64) {
        if self.monitor {
            if let Err(v) = self.check_line_invariants(paddr) {
                panic!("coherence invariant violated after access: {v}");
            }
        }
    }

    /// Continuation of [`CacheHierarchy::access_from`] after the L1 lookup
    /// (which already updated replacement state and hit/miss counters):
    /// prefetcher observation, coherence, and the L2/L3/memory walk.
    fn access_from_after_l1(
        &mut self,
        core: usize,
        paddr: u64,
        is_write: bool,
        l1_hit: bool,
    ) -> MemAccessResult {
        let lat = self.config.latencies;
        let l1_pref = self.cores[core]
            .prefetchers
            .observe_l1_access(paddr, l1_hit);
        if l1_hit {
            let (latency, snoop, invalidated) = self.private_hit(core, paddr, is_write, lat.l1);
            self.apply_prefetches(core, l1_pref.into_l1, l1_pref.into_l2);
            return MemAccessResult {
                level: HitLevel::L1,
                latency,
                slice: None,
                snoop,
                invalidated,
            };
        }
        let l2_hit = self.cores[core].l2.access(paddr);
        let l2_pref = self.cores[core]
            .prefetchers
            .observe_l2_access(paddr, l2_hit);
        if l2_hit {
            let state = self.cores[core].l2.state_of(paddr);
            self.cores[core].l1.fill_with_state(paddr, state);
            let (latency, snoop, invalidated) = self.private_hit(core, paddr, is_write, lat.l2);
            self.apply_prefetches(core, l1_pref.into_l1, l2_pref.into_l2);
            return MemAccessResult {
                level: HitLevel::L2,
                latency,
                slice: None,
                snoop,
                invalidated,
            };
        }
        let slice = self.hash.slice_of(paddr);
        self.uncore_lookups[slice] += 1;
        self.uncore_total += 1;
        let l3_hit = self.l3[slice].access(paddr);
        if l3_hit {
            // The L3 is inclusive, so remote copies can exist only here.
            let (snoop, invalidated) = self.snoop_remote(core, paddr, is_write, slice);
            let fill_state = if is_write {
                LineState::Modified
            } else if snoop == SnoopResult::Miss {
                LineState::Exclusive
            } else {
                LineState::Shared
            };
            self.cores[core].l2.fill_with_state(paddr, fill_state);
            self.cores[core].l1.fill_with_state(paddr, fill_state);
            self.apply_prefetches(core, l1_pref.into_l1, l2_pref.into_l2);
            let latency = if snoop == SnoopResult::HitM {
                lat.snoop_hitm
            } else {
                lat.l3
            };
            return MemAccessResult {
                level: HitLevel::L3,
                latency,
                slice: Some(slice),
                snoop,
                invalidated,
            };
        }
        self.fill_l3(paddr);
        let fill_state = if is_write {
            LineState::Modified
        } else {
            LineState::Exclusive
        };
        self.cores[core].l2.fill_with_state(paddr, fill_state);
        self.cores[core].l1.fill_with_state(paddr, fill_state);
        self.apply_prefetches(core, l1_pref.into_l1, l2_pref.into_l2);
        MemAccessResult {
            level: HitLevel::Memory,
            latency: lat.mem,
            slice: Some(slice),
            snoop: SnoopResult::Miss,
            invalidated: 0,
        }
    }

    /// Coherence work for an access that hit in `core`'s private caches.
    /// Reads cost nothing extra; writes upgrade `E → M` silently and
    /// `S → M` via an RFO through the line's C-Box that invalidates every
    /// remote copy. Returns `(latency, snoop, invalidated)`.
    fn private_hit(
        &mut self,
        core: usize,
        paddr: u64,
        is_write: bool,
        base_latency: u64,
    ) -> (u64, SnoopResult, u8) {
        if !is_write {
            return (base_latency, SnoopResult::Miss, 0);
        }
        match self.cores[core].state_of(paddr) {
            LineState::Shared => {
                // RFO upgrade: the request goes through the uncore even if
                // no other core still holds a copy.
                let slice = self.hash.slice_of(paddr);
                self.uncore_lookups[slice] += 1;
                self.uncore_total += 1;
                let (snoop, invalidated) = self.snoop_remote(core, paddr, true, slice);
                self.cores[core].set_state(paddr, LineState::Modified);
                (self.config.latencies.l3, snoop, invalidated)
            }
            LineState::Exclusive => {
                self.cores[core].set_state(paddr, LineState::Modified);
                (base_latency, SnoopResult::Miss, 0)
            }
            _ => (base_latency, SnoopResult::Miss, 0),
        }
    }

    /// Snoops every core other than `core` for the line. On a write all
    /// remote copies are invalidated; on a read a remote `Modified` copy
    /// is downgraded to `Shared` (and any remote `Exclusive` copy too,
    /// since the requester now shares the line). Returns the strongest
    /// snoop outcome and the number of invalidated remote copies.
    fn snoop_remote(
        &mut self,
        core: usize,
        paddr: u64,
        is_write: bool,
        slice: usize,
    ) -> (SnoopResult, u8) {
        let mut snoop = SnoopResult::Miss;
        let mut invalidated = 0u8;
        let mutation = self.mutation;
        for (i, remote) in self.cores.iter_mut().enumerate() {
            if i == core {
                continue;
            }
            let state = remote.state_of(paddr);
            if state == LineState::Invalid {
                continue;
            }
            let dirty = state == LineState::Modified
                && mutation != Some(ProtocolMutation::StaleDataForward);
            snoop = snoop.max(if dirty {
                SnoopResult::HitM
            } else {
                SnoopResult::Hit
            });
            if is_write {
                if mutation != Some(ProtocolMutation::DropRfoInvalidate) {
                    remote.invalidate(paddr);
                    invalidated += 1;
                }
            } else if state != LineState::Modified
                || mutation != Some(ProtocolMutation::ForwardWithoutDowngrade)
            {
                remote.set_state(paddr, LineState::Shared);
            }
        }
        if snoop != SnoopResult::Miss {
            self.snoop_hits[slice] += 1;
        }
        self.invalidations += u64::from(invalidated);
        (snoop, invalidated)
    }

    /// Fills a block into the L3, back-invalidating every core's private
    /// caches if an inclusive eviction displaces a block.
    fn fill_l3(&mut self, paddr: u64) {
        let slice = self.hash.slice_of(paddr);
        if let Some(evicted) = self.l3[slice].fill(paddr) {
            if self.config.inclusive_l3 {
                self.back_invalidate(evicted);
                #[cfg(debug_assertions)]
                self.assert_line_invariants(evicted);
            }
        }
    }

    /// Back-invalidates every core's private copies of an inclusive L3
    /// victim. The seeded mutations corrupt exactly this step so the
    /// checkers can prove they would catch a real back-invalidation bug.
    fn back_invalidate(&mut self, paddr: u64) {
        match self.mutation {
            Some(ProtocolMutation::SkipBackInvalidation) => {}
            Some(ProtocolMutation::BreakInclusionOnEvict) => {
                for core in &mut self.cores {
                    core.l1.invalidate(paddr);
                }
            }
            _ => {
                for core in &mut self.cores {
                    core.invalidate(paddr);
                }
            }
        }
    }

    /// Whether any core *other than* `core` holds the line privately.
    fn remote_holder(&self, core: usize, paddr: u64) -> bool {
        self.cores
            .iter()
            .enumerate()
            .any(|(i, c)| i != core && c.state_of(paddr) != LineState::Invalid)
    }

    fn apply_prefetches(&mut self, core: usize, into_l1: Vec<u64>, into_l2: Vec<u64>) {
        for paddr in into_l2 {
            if !self.cores[core].l2.probe(paddr) {
                // A prefetch never forces a coherence transition: if some
                // other core holds the line it is simply dropped (as
                // hardware prefetchers do on snoop conflicts).
                if self.remote_holder(core, paddr) {
                    continue;
                }
                let slice = self.hash.slice_of(paddr);
                if !self.l3[slice].probe(paddr) {
                    self.uncore_lookups[slice] += 1;
                    self.uncore_total += 1;
                    self.fill_l3(paddr);
                }
                self.cores[core].l2.fill(paddr);
            }
        }
        for paddr in into_l1 {
            if !self.cores[core].l1.probe(paddr) {
                if !self.cores[core].l2.probe(paddr) {
                    if self.remote_holder(core, paddr) {
                        continue;
                    }
                    let slice = self.hash.slice_of(paddr);
                    if !self.l3[slice].probe(paddr) {
                        self.uncore_lookups[slice] += 1;
                        self.uncore_total += 1;
                        self.fill_l3(paddr);
                    }
                    self.cores[core].l2.fill(paddr);
                }
                let state = self.cores[core].l2.state_of(paddr);
                self.cores[core].l1.fill_with_state(paddr, state);
            }
        }
    }

    /// `WBINVD`: writes back and invalidates all caches — every core's
    /// private levels and the shared L3 (§VI-C).
    pub fn wbinvd(&mut self) {
        for core in &mut self.cores {
            core.l1.flush_all();
            core.l2.flush_all();
            core.prefetchers.reset_streams();
        }
        for slice in &mut self.l3 {
            slice.flush_all();
        }
    }

    /// `CLFLUSH`: invalidates one line from every level of every core.
    pub fn clflush(&mut self, paddr: u64) {
        if self.mutation != Some(ProtocolMutation::SkipBackInvalidation) {
            for core in &mut self.cores {
                core.invalidate(paddr);
            }
        }
        let slice = self.hash.slice_of(paddr);
        self.l3[slice].invalidate(paddr);
        #[cfg(debug_assertions)]
        self.assert_line_invariants(paddr);
    }

    /// Non-destructive probe: the level that would serve a core-0 access.
    pub fn probe_level(&self, paddr: u64) -> HitLevel {
        self.probe_level_from(0, paddr)
            .expect("core 0 always exists")
    }

    /// Non-destructive probe: the level that would serve an access by
    /// `core` now.
    ///
    /// # Errors
    ///
    /// Returns [`CoreOutOfRange`] when `core >= n_cores`.
    pub fn probe_level_from(&self, core: usize, paddr: u64) -> Result<HitLevel, CoreOutOfRange> {
        let c = self
            .cores
            .get(core)
            .ok_or_else(|| self.core_out_of_range(core))?;
        Ok(if c.l1.probe(paddr) {
            HitLevel::L1
        } else if c.l2.probe(paddr) {
            HitLevel::L2
        } else if self.l3[self.hash.slice_of(paddr)].probe(paddr) {
            HitLevel::L3
        } else {
            HitLevel::Memory
        })
    }

    /// The strongest MESI state `core` holds the line in (`Invalid` when
    /// its private caches do not hold it).
    ///
    /// # Errors
    ///
    /// Returns [`CoreOutOfRange`] when `core >= n_cores`.
    pub fn line_state(&self, core: usize, paddr: u64) -> Result<LineState, CoreOutOfRange> {
        self.cores
            .get(core)
            .map(|c| c.state_of(paddr))
            .ok_or_else(|| self.core_out_of_range(core))
    }

    /// Checks the coherence invariants for one line across every core:
    /// single-writer-multiple-reader (`M` on one core ⇒ `I` everywhere
    /// else), `E` uniqueness, and L3 inclusion (a private copy ⇒ the line
    /// is present in the inclusive L3). Returns the first violation found.
    pub fn check_line_invariants(&self, paddr: u64) -> Result<(), CoherenceViolation> {
        let mut holder: Option<(usize, LineState)> = None;
        for (i, c) in self.cores.iter().enumerate() {
            let state = c.state_of(paddr);
            if state == LineState::Invalid {
                continue;
            }
            if self.config.inclusive_l3 && !self.l3[self.hash.slice_of(paddr)].probe(paddr) {
                return Err(CoherenceViolation::InclusionHole {
                    paddr,
                    core: i,
                    state,
                });
            }
            if let Some((prev, prev_state)) = holder {
                // Two cores hold the line: neither copy may claim
                // exclusive ownership.
                if prev_state == LineState::Modified || state == LineState::Modified {
                    let (owner, other, other_state) = if prev_state == LineState::Modified {
                        (prev, i, state)
                    } else {
                        (i, prev, prev_state)
                    };
                    return Err(CoherenceViolation::MultipleOwners {
                        paddr,
                        owner,
                        other,
                        other_state,
                    });
                }
                if prev_state == LineState::Exclusive || state == LineState::Exclusive {
                    let (owner, other) = if prev_state == LineState::Exclusive {
                        (prev, i)
                    } else {
                        (i, prev)
                    };
                    return Err(CoherenceViolation::SharedExclusive {
                        paddr,
                        owner,
                        other,
                    });
                }
            }
            holder = Some((i, state));
        }
        Ok(())
    }

    /// Full-hierarchy protocol audit: sweeps every valid line in every
    /// core's private caches and checks [`check_line_invariants`] for
    /// each. O(total private ways) — meant for checkpoints and the
    /// `nbverify` sweeps, not the per-access hot path (which asserts the
    /// touched line only, under `debug_assertions`).
    ///
    /// [`check_line_invariants`]: CacheHierarchy::check_line_invariants
    pub fn check_invariants(&self) -> Result<(), CoherenceViolation> {
        for c in &self.cores {
            for (paddr, _) in c.l1.valid_lines().chain(c.l2.valid_lines()) {
                self.check_line_invariants(paddr)?;
            }
        }
        Ok(())
    }

    /// Seeds (or clears) a protocol corruption for mutation testing. The
    /// faithful protocol is `None`; see [`ProtocolMutation`].
    pub fn seed_protocol_mutation(&mut self, mutation: Option<ProtocolMutation>) {
        self.mutation = mutation;
    }

    /// Arms or disarms the per-access invariant assert that runs under
    /// `debug_assertions`. On by default; mutation tests disarm it so a
    /// seeded corruption can be observed through
    /// [`CacheHierarchy::check_invariants`] instead of aborting the test.
    pub fn set_invariant_monitor(&mut self, on: bool) {
        self.monitor = on;
    }

    /// Conformance hook: drops `paddr` from `core`'s L1, exactly as a
    /// capacity eviction that chose this line as victim would (the L2 and
    /// L3 copies are untouched). Returns whether the line was present.
    ///
    /// # Errors
    ///
    /// Returns [`CoreOutOfRange`] when `core >= n_cores`.
    pub fn force_evict_l1(&mut self, core: usize, paddr: u64) -> Result<bool, CoreOutOfRange> {
        if core >= self.cores.len() {
            return Err(self.core_out_of_range(core));
        }
        Ok(self.cores[core].l1.invalidate(paddr))
    }

    /// Conformance hook: drops `paddr` from `core`'s L2 (a capacity
    /// eviction victim); any L1 copy survives, as the non-inclusive
    /// private levels allow. Returns whether the line was present.
    ///
    /// # Errors
    ///
    /// Returns [`CoreOutOfRange`] when `core >= n_cores`.
    pub fn force_evict_l2(&mut self, core: usize, paddr: u64) -> Result<bool, CoreOutOfRange> {
        if core >= self.cores.len() {
            return Err(self.core_out_of_range(core));
        }
        Ok(self.cores[core].l2.invalidate(paddr))
    }

    /// Conformance hook: evicts `paddr` from the L3 as a capacity victim,
    /// running the same inclusive back-invalidation as an organic
    /// conflict eviction. Returns whether the line was present in the L3.
    pub fn force_evict_l3(&mut self, paddr: u64) -> bool {
        let slice = self.hash.slice_of(paddr);
        let present = self.l3[slice].invalidate(paddr);
        if present && self.config.inclusive_l3 {
            self.back_invalidate(paddr);
            #[cfg(debug_assertions)]
            self.assert_line_invariants(paddr);
        }
        present
    }

    /// Core 0's prefetcher bank (MSR 0x1A4 is routed here by the machine).
    pub fn prefetchers_mut(&mut self) -> &mut Prefetchers {
        &mut self.cores[0].prefetchers
    }

    /// Read-only access to core 0's prefetcher bank.
    pub fn prefetchers(&self) -> &Prefetchers {
        &self.cores[0].prefetchers
    }

    /// Core `core`'s prefetcher bank.
    pub fn prefetchers_of_mut(&mut self, core: usize) -> &mut Prefetchers {
        &mut self.cores[core].prefetchers
    }

    /// Per-slice C-Box lookup counts (uncore counters, §II-B). Counts
    /// traffic from *all* cores, as the package-wide C-Box counters do.
    pub fn uncore_lookups(&self) -> &[u64] {
        &self.uncore_lookups
    }

    /// Total C-Box lookups across all slices. Monotonic between stat
    /// resets; cheap to poll, so per-access drains can skip reading the
    /// per-slice counts when nothing new happened.
    pub fn uncore_total(&self) -> u64 {
        self.uncore_total
    }

    /// Per-slice snoops that found the line in another core's private
    /// caches (clean or modified).
    pub fn snoop_hits(&self) -> &[u64] {
        &self.snoop_hits
    }

    /// Total remote copies invalidated by stores (cross-core traffic).
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Core 0's L1 statistics.
    pub fn l1_stats(&self) -> CacheStats {
        self.cores[0].l1.stats()
    }

    /// Core 0's L2 statistics.
    pub fn l2_stats(&self) -> CacheStats {
        self.cores[0].l2.stats()
    }

    /// Core `core`'s L1 statistics.
    pub fn l1_stats_of(&self, core: usize) -> CacheStats {
        self.cores[core].l1.stats()
    }

    /// Core `core`'s L2 statistics.
    pub fn l2_stats_of(&self, core: usize) -> CacheStats {
        self.cores[core].l2.stats()
    }

    /// Sets rewound after a reset, summed over every core's L1 and L2 and
    /// every L3 slice ([`Cache::sets_reset`]): the exact work resets have
    /// caused since construction. Cumulative; reads never add to it.
    pub fn sets_reset(&self) -> u64 {
        self.caches().map(Cache::sets_reset).sum()
    }

    /// Every cache of the hierarchy, read-only: each core's L1 and L2 in
    /// core order, then the L3 slices.
    pub fn caches(&self) -> impl Iterator<Item = &Cache> + '_ {
        self.cores
            .iter()
            .flat_map(|c| [&c.l1, &c.l2])
            .chain(&self.l3)
    }

    /// Combined L3 statistics across slices.
    pub fn l3_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for slice in &self.l3 {
            let s = slice.stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
        }
        total
    }

    /// Restores the hierarchy to the state [`CacheHierarchy::new`] built
    /// for `seed`, without dropping any set/tag allocations: empties every
    /// level, rewinds per-set policy state (including probabilistic
    /// policies' random streams), recentres the PSEL counter, re-enables
    /// the prefetchers and clears their streams, and zeroes statistics and
    /// uncore counters. Pass the seed the hierarchy was built with to
    /// replay bit-identically, or a different one to restart it as if
    /// freshly built with that seed.
    ///
    /// The cost does not grow with cache size: each cache only starts a
    /// new epoch ([`Cache::reset_seeded`]). Its sets go stale — probes,
    /// state reads, snoops and the coherence audit see them as empty —
    /// and each is rewound on the first access or fill that lands in it
    /// ([`CacheHierarchy::sets_reset`] counts those rewinds).
    pub fn reset(&mut self, seed: u64) {
        for (i, core) in self.cores.iter_mut().enumerate() {
            core.l1.reset_seeded(seed ^ 0x11 ^ core_salt(i));
            core.l2.reset_seeded(seed ^ 0x22 ^ core_salt(i));
            core.prefetchers.reset();
        }
        for (slice, cache) in self.l3.iter_mut().enumerate() {
            cache.reset_seeded(slice_seed(seed, slice));
        }
        self.psel.reset();
        self.uncore_lookups.fill(0);
        self.uncore_total = 0;
        self.snoop_hits.fill(0);
        self.invalidations = 0;
    }

    /// Resets all statistics (contents are untouched).
    pub fn reset_stats(&mut self) {
        for core in &mut self.cores {
            core.l1.reset_stats();
            core.l2.reset_stats();
        }
        for slice in &mut self.l3 {
            slice.reset_stats();
        }
        self.uncore_lookups.fill(0);
        self.uncore_total = 0;
        self.snoop_hits.fill(0);
        self.invalidations = 0;
    }

    /// The (slice, set) an address maps to in the L3.
    pub fn l3_location(&self, paddr: u64) -> (usize, usize) {
        let slice = self.hash.slice_of(paddr);
        (slice, self.l3[slice].set_index(paddr))
    }

    /// The L1 set index of an address (same geometry on every core).
    pub fn l1_set(&self, paddr: u64) -> usize {
        self.cores[0].l1.set_index(paddr)
    }

    /// The L2 set index of an address (same geometry on every core).
    pub fn l2_set(&self, paddr: u64) -> usize {
        self.cores[0].l2.set_index(paddr)
    }

    /// The PSEL counter (exposed for the set-dueling experiments).
    pub fn psel(&self) -> &Arc<PselCounter> {
        &self.psel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> HierarchyConfig {
        HierarchyConfig {
            l1: CacheConfig {
                size_bytes: 4 * 1024, // 8 sets x 8 ways
                assoc: 8,
                policy: PolicyKind::Plru,
            },
            l2: CacheConfig {
                size_bytes: 32 * 1024,
                assoc: 8,
                policy: PolicyKind::Plru,
            },
            l3: L3Config {
                size_bytes: 256 * 1024,
                assoc: 16,
                slices: 2,
                policy: L3PolicyConfig::Uniform(PolicyKind::Qlru(
                    crate::policy::QlruVariant::parse("QLRU_H11_M1_R0_U0").unwrap(),
                )),
            },
            latencies: Latencies::default(),
            inclusive_l3: true,
        }
    }

    #[test]
    fn try_new_multi_returns_errors_instead_of_panicking() {
        let mut plru_l3 = small_config();
        plru_l3.l3 = L3Config {
            size_bytes: 2 * 64 * 12 * 64, // 2 slices x 64 sets x 12 ways
            assoc: 12,
            slices: 2,
            policy: L3PolicyConfig::Uniform(PolicyKind::Plru),
        };
        let mut wide_l1 = small_config();
        wide_l1.l1.size_bytes = 32 * 1024;
        wide_l1.l1.assoc = 80;
        let mut zero_way_l2 = small_config();
        zero_way_l2.l2.assoc = 0;
        for (config, level) in [(plru_l3, "L3"), (wide_l1, "L1"), (zero_way_l2, "L2")] {
            match CacheHierarchy::try_new_multi(&config, 0, 1) {
                Err(HierarchyError::Level { level: got, .. }) => assert_eq!(got, level),
                other => panic!("expected an invalid {level}, got {other:?}"),
            }
        }
    }

    #[test]
    fn miss_then_hits_walk_down_the_hierarchy() {
        let mut h = CacheHierarchy::new(&small_config(), 1);
        h.prefetchers_mut().disable_all();
        let r = h.access(0x1000);
        assert_eq!(r.level, HitLevel::Memory);
        assert_eq!(r.latency, 200);
        let r = h.access(0x1000);
        assert_eq!(r.level, HitLevel::L1);
        assert_eq!(r.latency, 4);
        // Evict from L1 by filling its set (same L1 set: stride 8*64=512B;
        // L1 has 8 sets -> same-set stride 512).
        for i in 1..=8u64 {
            h.access(0x1000 + i * 512);
        }
        let r = h.access(0x1000);
        assert!(
            matches!(r.level, HitLevel::L2 | HitLevel::L3),
            "after L1 eviction the block must still be in an outer level, got {:?}",
            r.level
        );
    }

    #[test]
    fn wbinvd_empties_everything() {
        let mut h = CacheHierarchy::new(&small_config(), 1);
        h.prefetchers_mut().disable_all();
        h.access(0x4000);
        assert_eq!(h.probe_level(0x4000), HitLevel::L1);
        h.wbinvd();
        assert_eq!(h.probe_level(0x4000), HitLevel::Memory);
    }

    #[test]
    fn clflush_removes_single_line() {
        let mut h = CacheHierarchy::new(&small_config(), 1);
        h.prefetchers_mut().disable_all();
        h.access(0x4000);
        h.access(0x8000);
        h.clflush(0x4000);
        assert_eq!(h.probe_level(0x4000), HitLevel::Memory);
        assert_eq!(h.probe_level(0x8000), HitLevel::L1);
    }

    #[test]
    fn inclusive_l3_back_invalidates() {
        let mut cfg = small_config();
        // Tiny L3 so we can evict from it easily: 2 slices x 64 sets x 2 ways.
        cfg.l3 = L3Config {
            size_bytes: 2 * 64 * 2 * 64,
            assoc: 2,
            slices: 2,
            policy: L3PolicyConfig::Uniform(PolicyKind::Lru),
        };
        let mut h = CacheHierarchy::new(&cfg, 1);
        h.prefetchers_mut().disable_all();
        h.access(0x0);
        // Generate many conflicting L3 lines until 0x0 is back-invalidated.
        let (slice0, set0) = h.l3_location(0x0);
        let mut conflicts = 0;
        let mut addr = 0x0u64;
        while conflicts < 8 {
            addr += 64 * 64; // same L3 set index (64 sets per slice)
            if h.l3_location(addr) == (slice0, set0) {
                h.access(addr);
                conflicts += 1;
            }
        }
        assert_eq!(
            h.probe_level(0x0),
            HitLevel::Memory,
            "inclusive eviction must remove the block from L1/L2 too"
        );
    }

    #[test]
    fn uncore_lookups_count_l3_traffic() {
        let mut h = CacheHierarchy::new(&small_config(), 1);
        h.prefetchers_mut().disable_all();
        h.access(0x100000);
        let total: u64 = h.uncore_lookups().iter().sum();
        assert_eq!(total, 1);
        h.access(0x100000); // L1 hit; no L3 lookup
        let total: u64 = h.uncore_lookups().iter().sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn prefetcher_perturbs_measurements() {
        // With prefetchers on, a sequential scan takes fewer memory-level
        // hits than with them off — the reason §IV-A2 recommends disabling
        // them for cache benchmarks.
        let count_mem = |disable: bool| {
            let mut h = CacheHierarchy::new(&small_config(), 1);
            if disable {
                h.prefetchers_mut().disable_all();
            }
            (0..32u64)
                .filter(|i| h.access(i * 64).level == HitLevel::Memory)
                .count()
        };
        assert!(count_mem(false) < count_mem(true));
    }
}
