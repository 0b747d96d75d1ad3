//! A single set-associative cache.

use crate::hierarchy::SetRole;
use crate::policy::{PolicyKind, PolicySlot};
use std::sync::atomic::{AtomicI32, Ordering};
use std::sync::Arc;

/// Cache line size in bytes (64 on all CPUs in Table I).
pub const LINE_SIZE: u64 = 64;

/// Seed salt separating a dueling set's policy-B random stream from its
/// policy-A stream ([`DuelingSet::try_new`] and [`DuelingSet::reset`]
/// derive it identically, so a reset replays construction).
pub(crate) const POLICY_B_SEED_SALT: u64 = 0xB00B;

/// How a cache derives set `set`'s policy seed from its cache seed. The
/// cache keeps the rule, so a set rewound lazily after a reset replays the
/// random stream construction gave it.
pub type SetSeedFn = fn(u64, usize) -> u64;

/// Per-set seed derivation used by [`Cache::new`].
fn derive_set_seed(cache_seed: u64, set: usize) -> u64 {
    cache_seed ^ (set as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Geometry and policy of a single cache level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Replacement policy.
    pub policy: PolicyKind,
}

impl CacheConfig {
    /// Number of sets (`size / (assoc * 64)`).
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (zero or non-power-of-two
    /// set count).
    pub fn num_sets(&self) -> usize {
        let sets = self.size_bytes / (self.assoc as u64 * LINE_SIZE);
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "set count must be a power of two"
        );
        sets as usize
    }
}

/// MESI coherence state of a cached line (§VI context: the shared L3 is
/// contended by several cores; private L1/L2 copies carry these states).
///
/// `Invalid` is represented by the line's absence; [`Cache::state_of`]
/// returns it for lines that are not present.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LineState {
    /// Not present.
    Invalid,
    /// Present in exactly one core's private caches, clean.
    Exclusive,
    /// Present in one or more cores' private caches, clean.
    Shared,
    /// Present in exactly one core's private caches, dirty.
    Modified,
}

impl LineState {
    /// One-letter MESI name (`M`/`E`/`S`/`I`), used by the golden traces.
    pub fn letter(self) -> char {
        match self {
            LineState::Modified => 'M',
            LineState::Exclusive => 'E',
            LineState::Shared => 'S',
            LineState::Invalid => 'I',
        }
    }
}

/// Aggregate hit/miss statistics for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
    /// Number of valid lines evicted by fills.
    pub evictions: u64,
}

/// Upper bound on associativity, so occupancy snapshots fit in a stack
/// buffer — the access path must not heap-allocate (it runs once per
/// simulated load/store).
pub const MAX_ASSOC: usize = 64;

/// Sentinel marking an empty way in the packed tag arena. No reachable
/// physical address produces this block number (it would need a paddr of
/// `u64::MAX * 64`).
const TAG_INVALID: u64 = u64::MAX;

/// Decodes a packed 2-bit MESI value (the `LineState` declaration order).
#[inline]
fn state_from_bits(bits: u8) -> LineState {
    match bits {
        0 => LineState::Invalid,
        1 => LineState::Exclusive,
        2 => LineState::Shared,
        _ => LineState::Modified,
    }
}

/// Shared policy-selector state for set dueling (§VI-B3).
///
/// Leader sets increment/decrement the counter on misses; follower sets
/// consult [`PselCounter::use_policy_b`].
#[derive(Debug, Default)]
pub struct PselCounter(AtomicI32);

/// Saturation bound of the 10-bit PSEL counter.
const PSEL_MAX: i32 = 1023;
/// Initial / threshold value.
const PSEL_MID: i32 = 512;

impl PselCounter {
    /// Creates a counter at the midpoint.
    pub fn new() -> Arc<PselCounter> {
        Arc::new(PselCounter(AtomicI32::new(PSEL_MID)))
    }

    /// Records a miss in a leader set of policy A (pushes toward B).
    pub fn miss_in_a(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some((v + 1).min(PSEL_MAX))
            });
    }

    /// Records a miss in a leader set of policy B (pushes toward A).
    pub fn miss_in_b(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some((v - 1).max(0))
            });
    }

    /// Whether follower sets should currently use policy B.
    pub fn use_policy_b(&self) -> bool {
        self.0.load(Ordering::Relaxed) > PSEL_MID
    }

    /// Raw counter value (for tests and debugging).
    pub fn value(&self) -> i32 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets the counter to the midpoint.
    pub fn reset(&self) {
        self.0.store(PSEL_MID, Ordering::Relaxed);
    }
}

/// The per-set state of a set-dueling L3 set (§VI-B3): its role, the
/// policy state that role needs, and the PSEL counter every set of the
/// cache shares. Leader sets run one policy and report their misses to the
/// counter; follower sets hold state for both policies and route each
/// decision to whichever one the counter currently favours (the inactive
/// policy's state freezes, like hardware reinterpreting the same status
/// bits).
#[derive(Debug, Clone)]
pub struct DuelingSet {
    role: DuelingRole,
    psel: Arc<PselCounter>,
    /// Whether any held policy reads the occupancy on hits (fixed for the
    /// set's lifetime, and the cache asks on every hit).
    wants_occupied: bool,
}

/// A [`SetRole`] together with the policy state it needs.
#[derive(Debug, Clone)]
enum DuelingRole {
    LeaderA(PolicySlot),
    LeaderB(PolicySlot),
    Follower { a: PolicySlot, b: PolicySlot },
}

impl DuelingSet {
    /// Builds the slot of a set with `role`: policy A seeded with `seed`
    /// and policy B with `seed ^ POLICY_B_SEED_SALT`, each instantiated
    /// only where the role runs it.
    ///
    /// # Errors
    ///
    /// Returns the error of [`PolicyKind::try_instantiate`].
    pub fn try_new(
        role: SetRole,
        policy_a: &PolicyKind,
        policy_b: &PolicyKind,
        assoc: usize,
        seed: u64,
        psel: &Arc<PselCounter>,
    ) -> Result<PolicySlot, String> {
        let a = || policy_a.try_instantiate(assoc, seed);
        let b = || policy_b.try_instantiate(assoc, seed ^ POLICY_B_SEED_SALT);
        let role = match role {
            SetRole::LeaderA => DuelingRole::LeaderA(a()?),
            SetRole::LeaderB => DuelingRole::LeaderB(b()?),
            SetRole::Follower => DuelingRole::Follower { a: a()?, b: b()? },
        };
        let wants_occupied = match &role {
            DuelingRole::LeaderA(p) | DuelingRole::LeaderB(p) => p.wants_occupied_on_hit(),
            DuelingRole::Follower { a, b } => {
                a.wants_occupied_on_hit() || b.wants_occupied_on_hit()
            }
        };
        Ok(PolicySlot::Dueling(Box::new(DuelingSet {
            role,
            psel: Arc::clone(psel),
            wants_occupied,
        })))
    }

    /// The policy that decides the set's next hit or miss.
    #[inline]
    fn active(&mut self) -> &mut PolicySlot {
        match &mut self.role {
            DuelingRole::LeaderA(p) | DuelingRole::LeaderB(p) => p,
            DuelingRole::Follower { a, b } => {
                if self.psel.use_policy_b() {
                    b
                } else {
                    a
                }
            }
        }
    }

    #[inline]
    pub(crate) fn on_hit(&mut self, way: usize, occupied: &[bool]) {
        self.active().on_hit(way, occupied);
    }

    #[inline]
    pub(crate) fn wants_occupied_on_hit(&self) -> bool {
        self.wants_occupied
    }

    #[inline]
    pub(crate) fn on_miss(&mut self, occupied: &[bool]) -> usize {
        match self.role {
            DuelingRole::LeaderA(_) => self.psel.miss_in_a(),
            DuelingRole::LeaderB(_) => self.psel.miss_in_b(),
            DuelingRole::Follower { .. } => {}
        }
        self.active().on_miss(occupied)
    }

    pub(crate) fn on_invalidate(&mut self, way: usize) {
        match &mut self.role {
            DuelingRole::LeaderA(p) | DuelingRole::LeaderB(p) => p.on_invalidate(way),
            DuelingRole::Follower { a, b } => {
                a.on_invalidate(way);
                b.on_invalidate(way);
            }
        }
    }

    pub(crate) fn on_flush(&mut self) {
        match &mut self.role {
            DuelingRole::LeaderA(p) | DuelingRole::LeaderB(p) => p.on_flush(),
            DuelingRole::Follower { a, b } => {
                a.on_flush();
                b.on_flush();
            }
        }
    }

    /// Rewinds the held policies to their state after
    /// [`DuelingSet::try_new`] with `seed`.
    pub(crate) fn reset(&mut self, seed: u64) {
        match &mut self.role {
            DuelingRole::LeaderA(a) => a.reset(seed),
            DuelingRole::LeaderB(b) => b.reset(seed ^ POLICY_B_SEED_SALT),
            DuelingRole::Follower { a, b } => {
                a.reset(seed);
                b.reset(seed ^ POLICY_B_SEED_SALT);
            }
        }
    }
}

/// Per-set bookkeeping, kept together so the stale-set check reads the
/// same word as the MRU probe that follows it.
#[derive(Debug, Clone, Copy, Default)]
struct SetHead {
    /// The reset epoch the set was last brought up to date in; a set
    /// whose epoch is not the cache's is logically empty.
    epoch: u32,
    /// Most-recently-hit (or filled) way, probed before the scan.
    mru: u8,
}

/// A single set-associative cache level (or one L3 slice).
///
/// Storage is struct-of-arrays: one contiguous tag arena and one packed
/// 2-bit MESI arena for the whole cache, indexed `set * assoc + way`, so
/// the per-access probe walks one dense cache-line-friendly span instead
/// of chasing per-set `Vec` allocations.
///
/// A reset is O(1): it starts a new epoch, which makes every set stale.
/// Readers see a stale set as empty and leave it alone; the first access
/// or fill that lands in it rewinds it (empties its ways, reseeds its
/// policy from the cache seed via the per-set seed rule) before going on.
#[derive(Debug, Clone)]
pub struct Cache {
    /// Block number per way ([`TAG_INVALID`] marks an empty way), indexed
    /// `set * assoc + way`.
    tags: Vec<u64>,
    /// MESI state per way, packed four 2-bit values per byte in the same
    /// `set * assoc + way` indexing; meaningful only where the tag is
    /// valid.
    states: Vec<u8>,
    heads: Vec<SetHead>,
    policies: Vec<PolicySlot>,
    assoc: usize,
    set_bits: u32,
    stats: CacheStats,
    /// The cache seed of the current epoch; `set_seed` derives each set's
    /// policy seed from it.
    seed: u64,
    set_seed: SetSeedFn,
    /// Bumped by every reset.
    epoch: u32,
    /// Sets rewound since construction (cumulative across resets).
    sets_reset: u64,
}

impl Cache {
    /// Builds a cache from a configuration; `seed` feeds probabilistic
    /// policies (each set derives its own stream).
    ///
    /// # Panics
    ///
    /// Panics where [`Cache::try_new`] returns an error.
    pub fn new(config: &CacheConfig, seed: u64) -> Cache {
        match Cache::try_new(config, seed) {
            Ok(cache) => cache,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible counterpart of [`Cache::new`], for configurations that
    /// come from external input.
    ///
    /// # Errors
    ///
    /// Returns the error of [`Cache::with_policies`] for the configured
    /// geometry and policy.
    pub fn try_new(config: &CacheConfig, seed: u64) -> Result<Cache, String> {
        let num_sets = config
            .size_bytes
            .checked_div(config.assoc as u64 * LINE_SIZE)
            .unwrap_or(0);
        Cache::with_policies(
            num_sets as usize,
            config.assoc,
            seed,
            derive_set_seed,
            |_, set_seed| config.policy.try_instantiate(config.assoc, set_seed),
        )
    }

    /// Builds a cache with a custom per-set policy factory (set dueling
    /// passes [`DuelingSet::try_new`], where leader and follower sets
    /// differ). `factory(set, set_seed(seed, set))` builds set `set`'s
    /// policy; a reset rewinds it with `set_seed` applied to the new
    /// cache seed, so the factory must seed the policy with the seed it
    /// is given.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint if `num_sets` is
    /// not a power of two or `assoc` is outside `1..=MAX_ASSOC`, or the
    /// first error `factory` returns.
    pub fn with_policies(
        num_sets: usize,
        assoc: usize,
        seed: u64,
        set_seed: SetSeedFn,
        mut factory: impl FnMut(usize, u64) -> Result<PolicySlot, String>,
    ) -> Result<Cache, String> {
        if !num_sets.is_power_of_two() {
            return Err(format!("set count must be a power of two, got {num_sets}"));
        }
        if !(1..=MAX_ASSOC).contains(&assoc) {
            return Err(format!(
                "associativity must be between 1 and {MAX_ASSOC}, got {assoc}"
            ));
        }
        // Sized up front: collecting the `Result`s would grow the vector by
        // doubling, copying every slot of an L3 slice several times.
        let mut policies = Vec::with_capacity(num_sets);
        for set in 0..num_sets {
            policies.push(factory(set, set_seed(seed, set))?);
        }
        let ways = num_sets * assoc;
        Ok(Cache {
            tags: vec![TAG_INVALID; ways],
            states: vec![0; ways.div_ceil(4)],
            heads: vec![SetHead::default(); num_sets],
            policies,
            assoc,
            set_bits: num_sets.trailing_zeros(),
            stats: CacheStats::default(),
            seed,
            set_seed,
            epoch: 0,
            sets_reset: 0,
        })
    }

    /// The MESI state packed at arena index `idx` (`set * assoc + way`).
    #[inline]
    fn state_at(&self, idx: usize) -> LineState {
        state_from_bits((self.states[idx >> 2] >> ((idx & 3) << 1)) & 0b11)
    }

    /// Overwrites the packed MESI state at arena index `idx`.
    #[inline]
    fn set_state_at(&mut self, idx: usize, state: LineState) {
        let shift = (idx & 3) << 1;
        let byte = &mut self.states[idx >> 2];
        *byte = (*byte & !(0b11 << shift)) | ((state as u8) << shift);
    }

    /// Whether `set` holds this epoch's contents (a stale set is logically
    /// empty until its first mutating access rewinds it).
    #[inline]
    fn is_current(&self, set: usize) -> bool {
        self.heads[set].epoch == self.epoch
    }

    /// Brings `set` up to date before a mutating access.
    #[inline]
    fn refresh(&mut self, set: usize) {
        if !self.is_current(set) {
            self.rewind(set);
        }
    }

    /// Restores `set` to its just-built state for the current epoch: no
    /// valid ways, MRU hint 0, and the policy reseeded exactly as
    /// construction seeded it for the current cache seed.
    #[cold]
    #[inline(never)]
    fn rewind(&mut self, set: usize) {
        let base = set * self.assoc;
        self.tags[base..base + self.assoc].fill(TAG_INVALID);
        for idx in base..base + self.assoc {
            self.set_state_at(idx, LineState::Invalid);
        }
        self.policies[set].reset((self.set_seed)(self.seed, set));
        self.heads[set] = SetHead {
            epoch: self.epoch,
            mru: 0,
        };
        self.sets_reset += 1;
    }

    /// Scans a current `set` for `block`, probing the most-recently-used
    /// way first (the probe is exact: a set never holds duplicate tags).
    #[inline]
    fn scan(&self, set: usize, block: u64) -> Option<usize> {
        let base = set * self.assoc;
        let mru = self.heads[set].mru as usize;
        if self.tags[base + mru] == block {
            return Some(mru);
        }
        self.tags[base..base + self.assoc]
            .iter()
            .position(|&t| t == block)
    }

    /// [`Cache::scan`] for readers: a stale set holds nothing.
    #[inline]
    fn find_way(&self, set: usize, block: u64) -> Option<usize> {
        if self.is_current(set) {
            self.scan(set, block)
        } else {
            None
        }
    }

    /// Writes the per-way occupancy of `set` into `buf` and returns the
    /// filled prefix (`..assoc`).
    #[inline]
    fn occupied<'a>(&self, set: usize, buf: &'a mut [bool; MAX_ASSOC]) -> &'a [bool] {
        let base = set * self.assoc;
        for (b, &t) in buf.iter_mut().zip(&self.tags[base..base + self.assoc]) {
            *b = t != TAG_INVALID;
        }
        &buf[..self.assoc]
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        1 << self.set_bits
    }

    /// Associativity.
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// The set index of a physical address.
    pub fn set_index(&self, paddr: u64) -> usize {
        ((paddr / LINE_SIZE) & ((1 << self.set_bits) - 1)) as usize
    }

    /// Looks up `paddr` without changing any state.
    pub fn probe(&self, paddr: u64) -> bool {
        let block = paddr / LINE_SIZE;
        self.find_way(self.set_index(paddr), block).is_some()
    }

    /// Performs a lookup, updating replacement state on a hit. Returns
    /// `true` on a hit. On a miss, no fill happens — the caller decides
    /// (this separation lets the hierarchy fill multiple levels coherently).
    #[inline]
    pub fn access(&mut self, paddr: u64) -> bool {
        self.access_with_state(paddr).is_some()
    }

    /// [`Cache::access`] that additionally returns the MESI state of the
    /// hit line (`None` on a miss): one tag probe serves both the hit
    /// decision and the state read, which the hierarchy's L1 fast path
    /// needs on every store hit.
    #[inline]
    pub fn access_with_state(&mut self, paddr: u64) -> Option<LineState> {
        self.access_block(self.set_index(paddr), paddr / LINE_SIZE)
    }

    /// [`Cache::access_with_state`] on a block number in `set`.
    #[inline]
    pub(crate) fn access_block(&mut self, set: usize, block: u64) -> Option<LineState> {
        self.refresh(set);
        if let Some(way) = self.scan(set, block) {
            if self.policies[set].wants_occupied_on_hit() {
                let mut occ = [false; MAX_ASSOC];
                self.occupied(set, &mut occ);
                self.policies[set].on_hit(way, &occ[..self.assoc]);
            } else {
                self.policies[set].on_hit(way, &[]);
            }
            self.heads[set].mru = way as u8;
            self.stats.hits += 1;
            Some(self.state_at(set * self.assoc + way))
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Inserts the line for `paddr` in the `Exclusive` state, returning
    /// the physical block address of the evicted line if a valid line was
    /// displaced.
    pub fn fill(&mut self, paddr: u64) -> Option<u64> {
        self.fill_with_state(paddr, LineState::Exclusive)
    }

    /// Inserts the line for `paddr` with an explicit MESI state (what the
    /// coherent hierarchy uses), returning the physical block address of
    /// the evicted line if a valid line was displaced. If the line is
    /// already present, only its state is updated.
    pub fn fill_with_state(&mut self, paddr: u64, state: LineState) -> Option<u64> {
        self.fill_block(self.set_index(paddr), paddr / LINE_SIZE, state)
            .map(|evicted| evicted * LINE_SIZE)
    }

    /// [`Cache::fill_with_state`] on a block number in `set`; returns the
    /// evicted block number.
    #[inline]
    pub(crate) fn fill_block(&mut self, set: usize, block: u64, state: LineState) -> Option<u64> {
        self.refresh(set);
        let base = set * self.assoc;
        if let Some(way) = self.scan(set, block) {
            self.set_state_at(base + way, state); // already present (e.g. racing prefetch)
            return None;
        }
        let mut occ = [false; MAX_ASSOC];
        self.occupied(set, &mut occ);
        let way = self.policies[set].on_miss(&occ[..self.assoc]);
        let evicted = self.tags[base + way];
        self.tags[base + way] = block;
        self.set_state_at(base + way, state);
        self.heads[set].mru = way as u8;
        if evicted == TAG_INVALID {
            None
        } else {
            self.stats.evictions += 1;
            Some(evicted)
        }
    }

    /// Whether block number `block` is cached in `set` (no state change).
    pub(crate) fn holds_block(&self, set: usize, block: u64) -> bool {
        self.find_way(set, block).is_some()
    }

    /// Renames the cached block `old` in `set` to `new`, leaving its way,
    /// state and replacement state untouched.
    pub(crate) fn retag(&mut self, set: usize, old: u64, new: u64) {
        if let Some(way) = self.find_way(set, old) {
            self.tags[set * self.assoc + way] = new;
        }
    }

    /// The MESI state of the line containing `paddr`; `Invalid` if absent.
    pub fn state_of(&self, paddr: u64) -> LineState {
        let block = paddr / LINE_SIZE;
        let set = self.set_index(paddr);
        self.find_way(set, block).map_or(LineState::Invalid, |way| {
            self.state_at(set * self.assoc + way)
        })
    }

    /// Sets the MESI state of the line containing `paddr`; returns whether
    /// the line was present (absent lines are left `Invalid`).
    pub fn set_state(&mut self, paddr: u64, state: LineState) -> bool {
        let block = paddr / LINE_SIZE;
        let set = self.set_index(paddr);
        match self.find_way(set, block) {
            Some(way) => {
                self.set_state_at(set * self.assoc + way, state);
                true
            }
            None => false,
        }
    }

    /// Invalidates the line containing `paddr` if present; returns whether
    /// it was present.
    pub fn invalidate(&mut self, paddr: u64) -> bool {
        let block = paddr / LINE_SIZE;
        let set = self.set_index(paddr);
        if let Some(way) = self.find_way(set, block) {
            self.tags[set * self.assoc + way] = TAG_INVALID;
            self.set_state_at(set * self.assoc + way, LineState::Invalid);
            self.policies[set].on_invalidate(way);
            true
        } else {
            false
        }
    }

    /// Flushes the entire cache (as `WBINVD` does). Stale sets are first
    /// rewound, so each policy sees the flush in its current-epoch state.
    pub fn flush_all(&mut self) {
        for set in 0..self.num_sets() {
            self.refresh(set);
        }
        self.tags.fill(TAG_INVALID);
        self.states.fill(0);
        for head in &mut self.heads {
            head.mru = 0;
        }
        for policy in &mut self.policies {
            policy.on_flush();
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics to zero (contents are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Restores the state construction built for `cache_seed` (pass the
    /// seed given at construction to replay it, or another to restart as
    /// if built with that one) and zeroes the statistics, in O(1): the
    /// reset only starts a new epoch. Every set is then stale — readers
    /// see it as empty, and its first access or fill rewinds it, with the
    /// per-set seed construction derives from `cache_seed` — so the cache
    /// behaves bit-identically to a fresh one, allocations kept. When the
    /// epoch counter wraps (once per 2^32 resets) every set is rewound
    /// eagerly instead.
    pub fn reset_seeded(&mut self, cache_seed: u64) {
        self.seed = cache_seed;
        self.stats = CacheStats::default();
        match self.epoch.checked_add(1) {
            Some(epoch) => self.epoch = epoch,
            None => {
                self.epoch = 0;
                for set in 0..self.num_sets() {
                    self.rewind(set);
                }
            }
        }
    }

    /// Sets rewound since construction: the work resets actually caused.
    /// Cumulative (a reset does not zero it), and reads never add to it.
    pub fn sets_reset(&self) -> u64 {
        self.sets_reset
    }

    /// Moves the cache to reset epoch `epoch` with every set current, as
    /// if it had been reset that many times and every set touched since.
    #[cfg(test)]
    pub(crate) fn start_epoch_at(&mut self, epoch: u32) {
        self.epoch = epoch;
        for head in &mut self.heads {
            head.epoch = epoch;
        }
    }

    /// Iterates over every valid line as `(paddr, state)` pairs (the
    /// paddr is the line's base address), skipping stale sets. Used by
    /// the hierarchy's full-state coherence audit.
    pub fn valid_lines(&self) -> impl Iterator<Item = (u64, LineState)> + '_ {
        self.tags
            .chunks_exact(self.assoc)
            .enumerate()
            .filter(|&(set, _)| self.is_current(set))
            .flat_map(move |(set, ways)| {
                ways.iter()
                    .enumerate()
                    .filter(|&(_, &t)| t != TAG_INVALID)
                    .map(move |(way, &t)| (t * LINE_SIZE, self.state_at(set * self.assoc + way)))
            })
    }

    /// The blocks currently cached in `set` (by way; a stale set is
    /// empty).
    pub fn set_contents(&self, set: usize) -> Vec<Option<u64>> {
        if !self.is_current(set) {
            return vec![None; self.assoc];
        }
        let base = set * self.assoc;
        self.tags[base..base + self.assoc]
            .iter()
            .map(|&t| if t == TAG_INVALID { None } else { Some(t) })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Cache {
        Cache::new(
            &CacheConfig {
                size_bytes: 4 * 64 * 8, // 8 sets x 4 ways
                assoc: 4,
                policy: PolicyKind::Lru,
            },
            0,
        )
    }

    #[test]
    fn dueling_wrappers_forward_wants_occupied_on_hit() {
        // Regression: a dueling set must forward the hit-path occupancy
        // requirement, or a non-UMO QLRU inside it silently sees an empty
        // occupancy slice on hits (observable as wrong Table I inference
        // on the adaptive-L3 parts).
        let qlru =
            PolicyKind::Qlru(crate::policy::QlruVariant::parse("QLRU_H11_M1_R1_U2").unwrap());
        let lru = PolicyKind::Lru;
        let psel = PselCounter::new();
        let slot = |role, a: &PolicyKind, b: &PolicyKind| {
            DuelingSet::try_new(role, a, b, 4, 0, &psel).unwrap()
        };
        assert!(slot(SetRole::LeaderA, &qlru, &lru).wants_occupied_on_hit());
        assert!(slot(SetRole::Follower, &qlru, &lru).wants_occupied_on_hit());
        assert!(slot(SetRole::Follower, &lru, &qlru).wants_occupied_on_hit());
        assert!(!slot(SetRole::LeaderA, &lru, &qlru).wants_occupied_on_hit());
        assert!(!slot(SetRole::LeaderB, &qlru, &lru).wants_occupied_on_hit());
    }

    #[test]
    fn geometry() {
        let c = small_cache();
        assert_eq!(c.num_sets(), 8);
        assert_eq!(c.assoc(), 4);
        assert_eq!(c.set_index(0), 0);
        assert_eq!(c.set_index(64), 1);
        assert_eq!(c.set_index(64 * 8), 0);
        assert_eq!(c.set_index(63), 0);
    }

    #[test]
    fn access_fill_evict() {
        let mut c = small_cache();
        assert!(!c.access(0x0));
        c.fill(0x0);
        assert!(c.access(0x0));
        // Fill 4 more conflicting lines (same set 0: stride = 8 * 64).
        let stride = 8 * 64u64;
        let mut evicted = Vec::new();
        for i in 1..=4u64 {
            c.access(i * stride);
            if let Some(e) = c.fill(i * stride) {
                evicted.push(e);
            }
        }
        assert_eq!(evicted, vec![0x0]); // LRU evicts the first line
        assert!(!c.probe(0x0));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 5);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn invalidate_and_flush() {
        let mut c = small_cache();
        c.fill(0x40);
        assert!(c.probe(0x40));
        assert!(c.invalidate(0x40));
        assert!(!c.invalidate(0x40));
        c.fill(0x40);
        c.flush_all();
        assert!(!c.probe(0x40));
    }

    #[test]
    fn reset_across_epoch_wrap_equals_fresh_cache() {
        // A cache reset in place must behave like one freshly built for
        // the new seed, including across the epoch wrap, where the reset
        // falls back to rewinding every set eagerly.
        use rand::{Rng, SeedableRng};
        for policy in ["QLRU_H11_MR161_R1_U2", "RANDOM"] {
            let config = CacheConfig {
                size_bytes: 4 * 64 * 8, // 8 sets x 4 ways
                assoc: 4,
                policy: PolicyKind::parse(policy).unwrap(),
            };
            let mut cache = Cache::new(&config, 1);
            cache.start_epoch_at(u32::MAX - 1);
            let mut fresh = Cache::new(&config, 1);
            let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
            let mut rewinds = 0;
            let mut stale = [false; 8];
            for seed in 2..6u64 {
                for _ in 0..300 {
                    let paddr = rng.gen_range(0..64u64) * LINE_SIZE;
                    let set = cache.set_index(paddr);
                    rewinds += u64::from(std::mem::take(&mut stale[set]));
                    let hit = cache.access(paddr);
                    assert_eq!(hit, fresh.access(paddr), "{policy}: seed {seed}");
                    if !hit {
                        assert_eq!(cache.fill(paddr), fresh.fill(paddr), "{policy}");
                    }
                    assert_eq!(cache.sets_reset(), rewinds, "{policy}: rewinds");
                }
                for set in 0..8 {
                    assert_eq!(cache.set_contents(set), fresh.set_contents(set));
                }
                assert_eq!(cache.stats(), fresh.stats());
                let wraps = cache.epoch == u32::MAX;
                cache.reset_seeded(seed);
                fresh = Cache::new(&config, seed);
                if wraps {
                    // The eager fallback rewinds all 8 sets at once.
                    assert_eq!(cache.epoch, 0);
                    rewinds += 8;
                    assert_eq!(cache.sets_reset(), rewinds, "{policy}: eager reset");
                } else {
                    stale = [true; 8];
                }
                assert_eq!(cache.valid_lines().count(), 0, "{policy}: reset empties");
            }
            assert_eq!(cache.epoch, 2, "{policy}: the trace crossed the wrap");
        }
    }

    #[test]
    fn psel_saturation() {
        let psel = PselCounter::new();
        for _ in 0..2000 {
            psel.miss_in_a();
        }
        assert_eq!(psel.value(), 1023);
        assert!(psel.use_policy_b());
        for _ in 0..4000 {
            psel.miss_in_b();
        }
        assert_eq!(psel.value(), 0);
        assert!(!psel.use_policy_b());
    }

    #[test]
    fn follower_switches_with_psel() {
        let psel = PselCounter::new();
        let mut f = DuelingSet::try_new(
            SetRole::Follower,
            &PolicyKind::Lru,
            &PolicyKind::Fifo,
            4,
            0,
            &psel,
        )
        .unwrap();
        let occ = [true; 4];
        // With PSEL at midpoint, policy A (LRU) is active: hits reorder.
        f.on_hit(0, &occ);
        // Push PSEL toward B and verify misses now follow FIFO order
        // regardless of the hit we just made on way 0.
        for _ in 0..600 {
            psel.miss_in_a();
        }
        assert!(psel.use_policy_b());
        let way = f.on_miss(&occ);
        assert_eq!(way, 0, "FIFO (policy B) ignores the earlier hit");
    }

    #[test]
    fn dueling_rejects_invalid_policies() {
        let psel = PselCounter::new();
        // A B leader never runs policy A, so only policy B is checked.
        assert!(DuelingSet::try_new(
            SetRole::Follower,
            &PolicyKind::Plru,
            &PolicyKind::Lru,
            12,
            0,
            &psel
        )
        .is_err());
        assert!(DuelingSet::try_new(
            SetRole::LeaderB,
            &PolicyKind::Plru,
            &PolicyKind::Lru,
            12,
            0,
            &psel
        )
        .is_ok());
    }
}
