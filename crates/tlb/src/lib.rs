//! Set-associative TLB model used for every level of the multi-GPU
//! translation hierarchy (per-CU L1, per-GPU L2, shared IOMMU TLB).
//!
//! The model is *functional + statistical*: it tracks exact contents,
//! replacement state and hit/miss statistics; lookup latency is modelled by
//! the simulator that owns the TLB, not here. Entries carry the metadata the
//! least-TLB design needs — per-entry spill credits (paper §4.2 "what to
//! spill") and the originating GPU (for the IOMMU's per-GPU eviction
//! counters).
//!
//! # Storage layout
//!
//! Every per-way field lives in a flat array indexed `set * ways + way`,
//! so one set is a contiguous run in each array:
//!
//! - `keys` holds the resident [`TranslationKey`]s. A reserved key (ASID
//!   `u16::MAX`, VPN `u64::MAX`) marks a free way, so a lookup or a miss
//!   reads this array alone: 16 bytes a way, 1 KiB for a 64-way set.
//!   [`Tlb::insert`] asserts that no caller inserts the reserved key.
//! - `entries` (payloads) and the `last_used`/`inserted` stamps are
//!   separate arrays, read only on a hit or when picking a victim.
//!
//! [`Tlb::insert`] scans its set once: the same pass finds the key (an
//! in-place update), the first free way, and the LRU/FIFO victim. The
//! combined operations [`Tlb::lookup_take`], [`Tlb::insert_displacing`]
//! and [`Tlb::touch_mut`] give callers one scan where they would
//! otherwise make two (lookup then remove, probe then insert, touch then
//! probe); each has exactly the effect of the two-call sequence it
//! replaces.
//!
//! # Examples
//!
//! ```
//! use mgpu_types::{Asid, TranslationKey, PhysPage, VirtPage};
//! use tlb::{Tlb, TlbConfig, TlbEntry, ReplacementPolicy};
//!
//! // The paper's L2 TLB: 512 entries, 16-way, LRU (Table 2).
//! let mut l2 = Tlb::new(TlbConfig::new(512, 16, ReplacementPolicy::Lru));
//! let key = TranslationKey::new(Asid(0), VirtPage(42));
//! assert!(l2.lookup(key).is_none());
//! l2.insert(key, TlbEntry::new(PhysPage(7)));
//! assert_eq!(l2.lookup(key).unwrap().frame, PhysPage(7));
//! assert_eq!(l2.stats().hits, 1);
//! assert_eq!(l2.stats().misses, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod stats;

pub use stats::TlbStats;

use mgpu_types::{Asid, GpuId, PhysPage, TranslationKey, VirtPage};
use serde::{Deserialize, Serialize};

/// Replacement policy applied within each set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ReplacementPolicy {
    /// Least-recently-used (the paper's policy for all TLB levels).
    #[default]
    Lru,
    /// First-in-first-out.
    Fifo,
    /// Pseudo-random (xorshift, deterministic per seed).
    Random,
}

/// Static geometry and policy of one TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbConfig {
    /// Total entry count. Must be a non-zero multiple of `ways`.
    pub entries: usize,
    /// Associativity. `ways == entries` gives a fully-associative TLB.
    pub ways: usize,
    /// In-set victim selection policy.
    pub replacement: ReplacementPolicy,
    /// Seed for the `Random` policy (ignored otherwise).
    pub seed: u64,
}

impl TlbConfig {
    /// Creates a configuration; see [`Tlb::new`] for validity requirements.
    #[must_use]
    pub fn new(entries: usize, ways: usize, replacement: ReplacementPolicy) -> Self {
        TlbConfig {
            entries,
            ways,
            replacement,
            seed: 0x51ab_c0de,
        }
    }

    /// Fully-associative configuration with `entries` entries.
    #[must_use]
    pub fn fully_associative(entries: usize, replacement: ReplacementPolicy) -> Self {
        Self::new(entries, entries, replacement)
    }

    /// Number of sets implied by the geometry.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.entries / self.ways.max(1)
    }
}

/// Payload stored per TLB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbEntry {
    /// Physical frame the virtual page maps to.
    pub frame: PhysPage,
    /// Remaining spill opportunities (paper §4.2, counter `N`). An entry
    /// arriving in an L2 TLB via IOMMU spilling has this decremented; at
    /// zero the entry is discarded on eviction instead of re-entering the
    /// IOMMU TLB.
    pub spill_credits: u8,
    /// GPU whose L2 TLB eviction produced this entry. Meaningful in the
    /// IOMMU TLB, where it backs the per-GPU eviction counters.
    pub origin: GpuId,
}

impl TlbEntry {
    /// Entry with default metadata (full spill credits are assigned by the
    /// policy layer on insertion into the L2 TLB).
    #[must_use]
    pub fn new(frame: PhysPage) -> Self {
        TlbEntry {
            frame,
            spill_credits: 0,
            origin: GpuId(0),
        }
    }

    /// Builder-style origin annotation.
    #[must_use]
    pub fn with_origin(mut self, origin: GpuId) -> Self {
        self.origin = origin;
        self
    }

    /// Builder-style spill-credit annotation.
    #[must_use]
    pub fn with_spill_credits(mut self, credits: u8) -> Self {
        self.spill_credits = credits;
        self
    }
}

/// Reserved key that marks an empty way in the flat key array. No real
/// translation can use it: [`Tlb::insert`] rejects it.
const EMPTY: TranslationKey = TranslationKey {
    asid: Asid(u16::MAX),
    vpn: VirtPage(u64::MAX),
};

/// What [`Tlb::insert_displacing`] pushed out to make room for its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Displaced {
    /// The key was absent and took a free way.
    Nothing,
    /// The key was already resident; this is the payload it replaced.
    Updated(TlbEntry),
    /// The key's set was full; this is the evicted victim.
    Evicted(TranslationKey, TlbEntry),
}

/// Outcome of one pass over a set (see [`Tlb::scan`]), as a way index.
enum Scan {
    /// The way holding the key.
    Hit(usize),
    /// The first free way (the key is absent).
    Free(usize),
    /// The set is full and the key absent; carries the LRU/FIFO victim.
    Full(usize),
}

/// A set-associative TLB.
///
/// See the crate-level docs for an overview and example.
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    /// Log2 of the set count (sets are indexed by folded VPN bits).
    set_bits: u32,
    /// Resident keys, set-major (`set * ways + way`); [`EMPTY`] marks a
    /// free way. The only array a miss reads.
    keys: Vec<TranslationKey>,
    /// Payloads, parallel to `keys`; meaningless at free ways.
    entries: Vec<TlbEntry>,
    /// LRU stamps, parallel to `keys`.
    last_used: Vec<u64>,
    /// FIFO stamps, parallel to `keys`.
    inserted: Vec<u64>,
    tick: u64,
    len: usize,
    stats: TlbStats,
    rng: u64,
}

impl Tlb {
    /// Builds a TLB from `config`.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero, `ways` is zero or exceeds `entries`,
    /// `entries` is not a multiple of `ways`, or the set count is not a
    /// power of two (sets are indexed by low VPN bits).
    #[must_use]
    pub fn new(config: TlbConfig) -> Self {
        assert!(config.entries > 0, "TLB must have at least one entry");
        assert!(
            config.ways > 0 && config.ways <= config.entries,
            "ways must be in 1..=entries"
        );
        assert!(
            config.entries.is_multiple_of(config.ways),
            "entries must be a multiple of ways"
        );
        let sets = config.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let n = config.entries;
        Tlb {
            config,
            set_bits: sets.trailing_zeros(),
            keys: vec![EMPTY; n],
            entries: vec![TlbEntry::new(PhysPage(0)); n],
            last_used: vec![0; n],
            inserted: vec![0; n],
            tick: 0,
            len: 0,
            stats: TlbStats::default(),
            rng: config.seed | 1,
        }
    }

    /// The configuration this TLB was built with.
    #[must_use]
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Total capacity in entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.config.entries
    }

    /// Number of valid entries currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the TLB holds no valid entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Hit/miss statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    /// Resets statistics (contents are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    fn set_index(&self, key: TranslationKey) -> usize {
        // XOR-folded VPN indexing (upper page-number bits folded onto the
        // index bits), as used by real TLBs to avoid pathological aliasing
        // of strided/partitioned data layouts; the ASID is folded in so
        // that co-running applications do not all collide on the same sets.
        let s = self.set_bits;
        let v = key.vpn.0;
        let folded = v ^ (v >> s) ^ (v >> (2 * s)) ^ u64::from(key.asid.0).wrapping_mul(0x9e37);
        (folded & ((1u64 << s) - 1)) as usize
    }

    /// Flat index of way 0 of `key`'s home set.
    fn set_base(&self, key: TranslationKey) -> usize {
        self.set_index(key) * self.config.ways
    }

    /// Flat index of the way holding `key`, if resident.
    fn find(&self, key: TranslationKey) -> Option<usize> {
        let base = self.set_base(key);
        self.keys[base..base + self.config.ways]
            .iter()
            .position(|&k| k == key)
            .map(|w| base + w)
    }

    /// One pass over the set at `base`: the way holding `key`, else the
    /// first free way, else the policy's LRU/FIFO victim (`Random` draws
    /// its victim afterwards and ignores the one returned here).
    fn scan(&self, base: usize, key: TranslationKey) -> Scan {
        let ways = base..base + self.config.ways;
        let stamps = match self.config.replacement {
            ReplacementPolicy::Fifo => &self.inserted[ways.clone()],
            ReplacementPolicy::Lru | ReplacementPolicy::Random => &self.last_used[ways.clone()],
        };
        let mut free = None;
        let mut oldest = (0, u64::MAX);
        for (w, (&k, &stamp)) in self.keys[ways].iter().zip(stamps).enumerate() {
            if k == key {
                return Scan::Hit(w);
            }
            if k == EMPTY {
                free = free.or(Some(w));
            } else if stamp < oldest.1 {
                // Stamps are unique, so the strict `<` keeps the first
                // minimum, as a `min_by_key` over the set would.
                oldest = (w, stamp);
            }
        }
        free.map_or(Scan::Full(oldest.0), Scan::Free)
    }

    /// Looks up `key`, recording a hit or miss and refreshing recency on a
    /// hit. Returns the entry payload on a hit.
    pub fn lookup(&mut self, key: TranslationKey) -> Option<TlbEntry> {
        self.tick += 1;
        self.stats.lookups += 1;
        if let Some(i) = self.find(key) {
            self.stats.hits += 1;
            self.last_used[i] = self.tick;
            Some(self.entries[i])
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// [`Self::lookup`] that also removes `key` on a hit, in one set scan:
    /// the same result, statistics and contents as `lookup` followed by
    /// [`Self::remove`] when it hit (the least-inclusive move-on-hit).
    pub fn lookup_take(&mut self, key: TranslationKey) -> Option<TlbEntry> {
        self.tick += 1;
        self.stats.lookups += 1;
        if let Some(i) = self.find(key) {
            self.stats.hits += 1;
            self.vacate(i, key);
            Some(self.entries[i])
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Inspects `key` without touching statistics or recency.
    #[must_use]
    pub fn probe(&self, key: TranslationKey) -> Option<&TlbEntry> {
        self.find(key).map(|i| &self.entries[i])
    }

    /// Mutable access to an entry's payload without touching statistics or
    /// recency (used to reset spill bits on remote reuse).
    pub fn probe_mut(&mut self, key: TranslationKey) -> Option<&mut TlbEntry> {
        self.find(key).map(|i| &mut self.entries[i])
    }

    /// Inserts (or updates) `key → entry`, returning the victim evicted to
    /// make room, if the target set was full and `key` was absent.
    ///
    /// # Panics
    ///
    /// Panics if `key` is the reserved empty-way key (ASID `u16::MAX`,
    /// VPN `u64::MAX`), which no real translation uses.
    pub fn insert(
        &mut self,
        key: TranslationKey,
        entry: TlbEntry,
    ) -> Option<(TranslationKey, TlbEntry)> {
        match self.insert_displacing(key, entry) {
            Displaced::Evicted(vk, ve) => Some((vk, ve)),
            Displaced::Nothing | Displaced::Updated(_) => None,
        }
    }

    /// [`Self::insert`] that also reports the payload an in-place update
    /// replaced, so callers need no [`Self::probe`] beforehand. The set is
    /// scanned once.
    ///
    /// # Panics
    ///
    /// Panics if `key` is the reserved empty-way key, as [`Self::insert`].
    pub fn insert_displacing(&mut self, key: TranslationKey, entry: TlbEntry) -> Displaced {
        // sim-lint: allow(hygiene, reason = "documented API contract: the reserved empty-way key would silently vanish from the set, so release runs must abort too")
        assert!(
            key != EMPTY,
            "{key:?} is the TLB's reserved empty-way key and cannot be inserted"
        );
        self.tick += 1;
        self.stats.insertions += 1;
        let base = self.set_base(key);
        let displaced = match self.scan(base, key) {
            Scan::Hit(w) => {
                let i = base + w;
                self.last_used[i] = self.tick;
                Displaced::Updated(std::mem::replace(&mut self.entries[i], entry))
            }
            Scan::Free(w) => {
                self.fill(base + w, key, entry);
                self.len += 1;
                Displaced::Nothing
            }
            Scan::Full(oldest) => {
                let w = match self.config.replacement {
                    ReplacementPolicy::Lru | ReplacementPolicy::Fifo => oldest,
                    ReplacementPolicy::Random => {
                        self.rng = Self::xorshift_peek(self.rng);
                        (self.rng % self.config.ways as u64) as usize
                    }
                };
                let i = base + w;
                let victim = Displaced::Evicted(self.keys[i], self.entries[i]);
                self.fill(i, key, entry);
                self.stats.evictions += 1;
                victim
            }
        };
        self.check_home_set(key);
        displaced
    }

    /// Places `key → entry` in way `i` with fresh stamps.
    fn fill(&mut self, i: usize, key: TranslationKey, entry: TlbEntry) {
        self.keys[i] = key;
        self.entries[i] = entry;
        self.last_used[i] = self.tick;
        self.inserted[i] = self.tick;
    }

    /// Frees way `i`, which holds `key`, counting it as a removal. The
    /// payload stays readable until the way is refilled.
    fn vacate(&mut self, i: usize, key: TranslationKey) {
        self.keys[i] = EMPTY;
        self.len -= 1;
        self.stats.removals += 1;
        self.check_home_set(key);
    }

    /// The entry that would be evicted if `key` were inserted now, or `None`
    /// if insertion would not evict (set has room, or `key` is present).
    #[must_use]
    pub fn peek_victim(&self, key: TranslationKey) -> Option<(TranslationKey, TlbEntry)> {
        let base = self.set_base(key);
        let Scan::Full(oldest) = self.scan(base, key) else {
            return None;
        };
        let w = match self.config.replacement {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => oldest,
            // Read-only peek of Random uses the *next* RNG draw without
            // consuming it; insert() consumes it, so peek matches insert.
            ReplacementPolicy::Random => {
                (Self::xorshift_peek(self.rng) % self.config.ways as u64) as usize
            }
        };
        Some((self.keys[base + w], self.entries[base + w]))
    }

    fn xorshift_peek(mut x: u64) -> u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }

    /// Refreshes `key`'s recency without recording a lookup (used when a
    /// remote GPU probe hits this TLB: the entry is hot, but the probe must
    /// not pollute the local application's hit-rate statistics). Returns
    /// whether the key was present.
    pub fn touch(&mut self, key: TranslationKey) -> bool {
        self.touch_mut(key).is_some()
    }

    /// [`Self::touch`] that returns the refreshed payload for editing, in
    /// one set scan: the same effect as `touch` followed by
    /// [`Self::probe_mut`].
    pub fn touch_mut(&mut self, key: TranslationKey) -> Option<&mut TlbEntry> {
        self.tick += 1;
        let i = self.find(key)?;
        self.last_used[i] = self.tick;
        Some(&mut self.entries[i])
    }

    /// Removes `key`, returning its payload if present.
    pub fn remove(&mut self, key: TranslationKey) -> Option<TlbEntry> {
        let i = self.find(key)?;
        self.vacate(i, key);
        Some(self.entries[i])
    }

    /// Invalidates every entry of `asid` (per-process TLB shootdown),
    /// returning how many entries were dropped.
    pub fn invalidate_asid(&mut self, asid: Asid) -> usize {
        let mut dropped = 0;
        for k in &mut self.keys {
            if *k != EMPTY && k.asid == asid {
                *k = EMPTY;
                dropped += 1;
            }
        }
        self.len -= dropped;
        self.stats.removals += dropped as u64;
        dropped
    }

    /// Invalidates everything (full shootdown), returning the entry count
    /// dropped.
    pub fn flush(&mut self) -> usize {
        let dropped = self.len;
        self.keys.fill(EMPTY);
        self.len = 0;
        self.stats.removals += dropped as u64;
        dropped
    }

    /// Iterates over all valid `(key, entry)` pairs (snapshot order is
    /// set-major and deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (TranslationKey, &TlbEntry)> + '_ {
        self.keys
            .iter()
            .zip(&self.entries)
            .filter(|(&k, _)| k != EMPTY)
            .map(|(&k, e)| (k, e))
    }

    /// Convenience: the set of keys currently resident.
    #[must_use]
    pub fn resident_keys(&self) -> Vec<TranslationKey> {
        self.iter().map(|(k, _)| k).collect()
    }

    /// Validates the structural invariants of one set: every resident key
    /// hashes to this set, and no key appears in two ways.
    ///
    /// # Panics
    ///
    /// Panics when an invariant is violated.
    pub fn check_set(&self, si: usize) {
        let ways = self.config.ways;
        let set = &self.keys[si * ways..(si + 1) * ways];
        for (wi, &key) in set.iter().enumerate() {
            if key == EMPTY {
                continue;
            }
            // sim-lint: allow(hygiene, reason = "test-facing checker whose whole contract is to panic on violation")
            assert!(
                self.set_index(key) == si,
                "set {si} way {wi}: key {key:?} belongs to set {}",
                self.set_index(key)
            );
            // sim-lint: allow(hygiene, reason = "test-facing checker whose whole contract is to panic on violation")
            assert!(!set[..wi].contains(&key), "set {si}: duplicate key {key:?}");
        }
    }

    /// Validates the whole structure: per-set invariants ([`Self::check_set`])
    /// plus `len` matching the occupied-way count. Cheap enough for tests
    /// and the `check`-feature harness, too slow for per-op release use.
    ///
    /// # Panics
    ///
    /// Panics when an invariant is violated.
    pub fn check_structure(&self) {
        for si in 0..self.config.sets() {
            self.check_set(si);
        }
        let occupied = self.keys.iter().filter(|&&k| k != EMPTY).count();
        // sim-lint: allow(hygiene, reason = "test-facing checker whose whole contract is to panic on violation")
        assert!(
            occupied == self.len,
            "len {} disagrees with occupied ways {occupied}",
            self.len
        );
    }

    /// Per-op invariant hook: validates only the set `key` maps to. Compiled
    /// to nothing unless the `check` feature is enabled.
    #[inline]
    fn check_home_set(&self, key: TranslationKey) {
        #[cfg(feature = "check")]
        self.check_set(self.set_index(key));
        #[cfg(not(feature = "check"))]
        let _ = key;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(v: u64) -> TranslationKey {
        TranslationKey::new(Asid(0), VirtPage(v))
    }

    fn tiny_fa(entries: usize) -> Tlb {
        Tlb::new(TlbConfig::fully_associative(
            entries,
            ReplacementPolicy::Lru,
        ))
    }

    #[test]
    fn miss_then_hit() {
        let mut t = tiny_fa(4);
        assert!(t.lookup(key(1)).is_none());
        t.insert(key(1), TlbEntry::new(PhysPage(9)));
        assert_eq!(t.lookup(key(1)).unwrap().frame, PhysPage(9));
        assert_eq!(t.stats().lookups, 2);
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 1);
        assert!((t.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut t = tiny_fa(2);
        t.insert(key(1), TlbEntry::new(PhysPage(1)));
        t.insert(key(2), TlbEntry::new(PhysPage(2)));
        t.lookup(key(1)); // 2 is now LRU
        let victim = t.insert(key(3), TlbEntry::new(PhysPage(3))).unwrap();
        assert_eq!(victim.0, key(2));
        assert!(t.probe(key(1)).is_some());
        assert!(t.probe(key(3)).is_some());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn fifo_ignores_recency() {
        let mut t = Tlb::new(TlbConfig::fully_associative(2, ReplacementPolicy::Fifo));
        t.insert(key(1), TlbEntry::new(PhysPage(1)));
        t.insert(key(2), TlbEntry::new(PhysPage(2)));
        t.lookup(key(1)); // would save key 1 under LRU
        let victim = t.insert(key(3), TlbEntry::new(PhysPage(3))).unwrap();
        assert_eq!(victim.0, key(1), "FIFO evicts the oldest insertion");
    }

    #[test]
    fn random_replacement_is_deterministic_per_seed() {
        let mk = || Tlb::new(TlbConfig::fully_associative(4, ReplacementPolicy::Random));
        let run = |mut t: Tlb| {
            for v in 0..32 {
                t.insert(key(v), TlbEntry::new(PhysPage(v)));
            }
            t.resident_keys()
        };
        assert_eq!(run(mk()), run(mk()));
    }

    #[test]
    fn insert_existing_updates_without_eviction() {
        let mut t = tiny_fa(1);
        t.insert(key(1), TlbEntry::new(PhysPage(1)));
        let v = t.insert(key(1), TlbEntry::new(PhysPage(2)));
        assert!(v.is_none());
        assert_eq!(t.probe(key(1)).unwrap().frame, PhysPage(2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn peek_victim_matches_insert_for_lru() {
        let mut t = tiny_fa(2);
        t.insert(key(1), TlbEntry::new(PhysPage(1)));
        assert!(t.peek_victim(key(9)).is_none(), "room left, no victim");
        t.insert(key(2), TlbEntry::new(PhysPage(2)));
        assert!(t.peek_victim(key(1)).is_none(), "present key evicts nobody");
        let peeked = t.peek_victim(key(3)).unwrap();
        let actual = t.insert(key(3), TlbEntry::new(PhysPage(3))).unwrap();
        assert_eq!(peeked.0, actual.0);
    }

    #[test]
    fn set_conflicts_respect_geometry() {
        // 4 entries, 1-way => 4 direct-mapped sets with XOR-folded
        // indexing. Find two colliding keys and check the conflict evicts.
        let probe_set = |v: u64| {
            let mut t = Tlb::new(TlbConfig::new(4, 1, ReplacementPolicy::Lru));
            t.insert(key(v), TlbEntry::new(PhysPage(v)));
            t
        };
        let mut t = probe_set(0);
        let collider = (1..64)
            .find(|&v| {
                let mut t2 = probe_set(0);
                t2.insert(key(v), TlbEntry::new(PhysPage(v))).is_some()
            })
            .expect("some key collides with key 0 in 4 sets");
        let victim = t.insert(key(collider), TlbEntry::new(PhysPage(collider)));
        assert_eq!(victim.unwrap().0, key(0));
        assert!(t.probe(key(collider)).is_some());
        // Direct-mapped stride-4096 keys no longer all alias to one set.
        let mut t = Tlb::new(TlbConfig::new(4, 1, ReplacementPolicy::Lru));
        let mut evictions = 0;
        for i in 0..4u64 {
            if t.insert(key(i * 4), TlbEntry::new(PhysPage(i))).is_some() {
                evictions += 1;
            }
        }
        assert!(evictions < 3, "folding must spread strided keys");
    }

    #[test]
    fn remove_and_flush() {
        let mut t = tiny_fa(4);
        t.insert(key(1), TlbEntry::new(PhysPage(1)));
        t.insert(key(2), TlbEntry::new(PhysPage(2)));
        assert_eq!(t.remove(key(1)).unwrap().frame, PhysPage(1));
        assert!(t.remove(key(1)).is_none());
        assert_eq!(t.len(), 1);
        assert_eq!(t.flush(), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn invalidate_asid_is_selective() {
        let mut t = tiny_fa(4);
        t.insert(
            TranslationKey::new(Asid(1), VirtPage(1)),
            TlbEntry::new(PhysPage(1)),
        );
        t.insert(
            TranslationKey::new(Asid(2), VirtPage(1)),
            TlbEntry::new(PhysPage(2)),
        );
        assert_eq!(t.invalidate_asid(Asid(1)), 1);
        assert_eq!(t.len(), 1);
        assert!(t.probe(TranslationKey::new(Asid(2), VirtPage(1))).is_some());
    }

    #[test]
    fn iter_sees_all_entries() {
        let mut t = tiny_fa(8);
        for v in 0..5 {
            t.insert(key(v), TlbEntry::new(PhysPage(v)));
        }
        let mut keys = t.resident_keys();
        keys.sort();
        assert_eq!(keys, (0..5).map(key).collect::<Vec<_>>());
    }

    #[test]
    fn probe_mut_edits_in_place() {
        let mut t = tiny_fa(2);
        t.insert(key(1), TlbEntry::new(PhysPage(1)).with_spill_credits(1));
        t.probe_mut(key(1)).unwrap().spill_credits = 0;
        assert_eq!(t.probe(key(1)).unwrap().spill_credits, 0);
    }

    #[test]
    fn touch_refreshes_recency_without_stats() {
        let mut t = tiny_fa(2);
        t.insert(key(1), TlbEntry::new(PhysPage(1)));
        t.insert(key(2), TlbEntry::new(PhysPage(2)));
        let lookups_before = t.stats().lookups;
        assert!(t.touch(key(1)));
        assert!(!t.touch(key(99)));
        assert_eq!(
            t.stats().lookups,
            lookups_before,
            "touch records no lookups"
        );
        // key 2 is now LRU thanks to the touch.
        let victim = t.insert(key(3), TlbEntry::new(PhysPage(3))).unwrap();
        assert_eq!(victim.0, key(2));
    }

    #[test]
    fn entry_builders() {
        let e = TlbEntry::new(PhysPage(3))
            .with_origin(GpuId(2))
            .with_spill_credits(1);
        assert_eq!(e.origin, GpuId(2));
        assert_eq!(e.spill_credits, 1);
    }

    #[test]
    fn structure_checks_pass_under_churn() {
        let mut t = Tlb::new(TlbConfig::new(16, 4, ReplacementPolicy::Lru));
        for v in 0..200u64 {
            t.insert(key(v % 37), TlbEntry::new(PhysPage(v)));
            if v % 3 == 0 {
                t.remove(key((v * 7) % 37));
            }
            t.check_structure();
        }
    }

    #[test]
    #[should_panic(expected = "reserved empty-way key")]
    fn reserved_empty_key_rejected() {
        let mut t = tiny_fa(2);
        t.insert(EMPTY, TlbEntry::new(PhysPage(1)));
    }

    #[test]
    fn keys_beside_the_reserved_key_are_ordinary() {
        let mut t = tiny_fa(4);
        let near = [
            TranslationKey::new(Asid(u16::MAX), VirtPage(0)),
            TranslationKey::new(Asid(0), VirtPage(u64::MAX)),
        ];
        for k in near {
            t.insert(k, TlbEntry::new(PhysPage(1)));
        }
        assert_eq!(t.resident_keys(), near);
        assert_eq!(
            t.invalidate_asid(Asid(u16::MAX)),
            1,
            "free ways are not dropped"
        );
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = Tlb::new(TlbConfig::new(12, 2, ReplacementPolicy::Lru));
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn ragged_geometry_rejected() {
        let _ = Tlb::new(TlbConfig::new(10, 4, ReplacementPolicy::Lru));
    }
}
