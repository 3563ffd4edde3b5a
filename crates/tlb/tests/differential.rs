//! Differential tests: the flat-array TLB against a reference nested-`Vec`
//! implementation of the same contract.
//!
//! The reference model is the storage this crate shipped before the flat
//! rebuild: one `Vec<Option<Slot>>` per set, each slot holding key, payload
//! and both stamps, with `insert` scanning the set three times (present
//! key, free way, victim). Randomized op mixes (the splitmix64 recurrence
//! the repo's other property suites use; no external RNG) drive both
//! through the whole API. The geometries cover both tag-scan paths: way
//! counts that are multiples of 8 (word-wide) and 1, 4 and 12 ways (byte
//! loop). Each combined operation of the flat TLB runs against the
//! two-call sequence it replaces. After every op the return values,
//! statistics, `len` and `resident_keys()` must agree.

use mgpu_types::{Asid, GpuId, PhysPage, TranslationKey, VirtPage};
use tlb::{Displaced, ReplacementPolicy, Tlb, TlbConfig, TlbEntry, TlbStats};

/// splitmix64, matching the repo's other property suites.
struct Gen(u64);

impl Gen {
    #[allow(clippy::should_implement_trait)]
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[derive(Clone, Copy)]
struct Slot {
    key: TranslationKey,
    entry: TlbEntry,
    last_used: u64,
    inserted: u64,
}

/// Reference implementation: the pre-rebuild nested-`Vec` TLB.
struct RefTlb {
    config: TlbConfig,
    sets: Vec<Vec<Option<Slot>>>,
    tick: u64,
    len: usize,
    stats: TlbStats,
    rng: u64,
}

impl RefTlb {
    fn new(config: TlbConfig) -> Self {
        RefTlb {
            config,
            sets: vec![vec![None; config.ways]; config.sets()],
            tick: 0,
            len: 0,
            stats: TlbStats::default(),
            rng: config.seed | 1,
        }
    }

    fn set_index(&self, key: TranslationKey) -> usize {
        let sets = self.sets.len() as u64;
        let s = sets.trailing_zeros();
        let v = key.vpn.0;
        let folded = v ^ (v >> s) ^ (v >> (2 * s)) ^ u64::from(key.asid.0).wrapping_mul(0x9e37);
        (folded & (sets - 1)) as usize
    }

    fn find(&self, key: TranslationKey) -> Option<(usize, usize)> {
        let si = self.set_index(key);
        self.sets[si]
            .iter()
            .position(|s| s.as_ref().is_some_and(|s| s.key == key))
            .map(|wi| (si, wi))
    }

    fn slot_mut(&mut self, (si, wi): (usize, usize)) -> &mut Slot {
        self.sets[si][wi]
            .as_mut()
            .expect("find() returns occupied ways")
    }

    fn lookup(&mut self, key: TranslationKey) -> Option<TlbEntry> {
        self.tick += 1;
        self.stats.lookups += 1;
        if let Some(at) = self.find(key) {
            self.stats.hits += 1;
            let tick = self.tick;
            let slot = self.slot_mut(at);
            slot.last_used = tick;
            Some(slot.entry)
        } else {
            self.stats.misses += 1;
            None
        }
    }

    fn probe(&self, key: TranslationKey) -> Option<&TlbEntry> {
        self.find(key)
            .map(|(si, wi)| &self.sets[si][wi].as_ref().expect("occupied").entry)
    }

    fn probe_mut(&mut self, key: TranslationKey) -> Option<&mut TlbEntry> {
        let at = self.find(key)?;
        Some(&mut self.slot_mut(at).entry)
    }

    fn insert(
        &mut self,
        key: TranslationKey,
        entry: TlbEntry,
    ) -> Option<(TranslationKey, TlbEntry)> {
        self.tick += 1;
        self.stats.insertions += 1;
        let si = self.set_index(key);
        if let Some(wi) = self.sets[si]
            .iter()
            .position(|s| s.as_ref().is_some_and(|s| s.key == key))
        {
            let tick = self.tick;
            let slot = self.slot_mut((si, wi));
            slot.entry = entry;
            slot.last_used = tick;
            return None;
        }
        let fresh = Some(Slot {
            key,
            entry,
            last_used: self.tick,
            inserted: self.tick,
        });
        if let Some(wi) = self.sets[si].iter().position(Option::is_none) {
            self.sets[si][wi] = fresh;
            self.len += 1;
            return None;
        }
        let wi = match self.config.replacement {
            ReplacementPolicy::Lru => self.min_by(si, |s| s.last_used),
            ReplacementPolicy::Fifo => self.min_by(si, |s| s.inserted),
            ReplacementPolicy::Random => {
                self.rng = xorshift(self.rng);
                (self.rng % self.config.ways as u64) as usize
            }
        };
        let victim = self.sets[si][wi].expect("full set");
        self.sets[si][wi] = fresh;
        self.stats.evictions += 1;
        Some((victim.key, victim.entry))
    }

    fn peek_victim(&self, key: TranslationKey) -> Option<(TranslationKey, TlbEntry)> {
        let si = self.set_index(key);
        let present = self.sets[si]
            .iter()
            .any(|s| s.as_ref().is_some_and(|s| s.key == key));
        if present || self.sets[si].iter().any(Option::is_none) {
            return None;
        }
        let wi = match self.config.replacement {
            ReplacementPolicy::Lru => self.min_by(si, |s| s.last_used),
            ReplacementPolicy::Fifo => self.min_by(si, |s| s.inserted),
            ReplacementPolicy::Random => (xorshift(self.rng) % self.config.ways as u64) as usize,
        };
        self.sets[si][wi].map(|s| (s.key, s.entry))
    }

    fn min_by(&self, si: usize, f: impl Fn(&Slot) -> u64) -> usize {
        self.sets[si]
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (i, f(s))))
            .min_by_key(|(_, v)| *v)
            .map(|(i, _)| i)
            .expect("full set")
    }

    fn touch(&mut self, key: TranslationKey) -> bool {
        self.tick += 1;
        let Some(at) = self.find(key) else {
            return false;
        };
        let tick = self.tick;
        self.slot_mut(at).last_used = tick;
        true
    }

    fn remove(&mut self, key: TranslationKey) -> Option<TlbEntry> {
        let (si, wi) = self.find(key)?;
        let slot = self.sets[si][wi].take().expect("occupied");
        self.len -= 1;
        self.stats.removals += 1;
        Some(slot.entry)
    }

    fn invalidate_asid(&mut self, asid: Asid) -> usize {
        let mut dropped = 0;
        for way in self.sets.iter_mut().flatten() {
            if way.is_some_and(|s| s.key.asid == asid) {
                *way = None;
                dropped += 1;
            }
        }
        self.len -= dropped;
        self.stats.removals += dropped as u64;
        dropped
    }

    fn flush(&mut self) -> usize {
        let dropped = self.len;
        for way in self.sets.iter_mut().flatten() {
            *way = None;
        }
        self.len = 0;
        self.stats.removals += dropped as u64;
        dropped
    }

    fn resident_keys(&self) -> Vec<TranslationKey> {
        self.sets
            .iter()
            .flatten()
            .flatten()
            .map(|s| s.key)
            .collect()
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// A random key. Most keys are ASID 0 with a VPN universe 1.5x the
/// capacity, so sets fill and evict; a few sit at the top of the key
/// space (ASID `u16::MAX`, VPN near `u64::MAX`, the all-ones key too).
fn random_key(g: &mut Gen, capacity: u64) -> TranslationKey {
    let asid = match g.below(16) {
        0 => u16::MAX,
        1 => 1,
        2 => 2,
        _ => 0,
    };
    let vpn = if g.below(32) == 0 {
        u64::MAX - g.below(4)
    } else {
        g.below(capacity + capacity / 2 + 4)
    };
    TranslationKey::new(Asid(asid), VirtPage(vpn))
}

fn random_entry(g: &mut Gen) -> TlbEntry {
    let r = g.next();
    TlbEntry::new(PhysPage(r >> 16))
        .with_origin(GpuId((r % 4) as u8))
        .with_spill_credits(((r >> 8) % 3) as u8)
}

/// Runs `ops` random operations on both TLBs, comparing after each one.
/// Returns the flat TLB's final statistics.
fn drive(config: TlbConfig, seed: u64, ops: usize) -> TlbStats {
    let mut flat = Tlb::new(config);
    let mut reference = RefTlb::new(config);
    let mut g = Gen(seed);
    let cap = config.entries as u64;
    for step in 0..ops {
        let key = random_key(&mut g, cap);
        // Shootdowns come about once per 4x capacity ops, so even the
        // largest geometry fills its sets between them.
        let what = if g.below(4 * cap) == 0 {
            1000 + g.below(2)
        } else {
            g.below(1000)
        };
        let ctx = |op: &str| format!("step {step}: {op}({key:?})");
        match what {
            0..=199 => assert_eq!(flat.lookup(key), reference.lookup(key), "{}", ctx("lookup")),
            200..=259 => assert_eq!(flat.probe(key), reference.probe(key), "{}", ctx("probe")),
            260..=299 => {
                let credits = g.below(3) as u8;
                let a = flat.probe_mut(key).map(|e| {
                    e.spill_credits = credits;
                    *e
                });
                let b = reference.probe_mut(key).map(|e| {
                    e.spill_credits = credits;
                    *e
                });
                assert_eq!(a, b, "{}", ctx("probe_mut"));
            }
            300..=599 => {
                let entry = random_entry(&mut g);
                assert_eq!(
                    flat.insert(key, entry),
                    reference.insert(key, entry),
                    "{}",
                    ctx("insert")
                );
            }
            600..=649 => assert_eq!(flat.touch(key), reference.touch(key), "{}", ctx("touch")),
            650..=679 => assert_eq!(flat.remove(key), reference.remove(key), "{}", ctx("remove")),
            680..=709 => assert_eq!(
                flat.peek_victim(key),
                reference.peek_victim(key),
                "{}",
                ctx("peek_victim")
            ),
            710..=759 => {
                // Least-inclusive move-on-hit: lookup, then remove on a hit.
                let want = reference.lookup(key);
                if want.is_some() {
                    reference.remove(key);
                }
                assert_eq!(flat.lookup_take(key), want, "{}", ctx("lookup_take"));
            }
            760..=899 => {
                // IOMMU insert: probe for the old payload, then insert.
                let entry = random_entry(&mut g);
                let old = reference.probe(key).copied();
                let want = match (old, reference.insert(key, entry)) {
                    (Some(old), None) => Displaced::Updated(old),
                    (None, Some((vk, ve))) => Displaced::Evicted(vk, ve),
                    (None, None) => Displaced::Nothing,
                    (Some(_), Some(_)) => unreachable!("a present key never evicts"),
                };
                assert_eq!(
                    flat.insert_displacing(key, entry),
                    want,
                    "{}",
                    ctx("insert_displacing")
                );
            }
            900..=999 => {
                // L2 install of a racing duplicate: touch, then probe_mut.
                let credits = g.below(3) as u8;
                let want = if reference.touch(key) {
                    reference.probe_mut(key).map(|e| {
                        e.spill_credits = e.spill_credits.max(credits);
                        *e
                    })
                } else {
                    None
                };
                let got = flat.touch_mut(key).map(|e| {
                    e.spill_credits = e.spill_credits.max(credits);
                    *e
                });
                assert_eq!(got, want, "{}", ctx("touch_mut"));
            }
            1000 => assert_eq!(
                flat.invalidate_asid(key.asid),
                reference.invalidate_asid(key.asid),
                "{}",
                ctx("invalidate_asid")
            ),
            _ => assert_eq!(flat.flush(), reference.flush(), "{}", ctx("flush")),
        }
        assert_eq!(*flat.stats(), reference.stats, "{}: stats", ctx("after"));
        assert_eq!(flat.len(), reference.len, "{}: len", ctx("after"));
        assert_eq!(
            flat.resident_keys(),
            reference.resident_keys(),
            "{}: resident keys",
            ctx("after")
        );
    }
    flat.check_structure();
    *flat.stats()
}

/// Every (geometry, policy) pair: at least 10 000 ops, and enough for the
/// largest geometry to fill its sets and evict many times over.
fn differential(entries: usize, ways: usize) {
    for (i, policy) in [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Random,
    ]
    .into_iter()
    .enumerate()
    {
        let config = TlbConfig::new(entries, ways, policy);
        let ops = 10_000.max(8 * entries);
        let stats = drive(config, 0x7e57 + (entries * 8 + i) as u64, ops);
        assert!(
            stats.hits > 0 && stats.evictions > 0 && stats.removals > 0,
            "{entries}x{ways} {policy:?}: op mix left a path unexercised: {stats:?}"
        );
    }
}

#[test]
fn direct_mapped_4x1() {
    differential(4, 1);
}

#[test]
fn fully_associative_16() {
    differential(16, 16);
}

#[test]
fn set_associative_16x4() {
    differential(16, 4);
}

/// Eight ways: one tag word per set.
#[test]
fn one_word_64x8() {
    differential(64, 8);
}

/// Twelve ways: not a multiple of 8, so tags are scanned byte by byte.
#[test]
fn byte_loop_48x12() {
    differential(48, 12);
}

#[test]
fn l2_geometry_512x16() {
    differential(512, 16);
}

#[test]
fn iommu_geometry_4096x64() {
    differential(4096, 64);
}
