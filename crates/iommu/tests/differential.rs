//! Differential test: the flat pending-request table against a reference
//! `BTreeMap`-backed implementation of the same contract.
//!
//! The reference model is the table this crate shipped before the flat
//! rebuild: a `BTreeMap` from key to an entry with a `Vec` of waiters,
//! driven through the old four-call arrival sequence (`is_live`,
//! `register`, `mark_probe`, `mark_walk`). The flat table takes the calls
//! that replace it: `merge`, then `launch` with the responders sent.
//! Randomized op mixes (the splitmix64 recurrence the repo's other
//! property suites use; no external RNG) issue only the responses the
//! reference still owes, as the simulator does. After every op the
//! returned waiter sequences (order included), `len` and the op key's
//! liveness must agree. Each mix also counts the cases it reached —
//! tombstone re-arms, straggler probes serving a new generation,
//! cancelled walks, duplicate requesters, multi-waiter serves and growth
//! past 256 entries — and fails if one never happened. With
//! `--features check` the flat table also validates its whole structure
//! after every mutation.

use std::collections::BTreeMap;

use iommu::PendingTable;
use mgpu_types::{Asid, GpuId, TranslationKey, VirtPage};

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

#[derive(Debug, Clone)]
struct RefEntry {
    waiters: Vec<GpuId>,
    served: bool,
    walks: u32,
    probes: u32,
}

impl RefEntry {
    fn finished(&self) -> bool {
        self.served && self.walks == 0 && self.probes == 0
    }
}

/// Reference implementation: the pre-rebuild `BTreeMap` pending table.
#[derive(Default)]
struct RefPending {
    entries: BTreeMap<TranslationKey, RefEntry>,
}

impl RefPending {
    fn is_live(&self, key: TranslationKey) -> bool {
        self.entries.get(&key).is_some_and(|e| !e.served)
    }

    /// Returns whether the requester merged onto a live entry.
    fn register(&mut self, key: TranslationKey, requester: GpuId) -> bool {
        match self.entries.get_mut(&key) {
            Some(e) if !e.served => {
                if !e.waiters.contains(&requester) {
                    e.waiters.push(requester);
                }
                true
            }
            Some(e) => {
                e.served = false;
                e.waiters.clear();
                e.waiters.push(requester);
                false
            }
            None => {
                self.entries.insert(
                    key,
                    RefEntry {
                        waiters: vec![requester],
                        served: false,
                        walks: 0,
                        probes: 0,
                    },
                );
                false
            }
        }
    }

    fn mark_walk(&mut self, key: TranslationKey) {
        self.entries.get_mut(&key).expect("registered").walks += 1;
    }

    fn mark_probe(&mut self, key: TranslationKey) {
        self.entries.get_mut(&key).expect("registered").probes += 1;
    }

    fn walk_result(&mut self, key: TranslationKey) -> Option<Vec<GpuId>> {
        let e = self.entries.get_mut(&key)?;
        e.walks = e.walks.saturating_sub(1);
        let waiters = if e.served {
            None
        } else {
            e.served = true;
            Some(std::mem::take(&mut e.waiters))
        };
        if e.finished() {
            self.entries.remove(&key);
        }
        waiters
    }

    fn cancel_walk(&mut self, key: TranslationKey) {
        if let Some(e) = self.entries.get_mut(&key) {
            e.walks = e.walks.saturating_sub(1);
            if e.finished() {
                self.entries.remove(&key);
            }
        }
    }

    fn probe_result(&mut self, key: TranslationKey, hit: bool) -> Option<Vec<GpuId>> {
        let e = self.entries.get_mut(&key)?;
        e.probes = e.probes.saturating_sub(1);
        let waiters = if hit && !e.served {
            e.served = true;
            Some(std::mem::take(&mut e.waiters))
        } else {
            None
        };
        if e.finished() {
            self.entries.remove(&key);
        }
        waiters
    }
}

/// How often each interesting case occurred in one mix.
#[derive(Debug, Default)]
struct Reached {
    rearms: u32,
    straggler_serves: u32,
    cancels_releasing: u32,
    duplicate_merges: u32,
    multi_waiter_serves: u32,
    peak_len: usize,
}

/// A pool of `n` keys: dense VPNs in a few ASIDs, keys near the all-ones
/// key and keys that differ only in high VPN bits.
fn key_pool(g: &mut Gen, n: usize) -> Vec<TranslationKey> {
    (0..n)
        .map(|i| {
            let i = i as u64;
            match g.below(8) {
                0 => TranslationKey::new(Asid(u16::MAX), VirtPage(u64::MAX - i)),
                1 => TranslationKey::new(Asid(1), VirtPage(i << 40)),
                _ => TranslationKey::new(Asid(g.below(3) as u16), VirtPage(i * 3 + g.below(2))),
            }
        })
        .collect()
}

fn served(list: Option<mgpu_types::WaitList<GpuId>>) -> Option<Vec<GpuId>> {
    list.map(Vec::from)
}

fn run_mix(seed: u64, pool: usize, ops: usize) -> Reached {
    let mut g = Gen(seed);
    let keys = key_pool(&mut g, pool);
    let mut flat = PendingTable::new();
    let mut reference = RefPending::default();
    let mut reached = Reached::default();
    // Keys re-armed without a probe while the old generation still owed
    // one: until the new generation is served, a probe that serves it is
    // a straggler.
    let mut stragglers: Vec<TranslationKey> = Vec::new();
    for op in 0..ops {
        // Phases of 2,000 ops alternate between arrivals and responses,
        // so the table fills up and drains again.
        let arriving = (op / 2000) % 2 == 0;
        let key = keys[g.below(pool as u64) as usize];
        let gpu = GpuId(g.below(4) as u8);
        let owed = reference.entries.get(&key).map(|e| (e.walks, e.probes));
        let roll = g.below(16);
        let ctx = format!("seed {seed} op {op} key {key:?}");
        if roll < if arriving { 10 } else { 4 } {
            // An arrival, as `on_iommu_arrive` handles it.
            let live = reference.is_live(key);
            if live && reference.entries[&key].waiters.contains(&gpu) {
                reached.duplicate_merges += 1;
            }
            let want = live && reference.register(key, gpu);
            assert_eq!(flat.merge(key, gpu), want, "{ctx}: merge");
            // One arrival in eight hits the IOMMU TLB and launches nothing.
            if !want && g.below(8) != 0 {
                let (probe, walk) = match g.below(3) {
                    0 => (false, true),
                    1 => (true, true),
                    _ => (true, false),
                };
                if owed.is_some() {
                    reached.rearms += 1;
                }
                stragglers.retain(|&k| k != key);
                if !probe && owed.is_some_and(|(_, probes)| probes > 0) {
                    stragglers.push(key);
                }
                assert!(!reference.register(key, gpu));
                if probe {
                    reference.mark_probe(key);
                }
                if walk {
                    reference.mark_walk(key);
                }
                flat.launch(key, gpu, probe, walk);
            }
        } else {
            match roll % 6 {
                0 | 1 if owed.is_none_or(|(walks, _)| walks > 0) => {
                    let want = reference.walk_result(key);
                    if want.as_ref().is_some_and(|w| w.len() > 1) {
                        reached.multi_waiter_serves += 1;
                    }
                    assert_eq!(served(flat.walk_result(key)), want, "{ctx}: walk_result");
                }
                2 | 3 if owed.is_none_or(|(_, probes)| probes > 0) => {
                    let hit = g.below(2) == 0;
                    let want = reference.probe_result(key, hit);
                    if want.is_some() && stragglers.contains(&key) {
                        reached.straggler_serves += 1;
                    }
                    assert_eq!(
                        served(flat.probe_result(key, hit)),
                        want,
                        "{ctx}: probe_result"
                    );
                }
                4 => {
                    let before = reference.entries.contains_key(&key);
                    reference.cancel_walk(key);
                    if before && !reference.entries.contains_key(&key) {
                        reached.cancels_releasing += 1;
                    }
                    flat.cancel_walk(key);
                }
                5 => {
                    // The serialized variant's walk after a probe miss.
                    let want = reference.is_live(key);
                    if want {
                        reference.mark_walk(key);
                    }
                    assert_eq!(flat.walk_if_live(key), want, "{ctx}: walk_if_live");
                }
                _ if owed.is_some() => {
                    // The perfbench ledger's path: register, then mark_walk.
                    let want = reference.register(key, gpu);
                    reference.mark_walk(key);
                    assert_eq!(flat.register(key, gpu), want, "{ctx}: register");
                    flat.mark_walk(key);
                }
                _ => {}
            }
        }
        if !reference.is_live(key) {
            stragglers.retain(|&k| k != key);
        }
        assert_eq!(flat.len(), reference.entries.len(), "{ctx}: len");
        assert_eq!(flat.is_live(key), reference.is_live(key), "{ctx}: is_live");
        reached.peak_len = reached.peak_len.max(flat.len());
    }
    reached
}

fn assert_reached_all(r: &Reached, min_peak: usize) {
    assert!(r.rearms > 0, "no tombstone re-arm: {r:?}");
    assert!(r.straggler_serves > 0, "no straggler probe served: {r:?}");
    assert!(
        r.cancels_releasing > 0,
        "no cancel released an entry: {r:?}"
    );
    assert!(r.duplicate_merges > 0, "no duplicate requester: {r:?}");
    assert!(r.multi_waiter_serves > 0, "no multi-waiter serve: {r:?}");
    assert!(
        r.peak_len >= min_peak,
        "peak {} < {min_peak}: {r:?}",
        r.peak_len
    );
}

#[test]
fn few_keys_races_and_rearms() {
    for seed in 0..3 {
        assert_reached_all(&run_mix(seed, 8, 10_000), 4);
    }
}

#[test]
fn replay_occupancy() {
    for seed in 10..13 {
        assert_reached_all(&run_mix(seed, 400, 20_000), 256);
    }
}
