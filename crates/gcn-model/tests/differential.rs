//! Differential test: the flat MSHR table against a reference
//! `BTreeMap`-backed implementation of the same contract.
//!
//! The reference model is the storage this crate shipped before the flat
//! rebuild: a `BTreeMap` from key to a `Vec` of waiters. Randomized op mixes
//! (the splitmix64 recurrence the repo's other property suites use; no
//! external RNG) drive both. Each mix draws keys from a pool whose size
//! sets how far the table grows, with register-heavy and drain-heavy
//! phases so it both fills and empties. After every op the outcome, the
//! drained waiter sequence (order included) and `len` must agree. With
//! `--features check` the flat table also validates its whole structure
//! after every mutation.

use std::collections::BTreeMap;

use gcn_model::{MshrOutcome, MshrTable, Waiter};
use mgpu_types::{Asid, CuId, TranslationKey, VirtPage, WavefrontId};

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

/// Reference implementation: the pre-rebuild `BTreeMap` MSHR table.
#[derive(Default)]
struct RefMshr {
    pending: BTreeMap<TranslationKey, Vec<Waiter>>,
}

impl RefMshr {
    fn register(&mut self, key: TranslationKey, waiter: Waiter) -> MshrOutcome {
        if let Some(waiters) = self.pending.get_mut(&key) {
            waiters.push(waiter);
            MshrOutcome::Secondary
        } else {
            self.pending.insert(key, vec![waiter]);
            MshrOutcome::Primary
        }
    }

    fn drain(&mut self, key: TranslationKey) -> Vec<Waiter> {
        self.pending.remove(&key).unwrap_or_default()
    }
}

/// A pool of `n` keys: mostly dense VPNs in a few ASIDs, plus keys near
/// the all-ones key and keys that differ only in high VPN bits.
fn key_pool(g: &mut Gen, n: usize) -> Vec<TranslationKey> {
    (0..n)
        .map(|i| {
            let i = i as u64;
            match g.below(8) {
                0 => TranslationKey::new(Asid(u16::MAX), VirtPage(u64::MAX - i)),
                1 => TranslationKey::new(Asid(1), VirtPage(i << 40)),
                _ => TranslationKey::new(Asid(g.below(3) as u16), VirtPage(i * 7 + g.below(4))),
            }
        })
        .collect()
}

fn run_mix(seed: u64, pool: usize, ops: usize) {
    let mut g = Gen(seed);
    let keys = key_pool(&mut g, pool);
    let mut flat = MshrTable::new();
    let mut reference = RefMshr::default();
    let mut drained = 0usize;
    for op in 0..ops {
        // Phases of 1,000 ops alternate between filling (3 registers per
        // drain) and emptying (1 per 3).
        let filling = (op / 1000) % 2 == 0;
        let register = g.below(4) < if filling { 3 } else { 1 };
        let key = keys[g.below(pool as u64) as usize];
        if register {
            let w = Waiter {
                cu: CuId(g.below(4) as u16),
                wf: WavefrontId(g.below(4) as u16),
            };
            assert_eq!(
                flat.register(key, w),
                reference.register(key, w),
                "seed {seed} op {op}: register {key:?}"
            );
        } else {
            let got = Vec::from(flat.drain(key));
            let want = reference.drain(key);
            assert_eq!(got, want, "seed {seed} op {op}: drain {key:?}");
            drained += got.len();
        }
        assert_eq!(
            flat.len(),
            reference.pending.len(),
            "seed {seed} op {op}: len"
        );
        assert_eq!(flat.is_empty(), reference.pending.is_empty());
    }
    assert!(drained > 0, "seed {seed}: the mix drained nothing");
}

#[test]
fn few_keys_many_merges() {
    for seed in 0..3 {
        run_mix(seed, 8, 10_000);
    }
}

#[test]
fn replay_occupancy() {
    for seed in 10..13 {
        run_mix(seed, 128, 10_000);
    }
}

#[test]
fn growth_to_hundreds_of_keys() {
    for seed in 20..22 {
        run_mix(seed, 1024, 20_000);
    }
}
