//! The ATS pending-request table (paper §4.1).
//!
//! least-TLB races a remote-GPU L2 probe against the page-table walk; the
//! IOMMU records in-flight requests so that (a) concurrent requests for the
//! same translation merge instead of launching duplicate walks, and (b) the
//! translation is served by "whichever comes first" while the loser's
//! response is discarded.
//!
//! An entry tracks how many responders (walks, probes) are still
//! outstanding. A *served* entry whose losing responder has not returned
//! yet is a **tombstone**: a new request for the same key must not merge
//! onto it (its waiters would never be served) — instead the entry is
//! re-armed for a fresh walk, and any straggler responder from the previous
//! generation is allowed to serve the new waiters early.

use mgpu_types::{FlatEntry, FlatMap, GpuId, TranslationKey, WaitList};

#[derive(Debug, Clone)]
struct PendingEntry {
    waiters: WaitList<GpuId>,
    served: bool,
    walks: u32,
    probes: u32,
}

impl PendingEntry {
    fn finished(&self) -> bool {
        self.served && self.walks == 0 && self.probes == 0
    }
}

/// Table of translations with an in-flight walk and/or remote probe.
///
/// Entries live in a [`FlatMap`], and each call except
/// [`register`](Self::register) finds its entry with one search. An
/// arriving request calls [`merge`](Self::merge) and, when nothing was
/// live, [`launch`](Self::launch) with the responders it sends; each
/// response calls one of the result methods. Waiters are served in the
/// order they registered.
///
/// # Examples
///
/// ```
/// use iommu::PendingTable;
/// use mgpu_types::{Asid, GpuId, TranslationKey, VirtPage};
///
/// let mut t = PendingTable::new();
/// let key = TranslationKey::new(Asid(0), VirtPage(8));
/// assert!(!t.merge(key, GpuId(0)), "nothing in flight yet");
/// t.launch(key, GpuId(0), false, true);
/// assert!(t.merge(key, GpuId(1)));
/// // The walk returns and serves GPUs 0 and 1:
/// let served = t.walk_result(key).map(Vec::from);
/// assert_eq!(served, Some(vec![GpuId(0), GpuId(1)]));
/// assert!(t.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct PendingTable {
    entries: FlatMap<TranslationKey, PendingEntry>,
}

impl PendingTable {
    /// Creates an empty table. Allocates nothing until the first request.
    #[must_use]
    pub fn new() -> Self {
        PendingTable::default()
    }

    /// Number of entries (live and tombstone).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `key` has a *live* (not yet served) entry that new
    /// requesters may merge onto.
    #[must_use]
    pub fn is_live(&self, key: TranslationKey) -> bool {
        self.entries.get(key).is_some_and(|e| !e.served)
    }

    /// Merges `requester` onto the live entry for `key` (once per GPU).
    /// Returns `false`, changing nothing, when no live entry exists.
    pub fn merge(&mut self, key: TranslationKey, requester: GpuId) -> bool {
        match self.entries.get_mut(key) {
            Some(e) if !e.served => {
                if !e.waiters.contains(requester) {
                    e.waiters.push(requester);
                }
                true
            }
            _ => false,
        }
    }

    /// Starts a request generation for `key` with `requester` as its only
    /// waiter, counting the responders launched for it (a remote `probe`,
    /// a `walk`). Call it when [`merge`](Self::merge) found nothing live.
    ///
    /// A tombstone is re-armed: straggler responders from the old
    /// generation remain counted and may serve the new waiter early.
    pub fn launch(&mut self, key: TranslationKey, requester: GpuId, probe: bool, walk: bool) {
        let (probes, walks) = (u32::from(probe), u32::from(walk));
        match self.entries.entry(key) {
            FlatEntry::Occupied(e) => {
                let e = e.into_mut();
                if cfg!(any(debug_assertions, feature = "check")) {
                    assert!(e.served, "launch over a live entry drops its waiters");
                }
                e.served = false;
                // A served entry's waiters were handed out when it was
                // served, so the new generation starts from this one.
                e.waiters = WaitList::one(requester);
                e.probes += probes;
                e.walks += walks;
            }
            FlatEntry::Vacant(e) => {
                e.insert(PendingEntry {
                    waiters: WaitList::one(requester),
                    served: false,
                    walks,
                    probes,
                });
            }
        }
    }

    /// Registers `requester` as waiting on `key`: merges onto a live entry
    /// (returns `true`), or creates or re-arms one with no responder
    /// counted yet (returns `false`; the caller then launches a walk and
    /// records it with [`mark_walk`](Self::mark_walk)).
    pub fn register(&mut self, key: TranslationKey, requester: GpuId) -> bool {
        self.merge(key, requester) || {
            self.launch(key, requester, false, false);
            false
        }
    }

    /// Records that a walk (or an equivalent fault-handling response) was
    /// launched for `key`.
    ///
    /// # Panics
    ///
    /// Panics if no entry exists — walks are only launched for registered
    /// requests.
    pub fn mark_walk(&mut self, key: TranslationKey) {
        self.entries
            .get_mut(key)
            // sim-lint: allow(panic-reach, reason = "documented API contract: walks are only launched for registered requests")
            .expect("walk launched without a pending entry")
            .walks += 1;
    }

    /// Records a walk for `key` if its entry is live (the serialized
    /// variant's walk after a probe miss). Returns whether it did.
    pub fn walk_if_live(&mut self, key: TranslationKey) -> bool {
        match self.entries.get_mut(key) {
            Some(e) if !e.served => {
                e.walks += 1;
                true
            }
            _ => false,
        }
    }

    /// A walk (or fault) completes. Returns the waiters to serve if this
    /// response wins the race, or `None` if the entry was already served
    /// (duplicate discarded, paper §4.1).
    pub fn walk_result(&mut self, key: TranslationKey) -> Option<WaitList<GpuId>> {
        let FlatEntry::Occupied(mut slot) = self.entries.entry(key) else {
            return None;
        };
        let e = slot.get_mut();
        if cfg!(any(debug_assertions, feature = "check")) {
            assert!(e.walks > 0, "walk completion without outstanding walk");
        }
        e.walks = e.walks.saturating_sub(1);
        let waiters = (!e.served).then(|| {
            e.served = true;
            std::mem::take(&mut e.waiters)
        });
        if e.finished() {
            slot.remove();
        }
        waiters
    }

    /// The queued (never-started) walk for `key` was cancelled because the
    /// probe won the race while the walk sat in the walker backlog.
    pub fn cancel_walk(&mut self, key: TranslationKey) {
        if let FlatEntry::Occupied(mut slot) = self.entries.entry(key) {
            let e = slot.get_mut();
            e.walks = e.walks.saturating_sub(1);
            if e.finished() {
                slot.remove();
            }
        }
    }

    /// A remote probe returns. Returns the waiters to serve if the probe
    /// hit and wins the race; `None` on a miss or a lost race.
    pub fn probe_result(&mut self, key: TranslationKey, hit: bool) -> Option<WaitList<GpuId>> {
        let FlatEntry::Occupied(mut slot) = self.entries.entry(key) else {
            return None;
        };
        let e = slot.get_mut();
        if cfg!(any(debug_assertions, feature = "check")) {
            assert!(e.probes > 0, "probe completion without outstanding probe");
        }
        e.probes = e.probes.saturating_sub(1);
        let waiters = (hit && !e.served).then(|| {
            e.served = true;
            std::mem::take(&mut e.waiters)
        });
        if e.finished() {
            slot.remove();
        }
        waiters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_types::{Asid, VirtPage};

    fn key(v: u64) -> TranslationKey {
        TranslationKey::new(Asid(0), VirtPage(v))
    }

    fn gpus(served: Option<WaitList<GpuId>>) -> Option<Vec<GpuId>> {
        served.map(Vec::from)
    }

    #[test]
    fn walk_only_lifecycle() {
        let mut t = PendingTable::new();
        assert!(!t.merge(key(1), GpuId(0)));
        assert!(t.is_empty(), "a failed merge changes nothing");
        t.launch(key(1), GpuId(0), false, true);
        assert!(t.is_live(key(1)));
        assert_eq!(gpus(t.walk_result(key(1))), Some(vec![GpuId(0)]));
        assert!(t.is_empty());
    }

    #[test]
    fn register_then_mark_walk_matches_launch() {
        let mut t = PendingTable::new();
        assert!(!t.register(key(1), GpuId(0)));
        t.mark_walk(key(1));
        assert!(t.register(key(1), GpuId(1)));
        assert_eq!(gpus(t.walk_result(key(1))), Some(vec![GpuId(0), GpuId(1)]));
        assert!(t.is_empty());
    }

    #[test]
    fn duplicate_waiters_are_deduped() {
        let mut t = PendingTable::new();
        t.launch(key(1), GpuId(2), false, true);
        assert!(t.merge(key(1), GpuId(2)));
        assert_eq!(gpus(t.walk_result(key(1))), Some(vec![GpuId(2)]));
    }

    #[test]
    fn probe_wins_then_walk_discarded() {
        let mut t = PendingTable::new();
        t.launch(key(1), GpuId(0), true, true);
        assert_eq!(gpus(t.probe_result(key(1), true)), Some(vec![GpuId(0)]));
        assert!(!t.is_live(key(1)), "tombstone awaits the walk");
        assert!(!t.is_empty());
        assert!(t.walk_result(key(1)).is_none(), "duplicate discarded");
        assert!(t.is_empty());
    }

    #[test]
    fn walk_wins_then_probe_miss_cleans_up() {
        let mut t = PendingTable::new();
        t.launch(key(1), GpuId(0), true, true);
        assert_eq!(gpus(t.walk_result(key(1))), Some(vec![GpuId(0)]));
        assert!(!t.is_empty());
        assert!(t.probe_result(key(1), false).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn probe_miss_before_walk_keeps_entry_live() {
        let mut t = PendingTable::new();
        t.launch(key(1), GpuId(0), true, true);
        assert!(t.probe_result(key(1), false).is_none());
        assert!(t.is_live(key(1)), "walk still owes a response");
        assert_eq!(gpus(t.walk_result(key(1))), Some(vec![GpuId(0)]));
        assert!(t.is_empty());
    }

    #[test]
    fn serialized_probe_miss_then_walk() {
        let mut t = PendingTable::new();
        t.launch(key(1), GpuId(0), true, false);
        assert!(t.probe_result(key(1), false).is_none());
        assert!(t.walk_if_live(key(1)));
        assert_eq!(gpus(t.walk_result(key(1))), Some(vec![GpuId(0)]));
        assert!(t.is_empty());
        assert!(!t.walk_if_live(key(1)), "nothing live to walk for");
    }

    #[test]
    fn tombstone_rearm_does_not_lose_new_waiters() {
        // The regression that starved wavefronts: walk serves while a probe
        // is still out; a NEW request arrives; it must not merge onto the
        // tombstone.
        let mut t = PendingTable::new();
        t.launch(key(1), GpuId(0), true, true);
        assert_eq!(gpus(t.walk_result(key(1))), Some(vec![GpuId(0)]));
        // New request while the old probe is still in flight.
        assert!(!t.is_live(key(1)));
        assert!(!t.merge(key(1), GpuId(2)));
        t.launch(key(1), GpuId(2), false, true);
        // The straggler probe returns with a hit: it may serve GPU2 early.
        assert_eq!(gpus(t.probe_result(key(1), true)), Some(vec![GpuId(2)]));
        // The new walk's result is then discarded.
        assert!(t.walk_result(key(1)).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn straggler_probe_miss_leaves_new_walk_live() {
        let mut t = PendingTable::new();
        t.launch(key(1), GpuId(0), true, true);
        assert_eq!(gpus(t.walk_result(key(1))), Some(vec![GpuId(0)]));
        t.launch(key(1), GpuId(3), false, true);
        assert!(t.probe_result(key(1), false).is_none());
        assert!(t.is_live(key(1)));
        assert_eq!(gpus(t.walk_result(key(1))), Some(vec![GpuId(3)]));
        assert!(t.is_empty());
    }

    #[test]
    fn unknown_key_results_are_none() {
        let mut t = PendingTable::new();
        assert!(t.walk_result(key(9)).is_none());
        assert!(t.probe_result(key(9), true).is_none());
    }

    #[test]
    fn cancelled_walk_cleans_up_served_entries() {
        let mut t = PendingTable::new();
        t.launch(key(1), GpuId(0), true, true);
        // Probe wins; the queued walk is cancelled instead of completing.
        assert_eq!(gpus(t.probe_result(key(1), true)), Some(vec![GpuId(0)]));
        t.cancel_walk(key(1));
        assert!(t.is_empty(), "cancel releases the tombstone");
        // Cancelling an unknown key is a no-op.
        t.cancel_walk(key(9));
    }

    #[test]
    fn merged_requesters_all_served() {
        let mut t = PendingTable::new();
        t.launch(key(1), GpuId(0), false, true);
        assert!(t.merge(key(1), GpuId(3)));
        assert_eq!(t.len(), 1);
        assert_eq!(gpus(t.walk_result(key(1))), Some(vec![GpuId(0), GpuId(3)]));
    }
}
