//! Miss-status holding registers for the per-GPU L2 TLB.

use mgpu_types::{CuId, FlatEntry, FlatMap, TranslationKey, WaitList, WavefrontId};

/// A wavefront waiting on an outstanding translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Waiter {
    /// Compute unit the wavefront belongs to.
    pub cu: CuId,
    /// Wavefront context within the CU.
    pub wf: WavefrontId,
}

/// Outcome of registering a miss in the MSHR table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// First miss for this key — the caller must launch the fill (send the
    /// ATS request toward the IOMMU).
    Primary,
    /// A fill for this key is already outstanding — the waiter was merged.
    Secondary,
}

/// MSHR table: coalesces concurrent L2 TLB misses to the same translation.
///
/// The paper's configuration does not bound the MSHR count, so neither
/// does the table. Entries live in a [`FlatMap`]; each register and each
/// drain finds its entry with one search, and a waiter list allocates
/// only when a second wavefront merges onto a miss.
///
/// # Examples
///
/// ```
/// use gcn_model::{MshrTable, MshrOutcome, Waiter};
/// use mgpu_types::{Asid, CuId, TranslationKey, VirtPage, WavefrontId};
///
/// let mut t = MshrTable::new();
/// let key = TranslationKey::new(Asid(0), VirtPage(1));
/// let w = Waiter { cu: CuId(0), wf: WavefrontId(0) };
/// assert_eq!(t.register(key, w), MshrOutcome::Primary);
/// assert_eq!(t.register(key, w), MshrOutcome::Secondary);
/// assert_eq!(t.drain(key).len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MshrTable {
    pending: FlatMap<TranslationKey, WaitList<Waiter>>,
}

impl MshrTable {
    /// An empty table. Allocates nothing until the first miss.
    #[must_use]
    pub fn new() -> Self {
        MshrTable::default()
    }

    /// Registers `waiter` as waiting on `key`.
    pub fn register(&mut self, key: TranslationKey, waiter: Waiter) -> MshrOutcome {
        match self.pending.entry(key) {
            FlatEntry::Occupied(e) => {
                e.into_mut().push(waiter);
                MshrOutcome::Secondary
            }
            FlatEntry::Vacant(e) => {
                e.insert(WaitList::one(waiter));
                MshrOutcome::Primary
            }
        }
    }

    /// Completes the fill for `key`, returning every merged waiter in
    /// registration order (empty if no miss was outstanding — e.g. a
    /// duplicate response discarded by the IOMMU's pending-request table).
    pub fn drain(&mut self, key: TranslationKey) -> WaitList<Waiter> {
        self.pending.remove(key).unwrap_or_default()
    }

    /// Number of distinct outstanding keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no miss is outstanding.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_types::{Asid, VirtPage};

    fn key(v: u64) -> TranslationKey {
        TranslationKey::new(Asid(0), VirtPage(v))
    }

    fn waiter(cu: u16, wf: u16) -> Waiter {
        Waiter {
            cu: CuId(cu),
            wf: WavefrontId(wf),
        }
    }

    #[test]
    fn primary_then_secondary() {
        let mut t = MshrTable::new();
        assert_eq!(t.register(key(1), waiter(0, 0)), MshrOutcome::Primary);
        assert_eq!(t.register(key(1), waiter(1, 0)), MshrOutcome::Secondary);
        assert_eq!(t.register(key(2), waiter(2, 0)), MshrOutcome::Primary);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn drain_returns_all_waiters_in_order() {
        let mut t = MshrTable::new();
        t.register(key(1), waiter(0, 0));
        t.register(key(1), waiter(0, 1));
        t.register(key(1), waiter(3, 2));
        let drained = Vec::from(t.drain(key(1)));
        assert_eq!(drained, vec![waiter(0, 0), waiter(0, 1), waiter(3, 2)]);
        assert!(t.is_empty());
        assert!(t.drain(key(1)).is_empty());
    }
}
