//! A flat, fixed-hash table for in-flight state, and its waiter list
//! (DESIGN.md §10.7).

use crate::{GpuId, TranslationKey};

/// Fibonacci-hashing multiplier (2^64 / golden ratio), as in the TLB tag.
const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// Slot count of the first allocation.
const MIN_SLOTS: usize = 8;

/// A key of a [`FlatMap`]: a copyable value with a fixed 64-bit hash.
///
/// The map uses the hash's top bits, so the hash must spread its input
/// into the high bits (a multiply by an odd constant does).
pub trait FlatKey: Copy + Eq {
    /// The key's hash. Must be a pure function of the key.
    fn flat_hash(self) -> u64;
}

impl FlatKey for TranslationKey {
    #[inline]
    fn flat_hash(self) -> u64 {
        (self.vpn.0 ^ (u64::from(self.asid.0) << 48)).wrapping_mul(MIX)
    }
}

impl FlatKey for (GpuId, TranslationKey) {
    #[inline]
    fn flat_hash(self) -> u64 {
        let (gpu, key) = self;
        (key.vpn.0 ^ (u64::from(key.asid.0) << 48) ^ (u64::from(gpu.0) << 40)).wrapping_mul(MIX)
    }
}

/// Open-addressing hash map for point-wise, never-iterated state.
///
/// The translation path keeps three per-key tables of requests in flight:
/// the L2-TLB MSHRs, the IOMMU pending-request table and the ring-probe
/// state. Each sees one insert and one removal per request and is only
/// ever read point-wise, never iterated. This map serves them from one
/// contiguous slot array:
///
/// - open addressing with linear probing over a power-of-two slot count,
///   kept at most half full, so a search ends at the first empty slot;
/// - a fixed multiplicative hash ([`FlatKey`]) whose top bits pick the
///   home slot — no `RandomState`, no per-process seed;
/// - backward-shift deletion: a removal pulls the rest of its cluster back
///   over the hole, so no tombstones accumulate;
/// - lazy allocation: [`FlatMap::new`] allocates nothing.
///
/// The map has no iterator. Nothing can observe its slot order, and the
/// slot order is itself a pure function of the operation sequence, so the
/// table is as deterministic as [`DetMap`](crate::DetMap). Maps that are
/// iterated stay `DetMap`.
///
/// [`WaitList`] is the matching waiter list: the first waiter is stored
/// inline and a heap list is allocated only when a second one merges.
///
/// # Examples
///
/// ```
/// use mgpu_types::{Asid, FlatEntry, FlatMap, TranslationKey, VirtPage};
///
/// let key = TranslationKey::new(Asid(0), VirtPage(7));
/// let mut m: FlatMap<TranslationKey, u32> = FlatMap::new();
/// m.insert(key, 1);
/// if let FlatEntry::Occupied(mut e) = m.entry(key) {
///     *e.get_mut() += 1;
///     assert_eq!(e.remove(), 2);
/// }
/// assert!(m.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct FlatMap<K, V> {
    slots: Vec<Option<(K, V)>>,
    len: usize,
    /// `64 - log2(slots.len())`: the home slot is `hash >> shift`.
    shift: u32,
}

/// A view into one key's slot, from [`FlatMap::entry`].
pub enum FlatEntry<'a, K, V> {
    /// The key is present.
    Occupied(OccupiedEntry<'a, K, V>),
    /// The key is absent.
    Vacant(VacantEntry<'a, K, V>),
}

/// A present key's slot.
pub struct OccupiedEntry<'a, K, V> {
    map: &'a mut FlatMap<K, V>,
    slot: usize,
}

/// An absent key and the slot a search for it ended on.
pub struct VacantEntry<'a, K, V> {
    map: &'a mut FlatMap<K, V>,
    key: K,
    slot: usize,
}

impl<K: FlatKey, V> FlatMap<K, V> {
    /// Creates an empty map. Allocates nothing until the first insert.
    #[must_use]
    pub const fn new() -> Self {
        FlatMap {
            slots: Vec::new(),
            len: 0,
            shift: 64,
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len().wrapping_sub(1)
    }

    #[inline]
    fn home(&self, key: K) -> usize {
        // `shift` is 64 only while no slot exists, and no search reaches
        // here then.
        (key.flat_hash() >> self.shift) as usize
    }

    /// One search: `Ok(slot)` holding `key`, or `Err(slot)` for the empty
    /// slot that ends `key`'s probe sequence. At most half the slots are
    /// full, so every search ends.
    #[inline]
    fn find(&self, key: K) -> Result<usize, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            match &self.slots[i] {
                None => return Err(i),
                Some((k, _)) if *k == key => return Ok(i),
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// The value stored under `key`, if any.
    #[must_use]
    pub fn get(&self, key: K) -> Option<&V> {
        let slot = self.find(key).ok()?;
        self.slots[slot].as_ref().map(|(_, v)| v)
    }

    /// Mutable access to the value stored under `key`, if any.
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        let slot = self.find(key).ok()?;
        self.slots[slot].as_mut().map(|(_, v)| v)
    }

    /// The slot of `key`, present or absent, for in-place update.
    pub fn entry(&mut self, key: K) -> FlatEntry<'_, K, V> {
        match self.find(key) {
            Ok(slot) => FlatEntry::Occupied(OccupiedEntry { map: self, slot }),
            Err(slot) => FlatEntry::Vacant(VacantEntry {
                map: self,
                key,
                slot,
            }),
        }
    }

    /// Inserts `value` under `key`, returning the displaced value if the
    /// key was already present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.entry(key) {
            FlatEntry::Occupied(mut e) => Some(std::mem::replace(e.get_mut(), value)),
            FlatEntry::Vacant(e) => {
                e.insert(value);
                None
            }
        }
    }

    /// Removes and returns the value stored under `key`, if any.
    pub fn remove(&mut self, key: K) -> Option<V> {
        let slot = self.find(key).ok()?;
        self.take(slot).map(|(_, v)| v)
    }

    /// Empties `slot` and closes the hole by backward shift: each later
    /// entry of the cluster moves back into the hole unless its home lies
    /// cyclically after the hole (it would then be unreachable).
    fn take(&mut self, slot: usize) -> Option<(K, V)> {
        let taken = self.slots[slot].take()?;
        self.len -= 1;
        let mask = self.mask();
        let mut hole = slot;
        let mut next = (slot + 1) & mask;
        while let Some((k, _)) = &self.slots[next] {
            let displacement = next.wrapping_sub(self.home(*k)) & mask;
            if displacement >= next.wrapping_sub(hole) & mask {
                self.slots.swap(hole, next);
                hole = next;
            }
            next = (next + 1) & mask;
        }
        self.check_after_mutation();
        Some(taken)
    }

    /// Puts `(key, value)` into the map, where `slot` is the empty slot a
    /// search for the absent `key` ended on. Doubles the slot count first
    /// if the insert would fill more than half the slots.
    fn put(&mut self, mut slot: usize, key: K, value: V) -> usize {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
            // The key is absent, so the search ends on an empty slot.
            slot = self.find(key).unwrap_or_else(|empty| empty);
        }
        self.slots[slot] = Some((key, value));
        self.len += 1;
        self.check_after_mutation();
        slot
    }

    /// Doubles the slot count and re-places every entry, in old slot order.
    fn grow(&mut self) {
        let count = (self.slots.len() * 2).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, Vec::with_capacity(count));
        self.slots.resize_with(count, || None);
        self.shift = 64 - count.trailing_zeros();
        for (k, v) in old.into_iter().flatten() {
            let slot = self.find(k).unwrap_or_else(|empty| empty);
            self.slots[slot] = Some((k, v));
        }
    }

    /// Validates the structure: the slot count is 0 or a power of two with
    /// at most half the slots full, every resident key is reached from its
    /// home slot without crossing an empty slot (so a search finds it, and
    /// finds no earlier copy), and `len` equals the occupied slot count.
    ///
    /// # Panics
    ///
    /// Panics when an invariant is violated.
    pub fn check_structure(&self) {
        let n = self.slots.len();
        // sim-lint: allow(hygiene, reason = "test-facing checker whose whole contract is to panic on violation")
        assert!(
            n == 0 || (n.is_power_of_two() && self.shift == 64 - n.trailing_zeros()),
            "slot count {n} with shift {} is not a power-of-two table",
            self.shift
        );
        let mut occupied = 0;
        for (i, slot) in self.slots.iter().enumerate() {
            let Some((k, _)) = slot else {
                continue;
            };
            occupied += 1;
            // sim-lint: allow(hygiene, reason = "test-facing checker whose whole contract is to panic on violation")
            assert!(
                self.find(*k) == Ok(i),
                "slot {i}: key unreachable from its home slot {} or stored twice",
                self.home(*k)
            );
        }
        // sim-lint: allow(hygiene, reason = "test-facing checker whose whole contract is to panic on violation")
        assert!(
            occupied == self.len && occupied * 2 <= n,
            "len {} disagrees with {occupied} occupied of {n} slots",
            self.len
        );
    }

    /// Per-mutation invariant hook: the whole-table check under the `check`
    /// feature, nothing otherwise.
    #[inline]
    fn check_after_mutation(&self) {
        #[cfg(feature = "check")]
        self.check_structure();
    }
}

impl<K: FlatKey, V> Default for FlatMap<K, V> {
    fn default() -> Self {
        FlatMap::new()
    }
}

impl<'a, K: FlatKey, V> OccupiedEntry<'a, K, V> {
    /// Mutable access to the value.
    pub fn get_mut(&mut self) -> &mut V {
        match &mut self.map.slots[self.slot] {
            Some((_, v)) => v,
            // sim-lint: allow(panic-reach, reason = "an OccupiedEntry is built only for an occupied slot and holds the map's only borrow")
            None => unreachable!("occupied entry over an empty slot"),
        }
    }

    /// Converts into a mutable reference to the value.
    pub fn into_mut(self) -> &'a mut V {
        match &mut self.map.slots[self.slot] {
            Some((_, v)) => v,
            // sim-lint: allow(panic-reach, reason = "an OccupiedEntry is built only for an occupied slot and holds the map's only borrow")
            None => unreachable!("occupied entry over an empty slot"),
        }
    }

    /// Removes the entry, returning its value.
    pub fn remove(self) -> V {
        match self.map.take(self.slot) {
            Some((_, v)) => v,
            // sim-lint: allow(panic-reach, reason = "an OccupiedEntry is built only for an occupied slot and holds the map's only borrow")
            None => unreachable!("occupied entry over an empty slot"),
        }
    }
}

impl<'a, K: FlatKey, V> VacantEntry<'a, K, V> {
    /// Inserts `value` under the entry's key, returning a reference to it.
    pub fn insert(self, value: V) -> &'a mut V {
        let VacantEntry { map, key, slot } = self;
        let slot = map.put(slot, key, value);
        match &mut map.slots[slot] {
            Some((_, v)) => v,
            // sim-lint: allow(panic-reach, reason = "put has just filled this slot")
            None => unreachable!("slot filled by put"),
        }
    }
}

/// Requesters waiting on one in-flight entry, in registration order.
///
/// The first waiter is stored inline; the list allocates only when a
/// second waiter merges. Iteration yields the waiters in the order they
/// were pushed.
///
/// # Examples
///
/// ```
/// use mgpu_types::WaitList;
///
/// let mut w = WaitList::one(3u8);
/// w.push(5);
/// assert_eq!(w.first(), Some(3));
/// assert_eq!(w.into_iter().collect::<Vec<_>>(), vec![3, 5]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitList<T> {
    /// `None` only when the list is empty.
    head: Option<T>,
    rest: Vec<T>,
}

impl<T: Copy + PartialEq> WaitList<T> {
    /// An empty list. Allocates nothing.
    #[must_use]
    pub const fn new() -> Self {
        WaitList {
            head: None,
            rest: Vec::new(),
        }
    }

    /// A list of one waiter. Allocates nothing.
    #[must_use]
    pub const fn one(waiter: T) -> Self {
        WaitList {
            head: Some(waiter),
            rest: Vec::new(),
        }
    }

    /// Appends `waiter`.
    pub fn push(&mut self, waiter: T) {
        if self.head.is_none() {
            self.head = Some(waiter);
        } else {
            self.rest.push(waiter);
        }
    }

    /// Number of waiters.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::from(self.head.is_some()) + self.rest.len()
    }

    /// Whether the list holds no waiter.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.head.is_none()
    }

    /// The first-registered waiter.
    #[must_use]
    pub fn first(&self) -> Option<T> {
        self.head
    }

    /// Whether `waiter` is in the list.
    #[must_use]
    pub fn contains(&self, waiter: T) -> bool {
        self.head == Some(waiter) || self.rest.contains(&waiter)
    }
}

impl<T: Copy + PartialEq> Default for WaitList<T> {
    fn default() -> Self {
        WaitList::new()
    }
}

impl<T> IntoIterator for WaitList<T> {
    type Item = T;
    type IntoIter = std::iter::Chain<std::option::IntoIter<T>, std::vec::IntoIter<T>>;
    fn into_iter(self) -> Self::IntoIter {
        self.head.into_iter().chain(self.rest)
    }
}

impl<T> From<WaitList<T>> for Vec<T> {
    fn from(list: WaitList<T>) -> Vec<T> {
        list.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Asid, VirtPage};

    /// A key whose hash is its first field: `Pinned(h << 61, id)` has home
    /// slot `h` in an 8-slot table.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Pinned(u64, u32);

    impl FlatKey for Pinned {
        fn flat_hash(self) -> u64 {
            self.0
        }
    }

    /// The key with home slot `home` of an 8-slot table.
    fn at(home: u64, id: u32) -> Pinned {
        Pinned(home << 61, id)
    }

    fn slot_of(m: &FlatMap<Pinned, u32>, k: Pinned) -> Option<usize> {
        m.find(k).ok()
    }

    #[test]
    fn new_allocates_nothing() {
        let m: FlatMap<TranslationKey, u32> = FlatMap::new();
        assert_eq!(m.slots.len(), 0);
        assert!(m.is_empty());
        assert_eq!(m.get(TranslationKey::default()), None);
        let mut m = m;
        assert_eq!(m.remove(TranslationKey::default()), None);
        assert_eq!(m.slots.len(), 0, "a miss allocates nothing");
        m.check_structure();
    }

    #[test]
    fn cluster_sharing_one_home_slot() {
        let mut m = FlatMap::new();
        for id in 0..4 {
            assert_eq!(m.insert(at(2, id), id), None);
        }
        assert_eq!(m.slots.len(), 8);
        for id in 0..4 {
            assert_eq!(slot_of(&m, at(2, id)), Some(2 + id as usize));
            assert_eq!(m.get(at(2, id)), Some(&id));
        }
        // Remove the head of the cluster: everything behind it shifts back.
        assert_eq!(m.remove(at(2, 0)), Some(0));
        m.check_structure();
        for id in 1..4 {
            assert_eq!(slot_of(&m, at(2, id)), Some(1 + id as usize));
        }
        // Remove from the middle.
        assert_eq!(m.remove(at(2, 2)), Some(2));
        m.check_structure();
        assert_eq!(slot_of(&m, at(2, 1)), Some(2));
        assert_eq!(slot_of(&m, at(2, 3)), Some(3));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn backward_shift_across_the_wrap_boundary() {
        let mut m = FlatMap::new();
        // Home 6: slots 6, 7, then wrap to 0. Home 0 is displaced to 1.
        m.insert(at(6, 0), 0);
        m.insert(at(6, 1), 1);
        m.insert(at(6, 2), 2);
        m.insert(at(0, 3), 3);
        assert_eq!(slot_of(&m, at(6, 2)), Some(0));
        assert_eq!(slot_of(&m, at(0, 3)), Some(1));
        m.check_structure();
        // Removing slot 7 pulls the wrapped entry back over the boundary
        // and the home-0 entry back onto its home.
        assert_eq!(m.remove(at(6, 1)), Some(1));
        m.check_structure();
        assert_eq!(slot_of(&m, at(6, 2)), Some(7));
        assert_eq!(slot_of(&m, at(0, 3)), Some(0));
        // An entry at its home never moves back past it.
        m.insert(at(7, 4), 4);
        assert_eq!(slot_of(&m, at(7, 4)), Some(1));
        assert_eq!(m.remove(at(6, 0)), Some(0));
        m.check_structure();
        assert_eq!(slot_of(&m, at(6, 2)), Some(6));
        assert_eq!(slot_of(&m, at(7, 4)), Some(7));
        assert_eq!(slot_of(&m, at(0, 3)), Some(0));
    }

    #[test]
    fn remove_then_reinsert() {
        let mut m = FlatMap::new();
        m.insert(at(3, 0), 10);
        m.insert(at(3, 1), 11);
        assert_eq!(m.remove(at(3, 0)), Some(10));
        assert_eq!(m.remove(at(3, 0)), None);
        assert_eq!(m.get(at(3, 0)), None);
        assert_eq!(m.insert(at(3, 0), 20), None);
        assert_eq!(m.get(at(3, 0)), Some(&20));
        assert_eq!(m.get(at(3, 1)), Some(&11));
        assert_eq!(m.insert(at(3, 0), 30), Some(20), "re-insert replaces");
        assert_eq!(m.len(), 2);
        m.check_structure();
    }

    #[test]
    fn growth_in_the_middle_of_a_cluster() {
        let mut m = FlatMap::new();
        // Four keys fill half of 8 slots as one cluster at home 5 (slots
        // 5, 6, 7, 0); the fifth insert, aimed into that cluster, doubles
        // the table. At 16 slots the home is the top four hash bits.
        for id in 0..4 {
            m.insert(at(5, id), id);
        }
        assert_eq!(m.slots.len(), 8);
        match m.entry(at(5, 4)) {
            FlatEntry::Vacant(e) => *e.insert(4) += 100,
            FlatEntry::Occupied(_) => panic!("absent key"),
        }
        assert_eq!(m.slots.len(), 16);
        m.check_structure();
        for id in 0..4 {
            assert_eq!(m.get(at(5, id)), Some(&id));
        }
        assert_eq!(m.get(at(5, 4)), Some(&104));
        // Re-placement walks the old slots in order, so the wrapped entry
        // (old slot 0) now leads the cluster at the new home (5 << 61 has
        // top four bits 0b1010 = 10), and the new key lands at its end.
        let slots: Vec<_> = (0..5).map(|id| slot_of(&m, at(5, id))).collect();
        assert_eq!(slots, [11, 12, 13, 10, 14].map(Some));
    }

    #[test]
    fn grows_through_many_keys() {
        let mut m = FlatMap::new();
        for v in 0..1000u64 {
            m.insert(TranslationKey::new(Asid(1), VirtPage(v * 4096)), v);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.slots.len(), 2048);
        m.check_structure();
        for v in (0..1000u64).step_by(2) {
            assert_eq!(
                m.remove(TranslationKey::new(Asid(1), VirtPage(v * 4096))),
                Some(v)
            );
        }
        m.check_structure();
        for v in 0..1000u64 {
            let got = m.get(TranslationKey::new(Asid(1), VirtPage(v * 4096)));
            assert_eq!(got, (v % 2 == 1).then_some(&v));
        }
    }

    #[test]
    fn all_ones_key_is_ordinary() {
        let ones = TranslationKey::new(Asid(u16::MAX), VirtPage(u64::MAX));
        let zero = TranslationKey::default();
        let mut m = FlatMap::new();
        m.insert(ones, 1);
        m.insert(zero, 0);
        assert_eq!(m.get(ones), Some(&1));
        assert_eq!(m.remove(ones), Some(1));
        assert_eq!(m.get(ones), None);
        assert_eq!(m.get(zero), Some(&0));
        let mut r = FlatMap::new();
        r.insert((GpuId(u8::MAX), ones), 'a');
        r.insert((GpuId(0), ones), 'b');
        assert_eq!(r.get((GpuId(u8::MAX), ones)), Some(&'a'));
        assert_eq!(r.get((GpuId(0), ones)), Some(&'b'));
        assert_eq!(r.remove((GpuId(u8::MAX), ones)), Some('a'));
        r.check_structure();
    }

    #[test]
    fn entry_updates_and_removes_in_place() {
        let mut m = FlatMap::new();
        let k = TranslationKey::new(Asid(2), VirtPage(9));
        match m.entry(k) {
            FlatEntry::Vacant(e) => *e.insert(1u32) += 1,
            FlatEntry::Occupied(_) => panic!("absent key"),
        }
        match m.entry(k) {
            FlatEntry::Occupied(e) => *e.into_mut() += 1,
            FlatEntry::Vacant(_) => panic!("present key"),
        }
        assert_eq!(m.get(k), Some(&3));
        let FlatEntry::Occupied(e) = m.entry(k) else {
            panic!("present key");
        };
        assert_eq!(e.remove(), 3);
        assert!(m.is_empty());
        assert_eq!(m.get(k), None);
    }

    #[test]
    fn wait_list_keeps_order_and_allocates_on_the_second_waiter() {
        let mut w = WaitList::new();
        assert!(w.is_empty());
        assert_eq!(w.first(), None);
        w.push(4u16);
        assert_eq!(w.rest.capacity(), 0, "one waiter stays inline");
        w.push(2);
        w.push(9);
        assert_eq!(w.len(), 3);
        assert!(w.contains(9) && !w.contains(5));
        assert_eq!(w.first(), Some(4));
        assert_eq!(Vec::from(w), vec![4, 2, 9]);
    }
}
