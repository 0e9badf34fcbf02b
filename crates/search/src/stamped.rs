//! The one epoch-stamped dense map behind [`StampedNodeSet`] and the
//! percolation scratch.
//!
//! [`StampedNodeSet`]: crate::StampedNodeSet
//!
//! A [`StampedMap`] stores values in a flat array indexed by a dense id
//! (`NodeId`/`EdgeId` index) and tracks *presence* with an epoch stamp
//! per slot: an entry is present iff `slot.stamp == epoch`. Clearing
//! the whole map is therefore O(1) — [`reset`](StampedMap::reset) bumps
//! the epoch, invalidating every stamp at once — which is what lets one
//! scratch serve thousands of Monte-Carlo trials without touching (or
//! re-acquiring) memory between them.
//!
//! # The audited wrap path
//!
//! The epoch is a `u32`; once per ~4 billion resets the bump would
//! wrap to a value old stamps still carry, so the wrap reset instead
//! zero-fills every stamp and restarts the epoch at 1 (stamps start at
//! 0, so freshly grown slots never read as present). This module is the
//! **only** place in the crate that implements that wrap, so a
//! stale-stamp bug has one place to hide, not one per structure. Wrap
//! coverage lives here too, driven through the [`near_wrap`](StampedMap::near_wrap)
//! constructor instead of private-field pokes.

/// One dense slot: the epoch stamp and the payload it guards. The pair
/// is stored inline so a presence check and the value read that almost
/// always follows it share a cache line.
#[derive(Debug, Clone)]
struct Slot<V> {
    stamp: u32,
    value: V,
}

/// A dense id-indexed map with O(1) epoch-stamped clearing.
///
/// Semantics of a `HashMap<usize, V>` restricted to dense keys, with:
///
/// * `contains`/`get`/`insert` as single array reads (no hashing);
/// * [`reset`](StampedMap::reset) in O(1) via an epoch bump, keeping
///   every allocation (see the module docs for the audited wrap path);
/// * explicit [`reserve`](StampedMap::reserve) so a caller that knows
///   the id universe up front can make even the *first* use
///   allocation-free.
///
/// # Example
///
/// ```
/// use nonsearch_search::StampedMap;
///
/// let mut map: StampedMap<u64> = StampedMap::new();
/// assert!(map.insert(5, 40));
/// assert!(!map.insert(5, 99)); // already present: value untouched
/// assert_eq!(map.get(5), Some(&40));
/// map.reset(); // O(1): no slot is touched
/// assert_eq!(map.get(5), None);
/// ```
#[derive(Debug, Clone)]
pub struct StampedMap<V> {
    /// Current epoch; stamps from other epochs read as "absent".
    epoch: u32,
    /// Entries present in the current epoch.
    live: usize,
    slots: Vec<Slot<V>>,
}

impl<V> Default for StampedMap<V> {
    fn default() -> Self {
        StampedMap {
            // Stamps start at 0 and the epoch at 1, so freshly grown
            // slots never read as present.
            epoch: 1,
            live: 0,
            slots: Vec::new(),
        }
    }
}

impl<V> StampedMap<V> {
    /// An empty map; the backing array grows on demand (or up front via
    /// [`reserve`](StampedMap::reserve)).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries present in the current epoch.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no entry is present.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Highest index the map can hold without growing. Indices below
    /// this bound never allocate, whatever their presence state.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// `true` if `index` holds an entry in the current epoch.
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        self.slots
            .get(index)
            .is_some_and(|slot| slot.stamp == self.epoch)
    }

    /// The value at `index`, if present.
    #[inline]
    pub fn get(&self, index: usize) -> Option<&V> {
        match self.slots.get(index) {
            Some(slot) if slot.stamp == self.epoch => Some(&slot.value),
            _ => None,
        }
    }

    /// Empties the map in O(1), keeping the allocation.
    ///
    /// This is the crate's single epoch-wrap implementation: the bump
    /// path touches no slot; the wrap path (once per `u32::MAX - 1`
    /// resets) zero-fills the stamps and restarts the epoch at 1.
    // lint: alloc-free
    pub fn reset(&mut self) {
        self.live = 0;
        if self.epoch == u32::MAX {
            // Once per 2^32 resets the stamps really are cleared.
            for slot in &mut self.slots {
                slot.stamp = 0;
            }
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// A map whose *next* [`reset`](StampedMap::reset) takes the wrap
    /// path: the epoch starts at `u32::MAX`. Exists so wrap coverage
    /// (here and in every structure built on this map) drives the
    /// public API instead of poking private fields.
    #[doc(hidden)]
    pub fn near_wrap() -> Self {
        StampedMap {
            epoch: u32::MAX,
            live: 0,
            slots: Vec::new(),
        }
    }
}

impl<V: Default> StampedMap<V> {
    /// Grows the backing array to hold indices `0..capacity`, so later
    /// operations below that bound trigger no allocation. Never
    /// shrinks; a no-op once large enough.
    pub fn reserve(&mut self, capacity: usize) {
        if self.slots.len() < capacity {
            self.slots.resize_with(capacity, || Slot {
                stamp: 0,
                value: V::default(),
            });
        }
    }

    /// Inserts `value` at `index` iff nothing is present there; returns
    /// `true` on insertion. An existing entry's value is left untouched
    /// — the caller that wants an upsert uses [`put`](StampedMap::put).
    #[inline]
    pub fn insert(&mut self, index: usize, value: V) -> bool {
        self.reserve(index + 1);
        let epoch = self.epoch;
        let slot = &mut self.slots[index];
        if slot.stamp == epoch {
            return false;
        }
        slot.stamp = epoch;
        slot.value = value;
        self.live += 1;
        true
    }

    /// Upserts `value` at `index`, overwriting any present entry.
    #[inline]
    pub fn put(&mut self, index: usize, value: V) {
        self.reserve(index + 1);
        let epoch = self.epoch;
        let slot = &mut self.slots[index];
        if slot.stamp != epoch {
            slot.stamp = epoch;
            self.live += 1;
        }
        slot.value = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_like_a_map() {
        let mut map: StampedMap<u32> = StampedMap::new();
        assert!(map.is_empty());
        assert_eq!(map.capacity(), 0);
        assert!(map.insert(3, 30));
        assert!(!map.insert(3, 99));
        assert_eq!(map.get(3), Some(&30));
        assert!(map.contains(3));
        assert!(!map.contains(2));
        assert_eq!(map.get(100), None);
        map.put(3, 31);
        map.put(7, 70);
        assert_eq!(map.get(3), Some(&31));
        assert_eq!(map.len(), 2);
        map.put(7, 71);
        assert_eq!(map.get(7), Some(&71));
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn reset_forgets_everything_and_keeps_capacity() {
        let mut map: StampedMap<u8> = StampedMap::new();
        map.insert(9, 1);
        let capacity = map.capacity();
        map.reset();
        assert!(map.is_empty());
        assert!(!map.contains(9));
        assert_eq!(map.get(9), None);
        assert_eq!(map.capacity(), capacity);
        // Stale values must not resurface through re-insertion checks.
        assert!(map.insert(9, 2));
        assert_eq!(map.get(9), Some(&2));
    }

    #[test]
    fn reserve_presizes_and_never_shrinks() {
        let mut map: StampedMap<u8> = StampedMap::new();
        map.reserve(16);
        assert_eq!(map.capacity(), 16);
        assert!(map.is_empty());
        map.insert(15, 5);
        map.reserve(4);
        assert_eq!(map.capacity(), 16);
        assert_eq!(map.get(15), Some(&5));
    }

    #[test]
    fn epoch_wrap_clears_stamps() {
        let mut map: StampedMap<u8> = StampedMap::near_wrap();
        map.insert(1, 7);
        assert!(map.contains(1));
        map.reset(); // epoch was u32::MAX: this is the wrap path
        assert!(!map.contains(1));
        assert_eq!(map.get(1), None);
        assert!(map.insert(1, 8));
        assert_eq!(map.get(1), Some(&8));
        // The epoch restarted low: billions of further resets to go.
        map.reset();
        assert!(!map.contains(1));
    }

    #[test]
    fn wrap_then_grow_never_reads_fresh_slots_as_present() {
        let mut map: StampedMap<u8> = StampedMap::near_wrap();
        map.insert(0, 1);
        map.reset();
        // Growth after the wrap: new slots carry stamp 0, epoch is 1…
        map.reserve(8);
        for i in 0..8 {
            assert!(!map.contains(i), "slot {i} read as present");
        }
    }
}
