//! A dense, direct-indexed map keyed by [`BrickId`].
//!
//! Rack catalogs hand out brick ids sequentially, so the per-brick state
//! the control plane consults on every request (allocators, capacity
//! slots, agents, circuits) lives at small dense indexes. A
//! [`BrickMap`] stores that state in a flat `Vec<Option<T>>`: lookups are
//! one bounds-checked array index instead of an ordered-map descent, and
//! iteration stays in ascending id order, which the deterministic
//! lowest-id tie-breaks of the placement policies rely on.
//!
//! Sparse ids degrade gracefully — the vector grows to the highest
//! inserted id — so the occasional out-of-catalog registration a test
//! exercises still works; it is the dense common case the layout is
//! optimised for.

use serde::{Deserialize, Serialize};

use crate::id::BrickId;

/// A map from [`BrickId`] to `T`, backed by a dense vector.
///
/// ```
/// use dredbox_bricks::{BrickId, BrickMap};
///
/// let mut map: BrickMap<u32> = BrickMap::new();
/// map.insert(BrickId(2), 7);
/// assert_eq!(map.get(BrickId(2)), Some(&7));
/// assert_eq!(map.get(BrickId(0)), None);
/// assert_eq!(map.len(), 1);
/// assert_eq!(map.iter().next(), Some((BrickId(2), &7)));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BrickMap<T> {
    slots: Vec<Option<T>>,
    live: usize,
}

impl<T> Default for BrickMap<T> {
    fn default() -> Self {
        BrickMap {
            slots: Vec::new(),
            live: 0,
        }
    }
}

impl<T: PartialEq> PartialEq for BrickMap<T> {
    /// Maps are equal when they hold the same entries; trailing empty
    /// slots (capacity artifacts) don't participate.
    fn eq(&self, other: &Self) -> bool {
        self.live == other.live && self.iter().eq(other.iter())
    }
}

impl<T> BrickMap<T> {
    /// Creates an empty map.
    pub fn new() -> Self {
        BrickMap::default()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Inserts or replaces the entry for `brick`, returning the previous
    /// value if any.
    pub fn insert(&mut self, brick: BrickId, value: T) -> Option<T> {
        let idx = brick.0 as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        let old = self.slots[idx].replace(value);
        if old.is_none() {
            self.live += 1;
        }
        old
    }

    /// The entry for `brick`, if present.
    pub fn get(&self, brick: BrickId) -> Option<&T> {
        self.slots.get(brick.0 as usize)?.as_ref()
    }

    /// The entry for `brick`, mutably, if present.
    pub fn get_mut(&mut self, brick: BrickId) -> Option<&mut T> {
        self.slots.get_mut(brick.0 as usize)?.as_mut()
    }

    /// Whether `brick` has an entry.
    pub fn contains_key(&self, brick: BrickId) -> bool {
        self.get(brick).is_some()
    }

    /// The entry for `brick`, inserting `T::default()` first if absent —
    /// the `entry(..).or_default()` idiom.
    pub fn get_or_insert_default(&mut self, brick: BrickId) -> &mut T
    where
        T: Default,
    {
        let idx = brick.0 as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        if self.slots[idx].is_none() {
            self.slots[idx] = Some(T::default());
            self.live += 1;
        }
        self.slots[idx].as_mut().expect("just ensured present")
    }

    /// Removes and returns the entry for `brick`.
    pub fn remove(&mut self, brick: BrickId) -> Option<T> {
        let old = self.slots.get_mut(brick.0 as usize)?.take();
        if old.is_some() {
            self.live -= 1;
        }
        old
    }

    /// Entries in ascending brick-id order.
    pub fn iter(&self) -> impl Iterator<Item = (BrickId, &T)> + Clone {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|v| (BrickId(i as u32), v)))
    }

    /// Mutable entries in ascending brick-id order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (BrickId, &mut T)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_mut().map(|v| (BrickId(i as u32), v)))
    }

    /// Live brick ids in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = BrickId> + '_ {
        self.iter().map(|(b, _)| b)
    }

    /// Values in ascending brick-id order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(|slot| slot.as_ref())
    }

    /// Mutable values in ascending brick-id order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().filter_map(|slot| slot.as_mut())
    }
}

impl<T> FromIterator<(BrickId, T)> for BrickMap<T> {
    fn from_iter<I: IntoIterator<Item = (BrickId, T)>>(iter: I) -> Self {
        let mut map = BrickMap::new();
        for (brick, value) in iter {
            map.insert(brick, value);
        }
        map
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
impl<T: dredbox_snap::Snap> dredbox_snap::Snap for BrickMap<T> {
    fn snap(&self, out: &mut Vec<u8>) {
        dredbox_snap::Snap::snap(&self.slots, out);
        dredbox_snap::Snap::snap(&self.live, out);
    }
    /// Rejects a stream whose live count disagrees with its occupied
    /// slots, so a decoded map's `len` is always truthful.
    fn unsnap(r: &mut dredbox_snap::Reader<'_>) -> Result<Self, dredbox_snap::SnapError> {
        let slots: Vec<Option<T>> = dredbox_snap::Snap::unsnap(r)?;
        let live: usize = dredbox_snap::Snap::unsnap(r)?;
        if slots.iter().filter(|s| s.is_some()).count() != live {
            return Err(dredbox_snap::SnapError::Inconsistent { ty: "BrickMap" });
        }
        Ok(BrickMap { slots, live })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut map: BrickMap<&str> = BrickMap::new();
        assert!(map.is_empty());
        assert_eq!(map.insert(BrickId(3), "a"), None);
        assert_eq!(map.insert(BrickId(3), "b"), Some("a"));
        assert_eq!(map.insert(BrickId(0), "c"), None);
        assert_eq!(map.len(), 2);
        assert_eq!(map.get(BrickId(3)), Some(&"b"));
        assert!(map.contains_key(BrickId(0)));
        assert!(!map.contains_key(BrickId(1)));
        assert_eq!(map.get(BrickId(99)), None);
        assert_eq!(map.remove(BrickId(3)), Some("b"));
        assert_eq!(map.remove(BrickId(3)), None);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn iteration_is_id_ordered_and_skips_holes() {
        let map: BrickMap<u32> = [(BrickId(5), 50), (BrickId(1), 10), (BrickId(3), 30)]
            .into_iter()
            .collect();
        let entries: Vec<(BrickId, u32)> = map.iter().map(|(b, &v)| (b, v)).collect();
        assert_eq!(
            entries,
            vec![(BrickId(1), 10), (BrickId(3), 30), (BrickId(5), 50)]
        );
        assert_eq!(map.keys().collect::<Vec<_>>().len(), 3);
        assert_eq!(map.values().copied().sum::<u32>(), 90);
    }

    #[test]
    fn equality_ignores_capacity_artifacts() {
        let mut a: BrickMap<u32> = BrickMap::new();
        let mut b: BrickMap<u32> = BrickMap::new();
        a.insert(BrickId(1), 1);
        b.insert(BrickId(9), 9);
        b.remove(BrickId(9));
        b.insert(BrickId(1), 1);
        assert_eq!(a, b);
    }
}
