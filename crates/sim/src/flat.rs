//! Sorted-vector maps and sets for small per-brick tables.
//!
//! A brick's mapping state — its RMST entries, switch routes, remote
//! window holes, the ranges its allocator has handed out, the VM core
//! counts it hosts — holds a handful of entries each, and a rack holds
//! thousands of bricks. Kept in `BTreeMap`s, every one of those tables
//! owns its own heap nodes and churns them as it moves between zero and
//! one entry, so touching a brick is mostly cache misses. [`FlatMap`] and
//! [`FlatSet`] keep the entries in one sorted `Vec` instead: a lookup is a
//! binary search over contiguous memory and an insert or remove shifts the
//! tail.
//!
//! **When to use them:** only where the number of entries is bounded by a
//! per-brick hardware quantity (RMST entries, GTH ports, dMEMBRICKs a
//! brick reaches, live allocations on one dMEMBRICK). Inserts and removes
//! are `O(n)`, so a container that grows with the rack, the trace or the
//! run stays a `BTreeMap`.
//!
//! Both types behave as the `BTreeMap`/`BTreeSet` subset they replace:
//! iteration is ascending by key, `Debug` prints like
//! `debug_map`/`debug_set`, and the [`Snap`] encoding is byte-identical
//! (a length prefix, then the items ascending). Decoding rejects keys that
//! are not strictly ascending with [`SnapError::Inconsistent`], so a
//! hostile stream can neither smuggle in duplicates nor force quadratic
//! inserts.
//!
//! ```
//! use dredbox_sim::flat::{FlatMap, FlatSet};
//!
//! let mut routes: FlatMap<u32, u8> = FlatMap::new();
//! routes.insert(7, 1);
//! routes.insert(3, 0);
//! *routes.entry(7).or_insert(0) += 1;
//! assert_eq!(routes.iter().collect::<Vec<_>>(), [(&3, &0), (&7, &2)]);
//! assert_eq!(routes.range(4..).next(), Some((&7, &2)));
//!
//! let mut reached: FlatSet<u32> = FlatSet::new();
//! assert!(reached.insert(5));
//! assert!(!reached.insert(5));
//! assert_eq!(reached.first(), Some(&5));
//! ```

use std::fmt;
use std::ops::{Bound, RangeBounds};

use dredbox_snap::{Reader, Snap, SnapError};

/// The `[lo, hi)` positions of the keys inside `range` in a sorted slice.
fn span<K: Ord, T>(
    items: &[T],
    key: impl Fn(&T) -> &K,
    range: impl RangeBounds<K>,
) -> (usize, usize) {
    let lo = match range.start_bound() {
        Bound::Included(k) => items.partition_point(|t| key(t) < k),
        Bound::Excluded(k) => items.partition_point(|t| key(t) <= k),
        Bound::Unbounded => 0,
    };
    let hi = match range.end_bound() {
        Bound::Included(k) => items.partition_point(|t| key(t) <= k),
        Bound::Excluded(k) => items.partition_point(|t| key(t) < k),
        Bound::Unbounded => items.len(),
    };
    (lo, hi.max(lo))
}

/// Decodes a length-prefixed sequence whose keys must be strictly
/// ascending.
fn unsnap_ascending<T: Snap, K: Ord>(
    r: &mut Reader<'_>,
    ty: &'static str,
    key: impl Fn(&T) -> &K,
) -> Result<Vec<T>, SnapError> {
    let len = r.take_len()?;
    let mut items: Vec<T> = Vec::with_capacity(len.min(4096));
    for _ in 0..len {
        let item = T::unsnap(r)?;
        if items.last().is_some_and(|last| key(last) >= key(&item)) {
            return Err(SnapError::Inconsistent { ty });
        }
        items.push(item);
    }
    Ok(items)
}

/// A map kept as a `Vec` of `(key, value)` pairs sorted by key. See the
/// [module docs](self) for when to use it.
#[derive(Clone, PartialEq, Eq)]
pub struct FlatMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for FlatMap<K, V> {
    fn default() -> Self {
        FlatMap {
            entries: Vec::new(),
        }
    }
}

impl<K: Ord, V> FlatMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        FlatMap::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn find(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// The value stored under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(key).ok().map(|i| &self.entries[i].1)
    }

    /// The value stored under `key`, mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.find(key).ok().map(|i| &mut self.entries[i].1)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_ok()
    }

    /// Inserts or replaces the value under `key`, returning the previous
    /// one.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.find(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.find(key).ok().map(|i| self.entries.remove(i).1)
    }

    /// The entry for `key`, for in-place insert-or-update.
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        let slot = self.find(&key);
        Entry {
            map: self,
            key,
            slot,
        }
    }

    /// The entries whose keys fall in `range`, ascending. An inverted
    /// range is empty (where `BTreeMap::range` panics).
    pub fn range(
        &self,
        range: impl RangeBounds<K>,
    ) -> impl DoubleEndedIterator<Item = (&K, &V)> + ExactSizeIterator {
        let (lo, hi) = span(&self.entries, |(k, _)| k, range);
        self.entries[lo..hi].iter().map(|(k, v)| (k, v))
    }

    /// All entries, ascending by key.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (&K, &V)> + ExactSizeIterator {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// All values, ascending by key.
    pub fn values(&self) -> impl DoubleEndedIterator<Item = &V> + ExactSizeIterator {
        self.entries.iter().map(|(_, v)| v)
    }

    /// The entry with the smallest key.
    pub fn first_key_value(&self) -> Option<(&K, &V)> {
        self.entries.first().map(|(k, v)| (k, v))
    }

    /// The entry with the largest key.
    pub fn last_key_value(&self) -> Option<(&K, &V)> {
        self.entries.last().map(|(k, v)| (k, v))
    }

    /// Keeps only the entries for which `keep` returns `true`.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| keep(k, v));
    }
}

/// A vacant or occupied slot of a [`FlatMap`], from [`FlatMap::entry`].
pub struct Entry<'a, K, V> {
    map: &'a mut FlatMap<K, V>,
    key: K,
    slot: Result<usize, usize>,
}

impl<'a, K, V> Entry<'a, K, V> {
    /// The value under the entry's key, inserting `default` first if the
    /// key is absent.
    pub fn or_insert(self, default: V) -> &'a mut V {
        let i = match self.slot {
            Ok(i) => i,
            Err(i) => {
                self.map.entries.insert(i, (self.key, default));
                i
            }
        };
        &mut self.map.entries[i].1
    }

    /// [`Entry::or_insert`] with `V::default()`.
    pub fn or_default(self) -> &'a mut V
    where
        V: Default,
    {
        self.or_insert(V::default())
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for FlatMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.entries.iter().map(|(k, v)| (k, v)))
            .finish()
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for FlatMap<K, V> {
    /// Later pairs replace earlier ones with the same key, as in
    /// `BTreeMap`.
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = FlatMap::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

impl<K: Snap + Ord, V: Snap> Snap for FlatMap<K, V> {
    fn snap(&self, out: &mut Vec<u8>) {
        self.entries.snap(out);
    }
    fn unsnap(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(FlatMap {
            entries: unsnap_ascending(r, "FlatMap", |(k, _): &(K, V)| k)?,
        })
    }
}

/// A set kept as a sorted `Vec`. See the [module docs](self) for when to
/// use it.
#[derive(Clone, PartialEq, Eq)]
pub struct FlatSet<T> {
    items: Vec<T>,
}

impl<T> Default for FlatSet<T> {
    fn default() -> Self {
        FlatSet { items: Vec::new() }
    }
}

impl<T: Ord> FlatSet<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        FlatSet::default()
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set holds no item.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether `item` is present.
    pub fn contains(&self, item: &T) -> bool {
        self.items.binary_search(item).is_ok()
    }

    /// Inserts `item`; `false` if it was already present.
    pub fn insert(&mut self, item: T) -> bool {
        match self.items.binary_search(&item) {
            Ok(_) => false,
            Err(i) => {
                self.items.insert(i, item);
                true
            }
        }
    }

    /// Removes `item`; `false` if it was absent.
    pub fn remove(&mut self, item: &T) -> bool {
        match self.items.binary_search(item) {
            Ok(i) => {
                self.items.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// The items inside `range`, ascending. An inverted range is empty
    /// (where `BTreeSet::range` panics).
    pub fn range(
        &self,
        range: impl RangeBounds<T>,
    ) -> impl DoubleEndedIterator<Item = &T> + ExactSizeIterator {
        let (lo, hi) = span(&self.items, |t| t, range);
        self.items[lo..hi].iter()
    }

    /// All items, ascending.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &T> + ExactSizeIterator {
        self.items.iter()
    }

    /// The smallest item.
    pub fn first(&self) -> Option<&T> {
        self.items.first()
    }

    /// The largest item.
    pub fn last(&self) -> Option<&T> {
        self.items.last()
    }

    /// Keeps only the items for which `keep` returns `true`.
    pub fn retain(&mut self, keep: impl FnMut(&T) -> bool) {
        self.items.retain(keep);
    }
}

impl<T: fmt::Debug> fmt::Debug for FlatSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.items.iter()).finish()
    }
}

impl<T: Snap + Ord> Snap for FlatSet<T> {
    fn snap(&self, out: &mut Vec<u8>) {
        self.items.snap(out);
    }
    fn unsnap(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(FlatSet {
            items: unsnap_ascending(r, "FlatSet", |t: &T| t)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn bytes(value: &impl Snap) -> Vec<u8> {
        let mut out = Vec::new();
        value.snap(&mut out);
        out
    }

    proptest! {
        /// Random operation sequences give the same results on
        /// `FlatMap`/`FlatSet` as on `BTreeMap`/`BTreeSet`, and after each
        /// one the iteration order, the ends, the `Debug` text and the
        /// `Snap` bytes agree. Keys come from a small range so inserts,
        /// hits and misses all occur.
        #[test]
        fn flat_containers_match_btree_models(
            ops in proptest::collection::vec((0u8..6, 0u8..24, 0u8..24, 0u16..1000), 1..80)
        ) {
            let mut map: FlatMap<u8, u16> = FlatMap::new();
            let mut model: BTreeMap<u8, u16> = BTreeMap::new();
            let mut set: FlatSet<u8> = FlatSet::new();
            let mut set_model: BTreeSet<u8> = BTreeSet::new();
            for (op, k, other, v) in ops {
                let (lo, hi) = (k.min(other), k.max(other));
                match op {
                    0 => {
                        prop_assert_eq!(map.insert(k, v), model.insert(k, v));
                        prop_assert_eq!(set.insert(k), set_model.insert(k));
                    }
                    1 => {
                        prop_assert_eq!(map.remove(&k), model.remove(&k));
                        prop_assert_eq!(set.remove(&k), set_model.remove(&k));
                    }
                    2 => {
                        prop_assert_eq!(map.get(&k), model.get(&k));
                        prop_assert_eq!(map.get_mut(&k).copied(), model.get_mut(&k).copied());
                        prop_assert_eq!(map.contains_key(&k), model.contains_key(&k));
                        prop_assert_eq!(set.contains(&k), set_model.contains(&k));
                    }
                    3 => {
                        *map.entry(k).or_insert(v) += 1;
                        *model.entry(k).or_insert(v) += 1;
                        *map.entry(other).or_default() += 1;
                        *model.entry(other).or_default() += 1;
                    }
                    4 => {
                        prop_assert!(map.range(lo..hi).eq(model.range(lo..hi)));
                        prop_assert!(map.range(lo..=hi).rev().eq(model.range(lo..=hi).rev()));
                        prop_assert!(map.range(..hi).eq(model.range(..hi)));
                        prop_assert!(map.range(lo..).eq(model.range(lo..)));
                        prop_assert_eq!(map.range(lo..hi).len(), model.range(lo..hi).count());
                        prop_assert!(set.range(lo..hi).eq(set_model.range(lo..hi)));
                        let open = (Bound::Excluded(lo), Bound::Included(hi));
                        prop_assert!(set.range(open).eq(set_model.range(open)));
                        prop_assert_eq!(set.range(lo..).next_back(), set_model.range(lo..).next_back());
                    }
                    _ => {
                        let cut = k % 4 + 2;
                        map.retain(|key, val| {
                            *val = val.wrapping_mul(3);
                            key % cut != 0
                        });
                        model.retain(|key, val| {
                            *val = val.wrapping_mul(3);
                            key % cut != 0
                        });
                        set.retain(|key| key % cut != 1);
                        set_model.retain(|key| key % cut != 1);
                    }
                }
                prop_assert!(map.iter().eq(model.iter()));
                prop_assert!(map.values().eq(model.values()));
                prop_assert_eq!(map.len(), model.len());
                prop_assert_eq!(map.is_empty(), model.is_empty());
                prop_assert_eq!(map.first_key_value(), model.first_key_value());
                prop_assert_eq!(map.last_key_value(), model.last_key_value());
                prop_assert!(set.iter().eq(set_model.iter()));
                prop_assert_eq!(set.len(), set_model.len());
                prop_assert_eq!(set.is_empty(), set_model.is_empty());
                prop_assert_eq!(set.first(), set_model.first());
                prop_assert_eq!(set.last(), set_model.last());
                prop_assert_eq!(format!("{map:?}"), format!("{model:?}"));
                prop_assert_eq!(format!("{map:#?}"), format!("{model:#?}"));
                prop_assert_eq!(format!("{set:#?}"), format!("{set_model:#?}"));
                prop_assert_eq!(bytes(&map), bytes(&model));
                prop_assert_eq!(bytes(&set), bytes(&set_model));
                let back = FlatMap::<u8, u16>::unsnap(&mut Reader::new(&bytes(&model)));
                prop_assert_eq!(back.as_ref(), Ok(&map));
                let back = FlatSet::<u8>::unsnap(&mut Reader::new(&bytes(&set_model)));
                prop_assert_eq!(back.as_ref(), Ok(&set));
            }
        }

        /// A stream whose keys are not strictly ascending — a duplicate or
        /// two keys swapped anywhere — decodes to `Inconsistent`.
        #[test]
        fn unordered_streams_are_rejected(
            keys in proptest::collection::vec(0u32..1_000_000, 2..16),
            at in 0usize..1000,
            duplicate in proptest::bool::ANY,
        ) {
            let mut keys: Vec<u32> = keys.into_iter().collect::<BTreeSet<_>>().into_iter().collect();
            prop_assume!(keys.len() >= 2);
            let i = at % (keys.len() - 1);
            if duplicate {
                keys[i + 1] = keys[i];
            } else {
                keys.swap(i, i + 1);
            }
            let mut set_bytes = Vec::new();
            let mut map_bytes = Vec::new();
            keys.len().snap(&mut set_bytes);
            keys.len().snap(&mut map_bytes);
            for &k in &keys {
                k.snap(&mut set_bytes);
                (k, 1u8).snap(&mut map_bytes);
            }
            prop_assert_eq!(
                FlatSet::<u32>::unsnap(&mut Reader::new(&set_bytes)),
                Err(SnapError::Inconsistent { ty: "FlatSet" })
            );
            prop_assert_eq!(
                FlatMap::<u32, u8>::unsnap(&mut Reader::new(&map_bytes)),
                Err(SnapError::Inconsistent { ty: "FlatMap" })
            );
        }
    }

    #[test]
    fn hostile_length_prefix_fails_without_allocating_it() {
        let mut stream = Vec::new();
        u64::MAX.snap(&mut stream);
        assert!(FlatSet::<u64>::unsnap(&mut Reader::new(&stream)).is_err());
        assert!(FlatMap::<u64, u64>::unsnap(&mut Reader::new(&stream)).is_err());
    }
}
