//! Generational slab arena for hot-path simulation state.
//!
//! The scenario engine interns per-VM and per-brick state in
//! [`SlotArena`]s instead of `BTreeMap`s: a live object occupies a stable
//! `u32` slot, lookups are a bounds check plus a generation compare, and
//! removed slots are recycled through a LIFO free list — so steady-state
//! admit/depart churn allocates nothing once the arena has grown to the
//! workload's high-water mark.
//!
//! Every slot carries a generation that is bumped when the slot is
//! vacated. A [`SlotKey`] (slot index + generation) therefore acts like a
//! weak reference: a key held after its object was removed misses even if
//! the slot has been reused, which is exactly the behavior departed VM
//! handles need in a discrete-event replay where stale events keep firing.
//!
//! Everything is deterministic: insertion into an empty arena fills slots
//! in ascending index order, the free list is LIFO, and iteration visits
//! occupied slots in index order. Two arenas that saw the same operation
//! sequence compare equal — the property `tests/arena_invariants.rs`
//! pins against a from-scratch `BTreeMap` rebuild.
//!
//! ```
//! use dredbox_sim::arena::SlotArena;
//!
//! let mut arena = SlotArena::new();
//! let a = arena.insert("alpha");
//! let b = arena.insert("beta");
//! assert_eq!(arena.get(a), Some(&"alpha"));
//! assert_eq!(arena.remove(a), Some("alpha"));
//! // The slot is recycled, but the stale key keeps missing.
//! let c = arena.insert("gamma");
//! assert_eq!(c.index(), a.index());
//! assert_ne!(c, a);
//! assert_eq!(arena.get(a), None);
//! assert_eq!(arena.get(b), Some(&"beta"));
//! assert_eq!(arena.len(), 2);
//! ```

use serde::{Deserialize, Serialize};

/// A stable reference into a [`SlotArena`]: slot index plus the generation
/// the slot had when the object was inserted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SlotKey {
    index: u32,
    generation: u32,
}

impl SlotKey {
    /// The slot index this key points at.
    pub fn index(self) -> u32 {
        self.index
    }

    /// The generation the slot had when this key was issued.
    pub fn generation(self) -> u32 {
        self.generation
    }

    /// Packs the key into a `u64` (generation in the high 32 bits), so
    /// external handle types can wrap a plain integer.
    pub fn to_u64(self) -> u64 {
        (u64::from(self.generation) << 32) | u64::from(self.index)
    }

    /// Unpacks a key previously packed with [`SlotKey::to_u64`].
    pub fn from_u64(raw: u64) -> Self {
        SlotKey {
            index: (raw & 0xFFFF_FFFF) as u32,
            generation: (raw >> 32) as u32,
        }
    }
}

/// One slot: its current generation and, when occupied, the value. The
/// generation is bumped on removal, so it always names the generation a
/// *currently issued* key must carry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Slot<T> {
    generation: u32,
    value: Option<T>,
}

/// A slab arena with generational keys and a LIFO slot free list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotArena<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> SlotArena<T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        SlotArena {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the arena holds no live objects.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots the arena has ever grown to (live + recyclable).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Inserts `value`, recycling the most recently freed slot if one
    /// exists, and returns its key.
    pub fn insert(&mut self, value: T) -> SlotKey {
        self.insert_with(|_| value)
    }

    /// Inserts the value built by `make`, which receives the key the value
    /// will live under — for objects that store their own id.
    pub fn insert_with(&mut self, make: impl FnOnce(SlotKey) -> T) -> SlotKey {
        self.len += 1;
        match self.free.pop() {
            Some(index) => {
                let slot = &mut self.slots[index as usize];
                let key = SlotKey {
                    index,
                    generation: slot.generation,
                };
                slot.value = Some(make(key));
                key
            }
            None => {
                let key = SlotKey {
                    index: u32::try_from(self.slots.len()).expect("arena exceeds u32 slots"),
                    generation: 0,
                };
                self.slots.push(Slot {
                    generation: 0,
                    value: Some(make(key)),
                });
                key
            }
        }
    }

    /// The live object under `key`, if the key is current.
    pub fn get(&self, key: SlotKey) -> Option<&T> {
        self.slots
            .get(key.index as usize)
            .filter(|slot| slot.generation == key.generation)
            .and_then(|slot| slot.value.as_ref())
    }

    /// Mutable access to the live object under `key`, if the key is
    /// current.
    pub fn get_mut(&mut self, key: SlotKey) -> Option<&mut T> {
        self.slots
            .get_mut(key.index as usize)
            .filter(|slot| slot.generation == key.generation)
            .and_then(|slot| slot.value.as_mut())
    }

    /// Whether `key` refers to a live object.
    pub fn contains(&self, key: SlotKey) -> bool {
        self.get(key).is_some()
    }

    /// Removes and returns the object under `key`. The slot's generation
    /// is bumped (stale keys keep missing) and the slot joins the free
    /// list for recycling.
    pub fn remove(&mut self, key: SlotKey) -> Option<T> {
        let slot = self
            .slots
            .get_mut(key.index as usize)
            .filter(|slot| slot.generation == key.generation)?;
        let value = slot.value.take()?;
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(key.index);
        self.len -= 1;
        Some(value)
    }

    /// Iterates over live objects in ascending slot-index order.
    pub fn iter(&self) -> impl Iterator<Item = (SlotKey, &T)> {
        self.slots.iter().enumerate().filter_map(|(index, slot)| {
            slot.value.as_ref().map(|value| {
                (
                    SlotKey {
                        index: index as u32,
                        generation: slot.generation,
                    },
                    value,
                )
            })
        })
    }

    /// Iterates over live objects (values only) in ascending slot-index
    /// order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(|slot| slot.value.as_ref())
    }

    /// Removes every object, clears the free list and resets generations.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.len = 0;
    }
}

impl<T> Default for SlotArena<T> {
    fn default() -> Self {
        Self::new()
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`). The arena
// encodes its full slot table — holes, generations and free list included —
// so restored handles (`SlotKey`s) stay valid bit-for-bit.
dredbox_snap::snap_struct!(SlotKey { index, generation });

impl<T: dredbox_snap::Snap> dredbox_snap::Snap for Slot<T> {
    fn snap(&self, out: &mut Vec<u8>) {
        self.generation.snap(out);
        self.value.snap(out);
    }
    fn unsnap(r: &mut dredbox_snap::Reader<'_>) -> Result<Self, dredbox_snap::SnapError> {
        Ok(Slot {
            generation: dredbox_snap::Snap::unsnap(r)?,
            value: dredbox_snap::Snap::unsnap(r)?,
        })
    }
}

impl<T: dredbox_snap::Snap> dredbox_snap::Snap for SlotArena<T> {
    fn snap(&self, out: &mut Vec<u8>) {
        self.slots.snap(out);
        self.free.snap(out);
        self.len.snap(out);
    }
    fn unsnap(r: &mut dredbox_snap::Reader<'_>) -> Result<Self, dredbox_snap::SnapError> {
        Ok(SlotArena {
            slots: dredbox_snap::Snap::unsnap(r)?,
            free: dredbox_snap::Snap::unsnap(r)?,
            len: dredbox_snap::Snap::unsnap(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut arena = SlotArena::new();
        assert!(arena.is_empty());
        let a = arena.insert(10u32);
        let b = arena.insert(20);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.get(a), Some(&10));
        assert_eq!(arena.get(b), Some(&20));
        *arena.get_mut(a).unwrap() = 11;
        assert_eq!(arena.remove(a), Some(11));
        assert_eq!(arena.remove(a), None, "double remove misses");
        assert_eq!(arena.len(), 1);
        assert!(!arena.contains(a));
        assert!(arena.contains(b));
    }

    #[test]
    fn slots_recycle_lifo_and_stale_keys_miss() {
        let mut arena = SlotArena::new();
        let keys: Vec<_> = (0..4).map(|i| arena.insert(i)).collect();
        arena.remove(keys[1]);
        arena.remove(keys[3]);
        // LIFO recycling: slot 3 first, then slot 1; only then fresh slots.
        let x = arena.insert(100);
        let y = arena.insert(101);
        let z = arena.insert(102);
        assert_eq!(x.index(), 3);
        assert_eq!(y.index(), 1);
        assert_eq!(z.index(), 4);
        assert_eq!(arena.slot_count(), 5);
        // The recycled slots carry a bumped generation.
        assert_eq!(x.generation(), keys[3].generation() + 1);
        assert_eq!(arena.get(keys[1]), None);
        assert_eq!(arena.get(keys[3]), None);
        assert_eq!(arena.get(x), Some(&100));
    }

    #[test]
    fn iteration_is_in_slot_order() {
        let mut arena = SlotArena::new();
        let a = arena.insert("a");
        let b = arena.insert("b");
        let c = arena.insert("c");
        arena.remove(b);
        let order: Vec<_> = arena.values().copied().collect();
        assert_eq!(order, vec!["a", "c"]);
        let keys: Vec<_> = arena.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![a, c]);
    }

    #[test]
    fn keys_pack_to_u64_and_back() {
        let mut arena = SlotArena::new();
        let a = arena.insert(1u8);
        arena.remove(a);
        let b = arena.insert(2);
        assert_eq!(SlotKey::from_u64(b.to_u64()), b);
        assert_ne!(a.to_u64(), b.to_u64());
        // A raw integer that never came out of the arena misses cleanly.
        assert_eq!(arena.get(SlotKey::from_u64(99)), None);
    }

    #[test]
    fn insert_with_sees_the_final_key() {
        let mut arena = SlotArena::new();
        let key = arena.insert_with(|k| k.to_u64());
        assert_eq!(arena.get(key), Some(&key.to_u64()));
    }

    #[test]
    fn clear_resets_everything() {
        let mut arena = SlotArena::new();
        let a = arena.insert(1);
        arena.insert(2);
        arena.clear();
        assert!(arena.is_empty());
        assert_eq!(arena.slot_count(), 0);
        assert_eq!(arena.get(a), None);
        // Fresh inserts start from slot 0, generation 0 again.
        let b = arena.insert(3);
        assert_eq!((b.index(), b.generation()), (0, 0));
    }
}
