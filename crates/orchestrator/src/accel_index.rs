//! Incrementally maintained accelerator-availability index.
//!
//! The dACCELBRICK scheduling questions mirror the compute-placement ones
//! the [`crate::capacity::CapacityIndex`] answers, with one twist: the
//! reconfigurable slot is *stateful*. A brick already programmed with the
//! needed bitstream serves an offload without paying the PCAP partial
//! reconfiguration, so the placement order is
//!
//! 1. a powered-on brick **already loaded** with the requested kernel that
//!    still has a free streaming slot (bitstream reuse);
//! 2. the **cheapest reprogram**: the powered-on brick with the fastest
//!    PCAP port whose slot is empty (nothing evicted), then one whose
//!    loaded-but-idle kernel can be swapped out;
//! 3. a **sleeping** brick, woken as a last resort (its PR state was lost
//!    on power-down, so it always pays the programming).
//!
//! Every bucket orders bricks by [`BrickId`], preserving the lowest-id
//! tie-breaks the scenario engine's same-seed replay guarantee depends on.
//! The index is kept in lockstep by every offload begin/end, bitstream
//! load and power transition; `tests/offload_invariants.rs` asserts it
//! equals a from-scratch rebuild after arbitrary interleavings.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use dredbox_bricks::BrickId;

/// The scheduling facts of one accelerator brick, as indexed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccelSlot {
    /// Name of the bitstream programmed into the reconfigurable slot.
    pub loaded: Option<String>,
    /// Offload sessions currently streaming through the kernel.
    pub active_sessions: u32,
    /// Concurrent streaming slots (one per GTH transceiver towards the
    /// rack interconnect).
    pub session_capacity: u32,
    /// Effective PCAP programming bandwidth, in bits per second; the
    /// reprogram-cost key (higher is cheaper).
    pub pcap_bps: u64,
    /// Whether the brick is powered on.
    pub powered_on: bool,
}

/// The incrementally maintained availability view over all accelerator
/// bricks.
///
/// ```
/// use dredbox_orchestrator::accel_index::{AccelIndex, AccelSlot};
/// use dredbox_bricks::BrickId;
///
/// let mut index = AccelIndex::new();
/// index.upsert(BrickId(20), AccelSlot {
///     loaded: Some("sobel".to_owned()),
///     active_sessions: 1,
///     session_capacity: 4,
///     pcap_bps: 3_200_000_000,
///     powered_on: true,
/// });
/// // A second sobel offload reuses the programmed brick.
/// assert_eq!(index.loaded_fit("sobel"), Some(BrickId(20)));
/// // A different kernel needs a reprogram target; none is free here.
/// assert_eq!(index.loaded_fit("aes"), None);
/// assert_eq!(index.fastest_empty(), None);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AccelIndex {
    /// Authoritative slot per brick, so updates can unindex the old state.
    slots: BTreeMap<BrickId, AccelSlot>,
    /// Powered-on bricks with a free streaming slot, bucketed by loaded
    /// bitstream name (the reuse query).
    loaded_available: BTreeMap<String, BTreeSet<BrickId>>,
    /// Powered-on bricks with an empty slot, bucketed by PCAP bandwidth
    /// (cheapest program first — highest bandwidth, then lowest id).
    empty_by_pcap: BTreeMap<u64, BTreeSet<BrickId>>,
    /// Powered-on bricks whose loaded kernel streams no session and can be
    /// swapped, bucketed by PCAP bandwidth.
    idle_loaded_by_pcap: BTreeMap<u64, BTreeSet<BrickId>>,
    /// Powered-off bricks, bucketed by PCAP bandwidth (wake-up candidates).
    sleeping_by_pcap: BTreeMap<u64, BTreeSet<BrickId>>,
    /// Bricks streaming no session (any power state), in id order — the
    /// power-off candidates.
    idle: BTreeSet<BrickId>,
}

impl AccelIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        AccelIndex::default()
    }

    /// Number of indexed bricks.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no brick is indexed.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The indexed slot of a brick, if present.
    pub fn slot(&self, brick: BrickId) -> Option<&AccelSlot> {
        self.slots.get(&brick)
    }

    /// The indexed slots of every brick, ascending by id (the authoritative
    /// scan a from-scratch rebuild starts from).
    pub fn slots(&self) -> impl Iterator<Item = (BrickId, &AccelSlot)> + '_ {
        self.slots.iter().map(|(b, s)| (*b, s))
    }

    /// Inserts or replaces a brick's slot, keeping every bucket in sync.
    /// `O(log n)`.
    pub fn upsert(&mut self, brick: BrickId, slot: AccelSlot) {
        if let Some(old) = self.slots.insert(brick, slot.clone()) {
            self.unindex(brick, &old);
        }
        if slot.powered_on {
            match &slot.loaded {
                Some(name) => {
                    if slot.active_sessions < slot.session_capacity {
                        bucket_insert(&mut self.loaded_available, name.clone(), brick);
                    }
                    if slot.active_sessions == 0 {
                        bucket_insert(&mut self.idle_loaded_by_pcap, slot.pcap_bps, brick);
                    }
                }
                None => bucket_insert(&mut self.empty_by_pcap, slot.pcap_bps, brick),
            }
        } else {
            bucket_insert(&mut self.sleeping_by_pcap, slot.pcap_bps, brick);
        }
        if slot.active_sessions == 0 {
            self.idle.insert(brick);
        } else {
            self.idle.remove(&brick);
        }
    }

    /// Removes a brick from the index. `O(log n)`.
    pub fn remove(&mut self, brick: BrickId) {
        if let Some(old) = self.slots.remove(&brick) {
            self.unindex(brick, &old);
            self.idle.remove(&brick);
        }
    }

    fn unindex(&mut self, brick: BrickId, old: &AccelSlot) {
        if old.powered_on {
            match &old.loaded {
                Some(name) => {
                    if old.active_sessions < old.session_capacity {
                        bucket_remove(&mut self.loaded_available, name, brick);
                    }
                    if old.active_sessions == 0 {
                        bucket_remove(&mut self.idle_loaded_by_pcap, &old.pcap_bps, brick);
                    }
                }
                None => bucket_remove(&mut self.empty_by_pcap, &old.pcap_bps, brick),
            }
        } else {
            bucket_remove(&mut self.sleeping_by_pcap, &old.pcap_bps, brick);
        }
    }

    /// Accelerator bricks streaming no session, ascending by id.
    /// Zero-allocation; the iterator borrows the index.
    pub fn idle_bricks(&self) -> impl Iterator<Item = BrickId> + '_ {
        self.idle.iter().copied()
    }

    /// Number of bricks streaming no session. `O(1)` — the cluster digest's
    /// accelerator-availability feed.
    pub fn idle_count(&self) -> usize {
        self.idle.len()
    }

    /// Lowest-id powered-on brick already programmed with `bitstream` that
    /// has a free streaming slot — the reuse query. `O(log n)`.
    pub fn loaded_fit(&self, bitstream: &str) -> Option<BrickId> {
        self.loaded_available
            .get(bitstream)
            .and_then(|bucket| bucket.iter().next().copied())
    }

    /// Powered-on brick with an empty slot and the fastest PCAP port
    /// (lowest id on ties) — the cheapest program that evicts nothing.
    /// `O(log n)`.
    pub fn fastest_empty(&self) -> Option<BrickId> {
        Self::fastest(&self.empty_by_pcap)
    }

    /// Powered-on brick whose loaded kernel is idle, fastest PCAP first —
    /// the reprogram (bitstream-eviction) fallback. `O(log n)`.
    pub fn fastest_idle_loaded(&self) -> Option<BrickId> {
        Self::fastest(&self.idle_loaded_by_pcap)
    }

    /// Sleeping brick with the fastest PCAP port — the wake-as-last-resort
    /// fallback (its PR state was lost, so it always programs). `O(log n)`.
    pub fn fastest_sleeping(&self) -> Option<BrickId> {
        Self::fastest(&self.sleeping_by_pcap)
    }

    fn fastest(map: &BTreeMap<u64, BTreeSet<BrickId>>) -> Option<BrickId> {
        map.iter()
            .next_back()
            .and_then(|(_, bucket)| bucket.iter().next().copied())
    }
}

/// Adds `brick` to the bucket at `key`, creating the bucket if needed.
fn bucket_insert<K: Ord>(map: &mut BTreeMap<K, BTreeSet<BrickId>>, key: K, brick: BrickId) {
    map.entry(key).or_default().insert(brick);
}

/// Removes `brick` from the bucket at `key`, dropping the bucket once empty.
fn bucket_remove<K: Ord>(map: &mut BTreeMap<K, BTreeSet<BrickId>>, key: &K, brick: BrickId) {
    if let Some(bucket) = map.get_mut(key) {
        bucket.remove(&brick);
        if bucket.is_empty() {
            map.remove(key);
        }
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_struct!(AccelSlot {
    loaded,
    active_sessions,
    session_capacity,
    pcap_bps,
    powered_on,
});
dredbox_snap::snap_struct!(AccelIndex {
    slots,
    loaded_available,
    empty_by_pcap,
    idle_loaded_by_pcap,
    sleeping_by_pcap,
    idle,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(loaded: Option<&str>, active: u32, capacity: u32, bps: u64, on: bool) -> AccelSlot {
        AccelSlot {
            loaded: loaded.map(str::to_owned),
            active_sessions: active,
            session_capacity: capacity,
            pcap_bps: bps,
            powered_on: on,
        }
    }

    #[test]
    fn upsert_moves_bricks_between_buckets() {
        let mut index = AccelIndex::new();
        assert!(index.is_empty());
        index.upsert(BrickId(20), slot(Some("sobel"), 1, 4, 3_200, true));
        index.upsert(BrickId(21), slot(None, 0, 4, 3_200, true));
        index.upsert(BrickId(22), slot(None, 0, 4, 3_200, false));
        assert_eq!(index.len(), 3);
        assert_eq!(index.loaded_fit("sobel"), Some(BrickId(20)));
        assert_eq!(index.loaded_fit("aes"), None);
        assert_eq!(index.fastest_empty(), Some(BrickId(21)));
        assert_eq!(index.fastest_idle_loaded(), None);
        assert_eq!(index.fastest_sleeping(), Some(BrickId(22)));
        assert_eq!(
            index.idle_bricks().collect::<Vec<_>>(),
            vec![BrickId(21), BrickId(22)]
        );

        // Brick 20 drains its session: it becomes a reprogram candidate
        // while staying a reuse target.
        index.upsert(BrickId(20), slot(Some("sobel"), 0, 4, 3_200, true));
        assert_eq!(index.fastest_idle_loaded(), Some(BrickId(20)));
        assert_eq!(index.loaded_fit("sobel"), Some(BrickId(20)));

        // Saturated streaming slots take a brick out of the reuse bucket.
        index.upsert(BrickId(20), slot(Some("sobel"), 4, 4, 3_200, true));
        assert_eq!(index.loaded_fit("sobel"), None);
        assert_eq!(index.fastest_idle_loaded(), None);

        // Power-off clears the sleeping bucket membership correctly.
        index.upsert(BrickId(21), slot(None, 0, 4, 3_200, false));
        assert_eq!(index.fastest_empty(), None);
        assert_eq!(index.fastest_sleeping(), Some(BrickId(21)));

        index.remove(BrickId(22));
        index.remove(BrickId(22)); // double remove is a no-op
        assert_eq!(index.len(), 2);
    }

    #[test]
    fn reprogram_prefers_the_fastest_pcap_then_lowest_id() {
        let mut index = AccelIndex::new();
        index.upsert(BrickId(5), slot(None, 0, 4, 1_000, true));
        index.upsert(BrickId(3), slot(None, 0, 4, 2_000, true));
        index.upsert(BrickId(7), slot(None, 0, 4, 2_000, true));
        assert_eq!(index.fastest_empty(), Some(BrickId(3)));
        index.upsert(BrickId(9), slot(Some("x"), 0, 4, 5_000, true));
        // Empty slots and idle-loaded slots are separate fallbacks: the
        // caller asks for an empty brick first even when a faster loaded
        // brick could be evicted.
        assert_eq!(index.fastest_empty(), Some(BrickId(3)));
        assert_eq!(index.fastest_idle_loaded(), Some(BrickId(9)));
    }
}
