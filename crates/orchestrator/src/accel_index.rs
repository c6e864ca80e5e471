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
//! Ties go to the lowest [`BrickId`], the tie-break the scenario engine's
//! same-seed replay guarantee depends on. The index is kept in lockstep by
//! every offload begin/end, bitstream load and power transition;
//! `tests/offload_invariants.rs` asserts it equals a from-scratch rebuild
//! after arbitrary interleavings, and that it answers as the ordered-map
//! index it replaced.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use dredbox_bricks::BrickId;
use dredbox_sim::flat::FlatMap;
use dredbox_snap::{expect_seq, snap_seq, Reader, Snap, SnapError};

/// The scheduling facts of one accelerator brick, as indexed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccelSlot {
    /// Name of the bitstream programmed into the reconfigurable slot.
    pub loaded: Option<Arc<str>>,
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

impl AccelSlot {
    /// The kernel this brick can take another session of: its loaded
    /// bitstream, if it is powered on with a free streaming slot.
    fn reusable(&self) -> Option<&Arc<str>> {
        let free = self.powered_on && self.active_sessions < self.session_capacity;
        self.loaded.as_ref().filter(|_| free)
    }
}

/// An id with no position in [`AccelIndex`]'s position table.
const EMPTY: u32 = u32::MAX;

/// Highest brick id a decoded index may hold. The position table has one
/// entry per id up to the highest, and a rack numbers its bricks from 0 (a
/// few hundred at most), so a larger id can only come from a damaged
/// stream; refusing it keeps a decode from sizing the table by it.
const MAX_DECODED_ID: u32 = u16::MAX as u32;

/// The incrementally maintained availability view over all accelerator
/// bricks.
///
/// The bricks sit in one array ascending by id (a brick's *position*),
/// with an id → position table. Their PCAP bandwidths never change, so
/// each also has a fixed *rank*: PCAP bandwidth descending, then id
/// ascending. The three reprogram buckets (empty slot, idle loaded slot,
/// sleeping) are bitsets over ranks, so "fastest PCAP, lowest id on
/// ties" is the first set bit. The idle set and the reuse rows — one
/// `(kernel, bitset)` pair per kernel name ever loaded, sorted by name —
/// are bitsets over positions, so "lowest id" is the first set bit there.
/// An update of a known brick flips a few bits and allocates nothing; a
/// brick registered, failed or repaired re-lays the index out in `O(n)`.
///
/// ```
/// use dredbox_orchestrator::{AccelIndex, AccelSlot};
/// use dredbox_bricks::BrickId;
///
/// let mut index = AccelIndex::new();
/// index.upsert(BrickId(20), AccelSlot {
///     loaded: Some("sobel".into()),
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
#[derive(Debug, Clone, Default)]
pub struct AccelIndex {
    /// Indexed bricks ascending by id, with their authoritative slots.
    slots: Vec<(BrickId, AccelSlot)>,
    /// Each brick id's position in `slots` (`EMPTY` if not indexed).
    pos_of: Vec<u32>,
    /// Each position's rank.
    rank_of: Vec<u32>,
    /// The position at each rank.
    at_rank: Vec<u32>,
    /// Ranks of powered-on bricks with an empty slot.
    empty: Vec<u64>,
    /// Ranks of powered-on bricks whose loaded kernel streams no session
    /// and can be swapped.
    idle_loaded: Vec<u64>,
    /// Ranks of powered-off bricks (wake-up candidates).
    sleeping: Vec<u64>,
    /// Positions of bricks streaming no session, in any power state (the
    /// power-off candidates).
    idle: Vec<u64>,
    /// Number of bits set in `idle`.
    idle_count: usize,
    /// Per kernel name, ascending: the positions of powered-on bricks
    /// loaded with it that have a free streaming slot (the reuse query).
    /// A row outlives its last member, so a kernel loaded again reuses it.
    loaded: Vec<(Arc<str>, Vec<u64>)>,
}

/// Sets or clears bit `i`.
fn put(bits: &mut [u64], i: usize, on: bool) {
    let mask = 1u64 << (i % 64);
    if on {
        bits[i / 64] |= mask;
    } else {
        bits[i / 64] &= !mask;
    }
}

/// The set bits of a bitset, ascending.
fn set_bits(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
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

    fn position(&self, brick: BrickId) -> Option<usize> {
        let pos = *self.pos_of.get(brick.0 as usize)?;
        (pos != EMPTY).then_some(pos as usize)
    }

    /// The indexed slot of a brick, if present.
    pub fn slot(&self, brick: BrickId) -> Option<&AccelSlot> {
        self.position(brick).map(|pos| &self.slots[pos].1)
    }

    /// The indexed slots of every brick, ascending by id (the authoritative
    /// scan a from-scratch rebuild starts from).
    pub fn slots(&self) -> impl Iterator<Item = (BrickId, &AccelSlot)> + '_ {
        self.slots.iter().map(|(b, s)| (*b, s))
    }

    /// Inserts or replaces a brick's slot, keeping every bitset in sync.
    /// `O(1)` for a known brick (plus a search of the few kernel rows);
    /// `O(n)` for a new one.
    pub fn upsert(&mut self, brick: BrickId, slot: AccelSlot) {
        if let Some(pos) = self.position(brick) {
            if self.slots[pos].1 != slot {
                let old = std::mem::replace(&mut self.slots[pos].1, slot);
                self.mark(pos, &old, false);
                let new = self.slots[pos].1.clone();
                self.mark(pos, &new, true);
            }
            return;
        }
        let at = self.slots.partition_point(|&(b, _)| b < brick);
        self.slots.insert(at, (brick, slot));
        self.relayout();
    }

    /// Removes a brick from the index. `O(n)`.
    pub(crate) fn remove(&mut self, brick: BrickId) {
        if let Some(pos) = self.position(brick) {
            self.slots.remove(pos);
            self.relayout();
        }
    }

    /// Adds (`on`) or clears the bucket memberships of `slot` at `pos`.
    fn mark(&mut self, pos: usize, slot: &AccelSlot, on: bool) {
        let rank = self.rank_of[pos] as usize;
        match (slot.powered_on, &slot.loaded) {
            (false, _) => put(&mut self.sleeping, rank, on),
            (true, None) => put(&mut self.empty, rank, on),
            (true, Some(_)) if slot.active_sessions == 0 => put(&mut self.idle_loaded, rank, on),
            (true, Some(_)) => {}
        }
        if let Some(name) = slot.reusable() {
            let row = match self.loaded.binary_search_by(|(k, _)| (**k).cmp(name)) {
                Ok(row) => row,
                Err(row) => {
                    let words = self.idle.len();
                    self.loaded.insert(row, (Arc::clone(name), vec![0; words]));
                    row
                }
            };
            put(&mut self.loaded[row].1, pos, on);
        }
        if slot.active_sessions == 0 {
            put(&mut self.idle, pos, on);
            if on {
                self.idle_count += 1;
            } else {
                self.idle_count -= 1;
            }
        }
    }

    /// Re-derives the position table, the ranks and every bitset from the
    /// slot array. Kernel rows are kept, cleared.
    fn relayout(&mut self) {
        let n = self.slots.len();
        let words = n.div_ceil(64);
        let ids = self.slots.last().map_or(0, |(b, _)| b.0 as usize + 1);
        let ids = ids.max(self.pos_of.len());
        self.pos_of.clear();
        self.pos_of.resize(ids, EMPTY);
        for (pos, (brick, _)) in self.slots.iter().enumerate() {
            self.pos_of[brick.0 as usize] = pos as u32;
        }
        let slots = &self.slots;
        self.at_rank = (0..n as u32).collect();
        self.at_rank.sort_by_key(|&pos| {
            let (brick, slot) = &slots[pos as usize];
            (std::cmp::Reverse(slot.pcap_bps), *brick)
        });
        self.rank_of = vec![0; n];
        for (rank, &pos) in self.at_rank.iter().enumerate() {
            self.rank_of[pos as usize] = rank as u32;
        }
        for bits in [
            &mut self.empty,
            &mut self.idle_loaded,
            &mut self.sleeping,
            &mut self.idle,
        ] {
            *bits = vec![0; words];
        }
        for (_, row) in &mut self.loaded {
            *row = vec![0; words];
        }
        self.idle_count = 0;
        for pos in 0..n {
            let slot = self.slots[pos].1.clone();
            self.mark(pos, &slot, true);
        }
    }

    /// The brick at each set bit of a position bitset, ascending by id.
    fn at_positions<'a>(&'a self, bits: &'a [u64]) -> impl Iterator<Item = BrickId> + 'a {
        set_bits(bits).map(|pos| self.slots[pos].0)
    }

    /// The brick at the first set bit of a rank bitset.
    fn first_ranked(&self, bits: &[u64]) -> Option<BrickId> {
        set_bits(bits)
            .next()
            .map(|rank| self.slots[self.at_rank[rank] as usize].0)
    }

    /// Accelerator bricks streaming no session, ascending by id.
    /// Zero-allocation; the iterator borrows the index.
    pub fn idle_bricks(&self) -> impl Iterator<Item = BrickId> + '_ {
        self.at_positions(&self.idle)
    }

    /// Number of bricks streaming no session. `O(1)` — the cluster digest's
    /// accelerator-availability feed.
    pub fn idle_count(&self) -> usize {
        self.idle_count
    }

    /// Lowest-id powered-on brick already programmed with `bitstream` that
    /// has a free streaming slot — the reuse query.
    pub fn loaded_fit(&self, bitstream: &str) -> Option<BrickId> {
        let row = self
            .loaded
            .binary_search_by(|(k, _)| (**k).cmp(bitstream))
            .ok()?;
        self.at_positions(&self.loaded[row].1).next()
    }

    /// Powered-on brick with an empty slot and the fastest PCAP port
    /// (lowest id on ties) — the cheapest program that evicts nothing.
    pub fn fastest_empty(&self) -> Option<BrickId> {
        self.first_ranked(&self.empty)
    }

    /// Powered-on brick whose loaded kernel is idle, fastest PCAP first —
    /// the reprogram (bitstream-eviction) fallback.
    pub fn fastest_idle_loaded(&self) -> Option<BrickId> {
        self.first_ranked(&self.idle_loaded)
    }

    /// Sleeping brick with the fastest PCAP port — the wake-as-last-resort
    /// fallback (its PR state was lost, so it always programs).
    pub fn fastest_sleeping(&self) -> Option<BrickId> {
        self.first_ranked(&self.sleeping)
    }

    /// The reuse rows with a member, as `(kernel, ids ascending)`.
    fn loaded_section(&self) -> Vec<(Arc<str>, Vec<BrickId>)> {
        self.loaded
            .iter()
            .filter(|(_, row)| row.iter().any(|&w| w != 0))
            .map(|(name, row)| (Arc::clone(name), self.at_positions(row).collect()))
            .collect()
    }

    /// A rank bitset as `(PCAP bandwidth, ids ascending)` buckets,
    /// ascending by bandwidth.
    fn pcap_section(&self, bits: &[u64]) -> Vec<(u64, Vec<BrickId>)> {
        let mut buckets: Vec<(u64, Vec<BrickId>)> = Vec::new();
        for rank in set_bits(bits) {
            let (brick, slot) = &self.slots[self.at_rank[rank] as usize];
            match buckets.last_mut() {
                Some((bps, ids)) if *bps == slot.pcap_bps => ids.push(*brick),
                _ => buckets.push((slot.pcap_bps, vec![*brick])),
            }
        }
        buckets.reverse();
        buckets
    }
}

/// Equal when the same bricks hold the same slots and every bucket has the
/// same members; kernel rows left empty do not count.
impl PartialEq for AccelIndex {
    fn eq(&self, other: &Self) -> bool {
        self.slots == other.slots
            && self.rank_of == other.rank_of
            && self.empty == other.empty
            && self.idle_loaded == other.idle_loaded
            && self.sleeping == other.sleeping
            && self.idle == other.idle
            && self.idle_count == other.idle_count
            && self.loaded_section() == other.loaded_section()
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

/// Writes the tree-based layout: the id-keyed slot map, then the reuse
/// buckets by kernel name, the empty, idle-loaded and sleeping buckets by
/// PCAP bandwidth (ascending; ids ascending in each) and the idle set.
/// Decoding rebuilds the index from the slot map and rejects a stream whose
/// recorded buckets disagree with it.
impl Snap for AccelIndex {
    fn snap(&self, out: &mut Vec<u8>) {
        self.slots.len().snap(out);
        for (brick, slot) in &self.slots {
            brick.snap(out);
            slot.snap(out);
        }
        self.loaded_section().snap(out);
        self.pcap_section(&self.empty).snap(out);
        self.pcap_section(&self.idle_loaded).snap(out);
        self.pcap_section(&self.sleeping).snap(out);
        snap_seq(self.idle_count, self.idle_bricks(), out);
    }

    fn unsnap(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        const TY: &str = "AccelIndex";
        let slots: FlatMap<BrickId, AccelSlot> = Snap::unsnap(r)?;
        if slots
            .last_key_value()
            .is_some_and(|(b, _)| b.0 > MAX_DECODED_ID)
        {
            return Err(SnapError::Inconsistent { ty: TY });
        }
        let mut index = AccelIndex {
            slots: slots.iter().map(|(b, s)| (*b, s.clone())).collect(),
            ..AccelIndex::default()
        };
        index.relayout();
        expect_seq(r, TY, index.loaded_section())?;
        expect_seq(r, TY, index.pcap_section(&index.empty))?;
        expect_seq(r, TY, index.pcap_section(&index.idle_loaded))?;
        expect_seq(r, TY, index.pcap_section(&index.sleeping))?;
        expect_seq(r, TY, index.idle_bricks())?;
        Ok(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(loaded: Option<&str>, active: u32, capacity: u32, bps: u64, on: bool) -> AccelSlot {
        AccelSlot {
            loaded: loaded.map(Arc::from),
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

    fn bytes(index: &AccelIndex) -> Vec<u8> {
        let mut out = Vec::new();
        index.snap(&mut out);
        out
    }

    /// Bricks in every bucket, with two bandwidths so rank and id order
    /// differ.
    fn mixed() -> AccelIndex {
        let mut index = AccelIndex::new();
        index.upsert(BrickId(9), slot(Some("x"), 0, 4, 1_000, true));
        index.upsert(BrickId(3), slot(None, 0, 4, 2_000, true));
        index.upsert(BrickId(5), slot(Some("y"), 2, 4, 1_000, true));
        index.upsert(BrickId(7), slot(None, 0, 4, 1_000, false));
        index.upsert(BrickId(11), slot(None, 0, 4, 1_000, true));
        index
    }

    #[test]
    fn the_codec_round_trips_and_writes_the_bucket_layout() {
        let index = mixed();
        let stream = bytes(&index);
        let back = AccelIndex::unsnap(&mut Reader::new(&stream)).expect("round trip");
        assert_eq!(back, index);
        assert_eq!(bytes(&back), stream);
        // The bucket sections follow the slot map: reuse rows by name,
        // then the empty, idle-loaded and sleeping buckets by bandwidth.
        let mut expected = Vec::new();
        index.slots.len().snap(&mut expected);
        for (brick, slot) in &index.slots {
            brick.snap(&mut expected);
            slot.snap(&mut expected);
        }
        let loaded: Vec<(Arc<str>, Vec<BrickId>)> = vec![
            (Arc::from("x"), vec![BrickId(9)]),
            (Arc::from("y"), vec![BrickId(5)]),
        ];
        loaded.snap(&mut expected);
        vec![(1_000u64, vec![BrickId(11)]), (2_000, vec![BrickId(3)])].snap(&mut expected);
        vec![(1_000u64, vec![BrickId(9)])].snap(&mut expected);
        vec![(1_000u64, vec![BrickId(7)])].snap(&mut expected);
        vec![BrickId(3), BrickId(7), BrickId(9), BrickId(11)].snap(&mut expected);
        assert_eq!(stream, expected);
    }

    #[test]
    fn streams_disagreeing_with_their_slots_are_rejected() {
        // The slot map of one index, the buckets of another where brick 3
        // sleeps.
        let mut forged = mixed();
        let mut sleeping = mixed();
        sleeping.upsert(BrickId(3), slot(None, 0, 4, 2_000, false));
        let mut stream = Vec::new();
        forged.slots.len().snap(&mut stream);
        for (brick, slot) in &forged.slots {
            brick.snap(&mut stream);
            slot.snap(&mut stream);
        }
        // Both slot sections have the same length.
        let buckets = bytes(&sleeping)[stream.len()..].to_vec();
        stream.extend_from_slice(&buckets);
        assert_eq!(
            AccelIndex::unsnap(&mut Reader::new(&stream)),
            Err(SnapError::Inconsistent { ty: "AccelIndex" })
        );

        // An id past the decode cap is refused before the table is sized.
        forged.upsert(BrickId(MAX_DECODED_ID + 1), slot(None, 0, 1, 1, true));
        assert_eq!(
            AccelIndex::unsnap(&mut Reader::new(&bytes(&forged))),
            Err(SnapError::Inconsistent { ty: "AccelIndex" })
        );
    }
}
