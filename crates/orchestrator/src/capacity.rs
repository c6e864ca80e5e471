//! Incrementally maintained capacity indexes for the SDM control plane.
//!
//! The paper's SDM controller must "safely inspect resource availability"
//! for every request. Rebuilding a rack-wide snapshot per request makes the
//! control plane O(bricks × requests) — fine for the four-brick vertical
//! prototype, ruinous at rack scale. The [`CapacityIndex`] keeps the
//! availability inspection *incremental*: every allocate, release, scale-up
//! and power transition flips a few bits, and each placement query becomes
//! a short walk over flat arrays with zero per-request heap allocation.
//!
//! ## Structure
//!
//! A rack is small and dense — a few hundred bricks whose core counts are
//! small integers — so the index is flat arrays, not ordered trees. Every
//! brick sits at a fixed *position* (`id - base`), and each rank is a
//! `KeyBits`: one bitset over positions per distinct key, rows ordered by
//! ascending key:
//!
//! * `powered` — powered-on bricks keyed by free cores. Serves best-fit
//!   ("fullest that fits": the first non-empty row at or above the
//!   request) and worst-fit ("emptiest": the top non-empty row) queries.
//! * `active` — the subset already running VMs, same key; the power-aware
//!   policy consults it first so sleeping bricks stay asleep.
//! * `sleeping` — powered-off bricks keyed by total cores, the
//!   wake-as-last-resort fallback every policy shares.
//! * `idle` — one bitset of bricks running no VM (any power state), the
//!   power-off candidates, iterated in id order without snapshotting.
//!
//! An update clears one bit and sets another: `O(1)` plus a binary search
//! over the few distinct keys. A fullest/emptiest query is
//! `O(keys + bricks/64)`; the FirstFit query ("lowest id with at least `k`
//! free") ORs the rows at or above `k` word by word and stops at the first
//! word holding a member, `O(keys × bricks/64)`.
//!
//! Bits ascend with [`BrickId`] inside every row, which preserves the
//! documented lowest-id tie-breaks the scenario engine's same-seed replay
//! guarantee depends on: the reference slice scan
//! ([`crate::placement::PlacementPolicy::choose`]) and the indexed path
//! ([`crate::placement::PlacementPolicy::choose_indexed`]) are decision-for-
//! decision identical (see the `capacity_equivalence` property tests).
//!
//! ## Snapshot layout
//!
//! The codec writes the sections of the earlier tree-based index — `(key,
//! brick)` pairs in `(key asc, id asc)` order — derived from the bitsets,
//! so snapshot bytes are unchanged. Decoding rebuilds the bitsets from the
//! slots and rejects a stream whose recorded sections disagree with them.

use serde::{Deserialize, Serialize};

use dredbox_bricks::{BrickId, BrickMap};
use dredbox_snap::{Reader, Snap, SnapError};

use crate::placement::ComputeBrickView;

/// The capacity facts of one compute brick, as indexed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CapacitySlot {
    /// Total schedulable cores.
    pub total_cores: u32,
    /// Cores currently free.
    pub free_cores: u32,
    /// Whether the brick runs at least one VM.
    pub active: bool,
    /// Whether the brick is powered on.
    pub powered_on: bool,
}

impl CapacitySlot {
    /// The slot as a placement view (the reference-scan currency).
    pub fn view(&self, brick: BrickId) -> ComputeBrickView {
        ComputeBrickView {
            brick,
            total_cores: self.total_cores,
            free_cores: self.free_cores,
            active: self.active,
            powered_on: self.powered_on,
        }
    }
}

/// Bricks bucketed by a small integer key: one bitset over brick positions
/// per distinct key, rows ordered by ascending key, plus a bitset of the
/// rows that hold a member so queries skip empty rows.
#[derive(Debug, Clone, Default)]
struct KeyBits {
    /// Distinct keys seen, ascending; row `i` holds the bricks at `keys[i]`.
    keys: Vec<u32>,
    /// Members per row.
    counts: Vec<u32>,
    /// Rows with at least one member.
    occupied: Vec<u64>,
    /// Row-major bitsets, `words` words per row.
    bits: Vec<u64>,
    words: usize,
    /// Members over all rows.
    len: usize,
}

impl KeyBits {
    fn with_words(words: usize) -> Self {
        KeyBits {
            words,
            ..KeyBits::default()
        }
    }

    fn row(&self, i: usize) -> &[u64] {
        &self.bits[i * self.words..(i + 1) * self.words]
    }

    /// Index of the first row keyed at least `key`.
    fn first_row_at_least(&self, key: u32) -> usize {
        self.keys.partition_point(|&k| k < key)
    }

    fn insert(&mut self, key: u32, pos: usize) {
        let i = match self.keys.binary_search(&key) {
            Ok(i) => i,
            Err(i) => {
                // A key value first seen: open its row. Core counts are
                // few, so this happens a handful of times per rack.
                self.keys.insert(i, key);
                self.counts.insert(i, 0);
                let at = i * self.words;
                self.bits
                    .splice(at..at, std::iter::repeat(0).take(self.words));
                self.occupied = vec![0; self.keys.len().div_ceil(64)];
                for (row, _) in self.counts.iter().enumerate().filter(|(_, &c)| c > 0) {
                    self.occupied[row / 64] |= 1 << (row % 64);
                }
                i
            }
        };
        self.bits[i * self.words + pos / 64] |= 1 << (pos % 64);
        self.counts[i] += 1;
        self.occupied[i / 64] |= 1 << (i % 64);
        self.len += 1;
    }

    fn remove(&mut self, key: u32, pos: usize) {
        if let Ok(i) = self.keys.binary_search(&key) {
            let word = &mut self.bits[i * self.words + pos / 64];
            let mask = 1u64 << (pos % 64);
            if *word & mask != 0 {
                *word &= !mask;
                self.counts[i] -= 1;
                if self.counts[i] == 0 {
                    self.occupied[i / 64] &= !(1 << (i % 64));
                }
                self.len -= 1;
            }
        }
    }

    /// Largest key with a member, or 0 when empty.
    fn max_key(&self) -> u32 {
        prev_set_bit(&self.occupied, self.keys.len()).map_or(0, |i| self.keys[i])
    }

    /// Lowest position in the lowest occupied row keyed at least `key`,
    /// skipping `exclude` — the "fullest that fits" query.
    fn fullest_at_least(&self, key: u32, exclude: Option<usize>) -> Option<usize> {
        Bits::starting_at(&self.occupied, self.first_row_at_least(key))
            .find_map(|i| lowest_set(self.row(i).iter().copied(), exclude))
    }

    /// Lowest position in the highest occupied row keyed at least `key`,
    /// skipping `exclude` — the "emptiest that fits" query.
    fn emptiest_at_least(&self, key: u32, exclude: Option<usize>) -> Option<usize> {
        let first = self.first_row_at_least(key);
        let mut below = self.keys.len();
        while let Some(i) = prev_set_bit(&self.occupied, below).filter(|&i| i >= first) {
            if let Some(pos) = lowest_set(self.row(i).iter().copied(), exclude) {
                return Some(pos);
            }
            below = i;
        }
        None
    }

    /// Lowest position over every row keyed at least `key`, skipping
    /// `exclude` — the "lowest id that fits" query. Word-major, so the walk
    /// stops at the first word holding a member.
    fn lowest_at_least(&self, key: u32, exclude: Option<usize>) -> Option<usize> {
        let first = self.first_row_at_least(key);
        let union = (0..self.words).map(|w| {
            Bits::starting_at(&self.occupied, first)
                .fold(0u64, |acc, i| acc | self.bits[i * self.words + w])
        });
        lowest_set(union, exclude)
    }

    /// `(key, position)` members in `(key asc, position asc)` order.
    fn entries(&self) -> impl Iterator<Item = (u32, usize)> + '_ {
        (0..self.keys.len())
            .flat_map(move |i| Bits::starting_at(self.row(i), 0).map(move |p| (self.keys[i], p)))
    }
}

/// Lowest set bit over a word sequence, skipping position `exclude`.
fn lowest_set(words: impl Iterator<Item = u64>, exclude: Option<usize>) -> Option<usize> {
    for (w, mut word) in words.enumerate() {
        if let Some(x) = exclude.filter(|x| x / 64 == w) {
            word &= !(1u64 << (x % 64));
        }
        if word != 0 {
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
    }
    None
}

/// The set bit positions of a bitset at or above a start, ascending.
struct Bits<'a> {
    words: &'a [u64],
    /// Index of the word `rest` came from.
    w: usize,
    /// The bits of word `w` not yet yielded.
    rest: u64,
}

impl<'a> Bits<'a> {
    fn starting_at(words: &'a [u64], from: usize) -> Self {
        let w = from / 64;
        let rest = words
            .get(w)
            .map_or(0, |&word| word & (!0u64 << (from % 64)));
        Bits { words, w, rest }
    }
}

impl Iterator for Bits<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.rest == 0 {
            self.w += 1;
            self.rest = *self.words.get(self.w)?;
        }
        let bit = self.rest.trailing_zeros() as usize;
        self.rest &= self.rest - 1;
        Some(self.w * 64 + bit)
    }
}

/// The highest set bit strictly below `below`.
fn prev_set_bit(words: &[u64], below: usize) -> Option<usize> {
    if below == 0 {
        return None;
    }
    let last = below - 1;
    let mut w = (last / 64).min(words.len().checked_sub(1)?);
    let mut word = words[w];
    if w == last / 64 {
        word &= !0u64 >> (63 - last % 64);
    }
    loop {
        if word != 0 {
            return Some(w * 64 + 63 - word.leading_zeros() as usize);
        }
        w = w.checked_sub(1)?;
        word = words[w];
    }
}

/// The incrementally maintained availability view over all compute bricks.
///
/// ```
/// use dredbox_orchestrator::capacity::{CapacityIndex, CapacitySlot};
/// use dredbox_orchestrator::placement::PlacementPolicy;
/// use dredbox_bricks::{BrickId, BrickMap};
///
/// let mut index = CapacityIndex::new();
/// index.upsert(BrickId(0), CapacitySlot { total_cores: 32, free_cores: 8, active: true, powered_on: true });
/// index.upsert(BrickId(1), CapacitySlot { total_cores: 32, free_cores: 32, active: false, powered_on: true });
/// // Power-aware packing prefers the active brick while the request fits.
/// assert_eq!(PlacementPolicy::PowerAware.choose_indexed(&index, 8), Some(BrickId(0)));
/// assert_eq!(PlacementPolicy::PowerAware.choose_indexed(&index, 16), Some(BrickId(1)));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CapacityIndex {
    /// Authoritative slot per brick, so updates can unindex the old state.
    slots: BrickMap<CapacitySlot>,
    /// Brick id at bitset position 0.
    base: u32,
    /// Powered-on bricks keyed by free cores.
    powered: KeyBits,
    /// Powered-on bricks that run at least one VM, keyed by free cores.
    active: KeyBits,
    /// Powered-off bricks keyed by total cores (wake-up candidates).
    sleeping: KeyBits,
    /// Bricks running no VM (power-off candidates).
    idle: Vec<u64>,
    /// Sum of free cores over powered-on bricks, so rack-level digests
    /// read it in `O(1)`.
    powered_free_cores: u64,
}

impl CapacityIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        CapacityIndex::default()
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
    pub fn slot(&self, brick: BrickId) -> Option<&CapacitySlot> {
        self.slots.get(brick)
    }

    /// The bitset position of `brick`, if the bitsets cover it.
    fn position(&self, brick: BrickId) -> Option<usize> {
        let pos = brick.0.checked_sub(self.base)? as usize;
        (pos < self.idle.len() * 64).then_some(pos)
    }

    fn brick_at(&self, pos: usize) -> BrickId {
        BrickId(self.base + pos as u32)
    }

    /// Inserts or replaces a brick's slot, keeping every rank in sync.
    /// `O(1)`; a brick outside the positions covered so far (registration)
    /// re-lays the bitsets out in `O(bricks)`.
    pub fn upsert(&mut self, brick: BrickId, slot: CapacitySlot) {
        let Some(pos) = self.position(brick) else {
            self.slots.insert(brick, slot);
            self.rebuild();
            return;
        };
        if let Some(old) = self.slots.insert(brick, slot) {
            self.unindex(pos, &old);
        }
        self.index(pos, &slot);
    }

    /// Removes a brick from the index. `O(1)`.
    pub fn remove(&mut self, brick: BrickId) {
        if let Some(old) = self.slots.remove(brick) {
            let pos = self.position(brick).expect("indexed bricks are covered");
            self.unindex(pos, &old);
            self.idle[pos / 64] &= !(1u64 << (pos % 64));
        }
    }

    /// Re-lays the bitsets out over the span of indexed ids and re-indexes
    /// every slot.
    fn rebuild(&mut self) {
        self.base = self.slots.keys().next().map_or(0, |b| b.0);
        let span = self
            .slots
            .keys()
            .last()
            .map_or(0, |b| (b.0 - self.base) as usize + 1);
        let words = span.div_ceil(64);
        self.powered = KeyBits::with_words(words);
        self.active = KeyBits::with_words(words);
        self.sleeping = KeyBits::with_words(words);
        self.idle = vec![0; words];
        self.powered_free_cores = 0;
        let slots = std::mem::take(&mut self.slots);
        for (brick, slot) in slots.iter() {
            self.index((brick.0 - self.base) as usize, slot);
        }
        self.slots = slots;
    }

    fn index(&mut self, pos: usize, slot: &CapacitySlot) {
        if slot.powered_on {
            self.powered.insert(slot.free_cores, pos);
            self.powered_free_cores += u64::from(slot.free_cores);
            if slot.active {
                self.active.insert(slot.free_cores, pos);
            }
        } else {
            self.sleeping.insert(slot.total_cores, pos);
        }
        let mask = 1u64 << (pos % 64);
        if slot.active {
            self.idle[pos / 64] &= !mask;
        } else {
            self.idle[pos / 64] |= mask;
        }
    }

    fn unindex(&mut self, pos: usize, old: &CapacitySlot) {
        if old.powered_on {
            self.powered.remove(old.free_cores, pos);
            self.powered_free_cores -= u64::from(old.free_cores);
            if old.active {
                self.active.remove(old.free_cores, pos);
            }
        } else {
            self.sleeping.remove(old.total_cores, pos);
        }
    }

    /// Bricks currently running no VM, ascending by id. Zero-allocation; the
    /// iterator borrows the index.
    pub fn idle_bricks(&self) -> impl Iterator<Item = BrickId> + '_ {
        Bits::starting_at(&self.idle, 0).map(|p| self.brick_at(p))
    }

    /// Placement views of every indexed brick, ascending by id (the
    /// reference scan input).
    pub fn views(&self) -> impl Iterator<Item = ComputeBrickView> + '_ {
        self.slots.iter().map(|(b, s)| s.view(b))
    }

    /// Lowest-id powered-on brick with at least `vcpus` free cores — the
    /// FirstFit query. `O(keys × bricks/64)`, stopping at the first word
    /// that holds a fitting brick.
    pub fn first_powered_fit(&self, vcpus: u32) -> Option<BrickId> {
        self.powered
            .lowest_at_least(vcpus, None)
            .map(|p| self.brick_at(p))
    }

    /// Fullest active brick (fewest free cores, lowest id on ties) that
    /// still fits `vcpus` — the power-aware packing query.
    /// `O(keys + bricks/64)`.
    pub fn fullest_active_fit(&self, vcpus: u32) -> Option<BrickId> {
        self.active
            .fullest_at_least(vcpus, None)
            .map(|p| self.brick_at(p))
    }

    /// Like [`CapacityIndex::fullest_active_fit`] but never returns
    /// `exclude` — the consolidation-target query (a migrating VM must not
    /// be "placed" back onto the brick it is leaving).
    pub fn fullest_active_fit_excluding(&self, vcpus: u32, exclude: BrickId) -> Option<BrickId> {
        self.active
            .fullest_at_least(vcpus, self.position(exclude))
            .map(|p| self.brick_at(p))
    }

    /// Like [`CapacityIndex::emptiest_powered_fit`] but never returns
    /// `exclude` — the hotspot-evacuation target query. Walks the free-core
    /// rows downwards until one holds a brick other than `exclude`, taking
    /// the lowest id within each row.
    pub fn emptiest_powered_fit_excluding(&self, vcpus: u32, exclude: BrickId) -> Option<BrickId> {
        self.powered
            .emptiest_at_least(vcpus, self.position(exclude))
            .map(|p| self.brick_at(p))
    }

    /// Fullest powered-on brick that fits `vcpus` (power-aware fallback when
    /// no active brick fits). `O(keys + bricks/64)`.
    pub fn fullest_powered_fit(&self, vcpus: u32) -> Option<BrickId> {
        self.powered
            .fullest_at_least(vcpus, None)
            .map(|p| self.brick_at(p))
    }

    /// Emptiest powered-on brick (most free cores, lowest id on ties),
    /// provided it fits `vcpus` — the Balanced query.
    /// `O(keys + bricks/64)`.
    pub fn emptiest_powered_fit(&self, vcpus: u32) -> Option<BrickId> {
        self.powered
            .emptiest_at_least(vcpus, None)
            .map(|p| self.brick_at(p))
    }

    /// Lowest-id sleeping brick whose full capacity could host `vcpus` —
    /// the wake-as-last-resort fallback shared by every policy.
    /// `O(keys × bricks/64)`.
    pub fn first_sleeping_capable(&self, vcpus: u32) -> Option<BrickId> {
        self.sleeping
            .lowest_at_least(vcpus, None)
            .map(|p| self.brick_at(p))
    }

    /// Like [`CapacityIndex::first_sleeping_capable`] but never returns
    /// `exclude` — the evacuation fallback must not "wake" the brick being
    /// evacuated (its power view can be off while it still hosts VMs).
    pub fn first_sleeping_capable_excluding(
        &self,
        vcpus: u32,
        exclude: BrickId,
    ) -> Option<BrickId> {
        self.sleeping
            .lowest_at_least(vcpus, self.position(exclude))
            .map(|p| self.brick_at(p))
    }

    /// Sum of free cores over powered-on bricks. `O(1)` — this is the
    /// cluster digest's compute-capacity feed.
    pub fn powered_free_cores(&self) -> u64 {
        self.powered_free_cores
    }

    /// Most free cores on any single powered-on brick — the digest's
    /// "largest schedulable slot without a wake-up". `O(keys)`.
    pub fn largest_powered_free(&self) -> u32 {
        self.powered.max_key()
    }

    /// Largest total capacity among sleeping bricks — the digest's
    /// wake-as-last-resort screen. `O(keys)`.
    pub fn largest_sleeping_total(&self) -> u32 {
        self.sleeping.max_key()
    }

    /// Number of powered-on bricks. `O(1)`.
    pub fn powered_brick_count(&self) -> usize {
        self.powered.len
    }

    /// Number of bricks running at least one VM. `O(1)`.
    pub fn active_brick_count(&self) -> usize {
        self.active.len
    }

    /// A rank's members as the `(key, brick)` pairs of the tree-based
    /// layout, `(key asc, id asc)`.
    fn ranked<'a>(&'a self, rank: &'a KeyBits) -> impl Iterator<Item = (u32, BrickId)> + 'a {
        rank.entries().map(|(key, p)| (key, self.brick_at(p)))
    }
}

/// Two indexes are equal when they hold the same slots *and* rank the same
/// bricks the same way — so comparing an incrementally maintained index
/// with a from-scratch rebuild checks the ranks, not just the slots.
impl PartialEq for CapacityIndex {
    fn eq(&self, other: &Self) -> bool {
        self.slots == other.slots
            && self.ranked(&self.powered).eq(other.ranked(&other.powered))
            && self.ranked(&self.active).eq(other.ranked(&other.active))
            && self
                .ranked(&self.sleeping)
                .eq(other.ranked(&other.sleeping))
            && self.idle_bricks().eq(other.idle_bricks())
            && self.powered_free_cores == other.powered_free_cores
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_struct!(CapacitySlot {
    total_cores,
    free_cores,
    active,
    powered_on,
});

/// Writes the tree-based layout (slots, the three `(key, brick)` rank
/// sets, the idle set, the free-core sum) derived from the bitsets;
/// decoding rebuilds the bitsets from the slots and checks every recorded
/// section against them.
impl Snap for CapacityIndex {
    fn snap(&self, out: &mut Vec<u8>) {
        self.slots.snap(out);
        for rank in [&self.powered, &self.active, &self.sleeping] {
            dredbox_snap::snap_seq(rank.len, self.ranked(rank), out);
        }
        let idle = self.idle.iter().map(|w| w.count_ones() as usize).sum();
        dredbox_snap::snap_seq(idle, self.idle_bricks(), out);
        self.powered_free_cores.snap(out);
    }

    fn unsnap(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        const TY: &str = "CapacityIndex";
        let mut index = CapacityIndex {
            slots: BrickMap::unsnap(r)?,
            ..CapacityIndex::default()
        };
        index.rebuild();
        for rank in [&index.powered, &index.active, &index.sleeping] {
            dredbox_snap::expect_seq(r, TY, index.ranked(rank))?;
        }
        dredbox_snap::expect_seq(r, TY, index.idle_bricks())?;
        if u64::unsnap(r)? != index.powered_free_cores {
            return Err(SnapError::Inconsistent { ty: TY });
        }
        Ok(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::PlacementPolicy;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn slot(total: u32, free: u32, active: bool, on: bool) -> CapacitySlot {
        CapacitySlot {
            total_cores: total,
            free_cores: free,
            active,
            powered_on: on,
        }
    }

    #[test]
    fn upsert_moves_bricks_between_buckets() {
        let mut index = CapacityIndex::new();
        assert!(index.is_empty());
        index.upsert(BrickId(0), slot(32, 32, false, true));
        index.upsert(BrickId(1), slot(32, 8, true, true));
        assert_eq!(index.len(), 2);
        assert_eq!(index.slot(BrickId(1)).unwrap().free_cores, 8);
        assert_eq!(index.idle_bricks().collect::<Vec<_>>(), vec![BrickId(0)]);
        assert_eq!(index.first_powered_fit(16), Some(BrickId(0)));
        assert_eq!(index.fullest_active_fit(8), Some(BrickId(1)));

        // Power brick 0 off: it leaves the powered buckets and becomes a
        // wake-up candidate.
        index.upsert(BrickId(0), slot(32, 32, false, false));
        assert_eq!(index.first_powered_fit(16), None);
        assert_eq!(index.first_sleeping_capable(16), Some(BrickId(0)));

        // Brick 1 releases its VM: it leaves the active bucket.
        index.upsert(BrickId(1), slot(32, 32, false, true));
        assert_eq!(index.fullest_active_fit(1), None);
        assert_eq!(
            index.idle_bricks().collect::<Vec<_>>(),
            vec![BrickId(0), BrickId(1)]
        );

        index.remove(BrickId(0));
        index.remove(BrickId(0)); // double remove is a no-op
        assert_eq!(index.len(), 1);
        assert_eq!(index.first_sleeping_capable(1), None);
    }

    #[test]
    fn queries_tie_break_on_lowest_brick_id() {
        let mut index = CapacityIndex::new();
        for id in [7u32, 3, 5] {
            index.upsert(BrickId(id), slot(32, 16, true, true));
        }
        assert_eq!(index.first_powered_fit(4), Some(BrickId(3)));
        assert_eq!(index.fullest_active_fit(4), Some(BrickId(3)));
        assert_eq!(index.emptiest_powered_fit(4), Some(BrickId(3)));
        assert_eq!(index.emptiest_powered_fit(17), None);
        for id in [9u32, 2] {
            index.upsert(BrickId(id), slot(32, 0, false, false));
        }
        assert_eq!(index.first_sleeping_capable(8), Some(BrickId(2)));
        // Exclusion skips past the lowest-id brick to the next capable one.
        assert_eq!(
            index.first_sleeping_capable_excluding(8, BrickId(2)),
            Some(BrickId(9))
        );
        assert_eq!(
            index.fullest_active_fit_excluding(4, BrickId(3)),
            Some(BrickId(5))
        );
        assert_eq!(
            index.emptiest_powered_fit_excluding(4, BrickId(3)),
            Some(BrickId(5))
        );
    }

    #[test]
    fn aggregates_track_power_transitions() {
        let mut index = CapacityIndex::new();
        index.upsert(BrickId(0), slot(32, 32, false, true));
        index.upsert(BrickId(1), slot(32, 8, true, true));
        index.upsert(BrickId(2), slot(16, 16, false, false));
        assert_eq!(index.powered_free_cores(), 40);
        assert_eq!(index.largest_powered_free(), 32);
        assert_eq!(index.largest_sleeping_total(), 16);
        assert_eq!(index.powered_brick_count(), 2);
        assert_eq!(index.active_brick_count(), 1);

        index.upsert(BrickId(0), slot(32, 32, false, false));
        assert_eq!(index.powered_free_cores(), 8);
        assert_eq!(index.largest_powered_free(), 8);
        assert_eq!(index.largest_sleeping_total(), 32);

        index.remove(BrickId(1));
        assert_eq!(index.powered_free_cores(), 0);
        assert_eq!(index.largest_powered_free(), 0);
        assert_eq!(index.active_brick_count(), 0);
    }

    #[test]
    fn views_round_trip_through_the_reference_scan() {
        let mut index = CapacityIndex::new();
        index.upsert(BrickId(0), slot(32, 2, true, true));
        index.upsert(BrickId(1), slot(32, 16, true, true));
        index.upsert(BrickId(2), slot(32, 32, false, true));
        let views: Vec<ComputeBrickView> = index.views().collect();
        for policy in [
            PlacementPolicy::FirstFit,
            PlacementPolicy::PowerAware,
            PlacementPolicy::Balanced,
        ] {
            for vcpus in [1, 8, 16, 32, 64] {
                assert_eq!(
                    policy.choose(&views, vcpus),
                    policy.choose_indexed(&index, vcpus),
                    "{policy:?} diverged at {vcpus} vcpus"
                );
            }
        }
    }

    /// The tree-based layout, built from the slots alone: the slots, then
    /// powered `(free, id)`, active `(free, id)` and sleeping `(total, id)`
    /// rank sets, the idle set and the powered free-core sum.
    fn rank_set_layout(index: &CapacityIndex) -> Vec<u8> {
        let mut powered = BTreeSet::new();
        let mut active = BTreeSet::new();
        let mut sleeping = BTreeSet::new();
        let mut idle = BTreeSet::new();
        let mut free_sum = 0u64;
        for (b, s) in index.slots.iter() {
            if s.powered_on {
                powered.insert((s.free_cores, b));
                free_sum += u64::from(s.free_cores);
                if s.active {
                    active.insert((s.free_cores, b));
                }
            } else {
                sleeping.insert((s.total_cores, b));
            }
            if !s.active {
                idle.insert(b);
            }
        }
        let mut out = Vec::new();
        index.slots.snap(&mut out);
        powered.snap(&mut out);
        active.snap(&mut out);
        sleeping.snap(&mut out);
        idle.snap(&mut out);
        free_sum.snap(&mut out);
        out
    }

    #[test]
    fn codec_writes_the_rank_set_layout_and_rejects_contradictions() {
        let mut index = CapacityIndex::new();
        for id in [130u32, 4, 5, 71, 9] {
            index.upsert(BrickId(id), slot(32, id % 17, id % 2 == 0, id != 9));
        }
        index.remove(BrickId(5));
        let mut bytes = Vec::new();
        index.snap(&mut bytes);
        assert_eq!(bytes, rank_set_layout(&index));
        let back = CapacityIndex::unsnap(&mut Reader::new(&bytes)).expect("round trip");
        assert_eq!(back, index);
        assert_eq!(back.first_powered_fit(1), index.first_powered_fit(1));

        // Slots of one state followed by the sections of another.
        let mut other = index.clone();
        other.upsert(BrickId(4), slot(32, 1, true, true));
        let mut forged = Vec::new();
        other.slots.snap(&mut forged);
        let mut own_slots = Vec::new();
        index.slots.snap(&mut own_slots);
        forged.extend_from_slice(&bytes[own_slots.len()..]);
        assert_eq!(
            CapacityIndex::unsnap(&mut Reader::new(&forged)),
            Err(SnapError::Inconsistent {
                ty: "CapacityIndex"
            })
        );
    }

    /// Every query answered straight from the slots, as the tree-based
    /// index answered it: `(key asc, id asc)` walks with lowest-id ties.
    fn scan_answers(index: &CapacityIndex, vcpus: u32, exclude: BrickId) -> Vec<Option<BrickId>> {
        let slots: Vec<(BrickId, CapacitySlot)> =
            index.slots.iter().map(|(b, s)| (b, *s)).collect();
        let powered = || {
            slots
                .iter()
                .filter(|(_, s)| s.powered_on && s.free_cores >= vcpus)
        };
        let active = || powered().filter(|(_, s)| s.active);
        let sleeping = || {
            slots
                .iter()
                .filter(|(_, s)| !s.powered_on && s.total_cores >= vcpus)
        };
        let fullest = |it: &mut dyn Iterator<Item = &(BrickId, CapacitySlot)>| {
            it.min_by_key(|(b, s)| (s.free_cores, *b)).map(|(b, _)| *b)
        };
        let emptiest = |it: &mut dyn Iterator<Item = &(BrickId, CapacitySlot)>| {
            it.min_by_key(|(b, s)| (std::cmp::Reverse(s.free_cores), *b))
                .map(|(b, _)| *b)
        };
        vec![
            powered().map(|(b, _)| *b).min(),
            fullest(&mut active()),
            fullest(&mut active().filter(|(b, _)| *b != exclude)),
            fullest(&mut powered()),
            emptiest(&mut powered()),
            emptiest(&mut powered().filter(|(b, _)| *b != exclude)),
            sleeping().map(|(b, _)| *b).min(),
            sleeping().map(|(b, _)| *b).filter(|b| *b != exclude).min(),
        ]
    }

    fn index_answers(index: &CapacityIndex, vcpus: u32, exclude: BrickId) -> Vec<Option<BrickId>> {
        vec![
            index.first_powered_fit(vcpus),
            index.fullest_active_fit(vcpus),
            index.fullest_active_fit_excluding(vcpus, exclude),
            index.fullest_powered_fit(vcpus),
            index.emptiest_powered_fit(vcpus),
            index.emptiest_powered_fit_excluding(vcpus, exclude),
            index.first_sleeping_capable(vcpus),
            index.first_sleeping_capable_excluding(vcpus, exclude),
        ]
    }

    proptest! {
        /// Over random upsert/remove traces (ids spanning several bitset
        /// words, registered out of order), the flat index answers every
        /// query as a scan of its slots would, equals a from-scratch
        /// rebuild, and encodes to the tree-based layout.
        #[test]
        fn flat_index_matches_slot_scans_rebuilds_and_the_rank_set_layout(
            ops in proptest::collection::vec(((0u32..200, 0u32..40, 0u32..5), (proptest::bool::ANY, proptest::bool::ANY, 0u32..8)), 1..80),
            probes in proptest::collection::vec((0u32..40, 0u32..200), 4..8),
        ) {
            let mut index = CapacityIndex::new();
            for &((id, free, total_step), (active, on, remove)) in &ops {
                if remove == 0 {
                    index.remove(BrickId(id));
                } else {
                    let total = 8 * (total_step + 1);
                    index.upsert(BrickId(id), slot(total, free.min(total), active, on));
                }
            }
            for &(vcpus, exclude) in &probes {
                prop_assert_eq!(
                    index_answers(&index, vcpus, BrickId(exclude)),
                    scan_answers(&index, vcpus, BrickId(exclude))
                );
            }
            let mut rebuilt = CapacityIndex::new();
            for (b, s) in index.slots.iter() {
                rebuilt.upsert(b, *s);
            }
            prop_assert_eq!(&rebuilt, &index);
            prop_assert_eq!(rebuilt.largest_powered_free(), index.largest_powered_free());
            prop_assert_eq!(rebuilt.largest_sleeping_total(), index.largest_sleeping_total());
            prop_assert_eq!(rebuilt.powered_brick_count(), index.powered_brick_count());
            let mut bytes = Vec::new();
            index.snap(&mut bytes);
            prop_assert_eq!(&bytes, &rank_set_layout(&index));
            let back = CapacityIndex::unsnap(&mut Reader::new(&bytes)).expect("round trip");
            prop_assert_eq!(&back, &index);
        }
    }
}
