//! Contiguous range allocation within one dMEMBRICK's pool.

use serde::{Deserialize, Serialize};

use dredbox_bricks::BrickId;
use dredbox_sim::flat::{FlatMap, FlatSet};
use dredbox_sim::units::ByteSize;
use dredbox_snap::{Reader, Snap, SnapError};

use crate::error::MemoryError;
use crate::segment::{MemorySegment, SegmentId};

/// One live allocation: its length and, when the pool carved it for a
/// segment, that segment's id and owning compute brick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Allocation {
    len: u64,
    segment: Option<(SegmentId, BrickId)>,
}

/// A segregated free-list allocator over one dMEMBRICK's byte range.
///
/// Free ranges are held in two synchronized sorted vectors: one ordered by
/// offset (non-overlapping, coalesced on release — so fragmentation
/// statistics like [`BrickAllocator::largest_free_block`] reflect real
/// contiguity) and one ordered by size over the same ranges, so finding a
/// fitting range is a binary search instead of a first-fit scan.
/// Allocation takes the smallest free range that fits, lowest offset on
/// ties, which keeps placement deterministic and fragmentation low under
/// rack-scale churn.
///
/// Live allocations are tracked alongside the free ranges, so
/// [`BrickAllocator::release`] accepts exactly the ranges handed out by
/// [`BrickAllocator::allocate`] and rejects everything else — double frees,
/// partial frees, never-allocated ranges and offsets that would wrap past
/// the end of the address space. When the [`crate::MemoryPool`] carves a
/// segment, the allocation record also holds the segment's id and owner:
/// the dMEMBRICK's allocator is where a live segment is owned.
///
/// ```
/// use dredbox_memory::allocator::BrickAllocator;
/// use dredbox_bricks::BrickId;
/// use dredbox_sim::units::ByteSize;
///
/// let mut alloc = BrickAllocator::new(BrickId(10), ByteSize::from_gib(32));
/// let offset = alloc.allocate(ByteSize::from_gib(8))?;
/// assert_eq!(offset, 0);
/// alloc.release(offset, ByteSize::from_gib(8))?;
/// assert_eq!(alloc.free(), ByteSize::from_gib(32));
/// # Ok::<(), dredbox_memory::MemoryError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BrickAllocator {
    brick: BrickId,
    capacity: ByteSize,
    /// Total free bytes; kept in sync with `free_list`.
    free_bytes: u64,
    /// Free ranges as `(offset, length)`: sorted by offset, non-overlapping,
    /// coalesced. Lookups are binary searches; splits and single-neighbour
    /// merges update entries in place.
    free_list: Vec<(u64, u64)>,
    /// The same free ranges as `(length, offset)` — the size-class index
    /// that makes finding a fitting range a binary search.
    free_by_size: FlatSet<(u64, u64)>,
    /// Live allocations by offset, validated on release.
    allocated: FlatMap<u64, Allocation>,
}

impl BrickAllocator {
    /// Creates an allocator over `capacity` bytes of brick `brick`.
    pub fn new(brick: BrickId, capacity: ByteSize) -> Self {
        let mut free_list = Vec::new();
        let mut free_by_size = FlatSet::new();
        if !capacity.is_zero() {
            free_list.push((0, capacity.as_bytes()));
            free_by_size.insert((capacity.as_bytes(), 0));
        }
        BrickAllocator {
            brick,
            capacity,
            free_bytes: capacity.as_bytes(),
            free_list,
            free_by_size,
            allocated: FlatMap::new(),
        }
    }

    /// The brick this allocator manages.
    pub fn brick(&self) -> BrickId {
        self.brick
    }

    /// Total capacity.
    pub fn capacity(&self) -> ByteSize {
        self.capacity
    }

    /// Total free bytes (possibly fragmented).
    pub fn free(&self) -> ByteSize {
        ByteSize::from_bytes(self.free_bytes)
    }

    /// Total allocated bytes.
    pub fn allocated(&self) -> ByteSize {
        self.capacity - self.free()
    }

    /// Whether nothing is allocated.
    pub fn is_unused(&self) -> bool {
        self.allocated.is_empty()
    }

    /// Size of the largest contiguous free block.
    pub fn largest_free_block(&self) -> ByteSize {
        ByteSize::from_bytes(self.free_by_size.last().map_or(0, |&(len, _)| len))
    }

    /// Number of discrete free ranges (fragments).
    pub fn free_range_count(&self) -> usize {
        self.free_list.len()
    }

    /// The free ranges as `(offset, length)` pairs, ascending by offset.
    pub fn free_ranges(&self) -> Vec<(u64, u64)> {
        self.free_list.clone()
    }

    /// The live allocated ranges as `(offset, length)`, ascending by offset.
    pub fn allocated_ranges(&self) -> Vec<(u64, u64)> {
        self.allocated.iter().map(|(&o, a)| (o, a.len)).collect()
    }

    /// Number of live allocations.
    pub(crate) fn allocation_count(&self) -> usize {
        self.allocated.len()
    }

    /// External fragmentation in `[0, 1]`: 1 − largest-free-block / free.
    /// Zero when empty or when all free space is contiguous.
    pub fn fragmentation(&self) -> f64 {
        let free = self.free().as_bytes();
        if free == 0 {
            return 0.0;
        }
        1.0 - self.largest_free_block().as_bytes() as f64 / free as f64
    }

    /// Allocates `size` contiguous bytes, returning the offset. The
    /// size-class index yields the smallest free range that fits (lowest
    /// offset on ties) in one binary search.
    ///
    /// # Errors
    ///
    /// * [`MemoryError::EmptyRequest`] for a zero-byte request.
    /// * [`MemoryError::OutOfMemory`] if no free range is large enough.
    pub fn allocate(&mut self, size: ByteSize) -> Result<u64, MemoryError> {
        self.carve(size, None)
    }

    /// [`BrickAllocator::allocate`] for pool segment `id`, granted to
    /// `owner`: the record keeps both, so the segment lives here.
    pub(crate) fn allocate_segment(
        &mut self,
        size: ByteSize,
        id: SegmentId,
        owner: BrickId,
    ) -> Result<u64, MemoryError> {
        self.carve(size, Some((id, owner)))
    }

    fn carve(
        &mut self,
        size: ByteSize,
        segment: Option<(SegmentId, BrickId)>,
    ) -> Result<u64, MemoryError> {
        if size.is_zero() {
            return Err(MemoryError::EmptyRequest);
        }
        let needed = size.as_bytes();
        let Some(&(len, offset)) = self.free_by_size.range((needed, 0)..).next() else {
            return Err(MemoryError::OutOfMemory {
                requested: size,
                available: self.free(),
            });
        };
        self.free_by_size.remove(&(len, offset));
        let idx = self
            .free_list
            .binary_search_by_key(&offset, |&(o, _)| o)
            .expect("size index entry exists in the free list");
        if len == needed {
            self.free_list.remove(idx);
        } else {
            // Split in place: the remainder keeps the slot, order unchanged.
            self.free_list[idx] = (offset + needed, len - needed);
            self.free_by_size.insert((len - needed, offset + needed));
        }
        self.allocated.insert(
            offset,
            Allocation {
                len: needed,
                segment,
            },
        );
        self.free_bytes -= needed;
        Ok(offset)
    }

    /// Releases a previously allocated range. Only ranges exactly as handed
    /// out by [`BrickAllocator::allocate`] are accepted.
    ///
    /// # Errors
    ///
    /// * [`MemoryError::EmptyRequest`] for a zero-byte release.
    /// * [`MemoryError::InvalidRelease`] if `offset + size` overflows or
    ///   extends past the capacity, or the range does not match a live
    ///   allocation (double free, partial free, never allocated).
    pub fn release(&mut self, offset: u64, size: ByteSize) -> Result<(), MemoryError> {
        if size.is_zero() {
            return Err(MemoryError::EmptyRequest);
        }
        let len = size.as_bytes();
        // A near-u64::MAX offset must not wrap and slip past the capacity
        // check.
        let Some(end) = offset.checked_add(len) else {
            return Err(MemoryError::InvalidRelease { brick: self.brick });
        };
        if end > self.capacity.as_bytes() {
            return Err(MemoryError::InvalidRelease { brick: self.brick });
        }
        if self.allocated.get(&offset).map(|a| a.len) != Some(len) {
            return Err(MemoryError::InvalidRelease { brick: self.brick });
        }
        self.free_range(offset, len);
        Ok(())
    }

    /// Releases pool segment `segment`, which must be live here: its record
    /// is found by offset and must carry its id.
    ///
    /// # Errors
    ///
    /// * [`MemoryError::NoSuchSegment`] if no live allocation at the
    ///   segment's offset carries its id.
    /// * [`MemoryError::InvalidRelease`] if one does but its length differs.
    pub(crate) fn release_segment(&mut self, segment: &MemorySegment) -> Result<(), MemoryError> {
        let record = self.allocated.get(&segment.offset);
        if record.and_then(|a| a.segment).map(|(id, _)| id) != Some(segment.id) {
            return Err(MemoryError::NoSuchSegment {
                segment: segment.id,
            });
        }
        if record.map(|a| a.len) != Some(segment.size.as_bytes()) {
            return Err(MemoryError::InvalidRelease { brick: self.brick });
        }
        self.free_range(segment.offset, segment.size.as_bytes());
        Ok(())
    }

    /// Frees the live allocation at `offset`, which is `len` bytes long.
    fn free_range(&mut self, offset: u64, len: u64) {
        self.allocated.remove(&offset);
        self.insert_coalesced(offset, len);
        self.free_bytes += len;
    }

    /// The live pool segment carved at `offset`, if there is one.
    pub(crate) fn segment_at(&self, offset: u64) -> Option<MemorySegment> {
        let record = self.allocated.get(&offset)?;
        self.as_segment(offset, record)
    }

    fn as_segment(&self, offset: u64, record: &Allocation) -> Option<MemorySegment> {
        let (id, owner) = record.segment?;
        Some(MemorySegment {
            id,
            membrick: self.brick,
            offset,
            size: ByteSize::from_bytes(record.len),
            owner,
        })
    }

    /// The live pool segments carved here, ascending by offset.
    pub(crate) fn segments(&self) -> impl Iterator<Item = MemorySegment> + '_ {
        self.allocated
            .iter()
            .filter_map(|(&offset, record)| self.as_segment(offset, record))
    }

    /// Re-points live segment `segment` at `owner`; no change if it is not
    /// live here.
    pub(crate) fn set_owner(&mut self, segment: &MemorySegment, owner: BrickId) {
        if let Some(Allocation {
            segment: Some((id, holder)),
            ..
        }) = self.allocated.get_mut(&segment.offset)
        {
            if *id == segment.id {
                *holder = owner;
            }
        }
    }

    /// Records `segment` as the owner of the untagged allocation it names —
    /// how a decoded pool re-attaches its segment section to the ranges
    /// its allocators recorded. `false` (and no change) unless the
    /// allocation exists with the segment's length and no segment yet.
    pub(crate) fn claim(&mut self, segment: &MemorySegment) -> bool {
        match self.allocated.get_mut(&segment.offset) {
            Some(record) if record.len == segment.size.as_bytes() && record.segment.is_none() => {
                record.segment = Some((segment.id, segment.owner));
                true
            }
            _ => false,
        }
    }

    /// Inserts a free range, merging it with adjacent free neighbours.
    fn insert_coalesced(&mut self, offset: u64, len: u64) {
        let idx = match self.free_list.binary_search_by_key(&offset, |&(o, _)| o) {
            // The range was validated against live allocations, so it can
            // never collide with an existing free range.
            Ok(_) => unreachable!("released range duplicates a free range"),
            Err(idx) => idx,
        };
        let merges_prev = idx > 0 && {
            let (prev_off, prev_len) = self.free_list[idx - 1];
            prev_off + prev_len == offset
        };
        let merges_next = idx < self.free_list.len() && self.free_list[idx].0 == offset + len;
        match (merges_prev, merges_next) {
            (true, true) => {
                let (prev_off, prev_len) = self.free_list[idx - 1];
                let (next_off, next_len) = self.free_list[idx];
                self.free_by_size.remove(&(prev_len, prev_off));
                self.free_by_size.remove(&(next_len, next_off));
                self.free_list[idx - 1] = (prev_off, prev_len + len + next_len);
                self.free_list.remove(idx);
                self.free_by_size
                    .insert((prev_len + len + next_len, prev_off));
            }
            (true, false) => {
                let (prev_off, prev_len) = self.free_list[idx - 1];
                self.free_by_size.remove(&(prev_len, prev_off));
                self.free_list[idx - 1] = (prev_off, prev_len + len);
                self.free_by_size.insert((prev_len + len, prev_off));
            }
            (false, true) => {
                let (next_off, next_len) = self.free_list[idx];
                self.free_by_size.remove(&(next_len, next_off));
                self.free_list[idx] = (offset, len + next_len);
                self.free_by_size.insert((len + next_len, offset));
            }
            (false, false) => {
                self.free_list.insert(idx, (offset, len));
                self.free_by_size.insert((len, offset));
            }
        }
    }
}

/// Deterministic snapshot codec (see `dredbox_snap`). Live allocations
/// are written as an offset → length map; the segment ids and owners are
/// the owning pool's to write, so a decoded allocator's records carry none
/// until the pool claims them.
impl Snap for BrickAllocator {
    fn snap(&self, out: &mut Vec<u8>) {
        self.brick.snap(out);
        self.capacity.snap(out);
        self.free_bytes.snap(out);
        self.free_list.snap(out);
        self.free_by_size.snap(out);
        let ranges = self.allocated.iter().map(|(&offset, a)| (offset, a.len));
        dredbox_snap::snap_seq(self.allocated.len(), ranges, out);
    }

    fn unsnap(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(BrickAllocator {
            brick: Snap::unsnap(r)?,
            capacity: Snap::unsnap(r)?,
            free_bytes: Snap::unsnap(r)?,
            free_list: Snap::unsnap(r)?,
            free_by_size: Snap::unsnap(r)?,
            allocated: FlatMap::<u64, u64>::unsnap(r)?
                .iter()
                .map(|(&offset, &len)| (offset, Allocation { len, segment: None }))
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const GIB: u64 = 1 << 30;

    fn alloc() -> BrickAllocator {
        BrickAllocator::new(BrickId(10), ByteSize::from_gib(32))
    }

    #[test]
    fn allocation_and_accounting() {
        let mut a = alloc();
        assert!(a.is_unused());
        assert_eq!(a.brick(), BrickId(10));
        assert_eq!(a.capacity(), ByteSize::from_gib(32));
        let o1 = a.allocate(ByteSize::from_gib(8)).unwrap();
        let o2 = a.allocate(ByteSize::from_gib(8)).unwrap();
        assert_eq!(o1, 0);
        assert_eq!(o2, 8 * GIB);
        assert_eq!(a.allocated(), ByteSize::from_gib(16));
        assert_eq!(a.free(), ByteSize::from_gib(16));
        assert!(!a.is_unused());
        assert_eq!(a.allocated_ranges(), vec![(0, 8 * GIB), (8 * GIB, 8 * GIB)]);
        assert!(matches!(
            a.allocate(ByteSize::from_gib(32)),
            Err(MemoryError::OutOfMemory { .. })
        ));
        assert!(matches!(
            a.allocate(ByteSize::ZERO),
            Err(MemoryError::EmptyRequest)
        ));
    }

    #[test]
    fn size_index_prefers_the_tightest_range() {
        let mut a = alloc();
        let o1 = a.allocate(ByteSize::from_gib(4)).unwrap(); // 0..4
        let _o2 = a.allocate(ByteSize::from_gib(8)).unwrap(); // 4..12
        let o3 = a.allocate(ByteSize::from_gib(2)).unwrap(); // 12..14
        let _o4 = a.allocate(ByteSize::from_gib(10)).unwrap(); // 14..24
        a.release(o1, ByteSize::from_gib(4)).unwrap(); // free: 0..4
        a.release(o3, ByteSize::from_gib(2)).unwrap(); // free: 12..14, 24..32
                                                       // A 2-GiB request lands in the 2-GiB hole, not the 4-GiB one.
        assert_eq!(a.allocate(ByteSize::from_gib(2)).unwrap(), 12 * GIB);
        // A 3-GiB request takes the smallest range that fits: the 4-GiB hole.
        assert_eq!(a.allocate(ByteSize::from_gib(3)).unwrap(), 0);
    }

    #[test]
    fn release_coalesces_adjacent_ranges() {
        let mut a = alloc();
        let o1 = a.allocate(ByteSize::from_gib(8)).unwrap();
        let o2 = a.allocate(ByteSize::from_gib(8)).unwrap();
        let _o3 = a.allocate(ByteSize::from_gib(16)).unwrap();
        assert_eq!(a.free(), ByteSize::ZERO);
        a.release(o1, ByteSize::from_gib(8)).unwrap();
        a.release(o2, ByteSize::from_gib(8)).unwrap();
        // The two released ranges must coalesce into one 16-GiB block.
        assert_eq!(a.largest_free_block(), ByteSize::from_gib(16));
        assert_eq!(a.free_range_count(), 1);
        assert_eq!(a.fragmentation(), 0.0);
        let big = a.allocate(ByteSize::from_gib(16)).unwrap();
        assert_eq!(big, 0);
    }

    #[test]
    fn fragmentation_is_reported() {
        let mut a = alloc();
        let o1 = a.allocate(ByteSize::from_gib(8)).unwrap();
        let _o2 = a.allocate(ByteSize::from_gib(8)).unwrap();
        let o3 = a.allocate(ByteSize::from_gib(8)).unwrap();
        let _o4 = a.allocate(ByteSize::from_gib(8)).unwrap();
        a.release(o1, ByteSize::from_gib(8)).unwrap();
        a.release(o3, ByteSize::from_gib(8)).unwrap();
        // 16 GiB free but the largest block is 8 GiB.
        assert_eq!(a.free(), ByteSize::from_gib(16));
        assert_eq!(a.largest_free_block(), ByteSize::from_gib(8));
        assert_eq!(a.free_ranges(), vec![(0, 8 * GIB), (16 * GIB, 8 * GIB)]);
        assert!((a.fragmentation() - 0.5).abs() < 1e-12);
        // A 16-GiB contiguous request cannot be satisfied despite 16 GiB free.
        assert!(a.allocate(ByteSize::from_gib(16)).is_err());
    }

    #[test]
    fn invalid_releases_are_rejected() {
        let mut a = alloc();
        let o1 = a.allocate(ByteSize::from_gib(8)).unwrap();
        a.release(o1, ByteSize::from_gib(8)).unwrap();
        // Double free.
        assert!(matches!(
            a.release(o1, ByteSize::from_gib(8)),
            Err(MemoryError::InvalidRelease { .. })
        ));
        // Past-the-end release.
        assert!(matches!(
            a.release(31 * GIB, ByteSize::from_gib(2)),
            Err(MemoryError::InvalidRelease { .. })
        ));
        assert!(matches!(
            a.release(0, ByteSize::ZERO),
            Err(MemoryError::EmptyRequest)
        ));
    }

    #[test]
    fn overflowing_release_is_rejected() {
        let mut a = alloc();
        let _o = a.allocate(ByteSize::from_gib(8)).unwrap();
        // offset + size wraps past u64::MAX; the old unchecked add let this
        // slip under the capacity check and corrupt the free list.
        assert!(matches!(
            a.release(u64::MAX - GIB + 1, ByteSize::from_gib(2)),
            Err(MemoryError::InvalidRelease { .. })
        ));
        assert!(matches!(
            a.release(u64::MAX, ByteSize::from_bytes(1)),
            Err(MemoryError::InvalidRelease { .. })
        ));
        assert_eq!(a.free() + a.allocated(), a.capacity());
    }

    #[test]
    fn releasing_unallocated_space_is_rejected() {
        let mut a = alloc();
        let o = a.allocate(ByteSize::from_gib(16)).unwrap();
        // A never-allocated range strictly inside allocated space: the old
        // overlap-with-free-ranges check accepted this and inflated free().
        assert!(a.release(o + GIB, ByteSize::from_gib(1)).is_err());
        // A partial head of a live allocation.
        assert!(a.release(o, ByteSize::from_gib(8)).is_err());
        assert_eq!(a.free(), ByteSize::from_gib(16));
        // The exact range is still releasable.
        a.release(o, ByteSize::from_gib(16)).unwrap();
        assert!(a.is_unused());
        assert_eq!(a.free(), a.capacity());
    }

    #[test]
    fn zero_capacity_allocator_is_always_out_of_memory() {
        let mut a = BrickAllocator::new(BrickId(1), ByteSize::ZERO);
        assert!(a.is_unused());
        assert_eq!(a.largest_free_block(), ByteSize::ZERO);
        assert_eq!(a.free_range_count(), 0);
        assert!(a.allocate(ByteSize::from_bytes(1)).is_err());
    }

    proptest! {
        #[test]
        fn free_plus_allocated_equals_capacity(ops in proptest::collection::vec((1u64..8, proptest::bool::ANY), 1..60)) {
            let mut a = BrickAllocator::new(BrickId(0), ByteSize::from_gib(64));
            let mut live: Vec<(u64, ByteSize)> = Vec::new();
            for (gib, do_alloc) in ops {
                if do_alloc || live.is_empty() {
                    if let Ok(offset) = a.allocate(ByteSize::from_gib(gib)) {
                        live.push((offset, ByteSize::from_gib(gib)));
                    }
                } else {
                    let (offset, size) = live.remove(0);
                    a.release(offset, size).unwrap();
                }
                prop_assert_eq!(a.free() + a.allocated(), a.capacity());
                prop_assert!(a.largest_free_block() <= a.free());
                let f = a.fragmentation();
                prop_assert!((0.0..=1.0).contains(&f));
            }
        }

        #[test]
        fn allocations_never_overlap(sizes in proptest::collection::vec(1u64..6, 1..20)) {
            let mut a = BrickAllocator::new(BrickId(0), ByteSize::from_gib(64));
            let mut ranges: Vec<(u64, u64)> = Vec::new();
            for gib in sizes {
                if let Ok(offset) = a.allocate(ByteSize::from_gib(gib)) {
                    let end = offset + gib * GIB;
                    for &(o, e) in &ranges {
                        prop_assert!(end <= o || e <= offset, "overlap detected");
                    }
                    ranges.push((offset, end));
                }
            }
        }

        /// Alloc/release churn preserves the byte ledger and keeps the free
        /// list sorted, coalesced, non-overlapping and in sync with the
        /// size-class index.
        #[test]
        fn free_list_stays_well_formed_under_churn(ops in proptest::collection::vec((1u64..9, proptest::bool::ANY), 1..80)) {
            let mut a = BrickAllocator::new(BrickId(0), ByteSize::from_gib(64));
            let mut live: Vec<(u64, ByteSize)> = Vec::new();
            for (i, (gib, do_alloc)) in ops.into_iter().enumerate() {
                if do_alloc || live.is_empty() {
                    if let Ok(offset) = a.allocate(ByteSize::from_gib(gib)) {
                        live.push((offset, ByteSize::from_gib(gib)));
                    }
                } else {
                    let (offset, size) = live.remove(i % live.len());
                    a.release(offset, size).unwrap();
                }
                prop_assert_eq!(a.free() + a.allocated(), a.capacity());
                let ranges = a.free_ranges();
                for w in ranges.windows(2) {
                    // Sorted, disjoint, and coalesced: a zero gap would mean
                    // two adjacent ranges were never merged.
                    prop_assert!(w[0].0 + w[0].1 < w[1].0, "free list not sorted/coalesced: {ranges:?}");
                }
                for &(o, l) in &ranges {
                    prop_assert!(l > 0);
                    prop_assert!(o + l <= a.capacity().as_bytes());
                }
                prop_assert_eq!(
                    ranges.iter().map(|&(_, l)| l).sum::<u64>(),
                    a.free().as_bytes()
                );
                prop_assert_eq!(
                    ranges.iter().map(|&(_, l)| l).max().unwrap_or(0),
                    a.largest_free_block().as_bytes()
                );
            }
            // Draining the survivors restores a pristine allocator.
            for (offset, size) in live {
                a.release(offset, size).unwrap();
            }
            prop_assert!(a.is_unused());
            prop_assert_eq!(a.free_range_count(), 1);
        }

        /// Hostile releases — wrapped offsets, never-allocated or mismatched
        /// ranges — are rejected without touching the ledger.
        #[test]
        fn hostile_releases_never_corrupt(offset in 0u64..u64::MAX, gib in 1u64..8) {
            let mut a = BrickAllocator::new(BrickId(0), ByteSize::from_gib(64));
            let good = a.allocate(ByteSize::from_gib(32)).unwrap();
            let before_free = a.free();
            // Only (good, 32 GiB) is live; any (offset, 1..8 GiB) mismatches.
            prop_assert!(a.release(offset, ByteSize::from_gib(gib)).is_err());
            prop_assert_eq!(a.free(), before_free);
            prop_assert_eq!(a.free() + a.allocated(), a.capacity());
            a.release(good, ByteSize::from_gib(32)).unwrap();
            prop_assert!(a.is_unused());
        }
    }
}
