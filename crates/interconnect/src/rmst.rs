//! The Remote Memory Segment Table (RMST).
//!
//! The RMST is "a fully associative structure, whose entries identify large
//! and contiguous portions of remote memory space hosted in dMEMBRICKs"
//! (Section II). The Transaction Glue Logic consults it for every remote
//! transaction to find the destination brick and outgoing port.

use serde::{Deserialize, Serialize};

use dredbox_bricks::{BrickId, PortId};
use dredbox_sim::flat::FlatMap;
use dredbox_sim::units::ByteSize;
use dredbox_snap::{Reader, Snap, SnapError};

use crate::error::InterconnectError;

/// One RMST entry: a contiguous window of the compute brick's remote address
/// space mapped onto a destination dMEMBRICK reachable through a given port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RmstEntry {
    /// Base of the segment in the compute brick's global (remote) address
    /// space.
    pub base: u64,
    /// Segment length in bytes.
    pub size: ByteSize,
    /// The dMEMBRICK hosting the segment.
    pub destination: BrickId,
    /// The local GTH port whose circuit leads to the destination.
    pub port: PortId,
}

impl RmstEntry {
    /// One-past-the-end address of the segment.
    pub(crate) fn end(&self) -> u64 {
        self.base + self.size.as_bytes()
    }

    /// Whether `address` falls inside this segment.
    pub(crate) fn covers(&self, address: u64) -> bool {
        address >= self.base && address < self.end()
    }

    /// Whether this entry overlaps `other` in the address space.
    pub(crate) fn overlaps(&self, other: &RmstEntry) -> bool {
        self.base < other.end() && other.base < self.end()
    }
}

/// A fully associative table of remote memory segments with a bounded number
/// of entries (it is implemented in programmable logic, so entries are a
/// scarce resource).
///
/// ```
/// use dredbox_interconnect::{RemoteMemorySegmentTable, RmstEntry};
/// use dredbox_bricks::{BrickId, PortId};
/// use dredbox_sim::units::ByteSize;
///
/// let mut rmst = RemoteMemorySegmentTable::new(64);
/// rmst.insert(RmstEntry {
///     base: 0x10_0000_0000,
///     size: ByteSize::from_gib(8),
///     destination: BrickId(5),
///     port: PortId::new(BrickId(0), 2),
/// })?;
/// let entry = rmst.lookup(0x10_0000_0000 + 4096)?;
/// assert_eq!(entry.destination, BrickId(5));
/// # Ok::<(), dredbox_interconnect::InterconnectError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RemoteMemorySegmentTable {
    capacity: usize,
    /// Installed entries keyed by base address, in one sorted vector (the
    /// table is bounded by `capacity`). The hardware table is fully
    /// associative; keeping the model base-ordered makes the overlap check
    /// on insert and the address lookup a binary search — these sit on the
    /// SDM controller's attach/detach and the data-path hot paths.
    entries: FlatMap<u64, RmstEntry>,
    /// Sum of installed segment sizes, kept incrementally.
    mapped: u64,
}

impl RemoteMemorySegmentTable {
    /// Creates an empty table with room for `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RMST needs at least one entry");
        RemoteMemorySegmentTable {
            capacity,
            entries: FlatMap::new(),
            mapped: 0,
        }
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Installs a new segment.
    ///
    /// # Errors
    ///
    /// * [`InterconnectError::EmptyRequest`] if the segment has zero size.
    /// * [`InterconnectError::RmstFull`] if the table is full.
    /// * [`InterconnectError::OverlappingSegment`] if the segment overlaps an
    ///   installed entry.
    pub fn insert(&mut self, entry: RmstEntry) -> Result<(), InterconnectError> {
        if entry.size.is_zero() {
            return Err(InterconnectError::EmptyRequest);
        }
        if self.entries.len() >= self.capacity {
            return Err(InterconnectError::RmstFull {
                capacity: self.capacity,
            });
        }
        // Installed entries never overlap, so only the nearest neighbours
        // (by base) can collide with the new one.
        let overlaps_prev = self
            .entries
            .range(..=entry.base)
            .next_back()
            .is_some_and(|(_, prev)| prev.overlaps(&entry));
        let overlaps_next = self
            .entries
            .range(entry.base..)
            .next()
            .is_some_and(|(_, next)| next.overlaps(&entry));
        if overlaps_prev || overlaps_next {
            return Err(InterconnectError::OverlappingSegment {
                address: entry.base,
            });
        }
        self.entries.insert(entry.base, entry);
        self.mapped += entry.size.as_bytes();
        Ok(())
    }

    /// Removes the segment starting exactly at `base`, returning it.
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::NoSuchSegment`] if no entry starts there.
    pub fn remove(&mut self, base: u64) -> Result<RmstEntry, InterconnectError> {
        let entry = self
            .entries
            .remove(&base)
            .ok_or(InterconnectError::NoSuchSegment { address: base })?;
        self.mapped -= entry.size.as_bytes();
        Ok(entry)
    }

    /// Fully associative lookup: returns the entry covering `address`.
    /// Entries never overlap, so only the entry with the greatest base at or
    /// below `address` can cover it — one binary search.
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::NoRoute`] if no entry covers the address.
    pub fn lookup(&self, address: u64) -> Result<&RmstEntry, InterconnectError> {
        self.entries
            .range(..=address)
            .next_back()
            .map(|(_, e)| e)
            .filter(|e| e.covers(address))
            .ok_or(InterconnectError::NoRoute { address })
    }

    /// All entries towards a given destination brick.
    pub(crate) fn entries_towards(&self, destination: BrickId) -> impl Iterator<Item = &RmstEntry> {
        self.entries
            .values()
            .filter(move |e| e.destination == destination)
    }

    /// Number of entries towards a given destination brick — the
    /// route-teardown check. A scan of the table, which is bounded by
    /// the table's capacity and holds a handful of entries.
    pub fn towards_count(&self, destination: BrickId) -> u32 {
        self.entries_towards(destination).count() as u32
    }

    /// Live entries per destination brick, ascending by brick: the
    /// snapshot's derived `towards` section.
    fn towards(&self) -> FlatMap<BrickId, u32> {
        let mut towards = FlatMap::new();
        for entry in self.entries.values() {
            *towards.entry(entry.destination).or_insert(0) += 1;
        }
        towards
    }

    /// Iterates over all entries, ascending by base address.
    pub fn iter(&self) -> impl Iterator<Item = &RmstEntry> {
        self.entries.values()
    }

    /// Total remote memory reachable through the table. `O(1)`.
    pub fn mapped_bytes(&self) -> ByteSize {
        ByteSize::from_bytes(self.mapped)
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_struct!(RmstEntry {
    base,
    size,
    destination,
    port,
});

/// The table writes a `towards` section (live entries per destination,
/// ascending) between its entries and its mapped total; it is derived
/// from the entries on capture and checked against them on decode.
/// Decoding also rejects with [`SnapError::Inconsistent`] a zero capacity,
/// more entries than it, an entry not keyed by its base, an empty or
/// address-wrapping segment, overlapping segments and a mapped total that
/// is not their sum — so lookups and removes on a decoded table behave as
/// on the one that was saved.
impl Snap for RemoteMemorySegmentTable {
    fn snap(&self, out: &mut Vec<u8>) {
        self.capacity.snap(out);
        self.entries.snap(out);
        self.towards().snap(out);
        self.mapped.snap(out);
    }

    fn unsnap(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        const TY: &str = "RemoteMemorySegmentTable";
        let table = RemoteMemorySegmentTable {
            capacity: Snap::unsnap(r)?,
            entries: Snap::unsnap(r)?,
            mapped: 0,
        };
        let towards = table.towards();
        dredbox_snap::expect_seq(r, TY, towards.iter().map(|(&b, &n)| (b, n)))?;
        let mapped = u64::unsnap(r)?;
        let (mut end, mut sum) = (0u64, 0u64);
        for (&base, entry) in table.entries.iter() {
            let len = entry.size.as_bytes();
            match base.checked_add(len) {
                Some(next) if base == entry.base && len > 0 && base >= end => end = next,
                _ => return Err(SnapError::Inconsistent { ty: TY }),
            }
            sum = sum
                .checked_add(len)
                .ok_or(SnapError::Inconsistent { ty: TY })?;
        }
        if table.capacity == 0 || table.entries.len() > table.capacity || sum != mapped {
            return Err(SnapError::Inconsistent { ty: TY });
        }
        Ok(RemoteMemorySegmentTable { mapped, ..table })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn entry(base: u64, gib: u64, dest: u32) -> RmstEntry {
        RmstEntry {
            base,
            size: ByteSize::from_gib(gib),
            destination: BrickId(dest),
            port: PortId::new(BrickId(0), (dest % 8) as u8),
        }
    }

    const GIB: u64 = 1 << 30;

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let mut rmst = RemoteMemorySegmentTable::new(4);
        rmst.insert(entry(0x1_0000_0000, 2, 5)).unwrap();
        rmst.insert(entry(0x1_0000_0000 + 2 * GIB, 4, 6)).unwrap();
        assert_eq!(rmst.len(), 2);
        assert_eq!(rmst.mapped_bytes(), ByteSize::from_gib(6));

        let hit = rmst.lookup(0x1_0000_0000 + GIB).unwrap();
        assert_eq!(hit.destination, BrickId(5));
        let hit2 = rmst.lookup(0x1_0000_0000 + 3 * GIB).unwrap();
        assert_eq!(hit2.destination, BrickId(6));
        assert!(matches!(
            rmst.lookup(0x10),
            Err(InterconnectError::NoRoute { .. })
        ));

        assert_eq!(rmst.entries_towards(BrickId(5)).count(), 1);
        assert_eq!(rmst.entries_towards(BrickId(9)).count(), 0);

        let removed = rmst.remove(0x1_0000_0000).unwrap();
        assert_eq!(removed.destination, BrickId(5));
        assert!(matches!(
            rmst.remove(0x1_0000_0000),
            Err(InterconnectError::NoSuchSegment { .. })
        ));
        assert!(rmst.lookup(0x1_0000_0000 + GIB).is_err());
        assert_eq!(rmst.iter().count(), 1);
    }

    #[test]
    fn rejects_overlap_full_and_empty() {
        let mut rmst = RemoteMemorySegmentTable::new(2);
        rmst.insert(entry(0, 4, 1)).unwrap();
        // Overlapping base.
        assert!(matches!(
            rmst.insert(entry(2 * GIB, 4, 2)),
            Err(InterconnectError::OverlappingSegment { .. })
        ));
        // Zero-sized segment.
        assert!(matches!(
            rmst.insert(RmstEntry {
                base: 100 * GIB,
                size: ByteSize::ZERO,
                destination: BrickId(1),
                port: PortId::new(BrickId(0), 0)
            }),
            Err(InterconnectError::EmptyRequest)
        ));
        rmst.insert(entry(10 * GIB, 1, 2)).unwrap();
        // Table full.
        assert!(matches!(
            rmst.insert(entry(100 * GIB, 1, 3)),
            Err(InterconnectError::RmstFull { capacity: 2 })
        ));
    }

    #[test]
    fn entry_geometry() {
        let e = entry(GIB, 2, 1);
        assert_eq!(e.end(), 3 * GIB);
        assert!(e.covers(GIB));
        assert!(e.covers(3 * GIB - 1));
        assert!(!e.covers(3 * GIB));
        assert!(!e.covers(GIB - 1));
        assert!(e.overlaps(&entry(2 * GIB, 4, 2)));
        assert!(!e.overlaps(&entry(3 * GIB, 1, 2)));
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _ = RemoteMemorySegmentTable::new(0);
    }

    proptest! {
        #[test]
        fn installed_segments_never_overlap(bases in proptest::collection::vec(0u64..64, 1..32)) {
            let mut rmst = RemoteMemorySegmentTable::new(64);
            for (i, b) in bases.iter().enumerate() {
                let _ = rmst.insert(entry(b * GIB, 1, i as u32));
            }
            let entries: Vec<RmstEntry> = rmst.iter().copied().collect();
            for (i, a) in entries.iter().enumerate() {
                for b in entries.iter().skip(i + 1) {
                    prop_assert!(!a.overlaps(b));
                }
            }
            prop_assert!(rmst.len() <= rmst.capacity);
        }

        /// `towards_count` agrees with a direct count and with the
        /// per-destination side table the table used to keep, and the
        /// snapshot bytes are those of that layout.
        #[test]
        fn towards_matches_a_direct_count_and_the_side_table_layout(
            ops in proptest::collection::vec((0u8..3, 0u64..24, 1u64..4, 0u32..5), 1..60),
        ) {
            let mut rmst = RemoteMemorySegmentTable::new(8);
            let mut side: BTreeMap<BrickId, u32> = BTreeMap::new();
            for (op, slot, gib, dest) in ops {
                if op < 2 {
                    let e = entry(slot * GIB, gib, dest);
                    if rmst.insert(e).is_ok() {
                        *side.entry(e.destination).or_insert(0) += 1;
                    }
                } else if !rmst.is_empty() {
                    let base = rmst.iter().nth(slot as usize % rmst.len()).expect("in range").base;
                    let removed = rmst.remove(base).expect("installed entry removes");
                    let count = side.get_mut(&removed.destination).expect("counted");
                    *count -= 1;
                    if *count == 0 {
                        side.remove(&removed.destination);
                    }
                }
                for d in 0..5 {
                    let direct = rmst.iter().filter(|e| e.destination == BrickId(d)).count();
                    prop_assert_eq!(rmst.towards_count(BrickId(d)) as usize, direct);
                    prop_assert_eq!(side.get(&BrickId(d)).map_or(0, |&n| n as usize), direct);
                }
                let mut expected = Vec::new();
                rmst.capacity.snap(&mut expected);
                rmst.entries.snap(&mut expected);
                side.snap(&mut expected);
                rmst.mapped.snap(&mut expected);
                let mut bytes = Vec::new();
                rmst.snap(&mut bytes);
                prop_assert_eq!(&bytes, &expected);
                let back = RemoteMemorySegmentTable::unsnap(&mut Reader::new(&bytes));
                prop_assert_eq!(back.as_ref(), Ok(&rmst));
            }
        }

        #[test]
        fn lookup_agrees_with_covers(addr in 0u64..(70 * GIB)) {
            let mut rmst = RemoteMemorySegmentTable::new(8);
            rmst.insert(entry(0, 4, 1)).unwrap();
            rmst.insert(entry(10 * GIB, 4, 2)).unwrap();
            rmst.insert(entry(40 * GIB, 16, 3)).unwrap();
            let expected = rmst.iter().find(|e| e.covers(addr)).copied();
            match (rmst.lookup(addr), expected) {
                (Ok(found), Some(exp)) => prop_assert_eq!(*found, exp),
                (Err(_), None) => {},
                (found, exp) => prop_assert!(false, "mismatch: {:?} vs {:?}", found, exp),
            }
        }
    }
}
