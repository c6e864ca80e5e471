//! Remote memory segments.
//!
//! A segment is a large, contiguous portion of one dMEMBRICK's pool granted
//! to one dCOMPUBRICK. Segments are what RMST entries describe and what the
//! SDM controller's reservation ledger tracks.

use serde::{Deserialize, Serialize};

use dredbox_bricks::BrickId;
use dredbox_sim::units::ByteSize;

/// Identifier of a remote memory segment.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SegmentId(pub u64);

impl std::fmt::Display for SegmentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "segment{}", self.0)
    }
}

/// A contiguous remote memory segment granted to a compute brick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MemorySegment {
    /// Segment identifier.
    pub id: SegmentId,
    /// The dMEMBRICK hosting the bytes.
    pub membrick: BrickId,
    /// Byte offset of the segment within the dMEMBRICK's pool.
    pub offset: u64,
    /// Segment length.
    pub size: ByteSize,
    /// The dCOMPUBRICK the segment is granted to.
    pub owner: BrickId,
}

impl MemorySegment {
    /// One-past-the-end offset within the dMEMBRICK pool.
    #[cfg(test)]
    pub(crate) fn end_offset(&self) -> u64 {
        self.offset + self.size.as_bytes()
    }

    /// Whether this segment and `other` overlap on the same dMEMBRICK.
    #[cfg(test)]
    pub(crate) fn overlaps(&self, other: &MemorySegment) -> bool {
        self.membrick == other.membrick
            && self.offset < other.end_offset()
            && other.offset < self.end_offset()
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_newtype!(SegmentId(u64));
dredbox_snap::snap_struct!(MemorySegment {
    id,
    membrick,
    offset,
    size,
    owner,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(id: u64, membrick: u32, offset: u64, gib: u64) -> MemorySegment {
        MemorySegment {
            id: SegmentId(id),
            membrick: BrickId(membrick),
            offset,
            size: ByteSize::from_gib(gib),
            owner: BrickId(0),
        }
    }

    const GIB: u64 = 1 << 30;

    #[test]
    fn geometry() {
        let s = seg(1, 10, GIB, 2);
        assert_eq!(s.end_offset(), 3 * GIB);
        assert_eq!(SegmentId(1).to_string(), "segment1");
    }

    #[test]
    fn overlap_requires_same_membrick() {
        let a = seg(1, 10, 0, 4);
        let b = seg(2, 10, 2 * GIB, 4);
        let c = seg(3, 11, 2 * GIB, 4);
        let d = seg(4, 10, 4 * GIB, 1);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c), "different membricks never overlap");
        assert!(!a.overlaps(&d), "touching segments do not overlap");
    }
}
