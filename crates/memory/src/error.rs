//! Error type for disaggregated memory management.

use std::fmt;

use dredbox_bricks::BrickId;
use dredbox_sim::units::ByteSize;

use crate::address::GlobalAddress;
use crate::segment::SegmentId;

/// Errors produced by the memory pool and its allocators.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MemoryError {
    /// The pool (or a specific brick) cannot satisfy the requested size.
    OutOfMemory {
        /// Bytes requested.
        requested: ByteSize,
        /// Bytes available (possibly fragmented).
        available: ByteSize,
    },
    /// The referenced dMEMBRICK is not registered with the pool.
    UnknownMemBrick {
        /// Offending brick.
        brick: BrickId,
    },
    /// The dMEMBRICK is already registered.
    DuplicateMemBrick {
        /// Offending brick.
        brick: BrickId,
    },
    /// The referenced segment does not exist (or was already released).
    NoSuchSegment {
        /// Offending segment.
        segment: SegmentId,
    },
    /// A zero-byte request was made.
    EmptyRequest,
    /// A release did not match the allocator's records (double free or
    /// corrupted bookkeeping).
    InvalidRelease {
        /// Brick whose allocator rejected the release.
        brick: BrickId,
    },
    /// A remote-window release named a range that is not carved and live:
    /// below the window, past its carved extent, or over a released hole.
    InvalidWindowRelease {
        /// Start of the rejected range.
        address: GlobalAddress,
        /// Length of the rejected range.
        size: ByteSize,
    },
    /// The balloon cannot move in the requested direction (e.g. deflating
    /// below zero).
    BalloonBounds,
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryError::OutOfMemory {
                requested,
                available,
            } => {
                write!(
                    f,
                    "out of disaggregated memory: requested {requested}, available {available}"
                )
            }
            MemoryError::UnknownMemBrick { brick } => write!(f, "unknown dMEMBRICK: {brick}"),
            MemoryError::DuplicateMemBrick { brick } => {
                write!(f, "dMEMBRICK already registered: {brick}")
            }
            MemoryError::NoSuchSegment { segment } => write!(f, "no such segment: {segment}"),
            MemoryError::EmptyRequest => write!(f, "memory request must cover at least one byte"),
            MemoryError::InvalidRelease { brick } => {
                write!(f, "release did not match allocation records on {brick}")
            }
            MemoryError::InvalidWindowRelease { address, size } => {
                write!(f, "{size} at {address} is not a carved remote-window range")
            }
            MemoryError::BalloonBounds => write!(f, "balloon adjustment out of bounds"),
        }
    }
}

impl std::error::Error for MemoryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MemoryError::OutOfMemory {
            requested: ByteSize::from_gib(8),
            available: ByteSize::from_gib(2),
        };
        assert!(e.to_string().contains("8.00 GiB"));
        assert!(MemoryError::UnknownMemBrick { brick: BrickId(7) }
            .to_string()
            .contains("brick7"));
        assert!(MemoryError::NoSuchSegment {
            segment: SegmentId(3)
        }
        .to_string()
        .contains("segment3"));
        assert!(!MemoryError::BalloonBounds.to_string().is_empty());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MemoryError>();
    }
}
