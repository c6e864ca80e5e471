//! The Transaction Glue Logic (TGL).
//!
//! The APU forwards remote memory requests to the TGL through its master
//! ports; the TGL identifies the remote memory segment each transaction
//! should access (via the RMST) and forwards it to the appropriate outgoing
//! high-speed port, which leads to a circuit-switched path already set up by
//! orchestration (Section II).

use serde::{Deserialize, Serialize};

use dredbox_bricks::{BrickId, PortId};
use dredbox_sim::time::SimDuration;
use dredbox_sim::units::ByteSize;

use crate::config::LatencyConfig;
use crate::error::InterconnectError;
use crate::rmst::{RemoteMemorySegmentTable, RmstEntry};

/// The routing decision the TGL makes for one transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteDecision {
    /// The dMEMBRICK that hosts the addressed segment.
    pub destination: BrickId,
    /// The local outgoing port to use.
    pub port: PortId,
    /// Offset of the address within the segment (what the dMEMBRICK's glue
    /// logic will present to its memory controller).
    pub segment_offset: u64,
    /// Time spent deciding (address decode + RMST lookup).
    pub decode_latency: SimDuration,
}

/// The TGL of one compute brick: an RMST plus decode logic.
///
/// ```
/// use dredbox_interconnect::*;
/// use dredbox_bricks::{BrickId, PortId};
/// use dredbox_sim::units::ByteSize;
///
/// let mut tgl = TransactionGlueLogic::new(BrickId(0), &LatencyConfig::dredbox_default(), 64);
/// tgl.map_segment(RmstEntry {
///     base: 0x8_0000_0000,
///     size: ByteSize::from_gib(16),
///     destination: BrickId(7),
///     port: PortId::new(BrickId(0), 1),
/// })?;
/// let route = tgl.route(0x8_0000_0000 + 0x1000)?;
/// assert_eq!(route.destination, BrickId(7));
/// assert_eq!(route.segment_offset, 0x1000);
/// # Ok::<(), dredbox_interconnect::InterconnectError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransactionGlueLogic {
    owner: BrickId,
    decode_latency: SimDuration,
    rmst: RemoteMemorySegmentTable,
}

impl TransactionGlueLogic {
    /// Creates the TGL for brick `owner` with an RMST of `rmst_entries`
    /// entries.
    ///
    /// # Panics
    ///
    /// Panics if `rmst_entries` is zero.
    pub fn new(owner: BrickId, config: &LatencyConfig, rmst_entries: usize) -> Self {
        TransactionGlueLogic {
            owner,
            decode_latency: config.tgl_decode,
            rmst: RemoteMemorySegmentTable::new(rmst_entries),
        }
    }

    /// The underlying RMST.
    pub fn rmst(&self) -> &RemoteMemorySegmentTable {
        &self.rmst
    }

    /// Installs a remote segment mapping (performed by the SDM agent when
    /// the orchestrator attaches memory to this brick).
    ///
    /// # Errors
    ///
    /// Propagates RMST insertion errors (full table, overlap, empty segment).
    pub fn map_segment(&mut self, entry: RmstEntry) -> Result<(), InterconnectError> {
        self.rmst.insert(entry)
    }

    /// Removes the segment starting at `base` (memory detach).
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::NoSuchSegment`] if nothing is mapped
    /// there.
    pub fn unmap_segment(&mut self, base: u64) -> Result<RmstEntry, InterconnectError> {
        self.rmst.remove(base)
    }

    /// Routes a transaction addressed at `address`.
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::NoRoute`] if no mapped segment covers the
    /// address.
    pub fn route(&self, address: u64) -> Result<RouteDecision, InterconnectError> {
        let entry = self.rmst.lookup(address)?;
        Ok(RouteDecision {
            destination: entry.destination,
            port: entry.port,
            segment_offset: address - entry.base,
            decode_latency: self.decode_latency,
        })
    }

    /// Total remote memory currently reachable through this TGL.
    pub fn mapped_remote_memory(&self) -> ByteSize {
        self.rmst.mapped_bytes()
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_struct!(TransactionGlueLogic {
    owner,
    decode_latency,
    rmst,
});

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;

    fn tgl_with_two_segments() -> TransactionGlueLogic {
        let cfg = LatencyConfig::dredbox_default();
        let mut tgl = TransactionGlueLogic::new(BrickId(0), &cfg, 64);
        tgl.map_segment(RmstEntry {
            base: 4 * GIB,
            size: ByteSize::from_gib(8),
            destination: BrickId(10),
            port: PortId::new(BrickId(0), 0),
        })
        .unwrap();
        tgl.map_segment(RmstEntry {
            base: 16 * GIB,
            size: ByteSize::from_gib(4),
            destination: BrickId(11),
            port: PortId::new(BrickId(0), 1),
        })
        .unwrap();
        tgl
    }

    #[test]
    fn routes_to_the_right_membrick() {
        let tgl = tgl_with_two_segments();
        assert_eq!(tgl.owner, BrickId(0));
        assert_eq!(tgl.mapped_remote_memory(), ByteSize::from_gib(12));
        assert_eq!(tgl.rmst().len(), 2);

        let r1 = tgl.route(4 * GIB + 123).unwrap();
        assert_eq!(r1.destination, BrickId(10));
        assert_eq!(r1.segment_offset, 123);
        assert_eq!(r1.port.index, 0);
        assert_eq!(
            r1.decode_latency,
            LatencyConfig::dredbox_default().tgl_decode
        );

        let r2 = tgl.route(16 * GIB + GIB).unwrap();
        assert_eq!(r2.destination, BrickId(11));
        assert_eq!(r2.segment_offset, GIB);

        assert!(matches!(
            tgl.route(0),
            Err(InterconnectError::NoRoute { .. })
        ));
        assert!(matches!(
            tgl.route(30 * GIB),
            Err(InterconnectError::NoRoute { .. })
        ));
    }

    #[test]
    fn unmap_revokes_routing() {
        let mut tgl = tgl_with_two_segments();
        let removed = tgl.unmap_segment(4 * GIB).unwrap();
        assert_eq!(removed.destination, BrickId(10));
        assert!(tgl.route(4 * GIB).is_err());
        assert_eq!(tgl.mapped_remote_memory(), ByteSize::from_gib(4));
        assert!(matches!(
            tgl.unmap_segment(4 * GIB),
            Err(InterconnectError::NoSuchSegment { .. })
        ));
    }

    #[test]
    fn mapping_errors_propagate() {
        let mut tgl = tgl_with_two_segments();
        // Overlap with the 4..12 GiB segment.
        let err = tgl.map_segment(RmstEntry {
            base: 6 * GIB,
            size: ByteSize::from_gib(1),
            destination: BrickId(12),
            port: PortId::new(BrickId(0), 2),
        });
        assert!(matches!(
            err,
            Err(InterconnectError::OverlappingSegment { .. })
        ));
    }
}
