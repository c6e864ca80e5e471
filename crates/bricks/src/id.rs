//! Identifiers for racks, trays, bricks and transceiver ports.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifier of a rack within the datacenter.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct RackId(pub u16);

/// Identifier of a tray within its rack.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TrayId(pub u16);

/// Globally unique identifier of a brick.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct BrickId(pub u32);

/// Identifier of a GTH transceiver port on a specific brick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PortId {
    /// The brick hosting the port.
    pub brick: BrickId,
    /// Port index within the brick.
    pub index: u8,
}

impl PortId {
    /// Creates a port identifier.
    pub fn new(brick: BrickId, index: u8) -> Self {
        PortId { brick, index }
    }
}

/// The three fundamental resource types pooled by dReDBox (Figure 1 of the
/// paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum BrickKind {
    /// dCOMPUBRICK: micro-processor SoC module.
    Compute,
    /// dMEMBRICK: high-performance RAM module.
    Memory,
    /// dACCELBRICK: FPGA/SoC accelerator platform.
    Accelerator,
}

impl BrickKind {
    /// All brick kinds, in a stable order.
    #[cfg(test)]
    pub(crate) const ALL: [BrickKind; 3] = [
        BrickKind::Compute,
        BrickKind::Memory,
        BrickKind::Accelerator,
    ];

    /// The dReDBox name for this brick kind.
    pub(crate) fn dredbox_name(self) -> &'static str {
        match self {
            BrickKind::Compute => "dCOMPUBRICK",
            BrickKind::Memory => "dMEMBRICK",
            BrickKind::Accelerator => "dACCELBRICK",
        }
    }
}

impl fmt::Display for RackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rack{}", self.0)
    }
}

impl fmt::Display for TrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tray{}", self.0)
    }
}

impl fmt::Display for BrickId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "brick{}", self.0)
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.gth{}", self.brick, self.index)
    }
}

impl fmt::Display for BrickKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.dredbox_name())
    }
}

impl From<u32> for BrickId {
    fn from(value: u32) -> Self {
        BrickId(value)
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_newtype!(RackId(u16));
dredbox_snap::snap_newtype!(TrayId(u16));
dredbox_snap::snap_newtype!(BrickId(u32));
dredbox_snap::snap_struct!(PortId { brick, index });
dredbox_snap::snap_unit_enum!(BrickKind { Compute = 0, Memory = 1, Accelerator = 2 });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(RackId(1).to_string(), "rack1");
        assert_eq!(TrayId(2).to_string(), "tray2");
        assert_eq!(BrickId(3).to_string(), "brick3");
        assert_eq!(PortId::new(BrickId(3), 5).to_string(), "brick3.gth5");
        assert_eq!(BrickKind::Compute.to_string(), "dCOMPUBRICK");
        assert_eq!(BrickKind::Memory.to_string(), "dMEMBRICK");
        assert_eq!(BrickKind::Accelerator.to_string(), "dACCELBRICK");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(BrickId(1));
        set.insert(BrickId(1));
        set.insert(BrickId(2));
        assert_eq!(set.len(), 2);
        assert!(BrickId(1) < BrickId(2));
        assert!(PortId::new(BrickId(1), 0) < PortId::new(BrickId(1), 1));
    }

    #[test]
    fn brick_kind_all_covers_every_variant() {
        assert_eq!(BrickKind::ALL.len(), 3);
        assert!(BrickKind::ALL.contains(&BrickKind::Compute));
        assert!(BrickKind::ALL.contains(&BrickKind::Memory));
        assert!(BrickKind::ALL.contains(&BrickKind::Accelerator));
    }

    #[test]
    fn brick_id_from_u32() {
        assert_eq!(BrickId::from(9), BrickId(9));
    }
}
