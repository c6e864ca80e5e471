//! GTH high-speed transceiver ports.
//!
//! Each brick exposes a number of GTH serial transceivers (Figures 3–5 of the
//! paper). A port is attached either to the circuit-based network (CBN) — a
//! path through the optical circuit switch set up by orchestration — or to
//! the experimental packet-based network (PBN).

use std::fmt;

use serde::{Deserialize, Serialize};

use dredbox_sim::units::Bandwidth;

use crate::error::BrickError;
use crate::id::PortId;

/// How a port is currently being used.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum PortState {
    /// Not attached to any network path.
    #[default]
    Free,
    /// Attached to an optical circuit identified by the orchestrator.
    Circuit {
        /// Identifier of the circuit this port belongs to.
        circuit_id: u64,
    },
    /// Attached to the experimental packet-based network.
    Packet,
}

/// A GTH transceiver port on a brick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GthPort {
    id: PortId,
    rate: Bandwidth,
    state: PortState,
}

impl GthPort {
    /// Creates a free port with the given line rate.
    pub(crate) fn new(id: PortId, rate: Bandwidth) -> Self {
        GthPort {
            id,
            rate,
            state: PortState::Free,
        }
    }

    /// Port identifier.
    pub fn id(&self) -> PortId {
        self.id
    }

    /// Current attachment state.
    pub fn state(&self) -> PortState {
        self.state
    }

    /// Whether the port can be attached to a new path.
    pub fn is_free(&self) -> bool {
        matches!(self.state, PortState::Free)
    }

    /// Attaches the port to an optical circuit.
    ///
    /// # Errors
    ///
    /// Returns [`BrickError::PortBusy`] if the port is already attached.
    pub fn attach_circuit(&mut self, circuit_id: u64) -> Result<(), BrickError> {
        if !self.is_free() {
            return Err(BrickError::PortBusy { port: self.id });
        }
        self.state = PortState::Circuit { circuit_id };
        Ok(())
    }

    /// Attaches the port to the packet-based network.
    ///
    /// # Errors
    ///
    /// Returns [`BrickError::PortBusy`] if the port is already attached.
    #[cfg(test)]
    pub(crate) fn attach_packet(&mut self) -> Result<(), BrickError> {
        if !self.is_free() {
            return Err(BrickError::PortBusy { port: self.id });
        }
        self.state = PortState::Packet;
        Ok(())
    }

    /// Detaches the port from whatever it is attached to.
    pub fn detach(&mut self) {
        self.state = PortState::Free;
    }
}

impl fmt::Display for GthPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {} ({:?})", self.id, self.rate, self.state)
    }
}

/// A set of GTH ports belonging to one brick, with allocation helpers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct PortSet {
    ports: Vec<GthPort>,
}

impl PortSet {
    /// Creates `count` free ports for `brick`, numbered from zero.
    pub(crate) fn new(brick: crate::id::BrickId, count: u8, rate: Bandwidth) -> Self {
        PortSet {
            ports: (0..count)
                .map(|i| GthPort::new(PortId::new(brick, i), rate))
                .collect(),
        }
    }

    /// All ports.
    pub fn iter(&self) -> impl Iterator<Item = &GthPort> {
        self.ports.iter()
    }

    /// Number of ports.
    pub fn len(&self) -> usize {
        self.ports.len()
    }

    /// Whether the brick has no ports.
    pub fn is_empty(&self) -> bool {
        self.ports.is_empty()
    }

    /// Number of free ports.
    pub fn free_count(&self) -> usize {
        self.ports.iter().filter(|p| p.is_free()).count()
    }

    /// Finds the lowest-numbered free port.
    #[cfg(test)]
    pub(crate) fn first_free(&self) -> Option<PortId> {
        self.ports.iter().find(|p| p.is_free()).map(|p| p.id())
    }

    /// Returns a mutable reference to a port by index.
    ///
    /// # Errors
    ///
    /// Returns [`BrickError::NoSuchPort`] if `index` is out of range.
    pub fn port_mut(&mut self, index: u8) -> Result<&mut GthPort, BrickError> {
        let brick = self.ports.first().map(|p| p.id().brick);
        self.ports
            .get_mut(usize::from(index))
            .ok_or(BrickError::NoSuchPort {
                port: PortId::new(brick.unwrap_or_default(), index),
            })
    }

    /// Returns a shared reference to a port by index, if it exists.
    pub fn port(&self, index: u8) -> Option<&GthPort> {
        self.ports.get(usize::from(index))
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
impl dredbox_snap::Snap for PortState {
    fn snap(&self, out: &mut Vec<u8>) {
        match self {
            PortState::Free => out.push(0),
            PortState::Circuit { circuit_id } => {
                out.push(1);
                dredbox_snap::Snap::snap(circuit_id, out);
            }
            PortState::Packet => out.push(2),
        }
    }
    fn unsnap(r: &mut dredbox_snap::Reader<'_>) -> Result<Self, dredbox_snap::SnapError> {
        match <u8 as dredbox_snap::Snap>::unsnap(r)? {
            0 => Ok(PortState::Free),
            1 => Ok(PortState::Circuit {
                circuit_id: dredbox_snap::Snap::unsnap(r)?,
            }),
            2 => Ok(PortState::Packet),
            tag => Err(dredbox_snap::SnapError::Tag {
                ty: "PortState",
                tag,
            }),
        }
    }
}
dredbox_snap::snap_struct!(GthPort { id, rate, state });
dredbox_snap::snap_struct!(PortSet { ports });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::BrickId;

    fn port_set() -> PortSet {
        PortSet::new(BrickId(7), 4, Bandwidth::from_gbps(10.0))
    }

    #[test]
    fn new_ports_are_free() {
        let ps = port_set();
        assert_eq!(ps.len(), 4);
        assert!(!ps.is_empty());
        assert_eq!(ps.free_count(), 4);
        assert_eq!(ps.first_free(), Some(PortId::new(BrickId(7), 0)));
        assert!(ps.iter().all(|p| p.is_free()));
        assert_eq!(ps.port(0).unwrap().rate.as_gbps(), 10.0);
    }

    #[test]
    fn attach_and_detach_circuit() {
        let mut ps = port_set();
        ps.port_mut(1).unwrap().attach_circuit(99).unwrap();
        assert_eq!(ps.free_count(), 3);
        assert_eq!(
            ps.port(1).unwrap().state(),
            PortState::Circuit { circuit_id: 99 }
        );
        // Double attach fails.
        assert!(matches!(
            ps.port_mut(1).unwrap().attach_packet(),
            Err(BrickError::PortBusy { .. })
        ));
        ps.port_mut(1).unwrap().detach();
        assert_eq!(ps.free_count(), 4);
    }

    #[test]
    fn attach_packet_mode() {
        let mut ps = port_set();
        ps.port_mut(0).unwrap().attach_packet().unwrap();
        assert_eq!(ps.port(0).unwrap().state(), PortState::Packet);
        assert_eq!(ps.first_free(), Some(PortId::new(BrickId(7), 1)));
    }

    #[test]
    fn out_of_range_port_errors() {
        let mut ps = port_set();
        assert!(matches!(ps.port_mut(9), Err(BrickError::NoSuchPort { .. })));
        assert!(ps.port(9).is_none());
    }

    #[test]
    fn display_contains_id_and_rate() {
        let p = GthPort::new(PortId::new(BrickId(1), 2), Bandwidth::from_gbps(10.0));
        let s = p.to_string();
        assert!(s.contains("brick1.gth2"));
        assert!(s.contains("10.00 Gb/s"));
    }
}
