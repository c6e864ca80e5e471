//! Circuit management: software-defined wiring of brick ports through the
//! optical switch.
//!
//! Remote-memory transactions follow circuit-switched paths that are set up
//! in advance by orchestration procedures; the data path itself contains no
//! routing decision. The [`CircuitManager`] records which brick port is
//! cabled to which switch port and which cross-connections are currently
//! programmed.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use dredbox_bricks::PortId;

use crate::error::OpticalError;
use crate::switch::OpticalCircuitSwitch;

/// Identifier of an established optical circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CircuitId(pub u64);

impl std::fmt::Display for CircuitId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "circuit{}", self.0)
    }
}

/// An established end-to-end optical circuit between two brick ports.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpticalCircuit {
    /// Circuit identifier.
    pub id: CircuitId,
    /// Source (compute-brick side) port.
    pub src: PortId,
    /// Destination (memory/accelerator-brick side) port.
    pub dst: PortId,
    /// Switch ports used by the cross-connection.
    pub switch_ports: (u16, u16),
    /// Number of switch hops the light traverses end-to-end.
    pub hops: u32,
}

/// Tracks cabling and programmed cross-connections on one optical switch.
///
/// ```
/// use dredbox_optical::CircuitManager;
/// use dredbox_optical::OpticalCircuitSwitch;
/// use dredbox_bricks::{BrickId, PortId};
///
/// let mut mgr = CircuitManager::new(OpticalCircuitSwitch::polatis_48());
/// let a = PortId::new(BrickId(0), 0);
/// let b = PortId::new(BrickId(1), 0);
/// mgr.cable(a, 0)?;
/// mgr.cable(b, 1)?;
/// let id = mgr.establish(a, b)?;
/// assert!(mgr.circuit(id).is_some());
/// mgr.teardown(id)?;
/// assert!(mgr.circuit(id).is_none());
/// # Ok::<(), dredbox_optical::OpticalError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CircuitManager {
    switch: OpticalCircuitSwitch,
    cabling: BTreeMap<PortId, u16>,
    circuits: BTreeMap<CircuitId, OpticalCircuit>,
    next_id: u64,
}

impl CircuitManager {
    /// Creates a manager for `switch` with no cabling.
    pub fn new(switch: OpticalCircuitSwitch) -> Self {
        CircuitManager {
            switch,
            cabling: BTreeMap::new(),
            circuits: BTreeMap::new(),
            next_id: 0,
        }
    }

    /// The underlying switch.
    pub fn switch(&self) -> &OpticalCircuitSwitch {
        &self.switch
    }

    /// Records that brick port `port` is physically cabled to `switch_port`.
    ///
    /// # Errors
    ///
    /// Returns [`OpticalError::NoSuchSwitchPort`] for an out-of-range switch
    /// port and [`OpticalError::SwitchPortBusy`] if another brick port is
    /// already cabled there.
    pub fn cable(&mut self, port: PortId, switch_port: u16) -> Result<(), OpticalError> {
        if switch_port >= self.switch.port_count() {
            return Err(OpticalError::NoSuchSwitchPort { port: switch_port });
        }
        if self.cabling.values().any(|&sp| sp == switch_port) {
            return Err(OpticalError::SwitchPortBusy { port: switch_port });
        }
        self.cabling.insert(port, switch_port);
        Ok(())
    }

    /// The switch port a brick port is cabled to, if any.
    pub(crate) fn cabled_to(&self, port: PortId) -> Option<u16> {
        self.cabling.get(&port).copied()
    }

    /// Number of cabled brick ports.
    pub fn cabled_count(&self) -> usize {
        self.cabling.len()
    }

    /// Establishes a circuit between two cabled brick ports, programming the
    /// switch cross-connection.
    ///
    /// # Errors
    ///
    /// Returns [`OpticalError::PortNotCabled`] if either brick port is not
    /// cabled, or the switch's error if the cross-connection cannot be made.
    pub fn establish(&mut self, src: PortId, dst: PortId) -> Result<CircuitId, OpticalError> {
        self.establish_with_hops(src, dst, 1)
    }

    /// Establishes a circuit whose light traverses `hops` passes through the
    /// switch, as in the Figure 7 loop-back measurement where channels
    /// traverse six or eight hops.
    ///
    /// # Errors
    ///
    /// Same as [`CircuitManager::establish`].
    pub(crate) fn establish_with_hops(
        &mut self,
        src: PortId,
        dst: PortId,
        hops: u32,
    ) -> Result<CircuitId, OpticalError> {
        let sp_src = self
            .cabled_to(src)
            .ok_or(OpticalError::PortNotCabled { port: src })?;
        let sp_dst = self
            .cabled_to(dst)
            .ok_or(OpticalError::PortNotCabled { port: dst })?;
        if self
            .circuits
            .values()
            .any(|c| c.src == src || c.dst == src || c.src == dst || c.dst == dst)
        {
            let busy = if self.circuits.values().any(|c| c.src == src || c.dst == src) {
                src
            } else {
                dst
            };
            return Err(OpticalError::BrickPortBusy { port: busy });
        }
        self.switch.connect(sp_src, sp_dst)?;
        let id = CircuitId(self.next_id);
        self.next_id += 1;
        self.circuits.insert(
            id,
            OpticalCircuit {
                id,
                src,
                dst,
                switch_ports: (sp_src, sp_dst),
                hops,
            },
        );
        Ok(id)
    }

    /// Tears down a circuit and frees its switch ports.
    ///
    /// # Errors
    ///
    /// Returns [`OpticalError::NoSuchCircuit`] if the circuit does not exist.
    pub fn teardown(&mut self, id: CircuitId) -> Result<OpticalCircuit, OpticalError> {
        let circuit = self
            .circuits
            .remove(&id)
            .ok_or(OpticalError::NoSuchCircuit { circuit: id.0 })?;
        self.switch.disconnect(circuit.switch_ports.0)?;
        Ok(circuit)
    }

    /// Looks up a circuit by identifier.
    pub fn circuit(&self, id: CircuitId) -> Option<&OpticalCircuit> {
        self.circuits.get(&id)
    }

    /// Finds the circuit (if any) that connects the two given bricks, in
    /// either direction.
    #[cfg(test)]
    pub(crate) fn circuit_between(
        &self,
        a: dredbox_bricks::BrickId,
        b: dredbox_bricks::BrickId,
    ) -> Option<&OpticalCircuit> {
        self.circuits.values().find(|c| {
            (c.src.brick == a && c.dst.brick == b) || (c.src.brick == b && c.dst.brick == a)
        })
    }

    /// All active circuits.
    #[cfg(test)]
    pub(crate) fn circuits(&self) -> impl Iterator<Item = &OpticalCircuit> {
        self.circuits.values()
    }

    /// Number of active circuits.
    pub fn circuit_count(&self) -> usize {
        self.circuits.len()
    }

    /// Cabled brick ports and the switch port each is seated in, ascending
    /// by brick port.
    pub fn cabled_ports(&self) -> impl Iterator<Item = (PortId, u16)> + '_ {
        self.cabling.iter().map(|(&p, &sp)| (p, sp))
    }

    /// Fails the active switch over to `standby`: the cabling (physical
    /// fibres) is re-seated one-to-one onto the standby's identically
    /// numbered ports and every established circuit is re-programmed on
    /// it, in ascending circuit order. Circuit ids, endpoints and hop
    /// counts survive unchanged. Returns the number of circuits restored.
    ///
    /// # Errors
    ///
    /// Returns [`OpticalError::NoSuchSwitchPort`] if the standby has fewer
    /// ports than the cabling uses; nothing is changed in that case.
    pub(crate) fn fail_over(
        &mut self,
        standby: OpticalCircuitSwitch,
    ) -> Result<usize, OpticalError> {
        if let Some(&highest) = self.cabling.values().max() {
            if highest >= standby.port_count() {
                return Err(OpticalError::NoSuchSwitchPort { port: highest });
            }
        }
        self.switch = standby;
        let mut restored = 0;
        for circuit in self.circuits.values() {
            self.switch
                .connect(circuit.switch_ports.0, circuit.switch_ports.1)
                .expect("replayed cross-connections cannot collide");
            restored += 1;
        }
        Ok(restored)
    }

    /// Severs the fibre seated at brick port `port`: the cabling entry is
    /// removed and every circuit riding that port is torn down. Returns the
    /// switch port the fibre occupied and the torn circuits (ascending by
    /// id), so the caller can re-route them and later re-cable the port.
    ///
    /// # Errors
    ///
    /// Returns [`OpticalError::PortNotCabled`] if the port has no fibre.
    pub(crate) fn uncable(
        &mut self,
        port: PortId,
    ) -> Result<(u16, Vec<OpticalCircuit>), OpticalError> {
        let switch_port = self
            .cabling
            .remove(&port)
            .ok_or(OpticalError::PortNotCabled { port })?;
        let dead: Vec<CircuitId> = self
            .circuits
            .values()
            .filter(|c| c.src == port || c.dst == port)
            .map(|c| c.id)
            .collect();
        let mut torn = Vec::with_capacity(dead.len());
        for id in dead {
            torn.push(self.teardown(id).expect("collected circuit exists"));
        }
        Ok((switch_port, torn))
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_newtype!(CircuitId(u64));
dredbox_snap::snap_struct!(OpticalCircuit {
    id,
    src,
    dst,
    switch_ports,
    hops,
});
dredbox_snap::snap_struct!(CircuitManager {
    switch,
    cabling,
    circuits,
    next_id,
});

#[cfg(test)]
mod tests {
    use super::*;
    use dredbox_bricks::BrickId;

    fn manager() -> CircuitManager {
        let mut mgr = CircuitManager::new(OpticalCircuitSwitch::polatis_48());
        for brick in 0..4u32 {
            for port in 0..2u8 {
                mgr.cable(
                    PortId::new(BrickId(brick), port),
                    (brick * 2 + u32::from(port)) as u16,
                )
                .unwrap();
            }
        }
        mgr
    }

    #[test]
    fn cabling_rules() {
        let mut mgr = CircuitManager::new(OpticalCircuitSwitch::polatis_48());
        let p = PortId::new(BrickId(0), 0);
        mgr.cable(p, 5).unwrap();
        assert_eq!(mgr.cabled_to(p), Some(5));
        assert_eq!(mgr.cabled_count(), 1);
        assert!(matches!(
            mgr.cable(PortId::new(BrickId(1), 0), 5),
            Err(OpticalError::SwitchPortBusy { port: 5 })
        ));
        assert!(matches!(
            mgr.cable(PortId::new(BrickId(1), 0), 99),
            Err(OpticalError::NoSuchSwitchPort { port: 99 })
        ));
        assert_eq!(mgr.cabled_to(PortId::new(BrickId(9), 0)), None);
    }

    #[test]
    fn establish_and_teardown() {
        let mut mgr = manager();
        let src = PortId::new(BrickId(0), 0);
        let dst = PortId::new(BrickId(1), 0);
        let id = mgr.establish(src, dst).unwrap();
        assert_eq!(mgr.circuit_count(), 1);
        let c = mgr.circuit(id).copied().unwrap();
        assert_eq!(c.src, src);
        assert_eq!(c.dst, dst);
        assert_eq!(c.hops, 1);
        assert!(mgr
            .switch()
            .is_connected(c.switch_ports.0, c.switch_ports.1));
        assert!(mgr.circuit_between(BrickId(0), BrickId(1)).is_some());
        assert!(mgr.circuit_between(BrickId(1), BrickId(0)).is_some());
        assert!(mgr.circuit_between(BrickId(0), BrickId(3)).is_none());

        // The same brick port cannot carry two circuits.
        assert!(matches!(
            mgr.establish(src, PortId::new(BrickId(2), 0)),
            Err(OpticalError::BrickPortBusy { .. })
        ));

        let torn = mgr.teardown(id).unwrap();
        assert_eq!(torn.id, id);
        assert_eq!(mgr.circuit_count(), 0);
        assert_eq!(mgr.switch().used_ports(), 0);
        assert!(matches!(
            mgr.teardown(id),
            Err(OpticalError::NoSuchCircuit { .. })
        ));
    }

    #[test]
    fn uncabled_ports_are_rejected() {
        let mut mgr = manager();
        let uncabled = PortId::new(BrickId(9), 0);
        assert!(matches!(
            mgr.establish(uncabled, PortId::new(BrickId(0), 0)),
            Err(OpticalError::PortNotCabled { .. })
        ));
        assert!(matches!(
            mgr.establish(PortId::new(BrickId(0), 0), uncabled),
            Err(OpticalError::PortNotCabled { .. })
        ));
    }

    #[test]
    fn multi_hop_circuits_record_hop_count() {
        let mut mgr = manager();
        let id = mgr
            .establish_with_hops(PortId::new(BrickId(0), 0), PortId::new(BrickId(1), 0), 8)
            .unwrap();
        assert_eq!(mgr.circuit(id).unwrap().hops, 8);
        assert_eq!(id.to_string(), "circuit0");
    }

    #[test]
    fn many_circuits_until_ports_exhaust() {
        let mut mgr = manager();
        let mut ids = Vec::new();
        for brick in (0..4u32).step_by(2) {
            let id = mgr
                .establish(
                    PortId::new(BrickId(brick), 0),
                    PortId::new(BrickId(brick + 1), 0),
                )
                .unwrap();
            ids.push(id);
        }
        assert_eq!(mgr.circuit_count(), 2);
        assert_eq!(mgr.circuits().count(), 2);
        for id in ids {
            mgr.teardown(id).unwrap();
        }
        assert_eq!(mgr.switch().used_ports(), 0);
    }
}
