//! Rack-level optical topology.
//!
//! Cables every brick GTH port in a rack to a port of the rack's optical
//! circuit switch and offers a brick-to-brick circuit-establishment helper
//! that also updates the brick-side port state (the "software-defined wiring
//! of resources" of the paper's abstract).

use serde::{Deserialize, Serialize};

use dredbox_bricks::{Brick, BrickId, PortId, Rack};

use crate::circuit::{CircuitId, CircuitManager};
use crate::error::OpticalError;
use crate::switch::OpticalCircuitSwitch;

/// The optical wiring of one rack: a circuit manager plus knowledge of how
/// brick ports map to switch ports.
///
/// ```
/// use dredbox_bricks::{Catalog, BrickKind};
/// use dredbox_optical::topology::OpticalTopology;
/// use dredbox_optical::switch::OpticalCircuitSwitch;
///
/// let mut rack = Catalog::prototype().build_rack(2, 2, 2, 0);
/// let mut topo = OpticalTopology::cable_rack(&rack, OpticalCircuitSwitch::polatis_48());
/// let compute = rack.brick_ids(BrickKind::Compute)[0];
/// let memory = rack.brick_ids(BrickKind::Memory)[0];
/// let id = topo.connect_bricks(&mut rack, compute, memory)?;
/// assert!(topo.manager().circuit(id).is_some());
/// # Ok::<(), dredbox_optical::OpticalError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpticalTopology {
    manager: CircuitManager,
}

impl OpticalTopology {
    /// Cables every brick port in `rack` to the lowest free switch port, in
    /// brick/port order, until the switch runs out of ports. Bricks whose
    /// ports could not be cabled simply cannot receive circuits.
    pub fn cable_rack(rack: &Rack, switch: OpticalCircuitSwitch) -> Self {
        let mut manager = CircuitManager::new(switch);
        let mut next_switch_port: u16 = 0;
        let port_count = manager.switch().port_count();
        'outer: for brick in rack.bricks() {
            let ports: Vec<PortId> = match brick {
                Brick::Compute(b) => b.ports().iter().map(|p| p.id()).collect(),
                Brick::Memory(b) => b.ports().iter().map(|p| p.id()).collect(),
                Brick::Accelerator(b) => b.ports().iter().map(|p| p.id()).collect(),
            };
            for port in ports {
                if next_switch_port >= port_count {
                    break 'outer;
                }
                manager
                    .cable(port, next_switch_port)
                    .expect("fresh switch port must be cable-able");
                next_switch_port += 1;
            }
        }
        OpticalTopology { manager }
    }

    /// The circuit manager.
    pub fn manager(&self) -> &CircuitManager {
        &self.manager
    }

    /// Establishes a circuit between a free, cabled GTH port of brick `a`
    /// and one of brick `b`, marking both brick ports as circuit-attached.
    ///
    /// # Errors
    ///
    /// Returns [`OpticalError::NoFreeBrickPort`] if either brick has no free
    /// cabled port, or the circuit-establishment error from the manager.
    pub fn connect_bricks(
        &mut self,
        rack: &mut Rack,
        a: BrickId,
        b: BrickId,
    ) -> Result<CircuitId, OpticalError> {
        let pa = self
            .free_cabled_port(rack, a)
            .ok_or(OpticalError::NoFreeBrickPort { brick: a })?;
        let pb = self
            .free_cabled_port(rack, b)
            .ok_or(OpticalError::NoFreeBrickPort { brick: b })?;
        let id = self.manager.establish(pa, pb)?;
        // Mark the brick-side ports as carrying this circuit.
        for port in [pa, pb] {
            Self::attach_brick_port(rack, port, id.0);
        }
        Ok(id)
    }

    /// Tears down a circuit and frees the brick-side ports.
    ///
    /// # Errors
    ///
    /// Returns [`OpticalError::NoSuchCircuit`] if the circuit is unknown.
    pub fn disconnect(&mut self, rack: &mut Rack, id: CircuitId) -> Result<(), OpticalError> {
        let circuit = self.manager.teardown(id)?;
        for port in [circuit.src, circuit.dst] {
            Self::detach_brick_port(rack, port);
        }
        Ok(())
    }

    /// Fails the rack's optical switch over to a cold standby of the same
    /// module. Every established circuit is re-programmed on the standby;
    /// brick-side port states are untouched (the light path is restored
    /// end-to-end). Returns the number of circuits restored.
    pub fn fail_over_switch(&mut self) -> usize {
        let standby = self.manager.switch().standby();
        self.manager
            .fail_over(standby)
            .expect("standby has the same port count")
    }

    /// Severs the fibre at brick port `port` and re-routes the circuits it
    /// carried through other free cabled ports of the same brick pairs,
    /// where possible. Circuits that cannot be re-routed stay down until
    /// the link is repaired.
    ///
    /// # Errors
    ///
    /// Returns [`OpticalError::PortNotCabled`] if the port has no fibre.
    pub fn fail_link(
        &mut self,
        rack: &mut Rack,
        port: PortId,
    ) -> Result<LinkFailover, OpticalError> {
        let (switch_port, torn) = self.manager.uncable(port)?;
        for circuit in &torn {
            Self::detach_brick_port(rack, circuit.src);
            Self::detach_brick_port(rack, circuit.dst);
        }
        let mut rerouted = Vec::new();
        let mut lost = Vec::new();
        for circuit in &torn {
            match self.connect_bricks(rack, circuit.src.brick, circuit.dst.brick) {
                Ok(id) => rerouted.push((circuit.src.brick, circuit.dst.brick, id)),
                Err(_) => lost.push((circuit.src.brick, circuit.dst.brick)),
            }
        }
        Ok(LinkFailover {
            port,
            switch_port,
            rerouted,
            lost,
        })
    }

    /// Re-seats a repaired fibre: brick port `port` is cabled back into
    /// switch port `switch_port`.
    ///
    /// # Errors
    ///
    /// Propagates the manager's cabling errors (out-of-range or busy
    /// switch port).
    pub fn recable(&mut self, port: PortId, switch_port: u16) -> Result<(), OpticalError> {
        self.manager.cable(port, switch_port)
    }

    fn free_cabled_port(&self, rack: &Rack, brick: BrickId) -> Option<PortId> {
        let b = rack.brick(brick)?;
        let free_ports: Vec<PortId> = match b {
            Brick::Compute(c) => c
                .ports()
                .iter()
                .filter(|p| p.is_free())
                .map(|p| p.id())
                .collect(),
            Brick::Memory(m) => m
                .ports()
                .iter()
                .filter(|p| p.is_free())
                .map(|p| p.id())
                .collect(),
            Brick::Accelerator(a) => a
                .ports()
                .iter()
                .filter(|p| p.is_free())
                .map(|p| p.id())
                .collect(),
        };
        free_ports
            .into_iter()
            .find(|p| self.manager.cabled_to(*p).is_some())
    }

    fn attach_brick_port(rack: &mut Rack, port: PortId, circuit: u64) {
        if let Some(brick) = rack.brick_mut(port.brick) {
            let result = match brick {
                Brick::Compute(b) => b
                    .ports_mut()
                    .port_mut(port.index)
                    .and_then(|p| p.attach_circuit(circuit)),
                Brick::Memory(b) => b
                    .ports_mut()
                    .port_mut(port.index)
                    .and_then(|p| p.attach_circuit(circuit)),
                Brick::Accelerator(b) => b
                    .ports_mut()
                    .port_mut(port.index)
                    .and_then(|p| p.attach_circuit(circuit)),
            };
            debug_assert!(result.is_ok(), "port chosen as free must attach");
        }
    }

    fn detach_brick_port(rack: &mut Rack, port: PortId) {
        if let Some(brick) = rack.brick_mut(port.brick) {
            match brick {
                Brick::Compute(b) => {
                    if let Ok(p) = b.ports_mut().port_mut(port.index) {
                        p.detach();
                    }
                }
                Brick::Memory(b) => {
                    if let Ok(p) = b.ports_mut().port_mut(port.index) {
                        p.detach();
                    }
                }
                Brick::Accelerator(b) => {
                    if let Ok(p) = b.ports_mut().port_mut(port.index) {
                        p.detach();
                    }
                }
            }
        }
    }
}

/// What happened when a fibre was severed: the freed switch port (needed to
/// re-cable on repair) and the fate of each circuit the fibre carried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkFailover {
    /// The brick port whose fibre was severed.
    pub port: PortId,
    /// The switch port the fibre occupied; a repair re-cables here.
    pub switch_port: u16,
    /// Brick pairs whose circuit was re-established through another cabled
    /// port, with the new circuit id.
    pub rerouted: Vec<(BrickId, BrickId, CircuitId)>,
    /// Brick pairs whose circuit could not be re-routed and stays down.
    pub lost: Vec<(BrickId, BrickId)>,
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_struct!(OpticalTopology { manager });

#[cfg(test)]
mod tests {
    use super::*;
    use dredbox_bricks::{BrickKind, Catalog, PortState};

    fn setup() -> (Rack, OpticalTopology) {
        let rack = Catalog::prototype().build_rack(1, 2, 2, 0);
        let topo = OpticalTopology::cable_rack(&rack, OpticalCircuitSwitch::polatis_48());
        (rack, topo)
    }

    #[test]
    fn cabling_covers_ports_up_to_switch_capacity() {
        let (_rack, topo) = setup();
        // 4 bricks x 8 ports = 32 ports, all fit into the 48-port switch.
        assert_eq!(topo.manager().cabled_count(), 32);

        let big_rack = Catalog::prototype().build_rack(2, 4, 4, 0);
        let topo2 = OpticalTopology::cable_rack(&big_rack, OpticalCircuitSwitch::polatis_48());
        // 16 bricks x 8 ports = 128 ports, but only 48 switch ports exist.
        assert_eq!(topo2.manager().cabled_count(), 48);
    }

    #[test]
    fn connect_and_disconnect_bricks() {
        let (mut rack, mut topo) = setup();
        let compute = rack.brick_ids(BrickKind::Compute)[0];
        let memory = rack.brick_ids(BrickKind::Memory)[0];
        let id = topo.connect_bricks(&mut rack, compute, memory).unwrap();

        // Both brick-side ports should now be circuit-attached.
        let cb = rack.brick(compute).unwrap().as_compute().unwrap();
        assert!(matches!(
            cb.ports().port(0).unwrap().state(),
            PortState::Circuit { .. }
        ));
        let mb = rack.brick(memory).unwrap().as_memory().unwrap();
        assert!(matches!(
            mb.ports().port(0).unwrap().state(),
            PortState::Circuit { .. }
        ));
        assert!(topo.manager().circuit_between(compute, memory).is_some());

        topo.disconnect(&mut rack, id).unwrap();
        let cb = rack.brick(compute).unwrap().as_compute().unwrap();
        assert!(cb.ports().port(0).unwrap().is_free());
        assert_eq!(topo.manager().circuit_count(), 0);
    }

    #[test]
    fn multiple_circuits_use_distinct_ports() {
        let (mut rack, mut topo) = setup();
        let compute = rack.brick_ids(BrickKind::Compute)[0];
        let mems = rack.brick_ids(BrickKind::Memory);
        let id1 = topo.connect_bricks(&mut rack, compute, mems[0]).unwrap();
        let id2 = topo.connect_bricks(&mut rack, compute, mems[1]).unwrap();
        assert_ne!(id1, id2);
        let c1 = *topo.manager().circuit(id1).unwrap();
        let c2 = *topo.manager().circuit(id2).unwrap();
        assert_ne!(c1.src, c2.src);
        assert_ne!(c1.switch_ports, c2.switch_ports);
    }

    #[test]
    fn switch_fail_over_preserves_circuits() {
        let (mut rack, mut topo) = setup();
        let compute = rack.brick_ids(BrickKind::Compute)[0];
        let mems = rack.brick_ids(BrickKind::Memory);
        let id1 = topo.connect_bricks(&mut rack, compute, mems[0]).unwrap();
        let id2 = topo.connect_bricks(&mut rack, compute, mems[1]).unwrap();
        let before = topo.clone();

        assert_eq!(topo.fail_over_switch(), 2);
        // Circuits, cabling and switch state are bit-identical after the
        // standby replays the cross-connections.
        assert_eq!(topo, before);
        assert!(topo.manager().circuit(id1).is_some());
        assert!(topo.manager().circuit(id2).is_some());
    }

    #[test]
    fn link_failure_reroutes_through_spare_port() {
        let (mut rack, mut topo) = setup();
        let compute = rack.brick_ids(BrickKind::Compute)[0];
        let memory = rack.brick_ids(BrickKind::Memory)[0];
        let id = topo.connect_bricks(&mut rack, compute, memory).unwrap();
        let circuit = *topo.manager().circuit(id).unwrap();

        let failover = topo.fail_link(&mut rack, circuit.src).unwrap();
        assert_eq!(failover.port, circuit.src);
        // The brick pair re-routes through another cabled port; the old
        // circuit is gone, a new one connects the same bricks.
        assert_eq!(failover.rerouted.len(), 1);
        assert!(failover.lost.is_empty());
        assert!(topo.manager().circuit(id).is_none());
        let rerouted = topo.manager().circuit_between(compute, memory).unwrap();
        assert_ne!(rerouted.src, circuit.src);
        assert_eq!(topo.manager().cabled_to(circuit.src), None);

        // Repair re-seats the fibre in the same switch port.
        topo.recable(failover.port, failover.switch_port).unwrap();
        assert_eq!(
            topo.manager().cabled_to(circuit.src),
            Some(failover.switch_port)
        );
    }

    #[test]
    fn severing_an_uncabled_port_is_an_error() {
        let (mut rack, mut topo) = setup();
        let bogus = PortId::new(BrickId(10_000), 0);
        assert!(matches!(
            topo.fail_link(&mut rack, bogus),
            Err(OpticalError::PortNotCabled { .. })
        ));
    }

    #[test]
    fn connecting_unknown_brick_fails() {
        let (mut rack, mut topo) = setup();
        let compute = rack.brick_ids(BrickKind::Compute)[0];
        assert!(matches!(
            topo.connect_bricks(&mut rack, compute, BrickId(10_000)),
            Err(OpticalError::NoFreeBrickPort { .. })
        ));
    }
}
