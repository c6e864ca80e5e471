//! The rack-level optical circuit switch.
//!
//! The prototype uses a low-loss 48-port optical switch module
//! (HUBER+SUHNER Polatis). Each hop through the switch introduces roughly
//! 1 dB of attenuation and each port draws about 100 mW; the next generation
//! of the module doubles port density and halves per-port power, which is
//! exposed here as [`OpticalCircuitSwitch::next_generation`] for ablations.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use dredbox_sim::units::Watts;

use crate::error::OpticalError;

/// A non-blocking optical circuit switch with paired port connections.
///
/// ```
/// use dredbox_optical::OpticalCircuitSwitch;
///
/// let mut sw = OpticalCircuitSwitch::polatis_48();
/// sw.connect(0, 1)?;
/// assert!(sw.is_connected(0, 1));
/// assert_eq!(sw.used_ports(), 2);
/// assert!((sw.insertion_loss_db() - 1.0).abs() < 1e-9);
/// # Ok::<(), dredbox_optical::OpticalError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpticalCircuitSwitch {
    port_count: u16,
    insertion_loss_db: f64,
    per_port_power: Watts,
    /// in-port -> out-port; connections are stored symmetrically.
    connections: BTreeMap<u16, u16>,
}

impl OpticalCircuitSwitch {
    /// The 48-port module used in the prototype: ~1 dB insertion loss per
    /// hop, ~100 mW per port.
    pub fn polatis_48() -> Self {
        OpticalCircuitSwitch {
            port_count: 48,
            insertion_loss_db: 1.0,
            per_port_power: Watts::new(0.1),
            connections: BTreeMap::new(),
        }
    }

    /// The next-generation module teased in the paper: double the port
    /// density, half the per-port power.
    #[cfg(test)]
    pub(crate) fn next_generation() -> Self {
        OpticalCircuitSwitch {
            port_count: 96,
            insertion_loss_db: 1.0,
            per_port_power: Watts::new(0.05),
            connections: BTreeMap::new(),
        }
    }

    /// A custom switch.
    ///
    /// # Panics
    ///
    /// Panics if `port_count` is zero or `insertion_loss_db` is negative.
    #[cfg(test)]
    pub(crate) fn new(port_count: u16, insertion_loss_db: f64, per_port_power: Watts) -> Self {
        assert!(port_count > 0, "switch must have at least one port");
        assert!(
            insertion_loss_db >= 0.0,
            "insertion loss cannot be negative"
        );
        OpticalCircuitSwitch {
            port_count,
            insertion_loss_db,
            per_port_power,
            connections: BTreeMap::new(),
        }
    }

    /// A cold standby of the same module: identical port count, loss and
    /// power, with no cross-connections programmed — what a failover swaps
    /// in for a dead switch.
    pub(crate) fn standby(&self) -> Self {
        OpticalCircuitSwitch {
            port_count: self.port_count,
            insertion_loss_db: self.insertion_loss_db,
            per_port_power: self.per_port_power,
            connections: BTreeMap::new(),
        }
    }

    /// Number of physical ports.
    pub(crate) fn port_count(&self) -> u16 {
        self.port_count
    }

    /// Insertion loss of one hop through the switch, in dB.
    pub fn insertion_loss_db(&self) -> f64 {
        self.insertion_loss_db
    }

    /// Number of ports currently part of a connection.
    pub fn used_ports(&self) -> usize {
        self.connections.len()
    }

    /// Number of ports not part of any connection.
    #[cfg(test)]
    pub(crate) fn free_ports(&self) -> usize {
        usize::from(self.port_count) - self.used_ports()
    }

    /// Whether `port` is free.
    #[cfg(test)]
    pub(crate) fn is_port_free(&self, port: u16) -> bool {
        port < self.port_count && !self.connections.contains_key(&port)
    }

    /// Finds the lowest-numbered pair of free ports, if two exist.
    #[cfg(test)]
    pub(crate) fn free_port_pair(&self) -> Option<(u16, u16)> {
        let mut free = (0..self.port_count).filter(|p| self.is_port_free(*p));
        let a = free.next()?;
        let b = free.next()?;
        Some((a, b))
    }

    /// Cross-connects ports `a` and `b` (bidirectional).
    ///
    /// # Errors
    ///
    /// Returns [`OpticalError::NoSuchSwitchPort`] for out-of-range ports and
    /// [`OpticalError::SwitchPortBusy`] if either port is already connected
    /// (or `a == b`).
    pub fn connect(&mut self, a: u16, b: u16) -> Result<(), OpticalError> {
        for p in [a, b] {
            if p >= self.port_count {
                return Err(OpticalError::NoSuchSwitchPort { port: p });
            }
        }
        if a == b {
            return Err(OpticalError::SwitchPortBusy { port: a });
        }
        for p in [a, b] {
            if self.connections.contains_key(&p) {
                return Err(OpticalError::SwitchPortBusy { port: p });
            }
        }
        self.connections.insert(a, b);
        self.connections.insert(b, a);
        Ok(())
    }

    /// Tears down the connection involving `port`.
    ///
    /// # Errors
    ///
    /// Returns [`OpticalError::NoSuchSwitchPort`] if `port` is out of range
    /// or not connected.
    pub(crate) fn disconnect(&mut self, port: u16) -> Result<(), OpticalError> {
        let peer = self
            .connections
            .remove(&port)
            .ok_or(OpticalError::NoSuchSwitchPort { port })?;
        self.connections.remove(&peer);
        Ok(())
    }

    /// Whether ports `a` and `b` are currently cross-connected.
    pub fn is_connected(&self, a: u16, b: u16) -> bool {
        self.connections.get(&a) == Some(&b)
    }

    /// The peer of `port`, if it is connected.
    #[cfg(test)]
    pub(crate) fn peer(&self, port: u16) -> Option<u16> {
        self.connections.get(&port).copied()
    }

    /// Electrical power drawn by the switch for its *active* ports. The TCO
    /// study charges the optical network by active port.
    #[cfg(test)]
    pub(crate) fn power_draw(&self) -> Watts {
        self.per_port_power.scale(self.used_ports() as f64)
    }

    /// Electrical power if every port were active, an upper bound used for
    /// provisioning in the TCO model.
    #[cfg(test)]
    pub(crate) fn max_power_draw(&self) -> Watts {
        self.per_port_power.scale(f64::from(self.port_count))
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_struct!(OpticalCircuitSwitch {
    port_count,
    insertion_loss_db,
    per_port_power,
    connections,
});

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn polatis_defaults_match_paper() {
        let sw = OpticalCircuitSwitch::polatis_48();
        assert_eq!(sw.port_count(), 48);
        assert!((sw.insertion_loss_db() - 1.0).abs() < 1e-9);
        // 100 mW/port -> 4.8 W for the full module.
        assert!((sw.max_power_draw().as_watts() - 4.8).abs() < 1e-9);
        let next = OpticalCircuitSwitch::next_generation();
        assert_eq!(next.port_count(), 96);
        assert!((next.max_power_draw().as_watts() - 4.8).abs() < 1e-9);
    }

    #[test]
    fn connect_disconnect_lifecycle() {
        let mut sw = OpticalCircuitSwitch::polatis_48();
        assert_eq!(sw.free_ports(), 48);
        sw.connect(3, 7).unwrap();
        assert!(sw.is_connected(3, 7));
        assert!(sw.is_connected(7, 3));
        assert_eq!(sw.peer(3), Some(7));
        assert_eq!(sw.used_ports(), 2);
        assert!((sw.power_draw().as_watts() - 0.2).abs() < 1e-9);

        assert!(matches!(
            sw.connect(3, 9),
            Err(OpticalError::SwitchPortBusy { port: 3 })
        ));
        assert!(matches!(
            sw.connect(9, 7),
            Err(OpticalError::SwitchPortBusy { port: 7 })
        ));
        assert!(matches!(
            sw.connect(5, 5),
            Err(OpticalError::SwitchPortBusy { .. })
        ));
        assert!(matches!(
            sw.connect(48, 1),
            Err(OpticalError::NoSuchSwitchPort { port: 48 })
        ));

        sw.disconnect(7).unwrap();
        assert_eq!(sw.used_ports(), 0);
        assert_eq!(sw.peer(3), None);
        assert!(matches!(
            sw.disconnect(7),
            Err(OpticalError::NoSuchSwitchPort { .. })
        ));
    }

    #[test]
    fn free_port_pair_skips_used_ports() {
        let mut sw = OpticalCircuitSwitch::new(4, 1.0, Watts::new(0.1));
        assert_eq!(sw.free_port_pair(), Some((0, 1)));
        sw.connect(0, 2).unwrap();
        assert_eq!(sw.free_port_pair(), Some((1, 3)));
        sw.connect(1, 3).unwrap();
        assert_eq!(sw.free_port_pair(), None);
        assert_eq!(sw.free_ports(), 0);
    }

    #[test]
    #[should_panic]
    fn zero_port_switch_rejected() {
        let _ = OpticalCircuitSwitch::new(0, 1.0, Watts::ZERO);
    }

    proptest! {
        #[test]
        fn connections_stay_symmetric(pairs in proptest::collection::vec((0u16..48, 0u16..48), 0..40)) {
            let mut sw = OpticalCircuitSwitch::polatis_48();
            for (a, b) in pairs {
                let _ = sw.connect(a, b);
            }
            // Every connection must be symmetric and every used port must have a peer.
            for p in 0..48u16 {
                if let Some(q) = sw.peer(p) {
                    prop_assert_eq!(sw.peer(q), Some(p));
                }
            }
            prop_assert_eq!(sw.used_ports() % 2, 0);
        }
    }
}
