//! The on-brick packet switch.
//!
//! On the experimental packet-based interconnect, "dedicated switching and
//! MAC/PHY blocks are used to forward memory transactions to on-brick
//! destination ports as appropriate in a round-robin fashion", and
//! orchestration keeps the switch lookup tables configured at runtime
//! (Section III). The model captures the lookup table, round-robin
//! arbitration across competing inputs and the per-hop traversal latency.

use serde::{Deserialize, Serialize};

use dredbox_bricks::{BrickId, PortId};
use dredbox_sim::flat::FlatMap;
use dredbox_sim::time::SimDuration;

use crate::config::LatencyConfig;
use crate::error::InterconnectError;

/// The packet switch instantiated in one brick's programmable logic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnBrickSwitch {
    owner: BrickId,
    traversal: SimDuration,
    /// Egress port per destination brick; one entry per dMEMBRICK the brick
    /// reaches.
    lookup: FlatMap<BrickId, PortId>,
    round_robin_cursor: usize,
}

impl OnBrickSwitch {
    /// Creates the switch for brick `owner` with the configured traversal
    /// latency and an empty lookup table.
    pub fn new(owner: BrickId, config: &LatencyConfig) -> Self {
        OnBrickSwitch {
            owner,
            traversal: config.switch_traversal,
            lookup: FlatMap::new(),
            round_robin_cursor: 0,
        }
    }

    /// Installs (or replaces) a lookup-table entry: packets for
    /// `destination` leave through `port`. This is the operation the
    /// orchestrator's control path performs at runtime.
    pub fn program_route(&mut self, destination: BrickId, port: PortId) {
        self.lookup.insert(destination, port);
    }

    /// Removes the route towards `destination`.
    pub fn remove_route(&mut self, destination: BrickId) -> Option<PortId> {
        self.lookup.remove(&destination)
    }

    /// Number of programmed routes.
    #[cfg(test)]
    pub(crate) fn route_count(&self) -> usize {
        self.lookup.len()
    }

    /// Looks up the egress port for `destination`.
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::NoSwitchRoute`] if no entry exists.
    pub fn route(&self, destination: BrickId) -> Result<PortId, InterconnectError> {
        self.lookup
            .get(&destination)
            .copied()
            .ok_or(InterconnectError::NoSwitchRoute { destination })
    }

    /// Latency for one packet to traverse the switch when `competing` other
    /// inputs want the same output in the same arbitration epoch: the
    /// round-robin arbiter serialises them, so the expected wait grows
    /// linearly with the number of competitors.
    #[cfg(test)]
    pub(crate) fn traversal_latency(&self, competing: usize) -> SimDuration {
        self.traversal + self.traversal.saturating_mul(competing as u64)
    }

    /// Round-robin arbitration: given the set of input ports with packets
    /// pending, returns the index of the input granted this epoch and
    /// advances the cursor.
    ///
    /// Returns `None` when no input is pending.
    #[cfg(test)]
    pub(crate) fn arbitrate(&mut self, pending_inputs: &[bool]) -> Option<usize> {
        if pending_inputs.is_empty() {
            return None;
        }
        let n = pending_inputs.len();
        for offset in 0..n {
            let idx = (self.round_robin_cursor + offset) % n;
            if pending_inputs[idx] {
                self.round_robin_cursor = (idx + 1) % n;
                return Some(idx);
            }
        }
        None
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_struct!(OnBrickSwitch {
    owner,
    traversal,
    lookup,
    round_robin_cursor,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn switch() -> OnBrickSwitch {
        OnBrickSwitch::new(BrickId(0), &LatencyConfig::dredbox_default())
    }

    #[test]
    fn lookup_table_programming() {
        let mut sw = switch();
        assert_eq!(sw.owner, BrickId(0));
        assert_eq!(sw.route_count(), 0);
        assert!(matches!(
            sw.route(BrickId(5)),
            Err(InterconnectError::NoSwitchRoute { .. })
        ));
        let port = PortId::new(BrickId(0), 3);
        sw.program_route(BrickId(5), port);
        assert_eq!(sw.route(BrickId(5)).unwrap(), port);
        assert_eq!(sw.route_count(), 1);
        assert_eq!(sw.remove_route(BrickId(5)), Some(port));
        assert_eq!(sw.remove_route(BrickId(5)), None);
    }

    #[test]
    fn contention_increases_latency_linearly() {
        let sw = switch();
        let alone = sw.traversal_latency(0);
        let with_three = sw.traversal_latency(3);
        assert_eq!(with_three.as_nanos(), alone.as_nanos() * 4);
    }

    #[test]
    fn round_robin_is_fair() {
        let mut sw = switch();
        let pending = [true, true, true];
        let grants: Vec<usize> = (0..6).map(|_| sw.arbitrate(&pending).unwrap()).collect();
        assert_eq!(grants, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_skips_idle_inputs() {
        let mut sw = switch();
        assert_eq!(sw.arbitrate(&[]), None);
        assert_eq!(sw.arbitrate(&[false, false]), None);
        assert_eq!(sw.arbitrate(&[false, true, false]), Some(1));
        // Cursor advanced past input 1; with all pending, input 2 goes next.
        assert_eq!(sw.arbitrate(&[true, true, true]), Some(2));
        assert_eq!(sw.arbitrate(&[true, false, false]), Some(0));
    }
}
