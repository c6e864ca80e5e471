//! Offered-load accounting over the optical fabric's shared stages.
//!
//! A circuit between a dCOMPUBRICK and a dMEMBRICK owns its fibre
//! end-to-end, but three stages of the data path are shared with other
//! tenants: the compute brick's transceiver uplink aggregate, the rack-level
//! switch, and the destination dMEMBRICK's ingress port. [`FabricLoad`] is a
//! deterministic ledger of the sustained offered load (bytes/s) published on
//! each of those stages; the scenario world consults it to price queuing on
//! every remote read (see `dredbox_interconnect::contention`).
//!
//! The ledger is plain bookkeeping — publish on admission, retract on
//! departure, re-publish when a tenant's observed traffic changes — and all
//! mutations happen in simulation-event order, so replays are bit-identical.

use dredbox_bricks::BrickId;

/// One shared stage of a read's route through the rack fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FabricStage {
    /// The source compute brick's uplink aggregate into the fabric.
    BrickUplink(BrickId),
    /// The rack-level switch shared by every brick in the rack.
    RackSwitch,
    /// The destination dMEMBRICK's ingress port.
    MembrickPort(BrickId),
}

/// The three stages a read from `compute` to `membrick` traverses, in path
/// order.
pub fn read_route_stages(compute: BrickId, membrick: BrickId) -> [FabricStage; 3] {
    [
        FabricStage::BrickUplink(compute),
        FabricStage::RackSwitch,
        FabricStage::MembrickPort(membrick),
    ]
}

/// Per-stage offered-load ledger for one rack's fabric.
///
/// Dense storage: one slot per brick id for uplinks and for ports, grown
/// on publish up to the largest id seen (a rack's ids are small and
/// dense), plus one for the switch. A stage without load reads zero,
/// whether it was never published, drained, or lies past the end of its
/// vector.
#[derive(Debug, Clone, Default)]
pub struct FabricLoad {
    /// Offered load on each compute brick's uplink, indexed by brick id.
    uplinks: Vec<f64>,
    /// Offered load on each dMEMBRICK's ingress port, indexed by brick id.
    ports: Vec<f64>,
    /// Offered load on the rack switch.
    switch: f64,
    peak_bytes_per_sec: f64,
}

impl FabricLoad {
    /// An empty ledger.
    pub fn new() -> Self {
        FabricLoad::default()
    }

    /// Publishes `bytes_per_sec` of sustained offered load on `stage`.
    pub fn publish(&mut self, stage: FabricStage, bytes_per_sec: f64) {
        if bytes_per_sec <= 0.0 {
            return;
        }
        let slot = match stage {
            FabricStage::BrickUplink(id) => grown_slot(&mut self.uplinks, id),
            FabricStage::RackSwitch => &mut self.switch,
            FabricStage::MembrickPort(id) => grown_slot(&mut self.ports, id),
        };
        *slot += bytes_per_sec;
        self.peak_bytes_per_sec = self.peak_bytes_per_sec.max(*slot);
    }

    /// Retracts `bytes_per_sec` previously published on `stage`, clamping at
    /// zero so float cancellation can never leave a negative residue.
    pub fn retract(&mut self, stage: FabricStage, bytes_per_sec: f64) {
        if bytes_per_sec <= 0.0 {
            return;
        }
        // A stage never published has no storage and stays at zero.
        let slot = match stage {
            FabricStage::BrickUplink(id) => self.uplinks.get_mut(id.0 as usize),
            FabricStage::RackSwitch => Some(&mut self.switch),
            FabricStage::MembrickPort(id) => self.ports.get_mut(id.0 as usize),
        };
        if let Some(slot) = slot {
            *slot = (*slot - bytes_per_sec).max(0.0);
        }
    }

    /// Total offered load on `stage` in bytes/s.
    pub fn load(&self, stage: FabricStage) -> f64 {
        let slot = match stage {
            FabricStage::BrickUplink(id) => self.uplinks.get(id.0 as usize),
            FabricStage::RackSwitch => Some(&self.switch),
            FabricStage::MembrickPort(id) => self.ports.get(id.0 as usize),
        };
        slot.copied().unwrap_or(0.0)
    }

    /// Offered load on `stage` excluding `own` — the background a tenant
    /// publishing `own` bytes/s actually queues behind.
    pub fn background(&self, stage: FabricStage, own: f64) -> f64 {
        (self.load(stage) - own).max(0.0)
    }

    /// Number of stages currently carrying load.
    pub fn loaded_stages(&self) -> usize {
        let switch = std::iter::once(&self.switch);
        self.uplinks
            .iter()
            .chain(&self.ports)
            .chain(switch)
            .filter(|&&load| load != 0.0)
            .count()
    }

    /// The highest per-stage offered load ever published, in bytes/s.
    pub fn peak_bytes_per_sec(&self) -> f64 {
        self.peak_bytes_per_sec
    }
}

/// The slot of brick `id` in `slots`, growing the vector to reach it.
fn grown_slot(slots: &mut Vec<f64>, id: BrickId) -> &mut f64 {
    let index = id.0 as usize;
    if index >= slots.len() {
        slots.resize(index + 1, 0.0);
    }
    &mut slots[index]
}

/// Ledgers are equal when every stage carries the same load and the peaks
/// match; how far each vector has grown does not matter.
impl PartialEq for FabricLoad {
    fn eq(&self, other: &Self) -> bool {
        fn same_loads(a: &[f64], b: &[f64]) -> bool {
            let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
            short.iter().zip(long).all(|(x, y)| x == y)
                && long[short.len()..].iter().all(|&load| load == 0.0)
        }
        self.switch == other.switch
            && self.peak_bytes_per_sec == other.peak_bytes_per_sec
            && same_loads(&self.uplinks, &other.uplinks)
            && same_loads(&self.ports, &other.ports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brick(id: u32) -> BrickId {
        BrickId(id)
    }

    #[test]
    fn publish_retract_round_trips_to_empty() {
        let mut ledger = FabricLoad::new();
        let stages = read_route_stages(brick(0), brick(9));
        for stage in stages {
            ledger.publish(stage, 1e6);
        }
        assert_eq!(ledger.loaded_stages(), 3);
        assert_eq!(ledger.load(FabricStage::RackSwitch), 1e6);
        for stage in stages {
            ledger.retract(stage, 1e6);
        }
        assert_eq!(ledger.loaded_stages(), 0);
        assert_eq!(ledger.load(FabricStage::RackSwitch), 0.0);
        // Peak survives retraction: it is a high-water mark.
        assert_eq!(ledger.peak_bytes_per_sec(), 1e6);
    }

    #[test]
    fn background_excludes_the_tenants_own_contribution() {
        let mut ledger = FabricLoad::new();
        let port = FabricStage::MembrickPort(brick(5));
        // Ten tenants incast onto one membrick port.
        for _ in 0..10 {
            ledger.publish(port, 2e6);
        }
        assert_eq!(ledger.load(port), 2e7);
        assert_eq!(ledger.background(port, 2e6), 1.8e7);
        // A tenant never sees negative background.
        assert_eq!(ledger.background(port, 1e9), 0.0);
    }

    #[test]
    fn over_retraction_clamps_at_zero() {
        let mut ledger = FabricLoad::new();
        let uplink = FabricStage::BrickUplink(brick(1));
        ledger.publish(uplink, 5.0);
        ledger.retract(uplink, 7.0);
        assert_eq!(ledger.load(uplink), 0.0);
        // Retracting an unknown stage is a no-op.
        ledger.retract(FabricStage::RackSwitch, 1.0);
        assert_eq!(ledger.loaded_stages(), 0);
    }

    #[test]
    fn stages_of_a_route_are_distinct_and_ordered() {
        let stages = read_route_stages(brick(3), brick(7));
        assert_eq!(stages[0], FabricStage::BrickUplink(brick(3)));
        assert_eq!(stages[1], FabricStage::RackSwitch);
        assert_eq!(stages[2], FabricStage::MembrickPort(brick(7)));
        assert!(stages[0] < stages[1] && stages[1] < stages[2]);
    }

    #[test]
    fn widely_spaced_brick_ids_keep_their_own_slots() {
        let mut ledger = FabricLoad::new();
        let near = FabricStage::BrickUplink(brick(2));
        let far = FabricStage::BrickUplink(brick(4_000));
        let far_port = FabricStage::MembrickPort(brick(4_000));
        ledger.publish(far, 3e6);
        ledger.publish(near, 1e6);
        ledger.publish(far_port, 5e6);
        assert_eq!(ledger.load(far), 3e6);
        assert_eq!(ledger.load(near), 1e6);
        assert_eq!(ledger.load(far_port), 5e6);
        // Ids between and beyond the published ones read zero.
        assert_eq!(ledger.load(FabricStage::BrickUplink(brick(3_999))), 0.0);
        assert_eq!(ledger.load(FabricStage::BrickUplink(brick(u32::MAX))), 0.0);
        assert_eq!(ledger.load(FabricStage::MembrickPort(brick(2))), 0.0);
        assert_eq!(ledger.loaded_stages(), 3);
        ledger.retract(far, 3e6);
        assert_eq!(ledger.loaded_stages(), 2);
        assert_eq!(ledger.peak_bytes_per_sec(), 5e6);
    }

    #[test]
    fn retracting_an_unpublished_stage_grows_nothing() {
        let mut ledger = FabricLoad::new();
        ledger.retract(FabricStage::BrickUplink(brick(u32::MAX)), 1.0);
        ledger.retract(FabricStage::MembrickPort(brick(1_000_000)), 1.0);
        assert!(ledger.uplinks.is_empty() && ledger.ports.is_empty());
        ledger.publish(FabricStage::MembrickPort(brick(3)), 1.0);
        ledger.retract(FabricStage::MembrickPort(brick(9)), 1.0);
        assert_eq!(ledger.ports.len(), 4);
        assert_eq!(ledger, {
            let mut same = FabricLoad::new();
            same.publish(FabricStage::MembrickPort(brick(3)), 1.0);
            same
        });
    }

    #[test]
    fn equality_compares_loads_not_storage() {
        // Same loads, but one ledger grew far wider before draining.
        let mut wide = FabricLoad::new();
        let mut narrow = FabricLoad::new();
        wide.publish(FabricStage::BrickUplink(brick(900)), 2.0);
        wide.retract(FabricStage::BrickUplink(brick(900)), 2.0);
        narrow.publish(FabricStage::RackSwitch, 2.0);
        narrow.retract(FabricStage::RackSwitch, 2.0);
        for ledger in [&mut wide, &mut narrow] {
            ledger.publish(FabricStage::BrickUplink(brick(1)), 7.0);
            ledger.publish(FabricStage::MembrickPort(brick(4)), 7.0);
        }
        assert!(wide.uplinks.len() > narrow.uplinks.len());
        assert_eq!(wide, narrow);
        assert_eq!(narrow, wide);
        // A differing load anywhere breaks equality, including a load past
        // the end of the other ledger's vector.
        let mut wider = wide.clone();
        wider.publish(FabricStage::BrickUplink(brick(900)), 1.0);
        assert_ne!(wider, narrow);
        assert_ne!(narrow, wider);
        let mut other = narrow.clone();
        other.publish(FabricStage::BrickUplink(brick(500)), 1.0);
        assert_ne!(other, wide);
        other.retract(FabricStage::BrickUplink(brick(500)), 1.0);
        assert_eq!(other, wide);
        other.publish(FabricStage::RackSwitch, 1.0);
        assert_ne!(other, wide);
        // The peak is part of the ledger's state.
        let mut peaked = FabricLoad::new();
        peaked.publish(FabricStage::RackSwitch, 9.0);
        peaked.retract(FabricStage::RackSwitch, 9.0);
        assert_ne!(peaked, FabricLoad::new());
    }

    #[test]
    fn loaded_stages_counts_every_stage_with_load() {
        let mut ledger = FabricLoad::new();
        for (compute, membrick) in [(0, 10), (1, 10), (0, 11)] {
            for stage in read_route_stages(brick(compute), brick(membrick)) {
                ledger.publish(stage, 1.0);
            }
        }
        // Uplinks 0 and 1, the switch, ports 10 and 11.
        assert_eq!(ledger.loaded_stages(), 5);
        ledger.retract(FabricStage::BrickUplink(brick(1)), 1.0);
        ledger.retract(FabricStage::MembrickPort(brick(11)), 0.5);
        assert_eq!(ledger.loaded_stages(), 4);
        ledger.retract(FabricStage::RackSwitch, 10.0);
        assert_eq!(ledger.loaded_stages(), 3);
    }

    proptest::proptest! {
        #[test]
        fn matches_a_sparse_map_ledger_bit_for_bit(
            ops in proptest::collection::vec((0u8..3, 0u32..40, 0u8..3, -2.0f64..8.0), 1..200),
        ) {
            // The reference keeps one map entry per loaded stage and drops
            // an entry the moment a retraction drains it.
            let mut sparse: std::collections::BTreeMap<FabricStage, f64> = Default::default();
            let mut peak = 0.0f64;
            let mut ledger = FabricLoad::new();
            for (kind, id, op, rate) in ops {
                let stage = match kind {
                    0 => FabricStage::BrickUplink(brick(id * 97)),
                    1 => FabricStage::RackSwitch,
                    _ => FabricStage::MembrickPort(brick(id)),
                };
                if op == 0 {
                    ledger.retract(stage, rate);
                    if let (true, Some(slot)) = (rate > 0.0, sparse.get_mut(&stage)) {
                        *slot = (*slot - rate).max(0.0);
                        if *slot == 0.0 {
                            sparse.remove(&stage);
                        }
                    }
                } else {
                    ledger.publish(stage, rate);
                    if rate > 0.0 {
                        let slot = sparse.entry(stage).or_insert(0.0);
                        *slot += rate;
                        peak = peak.max(*slot);
                    }
                }
                let expect = sparse.get(&stage).copied().unwrap_or(0.0);
                proptest::prop_assert_eq!(ledger.load(stage).to_bits(), expect.to_bits());
                proptest::prop_assert_eq!(ledger.loaded_stages(), sparse.len());
                proptest::prop_assert_eq!(ledger.peak_bytes_per_sec().to_bits(), peak.to_bits());
            }
            for (stage, load) in &sparse {
                proptest::prop_assert_eq!(ledger.load(*stage).to_bits(), load.to_bits());
            }
        }
    }

    #[test]
    fn zero_and_negative_publishes_are_ignored() {
        let mut ledger = FabricLoad::new();
        ledger.publish(FabricStage::RackSwitch, 0.0);
        ledger.publish(FabricStage::RackSwitch, -5.0);
        assert_eq!(ledger.loaded_stages(), 0);
        assert_eq!(ledger.peak_bytes_per_sec(), 0.0);
    }
}
