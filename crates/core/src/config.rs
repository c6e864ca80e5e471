//! System-level configuration presets.

use serde::{Deserialize, Serialize};

use dredbox_bricks::Catalog;
use dredbox_interconnect::{LatencyConfig, PathKind};
use dredbox_memory::AllocationPolicy;
use dredbox_orchestrator::{PlacementPolicy, SdmTimings};
use dredbox_sim::units::Watts;
use dredbox_softstack::{MigrationModel, ScaleUpTimings};

/// Configuration of a [`crate::DredboxSystem`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Number of federated racks. A [`crate::DredboxSystem`] is one rack
    /// and builds only from `racks == 1`; a scenario with more racks
    /// builds one system per rack and puts a cluster controller above
    /// their SDM controllers.
    #[serde(default)]
    pub racks: u16,
    /// Per-rack provisioned-power budget enforced by the cluster
    /// controller at admission time; `None` disables power screening.
    #[serde(default)]
    pub rack_power_budget: Option<Watts>,
    /// Number of trays in the rack.
    pub trays: u16,
    /// dCOMPUBRICKs per tray.
    pub compute_per_tray: u16,
    /// dMEMBRICKs per tray.
    pub memory_per_tray: u16,
    /// dACCELBRICKs per tray.
    pub accel_per_tray: u16,
    /// Brick dimensioning catalog.
    pub catalog: Catalog,
    /// Data-path latency parameters.
    pub latency: LatencyConfig,
    /// Which data path remote memory accesses use.
    pub path: PathKind,
    /// dMEMBRICK selection policy of the memory pool.
    pub memory_policy: AllocationPolicy,
    /// VM placement policy over compute bricks.
    pub placement: PlacementPolicy,
    /// SDM-controller control-plane timings.
    pub sdm_timings: SdmTimings,
    /// Scale-up controller timings on each compute brick.
    pub scaleup_timings: ScaleUpTimings,
    /// VM migration cost model (disaggregated vs conventional pre-copy).
    pub migration: MigrationModel,
}

impl SystemConfig {
    /// A small rack matching the vertical prototype: two trays, each with
    /// two compute bricks, two memory bricks and one accelerator brick.
    pub fn prototype_rack() -> Self {
        SystemConfig {
            racks: 1,
            rack_power_budget: None,
            trays: 2,
            compute_per_tray: 2,
            memory_per_tray: 2,
            accel_per_tray: 1,
            catalog: Catalog::prototype(),
            latency: LatencyConfig::dredbox_default(),
            path: PathKind::CircuitSwitched,
            memory_policy: AllocationPolicy::PowerAware,
            placement: PlacementPolicy::PowerAware,
            sdm_timings: SdmTimings::dredbox_default(),
            scaleup_timings: ScaleUpTimings::dredbox_default(),
            migration: MigrationModel::dredbox_default(),
        }
    }

    /// A larger rack dimensioned like the TCO study (32-core compute bricks,
    /// 32-GiB memory bricks), used by the agility and TCO experiments.
    pub fn datacenter_rack(trays: u16, compute_per_tray: u16, memory_per_tray: u16) -> Self {
        SystemConfig {
            racks: 1,
            rack_power_budget: None,
            trays,
            compute_per_tray,
            memory_per_tray,
            accel_per_tray: 0,
            catalog: Catalog::tco_study(),
            latency: LatencyConfig::dredbox_default(),
            path: PathKind::CircuitSwitched,
            memory_policy: AllocationPolicy::PowerAware,
            placement: PlacementPolicy::PowerAware,
            sdm_timings: SdmTimings::dredbox_default(),
            scaleup_timings: ScaleUpTimings::dredbox_default(),
            migration: MigrationModel::dredbox_default(),
        }
    }

    /// A datacenter rack that also carries dACCELBRICKs on every tray — the
    /// offload-heavy configuration where near-data acceleration is a
    /// scheduled resource class alongside compute and memory.
    pub fn accelerated_rack(
        trays: u16,
        compute_per_tray: u16,
        memory_per_tray: u16,
        accel_per_tray: u16,
    ) -> Self {
        SystemConfig {
            accel_per_tray,
            ..SystemConfig::datacenter_rack(trays, compute_per_tray, memory_per_tray)
        }
    }

    /// A multi-rack datacenter: `racks` TCO-dimensioned racks federated
    /// under one cluster controller, each rack still owned by its own SDM
    /// controller.
    pub fn datacenter_cluster(
        racks: u16,
        trays: u16,
        compute_per_tray: u16,
        memory_per_tray: u16,
    ) -> Self {
        SystemConfig {
            racks,
            ..SystemConfig::datacenter_rack(trays, compute_per_tray, memory_per_tray)
        }
    }

    /// Sets the number of federated racks.
    pub(crate) fn with_racks(mut self, racks: u16) -> Self {
        self.racks = racks;
        self
    }

    /// Sets the per-rack provisioned-power budget.
    pub fn with_rack_power_budget(mut self, budget: Option<Watts>) -> Self {
        self.rack_power_budget = budget;
        self
    }

    /// Switches the remote-memory data path.
    #[cfg(test)]
    pub(crate) fn with_path(mut self, path: PathKind) -> Self {
        self.path = path;
        self
    }

    /// Bricks of every kind in one rack.
    pub(crate) fn bricks_per_rack(&self) -> usize {
        usize::from(self.trays)
            * (usize::from(self.compute_per_tray)
                + usize::from(self.memory_per_tray)
                + usize::from(self.accel_per_tray))
    }

    /// Total number of compute bricks across all racks.
    pub fn total_compute_bricks(&self) -> usize {
        usize::from(self.racks) * usize::from(self.trays) * usize::from(self.compute_per_tray)
    }

    /// Total number of memory bricks across all racks.
    pub fn total_memory_bricks(&self) -> usize {
        usize::from(self.racks) * usize::from(self.trays) * usize::from(self.memory_per_tray)
    }

    /// Total number of accelerator bricks across all racks.
    pub(crate) fn total_accel_bricks(&self) -> usize {
        usize::from(self.racks) * usize::from(self.trays) * usize::from(self.accel_per_tray)
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::prototype_rack()
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_struct!(SystemConfig {
    racks,
    rack_power_budget,
    trays,
    compute_per_tray,
    memory_per_tray,
    accel_per_tray,
    catalog,
    latency,
    path,
    memory_policy,
    placement,
    sdm_timings,
    scaleup_timings,
    migration,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_rack_counts() {
        let c = SystemConfig::prototype_rack();
        assert_eq!(c.total_compute_bricks(), 4);
        assert_eq!(c.total_memory_bricks(), 4);
        assert_eq!(c.path, PathKind::CircuitSwitched);
        assert_eq!(SystemConfig::default(), SystemConfig::prototype_rack());
    }

    #[test]
    fn datacenter_rack_uses_tco_catalog() {
        let c = SystemConfig::datacenter_rack(4, 8, 8);
        assert_eq!(c.total_compute_bricks(), 32);
        assert_eq!(c.total_accel_bricks(), 0);
        assert_eq!(c.catalog.compute_spec().apu_cores, 32);
        let packet = c.with_path(PathKind::PacketSwitched);
        assert_eq!(packet.path, PathKind::PacketSwitched);
    }

    #[test]
    fn datacenter_cluster_multiplies_totals_by_racks() {
        let c = SystemConfig::datacenter_cluster(4, 2, 8, 4);
        assert_eq!(c.racks, 4);
        assert_eq!(c.bricks_per_rack(), 24);
        assert_eq!(c.total_compute_bricks(), 64);
        assert_eq!(c.total_memory_bricks(), 32);
        assert_eq!(c.rack_power_budget, None);
        let budgeted = c.with_rack_power_budget(Some(Watts::new(900.0)));
        assert_eq!(budgeted.rack_power_budget, Some(Watts::new(900.0)));
    }

    #[test]
    fn accelerated_rack_adds_accel_bricks_per_tray() {
        let c = SystemConfig::accelerated_rack(2, 4, 4, 2);
        assert_eq!(c.total_compute_bricks(), 8);
        assert_eq!(c.total_memory_bricks(), 8);
        assert_eq!(c.total_accel_bricks(), 4);
        // Everything else matches the datacenter preset.
        assert_eq!(c.catalog, SystemConfig::datacenter_rack(2, 4, 4).catalog);
    }
}
