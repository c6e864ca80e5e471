//! Dimensioning presets for bricks, trays and racks.
//!
//! Two families of presets are provided:
//!
//! * [`Catalog::prototype`] — dimensions matching the vertical dReDBox
//!   prototype: Zynq Ultrascale+ compute bricks (quad-core A53 APU, local
//!   DDR), memory bricks mixing DDR4 and HMC controllers, 8×10 Gb/s GTH
//!   ports per brick as in the SiP mid-board optics.
//! * [`Catalog::tco_study`] — the abstract dimensions of the Section VI TCO
//!   study, where each conventional server has 32 cores + 32 GB and the
//!   disaggregated datacenter has the *same aggregate* resources split into
//!   independently powered compute bricks (32 cores) and memory bricks
//!   (32 GB).

use serde::{Deserialize, Serialize};

use dredbox_sim::units::{Bandwidth, ByteSize, Watts};

use crate::accel::{AcceleratorBrick, AcceleratorBrickSpec};
use crate::compute::{ComputeBrick, ComputeBrickSpec};
use crate::id::{BrickId, RackId, TrayId};
use crate::memory_brick::{MemoryBrick, MemoryBrickSpec, MemoryController, MemoryTechnology};
use crate::power::PowerModel;
use crate::rack::Rack;
use crate::tray::Tray;

/// A set of brick dimensioning presets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Catalog {
    compute: ComputeBrickSpec,
    memory: MemoryBrickSpec,
    accelerator: AcceleratorBrickSpec,
}

impl Catalog {
    /// Presets matching the vertical prototype described in Sections II–III.
    pub fn prototype() -> Self {
        Catalog {
            compute: ComputeBrickSpec {
                apu_cores: 4,
                rpu_cores: 2,
                local_memory: ByteSize::from_gib(4),
                gth_ports: 8,
                port_rate: Bandwidth::from_gbps(10.0),
                rmst_entries: 64,
                power: PowerModel::new(Watts::ZERO, Watts::new(15.0), Watts::new(35.0)),
            },
            memory: MemoryBrickSpec {
                controllers: vec![
                    MemoryController::new(MemoryTechnology::Ddr4, ByteSize::from_gib(16)),
                    MemoryController::new(MemoryTechnology::Hmc, ByteSize::from_gib(16)),
                ],
                gth_ports: 8,
                port_rate: Bandwidth::from_gbps(10.0),
                power: PowerModel::new(Watts::ZERO, Watts::new(10.0), Watts::new(25.0)),
            },
            accelerator: AcceleratorBrickSpec {
                pl_memory: ByteSize::from_gib(4),
                apu_memory: ByteSize::from_gib(2),
                gth_ports: 4,
                port_rate: Bandwidth::from_gbps(10.0),
                pcap_bandwidth: Bandwidth::from_gbps(3.2),
                power: PowerModel::new(Watts::ZERO, Watts::new(12.0), Watts::new(30.0)),
            },
        }
    }

    /// Presets matching the TCO study of Section VI: one compute brick offers
    /// the full 32 cores of a conventional server (plus a small amount of
    /// local memory), one memory brick offers the server's 32 GB, and both
    /// are *independently* powered units.
    pub fn tco_study() -> Self {
        Catalog {
            compute: ComputeBrickSpec {
                apu_cores: 32,
                rpu_cores: 2,
                local_memory: ByteSize::from_gib(2),
                gth_ports: 8,
                port_rate: Bandwidth::from_gbps(10.0),
                rmst_entries: 256,
                power: PowerModel::new(Watts::ZERO, Watts::new(60.0), Watts::new(180.0)),
            },
            memory: MemoryBrickSpec {
                controllers: vec![MemoryController::new(
                    MemoryTechnology::Ddr4,
                    ByteSize::from_gib(32),
                )],
                gth_ports: 8,
                port_rate: Bandwidth::from_gbps(10.0),
                power: PowerModel::new(Watts::ZERO, Watts::new(30.0), Watts::new(90.0)),
            },
            accelerator: AcceleratorBrickSpec {
                pl_memory: ByteSize::from_gib(8),
                apu_memory: ByteSize::from_gib(2),
                gth_ports: 4,
                port_rate: Bandwidth::from_gbps(10.0),
                pcap_bandwidth: Bandwidth::from_gbps(3.2),
                power: PowerModel::new(Watts::ZERO, Watts::new(20.0), Watts::new(60.0)),
            },
        }
    }

    /// The compute-brick specification.
    pub fn compute_spec(&self) -> &ComputeBrickSpec {
        &self.compute
    }

    /// The memory-brick specification.
    pub fn memory_spec(&self) -> &MemoryBrickSpec {
        &self.memory
    }

    /// The accelerator-brick specification.
    pub fn accelerator_spec(&self) -> &AcceleratorBrickSpec {
        &self.accelerator
    }

    /// Replaces the compute-brick specification.
    #[cfg(test)]
    pub(crate) fn with_compute_spec(mut self, spec: ComputeBrickSpec) -> Self {
        self.compute = spec;
        self
    }

    /// Replaces the memory-brick specification.
    pub fn with_memory_spec(mut self, spec: MemoryBrickSpec) -> Self {
        self.memory = spec;
        self
    }

    /// Replaces the accelerator-brick specification.
    #[cfg(test)]
    pub(crate) fn with_accelerator_spec(mut self, spec: AcceleratorBrickSpec) -> Self {
        self.accelerator = spec;
        self
    }

    /// Instantiates a compute brick with this catalog's spec.
    pub fn compute_brick(&self, id: BrickId) -> ComputeBrick {
        ComputeBrick::new(id, self.compute.clone())
    }

    /// Instantiates a memory brick with this catalog's spec.
    pub fn memory_brick(&self, id: BrickId) -> MemoryBrick {
        MemoryBrick::new(id, self.memory.clone())
    }

    /// Instantiates an accelerator brick with this catalog's spec.
    pub fn accelerator_brick(&self, id: BrickId) -> AcceleratorBrick {
        AcceleratorBrick::new(id, self.accelerator.clone())
    }

    /// Builds a rack of `trays` trays, each holding `compute_per_tray`
    /// dCOMPUBRICKs, `memory_per_tray` dMEMBRICKs and `accel_per_tray`
    /// dACCELBRICKs, with globally unique brick identifiers.
    pub fn build_rack(
        &self,
        trays: u16,
        compute_per_tray: u16,
        memory_per_tray: u16,
        accel_per_tray: u16,
    ) -> Rack {
        self.build_rack_in(
            RackId(0),
            BrickId(0),
            trays,
            compute_per_tray,
            memory_per_tray,
            accel_per_tray,
        )
    }

    /// Builds one rack of a multi-rack cluster: the rack carries `rack` as
    /// its identity and its bricks are numbered sequentially from
    /// `first_brick`, so every rack of a cluster lives in a disjoint,
    /// stride-aligned slice of the global brick-id namespace.
    pub(crate) fn build_rack_in(
        &self,
        rack: RackId,
        first_brick: BrickId,
        trays: u16,
        compute_per_tray: u16,
        memory_per_tray: u16,
        accel_per_tray: u16,
    ) -> Rack {
        let mut rack = Rack::new(rack);
        let mut next_id = first_brick.0;
        for tray_idx in 0..trays {
            let mut tray = Tray::new(TrayId(tray_idx));
            for _ in 0..compute_per_tray {
                tray.plug(self.compute_brick(BrickId(next_id)).into());
                next_id += 1;
            }
            for _ in 0..memory_per_tray {
                tray.plug(self.memory_brick(BrickId(next_id)).into());
                next_id += 1;
            }
            for _ in 0..accel_per_tray {
                tray.plug(self.accelerator_brick(BrickId(next_id)).into());
                next_id += 1;
            }
            rack.add_tray(tray);
        }
        rack
    }
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog::prototype()
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_struct!(Catalog {
    compute,
    memory,
    accelerator,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::BrickKind;

    #[test]
    fn prototype_matches_paper_dimensions() {
        let c = Catalog::prototype();
        // Zynq US+ integrates a quad-core A53 APU and a dual-core R5 RPU.
        assert_eq!(c.compute_spec().apu_cores, 4);
        assert_eq!(c.compute_spec().rpu_cores, 2);
        // The SiP MBO has 8 transceivers at 10 Gb/s.
        assert_eq!(c.compute_spec().gth_ports, 8);
        assert_eq!(c.compute_spec().port_rate.as_gbps(), 10.0);
        // The memory brick supports both DDR and HMC controllers.
        let techs: Vec<_> = c
            .memory_spec()
            .controllers
            .iter()
            .map(|mc| mc.technology)
            .collect();
        assert!(techs.contains(&MemoryTechnology::Ddr4));
        assert!(techs.contains(&MemoryTechnology::Hmc));
    }

    #[test]
    fn tco_study_has_equal_aggregate_server_split() {
        let c = Catalog::tco_study();
        assert_eq!(c.compute_spec().apu_cores, 32);
        assert_eq!(c.memory_spec().total_capacity(), ByteSize::from_gib(32));
        // Split bricks should together draw comparable power to a monolithic
        // server (~270 W active here), so Figure 13's normalization is fair.
        let combined_active = c.compute_spec().power.active() + c.memory_spec().power.active();
        assert!(combined_active.as_watts() > 200.0 && combined_active.as_watts() < 350.0);
    }

    #[test]
    fn build_rack_assigns_unique_ids() {
        let rack = Catalog::prototype().build_rack(3, 2, 2, 1);
        let mut ids: Vec<u32> = rack.bricks().map(|b| b.id().0).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before);
        assert_eq!(before, 3 * 5);
        assert_eq!(rack.brick_count(BrickKind::Compute), 6);
        assert_eq!(rack.brick_count(BrickKind::Memory), 6);
        assert_eq!(rack.brick_count(BrickKind::Accelerator), 3);
    }

    #[test]
    fn build_rack_in_offsets_the_brick_namespace() {
        let rack = Catalog::prototype().build_rack_in(RackId(3), BrickId(45), 3, 2, 2, 1);
        assert_eq!(rack.id(), RackId(3));
        let mut ids: Vec<u32> = rack.bricks().map(|b| b.id().0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (45..60).collect::<Vec<_>>());
        // The default builder is the rack-0, offset-0 special case.
        let base = Catalog::prototype().build_rack(3, 2, 2, 1);
        assert_eq!(base.id(), RackId(0));
        assert!(base.brick(BrickId(0)).is_some());
    }

    #[test]
    fn builder_style_overrides() {
        let base = Catalog::prototype();
        let custom_compute = ComputeBrickSpec {
            apu_cores: 16,
            ..base.compute_spec().clone()
        };
        let c = base.clone().with_compute_spec(custom_compute);
        assert_eq!(c.compute_spec().apu_cores, 16);
        let c = c.with_memory_spec(Catalog::tco_study().memory_spec().clone());
        assert_eq!(c.memory_spec().total_capacity(), ByteSize::from_gib(32));
        let c = c.with_accelerator_spec(base.accelerator_spec().clone());
        assert_eq!(c.accelerator_spec().gth_ports, 4);
        assert_eq!(Catalog::default(), Catalog::prototype());
    }
}
