//! Power management: powering off unused bricks.
//!
//! "Offer fine-grained power management and aggressive power-aware resource
//! management/scheduling" is a core project objective, and the TCO study of
//! Section VI quantifies its value: every brick (or, in a conventional
//! datacenter, every server) that runs nothing can be switched off.

use serde::{Deserialize, Serialize};

use dredbox_bricks::{Brick, BrickKind, Rack};
use dredbox_sim::units::Watts;

/// Summary of one power-management sweep over a rack.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PowerSweep {
    /// dCOMPUBRICKs powered off by the sweep.
    pub compute_off: usize,
    /// dMEMBRICKs powered off by the sweep.
    pub memory_off: usize,
    /// dACCELBRICKs powered off by the sweep.
    pub accelerator_off: usize,
}

impl PowerSweep {
    /// Total bricks powered off.
    pub fn total_off(&self) -> usize {
        self.compute_off + self.memory_off + self.accelerator_off
    }
}

/// Rack-level power manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PowerManager;

impl PowerManager {
    /// Creates a power manager.
    pub fn new() -> Self {
        PowerManager
    }

    /// Powers off every brick that currently holds no allocation.
    #[cfg(test)]
    pub(crate) fn power_off_unused(&self, rack: &mut Rack) -> PowerSweep {
        self.power_off_unused_where(rack, |_| true)
    }

    /// Powers off every unallocated brick `filter` selects — the per-shard
    /// variant used when sweeps are batched per event-engine shard: each
    /// shard sweeps only its own bricks, and a whole-rack sweep is the
    /// identity filter.
    #[cfg(test)]
    pub(crate) fn power_off_unused_where(
        &self,
        rack: &mut Rack,
        filter: impl FnMut(dredbox_bricks::BrickId) -> bool,
    ) -> PowerSweep {
        self.power_off_unused_tracked(rack, filter, |_, _| {})
    }

    /// `power_off_unused_where` that also hands each brick
    /// this sweep newly switched off to `newly_off`, in rack iteration
    /// order, so callers can sync dependent views (the SDM controller's
    /// availability indexes) without re-scanning the rack for every
    /// already-off brick, and without the sweep collecting a list.
    pub fn power_off_unused_tracked(
        &self,
        rack: &mut Rack,
        mut filter: impl FnMut(dredbox_bricks::BrickId) -> bool,
        mut newly_off: impl FnMut(BrickKind, dredbox_bricks::BrickId),
    ) -> PowerSweep {
        let mut sweep = PowerSweep::default();
        for brick in rack.bricks_mut() {
            if !brick.is_unused() || !filter(brick.id()) {
                continue;
            }
            // `power_off` succeeds on an already-off unused brick, and the
            // sweep counters deliberately keep counting those (they are the
            // long-standing scenario-visible totals); `newly_off` hears
            // only of genuine on→off transitions so dependent ledgers
            // (controller availability, powered counts) never double-debit.
            match brick {
                Brick::Compute(b) => {
                    let was_on = b.power_state() != dredbox_bricks::PowerState::Off;
                    if b.power_off().is_ok() {
                        sweep.compute_off += 1;
                        if was_on {
                            newly_off(BrickKind::Compute, b.id());
                        }
                    }
                }
                Brick::Memory(b) => {
                    let was_on = b.power_state() != dredbox_bricks::PowerState::Off;
                    if b.power_off().is_ok() {
                        sweep.memory_off += 1;
                        if was_on {
                            newly_off(BrickKind::Memory, b.id());
                        }
                    }
                }
                Brick::Accelerator(b) => {
                    let was_on = b.power_state() != dredbox_bricks::PowerState::Off;
                    if b.power_off().is_ok() {
                        sweep.accelerator_off += 1;
                        if was_on {
                            newly_off(BrickKind::Accelerator, b.id());
                        }
                    }
                }
            }
        }
        sweep
    }

    /// Current electrical draw of all bricks in the rack.
    pub fn rack_power(&self, rack: &Rack) -> Watts {
        rack.power_draw()
    }

    /// Fraction of bricks of `kind` that are currently unused (power-off
    /// candidates), in `[0, 1]`. Returns zero when the rack has no bricks
    /// of that kind.
    #[cfg(test)]
    pub(crate) fn unused_fraction(&self, rack: &Rack, kind: BrickKind) -> f64 {
        let total = rack.brick_count(kind);
        if total == 0 {
            return 0.0;
        }
        rack.unused_brick_count(kind) as f64 / total as f64
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`). The manager is
// stateless, so it occupies zero bytes in a snapshot stream.
impl dredbox_snap::Snap for PowerManager {
    fn snap(&self, _out: &mut Vec<u8>) {}

    fn unsnap(_r: &mut dredbox_snap::Reader<'_>) -> Result<Self, dredbox_snap::SnapError> {
        Ok(PowerManager)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dredbox_bricks::{BrickId, Catalog};
    use dredbox_sim::units::ByteSize;

    fn rack_with_load() -> Rack {
        let mut rack = Catalog::prototype().build_rack(2, 2, 2, 1);
        // Load one compute brick and one memory brick.
        let compute = rack.brick_ids(BrickKind::Compute)[0];
        rack.brick_mut(compute)
            .unwrap()
            .as_compute_mut()
            .unwrap()
            .allocate_cores(2)
            .unwrap();
        let memory = rack.brick_ids(BrickKind::Memory)[0];
        rack.brick_mut(memory)
            .unwrap()
            .as_memory_mut()
            .unwrap()
            .export(compute, ByteSize::from_gib(8))
            .unwrap();
        rack
    }

    #[test]
    fn sweep_powers_off_only_unused_bricks() {
        let mut rack = rack_with_load();
        let pm = PowerManager::new();
        let before = pm.rack_power(&rack);
        let sweep = pm.power_off_unused(&mut rack);
        // 4 compute bricks (1 busy), 4 memory bricks (1 busy), 2 accelerators.
        assert_eq!(sweep.compute_off, 3);
        assert_eq!(sweep.memory_off, 3);
        assert_eq!(sweep.accelerator_off, 2);
        assert_eq!(sweep.total_off(), 8);
        let after = pm.rack_power(&rack);
        assert!(after.as_watts() < before.as_watts());
    }

    #[test]
    fn filtered_sweep_only_touches_selected_bricks() {
        let mut rack = rack_with_load();
        let pm = PowerManager::new();
        // Sweep only even brick ids; odd unused bricks must stay on.
        let sweep = pm.power_off_unused_where(&mut rack, |id| id.0 % 2 == 0);
        assert!(sweep.total_off() > 0);
        for brick in rack.bricks() {
            let state = match brick {
                Brick::Compute(b) => b.power_state(),
                Brick::Memory(b) => b.power_state(),
                Brick::Accelerator(b) => b.power_state(),
            };
            if brick.id().0 % 2 == 1 {
                assert_ne!(state, dredbox_bricks::PowerState::Off, "{}", brick.id());
            }
        }
        // The complementary sweep finishes the job: together the two
        // disjoint filters cover exactly the 8 sleepable bricks.
        let rest = pm.power_off_unused_where(&mut rack, |id| id.0 % 2 == 1);
        assert_eq!(sweep.total_off() + rest.total_off(), 8);
    }

    #[test]
    fn unused_fraction_tracks_load() {
        let rack = rack_with_load();
        let pm = PowerManager::new();
        assert!((pm.unused_fraction(&rack, BrickKind::Compute) - 0.75).abs() < 1e-12);
        assert!((pm.unused_fraction(&rack, BrickKind::Memory) - 0.75).abs() < 1e-12);
        assert!((pm.unused_fraction(&rack, BrickKind::Accelerator) - 1.0).abs() < 1e-12);
        let empty = Rack::new(dredbox_bricks::RackId(9));
        assert_eq!(pm.unused_fraction(&empty, BrickKind::Compute), 0.0);
        let _ = BrickId(0);
    }
}
