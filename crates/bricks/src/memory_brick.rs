//! dMEMBRICK: the memory brick (Figure 4 of the paper).
//!
//! A memory brick provides a large, flexible pool of memory that can be
//! partitioned and (re)distributed among compute bricks. The glue logic sits
//! behind an AXI interconnect, so the brick can host different memory
//! technologies (DDR, HMC) side by side; its links can be aggregated for
//! bandwidth or partitioned by the orchestrator across consumers.

use serde::{Deserialize, Serialize};

use dredbox_sim::units::{Bandwidth, ByteSize};

use crate::error::BrickError;
use crate::id::BrickId;
use crate::ports::PortSet;
use crate::power::{PowerModel, PowerState};

/// Memory technology behind a controller on the brick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemoryTechnology {
    /// Conventional DDR4 DIMMs behind a Xilinx DDR controller IP.
    Ddr4,
    /// Hybrid Memory Cube behind an HMC controller IP.
    Hmc,
}

impl std::fmt::Display for MemoryTechnology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemoryTechnology::Ddr4 => f.write_str("DDR4"),
            MemoryTechnology::Hmc => f.write_str("HMC"),
        }
    }
}

/// One memory controller on the brick.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryController {
    /// Memory technology behind the controller.
    pub technology: MemoryTechnology,
    /// Capacity attached to this controller.
    pub capacity: ByteSize,
}

impl MemoryController {
    /// Creates a controller.
    pub fn new(technology: MemoryTechnology, capacity: ByteSize) -> Self {
        MemoryController {
            technology,
            capacity,
        }
    }
}

/// Static dimensioning of a memory brick.
///
/// A dMEMBRICK "can be dimensioned in terms of memory size as well as the
/// number of memory controllers it supports, so as to adapt to the size and
/// bandwidth needs at the tray and system level".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryBrickSpec {
    /// The memory controllers (and their technologies) on the brick.
    pub controllers: Vec<MemoryController>,
    /// Number of GTH transceiver ports towards the rack interconnect.
    pub gth_ports: u8,
    /// Line rate of each GTH port.
    pub port_rate: Bandwidth,
    /// Per-state electrical power draw.
    pub power: PowerModel,
}

impl MemoryBrickSpec {
    /// Total capacity across all controllers.
    pub(crate) fn total_capacity(&self) -> ByteSize {
        self.controllers.iter().map(|c| c.capacity).sum()
    }
}

/// A dMEMBRICK instance with coarse allocation bookkeeping.
///
/// Fine-grained segment allocation (which address range belongs to which
/// compute brick) is handled by the `dredbox-memory` crate; the brick itself
/// tracks how much of its pool is exported and to how many consumers, since
/// that determines whether it can be powered off.
///
/// ```
/// use dredbox_bricks::{Catalog, BrickId};
/// use dredbox_sim::units::ByteSize;
///
/// let mut brick = Catalog::prototype().memory_brick(BrickId(10));
/// brick.export(BrickId(0), ByteSize::from_gib(16))?;
/// assert_eq!(brick.exported(), ByteSize::from_gib(16));
/// assert_eq!(brick.consumer_count(), 1);
/// # Ok::<(), dredbox_bricks::BrickError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryBrick {
    id: BrickId,
    spec: MemoryBrickSpec,
    ports: PortSet,
    power_state: PowerState,
    exported: ByteSize,
    consumers: Vec<(BrickId, ByteSize)>,
}

impl MemoryBrick {
    /// Creates a powered-on, idle memory brick.
    pub(crate) fn new(id: BrickId, spec: MemoryBrickSpec) -> Self {
        let ports = PortSet::new(id, spec.gth_ports, spec.port_rate);
        MemoryBrick {
            id,
            spec,
            ports,
            power_state: PowerState::Idle,
            exported: ByteSize::ZERO,
            consumers: Vec::new(),
        }
    }

    /// Brick identifier.
    pub fn id(&self) -> BrickId {
        self.id
    }

    /// Static dimensioning.
    #[cfg(test)]
    pub(crate) fn spec(&self) -> &MemoryBrickSpec {
        &self.spec
    }

    /// Transceiver ports.
    pub fn ports(&self) -> &PortSet {
        &self.ports
    }

    /// Mutable access to the transceiver ports.
    pub fn ports_mut(&mut self) -> &mut PortSet {
        &mut self.ports
    }

    /// Current power state.
    pub fn power_state(&self) -> PowerState {
        self.power_state
    }

    /// Total pool capacity.
    pub fn capacity(&self) -> ByteSize {
        self.spec.total_capacity()
    }

    /// Memory currently exported to compute bricks.
    pub fn exported(&self) -> ByteSize {
        self.exported
    }

    /// Memory still available for export.
    pub(crate) fn free(&self) -> ByteSize {
        self.capacity() - self.exported
    }

    /// Number of distinct compute bricks consuming memory from this brick.
    pub fn consumer_count(&self) -> usize {
        self.consumers.len()
    }

    /// Amount exported to a specific consumer.
    #[cfg(test)]
    pub(crate) fn exported_to(&self, consumer: BrickId) -> ByteSize {
        self.consumers
            .iter()
            .find(|(c, _)| *c == consumer)
            .map(|(_, amount)| *amount)
            .unwrap_or(ByteSize::ZERO)
    }

    /// Whether nothing is exported from this brick.
    pub(crate) fn is_unused(&self) -> bool {
        self.exported.is_zero()
    }

    /// Exports `amount` of the pool to `consumer`.
    ///
    /// # Errors
    ///
    /// Returns [`BrickError::PoweredOff`] if the brick is off, or
    /// [`BrickError::InsufficientMemory`] if the pool cannot cover the
    /// request.
    pub fn export(&mut self, consumer: BrickId, amount: ByteSize) -> Result<(), BrickError> {
        if self.power_state == PowerState::Off {
            return Err(BrickError::PoweredOff { brick: self.id });
        }
        if amount > self.free() {
            return Err(BrickError::InsufficientMemory {
                brick: self.id,
                requested: amount,
                available: self.free(),
            });
        }
        self.exported += amount;
        if let Some(entry) = self.consumers.iter_mut().find(|(c, _)| *c == consumer) {
            entry.1 += amount;
        } else {
            self.consumers.push((consumer, amount));
        }
        self.refresh_power_state();
        Ok(())
    }

    /// Reclaims `amount` previously exported to `consumer`.
    ///
    /// # Errors
    ///
    /// Returns [`BrickError::ReleaseUnderflow`] if `consumer` does not hold
    /// at least `amount` from this brick.
    pub fn reclaim(&mut self, consumer: BrickId, amount: ByteSize) -> Result<(), BrickError> {
        let Some(pos) = self.consumers.iter().position(|(c, _)| *c == consumer) else {
            return Err(BrickError::ReleaseUnderflow { brick: self.id });
        };
        if self.consumers[pos].1 < amount {
            return Err(BrickError::ReleaseUnderflow { brick: self.id });
        }
        self.consumers[pos].1 -= amount;
        if self.consumers[pos].1.is_zero() {
            self.consumers.remove(pos);
        }
        self.exported -= amount;
        self.refresh_power_state();
        Ok(())
    }

    /// Powers the brick off.
    ///
    /// # Errors
    ///
    /// Returns [`BrickError::ReleaseUnderflow`] if memory is still exported.
    pub fn power_off(&mut self) -> Result<(), BrickError> {
        if !self.is_unused() {
            return Err(BrickError::ReleaseUnderflow { brick: self.id });
        }
        self.power_state = PowerState::Off;
        Ok(())
    }

    /// Powers the brick back on (idle).
    pub fn power_on(&mut self) {
        if self.power_state == PowerState::Off {
            self.power_state = PowerState::Idle;
        }
    }

    /// Current electrical draw.
    pub(crate) fn power_draw(&self) -> dredbox_sim::units::Watts {
        self.spec.power.draw(self.power_state)
    }

    fn refresh_power_state(&mut self) {
        if self.power_state == PowerState::Off {
            return;
        }
        self.power_state = if self.is_unused() {
            PowerState::Idle
        } else {
            PowerState::Active
        };
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_unit_enum!(MemoryTechnology { Ddr4 = 0, Hmc = 1 });
dredbox_snap::snap_struct!(MemoryController {
    technology,
    capacity
});
dredbox_snap::snap_struct!(MemoryBrickSpec {
    controllers,
    gth_ports,
    port_rate,
    power,
});
dredbox_snap::snap_struct!(MemoryBrick {
    id,
    spec,
    ports,
    power_state,
    exported,
    consumers,
});

#[cfg(test)]
mod tests {
    use super::*;
    use dredbox_sim::units::Watts;
    use proptest::prelude::*;

    fn spec() -> MemoryBrickSpec {
        MemoryBrickSpec {
            controllers: vec![
                MemoryController::new(MemoryTechnology::Ddr4, ByteSize::from_gib(16)),
                MemoryController::new(MemoryTechnology::Hmc, ByteSize::from_gib(16)),
            ],
            gth_ports: 8,
            port_rate: Bandwidth::from_gbps(10.0),
            power: PowerModel::new(Watts::ZERO, Watts::new(10.0), Watts::new(25.0)),
        }
    }

    #[test]
    fn capacity_sums_controllers() {
        let b = MemoryBrick::new(BrickId(10), spec());
        assert_eq!(b.capacity(), ByteSize::from_gib(32));
        assert_eq!(b.free(), ByteSize::from_gib(32));
        assert!(b.is_unused());
        assert_eq!(b.spec().total_capacity(), ByteSize::from_gib(32));
    }

    #[test]
    fn export_and_reclaim_lifecycle() {
        let mut b = MemoryBrick::new(BrickId(11), spec());
        b.export(BrickId(0), ByteSize::from_gib(8)).unwrap();
        b.export(BrickId(1), ByteSize::from_gib(16)).unwrap();
        b.export(BrickId(0), ByteSize::from_gib(4)).unwrap();
        assert_eq!(b.exported(), ByteSize::from_gib(28));
        assert_eq!(b.free(), ByteSize::from_gib(4));
        assert_eq!(b.consumer_count(), 2);
        assert_eq!(b.exported_to(BrickId(0)), ByteSize::from_gib(12));
        assert_eq!(b.exported_to(BrickId(9)), ByteSize::ZERO);
        assert_eq!(b.power_state(), PowerState::Active);

        assert!(matches!(
            b.export(BrickId(2), ByteSize::from_gib(5)),
            Err(BrickError::InsufficientMemory { .. })
        ));
        assert!(matches!(
            b.reclaim(BrickId(0), ByteSize::from_gib(100)),
            Err(BrickError::ReleaseUnderflow { .. })
        ));
        assert!(matches!(
            b.reclaim(BrickId(7), ByteSize::from_gib(1)),
            Err(BrickError::ReleaseUnderflow { .. })
        ));

        b.reclaim(BrickId(0), ByteSize::from_gib(12)).unwrap();
        assert_eq!(b.consumer_count(), 1);
        b.reclaim(BrickId(1), ByteSize::from_gib(16)).unwrap();
        assert!(b.is_unused());
        assert_eq!(b.power_state(), PowerState::Idle);
    }

    #[test]
    fn power_off_requires_no_exports() {
        let mut b = MemoryBrick::new(BrickId(12), spec());
        b.export(BrickId(0), ByteSize::from_gib(1)).unwrap();
        assert!(b.power_off().is_err());
        b.reclaim(BrickId(0), ByteSize::from_gib(1)).unwrap();
        b.power_off().unwrap();
        assert_eq!(b.power_draw().as_watts(), 0.0);
        assert!(matches!(
            b.export(BrickId(0), ByteSize::from_gib(1)),
            Err(BrickError::PoweredOff { .. })
        ));
        b.power_on();
        b.export(BrickId(0), ByteSize::from_gib(1)).unwrap();
    }

    #[test]
    fn technology_properties() {
        assert_eq!(MemoryTechnology::Ddr4.to_string(), "DDR4");
        assert_eq!(MemoryTechnology::Hmc.to_string(), "HMC");
    }

    proptest! {
        #[test]
        fn exported_never_exceeds_capacity(amounts in proptest::collection::vec(0u64..40, 1..30)) {
            let mut b = MemoryBrick::new(BrickId(20), spec());
            for (i, gib) in amounts.iter().enumerate() {
                let _ = b.export(BrickId(i as u32 % 4), ByteSize::from_gib(*gib));
                prop_assert!(b.exported() <= b.capacity());
                prop_assert_eq!(b.exported() + b.free(), b.capacity());
            }
        }
    }
}
