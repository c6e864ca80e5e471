//! dCOMPUBRICK: the compute brick (Figure 3 of the paper).
//!
//! A compute brick is built around a Xilinx Zynq Ultrascale+ MPSoC: a
//! quad-core ARMv8-A (A53) Application Processing Unit for software, a
//! dual-core Cortex-R5 Real-time Processing Unit, local off-chip DDR for
//! low-latency instruction and data access, and programmable logic hosting
//! the Transaction Glue Logic (TGL), the Remote Memory Segment Table (RMST)
//! and the circuit/packet network endpoints.

use serde::{Deserialize, Serialize};

use dredbox_sim::units::{Bandwidth, ByteSize};

use crate::error::BrickError;
use crate::id::BrickId;
#[cfg(test)]
use crate::id::PortId;
use crate::ports::PortSet;
use crate::power::{PowerModel, PowerState};
#[cfg(test)]
use crate::resources::ResourceVector;

/// Static dimensioning of a compute brick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComputeBrickSpec {
    /// APU cores available for guest workloads.
    pub apu_cores: u32,
    /// Real-time (Cortex-R5) cores; used by firmware, not schedulable.
    pub rpu_cores: u32,
    /// Local off-chip DDR directly attached to the brick.
    pub local_memory: ByteSize,
    /// Number of GTH transceiver ports towards the rack interconnect.
    pub gth_ports: u8,
    /// Line rate of each GTH port.
    pub port_rate: Bandwidth,
    /// Number of Remote Memory Segment Table entries implemented in the PL.
    pub rmst_entries: usize,
    /// Per-state electrical power draw.
    pub power: PowerModel,
}

/// A dCOMPUBRICK instance with dynamic allocation state.
///
/// ```
/// use dredbox_bricks::{Catalog, BrickId};
/// use dredbox_sim::units::ByteSize;
///
/// let mut brick = Catalog::prototype().compute_brick(BrickId(0));
/// brick.allocate_cores(2)?;
/// brick.attach_remote_memory(ByteSize::from_gib(8));
/// assert_eq!(brick.free_cores(), brick.spec().apu_cores - 2);
/// # Ok::<(), dredbox_bricks::BrickError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComputeBrick {
    id: BrickId,
    spec: ComputeBrickSpec,
    ports: PortSet,
    power_state: PowerState,
    allocated_cores: u32,
    allocated_local_memory: ByteSize,
    attached_remote_memory: ByteSize,
}

impl ComputeBrick {
    /// Creates a powered-on, idle compute brick.
    pub(crate) fn new(id: BrickId, spec: ComputeBrickSpec) -> Self {
        let ports = PortSet::new(id, spec.gth_ports, spec.port_rate);
        ComputeBrick {
            id,
            spec,
            ports,
            power_state: PowerState::Idle,
            allocated_cores: 0,
            allocated_local_memory: ByteSize::ZERO,
            attached_remote_memory: ByteSize::ZERO,
        }
    }

    /// Brick identifier.
    pub fn id(&self) -> BrickId {
        self.id
    }

    /// Static dimensioning.
    pub fn spec(&self) -> &ComputeBrickSpec {
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

    /// Cores not yet allocated to any VM.
    pub fn free_cores(&self) -> u32 {
        self.spec.apu_cores - self.allocated_cores
    }

    /// Cores currently allocated.
    pub fn allocated_cores(&self) -> u32 {
        self.allocated_cores
    }

    /// Local memory not yet allocated.
    #[cfg(test)]
    pub(crate) fn free_local_memory(&self) -> ByteSize {
        self.spec.local_memory - self.allocated_local_memory
    }

    /// Remote (disaggregated) memory currently attached via the TGL.
    pub fn attached_remote_memory(&self) -> ByteSize {
        self.attached_remote_memory
    }

    /// Total memory reachable by the brick right now (local plus attached
    /// remote), the quantity exposed to the hypervisor for its guests.
    #[cfg(test)]
    pub(crate) fn reachable_memory(&self) -> ByteSize {
        self.spec.local_memory + self.attached_remote_memory
    }

    /// Capacity of the brick as a resource vector (cores + local memory).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> ResourceVector {
        ResourceVector::new(self.spec.apu_cores, self.spec.local_memory)
    }

    /// Whether the brick runs no workload and holds no remote attachments.
    pub(crate) fn is_unused(&self) -> bool {
        self.allocated_cores == 0
            && self.allocated_local_memory.is_zero()
            && self.attached_remote_memory.is_zero()
    }

    /// Allocates `cores` APU cores.
    ///
    /// # Errors
    ///
    /// Returns [`BrickError::PoweredOff`] if the brick is off, or
    /// [`BrickError::InsufficientCores`] if fewer than `cores` are free.
    pub fn allocate_cores(&mut self, cores: u32) -> Result<(), BrickError> {
        self.ensure_powered()?;
        if cores > self.free_cores() {
            return Err(BrickError::InsufficientCores {
                brick: self.id,
                requested: cores,
                available: self.free_cores(),
            });
        }
        self.allocated_cores += cores;
        self.refresh_power_state();
        Ok(())
    }

    /// Releases `cores` APU cores.
    ///
    /// # Errors
    ///
    /// Returns [`BrickError::ReleaseUnderflow`] if more cores are released
    /// than are allocated.
    pub fn release_cores(&mut self, cores: u32) -> Result<(), BrickError> {
        if cores > self.allocated_cores {
            return Err(BrickError::ReleaseUnderflow { brick: self.id });
        }
        self.allocated_cores -= cores;
        self.refresh_power_state();
        Ok(())
    }

    /// Allocates local DDR on the brick.
    ///
    /// # Errors
    ///
    /// Returns [`BrickError::PoweredOff`] if the brick is off, or
    /// [`BrickError::InsufficientMemory`] if the local DDR cannot cover the
    /// request.
    #[cfg(test)]
    pub(crate) fn allocate_local_memory(&mut self, amount: ByteSize) -> Result<(), BrickError> {
        self.ensure_powered()?;
        if amount > self.free_local_memory() {
            return Err(BrickError::InsufficientMemory {
                brick: self.id,
                requested: amount,
                available: self.free_local_memory(),
            });
        }
        self.allocated_local_memory += amount;
        self.refresh_power_state();
        Ok(())
    }

    /// Releases local DDR.
    ///
    /// # Errors
    ///
    /// Returns [`BrickError::ReleaseUnderflow`] if more is released than is
    /// allocated.
    #[cfg(test)]
    pub(crate) fn release_local_memory(&mut self, amount: ByteSize) -> Result<(), BrickError> {
        if amount > self.allocated_local_memory {
            return Err(BrickError::ReleaseUnderflow { brick: self.id });
        }
        self.allocated_local_memory -= amount;
        self.refresh_power_state();
        Ok(())
    }

    /// Records that `amount` of remote memory has been attached through the
    /// glue logic (the actual segment bookkeeping lives in the memory crate).
    pub fn attach_remote_memory(&mut self, amount: ByteSize) {
        self.attached_remote_memory += amount;
        self.refresh_power_state();
    }

    /// Records that `amount` of remote memory has been detached.
    ///
    /// # Errors
    ///
    /// Returns [`BrickError::ReleaseUnderflow`] if more is detached than is
    /// attached.
    pub fn detach_remote_memory(&mut self, amount: ByteSize) -> Result<(), BrickError> {
        if amount > self.attached_remote_memory {
            return Err(BrickError::ReleaseUnderflow { brick: self.id });
        }
        self.attached_remote_memory -= amount;
        self.refresh_power_state();
        Ok(())
    }

    /// First free GTH port, if any.
    #[cfg(test)]
    pub(crate) fn first_free_port(&self) -> Option<PortId> {
        self.ports.first_free()
    }

    /// Powers the brick off.
    ///
    /// # Errors
    ///
    /// Returns [`BrickError::ReleaseUnderflow`] if the brick still has
    /// allocations; an orchestrator must drain it first.
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

    fn ensure_powered(&self) -> Result<(), BrickError> {
        if self.power_state == PowerState::Off {
            Err(BrickError::PoweredOff { brick: self.id })
        } else {
            Ok(())
        }
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
dredbox_snap::snap_struct!(ComputeBrickSpec {
    apu_cores,
    rpu_cores,
    local_memory,
    gth_ports,
    port_rate,
    rmst_entries,
    power,
});
dredbox_snap::snap_struct!(ComputeBrick {
    id,
    spec,
    ports,
    power_state,
    allocated_cores,
    allocated_local_memory,
    attached_remote_memory,
});

#[cfg(test)]
mod tests {
    use super::*;
    use dredbox_sim::units::Watts;
    use proptest::prelude::*;

    fn spec() -> ComputeBrickSpec {
        ComputeBrickSpec {
            apu_cores: 4,
            rpu_cores: 2,
            local_memory: ByteSize::from_gib(4),
            gth_ports: 8,
            port_rate: Bandwidth::from_gbps(10.0),
            rmst_entries: 64,
            power: PowerModel::new(Watts::ZERO, Watts::new(15.0), Watts::new(35.0)),
        }
    }

    #[test]
    fn fresh_brick_is_idle_and_unused() {
        let b = ComputeBrick::new(BrickId(1), spec());
        assert!(b.is_unused());
        assert_eq!(b.power_state(), PowerState::Idle);
        assert_eq!(b.free_cores(), 4);
        assert_eq!(b.free_local_memory(), ByteSize::from_gib(4));
        assert_eq!(b.reachable_memory(), ByteSize::from_gib(4));
        assert_eq!(b.capacity(), ResourceVector::new(4, ByteSize::from_gib(4)));
        assert_eq!(b.ports().len(), 8);
        assert_eq!(b.power_draw().as_watts(), 15.0);
    }

    #[test]
    fn core_allocation_lifecycle() {
        let mut b = ComputeBrick::new(BrickId(1), spec());
        b.allocate_cores(3).unwrap();
        assert_eq!(b.allocated_cores(), 3);
        assert_eq!(b.free_cores(), 1);
        assert_eq!(b.power_state(), PowerState::Active);
        assert_eq!(b.power_draw().as_watts(), 35.0);
        assert!(matches!(
            b.allocate_cores(2),
            Err(BrickError::InsufficientCores { available: 1, .. })
        ));
        b.release_cores(3).unwrap();
        assert_eq!(b.power_state(), PowerState::Idle);
        assert!(matches!(
            b.release_cores(1),
            Err(BrickError::ReleaseUnderflow { .. })
        ));
    }

    #[test]
    fn local_memory_allocation() {
        let mut b = ComputeBrick::new(BrickId(2), spec());
        b.allocate_local_memory(ByteSize::from_gib(3)).unwrap();
        assert_eq!(b.free_local_memory(), ByteSize::from_gib(1));
        assert!(matches!(
            b.allocate_local_memory(ByteSize::from_gib(2)),
            Err(BrickError::InsufficientMemory { .. })
        ));
        b.release_local_memory(ByteSize::from_gib(3)).unwrap();
        assert!(b.is_unused());
        assert!(matches!(
            b.release_local_memory(ByteSize::from_gib(1)),
            Err(BrickError::ReleaseUnderflow { .. })
        ));
    }

    #[test]
    fn remote_memory_attachment_expands_reachable_memory() {
        let mut b = ComputeBrick::new(BrickId(3), spec());
        b.attach_remote_memory(ByteSize::from_gib(16));
        assert_eq!(b.attached_remote_memory(), ByteSize::from_gib(16));
        assert_eq!(b.reachable_memory(), ByteSize::from_gib(20));
        assert_eq!(b.power_state(), PowerState::Active);
        b.detach_remote_memory(ByteSize::from_gib(16)).unwrap();
        assert!(b.is_unused());
        assert!(matches!(
            b.detach_remote_memory(ByteSize::from_gib(1)),
            Err(BrickError::ReleaseUnderflow { .. })
        ));
    }

    #[test]
    fn power_off_requires_drained_brick() {
        let mut b = ComputeBrick::new(BrickId(4), spec());
        b.allocate_cores(1).unwrap();
        assert!(b.power_off().is_err());
        b.release_cores(1).unwrap();
        b.power_off().unwrap();
        assert_eq!(b.power_state(), PowerState::Off);
        assert_eq!(b.power_draw().as_watts(), 0.0);
        assert!(matches!(
            b.allocate_cores(1),
            Err(BrickError::PoweredOff { .. })
        ));
        b.power_on();
        assert_eq!(b.power_state(), PowerState::Idle);
        b.allocate_cores(1).unwrap();
    }

    #[test]
    fn first_free_port_advances_as_ports_attach() {
        let mut b = ComputeBrick::new(BrickId(5), spec());
        let p0 = b.first_free_port().unwrap();
        assert_eq!(p0.index, 0);
        b.ports_mut()
            .port_mut(0)
            .unwrap()
            .attach_circuit(1)
            .unwrap();
        assert_eq!(b.first_free_port().unwrap().index, 1);
    }

    proptest! {
        #[test]
        fn allocation_never_exceeds_capacity(ops in proptest::collection::vec((0u32..6, proptest::bool::ANY), 1..50)) {
            let mut b = ComputeBrick::new(BrickId(9), spec());
            for (n, alloc) in ops {
                if alloc {
                    let _ = b.allocate_cores(n);
                } else {
                    let _ = b.release_cores(n);
                }
                prop_assert!(b.allocated_cores() <= b.spec().apu_cores);
                prop_assert_eq!(b.allocated_cores() + b.free_cores(), b.spec().apu_cores);
            }
        }
    }
}
