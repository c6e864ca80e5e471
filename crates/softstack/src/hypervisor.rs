//! The virtualization layer: a Type-1 hypervisor with memory hotplug.
//!
//! Section IV-B: the QEMU hypervisor gains a memory-hotplug support scheme
//! that adds new RAM DIMMs at runtime and makes them available to the guest
//! OS, which then onlines them with the baremetal hotplug path. Scale-up
//! support lets applications inside a VM request the expansion of available
//! system memory.

use serde::{Deserialize, Serialize};

use dredbox_bricks::BrickId;
use dredbox_memory::HotplugModel;
use dredbox_sim::arena::{SlotArena, SlotKey};
use dredbox_sim::time::SimDuration;
use dredbox_sim::units::ByteSize;

use crate::baremetal::BaremetalOs;
use crate::error::SoftstackError;
use crate::vm::{Vm, VmId, VmSpec};

/// The hypervisor instance running on one dCOMPUBRICK.
///
/// ```
/// use dredbox_softstack::*;
/// use dredbox_bricks::BrickId;
/// use dredbox_memory::HotplugModel;
/// use dredbox_sim::units::ByteSize;
///
/// let os = BaremetalOs::new(BrickId(0), ByteSize::from_gib(4), HotplugModel::dredbox_default());
/// let mut hv = Hypervisor::new(os, 4);
/// let (vm, boot) = hv.create_vm(VmSpec::new(2, ByteSize::from_gib(2)))?;
/// assert!(boot.as_secs_f64() > 0.0);
/// assert!(hv.vm(vm).unwrap().is_running());
/// # Ok::<(), dredbox_softstack::SoftstackError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hypervisor {
    os: BaremetalOs,
    total_cores: u32,
    allocated_cores: u32,
    /// Sum of every live VM's current memory, maintained incrementally so
    /// the admission checks on [`Hypervisor::free_memory`] stop re-summing
    /// the arena — under packing placement one brick hosts many VMs, and
    /// that sum sat on the scenario engine's per-event hot path.
    committed_memory: ByteSize,
    /// Live VMs interned in a generational slab arena: a [`VmId`] is the
    /// packed slot key, so lookups are a bounds check plus a generation
    /// compare, destroyed ids keep missing even after their slot is
    /// recycled, and admit/destroy churn stops allocating map nodes.
    vms: SlotArena<Vm>,
    /// Fixed QEMU `device_add pc-dimm` + ACPI/DT notification cost per DIMM.
    dimm_attach_overhead: SimDuration,
    /// Local boot time of a minimal guest image on the brick.
    guest_boot_time: SimDuration,
}

/// The arena key a [`VmId`] packs.
fn vm_key(vm: VmId) -> SlotKey {
    SlotKey::from_u64(vm.0)
}

impl Hypervisor {
    /// Creates a hypervisor over the given baremetal OS and core count.
    pub fn new(os: BaremetalOs, total_cores: u32) -> Self {
        Hypervisor {
            os,
            total_cores,
            allocated_cores: 0,
            committed_memory: ByteSize::ZERO,
            vms: SlotArena::new(),
            dimm_attach_overhead: SimDuration::from_millis(60),
            guest_boot_time: SimDuration::from_secs(8),
        }
    }

    /// The brick this hypervisor runs on.
    pub(crate) fn brick(&self) -> BrickId {
        self.os.brick()
    }

    /// The underlying baremetal OS.
    pub fn os(&self) -> &BaremetalOs {
        &self.os
    }

    /// Mutable access to the baremetal OS (used by the SDM agent when it
    /// attaches remote memory below the hypervisor).
    pub fn os_mut(&mut self) -> &mut BaremetalOs {
        &mut self.os
    }

    /// Total schedulable cores.
    pub fn total_cores(&self) -> u32 {
        self.total_cores
    }

    /// Cores not yet given to VMs.
    pub fn free_cores(&self) -> u32 {
        self.total_cores - self.allocated_cores
    }

    /// Memory visible to the hypervisor but not yet given to any VM.
    pub(crate) fn free_memory(&self) -> ByteSize {
        self.os.total_memory().saturating_sub(self.committed_memory)
    }

    /// Number of live VMs. Destroyed VMs are removed from the hypervisor's
    /// tables entirely, so every VM in the arena counts.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// Looks up a VM.
    pub fn vm(&self, id: VmId) -> Option<&Vm> {
        self.vms.get(vm_key(id))
    }

    /// Iterates over all VMs.
    #[cfg(test)]
    pub(crate) fn vms(&self) -> impl Iterator<Item = &Vm> {
        self.vms.values()
    }

    /// Creates and boots a VM, returning its id and the provisioning time.
    ///
    /// # Errors
    ///
    /// * [`SoftstackError::InsufficientCores`] if the brick lacks vCPUs.
    /// * [`SoftstackError::InsufficientMemory`] if the brick lacks memory
    ///   (local plus currently attached remote).
    pub fn create_vm(&mut self, spec: VmSpec) -> Result<(VmId, SimDuration), SoftstackError> {
        if spec.vcpus > self.free_cores() {
            return Err(SoftstackError::InsufficientCores {
                brick: self.brick(),
                requested: spec.vcpus,
                available: self.free_cores(),
            });
        }
        if spec.memory > self.free_memory() {
            return Err(SoftstackError::InsufficientMemory {
                brick: self.brick(),
                requested: spec.memory,
                available: self.free_memory(),
            });
        }
        let key = self.vms.insert_with(|key| {
            let mut vm = Vm::new(VmId(key.to_u64()), spec);
            vm.mark_running();
            vm
        });
        self.allocated_cores += spec.vcpus;
        self.committed_memory += spec.memory;
        Ok((VmId(key.to_u64()), self.guest_boot_time))
    }

    /// Hot-adds a RAM DIMM of `amount` to a running VM, returning the time
    /// it takes (QEMU device_add plus the guest kernel onlining the blocks).
    ///
    /// The memory must already be visible to the hypervisor — i.e. the
    /// baremetal OS must have onlined the corresponding remote attachment
    /// first.
    ///
    /// # Errors
    ///
    /// * [`SoftstackError::NoSuchVm`] / [`SoftstackError::VmNotRunning`].
    /// * [`SoftstackError::InsufficientMemory`] if the hypervisor has not
    ///   been given that much spare memory.
    pub(crate) fn hot_add_dimm(
        &mut self,
        vm: VmId,
        amount: ByteSize,
    ) -> Result<SimDuration, SoftstackError> {
        if amount > self.free_memory() {
            return Err(SoftstackError::InsufficientMemory {
                brick: self.brick(),
                requested: amount,
                available: self.free_memory(),
            });
        }
        let guest_hotplug: HotplugModel = *self.os.hotplug_model();
        let vm_ref = self
            .vms
            .get_mut(vm_key(vm))
            .ok_or(SoftstackError::NoSuchVm { vm })?;
        if !vm_ref.is_running() {
            return Err(SoftstackError::VmNotRunning { vm });
        }
        vm_ref.grow_memory(amount);
        self.committed_memory += amount;
        // QEMU device_add + guest kernel onlining of the new blocks.
        Ok(self.dimm_attach_overhead + guest_hotplug.online_time(amount))
    }

    /// Hot-removes `amount` of memory from a running VM (balloon-assisted),
    /// returning the time it takes.
    ///
    /// # Errors
    ///
    /// * [`SoftstackError::NoSuchVm`] / [`SoftstackError::VmNotRunning`].
    /// * [`SoftstackError::DetachUnderflow`] if the VM does not hold that
    ///   much hot-added memory.
    pub(crate) fn hot_remove(
        &mut self,
        vm: VmId,
        amount: ByteSize,
    ) -> Result<SimDuration, SoftstackError> {
        let guest_hotplug: HotplugModel = *self.os.hotplug_model();
        let vm_ref = self
            .vms
            .get_mut(vm_key(vm))
            .ok_or(SoftstackError::NoSuchVm { vm })?;
        if !vm_ref.is_running() {
            return Err(SoftstackError::VmNotRunning { vm });
        }
        if amount > vm_ref.current_memory() {
            return Err(SoftstackError::DetachUnderflow { vm });
        }
        vm_ref.shrink_memory(amount);
        self.committed_memory = self.committed_memory.saturating_sub(amount);
        Ok(self.dimm_attach_overhead + guest_hotplug.offline_time(amount))
    }

    /// Records that a running VM issued a near-data offload request (the
    /// dACCELBRICK demand the SDM controller turns into a session),
    /// returning the VM's updated offload count.
    ///
    /// # Errors
    ///
    /// * [`SoftstackError::NoSuchVm`] / [`SoftstackError::VmNotRunning`].
    pub fn issue_offload(&mut self, vm: VmId) -> Result<u32, SoftstackError> {
        let vm_ref = self
            .vms
            .get_mut(vm_key(vm))
            .ok_or(SoftstackError::NoSuchVm { vm })?;
        if !vm_ref.is_running() {
            return Err(SoftstackError::VmNotRunning { vm });
        }
        vm_ref.record_offload();
        Ok(vm_ref.offload_count())
    }

    /// Removes a live VM from this hypervisor without terminating it — the
    /// source half of a migration. The VM keeps its state and memory
    /// footprint; its cores return to this brick. The caller is expected to
    /// [`Hypervisor::adopt_vm`] it elsewhere.
    ///
    /// # Errors
    ///
    /// Returns [`SoftstackError::NoSuchVm`] for unknown VMs.
    pub fn evict_vm(&mut self, vm: VmId) -> Result<Vm, SoftstackError> {
        let vm_ref = self
            .vms
            .remove(vm_key(vm))
            .ok_or(SoftstackError::NoSuchVm { vm })?;
        self.allocated_cores -= vm_ref.spec().vcpus;
        self.committed_memory = self
            .committed_memory
            .saturating_sub(vm_ref.current_memory());
        Ok(vm_ref)
    }

    /// Adopts a VM evicted from another hypervisor — the destination half
    /// of a migration. The VM is re-numbered into this hypervisor's id
    /// space and keeps running; its current (possibly scaled-up) memory
    /// must already be visible to this brick (the SDM agent re-attaches the
    /// remote segments before the switchover).
    ///
    /// # Errors
    ///
    /// * [`SoftstackError::InsufficientCores`] if this brick lacks vCPUs.
    /// * [`SoftstackError::InsufficientMemory`] if the brick lacks memory
    ///   for the VM's current footprint. On failure the VM is dropped, so
    ///   callers must validate capacity (or clone) before evicting from the
    ///   source.
    pub fn adopt_vm(&mut self, mut vm: Vm) -> Result<VmId, SoftstackError> {
        let vcpus = vm.spec().vcpus;
        if vcpus > self.free_cores() {
            return Err(SoftstackError::InsufficientCores {
                brick: self.brick(),
                requested: vcpus,
                available: self.free_cores(),
            });
        }
        if vm.current_memory() > self.free_memory() {
            return Err(SoftstackError::InsufficientMemory {
                brick: self.brick(),
                requested: vm.current_memory(),
                available: self.free_memory(),
            });
        }
        let adopted_memory = vm.current_memory();
        let key = self.vms.insert_with(|key| {
            vm.renumber(VmId(key.to_u64()));
            vm
        });
        self.allocated_cores += vcpus;
        self.committed_memory += adopted_memory;
        Ok(VmId(key.to_u64()))
    }

    /// Terminates a VM, releasing its cores and memory and dropping it from
    /// the hypervisor's tables — long create/destroy churn must not grow
    /// them without bound.
    ///
    /// # Errors
    ///
    /// Returns [`SoftstackError::NoSuchVm`] for unknown VMs.
    pub fn destroy_vm(&mut self, vm: VmId) -> Result<(), SoftstackError> {
        let vm_ref = self
            .vms
            .remove(vm_key(vm))
            .ok_or(SoftstackError::NoSuchVm { vm })?;
        // Every VM in the map holds its spec'd cores (create_vm marks it
        // running on insert), so the release is unconditional.
        self.allocated_cores -= vm_ref.spec().vcpus;
        self.committed_memory = self
            .committed_memory
            .saturating_sub(vm_ref.current_memory());
        Ok(())
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_struct!(Hypervisor {
    os,
    total_cores,
    allocated_cores,
    committed_memory,
    vms,
    dimm_attach_overhead,
    guest_boot_time,
});

#[cfg(test)]
mod tests {
    use super::*;
    use dredbox_memory::HotplugModel;

    fn hypervisor() -> Hypervisor {
        let os = BaremetalOs::new(
            BrickId(0),
            ByteSize::from_gib(4),
            HotplugModel::dredbox_default(),
        );
        Hypervisor::new(os, 4)
    }

    #[test]
    fn create_and_destroy_vms() {
        let mut hv = hypervisor();
        assert_eq!(hv.brick(), BrickId(0));
        assert_eq!(hv.free_cores(), 4);
        let (vm, boot) = hv.create_vm(VmSpec::new(2, ByteSize::from_gib(2))).unwrap();
        assert_eq!(boot, hv.guest_boot_time);
        assert_eq!(hv.vm_count(), 1);
        assert_eq!(hv.free_cores(), 2);
        assert_eq!(hv.free_memory(), ByteSize::from_gib(2));
        assert_eq!(hv.vms().count(), 1);

        // Too many cores.
        assert!(matches!(
            hv.create_vm(VmSpec::new(8, ByteSize::from_gib(1))),
            Err(SoftstackError::InsufficientCores { .. })
        ));
        // Too much memory.
        assert!(matches!(
            hv.create_vm(VmSpec::new(1, ByteSize::from_gib(8))),
            Err(SoftstackError::InsufficientMemory { .. })
        ));

        hv.destroy_vm(vm).unwrap();
        assert_eq!(hv.vm_count(), 0);
        assert_eq!(hv.free_cores(), 4);
        // Terminated VMs must give their memory back: repeated
        // create/destroy cycles cannot shrink the free pool.
        assert_eq!(hv.free_memory(), ByteSize::from_gib(4));
        for _ in 0..3 {
            let (vm, _) = hv.create_vm(VmSpec::new(2, ByteSize::from_gib(3))).unwrap();
            hv.destroy_vm(vm).unwrap();
        }
        assert_eq!(hv.free_memory(), ByteSize::from_gib(4));
        assert!(matches!(
            hv.destroy_vm(VmId(99)),
            Err(SoftstackError::NoSuchVm { .. })
        ));
    }

    #[test]
    fn evict_and_adopt_move_a_running_vm() {
        let mut src = hypervisor();
        let mut dst = hypervisor();
        let (vm, _) = src
            .create_vm(VmSpec::new(2, ByteSize::from_gib(2)))
            .unwrap();
        src.os_mut().online_remote(ByteSize::from_gib(4));
        src.hot_add_dimm(vm, ByteSize::from_gib(4)).unwrap();

        let evicted = src.evict_vm(vm).unwrap();
        assert_eq!(src.vm_count(), 0);
        assert_eq!(src.free_cores(), 4);
        assert_eq!(evicted.current_memory(), ByteSize::from_gib(6));
        assert!(matches!(
            src.evict_vm(vm),
            Err(SoftstackError::NoSuchVm { .. })
        ));

        // The destination must see the VM's memory before the switchover —
        // 6 GiB against 4 GiB of local memory needs the remote attach first.
        assert!(matches!(
            dst.adopt_vm(evicted.clone()),
            Err(SoftstackError::InsufficientMemory { .. })
        ));
        dst.os_mut().online_remote(ByteSize::from_gib(6));
        let new_id = dst.adopt_vm(evicted).unwrap();
        assert_eq!(dst.vm_count(), 1);
        assert_eq!(dst.free_cores(), 2);
        let adopted = dst.vm(new_id).unwrap();
        assert!(adopted.is_running());
        assert_eq!(adopted.id(), new_id);
        assert_eq!(adopted.current_memory(), ByteSize::from_gib(6));

        // A full destination rejects the cores.
        let mut full = hypervisor();
        full.create_vm(VmSpec::new(4, ByteSize::from_gib(1)))
            .unwrap();
        let straggler = dst.evict_vm(new_id).unwrap();
        assert!(matches!(
            full.adopt_vm(straggler),
            Err(SoftstackError::InsufficientCores { .. })
        ));
    }

    #[test]
    fn scale_up_requires_attached_remote_memory() {
        let mut hv = hypervisor();
        let (vm, _) = hv.create_vm(VmSpec::new(1, ByteSize::from_gib(3))).unwrap();
        // Only 1 GiB of local headroom left; an 8 GiB DIMM needs remote attach first.
        assert!(matches!(
            hv.hot_add_dimm(vm, ByteSize::from_gib(8)),
            Err(SoftstackError::InsufficientMemory { .. })
        ));
        // Baremetal OS onlines 16 GiB of remote memory (the SDM agent's job).
        hv.os_mut().online_remote(ByteSize::from_gib(16));
        let t = hv.hot_add_dimm(vm, ByteSize::from_gib(8)).unwrap();
        assert!(
            t.as_millis_f64() > 100.0 && t.as_secs_f64() < 2.0,
            "dimm add took {t}"
        );
        assert_eq!(hv.vm(vm).unwrap().current_memory(), ByteSize::from_gib(11));
        assert_eq!(hv.vm(vm).unwrap().scale_up_count(), 1);
    }

    #[test]
    fn offload_requests_are_counted_per_running_vm() {
        let mut hv = hypervisor();
        let (vm, _) = hv.create_vm(VmSpec::new(1, ByteSize::from_gib(1))).unwrap();
        assert_eq!(hv.vm(vm).unwrap().offload_count(), 0);
        assert_eq!(hv.issue_offload(vm).unwrap(), 1);
        assert_eq!(hv.issue_offload(vm).unwrap(), 2);
        assert_eq!(hv.vm(vm).unwrap().offload_count(), 2);
        assert!(matches!(
            hv.issue_offload(VmId(99)),
            Err(SoftstackError::NoSuchVm { .. })
        ));
        hv.destroy_vm(vm).unwrap();
        assert!(matches!(
            hv.issue_offload(vm),
            Err(SoftstackError::NoSuchVm { .. })
        ));
    }

    #[test]
    fn hot_remove_and_errors() {
        let mut hv = hypervisor();
        let (vm, _) = hv.create_vm(VmSpec::new(1, ByteSize::from_gib(2))).unwrap();
        hv.os_mut().online_remote(ByteSize::from_gib(8));
        hv.hot_add_dimm(vm, ByteSize::from_gib(4)).unwrap();
        let t = hv.hot_remove(vm, ByteSize::from_gib(2)).unwrap();
        assert!(t.as_millis_f64() > 0.0);
        assert_eq!(hv.vm(vm).unwrap().current_memory(), ByteSize::from_gib(4));
        assert!(matches!(
            hv.hot_remove(vm, ByteSize::from_gib(100)),
            Err(SoftstackError::DetachUnderflow { .. })
        ));
        assert!(matches!(
            hv.hot_add_dimm(VmId(50), ByteSize::from_gib(1)),
            Err(SoftstackError::NoSuchVm { .. })
        ));
        hv.destroy_vm(vm).unwrap();
        assert!(matches!(
            hv.hot_add_dimm(vm, ByteSize::from_gib(1)),
            Err(SoftstackError::NoSuchVm { .. })
        ));
        assert!(matches!(
            hv.hot_remove(vm, ByteSize::from_gib(1)),
            Err(SoftstackError::NoSuchVm { .. })
        ));
    }
}
