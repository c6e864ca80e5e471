//! Virtual machines hosted on dCOMPUBRICKs.

use serde::{Deserialize, Serialize};

use dredbox_memory::BalloonDevice;
use dredbox_sim::units::ByteSize;

/// Identifier of a virtual machine.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct VmId(pub u64);

impl std::fmt::Display for VmId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vm{}", self.0)
    }
}

/// Resources requested for a VM at creation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VmSpec {
    /// Number of virtual CPUs.
    pub vcpus: u32,
    /// Initial guest memory.
    pub memory: ByteSize,
}

impl VmSpec {
    /// Creates a spec.
    pub fn new(vcpus: u32, memory: ByteSize) -> Self {
        VmSpec { vcpus, memory }
    }
}

impl std::fmt::Display for VmSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} vcpus + {}", self.vcpus, self.memory)
    }
}

/// Lifecycle state of a VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum VmState {
    /// Being provisioned (image copy, boot).
    Provisioning,
    /// Running and able to accept scale-up requests.
    Running,
    /// Shut down; its resources have been released.
    Terminated,
}

/// A virtual machine instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Vm {
    id: VmId,
    spec: VmSpec,
    state: VmState,
    current_memory: ByteSize,
    balloon: BalloonDevice,
    scale_ups: u32,
    offloads: u32,
}

impl Vm {
    /// Creates a VM in the `Provisioning` state.
    pub(crate) fn new(id: VmId, spec: VmSpec) -> Self {
        Vm {
            id,
            spec,
            state: VmState::Provisioning,
            current_memory: spec.memory,
            balloon: BalloonDevice::new(spec.memory),
            scale_ups: 0,
            offloads: 0,
        }
    }

    /// VM identifier.
    #[cfg(test)]
    pub(crate) fn id(&self) -> VmId {
        self.id
    }

    /// The creation-time spec.
    pub(crate) fn spec(&self) -> VmSpec {
        self.spec
    }

    /// Memory currently assigned to the guest (initial plus hot-added).
    pub fn current_memory(&self) -> ByteSize {
        self.current_memory
    }

    /// Mutable access to the balloon device.
    #[cfg(test)]
    pub(crate) fn balloon_mut(&mut self) -> &mut BalloonDevice {
        &mut self.balloon
    }

    /// Number of scale-up operations this VM has received.
    pub fn scale_up_count(&self) -> u32 {
        self.scale_ups
    }

    /// Number of near-data offload requests this VM has issued.
    pub(crate) fn offload_count(&self) -> u32 {
        self.offloads
    }

    /// Records one issued offload request.
    pub(crate) fn record_offload(&mut self) {
        self.offloads += 1;
    }

    /// Re-numbers the VM under a new hypervisor's id space (migration
    /// adoption); the guest itself is untouched.
    pub(crate) fn renumber(&mut self, id: VmId) {
        self.id = id;
    }

    /// Marks the VM running (boot finished).
    pub(crate) fn mark_running(&mut self) {
        self.state = VmState::Running;
    }

    /// Marks the VM terminated.
    #[cfg(test)]
    pub(crate) fn mark_terminated(&mut self) {
        self.state = VmState::Terminated;
    }

    /// Whether the VM is running.
    pub fn is_running(&self) -> bool {
        self.state == VmState::Running
    }

    /// Records a hot-added DIMM of `amount` bytes.
    pub(crate) fn grow_memory(&mut self, amount: ByteSize) {
        self.current_memory += amount;
        self.balloon.grow_guest_memory(amount);
        self.scale_ups += 1;
    }

    /// Records a hot-removed amount of memory.
    pub(crate) fn shrink_memory(&mut self, amount: ByteSize) {
        self.current_memory = self.current_memory.saturating_sub(amount);
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_newtype!(VmId(u64));
dredbox_snap::snap_struct!(VmSpec { vcpus, memory });
dredbox_snap::snap_unit_enum!(VmState {
    Provisioning = 0,
    Running = 1,
    Terminated = 2,
});
dredbox_snap::snap_struct!(Vm {
    id,
    spec,
    state,
    current_memory,
    balloon,
    scale_ups,
    offloads,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_and_display() {
        let spec = VmSpec::new(4, ByteSize::from_gib(8));
        assert_eq!(spec.to_string(), "4 vcpus + 8.00 GiB");
        let mut vm = Vm::new(VmId(7), spec);
        assert_eq!(vm.id().to_string(), "vm7");
        assert_eq!(vm.state, VmState::Provisioning);
        assert!(!vm.is_running());
        vm.mark_running();
        assert!(vm.is_running());
        vm.mark_terminated();
        assert_eq!(vm.state, VmState::Terminated);
    }

    #[test]
    fn memory_growth_tracks_balloon_and_counter() {
        let mut vm = Vm::new(VmId(1), VmSpec::new(2, ByteSize::from_gib(4)));
        assert_eq!(vm.current_memory(), ByteSize::from_gib(4));
        assert_eq!(vm.scale_up_count(), 0);
        vm.grow_memory(ByteSize::from_gib(8));
        assert_eq!(vm.current_memory(), ByteSize::from_gib(12));
        assert_eq!(vm.balloon.guest_memory(), ByteSize::from_gib(12));
        assert_eq!(vm.scale_up_count(), 1);
        vm.shrink_memory(ByteSize::from_gib(2));
        assert_eq!(vm.current_memory(), ByteSize::from_gib(10));
        vm.balloon_mut().inflate(ByteSize::from_gib(1)).unwrap();
        assert_eq!(vm.balloon.inflated(), ByteSize::from_gib(1));
    }
}
