//! The Scale-up API and its delay components.
//!
//! Section IV: "An appropriately designed Scale-up API triggers the memory
//! attachment process. The application notifies the Scaleup controller which
//! in turn relays the request to the Software Defined Memory (SDM) Controller
//! that manages the remote memory resources. Subsequently, the destination
//! dCOMPUBRICK h/w glue logic is configured and the baremetal OS attaches
//! remote memory and makes it available. Then control is handed back to the
//! Scale-up controller which configures the hypervisor to dynamically expand
//! the physical memory that it provides to the hosted VM."
//!
//! The [`ScaleUpController`] models the compute-brick-local half of that
//! flow; the SDM-controller half (resource selection, reservation, circuit
//! programming) lives in the orchestrator crate, which composes the two into
//! the Figure 10 experiment.

use serde::{Deserialize, Serialize};

use dredbox_sim::time::SimDuration;
use dredbox_sim::units::ByteSize;

use crate::error::SoftstackError;
use crate::hypervisor::Hypervisor;
use crate::vm::VmId;

/// Fixed control-plane latencies of the scale-up flow on the compute brick.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScaleUpTimings {
    /// Application → Scale-up controller notification (in-VM RPC).
    pub app_to_controller: SimDuration,
    /// Scale-up controller → SDM controller request relay (rack network RPC).
    pub controller_to_sdm: SimDuration,
    /// Scale-up controller reconfiguring the hypervisor after the SDM
    /// controller hands control back.
    pub hypervisor_reconfig: SimDuration,
}

impl ScaleUpTimings {
    /// Defaults for the prototype's management network (sub-millisecond
    /// RPCs, a few milliseconds to drive QEMU's QMP interface).
    pub fn dredbox_default() -> Self {
        ScaleUpTimings {
            app_to_controller: SimDuration::from_micros(300),
            controller_to_sdm: SimDuration::from_micros(800),
            hypervisor_reconfig: SimDuration::from_millis(5),
        }
    }

    /// Total fixed control-plane overhead (excluding the SDM controller's
    /// own processing and the hotplug work).
    pub(crate) fn fixed_overhead(&self) -> SimDuration {
        self.app_to_controller + self.controller_to_sdm + self.hypervisor_reconfig
    }
}

impl Default for ScaleUpTimings {
    fn default() -> Self {
        ScaleUpTimings::dredbox_default()
    }
}

/// Outcome of one completed scale-up on the compute brick side.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScaleUpOutcome {
    /// The VM that was grown.
    pub vm: VmId,
    /// The amount of memory added.
    pub amount: ByteSize,
    /// Time spent in the baremetal OS onlining the remote attachment.
    pub baremetal_online: SimDuration,
    /// Time spent hot-adding the DIMM to the guest (QEMU + guest kernel).
    pub guest_hotplug: SimDuration,
    /// Fixed control-plane overhead on the brick.
    pub control_overhead: SimDuration,
}

impl ScaleUpOutcome {
    /// Total brick-local latency of the scale-up.
    pub fn total(&self) -> SimDuration {
        self.baremetal_online + self.guest_hotplug + self.control_overhead
    }
}

/// The per-brick Scale-up controller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleUpController {
    timings: ScaleUpTimings,
}

impl ScaleUpController {
    /// Creates a controller with the given fixed timings.
    pub fn new(timings: ScaleUpTimings) -> Self {
        ScaleUpController { timings }
    }

    /// Executes the compute-brick half of a scale-up: online the newly
    /// attached remote memory in the baremetal OS, then hot-add a DIMM of
    /// the same size to the target VM.
    ///
    /// The caller (the SDM controller in the orchestrator crate) is
    /// responsible for having attached the physical memory first; this
    /// method only accounts the brick-local work and latencies.
    ///
    /// # Errors
    ///
    /// Propagates hypervisor errors (unknown VM, not running, insufficient
    /// attached memory).
    pub fn apply_grant(
        &self,
        hypervisor: &mut Hypervisor,
        vm: VmId,
        amount: ByteSize,
    ) -> Result<ScaleUpOutcome, SoftstackError> {
        let baremetal_online = hypervisor.os_mut().online_remote(amount);
        let guest_hotplug = match hypervisor.hot_add_dimm(vm, amount) {
            Ok(d) => d,
            Err(e) => {
                // Roll the baremetal attach back so accounting stays
                // consistent when the guest-side hotplug is refused.
                let _ = hypervisor.os_mut().offline_remote(amount);
                return Err(e);
            }
        };
        Ok(ScaleUpOutcome {
            vm,
            amount,
            baremetal_online,
            guest_hotplug,
            control_overhead: self.timings.fixed_overhead(),
        })
    }

    /// Executes a scale-down: hot-remove from the guest, then offline the
    /// remote attachment in the baremetal OS.
    ///
    /// # Errors
    ///
    /// Propagates hypervisor and baremetal errors.
    pub fn apply_reclaim(
        &self,
        hypervisor: &mut Hypervisor,
        vm: VmId,
        amount: ByteSize,
    ) -> Result<ScaleUpOutcome, SoftstackError> {
        let guest_hotplug = hypervisor.hot_remove(vm, amount)?;
        let baremetal_online = hypervisor.os_mut().offline_remote(amount)?;
        Ok(ScaleUpOutcome {
            vm,
            amount,
            baremetal_online,
            guest_hotplug,
            control_overhead: self.timings.fixed_overhead(),
        })
    }
}

impl Default for ScaleUpController {
    fn default() -> Self {
        ScaleUpController::new(ScaleUpTimings::dredbox_default())
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_struct!(ScaleUpTimings {
    app_to_controller,
    controller_to_sdm,
    hypervisor_reconfig,
});
dredbox_snap::snap_struct!(ScaleUpController { timings });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baremetal::BaremetalOs;
    use crate::vm::VmSpec;
    use dredbox_bricks::BrickId;
    use dredbox_memory::HotplugModel;

    fn setup() -> (Hypervisor, VmId) {
        let os = BaremetalOs::new(
            BrickId(0),
            ByteSize::from_gib(4),
            HotplugModel::dredbox_default(),
        );
        let mut hv = Hypervisor::new(os, 4);
        let (vm, _) = hv.create_vm(VmSpec::new(2, ByteSize::from_gib(2))).unwrap();
        (hv, vm)
    }

    #[test]
    fn grant_flows_through_both_hotplug_layers() {
        let (mut hv, vm) = setup();
        let controller = ScaleUpController::default();
        let outcome = controller
            .apply_grant(&mut hv, vm, ByteSize::from_gib(8))
            .unwrap();
        assert_eq!(outcome.vm, vm);
        assert_eq!(outcome.amount, ByteSize::from_gib(8));
        assert!(outcome.baremetal_online.as_millis_f64() > 0.0);
        assert!(outcome.guest_hotplug.as_millis_f64() > 0.0);
        assert_eq!(
            outcome.control_overhead,
            ScaleUpTimings::dredbox_default().fixed_overhead()
        );
        // Scale-up completes within about a second on the brick — the key
        // property behind Figure 10.
        assert!(
            outcome.total().as_secs_f64() < 1.5,
            "total was {}",
            outcome.total()
        );
        assert_eq!(hv.vm(vm).unwrap().current_memory(), ByteSize::from_gib(10));
        assert_eq!(hv.os().onlined_remote(), ByteSize::from_gib(8));
    }

    #[test]
    fn reclaim_reverses_a_grant() {
        let (mut hv, vm) = setup();
        let controller = ScaleUpController::default();
        controller
            .apply_grant(&mut hv, vm, ByteSize::from_gib(8))
            .unwrap();
        let outcome = controller
            .apply_reclaim(&mut hv, vm, ByteSize::from_gib(8))
            .unwrap();
        assert!(outcome.total() > SimDuration::ZERO);
        assert_eq!(hv.vm(vm).unwrap().current_memory(), ByteSize::from_gib(2));
        assert_eq!(hv.os().onlined_remote(), ByteSize::ZERO);
    }

    #[test]
    fn failed_guest_hotplug_rolls_back_baremetal_attach() {
        let (mut hv, _vm) = setup();
        let controller = ScaleUpController::default();
        let err = controller.apply_grant(&mut hv, VmId(404), ByteSize::from_gib(8));
        assert!(matches!(err, Err(SoftstackError::NoSuchVm { .. })));
        assert_eq!(
            hv.os().onlined_remote(),
            ByteSize::ZERO,
            "baremetal attach must be rolled back"
        );
    }

    #[test]
    fn timings_fixed_overhead_sums_components() {
        let t = ScaleUpTimings::dredbox_default();
        assert_eq!(
            t.fixed_overhead(),
            t.app_to_controller + t.controller_to_sdm + t.hypervisor_reconfig
        );
    }
}
