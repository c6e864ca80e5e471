//! The end-to-end disaggregated system: rack + optical network + software
//! stack + orchestration, behind one API.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use dredbox_bricks::{Bitstream, BrickId, BrickKind, PortId, PowerState, Rack, RackId};
use dredbox_interconnect::{LatencyBreakdown, PathKind, RemoteMemoryPath};
use dredbox_memory::HotplugModel;
use dredbox_optical::{OpticalCircuitSwitch, OpticalTopology};
use dredbox_orchestrator::PowerSweep;
use dredbox_orchestrator::{
    ClusterController, OffloadRequest, OffloadSessionId, OrchestratorError, PowerManager,
    RackDigest, ScaleUpDemand, ScaleUpGrant, SdmController, VmAllocationRequest, VmGrants,
};
use dredbox_sim::arena::{SlotArena, SlotKey};
use dredbox_sim::flat::{FlatMap, InlineVec};
use dredbox_sim::time::SimDuration;
use dredbox_sim::units::{ByteSize, Watts};
use dredbox_snap::{Reader, Snap, SnapError};
use dredbox_softstack::{BaremetalOs, Hypervisor, ScaleUpController, SoftstackError, VmId, VmSpec};
use dredbox_workload::OffloadDemand;

use crate::config::SystemConfig;

/// Handle to a VM allocated through the system API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VmHandle(pub u64);

impl fmt::Display for VmHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm-handle{}", self.0)
    }
}

/// The fabric route one VM's remote reads traverse — the shared stages of
/// this (compute brick, dMEMBRICK) pair are where contention accrues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReadRoute {
    /// Source dCOMPUBRICK.
    pub compute: BrickId,
    /// Destination dMEMBRICK backing the VM's initial allocation.
    pub membrick: BrickId,
}

/// What migrating one VM cost, end to end, against its conventional
/// pre-copy counterfactual — the paper's elasticity headline: memory stays
/// resident on the dMEMBRICKs, only brick-local compute state moves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationReport {
    /// The VM that moved.
    pub vm: VmHandle,
    /// The brick it left.
    pub from: BrickId,
    /// The brick now hosting it.
    pub to: BrickId,
    /// Brick-local working state that actually crossed the migration link.
    pub moved_local_state: ByteSize,
    /// Guest memory that stayed resident on its dMEMBRICKs.
    pub preserved_memory: ByteSize,
    /// SDM-controller service time of the reserve → re-route → drain →
    /// switchover flow.
    pub orchestration_delay: SimDuration,
    /// Total downtime: local-state transfer + switchover + orchestration.
    pub downtime: SimDuration,
    /// What a conventional pre-copy of the full guest RAM would have cost
    /// (the counterfactual the consolidation scenario reports).
    pub conventional_precopy: SimDuration,
}

/// What one near-data offload session cost end to end, against its
/// stream-to-the-dCOMPUBRICK counterfactual — the Section V pilot claim:
/// moving the kernel to the data (dACCELBRICK) beats moving the data to the
/// cores over the remote-memory path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OffloadReport {
    /// The VM that offloaded.
    pub vm: VmHandle,
    /// The session the SDM controller opened.
    pub session: OffloadSessionId,
    /// The compute brick hosting the VM.
    pub compute_brick: BrickId,
    /// The accelerator brick serving the session.
    pub accel_brick: BrickId,
    /// The kernel that ran.
    pub kernel: Arc<str>,
    /// Input data streamed through the kernel.
    pub input: ByteSize,
    /// Whether the accelerator was already programmed with the kernel.
    pub reused_bitstream: bool,
    /// Whether a sleeping accelerator was woken for the session.
    pub woke_brick: bool,
    /// SDM-controller service time (placement, ledger hold, any PCAP
    /// programming and circuit setup).
    pub orchestration_delay: SimDuration,
    /// Bulk-streaming the input over the circuit onto the accelerator.
    pub transfer_time: SimDuration,
    /// Kernel streaming time over the accelerator's PL-side DDR.
    pub kernel_time: SimDuration,
    /// Total near-data cost: orchestration plus the pipelined data stage —
    /// the kernel consumes the stream as it arrives, so the slower of
    /// transfer and kernel bounds it.
    pub offload_total: SimDuration,
    /// The counterfactual: the dCOMPUBRICK reading the same input out of
    /// its dMEMBRICKs page by page over the remote-memory path and scanning
    /// it in software on the APU.
    pub local_compute: SimDuration,
}

/// What a scale-up (or scale-down) operation cost, end to end.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleUpReport {
    /// The VM that was resized.
    pub vm: VmHandle,
    /// How much memory was added (or removed).
    pub amount: ByteSize,
    /// SDM-controller service time (selection, reservation, circuit and
    /// glue-logic configuration).
    pub orchestration_delay: SimDuration,
    /// Brick-local delay (baremetal hotplug, QEMU DIMM attach, guest
    /// onlining, control RPCs).
    pub brick_delay: SimDuration,
    /// Total per-VM delay, the Figure 10 quantity.
    pub total_delay: SimDuration,
}

/// Errors surfaced by the system API.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SystemError {
    /// The orchestration layer rejected the request.
    Orchestrator(OrchestratorError),
    /// The software stack rejected the request.
    Softstack(SoftstackError),
    /// The handle does not refer to a live VM.
    NoSuchVm {
        /// Offending handle.
        handle: VmHandle,
    },
    /// A configuration (e.g. a deserialized scenario spec) is invalid.
    InvalidConfig {
        /// What was wrong.
        reason: String,
    },
    /// A compute brick the orchestrator selected has no hypervisor — the
    /// software stack and the controller's registry have diverged (only
    /// reachable through fault injection or a corrupted snapshot).
    MissingHypervisor {
        /// The brick with no hypervisor.
        brick: BrickId,
    },
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::Orchestrator(e) => write!(f, "orchestration: {e}"),
            SystemError::Softstack(e) => write!(f, "system software: {e}"),
            SystemError::NoSuchVm { handle } => write!(f, "no such vm handle: {handle}"),
            SystemError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            SystemError::MissingHypervisor { brick } => {
                write!(f, "{brick} has no hypervisor registered")
            }
        }
    }
}

impl std::error::Error for SystemError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SystemError::Orchestrator(e) => Some(e),
            SystemError::Softstack(e) => Some(e),
            SystemError::NoSuchVm { .. }
            | SystemError::InvalidConfig { .. }
            | SystemError::MissingHypervisor { .. } => None,
        }
    }
}

impl From<OrchestratorError> for SystemError {
    fn from(e: OrchestratorError) -> Self {
        SystemError::Orchestrator(e)
    }
}

impl From<SoftstackError> for SystemError {
    fn from(e: SoftstackError) -> Self {
        SystemError::Softstack(e)
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct VmRecord {
    brick: BrickId,
    vm: VmId,
    vcpus: u32,
    /// Admission order stamp: arena slots are recycled, so the record
    /// carries the order the control plane admitted it in — the order
    /// [`DredboxSystem::vms_on`] reports.
    seq: u64,
    grants: VmGrants,
    /// Live offload sessions the VM holds on dACCELBRICKs. A scenario VM
    /// runs its sessions one after another, so one stays in place.
    offloads: InlineVec<OffloadSessionId, 1>,
}

/// The arena key a [`VmHandle`] packs.
fn handle_key(handle: VmHandle) -> SlotKey {
    SlotKey::from_u64(handle.0)
}

/// Physically powered-on bricks per kind — one rack's provisioned-power
/// ledger, held in lockstep by every wake and sweep transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
struct PoweredCounts {
    compute: u32,
    memory: u32,
    accel: u32,
}

/// What recovering from one dCOMPUBRICK crash did: every VM the brick
/// hosted was drained of its offload sessions, then migrated away within
/// the rack (memory stays resident on its dMEMBRICKs) or — when no brick
/// fits — stranded as an orphan whose pool segments await
/// [`DredboxSystem::reclaim_orphans`]. Restarting a stranded guest on
/// another rack is the cluster tier's job, not the rack's.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ComputeFaultReport {
    /// VMs moved within the rack, memory left resident.
    pub migrated: u32,
    /// VMs lost: no surviving brick in the rack could host them.
    pub lost: u32,
    /// Offload sessions force-ended because their VM had to move.
    pub sessions_dropped: u32,
    /// Pool bytes stranded by lost VMs (reclaimable as orphans).
    pub orphaned: ByteSize,
    /// Per-VM migration reports, in admission order.
    pub reports: Vec<MigrationReport>,
}

/// What one dMEMBRICK crash destroyed and salvaged: segments on the brick
/// are gone, so every VM touching them is killed and re-admitted with a
/// fresh allocation carved from the surviving pool.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MemoryFaultReport {
    /// Pool bytes lost with the brick.
    pub lost_bytes: ByteSize,
    /// VMs killed and re-admitted, as `(old handle, new handle)`.
    pub restarted: Vec<(VmHandle, VmHandle)>,
    /// VMs killed that no surviving capacity could re-admit.
    pub lost: u32,
    /// Offload sessions force-ended with their killed VMs.
    pub sessions_dropped: u32,
}

/// What one dACCELBRICK crash interrupted: its live offload sessions are
/// drained (the caller may retry them elsewhere) and its programmed
/// bitstream is gone.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AccelFaultReport {
    /// Sessions drained off the brick, with the VM that owned each.
    pub drained: Vec<(OffloadSessionId, VmHandle)>,
}

/// What severing one cabled optical link did: circuits that shared the
/// fibre were re-routed over surviving ports where possible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaultReport {
    /// The brick-side port whose fibre was cut.
    pub port: PortId,
    /// Circuits re-established over other ports.
    pub rerouted: u32,
    /// Circuits with no surviving path.
    pub lost: u32,
}

/// What [`DredboxSystem::reclaim_orphans`] returned to the pool.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OrphanReclaim {
    /// Orphaned VM records retired.
    pub vms: u32,
    /// Pool bytes returned to the free lists (bytes whose dMEMBRICK died
    /// in the meantime are counted in `unreclaimable` instead).
    pub reclaimed: ByteSize,
    /// Orphaned bytes whose segments no longer exist.
    pub unreclaimable: ByteSize,
}

/// One severed optical fibre awaiting repair: which brick-side port was
/// cut, which switch port it was cabled to, and the fault-schedule
/// ordinal that selected it (so the matching repair finds exactly it).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct SeveredLink {
    ordinal: u32,
    port: PortId,
    switch_port: u16,
}

/// The assembled dReDBox system: one rack — its physical bricks, optical
/// cabling, SDM controller and software stack — behind one API. Racks
/// federate one tier up, in the scenario engine's cluster world, which
/// reads each rack only through its [`RackDigest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DredboxSystem {
    config: SystemConfig,
    rack: Rack,
    topology: OpticalTopology,
    sdm: SdmController,
    /// Physically powered-on bricks per kind, the basis of the digest's
    /// provisioned power.
    powered: PoweredCounts,
    /// Active draw per brick kind in milliwatts `[compute, memory, accel]`,
    /// the provisioned-power constants from the catalog.
    kind_draw_mw: [u64; 3],
    /// Hypervisors in a dense table indexed by brick id (`None` for
    /// non-compute bricks), so the per-event lookup is a bounds check
    /// instead of a tree walk.
    hypervisors: Vec<Option<Hypervisor>>,
    scaleup: ScaleUpController,
    power: PowerManager,
    /// Live VM records interned in a generational slab arena: a
    /// [`VmHandle`] is the packed slot key, so steady-state admit/depart
    /// churn stops allocating map nodes and a departed handle keeps
    /// missing even after its slot is recycled.
    vms: SlotArena<VmRecord>,
    /// Owner of every live offload session, so departures can drain them.
    offload_owners: FlatMap<OffloadSessionId, VmHandle>,
    /// Admission counter stamped into [`VmRecord::seq`].
    next_seq: u64,
    /// VM records stranded by a dCOMPUBRICK crash that nothing could
    /// absorb: their pool segments and ledger holds are still committed
    /// until [`DredboxSystem::reclaim_orphans`] retires them.
    orphans: Vec<VmRecord>,
    /// Optical fibres cut by fault injection, awaiting re-cabling.
    severed_links: Vec<SeveredLink>,
    /// The configured remote-memory data path, built once so per-read
    /// latency queries on the hot path stop cloning the latency model.
    read_path: RemoteMemoryPath,
}

impl DredboxSystem {
    /// Builds the rack, cables it to its optical switch, boots a hypervisor
    /// on every dCOMPUBRICK and registers everything with the rack's SDM
    /// controller.
    ///
    /// # Errors
    ///
    /// Fails unless the configuration asks for exactly one rack: a
    /// multi-rack configuration federates one [`DredboxSystem`] per rack
    /// under the scenario engine's cluster tier.
    pub fn build(config: SystemConfig) -> Result<Self, SystemError> {
        if config.racks != 1 {
            return Err(SystemError::InvalidConfig {
                reason: format!(
                    "a system is one rack (got {}); federate racks one tier up",
                    config.racks
                ),
            });
        }
        let rack = config.catalog.build_rack(
            config.trays,
            config.compute_per_tray,
            config.memory_per_tray,
            config.accel_per_tray,
        );
        let topology = OpticalTopology::cable_rack(&rack, OpticalCircuitSwitch::polatis_48());
        let mut sdm = SdmController::new(
            config.memory_policy,
            config.placement,
            config.sdm_timings,
            config.latency.clone(),
        );
        let mut hypervisors: Vec<Option<Hypervisor>> = Vec::new();
        let mut powered = PoweredCounts::default();
        for brick in rack.bricks() {
            match brick.kind() {
                BrickKind::Compute => {
                    let compute = brick.as_compute().expect("kind checked");
                    sdm.register_compute_brick(
                        compute.id(),
                        compute.spec().apu_cores,
                        compute.spec().gth_ports,
                    );
                    let os = BaremetalOs::new(
                        compute.id(),
                        compute.spec().local_memory,
                        HotplugModel::dredbox_default(),
                    );
                    let slot = compute.id().0 as usize;
                    if hypervisors.len() <= slot {
                        hypervisors.resize_with(slot + 1, || None);
                    }
                    hypervisors[slot] = Some(Hypervisor::new(os, compute.spec().apu_cores));
                    powered.compute += 1;
                }
                BrickKind::Memory => {
                    let memory = brick.as_memory().expect("kind checked");
                    sdm.register_membrick(memory.id(), memory.capacity());
                    powered.memory += 1;
                }
                BrickKind::Accelerator => {
                    // Accelerators are a scheduled resource class like the
                    // other bricks: register the PCAP programming bandwidth
                    // (the reprogram-cost key) and one streaming slot per
                    // GTH transceiver with the SDM controller.
                    let accel = brick.as_accelerator().expect("kind checked");
                    sdm.register_accel_brick(
                        accel.id(),
                        accel.spec().pcap_bandwidth,
                        u32::from(accel.spec().gth_ports),
                    );
                    powered.accel += 1;
                }
            }
        }

        let kind_draw_mw = Self::kind_draw_mw(&config);
        let read_path = match config.path {
            PathKind::CircuitSwitched => RemoteMemoryPath::circuit_switched(config.latency.clone()),
            PathKind::PacketSwitched => RemoteMemoryPath::packet_switched(config.latency.clone()),
        };
        Ok(DredboxSystem {
            scaleup: ScaleUpController::new(config.scaleup_timings),
            config,
            rack,
            topology,
            sdm,
            powered,
            kind_draw_mw,
            hypervisors,
            power: PowerManager::new(),
            vms: SlotArena::new(),
            offload_owners: FlatMap::new(),
            next_seq: 0,
            orphans: Vec::new(),
            severed_links: Vec::new(),
            read_path,
        })
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The physical rack.
    pub fn rack(&self) -> &Rack {
        &self.rack
    }

    /// The rack's optical topology and circuit manager.
    pub(crate) fn topology(&self) -> &OpticalTopology {
        &self.topology
    }

    /// The rack's SDM controller.
    pub fn sdm(&self) -> &SdmController {
        &self.sdm
    }

    /// The rack's capacity digest — what the cluster tier routes on — read
    /// off the SDM controller's maintained indexes and the powered ledger
    /// in `O(1)`/`O(keys)`, never off per-brick state.
    pub fn digest(&self) -> RackDigest {
        let capacity = self.sdm.capacity();
        let pool = self.sdm.pool();
        let accel = self.sdm.accel();
        // Saturating, so a hostile snapshot's counts cannot overflow the
        // check that decoding runs on them; real racks never get close.
        let [compute_mw, memory_mw, accel_mw] = self.kind_draw_mw;
        let powered = self.powered;
        RackDigest {
            free_cores: capacity.powered_free_cores(),
            largest_free_cores: capacity.largest_powered_free(),
            largest_sleeping_cores: capacity.largest_sleeping_total(),
            free_memory_bytes: pool.total_free().as_bytes(),
            largest_segment_bytes: pool.largest_free_block().as_bytes(),
            idle_accels: accel.idle_count() as u32,
            accel_bricks: accel.len() as u32,
            active_bricks: capacity.active_brick_count() as u32,
            powered_bricks: powered
                .compute
                .saturating_add(powered.memory)
                .saturating_add(powered.accel),
            provisioned_milliwatts: u64::from(powered.compute)
                .saturating_mul(compute_mw)
                .saturating_add(u64::from(powered.memory).saturating_mul(memory_mw))
                .saturating_add(u64::from(powered.accel).saturating_mul(accel_mw)),
        }
    }

    /// The hypervisor running on a given compute brick.
    pub fn hypervisor(&self, brick: BrickId) -> Option<&Hypervisor> {
        self.hypervisors
            .get(brick.0 as usize)
            .and_then(|h| h.as_ref())
    }

    /// Number of live VMs.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// The compute brick hosting a VM.
    pub fn vm_brick(&self, handle: VmHandle) -> Option<BrickId> {
        self.vms.get(handle_key(handle)).map(|r| r.brick)
    }

    /// The SDM-controller service time of the VM's admission grant — what
    /// the control plane spent placing, reserving and configuring the VM's
    /// initial allocation (the quantity a control-plane queue serializes).
    pub(crate) fn admission_service_time(&self, handle: VmHandle) -> Option<SimDuration> {
        self.vms
            .get(handle_key(handle))
            .and_then(|r| r.grants.first())
            .map(|g| g.service_time)
    }

    /// The vCPU count a VM was admitted with — the figure a cluster-tier
    /// coordinator needs to re-place the guest on another rack.
    pub(crate) fn vm_vcpus(&self, handle: VmHandle) -> Option<u32> {
        self.vms.get(handle_key(handle)).map(|r| r.vcpus)
    }

    /// Memory currently assigned to a VM.
    pub fn vm_memory(&self, handle: VmHandle) -> Option<ByteSize> {
        let record = self.vms.get(handle_key(handle))?;
        self.hypervisor(record.brick)
            .and_then(|hv| hv.vm(record.vm))
            .map(|vm| vm.current_memory())
    }

    /// Allocates a VM with `vcpus` cores and `memory` of disaggregated
    /// memory: the rack's SDM controller places and reserves, the
    /// hypervisor boots the guest, and the physical rack mirrors the grant.
    /// Returns a handle to the new VM.
    ///
    /// # Errors
    ///
    /// Fails when no compute brick has the cores or the pool lacks the
    /// memory; a rejection rolls everything back.
    pub fn allocate_vm(&mut self, vcpus: u32, memory: ByteSize) -> Result<VmHandle, SystemError> {
        let (brick, grant) = self
            .sdm
            .allocate_vm(VmAllocationRequest::new(vcpus, memory))?;
        let Some(hv) = self
            .hypervisors
            .get_mut(brick.0 as usize)
            .and_then(|h| h.as_mut())
        else {
            // The SDM only places on registered bricks, so this divergence
            // is only reachable through fault injection; roll the
            // reservation back instead of crashing the control plane.
            let _ = self.sdm.release_scale_up(&grant);
            let _ = self.sdm.release_vm(brick, vcpus);
            return Err(SystemError::MissingHypervisor { brick });
        };
        // The grant's memory becomes visible to the baremetal OS, then the
        // VM boots with it.
        hv.os_mut().online_remote(grant.grant.total());
        let (vm, _boot) = match hv.create_vm(VmSpec::new(vcpus, memory)) {
            Ok(v) => v,
            Err(e) => {
                let _ = hv.os_mut().offline_remote(grant.grant.total());
                let _ = self.sdm.release_scale_up(&grant);
                // The SDM controller already committed the cores for this
                // VM; hand them back too or the brick's capacity shrinks
                // forever.
                let _ = self.sdm.release_vm(brick, vcpus);
                return Err(e.into());
            }
        };
        self.apply_grant_to_rack(brick, &grant);
        self.rack
            .brick_mut(brick)
            .and_then(|b| b.as_compute_mut())
            .map(|c| c.allocate_cores(vcpus))
            .transpose()
            .ok();

        let seq = self.next_seq;
        self.next_seq += 1;
        let key = self.vms.insert(VmRecord {
            brick,
            vm,
            vcpus,
            seq,
            grants: std::iter::once(grant).collect(),
            offloads: InlineVec::new(),
        });
        Ok(VmHandle(key.to_u64()))
    }

    /// Grows a running VM's memory through the Scale-up API, returning the
    /// end-to-end delay report (the Figure 10 quantity for one VM).
    ///
    /// # Errors
    ///
    /// Fails when the pool cannot cover the request or the VM is unknown.
    pub fn scale_up(
        &mut self,
        handle: VmHandle,
        amount: ByteSize,
    ) -> Result<ScaleUpReport, SystemError> {
        let (brick, vm) = match self.vms.get(handle_key(handle)) {
            Some(r) => (r.brick, r.vm),
            None => return Err(SystemError::NoSuchVm { handle }),
        };
        let grant = self
            .sdm
            .handle_scale_up(ScaleUpDemand::new(brick, amount))?;
        let Some(hv) = self
            .hypervisors
            .get_mut(brick.0 as usize)
            .and_then(|h| h.as_mut())
        else {
            let _ = self.sdm.release_scale_up(&grant);
            return Err(SystemError::MissingHypervisor { brick });
        };
        let outcome = match self.scaleup.apply_grant(hv, vm, amount) {
            Ok(o) => o,
            Err(e) => {
                let _ = self.sdm.release_scale_up(&grant);
                return Err(e.into());
            }
        };
        self.apply_grant_to_rack(brick, &grant);

        let report = ScaleUpReport {
            vm: handle,
            amount,
            orchestration_delay: grant.service_time,
            brick_delay: outcome.total(),
            total_delay: grant.service_time + outcome.total(),
        };
        self.vms
            .get_mut(handle_key(handle))
            .expect("checked above")
            .grants
            .push(grant);
        Ok(report)
    }

    /// Shrinks a running VM's memory, releasing the most recent grant of at
    /// least `amount` back to the pool.
    ///
    /// # Errors
    ///
    /// Fails if the VM is unknown or holds no grant of that size.
    pub fn scale_down(
        &mut self,
        handle: VmHandle,
        amount: ByteSize,
    ) -> Result<ScaleUpReport, SystemError> {
        let record = self
            .vms
            .get(handle_key(handle))
            .ok_or(SystemError::NoSuchVm { handle })?;
        let (brick, vm) = (record.brick, record.vm);
        // Find the most recent grant that matches the requested amount.
        let Some(pos) = record
            .grants
            .iter()
            .rposition(|g| g.grant.total() == amount)
        else {
            return Err(SystemError::Softstack(SoftstackError::DetachUnderflow {
                vm,
            }));
        };
        // Take the grant out instead of cloning it; failed releases put it
        // back so a rejected scale-down leaves the record as it found it.
        let grant = self
            .vms
            .get_mut(handle_key(handle))
            .expect("checked above")
            .grants
            .remove(pos);

        let Some(hv) = self
            .hypervisors
            .get_mut(brick.0 as usize)
            .and_then(|h| h.as_mut())
        else {
            self.vms
                .get_mut(handle_key(handle))
                .expect("checked above")
                .grants
                .insert(pos, grant);
            return Err(SystemError::MissingHypervisor { brick });
        };
        let outcome = match self.scaleup.apply_reclaim(hv, vm, amount) {
            Ok(o) => o,
            Err(e) => {
                self.vms
                    .get_mut(handle_key(handle))
                    .expect("checked above")
                    .grants
                    .insert(pos, grant);
                return Err(e.into());
            }
        };
        let orch = match self.sdm.release_scale_up(&grant) {
            Ok(o) => o,
            Err(e) => {
                self.vms
                    .get_mut(handle_key(handle))
                    .expect("checked above")
                    .grants
                    .insert(pos, grant);
                return Err(e.into());
            }
        };
        self.remove_grant_from_rack(brick, &grant);

        Ok(ScaleUpReport {
            vm: handle,
            amount,
            orchestration_delay: orch,
            brick_delay: outcome.total(),
            total_delay: orch + outcome.total(),
        })
    }

    /// Live-migrates a VM's compute placement to another brick. Its memory
    /// stays resident on the dMEMBRICKs: the SDM controller re-routes the
    /// interconnect circuits and RMST entries to the destination, the
    /// hypervisors hand the running guest over, and only the brick-local
    /// working state crosses the migration link — the disaggregated
    /// elasticity claim of the paper, reported against the conventional
    /// pre-copy counterfactual.
    ///
    /// # Errors
    ///
    /// Fails without mutating any state if the handle is unknown, the
    /// destination equals the source, the destination is unregistered or
    /// lacks free cores, or its agent cannot map the VM's segments.
    pub fn migrate_vm(
        &mut self,
        handle: VmHandle,
        to: BrickId,
    ) -> Result<MigrationReport, SystemError> {
        let record = self
            .vms
            .get(handle_key(handle))
            .ok_or(SystemError::NoSuchVm { handle })?;
        let (from, vm_id, vcpus) = (record.brick, record.vm, record.vcpus);
        // A VM streaming offload sessions is pinned: its sessions' circuits
        // and the accelerator-side ledger holds reference the source brick,
        // so migration is rejected until the sessions end.
        if !record.offloads.is_empty() {
            return Err(SystemError::Orchestrator(
                OrchestratorError::InvalidMigration { from, to },
            ));
        }
        let guest_memory = self
            .hypervisor(from)
            .and_then(|hv| hv.vm(vm_id))
            .map(|vm| vm.current_memory())
            .ok_or(SystemError::NoSuchVm { handle })?;
        // Validate the destination hypervisor up front so the softstack
        // hand-over below cannot fail after the SDM controller has already
        // switched over.
        let dest_hv = self.hypervisor(to).ok_or(SystemError::Orchestrator(
            OrchestratorError::UnknownComputeBrick { brick: to },
        ))?;
        if vcpus > dest_hv.free_cores() {
            return Err(SystemError::Orchestrator(
                OrchestratorError::NoComputeCapacity {
                    requested_vcpus: vcpus,
                },
            ));
        }

        // Control plane: reserve → re-route → drain → switchover. Rejections
        // leave the whole system untouched.
        let grants_ref = &self
            .vms
            .get(handle_key(handle))
            .expect("checked above")
            .grants;
        let outcome = self.sdm.migrate_vm(from, to, vcpus, grants_ref)?;

        // From here on nothing fails: take the old grants out of the record
        // (they are replaced by the rebased set below) instead of cloning
        // them around the softstack hand-over.
        let grants = std::mem::take(
            &mut self
                .vms
                .get_mut(handle_key(handle))
                .expect("checked above")
                .grants,
        );

        // Software stack: make the memory visible on the destination, hand
        // the running guest over, retire the source's view.
        let preserved: ByteSize = grants.iter().map(|g| g.grant.total()).sum();
        let dest_hv = self
            .hypervisors
            .get_mut(to.0 as usize)
            .and_then(|h| h.as_mut())
            .expect("validated above");
        dest_hv.os_mut().online_remote(preserved);
        let src_hv = self
            .hypervisors
            .get_mut(from.0 as usize)
            .and_then(|h| h.as_mut())
            .expect("record refers to a registered brick");
        let guest = src_hv
            .evict_vm(vm_id)
            .expect("record refers to a live VM (checked above)");
        let _ = src_hv.os_mut().offline_remote(preserved);
        let new_vm = self
            .hypervisors
            .get_mut(to.0 as usize)
            .and_then(|h| h.as_mut())
            .expect("validated above")
            .adopt_vm(guest)
            .expect("destination capacity validated above");

        // Rack-level bookkeeping: cores and remote attachments follow the
        // VM; the dMEMBRICK exports are re-pointed at the new consumer.
        if let Some(c) = self.rack.brick_mut(from).and_then(|b| b.as_compute_mut()) {
            let _ = c.detach_remote_memory(preserved);
            let _ = c.release_cores(vcpus);
        }
        if let Some(c) = self.rack.brick_mut(to).and_then(|b| b.as_compute_mut()) {
            if c.power_state() == PowerState::Off {
                self.powered.compute += 1;
            }
            c.power_on();
            c.attach_remote_memory(preserved);
            let _ = c.allocate_cores(vcpus);
        }
        for grant in &grants {
            for segment in grant.grant.segments() {
                if let Some(m) = self
                    .rack
                    .brick_mut(segment.membrick)
                    .and_then(|b| b.as_memory_mut())
                {
                    let _ = m.reclaim(from, segment.size);
                    let _ = m.export(to, segment.size);
                }
            }
        }

        // The handle (and its admission stamp) survives the move; only the
        // placement fields change.
        let rec = self.vms.get_mut(handle_key(handle)).expect("checked above");
        rec.brick = to;
        rec.vm = new_vm;
        rec.grants = outcome.rebased;

        let local_state = self.config.migration.local_state(vcpus);
        let downtime =
            self.config.migration.disaggregated_migration(local_state) + outcome.service_time;
        Ok(MigrationReport {
            vm: handle,
            from,
            to,
            moved_local_state: local_state,
            preserved_memory: preserved,
            orchestration_delay: outcome.service_time,
            downtime,
            conventional_precopy: self.config.migration.conventional_migration(guest_memory),
        })
    }

    /// Begins a near-data offload session for a VM: the SDM controller
    /// places the kernel on a dACCELBRICK (reusing a programmed bitstream
    /// when one is available, else paying the cheapest PCAP reprogram and
    /// waking a sleeping brick only as a last resort), programs the optical
    /// circuit from the VM's compute brick, and the input streams once onto
    /// the accelerator-local DDR where the kernel consumes it at near-data
    /// bandwidth. The report carries the offload-vs-local-compute
    /// counterfactual: what the same scan would cost streaming the input
    /// page by page out of the dMEMBRICKs into the dCOMPUBRICK.
    ///
    /// The session stays live (and the accelerator busy) until
    /// [`DredboxSystem::end_offload`]; releasing the VM drains its sessions.
    ///
    /// # Errors
    ///
    /// Fails without mutating any state if the handle is unknown or every
    /// accelerator is saturated with sessions of other kernels.
    pub fn begin_offload(
        &mut self,
        handle: VmHandle,
        demand: &OffloadDemand,
    ) -> Result<OffloadReport, SystemError> {
        let record = self
            .vms
            .get(handle_key(handle))
            .ok_or(SystemError::NoSuchVm { handle })?;
        let (brick, vm) = (record.brick, record.vm);

        let bitstream = Bitstream::new(Arc::clone(&demand.kernel), demand.bitstream);
        let grant =
            self.sdm
                .begin_offload(OffloadRequest::new(brick, bitstream.clone(), demand.input))?;

        // Softstack: the VM records its issued offload. A diverged
        // hypervisor table (fault injection) rolls the session back.
        let issued = self
            .hypervisors
            .get_mut(brick.0 as usize)
            .and_then(|h| h.as_mut())
            .map(|hv| hv.issue_offload(vm));
        match issued {
            Some(Ok(_)) => {}
            Some(Err(e)) => {
                let _ = self.sdm.end_offload(grant.session.id);
                return Err(e.into());
            }
            None => {
                let _ = self.sdm.end_offload(grant.session.id);
                return Err(SystemError::MissingHypervisor { brick });
            }
        }

        // Rack: mirror the controller's decision on the physical brick —
        // wake it, (re)program the slot if the controller did, start the
        // session stream.
        let accel_brick = grant.session.accel_brick;
        let accel = self
            .rack
            .brick_mut(accel_brick)
            .and_then(|b| b.as_accelerator_mut())
            .expect("SDM only places on registered accelerator bricks");
        if accel.power_state() == PowerState::Off {
            self.powered.accel += 1;
        }
        accel.power_on();
        if !grant.reused_bitstream {
            if accel.slot().is_occupied() {
                accel.unload().expect("controller picked an idle brick");
            }
            accel
                .load_bitstream(bitstream)
                .expect("brick was woken and its slot emptied");
        }
        accel
            .begin_session()
            .expect("bitstream was just confirmed loaded");
        let kernel_time = accel.offload_time(demand.input);

        // Data-path accounting. Near-data: the input bulk-streams over the
        // circuit while the kernel consumes it from the PL-side DDR — a
        // pipeline, so the slower stage bounds the data time. The
        // counterfactual moves the data to the cores instead: page-granular
        // remote reads out of the dMEMBRICKs (each paying the round trip)
        // plus the software scan on the APU.
        let transfer_time = self.config.latency.line_rate.transfer_time(demand.input);
        const PAGE: u64 = 4096;
        // Software scan throughput of the brick's APU cores — well below
        // both the 100 Gb/s fabric kernel and the 10 Gb/s link, the reason
        // the pilots offload in the first place.
        let sw_scan = dredbox_sim::units::Bandwidth::from_gbps(16.0);
        let pages = demand.input.as_bytes().div_ceil(PAGE);
        let per_page = self.remote_read_latency(ByteSize::from_bytes(PAGE)).total();
        let local_compute = per_page.saturating_mul(pages) + sw_scan.transfer_time(demand.input);

        let session = grant.session.id;
        self.vms
            .get_mut(handle_key(handle))
            .expect("checked above")
            .offloads
            .push(session);
        self.offload_owners.insert(session, handle);

        Ok(OffloadReport {
            vm: handle,
            session,
            compute_brick: brick,
            accel_brick,
            kernel: Arc::clone(&demand.kernel),
            input: demand.input,
            reused_bitstream: grant.reused_bitstream,
            woke_brick: grant.woke_brick,
            orchestration_delay: grant.service_time,
            transfer_time,
            kernel_time,
            offload_total: grant.service_time + transfer_time.max(kernel_time),
            local_compute,
        })
    }

    /// Ends an offload session: the SDM controller drops the ledger hold
    /// and tears down the compute→accelerator circuit if no other session
    /// needs it; the accelerator keeps the bitstream loaded for reuse.
    /// Returns the controller service time of the release.
    ///
    /// # Errors
    ///
    /// Fails if the session is unknown or already ended.
    pub fn end_offload(&mut self, session: OffloadSessionId) -> Result<SimDuration, SystemError> {
        let owner = *self
            .offload_owners
            .get(&session)
            .ok_or(SystemError::Orchestrator(
                OrchestratorError::NoSuchOffloadSession { session },
            ))?;
        if self.vms.get(handle_key(owner)).is_none() {
            // The owner map outlived its VM record (a crash tore the record
            // down without draining): repair the map, report the session
            // gone.
            self.offload_owners.remove(&session);
            return Err(SystemError::Orchestrator(
                OrchestratorError::NoSuchOffloadSession { session },
            ));
        }
        let release = self.sdm.end_offload(session)?;
        self.offload_owners.remove(&session);
        if let Some(record) = self.vms.get_mut(handle_key(owner)) {
            record.offloads.retain(|s| *s != session);
        }
        if let Some(accel) = self
            .rack
            .brick_mut(release.session.accel_brick)
            .and_then(|b| b.as_accelerator_mut())
        {
            accel
                .end_session()
                .expect("rack sessions mirror controller sessions");
        }
        Ok(release.service_time)
    }

    /// Live offload sessions of a VM, in begin order.
    #[cfg(test)]
    pub(crate) fn vm_offloads(&self, handle: VmHandle) -> Vec<OffloadSessionId> {
        let mut out = Vec::new();
        self.vm_offloads_into(handle, &mut out);
        out
    }

    /// [`DredboxSystem::vm_offloads`] into `out`, which is cleared first.
    pub(crate) fn vm_offloads_into(&self, handle: VmHandle, out: &mut Vec<OffloadSessionId>) {
        out.clear();
        if let Some(record) = self.vms.get(handle_key(handle)) {
            out.extend_from_slice(&record.offloads);
        }
    }

    /// Total live offload sessions across the rack.
    pub fn offload_session_count(&self) -> usize {
        self.offload_owners.len()
    }

    /// Fraction of accelerator bricks currently streaming at least one
    /// offload session, in `[0, 1]`. Zero when the rack has no
    /// accelerators.
    pub fn accel_utilization(&self) -> f64 {
        let total = self.sdm.accel_brick_count();
        if total == 0 {
            return 0.0;
        }
        let idle = self.sdm.accel().idle_count();
        (total - idle) as f64 / total as f64
    }

    /// Every live VM, in admission order.
    pub(crate) fn vms(&self) -> Vec<VmHandle> {
        self.vms_where(|_| true)
    }

    /// VMs currently hosted on a compute brick, in admission order.
    pub fn vms_on(&self, brick: BrickId) -> Vec<VmHandle> {
        self.vms_where(|r| r.brick == brick)
    }

    /// [`DredboxSystem::vms_on`] into `out`, which is cleared first, so a
    /// caller asking brick after brick reuses one buffer.
    pub(crate) fn vms_on_into(&self, brick: BrickId, out: &mut Vec<VmHandle>) {
        self.vms_where_into(|r| r.brick == brick, out);
    }

    /// Live VMs whose record `keep` selects, in admission order.
    fn vms_where(&self, keep: impl Fn(&VmRecord) -> bool) -> Vec<VmHandle> {
        let mut out = Vec::new();
        self.vms_where_into(keep, &mut out);
        out
    }

    /// [`DredboxSystem::vms_where`] into `out`, which is cleared first.
    fn vms_where_into(&self, keep: impl Fn(&VmRecord) -> bool, out: &mut Vec<VmHandle>) {
        out.clear();
        out.extend(
            self.vms
                .iter()
                .filter(|(_, r)| keep(r))
                .map(|(key, _)| VmHandle(key.to_u64())),
        );
        // Handles are distinct, so the unstable sort is deterministic.
        out.sort_unstable_by_key(|&h| self.vms.get(handle_key(h)).map(|r| r.seq));
    }

    /// The consolidation target for a VM: the fullest *other* active brick
    /// that fits it and is more utilized than its current host — migrating
    /// there packs the rack tighter so the emptied source can be slept.
    /// `None` when no such brick exists (the VM is already well placed).
    pub fn consolidation_target(&self, handle: VmHandle) -> Option<BrickId> {
        let record = self.vms.get(handle_key(handle))?;
        let sdm = &self.sdm;
        let src = sdm.capacity().slot(record.brick)?;
        let to = sdm.consolidation_target(record.vcpus, record.brick)?;
        let dst = sdm.capacity().slot(to)?;
        // Only migrate uphill or sideways: the destination must be at least
        // as utilized as the source. Equal utilization still consolidates
        // (two half-empty bricks merge into one full and one sleepable),
        // and ping-pong is impossible: after any move the source is
        // strictly emptier than the destination, so the reverse move is
        // rejected.
        let src_used = u64::from(src.total_cores - src.free_cores);
        let dst_used = u64::from(dst.total_cores - dst.free_cores);
        if dst_used * u64::from(src.total_cores) >= src_used * u64::from(dst.total_cores) {
            Some(to)
        } else {
            None
        }
    }

    /// The evacuation target for a VM: the emptiest other powered brick
    /// that fits it, waking a sleeping brick as a last resort.
    pub fn evacuation_target(&self, handle: VmHandle) -> Option<BrickId> {
        let record = self.vms.get(handle_key(handle))?;
        self.sdm.evacuation_target(record.vcpus, record.brick)
    }

    /// Compute bricks whose used-core fraction is at or below
    /// `spare_below` while still hosting at least one VM — the
    /// consolidation sources — ascending by id.
    pub fn sparse_bricks(&self, spare_below: f64) -> Vec<BrickId> {
        self.sdm
            .capacity()
            .views()
            .filter(|v| {
                v.active
                    && v.total_cores > 0
                    && f64::from(v.total_cores - v.free_cores) / f64::from(v.total_cores)
                        <= spare_below
            })
            .map(|v| v.brick)
            .collect()
    }

    /// The most loaded powered compute brick whose used-core fraction is at
    /// or above `saturated_at` (ties broken towards the lowest id) — the
    /// hotspot-evacuation source, if any.
    pub(crate) fn hotspot_brick(&self, saturated_at: f64) -> Option<BrickId> {
        // (brick, used, total) of the most loaded qualifying brick so far;
        // strict `>` on the cross-multiplied fractions keeps the lowest id
        // on ties (views ascend by id).
        let mut best: Option<(BrickId, u64, u64)> = None;
        for v in self.sdm.capacity().views() {
            if !v.active || !v.powered_on || v.total_cores == 0 {
                continue;
            }
            let used = u64::from(v.total_cores - v.free_cores);
            let total = u64::from(v.total_cores);
            if (used as f64) / (total as f64) < saturated_at {
                continue;
            }
            let beats = best
                .map(|(_, bu, bt)| used * bt > bu * total)
                .unwrap_or(true);
            if beats {
                best = Some((v.brick, used, total));
            }
        }
        best.map(|(brick, _, _)| brick)
    }

    /// Terminates a VM and releases all of its resources.
    ///
    /// # Errors
    ///
    /// Fails if the handle is unknown.
    pub fn release_vm(&mut self, handle: VmHandle) -> Result<(), SystemError> {
        let record = self
            .vms
            .remove(handle_key(handle))
            .ok_or(SystemError::NoSuchVm { handle })?;
        // Drain the VM's live offload sessions so the accelerators, ledger
        // holds and circuits don't leak when a guest departs mid-session.
        for session in &record.offloads {
            if let Ok(release) = self.sdm.end_offload(*session) {
                self.offload_owners.remove(session);
                if let Some(accel) = self
                    .rack
                    .brick_mut(release.session.accel_brick)
                    .and_then(|b| b.as_accelerator_mut())
                {
                    let _ = accel.end_session();
                }
            }
        }
        if let Some(hv) = self
            .hypervisors
            .get_mut(record.brick.0 as usize)
            .and_then(|h| h.as_mut())
        {
            let _ = hv.destroy_vm(record.vm);
            // Offline what the grants onlined, so the baremetal OS's view of
            // remote memory does not inflate across admit/depart cycles.
            for grant in &record.grants {
                let _ = hv.os_mut().offline_remote(grant.grant.total());
            }
        }
        for grant in &record.grants {
            let _ = self.sdm.release_scale_up(grant);
            self.remove_grant_from_rack(record.brick, grant);
        }
        // Return the cores to the SDM controller's availability view, so the
        // brick can host future arrivals.
        let _ = self.sdm.release_vm(record.brick, record.vcpus);
        if let Some(compute) = self
            .rack
            .brick_mut(record.brick)
            .and_then(|b| b.as_compute_mut())
        {
            let _ = compute.release_cores(record.vcpus);
        }
        Ok(())
    }

    /// Latency breakdown of one remote memory read over the configured data
    /// path (Figure 8 when the packet path is selected).
    pub fn remote_read_latency(&self, size: ByteSize) -> LatencyBreakdown {
        self.read_path.read(size)
    }

    /// The fabric route a VM's remote reads take: its compute brick and
    /// the dMEMBRICK backing its initial allocation. `None` when the handle
    /// is stale or the VM holds no remote memory.
    pub fn vm_read_route(&self, handle: VmHandle) -> Option<ReadRoute> {
        let record = self.vms.get(handle_key(handle))?;
        let membrick = record.grants.first()?.grant.segments().first()?.membrick;
        Some(ReadRoute {
            compute: record.brick,
            membrick,
        })
    }

    /// Fraction of the disaggregated memory pool currently allocated, in
    /// `[0, 1]`. Zero when the pool has no capacity.
    pub(crate) fn pool_utilization(&self) -> f64 {
        let capacity = self.sdm.pool().total_capacity().as_bytes();
        if capacity == 0 {
            return 0.0;
        }
        self.sdm.pool().total_allocated().as_bytes() as f64 / capacity as f64
    }

    /// Total bytes currently allocated from the disaggregated pool — the
    /// conservation quantity a rolling upgrade must not lose a byte of.
    pub fn pool_allocated(&self) -> ByteSize {
        self.sdm.pool().total_allocated()
    }

    /// Powers off every brick that currently holds no allocation, and syncs
    /// the SDM controller's availability view so placement treats the swept
    /// bricks as sleeping (waking them only as a last resort).
    pub fn power_off_unused(&mut self) -> PowerSweep {
        // The sweep is the only path that powers bricks off, so syncing the
        // controller for just this sweep's newly-off bricks keeps its
        // availability view exact without re-walking every already-off brick
        // on each sweep of a long replay.
        let (sdm, powered) = (&mut self.sdm, &mut self.powered);
        self.power.power_off_unused_tracked(
            &mut self.rack,
            |_| true,
            |kind, brick| match kind {
                BrickKind::Compute => {
                    powered.compute -= 1;
                    let _ = sdm.set_compute_power(brick, false);
                }
                BrickKind::Memory => powered.memory -= 1,
                // Accelerators too: the sweep only switches off session-free
                // bricks (a streaming dACCELBRICK refuses `power_off`), and
                // powering one off drops its cached bitstream — mirrored
                // into the controller's accelerator index so placement
                // re-programs on the next use.
                BrickKind::Accelerator => {
                    powered.accel -= 1;
                    let _ = sdm.set_accel_power(brick, false);
                }
            },
        )
    }

    /// Current electrical draw across the rack's bricks.
    pub fn rack_power(&self) -> Watts {
        self.power.rack_power(&self.rack)
    }

    /// Fraction of bricks of `kind` that are currently unused.
    pub fn unused_fraction(&self, kind: BrickKind) -> f64 {
        let total = self.rack.brick_count(kind);
        if total == 0 {
            return 0.0;
        }
        self.rack.unused_brick_count(kind) as f64 / total as f64
    }

    // ------------------------------------------------------------------
    // Fault injection and recovery
    // ------------------------------------------------------------------

    /// Crashes a dCOMPUBRICK and runs the recovery protocol for every VM it
    /// hosted, in admission order: force-end the VM's offload sessions
    /// (their circuits reference the dead brick), then try an intra-rack
    /// migration (memory stays resident on the dMEMBRICKs — the
    /// disaggregation dividend under failure), and only when no brick of
    /// the rack fits, strand the VM: its guest dies with the brick and its
    /// pool segments stay committed as orphans until
    /// [`DredboxSystem::reclaim_orphans`].
    ///
    /// The physical brick's power state is untouched — a crashed brick
    /// still draws power until a sweep or repair deals with it; only the
    /// SDM controller's scheduling state changes. Failing an
    /// already-failed brick is a no-op returning an empty report.
    ///
    /// # Errors
    ///
    /// Fails if the brick is not a registered dCOMPUBRICK.
    pub fn fail_compute_brick(
        &mut self,
        brick: BrickId,
    ) -> Result<ComputeFaultReport, SystemError> {
        let newly = self.sdm.fail_compute_brick(brick)?;
        let mut report = ComputeFaultReport::default();
        if !newly {
            return Ok(report);
        }
        let mut sessions = Vec::new();
        for handle in self.vms_on(brick) {
            self.vm_offloads_into(handle, &mut sessions);
            for &session in &sessions {
                if self.end_offload(session).is_ok() {
                    report.sessions_dropped += 1;
                }
            }
            if let Some(target) = self.evacuation_target(handle) {
                if let Ok(m) = self.migrate_vm(handle, target) {
                    report.migrated += 1;
                    report.reports.push(m);
                    continue;
                }
            }
            report.lost += 1;
            report.orphaned += self.strand_vm(handle);
        }
        Ok(report)
    }

    /// Repairs a crashed dCOMPUBRICK: the replacement rejoins the capacity
    /// index. If a power sweep switched the dead brick off in the meantime,
    /// the controller's power view is re-aligned with the physical state so
    /// the brick wakes through the normal wake-on-demand path. Returns
    /// whether the brick was actually failed.
    ///
    /// # Errors
    ///
    /// Fails if the brick is not a registered dCOMPUBRICK.
    pub fn repair_compute_brick(&mut self, brick: BrickId) -> Result<bool, SystemError> {
        let repaired = self.sdm.repair_compute_brick(brick)?;
        if repaired {
            let off = self
                .rack
                .brick(brick)
                .and_then(|b| b.as_compute())
                .is_some_and(|c| c.power_state() == PowerState::Off);
            if off {
                let _ = self.sdm.set_compute_power(brick, false);
            }
        }
        Ok(repaired)
    }

    /// Crashes a dMEMBRICK: every segment it hosted is lost, so every VM
    /// whose grants touched one is killed (its guest state referenced the
    /// lost bytes) and re-admitted with the footprint it had, carved fresh
    /// from the surviving pool. VMs the surviving capacity cannot re-admit
    /// are lost. Failing an already-failed brick is a no-op returning an
    /// empty report.
    ///
    /// # Errors
    ///
    /// Fails if the brick is not a registered dMEMBRICK.
    pub fn fail_membrick(&mut self, brick: BrickId) -> Result<MemoryFaultReport, SystemError> {
        if self.sdm.pool().is_membrick_failed(brick) {
            return Ok(MemoryFaultReport::default());
        }
        let lost = self.sdm.fail_membrick(brick)?;
        let lost_ids: BTreeSet<_> = lost.iter().map(|s| s.id).collect();
        let mut report = MemoryFaultReport {
            lost_bytes: lost.iter().map(|s| s.size).sum(),
            ..MemoryFaultReport::default()
        };
        let mut affected: Vec<(u64, VmHandle)> = self
            .vms
            .iter()
            .filter(|(_, r)| {
                r.grants
                    .iter()
                    .any(|g| g.grant.segments().iter().any(|s| lost_ids.contains(&s.id)))
            })
            .map(|(key, r)| (r.seq, VmHandle(key.to_u64())))
            .collect();
        affected.sort_unstable_by_key(|(seq, _)| *seq);
        let mut sessions = Vec::new();
        for (_, handle) in affected {
            self.vm_offloads_into(handle, &mut sessions);
            for &session in &sessions {
                if self.end_offload(session).is_ok() {
                    report.sessions_dropped += 1;
                }
            }
            let Some(record) = self.vms.remove(handle_key(handle)) else {
                continue;
            };
            let memory = self
                .hypervisor(record.brick)
                .and_then(|hv| hv.vm(record.vm))
                .map(|vm| vm.current_memory())
                .unwrap_or(ByteSize::ZERO);
            if let Some(hv) = self
                .hypervisors
                .get_mut(record.brick.0 as usize)
                .and_then(|h| h.as_mut())
            {
                let _ = hv.destroy_vm(record.vm);
                for grant in &record.grants {
                    let _ = hv.os_mut().offline_remote(grant.grant.total());
                }
            }
            // Surviving segments release normally; the dead brick's are
            // tolerated (and counted) by the lossy release.
            for grant in &record.grants {
                let _ = self.sdm.release_scale_up_lossy(grant);
                self.remove_grant_from_rack(record.brick, grant);
            }
            let _ = self.sdm.release_vm(record.brick, record.vcpus);
            if let Some(c) = self
                .rack
                .brick_mut(record.brick)
                .and_then(|b| b.as_compute_mut())
            {
                let _ = c.release_cores(record.vcpus);
            }
            match self.allocate_vm(record.vcpus, memory) {
                Ok(vm) => report.restarted.push((handle, vm)),
                Err(_) => report.lost += 1,
            }
        }
        Ok(report)
    }

    /// Repairs a crashed dMEMBRICK: the replacement rejoins the pool empty,
    /// with the capacity the dead brick held. Returns that capacity.
    ///
    /// # Errors
    ///
    /// Fails if the brick is not currently failed.
    pub fn repair_membrick(&mut self, brick: BrickId) -> Result<ByteSize, SystemError> {
        Ok(self.sdm.repair_membrick(brick)?)
    }

    /// Crashes a dACCELBRICK: its live offload sessions are drained (the
    /// caller may retry each elsewhere — the report says whose they were)
    /// and its programmed bitstream is gone, so post-repair offloads of the
    /// same kernel pay the PCAP programming again. Failing an
    /// already-failed brick is a no-op returning an empty report.
    ///
    /// # Errors
    ///
    /// Fails if the brick is not a registered dACCELBRICK.
    pub fn fail_accel_brick(&mut self, brick: BrickId) -> Result<AccelFaultReport, SystemError> {
        let newly = self.sdm.fail_accel_brick(brick)?;
        let mut report = AccelFaultReport::default();
        if !newly {
            return Ok(report);
        }
        for session in self.sdm.sessions_on_accel(brick) {
            let Some(&owner) = self.offload_owners.get(&session) else {
                continue;
            };
            if self.end_offload(session).is_ok() {
                report.drained.push((session, owner));
            }
        }
        if let Some(accel) = self
            .rack
            .brick_mut(brick)
            .and_then(|b| b.as_accelerator_mut())
        {
            if accel.slot().is_occupied() {
                let _ = accel.unload();
            }
        }
        Ok(report)
    }

    /// Repairs a crashed dACCELBRICK: it rejoins the accelerator index with
    /// an empty fabric. As with compute repair, the controller's power view
    /// is re-aligned if a sweep switched the physical brick off in the
    /// meantime. Returns whether the brick was actually failed.
    ///
    /// # Errors
    ///
    /// Fails if the brick is not a registered dACCELBRICK.
    pub fn repair_accel_brick(&mut self, brick: BrickId) -> Result<bool, SystemError> {
        let repaired = self.sdm.repair_accel_brick(brick)?;
        if repaired {
            let off = self
                .rack
                .brick(brick)
                .and_then(|b| b.as_accelerator())
                .is_some_and(|a| a.power_state() == PowerState::Off);
            if off {
                let _ = self.sdm.set_accel_power(brick, false);
            }
        }
        Ok(repaired)
    }

    /// Severs one cabled optical fibre, selected by `ordinal` (wrapped over
    /// the rack's cabled ports, so any schedule value maps to a real
    /// fibre). Circuits that shared the fibre re-route over surviving
    /// cabled ports where possible. Returns `None` — leaving the system
    /// untouched — when the rack has no cabled ports or the same `ordinal`
    /// fault is already outstanding.
    pub fn fail_link(&mut self, ordinal: u32) -> Option<LinkFaultReport> {
        if self.severed_links.iter().any(|l| l.ordinal == ordinal) {
            return None;
        }
        let cabled: Vec<(PortId, u16)> = self.topology.manager().cabled_ports().collect();
        if cabled.is_empty() {
            return None;
        }
        let (port, _) = cabled[ordinal as usize % cabled.len()];
        let failover = self.topology.fail_link(&mut self.rack, port).ok()?;
        self.severed_links.push(SeveredLink {
            ordinal,
            port,
            switch_port: failover.switch_port,
        });
        Some(LinkFaultReport {
            port,
            rerouted: failover.rerouted.len() as u32,
            lost: failover.lost.len() as u32,
        })
    }

    /// Re-seats the fibre a matching [`DredboxSystem::fail_link`] cut,
    /// cabling the brick port back into the switch port it occupied.
    /// Returns `false` — a no-op — if no such severed link is outstanding.
    pub fn repair_link(&mut self, ordinal: u32) -> bool {
        let Some(pos) = self.severed_links.iter().position(|l| l.ordinal == ordinal) else {
            return false;
        };
        let link = self.severed_links.remove(pos);
        self.topology.recable(link.port, link.switch_port).is_ok()
    }

    /// Fails the rack's optical circuit switch over to a cold standby of
    /// the same module: every established circuit is re-programmed on the
    /// standby, so the fault self-heals. Returns the number of circuits
    /// restored.
    pub fn fail_switch(&mut self) -> usize {
        self.topology.fail_over_switch()
    }

    /// VM records stranded by compute-brick crashes, awaiting
    /// [`DredboxSystem::reclaim_orphans`].
    #[cfg(test)]
    pub(crate) fn orphan_count(&self) -> usize {
        self.orphans.len()
    }

    /// Detects and retires every orphaned VM record: pool segments return
    /// to the free lists (via the lossy release — bytes whose dMEMBRICK
    /// died in the meantime are counted, not resurrected), ledger holds
    /// drop, and the dead brick's cores are released so a repair hands back
    /// a clean brick.
    pub fn reclaim_orphans(&mut self) -> OrphanReclaim {
        let orphans = std::mem::take(&mut self.orphans);
        let mut out = OrphanReclaim::default();
        for record in orphans {
            out.vms += 1;
            for grant in &record.grants {
                let total = grant.grant.total();
                match self.sdm.release_scale_up_lossy(grant) {
                    Ok((_service, lost)) => {
                        out.reclaimed +=
                            ByteSize::from_bytes(total.as_bytes().saturating_sub(lost.as_bytes()));
                        out.unreclaimable += lost;
                    }
                    Err(_) => out.unreclaimable += total,
                }
                self.remove_grant_from_rack(record.brick, grant);
            }
            let _ = self.sdm.release_vm(record.brick, record.vcpus);
            if let Some(c) = self
                .rack
                .brick_mut(record.brick)
                .and_then(|b| b.as_compute_mut())
            {
                let _ = c.release_cores(record.vcpus);
            }
        }
        out
    }

    /// Strands a VM whose brick died with nowhere to go: the guest dies,
    /// the brick's software state is wiped, and the record moves to the
    /// orphan list with its pool segments still committed. Returns the
    /// orphaned bytes.
    fn strand_vm(&mut self, handle: VmHandle) -> ByteSize {
        let Some(record) = self.vms.remove(handle_key(handle)) else {
            return ByteSize::ZERO;
        };
        for session in &record.offloads {
            if let Ok(release) = self.sdm.end_offload(*session) {
                if let Some(accel) = self
                    .rack
                    .brick_mut(release.session.accel_brick)
                    .and_then(|b| b.as_accelerator_mut())
                {
                    let _ = accel.end_session();
                }
            }
            self.offload_owners.remove(session);
        }
        if let Some(hv) = self
            .hypervisors
            .get_mut(record.brick.0 as usize)
            .and_then(|h| h.as_mut())
        {
            let _ = hv.destroy_vm(record.vm);
            for grant in &record.grants {
                let _ = hv.os_mut().offline_remote(grant.grant.total());
            }
        }
        let orphaned: ByteSize = record.grants.iter().map(|g| g.grant.total()).sum();
        self.orphans.push(record);
        orphaned
    }

    fn apply_grant_to_rack(&mut self, compute: BrickId, grant: &ScaleUpGrant) {
        // Wake-on-demand: a brick selected by placement may have been
        // switched off by an earlier power sweep; power it back on before
        // attaching, so long-running scenarios keep the rack-level
        // bookkeeping consistent with the pool. Every wake lands in the
        // rack's powered ledger, the basis of its provisioned-power digest.
        if let Some(c) = self
            .rack
            .brick_mut(compute)
            .and_then(|b| b.as_compute_mut())
        {
            if c.power_state() == PowerState::Off {
                self.powered.compute += 1;
            }
            c.power_on();
            c.attach_remote_memory(grant.grant.total());
        }
        for segment in grant.grant.segments() {
            if let Some(m) = self
                .rack
                .brick_mut(segment.membrick)
                .and_then(|b| b.as_memory_mut())
            {
                if m.power_state() == PowerState::Off {
                    self.powered.memory += 1;
                }
                m.power_on();
                let _ = m.export(compute, segment.size);
            }
        }
    }

    fn remove_grant_from_rack(&mut self, compute: BrickId, grant: &ScaleUpGrant) {
        if let Some(c) = self
            .rack
            .brick_mut(compute)
            .and_then(|b| b.as_compute_mut())
        {
            let _ = c.detach_remote_memory(grant.grant.total());
        }
        for segment in grant.grant.segments() {
            if let Some(m) = self
                .rack
                .brick_mut(segment.membrick)
                .and_then(|b| b.as_memory_mut())
            {
                let _ = m.reclaim(compute, segment.size);
            }
        }
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`). A restored
// system must be bit-identical to the one captured — field order here IS
// the stream format, so append new fields at the end and bump the
// snapshot container version (`crate::snapshot`) on reorder.
dredbox_snap::snap_newtype!(VmHandle(u64));
dredbox_snap::snap_struct!(VmRecord {
    brick,
    vm,
    vcpus,
    seq,
    grants,
    offloads,
});
dredbox_snap::snap_struct!(PoweredCounts {
    compute,
    memory,
    accel,
});

/// A severed link keeps the stream's per-link rack field, always rack 0.
impl Snap for SeveredLink {
    fn snap(&self, out: &mut Vec<u8>) {
        0u16.snap(out);
        self.ordinal.snap(out);
        self.port.snap(out);
        self.switch_port.snap(out);
    }

    fn unsnap(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        if u16::unsnap(r)? != 0 {
            return Err(SnapError::Inconsistent { ty: "SeveredLink" });
        }
        Ok(SeveredLink {
            ordinal: Snap::unsnap(r)?,
            port: Snap::unsnap(r)?,
            switch_port: Snap::unsnap(r)?,
        })
    }
}

impl DredboxSystem {
    /// The cluster section of the stream: a one-rack federation holding
    /// this rack's digest under the configured policy and power budget.
    fn cluster_section(&self) -> ClusterController {
        let mut cluster = ClusterController::new(self.config.placement);
        cluster.set_rack_budget(self.config.rack_power_budget);
        cluster.upsert(RackId(0), self.digest());
        cluster
    }

    /// Active draw per brick kind in milliwatts `[compute, memory, accel]`,
    /// from the configuration's catalog.
    fn kind_draw_mw(config: &SystemConfig) -> [u64; 3] {
        let catalog = &config.catalog;
        [
            catalog.compute_spec().power.active(),
            catalog.memory_spec().power.active(),
            catalog.accelerator_spec().power.active(),
        ]
        .map(|w| (w.as_watts() * 1e3).round() as u64)
    }

    /// The brick-id stride the stream records between racks: the rack's
    /// brick count.
    fn stride_section(config: &SystemConfig) -> u32 {
        config.bricks_per_rack().max(1) as u32
    }
}

/// The stream keeps the layout of the multi-rack system it replaced: the
/// configuration, a rack list (always one rack: bricks, cabling, SDM
/// controller, powered ledger), a cluster section and the brick stride,
/// then the software stack. The list length, the cluster section and the
/// stride are derived on capture; decoding rejects a stream whose
/// recorded values disagree with the decoded rack.
impl Snap for DredboxSystem {
    fn snap(&self, out: &mut Vec<u8>) {
        self.config.snap(out);
        1usize.snap(out);
        self.rack.snap(out);
        self.topology.snap(out);
        self.sdm.snap(out);
        self.powered.snap(out);
        self.cluster_section().snap(out);
        Self::stride_section(&self.config).snap(out);
        self.kind_draw_mw.snap(out);
        self.hypervisors.snap(out);
        self.scaleup.snap(out);
        self.power.snap(out);
        self.vms.snap(out);
        self.offload_owners.snap(out);
        self.next_seq.snap(out);
        self.orphans.snap(out);
        self.severed_links.snap(out);
        self.read_path.snap(out);
    }

    fn unsnap(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        const TY: &str = "DredboxSystem";
        let inconsistent = SnapError::Inconsistent { ty: TY };
        let config = SystemConfig::unsnap(r)?;
        if config.racks != 1 || r.take_len()? != 1 {
            return Err(inconsistent);
        }
        let rack = Rack::unsnap(r)?;
        let topology = OpticalTopology::unsnap(r)?;
        let sdm = SdmController::unsnap(r)?;
        let powered = PoweredCounts::unsnap(r)?;
        let cluster = ClusterController::unsnap(r)?;
        if u32::unsnap(r)? != Self::stride_section(&config) {
            return Err(inconsistent);
        }
        let system = DredboxSystem {
            config,
            rack,
            topology,
            sdm,
            powered,
            kind_draw_mw: Snap::unsnap(r)?,
            hypervisors: Snap::unsnap(r)?,
            scaleup: Snap::unsnap(r)?,
            power: Snap::unsnap(r)?,
            vms: Snap::unsnap(r)?,
            offload_owners: Snap::unsnap(r)?,
            next_seq: Snap::unsnap(r)?,
            orphans: Snap::unsnap(r)?,
            severed_links: Snap::unsnap(r)?,
            read_path: Snap::unsnap(r)?,
        };
        if system.kind_draw_mw != Self::kind_draw_mw(&system.config)
            || cluster != system.cluster_section()
        {
            return Err(inconsistent);
        }
        Ok(system)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dredbox_bricks::PowerState;

    fn system() -> DredboxSystem {
        DredboxSystem::build(SystemConfig::prototype_rack()).expect("build")
    }

    #[test]
    fn build_registers_every_brick() {
        let s = system();
        assert_eq!(s.config().total_compute_bricks(), 4);
        assert_eq!(s.sdm().compute_brick_count(), 4);
        assert_eq!(s.sdm().pool().membrick_count(), 4);
        assert_eq!(s.rack().brick_count(BrickKind::Compute), 4);
        assert_eq!(s.vm_count(), 0);
        assert!(s.rack_power().as_watts() > 0.0);
        assert!(s.topology().manager().cabled_count() > 0);
    }

    #[test]
    fn vm_lifecycle_allocate_scale_release() {
        let mut s = system();
        let vm = s.allocate_vm(2, ByteSize::from_gib(4)).unwrap();
        assert_eq!(s.vm_count(), 1);
        let brick = s.vm_brick(vm).unwrap();
        assert!(s.hypervisor(brick).unwrap().vm_count() == 1);
        assert_eq!(s.vm_memory(vm), Some(ByteSize::from_gib(4)));

        let report = s.scale_up(vm, ByteSize::from_gib(8)).unwrap();
        assert_eq!(report.amount, ByteSize::from_gib(8));
        assert!(report.orchestration_delay > SimDuration::ZERO);
        assert!(report.brick_delay > SimDuration::ZERO);
        assert_eq!(
            report.total_delay,
            report.orchestration_delay + report.brick_delay
        );
        assert!(report.total_delay.as_secs_f64() < 1.5);
        assert_eq!(s.vm_memory(vm), Some(ByteSize::from_gib(12)));

        // The rack-level bookkeeping follows the grants.
        let compute = s.rack().brick(brick).unwrap().as_compute().unwrap();
        assert_eq!(compute.attached_remote_memory(), ByteSize::from_gib(12));

        let down = s.scale_down(vm, ByteSize::from_gib(8)).unwrap();
        assert!(down.total_delay > SimDuration::ZERO);
        assert_eq!(s.vm_memory(vm), Some(ByteSize::from_gib(4)));

        s.release_vm(vm).unwrap();
        assert_eq!(s.vm_count(), 0);
        assert_eq!(s.sdm().pool().total_allocated(), ByteSize::ZERO);
        assert!(matches!(
            s.release_vm(vm),
            Err(SystemError::NoSuchVm { .. })
        ));
    }

    #[test]
    fn power_off_reflects_consolidation() {
        let mut s = system();
        let _vm = s.allocate_vm(2, ByteSize::from_gib(8)).unwrap();
        let before = s.rack_power();
        let sweep = s.power_off_unused();
        // 3 of 4 compute bricks idle, at least 2 memory bricks idle, 2 accelerators idle.
        assert!(sweep.compute_off >= 3);
        assert!(sweep.memory_off >= 2);
        assert!(sweep.total_off() >= 7);
        assert!(s.rack_power().as_watts() < before.as_watts());
        assert!(s.unused_fraction(BrickKind::Compute) >= 0.75);
    }

    #[test]
    fn allocation_wakes_powered_off_bricks() {
        let mut s = system();
        let sweep = s.power_off_unused();
        assert!(sweep.total_off() > 0);
        // Allocating after a sweep must wake the involved bricks so that the
        // rack-level export bookkeeping matches the pool.
        let vm = s.allocate_vm(2, ByteSize::from_gib(4)).unwrap();
        let brick = s.vm_brick(vm).unwrap();
        let compute = s.rack().brick(brick).unwrap().as_compute().unwrap();
        assert_eq!(compute.attached_remote_memory(), ByteSize::from_gib(4));
        let exported: u64 = s
            .rack()
            .bricks()
            .filter_map(|b| b.as_memory())
            .map(|m| m.exported().as_bytes())
            .sum();
        assert_eq!(exported, ByteSize::from_gib(4).as_bytes());
        assert!(s.pool_utilization() > 0.0);
    }

    #[test]
    fn impossible_requests_fail_cleanly() {
        let mut s = system();
        // The prototype compute brick has 4 cores.
        assert!(s.allocate_vm(64, ByteSize::from_gib(1)).is_err());
        // The pool has 4 x 32 GiB.
        assert!(s.allocate_vm(1, ByteSize::from_gib(1000)).is_err());
        assert_eq!(s.vm_count(), 0);
        assert_eq!(s.sdm().pool().total_allocated(), ByteSize::ZERO);
        // Scale-up on a bogus handle.
        assert!(matches!(
            s.scale_up(VmHandle(99), ByteSize::from_gib(1)),
            Err(SystemError::NoSuchVm { .. })
        ));
        // Scale-down of a grant that was never made.
        let vm = s.allocate_vm(1, ByteSize::from_gib(2)).unwrap();
        assert!(s.scale_down(vm, ByteSize::from_gib(7)).is_err());
    }

    #[test]
    fn migration_moves_compute_and_leaves_memory_resident() {
        let mut s = system();
        let vm = s.allocate_vm(2, ByteSize::from_gib(4)).unwrap();
        s.scale_up(vm, ByteSize::from_gib(8)).unwrap();
        let from = s.vm_brick(vm).unwrap();
        let exported_before: u64 = s
            .rack()
            .bricks()
            .filter_map(|b| b.as_memory())
            .map(|m| m.exported().as_bytes())
            .sum();
        let to = s
            .rack()
            .bricks()
            .filter_map(|b| b.as_compute())
            .map(|c| c.id())
            .find(|&id| id != from)
            .unwrap();

        let report = s.migrate_vm(vm, to).unwrap();
        assert_eq!(report.from, from);
        assert_eq!(report.to, to);
        assert_eq!(s.vm_brick(vm), Some(to));
        // The guest kept its (scaled-up) memory across the move.
        assert_eq!(s.vm_memory(vm), Some(ByteSize::from_gib(12)));
        assert_eq!(report.preserved_memory, ByteSize::from_gib(12));
        // Only the brick-local state crossed the link, and the disaggregated
        // downtime beats the pre-copy counterfactual.
        assert!(report.moved_local_state < report.preserved_memory);
        assert!(report.downtime < report.conventional_precopy);
        assert!(report.downtime.as_secs_f64() < 2.0);
        // Rack bookkeeping followed: attachments moved, exports re-pointed,
        // nothing re-allocated in the pool.
        let src = s.rack().brick(from).unwrap().as_compute().unwrap();
        let dst = s.rack().brick(to).unwrap().as_compute().unwrap();
        assert_eq!(src.attached_remote_memory(), ByteSize::ZERO);
        assert_eq!(dst.attached_remote_memory(), ByteSize::from_gib(12));
        assert_eq!(src.allocated_cores(), 0);
        assert_eq!(dst.allocated_cores(), 2);
        let exported_after: u64 = s
            .rack()
            .bricks()
            .filter_map(|b| b.as_memory())
            .map(|m| m.exported().as_bytes())
            .sum();
        assert_eq!(exported_before, exported_after);
        assert_eq!(s.hypervisor(from).unwrap().vm_count(), 0);
        assert_eq!(s.hypervisor(to).unwrap().vm_count(), 1);

        // The migrated VM still scales and releases cleanly.
        s.scale_down(vm, ByteSize::from_gib(8)).unwrap();
        assert_eq!(s.vm_memory(vm), Some(ByteSize::from_gib(4)));
        s.release_vm(vm).unwrap();
        assert_eq!(s.sdm().pool().total_allocated(), ByteSize::ZERO);
    }

    #[test]
    fn rejected_migrations_leave_the_system_untouched() {
        let mut s = system();
        let vm = s.allocate_vm(2, ByteSize::from_gib(4)).unwrap();
        let from = s.vm_brick(vm).unwrap();
        // Fill another brick's cores completely (prototype bricks have 4).
        let to = s
            .rack()
            .bricks()
            .filter_map(|b| b.as_compute())
            .map(|c| c.id())
            .find(|&id| id != from)
            .unwrap();
        let mut fillers = Vec::new();
        while s.vms_on(to).len() < 2 {
            let filler = s.allocate_vm(2, ByteSize::from_gib(1)).unwrap();
            fillers.push(filler);
        }
        let before = s.clone();
        // No free cores on the destination: rejected without any mutation —
        // no partial circuit teardown, indexes unchanged.
        assert!(matches!(
            s.migrate_vm(vm, to),
            Err(SystemError::Orchestrator(_))
        ));
        assert_eq!(s, before, "failed migration must not mutate the system");
        // Self-migration and unknown handles/bricks fail just as cleanly.
        assert!(matches!(
            s.migrate_vm(vm, from),
            Err(SystemError::Orchestrator(_))
        ));
        assert!(matches!(
            s.migrate_vm(VmHandle(99), to),
            Err(SystemError::NoSuchVm { .. })
        ));
        assert!(matches!(
            s.migrate_vm(vm, BrickId(999)),
            Err(SystemError::Orchestrator(_))
        ));
        assert_eq!(s, before);
    }

    #[test]
    fn rebalance_helpers_pick_deterministic_sources_and_targets() {
        let mut s = DredboxSystem::build(SystemConfig::datacenter_rack(1, 4, 4)).unwrap();
        // Spread three small VMs over distinct bricks by filling round-robin
        // through the Balanced-like pattern: allocate, then check helpers.
        let a = s.allocate_vm(24, ByteSize::from_gib(2)).unwrap();
        let b = s.allocate_vm(4, ByteSize::from_gib(2)).unwrap();
        let brick_a = s.vm_brick(a).unwrap();
        let brick_b = s.vm_brick(b).unwrap();
        if brick_a == brick_b {
            // Power-aware packing put them together; the brick is 28/32
            // used, so it is a hotspot at 0.75 and nothing is sparse.
            assert_eq!(s.hotspot_brick(0.75), Some(brick_a));
            assert!(s.sparse_bricks(0.25).is_empty());
            assert_eq!(s.vms_on(brick_a), vec![a, b]);
            // Evacuation has somewhere to go, consolidation does not (no
            // other active brick).
            assert!(s.evacuation_target(b).is_some());
            assert_eq!(s.consolidation_target(b), None);
        }
        assert_eq!(s.hotspot_brick(1.0), None);
    }

    fn video_demand() -> dredbox_workload::OffloadDemand {
        dredbox_workload::OffloadDemand {
            kernel: "video-motion-detect".into(),
            bitstream: ByteSize::from_mib(16),
            input: ByteSize::from_gib(2),
        }
    }

    #[test]
    fn build_registers_accelerator_bricks_with_the_sdm() {
        let s = system();
        // The prototype rack carries one dACCELBRICK per tray; they are no
        // longer silently skipped during system wiring.
        assert_eq!(s.config().total_accel_bricks(), 2);
        assert_eq!(s.sdm().accel_brick_count(), 2);
        assert_eq!(s.sdm().idle_accel_bricks().count(), 2);
        assert_eq!(s.accel_utilization(), 0.0);
    }

    #[test]
    fn offload_lifecycle_reuses_bitstreams_and_beats_local_compute() {
        let mut s = system();
        let vm = s.allocate_vm(2, ByteSize::from_gib(4)).unwrap();
        let demand = video_demand();

        let first = s.begin_offload(vm, &demand).unwrap();
        assert!(!first.reused_bitstream, "first offload must program");
        assert!(first.kernel_time > SimDuration::ZERO);
        assert!(first.transfer_time > first.kernel_time, "10 vs 100 Gb/s");
        assert_eq!(
            first.offload_total,
            first.orchestration_delay + first.transfer_time.max(first.kernel_time)
        );
        // The near-data claim: the offload beats streaming the input page
        // by page into the dCOMPUBRICK.
        assert!(
            first.offload_total < first.local_compute,
            "offload {} must beat local {}",
            first.offload_total,
            first.local_compute
        );
        assert!(s.accel_utilization() > 0.0);
        assert_eq!(s.offload_session_count(), 1);
        assert_eq!(s.vm_offloads(vm), vec![first.session]);
        let accel = s
            .rack()
            .brick(first.accel_brick)
            .unwrap()
            .as_accelerator()
            .unwrap();
        assert_eq!(accel.active_sessions(), 1);
        assert_eq!(accel.slot().loaded().unwrap().name, demand.kernel);

        // A second session of the same kernel reuses the programmed slot
        // and is strictly cheaper at the control plane.
        let second = s.begin_offload(vm, &demand).unwrap();
        assert!(second.reused_bitstream);
        assert_eq!(second.accel_brick, first.accel_brick);
        assert!(second.orchestration_delay < first.orchestration_delay);

        // Sessions end cleanly; the bitstream stays for reuse.
        assert!(s.end_offload(first.session).unwrap() > SimDuration::ZERO);
        s.end_offload(second.session).unwrap();
        assert_eq!(s.offload_session_count(), 0);
        assert!(matches!(
            s.end_offload(first.session),
            Err(SystemError::Orchestrator(_))
        ));
        let accel = s
            .rack()
            .brick(first.accel_brick)
            .unwrap()
            .as_accelerator()
            .unwrap();
        assert_eq!(accel.active_sessions(), 0);
        assert!(accel.slot().is_occupied(), "bitstream cached for reuse");
        s.release_vm(vm).unwrap();
    }

    #[test]
    fn departing_vms_drain_their_offload_sessions() {
        let mut s = system();
        let vm = s.allocate_vm(2, ByteSize::from_gib(4)).unwrap();
        let report = s.begin_offload(vm, &video_demand()).unwrap();
        s.release_vm(vm).unwrap();
        assert_eq!(s.offload_session_count(), 0);
        assert_eq!(s.sdm().offload_session_count(), 0);
        assert_eq!(s.sdm().ledger().held_cores(report.accel_brick), 0);
        let accel = s
            .rack()
            .brick(report.accel_brick)
            .unwrap()
            .as_accelerator()
            .unwrap();
        assert_eq!(accel.active_sessions(), 0);
    }

    #[test]
    fn power_sweeps_spare_streaming_accelerators_and_drop_idle_bitstreams() {
        let mut s = system();
        let vm = s.allocate_vm(2, ByteSize::from_gib(4)).unwrap();
        let report = s.begin_offload(vm, &video_demand()).unwrap();
        let sweep = s.power_off_unused();
        // One accelerator streams (busy, not sleepable); the other sleeps.
        assert_eq!(sweep.accelerator_off, 1);
        let busy = s
            .rack()
            .brick(report.accel_brick)
            .unwrap()
            .as_accelerator()
            .unwrap();
        assert_ne!(busy.power_state(), PowerState::Off);
        assert!(s.sdm().accel().slot(report.accel_brick).unwrap().powered_on);

        // After the session ends, the next sweep sleeps it and drops the
        // cached bitstream from rack and controller alike...
        s.end_offload(report.session).unwrap();
        s.power_off_unused();
        let slept = s
            .rack()
            .brick(report.accel_brick)
            .unwrap()
            .as_accelerator()
            .unwrap();
        assert_eq!(slept.power_state(), PowerState::Off);
        assert!(!slept.slot().is_occupied(), "PR state lost on power-down");
        let slot = s.sdm().accel().slot(report.accel_brick).unwrap();
        assert!(!slot.powered_on);
        assert!(slot.loaded.is_none());

        // ...so the next offload wakes a brick and programs again.
        let rewoken = s.begin_offload(vm, &video_demand()).unwrap();
        assert!(rewoken.woke_brick);
        assert!(!rewoken.reused_bitstream);
        s.end_offload(rewoken.session).unwrap();
        s.release_vm(vm).unwrap();
    }

    #[test]
    fn vms_with_live_offload_sessions_do_not_migrate() {
        let mut s = system();
        let vm = s.allocate_vm(2, ByteSize::from_gib(4)).unwrap();
        let from = s.vm_brick(vm).unwrap();
        let to = s
            .rack()
            .bricks()
            .filter_map(|b| b.as_compute())
            .map(|c| c.id())
            .find(|&id| id != from)
            .unwrap();
        let report = s.begin_offload(vm, &video_demand()).unwrap();
        let before = s.clone();
        assert!(matches!(
            s.migrate_vm(vm, to),
            Err(SystemError::Orchestrator(
                OrchestratorError::InvalidMigration { .. }
            ))
        ));
        assert_eq!(s, before, "rejected migration must not mutate the system");
        // Once the session ends the VM migrates normally.
        s.end_offload(report.session).unwrap();
        s.migrate_vm(vm, to).unwrap();
        assert_eq!(s.vm_brick(vm), Some(to));
    }

    #[test]
    fn remote_read_latency_follows_the_configured_path() {
        let circuit = system().remote_read_latency(ByteSize::from_bytes(64));
        let packet_system = DredboxSystem::build(
            SystemConfig::prototype_rack().with_path(PathKind::PacketSwitched),
        )
        .unwrap();
        let packet = packet_system.remote_read_latency(ByteSize::from_bytes(64));
        assert!(packet.total() > circuit.total());
    }

    // ------------------------------------------------------------------
    // Fault injection and recovery
    // ------------------------------------------------------------------

    #[test]
    fn compute_failure_evacuates_vms_intra_rack() {
        let mut s = system();
        let vm = s.allocate_vm(2, ByteSize::from_gib(4)).unwrap();
        let brick = s.vm_brick(vm).unwrap();
        let session = s.begin_offload(vm, &video_demand()).unwrap().session;

        let report = s.fail_compute_brick(brick).unwrap();
        // The session's circuits referenced the dead brick, so it is
        // force-ended before the evacuation migration.
        assert_eq!(report.sessions_dropped, 1);
        assert_eq!(report.migrated, 1);
        assert_eq!(report.lost, 0);
        assert_eq!(report.orphaned, ByteSize::ZERO);
        assert!(s.vm_offloads(vm).is_empty());
        let _ = session;

        // Intra-rack evacuation: the guest moved, its memory did not.
        let new_brick = s.vm_brick(vm).unwrap();
        assert_ne!(new_brick, brick);
        assert_eq!(report.reports[0].from, brick);
        assert_eq!(report.reports[0].to, new_brick);
        assert_eq!(report.reports[0].preserved_memory, ByteSize::from_gib(4));
        assert_eq!(s.vm_memory(vm), Some(ByteSize::from_gib(4)));

        // Failing an already-failed brick is a no-op.
        assert_eq!(
            s.fail_compute_brick(brick).unwrap(),
            ComputeFaultReport::default()
        );
        assert!(s.fail_compute_brick(BrickId(999)).is_err());

        // The dead brick is not a placement target until repaired.
        assert_eq!(s.repair_compute_brick(brick), Ok(true));
        assert_eq!(s.repair_compute_brick(brick), Ok(false));
    }

    #[test]
    fn compute_failure_with_no_room_strands_orphans() {
        let mut s = system();
        // Fill all four 4-core bricks so no evacuation target exists.
        let vms: Vec<_> = (0..4)
            .map(|_| s.allocate_vm(4, ByteSize::from_gib(4)).unwrap())
            .collect();
        let victim = vms[0];
        let brick = s.vm_brick(victim).unwrap();
        let allocated_before = s.sdm().pool().total_allocated();

        let report = s.fail_compute_brick(brick).unwrap();
        assert_eq!(report.migrated, 0);
        assert_eq!(report.lost, 1);
        assert_eq!(report.orphaned, ByteSize::from_gib(4));
        assert_eq!(s.vm_count(), 3);
        assert!(s.vm_brick(victim).is_none());

        // The orphan's pool segments stay committed until reclaim.
        assert_eq!(s.orphan_count(), 1);
        assert_eq!(s.sdm().pool().total_allocated(), allocated_before);

        let reclaim = s.reclaim_orphans();
        assert_eq!(reclaim.vms, 1);
        assert_eq!(reclaim.reclaimed, ByteSize::from_gib(4));
        assert_eq!(reclaim.unreclaimable, ByteSize::ZERO);
        assert_eq!(s.orphan_count(), 0);
        assert_eq!(
            s.sdm().pool().total_allocated().as_bytes(),
            allocated_before.as_bytes() - ByteSize::from_gib(4).as_bytes()
        );
        // Reclaim is idempotent.
        assert_eq!(s.reclaim_orphans(), OrphanReclaim::default());

        // Repair hands back a clean brick the admission path can use.
        assert_eq!(s.repair_compute_brick(brick), Ok(true));
        let replacement = s.allocate_vm(4, ByteSize::from_gib(4)).unwrap();
        assert_eq!(s.vm_brick(replacement), Some(brick));
    }

    #[test]
    fn membrick_failure_kills_and_restarts_touching_vms() {
        let mut s = system();
        let vm = s.allocate_vm(2, ByteSize::from_gib(8)).unwrap();
        let bystander = s.allocate_vm(1, ByteSize::from_gib(2)).unwrap();
        let brick = s.vm_brick(vm).unwrap();
        let membrick = s
            .sdm()
            .pool()
            .segments_of(brick)
            .first()
            .map(|seg| seg.membrick)
            .unwrap();

        let report = s.fail_membrick(membrick).unwrap();
        assert!(report.lost_bytes >= ByteSize::from_gib(8));
        assert_eq!(report.lost, 0);
        let &(old, new) = report.restarted.iter().find(|(old, _)| *old == vm).unwrap();
        assert_ne!(old, new);
        assert!(s.vm_brick(old).is_none(), "the killed guest is gone");
        assert_eq!(s.vm_memory(new), Some(ByteSize::from_gib(8)));
        // Every restarted VM carves fresh bytes from surviving bricks only.
        assert!(s
            .sdm()
            .pool()
            .segments_of(s.vm_brick(new).unwrap())
            .iter()
            .all(|seg| seg.membrick != membrick));
        // VMs that never touched the dead brick are untouched, unless their
        // own segments were also on it.
        if !report.restarted.iter().any(|(old, _)| *old == bystander) {
            assert_eq!(s.vm_memory(bystander), Some(ByteSize::from_gib(2)));
        }

        // Double-fail is a no-op; repair restores the brick's capacity.
        assert_eq!(
            s.fail_membrick(membrick).unwrap(),
            MemoryFaultReport::default()
        );
        let capacity_failed = s.sdm().pool().total_capacity();
        let restored = s.repair_membrick(membrick).unwrap();
        assert!(restored > ByteSize::ZERO);
        assert_eq!(s.sdm().pool().total_capacity(), capacity_failed + restored);
    }

    #[test]
    fn accel_failure_drains_sessions_and_repair_readmits() {
        let mut s = system();
        let vm = s.allocate_vm(2, ByteSize::from_gib(4)).unwrap();
        let report = s.begin_offload(vm, &video_demand()).unwrap();

        let fault = s.fail_accel_brick(report.accel_brick).unwrap();
        assert_eq!(fault.drained, vec![(report.session, vm)]);
        assert_eq!(s.offload_session_count(), 0);
        assert!(s.vm_offloads(vm).is_empty());
        assert_eq!(
            s.fail_accel_brick(report.accel_brick).unwrap(),
            AccelFaultReport::default()
        );
        assert!(s.fail_accel_brick(BrickId(999)).is_err());

        // The drained demand retries on the surviving accelerator.
        let retry = s.begin_offload(vm, &video_demand()).unwrap();
        assert_ne!(retry.accel_brick, report.accel_brick);
        s.end_offload(retry.session).unwrap();

        assert_eq!(s.repair_accel_brick(report.accel_brick), Ok(true));
        assert_eq!(s.repair_accel_brick(report.accel_brick), Ok(false));
    }

    #[test]
    fn link_faults_sever_reroute_and_repair() {
        let mut s = system();
        let vm = s.allocate_vm(2, ByteSize::from_gib(4)).unwrap();
        let circuits = s.topology().manager().circuit_count();

        let report = s.fail_link(0).unwrap();
        // Circuits either re-routed over surviving fibres or were lost;
        // none silently vanish.
        assert!((report.rerouted + report.lost) as usize <= circuits);
        // The same outstanding fault cannot be injected twice.
        let before = s.clone();
        assert!(s.fail_link(0).is_none());
        assert_eq!(s, before, "a refused link fault must not mutate the system");
        assert!(!s.repair_link(1), "no such severed link");

        assert!(s.repair_link(0));
        assert!(!s.repair_link(0), "repair is a one-shot");

        // The re-seated fibre carries new circuits again.
        s.release_vm(vm).unwrap();
        let again = s.allocate_vm(2, ByteSize::from_gib(4)).unwrap();
        assert!(s.vm_memory(again).is_some());
    }

    #[test]
    fn switch_failure_self_heals_on_the_standby() {
        let mut s = system();
        let vm = s.allocate_vm(2, ByteSize::from_gib(4)).unwrap();
        let circuits = s.topology().manager().circuit_count();

        // Every established circuit is re-programmed on the standby module.
        assert_eq!(s.fail_switch(), circuits);
        assert_eq!(s.topology().manager().circuit_count(), circuits);

        // Remote memory still reaches the pool through the standby.
        assert_eq!(s.vm_memory(vm), Some(ByteSize::from_gib(4)));
        let more = s.allocate_vm(1, ByteSize::from_gib(2)).unwrap();
        assert!(s.vm_memory(more).is_some());
    }

    /// Byte ranges of `s`'s snapshot stream: where the rack list's length
    /// prefix starts, where the rack payload ends, and where the brick
    /// stride starts.
    fn stream_layout(s: &DredboxSystem) -> (usize, usize, usize) {
        let mut out = Vec::new();
        out.extend_from_slice(&crate::snapshot::MAGIC);
        crate::snapshot::VERSION.snap(&mut out);
        s.config.snap(&mut out);
        let list = out.len();
        1usize.snap(&mut out);
        s.rack.snap(&mut out);
        s.topology.snap(&mut out);
        s.sdm.snap(&mut out);
        s.powered.snap(&mut out);
        let rack_end = out.len();
        s.cluster_section().snap(&mut out);
        (list, rack_end, out.len())
    }

    fn decode(bytes: &[u8]) -> Result<DredboxSystem, SnapError> {
        crate::SystemSnapshot::from_bytes(bytes).map(crate::SystemSnapshot::into_system)
    }

    fn one_vm_stream() -> (DredboxSystem, Vec<u8>) {
        let mut s = system();
        s.allocate_vm(2, ByteSize::from_gib(4)).unwrap();
        let bytes = crate::SystemSnapshot::capture(&s).to_bytes();
        assert_eq!(decode(&bytes).as_ref(), Ok(&s));
        (s, bytes)
    }

    #[test]
    fn a_zero_stride_is_rejected_at_decode() {
        let (s, mut bytes) = one_vm_stream();
        let (_, _, stride) = stream_layout(&s);
        let recorded = u32::from_le_bytes(bytes[stride..stride + 4].try_into().unwrap());
        assert_eq!(recorded as usize, s.config.bricks_per_rack());
        bytes[stride..stride + 4].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            decode(&bytes),
            Err(SnapError::Inconsistent {
                ty: "DredboxSystem"
            })
        );
    }

    #[test]
    fn rack_lists_of_any_length_but_one_are_rejected_at_decode() {
        let (s, bytes) = one_vm_stream();
        let (list, rack_end, _) = stream_layout(&s);
        let inconsistent = Err(SnapError::Inconsistent {
            ty: "DredboxSystem",
        });
        // No racks at all: the length prefix says 0 and the rack is gone.
        let mut empty = bytes[..list].to_vec();
        0usize.snap(&mut empty);
        empty.extend_from_slice(&bytes[rack_end..]);
        assert_eq!(decode(&empty), inconsistent);
        // Two racks: the same rack recorded twice.
        let mut two = bytes[..list].to_vec();
        2usize.snap(&mut two);
        two.extend_from_slice(&bytes[list + 8..rack_end]);
        two.extend_from_slice(&bytes[list + 8..]);
        assert_eq!(decode(&two), inconsistent);
    }

    #[test]
    fn a_cluster_section_or_config_that_disagrees_with_the_rack_is_rejected() {
        let (mut s, bytes) = one_vm_stream();
        let inconsistent = Err(SnapError::Inconsistent {
            ty: "DredboxSystem",
        });
        // A recorded digest that is not the decoded rack's.
        let (_, rack_end, stride) = stream_layout(&s);
        let mut cluster = s.cluster_section();
        let mut digest = s.digest();
        digest.free_cores += 1;
        cluster.upsert(RackId(0), digest);
        let mut stale = bytes[..rack_end].to_vec();
        cluster.snap(&mut stale);
        stale.extend_from_slice(&bytes[stride..]);
        assert_eq!(decode(&stale), inconsistent);
        // A drained rack: nothing drains a lone rack.
        let mut cluster = s.cluster_section();
        cluster.set_schedulable(RackId(0), false);
        let mut drained = bytes[..rack_end].to_vec();
        cluster.snap(&mut drained);
        drained.extend_from_slice(&bytes[stride..]);
        assert_eq!(decode(&drained), inconsistent);
        // A configuration claiming two racks.
        s.config.racks = 2;
        assert_eq!(
            decode(&crate::SystemSnapshot::capture(&s).to_bytes()),
            inconsistent
        );
    }

    #[test]
    fn multi_rack_configs_do_not_build() {
        for racks in [0, 2] {
            let config = SystemConfig::prototype_rack().with_racks(racks);
            assert!(matches!(
                DredboxSystem::build(config),
                Err(SystemError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn repair_realigns_power_view_after_a_sweep() {
        let mut s = system();
        let vm = s.allocate_vm(2, ByteSize::from_gib(4)).unwrap();
        let busy = s.vm_brick(vm).unwrap();
        let idle = s
            .rack()
            .bricks()
            .filter_map(|b| b.as_compute())
            .map(|c| c.id())
            .find(|&id| id != busy)
            .unwrap();

        // Crash an idle brick, then let a power sweep switch the corpse off.
        s.fail_compute_brick(idle).unwrap();
        s.power_off_unused();
        assert_eq!(
            s.rack()
                .brick(idle)
                .unwrap()
                .as_compute()
                .unwrap()
                .power_state(),
            PowerState::Off
        );

        // Repair re-aligns the controller's power view with the physical
        // state: the sleeping replacement counts as sleeping capacity in
        // the digest, not as free powered cores.
        let before = s.digest();
        assert_eq!(s.repair_compute_brick(idle), Ok(true));
        let after = s.digest();
        assert_eq!(after.free_cores, before.free_cores);
        assert_eq!(after.largest_sleeping_cores, 4);

        // And the replacement wakes through the normal wake-on-demand path.
        let woken: Vec<_> = (0..3)
            .map(|_| s.allocate_vm(4, ByteSize::from_gib(2)).unwrap())
            .collect();
        assert!(woken.iter().any(|&w| s.vm_brick(w) == Some(idle)));
    }
}
