//! The Software-Defined Memory controller (SDM-C).
//!
//! The SDM-C is the autonomous service that receives allocation and scale-up
//! requests, inspects availability, makes a power-conscious selection,
//! reserves the resources, and pushes configurations to the optical circuit
//! switch and the SDM agents on the involved dCOMPUBRICKs. It is the
//! component whose service time — together with the brick-local hotplug
//! work — determines the scale-up agility evaluated in Figure 10.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use dredbox_bricks::{BrickId, BrickMap, PortId};
use dredbox_interconnect::LatencyConfig;
use dredbox_memory::GRANT_INLINE_SEGMENTS;
use dredbox_memory::{
    AllocationPolicy, MemoryError, MemoryGrant, MemoryPool, MemorySegment, PickStrategy,
};
use dredbox_sim::flat::{FlatMap, FlatSet, InlineVec};
use dredbox_sim::queue::ControlPlaneQueue;
use dredbox_sim::time::{SimDuration, SimTime};
use dredbox_sim::units::{Bandwidth, ByteSize};

use crate::accel_index::{AccelIndex, AccelSlot};
use crate::capacity::{CapacityIndex, CapacitySlot};
use crate::error::OrchestratorError;
use crate::placement::{ComputeBrickView, PlacementPolicy};
use crate::requests::{OffloadRequest, ScaleUpDemand, VmAllocationRequest};
use crate::reservation::ReservationLedger;
use crate::sdm_agent::SdmAgent;

/// Control-plane latencies of the SDM controller itself.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SdmTimings {
    /// Receiving and parsing one request (REST/RPC overhead).
    pub request_rpc: SimDuration,
    /// Inspecting resource availability (database/state lookup).
    pub availability_check: SimDuration,
    /// Writing the reservation record.
    pub reservation_write: SimDuration,
    /// Programming one new cross-connection on the optical circuit switch
    /// (Polatis-class switches take tens of milliseconds to settle).
    pub circuit_switch_program: SimDuration,
    /// Pushing one configuration bundle to an SDM agent.
    pub agent_push: SimDuration,
    /// Extra scheduler/state-store contention charged per request found
    /// queued ahead of an arrival at the controller (the SDM-side analogue
    /// of `ScaleOutBaseline::per_concurrent_penalty`, charged through
    /// [`ControlPlaneQueue`]).
    pub queued_request_penalty: SimDuration,
}

impl SdmTimings {
    /// Defaults for the prototype's management plane.
    pub fn dredbox_default() -> Self {
        SdmTimings {
            request_rpc: SimDuration::from_millis(1),
            availability_check: SimDuration::from_millis(3),
            reservation_write: SimDuration::from_millis(2),
            circuit_switch_program: SimDuration::from_millis(25),
            agent_push: SimDuration::from_millis(2),
            queued_request_penalty: SimDuration::from_micros(500),
        }
    }
}

impl Default for SdmTimings {
    fn default() -> Self {
        SdmTimings::dredbox_default()
    }
}

/// The result of one scale-up handled by the controller: the memory grant
/// plus the controller-side service time (not including the brick-local
/// hotplug, which the Scale-up controller accounts separately).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ScaleUpGrant {
    /// The demand that was served.
    pub demand: ScaleUpDemand,
    /// The segments granted from the pool.
    pub grant: MemoryGrant,
    /// RMST base addresses installed on the compute brick, one per segment.
    pub rmst_bases: RmstBases,
    /// SDM-controller service time for this request.
    pub service_time: SimDuration,
}

/// The RMST bases of one grant's segments. One more base than a grant
/// keeps segments fits in the same 32 bytes (the list is as wide as a
/// `Vec` either way), so a grant split once past its inline segments
/// still records its bases in place.
pub(crate) type RmstBases = InlineVec<u64, { GRANT_INLINE_SEGMENTS + 1 }>;

/// The grants one VM holds: its admission grant and the scale-ups it has
/// not given back. A churn cycle adds a second, so two stay in place.
pub type VmGrants = InlineVec<ScaleUpGrant, 2>;

/// The result of migrating a VM's compute placement between bricks through
/// the SDM controller: the grants as re-based onto the destination (new
/// owner, new RMST bases on the destination agent) plus what the
/// reserve → re-route → drain → switchover flow cost at the control plane.
/// The dMEMBRICK segments themselves never move.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationOutcome {
    /// The brick the VM left.
    pub from: BrickId,
    /// The brick now hosting the VM's cores.
    pub to: BrickId,
    /// Cores moved.
    pub vcpus: u32,
    /// The VM's grants, re-pointed at the destination (same segments, new
    /// RMST bases). Replaces the caller's previous grant records.
    pub rebased: VmGrants,
    /// New optical circuits programmed towards the involved dMEMBRICKs.
    pub circuits_programmed: u32,
    /// Source-side circuits torn down because no RMST route needs them.
    pub circuits_torn_down: u32,
    /// SDM-controller service time of the whole flow.
    pub service_time: SimDuration,
}

/// Identifier of a live offload session managed by the SDM controller.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct OffloadSessionId(pub u64);

impl std::fmt::Display for OffloadSessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "offload{}", self.0)
    }
}

/// A live offload session: which VM-hosting compute brick streams which
/// kernel on which dACCELBRICK. Held by the controller from
/// [`SdmController::begin_offload`] until [`SdmController::end_offload`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OffloadSession {
    /// Session identifier.
    pub id: OffloadSessionId,
    /// The compute brick whose VM issued the offload.
    pub compute_brick: BrickId,
    /// The accelerator brick serving it.
    pub accel_brick: BrickId,
    /// Name of the kernel bitstream in the accelerator's slot.
    pub bitstream: Arc<str>,
    /// Input data the kernel streams through.
    pub input: ByteSize,
}

/// The result of one `begin_offload` handled by the controller: where the
/// session landed, what (if anything) had to be programmed, and the
/// controller-side service time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OffloadGrant {
    /// The new session.
    pub session: OffloadSession,
    /// Whether the accelerator was already programmed with the kernel
    /// (bitstream reuse — no PCAP reconfiguration paid).
    pub reused_bitstream: bool,
    /// Whether a sleeping accelerator had to be woken (its PR state was
    /// lost on power-down, so it also programmed).
    pub woke_brick: bool,
    /// Whether a new optical circuit from the compute brick to the
    /// accelerator was programmed on the switch.
    pub circuit_programmed: bool,
    /// PCAP partial-reconfiguration time paid (zero on reuse).
    pub pcap_time: SimDuration,
    /// SDM-controller service time for this request (includes `pcap_time`
    /// and any circuit programming).
    pub service_time: SimDuration,
}

/// What ending one offload session cost at the control plane.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OffloadRelease {
    /// The session that ended.
    pub session: OffloadSession,
    /// Whether the compute→accelerator circuit was torn down (no other
    /// session between the pair needed it).
    pub circuit_torn_down: bool,
    /// SDM-controller service time of the release.
    pub service_time: SimDuration,
}

/// Live compute→accelerator circuits, keyed `(compute brick, accelerator
/// brick)`, with the sessions using each. One sorted list instead of a map
/// per compute brick, so a compute brick's first session allocates
/// nothing. Encoded as the nested `compute → accelerator → users` map.
#[derive(Debug, Clone, PartialEq, Default)]
struct AccelCircuits(FlatMap<(BrickId, BrickId), u32>);

impl dredbox_snap::Snap for AccelCircuits {
    fn snap(&self, out: &mut Vec<u8>) {
        let mut nested: Vec<(BrickId, Vec<(BrickId, u32)>)> = Vec::new();
        for (&(compute, accel), &users) in self.0.iter() {
            match nested.last_mut() {
                Some((last, routes)) if *last == compute => routes.push((accel, users)),
                _ => nested.push((compute, vec![(accel, users)])),
            }
        }
        nested.snap(out);
    }

    /// Rejects an empty per-compute map: the controller never keeps one.
    fn unsnap(r: &mut dredbox_snap::Reader<'_>) -> Result<Self, dredbox_snap::SnapError> {
        let nested: BTreeMap<BrickId, BTreeMap<BrickId, u32>> = dredbox_snap::Snap::unsnap(r)?;
        if nested.values().any(BTreeMap::is_empty) {
            return Err(dredbox_snap::SnapError::Inconsistent {
                ty: "AccelCircuits",
            });
        }
        Ok(AccelCircuits(
            nested
                .iter()
                .flat_map(|(&compute, routes)| {
                    routes
                        .iter()
                        .map(move |(&accel, &users)| ((compute, accel), users))
                })
                .collect(),
        ))
    }
}

/// Authoritative per-accelerator state the controller schedules against.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct AccelState {
    /// Effective PCAP programming bandwidth, bits per second.
    pcap_bps: u64,
    /// Concurrent streaming slots (one per GTH transceiver).
    session_capacity: u32,
    /// Sessions currently streaming.
    active_sessions: u32,
    /// The kernel programmed into the reconfigurable slot.
    loaded: Option<Arc<str>>,
    /// Power view (synced with rack sweeps like the compute one).
    powered_on: bool,
}

impl AccelState {
    /// The brick's scheduling facts, as the index records them.
    fn slot(&self) -> AccelSlot {
        AccelSlot {
            loaded: self.loaded.clone(),
            active_sessions: self.active_sessions,
            session_capacity: self.session_capacity,
            pcap_bps: self.pcap_bps,
            powered_on: self.powered_on,
        }
    }

    /// PCAP partial-reconfiguration time for a bitstream of `size`.
    fn pcap_time(&self, size: ByteSize) -> SimDuration {
        SimDuration::from_secs_f64(size.as_bytes() as f64 * 8.0 / self.pcap_bps as f64)
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ComputeState {
    total_cores: u32,
    used_cores: u32,
    vm_count: u32,
    /// Multiset of per-VM core counts (vcpus → number of VMs holding that
    /// many), so releases can be matched against an actual admission.
    vm_cores: FlatMap<u32, u32>,
    gth_ports: u8,
    attached_segments: u32,
    powered_on: bool,
}

impl ComputeState {
    /// The brick's capacity facts, as the index records them.
    fn slot(&self) -> CapacitySlot {
        CapacitySlot {
            total_cores: self.total_cores,
            free_cores: self.total_cores - self.used_cores,
            active: self.vm_count > 0,
            powered_on: self.powered_on,
        }
    }
}

/// The SDM controller.
///
/// ```
/// use dredbox_orchestrator::*;
/// use dredbox_bricks::{BrickId, BrickMap};
/// use dredbox_sim::units::ByteSize;
///
/// let mut sdm = SdmController::dredbox_default();
/// sdm.register_compute_brick(BrickId(0), 32, 8);
/// sdm.register_membrick(BrickId(10), ByteSize::from_gib(32));
/// let grant = sdm.handle_scale_up(ScaleUpDemand::new(BrickId(0), ByteSize::from_gib(8)))?;
/// assert_eq!(grant.grant.total(), ByteSize::from_gib(8));
/// assert!(grant.service_time.as_millis_f64() > 0.0);
/// # Ok::<(), dredbox_orchestrator::OrchestratorError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SdmController {
    pool: MemoryPool,
    ledger: ReservationLedger,
    agents: BrickMap<SdmAgent>,
    compute: BrickMap<ComputeState>,
    /// Incremental availability view over `compute`, kept in lockstep by
    /// every allocate / release / power transition so placement queries are
    /// bitset lookups instead of rack-wide scans.
    capacity: CapacityIndex,
    placement: PlacementPolicy,
    timings: SdmTimings,
    latency_config: LatencyConfig,
    /// dMEMBRICKs each compute brick already has a circuit towards; new
    /// destinations need a switch-programming step.
    circuits: BrickMap<FlatSet<BrickId>>,
    /// Authoritative per-accelerator state, mirrored into `accel_index`.
    accel: BTreeMap<BrickId, AccelState>,
    /// Incremental availability view over `accel`, kept in lockstep by
    /// every offload begin/end and power transition (the dACCELBRICK
    /// analogue of `capacity`).
    accel_index: AccelIndex,
    /// Per compute brick, the accelerators it holds a circuit towards and
    /// how many live sessions use each (torn down when the count drains).
    accel_circuits: AccelCircuits,
    /// Live offload sessions by id.
    sessions: FlatMap<OffloadSessionId, OffloadSession>,
    next_session: u64,
    /// Compute bricks currently failed by fault injection. They stay
    /// registered — draining their VMs and migrating away from them uses
    /// the normal paths — but leave the capacity index, so placement never
    /// targets them until repair.
    failed_compute: BTreeSet<BrickId>,
    /// Accelerator bricks currently failed by fault injection; held out of
    /// the accelerator index like `failed_compute`.
    failed_accel: BTreeSet<BrickId>,
}

impl SdmController {
    /// Creates a controller with power-aware memory placement and default
    /// timings.
    pub fn dredbox_default() -> Self {
        SdmController::new(
            AllocationPolicy::PowerAware,
            PlacementPolicy::PowerAware,
            SdmTimings::dredbox_default(),
            LatencyConfig::dredbox_default(),
        )
    }

    /// Creates a controller with explicit policies and timings.
    pub fn new(
        memory_policy: AllocationPolicy,
        placement: PlacementPolicy,
        timings: SdmTimings,
        latency_config: LatencyConfig,
    ) -> Self {
        SdmController {
            pool: MemoryPool::new(memory_policy),
            ledger: ReservationLedger::new(),
            agents: BrickMap::new(),
            compute: BrickMap::new(),
            capacity: CapacityIndex::new(),
            placement,
            timings,
            latency_config,
            circuits: BrickMap::new(),
            accel: BTreeMap::new(),
            accel_index: AccelIndex::new(),
            accel_circuits: AccelCircuits::default(),
            sessions: FlatMap::new(),
            next_session: 0,
            failed_compute: BTreeSet::new(),
            failed_accel: BTreeSet::new(),
        }
    }

    /// The memory pool managed by the controller.
    pub fn pool(&self) -> &MemoryPool {
        &self.pool
    }

    /// The reservation ledger.
    pub fn ledger(&self) -> &ReservationLedger {
        &self.ledger
    }

    /// The SDM agent of a compute brick, if registered.
    pub fn agent(&self, brick: BrickId) -> Option<&SdmAgent> {
        self.agents.get(brick)
    }

    /// The controller's incremental availability view.
    pub fn capacity(&self) -> &CapacityIndex {
        &self.capacity
    }

    /// Switches the memory pool between its indexed and reference-scan
    /// dMEMBRICK selection — the equivalence-testing / benchmarking knob of
    /// [`MemoryPool::set_pick_strategy`].
    pub fn set_memory_pick_strategy(&mut self, strategy: PickStrategy) {
        self.pool.set_pick_strategy(strategy);
    }

    /// Registers a dCOMPUBRICK (and spawns its SDM agent).
    pub fn register_compute_brick(
        &mut self,
        brick: BrickId,
        cores: u32,
        gth_ports: u8,
    ) -> &mut Self {
        self.compute.insert(
            brick,
            ComputeState {
                total_cores: cores,
                used_cores: 0,
                vm_count: 0,
                vm_cores: FlatMap::new(),
                gth_ports: gth_ports.max(1),
                attached_segments: 0,
                powered_on: true,
            },
        );
        self.sync_capacity(brick);
        self.agents.insert(
            brick,
            SdmAgent::new(brick, &self.latency_config, 256, ByteSize::from_gib(1024)),
        );
        self
    }

    /// Re-indexes one brick's capacity slot from its authoritative state.
    /// Failed bricks are held *out* of the index instead, so no allocate /
    /// release / power transition on a dead brick can resurface it as a
    /// placement candidate before repair.
    fn sync_capacity(&mut self, brick: BrickId) {
        if self.failed_compute.contains(&brick) {
            self.capacity.remove(brick);
        } else if let Some(state) = self.compute.get(brick) {
            self.capacity.upsert(brick, state.slot());
        }
    }

    /// Registers a dMEMBRICK and its capacity with the pool.
    pub fn register_membrick(&mut self, brick: BrickId, capacity: ByteSize) -> &mut Self {
        self.pool.register_membrick(brick, capacity);
        self
    }

    /// Registers a dACCELBRICK: its PCAP programming bandwidth (the
    /// reprogram-cost key) and its concurrent streaming slots (one per GTH
    /// transceiver towards the rack interconnect).
    pub fn register_accel_brick(
        &mut self,
        brick: BrickId,
        pcap_bandwidth: Bandwidth,
        session_capacity: u32,
    ) -> &mut Self {
        self.accel.insert(
            brick,
            AccelState {
                pcap_bps: pcap_bandwidth.as_bps() as u64,
                session_capacity: session_capacity.max(1),
                active_sessions: 0,
                loaded: None,
                powered_on: true,
            },
        );
        self.sync_accel(brick);
        self
    }

    /// Re-indexes one accelerator's slot from its authoritative state,
    /// holding failed bricks out of the index like
    /// [`SdmController::sync_capacity`].
    fn sync_accel(&mut self, brick: BrickId) {
        if self.failed_accel.contains(&brick) {
            self.accel_index.remove(brick);
        } else if let Some(state) = self.accel.get(&brick) {
            self.accel_index.upsert(brick, state.slot());
        }
    }

    /// The controller's incremental accelerator-availability view.
    pub fn accel(&self) -> &AccelIndex {
        &self.accel_index
    }

    /// Number of registered accelerator bricks.
    pub fn accel_brick_count(&self) -> usize {
        self.accel.len()
    }

    /// Live offload sessions, ascending by id.
    pub fn offload_sessions(&self) -> impl Iterator<Item = &OffloadSession> {
        self.sessions.values()
    }

    /// Number of live offload sessions.
    pub fn offload_session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Accelerator bricks streaming no session (power-off candidates),
    /// ascending by id, served from the accelerator index.
    pub fn idle_accel_bricks(&self) -> impl Iterator<Item = BrickId> + '_ {
        self.accel_index.idle_bricks()
    }

    /// Number of registered compute bricks.
    pub fn compute_brick_count(&self) -> usize {
        self.compute.len()
    }

    /// Compute bricks currently running no VM (power-off candidates),
    /// ascending by id. Served straight from the capacity index — no
    /// per-call snapshot `Vec`.
    pub fn idle_compute_bricks(&self) -> impl Iterator<Item = BrickId> + '_ {
        self.capacity.idle_bricks()
    }

    /// dMEMBRICKs currently exporting nothing (power-off candidates),
    /// ascending by id, served from the pool's index.
    pub fn idle_membricks(&self) -> impl Iterator<Item = BrickId> + '_ {
        self.pool.unused_membricks()
    }

    /// Rebuilds the per-brick placement views by scanning every registered
    /// compute brick — the pre-index availability inspection, kept as the
    /// reference path for equivalence testing and benchmarking.
    pub fn compute_views(&self) -> Vec<ComputeBrickView> {
        self.compute_view_iter().collect()
    }

    /// [`SdmController::compute_views`] without collecting them: the
    /// debug cross-check of every admission walks this, so debug builds
    /// allocate no view list per admission.
    fn compute_view_iter(&self) -> impl Iterator<Item = ComputeBrickView> + Clone + '_ {
        // Failed bricks are skipped so the scan stays equivalent to the
        // index, which drops them on failure.
        self.compute
            .iter()
            .filter(|(b, _)| !self.failed_compute.contains(b))
            .map(|(b, s)| s.slot().view(b))
    }

    /// Handles a VM allocation request: picks a compute brick for the vCPUs
    /// and grants the requested memory from the pool. Returns the chosen
    /// brick, the grant and the controller service time.
    ///
    /// The brick is selected through the incremental [`CapacityIndex`]
    /// without a scan; [`SdmController::allocate_vm_scan`] is the reference
    /// implementation that re-scans the rack per request.
    ///
    /// # Errors
    ///
    /// * [`OrchestratorError::NoComputeCapacity`] if no brick fits the vCPUs.
    /// * Memory-pool errors if the pool cannot cover the request.
    pub fn allocate_vm(
        &mut self,
        request: VmAllocationRequest,
    ) -> Result<(BrickId, ScaleUpGrant), OrchestratorError> {
        let brick = self
            .placement
            .choose_indexed(&self.capacity, request.vcpus)
            .ok_or(OrchestratorError::NoComputeCapacity {
                requested_vcpus: request.vcpus,
            })?;
        debug_assert_eq!(
            Some(brick),
            self.placement
                .choose_from(self.compute_view_iter(), request.vcpus),
            "indexed placement diverged from the reference scan"
        );
        self.admit_on(brick, request)
    }

    /// Reference implementation of [`SdmController::allocate_vm`]: rebuilds
    /// the rack-wide view slice and scans it, exactly as the pre-index
    /// control plane did. Kept for equivalence testing and as the benchmark
    /// baseline; both paths make identical placement decisions.
    ///
    /// # Errors
    ///
    /// Same contract as [`SdmController::allocate_vm`].
    pub fn allocate_vm_scan(
        &mut self,
        request: VmAllocationRequest,
    ) -> Result<(BrickId, ScaleUpGrant), OrchestratorError> {
        let views = self.compute_views();
        let brick = self.placement.choose(&views, request.vcpus).ok_or(
            OrchestratorError::NoComputeCapacity {
                requested_vcpus: request.vcpus,
            },
        )?;
        self.admit_on(brick, request)
    }

    /// Admits a VM on the brick placement chose: reserve cores, grant
    /// memory, commit, and re-index the brick's capacity slot.
    fn admit_on(
        &mut self,
        brick: BrickId,
        request: VmAllocationRequest,
    ) -> Result<(BrickId, ScaleUpGrant), OrchestratorError> {
        if self.failed_compute.contains(&brick) {
            return Err(OrchestratorError::BrickFailed { brick });
        }
        // The wake-sleeping fallback of both placement paths screens on
        // *total* cores (a swept brick is normally empty), but the power
        // view can be flipped off under live VMs; never over-commit the
        // brick's cores in that case — reject instead of corrupting the
        // availability accounting.
        let state = self
            .compute
            .get(brick)
            .expect("placement returned a registered brick");
        if state.total_cores - state.used_cores < request.vcpus {
            return Err(OrchestratorError::NoComputeCapacity {
                requested_vcpus: request.vcpus,
            });
        }
        // Reserve the cores, grant memory, then commit. The memory itself is
        // reserved (and later released) by the inner scale-up, so holding it
        // here too would double-count it in the ledger.
        let reservation = self
            .ledger
            .reserve(Some(brick), request.vcpus, ByteSize::ZERO);
        let scale_up = match self.handle_scale_up(ScaleUpDemand::new(brick, request.memory)) {
            Ok(g) => g,
            Err(e) => {
                let _ = self.ledger.rollback(reservation);
                return Err(e);
            }
        };
        self.ledger.commit(reservation)?;
        let state = self
            .compute
            .get_mut(brick)
            .expect("placement returned a registered brick");
        state.used_cores += request.vcpus;
        state.vm_count += 1;
        *state.vm_cores.entry(request.vcpus).or_insert(0) += 1;
        state.powered_on = true;
        self.sync_capacity(brick);
        Ok((brick, scale_up))
    }

    /// Releases a terminated VM's cores back to its compute brick and drops
    /// the ledger hold, so departed capacity can be re-admitted — the other
    /// half of the closed admit → run → depart loop. The memory grants are
    /// released separately through [`SdmController::release_scale_up`].
    /// Returns the controller service time of the release.
    ///
    /// # Errors
    ///
    /// * [`OrchestratorError::UnknownComputeBrick`] for unregistered bricks.
    /// * [`OrchestratorError::MismatchedVmRelease`] if no VM with exactly
    ///   that core count was admitted on the brick; nothing is released in
    ///   that case, so the controller and ledger views never half-apply.
    pub fn release_vm(
        &mut self,
        brick: BrickId,
        vcpus: u32,
    ) -> Result<SimDuration, OrchestratorError> {
        let state = self
            .compute
            .get_mut(brick)
            .ok_or(OrchestratorError::UnknownComputeBrick { brick })?;
        if !state.vm_cores.contains_key(&vcpus) {
            return Err(OrchestratorError::MismatchedVmRelease { brick, vcpus });
        }
        self.ledger
            .release_committed(Some(brick), vcpus, ByteSize::ZERO)?;
        let state = self.compute.get_mut(brick).expect("checked above");
        let holders = state.vm_cores.get_mut(&vcpus).expect("checked above");
        *holders -= 1;
        if *holders == 0 {
            state.vm_cores.remove(&vcpus);
        }
        state.used_cores -= vcpus;
        state.vm_count -= 1;
        self.sync_capacity(brick);
        Ok(self.timings.request_rpc + self.timings.reservation_write)
    }

    /// Migrates a VM's compute placement from `from` to `to` while its
    /// memory stays resident on the dMEMBRICKs: reserves the destination
    /// cores in the two-phase ledger, installs the VM's segments on the
    /// destination agent (programming any missing circuits), then drains the
    /// source-side RMST routes, tears down circuits no remaining route
    /// needs, and switches the core accounting over — re-indexing both
    /// bricks' capacity slots incrementally.
    ///
    /// The flow is atomic: every failure path returns before the source (or
    /// any committed state) is touched, so a rejected migration leaves the
    /// controller bit-identical to before the call.
    ///
    /// # Errors
    ///
    /// * [`OrchestratorError::InvalidMigration`] if `from == to` or the
    ///   grants do not belong to `from`.
    /// * [`OrchestratorError::UnknownComputeBrick`] for unregistered bricks.
    /// * [`OrchestratorError::MismatchedVmRelease`] if no VM with exactly
    ///   `vcpus` cores was admitted on `from`.
    /// * [`OrchestratorError::NoComputeCapacity`] if `to` lacks the free
    ///   cores.
    /// * [`OrchestratorError::AttachLimit`] if the destination agent cannot
    ///   map all segments (RMST or remote-window exhaustion).
    pub fn migrate_vm(
        &mut self,
        from: BrickId,
        to: BrickId,
        vcpus: u32,
        grants: &[ScaleUpGrant],
    ) -> Result<MigrationOutcome, OrchestratorError> {
        // Validation phase: every rejection below leaves the controller
        // untouched.
        if from == to {
            return Err(OrchestratorError::InvalidMigration { from, to });
        }
        let src = self
            .compute
            .get(from)
            .ok_or(OrchestratorError::UnknownComputeBrick { brick: from })?;
        if !src.vm_cores.contains_key(&vcpus) {
            return Err(OrchestratorError::MismatchedVmRelease { brick: from, vcpus });
        }
        for grant in grants {
            let live = grant.grant.segments().iter().all(|s| self.pool.is_live(s));
            if grant.demand.compute_brick != from
                || grant.rmst_bases.len() != grant.grant.segments().len()
                || !live
            {
                return Err(OrchestratorError::InvalidMigration { from, to });
            }
        }
        if self.failed_compute.contains(&to) {
            return Err(OrchestratorError::BrickFailed { brick: to });
        }
        let dst = self
            .compute
            .get(to)
            .ok_or(OrchestratorError::UnknownComputeBrick { brick: to })?;
        if dst.total_cores - dst.used_cores < vcpus {
            return Err(OrchestratorError::NoComputeCapacity {
                requested_vcpus: vcpus,
            });
        }
        let dst_ports = u32::from(dst.gth_ports);
        let mut dst_attached = dst.attached_segments;
        let segment_count: u32 = grants.iter().map(|g| g.grant.segments().len() as u32).sum();

        let mut service_time = self.timings.request_rpc
            + self.timings.availability_check
            + self.timings.reservation_write;

        // Reserve: hold the destination cores in the two-phase ledger.
        let reservation = self.ledger.reserve(Some(to), vcpus, ByteSize::ZERO);

        // Re-route: install every segment on the destination agent *before*
        // touching the source, so an attach failure rolls back to the exact
        // pre-migration state while the source keeps serving.
        let mut new_bases: InlineVec<RmstBases, 2> = InlineVec::new();
        let mut attach_failed = false;
        {
            let agent = self
                .agents
                .get_mut(to)
                .expect("agent exists for every registered brick");
            'grants: for grant in grants {
                let mut bases = InlineVec::with_capacity(grant.grant.segments().len());
                for segment in grant.grant.segments() {
                    let port = PortId::new(to, (dst_attached % dst_ports) as u8);
                    match agent.apply_attach(segment, port) {
                        Ok(outcome) => {
                            service_time += self.timings.agent_push + outcome.control_time;
                            dst_attached += 1;
                            bases.push(outcome.rmst_base);
                        }
                        Err(_) => {
                            attach_failed = true;
                            new_bases.push(bases);
                            break 'grants;
                        }
                    }
                }
                new_bases.push(bases);
            }
            if attach_failed {
                for base in new_bases.iter().flatten() {
                    let _ = agent.apply_detach(*base);
                }
            }
        }
        if attach_failed {
            let _ = self.ledger.rollback(reservation);
            return Err(OrchestratorError::AttachLimit {
                brick: to,
                requested: grants.iter().map(|g| g.grant.total()).sum(),
            });
        }

        // Program circuits towards dMEMBRICKs the destination can't reach.
        // The involved dMEMBRICKs, ascending and each once.
        let mut involved: InlineVec<BrickId, 8> = grants
            .iter()
            .flat_map(|g| g.grant.segments().iter().map(|s| s.membrick))
            .collect();
        involved.sort_unstable();
        let mut previous = None;
        involved.retain(|&b| previous.replace(b) != Some(b));
        let known = self.circuits.get_or_insert_default(to);
        let mut circuits_programmed = 0u32;
        for membrick in &involved {
            if known.insert(*membrick) {
                circuits_programmed += 1;
            }
        }
        service_time += self
            .timings
            .circuit_switch_program
            .saturating_mul(u64::from(circuits_programmed));

        // Switchover: move the core accounting. Nothing past this point can
        // fail — the reservation is fresh and the source's committed cores
        // were validated above.
        self.ledger.commit(reservation)?;
        self.ledger
            .release_committed(Some(from), vcpus, ByteSize::ZERO)?;

        // Drain: unmap the source-side routes and tear down circuits no
        // remaining RMST entry needs.
        {
            let agent = self
                .agents
                .get_mut(from)
                .expect("agent exists for every registered brick");
            for base in grants.iter().flat_map(|g| g.rmst_bases.iter()) {
                if let Ok(t) = agent.apply_detach(*base) {
                    service_time += self.timings.agent_push + t;
                }
            }
        }
        let circuits_torn_down = self.tear_down_unused_circuits(from, involved.iter().copied());
        service_time += self
            .timings
            .circuit_switch_program
            .saturating_mul(u64::from(circuits_torn_down));

        // Re-index both bricks' capacity slots.
        let src = self.compute.get_mut(from).expect("validated above");
        let holders = src.vm_cores.get_mut(&vcpus).expect("validated above");
        *holders -= 1;
        if *holders == 0 {
            src.vm_cores.remove(&vcpus);
        }
        src.used_cores -= vcpus;
        src.vm_count -= 1;
        src.attached_segments = src.attached_segments.saturating_sub(segment_count);
        let dst = self.compute.get_mut(to).expect("validated above");
        dst.used_cores += vcpus;
        dst.vm_count += 1;
        *dst.vm_cores.entry(vcpus).or_insert(0) += 1;
        dst.attached_segments = dst_attached;
        dst.powered_on = true;
        self.sync_capacity(from);
        self.sync_capacity(to);

        // Re-point the pool's segment ownership and hand back the grants as
        // they now stand on the destination.
        let mut rebased = VmGrants::new();
        for (grant, bases) in grants.iter().zip(new_bases.iter_mut().map(std::mem::take)) {
            let regrant = self
                .pool
                .reassign_owner(&grant.grant, to)
                .expect("segments validated as live above");
            rebased.push(ScaleUpGrant {
                demand: ScaleUpDemand::new(to, grant.demand.amount),
                grant: regrant,
                rmst_bases: bases,
                service_time: grant.service_time,
            });
        }
        service_time += self.timings.reservation_write;

        Ok(MigrationOutcome {
            from,
            to,
            vcpus,
            rebased,
            circuits_programmed,
            circuits_torn_down,
            service_time,
        })
    }

    /// The consolidation-target query: the fullest active brick other than
    /// `exclude` that fits `vcpus` — migrating onto it packs the rack so
    /// the emptied source can be slept.
    pub fn consolidation_target(&self, vcpus: u32, exclude: BrickId) -> Option<BrickId> {
        self.capacity.fullest_active_fit_excluding(vcpus, exclude)
    }

    /// The hotspot-evacuation target query: the emptiest powered brick
    /// other than `exclude` that fits `vcpus`, waking a sleeping brick as a
    /// last resort.
    pub fn evacuation_target(&self, vcpus: u32, exclude: BrickId) -> Option<BrickId> {
        self.capacity
            .emptiest_powered_fit_excluding(vcpus, exclude)
            .or_else(|| {
                self.capacity
                    .first_sleeping_capable_excluding(vcpus, exclude)
            })
    }

    /// Tears down `brick`'s circuits towards the `involved` dMEMBRICKs
    /// that no remaining RMST route needs, returning how many were torn
    /// down (callers charge one switch-programming step per teardown).
    /// Shared by grant release and the migration drain so the circuit view
    /// always equals the set of dMEMBRICKs with live routes.
    fn tear_down_unused_circuits(
        &mut self,
        brick: BrickId,
        involved: impl IntoIterator<Item = BrickId>,
    ) -> u32 {
        let Some(agent) = self.agents.get(brick) else {
            return 0;
        };
        let Some(routes) = self.circuits.get_mut(brick) else {
            return 0;
        };
        let mut torn_down = 0u32;
        // A dMEMBRICK listed twice (a grant with two segments on it) is
        // torn down at most once: the second removal finds no route.
        for membrick in involved {
            if agent.tgl().rmst().towards_count(membrick) == 0 && routes.remove(&membrick) {
                torn_down += 1;
            }
        }
        torn_down
    }

    /// Updates the controller's power view of a compute brick, e.g. after a
    /// rack-level power sweep. Placement treats powered-off bricks as
    /// sleeping and wakes them only as a last resort; a successful
    /// [`SdmController::allocate_vm`] on the brick marks it powered on
    /// again.
    ///
    /// # Errors
    ///
    /// * [`OrchestratorError::UnknownComputeBrick`] for unregistered bricks.
    pub fn set_compute_power(
        &mut self,
        brick: BrickId,
        powered_on: bool,
    ) -> Result<(), OrchestratorError> {
        let state = self
            .compute
            .get_mut(brick)
            .ok_or(OrchestratorError::UnknownComputeBrick { brick })?;
        state.powered_on = powered_on;
        self.sync_capacity(brick);
        Ok(())
    }

    /// Updates the controller's power view of an accelerator brick, e.g.
    /// after a rack-level power sweep. Powering off drops the recorded
    /// bitstream (the fabric loses its partial-reconfiguration state), so
    /// future offloads of that kernel pay the PCAP programming again; a
    /// sleeping brick is woken only as a last resort by
    /// [`SdmController::begin_offload`].
    ///
    /// # Errors
    ///
    /// * [`OrchestratorError::UnknownAcceleratorBrick`] for unregistered
    ///   bricks.
    /// * [`OrchestratorError::AcceleratorBusy`] when switching off a brick
    ///   that still streams sessions; the power view is left untouched.
    pub fn set_accel_power(
        &mut self,
        brick: BrickId,
        powered_on: bool,
    ) -> Result<(), OrchestratorError> {
        let state = self
            .accel
            .get_mut(&brick)
            .ok_or(OrchestratorError::UnknownAcceleratorBrick { brick })?;
        if !powered_on && state.active_sessions > 0 {
            return Err(OrchestratorError::AcceleratorBusy {
                brick,
                sessions: state.active_sessions,
            });
        }
        state.powered_on = powered_on;
        if !powered_on {
            state.loaded = None;
        }
        self.sync_accel(brick);
        Ok(())
    }

    /// Begins an offload session: places the kernel on a dACCELBRICK
    /// already programmed with the needed bitstream if one has a free
    /// streaming slot, else picks the cheapest reprogram by PCAP time
    /// (empty slot first, then an idle loaded one, waking a sleeping brick
    /// as a last resort), programs the optical circuit from the VM's
    /// compute brick if none exists, takes a ledger hold on the session's
    /// streaming slot, and pushes the session configuration to the
    /// accelerator middleware.
    ///
    /// Rejections leave the controller bit-identical to before the call,
    /// like [`SdmController::migrate_vm`].
    ///
    /// # Errors
    ///
    /// * [`OrchestratorError::UnknownComputeBrick`] for unregistered
    ///   compute bricks.
    /// * [`OrchestratorError::NoAcceleratorCapacity`] when every
    ///   accelerator is saturated with sessions of other kernels.
    pub fn begin_offload(
        &mut self,
        request: OffloadRequest,
    ) -> Result<OffloadGrant, OrchestratorError> {
        // Validation phase: every rejection below leaves the controller
        // untouched.
        if !self.compute.contains_key(request.compute_brick) {
            return Err(OrchestratorError::UnknownComputeBrick {
                brick: request.compute_brick,
            });
        }
        if self.failed_compute.contains(&request.compute_brick) {
            return Err(OrchestratorError::BrickFailed {
                brick: request.compute_brick,
            });
        }
        let name = &request.bitstream.name;
        let (accel_brick, reused, woke) = if let Some(b) = self.accel_index.loaded_fit(name) {
            (b, true, false)
        } else if let Some(b) = self.accel_index.fastest_empty() {
            (b, false, false)
        } else if let Some(b) = self.accel_index.fastest_idle_loaded() {
            (b, false, false)
        } else if let Some(b) = self.accel_index.fastest_sleeping() {
            (b, false, true)
        } else {
            return Err(OrchestratorError::NoAcceleratorCapacity {
                bitstream: name.to_string(),
            });
        };

        // Nothing past placement can fail: reserve the streaming slot in
        // the two-phase ledger (one "core" on the accelerator brick per
        // session, so ledger holds always equal live sessions), then apply.
        let mut service_time = self.timings.request_rpc
            + self.timings.availability_check
            + self.timings.reservation_write;
        let reservation = self.ledger.reserve(Some(accel_brick), 1, ByteSize::ZERO);
        self.ledger
            .commit(reservation)
            .expect("freshly reserved id commits");

        let state = self
            .accel
            .get_mut(&accel_brick)
            .expect("index only holds registered bricks");
        let mut pcap_time = SimDuration::ZERO;
        if !reused {
            // PCAP partial reconfiguration (middleware stores the
            // bitstream, then reconfigures the PL through the static part).
            pcap_time = state.pcap_time(request.bitstream.size);
            service_time += pcap_time;
            state.loaded = Some(name.clone());
        }
        state.active_sessions += 1;
        state.powered_on = true;
        self.sync_accel(accel_brick);

        // Program the compute→accelerator circuit if this pair has none.
        let users = self
            .accel_circuits
            .0
            .entry((request.compute_brick, accel_brick))
            .or_insert(0);
        let circuit_programmed = *users == 0;
        *users += 1;
        if circuit_programmed {
            service_time += self.timings.circuit_switch_program;
        }
        // Push the session configuration to the accelerator middleware.
        service_time += self.timings.agent_push;

        let id = OffloadSessionId(self.next_session);
        self.next_session += 1;
        let session = OffloadSession {
            id,
            compute_brick: request.compute_brick,
            accel_brick,
            bitstream: name.clone(),
            input: request.input,
        };
        self.sessions.insert(id, session.clone());

        Ok(OffloadGrant {
            session,
            reused_bitstream: reused,
            woke_brick: woke,
            circuit_programmed,
            pcap_time,
            service_time,
        })
    }

    /// Ends an offload session: drops the ledger hold, frees the streaming
    /// slot (the bitstream stays loaded for reuse), and tears down the
    /// compute→accelerator circuit if no other session between the pair
    /// needs it — re-indexing the accelerator incrementally.
    ///
    /// # Errors
    ///
    /// * [`OrchestratorError::NoSuchOffloadSession`] for unknown or
    ///   already-ended sessions; the controller is left untouched.
    pub fn end_offload(
        &mut self,
        session: OffloadSessionId,
    ) -> Result<OffloadRelease, OrchestratorError> {
        let record = self
            .sessions
            .remove(&session)
            .ok_or(OrchestratorError::NoSuchOffloadSession { session })?;
        self.ledger
            .release_committed(Some(record.accel_brick), 1, ByteSize::ZERO)
            .expect("begin_offload committed this hold");
        let mut service_time =
            self.timings.request_rpc + self.timings.reservation_write + self.timings.agent_push;

        let state = self
            .accel
            .get_mut(&record.accel_brick)
            .expect("sessions only reference registered bricks");
        state.active_sessions -= 1;
        self.sync_accel(record.accel_brick);

        let mut circuit_torn_down = false;
        let pair = (record.compute_brick, record.accel_brick);
        if let Some(users) = self.accel_circuits.0.get_mut(&pair) {
            *users -= 1;
            if *users == 0 {
                self.accel_circuits.0.remove(&pair);
                circuit_torn_down = true;
                service_time += self.timings.circuit_switch_program;
            }
        }

        Ok(OffloadRelease {
            session: record,
            circuit_torn_down,
            service_time,
        })
    }

    /// Handles one scale-up demand: selects dMEMBRICK space (power-aware),
    /// reserves it, programs any new circuit, and pushes the attach
    /// configuration to the brick's SDM agent.
    ///
    /// # Errors
    ///
    /// * [`OrchestratorError::UnknownComputeBrick`] for unregistered bricks.
    /// * Memory-pool errors when the pool cannot cover the demand.
    /// * [`OrchestratorError::AttachLimit`] if the agent cannot install the
    ///   mapping (RMST or remote-window exhaustion).
    pub fn handle_scale_up(
        &mut self,
        demand: ScaleUpDemand,
    ) -> Result<ScaleUpGrant, OrchestratorError> {
        if !self.compute.contains_key(demand.compute_brick) {
            return Err(OrchestratorError::UnknownComputeBrick {
                brick: demand.compute_brick,
            });
        }
        if self.failed_compute.contains(&demand.compute_brick) {
            return Err(OrchestratorError::BrickFailed {
                brick: demand.compute_brick,
            });
        }
        let mut service_time = self.timings.request_rpc
            + self.timings.availability_check
            + self.timings.reservation_write;

        // Reserve, then carve the grant out of the pool.
        let reservation = self.ledger.reserve(None, 0, demand.amount);
        let grant = match self.pool.allocate(demand.compute_brick, demand.amount) {
            Ok(g) => g,
            Err(e) => {
                let _ = self.ledger.rollback(reservation);
                return Err(e.into());
            }
        };

        // Program circuits towards dMEMBRICKs this brick does not reach yet
        // (remembering which ones, so a failed attach can unwind them).
        let known = self.circuits.get_or_insert_default(demand.compute_brick);
        let mut new_circuits: InlineVec<BrickId, 16> = InlineVec::new();
        for segment in grant.segments() {
            if known.insert(segment.membrick) {
                new_circuits.push(segment.membrick);
            }
        }
        service_time += self
            .timings
            .circuit_switch_program
            .saturating_mul(new_circuits.len() as u64);

        // Push the attach configuration to the SDM agent.
        let state = self
            .compute
            .get_mut(demand.compute_brick)
            .expect("checked above");
        let agent = self
            .agents
            .get_mut(demand.compute_brick)
            .expect("agent exists for every registered brick");
        let mut rmst_bases = InlineVec::with_capacity(grant.segments().len());
        for segment in grant.segments() {
            let port_index = (state.attached_segments % u32::from(state.gth_ports)) as u8;
            let port = PortId::new(demand.compute_brick, port_index);
            match agent.apply_attach(segment, port) {
                Ok(outcome) => {
                    service_time += self.timings.agent_push + outcome.control_time;
                    state.attached_segments += 1;
                    rmst_bases.push(outcome.rmst_base);
                }
                Err(_) => {
                    // Roll everything back: agent mappings, freshly
                    // programmed circuits, pool grant, reservation.
                    for base in &rmst_bases {
                        let _ = agent.apply_detach(*base);
                    }
                    if let Some(routes) = self.circuits.get_mut(demand.compute_brick) {
                        for membrick in &new_circuits {
                            routes.remove(membrick);
                        }
                    }
                    let _ = self.pool.release_grant(&grant);
                    let _ = self.ledger.rollback(reservation);
                    return Err(OrchestratorError::AttachLimit {
                        brick: demand.compute_brick,
                        requested: demand.amount,
                    });
                }
            }
        }
        self.ledger.commit(reservation)?;
        Ok(ScaleUpGrant {
            demand,
            grant,
            rmst_bases,
            service_time,
        })
    }

    /// Releases a previous scale-up grant: detaches the RMST mappings and
    /// returns the segments to the pool. Returns the controller service
    /// time of the release.
    ///
    /// # Errors
    ///
    /// Propagates pool errors for unknown segments.
    pub fn release_scale_up(
        &mut self,
        grant: &ScaleUpGrant,
    ) -> Result<SimDuration, OrchestratorError> {
        let mut service_time = self.timings.request_rpc + self.timings.reservation_write;
        if let Some(agent) = self.agents.get_mut(grant.demand.compute_brick) {
            for base in &grant.rmst_bases {
                if let Ok(t) = agent.apply_detach(*base) {
                    service_time += self.timings.agent_push + t;
                }
            }
        }
        // Tear down circuits no remaining RMST route needs, so the
        // controller's circuit view tracks the data path (and future
        // scale-ups to that dMEMBRICK re-program the switch, as the
        // hardware would).
        let involved = grant.grant.segments().iter().map(|s| s.membrick);
        let torn_down = self.tear_down_unused_circuits(grant.demand.compute_brick, involved);
        service_time += self
            .timings
            .circuit_switch_program
            .saturating_mul(u64::from(torn_down));
        self.pool.release_grant(&grant.grant)?;
        self.ledger
            .release_committed(None, 0, grant.grant.total())?;
        Ok(service_time)
    }

    /// Processes a burst of concurrent scale-up demands. The SDM controller
    /// is a single autonomous service, so requests are serialized through a
    /// [`ControlPlaneQueue`]: each request's completion delay includes the
    /// service times of the requests queued ahead of it plus the
    /// per-queued-request contention penalty
    /// ([`SdmTimings::queued_request_penalty`]) — the "aggressiveness of
    /// scale-up concurrency" effect visible in Figure 10, charged by the
    /// same queue model the scenario engine and the scale-out baseline use.
    ///
    /// Returns, for each demand (in order), the grant and its completion
    /// delay (queueing + own service time). Demands that fail are skipped.
    pub fn scale_up_burst(
        &mut self,
        demands: &[ScaleUpDemand],
    ) -> Vec<(ScaleUpGrant, SimDuration)> {
        let mut queue = ControlPlaneQueue::new(self.timings.queued_request_penalty);
        let mut results = Vec::with_capacity(demands.len());
        for demand in demands {
            match self.handle_scale_up(*demand) {
                Ok(grant) => {
                    let admission = queue.admit(SimTime::ZERO, grant.service_time);
                    results.push((grant, admission.completion.duration_since(SimTime::ZERO)));
                }
                Err(_) => continue,
            }
        }
        results
    }

    // --- Fault injection -------------------------------------------------

    /// Marks a dCOMPUBRICK failed: it leaves the capacity index and is
    /// refused as a placement, migration or scale-up target, while staying
    /// registered so its live state can be drained through the normal
    /// release / migration paths. Returns `false` if it was already failed
    /// (a no-op).
    ///
    /// # Errors
    ///
    /// * [`OrchestratorError::UnknownComputeBrick`] for unregistered bricks.
    pub fn fail_compute_brick(&mut self, brick: BrickId) -> Result<bool, OrchestratorError> {
        if !self.compute.contains_key(brick) {
            return Err(OrchestratorError::UnknownComputeBrick { brick });
        }
        if !self.failed_compute.insert(brick) {
            return Ok(false);
        }
        // A dead brick draws nothing; the index entry goes with it.
        if let Some(state) = self.compute.get_mut(brick) {
            state.powered_on = false;
        }
        self.sync_capacity(brick);
        Ok(true)
    }

    /// Repairs a previously failed dCOMPUBRICK: the replacement boots
    /// powered-on and rejoins the capacity index. The fault-handling layer
    /// drains VMs at failure time, so the brick's accounting is expected to
    /// be empty here — nothing is zeroed, keeping the ledger authoritative.
    /// Returns `false` if the brick was not failed (a no-op).
    ///
    /// # Errors
    ///
    /// * [`OrchestratorError::UnknownComputeBrick`] for unregistered bricks.
    pub fn repair_compute_brick(&mut self, brick: BrickId) -> Result<bool, OrchestratorError> {
        if !self.compute.contains_key(brick) {
            return Err(OrchestratorError::UnknownComputeBrick { brick });
        }
        if !self.failed_compute.remove(&brick) {
            return Ok(false);
        }
        if let Some(state) = self.compute.get_mut(brick) {
            state.powered_on = true;
        }
        self.sync_capacity(brick);
        Ok(true)
    }

    /// Marks a dACCELBRICK failed: it leaves the accelerator index and its
    /// partial-reconfiguration state is lost (future offloads of the same
    /// kernel pay the PCAP programming again after repair). Live sessions
    /// stay recorded until the fault-handling layer drains them through
    /// [`SdmController::end_offload`]. Returns `false` if it was already
    /// failed.
    ///
    /// # Errors
    ///
    /// * [`OrchestratorError::UnknownAcceleratorBrick`] for unregistered
    ///   bricks.
    pub fn fail_accel_brick(&mut self, brick: BrickId) -> Result<bool, OrchestratorError> {
        if !self.accel.contains_key(&brick) {
            return Err(OrchestratorError::UnknownAcceleratorBrick { brick });
        }
        if !self.failed_accel.insert(brick) {
            return Ok(false);
        }
        let state = self.accel.get_mut(&brick).expect("checked above");
        state.powered_on = false;
        state.loaded = None;
        self.sync_accel(brick);
        Ok(true)
    }

    /// Repairs a previously failed dACCELBRICK: it boots powered-on with an
    /// empty fabric and rejoins the accelerator index. Returns `false` if
    /// the brick was not failed.
    ///
    /// # Errors
    ///
    /// * [`OrchestratorError::UnknownAcceleratorBrick`] for unregistered
    ///   bricks.
    pub fn repair_accel_brick(&mut self, brick: BrickId) -> Result<bool, OrchestratorError> {
        if !self.accel.contains_key(&brick) {
            return Err(OrchestratorError::UnknownAcceleratorBrick { brick });
        }
        if !self.failed_accel.remove(&brick) {
            return Ok(false);
        }
        let state = self.accel.get_mut(&brick).expect("checked above");
        state.powered_on = true;
        self.sync_accel(brick);
        Ok(true)
    }

    /// Fails a dMEMBRICK through the pool (see
    /// [`MemoryPool::fail_membrick`]) and forgets every compute brick's
    /// circuit towards it — the fibre now leads nowhere, and survivors
    /// re-program the switch on their next scale-up. Returns the lost
    /// segments, ascending by id, so the fault-handling layer can unwind
    /// the grants that referenced them.
    ///
    /// # Errors
    ///
    /// Propagates [`MemoryError::UnknownMemBrick`] for unregistered or
    /// already-failed bricks.
    pub fn fail_membrick(
        &mut self,
        brick: BrickId,
    ) -> Result<Vec<MemorySegment>, OrchestratorError> {
        let lost = self.pool.fail_membrick(brick)?;
        for (_, routes) in self.circuits.iter_mut() {
            routes.remove(&brick);
        }
        Ok(lost)
    }

    /// Repairs a previously failed dMEMBRICK: its full capacity rejoins the
    /// pool empty (the outage wiped the DIMMs). Returns the restored
    /// capacity.
    ///
    /// # Errors
    ///
    /// Propagates [`MemoryError::UnknownMemBrick`] if the brick is not
    /// failed.
    pub fn repair_membrick(&mut self, brick: BrickId) -> Result<ByteSize, OrchestratorError> {
        Ok(self.pool.repair_membrick(brick)?)
    }

    /// Live offload sessions streaming *on* the given accelerator brick,
    /// ascending by id — the drain list when the brick fails.
    pub fn sessions_on_accel(&self, brick: BrickId) -> Vec<OffloadSessionId> {
        self.sessions
            .values()
            .filter(|s| s.accel_brick == brick)
            .map(|s| s.id)
            .collect()
    }

    /// [`SdmController::release_scale_up`] for grants that may reference
    /// segments lost with a failed dMEMBRICK: live segments return to the
    /// pool, lost ones are skipped, and the ledger hold is released in full
    /// either way so the two-phase accounting stays balanced. Returns the
    /// controller service time and how many bytes were already gone.
    ///
    /// # Errors
    ///
    /// Propagates pool errors other than the tolerated
    /// [`MemoryError::NoSuchSegment`].
    pub fn release_scale_up_lossy(
        &mut self,
        grant: &ScaleUpGrant,
    ) -> Result<(SimDuration, ByteSize), OrchestratorError> {
        let mut service_time = self.timings.request_rpc + self.timings.reservation_write;
        if let Some(agent) = self.agents.get_mut(grant.demand.compute_brick) {
            for base in &grant.rmst_bases {
                if let Ok(t) = agent.apply_detach(*base) {
                    service_time += self.timings.agent_push + t;
                }
            }
        }
        let involved = grant.grant.segments().iter().map(|s| s.membrick);
        let torn_down = self.tear_down_unused_circuits(grant.demand.compute_brick, involved);
        service_time += self
            .timings
            .circuit_switch_program
            .saturating_mul(u64::from(torn_down));
        let mut lost = 0u64;
        for seg in grant.grant.segments() {
            match self.pool.release(seg) {
                Ok(()) => {}
                Err(MemoryError::NoSuchSegment { .. }) => lost += seg.size.as_bytes(),
                Err(e) => return Err(e.into()),
            }
        }
        self.ledger
            .release_committed(None, 0, grant.grant.total())?;
        Ok((service_time, ByteSize::from_bytes(lost)))
    }
}

impl Default for SdmController {
    fn default() -> Self {
        SdmController::dredbox_default()
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_struct!(SdmTimings {
    request_rpc,
    availability_check,
    reservation_write,
    circuit_switch_program,
    agent_push,
    queued_request_penalty,
});
dredbox_snap::snap_struct!(ScaleUpGrant {
    demand,
    grant,
    rmst_bases,
    service_time,
});
dredbox_snap::snap_newtype!(OffloadSessionId(u64));
dredbox_snap::snap_struct!(OffloadSession {
    id,
    compute_brick,
    accel_brick,
    bitstream,
    input,
});
dredbox_snap::snap_struct!(AccelState {
    pcap_bps,
    session_capacity,
    active_sessions,
    loaded,
    powered_on,
});
dredbox_snap::snap_struct!(ComputeState {
    total_cores,
    used_cores,
    vm_count,
    vm_cores,
    gth_ports,
    attached_segments,
    powered_on,
});
dredbox_snap::snap_struct!(SdmController {
    pool,
    ledger,
    agents,
    compute,
    capacity,
    placement,
    timings,
    latency_config,
    circuits,
    accel,
    accel_index,
    accel_circuits,
    sessions,
    next_session,
    failed_compute,
    failed_accel,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> SdmController {
        let mut sdm = SdmController::dredbox_default();
        for b in 0..4u32 {
            sdm.register_compute_brick(BrickId(b), 32, 8);
        }
        for b in 10..14u32 {
            sdm.register_membrick(BrickId(b), ByteSize::from_gib(32));
        }
        sdm
    }

    #[test]
    fn scale_up_grants_memory_and_configures_the_agent() {
        let mut sdm = controller();
        let grant = sdm
            .handle_scale_up(ScaleUpDemand::new(BrickId(0), ByteSize::from_gib(8)))
            .unwrap();
        assert_eq!(grant.grant.total(), ByteSize::from_gib(8));
        assert_eq!(grant.rmst_bases.len(), grant.grant.segments().len());
        // Service time includes one circuit programming (first contact with
        // that dMEMBRICK) plus the fixed overheads: tens of milliseconds.
        assert!(grant.service_time.as_millis_f64() > 25.0);
        assert!(grant.service_time.as_secs_f64() < 1.0);
        assert_eq!(
            sdm.agent(BrickId(0)).unwrap().mapped_remote_memory(),
            ByteSize::from_gib(8)
        );
        assert_eq!(sdm.pool().total_allocated(), ByteSize::from_gib(8));
        assert_eq!(sdm.ledger().held_memory(), ByteSize::from_gib(8));
    }

    #[test]
    fn second_scale_up_to_the_same_membrick_skips_circuit_programming() {
        let mut sdm = controller();
        let first = sdm
            .handle_scale_up(ScaleUpDemand::new(BrickId(0), ByteSize::from_gib(4)))
            .unwrap();
        let second = sdm
            .handle_scale_up(ScaleUpDemand::new(BrickId(0), ByteSize::from_gib(4)))
            .unwrap();
        assert!(second.service_time < first.service_time);
        let delta = first.service_time - second.service_time;
        assert_eq!(delta, SdmTimings::dredbox_default().circuit_switch_program);
    }

    #[test]
    fn release_returns_memory_and_unmaps() {
        let mut sdm = controller();
        let grant = sdm
            .handle_scale_up(ScaleUpDemand::new(BrickId(1), ByteSize::from_gib(16)))
            .unwrap();
        let t = sdm.release_scale_up(&grant).unwrap();
        assert!(t.as_millis_f64() > 0.0);
        assert_eq!(sdm.pool().total_allocated(), ByteSize::ZERO);
        assert_eq!(sdm.ledger().held_memory(), ByteSize::ZERO);
        assert_eq!(
            sdm.agent(BrickId(1)).unwrap().mapped_remote_memory(),
            ByteSize::ZERO
        );
        assert_eq!(sdm.idle_membricks().count(), 4);
    }

    #[test]
    fn vm_allocation_places_cores_and_memory() {
        let mut sdm = controller();
        let (brick, grant) = sdm
            .allocate_vm(VmAllocationRequest::new(8, ByteSize::from_gib(24)))
            .unwrap();
        assert!(sdm.compute_brick_count() == 4);
        assert_eq!(grant.grant.total(), ByteSize::from_gib(24));
        assert_eq!(grant.demand.compute_brick, brick);
        assert_eq!(sdm.idle_compute_bricks().count(), 3);
        // Power-aware placement keeps packing the same brick.
        let (brick2, _) = sdm
            .allocate_vm(VmAllocationRequest::new(8, ByteSize::from_gib(8)))
            .unwrap();
        assert_eq!(brick, brick2);
        // Impossible requests fail cleanly.
        assert!(matches!(
            sdm.allocate_vm(VmAllocationRequest::new(64, ByteSize::from_gib(1))),
            Err(OrchestratorError::NoComputeCapacity { .. })
        ));
        let before_free = sdm.pool().total_free();
        assert!(sdm
            .allocate_vm(VmAllocationRequest::new(1, ByteSize::from_gib(500)))
            .is_err());
        assert_eq!(
            sdm.pool().total_free(),
            before_free,
            "failed allocation must not leak"
        );
    }

    #[test]
    fn released_vms_return_their_cores_for_re_admission() {
        let mut sdm = SdmController::dredbox_default();
        sdm.register_compute_brick(BrickId(0), 32, 8);
        sdm.register_membrick(BrickId(10), ByteSize::from_gib(32));
        // Fill the brick, then terminate and re-admit: the closed loop must
        // not leak cores or ledger holds.
        for _ in 0..3 {
            let (brick, grant) = sdm
                .allocate_vm(VmAllocationRequest::new(32, ByteSize::from_gib(8)))
                .unwrap();
            // The brick is full now: another VM cannot be placed.
            assert!(matches!(
                sdm.allocate_vm(VmAllocationRequest::new(32, ByteSize::from_gib(8))),
                Err(OrchestratorError::NoComputeCapacity { .. })
            ));
            let t = sdm.release_vm(brick, 32).unwrap();
            assert!(t > SimDuration::ZERO);
            sdm.release_scale_up(&grant).unwrap();
        }
        assert_eq!(sdm.idle_compute_bricks().count(), 1);
        assert_eq!(sdm.ledger().held_memory(), ByteSize::ZERO);
        assert_eq!(sdm.ledger().held_cores(BrickId(0)), 0);
        assert!(matches!(
            sdm.release_vm(BrickId(99), 1),
            Err(OrchestratorError::UnknownComputeBrick { .. })
        ));
        // With no VM left, another release must be rejected without touching
        // the availability view.
        assert!(matches!(
            sdm.release_vm(BrickId(0), 32),
            Err(OrchestratorError::MismatchedVmRelease { .. })
        ));
        // A release spanning several VMs' cores must not pass either: admit
        // a 4-core and an 8-core VM, then try to release "12 cores".
        let (b1, _) = sdm
            .allocate_vm(VmAllocationRequest::new(4, ByteSize::from_gib(1)))
            .unwrap();
        let (b2, _) = sdm
            .allocate_vm(VmAllocationRequest::new(8, ByteSize::from_gib(1)))
            .unwrap();
        assert_eq!(b1, b2, "power-aware placement packs one brick");
        assert!(matches!(
            sdm.release_vm(b1, 12),
            Err(OrchestratorError::MismatchedVmRelease { .. })
        ));
        sdm.release_vm(b1, 8).unwrap();
        sdm.release_vm(b1, 4).unwrap();
    }

    #[test]
    fn power_view_steers_placement_away_from_swept_bricks() {
        let mut sdm = controller();
        // Sweep bricks 1-3; placement must now prefer the powered brick 0.
        for b in 1..4u32 {
            sdm.set_compute_power(BrickId(b), false).unwrap();
        }
        let (brick, grant) = sdm
            .allocate_vm(VmAllocationRequest::new(8, ByteSize::from_gib(4)))
            .unwrap();
        assert_eq!(brick, BrickId(0));
        sdm.release_vm(brick, 8).unwrap();
        sdm.release_scale_up(&grant).unwrap();
        // With every brick swept, the lowest-id sleeping brick is woken.
        sdm.set_compute_power(BrickId(0), false).unwrap();
        let (woken, _) = sdm
            .allocate_vm(VmAllocationRequest::new(8, ByteSize::from_gib(4)))
            .unwrap();
        assert_eq!(woken, BrickId(0));
        assert!(matches!(
            sdm.set_compute_power(BrickId(77), true),
            Err(OrchestratorError::UnknownComputeBrick { .. })
        ));
    }

    #[test]
    fn waking_an_occupied_swept_brick_never_over_commits() {
        let mut sdm = SdmController::dredbox_default();
        sdm.register_compute_brick(BrickId(0), 32, 8);
        sdm.register_membrick(BrickId(10), ByteSize::from_gib(32));
        sdm.allocate_vm(VmAllocationRequest::new(20, ByteSize::from_gib(1)))
            .unwrap();
        // Sweep the brick while its VM still runs, then ask for more cores
        // than remain: the wake fallback selects the brick on total
        // capacity, but the admission must reject rather than over-commit
        // (which would underflow the brick's free-core accounting).
        sdm.set_compute_power(BrickId(0), false).unwrap();
        for request in [
            VmAllocationRequest::new(16, ByteSize::from_gib(1)),
            VmAllocationRequest::new(13, ByteSize::from_gib(1)),
        ] {
            assert!(matches!(
                sdm.allocate_vm(request),
                Err(OrchestratorError::NoComputeCapacity { .. })
            ));
            assert!(matches!(
                sdm.allocate_vm_scan(request),
                Err(OrchestratorError::NoComputeCapacity { .. })
            ));
        }
        // The remaining capacity is still admittable, and the rejected
        // requests left nothing behind in the ledger.
        let (brick, _) = sdm
            .allocate_vm(VmAllocationRequest::new(12, ByteSize::from_gib(1)))
            .unwrap();
        assert_eq!(brick, BrickId(0));
        assert_eq!(sdm.ledger().held_cores(BrickId(0)), 32);
    }

    #[test]
    fn unknown_brick_and_oversize_demands_fail() {
        let mut sdm = controller();
        assert!(matches!(
            sdm.handle_scale_up(ScaleUpDemand::new(BrickId(77), ByteSize::from_gib(1))),
            Err(OrchestratorError::UnknownComputeBrick { .. })
        ));
        assert!(matches!(
            sdm.handle_scale_up(ScaleUpDemand::new(BrickId(0), ByteSize::from_gib(1_000))),
            Err(OrchestratorError::Memory(_))
        ));
        assert_eq!(sdm.ledger().held_memory(), ByteSize::ZERO);
    }

    #[test]
    fn burst_delays_grow_with_queue_position() {
        let mut sdm = controller();
        let demands: Vec<ScaleUpDemand> = (0..4u32)
            .map(|i| ScaleUpDemand::new(BrickId(i), ByteSize::from_gib(4)))
            .collect();
        let results = sdm.scale_up_burst(&demands);
        assert_eq!(results.len(), 4);
        for pair in results.windows(2) {
            assert!(
                pair[1].1 > pair[0].1,
                "completion delays must be increasing"
            );
        }
        // The last requester waits for everyone ahead of it, plus the
        // queued-request contention penalty of each position it queued at
        // (1 + 2 + 3 requests ahead across the burst).
        let total_service: SimDuration = results.iter().map(|(g, _)| g.service_time).sum();
        let penalties = SdmTimings::dredbox_default()
            .queued_request_penalty
            .saturating_mul(1 + 2 + 3);
        assert_eq!(results.last().unwrap().1, total_service + penalties);
    }

    #[test]
    fn migration_moves_cores_and_reroutes_memory() {
        let mut sdm = controller();
        let (from, grant) = sdm
            .allocate_vm(VmAllocationRequest::new(8, ByteSize::from_gib(8)))
            .unwrap();
        let to = BrickId(if from.0 == 3 { 2 } else { 3 });
        let pool_allocated = sdm.pool().total_allocated();

        let outcome = sdm
            .migrate_vm(from, to, 8, std::slice::from_ref(&grant))
            .unwrap();
        assert_eq!(outcome.from, from);
        assert_eq!(outcome.to, to);
        assert_eq!(outcome.rebased.len(), 1);
        // The memory never moved: same segments, same pool totals.
        assert_eq!(sdm.pool().total_allocated(), pool_allocated);
        assert_eq!(
            outcome.rebased[0].grant.segments()[0].id,
            grant.grant.segments()[0].id
        );
        assert_eq!(outcome.rebased[0].demand.compute_brick, to);
        // The routes moved: the source agent maps nothing, the destination
        // maps the full grant; the destination paid circuit programming.
        assert_eq!(
            sdm.agent(from).unwrap().mapped_remote_memory(),
            ByteSize::ZERO
        );
        assert_eq!(
            sdm.agent(to).unwrap().mapped_remote_memory(),
            ByteSize::from_gib(8)
        );
        assert!(outcome.circuits_programmed >= 1);
        assert!(outcome.circuits_torn_down >= 1);
        assert!(outcome.service_time > SimDuration::ZERO);
        // The cores moved: source releasable state is gone, destination has
        // the VM.
        assert!(matches!(
            sdm.release_vm(from, 8),
            Err(OrchestratorError::MismatchedVmRelease { .. })
        ));
        sdm.release_vm(to, 8).unwrap();
        sdm.release_scale_up(&outcome.rebased[0]).unwrap();
        assert_eq!(sdm.pool().total_allocated(), ByteSize::ZERO);
        assert_eq!(sdm.ledger().held_memory(), ByteSize::ZERO);
        assert_eq!(sdm.ledger().held_cores(from), 0);
        assert_eq!(sdm.ledger().held_cores(to), 0);
    }

    #[test]
    fn rejected_migration_leaves_the_controller_untouched() {
        let mut sdm = controller();
        let (from, grant) = sdm
            .allocate_vm(VmAllocationRequest::new(8, ByteSize::from_gib(8)))
            .unwrap();
        // Fill the destination brick completely so the cores don't fit.
        let to = BrickId(if from.0 == 3 { 2 } else { 3 });
        let filler = ScaleUpDemand::new(to, ByteSize::from_gib(1));
        let _filler_grant = sdm.handle_scale_up(filler).unwrap();
        // Occupy all of `to`'s cores through the public admission path.
        // (Power off the other bricks so placement must use `to`.)
        for b in 0..4u32 {
            if BrickId(b) != to {
                sdm.set_compute_power(BrickId(b), false).unwrap();
            }
        }
        let (occupied, _) = sdm
            .allocate_vm(VmAllocationRequest::new(32, ByteSize::from_gib(1)))
            .unwrap();
        assert_eq!(occupied, to);
        for b in 0..4u32 {
            sdm.set_compute_power(BrickId(b), true).unwrap();
        }

        let before = sdm.clone();
        // No free cores on the destination.
        assert!(matches!(
            sdm.migrate_vm(from, to, 8, std::slice::from_ref(&grant)),
            Err(OrchestratorError::NoComputeCapacity { .. })
        ));
        assert_eq!(sdm, before, "failed migration must not mutate state");
        // Self-migration and bogus bricks are rejected just as cleanly.
        assert!(matches!(
            sdm.migrate_vm(from, from, 8, std::slice::from_ref(&grant)),
            Err(OrchestratorError::InvalidMigration { .. })
        ));
        assert!(matches!(
            sdm.migrate_vm(from, BrickId(99), 8, std::slice::from_ref(&grant)),
            Err(OrchestratorError::UnknownComputeBrick { .. })
        ));
        assert!(matches!(
            sdm.migrate_vm(from, to, 5, std::slice::from_ref(&grant)),
            Err(OrchestratorError::MismatchedVmRelease { .. })
        ));
        // Grants that don't belong to the source are rejected.
        let stranger = ScaleUpGrant {
            demand: ScaleUpDemand::new(BrickId(99), ByteSize::from_gib(8)),
            ..grant.clone()
        };
        assert!(matches!(
            sdm.migrate_vm(from, to, 8, &[stranger]),
            Err(OrchestratorError::InvalidMigration { .. })
        ));
        assert_eq!(sdm, before);
    }

    fn accel_controller() -> SdmController {
        let mut sdm = controller();
        for b in 20..22u32 {
            sdm.register_accel_brick(BrickId(b), Bandwidth::from_gbps(3.2), 2);
        }
        sdm
    }

    fn offload(kernel: &str) -> OffloadRequest {
        OffloadRequest::new(
            BrickId(0),
            dredbox_bricks::Bitstream::new(kernel, ByteSize::from_mib(16)),
            ByteSize::from_gib(1),
        )
    }

    #[test]
    fn offload_reuses_programmed_bitstreams_and_charges_pcap_otherwise() {
        let mut sdm = accel_controller();
        let first = sdm.begin_offload(offload("sobel")).unwrap();
        assert!(!first.reused_bitstream);
        assert!(first.circuit_programmed);
        assert!(first.pcap_time.as_millis_f64() > 10.0, "16 MiB over PCAP");
        assert_eq!(first.session.accel_brick, BrickId(20));
        assert_eq!(sdm.ledger().held_cores(BrickId(20)), 1);

        // Same kernel: lands on the programmed brick, no PCAP, no new
        // circuit (same compute brick), strictly cheaper.
        let second = sdm.begin_offload(offload("sobel")).unwrap();
        assert!(second.reused_bitstream);
        assert!(!second.circuit_programmed);
        assert_eq!(second.pcap_time, SimDuration::ZERO);
        assert_eq!(second.session.accel_brick, BrickId(20));
        assert!(second.service_time < first.service_time);
        assert_eq!(sdm.offload_session_count(), 2);
        assert_eq!(sdm.ledger().held_cores(BrickId(20)), 2);

        // A different kernel cannot evict the busy brick: it programs the
        // empty one.
        let third = sdm.begin_offload(offload("aes")).unwrap();
        assert!(!third.reused_bitstream);
        assert_eq!(third.session.accel_brick, BrickId(21));

        // Ending the sessions drains holds and tears the circuit down once
        // the last session between the pair ends.
        let rel = sdm.end_offload(second.session.id).unwrap();
        assert!(!rel.circuit_torn_down, "first sobel session still live");
        let rel = sdm.end_offload(first.session.id).unwrap();
        assert!(rel.circuit_torn_down);
        assert_eq!(sdm.ledger().held_cores(BrickId(20)), 0);
        // The bitstream survived for reuse.
        assert_eq!(
            sdm.accel().slot(BrickId(20)).unwrap().loaded.as_deref(),
            Some("sobel")
        );
        sdm.end_offload(third.session.id).unwrap();
        assert_eq!(sdm.offload_session_count(), 0);
        assert_eq!(sdm.idle_accel_bricks().count(), 2);
    }

    #[test]
    fn rejected_offloads_leave_the_controller_untouched() {
        let mut sdm = accel_controller();
        // Saturate both bricks (2 streaming slots each) with two kernels.
        let mut live = Vec::new();
        for kernel in ["a", "a", "b", "b"] {
            live.push(sdm.begin_offload(offload(kernel)).unwrap());
        }
        let before = sdm.clone();
        // A third kernel has no reuse target, no empty slot, no idle loaded
        // brick and nothing sleeping: rejected as a perfect no-op.
        assert!(matches!(
            sdm.begin_offload(offload("c")),
            Err(OrchestratorError::NoAcceleratorCapacity { .. })
        ));
        assert_eq!(sdm, before, "failed offload must not mutate state");
        // Unknown compute bricks and bogus sessions too.
        let mut bogus = offload("a");
        bogus.compute_brick = BrickId(99);
        assert!(matches!(
            sdm.begin_offload(bogus),
            Err(OrchestratorError::UnknownComputeBrick { .. })
        ));
        assert!(matches!(
            sdm.end_offload(OffloadSessionId(999)),
            Err(OrchestratorError::NoSuchOffloadSession { .. })
        ));
        assert_eq!(sdm, before);
        for grant in live {
            sdm.end_offload(grant.session.id).unwrap();
        }
    }

    #[test]
    fn accel_power_view_wakes_and_reprograms_on_demand() {
        let mut sdm = accel_controller();
        let grant = sdm.begin_offload(offload("sobel")).unwrap();
        // A streaming brick cannot be swept off.
        assert!(matches!(
            sdm.set_accel_power(BrickId(20), false),
            Err(OrchestratorError::AcceleratorBusy { sessions: 1, .. })
        ));
        sdm.end_offload(grant.session.id).unwrap();
        // Sweeping both bricks drops the cached bitstreams.
        sdm.set_accel_power(BrickId(20), false).unwrap();
        sdm.set_accel_power(BrickId(21), false).unwrap();
        assert!(sdm.accel().slot(BrickId(20)).unwrap().loaded.is_none());
        // The next offload wakes a sleeping brick and pays the PCAP again.
        let woken = sdm.begin_offload(offload("sobel")).unwrap();
        assert!(woken.woke_brick);
        assert!(!woken.reused_bitstream);
        assert_eq!(woken.session.accel_brick, BrickId(20));
        assert!(sdm.accel().slot(BrickId(20)).unwrap().powered_on);
        assert!(matches!(
            sdm.set_accel_power(BrickId(77), true),
            Err(OrchestratorError::UnknownAcceleratorBrick { .. })
        ));
    }

    #[test]
    fn consolidation_and_evacuation_targets_exclude_the_source() {
        let mut sdm = controller();
        let (brick, _) = sdm
            .allocate_vm(VmAllocationRequest::new(8, ByteSize::from_gib(4)))
            .unwrap();
        // Only one active brick: consolidation has nowhere else to pack.
        assert_eq!(sdm.consolidation_target(8, brick), None);
        // Evacuation spreads onto the emptiest other brick.
        let target = sdm.evacuation_target(8, brick).unwrap();
        assert_ne!(target, brick);
        // With everything else asleep, evacuation wakes a sleeping brick.
        for b in 0..4u32 {
            if BrickId(b) != brick {
                sdm.set_compute_power(BrickId(b), false).unwrap();
            }
        }
        let woken = sdm.evacuation_target(8, brick).unwrap();
        assert_ne!(woken, brick);
    }

    #[test]
    fn failed_compute_bricks_leave_placement_until_repair() {
        let mut sdm = controller();
        // Power-aware placement would pick brick 0; fail it.
        assert!(sdm.fail_compute_brick(BrickId(0)).unwrap());
        assert!(!sdm.fail_compute_brick(BrickId(0)).unwrap(), "idempotent");
        let (brick, grant) = sdm
            .allocate_vm(VmAllocationRequest::new(8, ByteSize::from_gib(4)))
            .unwrap();
        assert_ne!(brick, BrickId(0));
        // Scale-ups, migrations and offloads towards the dead brick are
        // refused without touching state.
        let before = sdm.clone();
        assert!(matches!(
            sdm.handle_scale_up(ScaleUpDemand::new(BrickId(0), ByteSize::from_gib(1))),
            Err(OrchestratorError::BrickFailed { .. })
        ));
        assert!(matches!(
            sdm.migrate_vm(brick, BrickId(0), 8, std::slice::from_ref(&grant)),
            Err(OrchestratorError::BrickFailed { .. })
        ));
        assert_eq!(sdm, before);
        // Repair returns it to the index; power-aware packing prefers the
        // already-active brick, but an exact query can land on it again.
        assert!(sdm.repair_compute_brick(BrickId(0)).unwrap());
        assert!(!sdm.repair_compute_brick(BrickId(0)).unwrap());
        assert!(sdm.capacity().slot(BrickId(0)).is_some());
        assert!(matches!(
            sdm.fail_compute_brick(BrickId(99)),
            Err(OrchestratorError::UnknownComputeBrick { .. })
        ));
    }

    #[test]
    fn membrick_failure_loses_segments_and_lossy_release_balances_the_ledger() {
        let mut sdm = controller();
        let grant = sdm
            .handle_scale_up(ScaleUpDemand::new(BrickId(0), ByteSize::from_gib(8)))
            .unwrap();
        let victim = grant.grant.segments()[0].membrick;
        let lost = sdm.fail_membrick(victim).unwrap();
        assert!(!lost.is_empty());
        // The strict release would trip over the lost segments; the lossy
        // one skips them and still zeroes the ledger hold.
        let (t, lost_bytes) = sdm.release_scale_up_lossy(&grant).unwrap();
        assert!(t.as_millis_f64() > 0.0);
        assert_eq!(lost_bytes, ByteSize::from_gib(8));
        assert_eq!(sdm.ledger().held_memory(), ByteSize::ZERO);
        assert_eq!(sdm.pool().total_allocated(), ByteSize::ZERO);
        // Repair restores the full capacity, empty.
        let restored = sdm.repair_membrick(victim).unwrap();
        assert_eq!(restored, ByteSize::from_gib(32));
        assert!(sdm.repair_membrick(victim).is_err(), "not failed twice");
    }

    #[test]
    fn failed_accelerators_drain_and_rejoin_with_a_cold_fabric() {
        let mut sdm = accel_controller();
        let first = sdm.begin_offload(offload("sobel")).unwrap();
        let target = first.session.accel_brick;
        assert!(sdm.fail_accel_brick(target).unwrap());
        assert!(!sdm.fail_accel_brick(target).unwrap(), "idempotent");
        // The drain list names the stranded session; ending it keeps the
        // ledger balanced even though the brick is dead.
        let stranded = sdm.sessions_on_accel(target);
        assert_eq!(stranded, vec![first.session.id]);
        sdm.end_offload(first.session.id).unwrap();
        assert_eq!(sdm.ledger().held_cores(target), 0);
        // Placement avoids the dead brick; retry lands on the survivor.
        let retry = sdm.begin_offload(offload("sobel")).unwrap();
        assert_ne!(retry.session.accel_brick, target);
        sdm.end_offload(retry.session.id).unwrap();
        // Repair brings it back powered-on with no bitstream loaded.
        assert!(sdm.repair_accel_brick(target).unwrap());
        let slot = sdm.accel().slot(target).unwrap();
        assert!(slot.powered_on && slot.loaded.is_none());
        assert!(matches!(
            sdm.fail_accel_brick(BrickId(99)),
            Err(OrchestratorError::UnknownAcceleratorBrick { .. })
        ));
    }
}
