//! The mutable world the sharded discrete-event engine drives.
//!
//! This module is the state-machine half of the scenario engine: the
//! [`ScenarioEvent`] alphabet, the per-replay [`Counters`], and
//! [`ScenarioWorld`] — the [`ShardedProcess`] implementation that turns
//! each popped event into calls on the [`DredboxSystem`] and schedules the
//! follow-ups. The spec/report half lives in the parent module.
//!
//! Hot-path discipline: the world never clones system state per event —
//! VM and hypervisor records are interned in slab arenas inside
//! [`DredboxSystem`], every SDM request serializes through the owning
//! rack's [`ControlPlaneQueue`], and power sweeps batch per rack per tick
//! via [`DredboxSystem::power_off_unused_in`].
//!
//! ## Two orchestration tiers, one event alphabet
//!
//! On a single-rack system an [`ScenarioEvent::Arrival`] admits inline,
//! exactly as it always has. When the system federates racks, this world
//! no longer sees arrivals at all: the cluster front door (shard 0 of the
//! partitioned [`ClusterWorld`](super::cluster::ClusterWorld)) batches the
//! arrival trace per control interval, consults its capacity digests and
//! hands each request to the chosen rack's shard as a timestamped
//! [`ScenarioEvent::AdmitOn`] message — one control-network hop later the
//! rack's own SDM controller admits (or spills back to the front door).
//! Each rack's world then owns a single-rack [`DredboxSystem`], so every
//! follow-up of the VM's life is rack-local and a worker thread can drive
//! the rack without sharing mutable state.

use std::collections::BTreeMap;
use std::sync::Arc;

use dredbox_bricks::{BrickId, RackId};
use dredbox_orchestrator::{OffloadSessionId, RackDigest};
use dredbox_sim::engine::RunOutcome;
use dredbox_sim::fault::{FailureSchedule, FaultInjector, FaultKind, FaultSite};
use dredbox_sim::parallel::WorkerContext;
use dredbox_sim::queue::{ControlPlaneQueue, QueueAdmission};
use dredbox_sim::rng::SimRng;
use dredbox_sim::shard::{ShardContext, ShardId, ShardedProcess};
use dredbox_sim::stats::Summary;
use dredbox_sim::time::{SimDuration, SimTime};
use dredbox_sim::units::ByteSize;
use dredbox_workload::VmDemand;

use crate::snapshot::SystemSnapshot;
use crate::system::{
    AdmissionOutcome, DredboxSystem, MigrationReport, OffloadReport, SystemError, VmHandle,
};

use super::datapath::DataPathState;
use super::{
    AvailabilityStats, ChurnModel, ClusterScenarioStats, MigrationPolicy, ScenarioReport,
    ScenarioSpec,
};

/// Events driving one scenario replay. Every calendar and mailbox entry
/// holds one, so the enum is kept at 24 bytes: a payload that would widen
/// it travels boxed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) enum ScenarioEvent {
    /// The `index`-th VM of the trace arrives and requests admission
    /// (single-rack systems only — on a federated cluster the front door
    /// holds the arrival trace and emits [`ScenarioEvent::AdmitOn`]).
    Arrival { index: usize },
    /// A routed admission lands on `rack`'s SDM controller, one
    /// control-network hop after the front door routed it. `tried` is the
    /// bitmask of racks that already rejected this request, so a spillover
    /// never revisits one.
    AdmitOn { index: usize, rack: u16, tried: u64 },
    /// A rack rejected a routed admission: the request returns to the
    /// front door, which picks the next candidate off `tried`.
    SpillOver { index: usize, tried: u64 },
    /// The cluster front door wakes, dispatches every arrival due since
    /// the last tick, and re-arms itself one control interval out.
    FrontDoorTick,
    /// A rack shard publishes its capacity digest to the front door
    /// (periodic, one control interval apart).
    DigestPublish,
    /// A published digest arrives at the front door one routing read
    /// later.
    DigestUpdate { rack: u16, digest: Box<RackDigest> },
    /// A churning VM grows by `amount` through the Scale-up API.
    ScaleUp {
        vm: VmHandle,
        remaining: u32,
        amount: ByteSize,
    },
    /// A churning VM gives `amount` back.
    ScaleDown {
        vm: VmHandle,
        remaining: u32,
        amount: ByteSize,
    },
    /// The VM's lifetime ends; all its resources return to the pool.
    Departure { vm: VmHandle },
    /// A VM issues a near-data offload request per the spec's
    /// [`OffloadPlan`](super::OffloadPlan).
    OffloadBegin { vm: VmHandle, remaining: u32 },
    /// An offload session ends; the accelerator's streaming slot frees.
    OffloadEnd {
        vm: VmHandle,
        session: OffloadSessionId,
        remaining: u32,
    },
    /// Periodic power-management sweep over one rack's bricks.
    PowerSweep { rack: u16 },
    /// Drain `rack`: stop routing admissions to it and migrate its VMs
    /// onto the other racks, per the spec's [`DrainPlan`](super::DrainPlan).
    DrainRack { rack: u16 },
    /// Periodic migration/rebalance pass per the spec's
    /// [`MigrationPolicy`].
    Rebalance,
    /// The `index`-th fault of the spec's seeded
    /// [`FailureSchedule`] strikes its site.
    Fault { index: usize },
    /// The field engineer repairs the `index`-th fault's site.
    Repair { index: usize },
    /// One stage of the spec's [`UpgradePlan`](super::UpgradePlan): drain
    /// `rack`, snapshot the controller, restore it bit-identically and
    /// readmit the rack.
    UpgradeRack { rack: u16 },
    /// One sampled burst of the VM's remote-memory access stream per the
    /// spec's [`DataPathConfig`](super::DataPathConfig).
    ReadBurst { vm: VmHandle, remaining: u32 },
}

/// Plain event counters of one replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct Counters {
    pub(super) admitted: u64,
    pub(super) rejected: u64,
    pub(super) live: u64,
    pub(super) peak_live: u64,
    pub(super) departed: u64,
    pub(super) scale_ups: u64,
    pub(super) scale_up_failures: u64,
    pub(super) scale_downs: u64,
    pub(super) power_sweeps: u64,
    pub(super) bricks_powered_off: u64,
    pub(super) rebalances: u64,
    pub(super) migrations: u64,
    pub(super) migration_failures: u64,
    pub(super) evacuations: u64,
    pub(super) offloads: u64,
    pub(super) offload_failures: u64,
    pub(super) offloads_completed: u64,
    pub(super) bitstream_reuses: u64,
    pub(super) bitstream_programs: u64,
    pub(super) accel_wakes: u64,
}

/// The remote-read transfer sizes the per-arrival read charges draw from.
const READ_SIZES: [u64; 4] = [64, 256, 1_024, 4_096];

/// Where a dispatched event's follow-ups land.
///
/// The same world logic runs under three drivers: the serial
/// [`ShardedEngine`](dredbox_sim::shard::ShardedEngine) loop
/// ([`ShardContext`]), a worker thread of the threaded runner
/// ([`WorkerContext`]), and a coordinator-side staging buffer used while a
/// serial barrier event manipulates several rack worlds at once (a plain
/// `Vec` the caller forwards to the right shard afterwards).
pub(super) trait EventSink {
    /// Schedules a follow-up on the shard that dispatched the event.
    fn schedule(&mut self, at: SimTime, event: ScenarioEvent);
}

impl EventSink for ShardContext<'_, ScenarioEvent> {
    fn schedule(&mut self, at: SimTime, event: ScenarioEvent) {
        ShardContext::schedule(self, at, event);
    }
}

impl EventSink for WorkerContext<'_, ScenarioEvent> {
    fn schedule(&mut self, at: SimTime, event: ScenarioEvent) {
        WorkerContext::schedule(self, at, event);
    }
}

impl EventSink for Vec<(SimTime, ScenarioEvent)> {
    fn schedule(&mut self, at: SimTime, event: ScenarioEvent) {
        self.push((at, event));
    }
}

/// The mutable world the discrete-event engine drives.
pub(super) struct ScenarioWorld<'a> {
    pub(super) spec: &'a ScenarioSpec,
    pub(super) system: DredboxSystem,
    pub(super) demands: Arc<Vec<VmDemand>>,
    pub(super) rng: SimRng,
    pub(super) counters: Counters,
    /// Cluster-tier telemetry; reported only on multi-rack systems.
    pub(super) cluster_stats: ClusterScenarioStats,
    /// Serializes every SDM request of the replay (admissions, scale-ups,
    /// releases, migrations) — one queue per rack, keyed by the rack that
    /// owns the touched VM, so both sharding modes charge the same queue.
    pub(super) control_planes: Vec<ControlPlaneQueue>,
    /// Number of racks this world owns (1 on a partitioned rack world).
    pub(super) racks: u16,
    pub(super) scale_up_delays_s: Vec<f64>,
    pub(super) read_latencies_ns: Vec<f64>,
    /// Precomputed remote-read latency total per [`READ_SIZES`] entry —
    /// valid ONLY while the latency model is pure in the transfer size.
    /// Every draw goes through [`ScenarioWorld::read_latency_for`], which
    /// bypasses this table whenever the spec configures the load-dependent
    /// data path.
    read_latency_table: [f64; READ_SIZES.len()],
    /// Live data-path model (fabric load, caches, granularity controller);
    /// `None` replays the flat latency model unchanged.
    pub(super) data_path: Option<DataPathState>,
    pub(super) utilization: Vec<f64>,
    pub(super) migration_downtime_s: Vec<f64>,
    pub(super) precopy_counterfactual_s: Vec<f64>,
    pub(super) scaleout_counterfactual_s: Vec<f64>,
    pub(super) control_plane_wait_s: Vec<f64>,
    pub(super) offload_time_s: Vec<f64>,
    pub(super) offload_local_counterfactual_s: Vec<f64>,
    pub(super) accel_utilization: Vec<f64>,
    /// The spec's seeded fault schedule (empty when the spec has none);
    /// [`ScenarioEvent::Fault`]/[`ScenarioEvent::Repair`] index into it.
    pub(super) faults: FailureSchedule,
    /// Which sites are down and the MTTR samples collected so far.
    pub(super) injector: FaultInjector,
    /// Availability telemetry; reported only when the spec injects faults
    /// or runs a rolling upgrade.
    pub(super) availability: AvailabilityStats,
    /// VMs affected per struck fault (blast radius samples).
    pub(super) blast_radius_vms: Vec<f64>,
    /// VMs lost to each currently-outstanding fault, so the repair can
    /// charge VM-seconds lost over the whole outage.
    pub(super) lost_at: BTreeMap<FaultSite, u64>,
}

impl<'a> ScenarioWorld<'a> {
    /// Builds the world for one replay: one control-plane queue per rack
    /// (each paying the spec's per-queued-request penalty) and empty
    /// counters/metric series.
    pub(super) fn new(
        spec: &'a ScenarioSpec,
        system: DredboxSystem,
        demands: Arc<Vec<VmDemand>>,
        faults: FailureSchedule,
        rng: SimRng,
    ) -> Self {
        let penalty = spec.system.sdm_timings.queued_request_penalty;
        // The racks this world actually owns: the whole federation on the
        // serial single-system path, exactly one on a partitioned rack
        // world of the threaded cluster runner.
        let racks = system.rack_count() as u16;
        // The *flat* remote-read latency model is pure in the transfer
        // size, so the per-arrival read charges can look totals up instead
        // of rebuilding a hop-by-hop breakdown per read. The table is a
        // cache of that purity assumption — read_latency_for() bypasses it
        // the moment the spec configures the load-dependent data path.
        let read_latency_table = READ_SIZES.map(|size| {
            system
                .remote_read_latency(ByteSize::from_bytes(size))
                .total()
                .as_nanos() as f64
        });
        let data_path = spec.data_path.map(|cfg| DataPathState::new(cfg, racks));
        ScenarioWorld {
            spec,
            system,
            demands,
            rng,
            read_latency_table,
            data_path,
            counters: Counters::default(),
            cluster_stats: ClusterScenarioStats {
                racks: u64::from(racks),
                admissions_per_rack: vec![0; usize::from(racks)],
                power_off_per_rack: vec![0; usize::from(racks)],
                ..ClusterScenarioStats::default()
            },
            control_planes: (0..racks)
                .map(|_| ControlPlaneQueue::new(penalty))
                .collect(),
            racks,
            scale_up_delays_s: Vec::new(),
            read_latencies_ns: Vec::new(),
            utilization: Vec::new(),
            migration_downtime_s: Vec::new(),
            precopy_counterfactual_s: Vec::new(),
            scaleout_counterfactual_s: Vec::new(),
            control_plane_wait_s: Vec::new(),
            offload_time_s: Vec::new(),
            offload_local_counterfactual_s: Vec::new(),
            accel_utilization: Vec::new(),
            faults,
            injector: FaultInjector::new(),
            availability: AvailabilityStats::default(),
            blast_radius_vms: Vec::new(),
            lost_at: BTreeMap::new(),
        }
    }

    /// Maps a fault site's rack-relative ordinal onto the `component`-th
    /// brick of its kind in the rack (wrapped, so any schedule value names
    /// a real brick). `None` for unknown racks or kinds the rack has no
    /// bricks of.
    pub(super) fn fault_brick(
        &self,
        rack: RackId,
        kind: FaultKind,
        component: u32,
    ) -> Option<BrickId> {
        let rack = self.system.rack_at(rack)?;
        let ids: Vec<BrickId> = rack
            .bricks()
            .filter(|b| match kind {
                FaultKind::ComputeBrick => b.as_compute().is_some(),
                FaultKind::MemoryBrick => b.as_memory().is_some(),
                FaultKind::AccelBrick => b.as_accelerator().is_some(),
                FaultKind::Link | FaultKind::Switch => false,
            })
            .map(|b| b.id())
            .collect();
        if ids.is_empty() {
            None
        } else {
            Some(ids[component as usize % ids.len()])
        }
    }

    /// The rack owning a VM's compute brick, as a control-plane queue
    /// index; rack 0 when the VM is already gone (the result is only used
    /// on paths that verified the VM exists).
    pub(super) fn vm_rack(&self, vm: VmHandle) -> usize {
        self.system
            .vm_brick(vm)
            .map_or(0, |b| usize::from(self.system.rack_of(b).0))
    }

    /// The single accessor every remote-read latency draw goes through.
    ///
    /// When the spec configures the data path, the latency model is no
    /// longer pure in the transfer size (it depends on live fabric load),
    /// so the precomputed table is bypassed and the live model is consulted
    /// per read. On the contention-free path the table is used — and
    /// checked against the live model in debug builds, so a future impure
    /// model cannot silently serve stale entries.
    fn read_latency_for(&mut self, vm: VmHandle, slot: usize) -> f64 {
        let size = ByteSize::from_bytes(READ_SIZES[slot]);
        match self.data_path.as_mut() {
            Some(dp) => dp.direct_read_ns(&self.system, vm, size),
            None => {
                debug_assert_eq!(
                    self.read_latency_table[slot],
                    self.system.remote_read_latency(size).total().as_nanos() as f64,
                    "read-latency table diverged from the live model"
                );
                self.read_latency_table[slot]
            }
        }
    }

    /// Charges the configured number of remote reads (of mixed transfer
    /// sizes) through the interconnect latency model. The per-read size
    /// draw is unchanged from the pre-data-path engine.
    fn charge_reads(&mut self, vm: VmHandle) {
        for _ in 0..self.spec.reads_per_vm {
            let pick = self.rng.choose(&READ_SIZES).expect("sizes non-empty");
            let slot = READ_SIZES
                .iter()
                .position(|s| s == pick)
                .expect("chosen from READ_SIZES");
            let ns = self.read_latency_for(vm, slot);
            self.read_latencies_ns.push(ns);
        }
    }

    pub(super) fn sample_utilization(&mut self) {
        self.utilization.push(self.system.pool_utilization());
        // Accelerator utilization is sampled only on systems that carry
        // dACCELBRICKs, so accelerator-free scenarios report `None`.
        if self.spec.system.total_accel_bricks() > 0 {
            self.accel_utilization.push(self.system.accel_utilization());
        }
    }

    /// Records one successful offload's report and counters.
    fn record_offload(&mut self, now: SimTime, report: &OffloadReport) -> QueueAdmission {
        let admission =
            self.admit_control(usize::from(report.rack.0), now, report.orchestration_delay);
        self.counters.offloads += 1;
        if report.reused_bitstream {
            self.counters.bitstream_reuses += 1;
        } else {
            self.counters.bitstream_programs += 1;
        }
        if report.woke_brick {
            self.counters.accel_wakes += 1;
        }
        self.offload_time_s
            .push((admission.queue_wait + report.offload_total).as_secs_f64());
        self.offload_local_counterfactual_s
            .push(report.local_compute.as_secs_f64());
        admission
    }

    fn sample_churn_amount(&mut self, churn: &ChurnModel) -> ByteSize {
        let (lo, hi) = churn.amount_gib;
        if lo >= hi {
            ByteSize::from_gib(lo)
        } else {
            ByteSize::from_gib(self.rng.range(lo..=hi))
        }
    }

    /// Serializes one SDM request through the owning rack's control-plane
    /// queue and records its queueing delay.
    pub(super) fn admit_control(
        &mut self,
        rack: usize,
        now: SimTime,
        service: SimDuration,
    ) -> QueueAdmission {
        let admission = self.control_planes[rack].admit(now, service);
        self.control_plane_wait_s
            .push(admission.queue_wait.as_secs_f64());
        admission
    }

    /// Books one successful admission: counters, the owning rack's
    /// control-plane serialization, the per-VM read charges, and the VM's
    /// scheduled future (departure, churn, offloads).
    fn finish_admission<S: EventSink>(
        &mut self,
        outcome: AdmissionOutcome,
        now: SimTime,
        ctx: &mut S,
    ) {
        let vm = outcome.vm;
        self.counters.admitted += 1;
        self.counters.live += 1;
        self.counters.peak_live = self.counters.peak_live.max(self.counters.live);
        self.cluster_stats.spillovers += u64::from(outcome.spillovers);
        self.cluster_stats.power_deferrals += u64::from(outcome.power_deferrals);
        self.cluster_stats.admissions_per_rack[usize::from(outcome.rack.0)] += 1;
        // Serialize the admission through the SDM controller
        // queue: its lifetime starts once the control plane
        // actually finished configuring it.
        let service = self.system.admission_service_time(vm).unwrap_or_default();
        let admission = self.admit_control(usize::from(outcome.rack.0), now, service);
        // Register the VM's read route with the data-path model before any
        // of its reads are priced, so its standing load is on the ledger.
        if let Some(dp) = self.data_path.as_mut() {
            if let Some(route) = self.system.vm_read_route(vm) {
                dp.on_admit(vm, route);
                let profile = dp.config().profile;
                if profile.bursts_per_vm > 0 {
                    ctx.schedule(
                        admission.completion + profile.start_after,
                        ScenarioEvent::ReadBurst {
                            vm,
                            remaining: profile.bursts_per_vm,
                        },
                    );
                }
            }
        }
        self.charge_reads(vm);
        let lifetime = self.spec.lifetime.sample(&mut self.rng);
        ctx.schedule(
            admission.completion + lifetime,
            ScenarioEvent::Departure { vm },
        );
        if let Some(churn) = self.spec.churn {
            if churn.cycles_per_vm > 0 {
                let amount = self.sample_churn_amount(&churn);
                ctx.schedule(
                    admission.completion + churn.hold,
                    ScenarioEvent::ScaleUp {
                        vm,
                        remaining: churn.cycles_per_vm,
                        amount,
                    },
                );
            }
        }
        if let Some(plan) = self.spec.offload {
            if plan.sessions_per_vm > 0 {
                ctx.schedule(
                    admission.completion + plan.start_after,
                    ScenarioEvent::OffloadBegin {
                        vm,
                        remaining: plan.sessions_per_vm,
                    },
                );
            }
        }
    }

    /// Books one rejected admission: the rack's controller still pays the
    /// request parse + availability inspection.
    fn reject_admission(&mut self, rack: usize, now: SimTime) {
        self.counters.rejected += 1;
        let timings = self.spec.system.sdm_timings;
        self.admit_control(rack, now, timings.request_rpc + timings.availability_check);
    }

    /// One routed admission attempt on a partitioned rack world (the rack
    /// is local rack 0 of its own single-rack system). On success the full
    /// admission pipeline runs here; on failure the rack's controller pays
    /// the inspection cost and the caller spills the request back to the
    /// front door — the rejection, if it ever becomes final, is booked
    /// there, not here.
    pub(super) fn admit_routed<S: EventSink>(
        &mut self,
        index: usize,
        now: SimTime,
        sink: &mut S,
    ) -> bool {
        let demand = self.demands[index];
        let admitted =
            match self
                .system
                .allocate_vm_preferring(RackId(0), demand.vcpus, demand.memory)
            {
                Ok(outcome) => {
                    self.cluster_stats.routed_admissions += 1;
                    self.finish_admission(outcome, now, sink);
                    true
                }
                Err(_) => {
                    let timings = self.spec.system.sdm_timings;
                    self.admit_control(0, now, timings.request_rpc + timings.availability_check);
                    false
                }
            };
        self.sample_utilization();
        admitted
    }

    /// Runs one migration through the system and the control-plane queue,
    /// recording downtime and the pre-copy counterfactual. Returns whether
    /// the migration happened.
    fn try_migrate(&mut self, now: SimTime, vm: VmHandle, target: BrickId) -> bool {
        match self.system.migrate_vm(vm, target) {
            Ok(report) => {
                self.record_migration(now, &report);
                true
            }
            Err(_) => {
                self.counters.migration_failures += 1;
                false
            }
        }
    }

    pub(super) fn record_migration(&mut self, now: SimTime, report: &MigrationReport) {
        let admission = self.admit_control(
            usize::from(report.from_rack.0),
            now,
            report.orchestration_delay,
        );
        self.counters.migrations += 1;
        self.migration_downtime_s
            .push((admission.queue_wait + report.downtime).as_secs_f64());
        self.precopy_counterfactual_s
            .push(report.conventional_precopy.as_secs_f64());
    }

    /// One rebalance pass per the spec's migration policy.
    pub(super) fn rebalance(&mut self, now: SimTime, policy: MigrationPolicy) {
        self.counters.rebalances += 1;
        match policy {
            MigrationPolicy::Consolidate {
                spare_below,
                max_moves,
                ..
            } => {
                let mut moved = 0usize;
                'sources: for brick in self.system.sparse_bricks(spare_below) {
                    for vm in self.system.vms_on(brick) {
                        if moved >= max_moves {
                            break 'sources;
                        }
                        let Some(target) = self.system.consolidation_target(vm) else {
                            continue;
                        };
                        if self.try_migrate(now, vm, target) {
                            moved += 1;
                        }
                    }
                }
            }
            MigrationPolicy::EvacuateHotspot {
                saturated_at,
                baseline,
                ..
            } => {
                let Some(hot) = self.system.hotspot_brick(saturated_at) else {
                    return;
                };
                let mut evacuated = 0usize;
                for vm in self.system.vms_on(hot) {
                    let Some(target) = self.system.evacuation_target(vm) else {
                        self.counters.migration_failures += 1;
                        continue;
                    };
                    if self.try_migrate(now, vm, target) {
                        evacuated += 1;
                    }
                }
                if evacuated > 0 {
                    self.counters.evacuations += 1;
                    // The counterfactual: conventional elasticity would
                    // spread the load by provisioning as many fresh VMs
                    // through the cloud control plane.
                    for delay in baseline.provision_burst(evacuated, &mut self.rng) {
                        self.scaleout_counterfactual_s.push(delay.as_secs_f64());
                    }
                }
            }
        }
    }

    /// Delivers one planned fault to its site and runs the system's
    /// recovery protocol, charging everything the availability report
    /// tracks. A fault striking an already-down site is absorbed.
    fn handle_fault<S: EventSink>(&mut self, now: SimTime, index: usize, ctx: &mut S) {
        let fault = self.faults.faults()[index];
        if !self.injector.begin(fault.site, now) {
            self.availability.faults_absorbed += 1;
            return;
        }
        self.availability.faults_injected += 1;
        let site = fault.site;
        let rack = RackId(site.rack as u16);
        let mut affected = 0u64;
        match site.kind {
            FaultKind::ComputeBrick => {
                let Some(brick) = self.fault_brick(rack, site.kind, site.component) else {
                    return;
                };
                let Ok(report) = self.system.fail_compute_brick(brick) else {
                    return;
                };
                affected = u64::from(report.migrated + report.restarted + report.lost);
                self.availability.vm_migrations += u64::from(report.migrated);
                self.availability.vm_restarts += u64::from(report.restarted);
                self.availability.vms_lost += u64::from(report.lost);
                self.availability.sessions_dropped += u64::from(report.sessions_dropped);
                self.availability.orphaned_bytes += report.orphaned.as_bytes();
                self.counters.live -= u64::from(report.lost);
                if report.lost > 0 {
                    *self.lost_at.entry(site).or_default() += u64::from(report.lost);
                }
                for migration in &report.reports {
                    self.record_migration(now, migration);
                    // Evacuation downtime is availability lost to the fault.
                    self.availability.vm_seconds_lost += migration.downtime.as_secs_f64();
                }
                // Orphan detection runs as part of the recovery protocol:
                // stranded guests are dead either way, their bytes go back
                // to the pool now.
                let reclaim = self.system.reclaim_orphans();
                self.availability.reclaimed_bytes += reclaim.reclaimed.as_bytes();
            }
            FaultKind::MemoryBrick => {
                let Some(brick) = self.fault_brick(rack, site.kind, site.component) else {
                    return;
                };
                let Ok(report) = self.system.fail_membrick(brick) else {
                    return;
                };
                affected = report.restarted.len() as u64 + u64::from(report.lost);
                self.availability.segments_lost_bytes += report.lost_bytes.as_bytes();
                self.availability.sessions_dropped += u64::from(report.sessions_dropped);
                self.availability.vm_restarts += report.restarted.len() as u64;
                self.availability.vms_lost += u64::from(report.lost);
                self.counters.live -= u64::from(report.lost);
                if report.lost > 0 {
                    *self.lost_at.entry(site).or_default() += u64::from(report.lost);
                }
                // Each killed-and-readmitted guest restarts under a fresh
                // handle: the old handle's scheduled events decay into
                // NoSuchVm no-ops, and the new guest gets its own departure.
                for &(_, vm) in &report.restarted {
                    let lifetime = self.spec.lifetime.sample(&mut self.rng);
                    ctx.schedule(now + lifetime, ScenarioEvent::Departure { vm });
                }
            }
            FaultKind::AccelBrick => {
                let Some(brick) = self.fault_brick(rack, site.kind, site.component) else {
                    return;
                };
                let Ok(report) = self.system.fail_accel_brick(brick) else {
                    return;
                };
                affected = report.drained.len() as u64;
                self.availability.sessions_dropped += report.drained.len() as u64;
                // Each drained session's owner retries the offload once a
                // surviving accelerator may pick it up.
                if let Some(plan) = self.spec.offload {
                    for &(_, vm) in &report.drained {
                        ctx.schedule(
                            now + plan.start_after,
                            ScenarioEvent::OffloadBegin { vm, remaining: 1 },
                        );
                    }
                }
            }
            FaultKind::Link => {
                if let Some(report) = self.system.fail_link(rack, site.component) {
                    self.availability.links_severed += 1;
                    self.availability.circuits_rerouted += u64::from(report.rerouted);
                    self.availability.circuits_lost += u64::from(report.lost);
                }
            }
            FaultKind::Switch => {
                if let Some(restored) = self.system.fail_switch(rack) {
                    self.availability.switch_failovers += 1;
                    self.availability.circuits_restored += restored as u64;
                }
            }
        }
        self.blast_radius_vms.push(affected as f64);
        self.sample_utilization();
    }

    /// Repairs one planned fault's site. A repair for a fault that was
    /// absorbed (site already down under an earlier fault) is a no-op —
    /// the earlier fault's own repair brings the site back.
    fn handle_repair(&mut self, now: SimTime, index: usize) {
        let fault = self.faults.faults()[index];
        let Some(outage) = self.injector.end(fault.site, now) else {
            return;
        };
        self.availability.repairs += 1;
        if let Some(lost) = self.lost_at.remove(&fault.site) {
            // Lost guests were down for the whole outage.
            self.availability.vm_seconds_lost += lost as f64 * outage.as_secs_f64();
        }
        let site = fault.site;
        let rack = RackId(site.rack as u16);
        match site.kind {
            FaultKind::ComputeBrick => {
                if let Some(brick) = self.fault_brick(rack, site.kind, site.component) {
                    let _ = self.system.repair_compute_brick(brick);
                }
            }
            FaultKind::MemoryBrick => {
                if let Some(brick) = self.fault_brick(rack, site.kind, site.component) {
                    let _ = self.system.repair_membrick(brick);
                }
            }
            FaultKind::AccelBrick => {
                if let Some(brick) = self.fault_brick(rack, site.kind, site.component) {
                    let _ = self.system.repair_accel_brick(brick);
                }
            }
            FaultKind::Link => {
                let _ = self.system.repair_link(rack, site.component);
            }
            // The switch fault self-healed onto the standby at injection.
            FaultKind::Switch => {}
        }
        self.sample_utilization();
    }

    /// One stage of a rolling upgrade: drain the rack, snapshot the whole
    /// controller, serialize, restore, verify bit-identity and byte
    /// conservation, then readmit the rack.
    fn upgrade_rack(&mut self, now: SimTime, rack: u16) {
        let allocated_before = self.system.pool_allocated();
        let (reports, stranded) = self.system.drain_rack(RackId(rack));
        self.cluster_stats.racks_drained += 1;
        self.cluster_stats.drain_stranded += u64::from(stranded);
        for report in &reports {
            self.cluster_stats.cross_rack_migrations += 1;
            self.record_migration(now, report);
        }

        // The servicing window: capture → serialize → restore. The restored
        // controller must be the captured one bit for bit, and not a byte
        // of pooled memory may go missing across the swap.
        let bytes = SystemSnapshot::capture(&self.system).to_bytes();
        self.availability.upgrade_snapshot_bytes += bytes.len() as u64;
        match SystemSnapshot::from_bytes(&bytes) {
            Ok(snapshot) => {
                let restored = snapshot.into_system();
                if restored == self.system {
                    self.system = restored;
                } else {
                    self.availability.upgrade_restore_mismatches += 1;
                }
            }
            Err(_) => self.availability.upgrade_restore_mismatches += 1,
        }
        let allocated_after = self.system.pool_allocated();
        self.availability.upgrade_lost_bytes += allocated_before
            .as_bytes()
            .saturating_sub(allocated_after.as_bytes());
        self.availability.upgrades += 1;
        self.system.undrain_rack(RackId(rack));
        self.sample_utilization();
    }

    /// Assembles the report once the engine stops.
    pub(super) fn finish(
        mut self,
        outcome: RunOutcome,
        end: SimTime,
        events: u64,
    ) -> ScenarioReport {
        let c = self.counters;
        // The data-path block only exists on specs that configure the
        // load-dependent model; every pre-existing report (and golden)
        // stays byte-identical.
        let read_latency = Summary::from_samples(&self.read_latencies_ns);
        let data_path = self
            .data_path
            .take()
            .map(|dp| dp.finish(read_latency.as_ref()));
        // The cluster tier only exists on multi-rack systems; single-rack
        // reports stay byte-identical to the pre-federation engine.
        let cluster = if self.racks > 1 {
            Some(self.cluster_stats)
        } else {
            None
        };
        // The availability block only exists on specs that inject faults
        // or run a rolling upgrade; every pre-existing report (and golden)
        // stays byte-identical.
        let availability = if self.spec.faults.is_some() || self.spec.upgrade.is_some() {
            let mut stats = self.availability;
            stats.blast_radius = Summary::from_samples(&self.blast_radius_vms);
            stats.mttr = Summary::from_samples(self.injector.mttr_samples());
            Some(stats)
        } else {
            None
        };
        ScenarioReport {
            name: self.spec.name.clone(),
            outcome,
            end,
            events,
            admitted: c.admitted,
            rejected: c.rejected,
            peak_live: c.peak_live,
            departed: c.departed,
            scale_ups: c.scale_ups,
            scale_up_failures: c.scale_up_failures,
            scale_downs: c.scale_downs,
            power_sweeps: c.power_sweeps,
            bricks_powered_off: c.bricks_powered_off,
            rebalances: c.rebalances,
            migrations: c.migrations,
            migration_failures: c.migration_failures,
            evacuations: c.evacuations,
            offloads: c.offloads,
            offload_failures: c.offload_failures,
            offloads_completed: c.offloads_completed,
            bitstream_reuses: c.bitstream_reuses,
            bitstream_programs: c.bitstream_programs,
            accel_wakes: c.accel_wakes,
            control_plane_peak_queue: self
                .control_planes
                .iter()
                .map(ControlPlaneQueue::peak_depth)
                .max()
                .unwrap_or(0) as u64,
            scale_up_delay: Summary::from_samples(&self.scale_up_delays_s),
            read_latency,
            pool_utilization: Summary::from_samples(&self.utilization),
            migration_downtime: Summary::from_samples(&self.migration_downtime_s),
            precopy_counterfactual: Summary::from_samples(&self.precopy_counterfactual_s),
            scaleout_counterfactual: Summary::from_samples(&self.scaleout_counterfactual_s),
            control_plane_wait: Summary::from_samples(&self.control_plane_wait_s),
            offload_time: Summary::from_samples(&self.offload_time_s),
            offload_local_counterfactual: Summary::from_samples(
                &self.offload_local_counterfactual_s,
            ),
            accel_utilization: Summary::from_samples(&self.accel_utilization),
            cluster,
            availability,
            data_path,
        }
    }
}

impl ShardedProcess for ScenarioWorld<'_> {
    type Event = ScenarioEvent;

    fn handle(
        &mut self,
        _shard: ShardId,
        now: SimTime,
        event: ScenarioEvent,
        ctx: &mut ShardContext<'_, ScenarioEvent>,
    ) {
        self.dispatch(now, event, ctx);
    }
}

impl ScenarioWorld<'_> {
    /// Turns one popped event into calls on the system and schedules the
    /// follow-ups through `sink` — the driver-agnostic heart of the
    /// scenario engine, shared by the serial loop, the threaded rack
    /// workers and the coordinator's serial barrier handlers.
    pub(super) fn dispatch<S: EventSink>(
        &mut self,
        now: SimTime,
        event: ScenarioEvent,
        ctx: &mut S,
    ) {
        match event {
            ScenarioEvent::Arrival { index } => {
                let demand = self.demands[index];
                match self.system.allocate_vm_routed(demand.vcpus, demand.memory) {
                    Ok(outcome) => self.finish_admission(outcome, now, ctx),
                    Err(_) => self.reject_admission(0, now),
                }
                self.sample_utilization();
            }
            ScenarioEvent::AdmitOn { .. }
            | ScenarioEvent::SpillOver { .. }
            | ScenarioEvent::FrontDoorTick
            | ScenarioEvent::DigestPublish
            | ScenarioEvent::DigestUpdate { .. } => {
                // Cluster-tier events are intercepted by the federated
                // workers (`scenario::cluster`) before they reach the world;
                // a single-rack replay never schedules them.
                unreachable!("cluster-tier event dispatched to a rack world");
            }
            ScenarioEvent::ScaleUp {
                vm,
                remaining,
                amount,
            } => {
                match self.system.scale_up(vm, amount) {
                    Ok(report) => {
                        let rack = self.vm_rack(vm);
                        let admission = self.admit_control(rack, now, report.orchestration_delay);
                        self.counters.scale_ups += 1;
                        self.scale_up_delays_s
                            .push((admission.queue_wait + report.total_delay).as_secs_f64());
                        if let Some(churn) = self.spec.churn {
                            ctx.schedule(
                                admission.completion + churn.hold,
                                ScenarioEvent::ScaleDown {
                                    vm,
                                    remaining,
                                    amount,
                                },
                            );
                        }
                    }
                    // The VM departed before its churn fired: not a failure.
                    Err(SystemError::NoSuchVm { .. }) => {}
                    Err(_) => self.counters.scale_up_failures += 1,
                }
                self.sample_utilization();
            }
            ScenarioEvent::ScaleDown {
                vm,
                remaining,
                amount,
            } => {
                if let Ok(report) = self.system.scale_down(vm, amount) {
                    let rack = self.vm_rack(vm);
                    let admission = self.admit_control(rack, now, report.orchestration_delay);
                    self.counters.scale_downs += 1;
                    if remaining > 1 {
                        if let Some(churn) = self.spec.churn {
                            let next = self.sample_churn_amount(&churn);
                            ctx.schedule(
                                admission.completion + churn.hold,
                                ScenarioEvent::ScaleUp {
                                    vm,
                                    remaining: remaining - 1,
                                    amount: next,
                                },
                            );
                        }
                    }
                }
                self.sample_utilization();
            }
            ScenarioEvent::Departure { vm } => {
                let rack = self.vm_rack(vm);
                if self.system.release_vm(vm).is_ok() {
                    self.counters.departed += 1;
                    self.counters.live -= 1;
                    if let Some(dp) = self.data_path.as_mut() {
                        dp.on_departure(vm);
                    }
                    let timings = self.spec.system.sdm_timings;
                    self.admit_control(rack, now, timings.request_rpc + timings.reservation_write);
                }
                self.sample_utilization();
            }
            ScenarioEvent::OffloadBegin { vm, remaining } => {
                let Some(plan) = self.spec.offload else {
                    return;
                };
                let demand = plan.mix.sample(&mut self.rng);
                match self.system.begin_offload(vm, &demand) {
                    Ok(report) => {
                        let admission = self.record_offload(now, &report);
                        // The session stays open at least `hold`, or as long
                        // as the data takes to drain through the kernel —
                        // `admission.completion` already accounts for the
                        // orchestration, so only the data stage adds here.
                        let data_time = report.transfer_time.max(report.kernel_time);
                        ctx.schedule(
                            admission.completion + plan.hold.max(data_time),
                            ScenarioEvent::OffloadEnd {
                                vm,
                                session: report.session,
                                remaining,
                            },
                        );
                    }
                    // The VM departed before its offload fired: not a failure.
                    Err(SystemError::NoSuchVm { .. }) => {}
                    Err(_) => {
                        self.counters.offload_failures += 1;
                        // Rejections still occupy the controller for the
                        // request parse + availability inspection...
                        let timings = self.spec.system.sdm_timings;
                        let rack = self.vm_rack(vm);
                        let admission = self.admit_control(
                            rack,
                            now,
                            timings.request_rpc + timings.availability_check,
                        );
                        // ...and the VM retries once a streaming slot may
                        // have freed, rather than abandoning the rest of
                        // its offload plan (sessions end over time, so the
                        // retry eventually lands or the VM departs).
                        ctx.schedule(
                            admission.completion + plan.start_after,
                            ScenarioEvent::OffloadBegin { vm, remaining },
                        );
                    }
                }
                self.sample_utilization();
            }
            ScenarioEvent::OffloadEnd {
                vm,
                session,
                remaining,
            } => {
                // The VM may have departed mid-session, in which case its
                // release already drained the session.
                let rack = self.vm_rack(vm);
                if let Ok(service) = self.system.end_offload(session) {
                    let admission = self.admit_control(rack, now, service);
                    self.counters.offloads_completed += 1;
                    if remaining > 1 {
                        if let Some(plan) = self.spec.offload {
                            ctx.schedule(
                                admission.completion + plan.start_after,
                                ScenarioEvent::OffloadBegin {
                                    vm,
                                    remaining: remaining - 1,
                                },
                            );
                        }
                    }
                }
                self.sample_utilization();
            }
            ScenarioEvent::PowerSweep { rack } => {
                // Sweeps batch per rack per tick: each rack's sweep event
                // covers only its own bricks (on a single-rack system this
                // is exactly the whole-rack sweep it always was), and the
                // rack's digest refreshes so cluster routing sees the freed
                // power headroom immediately.
                let sweep = self.system.power_off_unused_in(RackId(rack));
                self.counters.power_sweeps += 1;
                self.counters.bricks_powered_off += sweep.total_off() as u64;
                self.cluster_stats.power_off_per_rack[usize::from(rack)] +=
                    sweep.total_off() as u64;
                self.sample_utilization();
                if let Some(every) = self.spec.power_sweep_every {
                    ctx.schedule(now + every, ScenarioEvent::PowerSweep { rack });
                }
            }
            ScenarioEvent::DrainRack { rack } => {
                let (reports, stranded) = self.system.drain_rack(RackId(rack));
                self.cluster_stats.racks_drained += 1;
                self.cluster_stats.drain_stranded += u64::from(stranded);
                for report in &reports {
                    self.cluster_stats.cross_rack_migrations += 1;
                    self.record_migration(now, report);
                }
                self.sample_utilization();
            }
            ScenarioEvent::Rebalance => {
                if let Some(policy) = self.spec.migration {
                    self.rebalance(now, policy);
                    self.sample_utilization();
                    ctx.schedule(now + policy.every(), ScenarioEvent::Rebalance);
                }
            }
            ScenarioEvent::Fault { index } => self.handle_fault(now, index, ctx),
            ScenarioEvent::Repair { index } => self.handle_repair(now, index),
            ScenarioEvent::UpgradeRack { rack } => self.upgrade_rack(now, rack),
            ScenarioEvent::ReadBurst { vm, remaining } => {
                let Some(dp) = self.data_path.as_mut() else {
                    return;
                };
                if self.system.vm_brick(vm).is_none() {
                    // The VM is gone (departed or lost to a fault) under a
                    // stale handle: retract any load it still publishes.
                    dp.on_departure(vm);
                    return;
                }
                let outcome =
                    dp.run_burst(&self.system, vm, &mut self.rng, &mut self.read_latencies_ns);
                if outcome.ran && remaining > 1 {
                    let every = dp.config().profile.burst_every;
                    ctx.schedule(
                        now + every,
                        ScenarioEvent::ReadBurst {
                            vm,
                            remaining: remaining - 1,
                        },
                    );
                }
            }
        }
    }
}
