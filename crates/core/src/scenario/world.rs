//! The mutable world the epoch runner drives.
//!
//! This module is the state-machine half of the scenario engine: the
//! [`ScenarioEvent`] alphabet, the per-replay [`Counters`], and
//! [`ScenarioWorld`] — the [`WorldWorker`] that turns each popped event
//! into calls on the [`DredboxSystem`] and schedules the follow-ups. The
//! spec/report half lives in the parent module.
//!
//! Hot-path discipline: the world never clones system state per event —
//! VM and hypervisor records are interned in slab arenas inside
//! [`DredboxSystem`], every SDM request serializes through the rack's
//! [`ControlPlaneQueue`], and each power-sweep tick is one
//! [`DredboxSystem::power_off_unused`]. Work no decision reads (pricing a
//! read, recording a report sample) is not done here at all: it is
//! logged, in event order, for the rack's observer (`super::observer`).
//!
//! ## Two orchestration tiers, one event alphabet
//!
//! A world owns exactly one rack, and every replay runs it under
//! [`ShardedEngine::run_threaded`](dredbox_sim::shard::ShardedEngine::run_threaded).
//! A single-rack scenario is a one-shard world with no channels, where an
//! [`ScenarioEvent::Arrival`] admits inline. On a federation this world is
//! one rack shard of the [`ClusterWorld`](super::cluster::ClusterWorld)
//! and never sees arrivals: the cluster front door batches the arrival
//! trace per control interval, consults its capacity digests and hands
//! each request to the chosen rack's shard as a timestamped
//! [`ScenarioEvent::AdmitOn`] message — one control-network hop later the
//! rack's own SDM controller admits (or spills back to the front door).
//! Every follow-up of the VM's life is rack-local, so a worker thread can
//! drive the rack without sharing mutable state; work that spans racks
//! (drains, upgrades, faults, rebalances) runs in the cluster world's
//! serial handlers.

use std::collections::BTreeMap;
use std::mem;
use std::sync::Arc;

use dredbox_bricks::BrickId;
use dredbox_orchestrator::{OffloadSessionId, RackDigest};
use dredbox_sim::engine::RunOutcome;
use dredbox_sim::fault::{FailureSchedule, FaultInjector, FaultKind, FaultSite};
use dredbox_sim::observe::ObservationLog;
use dredbox_sim::parallel::{WorkerContext, WorldWorker};
use dredbox_sim::queue::{ControlPlaneQueue, QueueAdmission};
use dredbox_sim::rng::SimRng;
use dredbox_sim::shard::ShardId;
use dredbox_sim::time::{SimDuration, SimTime};
use dredbox_sim::units::ByteSize;
use dredbox_workload::VmDemand;

use crate::system::{DredboxSystem, MigrationReport, OffloadReport, SystemError, VmHandle};

use super::datapath::{DataPathLoop, DataPathModel, ReadPrices, READ_SIZES};
use super::observer::{Metric, Op, RackObserver};
use super::{AvailabilityStats, ChurnModel, MigrationPolicy, ScenarioReport, ScenarioSpec};

/// Events driving one scenario replay. Every calendar and mailbox entry
/// holds one, so the enum is kept at 24 bytes: a payload that would widen
/// it travels boxed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) enum ScenarioEvent {
    /// The `index`-th VM of the trace arrives and requests admission
    /// (single-rack systems only — on a federated cluster the front door
    /// holds the arrival trace and emits [`ScenarioEvent::AdmitOn`]).
    Arrival { index: usize },
    /// A routed admission lands on the receiving rack shard's SDM
    /// controller, one control-network hop after the front door routed
    /// it. `tried` is the bitmask of racks that already rejected this
    /// request, so a spillover never revisits one.
    AdmitOn { index: usize, tried: u64 },
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
    /// Periodic power-management sweep over the rack's bricks.
    PowerSweep,
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

/// The mutable world the discrete-event engine drives.
pub(super) struct ScenarioWorld<'a> {
    pub(super) spec: &'a ScenarioSpec,
    pub(super) system: DredboxSystem,
    pub(super) demands: Arc<Vec<VmDemand>>,
    pub(super) rng: SimRng,
    pub(super) counters: Counters,
    /// Serializes every SDM request of the replay (admissions, scale-ups,
    /// releases, migrations) through the rack's one controller.
    pub(super) control_plane: ControlPlaneQueue,
    /// The report work of every event, in event order: priced reads,
    /// data-path admits, bursts and departures, and every report sample.
    /// Its [`RackObserver`] owns the data-path model and the summaries.
    pub(super) log: ObservationLog<RackObserver>,
    /// The loop's side of the data path (its draws, and which VMs hold an
    /// entry); `None` replays the flat latency model unchanged.
    data_path: Option<DataPathLoop>,
    /// Reused list of the VMs on one brick, for rebalance passes.
    vms_scratch: Vec<VmHandle>,
    /// The spec's seeded fault schedule (empty when the spec has none);
    /// [`ScenarioEvent::Fault`]/[`ScenarioEvent::Repair`] index into it.
    pub(super) faults: FailureSchedule,
    /// Which sites are down and the MTTR samples collected so far.
    pub(super) injector: FaultInjector,
    /// Availability telemetry; reported only when the spec injects faults
    /// or runs a rolling upgrade.
    pub(super) availability: AvailabilityStats,
    /// VMs lost to each currently-outstanding fault, so the repair can
    /// charge VM-seconds lost over the whole outage.
    pub(super) lost_at: BTreeMap<FaultSite, u64>,
}

impl<'a> ScenarioWorld<'a> {
    /// Builds the world for one replay: the rack's control-plane queue
    /// (paying the spec's per-queued-request penalty) and empty
    /// counters/metric series.
    pub(super) fn new(
        spec: &'a ScenarioSpec,
        system: DredboxSystem,
        demands: Arc<Vec<VmDemand>>,
        faults: FailureSchedule,
        rng: SimRng,
    ) -> Self {
        let penalty = spec.system.sdm_timings.queued_request_penalty;
        let prices = ReadPrices::new(&system, spec.contention());
        let model = spec.data_path.map(|cfg| DataPathModel::new(cfg, prices));
        ScenarioWorld {
            spec,
            system,
            demands,
            rng,
            log: ObservationLog::new(RackObserver::new(prices, model)),
            data_path: spec.data_path.map(DataPathLoop::new),
            vms_scratch: Vec::new(),
            counters: Counters::default(),
            control_plane: ControlPlaneQueue::new(penalty),
            faults,
            injector: FaultInjector::new(),
            availability: AvailabilityStats::default(),
            lost_at: BTreeMap::new(),
        }
    }

    /// Logs one sample of a report summary.
    fn sample(&mut self, metric: Metric, value: f64) {
        self.log
            .record(|batch| batch.ops.push(Op::Sample { metric, value }));
    }

    /// Maps a fault site's rack-relative ordinal onto the `component`-th
    /// brick of its kind in the rack (wrapped, so any schedule value names
    /// a real brick). `None` for kinds the rack has no bricks of.
    pub(super) fn fault_brick(&self, kind: FaultKind, component: u32) -> Option<BrickId> {
        let ids: Vec<BrickId> = self
            .system
            .rack()
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

    /// Charges the configured number of remote reads (of mixed transfer
    /// sizes): the loop draws each size, and the observer prices the read,
    /// through the live data-path model when the spec configures one. The
    /// per-read size draw is unchanged from the pre-data-path engine (it
    /// is `SimRng::choose` over [`READ_SIZES`], by index).
    fn charge_reads(&mut self, vm: VmHandle) {
        for _ in 0..self.spec.reads_per_vm {
            let size = self.rng.range(0..READ_SIZES.len()) as u8;
            self.log
                .record(|batch| batch.ops.push(Op::Read { vm, size }));
        }
    }

    pub(super) fn sample_utilization(&mut self) {
        self.sample(Metric::PoolUtilization, self.system.pool_utilization());
        // Accelerator utilization is sampled only on systems that carry
        // dACCELBRICKs, so accelerator-free scenarios report `None`.
        if self.spec.system.total_accel_bricks() > 0 {
            self.sample(Metric::AccelUtilization, self.system.accel_utilization());
        }
    }

    /// Records one successful offload's report and counters.
    fn record_offload(&mut self, now: SimTime, report: &OffloadReport) -> QueueAdmission {
        let admission = self.admit_control(now, report.orchestration_delay);
        self.counters.offloads += 1;
        if report.reused_bitstream {
            self.counters.bitstream_reuses += 1;
        } else {
            self.counters.bitstream_programs += 1;
        }
        if report.woke_brick {
            self.counters.accel_wakes += 1;
        }
        self.sample(
            Metric::OffloadTime,
            (admission.queue_wait + report.offload_total).as_secs_f64(),
        );
        self.sample(
            Metric::OffloadLocalCounterfactual,
            report.local_compute.as_secs_f64(),
        );
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

    /// Serializes one SDM request through the rack's control-plane queue
    /// and records its queueing delay.
    pub(super) fn admit_control(&mut self, now: SimTime, service: SimDuration) -> QueueAdmission {
        let admission = self.control_plane.admit(now, service);
        self.sample(Metric::ControlPlaneWait, admission.queue_wait.as_secs_f64());
        admission
    }

    /// Books one successful admission: counters, the rack's control-plane
    /// serialization, the per-VM read charges, and the VM's scheduled
    /// future (departure, churn, offloads).
    fn finish_admission(
        &mut self,
        vm: VmHandle,
        now: SimTime,
        ctx: &mut WorkerContext<'_, ScenarioEvent>,
    ) {
        self.counters.admitted += 1;
        self.counters.live += 1;
        self.counters.peak_live = self.counters.peak_live.max(self.counters.live);
        // Serialize the admission through the SDM controller
        // queue: its lifetime starts once the control plane
        // actually finished configuring it.
        let service = self.system.admission_service_time(vm).unwrap_or_default();
        let admission = self.admit_control(now, service);
        // Register the VM's read route with the data-path model before any
        // of its reads are priced, so its standing load is on the ledger.
        if let Some(dp) = self.data_path.as_mut() {
            if let Some(route) = self.system.vm_read_route(vm) {
                dp.admit(vm);
                self.log
                    .record(|batch| batch.ops.push(Op::Admit { vm, route }));
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

    /// One admission attempt of the `index`-th trace VM on this rack. On
    /// success the full admission pipeline runs; on failure the rack's
    /// controller still pays the request parse + availability inspection.
    /// Booking a refusal as final is the caller's call: a single rack
    /// rejects outright, a federation's front door may spill the request
    /// to another rack.
    pub(super) fn admit(
        &mut self,
        index: usize,
        now: SimTime,
        ctx: &mut WorkerContext<'_, ScenarioEvent>,
    ) -> bool {
        let demand = self.demands[index];
        let admitted = match self.system.allocate_vm(demand.vcpus, demand.memory) {
            Ok(vm) => {
                self.finish_admission(vm, now, ctx);
                true
            }
            Err(_) => {
                let timings = self.spec.system.sdm_timings;
                self.admit_control(now, timings.request_rpc + timings.availability_check);
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
        let admission = self.admit_control(now, report.orchestration_delay);
        self.counters.migrations += 1;
        self.sample(
            Metric::MigrationDowntime,
            (admission.queue_wait + report.downtime).as_secs_f64(),
        );
        self.sample(
            Metric::PrecopyCounterfactual,
            report.conventional_precopy.as_secs_f64(),
        );
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
                let mut vms = mem::take(&mut self.vms_scratch);
                'sources: for brick in self.system.sparse_bricks(spare_below) {
                    self.system.vms_on_into(brick, &mut vms);
                    for &vm in &vms {
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
                self.vms_scratch = vms;
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
                let mut vms = mem::take(&mut self.vms_scratch);
                self.system.vms_on_into(hot, &mut vms);
                for &vm in &vms {
                    let Some(target) = self.system.evacuation_target(vm) else {
                        self.counters.migration_failures += 1;
                        continue;
                    };
                    if self.try_migrate(now, vm, target) {
                        evacuated += 1;
                    }
                }
                self.vms_scratch = vms;
                if evacuated > 0 {
                    self.counters.evacuations += 1;
                    // The counterfactual: conventional elasticity would
                    // spread the load by provisioning as many fresh VMs
                    // through the cloud control plane.
                    for delay in baseline.provision_burst(evacuated, &mut self.rng) {
                        self.sample(Metric::ScaleoutCounterfactual, delay.as_secs_f64());
                    }
                }
            }
        }
    }

    /// Delivers one planned fault to its site and runs the system's
    /// recovery protocol, charging everything the availability report
    /// tracks. A fault striking an already-down site is absorbed.
    fn handle_fault(
        &mut self,
        now: SimTime,
        index: usize,
        ctx: &mut WorkerContext<'_, ScenarioEvent>,
    ) {
        let fault = self.faults.faults()[index];
        if !self.injector.begin(fault.site, now) {
            self.availability.faults_absorbed += 1;
            return;
        }
        self.availability.faults_injected += 1;
        let site = fault.site;
        let mut affected = 0u64;
        match site.kind {
            FaultKind::ComputeBrick => {
                let Some(brick) = self.fault_brick(site.kind, site.component) else {
                    return;
                };
                let Ok(report) = self.system.fail_compute_brick(brick) else {
                    return;
                };
                affected = u64::from(report.migrated + report.lost);
                self.availability.vm_migrations += u64::from(report.migrated);
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
                let Some(brick) = self.fault_brick(site.kind, site.component) else {
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
                let Some(brick) = self.fault_brick(site.kind, site.component) else {
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
                if let Some(report) = self.system.fail_link(site.component) {
                    self.availability.links_severed += 1;
                    self.availability.circuits_rerouted += u64::from(report.rerouted);
                    self.availability.circuits_lost += u64::from(report.lost);
                }
            }
            FaultKind::Switch => {
                let restored = self.system.fail_switch();
                self.availability.switch_failovers += 1;
                self.availability.circuits_restored += restored as u64;
            }
        }
        self.sample(Metric::BlastRadius, affected as f64);
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
        match site.kind {
            FaultKind::ComputeBrick => {
                if let Some(brick) = self.fault_brick(site.kind, site.component) {
                    let _ = self.system.repair_compute_brick(brick);
                }
            }
            FaultKind::MemoryBrick => {
                if let Some(brick) = self.fault_brick(site.kind, site.component) {
                    let _ = self.system.repair_membrick(brick);
                }
            }
            FaultKind::AccelBrick => {
                if let Some(brick) = self.fault_brick(site.kind, site.component) {
                    let _ = self.system.repair_accel_brick(brick);
                }
            }
            FaultKind::Link => {
                let _ = self.system.repair_link(site.component);
            }
            // The switch fault self-healed onto the standby at injection.
            FaultKind::Switch => {}
        }
        self.sample_utilization();
    }

    /// Assembles the report once the engine stops.
    pub(super) fn finish(self, outcome: RunOutcome, end: SimTime, events: u64) -> ScenarioReport {
        let c = self.counters;
        let mut observed = self.log.into_observer();
        debug_assert_eq!(
            *observed.prices(),
            ReadPrices::new(&self.system, self.spec.contention()),
            "read prices diverged from the live model"
        );
        // The data-path block only exists on specs that configure the
        // load-dependent model; every pre-existing report (and golden)
        // stays byte-identical.
        let read_latency = observed.finish(Metric::ReadLatency);
        let data_path = observed
            .take_data_path()
            .map(|dp| dp.finish(read_latency.as_ref()));
        // The availability block only exists on specs that inject faults
        // or run a rolling upgrade; every pre-existing report (and golden)
        // stays byte-identical.
        let availability = if self.spec.faults.is_some() || self.spec.upgrade.is_some() {
            let mut stats = self.availability;
            stats.blast_radius = observed.finish(Metric::BlastRadius);
            stats.mttr = self.injector.mttr().clone().finish();
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
            control_plane_peak_queue: self.control_plane.peak_depth() as u64,
            scale_up_delay: observed.finish(Metric::ScaleUpDelay),
            read_latency,
            pool_utilization: observed.finish(Metric::PoolUtilization),
            migration_downtime: observed.finish(Metric::MigrationDowntime),
            precopy_counterfactual: observed.finish(Metric::PrecopyCounterfactual),
            scaleout_counterfactual: observed.finish(Metric::ScaleoutCounterfactual),
            control_plane_wait: observed.finish(Metric::ControlPlaneWait),
            offload_time: observed.finish(Metric::OffloadTime),
            offload_local_counterfactual: observed.finish(Metric::OffloadLocalCounterfactual),
            accel_utilization: observed.finish(Metric::AccelUtilization),
            // The cluster tier reports from the federation's own world.
            cluster: None,
            availability,
            data_path,
        }
    }
}

/// A single-rack replay: the world is the one shard's worker.
impl WorldWorker for ScenarioWorld<'_> {
    type Event = ScenarioEvent;

    fn handle(
        &mut self,
        _shard: ShardId,
        now: SimTime,
        event: ScenarioEvent,
        ctx: &mut WorkerContext<'_, ScenarioEvent>,
    ) {
        self.dispatch(now, event, ctx);
    }
}

impl ScenarioWorld<'_> {
    /// Turns one popped event into calls on the system and schedules the
    /// follow-ups on `ctx` — the heart of the scenario engine, shared by
    /// a single rack's worker and each rack worker of a federation.
    pub(super) fn dispatch(
        &mut self,
        now: SimTime,
        event: ScenarioEvent,
        ctx: &mut WorkerContext<'_, ScenarioEvent>,
    ) {
        match event {
            ScenarioEvent::Arrival { index } => {
                // A lone rack has nowhere to spill: its refusal is final.
                if !self.admit(index, now, ctx) {
                    self.counters.rejected += 1;
                }
            }
            ScenarioEvent::AdmitOn { .. }
            | ScenarioEvent::SpillOver { .. }
            | ScenarioEvent::FrontDoorTick
            | ScenarioEvent::DigestPublish
            | ScenarioEvent::DigestUpdate { .. }
            | ScenarioEvent::DrainRack { .. }
            | ScenarioEvent::UpgradeRack { .. } => {
                // Cluster-tier events are intercepted by the federated
                // workers and serial handlers (`scenario::cluster`) before
                // they reach a rack's world; a single-rack replay never
                // schedules them.
                unreachable!("cluster-tier event dispatched to a rack world");
            }
            ScenarioEvent::ScaleUp {
                vm,
                remaining,
                amount,
            } => {
                match self.system.scale_up(vm, amount) {
                    Ok(report) => {
                        let admission = self.admit_control(now, report.orchestration_delay);
                        self.counters.scale_ups += 1;
                        self.sample(
                            Metric::ScaleUpDelay,
                            (admission.queue_wait + report.total_delay).as_secs_f64(),
                        );
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
                    let admission = self.admit_control(now, report.orchestration_delay);
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
                if self.system.release_vm(vm).is_ok() {
                    self.counters.departed += 1;
                    self.counters.live -= 1;
                    if self.data_path.as_mut().is_some_and(|dp| dp.depart(vm)) {
                        self.log
                            .record(|batch| batch.ops.push(Op::Departure { vm }));
                    }
                    let timings = self.spec.system.sdm_timings;
                    self.admit_control(now, timings.request_rpc + timings.reservation_write);
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
                        let admission = self
                            .admit_control(now, timings.request_rpc + timings.availability_check);
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
                if let Ok(service) = self.system.end_offload(session) {
                    let admission = self.admit_control(now, service);
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
            ScenarioEvent::PowerSweep => {
                let sweep = self.system.power_off_unused();
                self.counters.power_sweeps += 1;
                self.counters.bricks_powered_off += sweep.total_off() as u64;
                self.sample_utilization();
                if let Some(every) = self.spec.power_sweep_every {
                    ctx.schedule(now + every, ScenarioEvent::PowerSweep);
                }
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
            ScenarioEvent::ReadBurst { vm, remaining } => {
                let Some(dp) = self.data_path.as_mut() else {
                    return;
                };
                if self.system.vm_brick(vm).is_none() {
                    // The VM is gone (departed or lost to a fault) under a
                    // stale handle: retract any load it still publishes.
                    if dp.depart(vm) {
                        self.log
                            .record(|batch| batch.ops.push(Op::Departure { vm }));
                    }
                    return;
                }
                // A VM without a data-path entry runs no burst, and so
                // schedules no successor.
                if !dp.is_live(vm) {
                    return;
                }
                let rng = &mut self.rng;
                self.log.record(|batch| {
                    dp.draw_burst(rng, &mut batch.draws);
                    let reads = dp.config().profile.reads_per_burst;
                    batch.ops.push(Op::Burst { vm, reads });
                });
                if remaining > 1 {
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
