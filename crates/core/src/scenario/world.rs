//! The mutable world the epoch runner drives.
//!
//! This module is the state-machine half of the scenario engine: the
//! [`ScenarioEvent`] alphabet, the per-replay [`Counters`],
//! [`ScenarioWorld`] — the [`WorldWorker`] that turns each popped event
//! into calls on the [`DredboxSystem`] and schedules the follow-ups — and
//! [`RackWorld`], the single-rack replay around it. The spec/report half
//! lives in the parent module.
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
//! A single-rack scenario is a one-shard [`RackWorld`] with no channels,
//! where an [`ScenarioEvent::Arrival`] admits inline. On a federation
//! this world is one rack shard of the
//! [`ClusterWorld`](super::cluster::ClusterWorld) and never sees
//! arrivals: the cluster front door batches the arrival trace per control
//! interval, consults its capacity digests and hands each request to the
//! chosen rack's shard as a timestamped [`ScenarioEvent::AdmitOn`]
//! message — one control-network hop later the rack's own SDM controller
//! admits (or spills back to the front door).
//! Every follow-up of the VM's life is rack-local, so a worker thread can
//! drive the rack without sharing mutable state; work that spans racks
//! (drains, upgrades, rebalances) runs in the cluster world's serial
//! handlers. Faults and repairs are serial events on every replay: both
//! worlds' barrier handlers hand them to the one
//! [`FaultLedger`], a single rack with no
//! other rack to restart its stranded guests onto.

use std::mem;
use std::sync::Arc;

use dredbox_bricks::BrickId;
use dredbox_orchestrator::{OffloadSessionId, RackDigest};
use dredbox_sim::engine::RunOutcome;
use dredbox_sim::observe::ObservationLog;
use dredbox_sim::parallel::{ParallelWorld, SerialContext, WorkerContext, WorldWorker};
use dredbox_sim::queue::{ControlPlaneQueue, QueueAdmission};
use dredbox_sim::rng::SimRng;
use dredbox_sim::shard::ShardId;
use dredbox_sim::time::{SimDuration, SimTime};
use dredbox_sim::units::ByteSize;
use dredbox_workload::VmDemand;

use crate::system::{DredboxSystem, MigrationReport, OffloadReport, SystemError, VmHandle};

use super::datapath::{DataPathLoop, DataPathModel, ReadPrices, READ_SIZES};
use super::faults::FaultLedger;
use super::observer::{Metric, Op, RackObserver};
use super::{ChurnModel, MigrationPolicy, ScenarioReport, ScenarioSpec};

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
    /// [`FailureSchedule`](dredbox_sim::fault::FailureSchedule) strikes
    /// its site.
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
}

impl<'a> ScenarioWorld<'a> {
    /// Builds the world for one replay: the rack's control-plane queue
    /// (paying the spec's per-queued-request penalty) and empty
    /// counters/metric series.
    pub(super) fn new(
        spec: &'a ScenarioSpec,
        system: DredboxSystem,
        demands: Arc<Vec<VmDemand>>,
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
        }
    }

    /// Logs one sample of a report summary.
    fn sample(&mut self, metric: Metric, value: f64) {
        self.log
            .record(|batch| batch.ops.push(Op::Sample { metric, value }));
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
}

/// A single-rack replay: one shard, no channels, and the rack's world as
/// its worker. Faults strike at epoch barriers through the same
/// [`FaultLedger`] a federation drives, with no other rack to restart
/// stranded guests onto.
pub(super) struct RackWorld<'a> {
    /// The rack's world, while no run holds it.
    pub(super) rack: Vec<ScenarioWorld<'a>>,
    pub(super) faults: FaultLedger,
}

impl<'a> ParallelWorld for RackWorld<'a> {
    type Event = ScenarioEvent;
    type Worker = ScenarioWorld<'a>;

    fn split(&mut self, _shards: usize) -> Vec<ScenarioWorld<'a>> {
        mem::take(&mut self.rack)
    }

    fn reunite(&mut self, workers: Vec<ScenarioWorld<'a>>) {
        self.rack = workers;
    }

    fn latency(&self, _from: ShardId, _to: ShardId) -> Option<SimDuration> {
        None
    }

    fn handle_barrier(
        &mut self,
        workers: &mut [ScenarioWorld<'a>],
        _shard: ShardId,
        now: SimTime,
        event: ScenarioEvent,
        ctx: &mut SerialContext<'_, ScenarioEvent>,
    ) {
        let racks = &mut [&mut workers[0]];
        match event {
            ScenarioEvent::Fault { index } => self.faults.strike(racks, None, now, index, ctx),
            ScenarioEvent::Repair { index } => self.faults.repair(racks, now, index),
            _ => unreachable!("a single rack schedules no other serial event"),
        }
    }
}

impl RackWorld<'_> {
    /// Assembles the report once the engine stops.
    pub(super) fn finish(
        mut self,
        outcome: RunOutcome,
        end: SimTime,
        events: u64,
    ) -> ScenarioReport {
        let world = self.rack.pop().expect("the runner hands the world back");
        let mut observed = world.log.into_observer();
        debug_assert_eq!(
            *observed.prices(),
            ReadPrices::new(&world.system, world.spec.contention()),
            "read prices diverged from the live model"
        );
        let summaries = Metric::ALL.map(|metric| observed.finish(metric));
        // The data-path block only exists on specs that configure the
        // load-dependent model; every pre-existing report (and golden)
        // stays byte-identical.
        let read_latency = summaries[Metric::ReadLatency as usize].as_ref();
        let data_path = observed.take_data_path().map(|dp| dp.finish(read_latency));
        ScenarioReport::assemble(
            world.spec,
            outcome,
            end,
            events,
            &world.counters,
            summaries,
            world.control_plane.peak_depth() as u64,
            // The cluster tier reports from the federation's own world.
            None,
            self.faults,
            data_path,
        )
    }
}

/// Each rack's world handles its own shard's events.
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
            | ScenarioEvent::UpgradeRack { .. }
            | ScenarioEvent::Fault { .. }
            | ScenarioEvent::Repair { .. } => {
                // Cluster-tier events are intercepted by the federated
                // workers (`scenario::cluster`) before they reach a rack's
                // world, and faults and repairs are serial events that
                // every replay hands its barrier handler
                // (`scenario::faults`).
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
