//! The federated cluster as a [`ParallelWorld`]: one front-door shard
//! plus one shard per rack, each owning its own single-rack
//! [`DredboxSystem`].
//!
//! A [`DredboxSystem`] is one rack, and this module is the only place
//! racks federate. The tiers follow dReDBox's split of orchestration: the
//! cluster tier maps work to racks off capacity digests, and each rack's
//! SDM controller maps it to bricks. A worker thread must own every byte
//! its shard touches, so the cluster partitions along that split:
//!
//! * **Shard 0, the front door** ([`FrontDoor`]), owns the arrival trace
//!   and a standalone [`ClusterController`] fed by periodic capacity
//!   digests. Every [`ClusterTimings::control_interval`] it dispatches the
//!   arrivals due since its last tick, routing each to a rack as a
//!   timestamped [`ScenarioEvent::AdmitOn`] message (one routing read plus
//!   one control-network hop later). A rack that cannot hold the request
//!   spills it back ([`ScenarioEvent::SpillOver`]) carrying the bitmask of
//!   racks already tried; exhausting the candidates books the rejection at
//!   the front door.
//! * **Shard `1 + r`, rack `r`** ([`RackShard`]), owns a *single-rack*
//!   [`DredboxSystem`] wrapped in the ordinary
//!   [`ScenarioWorld`] — inside its world the rack is always local
//!   [`RackId`]\(0\), and the global index exists only in the shard
//!   labels. Everything after admission (churn, departures, offloads,
//!   power sweeps, read charges) is rack-local and runs without any
//!   cross-shard traffic.
//!
//! Cluster-tier operations that genuinely span racks — drain, rolling
//! upgrade, fault recovery with cross-rack restarts, rebalance — run as
//! *serial* events at epoch barriers, where the coordinator holds every
//! shard's worker at once ([`ParallelWorld::handle_barrier`]). Fault
//! recovery is the [`FaultLedger`] a single-rack replay drives too; this
//! world hands it the front door's controller, so guests the struck rack
//! strands restart on the other racks. The declared channel latencies
//! (front→rack: route + hop; rack→front: route; no rack→rack channel)
//! give the conservative runner its lookahead: between control-interval
//! ticks every rack advances a full epoch in parallel.
//!
//! The partition is the semantics: `threads = 1` replays the identical
//! event order, so the committed multi-rack goldens are the proof that
//! worker counts never leak into a report.

use std::mem;
use std::sync::Arc;

use dredbox_bricks::{BrickId, RackId};
use dredbox_orchestrator::{ClusterController, ClusterTimings};
use dredbox_sim::engine::RunOutcome;
use dredbox_sim::parallel::{ParallelWorld, SerialContext, WorkerContext, WorldWorker};
use dredbox_sim::rng::SimRng;
use dredbox_sim::shard::ShardId;
use dredbox_sim::stats::Summary;
use dredbox_sim::time::{SimDuration, SimTime};
use dredbox_sim::units::ByteSize;
use dredbox_workload::VmDemand;

use crate::snapshot::SystemSnapshot;
use crate::system::{DredboxSystem, MigrationReport, VmHandle};

use super::faults::FaultLedger;
use super::observer::Metric;
use super::world::{Counters, ScenarioEvent, ScenarioWorld};
use super::{ClusterScenarioStats, ScenarioReport, ScenarioSpec};

/// Racks one federation holds: the spillover search marks refusing racks
/// in one `u64` bitmask.
pub(super) const MAX_RACKS: u16 = 64;

/// Shard 0: the cluster controller's admission front door.
pub(super) struct FrontDoor {
    controller: ClusterController,
    timings: ClusterTimings,
    demands: Arc<Vec<VmDemand>>,
    /// The full arrival trace, ascending; `cursor` marks the first
    /// arrival not yet dispatched.
    arrivals: Vec<SimTime>,
    cursor: usize,
    racks: u16,
    /// Admissions no rack could hold (booked here, not on a rack).
    rejected: u64,
    /// Spillover hops between racks.
    spillovers: u64,
    /// Routing decisions deferred past a rack by its power budget.
    power_deferrals: u64,
}

impl FrontDoor {
    /// Routes one routed-admission hop to `rack`'s shard.
    fn dispatch(
        &mut self,
        rack: RackId,
        index: usize,
        tried: u64,
        now: SimTime,
        ctx: &mut WorkerContext<'_, ScenarioEvent>,
    ) {
        ctx.send(
            ShardId(1 + u32::from(rack.0)),
            now + self.timings.route + self.timings.hop,
            ScenarioEvent::AdmitOn { index, tried },
        );
    }

    /// First routing decision for one arrival: when no digest admits the
    /// request, the first schedulable rack still gets to try (its SDM
    /// controller owns the authoritative rejection); with every rack
    /// drained the front door rejects outright.
    fn route(&mut self, index: usize, now: SimTime, ctx: &mut WorkerContext<'_, ScenarioEvent>) {
        let demand = self.demands[index];
        let route = self.controller.route(demand.vcpus, demand.memory);
        self.power_deferrals += u64::from(route.power_deferrals);
        let fallback = (0..self.racks)
            .map(RackId)
            .find(|r| self.controller.is_schedulable(*r));
        let Some(rack) = route.rack.or(fallback) else {
            self.rejected += 1;
            return;
        };
        self.dispatch(rack, index, 1u64 << u32::from(rack.0), now, ctx);
    }

    /// A rack bounced a routed admission: try the next candidate not in
    /// the `tried` bitmask, or make the rejection final.
    fn spill(
        &mut self,
        index: usize,
        tried: u64,
        now: SimTime,
        ctx: &mut WorkerContext<'_, ScenarioEvent>,
    ) {
        let demand = self.demands[index];
        let next = self
            .controller
            .pick(demand.vcpus, demand.memory, |r| {
                tried & (1u64 << u32::from(r.0)) != 0
            })
            .rack;
        let Some(rack) = next else {
            self.rejected += 1;
            return;
        };
        self.spillovers += 1;
        self.dispatch(rack, index, tried | (1u64 << u32::from(rack.0)), now, ctx);
    }

    fn handle(
        &mut self,
        now: SimTime,
        event: ScenarioEvent,
        ctx: &mut WorkerContext<'_, ScenarioEvent>,
    ) {
        match event {
            ScenarioEvent::FrontDoorTick => {
                while self.cursor < self.arrivals.len() && self.arrivals[self.cursor] <= now {
                    let index = self.cursor;
                    self.cursor += 1;
                    self.route(index, now, ctx);
                }
                // Re-armed unconditionally; the engine horizon stops it.
                ctx.schedule(
                    now + self.timings.control_interval,
                    ScenarioEvent::FrontDoorTick,
                );
            }
            ScenarioEvent::DigestUpdate { rack, digest } => {
                self.controller.upsert(RackId(rack), *digest);
            }
            ScenarioEvent::SpillOver { index, tried } => self.spill(index, tried, now, ctx),
            _ => unreachable!("rack-tier event dispatched to the cluster front door"),
        }
    }
}

/// Shard `1 + rack`: one rack's world, owned whole by whichever worker
/// thread runs the shard.
pub(super) struct RackShard<'a> {
    /// The rack's index in the federation.
    rack: u16,
    timings: ClusterTimings,
    world: ScenarioWorld<'a>,
}

impl RackShard<'_> {
    fn handle(
        &mut self,
        now: SimTime,
        event: ScenarioEvent,
        ctx: &mut WorkerContext<'_, ScenarioEvent>,
    ) {
        match event {
            ScenarioEvent::AdmitOn { index, tried } => {
                if !self.world.admit(index, now, ctx) {
                    ctx.send(
                        ShardId(0),
                        now + self.timings.route,
                        ScenarioEvent::SpillOver { index, tried },
                    );
                }
            }
            ScenarioEvent::DigestPublish => {
                ctx.send(
                    ShardId(0),
                    now + self.timings.route,
                    ScenarioEvent::DigestUpdate {
                        rack: self.rack,
                        digest: Box::new(self.world.system.digest()),
                    },
                );
                ctx.schedule(
                    now + self.timings.control_interval,
                    ScenarioEvent::DigestPublish,
                );
            }
            other => self.world.dispatch(now, other, ctx),
        }
    }
}

/// Owned per-shard slice of the federation, travelling between worker
/// threads. A rack's world is boxed: the epoch loop moves workers by value
/// several times per visit, and a pointer is cheaper to move than the
/// world.
pub(super) enum ClusterWorker<'a> {
    /// Shard 0.
    Front(FrontDoor),
    /// Shard `1 + rack`.
    Rack(Box<RackShard<'a>>),
}

impl WorldWorker for ClusterWorker<'_> {
    type Event = ScenarioEvent;

    fn handle(
        &mut self,
        _shard: ShardId,
        now: SimTime,
        event: ScenarioEvent,
        ctx: &mut WorkerContext<'_, ScenarioEvent>,
    ) {
        match self {
            ClusterWorker::Front(front) => front.handle(now, event, ctx),
            ClusterWorker::Rack(shard) => shard.handle(now, event, ctx),
        }
    }
}

/// Shard 0's front door and every rack's world of a split federation,
/// typed: the split puts the front door first and rack `r` at shard
/// `1 + r`.
fn parts<'w, 'a>(
    workers: &'w mut [ClusterWorker<'a>],
) -> (&'w mut FrontDoor, Vec<&'w mut ScenarioWorld<'a>>) {
    let mut front = None;
    let mut racks = Vec::with_capacity(workers.len().saturating_sub(1));
    for worker in workers {
        match worker {
            ClusterWorker::Front(f) => front = Some(f),
            ClusterWorker::Rack(shard) => racks.push(&mut shard.world),
        }
    }
    (front.expect("every split holds the front door"), racks)
}

/// The whole federation: front door plus one [`RackShard`] per rack,
/// with the cluster-tier state held by the coordinator.
pub(super) struct ClusterWorld<'a> {
    spec: &'a ScenarioSpec,
    timings: ClusterTimings,
    /// Every shard's worker, front door first, while no run holds them.
    workers: Vec<ClusterWorker<'a>>,
    /// Fault recovery and the availability telemetry, rolling upgrades'
    /// figures included.
    faults: FaultLedger,
    cross_rack_migrations: u64,
    racks_drained: u64,
    drain_stranded: u64,
}

impl<'a> ClusterWorld<'a> {
    /// Builds the partitioned federation: one [`ScenarioWorld`] around
    /// each single-rack system (forked rng per rack, in rack order) and a
    /// front door seeded with every rack's initial digest and the spec's
    /// power budget.
    pub(super) fn new(
        spec: &'a ScenarioSpec,
        demands: Arc<Vec<VmDemand>>,
        arrivals: Vec<SimTime>,
        faults: FaultLedger,
        rack_systems: Vec<DredboxSystem>,
        rack_rngs: Vec<SimRng>,
        timings: ClusterTimings,
    ) -> Self {
        let racks = rack_systems.len();
        assert!(
            racks <= usize::from(MAX_RACKS),
            "the spillover bitmask covers at most 64 racks"
        );
        let mut controller = ClusterController::new(spec.system.placement);
        controller.set_rack_budget(spec.system.rack_power_budget);
        for (r, system) in rack_systems.iter().enumerate() {
            controller.upsert(RackId(r as u16), system.digest());
        }
        let mut workers = Vec::with_capacity(racks + 1);
        workers.push(ClusterWorker::Front(FrontDoor {
            controller,
            timings,
            demands: Arc::clone(&demands),
            arrivals,
            cursor: 0,
            racks: racks as u16,
            rejected: 0,
            spillovers: 0,
            power_deferrals: 0,
        }));
        for (r, (system, rng)) in rack_systems.into_iter().zip(rack_rngs).enumerate() {
            workers.push(ClusterWorker::Rack(Box::new(RackShard {
                rack: r as u16,
                timings,
                world: ScenarioWorld::new(spec, system, Arc::clone(&demands), rng),
            })));
        }
        ClusterWorld {
            spec,
            timings,
            workers,
            faults,
            cross_rack_migrations: 0,
            racks_drained: 0,
            drain_stranded: 0,
        }
    }

    /// Drains `source`: stops routing admissions to it and migrates every
    /// resident VM onto the best other rack per the front door's digests.
    /// VMs no surviving rack can hold stay put and count as stranded.
    fn evacuate_rack(
        &mut self,
        front: &mut FrontDoor,
        racks: &mut [&mut ScenarioWorld<'a>],
        now: SimTime,
        source: u16,
        ctx: &mut SerialContext<'_, ScenarioEvent>,
    ) {
        front.controller.set_schedulable(RackId(source), false);
        self.racks_drained += 1;
        let src = usize::from(source);
        let residents = racks[src].system.vms();
        for vm in residents {
            let system = &racks[src].system;
            let (Some(vcpus), Some(memory), Some(from)) = (
                system.vm_vcpus(vm),
                system.vm_memory(vm),
                system.vm_brick(vm),
            ) else {
                continue;
            };
            let placed = place_on_cluster(&front.controller, racks, RackId(source), vcpus, memory);
            let Some((dest, new_vm)) = placed else {
                self.drain_stranded += 1;
                continue;
            };
            // The old handle's scheduled events decay into no-ops; the
            // moved guest lives on under the fresh handle at `dest`.
            let _ = racks[src].system.release_vm(vm);
            racks[src].counters.live -= 1;
            let shard = ShardId(1 + u32::from(dest.0));
            let dest = usize::from(dest.0);
            let report = land_on(
                now,
                racks[dest],
                shard,
                vm,
                new_vm,
                from,
                vcpus,
                memory,
                ctx,
            );
            racks[src].record_migration(now, &report);
            self.cross_rack_migrations += 1;
        }
        racks[src].sample_utilization();
    }

    /// One stage of the rolling upgrade: evacuate the rack, snapshot and
    /// restore its controller bit-identically, verify cluster-wide byte
    /// conservation, then readmit the rack into routing.
    fn upgrade_rack(
        &mut self,
        front: &mut FrontDoor,
        racks: &mut [&mut ScenarioWorld<'a>],
        now: SimTime,
        rack: u16,
        ctx: &mut SerialContext<'_, ScenarioEvent>,
    ) {
        let allocated_before = pool_allocated(racks);
        self.evacuate_rack(front, racks, now, rack, ctx);
        let world = &mut racks[usize::from(rack)];
        let stats = &mut self.faults.stats;
        let bytes = SystemSnapshot::capture(&world.system).to_bytes();
        stats.upgrade_snapshot_bytes += bytes.len() as u64;
        match SystemSnapshot::from_bytes(&bytes) {
            Ok(snapshot) => {
                let restored = snapshot.into_system();
                if restored == world.system {
                    world.system = restored;
                } else {
                    stats.upgrade_restore_mismatches += 1;
                }
            }
            Err(_) => stats.upgrade_restore_mismatches += 1,
        }
        let allocated_after = pool_allocated(racks);
        let stats = &mut self.faults.stats;
        stats.upgrade_lost_bytes += allocated_before.saturating_sub(allocated_after);
        stats.upgrades += 1;
        front.controller.undrain_rack(RackId(rack));
        racks[usize::from(rack)].sample_utilization();
    }

    /// Assembles the cluster report: per-rack sketches merge in rack order
    /// (the canonical merge order), counters sum field-wise, and
    /// the coordinator contributes the cluster-tier and availability
    /// telemetry. Every admission a rack accepted was routed to it, and
    /// every brick it powered off was one of its own, so the per-rack
    /// figures are the racks' own counters.
    pub(super) fn finish(
        mut self,
        outcome: RunOutcome,
        end: SimTime,
        events: u64,
    ) -> ScenarioReport {
        let mut workers = mem::take(&mut self.workers);
        let (front, racks) = parts(&mut workers);
        let mut c = Counters::default();
        let mut stats = ClusterScenarioStats {
            racks: racks.len() as u64,
            spillovers: front.spillovers,
            power_deferrals: front.power_deferrals,
            cross_rack_migrations: self.cross_rack_migrations,
            racks_drained: self.racks_drained,
            drain_stranded: self.drain_stranded,
            admissions_per_rack: Vec::with_capacity(racks.len()),
            power_off_per_rack: Vec::with_capacity(racks.len()),
            ..ClusterScenarioStats::default()
        };
        let mut peak_queue = 0u64;
        let mut merged: [Summary; Metric::ALL.len()] = std::array::from_fn(|_| Summary::new());
        for w in racks {
            c.admitted += w.counters.admitted;
            c.rejected += w.counters.rejected;
            // Per-rack peaks need not align in time, so the sum is an
            // upper bound on the true cluster-wide peak.
            c.peak_live += w.counters.peak_live;
            c.departed += w.counters.departed;
            c.scale_ups += w.counters.scale_ups;
            c.scale_up_failures += w.counters.scale_up_failures;
            c.scale_downs += w.counters.scale_downs;
            c.power_sweeps += w.counters.power_sweeps;
            c.bricks_powered_off += w.counters.bricks_powered_off;
            c.rebalances += w.counters.rebalances;
            c.migrations += w.counters.migrations;
            c.migration_failures += w.counters.migration_failures;
            c.evacuations += w.counters.evacuations;
            c.offloads += w.counters.offloads;
            c.offload_failures += w.counters.offload_failures;
            c.offloads_completed += w.counters.offloads_completed;
            c.bitstream_reuses += w.counters.bitstream_reuses;
            c.bitstream_programs += w.counters.bitstream_programs;
            c.accel_wakes += w.counters.accel_wakes;
            stats.routed_admissions += w.counters.admitted;
            stats.admissions_per_rack.push(w.counters.admitted);
            stats.power_off_per_rack.push(w.counters.bricks_powered_off);
            peak_queue = peak_queue.max(w.control_plane.peak_depth() as u64);
            let observed = w.log.observer();
            for metric in Metric::ALL {
                merged[metric as usize].merge(observed.summary(metric));
            }
        }
        // Final rejections live at the front door; racks only ever bounce
        // requests back for another candidate.
        c.rejected += front.rejected;
        ScenarioReport::assemble(
            self.spec,
            outcome,
            end,
            events,
            &c,
            merged.map(Summary::finish),
            peak_queue,
            Some(stats),
            self.faults,
            // The load-dependent data path is single-rack only (validated
            // at spec level).
            None,
        )
    }
}

/// Pooled bytes allocated across every rack (the cluster-wide byte
/// conservation check of the rolling upgrade).
fn pool_allocated(racks: &[&mut ScenarioWorld<'_>]) -> u64 {
    racks
        .iter()
        .map(|w| w.system.pool_allocated().as_bytes())
        .sum()
}

/// Picks the first rack (per the front door's spillover preference,
/// excluding `exclude`) whose world actually admits the request, and
/// places it there. `None` when no rack can hold it.
pub(super) fn place_on_cluster(
    controller: &ClusterController,
    racks: &mut [&mut ScenarioWorld<'_>],
    exclude: RackId,
    vcpus: u32,
    memory: ByteSize,
) -> Option<(RackId, VmHandle)> {
    // The front door's digests do not move during a serial event, so
    // skipping each refusing rack visits racks in preference order.
    let mut refused = 1u64 << u32::from(exclude.0);
    while let Some(dest) = controller
        .pick(vcpus, memory, |r| refused & (1u64 << u32::from(r.0)) != 0)
        .rack
    {
        let system = &mut racks[usize::from(dest.0)].system;
        if let Ok(vm) = system.allocate_vm(vcpus, memory) {
            return Some((dest, vm));
        }
        refused |= 1u64 << u32::from(dest.0);
    }
    None
}

/// Books the arrival of one coordinator-driven cross-rack move on the
/// destination rack's world `dest`, which runs on `shard` — it schedules
/// the fresh guest's departure and tracks its liveness — and returns the
/// move's migration report. The caller records the report on the source
/// rack: its SDM controller orchestrated the hand-off, so it owns the
/// control-plane charge.
#[allow(clippy::too_many_arguments)]
pub(super) fn land_on(
    now: SimTime,
    dest: &mut ScenarioWorld<'_>,
    shard: ShardId,
    vm: VmHandle,
    new_vm: VmHandle,
    from: BrickId,
    vcpus: u32,
    memory: ByteSize,
    ctx: &mut SerialContext<'_, ScenarioEvent>,
) -> MigrationReport {
    let to = dest
        .system
        .vm_brick(new_vm)
        .expect("freshly placed VM is resident");
    let orchestration = dest
        .system
        .admission_service_time(new_vm)
        .unwrap_or_default();
    dest.counters.live += 1;
    dest.counters.peak_live = dest.counters.peak_live.max(dest.counters.live);
    let spec = dest.spec;
    let lifetime = spec.lifetime.sample(&mut dest.rng);
    ctx.schedule(
        shard,
        now + lifetime,
        ScenarioEvent::Departure { vm: new_vm },
    );
    // Cross-rack moves cannot preserve pooled memory across the fabric
    // boundary: a conventional full copy plus the destination's admission
    // orchestration.
    let full_copy = spec.system.migration.conventional_migration(memory);
    MigrationReport {
        vm,
        from,
        to,
        moved_local_state: spec.system.migration.local_state(vcpus),
        preserved_memory: ByteSize::ZERO,
        orchestration_delay: orchestration,
        downtime: full_copy + orchestration,
        conventional_precopy: full_copy,
    }
}

impl<'a> ParallelWorld for ClusterWorld<'a> {
    type Event = ScenarioEvent;
    type Worker = ClusterWorker<'a>;

    fn split(&mut self, shards: usize) -> Vec<ClusterWorker<'a>> {
        assert_eq!(shards, self.workers.len());
        mem::take(&mut self.workers)
    }

    fn reunite(&mut self, workers: Vec<ClusterWorker<'a>>) {
        self.workers = workers;
    }

    fn latency(&self, from: ShardId, to: ShardId) -> Option<SimDuration> {
        if from == to {
            return None;
        }
        if from.0 == 0 {
            // Front door → rack: one routing read plus the tier hop.
            return Some(self.timings.route + self.timings.hop);
        }
        if to.0 == 0 {
            // Rack → front door: spillovers and digest publishes travel
            // one routing read.
            return Some(self.timings.route);
        }
        // Racks never message each other directly: every cross-rack flow
        // goes through the front door or a serial barrier.
        None
    }

    fn handle_barrier(
        &mut self,
        workers: &mut [ClusterWorker<'a>],
        _shard: ShardId,
        now: SimTime,
        event: ScenarioEvent,
        ctx: &mut SerialContext<'_, ScenarioEvent>,
    ) {
        let (front, mut racks) = parts(workers);
        match event {
            ScenarioEvent::DrainRack { rack } => {
                self.evacuate_rack(front, &mut racks, now, rack, ctx);
            }
            ScenarioEvent::UpgradeRack { rack } => {
                self.upgrade_rack(front, &mut racks, now, rack, ctx);
            }
            ScenarioEvent::Fault { index } => {
                let cluster = Some(&front.controller);
                self.faults.strike(&mut racks, cluster, now, index, ctx);
            }
            ScenarioEvent::Repair { index } => self.faults.repair(&mut racks, now, index),
            ScenarioEvent::Rebalance => {
                if let Some(policy) = self.spec.migration {
                    for world in &mut racks {
                        world.rebalance(now, policy);
                        world.sample_utilization();
                    }
                    ctx.schedule_serial(ShardId(0), now + policy.every(), ScenarioEvent::Rebalance);
                }
            }
            _ => unreachable!("parallel event dispatched at a serial barrier"),
        }
    }
}
