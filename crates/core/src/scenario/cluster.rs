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
//! shard's worker at once ([`ParallelWorld::handle_barrier`]). The declared
//! channel latencies (front→rack: route + hop; rack→front: route; no
//! rack→rack channel) give the conservative runner its lookahead: between
//! control-interval ticks every rack advances a full epoch in parallel.
//!
//! The partition is the semantics: `threads = 1` replays the identical
//! event order, so the committed multi-rack goldens are the proof that
//! worker counts never leak into a report.

use std::collections::BTreeMap;
use std::mem;
use std::sync::Arc;

use dredbox_bricks::{BrickId, RackId};
use dredbox_orchestrator::{ClusterController, ClusterTimings};
use dredbox_sim::engine::RunOutcome;
use dredbox_sim::fault::{FailureSchedule, FaultInjector, FaultKind, FaultSite};
use dredbox_sim::parallel::{ParallelWorld, SerialContext, WorkerContext, WorldWorker};
use dredbox_sim::rng::SimRng;
use dredbox_sim::shard::ShardId;
use dredbox_sim::stats::Summary;
use dredbox_sim::time::{SimDuration, SimTime};
use dredbox_sim::units::ByteSize;
use dredbox_workload::VmDemand;

use crate::snapshot::SystemSnapshot;
use crate::system::{DredboxSystem, MigrationReport, VmHandle};

use super::observer::Metric;
use super::world::{Counters, ScenarioEvent, ScenarioWorld};
use super::{AvailabilityStats, ClusterScenarioStats, ScenarioReport, ScenarioSpec};

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

/// Shard 0's front door and the rack shards of a split federation, typed:
/// the split puts the front door first and rack `r` at shard `1 + r`.
fn parts<'w, 'a>(
    workers: &'w mut [ClusterWorker<'a>],
) -> (&'w mut FrontDoor, Vec<&'w mut RackShard<'a>>) {
    let mut front = None;
    let mut racks = Vec::with_capacity(workers.len().saturating_sub(1));
    for worker in workers {
        match worker {
            ClusterWorker::Front(f) => front = Some(f),
            ClusterWorker::Rack(shard) => racks.push(&mut **shard),
        }
    }
    (front.expect("every split holds the front door"), racks)
}

/// The whole federation: front door plus one [`RackShard`] per rack,
/// with the cluster-tier availability state held by the coordinator.
pub(super) struct ClusterWorld<'a> {
    spec: &'a ScenarioSpec,
    timings: ClusterTimings,
    /// Every shard's worker, front door first, while no run holds them.
    workers: Vec<ClusterWorker<'a>>,
    /// The spec's seeded fault schedule; faults strike at epoch barriers
    /// so recovery can restart guests across racks.
    faults: FailureSchedule,
    injector: FaultInjector,
    availability: AvailabilityStats,
    blast_radius_vms: Summary,
    /// VMs lost to each outstanding fault, charged VM-seconds at repair.
    lost_at: BTreeMap<FaultSite, u64>,
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
        faults: FailureSchedule,
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
                world: ScenarioWorld::new(
                    spec,
                    system,
                    Arc::clone(&demands),
                    FailureSchedule::default(),
                    rng,
                ),
            })));
        }
        ClusterWorld {
            spec,
            timings,
            workers,
            faults,
            injector: FaultInjector::new(),
            availability: AvailabilityStats::default(),
            blast_radius_vms: Summary::new(),
            lost_at: BTreeMap::new(),
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
        racks: &mut [&mut RackShard<'a>],
        now: SimTime,
        source: u16,
        ctx: &mut SerialContext<'_, ScenarioEvent>,
    ) {
        front.controller.set_schedulable(RackId(source), false);
        self.racks_drained += 1;
        let src = usize::from(source);
        let residents = racks[src].world.system.vms();
        for vm in residents {
            let system = &racks[src].world.system;
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
            let _ = racks[src].world.system.release_vm(vm);
            racks[src].world.counters.live -= 1;
            let report = land_on(
                self.spec,
                now,
                racks[usize::from(dest.0)],
                vm,
                new_vm,
                from,
                vcpus,
                memory,
                ctx,
            );
            racks[src].world.record_migration(now, &report);
            self.cross_rack_migrations += 1;
        }
        racks[src].world.sample_utilization();
    }

    /// One stage of the rolling upgrade: evacuate the rack, snapshot and
    /// restore its controller bit-identically, verify cluster-wide byte
    /// conservation, then readmit the rack into routing.
    fn upgrade_rack(
        &mut self,
        front: &mut FrontDoor,
        racks: &mut [&mut RackShard<'a>],
        now: SimTime,
        rack: u16,
        ctx: &mut SerialContext<'_, ScenarioEvent>,
    ) {
        let allocated_before = pool_allocated(racks);
        self.evacuate_rack(front, racks, now, rack, ctx);
        let world = &mut racks[usize::from(rack)].world;
        let bytes = SystemSnapshot::capture(&world.system).to_bytes();
        self.availability.upgrade_snapshot_bytes += bytes.len() as u64;
        match SystemSnapshot::from_bytes(&bytes) {
            Ok(snapshot) => {
                let restored = snapshot.into_system();
                if restored == world.system {
                    world.system = restored;
                } else {
                    self.availability.upgrade_restore_mismatches += 1;
                }
            }
            Err(_) => self.availability.upgrade_restore_mismatches += 1,
        }
        let allocated_after = pool_allocated(racks);
        self.availability.upgrade_lost_bytes += allocated_before.saturating_sub(allocated_after);
        self.availability.upgrades += 1;
        front.controller.undrain_rack(RackId(rack));
        racks[usize::from(rack)].world.sample_utilization();
    }

    /// Delivers one planned fault at an epoch barrier. Rack-local damage
    /// replays the single-system recovery protocol inside the struck
    /// rack's world; guests that rack can no longer hold get the
    /// cross-rack restart the federation owes them, placed here by the
    /// coordinator.
    fn cluster_fault(
        &mut self,
        front: &FrontDoor,
        racks: &mut [&mut RackShard<'a>],
        now: SimTime,
        index: usize,
        ctx: &mut SerialContext<'_, ScenarioEvent>,
    ) {
        let fault = self.faults.faults()[index];
        if !self.injector.begin(fault.site, now) {
            self.availability.faults_absorbed += 1;
            return;
        }
        self.availability.faults_injected += 1;
        let site = fault.site;
        let struck = site.rack as usize;
        let affected = match site.kind {
            FaultKind::ComputeBrick => self.fault_compute(&front.controller, racks, now, site, ctx),
            FaultKind::MemoryBrick => self.fault_memory(racks[struck], now, site, ctx),
            FaultKind::AccelBrick => self.fault_accel(racks[struck], now, site, ctx),
            FaultKind::Link => {
                let world = &mut racks[struck].world;
                if let Some(report) = world.system.fail_link(site.component) {
                    self.availability.links_severed += 1;
                    self.availability.circuits_rerouted += u64::from(report.rerouted);
                    self.availability.circuits_lost += u64::from(report.lost);
                }
                Some(0)
            }
            FaultKind::Switch => {
                let restored = racks[struck].world.system.fail_switch();
                self.availability.switch_failovers += 1;
                self.availability.circuits_restored += restored as u64;
                Some(0)
            }
        };
        let Some(affected) = affected else {
            return;
        };
        self.blast_radius_vms.record(affected as f64);
        racks[struck].world.sample_utilization();
    }

    /// A compute brick dies: sessions drop, guests migrate within the
    /// rack where possible, and the rest restart on other racks chosen by
    /// the front door's digests (truly lost only when no rack can hold
    /// them).
    fn fault_compute(
        &mut self,
        controller: &ClusterController,
        racks: &mut [&mut RackShard<'a>],
        now: SimTime,
        site: FaultSite,
        ctx: &mut SerialContext<'_, ScenarioEvent>,
    ) -> Option<u64> {
        let struck = site.rack as usize;
        let src = &mut racks[struck].world;
        let brick = src.fault_brick(site.kind, site.component)?;
        // Captured before the failure: who must be alive somewhere once
        // recovery is done.
        let residents: Vec<(VmHandle, u32, ByteSize)> = src
            .system
            .vms_on(brick)
            .into_iter()
            .filter_map(|vm| Some((vm, src.system.vm_vcpus(vm)?, src.system.vm_memory(vm)?)))
            .collect();
        let report = src.system.fail_compute_brick(brick).ok()?;
        self.availability.vm_migrations += u64::from(report.migrated);
        self.availability.sessions_dropped += u64::from(report.sessions_dropped);
        self.availability.orphaned_bytes += report.orphaned.as_bytes();
        src.counters.live -= u64::from(report.lost);
        for migration in &report.reports {
            src.record_migration(now, migration);
            // Evacuation downtime is availability lost to the fault.
            self.availability.vm_seconds_lost += migration.downtime.as_secs_f64();
        }
        // A single rack has nowhere to spill; the coordinator restarts the
        // guests its rack stranded on the other racks.
        let mut restarted = 0u64;
        let mut lost = 0u64;
        for (vm, vcpus, memory) in residents {
            if racks[struck].world.system.vm_brick(vm).is_some() {
                // Survived in place or migrated within the rack.
                continue;
            }
            let placed =
                place_on_cluster(controller, racks, RackId(site.rack as u16), vcpus, memory);
            let Some((dest, new_vm)) = placed else {
                lost += 1;
                continue;
            };
            restarted += 1;
            let report = land_on(
                self.spec,
                now,
                racks[usize::from(dest.0)],
                vm,
                new_vm,
                brick,
                vcpus,
                memory,
                ctx,
            );
            racks[struck].world.record_migration(now, &report);
            self.availability.vm_seconds_lost += report.downtime.as_secs_f64();
        }
        self.availability.vm_restarts += restarted;
        self.availability.vms_lost += lost;
        if lost > 0 {
            *self.lost_at.entry(site).or_default() += lost;
        }
        // Orphan detection runs as part of the recovery protocol: bytes
        // stranded by dead guests (including the restarted ones' old
        // segments) go back to the pool now.
        let reclaim = racks[struck].world.system.reclaim_orphans();
        self.availability.reclaimed_bytes += reclaim.reclaimed.as_bytes();
        Some(u64::from(report.migrated) + restarted + lost)
    }

    /// A memory brick dies: segments vanish, affected guests restart
    /// within the struck rack (memory faults never leave the rack — the
    /// guest's compute brick survives in place).
    fn fault_memory(
        &mut self,
        shard: &mut RackShard<'a>,
        now: SimTime,
        site: FaultSite,
        ctx: &mut SerialContext<'_, ScenarioEvent>,
    ) -> Option<u64> {
        let brick = shard.world.fault_brick(site.kind, site.component)?;
        let report = shard.world.system.fail_membrick(brick).ok()?;
        let affected = report.restarted.len() as u64 + u64::from(report.lost);
        self.availability.segments_lost_bytes += report.lost_bytes.as_bytes();
        self.availability.sessions_dropped += u64::from(report.sessions_dropped);
        self.availability.vm_restarts += report.restarted.len() as u64;
        self.availability.vms_lost += u64::from(report.lost);
        shard.world.counters.live -= u64::from(report.lost);
        if report.lost > 0 {
            *self.lost_at.entry(site).or_default() += u64::from(report.lost);
        }
        // Each killed-and-readmitted guest restarts under a fresh handle:
        // the old handle's scheduled events decay into no-ops, and the new
        // guest gets its own departure on the struck shard.
        for &(_, vm) in &report.restarted {
            let lifetime = self.spec.lifetime.sample(&mut shard.world.rng);
            ctx.schedule(
                ShardId(1 + site.rack),
                now + lifetime,
                ScenarioEvent::Departure { vm },
            );
        }
        Some(affected)
    }

    /// An accelerator brick dies: streaming sessions drain and their
    /// owners retry once a surviving accelerator may pick them up.
    fn fault_accel(
        &mut self,
        shard: &mut RackShard<'a>,
        now: SimTime,
        site: FaultSite,
        ctx: &mut SerialContext<'_, ScenarioEvent>,
    ) -> Option<u64> {
        let brick = shard.world.fault_brick(site.kind, site.component)?;
        let report = shard.world.system.fail_accel_brick(brick).ok()?;
        let affected = report.drained.len() as u64;
        self.availability.sessions_dropped += report.drained.len() as u64;
        if let Some(plan) = self.spec.offload {
            for &(_, vm) in &report.drained {
                ctx.schedule(
                    ShardId(1 + site.rack),
                    now + plan.start_after,
                    ScenarioEvent::OffloadBegin { vm, remaining: 1 },
                );
            }
        }
        Some(affected)
    }

    /// Repairs one planned fault's site on the struck rack's world. A
    /// repair for an absorbed fault is a no-op — the earlier fault's own
    /// repair brings the site back.
    fn cluster_repair(&mut self, racks: &mut [&mut RackShard<'a>], now: SimTime, index: usize) {
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
        let world = &mut racks[site.rack as usize].world;
        match site.kind {
            FaultKind::ComputeBrick => {
                if let Some(brick) = world.fault_brick(site.kind, site.component) {
                    let _ = world.system.repair_compute_brick(brick);
                }
            }
            FaultKind::MemoryBrick => {
                if let Some(brick) = world.fault_brick(site.kind, site.component) {
                    let _ = world.system.repair_membrick(brick);
                }
            }
            FaultKind::AccelBrick => {
                if let Some(brick) = world.fault_brick(site.kind, site.component) {
                    let _ = world.system.repair_accel_brick(brick);
                }
            }
            FaultKind::Link => {
                let _ = world.system.repair_link(site.component);
            }
            // The switch fault self-healed onto the standby at injection.
            FaultKind::Switch => {}
        }
        world.sample_utilization();
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
        let (front, shards) = parts(&mut workers);
        let racks = shards.len();
        let mut c = Counters::default();
        let mut stats = ClusterScenarioStats {
            racks: racks as u64,
            spillovers: front.spillovers,
            power_deferrals: front.power_deferrals,
            cross_rack_migrations: self.cross_rack_migrations,
            racks_drained: self.racks_drained,
            drain_stranded: self.drain_stranded,
            admissions_per_rack: Vec::with_capacity(racks),
            power_off_per_rack: Vec::with_capacity(racks),
            ..ClusterScenarioStats::default()
        };
        let mut peak_queue = 0u64;
        let mut merged: [Summary; Metric::ALL.len()] = std::array::from_fn(|_| Summary::new());
        for shard in shards {
            let w = &mut shard.world;
            c.admitted += w.counters.admitted;
            c.rejected += w.counters.rejected;
            c.live += w.counters.live;
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
        let mut finish = |metric: Metric| mem::take(&mut merged[metric as usize]).finish();
        // Final rejections live at the front door; racks only ever bounce
        // requests back for another candidate.
        c.rejected += front.rejected;
        let availability = if self.spec.faults.is_some() || self.spec.upgrade.is_some() {
            let mut stats = self.availability;
            stats.blast_radius = self.blast_radius_vms.finish();
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
            control_plane_peak_queue: peak_queue,
            scale_up_delay: finish(Metric::ScaleUpDelay),
            read_latency: finish(Metric::ReadLatency),
            pool_utilization: finish(Metric::PoolUtilization),
            migration_downtime: finish(Metric::MigrationDowntime),
            precopy_counterfactual: finish(Metric::PrecopyCounterfactual),
            scaleout_counterfactual: finish(Metric::ScaleoutCounterfactual),
            control_plane_wait: finish(Metric::ControlPlaneWait),
            offload_time: finish(Metric::OffloadTime),
            offload_local_counterfactual: finish(Metric::OffloadLocalCounterfactual),
            accel_utilization: finish(Metric::AccelUtilization),
            cluster: Some(stats),
            availability,
            // The load-dependent data path is single-rack only (validated
            // at spec level).
            data_path: None,
        }
    }
}

/// Pooled bytes allocated across every rack (the cluster-wide byte
/// conservation check of the rolling upgrade).
fn pool_allocated(racks: &[&mut RackShard<'_>]) -> u64 {
    racks
        .iter()
        .map(|s| s.world.system.pool_allocated().as_bytes())
        .sum()
}

/// Picks the first rack (per the front door's spillover preference,
/// excluding `exclude`) whose world actually admits the request, and
/// places it there. `None` when no rack can hold it.
fn place_on_cluster(
    controller: &ClusterController,
    racks: &mut [&mut RackShard<'_>],
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
        let system = &mut racks[usize::from(dest.0)].world.system;
        if let Ok(vm) = system.allocate_vm(vcpus, memory) {
            return Some((dest, vm));
        }
        refused |= 1u64 << u32::from(dest.0);
    }
    None
}

/// Books the arrival of one coordinator-driven cross-rack move on the
/// destination shard — it schedules the fresh guest's departure and
/// tracks its liveness — and returns the move's migration report. The
/// caller records the report on the source rack: its SDM controller
/// orchestrated the hand-off, so it owns the control-plane charge.
#[allow(clippy::too_many_arguments)]
fn land_on(
    spec: &ScenarioSpec,
    now: SimTime,
    dest: &mut RackShard<'_>,
    vm: VmHandle,
    new_vm: VmHandle,
    from: BrickId,
    vcpus: u32,
    memory: ByteSize,
    ctx: &mut SerialContext<'_, ScenarioEvent>,
) -> MigrationReport {
    let world = &mut dest.world;
    let to = world
        .system
        .vm_brick(new_vm)
        .expect("freshly placed VM is resident");
    let orchestration = world
        .system
        .admission_service_time(new_vm)
        .unwrap_or_default();
    world.counters.live += 1;
    world.counters.peak_live = world.counters.peak_live.max(world.counters.live);
    let lifetime = spec.lifetime.sample(&mut world.rng);
    ctx.schedule(
        ShardId(1 + u32::from(dest.rack)),
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
                self.cluster_fault(front, &mut racks, now, index, ctx)
            }
            ScenarioEvent::Repair { index } => self.cluster_repair(&mut racks, now, index),
            ScenarioEvent::Rebalance => {
                if let Some(policy) = self.spec.migration {
                    for shard in &mut racks {
                        shard.world.rebalance(now, policy);
                        shard.world.sample_utilization();
                    }
                    ctx.schedule_serial(ShardId(0), now + policy.every(), ScenarioEvent::Rebalance);
                }
            }
            _ => unreachable!("parallel event dispatched at a serial barrier"),
        }
    }
}
