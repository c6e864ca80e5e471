//! The federated cluster as a [`ParallelWorld`]: one front-door shard
//! plus one shard per rack, each owning its own single-rack
//! [`DredboxSystem`].
//!
//! The serial engine drives multi-rack scenarios through one shared
//! [`DredboxSystem`] that federates every rack. That sharing is exactly
//! what the threaded runner cannot tolerate — a worker thread must own
//! every byte its shard touches — so this module partitions the cluster:
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
//! *serial* events at epoch barriers, where the coordinator sees every
//! rack world at once ([`ParallelWorld::handle_serial`]). The declared
//! channel latencies (front→rack: route + hop; rack→front: route; no
//! rack→rack channel) give the conservative runner its lookahead: between
//! control-interval ticks every rack advances a full epoch in parallel.
//!
//! The partition is the semantics, not an approximation of the shared
//! system: `threads = 1` replays the identical event order, so the
//! committed multi-rack goldens are the proof that worker counts never
//! leak into a report.

use std::collections::BTreeMap;
use std::sync::Arc;

use dredbox_bricks::{BrickId, RackId};
use dredbox_orchestrator::{ClusterController, ClusterTimings};
use dredbox_sim::engine::RunOutcome;
use dredbox_sim::fault::{FailureSchedule, FaultInjector, FaultKind, FaultSite};
use dredbox_sim::parallel::{ParallelWorld, SerialContext, WorkerContext, WorldWorker};
use dredbox_sim::queue::ControlPlaneQueue;
use dredbox_sim::rng::SimRng;
use dredbox_sim::shard::ShardId;
use dredbox_sim::stats::Summary;
use dredbox_sim::time::{SimDuration, SimTime};
use dredbox_sim::units::ByteSize;
use dredbox_workload::VmDemand;

use crate::snapshot::SystemSnapshot;
use crate::system::{DredboxSystem, MigrationReport, VmHandle};

use super::world::{Counters, ScenarioEvent, ScenarioWorld};
use super::{AvailabilityStats, ClusterScenarioStats, ScenarioReport, ScenarioSpec};

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
            ScenarioEvent::AdmitOn {
                index,
                rack: rack.0,
                tried,
            },
        );
    }

    /// First routing decision for one arrival. Mirrors
    /// [`DredboxSystem::allocate_vm_routed`]: when no digest admits the
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
                self.controller.upsert(RackId(rack), digest);
            }
            ScenarioEvent::SpillOver { index, tried } => self.spill(index, tried, now, ctx),
            _ => unreachable!("rack-tier event dispatched to the cluster front door"),
        }
    }
}

/// Shard `1 + rack`: one rack's world, owned whole by whichever worker
/// thread runs the shard.
pub(super) struct RackShard<'a> {
    /// The rack's *global* index — inside `world` it is always rack 0.
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
            ScenarioEvent::AdmitOn { index, tried, .. } => {
                if !self.world.admit_routed(index, now, ctx) {
                    ctx.send(
                        ShardId(0),
                        now + self.timings.route,
                        ScenarioEvent::SpillOver { index, tried },
                    );
                }
            }
            ScenarioEvent::DigestPublish => {
                if let Some(digest) = self.world.system.cluster().digest(RackId(0)).copied() {
                    ctx.send(
                        ShardId(0),
                        now + self.timings.route,
                        ScenarioEvent::DigestUpdate {
                            rack: self.rack,
                            digest,
                        },
                    );
                }
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
/// threads.
// The variants are deliberately unboxed: a worker moves across a channel
// once per epoch (not per event), so the size gap is irrelevant next to
// the pointer chase a box would add on every event dispatch.
#[allow(clippy::large_enum_variant)]
pub(super) enum ClusterWorker<'a> {
    /// Shard 0.
    Front(FrontDoor),
    /// Shard `1 + rack`.
    Rack(RackShard<'a>),
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

/// The whole federation: front door plus one [`RackShard`] per rack,
/// with the cluster-tier availability state held by the coordinator.
pub(super) struct ClusterWorld<'a> {
    spec: &'a ScenarioSpec,
    timings: ClusterTimings,
    /// `None` only while workers are out under [`ParallelWorld::split`].
    front: Option<FrontDoor>,
    /// `rack_shards[r]` is global rack `r`; `None` only while split.
    rack_shards: Vec<Option<RackShard<'a>>>,
    /// The spec's seeded fault schedule; faults strike at epoch barriers
    /// so recovery can restart guests across racks.
    faults: FailureSchedule,
    injector: FaultInjector,
    availability: AvailabilityStats,
    blast_radius_vms: Vec<f64>,
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
        assert!(racks <= 64, "the spillover bitmask covers at most 64 racks");
        let mut controller = ClusterController::new(spec.system.placement);
        controller.set_rack_budget(spec.system.rack_power_budget);
        for (r, system) in rack_systems.iter().enumerate() {
            let digest = system
                .cluster()
                .digest(RackId(0))
                .copied()
                .expect("a single-rack system publishes its digest");
            controller.upsert(RackId(r as u16), digest);
        }
        let front = FrontDoor {
            controller,
            timings,
            demands: Arc::clone(&demands),
            arrivals,
            cursor: 0,
            racks: racks as u16,
            rejected: 0,
            spillovers: 0,
            power_deferrals: 0,
        };
        let rack_shards = rack_systems
            .into_iter()
            .zip(rack_rngs)
            .enumerate()
            .map(|(r, (system, rng))| {
                Some(RackShard {
                    rack: r as u16,
                    timings,
                    world: ScenarioWorld::new(
                        spec,
                        system,
                        Arc::clone(&demands),
                        FailureSchedule::default(),
                        rng,
                    ),
                })
            })
            .collect();
        ClusterWorld {
            spec,
            timings,
            front: Some(front),
            rack_shards,
            faults,
            injector: FaultInjector::new(),
            availability: AvailabilityStats::default(),
            blast_radius_vms: Vec::new(),
            lost_at: BTreeMap::new(),
            cross_rack_migrations: 0,
            racks_drained: 0,
            drain_stranded: 0,
        }
    }

    /// Pooled bytes allocated across every rack (the cluster-wide byte
    /// conservation check of the rolling upgrade).
    fn pool_allocated(&self) -> u64 {
        self.rack_shards
            .iter()
            .map(|s| {
                s.as_ref()
                    .expect("the engine reunites workers before serial events")
                    .world
                    .system
                    .pool_allocated()
                    .as_bytes()
            })
            .sum()
    }

    /// Drains `source`: stops routing admissions to it and migrates every
    /// resident VM onto the best other rack per the front door's digests.
    /// VMs no surviving rack can hold stay put and count as stranded —
    /// same semantics as the shared system's drain, played out across the
    /// partitioned rack worlds.
    fn evacuate_rack(
        &mut self,
        now: SimTime,
        source: u16,
        ctx: &mut SerialContext<'_, ScenarioEvent>,
    ) {
        let spec = self.spec;
        let front = self
            .front
            .as_mut()
            .expect("the engine reunites workers before serial events");
        front.controller.set_schedulable(RackId(source), false);
        self.racks_drained += 1;
        let src_idx = usize::from(source);
        let mut src = self.rack_shards[src_idx]
            .take()
            .expect("the engine reunites workers before serial events");
        for vm in src.world.system.vms_on_rack(RackId(0)) {
            let Some(vcpus) = src.world.system.vm_vcpus(vm) else {
                continue;
            };
            let Some(memory) = src.world.system.vm_memory(vm) else {
                continue;
            };
            let Some(from) = src.world.system.vm_brick(vm) else {
                continue;
            };
            let placed = place_on_cluster(
                &front.controller,
                &mut self.rack_shards,
                RackId(source),
                vcpus,
                memory,
            );
            let Some((dest, new_vm)) = placed else {
                self.drain_stranded += 1;
                continue;
            };
            // The old handle's scheduled events decay into no-ops; the
            // moved guest lives on under the fresh handle at `dest`.
            let _ = src.world.system.release_vm(vm);
            src.world.counters.live -= 1;
            let dest_shard = self.rack_shards[usize::from(dest.0)]
                .as_mut()
                .expect("the engine reunites workers before serial events");
            book_cross_rack_move(
                spec, now, &mut src, dest_shard, dest, vm, new_vm, from, vcpus, memory, ctx,
            );
            self.cross_rack_migrations += 1;
        }
        src.world.sample_utilization();
        self.rack_shards[src_idx] = Some(src);
    }

    /// One stage of the rolling upgrade: evacuate the rack, snapshot and
    /// restore its controller bit-identically, verify cluster-wide byte
    /// conservation, then readmit the rack into routing.
    fn upgrade_rack(
        &mut self,
        now: SimTime,
        rack: u16,
        ctx: &mut SerialContext<'_, ScenarioEvent>,
    ) {
        let allocated_before = self.pool_allocated();
        self.evacuate_rack(now, rack, ctx);
        let idx = usize::from(rack);
        {
            let world = &mut self.rack_shards[idx]
                .as_mut()
                .expect("the engine reunites workers before serial events")
                .world;
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
        }
        let allocated_after = self.pool_allocated();
        self.availability.upgrade_lost_bytes += allocated_before.saturating_sub(allocated_after);
        self.availability.upgrades += 1;
        self.front
            .as_mut()
            .expect("the engine reunites workers before serial events")
            .controller
            .undrain_rack(RackId(rack));
        self.rack_shards[idx]
            .as_mut()
            .expect("the engine reunites workers before serial events")
            .world
            .sample_utilization();
    }

    /// Delivers one planned fault at an epoch barrier. Rack-local damage
    /// replays the single-system recovery protocol inside the struck
    /// rack's world; guests that rack can no longer hold get the
    /// cross-rack restart the federation owes them, placed here by the
    /// coordinator.
    fn cluster_fault(
        &mut self,
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
            FaultKind::ComputeBrick => self.fault_compute(now, site, ctx),
            FaultKind::MemoryBrick => self.fault_memory(now, site, ctx),
            FaultKind::AccelBrick => self.fault_accel(now, site, ctx),
            FaultKind::Link => {
                let world = &mut self.rack_shards[struck]
                    .as_mut()
                    .expect("the engine reunites workers before serial events")
                    .world;
                if let Some(report) = world.system.fail_link(RackId(0), site.component) {
                    self.availability.links_severed += 1;
                    self.availability.circuits_rerouted += u64::from(report.rerouted);
                    self.availability.circuits_lost += u64::from(report.lost);
                }
                Some(0)
            }
            FaultKind::Switch => {
                let world = &mut self.rack_shards[struck]
                    .as_mut()
                    .expect("the engine reunites workers before serial events")
                    .world;
                if let Some(restored) = world.system.fail_switch(RackId(0)) {
                    self.availability.switch_failovers += 1;
                    self.availability.circuits_restored += restored as u64;
                }
                Some(0)
            }
        };
        let Some(affected) = affected else {
            return;
        };
        self.blast_radius_vms.push(affected as f64);
        self.rack_shards[struck]
            .as_mut()
            .expect("the engine reunites workers before serial events")
            .world
            .sample_utilization();
    }

    /// A compute brick dies: sessions drop, guests migrate within the
    /// rack where possible, and the rest restart on other racks chosen by
    /// the front door's digests (truly lost only when no rack can hold
    /// them).
    fn fault_compute(
        &mut self,
        now: SimTime,
        site: FaultSite,
        ctx: &mut SerialContext<'_, ScenarioEvent>,
    ) -> Option<u64> {
        let spec = self.spec;
        let struck = site.rack as usize;
        let mut src = self.rack_shards[struck]
            .take()
            .expect("the engine reunites workers before serial events");
        let damage = (|| {
            let brick = src
                .world
                .fault_brick(RackId(0), site.kind, site.component)?;
            // Captured before the failure: who must be alive somewhere
            // once recovery is done.
            let residents: Vec<(VmHandle, u32, ByteSize)> = src
                .world
                .system
                .vms_on(brick)
                .into_iter()
                .filter_map(|vm| {
                    let vcpus = src.world.system.vm_vcpus(vm)?;
                    let memory = src.world.system.vm_memory(vm)?;
                    Some((vm, vcpus, memory))
                })
                .collect();
            let report = src.world.system.fail_compute_brick(brick).ok()?;
            Some((brick, residents, report))
        })();
        let Some((brick, residents, report)) = damage else {
            self.rack_shards[struck] = Some(src);
            return None;
        };
        self.availability.vm_migrations += u64::from(report.migrated);
        self.availability.sessions_dropped += u64::from(report.sessions_dropped);
        self.availability.orphaned_bytes += report.orphaned.as_bytes();
        src.world.counters.live -= u64::from(report.lost);
        for migration in &report.reports {
            src.world.record_migration(now, migration);
            // Evacuation downtime is availability lost to the fault.
            self.availability.vm_seconds_lost += migration.downtime.as_secs_f64();
        }
        // The single-rack system had nowhere to spill; the coordinator
        // provides the cross-rack restart pass the federation used to run
        // inline.
        let front = self
            .front
            .as_mut()
            .expect("the engine reunites workers before serial events");
        let mut restarted = 0u64;
        let mut lost = 0u64;
        for (vm, vcpus, memory) in residents {
            if src.world.system.vm_brick(vm).is_some() {
                // Survived in place or migrated within the rack.
                continue;
            }
            let placed = place_on_cluster(
                &front.controller,
                &mut self.rack_shards,
                RackId(site.rack as u16),
                vcpus,
                memory,
            );
            let Some((dest, new_vm)) = placed else {
                lost += 1;
                continue;
            };
            restarted += 1;
            let dest_shard = self.rack_shards[usize::from(dest.0)]
                .as_mut()
                .expect("the engine reunites workers before serial events");
            let downtime = book_cross_rack_move(
                spec, now, &mut src, dest_shard, dest, vm, new_vm, brick, vcpus, memory, ctx,
            );
            self.availability.vm_seconds_lost += downtime.as_secs_f64();
        }
        self.availability.vm_restarts += restarted;
        self.availability.vms_lost += lost;
        if lost > 0 {
            *self.lost_at.entry(site).or_default() += lost;
        }
        // Orphan detection runs as part of the recovery protocol: bytes
        // stranded by dead guests (including the restarted ones' old
        // segments) go back to the pool now.
        let reclaim = src.world.system.reclaim_orphans();
        self.availability.reclaimed_bytes += reclaim.reclaimed.as_bytes();
        let affected = u64::from(report.migrated) + restarted + lost;
        self.rack_shards[struck] = Some(src);
        Some(affected)
    }

    /// A memory brick dies: segments vanish, affected guests restart
    /// within the struck rack (memory faults never leave the rack — the
    /// guest's compute brick survives in place).
    fn fault_memory(
        &mut self,
        now: SimTime,
        site: FaultSite,
        ctx: &mut SerialContext<'_, ScenarioEvent>,
    ) -> Option<u64> {
        let spec = self.spec;
        let struck = site.rack as usize;
        let shard = self.rack_shards[struck]
            .as_mut()
            .expect("the engine reunites workers before serial events");
        let brick = shard
            .world
            .fault_brick(RackId(0), site.kind, site.component)?;
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
            let lifetime = spec.lifetime.sample(&mut shard.world.rng);
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
        now: SimTime,
        site: FaultSite,
        ctx: &mut SerialContext<'_, ScenarioEvent>,
    ) -> Option<u64> {
        let spec = self.spec;
        let struck = site.rack as usize;
        let shard = self.rack_shards[struck]
            .as_mut()
            .expect("the engine reunites workers before serial events");
        let brick = shard
            .world
            .fault_brick(RackId(0), site.kind, site.component)?;
        let report = shard.world.system.fail_accel_brick(brick).ok()?;
        let affected = report.drained.len() as u64;
        self.availability.sessions_dropped += report.drained.len() as u64;
        if let Some(plan) = spec.offload {
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
    fn cluster_repair(&mut self, now: SimTime, index: usize) {
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
        let world = &mut self.rack_shards[site.rack as usize]
            .as_mut()
            .expect("the engine reunites workers before serial events")
            .world;
        match site.kind {
            FaultKind::ComputeBrick => {
                if let Some(brick) = world.fault_brick(RackId(0), site.kind, site.component) {
                    let _ = world.system.repair_compute_brick(brick);
                }
            }
            FaultKind::MemoryBrick => {
                if let Some(brick) = world.fault_brick(RackId(0), site.kind, site.component) {
                    let _ = world.system.repair_membrick(brick);
                }
            }
            FaultKind::AccelBrick => {
                if let Some(brick) = world.fault_brick(RackId(0), site.kind, site.component) {
                    let _ = world.system.repair_accel_brick(brick);
                }
            }
            FaultKind::Link => {
                let _ = world.system.repair_link(RackId(0), site.component);
            }
            // The switch fault self-healed onto the standby at injection.
            FaultKind::Switch => {}
        }
        world.sample_utilization();
    }

    /// Assembles the cluster report: sample streams concatenate in rack
    /// order (the canonical merge order), counters sum field-wise, and
    /// the coordinator contributes the cluster-tier and availability
    /// telemetry.
    pub(super) fn finish(
        mut self,
        outcome: RunOutcome,
        end: SimTime,
        events: u64,
    ) -> ScenarioReport {
        let front = self.front.take().expect("the run reunites the world");
        let shards: Vec<RackShard<'a>> = self
            .rack_shards
            .drain(..)
            .map(|s| s.expect("the run reunites the world"))
            .collect();
        let racks = shards.len();
        let mut c = Counters::default();
        let mut stats = ClusterScenarioStats {
            racks: racks as u64,
            spillovers: front.spillovers,
            power_deferrals: front.power_deferrals,
            cross_rack_migrations: self.cross_rack_migrations,
            racks_drained: self.racks_drained,
            drain_stranded: self.drain_stranded,
            admissions_per_rack: vec![0; racks],
            power_off_per_rack: vec![0; racks],
            ..ClusterScenarioStats::default()
        };
        let mut peak_queue = 0u64;
        let mut scale_up_delays_s = Vec::new();
        let mut read_latencies_ns = Vec::new();
        let mut utilization = Vec::new();
        let mut migration_downtime_s = Vec::new();
        let mut precopy_counterfactual_s = Vec::new();
        let mut scaleout_counterfactual_s = Vec::new();
        let mut control_plane_wait_s = Vec::new();
        let mut offload_time_s = Vec::new();
        let mut offload_local_counterfactual_s = Vec::new();
        let mut accel_utilization = Vec::new();
        for (r, shard) in shards.iter().enumerate() {
            let w = &shard.world;
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
            stats.routed_admissions += w.cluster_stats.routed_admissions;
            stats.spillovers += w.cluster_stats.spillovers;
            stats.power_deferrals += w.cluster_stats.power_deferrals;
            stats.cross_rack_migrations += w.cluster_stats.cross_rack_migrations;
            stats.racks_drained += w.cluster_stats.racks_drained;
            stats.drain_stranded += w.cluster_stats.drain_stranded;
            stats.admissions_per_rack[r] = w.cluster_stats.admissions_per_rack[0];
            stats.power_off_per_rack[r] = w.cluster_stats.power_off_per_rack[0];
            peak_queue = peak_queue.max(
                w.control_planes
                    .iter()
                    .map(ControlPlaneQueue::peak_depth)
                    .max()
                    .unwrap_or(0) as u64,
            );
            scale_up_delays_s.extend_from_slice(&w.scale_up_delays_s);
            read_latencies_ns.extend_from_slice(&w.read_latencies_ns);
            utilization.extend_from_slice(&w.utilization);
            migration_downtime_s.extend_from_slice(&w.migration_downtime_s);
            precopy_counterfactual_s.extend_from_slice(&w.precopy_counterfactual_s);
            scaleout_counterfactual_s.extend_from_slice(&w.scaleout_counterfactual_s);
            control_plane_wait_s.extend_from_slice(&w.control_plane_wait_s);
            offload_time_s.extend_from_slice(&w.offload_time_s);
            offload_local_counterfactual_s.extend_from_slice(&w.offload_local_counterfactual_s);
            accel_utilization.extend_from_slice(&w.accel_utilization);
        }
        // Final rejections live at the front door; racks only ever bounce
        // requests back for another candidate.
        c.rejected += front.rejected;
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
            control_plane_peak_queue: peak_queue,
            scale_up_delay: Summary::from_samples(&scale_up_delays_s),
            read_latency: Summary::from_samples(&read_latencies_ns),
            pool_utilization: Summary::from_samples(&utilization),
            migration_downtime: Summary::from_samples(&migration_downtime_s),
            precopy_counterfactual: Summary::from_samples(&precopy_counterfactual_s),
            scaleout_counterfactual: Summary::from_samples(&scaleout_counterfactual_s),
            control_plane_wait: Summary::from_samples(&control_plane_wait_s),
            offload_time: Summary::from_samples(&offload_time_s),
            offload_local_counterfactual: Summary::from_samples(&offload_local_counterfactual_s),
            accel_utilization: Summary::from_samples(&accel_utilization),
            cluster: Some(stats),
            availability,
            // The load-dependent data path is single-rack only (validated
            // at spec level).
            data_path: None,
        }
    }
}

/// Picks the first rack (per the front door's spillover preference,
/// excluding `exclude`) whose world actually admits the request, and
/// places it there. `None` when no rack can hold it.
fn place_on_cluster(
    controller: &ClusterController,
    rack_shards: &mut [Option<RackShard<'_>>],
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
        let shard = rack_shards[usize::from(dest.0)]
            .as_mut()
            .expect("the engine reunites workers before serial events");
        if let Ok(outcome) = shard
            .world
            .system
            .allocate_vm_preferring(RackId(0), vcpus, memory)
        {
            return Some((dest, outcome.vm));
        }
        refused |= 1u64 << u32::from(dest.0);
    }
    None
}

/// Books one coordinator-driven cross-rack move: the destination world
/// schedules the fresh guest's departure (and tracks its liveness), the
/// source world records the migration — its SDM controller orchestrated
/// the hand-off, so it owns the control-plane charge. Returns the
/// migration's downtime.
#[allow(clippy::too_many_arguments)]
fn book_cross_rack_move(
    spec: &ScenarioSpec,
    now: SimTime,
    src: &mut RackShard<'_>,
    dest_shard: &mut RackShard<'_>,
    dest: RackId,
    vm: VmHandle,
    new_vm: VmHandle,
    from: BrickId,
    vcpus: u32,
    memory: ByteSize,
    ctx: &mut SerialContext<'_, ScenarioEvent>,
) -> SimDuration {
    let to = dest_shard
        .world
        .system
        .vm_brick(new_vm)
        .expect("freshly placed VM is resident");
    let orchestration = dest_shard
        .world
        .system
        .admission_service_time(new_vm)
        .unwrap_or_default();
    dest_shard.world.counters.live += 1;
    dest_shard.world.counters.peak_live = dest_shard
        .world
        .counters
        .peak_live
        .max(dest_shard.world.counters.live);
    let lifetime = spec.lifetime.sample(&mut dest_shard.world.rng);
    ctx.schedule(
        ShardId(1 + u32::from(dest.0)),
        now + lifetime,
        ScenarioEvent::Departure { vm: new_vm },
    );
    // Cross-rack moves cannot preserve pooled memory across the fabric
    // boundary: a conventional full copy plus the destination's admission
    // orchestration, exactly as the shared system prices them.
    let full_copy = spec.system.migration.conventional_migration(memory);
    let report = MigrationReport {
        vm,
        from,
        to,
        from_rack: RackId(0),
        to_rack: dest,
        moved_local_state: spec.system.migration.local_state(vcpus),
        preserved_memory: ByteSize::ZERO,
        orchestration_delay: orchestration,
        downtime: full_copy + orchestration,
        conventional_precopy: full_copy,
    };
    src.world.record_migration(now, &report);
    report.downtime
}

impl<'a> ParallelWorld for ClusterWorld<'a> {
    type Event = ScenarioEvent;
    type Worker = ClusterWorker<'a>;

    fn split(&mut self, shards: usize) -> Vec<ClusterWorker<'a>> {
        assert_eq!(shards, self.rack_shards.len() + 1);
        let mut workers = Vec::with_capacity(shards);
        workers.push(ClusterWorker::Front(
            self.front.take().expect("front door is home"),
        ));
        for slot in &mut self.rack_shards {
            workers.push(ClusterWorker::Rack(
                slot.take().expect("rack shard is home"),
            ));
        }
        workers
    }

    fn reunite(&mut self, workers: Vec<ClusterWorker<'a>>) {
        for worker in workers {
            match worker {
                ClusterWorker::Front(front) => self.front = Some(front),
                ClusterWorker::Rack(shard) => {
                    let slot = usize::from(shard.rack);
                    self.rack_shards[slot] = Some(shard);
                }
            }
        }
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

    fn handle_serial(
        &mut self,
        _shard: ShardId,
        now: SimTime,
        event: ScenarioEvent,
        ctx: &mut SerialContext<'_, ScenarioEvent>,
    ) {
        match event {
            ScenarioEvent::DrainRack { rack } => self.evacuate_rack(now, rack, ctx),
            ScenarioEvent::UpgradeRack { rack } => self.upgrade_rack(now, rack, ctx),
            ScenarioEvent::Fault { index } => self.cluster_fault(now, index, ctx),
            ScenarioEvent::Repair { index } => self.cluster_repair(now, index),
            ScenarioEvent::Rebalance => {
                if let Some(policy) = self.spec.migration {
                    for slot in &mut self.rack_shards {
                        let world = &mut slot
                            .as_mut()
                            .expect("the engine reunites workers before serial events")
                            .world;
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
