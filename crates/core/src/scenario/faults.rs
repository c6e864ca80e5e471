//! Fault recovery, once for every replay.
//!
//! dReDBox splits recovery across its two orchestration tiers. The struck
//! rack's SDM controller recovers what it can inside the rack: it
//! migrates guests off a dead dCOMPUBRICK, restarts the guests whose
//! segments died with a dMEMBRICK, drains a dead dACCELBRICK's sessions
//! and re-routes circuits around a severed link or onto the standby
//! switch. The cluster tier then restarts on other racks whatever the
//! rack could no longer hold. [`FaultLedger`] is both halves, and the
//! state they share: the seeded schedule, which sites are down, and the
//! availability telemetry.
//!
//! Recovery may reach every rack, so every replay runs it at epoch
//! barriers, where the coordinator holds every rack's world: faults and
//! repairs are serial events on the struck rack's shard. A single rack
//! hands the ledger no cluster controller, so the guests it strands are
//! lost; a federation hands it the front door's, and those guests restart
//! on the other racks in its preference order.

use std::collections::BTreeMap;

use dredbox_bricks::{BrickId, RackId};
use dredbox_orchestrator::ClusterController;
use dredbox_sim::fault::{FailureSchedule, FaultInjector, FaultKind, FaultSite};
use dredbox_sim::parallel::SerialContext;
use dredbox_sim::shard::{ShardId, ShardedEngine};
use dredbox_sim::stats::Summary;
use dredbox_sim::time::SimTime;
use dredbox_sim::units::ByteSize;

use crate::system::{DredboxSystem, VmHandle};

use super::cluster::{land_on, place_on_cluster};
use super::world::{ScenarioEvent, ScenarioWorld};
use super::{AvailabilityStats, ScenarioSpec};

/// The seeded faults of one replay, their recovery and its telemetry.
pub(super) struct FaultLedger {
    /// The spec's seeded fault schedule (empty when the spec has none);
    /// [`ScenarioEvent::Fault`]/[`ScenarioEvent::Repair`] index into it.
    schedule: FailureSchedule,
    /// Rack `r` runs on shard `first_shard + r`.
    first_shard: u32,
    /// Which sites are down and the MTTR samples collected so far.
    injector: FaultInjector,
    /// Availability telemetry, rolling-upgrade figures included; reported
    /// only when the spec injects faults or runs a rolling upgrade.
    pub(super) stats: AvailabilityStats,
    /// VMs affected per struck fault.
    blast_radius: Summary,
    /// VMs lost to each outstanding fault, charged VM-seconds at repair.
    lost_at: BTreeMap<FaultSite, u64>,
}

impl FaultLedger {
    /// A ledger over `schedule`, whose every fault and repair it schedules
    /// on `engine` as a serial event on the struck rack's shard (rack `r`
    /// on shard `first_shard + r`).
    pub(super) fn new(
        schedule: FailureSchedule,
        first_shard: u32,
        engine: &mut ShardedEngine<ScenarioEvent>,
    ) -> Self {
        for (index, fault) in schedule.faults().iter().enumerate() {
            let shard = ShardId(first_shard + fault.site.rack);
            engine.schedule_serial(shard, fault.at, ScenarioEvent::Fault { index });
            engine.schedule_serial(
                shard,
                fault.at + fault.repair_after,
                ScenarioEvent::Repair { index },
            );
        }
        FaultLedger {
            schedule,
            first_shard,
            injector: FaultInjector::new(),
            stats: AvailabilityStats::default(),
            blast_radius: Summary::new(),
            lost_at: BTreeMap::new(),
        }
    }

    fn shard(&self, rack: usize) -> ShardId {
        ShardId(self.first_shard + rack as u32)
    }

    /// Delivers the `index`-th planned fault to its site in `racks` (every
    /// rack's world, in rack order) and runs the recovery protocol,
    /// charging everything the availability report tracks. Guests the
    /// struck rack strands restart on the other racks in `cluster`'s
    /// preference order; without a cluster they are lost. A fault striking
    /// an already-down site is absorbed.
    pub(super) fn strike(
        &mut self,
        racks: &mut [&mut ScenarioWorld<'_>],
        cluster: Option<&ClusterController>,
        now: SimTime,
        index: usize,
        ctx: &mut SerialContext<'_, ScenarioEvent>,
    ) {
        let site = self.schedule.faults()[index].site;
        if !self.injector.begin(site, now) {
            self.stats.faults_absorbed += 1;
            return;
        }
        self.stats.faults_injected += 1;
        let struck = site.rack as usize;
        let affected = match site.kind {
            FaultKind::ComputeBrick => self.strike_compute(racks, cluster, now, site, ctx),
            FaultKind::MemoryBrick => self.strike_memory(racks[struck], now, site, ctx),
            FaultKind::AccelBrick => self.strike_accel(racks[struck], now, site, ctx),
            FaultKind::Link => {
                if let Some(report) = racks[struck].system.fail_link(site.component) {
                    self.stats.links_severed += 1;
                    self.stats.circuits_rerouted += u64::from(report.rerouted);
                    self.stats.circuits_lost += u64::from(report.lost);
                }
                Some(0)
            }
            FaultKind::Switch => {
                let restored = racks[struck].system.fail_switch();
                self.stats.switch_failovers += 1;
                self.stats.circuits_restored += restored as u64;
                Some(0)
            }
        };
        let Some(affected) = affected else {
            return;
        };
        self.blast_radius.record(affected as f64);
        racks[struck].sample_utilization();
    }

    /// A compute brick dies: sessions drop, guests migrate within the
    /// rack where possible, and the rest restart on other racks chosen by
    /// the cluster's digests (truly lost only when no rack can hold them).
    fn strike_compute(
        &mut self,
        racks: &mut [&mut ScenarioWorld<'_>],
        cluster: Option<&ClusterController>,
        now: SimTime,
        site: FaultSite,
        ctx: &mut SerialContext<'_, ScenarioEvent>,
    ) -> Option<u64> {
        let struck = site.rack as usize;
        let src = &mut *racks[struck];
        let brick = fault_brick(&src.system, site.kind, site.component)?;
        // Captured before the failure: who must be alive somewhere once
        // recovery is done.
        let residents: Vec<(VmHandle, u32, ByteSize)> = src
            .system
            .vms_on(brick)
            .into_iter()
            .filter_map(|vm| Some((vm, src.system.vm_vcpus(vm)?, src.system.vm_memory(vm)?)))
            .collect();
        let report = src.system.fail_compute_brick(brick).ok()?;
        self.stats.vm_migrations += u64::from(report.migrated);
        self.stats.sessions_dropped += u64::from(report.sessions_dropped);
        self.stats.orphaned_bytes += report.orphaned.as_bytes();
        src.counters.live -= u64::from(report.lost);
        for migration in &report.reports {
            src.record_migration(now, migration);
            // Evacuation downtime is availability lost to the fault.
            self.stats.vm_seconds_lost += migration.downtime.as_secs_f64();
        }
        // The rack strands exactly the residents it could not migrate; the
        // cluster tier restarts them on the other racks.
        let mut restarted = 0u64;
        let mut lost = 0u64;
        for (vm, vcpus, memory) in residents {
            if racks[struck].system.vm_brick(vm).is_some() {
                // Survived in place or migrated within the rack.
                continue;
            }
            let placed = cluster.and_then(|controller| {
                place_on_cluster(controller, racks, RackId(struck as u16), vcpus, memory)
            });
            let Some((dest, new_vm)) = placed else {
                lost += 1;
                continue;
            };
            restarted += 1;
            let dest = usize::from(dest.0);
            let shard = self.shard(dest);
            let report = land_on(
                now,
                racks[dest],
                shard,
                vm,
                new_vm,
                brick,
                vcpus,
                memory,
                ctx,
            );
            racks[struck].record_migration(now, &report);
            self.stats.vm_seconds_lost += report.downtime.as_secs_f64();
        }
        self.stats.vm_restarts += restarted;
        self.stats.vms_lost += lost;
        if lost > 0 {
            *self.lost_at.entry(site).or_default() += lost;
        }
        // Orphan detection runs as part of the recovery protocol: bytes
        // stranded by dead guests (including the restarted ones' old
        // segments) go back to the pool now.
        let reclaim = racks[struck].system.reclaim_orphans();
        self.stats.reclaimed_bytes += reclaim.reclaimed.as_bytes();
        Some(u64::from(report.migrated) + restarted + lost)
    }

    /// A memory brick dies: segments vanish, affected guests restart
    /// within the struck rack (memory faults never leave the rack — the
    /// guest's compute brick survives in place).
    fn strike_memory(
        &mut self,
        world: &mut ScenarioWorld<'_>,
        now: SimTime,
        site: FaultSite,
        ctx: &mut SerialContext<'_, ScenarioEvent>,
    ) -> Option<u64> {
        let brick = fault_brick(&world.system, site.kind, site.component)?;
        let report = world.system.fail_membrick(brick).ok()?;
        let affected = report.restarted.len() as u64 + u64::from(report.lost);
        self.stats.segments_lost_bytes += report.lost_bytes.as_bytes();
        self.stats.sessions_dropped += u64::from(report.sessions_dropped);
        self.stats.vm_restarts += report.restarted.len() as u64;
        self.stats.vms_lost += u64::from(report.lost);
        world.counters.live -= u64::from(report.lost);
        if report.lost > 0 {
            *self.lost_at.entry(site).or_default() += u64::from(report.lost);
        }
        // Each killed-and-readmitted guest restarts under a fresh handle:
        // the old handle's scheduled events decay into no-ops, and the new
        // guest gets its own departure on the struck shard.
        let shard = self.shard(site.rack as usize);
        for &(_, vm) in &report.restarted {
            let lifetime = world.spec.lifetime.sample(&mut world.rng);
            ctx.schedule(shard, now + lifetime, ScenarioEvent::Departure { vm });
        }
        Some(affected)
    }

    /// An accelerator brick dies: streaming sessions drain and their
    /// owners retry once a surviving accelerator may pick them up.
    fn strike_accel(
        &mut self,
        world: &mut ScenarioWorld<'_>,
        now: SimTime,
        site: FaultSite,
        ctx: &mut SerialContext<'_, ScenarioEvent>,
    ) -> Option<u64> {
        let brick = fault_brick(&world.system, site.kind, site.component)?;
        let report = world.system.fail_accel_brick(brick).ok()?;
        self.stats.sessions_dropped += report.drained.len() as u64;
        if let Some(plan) = world.spec.offload {
            let shard = self.shard(site.rack as usize);
            for &(_, vm) in &report.drained {
                ctx.schedule(
                    shard,
                    now + plan.start_after,
                    ScenarioEvent::OffloadBegin { vm, remaining: 1 },
                );
            }
        }
        Some(report.drained.len() as u64)
    }

    /// Repairs the `index`-th planned fault's site on the struck rack's
    /// world. A repair for an absorbed fault is a no-op — the earlier
    /// fault's own repair brings the site back.
    pub(super) fn repair(
        &mut self,
        racks: &mut [&mut ScenarioWorld<'_>],
        now: SimTime,
        index: usize,
    ) {
        let site = self.schedule.faults()[index].site;
        let Some(outage) = self.injector.end(site, now) else {
            return;
        };
        self.stats.repairs += 1;
        if let Some(lost) = self.lost_at.remove(&site) {
            // Lost guests were down for the whole outage.
            self.stats.vm_seconds_lost += lost as f64 * outage.as_secs_f64();
        }
        let world = &mut *racks[site.rack as usize];
        let system = &mut world.system;
        let brick = fault_brick(system, site.kind, site.component);
        match (site.kind, brick) {
            (FaultKind::ComputeBrick, Some(brick)) => {
                let _ = system.repair_compute_brick(brick);
            }
            (FaultKind::MemoryBrick, Some(brick)) => {
                let _ = system.repair_membrick(brick);
            }
            (FaultKind::AccelBrick, Some(brick)) => {
                let _ = system.repair_accel_brick(brick);
            }
            (FaultKind::Link, _) => {
                let _ = system.repair_link(site.component);
            }
            // The switch fault self-healed onto the standby at injection.
            _ => {}
        }
        world.sample_utilization();
    }

    /// The report's availability block: present only on specs that inject
    /// faults or run a rolling upgrade, so every other report (and golden)
    /// stays byte-identical.
    pub(super) fn finish(self, spec: &ScenarioSpec) -> Option<AvailabilityStats> {
        if spec.faults.is_none() && spec.upgrade.is_none() {
            return None;
        }
        let mut stats = self.stats;
        stats.blast_radius = self.blast_radius.finish();
        stats.mttr = self.injector.mttr().clone().finish();
        Some(stats)
    }
}

/// Maps a fault site's rack-relative ordinal onto the `component`-th
/// brick of its kind in the rack (wrapped, so any schedule value names a
/// real brick). `None` for kinds the rack has no bricks of.
fn fault_brick(system: &DredboxSystem, kind: FaultKind, component: u32) -> Option<BrickId> {
    let ids: Vec<BrickId> = system
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
