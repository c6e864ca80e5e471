//! The re-drive: a workload's generated trace replayed straight through
//! the public entry points of each layer, with every call wrapped in a
//! span from outside the program.
//!
//! It reproduces the shape of a replay, not its exact decisions: the
//! cluster tier is a `ClusterController` fed digests read off each rack's
//! public indexes once per control interval (no power budget), and each rack is a single-rack
//! `DredboxSystem` driven through `allocate_vm`, `scale_up`/`scale_down`,
//! `migrate_vm`, `begin_offload`/`end_offload`, `power_off_unused` and
//! `release_vm`. Run once with the tracer off and once with it on, it does
//! identical work both times; the difference in wall time is the tracing
//! overhead.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use dredbox::bricks::RackId;
use dredbox::orchestrator::{ClusterController, ClusterTimings, OffloadSessionId, RackDigest};
use dredbox::scenario::MigrationPolicy;
use dredbox::sim::rng::SimRng;
use dredbox::sim::time::{SimDuration, SimTime};
use dredbox::sim::units::ByteSize;
use dredbox::{DredboxSystem, VmHandle};

use crate::trace::Tracer;
use crate::workloads::{build_racks, Trace, Workload};

/// Operation tallies. Both passes must produce identical tallies.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counts {
    pub admit_attempts: u64,
    pub admit_failures: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub routed: u64,
    pub spilled: u64,
    pub spill_hops: u64,
    pub releases: u64,
    pub scale_ups: u64,
    pub scale_up_failures: u64,
    pub scale_downs: u64,
    pub migrations: u64,
    pub migration_failures: u64,
    pub offloads: u64,
    pub offload_failures: u64,
    pub offload_reuses: u64,
    pub sweeps: u64,
    pub bricks_off: u64,
    /// Releases, scale-downs and offload ends of live VMs that failed;
    /// the checks require zero.
    pub unexpected_failures: u64,
}

/// What one pass leaves behind.
#[derive(Debug)]
pub struct Redrive {
    pub counts: Counts,
    /// Host seconds of the event loop (set-up excluded).
    pub wall_s: f64,
    /// Rack 0 as it stood when half the arrivals had been offered.
    pub mid_rack: DredboxSystem,
    /// Whether every rack was empty (no VM, no pooled byte) after every
    /// live VM was released at the end.
    pub drained_clean: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Arrival(usize),
    Depart(usize),
    ScaleUp(usize, u32),
    ScaleDown(usize, ByteSize, u32),
    OffloadBegin(usize, u32),
    OffloadEnd(usize, OffloadSessionId, u32),
    Sweep,
    Rebalance,
    Drain(u16),
    Publish,
}

struct Driver<'a> {
    w: &'a Workload,
    trace: &'a Trace,
    racks: Vec<DredboxSystem>,
    cluster: ClusterController,
    /// `(rack, handle)` of every admitted, not yet departed VM, by arrival.
    live: Vec<Option<(usize, VmHandle)>>,
    queue: BinaryHeap<Reverse<(SimTime, u64, Ev)>>,
    seq: u64,
    rng: SimRng,
    counts: Counts,
    mid_rack: Option<DredboxSystem>,
    control_interval: SimDuration,
}

/// Replays `trace` through the layers of `w`, recording spans into
/// `tracer` when it is enabled.
pub fn run(w: &Workload, trace: &Trace, seed: u64, tracer: &mut Tracer) -> Redrive {
    let racks = build_racks(&w.spec);
    let mut cluster = ClusterController::new(w.spec.system.placement);
    for (r, sys) in racks.iter().enumerate() {
        cluster.upsert(RackId(r as u16), digest(sys));
    }
    let mut d = Driver {
        w,
        trace,
        racks,
        cluster,
        live: vec![None; trace.demands.len()],
        queue: BinaryHeap::new(),
        seq: 0,
        rng: SimRng::seed(seed).fork(0x7e57),
        counts: Counts::default(),
        mid_rack: None,
        control_interval: ClusterTimings::dredbox_default().control_interval,
    };
    d.push(SimTime::ZERO + d.control_interval, Ev::Publish);
    for (i, &at) in trace.arrivals.iter().enumerate() {
        d.push(at, Ev::Arrival(i));
    }
    if let Some(every) = w.spec.power_sweep_every {
        d.push(SimTime::ZERO + every, Ev::Sweep);
    }
    if let Some(policy) = &w.spec.migration {
        d.push(SimTime::ZERO + policy.every(), Ev::Rebalance);
    }
    if let Some(plan) = &w.spec.drain {
        d.push(plan.at, Ev::Drain(plan.rack));
    }

    let start = Instant::now();
    while let Some(Reverse((now, _, ev))) = d.queue.pop() {
        if now > w.spec.horizon {
            break;
        }
        d.handle(now, ev, tracer);
    }
    let wall_s = start.elapsed().as_secs_f64();

    for (rack, handle) in d.live.iter_mut().filter_map(Option::take) {
        d.racks[rack].release_vm(handle).expect("live VMs release");
    }
    let drained_clean = d
        .racks
        .iter()
        .all(|r| r.vm_count() == 0 && r.pool_allocated() == ByteSize::ZERO);
    let mid_rack = d.mid_rack.take().unwrap_or_else(|| d.racks[0].clone());
    Redrive {
        counts: d.counts,
        wall_s,
        mid_rack,
        drained_clean,
    }
}

/// A rack's capacity digest, read off its SDM controller's public indexes.
pub fn digest(sys: &DredboxSystem) -> RackDigest {
    let sdm = sys.sdm();
    let (capacity, pool, accel) = (sdm.capacity(), sdm.pool(), sdm.accel());
    RackDigest {
        free_cores: capacity.powered_free_cores(),
        largest_free_cores: capacity.largest_powered_free(),
        largest_sleeping_cores: capacity.largest_sleeping_total(),
        free_memory_bytes: pool.total_free().as_bytes(),
        largest_segment_bytes: pool.largest_free_block().as_bytes(),
        idle_accels: accel.idle_count() as u32,
        accel_bricks: accel.len() as u32,
        active_bricks: capacity.active_brick_count() as u32,
        powered_bricks: capacity.powered_brick_count() as u32,
        provisioned_milliwatts: 0,
    }
}

impl Driver<'_> {
    fn push(&mut self, at: SimTime, ev: Ev) {
        self.seq += 1;
        self.queue.push(Reverse((at, self.seq, ev)));
    }

    /// Every rack republishes its digest to the cluster controller, as
    /// racks do once per control interval in a federated replay.
    fn publish(&mut self, now: SimTime, t: &mut Tracer) {
        for (r, sys) in self.racks.iter().enumerate() {
            let open = t.enter("orchestrator.digest");
            self.cluster.upsert(RackId(r as u16), digest(sys));
            t.exit(open);
        }
        self.push(now + self.control_interval, Ev::Publish);
    }

    /// Offers VM `i` to rack `r`; true when it was admitted.
    fn admit(&mut self, i: usize, r: usize, now: SimTime, t: &mut Tracer) -> bool {
        let demand = self.trace.demands[i];
        self.counts.admit_attempts += 1;
        let sys = &mut self.racks[r];
        let result = t.span("core.admit", || {
            sys.allocate_vm(demand.vcpus, demand.memory)
        });
        let Ok(handle) = result else {
            self.counts.admit_failures += 1;
            return false;
        };
        self.counts.admitted += 1;
        self.live[i] = Some((r, handle));
        let spec = &self.w.spec;
        let lifetime = spec.lifetime.sample(&mut self.rng);
        self.push(now + lifetime, Ev::Depart(i));
        if let Some(churn) = spec.churn {
            self.push(now + churn.hold, Ev::ScaleUp(i, 0));
        }
        if let Some(plan) = spec.offload {
            self.push(now + plan.start_after, Ev::OffloadBegin(i, 0));
        }
        true
    }

    fn handle(&mut self, now: SimTime, ev: Ev, t: &mut Tracer) {
        match ev {
            Ev::Arrival(i) => self.arrival(i, now, t),
            Ev::Depart(i) => {
                let Some((r, h)) = self.live[i].take() else {
                    return;
                };
                let sys = &mut self.racks[r];
                let result = t.span("core.release", || sys.release_vm(h));
                self.counts.releases += 1;
                self.counts.unexpected_failures += u64::from(result.is_err());
            }
            Ev::ScaleUp(i, cycle) => self.scale_up(i, cycle, now, t),
            Ev::ScaleDown(i, amount, cycle) => {
                let Some((r, h)) = self.live[i] else { return };
                let sys = &mut self.racks[r];
                let result = t.span("core.scale_down", || sys.scale_down(h, amount));
                self.counts.scale_downs += 1;
                self.counts.unexpected_failures += u64::from(result.is_err());
                let churn = self.w.spec.churn.expect("scale-downs follow churn");
                if cycle + 1 < churn.cycles_per_vm {
                    self.push(now + churn.hold, Ev::ScaleUp(i, cycle + 1));
                }
            }
            Ev::OffloadBegin(i, session) => self.offload(i, session, now, t),
            Ev::OffloadEnd(i, id, session) => {
                let Some((r, _)) = self.live[i] else { return };
                let sys = &mut self.racks[r];
                let result = t.span("core.offload_end", || sys.end_offload(id));
                self.counts.unexpected_failures += u64::from(result.is_err());
                let plan = self.w.spec.offload.expect("sessions follow a plan");
                if session + 1 < plan.sessions_per_vm {
                    self.push(now + plan.start_after, Ev::OffloadBegin(i, session + 1));
                }
            }
            Ev::Sweep => {
                for r in 0..self.racks.len() {
                    let sys = &mut self.racks[r];
                    let sweep = t.span("core.power_sweep", || sys.power_off_unused());
                    self.counts.sweeps += 1;
                    self.counts.bricks_off += sweep.total_off() as u64;
                }
                let every = self.w.spec.power_sweep_every.expect("sweeps are periodic");
                self.push(now + every, Ev::Sweep);
            }
            Ev::Rebalance => self.rebalance(now, t),
            Ev::Drain(rack) => self.cluster.set_schedulable(RackId(rack), false),
            Ev::Publish => self.publish(now, t),
        }
    }

    fn arrival(&mut self, i: usize, now: SimTime, t: &mut Tracer) {
        if i == self.trace.demands.len() / 2 {
            self.mid_rack = Some(self.racks[0].clone());
        }
        let demand = self.trace.demands[i];
        let open = t.enter("arrival");
        let cluster = &self.cluster;
        let route = t.span("orchestrator.route", || {
            cluster.route(demand.vcpus, demand.memory)
        });
        // As at a federated front door: with no digest admitting the
        // request, the first schedulable rack still gets to try.
        let fallback = (0..self.racks.len() as u16)
            .map(RackId)
            .find(|r| self.cluster.is_schedulable(*r));
        match route.rack.or(fallback) {
            None => self.counts.rejected += 1,
            Some(first) => {
                self.counts.routed += 1;
                if !self.admit(i, usize::from(first.0), now, t) {
                    self.counts.spilled += 1;
                    let cluster = &self.cluster;
                    let order = t.span("orchestrator.spill", || {
                        cluster.spillover_order(demand.vcpus, demand.memory, Some(first))
                    });
                    let mut placed = false;
                    for rack in order {
                        self.counts.spill_hops += 1;
                        if self.admit(i, usize::from(rack.0), now, t) {
                            placed = true;
                            break;
                        }
                    }
                    if !placed {
                        self.counts.rejected += 1;
                    }
                }
            }
        }
        t.exit(open);
    }

    fn scale_up(&mut self, i: usize, cycle: u32, now: SimTime, t: &mut Tracer) {
        let Some((r, h)) = self.live[i] else { return };
        let churn = self.w.spec.churn.expect("scale-ups follow churn");
        let gib = self.rng.range(churn.amount_gib.0..=churn.amount_gib.1);
        let amount = ByteSize::from_gib(gib);
        let sys = &mut self.racks[r];
        let result = t.span("core.scale_up", || sys.scale_up(h, amount));
        if result.is_ok() {
            self.counts.scale_ups += 1;
            self.push(now + churn.hold, Ev::ScaleDown(i, amount, cycle));
        } else {
            self.counts.scale_up_failures += 1;
            if cycle + 1 < churn.cycles_per_vm {
                self.push(now + churn.hold, Ev::ScaleUp(i, cycle + 1));
            }
        }
    }

    fn offload(&mut self, i: usize, session: u32, now: SimTime, t: &mut Tracer) {
        let Some((r, h)) = self.live[i] else { return };
        let plan = self.w.spec.offload.expect("offloads follow a plan");
        let demand = plan.mix.sample(&mut self.rng);
        let sys = &mut self.racks[r];
        let result = t.span("core.offload", || sys.begin_offload(h, &demand));
        match result {
            Ok(report) => {
                self.counts.offloads += 1;
                self.counts.offload_reuses += u64::from(report.reused_bitstream);
                let hold = plan.hold.max(report.offload_total);
                self.push(now + hold, Ev::OffloadEnd(i, report.session, session));
            }
            Err(_) => {
                self.counts.offload_failures += 1;
                if session + 1 < plan.sessions_per_vm {
                    self.push(now + plan.start_after, Ev::OffloadBegin(i, session + 1));
                }
            }
        }
    }

    /// One consolidation round per rack: VMs on sparse bricks move to the
    /// consolidation target their rack proposes.
    fn rebalance(&mut self, now: SimTime, t: &mut Tracer) {
        let Some(MigrationPolicy::Consolidate {
            every,
            spare_below,
            max_moves,
        }) = self.w.spec.migration
        else {
            return;
        };
        for r in 0..self.racks.len() {
            let open = t.enter("rebalance");
            let sys = &mut self.racks[r];
            let mut moves = 0;
            'bricks: for brick in sys.sparse_bricks(spare_below) {
                for h in sys.vms_on(brick) {
                    if moves == max_moves {
                        break 'bricks;
                    }
                    let Some(to) = sys.consolidation_target(h) else {
                        continue;
                    };
                    moves += 1;
                    match t.span("core.migrate", || sys.migrate_vm(h, to)) {
                        Ok(_) => self.counts.migrations += 1,
                        Err(_) => self.counts.migration_failures += 1,
                    }
                }
            }
            t.exit(open);
        }
        self.push(now + every, Ev::Rebalance);
    }
}
