//! The remote-memory data path under load: fabric contention, a per-VM
//! remote-access cache, and adaptive movement granularity.
//!
//! The flat interconnect model charges every read the same size-dependent
//! latency no matter what the rest of the rack is doing. This module makes
//! latency a function of *live load*:
//!
//! * **Contention** — every live VM publishes its sustained offered load
//!   (bytes/s) onto the shared stages of its read route (compute-brick
//!   uplink → rack switch → dMEMBRICK port, tracked by
//!   [`FabricLoad`]); each remote fetch is charged an extra
//!   utilization-driven queuing delay per stage
//!   (`dredbox_interconnect::contention`), folded into the breakdown as
//!   [`LatencyComponent::Queueing`](dredbox_interconnect::LatencyComponent).
//!   With zero background load the charge is exactly zero and the breakdown
//!   is bit-identical to the flat model.
//! * **Caching** — each VM fronts its remote segments with a small
//!   brick-local cache of fetched blocks (FIFO tags). Hits cost a fixed
//!   local latency; misses fetch one *movement granule* over the fabric.
//! * **Adaptive granularity** — à la DaeMon, the movement granule switches
//!   between a cache line (64 B) and a page (4 KiB). Pages exploit spatial
//!   locality but multiply offered load; under fabric pressure the
//!   controller falls back to cache lines, and promotes back to pages only
//!   when the route could absorb page-granularity traffic.
//!
//! ## The granularity-switch state machine
//!
//! Evaluated per VM at the end of each burst window:
//!
//! ```text
//!            queue_share > DEMOTE_QUEUE_SHARE
//!   Page ────────────────────────────────────────▶ CacheLine
//!        ◀────────────────────────────────────────
//!            predicted page-mode utilization < PROMOTE_UTILIZATION
//! ```
//!
//! * `queue_share` is the fraction of the window's total read latency spent
//!   queuing — the observable symptom of oversized granules.
//! * The promotion test is *predictive*, not observed: it asks whether the
//!   route's worst stage could absorb this VM's all-miss page-granularity
//!   load on top of the background already published. Predicting (rather
//!   than probing) prevents demote/promote oscillation: a VM only promotes
//!   into headroom that actually exists, and the headroom shrinks as other
//!   VMs promote first.
//!
//! The cache is flushed on every switch (tags are granule-addressed).
//!
//! ## Determinism
//!
//! All state mutates in simulation-event order; per-access randomness draws
//! from the world's forked RNG with a fixed draw count per access (one
//! locality trial, plus one address draw on non-local accesses). Latencies
//! feed report samples only — they never shift event timestamps — so a
//! contention-free configuration replays decision-for-decision and
//! byte-for-byte like the flat model, and contended replays stay
//! bit-identical at every worker count.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use dredbox_interconnect::{ContentionConfig, LatencyComponent, StageLoad};
use dredbox_optical::{read_route_stages, FabricLoad};
use dredbox_sim::arena::SlotKey;
use dredbox_sim::rng::SimRng;
use dredbox_sim::stats::Summary;
use dredbox_sim::time::SimDuration;
use dredbox_sim::units::ByteSize;

use crate::system::{DredboxSystem, ReadRoute, VmHandle};

/// Size of one movement granule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Granularity {
    /// Move one 64 B cache line per miss.
    CacheLine,
    /// Move one 4 KiB page per miss.
    Page,
}

impl Granularity {
    /// Granule size in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            Granularity::CacheLine => 64,
            Granularity::Page => 4_096,
        }
    }
}

/// Per-VM remote-access cache parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RemoteCacheConfig {
    /// Cache capacity in bytes (tags hold `capacity / granule` blocks).
    pub capacity: ByteSize,
    /// Latency of a hit served from the brick-local cache.
    pub hit_latency: SimDuration,
}

impl RemoteCacheConfig {
    /// Default sized off the prototype compute brick: a 512 KiB
    /// glue-logic-adjacent cache with a 45 ns hit (local DDR-class).
    pub fn dredbox_default() -> Self {
        RemoteCacheConfig {
            capacity: ByteSize::from_bytes(512 * 1024),
            hit_latency: SimDuration::from_nanos(45),
        }
    }
}

/// The synthetic access stream each VM drives over its remote memory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReadProfile {
    /// Span of remote addresses the VM touches.
    pub working_set: ByteSize,
    /// Sustained access rate the VM's offered load is derived from
    /// (accesses per second; the sampled bursts are a sparse probe of this
    /// continuous stream).
    pub reads_per_sec: f64,
    /// Number of sampled bursts over the VM's lifetime.
    pub bursts_per_vm: u32,
    /// Accesses simulated per sampled burst.
    pub reads_per_burst: u32,
    /// Gap between bursts.
    pub burst_every: SimDuration,
    /// Delay from admission to the first burst.
    pub start_after: SimDuration,
    /// Probability an access stays on the cache line after the previous
    /// one (sequential run) instead of jumping uniformly at random.
    pub locality: f64,
}

/// Spec-level configuration of the data-path model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DataPathConfig {
    /// Fabric stage capacities; `None` models an uncontended fabric (the
    /// flat-model baseline).
    pub contention: Option<ContentionConfig>,
    /// Per-VM remote cache; `None` sends every access over the fabric.
    pub cache: Option<RemoteCacheConfig>,
    /// Movement granule VMs start with.
    pub initial_granularity: Granularity,
    /// Whether the per-VM granularity controller runs.
    pub adaptive: bool,
    /// The access stream each VM drives.
    pub profile: ReadProfile,
}

impl DataPathConfig {
    /// Validation errors as a human-readable reason, `None` when valid.
    pub(super) fn invalid_reason(&self) -> Option<&'static str> {
        let p = &self.profile;
        if !(0.0..=1.0).contains(&p.locality) {
            return Some("data-path locality must be within [0, 1]");
        }
        if !p.reads_per_sec.is_finite() || p.reads_per_sec <= 0.0 {
            return Some("data-path reads_per_sec must be positive and finite");
        }
        if p.working_set.as_bytes() == 0 {
            return Some("data-path working set must be non-empty");
        }
        if p.bursts_per_vm > 0 && (p.reads_per_burst == 0 || p.burst_every == SimDuration::ZERO) {
            return Some("data-path bursts need reads_per_burst and burst_every");
        }
        if let Some(contention) = &self.contention {
            if !contention.is_valid() {
                return Some("data-path contention capacities/cap are invalid");
            }
        }
        if let Some(cache) = &self.cache {
            if cache.capacity.as_bytes() < Granularity::Page.bytes() {
                return Some("data-path cache must hold at least one page");
            }
        }
        None
    }
}

/// Queue-share threshold above which a page-granule VM demotes to cache
/// lines: more than ~30 % of read time spent queuing means the granule is
/// multiplying load the fabric cannot absorb.
const DEMOTE_QUEUE_SHARE: f64 = 0.3;

/// Predicted worst-stage utilization below which a cache-line VM promotes
/// back to pages. The prediction charges the VM's own all-miss page load on
/// top of the background already published, so promotions self-limit.
const PROMOTE_UTILIZATION: f64 = 0.45;

/// Data-path telemetry of one replay, reported when the spec configures
/// [`DataPathConfig`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DataPathStats {
    /// Accesses driven through the data path (cache hits + fetches).
    pub reads: u64,
    /// Accesses served from the per-VM remote cache.
    pub cache_hits: u64,
    /// Accesses that fetched a granule over the fabric.
    pub cache_misses: u64,
    /// Fetches moved at cache-line granularity.
    pub line_fetches: u64,
    /// Fetches moved at page granularity.
    pub page_fetches: u64,
    /// Granularity-controller transitions (both directions).
    pub granularity_switches: u64,
    /// 50th percentile of per-access latency, nanoseconds.
    pub read_latency_p50_ns: f64,
    /// 99th percentile of per-access latency, nanoseconds.
    pub read_latency_p99_ns: f64,
    /// 99.9th percentile of per-access latency, nanoseconds.
    pub read_latency_p999_ns: f64,
    /// Queuing delay charged per fetch, nanoseconds (misses only).
    pub queue_delay: Option<Summary>,
    /// Highest per-stage utilization any fetch observed, in `[0, cap]`.
    pub peak_fabric_utilization: f64,
}

/// Per-VM runtime state of the data path. One lives per VM arena slot and
/// outlasts its VM: the next VM admitted into the slot clears it and
/// reuses its buffers, so a steady replay stops allocating here once its
/// slots have seen a burst.
#[derive(Debug)]
struct VmDataPath {
    /// The VM this state belongs to (its handle), `None` once it departed.
    vm: Option<u64>,
    route: ReadRoute,
    granularity: Granularity,
    /// FIFO tag order of cached blocks.
    fifo: VecDeque<u64>,
    /// Tag membership: one bit per block of the working set at the current
    /// granule.
    cached: Vec<u64>,
    /// Offered load currently published on the route's stages, bytes/s.
    published: f64,
    /// Cache line touched by the previous access (sequential-run state).
    last_line: u64,
}

impl VmDataPath {
    fn is_cached(&self, block: u64) -> bool {
        self.cached[(block / 64) as usize] & (1 << (block % 64)) != 0
    }

    fn set_cached(&mut self, block: u64, on: bool) {
        let word = &mut self.cached[(block / 64) as usize];
        if on {
            *word |= 1 << (block % 64);
        } else {
            *word &= !(1 << (block % 64));
        }
    }

    /// Drops every tag (a granule switch, or a new VM in the slot).
    fn clear_tags(&mut self) {
        self.fifo.clear();
        self.cached.clear();
    }
}

/// What one burst contributed, for scheduling follow-ups.
pub(super) struct BurstOutcome {
    /// Whether the VM still existed and the burst ran.
    pub ran: bool,
}

/// Where a VM's live state is kept in [`DataPathState`].
#[derive(Debug, Clone, Copy)]
enum Place {
    /// At its arena slot.
    Slot(usize),
    /// In the displaced list, at this index.
    Displaced(usize),
}

/// The slot of a VM handle in the system's VM arena.
fn slot_of(vm: VmHandle) -> usize {
    SlotKey::from_u64(vm.0).index() as usize
}

/// World-side runtime of the data-path model: the fabric ledger, per-VM
/// caches and the aggregate telemetry.
pub(super) struct DataPathState {
    fabric: Fabric,
    /// Per-VM state, indexed by VM arena slot.
    vms: Vec<VmDataPath>,
    /// Live states whose slot a later VM took before they departed (a VM
    /// lost to a fault departs lazily, at its next burst).
    displaced: Vec<VmDataPath>,
}

/// The shared side of the data path: configuration, the rack fabric's
/// offered-load ledger and the telemetry.
struct Fabric {
    cfg: DataPathConfig,
    /// The rack fabric's offered-load ledger.
    load: FabricLoad,
    stats: DataPathStats,
    queue_delays_ns: Summary,
}

impl DataPathState {
    pub(super) fn new(cfg: DataPathConfig) -> Self {
        DataPathState {
            fabric: Fabric {
                cfg,
                load: FabricLoad::new(),
                stats: DataPathStats::default(),
                queue_delays_ns: Summary::new(),
            },
            vms: Vec::new(),
            displaced: Vec::new(),
        }
    }

    pub(super) fn config(&self) -> &DataPathConfig {
        &self.fabric.cfg
    }

    /// Where the live state of `vm` is kept: its slot, or the displaced
    /// list.
    fn locate(&self, vm: VmHandle) -> Option<Place> {
        let live = |state: &VmDataPath| state.vm == Some(vm.0);
        if self.vms.get(slot_of(vm)).is_some_and(live) {
            return Some(Place::Slot(slot_of(vm)));
        }
        self.displaced.iter().position(live).map(Place::Displaced)
    }

    fn state(&self, place: Place) -> &VmDataPath {
        match place {
            Place::Slot(i) => &self.vms[i],
            Place::Displaced(i) => &self.displaced[i],
        }
    }

    /// Registers an admitted VM: pessimistic all-miss load published until
    /// the first burst measures its real miss rate.
    pub(super) fn on_admit(&mut self, vm: VmHandle, route: ReadRoute) {
        // Defensive: a recycled handle key must not leak its predecessor's
        // published load.
        self.on_departure(vm);
        let granularity = self.fabric.cfg.initial_granularity;
        let published = self.fabric.all_miss_load(granularity);
        self.fabric.publish(route, published);
        let slot = slot_of(vm);
        while self.vms.len() <= slot {
            self.vms.push(VmDataPath {
                vm: None,
                route,
                granularity,
                fifo: VecDeque::new(),
                cached: Vec::new(),
                published: 0.0,
                last_line: 0,
            });
        }
        let state = &mut self.vms[slot];
        if state.vm.is_some() {
            self.displaced.push(VmDataPath {
                fifo: std::mem::take(&mut state.fifo),
                cached: std::mem::take(&mut state.cached),
                ..*state
            });
        }
        state.vm = Some(vm.0);
        state.route = route;
        state.granularity = granularity;
        state.clear_tags();
        state.published = published;
        state.last_line = 0;
    }

    /// Deregisters a departed (or faulted-away) VM, retracting its load.
    pub(super) fn on_departure(&mut self, vm: VmHandle) {
        let (route, published) = match self.locate(vm) {
            Some(Place::Slot(i)) => {
                let state = &mut self.vms[i];
                state.vm = None;
                (state.route, state.published)
            }
            Some(Place::Displaced(i)) => {
                let state = self.displaced.swap_remove(i);
                (state.route, state.published)
            }
            None => return,
        };
        self.fabric.retract(route, published);
    }

    /// Latency of a direct (uncached) read of `size` bytes by `vm` — the
    /// accessor behind the per-admission read charges. Live-model path:
    /// never consults the precomputed flat table.
    pub(super) fn direct_read_ns(
        &mut self,
        system: &DredboxSystem,
        vm: VmHandle,
        size: ByteSize,
    ) -> f64 {
        let mut breakdown = system.remote_read_latency(size);
        let (queueing, worst) = match self.locate(vm) {
            Some(place) => self.fabric.queueing(self.state(place), size),
            // No route registered (VM without remote memory): flat model.
            None => (SimDuration::ZERO, 0.0),
        };
        let fabric = &mut self.fabric;
        fabric.stats.peak_fabric_utilization = fabric.stats.peak_fabric_utilization.max(worst);
        if queueing > SimDuration::ZERO {
            breakdown.add(LatencyComponent::Queueing, queueing);
            fabric.queue_delays_ns.record(queueing.as_nanos() as f64);
        }
        breakdown.total().as_nanos() as f64
    }

    /// Runs one sampled burst of accesses for `vm`, recording per-access
    /// latencies into `samples`. Re-publishes the VM's offered load from
    /// the measured miss rate and steps the granularity controller. The
    /// VM's state is updated where it lives.
    pub(super) fn run_burst(
        &mut self,
        system: &DredboxSystem,
        vm: VmHandle,
        rng: &mut SimRng,
        samples: &mut Summary,
    ) -> BurstOutcome {
        let Some(place) = self.locate(vm) else {
            return BurstOutcome { ran: false };
        };
        let state = match place {
            Place::Slot(i) => &mut self.vms[i],
            Place::Displaced(i) => &mut self.displaced[i],
        };
        self.fabric.burst(system, state, rng, samples);
        BurstOutcome { ran: true }
    }

    /// Folds the collected telemetry into the report block. `read_latency`
    /// is the replay's per-access latency summary (percentile source).
    pub(super) fn finish(self, read_latency: Option<&Summary>) -> DataPathStats {
        let mut fabric = self.fabric;
        if let Some(summary) = read_latency {
            fabric.stats.read_latency_p50_ns = summary.percentile(50.0);
            fabric.stats.read_latency_p99_ns = summary.percentile(99.0);
            fabric.stats.read_latency_p999_ns = summary.percentile(99.9);
        }
        fabric.stats.queue_delay = fabric.queue_delays_ns.finish();
        fabric.stats
    }
}

impl Fabric {
    /// All-miss offered load of one VM at `granularity`, bytes/s.
    fn all_miss_load(&self, granularity: Granularity) -> f64 {
        self.cfg.profile.reads_per_sec * granularity.bytes() as f64
    }

    /// Publishes `bytes_per_sec` on every stage of `route`.
    fn publish(&mut self, route: ReadRoute, bytes_per_sec: f64) {
        for stage in read_route_stages(route.compute, route.membrick) {
            self.load.publish(stage, bytes_per_sec);
        }
    }

    /// Retracts `bytes_per_sec` from every stage of `route`.
    fn retract(&mut self, route: ReadRoute, bytes_per_sec: f64) {
        for stage in read_route_stages(route.compute, route.membrick) {
            self.load.retract(stage, bytes_per_sec);
        }
    }

    /// The `(stage backgrounds, capacities)` a fetch by `vm` queues behind.
    fn stage_loads(&self, state: &VmDataPath) -> Option<[StageLoad; 3]> {
        let contention = self.cfg.contention.as_ref()?;
        let stages = read_route_stages(state.route.compute, state.route.membrick);
        let capacities = [
            contention.brick_uplink,
            contention.rack_switch,
            contention.membrick_port,
        ];
        let mut out = [StageLoad {
            capacity: contention.brick_uplink,
            background_bytes_per_sec: 0.0,
        }; 3];
        for (slot, (stage, capacity)) in stages.into_iter().zip(capacities).enumerate() {
            out[slot] = StageLoad {
                capacity,
                background_bytes_per_sec: self.load.background(stage, state.published),
            };
        }
        Some(out)
    }

    /// Queuing delay of a fetch moving `moved` bytes for `state`, plus the
    /// worst stage utilization it observed.
    fn queueing(&self, state: &VmDataPath, moved: ByteSize) -> (SimDuration, f64) {
        let Some(stages) = self.stage_loads(state) else {
            return (SimDuration::ZERO, 0.0);
        };
        let cap = self
            .cfg
            .contention
            .as_ref()
            .map(|c| c.max_utilization)
            .unwrap_or(0.0);
        let mut delay = SimDuration::ZERO;
        let mut worst = 0.0f64;
        for stage in stages {
            delay += stage.queueing_delay(moved, cap);
            worst = worst.max(stage.utilization(cap));
        }
        (delay, worst)
    }

    /// One fetch of `moved` bytes over the fabric for `state`: the flat
    /// breakdown plus the queuing charge. Returns total nanoseconds and the
    /// queuing slice alone.
    fn fetch(&mut self, system: &DredboxSystem, state: &VmDataPath, moved: ByteSize) -> (f64, f64) {
        let mut breakdown = system.remote_read_latency(moved);
        let (queueing, worst) = self.queueing(state, moved);
        self.stats.peak_fabric_utilization = self.stats.peak_fabric_utilization.max(worst);
        breakdown.add(LatencyComponent::Queueing, queueing);
        let queue_ns = queueing.as_nanos() as f64;
        self.queue_delays_ns.record(queue_ns);
        (breakdown.total().as_nanos() as f64, queue_ns)
    }

    /// Sizes the cache tags of `state` for its granule, once per VM and
    /// granule: the tag bits cover the working set's blocks, and the FIFO
    /// is reserved for the most blocks it can hold — the cache's, the
    /// working set's, or the VM's lifetime reads, whichever is fewest.
    fn size_tags(&self, state: &mut VmDataPath, ws_lines: u64) {
        let Some(cache) = self.cfg.cache else {
            return;
        };
        let lines_per_block = state.granularity.bytes() / Granularity::CacheLine.bytes();
        let ws_blocks = ws_lines.div_ceil(lines_per_block);
        let words = ws_blocks.div_ceil(64) as usize;
        if state.cached.len() != words {
            state.cached.clear();
            state.cached.resize(words, 0);
            let profile = self.cfg.profile;
            let reads = u64::from(profile.bursts_per_vm) * u64::from(profile.reads_per_burst);
            let cache_blocks = (cache.capacity.as_bytes() / state.granularity.bytes()).max(1);
            let most = cache_blocks.min(ws_blocks).min(reads) as usize;
            state.fifo.reserve(most.saturating_sub(state.fifo.len()));
        }
    }

    /// One sampled burst of `state`'s accesses (see
    /// [`DataPathState::run_burst`]).
    fn burst(
        &mut self,
        system: &DredboxSystem,
        state: &mut VmDataPath,
        rng: &mut SimRng,
        samples: &mut Summary,
    ) {
        let profile = self.cfg.profile;
        let ws_lines = (profile.working_set.as_bytes() / Granularity::CacheLine.bytes()).max(1);
        self.size_tags(state, ws_lines);
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut total_ns = 0.0f64;
        let mut queue_ns = 0.0f64;
        for _ in 0..profile.reads_per_burst {
            // One locality trial per access, one address draw on jumps:
            // fixed draw count keeps replays aligned across configurations.
            let line = if rng.chance(profile.locality) {
                (state.last_line + 1) % ws_lines
            } else {
                rng.range(0..ws_lines)
            };
            state.last_line = line;
            let lines_per_block = state.granularity.bytes() / Granularity::CacheLine.bytes();
            let block = line / lines_per_block;
            let cached = self.cfg.cache.is_some() && state.is_cached(block);
            let ns = if cached {
                hits += 1;
                self.cfg
                    .cache
                    .expect("hit implies cache")
                    .hit_latency
                    .as_nanos() as f64
            } else {
                misses += 1;
                match state.granularity {
                    Granularity::CacheLine => self.stats.line_fetches += 1,
                    Granularity::Page => self.stats.page_fetches += 1,
                }
                let moved = ByteSize::from_bytes(state.granularity.bytes());
                let (ns, q) = self.fetch(system, state, moved);
                queue_ns += q;
                if let Some(cache) = self.cfg.cache {
                    let blocks = (cache.capacity.as_bytes() / state.granularity.bytes()).max(1);
                    while state.fifo.len() as u64 >= blocks {
                        if let Some(evicted) = state.fifo.pop_front() {
                            state.set_cached(evicted, false);
                        }
                    }
                    state.fifo.push_back(block);
                    state.set_cached(block, true);
                }
                ns
            };
            total_ns += ns;
            samples.record(ns);
        }
        self.stats.reads += hits + misses;
        self.stats.cache_hits += hits;
        self.stats.cache_misses += misses;

        // Re-publish the VM's offered load from the measured miss rate.
        let reads = hits + misses;
        let miss_fraction = if reads == 0 {
            1.0
        } else {
            misses as f64 / reads as f64
        };
        let measured = self.all_miss_load(state.granularity) * miss_fraction;
        self.retract(state.route, state.published);
        state.published = measured;
        self.publish(state.route, measured);

        if self.cfg.adaptive {
            self.adapt(state, queue_ns, total_ns);
        }
    }

    /// The granularity-switch state machine (see module docs).
    fn adapt(&mut self, state: &mut VmDataPath, queue_ns: f64, total_ns: f64) {
        let queue_share = if total_ns > 0.0 {
            queue_ns / total_ns
        } else {
            0.0
        };
        let next = match state.granularity {
            Granularity::Page if queue_share > DEMOTE_QUEUE_SHARE => Granularity::CacheLine,
            Granularity::CacheLine
                if self.predicted_page_utilization(state) < PROMOTE_UTILIZATION =>
            {
                Granularity::Page
            }
            current => current,
        };
        if next != state.granularity {
            self.stats.granularity_switches += 1;
            state.granularity = next;
            // Tags are granule-addressed: a switch invalidates them all.
            state.clear_tags();
            // Until the next burst measures the new miss rate, publish the
            // pessimistic all-miss load at the new granule (the cache is
            // cold anyway).
            let published = self.all_miss_load(next);
            self.retract(state.route, state.published);
            state.published = published;
            self.publish(state.route, published);
        }
    }

    /// Worst-stage utilization the route would see if this VM offered its
    /// all-miss *page*-granularity load on top of the current background.
    fn predicted_page_utilization(&self, state: &VmDataPath) -> f64 {
        let Some(contention) = self.cfg.contention.as_ref() else {
            return 0.0;
        };
        let hypothetical = self.all_miss_load(Granularity::Page);
        let Some(stages) = self.stage_loads(state) else {
            return 0.0;
        };
        let mut worst = 0.0f64;
        for stage in stages {
            let capacity_bytes = stage.capacity.as_bps() / 8.0;
            if capacity_bytes > 0.0 {
                let rho = (stage.background_bytes_per_sec + hypothetical) / capacity_bytes;
                worst = worst.max(rho.min(contention.max_utilization));
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioSpec;
    use dredbox_bricks::BrickId;
    use dredbox_optical::FabricStage;

    fn handle(slot: u32, generation: u32) -> VmHandle {
        VmHandle((u64::from(generation) << 32) | u64::from(slot))
    }

    /// A VM lost to a fault leaves without a departure; when a new VM
    /// takes its arena slot first, both keep their published load until
    /// each departs, as when states were keyed by the whole handle.
    #[test]
    fn a_displaced_state_keeps_its_load_until_its_vm_departs() {
        let cfg = ScenarioSpec::memory_thrash().data_path.expect("data path");
        let mut dp = DataPathState::new(cfg);
        let route = ReadRoute {
            compute: BrickId(0),
            membrick: BrickId(8),
        };
        let switch = |dp: &DataPathState| dp.fabric.load.load(FabricStage::RackSwitch);
        let (lost, next) = (handle(3, 0), handle(3, 1));
        dp.on_admit(lost, route);
        let one = switch(&dp);
        assert!(one > 0.0);
        dp.on_admit(next, route);
        assert_eq!(switch(&dp), 2.0 * one);
        assert_eq!(dp.displaced.len(), 1);
        dp.on_departure(lost);
        assert_eq!(switch(&dp), one);
        assert!(dp.displaced.is_empty());
        dp.on_departure(next);
        dp.on_departure(next);
        assert_eq!(switch(&dp), 0.0);
        // The slot's state outlives its VM, buffers and all.
        assert_eq!(dp.vms.len(), 4);
        assert_eq!(dp.vms[3].vm, None);
    }
}
