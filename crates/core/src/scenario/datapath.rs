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
//! ## Two sides
//!
//! Latencies feed report samples only; they never shift an event
//! timestamp. So the model splits in two. The event loop keeps
//! [`DataPathLoop`]: every per-access RNG draw, from the world's forked
//! RNG with a fixed draw count per access (one locality trial, plus one
//! address draw on non-local accesses), and which VMs hold a data-path
//! entry, the one fact a decision reads. The rack's observer keeps
//! [`DataPathModel`]: caches, granules, the fabric ledger, prices and
//! telemetry, fed the loop's admits, bursts (with their drawn accesses),
//! direct reads and departures through the observation log in event
//! order (see `scenario::observer`).
//!
//! ## Determinism
//!
//! The model's state mutates in log order, which is simulation-event
//! order, wherever the log drains. A contention-free configuration
//! therefore replays decision-for-decision and byte-for-byte like the
//! flat model, and contended replays stay bit-identical at every worker
//! count.

use std::collections::VecDeque;
use std::mem;

use serde::{Deserialize, Serialize};

use dredbox_bricks::BrickId;
use dredbox_interconnect::contention::{queueing_wait, StageLoad};
use dredbox_interconnect::ContentionConfig;
use dredbox_optical::load::{read_route_stages, FabricLoad};
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
    pub(crate) fn bytes(self) -> u64 {
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

/// The transfer sizes reads are priced at: a direct read draws one per
/// charge, and a fetch moves a cache line (the first) or a page (the
/// last).
pub(super) const READ_SIZES: [u64; 4] = [64, 256, 1_024, 4_096];

impl Granularity {
    /// The granule's index in [`READ_SIZES`].
    fn size_index(self) -> usize {
        match self {
            Granularity::CacheLine => 0,
            Granularity::Page => READ_SIZES.len() - 1,
        }
    }
}

/// A drawn access that continues the sequential run. Every other draw is
/// the cache line a jump lands on.
pub(super) const SEQUENTIAL: u64 = u64::MAX;

/// Read prices fixed at build. The rack's read path never changes after
/// it and the flat model is pure in the transfer size, so a fetch is
/// priced by lookup rather than by rebuilding its hop-by-hop breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct ReadPrices {
    /// Flat total of one read per [`READ_SIZES`] entry.
    flat: [SimDuration; READ_SIZES.len()],
    /// Service time per [`READ_SIZES`] entry at each contended stage, in
    /// route order; zero when the fabric is uncontended.
    service: [[SimDuration; READ_SIZES.len()]; 3],
}

impl ReadPrices {
    pub(super) fn new(system: &DredboxSystem, contention: Option<&ContentionConfig>) -> Self {
        let flat = READ_SIZES.map(|size| {
            system
                .remote_read_latency(ByteSize::from_bytes(size))
                .total()
        });
        let service = match contention {
            Some(c) => [c.brick_uplink, c.rack_switch, c.membrick_port].map(|capacity| {
                READ_SIZES.map(|size| capacity.transfer_time(ByteSize::from_bytes(size)))
            }),
            None => [[SimDuration::ZERO; READ_SIZES.len()]; 3],
        };
        ReadPrices { flat, service }
    }

    /// Flat latency of a read of `READ_SIZES[size]` bytes, nanoseconds.
    pub(super) fn flat_ns(&self, size: usize) -> f64 {
        self.flat[size].as_nanos() as f64
    }
}

/// Per-VM entries of the data path, at the VM's arena slot. An entry
/// outlasts its VM: the next VM admitted into the slot reuses it, buffers
/// and all, so a steady replay stops allocating here once its slots have
/// seen a burst. A VM lost to a fault departs lazily, at its next burst;
/// when a later VM takes its slot first, its entry waits in the displaced
/// list until then.
#[derive(Debug, Default)]
struct SlotTable<T> {
    slots: Vec<Entry<T>>,
    displaced: Vec<Entry<T>>,
}

#[derive(Debug, Default)]
struct Entry<T> {
    /// The VM the entry belongs to (its handle), `None` once it departed.
    vm: Option<u64>,
    state: T,
}

/// Where a VM's entry is kept in a [`SlotTable`].
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

impl<T: Default> SlotTable<T> {
    fn locate(&self, vm: VmHandle) -> Option<Place> {
        let live = |entry: &Entry<T>| entry.vm == Some(vm.0);
        let slot = slot_of(vm);
        if self.slots.get(slot).is_some_and(live) {
            return Some(Place::Slot(slot));
        }
        self.displaced.iter().position(live).map(Place::Displaced)
    }

    fn get(&self, vm: VmHandle) -> Option<&T> {
        match self.locate(vm)? {
            Place::Slot(i) => Some(&self.slots[i].state),
            Place::Displaced(i) => Some(&self.displaced[i].state),
        }
    }

    fn get_mut(&mut self, vm: VmHandle) -> Option<&mut T> {
        match self.locate(vm)? {
            Place::Slot(i) => Some(&mut self.slots[i].state),
            Place::Displaced(i) => Some(&mut self.displaced[i].state),
        }
    }

    /// Ends `vm`'s entry, returning what `read` takes from its last state.
    fn remove<R>(&mut self, vm: VmHandle, read: impl FnOnce(&T) -> R) -> Option<R> {
        match self.locate(vm)? {
            Place::Slot(i) => {
                let entry = &mut self.slots[i];
                entry.vm = None;
                Some(read(&entry.state))
            }
            Place::Displaced(i) => Some(read(&self.displaced.swap_remove(i).state)),
        }
    }

    /// Starts the entry of `vm`, which holds none, at its slot, moving a
    /// live occupant to the displaced list. The returned state still holds
    /// the slot's previous fields and buffers.
    fn insert(&mut self, vm: VmHandle) -> &mut T {
        let slot = slot_of(vm);
        if self.slots.len() <= slot {
            self.slots.resize_with(slot + 1, Entry::default);
        }
        let entry = &mut self.slots[slot];
        if let Some(occupant) = entry.vm {
            self.displaced.push(Entry {
                vm: Some(occupant),
                state: mem::take(&mut entry.state),
            });
        }
        entry.vm = Some(vm.0);
        &mut entry.state
    }
}

/// The event loop's side of the data path: the configuration, every
/// per-access RNG draw, and which VMs hold a data-path entry. That last
/// fact is the only one a decision reads: the burst of a VM without an
/// entry does not run, so it schedules no successor. The entries
/// themselves, and everything priced from them, live in the observer's
/// [`DataPathModel`], which applies the same admits and departures.
pub(super) struct DataPathLoop {
    cfg: DataPathConfig,
    /// The working set in cache lines: the range a jump draws from.
    ws_lines: u64,
    live: SlotTable<()>,
}

impl DataPathLoop {
    pub(super) fn new(cfg: DataPathConfig) -> Self {
        let ws_lines = (cfg.profile.working_set.as_bytes() / Granularity::CacheLine.bytes()).max(1);
        DataPathLoop {
            cfg,
            ws_lines,
            live: SlotTable::default(),
        }
    }

    pub(super) fn config(&self) -> &DataPathConfig {
        &self.cfg
    }

    /// Registers an admitted VM, as [`DataPathModel::on_admit`] does.
    pub(super) fn admit(&mut self, vm: VmHandle) {
        self.live.remove(vm, |_| ());
        self.live.insert(vm);
    }

    /// Deregisters `vm`; true when it held an entry.
    pub(super) fn depart(&mut self, vm: VmHandle) -> bool {
        self.live.remove(vm, |_| ()).is_some()
    }

    /// Whether `vm` holds an entry, so its next burst runs.
    pub(super) fn is_live(&self, vm: VmHandle) -> bool {
        self.live.locate(vm).is_some()
    }

    /// Draws one burst's accesses into `draws`: one locality trial per
    /// access, and one address draw on a jump. The fixed draw count keeps
    /// replays aligned across configurations.
    pub(super) fn draw_burst(&self, rng: &mut SimRng, draws: &mut Vec<u64>) {
        let profile = &self.cfg.profile;
        for _ in 0..profile.reads_per_burst {
            let draw = if rng.chance(profile.locality) {
                SEQUENTIAL
            } else {
                rng.range(0..self.ws_lines)
            };
            draws.push(draw);
        }
    }
}

/// Per-VM runtime state of the data-path model.
#[derive(Debug)]
struct VmDataPath {
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

impl Default for VmDataPath {
    fn default() -> Self {
        VmDataPath {
            route: ReadRoute {
                compute: BrickId(0),
                membrick: BrickId(0),
            },
            granularity: Granularity::CacheLine,
            fifo: VecDeque::new(),
            cached: Vec::new(),
            published: 0.0,
            last_line: 0,
        }
    }
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

/// The observer's side of the data path: the fabric ledger, per-VM caches
/// and granularity state, and the telemetry. It applies the loop's
/// admits, bursts, direct reads and departures in event order.
pub(super) struct DataPathModel {
    fabric: Fabric,
    vms: SlotTable<VmDataPath>,
}

/// The shared side of the data path: configuration, read prices, the rack
/// fabric's offered-load ledger and the telemetry.
struct Fabric {
    cfg: DataPathConfig,
    prices: ReadPrices,
    /// The rack fabric's offered-load ledger.
    load: FabricLoad,
    stats: DataPathStats,
    queue_delays_ns: Summary,
}

impl DataPathModel {
    pub(super) fn new(cfg: DataPathConfig, prices: ReadPrices) -> Self {
        DataPathModel {
            fabric: Fabric {
                cfg,
                prices,
                load: FabricLoad::new(),
                stats: DataPathStats::default(),
                queue_delays_ns: Summary::new(),
            },
            vms: SlotTable::default(),
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
        let state = self.vms.insert(vm);
        state.route = route;
        state.granularity = granularity;
        state.clear_tags();
        state.published = published;
        state.last_line = 0;
    }

    /// Deregisters a departed (or faulted-away) VM, retracting its load.
    pub(super) fn on_departure(&mut self, vm: VmHandle) {
        if let Some((route, published)) = self.vms.remove(vm, |s| (s.route, s.published)) {
            self.fabric.retract(route, published);
        }
    }

    /// Latency of a direct (uncached) read of `READ_SIZES[size]` bytes by
    /// `vm`, the accessor behind the per-admission read charges: the flat
    /// price plus the queuing the live fabric load charges.
    pub(super) fn direct_read_ns(&mut self, vm: VmHandle, size: usize) -> f64 {
        let (queueing, worst) = match self.vms.get(vm) {
            Some(state) => self.fabric.queueing(state, size),
            // No route registered (VM without remote memory): flat model.
            None => (SimDuration::ZERO, 0.0),
        };
        let fabric = &mut self.fabric;
        fabric.stats.peak_fabric_utilization = fabric.stats.peak_fabric_utilization.max(worst);
        if queueing > SimDuration::ZERO {
            fabric.queue_delays_ns.record(queueing.as_nanos() as f64);
        }
        (fabric.prices.flat[size] + queueing).as_nanos() as f64
    }

    /// Runs one sampled burst of `vm`'s accesses, as drawn on the loop,
    /// recording per-access latencies into `samples`. Re-publishes the
    /// VM's offered load from the measured miss rate and steps the
    /// granularity controller. The VM's state is updated where it lives.
    pub(super) fn run_burst(&mut self, vm: VmHandle, draws: &[u64], samples: &mut Summary) {
        let state = self
            .vms
            .get_mut(vm)
            .expect("the loop logs bursts of VMs with a data-path entry");
        self.fabric.burst(state, draws, samples);
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

    /// Queuing delay of a fetch moving `READ_SIZES[size]` bytes for
    /// `state`, plus the worst stage utilization it observed.
    fn queueing(&self, state: &VmDataPath, size: usize) -> (SimDuration, f64) {
        let (Some(contention), Some(stages)) =
            (self.cfg.contention.as_ref(), self.stage_loads(state))
        else {
            return (SimDuration::ZERO, 0.0);
        };
        let mut delay = SimDuration::ZERO;
        let mut worst = 0.0f64;
        for (stage, service) in stages.into_iter().zip(&self.prices.service) {
            let rho = stage.utilization(contention.max_utilization);
            delay += queueing_wait(service[size], rho);
            worst = worst.max(rho);
        }
        (delay, worst)
    }

    /// One fetch of `READ_SIZES[size]` bytes over the fabric for `state`:
    /// the flat price plus the queuing charge. Returns total nanoseconds
    /// and the queuing slice alone.
    fn fetch(&mut self, state: &VmDataPath, size: usize) -> (f64, f64) {
        let (queueing, worst) = self.queueing(state, size);
        self.stats.peak_fabric_utilization = self.stats.peak_fabric_utilization.max(worst);
        let queue_ns = queueing.as_nanos() as f64;
        self.queue_delays_ns.record(queue_ns);
        (
            (self.prices.flat[size] + queueing).as_nanos() as f64,
            queue_ns,
        )
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
    /// [`DataPathModel::run_burst`]).
    fn burst(&mut self, state: &mut VmDataPath, draws: &[u64], samples: &mut Summary) {
        let profile = self.cfg.profile;
        let ws_lines = (profile.working_set.as_bytes() / Granularity::CacheLine.bytes()).max(1);
        self.size_tags(state, ws_lines);
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut total_ns = 0.0f64;
        let mut queue_ns = 0.0f64;
        for &draw in draws {
            let line = if draw == SEQUENTIAL {
                (state.last_line + 1) % ws_lines
            } else {
                draw
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
                let (ns, q) = self.fetch(state, state.granularity.size_index());
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
    use dredbox_optical::load::FabricStage;

    fn handle(slot: u32, generation: u32) -> VmHandle {
        VmHandle((u64::from(generation) << 32) | u64::from(slot))
    }

    #[test]
    fn granules_are_priced_at_their_own_sizes() {
        for g in [Granularity::CacheLine, Granularity::Page] {
            assert_eq!(READ_SIZES[g.size_index()], g.bytes());
        }
    }

    /// A VM lost to a fault leaves without a departure; when a new VM
    /// takes its arena slot first, both keep their published load until
    /// each departs, as when states were keyed by the whole handle. The
    /// loop's registry follows the model's entries step by step.
    #[test]
    fn a_displaced_state_keeps_its_load_until_its_vm_departs() {
        let spec = ScenarioSpec::memory_thrash();
        let cfg = spec.data_path.expect("data path");
        let system = DredboxSystem::build(spec.system.clone()).expect("spec builds");
        let mut dp = DataPathModel::new(cfg, ReadPrices::new(&system, cfg.contention.as_ref()));
        let mut live = DataPathLoop::new(cfg);
        let route = ReadRoute {
            compute: BrickId(0),
            membrick: BrickId(8),
        };
        let switch = |dp: &DataPathModel| dp.fabric.load.load(FabricStage::RackSwitch);
        let (lost, next) = (handle(3, 0), handle(3, 1));
        dp.on_admit(lost, route);
        live.admit(lost);
        let one = switch(&dp);
        assert!(one > 0.0);
        dp.on_admit(next, route);
        live.admit(next);
        assert_eq!(switch(&dp), 2.0 * one);
        assert_eq!(dp.vms.displaced.len(), 1);
        assert!(live.is_live(lost) && live.is_live(next));
        dp.on_departure(lost);
        assert!(live.depart(lost));
        assert_eq!(switch(&dp), one);
        assert!(dp.vms.displaced.is_empty());
        assert!(!live.is_live(lost) && live.is_live(next));
        dp.on_departure(next);
        dp.on_departure(next);
        assert!(live.depart(next));
        assert!(!live.depart(next));
        assert_eq!(switch(&dp), 0.0);
        // The slot's state outlives its VM, buffers and all.
        assert_eq!(dp.vms.slots.len(), 4);
        assert_eq!(dp.vms.slots[3].vm, None);
    }
}
