//! Two-level orchestration: a cluster controller federating many racks.
//!
//! The paper's SDM controller is deliberately rack-scoped ("resource
//! reservation and dynamic reconfiguration *within a rack*"), but the
//! dReDBox vision is a disaggregated datacenter. The [`ClusterController`]
//! is the level above: it owns N racks — each still managed by its own
//! [`crate::SdmController`] — and makes *inter-rack* decisions from
//! per-rack [`RackDigest`]s instead of per-brick state.
//!
//! ## The digest trick, one level up
//!
//! [`crate::CapacityIndex`] made per-brick availability inspection
//! incremental; the cluster applies the same move to racks. Every admit,
//! release, scale, migrate and power transition refreshes the owning
//! rack's digest (a handful of `O(1)`/`O(keys)` reads off the rack's own
//! indexes), and the controller stores it with one write into a dense
//! per-rack array. Beside that array it keeps the federated racks sorted
//! by the policy's preference key; storing a digest moves its one rack to
//! its new place in that order, a shift over the racks it passes. A
//! routing decision, and the spillover pick that follows a refusal
//! ([`ClusterController::pick`]), walks the order best first and stops
//! at the first rack that passes the screens: allocation-free, never
//! per-brick state, and `O(racks)` digest compares (64 at datacenter
//! scale) only when nothing ahead of the chosen rack admits the request.
//!
//! ## Admission screens are optimistic
//!
//! [`RackDigest::admits`] must never reject a request the rack itself
//! would accept, because for a single-rack cluster the controller has to
//! be decision-for-decision transparent (the golden-snapshot suite pins
//! this). The compute screen is exact — placement succeeds iff some
//! powered brick has enough free cores or some sleeping brick is large
//! enough, which is precisely what the digest records — while the memory
//! screen (`free_memory >= request`) is necessary but not sufficient
//! under fragmentation. The rack's own controller stays the authority:
//! routing proposes, the rack's admission decides, and a refusal falls
//! through to the next rack in preference order (spillover).
//!
//! ## Power budgets
//!
//! A rack whose *provisioned* power — powered-on brick count per kind
//! times that kind's active draw — has reached its budget is excluded
//! from routing (admission control), so new load lands on racks with
//! headroom and sweeps can pull over-budget racks back down. Provisioned
//! draw is the TCO study's currency: it upper-bounds the rack's
//! electrical draw the way Section VI's "units that cannot be switched
//! off" bound the conventional datacenter's.

use std::collections::{BTreeMap, BTreeSet};
use std::mem;

use serde::{Deserialize, Serialize};

use dredbox_bricks::RackId;
use dredbox_sim::time::SimDuration;
use dredbox_sim::units::{ByteSize, Watts};
use dredbox_snap::{Reader, Snap, SnapError};

use crate::placement::PlacementPolicy;

/// The capacity facts of one rack, as digested for cluster decisions.
///
/// Every field is derivable in `O(1)`/`O(log bricks)` from the rack's own
/// incrementally maintained indexes, so keeping the digest in lockstep
/// adds constant work per orchestration operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RackDigest {
    /// Sum of free cores over powered-on dCOMPUBRICKs.
    pub free_cores: u64,
    /// Most free cores on any single powered-on dCOMPUBRICK — the largest
    /// VM the rack can place without a wake-up.
    pub largest_free_cores: u32,
    /// Largest total capacity among sleeping dCOMPUBRICKs — the largest VM
    /// the rack can place by waking a brick.
    pub largest_sleeping_cores: u32,
    /// Free bytes across the rack's memory pool.
    pub free_memory_bytes: u64,
    /// Largest contiguous free block on any single dMEMBRICK.
    pub largest_segment_bytes: u64,
    /// dACCELBRICKs currently streaming no offload session.
    pub idle_accels: u32,
    /// Total dACCELBRICKs in the rack.
    pub accel_bricks: u32,
    /// dCOMPUBRICKs running at least one VM.
    pub active_bricks: u32,
    /// Powered-on bricks of any kind.
    pub powered_bricks: u32,
    /// Provisioned electrical draw in milliwatts: powered-on brick counts
    /// per kind times that kind's active draw. Integer so digest equality
    /// is bitwise.
    pub provisioned_milliwatts: u64,
}

impl RackDigest {
    /// Whether the rack can possibly place a VM of `vcpus` cores and
    /// `memory` bytes. Optimistic by design (see the module docs): exact
    /// on compute, necessary-but-not-sufficient on memory.
    pub fn admits(&self, vcpus: u32, memory: ByteSize) -> bool {
        let compute_ok = self.largest_free_cores >= vcpus || self.largest_sleeping_cores >= vcpus;
        compute_ok && self.free_memory_bytes >= memory.as_bytes()
    }

    /// Provisioned electrical draw.
    pub(crate) fn provisioned_power(&self) -> Watts {
        Watts::new(self.provisioned_milliwatts as f64 / 1e3)
    }
}

/// Service-time model for the cluster tier, mirroring
/// [`crate::SdmTimings`] one level up.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterTimings {
    /// Digest consultation and routing decision at the cluster controller.
    pub route: SimDuration,
    /// Handing a routed request down to the chosen rack's SDM controller
    /// (one control-network RPC between orchestration tiers).
    pub hop: SimDuration,
    /// Cadence of the cluster control loop: how often the front door
    /// dispatches queued arrivals and each rack republishes its capacity
    /// digest. This is the batching grain of cluster decisions — and, on
    /// the threaded runner, the natural epoch width between rack workers.
    #[serde(default = "ClusterTimings::default_control_interval")]
    pub control_interval: SimDuration,
}

impl ClusterTimings {
    /// Defaults in line with the SDM controller's REST-over-control-network
    /// timings: routing is an in-memory index read, the hop is an RPC, and
    /// the control loop ticks on a datacenter-telemetry cadence.
    pub fn dredbox_default() -> Self {
        ClusterTimings {
            route: SimDuration::from_micros(50),
            hop: SimDuration::from_micros(500),
            control_interval: Self::default_control_interval(),
        }
    }

    fn default_control_interval() -> SimDuration {
        SimDuration::from_secs(10)
    }
}

impl Default for ClusterTimings {
    fn default() -> Self {
        ClusterTimings::dredbox_default()
    }
}

/// Outcome of one routing decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RackRoute {
    /// The preferred rack, or `None` when no schedulable rack passes the
    /// digest screens.
    pub rack: Option<RackId>,
    /// Racks that passed the capacity screen but were skipped because
    /// their provisioned power had reached the rack budget.
    pub power_deferrals: u32,
}

/// One rack's entry in the controller's dense per-rack array.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct RackSlot {
    /// The rack's digest; `None` while the rack is not federated.
    digest: Option<RackDigest>,
    /// Excluded from admission routing (draining or drained).
    unschedulable: bool,
}

impl RackSlot {
    fn is_vacant(&self) -> bool {
        self.digest.is_none() && !self.unschedulable
    }
}

/// The cluster-level orchestrator: a dense per-rack array of digests,
/// navigated by the same placement policies the racks use one level down.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ClusterController {
    /// Rack-level placement policy (mirrors the per-rack policy).
    policy: PlacementPolicy,
    /// Per-rack state indexed by rack id; never ends in a vacant slot, so
    /// derived equality is the federation's.
    racks: Vec<RackSlot>,
    /// Per-rack provisioned-power budget; `None` disables admission-time
    /// power screening.
    budget_milliwatts: Option<u64>,
    /// Every federated rack under its preference key, ascending: the
    /// order routing walks. Derived from `policy` and the digests, and
    /// kept in step by `upsert` and `remove`, so it never changes
    /// equality or the snapshot.
    #[serde(skip)]
    order: Vec<(PreferenceKey, RackId)>,
}

/// A rack's place in the policy's preference order: lower is better.
type PreferenceKey = (bool, u64, u32);

impl ClusterController {
    /// Creates an empty controller routing with `policy`.
    pub fn new(policy: PlacementPolicy) -> Self {
        ClusterController {
            policy,
            ..ClusterController::default()
        }
    }

    /// Number of federated racks.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether no rack is federated.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The digest of a rack, if federated.
    pub(crate) fn digest(&self, rack: RackId) -> Option<&RackDigest> {
        self.racks.get(usize::from(rack.0))?.digest.as_ref()
    }

    /// All digests, ascending by rack id.
    pub(crate) fn digests(&self) -> impl Iterator<Item = (RackId, &RackDigest)> {
        self.racks
            .iter()
            .enumerate()
            .filter_map(|(i, s)| Some((RackId(i as u16), s.digest.as_ref()?)))
    }

    /// Sets or clears the per-rack provisioned-power budget.
    pub fn set_rack_budget(&mut self, budget: Option<Watts>) {
        self.budget_milliwatts = budget.map(|w| (w.as_watts() * 1e3).round() as u64);
    }

    /// The per-rack provisioned-power budget, if any.
    pub fn rack_budget(&self) -> Option<Watts> {
        self.budget_milliwatts.map(|mw| Watts::new(mw as f64 / 1e3))
    }

    /// The slot of `rack`, growing the array to reach it.
    fn slot_mut(&mut self, rack: RackId) -> &mut RackSlot {
        let idx = usize::from(rack.0);
        if idx >= self.racks.len() {
            self.racks.resize(idx + 1, RackSlot::default());
        }
        &mut self.racks[idx]
    }

    /// Drops trailing vacant slots, keeping the array canonical.
    fn trim(&mut self) {
        while self.racks.last().is_some_and(RackSlot::is_vacant) {
            self.racks.pop();
        }
    }

    /// Marks a rack as (un)schedulable. Unschedulable racks keep their
    /// digests maintained but are skipped by admission routing — the rack
    /// drain primitive.
    pub fn set_schedulable(&mut self, rack: RackId, schedulable: bool) {
        self.slot_mut(rack).unschedulable = !schedulable;
        self.trim();
    }

    /// Whether admissions may be routed to `rack`.
    pub fn is_schedulable(&self, rack: RackId) -> bool {
        self.racks
            .get(usize::from(rack.0))
            .map_or(true, |s| !s.unschedulable)
    }

    /// Readmits a previously drained rack into admission routing — the
    /// inverse of the [`ClusterController::set_schedulable`]`(rack, false)`
    /// drain primitive, used when a serviced rack comes back.
    ///
    /// Returns `true` iff the rack is federated *and* was actually drained;
    /// undraining an unknown rack or one that was never drained is a
    /// bit-identical no-op returning `false`.
    pub fn undrain_rack(&mut self, rack: RackId) -> bool {
        if self.digest(rack).is_none() || self.is_schedulable(rack) {
            return false;
        }
        self.set_schedulable(rack, true);
        true
    }

    /// Inserts or replaces a rack's digest, and moves the rack from its
    /// old place in the preference order to its new one: a binary search,
    /// then one swap per rack it passes.
    pub fn upsert(&mut self, rack: RackId, digest: RackDigest) {
        let entry = (self.preference(rack, &digest), rack);
        let Some(old) = self.slot_mut(rack).digest.replace(digest) else {
            let at = self.order.partition_point(|e| *e < entry);
            self.order.insert(at, entry);
            return;
        };
        let old = (self.preference(rack, &old), rack);
        if old == entry {
            return;
        }
        let mut at = self.position(old);
        self.order[at] = entry;
        while at > 0 && self.order[at - 1] > entry {
            self.order.swap(at - 1, at);
            at -= 1;
        }
        while at + 1 < self.order.len() && self.order[at + 1] < entry {
            self.order.swap(at, at + 1);
            at += 1;
        }
    }

    /// Removes a rack from the federation.
    pub fn remove(&mut self, rack: RackId) {
        let Some(slot) = self.racks.get_mut(usize::from(rack.0)) else {
            return;
        };
        let old = mem::take(slot);
        self.trim();
        if let Some(digest) = old.digest {
            let at = self.position((self.preference(rack, &digest), rack));
            self.order.remove(at);
        }
    }

    /// Where a federated rack's entry sits in the preference order.
    fn position(&self, entry: (PreferenceKey, RackId)) -> usize {
        self.order
            .binary_search(&entry)
            .expect("a federated rack is in the preference order")
    }

    /// Total provisioned draw across the federation — the figure the TCO
    /// study compares against the all-on baseline. `O(racks)`.
    pub fn provisioned_power(&self) -> Watts {
        let mw: u64 = self.digests().map(|(_, d)| d.provisioned_milliwatts).sum();
        Watts::new(mw as f64 / 1e3)
    }

    /// Per-rack provisioned draws, ascending by rack id — the
    /// `dredbox-tco` fleet-power feed. `O(racks)`.
    pub fn provisioned_per_rack(&self) -> Vec<Watts> {
        self.digests().map(|(_, d)| d.provisioned_power()).collect()
    }

    fn headroom_ok(&self, digest: &RackDigest) -> bool {
        match self.budget_milliwatts {
            Some(budget) => digest.provisioned_milliwatts < budget,
            None => true,
        }
    }

    /// Where `rack` stands in the policy's preference order — the
    /// rack-level mirror of the brick-level policies. FirstFit walks rack
    /// ids; PowerAware packs the fullest already-active rack first, then
    /// the idle racks fullest-first, lowest id on ties; Balanced spreads
    /// onto the emptiest rack, highest id on ties.
    fn preference(&self, rack: RackId, digest: &RackDigest) -> PreferenceKey {
        let id = u32::from(rack.0);
        match self.policy {
            PlacementPolicy::FirstFit => (false, 0, id),
            PlacementPolicy::PowerAware => (digest.active_bricks == 0, digest.free_cores, id),
            PlacementPolicy::Balanced => (false, u64::MAX - digest.free_cores, u32::MAX - id),
        }
    }

    /// Routes one admission: the first rack in the policy's preference
    /// order that is schedulable, passes the capacity screen and has power
    /// headroom. One allocation-free walk of the order, never per-brick
    /// state.
    pub fn route(&self, vcpus: u32, memory: ByteSize) -> RackRoute {
        self.pick(vcpus, memory, |_| false)
    }

    /// [`ClusterController::route`] over the racks `skip` does not
    /// exclude — the spillover pick: after a refusal, the next candidate
    /// is the best rack not yet tried. Repeating the pick with every
    /// refusing rack skipped visits racks in exactly the policy's
    /// preference order. `power_deferrals` counts the admitting racks
    /// ahead of the chosen one (all of them when none is chosen) that were
    /// skipped for lack of power headroom.
    pub fn pick(&self, vcpus: u32, memory: ByteSize, skip: impl Fn(RackId) -> bool) -> RackRoute {
        let mut power_deferrals = 0u32;
        for (rack, digest) in self.candidates(vcpus, memory) {
            if skip(rack) {
                continue;
            }
            if !self.headroom_ok(digest) {
                power_deferrals += 1;
                continue;
            }
            return RackRoute {
                rack: Some(rack),
                power_deferrals,
            };
        }
        RackRoute {
            rack: None,
            power_deferrals,
        }
    }

    /// Schedulable racks that pass the digest screen, best first.
    fn candidates(
        &self,
        vcpus: u32,
        memory: ByteSize,
    ) -> impl Iterator<Item = (RackId, &RackDigest)> + '_ {
        self.order.iter().filter_map(move |&(_, rack)| {
            let slot = &self.racks[usize::from(rack.0)];
            let digest = slot.digest.as_ref()?;
            (!slot.unschedulable && digest.admits(vcpus, memory)).then_some((rack, digest))
        })
    }

    /// Every rack a spillover could reach, best first: the racks repeated
    /// [`ClusterController::pick`]s would visit, optionally excluding one
    /// (the drain source must not receive its own evacuees). Allocates
    /// the list; the admission paths pick one rack at a time instead.
    pub fn spillover_order(
        &self,
        vcpus: u32,
        memory: ByteSize,
        exclude: Option<RackId>,
    ) -> Vec<RackId> {
        self.candidates(vcpus, memory)
            .filter(|&(r, d)| Some(r) != exclude && self.headroom_ok(d))
            .map(|(r, _)| r)
            .collect()
    }

    /// The racks in a `(free cores, rack)` rank, ascending — the
    /// tree-based layout's rank sets, derived for the snapshot codec.
    fn ranked(&self, active_only: bool) -> Vec<(u64, RackId)> {
        let mut ranked: Vec<(u64, RackId)> = self
            .digests()
            .filter(|(_, d)| !active_only || d.active_bricks > 0)
            .map(|(r, d)| (d.free_cores, r))
            .collect();
        ranked.sort_unstable();
        ranked
    }

    /// Racks excluded from admission routing, ascending.
    fn unschedulable(&self) -> impl Iterator<Item = RackId> + '_ {
        self.racks
            .iter()
            .enumerate()
            .filter(|(_, s)| s.unschedulable)
            .map(|(i, _)| RackId(i as u16))
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_struct!(RackDigest {
    free_cores,
    largest_free_cores,
    largest_sleeping_cores,
    free_memory_bytes,
    largest_segment_bytes,
    idle_accels,
    accel_bricks,
    active_bricks,
    powered_bricks,
    provisioned_milliwatts,
});

/// Writes the tree-based layout — policy, the rack-keyed digest map, the
/// `(free cores, rack)` rank sets over all and over active racks, the
/// unschedulable set and the budget — derived from the dense array.
/// Decoding rebuilds the array from the digests and rejects a stream whose
/// recorded rank sets disagree with them.
impl Snap for ClusterController {
    fn snap(&self, out: &mut Vec<u8>) {
        self.policy.snap(out);
        dredbox_snap::snap_seq(self.len(), self.digests().map(|(r, d)| (r, *d)), out);
        self.ranked(false).snap(out);
        self.ranked(true).snap(out);
        dredbox_snap::snap_seq(self.unschedulable().count(), self.unschedulable(), out);
        self.budget_milliwatts.snap(out);
    }

    fn unsnap(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        const TY: &str = "ClusterController";
        let mut cluster = ClusterController::new(PlacementPolicy::unsnap(r)?);
        for (rack, digest) in BTreeMap::<RackId, RackDigest>::unsnap(r)? {
            cluster.upsert(rack, digest);
        }
        dredbox_snap::expect_seq(r, TY, cluster.ranked(false))?;
        dredbox_snap::expect_seq(r, TY, cluster.ranked(true))?;
        for rack in BTreeSet::<RackId>::unsnap(r)? {
            cluster.set_schedulable(rack, false);
        }
        cluster.budget_milliwatts = Snap::unsnap(r)?;
        Ok(cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(free: u64, largest: u32, active: u32, mem_gib: u64, mw: u64) -> RackDigest {
        RackDigest {
            free_cores: free,
            largest_free_cores: largest,
            largest_sleeping_cores: 0,
            free_memory_bytes: ByteSize::from_gib(mem_gib).as_bytes(),
            largest_segment_bytes: ByteSize::from_gib(mem_gib).as_bytes(),
            idle_accels: 0,
            accel_bricks: 0,
            active_bricks: active,
            powered_bricks: 4,
            provisioned_milliwatts: mw,
        }
    }

    /// Racks in the order successive spillover picks offer them, each
    /// refusing rack skipped from then on.
    fn spill_sequence(
        cluster: &ClusterController,
        vcpus: u32,
        exclude: Option<RackId>,
    ) -> Vec<RackId> {
        let mut tried: Vec<RackId> = exclude.into_iter().collect();
        let mut order = Vec::new();
        while let Some(rack) = cluster
            .pick(vcpus, ByteSize::from_gib(1), |r| tried.contains(&r))
            .rack
        {
            tried.push(rack);
            order.push(rack);
        }
        order
    }

    #[test]
    fn power_aware_routing_packs_the_fullest_active_rack() {
        let mut cluster = ClusterController::new(PlacementPolicy::PowerAware);
        cluster.upsert(RackId(0), digest(64, 32, 0, 64, 100_000));
        cluster.upsert(RackId(1), digest(16, 16, 2, 64, 100_000));
        cluster.upsert(RackId(2), digest(40, 32, 1, 64, 100_000));
        // Fullest active rack that fits wins; an idle rack only as fallback.
        assert_eq!(
            cluster.route(8, ByteSize::from_gib(1)).rack,
            Some(RackId(1))
        );
        assert_eq!(
            cluster.route(24, ByteSize::from_gib(1)).rack,
            Some(RackId(2))
        );
        assert_eq!(
            cluster.route(32, ByteSize::from_gib(1)).rack,
            Some(RackId(2))
        );
        // Nothing fits 64 cores on one brick anywhere.
        assert_eq!(cluster.route(64, ByteSize::from_gib(1)).rack, None);
        // Repeated spillover picks visit every admissible rack, best first.
        assert_eq!(
            spill_sequence(&cluster, 8, None),
            vec![RackId(1), RackId(2), RackId(0)]
        );
        assert_eq!(
            spill_sequence(&cluster, 8, Some(RackId(1))),
            vec![RackId(2), RackId(0)]
        );
    }

    #[test]
    fn balanced_and_first_fit_mirror_their_brick_level_policies() {
        let mut cluster = ClusterController::new(PlacementPolicy::Balanced);
        cluster.upsert(RackId(0), digest(16, 16, 1, 64, 0));
        cluster.upsert(RackId(1), digest(48, 32, 1, 64, 0));
        assert_eq!(
            cluster.route(8, ByteSize::from_gib(1)).rack,
            Some(RackId(1))
        );
        let mut cluster = ClusterController::new(PlacementPolicy::FirstFit);
        cluster.upsert(RackId(0), digest(16, 16, 1, 64, 0));
        cluster.upsert(RackId(1), digest(48, 32, 1, 64, 0));
        assert_eq!(
            cluster.route(8, ByteSize::from_gib(1)).rack,
            Some(RackId(0))
        );
    }

    #[test]
    fn power_budget_excludes_racks_without_headroom() {
        let mut cluster = ClusterController::new(PlacementPolicy::PowerAware);
        cluster.upsert(RackId(0), digest(16, 16, 2, 64, 900_000));
        cluster.upsert(RackId(1), digest(64, 32, 0, 64, 100_000));
        cluster.set_rack_budget(Some(Watts::new(500.0)));
        let route = cluster.route(8, ByteSize::from_gib(1));
        assert_eq!(route.rack, Some(RackId(1)));
        assert_eq!(route.power_deferrals, 1);
        // Without a budget the packed rack wins again.
        cluster.set_rack_budget(None);
        let route = cluster.route(8, ByteSize::from_gib(1));
        assert_eq!(route.rack, Some(RackId(0)));
        assert_eq!(route.power_deferrals, 0);
        assert!((cluster.provisioned_power().as_watts() - 1000.0).abs() < 1e-9);
        assert_eq!(cluster.provisioned_per_rack().len(), 2);
    }

    #[test]
    fn unschedulable_racks_are_skipped_and_memory_screens_apply() {
        let mut cluster = ClusterController::new(PlacementPolicy::PowerAware);
        cluster.upsert(RackId(0), digest(16, 16, 2, 1, 0));
        cluster.upsert(RackId(1), digest(64, 32, 1, 64, 0));
        // Rack 0 packs tighter but cannot hold 8 GiB.
        assert_eq!(
            cluster.route(8, ByteSize::from_gib(8)).rack,
            Some(RackId(1))
        );
        cluster.set_schedulable(RackId(1), false);
        assert!(!cluster.is_schedulable(RackId(1)));
        assert_eq!(cluster.route(8, ByteSize::from_gib(8)).rack, None);
        cluster.set_schedulable(RackId(1), true);
        assert_eq!(
            cluster.route(8, ByteSize::from_gib(8)).rack,
            Some(RackId(1))
        );
        cluster.remove(RackId(1));
        assert_eq!(cluster.len(), 1);
        assert_eq!(cluster.route(8, ByteSize::from_gib(8)).rack, None);
    }

    #[test]
    fn undrain_is_a_noop_unless_the_rack_was_actually_drained() {
        let mut cluster = ClusterController::new(PlacementPolicy::PowerAware);
        cluster.upsert(RackId(0), digest(16, 16, 2, 64, 0));
        cluster.upsert(RackId(1), digest(64, 32, 1, 64, 0));

        // Undraining an unknown rack, or one that was never drained, must
        // leave the controller bit-identical.
        let before = cluster.clone();
        assert!(!cluster.undrain_rack(RackId(7)));
        assert!(!cluster.undrain_rack(RackId(0)));
        assert_eq!(cluster, before);

        // A real drain/undrain round-trips.
        cluster.set_schedulable(RackId(1), false);
        assert!(!cluster.is_schedulable(RackId(1)));
        assert!(cluster.undrain_rack(RackId(1)));
        assert!(cluster.is_schedulable(RackId(1)));
        assert_eq!(cluster, before);
        assert!(!cluster.undrain_rack(RackId(1)));
    }

    #[test]
    fn upsert_replaces_the_old_rank_entries() {
        let mut cluster = ClusterController::new(PlacementPolicy::Balanced);
        cluster.upsert(RackId(0), digest(64, 32, 0, 64, 0));
        cluster.upsert(RackId(1), digest(32, 32, 1, 64, 0));
        assert_eq!(
            cluster.route(8, ByteSize::from_gib(1)).rack,
            Some(RackId(0))
        );
        // Rack 0 fills up; the rank sets must follow the new digest.
        cluster.upsert(RackId(0), digest(4, 4, 3, 64, 0));
        assert_eq!(
            cluster.route(8, ByteSize::from_gib(1)).rack,
            Some(RackId(1))
        );
        assert_eq!(cluster.digest(RackId(0)).unwrap().free_cores, 4);
    }

    #[test]
    fn codec_writes_the_rank_set_layout_and_rejects_contradictions() {
        let mut cluster = ClusterController::new(PlacementPolicy::Balanced);
        for (r, free, active) in [(3u16, 40, 1), (0, 16, 0), (5, 40, 2), (1, 8, 1)] {
            cluster.upsert(RackId(r), digest(free, 16, active, 64, 1_000));
        }
        cluster.remove(RackId(5));
        cluster.set_schedulable(RackId(1), false);
        cluster.set_schedulable(RackId(9), false);
        cluster.set_rack_budget(Some(Watts::new(2.0)));

        // The tree-based layout, built from the digests alone.
        let digests: BTreeMap<RackId, RackDigest> =
            cluster.digests().map(|(r, d)| (r, *d)).collect();
        let by_free: BTreeSet<(u64, RackId)> =
            digests.iter().map(|(r, d)| (d.free_cores, *r)).collect();
        let active_by_free: BTreeSet<(u64, RackId)> = digests
            .iter()
            .filter(|(_, d)| d.active_bricks > 0)
            .map(|(r, d)| (d.free_cores, *r))
            .collect();
        let mut expected = Vec::new();
        PlacementPolicy::Balanced.snap(&mut expected);
        digests.snap(&mut expected);
        by_free.snap(&mut expected);
        active_by_free.snap(&mut expected);
        BTreeSet::from([RackId(1), RackId(9)]).snap(&mut expected);
        Some(2_000u64).snap(&mut expected);

        let mut bytes = Vec::new();
        cluster.snap(&mut bytes);
        assert_eq!(bytes, expected);
        let back = ClusterController::unsnap(&mut Reader::new(&bytes)).expect("round trip");
        assert_eq!(back, cluster);

        // Digests of one state followed by the rank sets of another.
        let mut forged = Vec::new();
        PlacementPolicy::Balanced.snap(&mut forged);
        let mut moved = digests.clone();
        moved.get_mut(&RackId(0)).unwrap().free_cores = 99;
        moved.snap(&mut forged);
        by_free.snap(&mut forged);
        active_by_free.snap(&mut forged);
        assert_eq!(
            ClusterController::unsnap(&mut Reader::new(&forged)),
            Err(SnapError::Inconsistent {
                ty: "ClusterController"
            })
        );
    }
}
