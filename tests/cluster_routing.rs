//! Cluster routing against its reference: the [`ClusterController`]
//! answers `route` and the front door's spillover pick with one pass over
//! a dense per-rack array. This file keeps the materialized preference
//! order those passes replaced — the rack list sorted per policy, filtered
//! by schedulability, the digest screen and the power budget — as the
//! oracle, and checks over random digests, budgets, drained racks and
//! `tried` masks, for all three policies, that
//!
//! * `route` picks the first rack of that order and counts exactly the
//!   over-budget racks ahead of it in `power_deferrals`;
//! * a spillover pick skipping the `tried` racks picks the first untried
//!   rack of the order; and
//! * repeated picks, each skipping the racks picked before, enumerate the
//!   whole order, and so does `spillover_order`.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use dredbox::bricks::RackId;
use dredbox::orchestrator::{ClusterController, PlacementPolicy, RackDigest, RackRoute};
use dredbox::sim::units::{ByteSize, Watts};

const POLICIES: [PlacementPolicy; 3] = [
    PlacementPolicy::FirstFit,
    PlacementPolicy::PowerAware,
    PlacementPolicy::Balanced,
];

/// The federation as the oracle sees it.
struct Federation {
    digests: BTreeMap<RackId, RackDigest>,
    unschedulable: BTreeSet<RackId>,
    budget_milliwatts: Option<u64>,
}

impl Federation {
    /// Schedulable racks in the policy's preference order, built the way
    /// the tree-based controller walked its `(free cores, rack)` rank
    /// sets: FirstFit by id, PowerAware active racks then idle racks each
    /// fullest first, Balanced emptiest first with ties on the highest id.
    fn preference_order(&self, policy: PlacementPolicy) -> Vec<RackId> {
        let by_free: BTreeSet<(u64, RackId)> = self
            .digests
            .iter()
            .map(|(r, d)| (d.free_cores, *r))
            .collect();
        let order: Vec<RackId> = match policy {
            PlacementPolicy::FirstFit => self.digests.keys().copied().collect(),
            PlacementPolicy::PowerAware => {
                let active = by_free
                    .iter()
                    .filter(|(_, r)| self.digests[r].active_bricks > 0);
                let idle = by_free
                    .iter()
                    .filter(|(_, r)| self.digests[r].active_bricks == 0);
                active.chain(idle).map(|&(_, r)| r).collect()
            }
            PlacementPolicy::Balanced => by_free.iter().rev().map(|&(_, r)| r).collect(),
        };
        order
            .into_iter()
            .filter(|r| !self.unschedulable.contains(r))
            .collect()
    }

    fn headroom_ok(&self, rack: RackId) -> bool {
        self.budget_milliwatts
            .map_or(true, |b| self.digests[&rack].provisioned_milliwatts < b)
    }

    fn route(&self, policy: PlacementPolicy, vcpus: u32, memory: ByteSize) -> RackRoute {
        let mut power_deferrals = 0;
        for rack in self.preference_order(policy) {
            if !self.digests[&rack].admits(vcpus, memory) {
                continue;
            }
            if !self.headroom_ok(rack) {
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

    /// The materialized spillover order: every rack passing both screens.
    fn spillover_order(
        &self,
        policy: PlacementPolicy,
        vcpus: u32,
        memory: ByteSize,
    ) -> Vec<RackId> {
        self.preference_order(policy)
            .into_iter()
            .filter(|r| self.digests[r].admits(vcpus, memory) && self.headroom_ok(*r))
            .collect()
    }

    fn controller(
        &self,
        policy: PlacementPolicy,
        stale: &[(RackId, RackDigest)],
    ) -> ClusterController {
        let mut cluster = ClusterController::new(policy);
        // Stale digests first, so upserts must replace rather than add.
        for &(rack, digest) in stale {
            cluster.upsert(rack, digest);
        }
        for (&rack, &digest) in &self.digests {
            cluster.upsert(rack, digest);
        }
        for &(rack, _) in stale {
            if !self.digests.contains_key(&rack) {
                cluster.remove(rack);
            }
        }
        for &rack in &self.unschedulable {
            cluster.set_schedulable(rack, false);
        }
        cluster.set_rack_budget(self.budget_milliwatts.map(|mw| Watts::new(mw as f64 / 1e3)));
        cluster
    }
}

/// Sampled digest fields: `(free, largest, sleeping, memory)` in small
/// ranges, so free-core ties and budget edges are common, then
/// `(active bricks, provisioned watts)`.
type DigestDraw = ((u64, u32, u32, u64), (u32, u64));

fn digest_fields() -> impl Strategy<Value = DigestDraw> {
    ((0u64..6, 0u32..5, 0u32..5, 0u64..5), (0u32..3, 0u64..5))
}

fn digest(((free, largest, sleeping, mem_gib), (active, watts)): DigestDraw) -> RackDigest {
    RackDigest {
        free_cores: free * 8,
        largest_free_cores: largest * 8,
        largest_sleeping_cores: sleeping * 8,
        free_memory_bytes: ByteSize::from_gib(mem_gib).as_bytes(),
        largest_segment_bytes: ByteSize::from_gib(mem_gib).as_bytes(),
        idle_accels: 0,
        accel_bricks: 0,
        active_bricks: active,
        powered_bricks: 4,
        provisioned_milliwatts: watts * 1_000,
    }
}

proptest! {
    #[test]
    fn route_and_spill_match_the_materialized_preference_order(
        racks in proptest::collection::vec((0u16..64, digest_fields()), 1..40),
        stale in proptest::collection::vec((0u16..64, digest_fields()), 0..8),
        drained in proptest::collection::vec(0u16..64, 0..6),
        budget_watts in 0u64..5,
        requests in proptest::collection::vec((1u32..40, 0u64..5, 0u64..u64::MAX), 1..12),
    ) {
        let fed = Federation {
            digests: racks.into_iter().map(|(r, d)| (RackId(r), digest(d))).collect(),
            unschedulable: drained.into_iter().map(RackId).collect(),
            // Zero draws "no budget".
            budget_milliwatts: (budget_watts > 0).then_some(budget_watts * 1_000),
        };
        let stale: Vec<(RackId, RackDigest)> =
            stale.into_iter().map(|(r, d)| (RackId(r), digest(d))).collect();
        for policy in POLICIES {
            let cluster = fed.controller(policy, &stale);
            for &(vcpus, gib, tried) in &requests {
                let memory = ByteSize::from_gib(gib);
                prop_assert_eq!(
                    cluster.route(vcpus, memory),
                    fed.route(policy, vcpus, memory),
                    "{:?} route diverged", policy
                );

                let order = fed.spillover_order(policy, vcpus, memory);
                let untried = order.iter().copied().find(|r| tried & (1u64 << r.0) == 0);
                prop_assert_eq!(
                    cluster.pick(vcpus, memory, |r| tried & (1u64 << r.0) != 0).rack,
                    untried,
                    "{:?} spill pick diverged", policy
                );

                let mut picked: Vec<RackId> = Vec::new();
                while let Some(rack) = cluster.pick(vcpus, memory, |r| picked.contains(&r)).rack {
                    picked.push(rack);
                }
                prop_assert_eq!(&picked, &order, "{:?} spill sequence diverged", policy);
                prop_assert_eq!(
                    cluster.spillover_order(vcpus, memory, None),
                    order,
                    "{:?} spillover order diverged", policy
                );
            }
        }
    }
}
