//! Seeded failure injection.
//!
//! dReDBox's serviceability story — bricks can be pulled, replaced and
//! upgraded without taking the rack down — is only testable if components
//! actually fail mid-trace. This module provides the two deterministic
//! halves of that story:
//!
//! * [`FailureSchedule`] — a seeded, pre-generated list of
//!   [`PlannedFault`]s (what breaks, when, and how long the repair takes),
//!   drawn from a [`SimRng`] so the same seed always produces the same
//!   storm. The scenario layer delivers these through the sharded event
//!   engine's timestamped mailboxes, which keeps same-seed runs
//!   bit-identical at every worker count.
//! * [`FaultInjector`] — the live bookkeeping of which sites are currently
//!   down, when each went down, and the repair-time samples (MTTR) the
//!   availability report summarises.
//!
//! Sites are named in rack-relative ordinals ([`FaultSite`]); mapping an
//! ordinal onto a concrete brick, cabled port or switch belongs to the
//! layer that owns those identifiers.

use crate::rng::SimRng;
use crate::stats::Summary;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The component class a fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// A dCOMPUBRICK dies; its VMs must migrate or restart.
    ComputeBrick,
    /// A dMEMBRICK dies; segments on it are lost.
    MemoryBrick,
    /// A dACCELBRICK dies; live offload sessions on it are drained.
    AccelBrick,
    /// One cabled brick-to-switch fibre dies; circuits re-route.
    Link,
    /// The rack's optical circuit switch dies; the standby takes over.
    Switch,
}

impl FaultKind {
    /// Every kind, in schedule-generation order.
    pub(crate) const ALL: [FaultKind; 5] = [
        FaultKind::ComputeBrick,
        FaultKind::MemoryBrick,
        FaultKind::AccelBrick,
        FaultKind::Link,
        FaultKind::Switch,
    ];
}

/// One failable component, named in rack-relative ordinals: the
/// `component`-th site of `kind` in rack `rack` (for [`FaultKind::Switch`]
/// the ordinal is always 0 — one switch pair per rack).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FaultSite {
    /// Component class.
    pub kind: FaultKind,
    /// Owning rack.
    pub rack: u32,
    /// Per-kind ordinal within the rack.
    pub component: u32,
}

/// One scheduled failure: the site, when it fails, and how long the field
/// engineer takes to swap it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlannedFault {
    /// When the site fails.
    pub at: SimTime,
    /// What fails.
    pub site: FaultSite,
    /// Repair lead time; the site comes back at `at + repair_after`.
    pub repair_after: SimDuration,
}

/// How many failable sites of each kind one rack exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SiteCounts {
    /// dCOMPUBRICKs per rack.
    pub compute: u32,
    /// dMEMBRICKs per rack.
    pub memory: u32,
    /// dACCELBRICKs per rack.
    pub accel: u32,
    /// Cabled brick-to-switch fibres per rack.
    pub links: u32,
    /// Optical circuit switches per rack (the failover unit).
    pub switches: u32,
}

impl SiteCounts {
    fn of(&self, kind: FaultKind) -> u32 {
        match kind {
            FaultKind::ComputeBrick => self.compute,
            FaultKind::MemoryBrick => self.memory,
            FaultKind::AccelBrick => self.accel,
            FaultKind::Link => self.links,
            FaultKind::Switch => self.switches,
        }
    }
}

/// Knobs of one seeded failure storm.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailurePlan {
    /// Faults to draw per kind `[compute, memory, accel, link, switch]`.
    pub counts: [u32; 5],
    /// Faults strike uniformly inside `[storm_start, storm_start + storm_window]`.
    pub storm_start: SimTime,
    /// Width of the strike window.
    pub storm_window: SimDuration,
    /// Mean of the exponentially distributed repair lead time.
    pub mean_repair: SimDuration,
    /// Repair lead times are clamped below by this floor.
    pub min_repair: SimDuration,
}

impl FailurePlan {
    /// A storm sized for the scenario suite: a handful of faults of every
    /// kind striking in the middle of the trace, repaired within minutes.
    pub fn storm(storm_start: SimTime, storm_window: SimDuration) -> Self {
        FailurePlan {
            counts: [3, 2, 1, 2, 1],
            storm_start,
            storm_window,
            mean_repair: SimDuration::from_secs(120),
            min_repair: SimDuration::from_secs(10),
        }
    }
}

/// A seeded, deterministic list of [`PlannedFault`]s, sorted by
/// `(time, site)` so delivery order never depends on generation order.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FailureSchedule {
    faults: Vec<PlannedFault>,
}

impl FailureSchedule {
    /// Draws a schedule from `rng`. Every draw consumes the RNG in a fixed
    /// kind-major order, so the same seed yields the same storm regardless
    /// of which kinds end up with zero sites. Kinds with no sites (or a
    /// zero count) contribute no faults.
    pub fn generate(plan: &FailurePlan, racks: u32, sites: SiteCounts, rng: &mut SimRng) -> Self {
        let mut faults = Vec::new();
        if racks == 0 {
            return FailureSchedule { faults };
        }
        let window_ns = plan.storm_window.as_nanos().max(1);
        for (slot, kind) in FaultKind::ALL.into_iter().enumerate() {
            let population = sites.of(kind);
            for _ in 0..plan.counts[slot] {
                // Draw the full tuple even when the kind has no sites, so
                // adding an accelerator tray to a config never reshuffles
                // the faults drawn for the other kinds.
                let rack = rng.range(0..racks);
                let component = rng.range(0..population.max(1));
                let offset = rng.range(0..window_ns);
                let repair_secs = rng.exponential(plan.mean_repair.as_secs_f64());
                if population == 0 {
                    continue;
                }
                let repair_after =
                    SimDuration::from_nanos((repair_secs * 1e9) as u64).max(plan.min_repair);
                faults.push(PlannedFault {
                    at: plan.storm_start + SimDuration::from_nanos(offset),
                    site: FaultSite {
                        kind,
                        rack,
                        component,
                    },
                    repair_after,
                });
            }
        }
        faults.sort_unstable_by_key(|f| (f.at, f.site));
        FailureSchedule { faults }
    }

    /// The scheduled faults, ascending by `(time, site)`.
    pub fn faults(&self) -> &[PlannedFault] {
        &self.faults
    }

    /// Number of scheduled faults.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.faults.len()
    }
}

/// Live fault bookkeeping: which sites are down, since when, and the
/// repair times (MTTR) recorded so far.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultInjector {
    /// Sites currently down and when each went down.
    down: BTreeMap<FaultSite, SimTime>,
    /// Completed repair durations, in seconds.
    mttr_secs: Summary,
}

impl FaultInjector {
    /// Creates an injector with no live faults.
    pub fn new() -> Self {
        FaultInjector::default()
    }

    /// Records `site` failing at `now`. Returns `false` (and absorbs the
    /// fault) if the site is already down.
    pub fn begin(&mut self, site: FaultSite, now: SimTime) -> bool {
        if self.down.contains_key(&site) {
            return false;
        }
        self.down.insert(site, now);
        true
    }

    /// Records `site` being repaired at `now`, returning how long it was
    /// down. Returns `None` (and records nothing) if the site is not down.
    pub fn end(&mut self, site: FaultSite, now: SimTime) -> Option<SimDuration> {
        let since = self.down.remove(&site)?;
        let outage = now.duration_since(since);
        self.mttr_secs.record(outage.as_secs_f64());
        Some(outage)
    }

    /// Completed repair durations in seconds.
    pub fn mttr(&self) -> &Summary {
        &self.mttr_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sites() -> SiteCounts {
        SiteCounts {
            compute: 4,
            memory: 4,
            accel: 2,
            links: 32,
            switches: 1,
        }
    }

    fn plan() -> FailurePlan {
        FailurePlan::storm(SimTime::from_millis(100), SimDuration::from_secs(2))
    }

    #[test]
    fn schedules_are_seed_deterministic() {
        let a = FailureSchedule::generate(&plan(), 2, sites(), &mut SimRng::seed(2018));
        let b = FailureSchedule::generate(&plan(), 2, sites(), &mut SimRng::seed(2018));
        let c = FailureSchedule::generate(&plan(), 2, sites(), &mut SimRng::seed(7));
        assert_eq!(a, b, "same seed, same storm");
        assert_ne!(a, c, "different seed, different storm");
        assert_eq!(a.len(), 9, "3+2+1+2+1 faults");
        // Sorted by (time, site) and inside the strike window.
        for pair in a.faults().windows(2) {
            assert!((pair[0].at, pair[0].site) <= (pair[1].at, pair[1].site));
        }
        for fault in a.faults() {
            assert!(fault.at >= plan().storm_start);
            assert!(fault.at <= plan().storm_start + plan().storm_window);
            assert!(fault.repair_after >= plan().min_repair);
            assert!(fault.site.rack < 2);
        }
    }

    #[test]
    fn absent_kinds_do_not_reshuffle_the_others() {
        // Removing every accelerator site must keep the other kinds' draws
        // identical — the RNG is consumed in fixed kind-major order.
        let with = FailureSchedule::generate(&plan(), 1, sites(), &mut SimRng::seed(9));
        let mut no_accel = sites();
        no_accel.accel = 0;
        let without = FailureSchedule::generate(&plan(), 1, no_accel, &mut SimRng::seed(9));
        let kept: Vec<PlannedFault> = with
            .faults()
            .iter()
            .copied()
            .filter(|f| f.site.kind != FaultKind::AccelBrick)
            .collect();
        assert_eq!(kept, without.faults());
    }

    #[test]
    fn injector_tracks_outages_and_mttr() {
        let mut injector = FaultInjector::new();
        let site = FaultSite {
            kind: FaultKind::ComputeBrick,
            rack: 0,
            component: 3,
        };
        assert!(injector.begin(site, SimTime::from_secs(1)));
        assert!(!injector.begin(site, SimTime::from_secs(2)), "already down");
        assert_eq!(injector.down.get(&site), Some(&SimTime::from_secs(1)));
        assert_eq!(injector.down.len(), 1);
        assert_eq!(
            injector.end(site, SimTime::from_secs(31)),
            Some(SimDuration::from_secs(30))
        );
        assert_eq!(injector.end(site, SimTime::from_secs(32)), None);
        assert_eq!(injector.mttr().count(), 1);
        assert_eq!(injector.mttr().min(), 30.0);
        assert_eq!(injector.mttr().max(), 30.0);
        assert!(injector.down.is_empty());
    }
}
