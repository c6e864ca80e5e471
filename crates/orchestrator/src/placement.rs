//! VM placement over dCOMPUBRICKs.
//!
//! Role (b) of the SDM controller: "safely inspect resource availability and
//! make a power-consumption conscious selection of resources". Compute is
//! not disaggregated below the brick level, so a VM's vCPUs must all come
//! from one dCOMPUBRICK; its memory comes from the pool.

use serde::{Deserialize, Serialize};

use dredbox_bricks::BrickId;

use crate::capacity::CapacityIndex;

/// A snapshot of one compute brick as seen by the placement logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComputeBrickView {
    /// The brick.
    pub brick: BrickId,
    /// Total schedulable cores.
    pub total_cores: u32,
    /// Cores still free (after subtracting reservations).
    pub free_cores: u32,
    /// Whether the brick currently runs at least one VM.
    pub active: bool,
    /// Whether the brick is powered on.
    pub powered_on: bool,
}

impl ComputeBrickView {
    /// Whether `vcpus` fit on the brick right now.
    pub fn fits(&self, vcpus: u32) -> bool {
        self.powered_on && self.free_cores >= vcpus
    }
}

/// Placement policy for choosing the dCOMPUBRICK that hosts a VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// First brick (in id order) with enough free cores — the FCFS policy of
    /// the TCO study.
    #[default]
    FirstFit,
    /// Prefer bricks that already run VMs, waking sleeping bricks only when
    /// necessary — the power-conscious selection.
    PowerAware,
    /// Prefer the brick with the most free cores, spreading load.
    Balanced,
}

impl PlacementPolicy {
    /// Chooses a brick for a VM needing `vcpus`, or `None` if no powered-on
    /// (or wakeable) brick fits it. Bricks that are powered off are
    /// considered only by the policies that are allowed to wake them
    /// (all of them, as a last resort).
    ///
    /// Score ties always break on the lowest [`BrickId`], independent of the
    /// order `bricks` is passed in, so placement is deterministic — the
    /// scenario engine's same-seed replay guarantee depends on it.
    ///
    /// This is the reference implementation: a single allocation-free pass
    /// over the slice per query, `O(bricks)`. The production request path
    /// uses [`PlacementPolicy::choose_indexed`], which answers the same
    /// queries from a [`CapacityIndex`]'s bitsets; a property test keeps
    /// the two decision-for-decision identical.
    pub fn choose(self, bricks: &[ComputeBrickView], vcpus: u32) -> Option<BrickId> {
        self.choose_from(bricks.iter().copied(), vcpus)
    }

    /// [`PlacementPolicy::choose`] over any re-walkable sequence of views,
    /// so a caller can scan its bricks without collecting them first.
    pub fn choose_from<I>(self, bricks: I, vcpus: u32) -> Option<BrickId>
    where
        I: IntoIterator<Item = ComputeBrickView>,
        I::IntoIter: Clone,
    {
        use std::cmp::Reverse;

        let bricks = bricks.into_iter();
        let powered = || bricks.clone().filter(|b| b.powered_on);
        let fits = move |b: &ComputeBrickView| b.free_cores >= vcpus;

        let choice = match self {
            PlacementPolicy::FirstFit => powered().filter(fits).map(|b| b.brick).min(),
            PlacementPolicy::PowerAware => powered()
                .filter(|b| b.active)
                .filter(fits)
                .min_by_key(|b| (b.free_cores, b.brick))
                .or_else(|| {
                    powered()
                        .filter(fits)
                        .min_by_key(|b| (b.free_cores, b.brick))
                })
                .map(|b| b.brick),
            PlacementPolicy::Balanced => powered()
                .filter(fits)
                .max_by_key(|b| (b.free_cores, Reverse(b.brick)))
                .map(|b| b.brick),
        };
        choice.or_else(|| {
            // Last resort for every policy: wake a sleeping brick that
            // could host the VM at full capacity.
            bricks
                .clone()
                .filter(|b| !b.powered_on && b.total_cores >= vcpus)
                .map(|b| b.brick)
                .min()
        })
    }

    /// Answers the same query as [`PlacementPolicy::choose`] from the
    /// incrementally maintained [`CapacityIndex`] — a few words of bitset
    /// per distinct free-core value, with zero heap allocation, instead of
    /// a fresh `O(bricks)` snapshot scan. Decision-for-decision identical to the reference scan,
    /// including every lowest-[`BrickId`] tie-break.
    pub fn choose_indexed(self, index: &CapacityIndex, vcpus: u32) -> Option<BrickId> {
        let choice = match self {
            PlacementPolicy::FirstFit => index.first_powered_fit(vcpus),
            PlacementPolicy::PowerAware => index
                .fullest_active_fit(vcpus)
                .or_else(|| index.fullest_powered_fit(vcpus)),
            PlacementPolicy::Balanced => index.emptiest_powered_fit(vcpus),
        };
        choice.or_else(|| index.first_sleeping_capable(vcpus))
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_unit_enum!(PlacementPolicy {
    FirstFit = 0,
    PowerAware = 1,
    Balanced = 2,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn view(id: u32, total: u32, free: u32, active: bool, on: bool) -> ComputeBrickView {
        ComputeBrickView {
            brick: BrickId(id),
            total_cores: total,
            free_cores: free,
            active,
            powered_on: on,
        }
    }

    #[test]
    fn first_fit_takes_lowest_id_that_fits() {
        let bricks = [
            view(0, 32, 2, true, true),
            view(1, 32, 16, true, true),
            view(2, 32, 32, false, true),
        ];
        assert_eq!(
            PlacementPolicy::FirstFit.choose(&bricks, 8),
            Some(BrickId(1))
        );
        assert_eq!(
            PlacementPolicy::FirstFit.choose(&bricks, 1),
            Some(BrickId(0))
        );
        assert_eq!(PlacementPolicy::FirstFit.choose(&bricks, 33), None);
    }

    #[test]
    fn power_aware_packs_active_bricks_first() {
        let bricks = [
            view(0, 32, 32, false, true),
            view(1, 32, 10, true, true),
            view(2, 32, 20, true, true),
        ];
        // Fits on an active brick: pick the fullest active brick that fits.
        assert_eq!(
            PlacementPolicy::PowerAware.choose(&bricks, 8),
            Some(BrickId(1))
        );
        // Too big for active bricks: fall back to any powered brick.
        assert_eq!(
            PlacementPolicy::PowerAware.choose(&bricks, 30),
            Some(BrickId(0))
        );
    }

    #[test]
    fn balanced_spreads_load() {
        let bricks = [view(0, 32, 12, true, true), view(1, 32, 30, false, true)];
        assert_eq!(
            PlacementPolicy::Balanced.choose(&bricks, 8),
            Some(BrickId(1))
        );
        assert_eq!(PlacementPolicy::default(), PlacementPolicy::FirstFit);
    }

    #[test]
    fn sleeping_bricks_are_woken_only_as_a_last_resort() {
        let bricks = [
            view(0, 32, 4, true, true),
            view(1, 32, 0, false, false), // powered off, full capacity available once woken
        ];
        // Fits on the powered brick: do not wake.
        assert_eq!(
            PlacementPolicy::PowerAware.choose(&bricks, 4),
            Some(BrickId(0))
        );
        // Does not fit: wake the sleeping brick.
        assert_eq!(
            PlacementPolicy::PowerAware.choose(&bricks, 16),
            Some(BrickId(1))
        );
        assert_eq!(
            PlacementPolicy::FirstFit.choose(&bricks, 16),
            Some(BrickId(1))
        );
        // Nothing can host 64 cores.
        assert_eq!(PlacementPolicy::FirstFit.choose(&bricks, 64), None);
    }

    #[test]
    fn tie_breaks_are_deterministic_by_lowest_brick_id() {
        // Equal scores in deliberately unsorted input order: every policy
        // must resolve the tie to the lowest BrickId, not the slice order.
        let tied = [
            view(3, 32, 16, true, true),
            view(1, 32, 16, true, true),
            view(2, 32, 16, true, true),
        ];
        assert_eq!(PlacementPolicy::Balanced.choose(&tied, 4), Some(BrickId(1)));
        assert_eq!(
            PlacementPolicy::PowerAware.choose(&tied, 4),
            Some(BrickId(1))
        );
        assert_eq!(PlacementPolicy::FirstFit.choose(&tied, 4), Some(BrickId(1)));
        // The sleeping-brick fallback is deterministic too.
        let asleep = [view(7, 32, 0, false, false), view(5, 32, 0, false, false)];
        for policy in [
            PlacementPolicy::FirstFit,
            PlacementPolicy::PowerAware,
            PlacementPolicy::Balanced,
        ] {
            assert_eq!(policy.choose(&asleep, 8), Some(BrickId(5)));
        }
    }

    #[test]
    fn fits_respects_power_state() {
        assert!(view(0, 32, 8, false, true).fits(8));
        assert!(!view(0, 32, 8, false, false).fits(8));
        assert!(!view(0, 32, 4, false, true).fits(8));
    }
}
