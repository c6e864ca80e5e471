//! Multi-tenant arrival mixes for federated (multi-rack) systems.
//!
//! Table I characterizes one tenant's VMs; a datacenter front door sees a
//! blend. [`TenantMix`] weights several Table I mixes against each other
//! and samples each arriving VM's demand from a tenant drawn by weight, so
//! a cluster-level scenario exercises routing with heterogeneous resource
//! shapes — compute-heavy and memory-heavy tenants competing for the same
//! racks — instead of one homogeneous population.

use serde::{Deserialize, Serialize};

use dredbox_sim::rng::SimRng;

use crate::demand::VmDemand;
use crate::table1::WorkloadConfig;

/// A weighted blend of Table I mixes: the arrival mix of a multi-rack
/// datacenter where tenants with different resource shapes share one
/// cluster front door.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantMix {
    /// `(mix, weight)` pairs; a tenant's weight is its share of arrivals.
    pub tenants: Vec<(WorkloadConfig, u32)>,
}

impl TenantMix {
    /// Builds a mix from `(mix, weight)` pairs. Zero-weight tenants never
    /// receive an arrival.
    pub(crate) fn new(tenants: Vec<(WorkloadConfig, u32)>) -> Self {
        TenantMix { tenants }
    }

    /// The blend of the datacenter scenario: every unbalanced Table I
    /// shape present, leaning mixed/random, with a small balanced share.
    pub fn datacenter_default() -> Self {
        TenantMix::new(vec![
            (WorkloadConfig::Random, 4),
            (WorkloadConfig::HighRam, 2),
            (WorkloadConfig::HighCpu, 2),
            (WorkloadConfig::MoreRam, 3),
            (WorkloadConfig::MoreCpu, 3),
            (WorkloadConfig::HalfHalf, 2),
        ])
    }

    /// Sum of all tenant weights.
    pub(crate) fn total_weight(&self) -> u64 {
        self.tenants.iter().map(|&(_, w)| u64::from(w)).sum()
    }

    /// Samples one VM demand: a weight-proportional tenant draw, then that
    /// tenant's Table I sample.
    ///
    /// # Panics
    ///
    /// Panics when every tenant has zero weight (no demand is definable).
    pub(crate) fn sample(&self, rng: &mut SimRng) -> VmDemand {
        let total = self.total_weight();
        assert!(total > 0, "tenant mix needs at least one positive weight");
        let mut pick = rng.range(1..=total);
        for &(config, weight) in &self.tenants {
            let weight = u64::from(weight);
            if pick <= weight {
                return config.sample(rng);
            }
            pick -= weight;
        }
        unreachable!("pick is bounded by the total weight")
    }

    /// Generates a workload of `count` VMs.
    pub fn generate(&self, count: usize, rng: &mut SimRng) -> Vec<VmDemand> {
        (0..count).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_reproducible_and_blended() {
        let mix = TenantMix::datacenter_default();
        let a = mix.generate(256, &mut SimRng::seed(2018));
        let b = mix.generate(256, &mut SimRng::seed(2018));
        assert_eq!(a, b);
        assert_eq!(a.len(), 256);
        // All demands stay within the union of the Table I ranges.
        assert!(a.iter().all(|vm| (1..=32).contains(&vm.vcpus)));
        assert!(a.iter().all(|vm| (1..=32).contains(&vm.memory.as_gib())));
        // The blend is genuinely heterogeneous: both compute-heavy and
        // memory-heavy shapes appear in one trace.
        assert!(a.iter().any(|vm| vm.vcpus >= 24 && vm.memory.as_gib() <= 8));
        assert!(a.iter().any(|vm| vm.vcpus <= 8 && vm.memory.as_gib() >= 24));
    }

    #[test]
    fn single_tenant_mix_matches_its_table1_config() {
        let mix = TenantMix::new(vec![(WorkloadConfig::HalfHalf, 7)]);
        assert_eq!(mix.total_weight(), 7);
        let vms = mix.generate(16, &mut SimRng::seed(3));
        assert!(vms
            .iter()
            .all(|vm| vm.vcpus == 16 && vm.memory.as_gib() == 16));
    }

    #[test]
    fn zero_weight_tenants_never_sample() {
        let mix = TenantMix::new(vec![
            (WorkloadConfig::HighCpu, 0),
            (WorkloadConfig::HighRam, 1),
        ]);
        let vms = mix.generate(32, &mut SimRng::seed(9));
        assert!(vms.iter().all(|vm| vm.memory.as_gib() >= 24));
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn all_zero_weights_panic() {
        let mix = TenantMix::new(vec![(WorkloadConfig::Random, 0)]);
        let _ = mix.sample(&mut SimRng::seed(1));
    }
}
