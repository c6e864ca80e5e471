//! The two datacenter models of the TCO study and their FCFS packing.
//!
//! "In a node of a conventional data center, when all CPUs are utilized, it
//! will not be possible to allocate more memory and vice versa. Instead in a
//! dReDBox-like datacenter each resource can be allocated independently."
//! Both models expose the same aggregate resources (Figure 11); the
//! difference is the granularity of the individually powered unit.

use serde::{Deserialize, Serialize};

use dredbox_bricks::ResourceVector;
use dredbox_sim::units::ByteSize;
use dredbox_workload::VmDemand;

/// One conventional server: cores and memory welded to one mainboard.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Server {
    capacity: ResourceVector,
    used: ResourceVector,
    vm_count: u32,
}

impl Server {
    fn free(&self) -> ResourceVector {
        self.capacity.saturating_sub(&self.used)
    }
    fn fits(&self, demand: &VmDemand) -> bool {
        self.free()
            .contains(&ResourceVector::new(demand.vcpus, demand.memory))
    }
}

/// Outcome of packing a workload onto the conventional datacenter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConventionalOutcome {
    /// Total servers in the datacenter.
    pub total_servers: usize,
    /// Servers running at least one VM.
    pub servers_used: usize,
    /// VMs that could not be placed anywhere.
    pub rejected_vms: usize,
}

impl ConventionalOutcome {
    /// Servers running nothing (power-off candidates).
    pub(crate) fn servers_off(&self) -> usize {
        self.total_servers - self.servers_used
    }

    /// Fraction of servers that can be powered off, in `[0, 1]`.
    pub fn off_fraction(&self) -> f64 {
        if self.total_servers == 0 {
            return 0.0;
        }
        self.servers_off() as f64 / self.total_servers as f64
    }
}

/// The conventional datacenter: `n` identical servers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConventionalDatacenter {
    servers: Vec<Server>,
}

impl ConventionalDatacenter {
    /// Builds a datacenter of `servers` identical nodes, each with
    /// `cores_per_server` cores and `memory_per_server` of RAM.
    pub fn new(servers: usize, cores_per_server: u32, memory_per_server: ByteSize) -> Self {
        ConventionalDatacenter {
            servers: vec![
                Server {
                    capacity: ResourceVector::new(cores_per_server, memory_per_server),
                    used: ResourceVector::ZERO,
                    vm_count: 0,
                };
                servers
            ],
        }
    }

    /// Aggregate resources of the datacenter (the Figure 11 equality check).
    pub fn aggregate(&self) -> ResourceVector {
        self.servers.iter().map(|s| s.capacity).sum()
    }

    /// Packs `workload` FCFS: each VM goes to the first server where *both*
    /// its cores and its memory fit.
    pub fn pack_fcfs(&self, workload: &[VmDemand]) -> ConventionalOutcome {
        let mut servers = self.servers.clone();
        let mut rejected = 0usize;
        for vm in workload {
            let slot = servers.iter_mut().find(|s| s.fits(vm));
            match slot {
                Some(server) => {
                    server.used += ResourceVector::new(vm.vcpus, vm.memory);
                    server.vm_count += 1;
                }
                None => rejected += 1,
            }
        }
        ConventionalOutcome {
            total_servers: servers.len(),
            servers_used: servers.iter().filter(|s| s.vm_count > 0).count(),
            rejected_vms: rejected,
        }
    }
}

/// Outcome of packing a workload onto the disaggregated datacenter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisaggregatedOutcome {
    /// Total dCOMPUBRICKs.
    pub total_compute_bricks: usize,
    /// dCOMPUBRICKs running at least one VM.
    pub compute_bricks_used: usize,
    /// Total dMEMBRICKs.
    pub total_memory_bricks: usize,
    /// dMEMBRICKs exporting at least one byte.
    pub memory_bricks_used: usize,
    /// VMs that could not be placed.
    pub rejected_vms: usize,
}

impl DisaggregatedOutcome {
    /// dCOMPUBRICKs that can be powered off.
    pub(crate) fn compute_bricks_off(&self) -> usize {
        self.total_compute_bricks - self.compute_bricks_used
    }

    /// dMEMBRICKs that can be powered off.
    pub(crate) fn memory_bricks_off(&self) -> usize {
        self.total_memory_bricks - self.memory_bricks_used
    }

    /// Fraction of dCOMPUBRICKs that can be powered off.
    pub(crate) fn compute_off_fraction(&self) -> f64 {
        if self.total_compute_bricks == 0 {
            return 0.0;
        }
        self.compute_bricks_off() as f64 / self.total_compute_bricks as f64
    }

    /// Fraction of dMEMBRICKs that can be powered off.
    pub(crate) fn memory_off_fraction(&self) -> f64 {
        if self.total_memory_bricks == 0 {
            return 0.0;
        }
        self.memory_bricks_off() as f64 / self.total_memory_bricks as f64
    }

    /// The larger of the two per-type power-off fractions — the "up to 88%
    /// of dMEMBRICKs or dCOMPUBRICKs" quantity the paper highlights.
    pub fn best_type_off_fraction(&self) -> f64 {
        self.compute_off_fraction().max(self.memory_off_fraction())
    }

    /// Fraction of all bricks (both types) that can be powered off.
    pub fn combined_off_fraction(&self) -> f64 {
        let total = self.total_compute_bricks + self.total_memory_bricks;
        if total == 0 {
            return 0.0;
        }
        (self.compute_bricks_off() + self.memory_bricks_off()) as f64 / total as f64
    }
}

/// The disaggregated datacenter: independent pools of compute bricks and
/// memory bricks with the same aggregate resources as the conventional one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisaggregatedDatacenter {
    compute_cores_per_brick: u32,
    compute_bricks: usize,
    memory_per_brick: ByteSize,
    memory_bricks: usize,
}

impl DisaggregatedDatacenter {
    /// Builds a datacenter of `compute_bricks` compute bricks (each with
    /// `cores_per_brick` cores) and `memory_bricks` memory bricks (each with
    /// `memory_per_brick` of RAM).
    pub fn new(
        compute_bricks: usize,
        cores_per_brick: u32,
        memory_bricks: usize,
        memory_per_brick: ByteSize,
    ) -> Self {
        DisaggregatedDatacenter {
            compute_cores_per_brick: cores_per_brick,
            compute_bricks,
            memory_per_brick,
            memory_bricks,
        }
    }

    /// Aggregate resources of the datacenter.
    pub fn aggregate(&self) -> ResourceVector {
        ResourceVector::new(
            self.compute_cores_per_brick * self.compute_bricks as u32,
            self.memory_per_brick
                .saturating_mul(self.memory_bricks as u64),
        )
    }

    /// Packs `workload` FCFS: a VM's vCPUs go to the first compute brick
    /// with enough free cores (compute is not split below brick level),
    /// while its memory is carved from the memory-brick pool first-fit,
    /// splitting across bricks when needed ("VMs are scheduled on dBRICKs
    /// which are already running a VM" — packing, not spreading).
    pub fn pack_fcfs(&self, workload: &[VmDemand]) -> DisaggregatedOutcome {
        let mut compute_free: Vec<u32> = vec![self.compute_cores_per_brick; self.compute_bricks];
        let mut compute_used: Vec<bool> = vec![false; self.compute_bricks];
        let mut memory_free: Vec<u64> = vec![self.memory_per_brick.as_bytes(); self.memory_bricks];
        let mut memory_used: Vec<bool> = vec![false; self.memory_bricks];
        let mut rejected = 0usize;

        for vm in workload {
            // Compute side: first brick with enough free cores.
            let Some(cb) = compute_free.iter().position(|&free| free >= vm.vcpus) else {
                rejected += 1;
                continue;
            };
            // Memory side: check total availability first, then carve
            // first-fit across bricks.
            let total_free: u64 = memory_free.iter().sum();
            if total_free < vm.memory.as_bytes() {
                rejected += 1;
                continue;
            }
            compute_free[cb] -= vm.vcpus;
            compute_used[cb] = true;
            let mut remaining = vm.memory.as_bytes();
            for (idx, free) in memory_free.iter_mut().enumerate() {
                if remaining == 0 {
                    break;
                }
                if *free == 0 {
                    continue;
                }
                let take = remaining.min(*free);
                *free -= take;
                remaining -= take;
                memory_used[idx] = true;
            }
            debug_assert_eq!(remaining, 0);
        }

        DisaggregatedOutcome {
            total_compute_bricks: self.compute_bricks,
            compute_bricks_used: compute_used.iter().filter(|&&u| u).count(),
            total_memory_bricks: self.memory_bricks,
            memory_bricks_used: memory_used.iter().filter(|&&u| u).count(),
            rejected_vms: rejected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dredbox_sim::rng::SimRng;
    use dredbox_workload::WorkloadConfig;
    use proptest::prelude::*;

    fn conventional() -> ConventionalDatacenter {
        ConventionalDatacenter::new(64, 32, ByteSize::from_gib(32))
    }

    fn disaggregated() -> DisaggregatedDatacenter {
        DisaggregatedDatacenter::new(64, 32, 64, ByteSize::from_gib(32))
    }

    #[test]
    fn aggregates_are_equal_as_in_figure_11() {
        assert_eq!(conventional().aggregate(), disaggregated().aggregate());
        assert_eq!(conventional().aggregate().cores(), 2048);
        assert_eq!(
            conventional().aggregate().memory(),
            ByteSize::from_gib(2048)
        );
    }

    #[test]
    fn half_half_packs_identically_on_both() {
        let workload: Vec<VmDemand> = (0..64).map(|_| VmDemand::from_gib(16, 16)).collect();
        let conv = conventional().pack_fcfs(&workload);
        let dis = disaggregated().pack_fcfs(&workload);
        assert_eq!(conv.rejected_vms, 0);
        assert_eq!(dis.rejected_vms, 0);
        // Exactly two VMs per server / per brick pair.
        assert_eq!(conv.servers_used, 32);
        assert_eq!(dis.compute_bricks_used, 32);
        assert_eq!(dis.memory_bricks_used, 32);
        assert!((conv.off_fraction() - 0.5).abs() < 1e-12);
        assert!((dis.combined_off_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn high_cpu_frees_most_memory_bricks() {
        let mut rng = SimRng::seed(7);
        let workload = WorkloadConfig::HighCpu.generate(64, &mut rng);
        let conv = conventional().pack_fcfs(&workload);
        let dis = disaggregated().pack_fcfs(&workload);
        // Conventional servers are core-bound: one VM per server, nothing off.
        assert!(
            conv.off_fraction() < 0.1,
            "conventional off {}",
            conv.off_fraction()
        );
        // Disaggregated: almost all memory bricks are idle.
        assert!(
            dis.memory_off_fraction() > 0.75,
            "memory bricks off {}",
            dis.memory_off_fraction()
        );
        assert!(dis.best_type_off_fraction() > 0.75);
        assert_eq!(dis.rejected_vms, 0);
        assert_eq!(conv.rejected_vms, 0);
    }

    #[test]
    fn high_ram_frees_most_compute_bricks() {
        let mut rng = SimRng::seed(8);
        let workload = WorkloadConfig::HighRam.generate(64, &mut rng);
        let conv = conventional().pack_fcfs(&workload);
        let dis = disaggregated().pack_fcfs(&workload);
        assert!(conv.off_fraction() < 0.1);
        assert!(
            dis.compute_off_fraction() > 0.75,
            "compute bricks off {}",
            dis.compute_off_fraction()
        );
    }

    #[test]
    fn oversubscribed_workload_reports_rejections() {
        let workload: Vec<VmDemand> = (0..200).map(|_| VmDemand::from_gib(32, 32)).collect();
        let conv = conventional().pack_fcfs(&workload);
        let dis = disaggregated().pack_fcfs(&workload);
        assert_eq!(conv.rejected_vms, 200 - 64);
        assert_eq!(dis.rejected_vms, 200 - 64);
        assert_eq!(conv.off_fraction(), 0.0);
        assert_eq!(dis.combined_off_fraction(), 0.0);
    }

    #[test]
    fn empty_datacenters_report_zero_fractions() {
        let conv = ConventionalDatacenter::new(0, 32, ByteSize::from_gib(32)).pack_fcfs(&[]);
        assert_eq!(conv.off_fraction(), 0.0);
        let dis = DisaggregatedDatacenter::new(0, 32, 0, ByteSize::from_gib(32)).pack_fcfs(&[]);
        assert_eq!(dis.combined_off_fraction(), 0.0);
        assert_eq!(dis.best_type_off_fraction(), 0.0);
    }

    proptest! {
        #[test]
        fn packing_never_overcommits(seed in 0u64..200, config_idx in 0usize..6, count in 1usize..128) {
            let config = WorkloadConfig::ALL[config_idx];
            let workload = config.generate(count, &mut SimRng::seed(seed));
            let conv = conventional().pack_fcfs(&workload);
            let dis = disaggregated().pack_fcfs(&workload);
            prop_assert!(conv.servers_used <= conv.total_servers);
            prop_assert!(dis.compute_bricks_used <= dis.total_compute_bricks);
            prop_assert!(dis.memory_bricks_used <= dis.total_memory_bricks);
            // The disaggregated datacenter never rejects more VMs than the
            // conventional one: it can always at least mirror the
            // conventional placement.
            prop_assert!(dis.rejected_vms <= conv.rejected_vms);
            // Placed + rejected = total.
            prop_assert!(conv.rejected_vms <= count);
        }

        #[test]
        fn off_fractions_are_probabilities(seed in 0u64..100, config_idx in 0usize..6) {
            let config = WorkloadConfig::ALL[config_idx];
            let workload = config.generate(64, &mut SimRng::seed(seed));
            let conv = conventional().pack_fcfs(&workload);
            let dis = disaggregated().pack_fcfs(&workload);
            for f in [conv.off_fraction(), dis.compute_off_fraction(), dis.memory_off_fraction(), dis.combined_off_fraction(), dis.best_type_off_fraction()] {
                prop_assert!((0.0..=1.0).contains(&f));
            }
        }
    }
}
