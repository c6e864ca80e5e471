//! Table I: the VM workload mixes of the TCO study.
//!
//! | Configuration | vCPUs        | RAM          |
//! |---------------|--------------|--------------|
//! | Random        | 1–32 cores   | 1–32 GB      |
//! | High RAM      | 1–8 cores    | 24–32 GB     |
//! | High CPU      | 24–32 cores  | 1–8 GB       |
//! | Half Half     | 16 cores     | 16 GB        |
//! | More RAM      | 1–6 cores    | 17–32 GB     |
//! | More CPU      | 17–32 cores  | 1–16 GB      |

use serde::{Deserialize, Serialize};

use dredbox_sim::report::{Row, Table};
use dredbox_sim::rng::SimRng;

use crate::demand::VmDemand;

/// One of the six VM workload mixes of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadConfig {
    /// Uniformly random 1–32 cores and 1–32 GB.
    Random,
    /// Few cores (1–8), lots of memory (24–32 GB).
    HighRam,
    /// Many cores (24–32), little memory (1–8 GB).
    HighCpu,
    /// Balanced: exactly 16 cores and 16 GB.
    HalfHalf,
    /// Memory-leaning: 1–6 cores, 17–32 GB.
    MoreRam,
    /// Compute-leaning: 17–32 cores, 1–16 GB.
    MoreCpu,
}

impl WorkloadConfig {
    /// All configurations in Table I order.
    pub const ALL: [WorkloadConfig; 6] = [
        WorkloadConfig::Random,
        WorkloadConfig::HighRam,
        WorkloadConfig::HighCpu,
        WorkloadConfig::HalfHalf,
        WorkloadConfig::MoreRam,
        WorkloadConfig::MoreCpu,
    ];

    /// The configuration's name as printed in the paper.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadConfig::Random => "Random",
            WorkloadConfig::HighRam => "High RAM",
            WorkloadConfig::HighCpu => "High CPU",
            WorkloadConfig::HalfHalf => "Half Half",
            WorkloadConfig::MoreRam => "More Ram",
            WorkloadConfig::MoreCpu => "More CPU",
        }
    }

    /// The inclusive vCPU range of the configuration.
    pub(crate) fn vcpu_range(self) -> (u32, u32) {
        match self {
            WorkloadConfig::Random => (1, 32),
            WorkloadConfig::HighRam => (1, 8),
            WorkloadConfig::HighCpu => (24, 32),
            WorkloadConfig::HalfHalf => (16, 16),
            WorkloadConfig::MoreRam => (1, 6),
            WorkloadConfig::MoreCpu => (17, 32),
        }
    }

    /// The inclusive RAM range of the configuration, in GiB.
    pub(crate) fn ram_range_gib(self) -> (u64, u64) {
        match self {
            WorkloadConfig::Random => (1, 32),
            WorkloadConfig::HighRam => (24, 32),
            WorkloadConfig::HighCpu => (1, 8),
            WorkloadConfig::HalfHalf => (16, 16),
            WorkloadConfig::MoreRam => (17, 32),
            WorkloadConfig::MoreCpu => (1, 16),
        }
    }

    /// Whether the mix is intentionally unbalanced (the cases where the
    /// paper reports the biggest disaggregation benefit).
    #[cfg(test)]
    pub(crate) fn is_unbalanced(self) -> bool {
        !matches!(self, WorkloadConfig::HalfHalf)
    }

    /// Samples one VM demand from the configuration's ranges.
    pub(crate) fn sample(self, rng: &mut SimRng) -> VmDemand {
        let (c_lo, c_hi) = self.vcpu_range();
        let (m_lo, m_hi) = self.ram_range_gib();
        let vcpus = if c_lo == c_hi {
            c_lo
        } else {
            rng.range(c_lo..=c_hi)
        };
        let ram = if m_lo == m_hi {
            m_lo
        } else {
            rng.range(m_lo..=m_hi)
        };
        VmDemand::from_gib(vcpus, ram)
    }

    /// Generates a workload of `count` VMs.
    pub fn generate(self, count: usize, rng: &mut SimRng) -> Vec<VmDemand> {
        (0..count).map(|_| self.sample(rng)).collect()
    }

    /// Renders Table I as a report table (the Table I reproduction artifact).
    pub fn table1() -> Table {
        let mut table = Table::new(
            "Table I — VM workloads with different types of resource requirements",
            ["Configuration", "vCPUs", "RAM"],
        );
        for config in WorkloadConfig::ALL {
            let (c_lo, c_hi) = config.vcpu_range();
            let (m_lo, m_hi) = config.ram_range_gib();
            let vcpus = if c_lo == c_hi {
                format!("{c_lo} cores")
            } else {
                format!("{c_lo}-{c_hi} cores")
            };
            let ram = if m_lo == m_hi {
                format!("{m_lo} GB")
            } else {
                format!("{m_lo}-{m_hi} GB")
            };
            table.push(Row::new(config.name(), [vcpus, ram]));
        }
        table
    }
}

impl std::fmt::Display for WorkloadConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn table1_matches_the_paper() {
        let t = WorkloadConfig::table1();
        assert_eq!(t.len(), 6);
        assert_eq!(
            t.row("Random").unwrap().cells,
            vec!["1-32 cores", "1-32 GB"]
        );
        assert_eq!(
            t.row("High RAM").unwrap().cells,
            vec!["1-8 cores", "24-32 GB"]
        );
        assert_eq!(
            t.row("High CPU").unwrap().cells,
            vec!["24-32 cores", "1-8 GB"]
        );
        assert_eq!(t.row("Half Half").unwrap().cells, vec!["16 cores", "16 GB"]);
        assert_eq!(
            t.row("More Ram").unwrap().cells,
            vec!["1-6 cores", "17-32 GB"]
        );
        assert_eq!(
            t.row("More CPU").unwrap().cells,
            vec!["17-32 cores", "1-16 GB"]
        );
    }

    #[test]
    fn half_half_is_deterministic() {
        let mut rng = SimRng::seed(0);
        let vms = WorkloadConfig::HalfHalf.generate(10, &mut rng);
        assert!(vms
            .iter()
            .all(|vm| vm.vcpus == 16 && vm.memory.as_gib() == 16));
        assert!(!WorkloadConfig::HalfHalf.is_unbalanced());
        assert!(WorkloadConfig::HighRam.is_unbalanced());
    }

    #[test]
    fn names_and_display() {
        assert_eq!(WorkloadConfig::ALL.len(), 6);
        assert_eq!(WorkloadConfig::MoreCpu.to_string(), "More CPU");
        assert_eq!(WorkloadConfig::HighRam.name(), "High RAM");
    }

    #[test]
    fn generation_is_reproducible() {
        let a = WorkloadConfig::Random.generate(32, &mut SimRng::seed(9));
        let b = WorkloadConfig::Random.generate(32, &mut SimRng::seed(9));
        assert_eq!(a, b);
    }

    proptest! {
        #[test]
        fn samples_respect_ranges(seed in 0u64..500, idx in 0usize..6) {
            let config = WorkloadConfig::ALL[idx];
            let mut rng = SimRng::seed(seed);
            let (c_lo, c_hi) = config.vcpu_range();
            let (m_lo, m_hi) = config.ram_range_gib();
            for vm in config.generate(16, &mut rng) {
                prop_assert!((c_lo..=c_hi).contains(&vm.vcpus));
                prop_assert!((m_lo..=m_hi).contains(&vm.memory.as_gib()));
            }
        }
    }
}
