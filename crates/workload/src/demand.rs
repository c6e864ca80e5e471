//! Per-VM resource demand.

use serde::{Deserialize, Serialize};

use dredbox_sim::units::ByteSize;

/// The resources one VM asks for: virtual CPUs plus RAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VmDemand {
    /// Number of virtual CPUs.
    pub vcpus: u32,
    /// Requested RAM.
    pub memory: ByteSize,
}

impl VmDemand {
    /// Creates a demand.
    #[cfg(test)]
    pub(crate) fn new(vcpus: u32, memory: ByteSize) -> Self {
        VmDemand { vcpus, memory }
    }

    /// Convenience constructor taking the memory in whole GiB, matching how
    /// Table I states its ranges.
    pub fn from_gib(vcpus: u32, memory_gib: u64) -> Self {
        VmDemand {
            vcpus,
            memory: ByteSize::from_gib(memory_gib),
        }
    }

    /// The ratio of memory (GiB) to vCPUs, used to classify how unbalanced a
    /// request is.
    #[cfg(test)]
    pub(crate) fn memory_per_core_gib(&self) -> f64 {
        if self.vcpus == 0 {
            return 0.0;
        }
        self.memory.as_gib_f64() / f64::from(self.vcpus)
    }
}

impl std::fmt::Display for VmDemand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} vCPUs + {}", self.vcpus, self.memory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_ratio() {
        let d = VmDemand::from_gib(8, 24);
        assert_eq!(d.vcpus, 8);
        assert_eq!(d.memory, ByteSize::from_gib(24));
        assert!((d.memory_per_core_gib() - 3.0).abs() < 1e-12);
        assert_eq!(d.to_string(), "8 vCPUs + 24.00 GiB");
        let zero_core = VmDemand::new(0, ByteSize::from_gib(4));
        assert_eq!(zero_core.memory_per_core_gib(), 0.0);
    }
}
