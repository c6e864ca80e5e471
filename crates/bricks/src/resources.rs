//! Resource vectors: the (cores, memory) pairs requested by VMs and offered
//! by bricks or servers.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign};

use serde::{Deserialize, Serialize};

use dredbox_sim::units::ByteSize;

/// A quantity of compute cores plus memory.
///
/// Used both for VM requirements (Table I of the paper) and for the capacity
/// of servers/bricks in the TCO study.
///
/// ```
/// use dredbox_bricks::ResourceVector;
/// use dredbox_sim::units::ByteSize;
///
/// let server = ResourceVector::new(32, ByteSize::from_gib(32));
/// let vm = ResourceVector::new(8, ByteSize::from_gib(24));
/// assert!(server.contains(&vm));
/// let left = server.checked_sub(&vm).unwrap();
/// assert_eq!(left.cores(), 24);
/// assert_eq!(left.memory().as_gib(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct ResourceVector {
    cores: u32,
    memory: ByteSize,
}

impl ResourceVector {
    /// A vector of zero cores and zero memory.
    pub const ZERO: ResourceVector = ResourceVector {
        cores: 0,
        memory: ByteSize::ZERO,
    };

    /// Creates a resource vector.
    pub const fn new(cores: u32, memory: ByteSize) -> Self {
        ResourceVector { cores, memory }
    }

    /// A compute-only vector.
    #[cfg(test)]
    pub(crate) const fn cores_only(cores: u32) -> Self {
        ResourceVector {
            cores,
            memory: ByteSize::ZERO,
        }
    }

    /// A memory-only vector.
    #[cfg(test)]
    pub(crate) const fn memory_only(memory: ByteSize) -> Self {
        ResourceVector { cores: 0, memory }
    }

    /// Number of cores.
    pub const fn cores(&self) -> u32 {
        self.cores
    }

    /// Amount of memory.
    pub const fn memory(&self) -> ByteSize {
        self.memory
    }

    /// Whether both components are zero.
    #[cfg(test)]
    pub(crate) const fn is_zero(&self) -> bool {
        self.cores == 0 && self.memory.is_zero()
    }

    /// Whether `other` fits inside `self` component-wise.
    pub fn contains(&self, other: &ResourceVector) -> bool {
        self.cores >= other.cores && self.memory >= other.memory
    }

    /// Component-wise subtraction; `None` if `other` does not fit.
    pub fn checked_sub(&self, other: &ResourceVector) -> Option<ResourceVector> {
        if !self.contains(other) {
            return None;
        }
        Some(ResourceVector {
            cores: self.cores - other.cores,
            memory: self.memory - other.memory,
        })
    }

    /// Component-wise saturating subtraction.
    pub fn saturating_sub(&self, other: &ResourceVector) -> ResourceVector {
        ResourceVector {
            cores: self.cores.saturating_sub(other.cores),
            memory: self.memory.saturating_sub(other.memory),
        }
    }

    /// Scales both components by an integer factor.
    #[cfg(test)]
    pub(crate) fn saturating_mul(&self, factor: u32) -> ResourceVector {
        ResourceVector {
            cores: self.cores.saturating_mul(factor),
            memory: self.memory.saturating_mul(u64::from(factor)),
        }
    }

    /// Fraction of `capacity` used by `self`, per component, each in `[0, 1]`.
    /// Components with zero capacity report zero utilization.
    #[cfg(test)]
    pub(crate) fn utilization_of(&self, capacity: &ResourceVector) -> (f64, f64) {
        let core_util = if capacity.cores == 0 {
            0.0
        } else {
            f64::from(self.cores) / f64::from(capacity.cores)
        };
        let mem_util = if capacity.memory.is_zero() {
            0.0
        } else {
            self.memory.as_bytes() as f64 / capacity.memory.as_bytes() as f64
        };
        (core_util, mem_util)
    }
}

impl Add for ResourceVector {
    type Output = ResourceVector;
    fn add(self, rhs: ResourceVector) -> ResourceVector {
        ResourceVector {
            cores: self.cores + rhs.cores,
            memory: self.memory + rhs.memory,
        }
    }
}

impl AddAssign for ResourceVector {
    fn add_assign(&mut self, rhs: ResourceVector) {
        self.cores += rhs.cores;
        self.memory += rhs.memory;
    }
}

impl Sum for ResourceVector {
    fn sum<I: Iterator<Item = ResourceVector>>(iter: I) -> Self {
        iter.fold(ResourceVector::ZERO, |acc, r| acc + r)
    }
}

impl fmt::Display for ResourceVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cores + {}", self.cores, self.memory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn contains_and_subtraction() {
        let cap = ResourceVector::new(16, ByteSize::from_gib(16));
        let small = ResourceVector::new(4, ByteSize::from_gib(8));
        let too_many_cores = ResourceVector::new(17, ByteSize::from_gib(1));
        let too_much_mem = ResourceVector::new(1, ByteSize::from_gib(17));

        assert!(cap.contains(&small));
        assert!(!cap.contains(&too_many_cores));
        assert!(!cap.contains(&too_much_mem));
        assert_eq!(cap.checked_sub(&too_many_cores), None);
        let rest = cap.checked_sub(&small).unwrap();
        assert_eq!(rest, ResourceVector::new(12, ByteSize::from_gib(8)));
        assert_eq!(
            cap.saturating_sub(&ResourceVector::new(100, ByteSize::from_gib(100))),
            ResourceVector::ZERO
        );
    }

    #[test]
    fn sum_and_scale() {
        let vms = [
            ResourceVector::new(2, ByteSize::from_gib(4)),
            ResourceVector::new(6, ByteSize::from_gib(12)),
        ];
        let total: ResourceVector = vms.into_iter().sum();
        assert_eq!(total, ResourceVector::new(8, ByteSize::from_gib(16)));
        assert_eq!(
            ResourceVector::new(2, ByteSize::from_gib(1)).saturating_mul(3),
            ResourceVector::new(6, ByteSize::from_gib(3))
        );
    }

    #[test]
    fn utilization_fraction() {
        let cap = ResourceVector::new(32, ByteSize::from_gib(32));
        let used = ResourceVector::new(8, ByteSize::from_gib(24));
        let (c, m) = used.utilization_of(&cap);
        assert!((c - 0.25).abs() < 1e-12);
        assert!((m - 0.75).abs() < 1e-12);
        let (zc, zm) = used.utilization_of(&ResourceVector::ZERO);
        assert_eq!((zc, zm), (0.0, 0.0));
    }

    #[test]
    fn display_and_helpers() {
        let r = ResourceVector::new(4, ByteSize::from_gib(2));
        assert_eq!(r.to_string(), "4 cores + 2.00 GiB");
        assert!(ResourceVector::ZERO.is_zero());
        assert!(!r.is_zero());
        assert_eq!(ResourceVector::cores_only(3).memory(), ByteSize::ZERO);
        assert_eq!(
            ResourceVector::memory_only(ByteSize::from_gib(1)).cores(),
            0
        );
    }

    proptest! {
        #[test]
        fn sub_then_add_roundtrips(
            cap_cores in 0u32..1_000, cap_gib in 0u64..1_000,
            use_cores in 0u32..1_000, use_gib in 0u64..1_000,
        ) {
            let cap = ResourceVector::new(cap_cores, ByteSize::from_gib(cap_gib));
            let req = ResourceVector::new(use_cores, ByteSize::from_gib(use_gib));
            if let Some(rest) = cap.checked_sub(&req) {
                prop_assert_eq!(rest + req, cap);
                prop_assert!(cap.contains(&req));
            } else {
                prop_assert!(!cap.contains(&req));
            }
        }

        #[test]
        fn utilization_is_bounded(used_cores in 0u32..64, cap_cores in 1u32..64, used_gib in 0u64..64, cap_gib in 1u64..64) {
            let cap = ResourceVector::new(cap_cores, ByteSize::from_gib(cap_gib));
            let used = ResourceVector::new(used_cores.min(cap_cores), ByteSize::from_gib(used_gib.min(cap_gib)));
            let (c, m) = used.utilization_of(&cap);
            prop_assert!((0.0..=1.0).contains(&c));
            prop_assert!((0.0..=1.0).contains(&m));
        }
    }
}
