//! Requests arriving at the SDM controller.

use serde::{Deserialize, Serialize};

use dredbox_bricks::{Bitstream, BrickId};
use dredbox_sim::units::ByteSize;

/// A request (relayed from OpenStack) to allocate a new VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VmAllocationRequest {
    /// Virtual CPUs requested.
    pub vcpus: u32,
    /// Guest memory requested.
    pub memory: ByteSize,
}

impl VmAllocationRequest {
    /// Creates a request.
    pub fn new(vcpus: u32, memory: ByteSize) -> Self {
        VmAllocationRequest { vcpus, memory }
    }
}

impl std::fmt::Display for VmAllocationRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "allocate {} vcpus + {}", self.vcpus, self.memory)
    }
}

/// A scale-up demand: a VM on a given dCOMPUBRICK asking for more memory
/// through the Scale-up API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct ScaleUpDemand {
    /// The compute brick whose VM is asking.
    pub compute_brick: BrickId,
    /// The amount of additional memory requested.
    pub amount: ByteSize,
}

impl ScaleUpDemand {
    /// Creates a demand.
    pub fn new(compute_brick: BrickId, amount: ByteSize) -> Self {
        ScaleUpDemand {
            compute_brick,
            amount,
        }
    }
}

impl std::fmt::Display for ScaleUpDemand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: scale up by {}", self.compute_brick, self.amount)
    }
}

/// An offload request: a VM on a dCOMPUBRICK asking the SDM controller to
/// run a kernel near the data on a dACCELBRICK.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OffloadRequest {
    /// The compute brick whose VM is asking.
    pub compute_brick: BrickId,
    /// The partial-reconfiguration bitstream implementing the kernel.
    pub bitstream: Bitstream,
    /// Input data the kernel streams through once.
    pub input: ByteSize,
}

impl OffloadRequest {
    /// Creates a request.
    pub fn new(compute_brick: BrickId, bitstream: Bitstream, input: ByteSize) -> Self {
        OffloadRequest {
            compute_brick,
            bitstream,
            input,
        }
    }
}

impl std::fmt::Display for OffloadRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: offload '{}' over {}",
            self.compute_brick, self.bitstream.name, self.input
        )
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_struct!(VmAllocationRequest { vcpus, memory });
dredbox_snap::snap_struct!(ScaleUpDemand {
    compute_brick,
    amount,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let r = VmAllocationRequest::new(8, ByteSize::from_gib(16));
        assert_eq!(r.to_string(), "allocate 8 vcpus + 16.00 GiB");
        let s = ScaleUpDemand::new(BrickId(3), ByteSize::from_gib(4));
        assert_eq!(s.to_string(), "brick3: scale up by 4.00 GiB");
        let o = OffloadRequest::new(
            BrickId(0),
            Bitstream::new("sobel", ByteSize::from_mib(16)),
            ByteSize::from_gib(1),
        );
        assert_eq!(o.to_string(), "brick0: offload 'sobel' over 1.00 GiB");
    }
}
