//! Memory-hotplug cost model.
//!
//! Section IV-A of the paper: "A feature enabling memory resizing at OS level
//! is called memory hotplug. As the name implies, the kernel attaches new
//! physical page frames, by expanding the page table pool at runtime, after
//! the physical attachment process of remote memory is completed. We have
//! implemented the memory hotplug linux kernel support for arm64." At the
//! virtualization layer (IV-B) QEMU hot-adds RAM DIMMs and the guest kernel
//! onlines them with the same mechanism.
//!
//! The model charges a fixed per-operation cost (device-tree/ACPI update,
//! udev/onlining round trips) plus a per-memory-block cost (arm64 memory
//! blocks are onlined one by one, each requiring page-table/memmap expansion
//! and zone rebalancing).

use serde::{Deserialize, Serialize};

use dredbox_sim::time::SimDuration;
use dredbox_sim::units::ByteSize;

/// Cost model for hot-adding (or removing) physical memory in a running
/// kernel or guest.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HotplugModel {
    /// Size of one hotpluggable memory block (arm64 `SECTION_SIZE` /
    /// `memory_block_size_bytes`); 1 GiB on the prototype kernel.
    pub block_size: ByteSize,
    /// Fixed cost per hotplug operation (notifier chains, sysfs, ACPI/DT).
    pub per_operation: SimDuration,
    /// Cost of onlining one memory block (memmap allocation, page-table
    /// expansion, buddy-allocator integration).
    pub per_block_online: SimDuration,
    /// Cost of offlining one memory block (page migration off the block is
    /// much more expensive than onlining).
    pub per_block_offline: SimDuration,
}

impl HotplugModel {
    /// Defaults measured against mainline arm64 hotplug behaviour: ~50 ms
    /// fixed cost, ~20 ms to online a 1 GiB block, ~120 ms to offline one.
    pub fn dredbox_default() -> Self {
        HotplugModel {
            block_size: ByteSize::from_gib(1),
            per_operation: SimDuration::from_millis(50),
            per_block_online: SimDuration::from_millis(20),
            per_block_offline: SimDuration::from_millis(120),
        }
    }

    /// Number of memory blocks needed to cover `amount` (rounded up).
    pub(crate) fn blocks_for(&self, amount: ByteSize) -> u64 {
        if amount.is_zero() {
            0
        } else {
            amount.div_ceil_by(self.block_size)
        }
    }

    /// Time for the kernel to hot-add and online `amount` of new memory.
    pub fn online_time(&self, amount: ByteSize) -> SimDuration {
        if amount.is_zero() {
            return SimDuration::ZERO;
        }
        self.per_operation
            + self
                .per_block_online
                .saturating_mul(self.blocks_for(amount))
    }

    /// Time for the kernel to offline and hot-remove `amount` of memory.
    pub fn offline_time(&self, amount: ByteSize) -> SimDuration {
        if amount.is_zero() {
            return SimDuration::ZERO;
        }
        self.per_operation
            + self
                .per_block_offline
                .saturating_mul(self.blocks_for(amount))
    }
}

impl Default for HotplugModel {
    fn default() -> Self {
        HotplugModel::dredbox_default()
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_struct!(HotplugModel {
    block_size,
    per_operation,
    per_block_online,
    per_block_offline,
});

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn block_rounding() {
        let m = HotplugModel::dredbox_default();
        assert_eq!(m.blocks_for(ByteSize::ZERO), 0);
        assert_eq!(m.blocks_for(ByteSize::from_mib(1)), 1);
        assert_eq!(m.blocks_for(ByteSize::from_gib(1)), 1);
        assert_eq!(
            m.blocks_for(ByteSize::from_gib(1) + ByteSize::from_bytes(1)),
            2
        );
        assert_eq!(m.blocks_for(ByteSize::from_gib(8)), 8);
    }

    #[test]
    fn online_and_offline_times() {
        let m = HotplugModel::dredbox_default();
        assert_eq!(m.online_time(ByteSize::ZERO), SimDuration::ZERO);
        let eight = m.online_time(ByteSize::from_gib(8));
        // 50 ms fixed + 8 x 20 ms = 210 ms.
        assert_eq!(eight.as_millis_f64(), 210.0);
        // Offlining is slower than onlining (page migration).
        assert!(m.offline_time(ByteSize::from_gib(8)) > eight);
        // A scale-up of 8 GiB stays well under a second, the key property
        // behind Figure 10's agility result.
        assert!(eight.as_secs_f64() < 1.0);
    }

    proptest! {
        #[test]
        fn online_time_is_monotone_in_size(a in 0u64..64, b in 0u64..64) {
            let m = HotplugModel::dredbox_default();
            let ta = m.online_time(ByteSize::from_gib(a));
            let tb = m.online_time(ByteSize::from_gib(b));
            if a <= b {
                prop_assert!(ta <= tb);
            }
        }
    }
}
