//! The baremetal OS layer: arm64 memory hotplug.
//!
//! After the orchestrator physically attaches remote memory (glue-logic and
//! circuit configuration), the baremetal kernel on the dCOMPUBRICK onlines
//! the new physical page frames through memory hotplug and makes them
//! available — first to itself, then (via QEMU DIMM hotplug) to guests.

use serde::{Deserialize, Serialize};

use dredbox_bricks::BrickId;
use dredbox_memory::HotplugModel;
use dredbox_sim::time::SimDuration;
use dredbox_sim::units::ByteSize;

use crate::error::SoftstackError;

/// The baremetal Linux instance running on one dCOMPUBRICK.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaremetalOs {
    brick: BrickId,
    hotplug: HotplugModel,
    local_memory: ByteSize,
    onlined_remote: ByteSize,
    hotplug_operations: u64,
}

impl BaremetalOs {
    /// Boots the baremetal OS on `brick` with `local_memory` of directly
    /// attached DDR and the given hotplug cost model.
    pub fn new(brick: BrickId, local_memory: ByteSize, hotplug: HotplugModel) -> Self {
        BaremetalOs {
            brick,
            hotplug,
            local_memory,
            onlined_remote: ByteSize::ZERO,
            hotplug_operations: 0,
        }
    }

    /// The brick this OS runs on.
    pub(crate) fn brick(&self) -> BrickId {
        self.brick
    }

    /// Remote memory currently onlined by the kernel.
    pub fn onlined_remote(&self) -> ByteSize {
        self.onlined_remote
    }

    /// Total memory visible to the kernel.
    pub(crate) fn total_memory(&self) -> ByteSize {
        self.local_memory + self.onlined_remote
    }

    /// The hotplug cost model in use.
    pub(crate) fn hotplug_model(&self) -> &HotplugModel {
        &self.hotplug
    }

    /// Onlines `amount` of newly attached remote memory, returning the time
    /// the kernel spends doing so.
    pub fn online_remote(&mut self, amount: ByteSize) -> SimDuration {
        if amount.is_zero() {
            return SimDuration::ZERO;
        }
        self.onlined_remote += amount;
        self.hotplug_operations += 1;
        self.hotplug.online_time(amount)
    }

    /// Offlines `amount` of remote memory ahead of a detach, returning the
    /// time spent migrating pages off it and tearing down the mapping.
    ///
    /// # Errors
    ///
    /// Returns [`SoftstackError::DetachUnderflow`]-style accounting error as
    /// [`SoftstackError::InsufficientMemory`] if more is offlined than is
    /// currently onlined.
    pub fn offline_remote(&mut self, amount: ByteSize) -> Result<SimDuration, SoftstackError> {
        if amount > self.onlined_remote {
            return Err(SoftstackError::InsufficientMemory {
                brick: self.brick,
                requested: amount,
                available: self.onlined_remote,
            });
        }
        self.onlined_remote -= amount;
        self.hotplug_operations += 1;
        Ok(self.hotplug.offline_time(amount))
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_struct!(BaremetalOs {
    brick,
    hotplug,
    local_memory,
    onlined_remote,
    hotplug_operations,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn os() -> BaremetalOs {
        BaremetalOs::new(
            BrickId(0),
            ByteSize::from_gib(4),
            HotplugModel::dredbox_default(),
        )
    }

    #[test]
    fn online_grows_visible_memory() {
        let mut os = os();
        assert_eq!(os.brick(), BrickId(0));
        assert_eq!(os.total_memory(), ByteSize::from_gib(4));
        let t = os.online_remote(ByteSize::from_gib(8));
        assert!(t.as_millis_f64() > 0.0);
        assert_eq!(os.onlined_remote(), ByteSize::from_gib(8));
        assert_eq!(os.total_memory(), ByteSize::from_gib(12));
        assert_eq!(os.local_memory, ByteSize::from_gib(4));
        assert_eq!(os.hotplug_operations, 1);
        assert_eq!(os.online_remote(ByteSize::ZERO), SimDuration::ZERO);
        assert_eq!(os.hotplug_operations, 1);
    }

    #[test]
    fn offline_shrinks_and_validates() {
        let mut os = os();
        os.online_remote(ByteSize::from_gib(8));
        let t = os.offline_remote(ByteSize::from_gib(4)).unwrap();
        assert!(
            t > os.hotplug_model().online_time(ByteSize::from_gib(4)),
            "offlining is slower"
        );
        assert_eq!(os.onlined_remote(), ByteSize::from_gib(4));
        assert!(matches!(
            os.offline_remote(ByteSize::from_gib(16)),
            Err(SoftstackError::InsufficientMemory { .. })
        ));
    }
}
