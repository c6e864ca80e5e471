//! Virtual-memory ballooning for elastic redistribution.
//!
//! One of the project objectives is "an appropriately revisited design of the
//! virtual memory ballooning subsystem for elastic distribution of
//! disaggregated memory". The balloon lets the hypervisor reclaim guest
//! memory (inflate) or give it back (deflate) without a hotplug operation,
//! which is cheaper but bounded by the guest's configured maximum.

use serde::{Deserialize, Serialize};

use dredbox_sim::time::SimDuration;
use dredbox_sim::units::{Bandwidth, ByteSize};

use crate::error::MemoryError;

/// The balloon device of one VM.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BalloonDevice {
    guest_memory: ByteSize,
    inflated: ByteSize,
    reclaim_rate: Bandwidth,
}

impl BalloonDevice {
    /// Creates the balloon for a guest configured with `guest_memory`.
    /// Reclaim proceeds at roughly 4 GiB/s (page scanning + madvise).
    pub fn new(guest_memory: ByteSize) -> Self {
        BalloonDevice {
            guest_memory,
            inflated: ByteSize::ZERO,
            reclaim_rate: Bandwidth::from_gbps(32.0),
        }
    }

    /// Memory currently usable by the guest (configured minus ballooned-out).
    pub(crate) fn available_to_guest(&self) -> ByteSize {
        self.guest_memory - self.inflated
    }

    /// Memory currently reclaimed by the hypervisor.
    pub fn inflated(&self) -> ByteSize {
        self.inflated
    }

    /// The guest's configured memory.
    pub fn guest_memory(&self) -> ByteSize {
        self.guest_memory
    }

    /// Grows the guest's configured memory (after a DIMM hotplug) so later
    /// balloon operations account for it.
    pub fn grow_guest_memory(&mut self, amount: ByteSize) {
        self.guest_memory += amount;
    }

    /// Inflates the balloon by `amount`, reclaiming guest memory for the
    /// hypervisor. Returns the time the operation takes.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::BalloonBounds`] if the guest would be left with
    /// no memory at all.
    pub fn inflate(&mut self, amount: ByteSize) -> Result<SimDuration, MemoryError> {
        if amount >= self.available_to_guest() {
            return Err(MemoryError::BalloonBounds);
        }
        self.inflated += amount;
        Ok(self.reclaim_rate.transfer_time(amount))
    }

    /// Deflates the balloon by `amount`, returning memory to the guest.
    /// Returns the time the operation takes (cheap: just page permissions).
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::BalloonBounds`] if the balloon does not hold
    /// `amount`.
    #[cfg(test)]
    pub(crate) fn deflate(&mut self, amount: ByteSize) -> Result<SimDuration, MemoryError> {
        if amount > self.inflated {
            return Err(MemoryError::BalloonBounds);
        }
        self.inflated -= amount;
        Ok(SimDuration::from_millis(1))
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_struct!(BalloonDevice {
    guest_memory,
    inflated,
    reclaim_rate,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inflate_deflate_roundtrip() {
        let mut b = BalloonDevice::new(ByteSize::from_gib(16));
        assert_eq!(b.guest_memory(), ByteSize::from_gib(16));
        assert_eq!(b.available_to_guest(), ByteSize::from_gib(16));
        let t = b.inflate(ByteSize::from_gib(4)).unwrap();
        assert!(t.as_millis_f64() > 0.0);
        assert_eq!(b.inflated(), ByteSize::from_gib(4));
        assert_eq!(b.available_to_guest(), ByteSize::from_gib(12));
        b.deflate(ByteSize::from_gib(4)).unwrap();
        assert_eq!(b.available_to_guest(), ByteSize::from_gib(16));
    }

    #[test]
    fn bounds_are_enforced() {
        let mut b = BalloonDevice::new(ByteSize::from_gib(4));
        assert!(matches!(
            b.inflate(ByteSize::from_gib(4)),
            Err(MemoryError::BalloonBounds)
        ));
        assert!(matches!(
            b.deflate(ByteSize::from_gib(1)),
            Err(MemoryError::BalloonBounds)
        ));
        b.inflate(ByteSize::from_gib(2)).unwrap();
        assert!(matches!(
            b.deflate(ByteSize::from_gib(3)),
            Err(MemoryError::BalloonBounds)
        ));
    }

    #[test]
    fn hotplug_growth_extends_balloon_headroom() {
        let mut b = BalloonDevice::new(ByteSize::from_gib(4));
        b.grow_guest_memory(ByteSize::from_gib(8));
        assert_eq!(b.guest_memory(), ByteSize::from_gib(12));
        b.inflate(ByteSize::from_gib(8)).unwrap();
        assert_eq!(b.available_to_guest(), ByteSize::from_gib(4));
    }
}
