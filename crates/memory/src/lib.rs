//! Disaggregated memory management for dReDBox.
//!
//! dMEMBRICKs provide "a large and flexible pool of memory resources that can
//! be partitioned and (re)distributed among all processing nodes (and
//! corresponding VMs) in the system" (Section II). This crate implements the
//! bookkeeping side of that pool:
//!
//! * [`RemoteWindow`] — the remote (global) address window each compute
//!   brick maps disaggregated memory into.
//! * [`MemorySegment`] — remote memory segments: large, contiguous portions
//!   of a dMEMBRICK handed to one compute brick.
//! * [`BrickAllocator`] — per-dMEMBRICK contiguous range allocator.
//! * [`MemoryPool`] — the rack-wide software-defined memory pool the SDM
//!   controller draws from, with pluggable placement policies.
//! * [`HotplugModel`] — the cost model of Linux arm64 memory hotplug and
//!   QEMU DIMM hotplug, the mechanism the software stack uses to expose
//!   newly attached remote memory (Section IV-A/B).
//! * [`BalloonDevice`] — the revisited virtio-balloon model for elastic
//!   redistribution of guest memory.
//!
//! # Example
//!
//! ```
//! use dredbox_memory::*;
//! use dredbox_bricks::BrickId;
//! use dredbox_sim::units::ByteSize;
//!
//! let mut pool = MemoryPool::new(AllocationPolicy::FirstFit);
//! pool.register_membrick(BrickId(10), ByteSize::from_gib(32));
//! let grant = pool.allocate(BrickId(0), ByteSize::from_gib(8))?;
//! assert_eq!(grant.total(), ByteSize::from_gib(8));
//! pool.release_grant(&grant)?;
//! # Ok::<(), dredbox_memory::MemoryError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address;
mod allocator;
mod balloon;
mod error;
mod hotplug;
mod pool;
mod segment;

pub use address::{GlobalAddress, RemoteWindow};
pub use allocator::BrickAllocator;
pub use balloon::BalloonDevice;
pub use error::MemoryError;
pub use hotplug::HotplugModel;
pub use pool::{AllocationPolicy, MemoryGrant, MemoryPool, PickStrategy, GRANT_INLINE_SEGMENTS};
pub use segment::{MemorySegment, SegmentId};
