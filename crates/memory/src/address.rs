//! Global (remote) address windows.
//!
//! Each dCOMPUBRICK maps attached remote memory into an architectural window
//! above its local DDR; the Transaction Glue Logic steers accesses to that
//! window out onto the interconnect. [`RemoteWindow`] hands out
//! non-overlapping sub-ranges of the window as segments are attached.

use serde::{Deserialize, Serialize};

use dredbox_sim::flat::FlatMap;
use dredbox_sim::units::ByteSize;

use crate::error::MemoryError;

/// The base of the remote-memory window in each compute brick's physical
/// address space (32 GiB, comfortably above the brick's local DDR).
pub const REMOTE_WINDOW_BASE: u64 = 0x8_0000_0000;

/// A physical address in a compute brick's global address space.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct GlobalAddress(pub u64);

impl GlobalAddress {
    /// Offsets the address by `bytes`.
    pub fn offset(self, bytes: u64) -> GlobalAddress {
        GlobalAddress(self.0 + bytes)
    }

    /// Whether the address lies inside the remote window that starts at
    /// [`REMOTE_WINDOW_BASE`].
    pub fn is_remote(self) -> bool {
        self.0 >= REMOTE_WINDOW_BASE
    }
}

impl std::fmt::Display for GlobalAddress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A bump allocator over one compute brick's remote window.
///
/// Attach operations are long-lived and coarse (whole segments), so a simple
/// monotone carve-out with hole reuse on exact-size matches is sufficient and
/// mirrors how the prototype's glue logic is configured. A release must
/// name a range that is carved and live: below the window, past the carved
/// extent, or over a released hole, it is rejected.
///
/// ```
/// use dredbox_memory::address::{RemoteWindow, REMOTE_WINDOW_BASE};
/// use dredbox_sim::units::ByteSize;
///
/// let mut window = RemoteWindow::new(ByteSize::from_gib(64));
/// let a = window.carve(ByteSize::from_gib(8))?;
/// assert_eq!(a.0, REMOTE_WINDOW_BASE);
/// let b = window.carve(ByteSize::from_gib(4))?;
/// assert!(b.0 > a.0);
/// # Ok::<(), dredbox_memory::MemoryError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RemoteWindow {
    capacity: ByteSize,
    next_offset: u64,
    /// Released ranges grouped by size, so the exact-size reuse check on
    /// [`RemoteWindow::carve`] is a binary search over the distinct hole
    /// sizes instead of a scan of every hole — this sits on the SDM
    /// controller's attach hot path.
    holes: FlatMap<u64, Vec<u64>>,
    mapped: ByteSize,
}

impl RemoteWindow {
    /// Creates a window of `capacity` bytes starting at
    /// [`REMOTE_WINDOW_BASE`].
    pub fn new(capacity: ByteSize) -> Self {
        RemoteWindow {
            capacity,
            next_offset: 0,
            holes: FlatMap::new(),
            mapped: ByteSize::ZERO,
        }
    }

    /// Total window capacity.
    pub fn capacity(&self) -> ByteSize {
        self.capacity
    }

    /// Bytes currently mapped.
    pub fn mapped(&self) -> ByteSize {
        self.mapped
    }

    /// Carves out `size` bytes, returning the base address of the carve.
    ///
    /// # Errors
    ///
    /// * [`MemoryError::EmptyRequest`] for a zero-byte request.
    /// * [`MemoryError::OutOfMemory`] when the window is exhausted.
    pub fn carve(&mut self, size: ByteSize) -> Result<GlobalAddress, MemoryError> {
        if size.is_zero() {
            return Err(MemoryError::EmptyRequest);
        }
        // Reuse an exact-size hole left by a previous release, if any.
        if let Some(offsets) = self.holes.get_mut(&size.as_bytes()) {
            let offset = offsets.pop().expect("empty hole buckets are removed");
            if offsets.is_empty() {
                self.holes.remove(&size.as_bytes());
            }
            self.mapped += size;
            return Ok(GlobalAddress(REMOTE_WINDOW_BASE + offset));
        }
        if self.next_offset + size.as_bytes() > self.capacity.as_bytes() {
            return Err(MemoryError::OutOfMemory {
                requested: size,
                available: self.capacity - ByteSize::from_bytes(self.next_offset),
            });
        }
        let offset = self.next_offset;
        self.next_offset += size.as_bytes();
        self.mapped += size;
        Ok(GlobalAddress(REMOTE_WINDOW_BASE + offset))
    }

    /// Returns a previously carved range to the window.
    ///
    /// # Errors
    ///
    /// * [`MemoryError::EmptyRequest`] for a zero-byte release.
    /// * [`MemoryError::InvalidWindowRelease`] if the range starts below the
    ///   window, ends past the carved extent, covers more than is mapped or
    ///   overlaps a released hole (a double or never-carved release).
    ///   Nothing changes in that case.
    pub fn release(&mut self, address: GlobalAddress, size: ByteSize) -> Result<(), MemoryError> {
        if size.is_zero() {
            return Err(MemoryError::EmptyRequest);
        }
        let len = size.as_bytes();
        let carved = address
            .0
            .checked_sub(REMOTE_WINDOW_BASE)
            .and_then(|offset| Some((offset, offset.checked_add(len)?)))
            .filter(|&(_, end)| end <= self.next_offset && size <= self.mapped);
        let Some((offset, end)) = carved else {
            return Err(MemoryError::InvalidWindowRelease { address, size });
        };
        let over_hole = self.holes.iter().any(|(&hole_len, offsets)| {
            offsets
                .iter()
                .any(|&hole| hole < end && offset < hole.saturating_add(hole_len))
        });
        if over_hole {
            return Err(MemoryError::InvalidWindowRelease { address, size });
        }
        self.holes.entry(len).or_default().push(offset);
        self.mapped -= size;
        Ok(())
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_newtype!(GlobalAddress(u64));
dredbox_snap::snap_struct!(RemoteWindow {
    capacity,
    next_offset,
    holes,
    mapped,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_above_window_base_are_remote() {
        assert!(GlobalAddress(REMOTE_WINDOW_BASE).is_remote());
        assert!(GlobalAddress(REMOTE_WINDOW_BASE + 1).is_remote());
        assert!(!GlobalAddress(0x1000).is_remote());
        assert_eq!(GlobalAddress(16).offset(16), GlobalAddress(32));
        assert_eq!(GlobalAddress(0x10).to_string(), "0x10");
    }

    #[test]
    fn carve_is_monotone_and_bounded() {
        let mut w = RemoteWindow::new(ByteSize::from_gib(16));
        let a = w.carve(ByteSize::from_gib(8)).unwrap();
        let b = w.carve(ByteSize::from_gib(8)).unwrap();
        assert_eq!(a.0, REMOTE_WINDOW_BASE);
        assert_eq!(b.0, REMOTE_WINDOW_BASE + (8 << 30));
        assert_eq!(w.mapped(), ByteSize::from_gib(16));
        assert!(matches!(
            w.carve(ByteSize::from_gib(1)),
            Err(MemoryError::OutOfMemory { .. })
        ));
        assert!(matches!(
            w.carve(ByteSize::ZERO),
            Err(MemoryError::EmptyRequest)
        ));
    }

    #[test]
    fn released_holes_are_reused_for_equal_sizes() {
        let mut w = RemoteWindow::new(ByteSize::from_gib(8));
        let a = w.carve(ByteSize::from_gib(4)).unwrap();
        let _b = w.carve(ByteSize::from_gib(4)).unwrap();
        w.release(a, ByteSize::from_gib(4)).unwrap();
        assert_eq!(w.mapped(), ByteSize::from_gib(4));
        // Window is "full" by the bump pointer, but the hole is reusable.
        let c = w.carve(ByteSize::from_gib(4)).unwrap();
        assert_eq!(c, a);
        assert_eq!(w.mapped(), ByteSize::from_gib(8));
        assert!(matches!(
            w.release(c, ByteSize::ZERO),
            Err(MemoryError::EmptyRequest)
        ));
    }

    #[test]
    fn releases_outside_the_carved_live_ranges_are_rejected() {
        const GIB: u64 = 1 << 30;
        let mut w = RemoteWindow::new(ByteSize::from_gib(16));
        let a = w.carve(ByteSize::from_gib(4)).unwrap();
        let b = w.carve(ByteSize::from_gib(4)).unwrap();
        let before = w.clone();
        let invalid = |w: &mut RemoteWindow, address: u64, gib: u64| {
            let (address, size) = (GlobalAddress(address), ByteSize::from_gib(gib));
            assert_eq!(
                w.release(address, size),
                Err(MemoryError::InvalidWindowRelease { address, size })
            );
        };
        // Below the window: the unchecked subtraction used to panic in
        // debug builds and wrap in release builds.
        invalid(&mut w, 0x1000, 1);
        invalid(&mut w, REMOTE_WINDOW_BASE - GIB, 2);
        // Past the carved extent, past capacity, and wrapping past u64::MAX.
        invalid(&mut w, REMOTE_WINDOW_BASE + 8 * GIB, 1);
        invalid(&mut w, REMOTE_WINDOW_BASE + 6 * GIB, 4);
        invalid(&mut w, REMOTE_WINDOW_BASE + 15 * GIB, 4);
        invalid(&mut w, u64::MAX - GIB, 4);
        assert_eq!(w, before, "rejected releases change nothing");

        // A released range cannot be released again, whole or in part.
        w.release(a, ByteSize::from_gib(4)).unwrap();
        invalid(&mut w, a.0, 4);
        invalid(&mut w, a.0 + GIB, 1);
        // Nor can more be released than is mapped.
        invalid(&mut w, a.0, 8);
        // Legal releases still work, and the holes are reused.
        w.release(b, ByteSize::from_gib(4)).unwrap();
        assert_eq!(w.mapped(), ByteSize::ZERO);
        assert_eq!(w.carve(ByteSize::from_gib(4)).unwrap(), b);
    }

    #[test]
    fn capacity_is_reported() {
        let w = RemoteWindow::new(ByteSize::from_gib(64));
        assert_eq!(w.capacity(), ByteSize::from_gib(64));
        assert_eq!(w.mapped(), ByteSize::ZERO);
    }
}
