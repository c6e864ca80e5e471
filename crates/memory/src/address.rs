//! Global (remote) address windows.
//!
//! Each dCOMPUBRICK maps attached remote memory into an architectural window
//! above its local DDR; the Transaction Glue Logic steers accesses to that
//! window out onto the interconnect. [`RemoteWindow`] hands out
//! non-overlapping sub-ranges of the window as segments are attached.

use serde::{Deserialize, Serialize};

use dredbox_sim::units::ByteSize;
use dredbox_snap::{Reader, Snap, SnapError};

use crate::error::MemoryError;

/// The base of the remote-memory window in each compute brick's physical
/// address space (32 GiB, comfortably above the brick's local DDR).
const REMOTE_WINDOW_BASE: u64 = 0x8_0000_0000;

/// A physical address in a compute brick's global address space.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct GlobalAddress(pub u64);

impl GlobalAddress {
    /// Offsets the address by `bytes`.
    #[cfg(test)]
    pub(crate) fn offset(self, bytes: u64) -> GlobalAddress {
        GlobalAddress(self.0 + bytes)
    }

    /// Whether the address lies inside the remote window that starts at
    /// [`REMOTE_WINDOW_BASE`].
    #[cfg(test)]
    pub(crate) fn is_remote(self) -> bool {
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
/// use dredbox_memory::RemoteWindow;
/// use dredbox_sim::units::ByteSize;
///
/// let mut window = RemoteWindow::new(ByteSize::from_gib(64));
/// let a = window.carve(ByteSize::from_gib(8))?;
/// let b = window.carve(ByteSize::from_gib(4))?;
/// assert!(b.0 > a.0);
/// # Ok::<(), dredbox_memory::MemoryError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RemoteWindow {
    capacity: ByteSize,
    next_offset: u64,
    /// Released ranges as `(len, offset)`, sorted by length and in release
    /// order within a length, all in one allocation: the exact-size reuse
    /// on [`RemoteWindow::carve`] is a binary search and the overlap check
    /// on [`RemoteWindow::release`] one branch-free fold. Both sit on the
    /// SDM agent's attach/detach path; a release sees about 12 holes on
    /// average on the `fed64` benchmark workload and 55 on `rack`.
    holes: Vec<(u64, u64)>,
    mapped: ByteSize,
}

impl RemoteWindow {
    /// Creates a window of `capacity` bytes starting at
    /// `REMOTE_WINDOW_BASE` (32 GiB).
    pub fn new(capacity: ByteSize) -> Self {
        RemoteWindow {
            capacity,
            next_offset: 0,
            holes: Vec::new(),
            mapped: ByteSize::ZERO,
        }
    }

    /// Total window capacity.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> ByteSize {
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
        // Reuse the most recently released hole of exactly this size: the
        // last one of its length.
        let len = size.as_bytes();
        let after = self.holes.partition_point(|&(hole_len, _)| hole_len <= len);
        if after > 0 && self.holes[after - 1].0 == len {
            let (_, offset) = self.holes.remove(after - 1);
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
        if overlaps_hole(&self.holes, offset, end) {
            return Err(MemoryError::InvalidWindowRelease { address, size });
        }
        let at = self.holes.partition_point(|&(hole_len, _)| hole_len <= len);
        self.holes.insert(at, (len, offset));
        self.mapped -= size;
        Ok(())
    }
}

/// Whether `[offset, end)` overlaps one of the `(len, offset)` holes. A
/// fold with neither an early exit nor a branch per hole: a release is
/// legal far more often than not, so the scan runs to the end anyway, and
/// as straight-line compares it pays no per-hole branch.
fn overlaps_hole(holes: &[(u64, u64)], offset: u64, end: u64) -> bool {
    holes.iter().fold(false, |hit, &(len, hole)| {
        hit | ((hole < end) & (offset < hole.saturating_add(len)))
    })
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_newtype!(GlobalAddress(u64));

/// The holes are written grouped by length, ascending — a `len → [offsets]`
/// map with each group's offsets in release order. Decoding rejects with
/// [`SnapError::Inconsistent`] an empty or out-of-order group, a hole that
/// is empty, outside `[0, next_offset)` or over another one, a carved
/// extent past the capacity, and `mapped + Σ hole lengths ≠ next_offset`,
/// so a decoded window carves and releases like the one that was saved.
impl Snap for RemoteWindow {
    fn snap(&self, out: &mut Vec<u8>) {
        self.capacity.snap(out);
        self.next_offset.snap(out);
        // Grouped by hand: `slice::chunk_by` needs Rust 1.77.
        let groups = self.holes.windows(2).filter(|w| w[0].0 != w[1].0).count()
            + usize::from(!self.holes.is_empty());
        groups.snap(out);
        let mut rest = self.holes.as_slice();
        while let Some(&(len, _)) = rest.first() {
            let (group, tail) = rest.split_at(rest.partition_point(|&(l, _)| l == len));
            len.snap(out);
            dredbox_snap::snap_seq(group.len(), group.iter().map(|&(_, offset)| offset), out);
            rest = tail;
        }
        self.mapped.snap(out);
    }

    fn unsnap(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let inconsistent = SnapError::Inconsistent { ty: "RemoteWindow" };
        let capacity = ByteSize::unsnap(r)?;
        let next_offset = u64::unsnap(r)?;
        let mut holes: Vec<(u64, u64)> = Vec::new();
        for _ in 0..r.take_len()? {
            let len = u64::unsnap(r)?;
            let offsets = Vec::<u64>::unsnap(r)?;
            let ascending = holes.last().map_or(len > 0, |&(prev, _)| prev < len);
            if !ascending || offsets.is_empty() {
                return Err(inconsistent);
            }
            holes.extend(offsets.into_iter().map(|offset| (len, offset)));
        }
        let mapped = ByteSize::unsnap(r)?;

        let mut spans: Vec<(u64, u64)> = Vec::with_capacity(holes.len());
        for &(len, offset) in &holes {
            match offset.checked_add(len) {
                Some(end) if end <= next_offset => spans.push((offset, end)),
                _ => return Err(inconsistent),
            }
        }
        spans.sort_unstable();
        let disjoint = spans.windows(2).all(|w| w[0].1 <= w[1].0);
        let accounted = holes
            .iter()
            .try_fold(mapped.as_bytes(), |sum, &(len, _)| sum.checked_add(len));
        if !disjoint || accounted != Some(next_offset) || next_offset > capacity.as_bytes() {
            return Err(inconsistent);
        }
        Ok(RemoteWindow {
            capacity,
            next_offset,
            holes,
            mapped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dredbox_sim::flat::FlatMap;

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

    /// A window stream built field by field, `groups` as `len → offsets`.
    fn window_bytes(capacity: u64, next: u64, groups: &[(u64, &[u64])], mapped: u64) -> Vec<u8> {
        let mut out = Vec::new();
        capacity.snap(&mut out);
        next.snap(&mut out);
        groups.len().snap(&mut out);
        for &(len, offsets) in groups {
            len.snap(&mut out);
            offsets.to_vec().snap(&mut out);
        }
        mapped.snap(&mut out);
        out
    }

    fn decode(bytes: &[u8]) -> Result<RemoteWindow, SnapError> {
        RemoteWindow::unsnap(&mut Reader::new(bytes))
    }

    #[test]
    fn snapshot_groups_holes_by_length_in_release_order() {
        const GIB: u64 = 1 << 30;
        let mut w = RemoteWindow::new(ByteSize::from_gib(64));
        let carved: Vec<(GlobalAddress, u64)> = [2, 1, 2, 4, 1, 2]
            .iter()
            .map(|&gib| (w.carve(ByteSize::from_gib(gib)).unwrap(), gib))
            .collect();
        for &i in &[2, 4, 0, 1] {
            let (address, gib) = carved[i];
            w.release(address, ByteSize::from_gib(gib)).unwrap();
        }
        let mut bytes = Vec::new();
        w.snap(&mut bytes);
        let expected = window_bytes(
            64 * GIB,
            12 * GIB,
            &[(GIB, &[9 * GIB, 2 * GIB]), (2 * GIB, &[3 * GIB, 0])],
            6 * GIB,
        );
        assert_eq!(bytes, expected);
        let mut back = decode(&bytes).unwrap();
        assert_eq!(back, w);
        // The most recently released hole of a size is reused first.
        assert_eq!(
            back.carve(ByteSize::from_gib(2)).unwrap().0,
            REMOTE_WINDOW_BASE
        );
        assert_eq!(
            back.carve(ByteSize::from_gib(1)).unwrap().0,
            REMOTE_WINDOW_BASE + 2 * GIB
        );
    }

    #[test]
    fn decoding_rejects_holes_the_window_could_not_have_made() {
        const GIB: u64 = 1 << 30;
        // One 1-GiB hole at 0 below a 2-GiB carved extent: 56 bytes.
        let valid = window_bytes(16 * GIB, 2 * GIB, &[(GIB, &[0])], GIB);
        assert_eq!(valid.len(), 56);
        assert!(decode(&valid).is_ok());
        let inconsistent = Err(SnapError::Inconsistent { ty: "RemoteWindow" });
        // `holes: {1 GiB: []}` with the bytes still adding up. This used to
        // decode, and the next 1-GiB carve panicked on the empty group.
        let empty_group = window_bytes(16 * GIB, 2 * GIB, &[(GIB, &[])], 2 * GIB);
        assert_eq!(decode(&empty_group), inconsistent);
        // A hole past the carved extent, or wrapping past `u64::MAX`.
        let outside = window_bytes(16 * GIB, 2 * GIB, &[(GIB, &[2 * GIB])], GIB);
        assert_eq!(decode(&outside), inconsistent);
        let wrapping = window_bytes(16 * GIB, 2 * GIB, &[(GIB, &[u64::MAX])], GIB);
        assert_eq!(decode(&wrapping), inconsistent);
        // Two holes over the same bytes.
        let overlap = window_bytes(16 * GIB, 2 * GIB, &[(GIB, &[0]), (2 * GIB, &[0])], 0);
        assert_eq!(decode(&overlap), inconsistent);
        let duplicate = window_bytes(16 * GIB, 2 * GIB, &[(GIB, &[0, 0])], 0);
        assert_eq!(decode(&duplicate), inconsistent);
        // `mapped + Σ hole lengths ≠ next_offset`.
        let unaccounted = window_bytes(16 * GIB, 2 * GIB, &[(GIB, &[0])], 2 * GIB);
        assert_eq!(decode(&unaccounted), inconsistent);
        // Groups out of order, an empty hole, an extent past capacity.
        let unordered = window_bytes(16 * GIB, 3 * GIB, &[(2 * GIB, &[0]), (GIB, &[2 * GIB])], 0);
        assert_eq!(decode(&unordered), inconsistent);
        let empty_hole = window_bytes(16 * GIB, 2 * GIB, &[(0, &[0])], 2 * GIB);
        assert_eq!(decode(&empty_hole), inconsistent);
        let overfull = window_bytes(GIB, 2 * GIB, &[], 2 * GIB);
        assert_eq!(decode(&overfull), inconsistent);
    }

    #[test]
    fn capacity_is_reported() {
        let w = RemoteWindow::new(ByteSize::from_gib(64));
        assert_eq!(w.capacity(), ByteSize::from_gib(64));
        assert_eq!(w.mapped(), ByteSize::ZERO);
    }

    /// The window with its holes in a size-keyed `len → [offsets]` map, the
    /// layout before the flat hole list: the oracle for the proptest below.
    struct MapWindow {
        capacity: ByteSize,
        next_offset: u64,
        holes: FlatMap<u64, Vec<u64>>,
        mapped: ByteSize,
    }

    impl MapWindow {
        fn carve(&mut self, size: ByteSize) -> Result<GlobalAddress, MemoryError> {
            if size.is_zero() {
                return Err(MemoryError::EmptyRequest);
            }
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

        fn release(&mut self, address: GlobalAddress, size: ByteSize) -> Result<(), MemoryError> {
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

        fn bytes(&self) -> Vec<u8> {
            let mut out = Vec::new();
            self.capacity.snap(&mut out);
            self.next_offset.snap(&mut out);
            self.holes.snap(&mut out);
            self.mapped.snap(&mut out);
            out
        }
    }

    proptest::proptest! {
        /// The fold rejects exactly what the short-circuiting `any` over
        /// the holes rejected, for ranges that start or end on a hole's
        /// edge or one byte either side, and for holes whose end
        /// saturates at `u64::MAX`.
        #[test]
        fn overlap_fold_matches_the_short_circuit_scan(
            raw in proptest::collection::vec((0u64..u64::MAX, 0u64..4096, 0u32..3), 0..70),
            probes in proptest::collection::vec((0usize..1 << 16, 0u32..6, 0u64..8192), 1..40),
        ) {
            let holes: Vec<(u64, u64)> = raw
                .iter()
                .map(|&(at, len, kind)| match kind {
                    // Near the top of the address space: `hole + len` saturates.
                    0 => (len + 1, u64::MAX - len / 2),
                    1 => (len + 1, at),
                    _ => (len + 1, at % 65_536),
                })
                .collect();
            let any = |offset: u64, end: u64| {
                holes
                    .iter()
                    .any(|&(len, hole)| hole < end && offset < hole.saturating_add(len))
            };
            for (pick, edge, len) in probes {
                let (offset, end) = match holes.get(pick % holes.len().max(1)) {
                    Some(&(hole_len, hole)) => {
                        let hole_end = hole.saturating_add(hole_len);
                        match edge {
                            // Ending on, just before or just after the start.
                            0 => (hole.saturating_sub(len), hole),
                            1 => (hole.saturating_sub(len + 1), hole.saturating_sub(1)),
                            2 => (hole.saturating_sub(len), hole.saturating_add(1)),
                            // Starting on, just before or just after the end.
                            3 => (hole_end, hole_end.saturating_add(len)),
                            4 => (hole_end.saturating_sub(1), hole_end.saturating_add(len)),
                            _ => (hole_end.saturating_add(1), hole_end.saturating_add(len + 1)),
                        }
                    }
                    None => (len, len.saturating_mul(2)),
                };
                proptest::prop_assert_eq!(overlaps_hole(&holes, offset, end), any(offset, end));
            }
        }

        /// Random carves and releases — live, partial, repeated and
        /// never-carved ones — give the same results, addresses and
        /// snapshot bytes on the flat hole list as on the size-keyed map.
        #[test]
        fn flat_holes_match_the_size_keyed_map(
            ops in proptest::collection::vec((0u8..4, 1u64..7, 0u64..96), 1..120),
        ) {
            const HALF_GIB: u64 = 1 << 29;
            let capacity = ByteSize::from_gib(40);
            let mut flat = RemoteWindow::new(capacity);
            let mut oracle = MapWindow {
                capacity,
                next_offset: 0,
                holes: FlatMap::new(),
                mapped: ByteSize::ZERO,
            };
            let mut live: Vec<(GlobalAddress, ByteSize)> = Vec::new();
            for (op, units, pick) in ops {
                match op {
                    0 | 1 => {
                        let size = ByteSize::from_bytes(units * HALF_GIB);
                        let carved = flat.carve(size);
                        proptest::prop_assert_eq!(&carved, &oracle.carve(size));
                        if let Ok(address) = carved {
                            live.push((address, size));
                        }
                    }
                    2 if !live.is_empty() => {
                        let (address, size) = live.swap_remove(pick as usize % live.len());
                        proptest::prop_assert_eq!(
                            flat.release(address, size),
                            oracle.release(address, size)
                        );
                    }
                    _ => {
                        let address = GlobalAddress(REMOTE_WINDOW_BASE + pick * HALF_GIB);
                        let size = ByteSize::from_bytes((units - 1) * HALF_GIB);
                        proptest::prop_assert_eq!(
                            flat.release(address, size),
                            oracle.release(address, size)
                        );
                    }
                }
                proptest::prop_assert_eq!(flat.mapped(), oracle.mapped);
                let mut bytes = Vec::new();
                flat.snap(&mut bytes);
                proptest::prop_assert_eq!(&bytes, &oracle.bytes());
                proptest::prop_assert_eq!(&decode(&bytes).expect("own bytes decode"), &flat);
            }
        }
    }
}
