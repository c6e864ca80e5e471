//! Racks: collections of trays interconnected by the optical network.

use serde::{Deserialize, Serialize};

use dredbox_sim::units::{ByteSize, Watts};

use crate::id::{BrickId, BrickKind, RackId, TrayId};
use crate::tray::{Brick, Tray};

/// A rack of dReDBox trays.
///
/// ```
/// use dredbox_bricks::{Catalog, BrickKind};
///
/// let rack = Catalog::prototype().build_rack(4, 2, 2, 1);
/// assert_eq!(rack.trays().len(), 4);
/// assert_eq!(rack.brick_count(BrickKind::Compute), 8);
/// assert!(rack.total_memory_pool().as_gib() > 0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Rack {
    id: RackId,
    trays: Vec<Tray>,
    /// Exact `(tray, slot)` of every brick, indexed by `id - hint_base`, so
    /// the per-event [`Rack::brick_mut`] calls of a rack-scale replay are
    /// two array indexes checked by one id compare. Purely an accelerator:
    /// a stale hint (a brick unplugged through [`Rack::trays_mut`]) falls
    /// back to a full scan, which refreshes it.
    #[serde(skip)]
    hints: Vec<(u32, u32)>,
    #[serde(skip)]
    hint_base: u32,
}

/// The hint of an id no brick has been seen at.
const NO_HINT: (u32, u32) = (u32::MAX, u32::MAX);

/// Hints are derived state; rack equality is the trays' contents.
impl PartialEq for Rack {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id && self.trays == other.trays
    }
}

impl Rack {
    /// Creates an empty rack.
    pub fn new(id: RackId) -> Self {
        Rack::with_trays(id, Vec::new())
    }

    fn with_trays(id: RackId, trays: Vec<Tray>) -> Self {
        let mut rack = Rack {
            id,
            trays,
            hints: Vec::new(),
            hint_base: 0,
        };
        rack.rebuild_hints();
        rack
    }

    /// Recomputes every hint from the trays' current contents. Catalog
    /// racks number their bricks contiguously; a rack whose ids are too
    /// sparse to index densely (only a hand-built or hostile one) keeps no
    /// hints and every lookup scans.
    fn rebuild_hints(&mut self) {
        self.hints.clear();
        let ids = || self.bricks().map(|b| b.id().0);
        let (Some(lo), Some(hi)) = (ids().min(), ids().max()) else {
            return;
        };
        if (hi - lo) as usize > 4 * ids().count() + 1024 {
            return;
        }
        self.hint_base = lo;
        self.hints = vec![NO_HINT; (hi - lo) as usize + 1];
        for (t, tray) in self.trays.iter().enumerate() {
            for (slot, brick) in tray.bricks().iter().enumerate() {
                self.hints[(brick.id().0 - lo) as usize] = (t as u32, slot as u32);
            }
        }
    }

    /// The hinted `(tray, slot)` of `id`, unchecked.
    fn hint(&self, id: BrickId) -> (usize, usize) {
        let (t, s) =
            id.0.checked_sub(self.hint_base)
                .and_then(|i| self.hints.get(i as usize))
                .copied()
                .unwrap_or(NO_HINT);
        (t as usize, s as usize)
    }

    /// Where `id` sits: the hint when it holds, else a full scan.
    fn locate(&self, id: BrickId) -> Option<(usize, usize)> {
        let (t, s) = self.hint(id);
        let hinted = self.trays.get(t).and_then(|tray| tray.bricks().get(s));
        if hinted.is_some_and(|b| b.id() == id) {
            return Some((t, s));
        }
        self.scan(id)
    }

    fn scan(&self, id: BrickId) -> Option<(usize, usize)> {
        self.trays.iter().enumerate().find_map(|(t, tray)| {
            let s = tray.bricks().iter().position(|b| b.id() == id)?;
            Some((t, s))
        })
    }

    /// Rack identifier.
    pub fn id(&self) -> RackId {
        self.id
    }

    /// Adds a tray to the rack. Catalog racks number bricks upwards tray
    /// by tray, so the new tray's hints usually just extend the table;
    /// anything else re-derives it.
    pub fn add_tray(&mut self, tray: Tray) {
        let t = self.trays.len();
        let base = self.hint_base;
        let extends = !self.hints.is_empty()
            && tray.bricks().iter().all(|b| {
                b.id()
                    .0
                    .checked_sub(base)
                    .is_some_and(|i| (i as usize) < self.hints.len() + 1024)
            });
        self.trays.push(tray);
        if !extends {
            self.rebuild_hints();
            return;
        }
        for (slot, brick) in self.trays[t].bricks().iter().enumerate() {
            let i = (brick.id().0 - base) as usize;
            if i >= self.hints.len() {
                self.hints.resize(i + 1, NO_HINT);
            }
            self.hints[i] = (t as u32, slot as u32);
        }
    }

    /// All trays.
    pub fn trays(&self) -> &[Tray] {
        &self.trays
    }

    /// Mutable iterator over trays.
    pub fn trays_mut(&mut self) -> impl Iterator<Item = &mut Tray> {
        self.trays.iter_mut()
    }

    /// Looks up a tray by identifier.
    pub fn tray(&self, id: TrayId) -> Option<&Tray> {
        self.trays.iter().find(|t| t.id() == id)
    }

    /// Iterates over every brick in the rack.
    pub fn bricks(&self) -> impl Iterator<Item = &Brick> {
        self.trays.iter().flat_map(|t| t.bricks().iter())
    }

    /// Iterates mutably over every brick in the rack.
    pub fn bricks_mut(&mut self) -> impl Iterator<Item = &mut Brick> {
        self.trays.iter_mut().flat_map(|t| t.bricks_mut())
    }

    /// Finds a brick anywhere in the rack.
    pub fn brick(&self, id: BrickId) -> Option<&Brick> {
        let (t, s) = self.locate(id)?;
        self.trays[t].bricks().get(s)
    }

    /// Finds a brick mutably anywhere in the rack; a lookup that missed its
    /// hint (the layout moved) re-derives the hints.
    pub fn brick_mut(&mut self, id: BrickId) -> Option<&mut Brick> {
        let (t, s) = self.locate(id)?;
        if self.hint(id) != (t, s) && !self.hints.is_empty() {
            self.rebuild_hints();
        }
        self.trays[t].brick_at_mut(s)
    }

    /// Number of bricks of a given kind in the rack.
    pub fn brick_count(&self, kind: BrickKind) -> usize {
        self.bricks().filter(|b| b.kind() == kind).count()
    }

    /// Identifiers of every brick of a given kind.
    pub fn brick_ids(&self, kind: BrickKind) -> Vec<BrickId> {
        self.bricks()
            .filter(|b| b.kind() == kind)
            .map(|b| b.id())
            .collect()
    }

    /// Aggregate dMEMBRICK pool capacity in the rack.
    pub fn total_memory_pool(&self) -> ByteSize {
        self.trays.iter().map(|t| t.total_memory_pool()).sum()
    }

    /// Aggregate dCOMPUBRICK cores in the rack.
    pub fn total_cores(&self) -> u32 {
        self.trays.iter().map(|t| t.total_cores()).sum()
    }

    /// Current electrical draw of all bricks in the rack.
    pub fn power_draw(&self) -> Watts {
        self.trays.iter().map(|t| t.power_draw()).sum()
    }

    /// Number of bricks that hold no allocation (candidates for power-off).
    pub fn unused_brick_count(&self, kind: BrickKind) -> usize {
        self.bricks()
            .filter(|b| b.kind() == kind && b.is_unused())
            .count()
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`). Hints are a
// derived accelerator excluded from equality, so they are not encoded; a
// restored rack rebuilds them from its trays.
impl dredbox_snap::Snap for Rack {
    fn snap(&self, out: &mut Vec<u8>) {
        dredbox_snap::Snap::snap(&self.id, out);
        dredbox_snap::Snap::snap(&self.trays, out);
    }
    fn unsnap(r: &mut dredbox_snap::Reader<'_>) -> Result<Self, dredbox_snap::SnapError> {
        let id = dredbox_snap::Snap::unsnap(r)?;
        let trays = dredbox_snap::Snap::unsnap(r)?;
        Ok(Rack::with_trays(id, trays))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;

    fn rack() -> Rack {
        Catalog::prototype().build_rack(2, 2, 2, 1)
    }

    #[test]
    fn construction_counts() {
        let r = rack();
        assert_eq!(r.trays().len(), 2);
        assert_eq!(r.brick_count(BrickKind::Compute), 4);
        assert_eq!(r.brick_count(BrickKind::Memory), 4);
        assert_eq!(r.brick_count(BrickKind::Accelerator), 2);
        assert_eq!(r.bricks().count(), 10);
        assert_eq!(r.brick_ids(BrickKind::Compute).len(), 4);
        assert!(r.total_cores() > 0);
        assert!(r.total_memory_pool().as_gib() > 0);
        assert!(r.power_draw().as_watts() > 0.0);
    }

    #[test]
    fn brick_and_tray_lookups() {
        let r = rack();
        let compute_ids = r.brick_ids(BrickKind::Compute);
        let first = compute_ids[0];
        assert!(r.brick(first).is_some());
        assert!(r.brick(BrickId(10_000)).is_none());
        assert!(r.tray(TrayId(0)).is_some());
        assert!(r.tray(TrayId(9)).is_none());
    }

    #[test]
    fn lookups_survive_unplugging_and_sparse_ids() {
        let mut r = rack();
        let ids: Vec<BrickId> = r.bricks().map(|b| b.id()).collect();
        // Unplugging the first brick shifts every slot after it.
        let gone = ids[0];
        r.trays_mut().next().unwrap().unplug(gone).unwrap();
        assert!(r.brick(gone).is_none());
        for &id in &ids[1..] {
            assert_eq!(r.brick_mut(id).map(|b| b.id()), Some(id));
            assert_eq!(r.brick(id).map(|b| b.id()), Some(id));
        }

        let catalog = Catalog::prototype();
        let mut sparse = Rack::new(RackId(1));
        let mut tray = Tray::new(TrayId(0));
        tray.plug(catalog.compute_brick(BrickId(0)).into());
        tray.plug(catalog.memory_brick(BrickId(u32::MAX)).into());
        sparse.add_tray(tray);
        assert!(sparse.hints.is_empty());
        assert!(sparse.brick_mut(BrickId(u32::MAX)).is_some());
        assert!(sparse.brick(BrickId(0)).is_some());
        assert!(sparse.brick(BrickId(7)).is_none());
    }

    #[test]
    fn unused_counts_update_with_allocations() {
        let mut r = rack();
        assert_eq!(r.unused_brick_count(BrickKind::Compute), 4);
        let id = r.brick_ids(BrickKind::Compute)[0];
        r.brick_mut(id)
            .unwrap()
            .as_compute_mut()
            .unwrap()
            .allocate_cores(1)
            .unwrap();
        assert_eq!(r.unused_brick_count(BrickKind::Compute), 3);
    }
}
