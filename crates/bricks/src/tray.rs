//! Trays: the hot-pluggable carrier of bricks (Figure 1 of the paper).
//!
//! Bricks on the same tray communicate over a low-latency electrical circuit;
//! cross-tray traffic leaves the tray over the optical network.

use serde::{Deserialize, Serialize};

use dredbox_sim::units::{ByteSize, Watts};

use crate::accel::AcceleratorBrick;
use crate::compute::ComputeBrick;
#[cfg(test)]
use crate::error::BrickError;
use crate::id::{BrickId, BrickKind, TrayId};
use crate::memory_brick::MemoryBrick;

/// Any of the three brick types, as plugged into a tray slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Brick {
    /// A dCOMPUBRICK.
    Compute(ComputeBrick),
    /// A dMEMBRICK.
    Memory(MemoryBrick),
    /// A dACCELBRICK.
    Accelerator(AcceleratorBrick),
}

impl Brick {
    /// The brick's identifier.
    pub fn id(&self) -> BrickId {
        match self {
            Brick::Compute(b) => b.id(),
            Brick::Memory(b) => b.id(),
            Brick::Accelerator(b) => b.id(),
        }
    }

    /// The brick's kind.
    pub fn kind(&self) -> BrickKind {
        match self {
            Brick::Compute(_) => BrickKind::Compute,
            Brick::Memory(_) => BrickKind::Memory,
            Brick::Accelerator(_) => BrickKind::Accelerator,
        }
    }

    /// Current electrical draw.
    pub(crate) fn power_draw(&self) -> Watts {
        match self {
            Brick::Compute(b) => b.power_draw(),
            Brick::Memory(b) => b.power_draw(),
            Brick::Accelerator(b) => b.power_draw(),
        }
    }

    /// Whether the brick holds no allocation and could be powered off.
    pub fn is_unused(&self) -> bool {
        match self {
            Brick::Compute(b) => b.is_unused(),
            Brick::Memory(b) => b.is_unused(),
            Brick::Accelerator(b) => b.is_unused(),
        }
    }

    /// The compute brick inside, if this is one.
    pub fn as_compute(&self) -> Option<&ComputeBrick> {
        match self {
            Brick::Compute(b) => Some(b),
            _ => None,
        }
    }

    /// Mutable compute brick inside, if this is one.
    pub fn as_compute_mut(&mut self) -> Option<&mut ComputeBrick> {
        match self {
            Brick::Compute(b) => Some(b),
            _ => None,
        }
    }

    /// The memory brick inside, if this is one.
    pub fn as_memory(&self) -> Option<&MemoryBrick> {
        match self {
            Brick::Memory(b) => Some(b),
            _ => None,
        }
    }

    /// Mutable memory brick inside, if this is one.
    pub fn as_memory_mut(&mut self) -> Option<&mut MemoryBrick> {
        match self {
            Brick::Memory(b) => Some(b),
            _ => None,
        }
    }

    /// The accelerator brick inside, if this is one.
    pub fn as_accelerator(&self) -> Option<&AcceleratorBrick> {
        match self {
            Brick::Accelerator(b) => Some(b),
            _ => None,
        }
    }

    /// Mutable accelerator brick inside, if this is one.
    pub fn as_accelerator_mut(&mut self) -> Option<&mut AcceleratorBrick> {
        match self {
            Brick::Accelerator(b) => Some(b),
            _ => None,
        }
    }
}

impl From<ComputeBrick> for Brick {
    fn from(b: ComputeBrick) -> Self {
        Brick::Compute(b)
    }
}

impl From<MemoryBrick> for Brick {
    fn from(b: MemoryBrick) -> Self {
        Brick::Memory(b)
    }
}

impl From<AcceleratorBrick> for Brick {
    fn from(b: AcceleratorBrick) -> Self {
        Brick::Accelerator(b)
    }
}

/// A tray of hot-pluggable bricks.
///
/// ```
/// use dredbox_bricks::{Catalog, BrickKind, BrickId, Tray};
/// use dredbox_bricks::TrayId;
///
/// let catalog = Catalog::prototype();
/// let mut tray = Tray::new(TrayId(0));
/// tray.plug(catalog.compute_brick(BrickId(0)).into());
/// tray.plug(catalog.memory_brick(BrickId(1)).into());
/// assert_eq!(tray.brick_count(BrickKind::Compute), 1);
/// assert_eq!(tray.total_memory_pool().as_gib(), catalog.memory_brick(BrickId(9)).capacity().as_gib());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tray {
    id: TrayId,
    bricks: Vec<Brick>,
}

impl Tray {
    /// Creates an empty tray.
    pub fn new(id: TrayId) -> Self {
        Tray {
            id,
            bricks: Vec::new(),
        }
    }

    /// Tray identifier.
    #[cfg(test)]
    pub(crate) fn id(&self) -> TrayId {
        self.id
    }

    /// Plugs a brick into the tray (hot-plug).
    pub fn plug(&mut self, brick: Brick) {
        self.bricks.push(brick);
    }

    /// Unplugs a brick by identifier, returning it.
    ///
    /// # Errors
    ///
    /// Returns [`BrickError::NoSuchBrick`] if the brick is not on this tray.
    #[cfg(test)]
    pub(crate) fn unplug(&mut self, id: BrickId) -> Result<Brick, BrickError> {
        let pos = self
            .bricks
            .iter()
            .position(|b| b.id() == id)
            .ok_or(BrickError::NoSuchBrick { brick: id })?;
        Ok(self.bricks.remove(pos))
    }

    /// All bricks on the tray.
    pub(crate) fn bricks(&self) -> &[Brick] {
        &self.bricks
    }

    /// Mutable iterator over the tray's bricks.
    pub(crate) fn bricks_mut(&mut self) -> impl Iterator<Item = &mut Brick> {
        self.bricks.iter_mut()
    }

    /// Looks up a brick by identifier.
    #[cfg(test)]
    pub(crate) fn brick(&self, id: BrickId) -> Option<&Brick> {
        self.bricks.iter().find(|b| b.id() == id)
    }

    /// Looks up a brick mutably by identifier.
    #[cfg(test)]
    pub(crate) fn brick_mut(&mut self, id: BrickId) -> Option<&mut Brick> {
        self.bricks.iter_mut().find(|b| b.id() == id)
    }

    /// The brick at position `slot` of the tray, mutably.
    pub(crate) fn brick_at_mut(&mut self, slot: usize) -> Option<&mut Brick> {
        self.bricks.get_mut(slot)
    }

    /// Number of bricks of a given kind on the tray.
    pub fn brick_count(&self, kind: BrickKind) -> usize {
        self.bricks.iter().filter(|b| b.kind() == kind).count()
    }

    /// Aggregate memory pool of all dMEMBRICKs on the tray.
    pub fn total_memory_pool(&self) -> ByteSize {
        self.bricks
            .iter()
            .filter_map(|b| b.as_memory())
            .map(|m| m.capacity())
            .sum()
    }

    /// Aggregate compute cores of all dCOMPUBRICKs on the tray.
    #[cfg(test)]
    pub(crate) fn total_cores(&self) -> u32 {
        self.bricks
            .iter()
            .filter_map(|b| b.as_compute())
            .map(|c| c.spec().apu_cores)
            .sum()
    }

    /// Current electrical draw of the whole tray.
    pub(crate) fn power_draw(&self) -> Watts {
        self.bricks.iter().map(|b| b.power_draw()).sum()
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
impl dredbox_snap::Snap for Brick {
    fn snap(&self, out: &mut Vec<u8>) {
        match self {
            Brick::Compute(b) => {
                out.push(0);
                dredbox_snap::Snap::snap(b, out);
            }
            Brick::Memory(b) => {
                out.push(1);
                dredbox_snap::Snap::snap(b, out);
            }
            Brick::Accelerator(b) => {
                out.push(2);
                dredbox_snap::Snap::snap(b, out);
            }
        }
    }
    fn unsnap(r: &mut dredbox_snap::Reader<'_>) -> Result<Self, dredbox_snap::SnapError> {
        match <u8 as dredbox_snap::Snap>::unsnap(r)? {
            0 => Ok(Brick::Compute(dredbox_snap::Snap::unsnap(r)?)),
            1 => Ok(Brick::Memory(dredbox_snap::Snap::unsnap(r)?)),
            2 => Ok(Brick::Accelerator(dredbox_snap::Snap::unsnap(r)?)),
            tag => Err(dredbox_snap::SnapError::Tag { ty: "Brick", tag }),
        }
    }
}
dredbox_snap::snap_struct!(Tray { id, bricks });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;

    fn tray_with_bricks() -> Tray {
        let catalog = Catalog::prototype();
        let mut tray = Tray::new(TrayId(3));
        tray.plug(catalog.compute_brick(BrickId(0)).into());
        tray.plug(catalog.compute_brick(BrickId(1)).into());
        tray.plug(catalog.memory_brick(BrickId(2)).into());
        tray.plug(catalog.accelerator_brick(BrickId(3)).into());
        tray
    }

    #[test]
    fn counts_by_kind() {
        let tray = tray_with_bricks();
        assert_eq!(tray.id(), TrayId(3));
        assert_eq!(tray.brick_count(BrickKind::Compute), 2);
        assert_eq!(tray.brick_count(BrickKind::Memory), 1);
        assert_eq!(tray.brick_count(BrickKind::Accelerator), 1);
        assert_eq!(tray.bricks().len(), 4);
        assert!(tray.total_cores() > 0);
        assert!(!tray.total_memory_pool().is_zero());
    }

    #[test]
    fn plug_and_unplug() {
        let mut tray = tray_with_bricks();
        let brick = tray.unplug(BrickId(1)).unwrap();
        assert_eq!(brick.id(), BrickId(1));
        assert_eq!(tray.brick_count(BrickKind::Compute), 1);
        assert!(matches!(
            tray.unplug(BrickId(99)),
            Err(BrickError::NoSuchBrick { .. })
        ));
        tray.plug(brick);
        assert_eq!(tray.brick_count(BrickKind::Compute), 2);
    }

    #[test]
    fn lookup_and_variant_accessors() {
        let mut tray = tray_with_bricks();
        assert!(tray.brick(BrickId(0)).unwrap().as_compute().is_some());
        assert!(tray.brick(BrickId(0)).unwrap().as_memory().is_none());
        assert!(tray.brick(BrickId(2)).unwrap().as_memory().is_some());
        assert!(tray.brick(BrickId(3)).unwrap().as_accelerator().is_some());
        assert!(tray.brick(BrickId(42)).is_none());

        let compute = tray
            .brick_mut(BrickId(0))
            .unwrap()
            .as_compute_mut()
            .unwrap();
        compute.allocate_cores(1).unwrap();
        assert!(!tray.brick(BrickId(0)).unwrap().is_unused());
        assert!(tray
            .brick_mut(BrickId(2))
            .unwrap()
            .as_memory_mut()
            .is_some());
        assert!(tray
            .brick_mut(BrickId(3))
            .unwrap()
            .as_accelerator_mut()
            .is_some());
    }

    #[test]
    fn tray_power_is_sum_of_bricks() {
        let tray = tray_with_bricks();
        let expected: f64 = tray
            .bricks()
            .iter()
            .map(|b| b.power_draw().as_watts())
            .sum();
        assert!((tray.power_draw().as_watts() - expected).abs() < 1e-9);
        assert!(expected > 0.0);
    }

    #[test]
    fn brick_enum_conversions() {
        let catalog = Catalog::prototype();
        let b: Brick = catalog.compute_brick(BrickId(5)).into();
        assert_eq!(b.kind(), BrickKind::Compute);
        let m: Brick = catalog.memory_brick(BrickId(6)).into();
        assert_eq!(m.kind(), BrickKind::Memory);
        let a: Brick = catalog.accelerator_brick(BrickId(7)).into();
        assert_eq!(a.kind(), BrickKind::Accelerator);
        assert!(b.is_unused() && m.is_unused() && a.is_unused());
    }
}
