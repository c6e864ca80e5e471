//! Hardware models of the dReDBox building blocks.
//!
//! The dReDBox architecture (Section II of the paper) abandons the
//! mainboard-as-a-unit and builds datacenters out of hot-pluggable *bricks*
//! pooled on trays:
//!
//! * **dCOMPUBRICK** ([`ComputeBrick`]) — a Xilinx Zynq Ultrascale+
//!   MPSoC with a quad-core ARMv8 APU, local DDR, and programmable logic
//!   hosting the Transaction Glue Logic, the Remote Memory Segment Table and
//!   the network endpoints.
//! * **dMEMBRICK** ([`MemoryBrick`]) — a large pool of DDR/HMC
//!   memory behind glue logic, partitionable among compute bricks.
//! * **dACCELBRICK** ([`AcceleratorBrick`]) — a reconfigurable
//!   accelerator slot plus static infrastructure for near-data processing.
//!
//! Bricks plug into [`Tray`]s (electrically interconnected on-tray) and
//! trays into [`Rack`]s (optically interconnected off-tray). The
//! [`Catalog`] provides dimensioning presets both for the vertical
//! prototype and for the TCO study of Section VI.
//!
//! # Example
//!
//! ```
//! use dredbox_bricks::{Catalog, BrickKind};
//!
//! let rack = Catalog::prototype().build_rack(2, 4, 4, 1);
//! assert_eq!(rack.brick_count(BrickKind::Compute), 8);
//! assert_eq!(rack.brick_count(BrickKind::Memory), 8);
//! assert_eq!(rack.brick_count(BrickKind::Accelerator), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accel;
mod brick_map;
mod catalog;
mod compute;
mod error;
mod id;
mod memory_brick;
mod ports;
mod power;
mod rack;
mod resources;
mod tray;

pub use accel::{AcceleratorBrick, AcceleratorBrickSpec, AcceleratorSlot, Bitstream};
pub use brick_map::BrickMap;
pub use catalog::Catalog;
pub use compute::{ComputeBrick, ComputeBrickSpec};
pub use error::BrickError;
pub use id::{BrickId, BrickKind, PortId, RackId, TrayId};
pub use memory_brick::{MemoryBrick, MemoryBrickSpec, MemoryController, MemoryTechnology};
pub use ports::{GthPort, PortSet, PortState};
pub use power::{PowerModel, PowerState};
pub use rack::Rack;
pub use resources::ResourceVector;
pub use tray::{Brick, Tray};
