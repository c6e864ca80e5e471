//! The brick-level memory interconnect data path.
//!
//! A dCOMPUBRICK reaches disaggregated memory through a chain of hardware
//! blocks implemented in the MPSoC programmable logic (Figures 3, 4 and 8 of
//! the paper):
//!
//! * the **Transaction Glue Logic** ([`TransactionGlueLogic`]) intercepts
//!   APU memory transactions addressed beyond local DDR,
//! * the **Remote Memory Segment Table** ([`RemoteMemorySegmentTable`]) — a
//!   fully associative structure — identifies which remote segment (and
//!   therefore which dMEMBRICK and outgoing port) each transaction targets,
//! * on the mainline *circuit-switched* path the transaction is serialized
//!   straight onto a GTH transceiver whose light follows a pre-established
//!   circuit; on the experimental *packet-switched* path it additionally
//!   traverses a network interface, an on-brick packet switch
//!   ([`OnBrickSwitch`]) and MAC/PHY blocks,
//! * on the dMEMBRICK the glue logic forwards ingress transactions to the
//!   local memory controllers and egress data back towards the requester.
//!
//! [`RemoteMemoryPath`] prices every block of either path once, straight from
//! [`LatencyConfig`], and sums them into an end-to-end round trip with a
//! per-component breakdown — the reproduction of Figure 8.
//!
//! # Example
//!
//! ```
//! use dredbox_interconnect::*;
//! use dredbox_sim::units::ByteSize;
//!
//! let path = RemoteMemoryPath::packet_switched(LatencyConfig::dredbox_default());
//! let breakdown = path.read(ByteSize::from_bytes(64));
//! // The paper's preliminary breakdown is dominated by MAC/PHY and switch
//! // traversals; the total round trip is around a microsecond.
//! assert!(breakdown.total().as_micros_f64() < 2.0);
//! assert!(breakdown.share(LatencyComponent::MacPhy) > 0.3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod contention;
mod error;
mod nswitch;
mod rmst;
mod tgl;
mod transaction;

pub use config::LatencyConfig;
pub use contention::ContentionConfig;
pub use error::InterconnectError;
pub use nswitch::OnBrickSwitch;
pub use rmst::{RemoteMemorySegmentTable, RmstEntry};
pub use tgl::{RouteDecision, TransactionGlueLogic};
pub use transaction::{LatencyBreakdown, LatencyComponent, PathKind, RemoteMemoryPath};
