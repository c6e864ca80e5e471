//! The brick-level memory interconnect data path.
//!
//! A dCOMPUBRICK reaches disaggregated memory through a chain of hardware
//! blocks implemented in the MPSoC programmable logic (Figures 3, 4 and 8 of
//! the paper):
//!
//! * the **Transaction Glue Logic** ([`tgl`]) intercepts APU memory
//!   transactions addressed beyond local DDR,
//! * the **Remote Memory Segment Table** ([`rmst`]) — a fully associative
//!   structure — identifies which remote segment (and therefore which
//!   dMEMBRICK and outgoing port) each transaction targets,
//! * on the mainline *circuit-switched* path the transaction is serialized
//!   straight onto a GTH transceiver whose light follows a pre-established
//!   circuit; on the experimental *packet-switched* path it additionally
//!   traverses a network interface ([`ni`]), an on-brick packet switch
//!   ([`nswitch`]) and MAC/PHY blocks ([`phy`]),
//! * on the dMEMBRICK the glue logic forwards ingress transactions to the
//!   local memory controllers and egress data back towards the requester.
//!
//! [`transaction`] assembles these pieces into end-to-end round-trip latency
//! models with a per-component breakdown — the reproduction of Figure 8.
//!
//! # Example
//!
//! ```
//! use dredbox_interconnect::prelude::*;
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

pub mod config;
pub mod contention;
pub mod error;
pub mod ni;
pub mod nswitch;
pub mod packet;
pub mod phy;
pub mod rmst;
pub mod tgl;
pub mod transaction;

pub use config::LatencyConfig;
pub use contention::{charge_queueing, queueing_wait, ContentionConfig, StageLoad};
pub use error::InterconnectError;
pub use ni::NetworkInterface;
pub use nswitch::OnBrickSwitch;
pub use packet::{MemPacket, PacketKind};
pub use phy::MacPhy;
pub use rmst::{RemoteMemorySegmentTable, RmstEntry};
pub use tgl::{RouteDecision, TransactionGlueLogic};
pub use transaction::{LatencyBreakdown, LatencyComponent, PathKind, RemoteMemoryPath};

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::config::LatencyConfig;
    pub use crate::contention::{charge_queueing, ContentionConfig, StageLoad};
    pub use crate::error::InterconnectError;
    pub use crate::rmst::{RemoteMemorySegmentTable, RmstEntry};
    pub use crate::tgl::TransactionGlueLogic;
    pub use crate::transaction::{LatencyBreakdown, LatencyComponent, PathKind, RemoteMemoryPath};
}
