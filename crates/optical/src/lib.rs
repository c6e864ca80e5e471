//! The dReDBox optical memory interconnect (Section III of the paper).
//!
//! Cross-tray memory traffic travels over a software-defined *circuit-
//! switched* optical network: each brick's GTH ports feed a multi-channel
//! silicon-photonics mid-board optics module ([`MidBoardOptics`]), whose
//! fibres connect to a low-loss 48-port optical circuit switch
//! ([`OpticalCircuitSwitch`]). Paths through the switch are set up by
//! orchestration ([`CircuitManager`]); there is no store-and-forward element
//! on the data path, which is what keeps remote memory access latency low,
//! and the interface is FEC-free ([`FecMode`]) because forward error
//! correction would add more than 100 ns.
//!
//! [`LinkBudget`] and [`ReceiverModel`] implement the link-budget and
//! bit-error-rate model behind Figure 7; [`BerMeasurementCampaign`] runs the
//! measurement campaign that regenerates it.
//!
//! # Example
//!
//! ```
//! use dredbox_optical::*;
//!
//! let mbo = MidBoardOptics::dredbox_default();
//! let switch = OpticalCircuitSwitch::polatis_48();
//! // Channel 1 traverses eight hops through the switch, as in the paper.
//! let link = LinkBudget::new(mbo.channel(0).unwrap().launch_power())
//!     .with_switch_hops(&switch, 8);
//! let receiver = ReceiverModel::dredbox_default();
//! let ber = receiver.ber(link.received_power());
//! assert!(ber < 1e-12, "paper reports all links below 1e-12, got {ber:e}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ber;
mod circuit;
mod error;
mod fec;
mod link;
pub mod load;
mod mbo;
mod switch;
mod telemetry;
mod topology;

pub use ber::ReceiverModel;
pub use circuit::{CircuitId, CircuitManager, OpticalCircuit};
pub use error::OpticalError;
pub use fec::FecMode;
pub use link::LinkBudget;
pub use mbo::{MboChannel, MidBoardOptics};
pub use switch::OpticalCircuitSwitch;
pub use telemetry::{BerMeasurementCampaign, ChannelMeasurement};
pub use topology::{LinkFailover, OpticalTopology};
