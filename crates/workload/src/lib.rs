//! Workload generators for the dReDBox evaluation.
//!
//! * [`VmDemand`] — the (vCPUs, RAM) demand of a single VM.
//! * [`WorkloadConfig`] — the six VM workload mixes of Table I of the
//!   paper, used by the TCO study (Figures 12 and 13).
//! * [`TenantMix`] — weighted blends of the Table I mixes, the multi-tenant
//!   arrival mix of a federated multi-rack datacenter.
//! * [`ArrivalTrace`], [`BurstTrace`], [`DiurnalPattern`] — arrival
//!   processes (Poisson bursts, diurnal patterns).
//! * [`VideoAnalyticsWorkload`], [`NfvKeyServerWorkload`] and
//!   [`NetworkAnalyticsWorkload`] — models of the three pilot applications
//!   of Section V: video-surveillance analytics, NFV edge computing with a
//!   key server, and 100 GbE network analytics.
//!
//! # Example
//!
//! ```
//! use dredbox_workload::*;
//! use dredbox_sim::rng::SimRng;
//!
//! let mut rng = SimRng::seed(1);
//! let vms = WorkloadConfig::HighRam.generate(64, &mut rng);
//! assert_eq!(vms.len(), 64);
//! assert!(vms.iter().all(|vm| vm.memory.as_gib() >= 24));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod demand;
mod pilots;
mod table1;
mod tenant;
mod traces;

pub use demand::VmDemand;
pub use pilots::{
    NetworkAnalyticsWorkload, NfvKeyServerWorkload, OffloadDemand, PilotOffloadMix,
    VideoAnalyticsWorkload,
};
pub use table1::WorkloadConfig;
pub use tenant::TenantMix;
pub use traces::{ArrivalTrace, BurstTrace, DiurnalPattern, LifetimeModel};
