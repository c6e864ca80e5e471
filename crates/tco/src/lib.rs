//! The TCO value-proposition case study (Section VI of the paper).
//!
//! The paper compares a dReDBox-like datacenter against a conventional one
//! built from commercial off-the-shelf servers, both holding the *same
//! aggregate* compute and memory (Figure 11). A First-Come-First-Served
//! policy schedules a workload of VMs with different resource-requirement
//! mixes (Table I) onto each datacenter; whatever individually powered unit
//! ends up running nothing can be powered off (Figure 12), which translates
//! into energy savings (Figure 13).
//!
//! * [`ConventionalDatacenter`] and [`DisaggregatedDatacenter`] — the two
//!   datacenter models and their FCFS packing.
//! * [`TcoPowerModel`] — per-unit power draws and the normalized-power
//!   computation.
//! * [`TcoStudy`] — the experiment driver that regenerates Figures 11, 12
//!   and 13 for every Table I configuration.
//!
//! # Example
//!
//! ```
//! use dredbox_tco::*;
//! use dredbox_workload::WorkloadConfig;
//! use dredbox_sim::rng::SimRng;
//!
//! let study = TcoStudy::paper_setup();
//! let outcome = study.run_config(WorkloadConfig::HighRam, &mut SimRng::seed(1));
//! // Unbalanced workloads leave most of one brick type idle in dReDBox...
//! assert!(outcome.disaggregated.best_type_off_fraction() > 0.5);
//! // ...while the conventional datacenter can switch off almost nothing.
//! assert!(outcome.conventional.off_fraction() < 0.2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod datacenter;
mod power;
mod study;

pub use datacenter::{
    ConventionalDatacenter, ConventionalOutcome, DisaggregatedDatacenter, DisaggregatedOutcome,
};
pub use power::{FleetPower, TcoPowerModel};
pub use study::{ConfigOutcome, TcoResults, TcoStudy};
