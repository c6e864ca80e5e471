//! Orchestration of disaggregated resources (Section IV-C of the paper).
//!
//! "Orchestration of the disaggregated resources is performed by a software
//! component integrated with OpenStack, namely the SDM Controller (SDM-C).
//! The SDM-C runs as an autonomous service that primarily supports resource
//! reservation and dynamic reconfiguration within a rack, by interacting with
//! agents (SDM Agents) running on the OS of dCOMPUBRICKs, as well as with
//! configurable switches to program circuit switches at runtime."
//!
//! Its four roles, and where each is modelled:
//!
//! | Role | Where |
//! |------|-------|
//! | (a) receive VM / bare-metal allocation requests | [`VmAllocationRequest`], [`SdmController`] |
//! | (b) safely inspect availability, make a power-conscious selection | [`PlacementPolicy`], [`CapacityIndex`], [`SdmController`] |
//! | (c) safely reserve selected resources | [`ReservationLedger`] |
//! | (d) generate and push configurations to all involved devices | [`SdmAgent`], [`SdmController`] |
//!
//! Requests reach the controller one at a time: the scenario engine queues
//! them first-come first-served in its control-plane queue
//! ([`dredbox_sim::queue::ControlPlaneQueue`]). [`ClusterController`] is the
//! front door that routes requests across federated racks, and
//! [`PowerManager`] implements the power-off of unused bricks that the TCO
//! study (Section VI) quantifies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accel_index;
mod capacity;
mod cluster;
mod error;
mod placement;
mod power_mgmt;
mod requests;
mod reservation;
mod sdm_agent;
mod sdm_controller;

pub use accel_index::{AccelIndex, AccelSlot};
pub use capacity::{CapacityIndex, CapacitySlot};
pub use cluster::{ClusterController, ClusterTimings, RackDigest, RackRoute};
pub use error::OrchestratorError;
pub use placement::{ComputeBrickView, PlacementPolicy};
pub use power_mgmt::{PowerManager, PowerSweep};
pub use requests::{OffloadRequest, ScaleUpDemand, VmAllocationRequest};
pub use reservation::{Reservation, ReservationId, ReservationLedger};
pub use sdm_agent::SdmAgent;
pub use sdm_controller::{
    MigrationOutcome, OffloadGrant, OffloadRelease, OffloadSession, OffloadSessionId, ScaleUpGrant,
    SdmController, SdmTimings, VmGrants,
};
