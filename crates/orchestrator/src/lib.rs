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
//! | Role | Module |
//! |------|--------|
//! | (a) receive VM / bare-metal allocation requests | [`requests`], [`sdm_controller`] |
//! | (b) safely inspect availability, make a power-conscious selection | [`placement`], [`sdm_controller`] |
//! | (c) safely reserve selected resources | [`reservation`] |
//! | (d) generate and push configurations to all involved devices | [`sdm_agent`], [`sdm_controller`] |
//!
//! [`power_mgmt`] implements the power-off of unused bricks that the TCO
//! study (Section VI) quantifies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accel_index;
pub mod capacity;
pub mod cluster;
pub mod error;
pub mod placement;
pub mod power_mgmt;
pub mod requests;
pub mod reservation;
pub mod scheduler;
pub mod sdm_agent;
pub mod sdm_controller;

pub use accel_index::{AccelIndex, AccelSlot};
pub use capacity::{CapacityIndex, CapacitySlot};
pub use cluster::{ClusterController, ClusterTimings, RackDigest, RackRoute};
pub use error::OrchestratorError;
pub use placement::{ComputeBrickView, PlacementPolicy};
pub use power_mgmt::PowerManager;
pub use requests::{OffloadRequest, ScaleUpDemand, VmAllocationRequest};
pub use reservation::{Reservation, ReservationId, ReservationLedger};
pub use scheduler::{Admission, FcfsScheduler, ScheduleOutcome};
pub use sdm_agent::{AttachOutcome, SdmAgent};
pub use sdm_controller::{
    MigrationOutcome, OffloadGrant, OffloadRelease, OffloadSession, OffloadSessionId, RmstBases,
    ScaleUpGrant, SdmController, SdmTimings, VmGrants,
};

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::accel_index::{AccelIndex, AccelSlot};
    pub use crate::capacity::{CapacityIndex, CapacitySlot};
    pub use crate::cluster::{ClusterController, ClusterTimings, RackDigest, RackRoute};
    pub use crate::error::OrchestratorError;
    pub use crate::placement::{ComputeBrickView, PlacementPolicy};
    pub use crate::power_mgmt::PowerManager;
    pub use crate::requests::{OffloadRequest, ScaleUpDemand, VmAllocationRequest};
    pub use crate::reservation::{Reservation, ReservationId, ReservationLedger};
    pub use crate::sdm_agent::{AttachOutcome, SdmAgent};
    pub use crate::sdm_controller::{
        MigrationOutcome, OffloadGrant, OffloadRelease, OffloadSession, OffloadSessionId,
        RmstBases, ScaleUpGrant, SdmController, SdmTimings, VmGrants,
    };
}
