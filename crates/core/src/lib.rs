//! # dReDBox: a rack-scale disaggregated-datacenter simulator
//!
//! This crate is the public facade of a full-stack reproduction of
//! *"dReDBox: Materializing a full-stack rack-scale system prototype of a
//! next-generation disaggregated datacenter"* (Bielski et al., DATE 2018).
//!
//! The dReDBox project replaces the mainboard-as-a-unit with pooled,
//! hot-pluggable **bricks** — compute (dCOMPUBRICK), memory (dMEMBRICK) and
//! accelerator (dACCELBRICK) — wired together at run time by a
//! software-defined optical circuit switch and orchestrated by a
//! Software-Defined-Memory controller. Since the original system is an EU
//! H2020 hardware prototype, this workspace rebuilds every layer as a
//! simulation substrate (see `DESIGN.md` at the repository root for the
//! substitution table) and reproduces every evaluation artifact of the
//! paper: Table I and Figures 7, 8, 10, 11, 12 and 13.
//!
//! ## Quick start
//!
//! ```
//! use dredbox::prelude::*;
//! use dredbox_sim::units::ByteSize;
//!
//! // Build a small disaggregated rack and its software stack.
//! let mut system = DredboxSystem::build(SystemConfig::prototype_rack())?;
//!
//! // Allocate a VM: cores come from one dCOMPUBRICK, memory from the pool.
//! let vm = system.allocate_vm(2, ByteSize::from_gib(4))?;
//!
//! // Grow it at run time through the Scale-up API: the SDM controller
//! // carves segments out of dMEMBRICKs, configures the glue logic and the
//! // memory is hotplugged into the running guest in well under a second.
//! let report = system.scale_up(vm, ByteSize::from_gib(8))?;
//! assert!(report.total_delay.as_secs_f64() < 1.5);
//!
//! // Unused bricks can be powered off, the heart of the TCO argument.
//! let sweep = system.power_off_unused();
//! assert!(sweep.total_off() > 0);
//! # Ok::<(), dredbox::SystemError>(())
//! ```
//!
//! ## Crate map
//!
//! | Layer | Crate |
//! |-------|-------|
//! | Simulation substrate (time, events, RNG, stats, units) | `dredbox-sim` |
//! | Brick / tray / rack hardware models | `dredbox-bricks` |
//! | Optical circuit network and BER model | `dredbox-optical` |
//! | TGL, RMST, packet path, latency breakdowns | `dredbox-interconnect` |
//! | Disaggregated memory pool and hotplug model | `dredbox-memory` |
//! | Baremetal OS, hypervisor, scale-up/scale-out | `dredbox-softstack` |
//! | SDM controller, agents, placement, power | `dredbox-orchestrator` |
//! | Table I workloads and pilot applications | `dredbox-workload` |
//! | TCO study | `dredbox-tco` |
//! | Facade + experiment runners (this crate) | `dredbox` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod experiments;
pub mod scenario;
mod snapshot;
mod system;

pub use config::SystemConfig;
pub use scenario::ScenarioReport;
pub use snapshot::SystemSnapshot;
pub use system::{
    AccelFaultReport, ComputeFaultReport, DredboxSystem, LinkFaultReport, MemoryFaultReport,
    OrphanReclaim, SystemError, VmHandle,
};

// Re-export the sub-crates so downstream users need a single dependency.
pub use dredbox_bricks as bricks;
pub use dredbox_interconnect as interconnect;
pub use dredbox_memory as memory;
pub use dredbox_optical as optical;
pub use dredbox_orchestrator as orchestrator;
pub use dredbox_sim as sim;
pub use dredbox_softstack as softstack;
pub use dredbox_tco as tco;
pub use dredbox_workload as workload;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::config::SystemConfig;
    pub use crate::experiments;
    pub use crate::scenario::{
        run_builtin_suite, ArrivalModel, ChurnModel, DataPathConfig, DataPathStats, Granularity,
        MigrationPolicy, OffloadPlan, ReadProfile, RemoteCacheConfig, ScenarioReport, ScenarioSpec,
        SuiteReport,
    };
    pub use crate::snapshot::SystemSnapshot;
    pub use crate::system::{
        DredboxSystem, MigrationReport, OffloadReport, ReadRoute, ScaleUpReport, SystemError,
        VmHandle,
    };
    pub use dredbox_interconnect::ContentionConfig;
    pub use dredbox_orchestrator::OffloadSessionId;
    pub use dredbox_sim::prelude::*;
}
