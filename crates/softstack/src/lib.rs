//! The dReDBox disaggregation system software (Section IV of the paper).
//!
//! The prototype's software stack lets "virtual machines and orchestration
//! software dynamically and safely request, attach and use remote memory on
//! any given dCOMPUBRICK". It has three layers, each modelled here:
//!
//! * the **baremetal OS layer** ([`BaremetalOs`]) — the arm64 Linux memory
//!   hotplug support that attaches new physical page frames at runtime;
//! * the **virtualization layer** ([`Hypervisor`], [`Vm`]) — QEMU-style
//!   hotplug of RAM DIMMs into running guests, plus the scale-up support
//!   that lets applications inside a VM request more memory;
//! * the **Scale-up API** ([`ScaleUpController`]) — the control flow from an
//!   application's request through the Scale-up controller to the SDM
//!   controller and back down through glue-logic configuration and hotplug.
//!
//! [`ScaleOutBaseline`] models the conventional alternative the paper compares
//! against in Figure 10 (spawning additional VMs to give an application more
//! aggregate memory), and [`MigrationModel`] models VM migration, one of the
//! project's stated objectives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baremetal;
mod error;
mod hypervisor;
mod migration;
mod scaleout;
mod scaleup;
mod vm;

pub use baremetal::BaremetalOs;
pub use error::SoftstackError;
pub use hypervisor::Hypervisor;
pub use migration::MigrationModel;
pub use scaleout::ScaleOutBaseline;
pub use scaleup::{ScaleUpController, ScaleUpOutcome, ScaleUpTimings};
pub use vm::{Vm, VmId, VmSpec};
