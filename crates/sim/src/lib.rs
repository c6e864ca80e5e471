//! Discrete-event simulation substrate for the dReDBox reproduction.
//!
//! The dReDBox prototype (Bielski et al., DATE 2018) is a *hardware* rack-scale
//! system. This workspace reproduces its evaluation in simulation; every other
//! crate in the workspace builds on the primitives provided here:
//!
//! * [`time`] — nanosecond-resolution simulated time ([`SimTime`], [`SimDuration`]).
//! * [`event`] — a deterministic event queue keyed by time and insertion order.
//! * [`shard`] — the discrete-event engine: per-shard calendars (one per
//!   rack) with deterministic (time, shard, seq) cross-shard mailboxes.
//! * [`parallel`] — the epoch runner that drives every scenario replay,
//!   one rack or a federation, on one or more threads.
//! * [`engine`] — [`engine::RunOutcome`], why a run stopped.
//! * [`flat`] — sorted-vector maps and sets for small per-brick tables.
//! * [`observe`] — an observation log that carries decision-free work
//!   (report samples, priced reads) off the event loop, inline or to a
//!   helper thread.
//! * [`arena`] — generational slab arenas giving the scenario hot path stable
//!   `u32` slots and an allocation-free steady state.
//! * [`rng`] — a seedable, reproducible random-number generator wrapper so that
//!   every experiment in the repository is deterministic given a seed.
//! * [`queue`] — deterministic FIFO serialization of control-plane requests
//!   with a per-queued-request penalty.
//! * [`stats`] — summary statistics, percentiles and box-plot summaries used by
//!   the figure-reproduction harnesses.
//! * [`units`] — strongly-typed quantities (bytes, bandwidth, optical power,
//!   electrical power) used across the hardware models.
//! * [`report`] — small table/series containers used to print "paper vs.
//!   measured" experiment outputs.
//!
//! # Example
//!
//! ```
//! use dredbox_sim::prelude::*;
//!
//! let mut queue = EventQueue::<&'static str>::new();
//! queue.schedule(SimTime::from_micros(3), "late");
//! queue.schedule(SimTime::from_nanos(10), "early");
//! let (t, ev) = queue.pop().expect("event");
//! assert_eq!(ev, "early");
//! assert_eq!(t, SimTime::from_nanos(10));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod engine;
pub mod error;
pub mod event;
pub mod fault;
pub mod flat;
pub mod observe;
pub mod parallel;
pub mod queue;
pub mod report;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod time;
pub mod units;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::arena::{SlotArena, SlotKey};
    pub use crate::engine::RunOutcome;
    pub use crate::error::SimError;
    pub use crate::event::EventQueue;
    pub use crate::fault::{
        FailurePlan, FailureSchedule, FaultInjector, FaultKind, FaultSite, PlannedFault, SiteCounts,
    };
    pub use crate::parallel::{ParallelWorld, SerialContext, WorkerContext, WorldWorker};
    pub use crate::queue::{ControlPlaneQueue, QueueAdmission};
    pub use crate::report::{Figure, Row, Series, Table};
    pub use crate::rng::SimRng;
    pub use crate::shard::{ShardContext, ShardId, ShardedEngine, ShardedProcess};
    pub use crate::stats::{BoxPlot, Summary};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::units::{Bandwidth, ByteSize, DecibelMilliwatts, Milliwatts, Watts};
}

pub use error::SimError;
pub use time::{SimDuration, SimTime};
