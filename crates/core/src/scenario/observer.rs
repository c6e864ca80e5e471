//! The rack's report-only work, off its event loop.
//!
//! No decision of a replay reads a priced read or a report sample. The
//! rack's [`ScenarioWorld`](super::world::ScenarioWorld) therefore keeps
//! only what decisions read (every RNG draw, and which VMs hold a
//! data-path entry) and appends an [`Op`] per piece of report work to its
//! observation log, in event order. The [`RackObserver`] applies them in
//! that order: it owns the data-path model
//! ([`DataPathModel`]: caches, granules, the fabric ledger and its
//! prices) and every report [`Summary`] the world records, so each sketch
//! sees the same samples in the same order as when the loop recorded them
//! itself, and reports stay byte-identical.
//!
//! The log drains inline when a batch fills and when the report is
//! assembled. A single-rack replay on two or more threads, whose one
//! shard leaves every other worker idle, drains it on one helper thread
//! instead (`dredbox_sim::observe::drain_on_helper`).

use dredbox_sim::observe::Observer;
use dredbox_sim::stats::Summary;

use crate::system::{ReadRoute, VmHandle};

use super::datapath::{DataPathModel, ReadPrices};

/// A report summary the world records into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Metric {
    ScaleUpDelay,
    ReadLatency,
    PoolUtilization,
    MigrationDowntime,
    PrecopyCounterfactual,
    ScaleoutCounterfactual,
    ControlPlaneWait,
    OffloadTime,
    OffloadLocalCounterfactual,
    AccelUtilization,
}

impl Metric {
    /// Every metric, in declaration order.
    pub(super) const ALL: [Metric; 10] = [
        Metric::ScaleUpDelay,
        Metric::ReadLatency,
        Metric::PoolUtilization,
        Metric::MigrationDowntime,
        Metric::PrecopyCounterfactual,
        Metric::ScaleoutCounterfactual,
        Metric::ControlPlaneWait,
        Metric::OffloadTime,
        Metric::OffloadLocalCounterfactual,
        Metric::AccelUtilization,
    ];
}

/// One piece of report work, logged by the event loop.
#[derive(Debug, Clone, Copy)]
pub(super) enum Op {
    /// A VM with remote memory was admitted on `route`.
    Admit { vm: VmHandle, route: ReadRoute },
    /// One burst of `reads` accesses by `vm`; its drawn accesses follow
    /// the previous burst's in the batch's draw list.
    Burst { vm: VmHandle, reads: u32 },
    /// One direct read of `READ_SIZES[size]` bytes by `vm`.
    Read { vm: VmHandle, size: u8 },
    /// `vm`, which held a data-path entry, departed or was lost.
    Departure { vm: VmHandle },
    /// One sample of a report summary.
    Sample { metric: Metric, value: f64 },
}

/// Ops a batch holds before it drains: 24 KiB of them.
const OPS_PER_BATCH: usize = 1_024;

/// Drawn accesses a batch holds before it drains; one burst may overrun.
const DRAWS_PER_BATCH: usize = 4_096;

/// A batch of the observation log.
#[derive(Debug, Default)]
pub(super) struct Batch {
    pub(super) ops: Vec<Op>,
    /// The drawn accesses of the batch's bursts, in order (see
    /// [`super::datapath::SEQUENTIAL`]).
    pub(super) draws: Vec<u64>,
}

/// The observer of one rack: its data-path model and report summaries.
pub(super) struct RackObserver {
    prices: ReadPrices,
    data_path: Option<DataPathModel>,
    metrics: [Summary; Metric::ALL.len()],
}

impl RackObserver {
    pub(super) fn new(prices: ReadPrices, data_path: Option<DataPathModel>) -> Self {
        RackObserver {
            prices,
            data_path,
            metrics: std::array::from_fn(|_| Summary::new()),
        }
    }

    /// The read prices the observer charges.
    pub(super) fn prices(&self) -> &ReadPrices {
        &self.prices
    }

    /// The samples of `metric` so far.
    pub(super) fn summary(&self, metric: Metric) -> &Summary {
        &self.metrics[metric as usize]
    }

    /// The finished summary of `metric`, leaving an empty one.
    pub(super) fn finish(&mut self, metric: Metric) -> Option<Summary> {
        std::mem::take(&mut self.metrics[metric as usize]).finish()
    }

    /// The data-path model, leaving none.
    pub(super) fn take_data_path(&mut self) -> Option<DataPathModel> {
        self.data_path.take()
    }

    fn data_path(&mut self) -> &mut DataPathModel {
        self.data_path
            .as_mut()
            .expect("the loop logs data-path ops only when the spec configures one")
    }
}

impl Observer for RackObserver {
    type Batch = Batch;

    fn is_full(batch: &Batch) -> bool {
        batch.ops.len() >= OPS_PER_BATCH || batch.draws.len() >= DRAWS_PER_BATCH
    }

    fn apply(&mut self, batch: &mut Batch) {
        let mut draws = &batch.draws[..];
        for op in batch.ops.drain(..) {
            match op {
                Op::Sample { metric, value } => self.metrics[metric as usize].record(value),
                Op::Read { vm, size } => {
                    let size = usize::from(size);
                    let ns = match self.data_path.as_mut() {
                        Some(dp) => dp.direct_read_ns(vm, size),
                        None => self.prices.flat_ns(size),
                    };
                    self.metrics[Metric::ReadLatency as usize].record(ns);
                }
                Op::Admit { vm, route } => self.data_path().on_admit(vm, route),
                Op::Burst { vm, reads } => {
                    let (burst, rest) = draws.split_at(reads as usize);
                    draws = rest;
                    let samples = &mut self.metrics[Metric::ReadLatency as usize];
                    self.data_path
                        .as_mut()
                        .expect("bursts run only on a configured data path")
                        .run_burst(vm, burst, samples);
                }
                Op::Departure { vm } => self.data_path().on_departure(vm),
            }
        }
        batch.draws.clear();
    }
}
