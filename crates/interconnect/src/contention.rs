//! Utilization-driven queuing on shared fabric stages.
//!
//! The flat [`RemoteMemoryPath`](crate::RemoteMemoryPath) model charges every
//! access the same service time regardless of what the rest of the rack is
//! doing. Under exactly the loads the disaggregated design cares about — many
//! VMs funnelling traffic into one dMEMBRICK — that is wrong: the shared
//! stages of the path (the compute brick's transceiver uplink, the rack-level
//! switch, the dMEMBRICK's ingress port) queue.
//!
//! This module folds that effect in as an *open-loop utilization model*: each
//! tenant publishes its sustained offered load (bytes/s) onto the stages its
//! circuit traverses, and a read is charged an extra M/M/1-shaped waiting
//! time per stage,
//!
//! ```text
//! delay(stage) = service(stage) × ρ / (1 − ρ),   ρ = background / capacity
//! ```
//!
//! where `background` excludes the reading tenant's own contribution (you do
//! not queue behind yourself in an open model) and ρ is capped below 1.0 so
//! a saturated stage yields a large-but-finite penalty. The extra time is
//! attributed to [`LatencyComponent::Queueing`], and — crucially for
//! replay determinism — a stage with zero background load contributes
//! *nothing*: the `Queueing` total stays zero, so the resulting
//! [`LatencyBreakdown`] is bit-identical to the flat model's.

use serde::{Deserialize, Serialize};

use dredbox_sim::time::SimDuration;
use dredbox_sim::units::{Bandwidth, ByteSize};

use crate::transaction::{LatencyBreakdown, LatencyComponent};

/// Capacities of the shared stages a remote read traverses, plus the
/// utilization cap that keeps a saturated stage's penalty finite.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ContentionConfig {
    /// Aggregate capacity of one dCOMPUBRICK's uplink towards the fabric.
    pub brick_uplink: Bandwidth,
    /// Aggregate capacity of the rack-level switch shared by every brick in
    /// the rack.
    pub rack_switch: Bandwidth,
    /// Ingress capacity of one dMEMBRICK port — the incast bottleneck.
    pub membrick_port: Bandwidth,
    /// Utilization ceiling applied before the ρ/(1−ρ) term, in `(0, 1)`.
    pub max_utilization: f64,
}

impl ContentionConfig {
    /// Defaults matching the prototype fabric: 10 Gb/s transceiver uplinks
    /// and dMEMBRICK ports, a rack switch with 16× that aggregate, and a
    /// 31/32 utilization cap (a saturated stage waits 31 service times).
    pub fn dredbox_default() -> Self {
        ContentionConfig {
            brick_uplink: Bandwidth::from_gbps(10.0),
            rack_switch: Bandwidth::from_gbps(160.0),
            membrick_port: Bandwidth::from_gbps(10.0),
            max_utilization: 0.96875,
        }
    }

    /// Whether every capacity is positive and the cap lies in `(0, 1)`.
    pub fn is_valid(&self) -> bool {
        self.brick_uplink.as_bps() > 0.0
            && self.rack_switch.as_bps() > 0.0
            && self.membrick_port.as_bps() > 0.0
            && self.max_utilization > 0.0
            && self.max_utilization < 1.0
    }
}

impl Default for ContentionConfig {
    fn default() -> Self {
        ContentionConfig::dredbox_default()
    }
}

/// One shared stage of the path: its capacity and the background offered
/// load (bytes/s) currently published on it by *other* tenants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageLoad {
    /// Stage capacity.
    pub capacity: Bandwidth,
    /// Background offered load in bytes per second, excluding the tenant
    /// being charged.
    pub background_bytes_per_sec: f64,
}

impl StageLoad {
    /// Stage utilization ρ in `[0, cap]`.
    pub fn utilization(&self, cap: f64) -> f64 {
        let capacity_bytes = self.capacity.as_bps() / 8.0;
        if capacity_bytes <= 0.0 || self.background_bytes_per_sec <= 0.0 {
            return 0.0;
        }
        (self.background_bytes_per_sec / capacity_bytes).min(cap)
    }

    /// Queuing delay behind the background load for a transfer whose
    /// service time at this stage is `transfer_time(moved)`.
    pub fn queueing_delay(&self, moved: ByteSize, cap: f64) -> SimDuration {
        let rho = self.utilization(cap);
        if rho <= 0.0 {
            return SimDuration::ZERO;
        }
        queueing_wait(self.capacity.transfer_time(moved), rho)
    }
}

/// The wait `service × ρ/(1−ρ)` of a transfer whose service time at a
/// stage of utilization `rho` is `service`: what
/// [`StageLoad::queueing_delay`] charges, for callers that keep service
/// times in a table. Zero on an idle stage.
pub fn queueing_wait(service: SimDuration, rho: f64) -> SimDuration {
    if rho <= 0.0 {
        return SimDuration::ZERO;
    }
    SimDuration::from_nanos_f64(service.as_nanos() as f64 * rho / (1.0 - rho))
}

/// Adds the per-stage queuing delays for a transfer moving `moved` bytes to
/// `breakdown` under [`LatencyComponent::Queueing`].
///
/// When every stage is uncontended the breakdown is returned *unchanged* —
/// its `Queueing` total stays zero — so a zero-background contention model
/// is byte-identical to the flat model.
pub fn charge_queueing(
    mut breakdown: LatencyBreakdown,
    moved: ByteSize,
    stages: &[StageLoad],
    max_utilization: f64,
) -> LatencyBreakdown {
    let mut queueing = SimDuration::ZERO;
    for stage in stages {
        queueing += stage.queueing_delay(moved, max_utilization);
    }
    breakdown.add(LatencyComponent::Queueing, queueing);
    breakdown
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatencyConfig;
    use crate::transaction::RemoteMemoryPath;
    use proptest::prelude::*;

    fn stage(background: f64) -> StageLoad {
        StageLoad {
            capacity: Bandwidth::from_gbps(10.0),
            background_bytes_per_sec: background,
        }
    }

    #[test]
    fn default_config_is_valid() {
        assert!(ContentionConfig::dredbox_default().is_valid());
        assert_eq!(
            ContentionConfig::default(),
            ContentionConfig::dredbox_default()
        );
        let broken = ContentionConfig {
            max_utilization: 1.0,
            ..ContentionConfig::dredbox_default()
        };
        assert!(!broken.is_valid());
    }

    #[test]
    fn utilization_is_load_over_capacity_and_capped() {
        // 10 Gb/s = 1.25e9 B/s; half of it offered as background.
        let half = stage(0.625e9);
        assert!((half.utilization(0.96875) - 0.5).abs() < 1e-12);
        // 10× overload hits the cap.
        let overloaded = stage(12.5e9);
        assert_eq!(overloaded.utilization(0.96875), 0.96875);
        assert_eq!(stage(0.0).utilization(0.96875), 0.0);
    }

    #[test]
    fn queueing_grows_without_bound_towards_the_cap() {
        let moved = ByteSize::from_bytes(4096);
        let light = stage(0.125e9).queueing_delay(moved, 0.96875);
        let heavy = stage(1.0e9).queueing_delay(moved, 0.96875);
        let saturated = stage(100.0e9).queueing_delay(moved, 0.96875);
        assert!(light < heavy && heavy < saturated);
        // At the 31/32 cap the wait is 31 service times.
        let service = Bandwidth::from_gbps(10.0).transfer_time(moved);
        assert_eq!(saturated, service.saturating_mul(31));
    }

    proptest! {
        #[test]
        fn zero_background_is_byte_identical_to_the_flat_model(
            sizes in proptest::collection::vec(1u64..16_384, 1..64),
        ) {
            // Over an arbitrary trace of read sizes, the contention model at
            // zero background load must reproduce the flat model exactly:
            // same component totals, same Debug bytes, same total.
            let path = RemoteMemoryPath::circuit_switched(LatencyConfig::dredbox_default());
            let cfg = ContentionConfig::dredbox_default();
            for &size in &sizes {
                let moved = ByteSize::from_bytes(size);
                let flat = path.read(moved);
                let stages = [
                    StageLoad { capacity: cfg.brick_uplink, background_bytes_per_sec: 0.0 },
                    StageLoad { capacity: cfg.rack_switch, background_bytes_per_sec: 0.0 },
                    StageLoad { capacity: cfg.membrick_port, background_bytes_per_sec: 0.0 },
                ];
                let contended = charge_queueing(flat, moved, &stages, cfg.max_utilization);
                prop_assert_eq!(&contended, &flat);
                prop_assert_eq!(format!("{contended:?}"), format!("{flat:?}"));
                prop_assert_eq!(contended.total().as_nanos(), flat.total().as_nanos());
            }
        }

        #[test]
        fn any_background_only_ever_adds_queueing(
            size in 1u64..16_384,
            background in 0.0f64..1e11,
        ) {
            let path = RemoteMemoryPath::circuit_switched(LatencyConfig::dredbox_default());
            let moved = ByteSize::from_bytes(size);
            let flat = path.read(moved);
            let contended = charge_queueing(
                flat,
                moved,
                &[stage(background)],
                0.96875,
            );
            prop_assert!(contended.total() >= flat.total());
            // The delta is attributed entirely to the Queueing component.
            let queueing = contended.component_total(LatencyComponent::Queueing);
            prop_assert_eq!(contended.total() - flat.total(), queueing);
        }
    }
}
