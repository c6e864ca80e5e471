//! Power accounting for the TCO study.
//!
//! The first TCO study "focuses on evaluating the TCO savings in terms of
//! the energy that can be saved by powering off unutilized resources":
//! every unit that runs nothing draws (approximately) nothing, every unit
//! that runs something draws its active power. Figure 13 normalizes the
//! resulting dReDBox consumption to the conventional datacenter's.

use serde::{Deserialize, Serialize};

use dredbox_sim::units::Watts;

use crate::datacenter::{ConventionalOutcome, DisaggregatedOutcome};

/// Per-unit power draws used by the study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TcoPowerModel {
    /// Draw of one conventional server that runs at least one VM.
    pub server_active: Watts,
    /// Draw of one dCOMPUBRICK that runs at least one VM.
    pub compute_brick_active: Watts,
    /// Draw of one dMEMBRICK that exports memory.
    pub memory_brick_active: Watts,
    /// Draw of the optical network per *active* compute brick (circuits,
    /// switch ports at ~100 mW each, mid-board optics).
    pub network_per_active_brick: Watts,
}

impl TcoPowerModel {
    /// Defaults: a 300 W dual-socket server split into a 200 W compute brick
    /// and a 100 W memory brick, plus ~2 W of optical-network overhead per
    /// active compute brick (a handful of switch ports and MBO channels).
    pub fn dredbox_default() -> Self {
        TcoPowerModel {
            server_active: Watts::new(300.0),
            compute_brick_active: Watts::new(200.0),
            memory_brick_active: Watts::new(100.0),
            network_per_active_brick: Watts::new(2.0),
        }
    }

    /// Power drawn by the conventional datacenter after powering off unused
    /// servers.
    pub(crate) fn conventional_power(&self, outcome: &ConventionalOutcome) -> Watts {
        self.server_active.scale(outcome.servers_used as f64)
    }

    /// Power drawn by the disaggregated datacenter after powering off unused
    /// bricks.
    pub(crate) fn disaggregated_power(&self, outcome: &DisaggregatedOutcome) -> Watts {
        self.compute_brick_active
            .scale(outcome.compute_bricks_used as f64)
            + self
                .memory_brick_active
                .scale(outcome.memory_bricks_used as f64)
            + self
                .network_per_active_brick
                .scale(outcome.compute_bricks_used as f64)
    }

    /// dReDBox power normalized to the conventional datacenter (the Figure
    /// 13 quantity; < 1 means the disaggregated datacenter saves energy).
    /// Returns 1.0 when the conventional datacenter draws nothing.
    pub fn normalized_power(
        &self,
        conventional: &ConventionalOutcome,
        disaggregated: &DisaggregatedOutcome,
    ) -> f64 {
        let base = self.conventional_power(conventional).as_watts();
        if base == 0.0 {
            return 1.0;
        }
        self.disaggregated_power(disaggregated).as_watts() / base
    }

    /// Energy savings fraction in `[0, 1]` (1 − normalized power, clamped).
    #[cfg(test)]
    pub(crate) fn savings(
        &self,
        conventional: &ConventionalOutcome,
        disaggregated: &DisaggregatedOutcome,
    ) -> f64 {
        (1.0 - self.normalized_power(conventional, disaggregated)).clamp(0.0, 1.0)
    }
}

impl Default for TcoPowerModel {
    fn default() -> Self {
        TcoPowerModel::dredbox_default()
    }
}

/// Fleet-level provisioned-power accounting for a federated (multi-rack)
/// deployment — the live-system counterpart of the static Section VI study.
///
/// The study derives its savings from a one-shot FCFS packing; a running
/// federation gets the same quantity from the cluster controller, whose
/// per-rack capacity digests already aggregate each rack's provisioned
/// draw (`ClusterController::provisioned_per_rack` one crate up). This
/// type consumes that feed and reports the fleet totals the TCO argument
/// is made of: aggregate draw, the spread across racks, per-rack budget
/// headroom and the fraction of the all-on draw the power manager shed.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FleetPower {
    /// Provisioned draw per rack, ascending by rack id.
    pub per_rack: Vec<Watts>,
    /// Per-rack provisioned-power budget, if the fleet enforces one.
    pub budget: Option<Watts>,
}

impl FleetPower {
    /// Builds the accounting from per-rack draws and an optional budget.
    pub fn new(per_rack: Vec<Watts>, budget: Option<Watts>) -> Self {
        FleetPower { per_rack, budget }
    }

    /// Number of racks in the fleet.
    pub fn racks(&self) -> usize {
        self.per_rack.len()
    }

    /// Aggregate provisioned draw across the fleet.
    pub fn total(&self) -> Watts {
        Watts::new(self.per_rack.iter().map(|w| w.as_watts()).sum())
    }

    /// The heaviest rack: `(rack index, draw)`. `None` on an empty fleet.
    pub fn peak_rack(&self) -> Option<(usize, Watts)> {
        self.per_rack
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.as_watts().total_cmp(&b.1.as_watts()))
            .map(|(idx, &w)| (idx, w))
    }

    /// Racks whose provisioned draw has reached or passed the budget —
    /// the racks cluster routing is currently deferring admissions away
    /// from. Empty when no budget is enforced.
    pub fn racks_at_budget(&self) -> Vec<usize> {
        let Some(budget) = self.budget else {
            return Vec::new();
        };
        self.per_rack
            .iter()
            .enumerate()
            .filter(|(_, w)| w.as_watts() >= budget.as_watts())
            .map(|(idx, _)| idx)
            .collect()
    }

    /// Total admission headroom left under the per-rack budgets (racks
    /// already over budget contribute zero). `None` without a budget.
    pub fn headroom(&self) -> Option<Watts> {
        let budget = self.budget?;
        Some(Watts::new(
            self.per_rack
                .iter()
                .map(|w| (budget.as_watts() - w.as_watts()).max(0.0))
                .sum(),
        ))
    }

    /// Fraction of the all-on draw the power manager has shed, in
    /// `[0, 1]` — the Figure 13 quantity read off the live fleet instead
    /// of the packing study. Zero when the baseline draws nothing.
    pub fn savings_vs_all_on(&self, all_on: Watts) -> f64 {
        let base = all_on.as_watts();
        if base <= 0.0 {
            return 0.0;
        }
        (1.0 - self.total().as_watts() / base).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv(total: usize, used: usize) -> ConventionalOutcome {
        ConventionalOutcome {
            total_servers: total,
            servers_used: used,
            rejected_vms: 0,
        }
    }

    fn dis(
        cb_total: usize,
        cb_used: usize,
        mb_total: usize,
        mb_used: usize,
    ) -> DisaggregatedOutcome {
        DisaggregatedOutcome {
            total_compute_bricks: cb_total,
            compute_bricks_used: cb_used,
            total_memory_bricks: mb_total,
            memory_bricks_used: mb_used,
            rejected_vms: 0,
        }
    }

    #[test]
    fn split_bricks_match_a_server_when_fully_used() {
        let m = TcoPowerModel::dredbox_default();
        let conventional = conv(64, 64);
        let disaggregated = dis(64, 64, 64, 64);
        let ratio = m.normalized_power(&conventional, &disaggregated);
        // Fully used on both sides, the split should cost about the same
        // (within the small optical-network overhead).
        assert!((ratio - 1.0).abs() < 0.02, "ratio was {ratio}");
    }

    #[test]
    fn unbalanced_usage_saves_energy() {
        let m = TcoPowerModel::dredbox_default();
        // High-RAM-like outcome: all servers on conventionally, but only 9
        // compute bricks plus 56 memory bricks on in dReDBox.
        let conventional = conv(64, 64);
        let disaggregated = dis(64, 9, 64, 56);
        let ratio = m.normalized_power(&conventional, &disaggregated);
        assert!(ratio < 0.6, "expected large savings, ratio {ratio}");
        let savings = m.savings(&conventional, &disaggregated);
        assert!(savings > 0.4 && savings <= 1.0);
    }

    #[test]
    fn zero_baseline_is_handled() {
        let m = TcoPowerModel::dredbox_default();
        assert_eq!(m.normalized_power(&conv(0, 0), &dis(0, 0, 0, 0)), 1.0);
        assert_eq!(m.savings(&conv(0, 0), &dis(0, 0, 0, 0)), 0.0);
        assert_eq!(m.conventional_power(&conv(64, 10)).as_watts(), 3000.0);
        assert!(m.disaggregated_power(&dis(64, 10, 64, 10)).as_watts() > 0.0);
    }

    #[test]
    fn fleet_power_aggregates_budget_and_savings() {
        let fleet = FleetPower::new(
            vec![Watts::new(900.0), Watts::new(400.0), Watts::new(1_200.0)],
            Some(Watts::new(1_000.0)),
        );
        assert_eq!(fleet.racks(), 3);
        assert!((fleet.total().as_watts() - 2_500.0).abs() < 1e-9);
        assert_eq!(fleet.peak_rack(), Some((2, Watts::new(1_200.0))));
        // Rack 2 is over budget and deferring; racks 0 and 1 have 100 W
        // and 600 W of admission headroom left.
        assert_eq!(fleet.racks_at_budget(), vec![2]);
        assert!((fleet.headroom().expect("budgeted").as_watts() - 700.0).abs() < 1e-9);
        // All-on draw of 5 kW: the fleet sheds half.
        assert!((fleet.savings_vs_all_on(Watts::new(5_000.0)) - 0.5).abs() < 1e-9);
        assert_eq!(fleet.savings_vs_all_on(Watts::new(0.0)), 0.0);
    }

    #[test]
    fn fleet_power_without_budget_reports_no_deferral_quantities() {
        let fleet = FleetPower::new(vec![Watts::new(500.0); 4], None);
        assert_eq!(fleet.racks_at_budget(), Vec::<usize>::new());
        assert_eq!(fleet.headroom(), None);
        assert!((fleet.total().as_watts() - 2_000.0).abs() < 1e-9);
        let empty = FleetPower::default();
        assert_eq!(empty.peak_rack(), None);
        assert_eq!(empty.racks(), 0);
    }
}
