//! The TCO study driver: Figures 11, 12 and 13.

use serde::{Deserialize, Serialize};

use dredbox_sim::report::{Figure, Row, Series, Table};
use dredbox_sim::rng::SimRng;
use dredbox_sim::units::ByteSize;
use dredbox_workload::WorkloadConfig;

use crate::datacenter::{
    ConventionalDatacenter, ConventionalOutcome, DisaggregatedDatacenter, DisaggregatedOutcome,
};
use crate::power::TcoPowerModel;

/// The packing outcome of one Table I configuration on both datacenters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigOutcome {
    /// The workload configuration.
    pub config: WorkloadConfig,
    /// Conventional-datacenter packing result.
    pub conventional: ConventionalOutcome,
    /// Disaggregated-datacenter packing result.
    pub disaggregated: DisaggregatedOutcome,
    /// dReDBox power normalized to the conventional datacenter.
    pub normalized_power: f64,
}

/// Results of the full study over every Table I configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TcoResults {
    /// Per-configuration outcomes, in Table I order.
    pub outcomes: Vec<ConfigOutcome>,
}

impl TcoResults {
    /// The outcome for a specific configuration, if present.
    pub fn outcome(&self, config: WorkloadConfig) -> Option<&ConfigOutcome> {
        self.outcomes.iter().find(|o| o.config == config)
    }

    /// The maximum per-type brick power-off fraction seen across
    /// configurations (the paper reports "up to 88%").
    pub fn max_brick_off_fraction(&self) -> f64 {
        self.outcomes
            .iter()
            .map(|o| o.disaggregated.best_type_off_fraction())
            .fold(0.0, f64::max)
    }

    /// The maximum energy-savings fraction seen across configurations (the
    /// paper reports "almost 50%").
    pub fn max_savings(&self) -> f64 {
        self.outcomes
            .iter()
            .map(|o| 1.0 - o.normalized_power)
            .fold(0.0, f64::max)
    }

    /// Renders Figure 12: percentage of unutilized resources that can be
    /// powered off, per configuration and datacenter type.
    pub fn figure12(&self) -> Figure {
        let mut fig =
            Figure::new("Figure 12 — Percentage of unutilized resources that can be powered off");
        let mut conventional = Series::new(
            "conventional hosts off",
            "Table I configuration index",
            "% powered off",
        );
        let mut compute = Series::new(
            "dReDBox dCOMPUBRICKs off",
            "Table I configuration index",
            "% powered off",
        );
        let mut memory = Series::new(
            "dReDBox dMEMBRICKs off",
            "Table I configuration index",
            "% powered off",
        );
        let mut combined = Series::new(
            "dReDBox all bricks off",
            "Table I configuration index",
            "% powered off",
        );
        for (idx, o) in self.outcomes.iter().enumerate() {
            let x = idx as f64;
            conventional.push(x, o.conventional.off_fraction() * 100.0);
            compute.push(x, o.disaggregated.compute_off_fraction() * 100.0);
            memory.push(x, o.disaggregated.memory_off_fraction() * 100.0);
            combined.push(x, o.disaggregated.combined_off_fraction() * 100.0);
        }
        fig.push_series(conventional);
        fig.push_series(compute);
        fig.push_series(memory);
        fig.push_series(combined);
        fig.note(format!(
            "paper: up to 88% of dMEMBRICKs or dCOMPUBRICKs powered off vs ~15% of conventional hosts; measured max brick-type fraction {:.0}%",
            self.max_brick_off_fraction() * 100.0
        ));
        fig
    }

    /// Renders Figure 13: power consumption normalized to the conventional
    /// datacenter.
    pub fn figure13(&self) -> Figure {
        let mut fig = Figure::new(
            "Figure 13 — Estimated power consumption, normalized to the conventional datacenter",
        );
        let mut conventional = Series::new(
            "conventional (baseline)",
            "Table I configuration index",
            "normalized power",
        );
        let mut dredbox = Series::new("dReDBox", "Table I configuration index", "normalized power");
        for (idx, o) in self.outcomes.iter().enumerate() {
            let x = idx as f64;
            conventional.push(x, 1.0);
            dredbox.push(x, o.normalized_power);
        }
        fig.push_series(conventional);
        fig.push_series(dredbox);
        fig.note(format!(
            "paper: up to ~50% energy savings for unbalanced workloads; measured max savings {:.0}%",
            self.max_savings() * 100.0
        ));
        fig
    }

    /// Renders the per-configuration summary as a table (one row per Table I
    /// configuration).
    pub fn summary_table(&self) -> Table {
        let mut table = Table::new(
            "TCO study summary (64 VMs, equal-aggregate datacenters)",
            [
                "Configuration",
                "conv. hosts off %",
                "dCOMPUBRICK off %",
                "dMEMBRICK off %",
                "normalized power",
            ],
        );
        for o in &self.outcomes {
            table.push(Row::new(
                o.config.name(),
                [
                    format!("{:.1}", o.conventional.off_fraction() * 100.0),
                    format!("{:.1}", o.disaggregated.compute_off_fraction() * 100.0),
                    format!("{:.1}", o.disaggregated.memory_off_fraction() * 100.0),
                    format!("{:.3}", o.normalized_power),
                ],
            ));
        }
        table
    }
}

/// The TCO study: datacenter dimensions, power model and workload size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TcoStudy {
    servers: usize,
    cores_per_server: u32,
    memory_per_server: ByteSize,
    vms_per_config: usize,
    power: TcoPowerModel,
}

impl TcoStudy {
    /// The setup used for the reproduction: 64 servers of 32 cores + 32 GiB
    /// against 64 compute bricks + 64 memory bricks of the same aggregate,
    /// loaded with 64 VMs per Table I configuration.
    pub fn paper_setup() -> Self {
        TcoStudy {
            servers: 64,
            cores_per_server: 32,
            memory_per_server: ByteSize::from_gib(32),
            vms_per_config: 64,
            power: TcoPowerModel::dredbox_default(),
        }
    }

    /// Overrides the number of VMs per configuration.
    ///
    /// # Panics
    ///
    /// Panics if `vms` is zero.
    #[cfg(test)]
    pub(crate) fn with_vms_per_config(mut self, vms: usize) -> Self {
        assert!(vms > 0, "need at least one VM per configuration");
        self.vms_per_config = vms;
        self
    }

    /// Overrides the number of servers (and matching brick counts).
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    #[cfg(test)]
    pub(crate) fn with_servers(mut self, servers: usize) -> Self {
        assert!(servers > 0, "need at least one server");
        self.servers = servers;
        self
    }

    /// Overrides the power model.
    #[cfg(test)]
    pub(crate) fn with_power_model(mut self, power: TcoPowerModel) -> Self {
        self.power = power;
        self
    }

    /// The conventional datacenter of the study.
    pub fn conventional(&self) -> ConventionalDatacenter {
        ConventionalDatacenter::new(self.servers, self.cores_per_server, self.memory_per_server)
    }

    /// The disaggregated datacenter of the study (same aggregate resources).
    pub fn disaggregated(&self) -> DisaggregatedDatacenter {
        DisaggregatedDatacenter::new(
            self.servers,
            self.cores_per_server,
            self.servers,
            self.memory_per_server,
        )
    }

    /// Renders the Figure 11 configuration comparison as a table.
    pub fn figure11(&self) -> Table {
        let conv = self.conventional().aggregate();
        let dis = self.disaggregated().aggregate();
        let mut table = Table::new(
            "Figure 11 — Equal-aggregate datacenter configurations",
            ["Datacenter", "Units", "Aggregate cores", "Aggregate memory"],
        );
        table.push(Row::new(
            "conventional",
            [
                format!("{} servers (32 cores + 32 GiB each)", self.servers),
                conv.cores().to_string(),
                conv.memory().to_string(),
            ],
        ));
        table.push(Row::new(
            "dReDBox",
            [
                format!(
                    "{} dCOMPUBRICKs + {} dMEMBRICKs",
                    self.servers, self.servers
                ),
                dis.cores().to_string(),
                dis.memory().to_string(),
            ],
        ));
        table
    }

    /// Runs one Table I configuration.
    pub fn run_config(&self, config: WorkloadConfig, rng: &mut SimRng) -> ConfigOutcome {
        let workload = config.generate(self.vms_per_config, rng);
        let conventional = self.conventional().pack_fcfs(&workload);
        let disaggregated = self.disaggregated().pack_fcfs(&workload);
        let normalized_power = self.power.normalized_power(&conventional, &disaggregated);
        ConfigOutcome {
            config,
            conventional,
            disaggregated,
            normalized_power,
        }
    }

    /// Runs every Table I configuration.
    pub fn run_all(&self, rng: &mut SimRng) -> TcoResults {
        TcoResults {
            outcomes: WorkloadConfig::ALL
                .iter()
                .map(|c| self.run_config(*c, rng))
                .collect(),
        }
    }
}

impl Default for TcoStudy {
    fn default() -> Self {
        TcoStudy::paper_setup()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure11_aggregates_match() {
        let study = TcoStudy::paper_setup();
        assert_eq!(
            study.conventional().aggregate(),
            study.disaggregated().aggregate()
        );
        let table = study.figure11();
        assert_eq!(table.len(), 2);
        assert_eq!(
            table.row("conventional").unwrap().cells[1],
            table.row("dReDBox").unwrap().cells[1]
        );
    }

    #[test]
    fn study_reproduces_the_headline_shape() {
        let study = TcoStudy::paper_setup();
        let results = study.run_all(&mut SimRng::seed(2018));
        assert_eq!(results.outcomes.len(), 6);

        // Paper: up to ~88% of one brick type can be powered off.
        assert!(
            results.max_brick_off_fraction() > 0.75,
            "max brick-off fraction {}",
            results.max_brick_off_fraction()
        );
        // Paper: conventional hosts can rarely be powered off (≈15% best case).
        for o in &results.outcomes {
            assert!(
                o.conventional.off_fraction() <= 0.55,
                "{}: conventional off fraction {}",
                o.config,
                o.conventional.off_fraction()
            );
        }
        // Paper: up to ~50% energy savings; the balanced Half-Half mix saves
        // essentially nothing.
        assert!(
            results.max_savings() > 0.3,
            "max savings {}",
            results.max_savings()
        );
        let half = results.outcome(WorkloadConfig::HalfHalf).unwrap();
        assert!(half.normalized_power > 0.9);
        // Unbalanced mixes beat the balanced one.
        let high_ram = results.outcome(WorkloadConfig::HighRam).unwrap();
        assert!(high_ram.normalized_power < half.normalized_power);
    }

    #[test]
    fn figures_render_with_all_series() {
        let study = TcoStudy::paper_setup().with_vms_per_config(32);
        let results = study.run_all(&mut SimRng::seed(1));
        let fig12 = results.figure12();
        assert_eq!(fig12.series.len(), 4);
        assert!(fig12.series.iter().all(|s| s.len() == 6));
        let fig13 = results.figure13();
        assert_eq!(fig13.series.len(), 2);
        assert!(fig13.series_named("dReDBox").unwrap().y_max().unwrap() <= 1.05);
        let table = results.summary_table();
        assert_eq!(table.len(), 6);
        assert!(results.outcome(WorkloadConfig::Random).is_some());
    }

    #[test]
    fn study_is_deterministic_per_seed() {
        let study = TcoStudy::paper_setup();
        let a = study.run_all(&mut SimRng::seed(5));
        let b = study.run_all(&mut SimRng::seed(5));
        assert_eq!(a, b);
    }

    #[test]
    fn builder_overrides() {
        let study = TcoStudy::paper_setup()
            .with_servers(16)
            .with_vms_per_config(16)
            .with_power_model(TcoPowerModel::dredbox_default());
        let results = study.run_all(&mut SimRng::seed(3));
        assert_eq!(results.outcomes.len(), 6);
        assert_eq!(results.outcomes[0].conventional.total_servers, 16);
        assert_eq!(TcoStudy::default(), TcoStudy::paper_setup());
    }

    #[test]
    #[should_panic]
    fn zero_vms_rejected() {
        let _ = TcoStudy::paper_setup().with_vms_per_config(0);
    }
}
