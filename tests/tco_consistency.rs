//! Integration tests of the TCO study (Section VI / Figures 11-13):
//! cross-checks between the packing model, the workload generators and the
//! power model, plus the headline claims of the paper.

use dredbox::sim::rng::SimRng;
use dredbox::sim::units::ByteSize;
use dredbox::tco::{ConventionalDatacenter, DisaggregatedDatacenter, TcoPowerModel, TcoStudy};
use dredbox::workload::{VmDemand, WorkloadConfig};

#[test]
fn equal_aggregate_requirement_of_figure_11_holds() {
    let study = TcoStudy::paper_setup();
    assert_eq!(
        study.conventional().aggregate(),
        study.disaggregated().aggregate()
    );
}

#[test]
fn paper_headline_claims_hold_in_shape() {
    let results = TcoStudy::paper_setup().run_all(&mut SimRng::seed(2018));

    // "Up to 88% of dMEMBRICKs or dCOMPUBRICKs can be powered off."
    let max_brick = results.max_brick_off_fraction();
    assert!(
        (0.75..=0.95).contains(&max_brick),
        "expected the best brick-type power-off fraction near the paper's 88%, got {:.0}%",
        max_brick * 100.0
    );

    // "In a conventional datacenter only 15% of the hosts can be powered
    // off": for the strongly unbalanced mixes the conventional datacenter is
    // pinned by its scarce dimension and can switch off almost nothing,
    // while the disaggregated one frees most of the other brick type.
    for outcome in &results.outcomes {
        let strongly_unbalanced = matches!(
            outcome.config,
            WorkloadConfig::HighRam | WorkloadConfig::HighCpu | WorkloadConfig::MoreRam
        );
        if strongly_unbalanced {
            assert!(
                outcome.conventional.off_fraction() <= 0.25,
                "{}: conventional off fraction {:.0}% should stay small",
                outcome.config,
                outcome.conventional.off_fraction() * 100.0
            );
            assert!(
                outcome.disaggregated.best_type_off_fraction()
                    > outcome.conventional.off_fraction() + 0.3,
                "{}: disaggregation should free far more of one brick type",
                outcome.config
            );
        }
    }

    // "The opportunity to power down resources may translate into almost 50%
    // energy savings depending on the workload."
    assert!(
        results.max_savings() >= 0.35,
        "max savings {:.0}%",
        results.max_savings() * 100.0
    );

    // The balanced mix shows essentially no advantage — the point of the
    // unbalanced-vs-balanced comparison.
    let half = results
        .outcome(WorkloadConfig::HalfHalf)
        .expect("half half present");
    assert!(half.normalized_power > 0.9);

    // Disaggregation never *hurts*: normalized power stays at or below ~1,
    // and the disaggregated datacenter never rejects more VMs than the
    // conventional one.
    for outcome in &results.outcomes {
        assert!(
            outcome.normalized_power <= 1.05,
            "{}: {}",
            outcome.config,
            outcome.normalized_power
        );
        assert!(outcome.disaggregated.rejected_vms <= outcome.conventional.rejected_vms);
    }
}

#[test]
fn disaggregated_packing_dominates_conventional_packing() {
    // For any workload, the disaggregated datacenter accepts at least as many
    // VMs as the conventional one (it can always mirror its placement) and
    // its combined unused-unit count is at least as high.
    let conventional = ConventionalDatacenter::new(32, 32, ByteSize::from_gib(32));
    let disaggregated = DisaggregatedDatacenter::new(32, 32, 32, ByteSize::from_gib(32));
    let mut rng = SimRng::seed(77);
    for config in WorkloadConfig::ALL {
        let workload = config.generate(48, &mut rng);
        let conv = conventional.pack_fcfs(&workload);
        let dis = disaggregated.pack_fcfs(&workload);
        assert!(
            dis.rejected_vms <= conv.rejected_vms,
            "{config}: disaggregated rejected more VMs"
        );
        assert!(
            dis.combined_off_fraction() + 1e-9 >= conv.off_fraction() - 0.35,
            "{config}: sanity bound on off fractions"
        );
    }
}

#[test]
fn power_model_is_consistent_with_packing_extremes() {
    let power = TcoPowerModel::dredbox_default();
    let conventional = ConventionalDatacenter::new(16, 32, ByteSize::from_gib(32));
    let disaggregated = DisaggregatedDatacenter::new(16, 32, 16, ByteSize::from_gib(32));

    // Fully loaded with balanced VMs: both datacenters burn about the same.
    let full: Vec<VmDemand> = (0..32).map(|_| VmDemand::from_gib(16, 16)).collect();
    let ratio_full = power.normalized_power(
        &conventional.pack_fcfs(&full),
        &disaggregated.pack_fcfs(&full),
    );
    assert!(
        (ratio_full - 1.0).abs() < 0.05,
        "balanced full load ratio {ratio_full}"
    );

    // One tiny memory-heavy VM: the conventional DC keeps a whole server on,
    // the disaggregated one keeps one compute brick + one memory brick on —
    // at most the same power, usually similar; the savings come from *many*
    // such VMs consolidating, which the study tests cover.
    let single = vec![VmDemand::from_gib(1, 24)];
    let ratio_single = power.normalized_power(
        &conventional.pack_fcfs(&single),
        &disaggregated.pack_fcfs(&single),
    );
    assert!(ratio_single <= 1.05);
}

#[test]
fn fleet_power_feed_tracks_the_live_federation() {
    use dredbox::bricks::RackId;
    use dredbox::orchestrator::{ClusterController, PlacementPolicy};
    use dredbox::prelude::*;
    use dredbox::sim::units::Watts;
    use dredbox::tco::FleetPower;

    // The federation's power feed as the cluster tier sees it: one digest
    // per rack, read off each single-rack system, under the rack budget.
    fn fleet_power(racks: &[DredboxSystem], budget: Option<Watts>) -> (FleetPower, Watts) {
        let mut cluster = ClusterController::new(PlacementPolicy::PowerAware);
        cluster.set_rack_budget(budget);
        for (r, rack) in racks.iter().enumerate() {
            cluster.upsert(RackId(r as u16), rack.digest());
        }
        let fleet = FleetPower::new(cluster.provisioned_per_rack(), cluster.rack_budget());
        (fleet, cluster.provisioned_power())
    }

    let budget = Some(Watts::new(3_000.0));
    let config =
        dredbox::SystemConfig::datacenter_cluster(1, 2, 2, 2).with_rack_power_budget(budget);
    let mut racks: Vec<DredboxSystem> = (0..4)
        .map(|_| DredboxSystem::build(config.clone()).expect("build rack"))
        .collect();

    // Fully provisioned, every rack draws the same and the fleet total
    // matches the cluster controller's own aggregate.
    let (all_on, provisioned) = fleet_power(&racks, budget);
    assert_eq!(all_on.racks(), 4);
    assert_eq!(all_on.budget, budget);
    let total = all_on.total().as_watts();
    assert!((total - provisioned.as_watts()).abs() < 1e-6);
    assert_eq!(all_on.savings_vs_all_on(all_on.total()), 0.0);

    // Load one rack, sweep the others: the shed draw shows up as savings
    // against the all-on baseline, and the loaded rack is the peak.
    let loaded = 1;
    racks[loaded]
        .allocate_vm(2, ByteSize::from_gib(2))
        .expect("admits");
    for (idx, rack) in racks.iter_mut().enumerate() {
        if idx != loaded {
            rack.power_off_unused();
        }
    }
    let (fleet, _) = fleet_power(&racks, budget);
    assert!(fleet.total().as_watts() < total);
    assert_eq!(fleet.peak_rack().map(|(idx, _)| idx), Some(loaded));
    assert!(fleet.savings_vs_all_on(all_on.total()) > 0.5);
    // Every rack now sits under the budget with real admission headroom.
    assert_eq!(fleet.racks_at_budget(), Vec::<usize>::new());
    assert!(fleet.headroom().expect("budgeted").as_watts() > 0.0);
}
