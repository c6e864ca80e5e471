//! Bit-determinism of the sharded scenario engine, property-tested.
//!
//! Arbitrary multi-rack traces — admissions routed through the cluster
//! front door (cross-shard `AdmitOn` hops), churn, mid-run drains, seeded
//! failure storms and rolling upgrades — must render the *same report,
//! byte for byte*, at every worker count: a repeated one-worker replay and
//! the conservative runner at 2 and 4 workers, whose epoch barriers and
//! (time, shard, seq) mailbox merge may not shift a single byte relative
//! to the serial reference.
//!
//! Both pinned regression seeds (2018 and 7) are exercised per case. The
//! cluster-tier one-shot events (drain / storm / upgrade) are generated on
//! residues that never land on the 600 s power-sweep grid, so no serial
//! barrier shares a timestamp with a shard-local sweep.

use proptest::prelude::*;

use dredbox::prelude::*;
use dredbox::scenario::{DrainPlan, ScenarioMix, UpgradePlan};
use dredbox::sim::units::Watts;
use dredbox::workload::{LifetimeModel, WorkloadConfig};

/// Builds the concrete [`ScenarioSpec`] for one sampled trace. The drain,
/// storm and upgrade times come from arithmetic progressions (700 + 97k,
/// 800 + 89k, 905 + 83k seconds) chosen to avoid the sweep grid and each
/// other, so cluster-tier serial events never share a timestamp with a
/// shard-local event.
#[allow(clippy::too_many_arguments)]
fn build_spec(
    racks: u16,
    vm_count: usize,
    mean_interarrival_secs: u64,
    churn: Option<(u32, u64)>,
    drain: Option<(u16, u64)>,
    faults: Option<(u64, u64)>,
    upgrade: Option<u64>,
    reads_per_vm: u32,
) -> ScenarioSpec {
    let mut spec = ScenarioSpec::steady_state();
    spec.name = "determinism-prop".to_owned();
    spec.system = SystemConfig::datacenter_cluster(racks, 2, 3, 2)
        .with_rack_power_budget(Some(Watts::new(2_500.0)));
    spec.vm_count = vm_count;
    spec.mix = ScenarioMix::Table1(WorkloadConfig::Random);
    spec.arrivals = ArrivalModel::Poisson {
        mean_interarrival: SimDuration::from_secs(mean_interarrival_secs),
    };
    spec.lifetime = LifetimeModel::new(SimDuration::from_secs(900), SimDuration::from_secs(120));
    spec.churn = churn.map(|(cycles_per_vm, hold)| ChurnModel {
        cycles_per_vm,
        hold: SimDuration::from_secs(hold),
        amount_gib: (1, 2),
    });
    spec.migration = None;
    spec.offload = None;
    spec.reads_per_vm = reads_per_vm;
    spec.horizon = SimTime::from_secs(3_600);
    spec.power_sweep_every = Some(SimDuration::from_secs(600));
    spec.event_budget = 120_000;
    spec.drain = drain.map(|(rack, k)| DrainPlan {
        rack: rack % racks,
        at: SimTime::from_secs(700 + 97 * k),
    });
    spec.faults = faults.map(|(k, window)| {
        FailurePlan::storm(
            SimTime::from_secs(800 + 89 * k),
            SimDuration::from_secs(window),
        )
    });
    spec.upgrade = upgrade.map(|k| UpgradePlan {
        start: SimTime::from_secs(905 + 83 * k),
        stagger: SimDuration::from_secs(611),
    });
    spec.data_path = None;
    spec
}

fn render(spec: &ScenarioSpec, seed: u64, threads: usize) -> String {
    let report = spec
        .run_with_threads(seed, threads)
        .expect("generated scenario runs");
    format!("{report:#?}\n{report}")
}

proptest! {
    #[test]
    fn arbitrary_federation_traces_replay_bit_identically_in_every_execution_mode(
        racks in 2u16..=4,
        vm_count in 24usize..=48,
        mean_secs in 10u64..=60,
        churn in (proptest::bool::ANY, 1u32..=2, 60u64..=180),
        drain in (proptest::bool::ANY, 0u16..=3, 0u64..=12),
        faults in (proptest::bool::ANY, 0u64..=10, 600u64..=1200),
        upgrade in (proptest::bool::ANY, 0u64..=6),
        reads_per_vm in 0u32..=3,
    ) {
        let spec = build_spec(
            racks,
            vm_count,
            mean_secs,
            churn.0.then_some((churn.1, churn.2)),
            drain.0.then_some((drain.1, drain.2)),
            faults.0.then_some((faults.1, faults.2)),
            upgrade.0.then_some(upgrade.1),
            reads_per_vm,
        );
        for seed in [2018u64, 7] {
            let reference = render(&spec, seed, 1);
            for threads in [1usize, 2, 4] {
                let got = render(&spec, seed, threads);
                prop_assert_eq!(
                    &got,
                    &reference,
                    "seed {} with {} worker(s) diverged from the serial replay \
                     (racks {}, vms {})",
                    seed,
                    threads,
                    racks,
                    vm_count
                );
            }
        }
    }
}
