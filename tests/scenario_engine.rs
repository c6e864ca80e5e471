//! Integration tests for the closed-loop scenario engine: determinism given
//! a seed, and end-to-end coverage of the orchestration, memory, hotplug,
//! interconnect and power-management layers by the four built-in scenarios.

use dredbox::prelude::*;

#[test]
fn same_seed_replays_bit_identically_for_every_builtin_scenario() {
    for spec in ScenarioSpec::builtin_suite() {
        let a = spec.run(42).expect("scenario runs");
        let b = spec.run(42).expect("scenario runs");
        assert_eq!(a, b, "scenario {} must replay deterministically", spec.name);
        assert_eq!(
            a.to_string(),
            b.to_string(),
            "rendered report of {} must be identical",
            spec.name
        );
    }
}

#[test]
fn different_seeds_produce_different_traces() {
    let spec = ScenarioSpec::steady_state();
    let a = spec.run(1).expect("run");
    let b = spec.run(2).expect("run");
    assert_ne!(a, b, "different seeds should not replay the same trace");
}

#[test]
fn the_suite_exercises_every_layer_of_the_stack() {
    let suite = run_builtin_suite(7).expect("suite runs");
    assert_eq!(suite.reports.len(), 4);
    assert_eq!(suite.table().len(), 4);

    for report in &suite.reports {
        assert!(report.admitted > 0, "{}: no VM admitted", report.name);
        assert!(report.events > 0, "{}: no events processed", report.name);
        // Every admitted VM charges reads through the interconnect model.
        let reads = report
            .read_latency
            .as_ref()
            .unwrap_or_else(|| panic!("{}: no reads charged", report.name));
        assert!(reads.mean() > 0.0);
        // The pool saw real allocations.
        let util = report
            .pool_utilization
            .as_ref()
            .unwrap_or_else(|| panic!("{}: no utilization samples", report.name));
        assert!(util.max() > 0.0, "{}: pool never utilized", report.name);
    }

    // The churn scenario drives the hotplug/ballooning scale-up hot path.
    let churn = suite.report("memory-churn").expect("scenario present");
    assert!(churn.scale_ups > 0, "memory-churn must scale up");
    assert!(churn.scale_downs > 0, "memory-churn must scale down");
    let delay = churn.scale_up_delay.as_ref().expect("delays recorded");
    assert!(
        delay.max() < 2.0,
        "per-VM scale-up should stay under 2 s, got {}",
        delay.max()
    );

    // Bursts overlap in time.
    let burst = suite.report("burst-arrival").expect("scenario present");
    assert!(
        burst.peak_live >= 4,
        "burst arrivals should overlap, peak live was {}",
        burst.peak_live
    );

    // The diurnal scenario spans a real fraction of its 24-hour day.
    let diurnal = suite.report("diurnal").expect("scenario present");
    assert!(
        diurnal.end.as_secs_f64() > 6.0 * 3_600.0,
        "diurnal run ended too early at {} s",
        diurnal.end.as_secs_f64()
    );

    // Power management fires and finds idle bricks to switch off.
    assert!(
        suite.reports.iter().any(|r| r.power_sweeps > 0),
        "no power sweep ran"
    );
    assert!(
        suite.reports.iter().any(|r| r.bricks_powered_off > 0),
        "no brick was ever powered off"
    );
}

#[test]
fn rack_scale_scenario_stresses_the_control_plane_deterministically() {
    let spec = ScenarioSpec::rack_scale();
    assert!(spec.system.total_compute_bricks() >= 256);
    assert!(spec.system.total_memory_bricks() >= 64);
    assert!(
        spec.vm_count >= 2_000,
        "rack-scale must replay thousands of arrivals"
    );

    let a = spec.run(2018).expect("rack-scale runs");
    let b = spec.run(2018).expect("rack-scale runs");
    assert_eq!(a, b, "rack-scale must replay bit-identically");

    // The trace genuinely loads the rack: hundreds of concurrent VMs, a
    // busy pool, real departures and power management.
    assert!(a.admitted >= 1_000, "only {} VMs admitted", a.admitted);
    assert!(a.peak_live >= 100, "peak live was only {}", a.peak_live);
    assert!(a.departed > 0);
    assert!(a.scale_ups > 0);
    assert!(a.power_sweeps > 0);
    assert!(a.bricks_powered_off > 0);
    let util = a.pool_utilization.as_ref().expect("utilization sampled");
    assert!(util.max() > 0.5, "pool never filled: {}", util.max());

    // The extended suite carries it alongside the four quick scenarios,
    // the two migration scenarios, the offload scenario, the federated
    // datacenter scenario, the two robustness scenarios and the two
    // data-path scenarios.
    let extended = ScenarioSpec::extended_suite();
    assert_eq!(extended.len(), 13);
    assert_eq!(extended[4].name, "rack-scale");
    assert_eq!(extended[5].name, "consolidation");
    assert_eq!(extended[6].name, "hotspot-evacuation");
    assert_eq!(extended[7].name, "offload-heavy");
    assert_eq!(extended[8].name, "datacenter");
    assert_eq!(extended[9].name, "failure-storm");
    assert_eq!(extended[10].name, "rolling-upgrade");
    assert_eq!(extended[11].name, "memory-thrash");
    assert_eq!(extended[12].name, "incast");
}

#[test]
fn datacenter_scenario_federates_racks_and_replays_bit_identically() {
    let spec = ScenarioSpec::datacenter();
    assert!(
        spec.system.racks >= 16,
        "datacenter must federate 16+ racks"
    );
    assert!(
        spec.system.total_compute_bricks() >= 4_096,
        "datacenter must span thousands of compute bricks"
    );
    assert!(
        spec.drain.is_some(),
        "datacenter must exercise a rack drain"
    );

    let a = spec.run(2018).expect("datacenter runs");
    let b = spec.run(2018).expect("datacenter runs");
    assert_eq!(a, b, "datacenter must replay bit-identically");

    // The federated telemetry block is present and consistent: every
    // admission was routed by the cluster controller, the per-rack tallies
    // add up, and the drain genuinely evacuated VMs across racks.
    let cluster = a.cluster.as_ref().expect("cluster stats reported");
    assert_eq!(cluster.racks, u64::from(spec.system.racks));
    assert_eq!(cluster.routed_admissions, a.admitted);
    assert_eq!(
        cluster.admissions_per_rack.iter().sum::<u64>(),
        a.admitted,
        "per-rack admissions must add up to the total"
    );
    assert_eq!(cluster.racks_drained, 1);
    assert!(
        cluster.cross_rack_migrations > 0,
        "draining a loaded rack must migrate VMs across racks"
    );
    assert_eq!(a.migrations, cluster.cross_rack_migrations);
    assert!(
        cluster
            .admissions_per_rack
            .iter()
            .filter(|&&n| n > 0)
            .count()
            > 1,
        "admissions must spread across racks"
    );
    assert!(a.power_sweeps > 0, "per-rack sweeps must fire");
    assert!(a.departed > 0);
}

#[test]
fn migration_scenarios_replay_bit_identically_at_fixed_seeds() {
    for spec in [
        ScenarioSpec::consolidation(),
        ScenarioSpec::hotspot_evacuation(),
    ] {
        for seed in [2018u64, 7] {
            let a = spec.run(seed).expect("scenario runs");
            let b = spec.run(seed).expect("scenario runs");
            assert_eq!(
                a, b,
                "{} must replay bit-identically at seed {seed}",
                spec.name
            );
            assert_eq!(
                a.to_string(),
                b.to_string(),
                "rendered report of {} must be byte-identical at seed {seed}",
                spec.name
            );
        }
    }
}

#[test]
fn consolidation_migrates_vms_and_sleeps_more_bricks_than_a_no_migration_run() {
    let spec = ScenarioSpec::consolidation();
    let report = spec.run(2018).expect("consolidation runs");
    assert!(report.admitted > 0);
    assert!(report.rebalances > 0, "no rebalance pass ran");
    assert!(report.migrations > 0, "consolidation never migrated a VM");

    // The headline elasticity claim: moving only the brick-local compute
    // state beats the conventional pre-copy of the full guest RAM by a wide
    // margin — per VM, not just on average.
    let downtime = report
        .migration_downtime
        .as_ref()
        .expect("downtime recorded");
    let precopy = report
        .precopy_counterfactual
        .as_ref()
        .expect("counterfactual recorded");
    assert!(
        downtime.mean() < precopy.mean(),
        "disaggregated migration ({:.3} s) must beat pre-copy ({:.3} s)",
        downtime.mean(),
        precopy.mean()
    );
    assert!(
        downtime.max() < precopy.min(),
        "even the slowest migration ({:.3} s) must beat the fastest pre-copy ({:.3} s)",
        downtime.max(),
        precopy.min()
    );

    // Consolidation must buy the power manager something: the same trace
    // without migrations sleeps fewer bricks.
    let mut no_migration = spec.clone();
    no_migration.migration = None;
    let baseline = no_migration.run(2018).expect("baseline runs");
    assert!(
        report.bricks_powered_off > baseline.bricks_powered_off,
        "consolidation slept {} bricks, the no-migration run slept {}",
        report.bricks_powered_off,
        baseline.bricks_powered_off
    );
}

#[test]
fn hotspot_evacuation_spreads_load_and_reports_the_scaleout_counterfactual() {
    let report = ScenarioSpec::hotspot_evacuation()
        .run(2018)
        .expect("hotspot-evacuation runs");
    assert!(report.admitted > 0);
    assert!(report.evacuations > 0, "no hotspot was ever evacuated");
    assert!(report.migrations > 0);

    let downtime = report
        .migration_downtime
        .as_ref()
        .expect("downtime recorded");
    let scaleout = report
        .scaleout_counterfactual
        .as_ref()
        .expect("scale-out counterfactual recorded");
    // Figure 10: conventional scale-out is 45-100 s per VM; evacuating the
    // running VMs (memory resident on the dMEMBRICKs) is sub-second.
    assert!(scaleout.min() > 40.0, "scale-out floor is tens of seconds");
    assert!(
        downtime.max() * 10.0 < scaleout.min(),
        "evacuation ({:.3} s max) must be at least 10x faster than scale-out ({:.1} s min)",
        downtime.max(),
        scaleout.min()
    );
}

#[test]
fn offload_heavy_replays_bit_identically_at_fixed_seeds() {
    let spec = ScenarioSpec::offload_heavy();
    for seed in [2018u64, 7] {
        let a = spec.run(seed).expect("offload-heavy runs");
        let b = spec.run(seed).expect("offload-heavy runs");
        assert_eq!(
            a, b,
            "offload-heavy must replay bit-identically at seed {seed}"
        );
        assert_eq!(
            a.to_string(),
            b.to_string(),
            "rendered report must be byte-identical at seed {seed}"
        );
    }
}

#[test]
fn offload_heavy_reports_utilization_reuse_and_the_counterfactual() {
    for seed in [2018u64, 7] {
        let report = ScenarioSpec::offload_heavy()
            .run(seed)
            .expect("offload-heavy runs");
        assert!(report.admitted > 0);
        assert!(report.offloads > 0, "seed {seed}: no offload session began");
        assert!(report.offloads_completed > 0, "seed {seed}");

        // The dACCELBRICKs genuinely work: nonzero utilization, with both
        // bitstream reuse and PCAP (re)programming occurring — the reuse
        // vs thrash picture the report carries.
        let util = report
            .accel_utilization
            .as_ref()
            .expect("accel utilization sampled");
        assert!(util.max() > 0.0, "seed {seed}: accelerators never busy");
        assert!(
            report.bitstream_reuses > 0,
            "seed {seed}: no bitstream reuse"
        );
        assert!(
            report.bitstream_programs > 0,
            "seed {seed}: nothing programmed"
        );
        // Power sweeps interact with offload: sleeping accelerators lose
        // their bitstreams, so later sessions wake and reprogram them.
        assert!(report.accel_wakes > 0, "seed {seed}: no accelerator woken");
        assert!(
            report.bitstream_reuses > report.bitstream_programs,
            "seed {seed}: three kernels over four accelerators should mostly reuse"
        );

        // The near-data counterfactual: streaming to the dCOMPUBRICK and
        // scanning in software costs more than offloading, on average.
        let offload = report.offload_time.as_ref().expect("offload timed");
        let local = report
            .offload_local_counterfactual
            .as_ref()
            .expect("counterfactual recorded");
        assert!(
            offload.mean() < local.mean(),
            "seed {seed}: offload ({:.3} s) must beat local compute ({:.3} s)",
            offload.mean(),
            local.mean()
        );
        assert_eq!(offload.count(), local.count());
        assert_eq!(offload.count() as u64, report.offloads);
    }
}

#[test]
fn every_scenario_serializes_requests_through_the_control_plane_queue() {
    for spec in ScenarioSpec::builtin_suite() {
        let report = spec.run(7).expect("scenario runs");
        let wait = report
            .control_plane_wait
            .as_ref()
            .unwrap_or_else(|| panic!("{}: no control-plane waits recorded", report.name));
        assert!(
            wait.count() as u64 >= report.admitted,
            "{}: every admission must pass the queue",
            report.name
        );
        assert!(report.control_plane_peak_queue >= 1, "{}", report.name);
    }
}

/// The bit-determinism contract of the sharded engine: every extended-suite
/// scenario, at the two pinned seeds, must reproduce the committed snapshot
/// under `tests/golden/` byte for byte on 1, 2 and 4 worker threads. On a
/// federation the conservative runner's epoch barriers and (time, shard,
/// seq) merge may not shift a single byte; on a single rack neither may
/// the observation log drained on a helper thread from 2 threads up. Any
/// engine, control-plane, or index change that shifts a single report bit
/// fails here; regenerate intentionally with
/// `cargo run --release --example golden`.
#[test]
fn extended_suite_matches_golden_snapshots_at_every_thread_count() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    for spec in ScenarioSpec::extended_suite() {
        for seed in [2018u64, 7] {
            let path = dir.join(format!("{}-{}.txt", spec.name, seed));
            let golden = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing golden snapshot {}: {e}", path.display()));
            for threads in [1, 2, 4] {
                let report = spec.run_with_threads(seed, threads).expect("scenario runs");
                let rendered = format!("{report:#?}\n{report}");
                assert!(
                    rendered == golden,
                    "{}-{seed} with {threads} worker(s) drifted from {}",
                    spec.name,
                    path.display()
                );
            }
        }
    }
}

/// A binding event budget cuts a single-rack replay on the same event the
/// serial engine did. The fixtures under `tests/fixtures/` were rendered
/// by the serial single-rack loop. `rack-scale`'s budget is smaller than
/// its 4,096 queued arrivals, so the epoch runner steps one event at a
/// time from the start; `offload-heavy`'s outlasts its 32 arrivals and
/// binds inside the run's one epoch. `memory-thrash` cuts its data path
/// mid-run, so the report prices exactly the bursts and reads logged
/// before the cut, whichever thread drained the log.
#[test]
fn single_rack_budget_cutoffs_match_the_serial_renders() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
    for (mut spec, budget) in [
        (ScenarioSpec::rack_scale(), 3_001u64),
        (ScenarioSpec::offload_heavy(), 97),
        (ScenarioSpec::memory_thrash(), 101),
    ] {
        spec.event_budget = budget;
        let path = dir.join(format!("{}-2018-budget-{budget}.txt", spec.name));
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
        for threads in [1, 2, 4] {
            let report = spec.run_with_threads(2018, threads).expect("scenario runs");
            assert_eq!(report.outcome, RunOutcome::BudgetExhausted, "{}", spec.name);
            assert_eq!(report.events, budget, "{}", spec.name);
            let rendered = format!("{report:#?}\n{report}");
            assert!(
                rendered == expected,
                "{} at budget {budget} on {threads} thread(s) drifted from {}",
                spec.name,
                path.display()
            );
        }
    }
}

/// The failure storm on one rack: every fault and repair strikes the lone
/// rack, so recovery has no other rack to restart onto. Seed 2018 covers
/// in-rack migrations, a memory-fault restart, lost VMs, orphan reclaim,
/// link faults and a switch failover. The fixtures pin the reports at
/// every thread count, where the rack's observation log drains on a
/// helper from 2 threads up.
#[test]
fn single_rack_failure_storm_matches_the_pinned_renders() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
    let mut spec = ScenarioSpec::failure_storm();
    spec.system.racks = 1;
    for seed in [2018u64, 7] {
        let path = dir.join(format!("failure-storm-1rack-{seed}.txt"));
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
        for threads in [1, 2, 4] {
            let report = spec.run_with_threads(seed, threads).expect("scenario runs");
            assert!(report.cluster.is_none(), "one rack federates nothing");
            let rendered = format!("{report:#?}\n{report}");
            assert!(
                rendered == expected,
                "failure-storm on one rack at seed {seed} on {threads} thread(s) drifted from {}",
                path.display()
            );
        }
    }
}

/// A horizon at the last representable instant neither overflows the
/// epoch runner's exclusive bounds nor stalls it: a single rack and a
/// federation run under a 20k-event budget and give the same report at 1
/// and 2 threads.
#[test]
fn a_maximal_horizon_runs_alike_at_every_thread_count() {
    for mut spec in [ScenarioSpec::steady_state(), ScenarioSpec::datacenter()] {
        spec.horizon = SimTime::from_nanos(u64::MAX);
        spec.event_budget = 20_000;
        let render = |threads: usize| {
            let report = spec.run_with_threads(2018, threads).expect("scenario runs");
            assert!(report.events <= spec.event_budget, "{}", spec.name);
            format!("{report:#?}\n{report}")
        };
        assert!(render(1) == render(2), "{} drifted at 2 threads", spec.name);
    }
}
