//! Closed-loop scenario engine: replay the four built-in rack-scale VM
//! traces (steady-state, diurnal, burst-arrival, memory-churn) through the
//! whole stack — orchestrator placement, pool allocation, hotplug scale-up,
//! interconnect latency charging and power management — and print the
//! per-scenario reports.
//!
//! Run with:
//! `cargo run --release --example scenario [seed] [rack-scale] [migration] [offload] [datacenter] [failure] [datapath] [--threads N]`
//!
//! Passing `rack-scale` additionally replays the 256-compute-brick / 4096-VM
//! control-plane stress scenario (the capacity-index hot path) and checks
//! its same-seed determinism too. Passing `migration` replays the
//! consolidation and hotspot-evacuation scenarios — the live-migration flow
//! (memory resident on the dMEMBRICKs, only compute state moves) against
//! its conventional pre-copy / scale-out counterfactuals — with the same
//! determinism check. Passing `offload` replays the offload-heavy scenario —
//! near-data dACCELBRICK sessions against the stream-to-the-dCOMPUBRICK
//! counterfactual, with bitstream reuse vs reprogram counts — likewise
//! determinism-checked. Passing `datacenter` replays the 16-rack federated
//! scenario through the cluster controller — routed admissions, per-rack
//! power sweeps and a mid-run rack drain — checks its determinism, and
//! reports wall-clock time (the CI smoke keeps it time-bounded). Passing
//! `failure` replays the two robustness scenarios — the failure-storm
//! (seeded brick/link/switch faults with recovery and repair), on its two
//! racks and on one, and the rolling-upgrade (per-rack drain → snapshot →
//! restore → readmit) — with the same determinism check and a
//! zero-lost-bytes assertion. Passing
//! `datapath` replays the two load-dependent data-path scenarios — the
//! memory-thrash (fabric contention, per-VM remote caches and the adaptive
//! movement-granularity controller) and the incast (ten page-granularity
//! streams saturating a single dMEMBRICK port) — with the same determinism
//! check and assertions that the fabric actually saw pressure.
//!
//! Passing `--threads N` (with `datacenter`) additionally replays the
//! federated scenario on N worker threads through the conservative
//! parallel runner, asserts the report is bit-identical to the serial
//! replay — and, when the committed golden snapshot for the seed exists,
//! byte-identical to that too — and prints both wall-clock times. With
//! `datapath`, it replays each data-path scenario on N threads, where the
//! rack's observation log (bursts, priced reads, report samples) drains
//! on a helper thread, and asserts the report renders identically to the
//! serial one. With `failure`, it does the same for each robustness
//! replay.
//!
//! Passing `datacenter-64` replays the 64-rack federation on `--threads N`
//! workers (default 1) with a determinism replay. It is too large for the
//! golden suite, so at seed 2018 the example instead checks the FNV-1a
//! fingerprint of the report's `{:#?}` rendering against a pinned value.
//!
//! Every replay panics if it stops at its spec's event budget: each
//! shipped budget is a runaway guard sized above the replay.

use std::fmt::Write as _;

use dredbox::prelude::*;

/// FNV-1a (64-bit) of `format!("{report:#?}")` for `datacenter-64` at seed
/// 2018. A change that moves any figure of the 64-rack report moves this.
const DATACENTER_64_FINGERPRINT_2018: u64 = 0x48dd_0948_47bd_65d6;

/// Streams text through FNV-1a (64-bit), so fingerprinting a report never
/// materialises its rendering.
struct Fnv1a(u64);

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// Panics when a replay of a shipped spec stopped at its event budget.
/// Every shipped budget is a runaway guard sized above its replay, so a
/// stop there means something grew the replay and cut its report short.
fn assert_within_budget(report: &ScenarioReport) {
    assert_ne!(
        report.outcome,
        RunOutcome::BudgetExhausted,
        "{} stopped at its event budget after {} events",
        report.name,
        report.events
    );
}

/// Replays `spec` from `seed` on `threads` threads, panicking if the
/// replay stopped at its event budget.
fn replay(spec: &ScenarioSpec, seed: u64, threads: usize) -> Result<ScenarioReport, SystemError> {
    let report = spec.run_with_threads(seed, threads)?;
    assert_within_budget(&report);
    Ok(report)
}

/// The FNV-1a fingerprint of `value`'s `{:#?}` rendering.
fn fingerprint(value: &impl std::fmt::Debug) -> u64 {
    let mut hash = Fnv1a(0xcbf2_9ce4_8422_2325);
    write!(hash, "{value:#?}").expect("hashing cannot fail");
    hash.0
}

fn main() -> Result<(), SystemError> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--threads N` must come out before the seed scan, or N is taken for
    // a seed.
    let threads = match args.iter().position(|a| a == "--threads") {
        Some(i) => {
            let n: usize = args
                .get(i + 1)
                .and_then(|a| a.parse().ok())
                .expect("--threads takes a worker count");
            args.drain(i..=i + 1);
            n.max(1)
        }
        None => 1,
    };
    let seed = args.iter().find_map(|a| a.parse().ok()).unwrap_or(2018);
    let with_rack_scale = args.iter().any(|a| a == "rack-scale");
    let with_migration = args.iter().any(|a| a == "migration");
    let with_offload = args.iter().any(|a| a == "offload");
    let with_datacenter = args.iter().any(|a| a == "datacenter");
    let with_datacenter_64 = args.iter().any(|a| a == "datacenter-64");
    let with_failure = args.iter().any(|a| a == "failure");
    let with_datapath = args.iter().any(|a| a == "datapath");

    let suite = run_builtin_suite(seed)?;
    println!("{suite}");
    suite.reports.iter().for_each(assert_within_budget);

    // Determinism: replaying the suite with the same seed must reproduce
    // the reports bit for bit.
    let again = run_builtin_suite(seed)?;
    assert_eq!(suite, again, "same-seed replay diverged");
    println!("\ndeterminism check: replay with seed {seed} produced an identical report");

    if with_migration {
        for spec in [
            ScenarioSpec::consolidation(),
            ScenarioSpec::hotspot_evacuation(),
        ] {
            let report = replay(&spec, seed, 1)?;
            println!("\n{report}");
            let again = replay(&spec, seed, 1)?;
            assert_eq!(report, again, "{} same-seed replay diverged", spec.name);
            println!(
                "determinism check: {} replay with seed {seed} was identical \
                 ({} migrations, {} bricks powered off)",
                spec.name, report.migrations, report.bricks_powered_off
            );
        }
    }

    if with_offload {
        let spec = ScenarioSpec::offload_heavy();
        let report = replay(&spec, seed, 1)?;
        println!("\n{report}");
        let again = replay(&spec, seed, 1)?;
        assert_eq!(report, again, "offload-heavy same-seed replay diverged");
        println!(
            "determinism check: offload-heavy replay with seed {seed} was identical \
             ({} sessions, {} bitstream reuses, {} programs, {} wakes)",
            report.offloads, report.bitstream_reuses, report.bitstream_programs, report.accel_wakes
        );
    }

    if with_rack_scale {
        let spec = ScenarioSpec::rack_scale();
        let started = std::time::Instant::now();
        let report = replay(&spec, seed, 1)?;
        let elapsed = started.elapsed();
        println!("\n{report}");
        println!(
            "rack-scale: {} bricks, {} arrivals replayed in {:.3} s wall-clock",
            spec.system.total_compute_bricks() + spec.system.total_memory_bricks(),
            spec.vm_count,
            elapsed.as_secs_f64()
        );
        let again = replay(&spec, seed, 1)?;
        assert_eq!(report, again, "rack-scale same-seed replay diverged");
        println!("determinism check: rack-scale replay with seed {seed} was identical");
    }

    if with_datacenter {
        let spec = ScenarioSpec::datacenter();
        let started = std::time::Instant::now();
        let report = replay(&spec, seed, 1)?;
        let elapsed = started.elapsed();
        println!("\n{report}");
        let cluster = report.cluster.as_ref().expect("federated stats reported");
        println!(
            "datacenter: {} racks, {} compute bricks, {} events replayed in {:.3} s wall-clock",
            spec.system.racks,
            spec.system.total_compute_bricks(),
            report.events,
            elapsed.as_secs_f64()
        );
        let again = replay(&spec, seed, 1)?;
        assert_eq!(report, again, "datacenter same-seed replay diverged");
        println!(
            "determinism check: datacenter replay with seed {seed} was identical \
             ({} routed admissions, {} spillovers, {} cross-rack migrations)",
            cluster.routed_admissions, cluster.spillovers, cluster.cross_rack_migrations
        );
        if threads > 1 {
            let started = std::time::Instant::now();
            let parallel = replay(&spec, seed, threads)?;
            let wall = started.elapsed();
            assert_eq!(
                report, parallel,
                "datacenter threaded replay diverged from serial"
            );
            println!(
                "determinism check: datacenter on {threads} workers was identical \
                 ({:.3} s wall-clock vs {:.3} s serial)",
                wall.as_secs_f64(),
                elapsed.as_secs_f64()
            );
            // When the committed golden for this seed exists, the threaded
            // report must reproduce it byte for byte — the same proof the
            // test suite runs, wired here so CI exercises it on a release
            // build of the real scenario.
            let golden_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../../tests/golden")
                .join(format!("{}-{seed}.txt", spec.name));
            if let Ok(golden) = std::fs::read_to_string(&golden_path) {
                let rendered = format!("{parallel:#?}\n{parallel}");
                assert!(
                    rendered == golden,
                    "threaded datacenter report drifted from {}",
                    golden_path.display()
                );
                println!(
                    "golden check: threaded report matches {} byte for byte",
                    golden_path.display()
                );
            }
        }
    }

    if with_datacenter_64 {
        let spec = ScenarioSpec::datacenter_64();
        let started = std::time::Instant::now();
        let report = replay(&spec, seed, threads)?;
        let elapsed = started.elapsed();
        let cluster = report.cluster.as_ref().expect("federated stats reported");
        println!(
            "\ndatacenter-64: {} racks, {} compute bricks, {} events on {} worker(s) \
             in {:.3} s wall-clock ({} routed admissions, {} spillovers, \
             {} cross-rack migrations)",
            spec.system.racks,
            spec.system.total_compute_bricks(),
            report.events,
            threads,
            elapsed.as_secs_f64(),
            cluster.routed_admissions,
            cluster.spillovers,
            cluster.cross_rack_migrations
        );
        let again = replay(&spec, seed, threads)?;
        assert_eq!(report, again, "datacenter-64 same-seed replay diverged");
        println!("determinism check: datacenter-64 replay with seed {seed} was identical");
        if seed == 2018 {
            let found = fingerprint(&report);
            assert_eq!(
                found, DATACENTER_64_FINGERPRINT_2018,
                "datacenter-64 report fingerprint drifted: {found:016x}"
            );
            println!("fingerprint check: datacenter-64 report matches the pinned {found:016x}");
        }
    }

    if with_failure {
        let started = std::time::Instant::now();
        // The storm on one rack: the same fault recovery with no other
        // rack to restart stranded guests onto.
        let mut one_rack_storm = ScenarioSpec::failure_storm();
        one_rack_storm.system.racks = 1;
        for spec in [
            ScenarioSpec::failure_storm(),
            one_rack_storm,
            ScenarioSpec::rolling_upgrade(),
        ] {
            let label = format!("{} on {} rack(s)", spec.name, spec.system.racks);
            let report = replay(&spec, seed, 1)?;
            println!("\n{report}");
            let again = replay(&spec, seed, 1)?;
            assert_eq!(report, again, "{label} same-seed replay diverged");
            if threads > 1 {
                let threaded = replay(&spec, seed, threads)?;
                assert_eq!(
                    format!("{report:#?}\n{report}"),
                    format!("{threaded:#?}\n{threaded}"),
                    "{label} on {threads} threads diverged from the serial replay"
                );
                println!("thread check: {label} on {threads} threads rendered identically");
            }
            let avail = report.availability.as_ref().expect("availability reported");
            assert_eq!(
                avail.upgrade_lost_bytes, 0,
                "{label}: pooled bytes went missing across servicing"
            );
            assert_eq!(
                avail.upgrade_restore_mismatches, 0,
                "{label}: a snapshot restored non-identically"
            );
            println!(
                "determinism check: {label} replay with seed {seed} was identical \
                 ({} faults injected, {} repairs, {} upgrades, {} bytes lost)",
                avail.faults_injected, avail.repairs, avail.upgrades, avail.upgrade_lost_bytes
            );
        }
        println!(
            "failure: the three robustness replays ran in {:.3} s wall-clock",
            started.elapsed().as_secs_f64()
        );
    }

    if with_datapath {
        for spec in [ScenarioSpec::memory_thrash(), ScenarioSpec::incast()] {
            let report = replay(&spec, seed, 1)?;
            println!("\n{report}");
            let again = replay(&spec, seed, 1)?;
            assert_eq!(report, again, "{} same-seed replay diverged", spec.name);
            if threads > 1 {
                let threaded = replay(&spec, seed, threads)?;
                assert_eq!(
                    format!("{report:#?}\n{report}"),
                    format!("{threaded:#?}\n{threaded}"),
                    "{} on {threads} threads diverged from the serial replay",
                    spec.name
                );
                println!(
                    "thread check: {} on {threads} threads rendered identically",
                    spec.name
                );
            }
            let dp = report.data_path.as_ref().expect("data-path block reported");
            assert!(dp.reads > 0, "{}: no accesses driven", spec.name);
            assert!(
                dp.peak_fabric_utilization > 0.5,
                "{}: the fabric never saw pressure",
                spec.name
            );
            println!(
                "determinism check: {} replay with seed {seed} was identical \
                 ({} reads, {} cache hits, {} granularity switches, \
                  p99 {:.0} ns, peak stage utilization {:.1}%)",
                spec.name,
                dp.reads,
                dp.cache_hits,
                dp.granularity_switches,
                dp.read_latency_p99_ns,
                dp.peak_fabric_utilization * 100.0
            );
        }
    }
    Ok(())
}
