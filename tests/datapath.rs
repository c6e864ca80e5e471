//! Invariants of the load-dependent remote-memory data path: a
//! contention-free configuration replays the flat latency model
//! bit-for-bit, incast pressure visibly collapses the latency tail,
//! adaptive movement granularity visibly recovers it, and the two shipped
//! data-path scenarios stay bit-deterministic at every worker count.

use proptest::prelude::*;

use dredbox::bricks::BrickId;
use dredbox::prelude::*;

/// A minimal read stream: the VMs publish standing load but never run a
/// sampled burst, so every latency sample comes from the per-admission
/// read charges the flat model also prices.
fn direct_reads_only() -> ReadProfile {
    ReadProfile {
        working_set: ByteSize::from_bytes(1024 * 1024),
        reads_per_sec: 1.0e5,
        bursts_per_vm: 0,
        reads_per_burst: 0,
        burst_every: SimDuration::ZERO,
        start_after: SimDuration::ZERO,
        locality: 0.5,
    }
}

/// A small single-rack spec whose only latency samples are the
/// per-admission direct reads.
fn tiny_spec(vm_count: usize) -> ScenarioSpec {
    let mut spec = ScenarioSpec::steady_state();
    spec.name = "tiny".to_owned();
    spec.system = SystemConfig::datacenter_rack(1, 2, 2);
    spec.vm_count = vm_count;
    spec.churn = None;
    spec.reads_per_vm = 6;
    spec.horizon = SimTime::from_secs(1_800);
    spec.power_sweep_every = None;
    spec
}

/// Strips the data-path block so a data-path report can be compared
/// field-for-field against a flat-model report of the same replay.
fn without_data_path(mut report: ScenarioReport) -> ScenarioReport {
    report.data_path = None;
    report
}

proptest! {
    #[test]
    fn contention_free_data_path_replays_the_flat_model_bit_for_bit(
        seed in 0u64..1_000_000,
        vm_count in 1usize..5,
    ) {
        let mut flat = tiny_spec(vm_count);
        flat.data_path = None;
        let mut with_dp = tiny_spec(vm_count);
        with_dp.data_path = Some(DataPathConfig {
            contention: None,
            cache: None,
            initial_granularity: Granularity::Page,
            adaptive: false,
            profile: direct_reads_only(),
        });
        let a = flat.run(seed).expect("flat run");
        let b = with_dp.run(seed).expect("data-path run");
        let stats = b.data_path.clone().expect("data-path block reported");
        prop_assert_eq!(stats.reads, 0, "no bursts were configured");
        let b = without_data_path(b);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(format!("{a:#?}\n{a}"), format!("{b:#?}\n{b}"));
    }

    #[test]
    fn single_tenant_contention_charges_nothing_over_the_flat_model(
        seed in 0u64..1_000_000,
    ) {
        // Own-load exclusion: the only tenant on the fabric queues behind
        // zero background, so even a *contended* configuration must
        // reproduce the flat model exactly.
        let mut flat = tiny_spec(1);
        flat.data_path = None;
        let mut with_dp = tiny_spec(1);
        with_dp.data_path = Some(DataPathConfig {
            contention: Some(ContentionConfig::dredbox_default()),
            cache: None,
            initial_granularity: Granularity::Page,
            adaptive: false,
            profile: direct_reads_only(),
        });
        let a = flat.run(seed).expect("flat run");
        let b = with_dp.run(seed).expect("data-path run");
        let stats = b.data_path.clone().expect("data-path block reported");
        prop_assert_eq!(
            stats.queue_delay, None,
            "a lone tenant must never be charged queueing"
        );
        let b = without_data_path(b);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(format!("{a:#?}\n{a}"), format!("{b:#?}\n{b}"));
    }
}

/// A longer incast run for the acceptance measurement: enough bursts that
/// the transient all-miss window is a small fraction of the samples.
fn incast_acceptance_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::incast();
    let dp = spec
        .data_path
        .as_mut()
        .expect("incast configures the data path");
    dp.profile.bursts_per_vm = 30;
    dp.profile.reads_per_burst = 200;
    spec.horizon = SimTime::from_secs(1_200);
    spec
}

#[test]
fn incast_contention_collapses_p99_and_adaptive_granularity_recovers_it() {
    let seed = 2018;

    let mut baseline = incast_acceptance_spec();
    baseline.data_path.as_mut().expect("configured").contention = None;
    let baseline = baseline.run(seed).expect("uncontended incast runs");

    let contended = incast_acceptance_spec().run(seed).expect("incast runs");

    let mut adaptive_spec = incast_acceptance_spec();
    adaptive_spec
        .data_path
        .as_mut()
        .expect("configured")
        .adaptive = true;
    let adaptive = adaptive_spec.run(seed).expect("adaptive incast runs");

    // The latency draws never shift event timestamps or decisions: all
    // three replays admit the same VMs and drive the same access stream.
    assert_eq!(baseline.admitted, contended.admitted);
    assert_eq!(baseline.admitted, adaptive.admitted);
    let b = baseline.data_path.as_ref().expect("stats");
    let c = contended.data_path.as_ref().expect("stats");
    let a = adaptive.data_path.as_ref().expect("stats");
    assert_eq!(b.reads, c.reads);
    assert_eq!(b.reads, a.reads);
    // Same fixed granularity + same addresses => identical hit pattern.
    assert_eq!(b.cache_hits, c.cache_hits);

    // Ten VMs' page-granularity streams oversubscribe the single
    // dMEMBRICK port several times over: the tail collapses.
    assert!(
        c.read_latency_p99_ns >= 2.0 * b.read_latency_p99_ns,
        "incast must degrade p99 at least 2x: contended {:.0} ns vs baseline {:.0} ns",
        c.read_latency_p99_ns,
        b.read_latency_p99_ns
    );
    assert!(c.peak_fabric_utilization > 0.9, "port must saturate");

    // Falling back to cache-line movement sheds the offered load and
    // recovers at least half of the degradation.
    assert!(a.granularity_switches > 0, "adaptive run must demote");
    assert!(a.line_fetches > 0, "adaptive run must move cache lines");
    let degradation = c.read_latency_p99_ns - b.read_latency_p99_ns;
    let recovered = c.read_latency_p99_ns - a.read_latency_p99_ns;
    assert!(
        recovered >= 0.5 * degradation,
        "adaptive granularity must recover >= 50% of the p99 degradation: \
         baseline {:.0} ns, contended {:.0} ns, adaptive {:.0} ns",
        b.read_latency_p99_ns,
        c.read_latency_p99_ns,
        a.read_latency_p99_ns
    );
}

/// A single rack's events run on one thread whatever the count; from two
/// threads its observation log (bursts, priced reads, report samples)
/// drains on a helper, which may not move a report bit.
#[test]
fn data_path_scenarios_replay_bit_identically_at_any_thread_count() {
    for spec in [ScenarioSpec::memory_thrash(), ScenarioSpec::incast()] {
        for seed in [2018u64, 7] {
            let a = spec.run(seed).expect("serial run");
            for threads in [2usize, 4] {
                let b = spec.run_with_threads(seed, threads).expect("threaded run");
                assert_eq!(a, b, "{}-{seed} differs at {threads} workers", spec.name);
                assert_eq!(
                    format!("{a:#?}\n{a}"),
                    format!("{b:#?}\n{b}"),
                    "{}-{seed} renders differently at {threads} workers",
                    spec.name
                );
            }
        }
    }
}

#[test]
fn memory_thrash_exercises_cache_contention_and_the_granularity_controller() {
    let report = ScenarioSpec::memory_thrash()
        .run(2018)
        .expect("memory-thrash runs");
    assert!(report.admitted > 0);
    let d = report.data_path.as_ref().expect("data-path block reported");
    assert!(d.reads > 0, "bursts must drive accesses");
    assert!(d.cache_hits > 0, "the remote cache must hit");
    assert!(
        d.cache_misses > 0,
        "the working set must overflow the cache"
    );
    assert_eq!(d.reads, d.cache_hits + d.cache_misses);
    assert_eq!(d.cache_misses, d.line_fetches + d.page_fetches);
    assert!(
        d.granularity_switches > 0,
        "the initial all-miss page load must trip the controller"
    );
    assert!(d.line_fetches > 0 && d.page_fetches > 0);
    assert!(d.peak_fabric_utilization > 0.5, "fabric must see pressure");
    let queue = d.queue_delay.as_ref().expect("queue delays recorded");
    assert!(queue.max() > 0.0, "some fetch must have queued");
    assert!(
        d.read_latency_p50_ns <= d.read_latency_p99_ns
            && d.read_latency_p99_ns <= d.read_latency_p999_ns
    );
    assert!(d.read_latency_p50_ns > 0.0);
}

#[test]
fn vm_read_route_names_the_granted_membrick() {
    let spec = ScenarioSpec::incast();
    let mut system = DredboxSystem::build(spec.system.clone()).expect("build");
    let vm = system
        .allocate_vm(2, ByteSize::from_gib(4))
        .expect("admission");
    let route = system.vm_read_route(vm).expect("granted VMs have a route");
    // datacenter_rack(1, 4, 1): compute bricks 0-3, the lone dMEMBRICK 4.
    assert!(route.compute.0 < 4, "compute brick id {:?}", route.compute);
    assert_eq!(route.membrick, BrickId(4));
    system.release_vm(vm).expect("release");
    assert!(
        system.vm_read_route(vm).is_none(),
        "released VMs have no route"
    );
}

#[test]
fn invalid_data_path_configs_are_rejected() {
    let mut spec = ScenarioSpec::incast();
    spec.data_path
        .as_mut()
        .expect("configured")
        .profile
        .locality = 1.5;
    assert!(matches!(
        spec.run(2018),
        Err(SystemError::InvalidConfig { .. })
    ));

    let mut spec = ScenarioSpec::memory_thrash();
    spec.data_path.as_mut().expect("configured").cache = Some(RemoteCacheConfig {
        capacity: ByteSize::from_bytes(64),
        hit_latency: SimDuration::from_nanos(45),
    });
    assert!(matches!(
        spec.run(2018),
        Err(SystemError::InvalidConfig { .. })
    ));
}
