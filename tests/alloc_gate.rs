//! Steady-state heap allocations per event of single-rack replays, kept
//! under a ceiling.
//!
//! A counting global allocator wraps the system one. Each gated spec runs
//! twice from the same seed: in full, and cut short by `event_budget`.
//! Both runs pay the same setup (trace generation, rack build) and the
//! same report, so `(A_full − A_cut) / (E_full − E_cut)` is what the
//! events between the cut and the end allocate, one by one. The cut sits
//! at half the full run's events, past the warm-up where per-brick and
//! per-VM tables first grow.
//!
//! The binary holds this one test, so no other test's allocations land in
//! the counters. Run it with `--release --nocapture` to see the figures.
//! The ceilings hold for builds without debug assertions: with them, the
//! control plane re-checks each placement against a rack-wide scan that
//! collects its own view list, so a debug build only prints its figures.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dredbox::orchestrator::PlacementPolicy;
use dredbox::prelude::*;
use dredbox::scenario::ScenarioMix;
use dredbox::workload::{LifetimeModel, PilotOffloadMix, WorkloadConfig};

/// Counts every `alloc`, `alloc_zeroed` and `realloc` call.
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is the only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls and events of one replay.
fn measure(spec: &ScenarioSpec, seed: u64) -> (u64, u64) {
    let before = CALLS.load(Ordering::Relaxed);
    let report = spec.run(seed).expect("gated specs run");
    let calls = CALLS.load(Ordering::Relaxed) - before;
    (calls, report.events)
}

/// Steady-state allocator calls per event of `spec` at `seed`.
fn allocs_per_event(spec: &ScenarioSpec, seed: u64) -> f64 {
    let (full_calls, full_events) = measure(spec, seed);
    let mut cut = spec.clone();
    cut.event_budget = full_events / 2;
    let (cut_calls, cut_events) = measure(&cut, seed);
    assert_eq!(cut_events, full_events / 2, "{}: the cut binds", spec.name);
    (full_calls - cut_calls) as f64 / (full_events - cut_events) as f64
}

/// A 1/30-scale copy of the benchmark's `rack` workload: one accelerated
/// rack under Balanced placement with scale-up churn, consolidation
/// migrations, offload sessions and a contended data path with remote
/// caches and adaptive granularity.
fn accelerated_rack() -> ScenarioSpec {
    let mut system = SystemConfig::accelerated_rack(16, 16, 8, 2);
    system.placement = PlacementPolicy::Balanced;
    ScenarioSpec {
        name: "accelerated-rack".to_owned(),
        system,
        vm_count: 2_000,
        mix: ScenarioMix::Table1(WorkloadConfig::Random),
        arrivals: ArrivalModel::Poisson {
            mean_interarrival: SimDuration::from_secs(6),
        },
        lifetime: LifetimeModel::new(SimDuration::from_secs(1_800), SimDuration::from_secs(300)),
        churn: Some(ChurnModel {
            cycles_per_vm: 1,
            hold: SimDuration::from_secs(120),
            amount_gib: (1, 2),
        }),
        migration: Some(MigrationPolicy::Consolidate {
            every: SimDuration::from_secs(600),
            spare_below: 0.25,
            max_moves: 8,
        }),
        offload: Some(OffloadPlan {
            sessions_per_vm: 1,
            start_after: SimDuration::from_secs(60),
            hold: SimDuration::from_secs(60),
            mix: PilotOffloadMix::dredbox_default(),
        }),
        reads_per_vm: 4,
        horizon: SimTime::from_secs(104 * 3_600 / 30),
        power_sweep_every: Some(SimDuration::from_secs(600)),
        event_budget: 2_000_000,
        data_path: Some(DataPathConfig {
            contention: Some(ContentionConfig::dredbox_default()),
            cache: Some(RemoteCacheConfig::dredbox_default()),
            initial_granularity: Granularity::Page,
            adaptive: true,
            profile: ReadProfile {
                working_set: ByteSize::from_bytes(4 * 1024 * 1024),
                reads_per_sec: 1.0e5,
                bursts_per_vm: 1,
                reads_per_burst: 8,
                burst_every: SimDuration::from_secs(45),
                start_after: SimDuration::from_secs(15),
                locality: 0.8,
            },
        }),
        ..ScenarioSpec::rack_scale()
    }
}

#[test]
fn steady_state_rack_events_stay_under_the_allocation_ceiling() {
    // Ceilings sit at the values reached; lower them as sources go.
    let gated = [
        (ScenarioSpec::rack_scale(), 0.31),
        (accelerated_rack(), 0.27),
    ];
    let mut over = Vec::new();
    for (spec, ceiling) in gated {
        let per_event = allocs_per_event(&spec, 2018);
        println!(
            "{}: {per_event:.3} allocations per event (ceiling {ceiling})",
            spec.name
        );
        if per_event > ceiling && !cfg!(debug_assertions) {
            over.push(format!("{} {per_event:.3} > {ceiling}", spec.name));
        }
    }
    assert!(over.is_empty(), "over the allocation ceiling: {over:?}");
}
