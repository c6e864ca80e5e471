//! Criterion bench for the discrete-event engine itself, tracked in
//! `BENCH_engine.json` (set `CRITERION_SUMMARY_JSON`).
//!
//! The groups:
//!
//! * `engine/scenario_replay` — full closed-loop scenario replays
//!   (steady-state and the 4096-arrival rack-scale control-plane stress
//!   case) timed end to end. The benchmark id carries the replay's event
//!   count, so `events * 1e9 / median_ns_per_iter` is the headline
//!   events-per-second figure.
//! * `engine/synthetic_relay` — a pure engine trace with no system model
//!   behind it: self-rescheduling event chains, one per shard, with every
//!   eighth hop crossing shards through the timestamped mailbox. Run at
//!   1 / 2 / 4 shards over 100k events, this isolates calendar + mailbox
//!   cost from scenario work.
//! * `engine/data_path` — the incast scenario with the load-dependent data
//!   path on vs off (contention disabled). The delta is the cost of the
//!   contention model itself: per-stage ledger lookups, queuing-delay
//!   pricing and the per-access cache bookkeeping on ~10k accesses.
//! * `engine/threads_sweep` — the federated `datacenter` (16 racks, ~150k
//!   events) and `datacenter-64` (64 racks, ~1.2M events) scenarios under
//!   the conservative threaded runner at 1 / 2 / 4 workers. On a
//!   multi-core host this is the parallel-speedup headline; on a
//!   single-core host it prices the epoch-barrier overhead instead (the
//!   report is bit-identical either way — the golden tests prove that
//!   separately).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use dredbox::prelude::*;

/// A synthetic relay world: each event carries a countdown and reschedules
/// itself one nanosecond later until it reaches zero; every eighth hop on a
/// multi-shard engine crosses to the next shard through the mailbox instead.
struct Relay {
    shards: u32,
    hops: u64,
}

impl ShardedProcess for Relay {
    type Event = u64;

    fn handle(
        &mut self,
        shard: ShardId,
        now: SimTime,
        event: u64,
        ctx: &mut ShardContext<'_, u64>,
    ) {
        self.hops += 1;
        if event == 0 {
            return;
        }
        let at = now + SimDuration::from_nanos(1);
        if self.shards > 1 && self.hops % 8 == 0 {
            ctx.send(ShardId((shard.0 + 1) % self.shards), at, event - 1);
        } else {
            ctx.schedule(at, event - 1);
        }
    }
}

/// Drives `total` events through a `shards`-shard engine and returns the
/// processed count (asserted, so a scheduling bug fails the bench loudly).
fn run_relay(shards: u32, total: u64) -> u64 {
    let mut engine = ShardedEngine::new(shards as usize);
    let per_chain = total / u64::from(shards);
    for s in 0..shards {
        engine.schedule(ShardId(s), SimTime::ZERO, per_chain - 1);
    }
    let mut world = Relay { shards, hops: 0 };
    let outcome = engine.run(&mut world);
    assert_eq!(outcome, RunOutcome::Drained);
    assert_eq!(engine.processed(), per_chain * u64::from(shards));
    engine.processed()
}

fn bench_scenario_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/scenario_replay");
    for spec in [ScenarioSpec::steady_state(), ScenarioSpec::rack_scale()] {
        // Declaring the replay's event count as throughput puts the
        // headline events-per-second figure in the report and summary JSON.
        let events = spec.run(2018).expect("scenario runs").events;
        group.throughput(Throughput::Elements(events));
        group.bench_with_input(
            BenchmarkId::new(&spec.name, format!("{events}_events")),
            &spec,
            |b, spec| b.iter(|| black_box(spec.run(2018).expect("scenario runs"))),
        );
    }
    group.finish();
}

fn bench_system_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/system_build");
    for spec in [ScenarioSpec::steady_state(), ScenarioSpec::rack_scale()] {
        group.bench_with_input(BenchmarkId::from_parameter(&spec.name), &spec, |b, spec| {
            b.iter(|| black_box(DredboxSystem::build(spec.system.clone()).expect("builds")))
        });
    }
    group.finish();
}

fn bench_data_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/data_path");
    let contended = ScenarioSpec::incast();
    let mut uncontended = ScenarioSpec::incast();
    uncontended
        .data_path
        .as_mut()
        .expect("incast configures the data path")
        .contention = None;
    for (label, spec) in [("contended", contended), ("uncontended", uncontended)] {
        let report = spec.run(2018).expect("scenario runs");
        let reads = report.data_path.as_ref().expect("data-path stats").reads;
        group.throughput(Throughput::Elements(reads));
        group.bench_with_input(
            BenchmarkId::new("incast", format!("{label}_{reads}_reads")),
            &spec,
            |b, spec| b.iter(|| black_box(spec.run(2018).expect("scenario runs"))),
        );
    }
    group.finish();
}

fn bench_synthetic_relay(c: &mut Criterion) {
    const TOTAL: u64 = 100_000;
    let mut group = c.benchmark_group("engine/synthetic_relay_100k_events");
    group.throughput(Throughput::Elements(TOTAL));
    for shards in [1u32, 2, 4] {
        group.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &shards| {
            b.iter(|| black_box(run_relay(shards, TOTAL)))
        });
    }
    group.finish();
}

fn bench_threads_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/threads_sweep");
    for spec in [ScenarioSpec::datacenter(), ScenarioSpec::datacenter_64()] {
        let events = spec.run(2018).expect("scenario runs").events;
        group.throughput(Throughput::Elements(events));
        for threads in [1usize, 2, 4] {
            group.bench_with_input(
                BenchmarkId::new(&spec.name, format!("{events}_events_threads_{threads}")),
                &spec,
                |b, spec| {
                    b.iter(|| {
                        black_box(spec.run_with_threads(2018, threads).expect("scenario runs"))
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_scenario_replay,
    bench_system_build,
    bench_data_path,
    bench_synthetic_relay,
    bench_threads_sweep
);
criterion_main!(benches);
