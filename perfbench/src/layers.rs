//! The traced pass: per-layer metrics of one workload.
//!
//! Host times come from spans the benchmark wraps around each layer's
//! public entry points (see `redrive`), from batch-timed calls on state
//! taken mid-trace, and from the synthetic engine relay. Every span is
//! written to a TSV file for offline reading.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use dredbox::bricks::BrickId;
use dredbox::interconnect::contention::{charge_queueing, StageLoad};
use dredbox::interconnect::ContentionConfig;
use dredbox::optical::load::{read_route_stages, FabricLoad, FabricStage};
use dredbox::orchestrator::VmAllocationRequest;
use dredbox::sim::stats::Summary;
use dredbox::sim::units::ByteSize;
use dredbox::{DredboxSystem, ScenarioReport, SystemSnapshot};

use crate::e2e::{check_invariants, ratio, setups, Outcome};
use crate::metrics::{median, percentile, Fingerprint, Metrics};
use crate::redrive;
use crate::relay;
use crate::trace::{stats_by_name, SpanStats, Tracer};
use crate::workloads::{build_racks, Trace, Workload};

/// Events each synthetic relay run processes.
const RELAY_EVENTS: u64 = 400_000;

pub fn run(w: &Workload, seed: u64, spans_path: &Path) -> Outcome {
    let mut out = Outcome::default();

    // workload and core set-up, split.
    let setup = setups(w, seed, 5, std::time::Duration::from_millis(500));
    let m = &mut out.metrics;
    m.push(
        "workload.gen_s",
        median(&mut setup.iter().map(|s| s.gen_s).collect::<Vec<_>>()),
        "s",
    );
    m.push(
        "core.build_s",
        median(&mut setup.iter().map(|s| s.build_s).collect::<Vec<_>>()),
        "s",
    );

    // One serial replay: scenario cost per event, and the report layer.
    let setup_s = median(&mut setup.iter().map(|s| s.total()).collect::<Vec<_>>());
    let t = Instant::now();
    let report = w.spec.run(seed).expect("benchmark workloads are valid");
    let replay_s = t.elapsed().as_secs_f64() - setup_s;
    check_invariants(w, &report, &mut out);
    let m = &mut out.metrics;
    m.push("scenario.events", report.events as f64, "count");
    m.push(
        "scenario.ns_per_event",
        replay_s * 1e9 / report.events.max(1) as f64,
        "ns",
    );
    report_layer(&report, m);

    // sim: the engine alone, on the workload's shard count and hub share.
    let cross = report
        .cluster
        .as_ref()
        .filter(|_| w.federated())
        .map_or(0.0, |c| ratio(c.routed_admissions, report.events));
    for (name, threads) in [
        ("sim.relay.ns_per_event", 0),
        ("sim.relay.ns_per_event_2w", 2),
    ] {
        let mut ns: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                let events = relay::run(w.shards(), cross, RELAY_EVENTS, threads);
                t.elapsed().as_secs_f64() * 1e9 / events as f64
            })
            .collect();
        m.push(name, median(&mut ns), "ns");
    }
    drop(report);

    // The re-drive, untraced then traced.
    let trace = Trace::generate(&w.spec, seed);
    let plain = redrive::run(w, &trace, seed, &mut Tracer::new(false));
    let mut tracer = Tracer::new(true);
    let traced = redrive::run(w, &trace, seed, &mut tracer);
    out.check(
        plain.counts == traced.counts,
        "traced and untraced re-drives do identical work",
    );
    out.check(
        traced.drained_clean && plain.drained_clean,
        "every rack ends with vm_count() == 0 and pool_allocated() == 0",
    );
    out.check(
        traced.counts.unexpected_failures == 0,
        format!(
            "{} releases, scale-downs or offload ends of live VMs failed",
            traced.counts.unexpected_failures
        ),
    );
    let stats = stats_by_name(tracer.spans());
    let m = &mut out.metrics;
    m.push(
        "trace.overhead_pct",
        (traced.wall_s - plain.wall_s) / plain.wall_s * 100.0,
        "%",
    );
    m.push("trace.spans", tracer.spans().len() as f64, "count");
    let arrival = stats.get("arrival").cloned().unwrap_or_default();
    m.push(
        "trace.arrival_self_share",
        arrival.self_ns as f64 / arrival.total_ns.max(1) as f64,
        "ratio",
    );
    span_metrics(&stats, &traced.counts, m);
    if let Err(e) = tracer.write_tsv(spans_path) {
        out.notes
            .push(format!("could not write {}: {e}", spans_path.display()));
    } else {
        out.notes.push(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            spans_path.display()
        ));
    }
    out.notes.push(self_time_table(&stats));
    drop(tracer);

    // Standalone calls on fresh and mid-trace state.
    let fresh = build_racks(&w.spec).swap_remove(0);
    orchestrator_calls(w, &trace, &fresh, &traced.mid_rack, &mut out.metrics);
    memory_calls(&trace, &fresh, &mut out.metrics);
    snapshot_round_trip(&traced.mid_rack, &mut out);
    data_path_calls(&traced.mid_rack, &mut out.metrics);
    out
}

/// `report.*` and `datapath.*` from the replayed report.
fn report_layer(report: &ScenarioReport, m: &mut Metrics) {
    let t = Instant::now();
    let fp = Fingerprint::of(report);
    m.push("report.render_ms", t.elapsed().as_secs_f64() * 1e3, "ms");
    m.push("report.kb", fp.bytes as f64 / 1024.0, "KiB");
    let summaries: [Option<&Summary>; 11] = [
        report.scale_up_delay.as_ref(),
        report.read_latency.as_ref(),
        report.pool_utilization.as_ref(),
        report.migration_downtime.as_ref(),
        report.precopy_counterfactual.as_ref(),
        report.scaleout_counterfactual.as_ref(),
        report.control_plane_wait.as_ref(),
        report.offload_time.as_ref(),
        report.offload_local_counterfactual.as_ref(),
        report.accel_utilization.as_ref(),
        report
            .data_path
            .as_ref()
            .and_then(|d| d.queue_delay.as_ref()),
    ];
    let samples: usize = summaries.iter().flatten().map(|s| s.count()).sum();
    m.push("report.samples", samples as f64, "count");
    let (hits, switches) = report.data_path.as_ref().map_or((0.0, 0.0), |d| {
        (ratio(d.cache_hits, d.reads), d.granularity_switches as f64)
    });
    m.push("datapath.cache_hit_ratio", hits, "ratio");
    m.push("datapath.switches", switches, "count");
}

fn span_metrics(stats: &BTreeMap<&'static str, SpanStats>, c: &redrive::Counts, m: &mut Metrics) {
    let get = |name: &str| stats.get(name).cloned().unwrap_or_default();
    let (admit, route) = (get("core.admit"), get("orchestrator.route"));
    m.push("core.admit.calls", admit.count as f64, "count");
    m.push("core.admit.ns_p50", admit.p(50.0), "ns");
    m.push("core.admit.ns_p99", admit.p(99.0), "ns");
    m.push(
        "core.admit.fail_ratio",
        ratio(c.admit_failures, c.admit_attempts),
        "ratio",
    );
    let release = get("core.release");
    m.push("core.release.ns_p50", release.p(50.0), "ns");
    m.push("core.release.ns_p99", release.p(99.0), "ns");
    let scale_up = get("core.scale_up");
    m.push("core.scale_up.ns_p50", scale_up.p(50.0), "ns");
    m.push("core.scale_up.ns_p99", scale_up.p(99.0), "ns");
    m.push(
        "core.scale_up.fail_ratio",
        ratio(c.scale_up_failures, c.scale_ups + c.scale_up_failures),
        "ratio",
    );
    m.push(
        "core.scale_down.ns_p50",
        get("core.scale_down").p(50.0),
        "ns",
    );
    let migrate = get("core.migrate");
    m.push("core.migrate.ns_p50", migrate.p(50.0), "ns");
    m.push("core.migrate.ns_p99", migrate.p(99.0), "ns");
    m.push(
        "core.migrate.fail_ratio",
        ratio(c.migration_failures, c.migrations + c.migration_failures),
        "ratio",
    );
    m.push("core.offload.ns_p50", get("core.offload").p(50.0), "ns");
    m.push(
        "core.offload.reuse_ratio",
        ratio(c.offload_reuses, c.offloads),
        "ratio",
    );
    m.push(
        "core.power_sweep.ns_p50",
        get("core.power_sweep").p(50.0),
        "ns",
    );
    m.push("core.power_sweep.bricks_off", c.bricks_off as f64, "count");
    m.push("orchestrator.route.calls", route.count as f64, "count");
    m.push("orchestrator.route.ns_p50", route.p(50.0), "ns");
    m.push("orchestrator.route.ns_p99", route.p(99.0), "ns");
    m.push(
        "orchestrator.spill.ratio",
        ratio(c.spilled, c.routed),
        "ratio",
    );
    m.push(
        "orchestrator.spill.hops_per_admit",
        c.spill_hops as f64 / c.routed.max(1) as f64,
        "count",
    );
}

/// Self and total host time per span name, as a text table.
fn self_time_table(stats: &BTreeMap<&'static str, SpanStats>) -> String {
    let mut s = String::from(
        "span                       calls      total_ms       self_ms   p50_ns   p99_ns",
    );
    for (name, st) in stats {
        s.push_str(&format!(
            "\n{name:<24} {:>8} {:>13.3} {:>13.3} {:>8.0} {:>8.0}",
            st.count,
            st.total_ns as f64 / 1e6,
            st.self_ns as f64 / 1e6,
            st.p(50.0),
            st.p(99.0)
        ));
    }
    s
}

/// Times `calls` invocations of `f` in batches of `batch`; returns the
/// per-call ns of every batch, ascending.
fn batch_ns(calls: usize, batch: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
    let mut out = Vec::with_capacity(calls / batch + 1);
    let mut i = 0;
    while i < calls {
        let n = batch.min(calls - i);
        let t = Instant::now();
        for k in i..i + n {
            f(k);
        }
        out.push(t.elapsed().as_nanos() as f64 / n as f64);
        i += n;
    }
    out.sort_by(f64::total_cmp);
    out
}

/// `orchestrator.place` on the mid-trace capacity index and
/// `orchestrator.sdm_admit` on a fresh standalone controller.
fn orchestrator_calls(
    w: &Workload,
    trace: &Trace,
    fresh: &DredboxSystem,
    mid: &DredboxSystem,
    m: &mut Metrics,
) {
    let demands = &trace.demands;
    let n = 20_000;
    let index = mid.sdm().capacity();
    let policy = w.spec.system.placement;
    let place = batch_ns(n, 64, |k| {
        black_box(policy.choose_indexed(index, demands[k % demands.len()].vcpus));
    });
    m.push("orchestrator.place.ns_p50", percentile(&place, 50.0), "ns");

    let mut sdm = fresh.sdm().clone();
    let admits = 2_000;
    let mut ns = Vec::with_capacity(admits);
    for d in demands.iter().cycle().take(admits) {
        let t = Instant::now();
        let result = black_box(sdm.allocate_vm(VmAllocationRequest::new(d.vcpus, d.memory)));
        ns.push(t.elapsed().as_nanos() as f64);
        if result.is_err() {
            // Full: start again from the empty rack.
            sdm = fresh.sdm().clone();
        }
    }
    m.push("orchestrator.sdm_admit.ns_p50", median(&mut ns), "ns");
}

/// `memory.carve` and `memory.free` on a fresh pool fed the workload's
/// memory sizes, holding it at most 60% full (oldest grants freed first).
fn memory_calls(trace: &Trace, fresh: &DredboxSystem, m: &mut Metrics) {
    let mut pool = fresh.sdm().pool().clone();
    let owner = fresh
        .sdm()
        .capacity()
        .views()
        .next()
        .map_or(BrickId(0), |v| v.brick);
    let cap = pool.total_capacity().as_bytes() as f64 * 0.6;
    let mut live = std::collections::VecDeque::new();
    let (mut carve, mut free) = (Vec::new(), Vec::new());
    let mut failures = 0u64;
    for d in trace.demands.iter().cycle().take(50_000) {
        while pool.total_allocated().as_bytes() as f64 + d.memory.as_bytes() as f64 > cap {
            let Some(grant) = live.pop_front() else { break };
            let t = Instant::now();
            pool.release_grant(&grant).expect("live grants release");
            free.push(t.elapsed().as_nanos() as f64);
        }
        let t = Instant::now();
        let result = pool.allocate(owner, d.memory);
        carve.push(t.elapsed().as_nanos() as f64);
        match result {
            Ok(grant) => live.push_back(grant),
            Err(_) => failures += 1,
        }
    }
    carve.sort_by(f64::total_cmp);
    m.push("memory.carve.ns_p50", percentile(&carve, 50.0), "ns");
    m.push("memory.carve.ns_p99", percentile(&carve, 99.0), "ns");
    m.push(
        "memory.carve.fail_ratio",
        ratio(failures, carve.len() as u64),
        "ratio",
    );
    m.push("memory.free.ns_p50", median(&mut free), "ns");
}

/// `snap.*`: capture + encode versus decode + restore of the mid-trace
/// rack, checking that the restored rack re-encodes to identical bytes.
fn snapshot_round_trip(mid: &DredboxSystem, out: &mut Outcome) {
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let mut bytes = Vec::new();
    let mut identical = true;
    for _ in 0..3 {
        let t = Instant::now();
        bytes = SystemSnapshot::capture(mid).to_bytes();
        enc.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let restored = SystemSnapshot::from_bytes(&bytes).map(|s| s.restore());
        dec.push(t.elapsed().as_secs_f64() * 1e3);
        identical &= restored
            .map(|r| SystemSnapshot::capture(&r).to_bytes() == bytes)
            .unwrap_or(false);
    }
    out.check(
        identical,
        "a snapshot round trip re-encodes to identical bytes",
    );
    let m = &mut out.metrics;
    m.push("snap.encode_ms", median(&mut enc), "ms");
    m.push("snap.decode_ms", median(&mut dec), "ms");
    m.push("snap.bytes", bytes.len() as f64, "B");
}

/// `interconnect.queueing` and `optical.load.publish` over the read
/// routes of the VMs live on the mid-trace rack.
fn data_path_calls(mid: &DredboxSystem, m: &mut Metrics) {
    let mut routes: Vec<[FabricStage; 3]> = mid
        .sdm()
        .capacity()
        .views()
        .flat_map(|v| mid.vms_on(v.brick))
        .filter_map(|h| mid.vm_read_route(h))
        .map(|r| read_route_stages(r.compute, r.membrick))
        .collect();
    if routes.is_empty() {
        let any = BrickId(0);
        routes.push(read_route_stages(any, any));
    }
    const RATE: f64 = 2.0e8;
    let calls = 20_000;
    let mut load = FabricLoad::new();
    let publish = batch_ns(calls, 64, |k| {
        let stages = &routes[k % routes.len()];
        for &s in stages {
            load.publish(s, RATE);
        }
        if k % 2 == 1 {
            for &s in &routes[(k - 1) % routes.len()] {
                load.retract(s, RATE);
            }
        }
    });
    m.push(
        "optical.load.publish_ns_p50",
        percentile(&publish, 50.0),
        "ns",
    );

    let config = ContentionConfig::dredbox_default();
    let read = mid.remote_read_latency(ByteSize::from_bytes(4096));
    let stage_loads: Vec<[StageLoad; 3]> = routes
        .iter()
        .map(|stages| {
            let capacity = [
                config.brick_uplink,
                config.rack_switch,
                config.membrick_port,
            ];
            std::array::from_fn(|i| StageLoad {
                capacity: capacity[i],
                background_bytes_per_sec: load.background(stages[i], RATE),
            })
        })
        .collect();
    let queueing = batch_ns(calls, 64, |k| {
        black_box(charge_queueing(
            read.clone(),
            ByteSize::from_bytes(4096),
            &stage_loads[k % stage_loads.len()],
            config.max_utilization,
        ));
    });
    m.push(
        "interconnect.queueing.ns_p50",
        percentile(&queueing, 50.0),
        "ns",
    );
}
