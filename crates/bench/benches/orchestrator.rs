//! Criterion bench for the SDM control-plane hot path: mixed
//! allocate/release/power traces driven through the controller at 16 / 64 /
//! 256 compute bricks, comparing the incrementally maintained capacity
//! indexes (`allocate_vm`, indexed pool selection) against the reference
//! rack-wide scan (`allocate_vm_scan`, candidate-list pool scan) the
//! indexes replaced. A second group isolates the placement decision itself
//! (`choose_indexed` vs the slice scan) per policy, a third drives a
//! migration-heavy 2k-op trace (admit / migrate / release / power) so the
//! cost of the reserve → re-route → drain → switchover flow is tracked per
//! rack size in `BENCH_orchestrator.json`, and a fourth drives an
//! offload-heavy 2k-op trace (admit / offload begin+end / release / power)
//! so the dACCELBRICK session flow — `AccelIndex` placement, ledger holds,
//! circuit setup and teardown — is tracked the same way.
//!
//! A `grant_cycle` group times one scale-up grant and one release on a
//! full-height rack (16 trays of 16 dCOMPUBRICKs and 8 dMEMBRICKs) held
//! about 60% full — the pool carve, RMST attach, circuit programming and
//! their reversal, against a populated pool and per-brick tables.
//!
//! An `offload_cycle` group times one offload begin and one end on a warm
//! accelerated rack (16 trays, 2 dACCELBRICKs each) through the whole
//! system: accelerator placement by kernel name, ledger hold, circuit,
//! rack-side programming and the session's teardown.
//!
//! A last group sweeps the *rack count* (1 / 4 / 16 / 64) at a fixed
//! per-rack shape and isolates the cluster controller's digest-only
//! routing decision — one pass over the rack digests, linear in racks and
//! never in bricks. The federation end to end (routing, spillover and the
//! threaded runner) is measured by the scenario replays in `perfbench/`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use dredbox::bricks::{Bitstream, BrickId, RackId};
use dredbox::interconnect::LatencyConfig;
use dredbox::memory::{AllocationPolicy, PickStrategy};
use dredbox::orchestrator::{
    ClusterController, OffloadRequest, OffloadSessionId, PlacementPolicy, RackDigest,
    ScaleUpDemand, ScaleUpGrant, SdmController, SdmTimings, VmAllocationRequest,
};
use dredbox::sim::rng::SimRng;
use dredbox::sim::units::{Bandwidth, ByteSize};
use dredbox::{DredboxSystem, SystemConfig};

/// One step of the mixed control-plane trace.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Admit a VM (vcpus, GiB of pooled memory).
    Alloc(u32, u64),
    /// Release the n-th live VM (cores and memory).
    Release(usize),
    /// Flip a brick's power view.
    Power(u32, bool),
    /// Migrate the n-th live VM to the brick offset by the second value.
    Migrate(usize, u32),
    /// Begin an offload of the n-th kernel from the brick's compute side.
    OffloadBegin(u32, u8),
    /// End the n-th live offload session.
    OffloadEnd(usize),
}

/// A deterministic mixed trace: ~55% allocations, ~35% releases, ~10%
/// power flips — enough churn that the availability view never goes stale.
fn trace(ops: usize, bricks: u32) -> Vec<Op> {
    let mut rng = SimRng::seed(2018);
    (0..ops)
        .map(|_| {
            let roll = rng.range(0u64..100);
            if roll < 55 {
                Op::Alloc(rng.range(1u64..=8) as u32, rng.range(1u64..=2))
            } else if roll < 90 {
                Op::Release(rng.range(0u64..1_000) as usize)
            } else {
                Op::Power(rng.range(0u64..u64::from(bricks)) as u32, rng.chance(0.5))
            }
        })
        .collect()
}

/// A deterministic migration-heavy trace: ~40% allocations, ~30%
/// migrations, ~25% releases, ~5% power flips — every fourth op walks the
/// full reserve → re-route → drain → switchover flow.
fn migration_trace(ops: usize, bricks: u32) -> Vec<Op> {
    let mut rng = SimRng::seed(2018);
    (0..ops)
        .map(|_| {
            let roll = rng.range(0u64..100);
            if roll < 40 {
                Op::Alloc(rng.range(1u64..=8) as u32, rng.range(1u64..=2))
            } else if roll < 70 {
                Op::Migrate(
                    rng.range(0u64..1_000) as usize,
                    rng.range(1u64..u64::from(bricks)) as u32,
                )
            } else if roll < 95 {
                Op::Release(rng.range(0u64..1_000) as usize)
            } else {
                Op::Power(rng.range(0u64..u64::from(bricks)) as u32, rng.chance(0.5))
            }
        })
        .collect()
}

/// A deterministic offload-heavy trace: ~30% allocations, ~30% offload
/// begins (four kernels rotating, so reuse and reprogramming both occur),
/// ~20% offload ends, ~15% releases, ~5% power flips — every third op walks
/// the accelerator placement → ledger hold → circuit flow.
fn offload_trace(ops: usize, bricks: u32) -> Vec<Op> {
    let mut rng = SimRng::seed(2018);
    (0..ops)
        .map(|_| {
            let roll = rng.range(0u64..100);
            if roll < 30 {
                Op::Alloc(rng.range(1u64..=8) as u32, rng.range(1u64..=2))
            } else if roll < 60 {
                Op::OffloadBegin(
                    rng.range(0u64..u64::from(bricks)) as u32,
                    rng.range(0u64..4) as u8,
                )
            } else if roll < 80 {
                Op::OffloadEnd(rng.range(0u64..1_000) as usize)
            } else if roll < 95 {
                Op::Release(rng.range(0u64..1_000) as usize)
            } else {
                Op::Power(rng.range(0u64..u64::from(bricks)) as u32, rng.chance(0.5))
            }
        })
        .collect()
}

/// A rack with `bricks` 32-core dCOMPUBRICKs and `bricks / 4` 32-GiB
/// dMEMBRICKs, under the dReDBox default power-aware policies.
fn controller(bricks: u32, strategy: PickStrategy) -> SdmController {
    let mut sdm = SdmController::new(
        AllocationPolicy::PowerAware,
        PlacementPolicy::PowerAware,
        SdmTimings::dredbox_default(),
        LatencyConfig::dredbox_default(),
    );
    sdm.set_memory_pick_strategy(strategy);
    for b in 0..bricks {
        sdm.register_compute_brick(BrickId(b), 32, 8);
    }
    for m in 0..bricks / 4 {
        sdm.register_membrick(BrickId(10_000 + m), ByteSize::from_gib(32));
    }
    sdm
}

/// The same rack plus `bricks / 8` (min 1) dACCELBRICKs with 4 streaming
/// slots each, as the offload-heavy trace needs.
fn accel_controller(bricks: u32, strategy: PickStrategy) -> SdmController {
    let mut sdm = controller(bricks, strategy);
    for a in 0..(bricks / 8).max(1) {
        sdm.register_accel_brick(BrickId(20_000 + a), Bandwidth::from_gbps(3.2), 4);
    }
    sdm
}

/// Replays the trace through one controller. `scan` selects the reference
/// rack-wide-scan admission path; the indexed path otherwise.
fn run_trace(sdm: &mut SdmController, ops: &[Op], scan: bool) -> usize {
    let mut live: Vec<(BrickId, u32, ScaleUpGrant)> = Vec::new();
    let mut sessions: Vec<OffloadSessionId> = Vec::new();
    let mut admitted = 0usize;
    // One shared name per kernel, as the pilots hand them out.
    let kernels: Vec<std::sync::Arc<str>> = (0..4).map(|k| format!("kernel-{k}").into()).collect();
    for op in ops {
        match *op {
            Op::Alloc(vcpus, gib) => {
                let request = VmAllocationRequest::new(vcpus, ByteSize::from_gib(gib));
                let outcome = if scan {
                    sdm.allocate_vm_scan(request)
                } else {
                    sdm.allocate_vm(request)
                };
                if let Ok((brick, grant)) = outcome {
                    live.push((brick, vcpus, grant));
                    admitted += 1;
                }
            }
            Op::Release(pick) => {
                if live.is_empty() {
                    continue;
                }
                let (brick, vcpus, grant) = live.swap_remove(pick % live.len());
                sdm.release_vm(brick, vcpus).expect("live VM releases");
                sdm.release_scale_up(&grant).expect("live grant releases");
            }
            Op::Power(brick, on) => {
                let _ = sdm.set_compute_power(BrickId(brick), on);
            }
            Op::Migrate(pick, offset) => {
                if live.is_empty() {
                    continue;
                }
                let slot = pick % live.len();
                let (from, vcpus, grant) = live[slot].clone();
                let bricks = sdm.compute_brick_count() as u32;
                let to = BrickId((from.0 + offset) % bricks);
                if let Ok(outcome) = sdm.migrate_vm(from, to, vcpus, &[grant]) {
                    let rebased = outcome
                        .rebased
                        .first()
                        .cloned()
                        .expect("one grant in, one grant out");
                    live[slot] = (to, vcpus, rebased);
                }
            }
            Op::OffloadBegin(brick, kernel) => {
                let request = OffloadRequest::new(
                    BrickId(brick),
                    Bitstream::new(kernels[usize::from(kernel)].clone(), ByteSize::from_mib(8)),
                    ByteSize::from_gib(1),
                );
                if let Ok(grant) = sdm.begin_offload(request) {
                    sessions.push(grant.session.id);
                }
            }
            Op::OffloadEnd(pick) => {
                if sessions.is_empty() {
                    continue;
                }
                let session = sessions.swap_remove(pick % sessions.len());
                sdm.end_offload(session).expect("live session ends");
            }
        }
    }
    admitted
}

fn bench_control_plane(c: &mut Criterion) {
    const OPS: usize = 2_000;
    let mut group = c.benchmark_group("orchestrator/mixed_trace_2k_ops");
    // 16/64/256 span the prototype-to-rack range; 1024 shows the asymptote
    // as the scan term takes over the reference path completely.
    for bricks in [16u32, 64, 256, 1024] {
        let ops = trace(OPS, bricks);
        group.bench_with_input(
            BenchmarkId::new("indexed", bricks),
            &bricks,
            |b, &bricks| {
                b.iter_batched(
                    || controller(bricks, PickStrategy::Indexed),
                    |mut sdm| black_box(run_trace(&mut sdm, &ops, false)),
                    criterion::BatchSize::LargeInput,
                )
            },
        );
        group.bench_with_input(
            BenchmarkId::new("reference_scan", bricks),
            &bricks,
            |b, &bricks| {
                b.iter_batched(
                    || controller(bricks, PickStrategy::ReferenceScan),
                    |mut sdm| black_box(run_trace(&mut sdm, &ops, true)),
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

fn bench_migration_trace(c: &mut Criterion) {
    const OPS: usize = 2_000;
    let mut group = c.benchmark_group("orchestrator/migration_trace_2k_ops");
    for bricks in [16u32, 64, 256, 1024] {
        let ops = migration_trace(OPS, bricks);
        group.bench_with_input(
            BenchmarkId::new("indexed", bricks),
            &bricks,
            |b, &bricks| {
                b.iter_batched(
                    || controller(bricks, PickStrategy::Indexed),
                    |mut sdm| black_box(run_trace(&mut sdm, &ops, false)),
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

fn bench_offload_trace(c: &mut Criterion) {
    const OPS: usize = 2_000;
    let mut group = c.benchmark_group("orchestrator/offload_trace_2k_ops");
    for bricks in [16u32, 64, 256, 1024] {
        let ops = offload_trace(OPS, bricks);
        group.bench_with_input(
            BenchmarkId::new("indexed", bricks),
            &bricks,
            |b, &bricks| {
                b.iter_batched(
                    || accel_controller(bricks, PickStrategy::Indexed),
                    |mut sdm| black_box(run_trace(&mut sdm, &ops, false)),
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

fn bench_placement_decision(c: &mut Criterion) {
    const BRICKS: u32 = 256;
    // A half-loaded rack: varied free cores, some idle, some asleep.
    let mut sdm = controller(BRICKS, PickStrategy::Indexed);
    let warmup = trace(2_000, BRICKS);
    run_trace(&mut sdm, &warmup, false);
    let index = sdm.capacity().clone();
    let views = sdm.compute_views();

    let mut group = c.benchmark_group("orchestrator/placement_choose_256_bricks");
    for policy in [
        PlacementPolicy::FirstFit,
        PlacementPolicy::PowerAware,
        PlacementPolicy::Balanced,
    ] {
        group.bench_with_input(
            BenchmarkId::new("indexed", format!("{policy:?}")),
            &policy,
            |b, &policy| {
                let mut vcpus = 0u32;
                b.iter(|| {
                    vcpus = vcpus % 8 + 1;
                    black_box(policy.choose_indexed(black_box(&index), vcpus))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("reference_scan", format!("{policy:?}")),
            &policy,
            |b, &policy| {
                let mut vcpus = 0u32;
                b.iter(|| {
                    vcpus = vcpus % 8 + 1;
                    black_box(policy.choose(black_box(&views), vcpus))
                })
            },
        );
    }
    group.finish();
}

/// A federation of `racks` synthetic digests in the typical steady shape:
/// a constant handful of near-full racks the walk must skip, the rest
/// active with varied headroom — so the sweep measures how the decision
/// itself scales with rack count, not an adversarial all-full fleet.
fn synthetic_cluster(racks: u16) -> ClusterController {
    let mut cluster = ClusterController::new(PlacementPolicy::PowerAware);
    for r in 0..racks {
        let packed = r < 3.min(racks - 1);
        let digest = if packed {
            // Nearly full: too fragmented for any benched request.
            RackDigest {
                free_cores: 8,
                largest_free_cores: 1,
                largest_sleeping_cores: 0,
                free_memory_bytes: ByteSize::from_gib(2).as_bytes(),
                largest_segment_bytes: ByteSize::from_gib(1).as_bytes(),
                idle_accels: 0,
                accel_bricks: 0,
                active_bricks: 16,
                powered_bricks: 16,
                provisioned_milliwatts: 3_000_000,
            }
        } else {
            // Active with headroom, free cores varied so the preference order
            // holds genuinely distinct keys.
            RackDigest {
                free_cores: 64 + u64::from(r) * 4,
                largest_free_cores: 24,
                largest_sleeping_cores: 32,
                free_memory_bytes: ByteSize::from_gib(128).as_bytes(),
                largest_segment_bytes: ByteSize::from_gib(16).as_bytes(),
                idle_accels: 0,
                accel_bricks: 0,
                active_bricks: 12,
                powered_bricks: 16,
                provisioned_milliwatts: 1_200_000,
            }
        };
        cluster.upsert(RackId(r), digest);
    }
    cluster
}

fn bench_cluster_route(c: &mut Criterion) {
    let mut group = c.benchmark_group("orchestrator/cluster_route_decision");
    for racks in [1u16, 4, 16, 64] {
        let cluster = synthetic_cluster(racks);
        group.bench_with_input(BenchmarkId::new("racks", racks), &racks, |b, _| {
            let mut vcpus = 0u32;
            b.iter(|| {
                vcpus = vcpus % 16 + 1;
                black_box(cluster.route(black_box(vcpus), ByteSize::from_gib(2)))
            })
        });
    }
    group.finish();
}

/// One `handle_scale_up` plus one `release_scale_up` per iteration on a
/// full-height rack held about 60% full: each iteration grants the next
/// size from a fixed mix on the next compute brick and releases the oldest
/// live grant, so the pool stays at its fill level.
fn bench_grant_cycle(c: &mut Criterion) {
    let system =
        DredboxSystem::build(SystemConfig::datacenter_rack(16, 16, 8)).expect("build rack");
    let mut sdm = system.sdm().clone();
    let bricks: Vec<BrickId> = sdm.capacity().views().map(|v| v.brick).collect();
    let mut rng = SimRng::seed(2018);
    let sizes: Vec<ByteSize> = (0..4_096)
        .map(|_| ByteSize::from_gib(rng.range(1u64..=16)))
        .collect();
    let fill = sdm.pool().total_capacity().as_bytes() / 10 * 6;
    let mut live = std::collections::VecDeque::new();
    let mut next = 0usize;
    let mut grant = |sdm: &mut SdmController, live: &mut std::collections::VecDeque<_>| {
        let demand = ScaleUpDemand::new(bricks[next % bricks.len()], sizes[next % sizes.len()]);
        next += 1;
        live.push_back(sdm.handle_scale_up(demand).expect("the rack has room"));
    };
    while sdm.pool().total_allocated().as_bytes() < fill {
        grant(&mut sdm, &mut live);
    }
    let mut group = c.benchmark_group("orchestrator/grant_cycle");
    group.bench_function("full_rack_60pct", |b| {
        b.iter(|| {
            grant(&mut sdm, &mut live);
            let oldest = live.pop_front().expect("the rack holds grants");
            black_box(sdm.release_scale_up(&oldest).expect("live grant releases"))
        })
    });
    group.finish();
}

/// One offload begin and one end on a warm accelerated rack: 512 admitted
/// VMs, the three pilot kernels in rotation, 24 sessions kept streaming,
/// so placements mix bitstream reuse with reprograms of idle bricks.
fn bench_offload_cycle(c: &mut Criterion) {
    use dredbox::workload::PilotOffloadMix;

    let mut system = DredboxSystem::build(SystemConfig::accelerated_rack(16, 16, 8, 2))
        .expect("build accelerated rack");
    let vms: Vec<_> = (0..512)
        .map(|_| {
            system
                .allocate_vm(2, ByteSize::from_gib(2))
                .expect("the rack has room")
        })
        .collect();
    let mix = PilotOffloadMix::dredbox_default();
    let demands = [
        mix.video.offload_demand(40.0),
        mix.nfv.offload_demand(12.0),
        mix.network
            .offload_demand(dredbox::sim::time::SimDuration::from_secs(2)),
    ];
    let mut live = std::collections::VecDeque::new();
    let mut next = 0usize;
    let mut begin = |system: &mut DredboxSystem, live: &mut std::collections::VecDeque<_>| {
        let vm = vms[next % vms.len()];
        let report = system
            .begin_offload(vm, &demands[next % demands.len()])
            .expect("an accelerator has a free slot");
        next += 1;
        live.push_back(report.session);
    };
    while live.len() < 24 {
        begin(&mut system, &mut live);
    }
    let mut group = c.benchmark_group("orchestrator/offload_cycle");
    group.bench_function("accelerated_rack_24_live", |b| {
        b.iter(|| {
            begin(&mut system, &mut live);
            let oldest = live.pop_front().expect("sessions stream");
            black_box(system.end_offload(oldest).expect("live session ends"))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_control_plane,
    bench_grant_cycle,
    bench_offload_cycle,
    bench_migration_trace,
    bench_offload_trace,
    bench_placement_decision,
    bench_cluster_route
);
criterion_main!(benches);
