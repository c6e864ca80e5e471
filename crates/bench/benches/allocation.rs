//! Criterion bench for the memory-management substrate: pool allocation /
//! release under every placement policy, and remote-window carving. A
//! `stats` group times the report sketch's record path on a latency-like
//! stream, the other per-event cost of a rack replay's grant path. CI
//! writes the summary to `BENCH_allocation.json` (set
//! `CRITERION_SUMMARY_JSON`).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::hint::black_box;

use dredbox::bricks::BrickId;
use dredbox::memory::{AllocationPolicy, BrickAllocator, MemoryPool, RemoteWindow};
use dredbox::sim::rng::SimRng;
use dredbox::sim::stats::Summary;
use dredbox::sim::units::ByteSize;

fn pool_with(policy: AllocationPolicy) -> MemoryPool {
    let mut pool = MemoryPool::new(policy);
    for i in 0..64u32 {
        pool.register_membrick(BrickId(100 + i), ByteSize::from_gib(32));
    }
    pool
}

fn bench_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("memory/pool_allocate_release_64x8GiB");
    for policy in [
        AllocationPolicy::FirstFit,
        AllocationPolicy::BestFit,
        AllocationPolicy::WorstFit,
        AllocationPolicy::PowerAware,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{policy:?}")),
            &policy,
            |b, &policy| {
                b.iter_batched(
                    || pool_with(policy),
                    |mut pool| {
                        let mut grants = Vec::with_capacity(64);
                        for vm in 0..64u32 {
                            grants.push(
                                pool.allocate(BrickId(vm), black_box(ByteSize::from_gib(8)))
                                    .expect("fits"),
                            );
                        }
                        for grant in &grants {
                            pool.release_grant(grant).expect("release");
                        }
                    },
                    BatchSize::SmallInput,
                )
            },
        );
    }
    group.finish();
}

fn bench_window(c: &mut Criterion) {
    c.bench_function("memory/remote_window_carve_release", |b| {
        b.iter_batched(
            || RemoteWindow::new(ByteSize::from_gib(1024)),
            |mut window| {
                let mut carved = Vec::with_capacity(128);
                for _ in 0..128 {
                    carved.push(
                        window
                            .carve(black_box(ByteSize::from_gib(8)))
                            .expect("fits"),
                    );
                }
                for addr in carved {
                    window
                        .release(addr, ByteSize::from_gib(8))
                        .expect("release");
                }
            },
            BatchSize::SmallInput,
        )
    });
}

/// The old O(n) first-fit scan over a sorted `Vec`, kept verbatim as the
/// baseline the segregated free-list replaced.
struct FirstFitReference {
    free_list: Vec<(u64, u64)>,
}

impl FirstFitReference {
    fn new(capacity: ByteSize) -> Self {
        FirstFitReference {
            free_list: vec![(0, capacity.as_bytes())],
        }
    }

    fn allocate(&mut self, size: ByteSize) -> Option<u64> {
        let needed = size.as_bytes();
        let idx = self.free_list.iter().position(|(_, len)| *len >= needed)?;
        let (offset, len) = self.free_list[idx];
        if len == needed {
            self.free_list.remove(idx);
        } else {
            self.free_list[idx] = (offset + needed, len - needed);
        }
        Some(offset)
    }

    fn release(&mut self, offset: u64, size: ByteSize) {
        let end = offset + size.as_bytes();
        // The overlap validation of the old release path.
        if self
            .free_list
            .iter()
            .any(|(o, l)| offset < o + l && *o < end)
        {
            return;
        }
        let pos = self
            .free_list
            .iter()
            .position(|(o, _)| *o > offset)
            .unwrap_or(self.free_list.len());
        self.free_list.insert(pos, (offset, size.as_bytes()));
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.free_list.len());
        for &(o, l) in &self.free_list {
            if let Some(last) = merged.last_mut() {
                if last.0 + last.1 == o {
                    last.1 += l;
                    continue;
                }
            }
            merged.push((o, l));
        }
        self.free_list = merged;
    }
}

/// A deterministic 10k-op mixed alloc/release trace over one 512-GiB
/// memory tray. Irregular sizes (uniform 1–512 MiB) fragment the free list
/// into hundreds of ranges: released ranges rarely match a later request,
/// so gaps persist, and the old first-fit allocator pays an O(n) scan per
/// allocation plus O(n) validation/coalescing passes per release — the hot
/// path the size-class index removes.
fn mixed_ops(count: usize) -> Vec<(bool, u64)> {
    let mut rng = SimRng::seed(4242);
    (0..count)
        .map(|_| (rng.chance(0.55), rng.range(1u64..=512)))
        .collect()
}

fn bench_allocator_mixed(c: &mut Criterion) {
    const MIB: u64 = 1 << 20;
    let ops = mixed_ops(10_000);
    let mut group = c.benchmark_group("memory/allocator_mixed_10k_ops");

    group.bench_function("segregated_free_list", |b| {
        b.iter_batched(
            || ops.clone(),
            |ops| {
                let mut alloc = BrickAllocator::new(BrickId(0), ByteSize::from_gib(512));
                let mut live: Vec<(u64, ByteSize)> = Vec::new();
                for (do_alloc, n) in ops {
                    if do_alloc || live.is_empty() {
                        let size = ByteSize::from_bytes(n * MIB);
                        if let Ok(offset) = alloc.allocate(black_box(size)) {
                            live.push((offset, size));
                        }
                    } else {
                        let (offset, size) = live.swap_remove(n as usize % live.len());
                        alloc.release(offset, size).expect("live range releases");
                    }
                }
                black_box(alloc.free())
            },
            BatchSize::SmallInput,
        )
    });

    group.bench_function("first_fit_reference", |b| {
        b.iter_batched(
            || ops.clone(),
            |ops| {
                let mut alloc = FirstFitReference::new(ByteSize::from_gib(512));
                let mut live: Vec<(u64, ByteSize)> = Vec::new();
                for (do_alloc, n) in ops {
                    if do_alloc || live.is_empty() {
                        let size = ByteSize::from_bytes(n * MIB);
                        if let Some(offset) = alloc.allocate(black_box(size)) {
                            live.push((offset, size));
                        }
                    } else {
                        let (offset, size) = live.swap_remove(n as usize % live.len());
                        alloc.release(offset, size);
                    }
                }
                black_box(alloc.free_list.len())
            },
            BatchSize::SmallInput,
        )
    });

    group.finish();
}

/// Records 100k read-latency-like samples (ns) into one sketch: a
/// log-normal body around 340 ns with a heavy tail, quantised to whole
/// nanoseconds as priced reads are, so consecutive samples often share a
/// bucket.
fn bench_summary_record(c: &mut Criterion) {
    let mut rng = SimRng::seed(2018);
    let samples: Vec<f64> = (0..100_000)
        .map(|_| rng.log_normal(340f64.ln(), 0.9).round().max(1.0))
        .collect();
    c.bench_function("stats/summary_record", |b| {
        b.iter(|| {
            let mut summary = Summary::new();
            for &x in &samples {
                summary.record(black_box(x));
            }
            black_box(summary.count())
        })
    });
}

criterion_group!(
    benches,
    bench_pool,
    bench_window,
    bench_allocator_mixed,
    bench_summary_record
);
criterion_main!(benches);
