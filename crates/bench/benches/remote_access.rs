//! Criterion bench for the Figure 8 substrate: remote-memory round-trip
//! latency breakdowns on both data paths, plus the RMST lookup on the
//! critical path of every remote transaction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use dredbox::bricks::{BrickId, PortId};
use dredbox::interconnect::RmstEntry;
use dredbox::interconnect::{LatencyConfig, RemoteMemoryPath, RemoteMemorySegmentTable};
use dredbox::sim::units::ByteSize;

fn bench_paths(c: &mut Criterion) {
    let circuit = RemoteMemoryPath::circuit_switched(LatencyConfig::dredbox_default());
    let packet = RemoteMemoryPath::packet_switched(LatencyConfig::dredbox_default());
    let mut group = c.benchmark_group("remote_access/round_trip_model");
    for size in [64u64, 4096] {
        group.bench_with_input(BenchmarkId::new("circuit", size), &size, |b, &s| {
            b.iter(|| circuit.read(black_box(ByteSize::from_bytes(s))))
        });
        group.bench_with_input(BenchmarkId::new("packet", size), &size, |b, &s| {
            b.iter(|| packet.read(black_box(ByteSize::from_bytes(s))))
        });
    }
    group.finish();
}

fn bench_rmst(c: &mut Criterion) {
    const GIB: u64 = 1 << 30;
    let mut rmst = RemoteMemorySegmentTable::new(256);
    for i in 0..256u64 {
        rmst.insert(RmstEntry {
            base: i * 2 * GIB,
            size: ByteSize::from_gib(1),
            destination: BrickId((i % 16) as u32),
            port: PortId::new(BrickId(0), (i % 8) as u8),
        })
        .expect("entries fit");
    }
    c.bench_function("remote_access/rmst_lookup_hit", |b| {
        b.iter(|| rmst.lookup(black_box(200 * 2 * GIB + 4096)))
    });
    c.bench_function("remote_access/rmst_lookup_miss", |b| {
        b.iter(|| rmst.lookup(black_box(3 * GIB)).is_err())
    });
}

criterion_group!(benches, bench_paths, bench_rmst);
criterion_main!(benches);
