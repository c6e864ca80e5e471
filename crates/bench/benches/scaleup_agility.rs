//! Criterion bench for the Figure 10 substrate: SDM-controller scale-up
//! handling and the full end-to-end scale-up through the system facade.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::hint::black_box;

use dredbox::bricks::BrickId;
use dredbox::orchestrator::{ScaleUpDemand, SdmController, SdmTimings};
use dredbox::prelude::*;
use dredbox::sim::queue::ControlPlaneQueue;
use dredbox::sim::units::ByteSize;

fn controller_with(concurrency: usize) -> SdmController {
    let mut sdm = SdmController::dredbox_default();
    for i in 0..concurrency {
        sdm.register_compute_brick(BrickId(i as u32), 32, 8);
        sdm.register_membrick(BrickId(1000 + i as u32), ByteSize::from_gib(32));
    }
    sdm
}

fn bench_sdm_burst(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaleup/sdm_burst");
    for &concurrency in &[8usize, 16, 32] {
        let demands: Vec<ScaleUpDemand> = (0..concurrency)
            .map(|i| ScaleUpDemand::new(BrickId(i as u32), ByteSize::from_gib(8)))
            .collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(concurrency),
            &demands,
            |b, demands| {
                b.iter_batched(
                    || controller_with(concurrency),
                    |mut sdm| {
                        let mut queue = ControlPlaneQueue::new(
                            SdmTimings::dredbox_default().queued_request_penalty,
                        );
                        for demand in black_box(demands) {
                            let grant = sdm.handle_scale_up(*demand).expect("burst fits");
                            black_box(queue.admit(SimTime::ZERO, grant.service_time));
                        }
                    },
                    BatchSize::SmallInput,
                )
            },
        );
    }
    group.finish();
}

fn bench_system_scale_up(c: &mut Criterion) {
    c.bench_function("scaleup/system_end_to_end", |b| {
        b.iter_batched(
            || {
                let mut system =
                    DredboxSystem::build(SystemConfig::datacenter_rack(2, 4, 4)).expect("build");
                let vm = system.allocate_vm(4, ByteSize::from_gib(4)).expect("vm");
                (system, vm)
            },
            |(mut system, vm)| {
                system
                    .scale_up(vm, black_box(ByteSize::from_gib(8)))
                    .expect("scale up")
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_sdm_burst, bench_system_scale_up);
criterion_main!(benches);
