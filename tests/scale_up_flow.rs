//! Integration tests of the Scale-up control flow (Section IV / Figure 10):
//! application -> Scale-up controller -> SDM controller -> glue logic ->
//! baremetal hotplug -> hypervisor DIMM hotplug -> guest.

use dredbox::bricks::BrickId;
use dredbox::interconnect::LatencyConfig;
use dredbox::memory::HotplugModel;
use dredbox::orchestrator::{ScaleUpDemand, SdmController, SdmTimings};
use dredbox::sim::queue::ControlPlaneQueue;
use dredbox::sim::rng::SimRng;
use dredbox::sim::time::SimTime;
use dredbox::sim::units::ByteSize;
use dredbox::softstack::{BaremetalOs, Hypervisor, ScaleOutBaseline, ScaleUpController, VmSpec};

fn brick_stack(brick: u32) -> (Hypervisor, dredbox::softstack::VmId) {
    let os = BaremetalOs::new(
        BrickId(brick),
        ByteSize::from_gib(2),
        HotplugModel::dredbox_default(),
    );
    let mut hv = Hypervisor::new(os, 32);
    let (vm, _) = hv
        .create_vm(VmSpec::new(2, ByteSize::from_gib(1)))
        .expect("initial vm");
    (hv, vm)
}

#[test]
fn scale_up_attaches_memory_through_every_layer() {
    let mut sdm = SdmController::dredbox_default();
    sdm.register_compute_brick(BrickId(0), 32, 8);
    sdm.register_membrick(BrickId(100), ByteSize::from_gib(32));
    let (mut hv, vm) = brick_stack(0);
    let scaleup = ScaleUpController::default();

    let grant = sdm
        .handle_scale_up(ScaleUpDemand::new(BrickId(0), ByteSize::from_gib(8)))
        .expect("pool has space");
    let outcome = scaleup
        .apply_grant(&mut hv, vm, ByteSize::from_gib(8))
        .expect("apply");

    // Orchestration side: pool, ledger, agent RMST and switch routes agree.
    assert_eq!(sdm.pool().total_allocated(), ByteSize::from_gib(8));
    assert_eq!(sdm.ledger().held_memory(), ByteSize::from_gib(8));
    let agent = sdm.agent(BrickId(0)).expect("agent");
    assert_eq!(agent.mapped_remote_memory(), ByteSize::from_gib(8));
    assert!(agent.packet_switch().route(BrickId(100)).is_ok());
    assert!(agent.tgl().route(grant.rmst_bases[0]).is_ok());

    // Brick side: baremetal onlined the memory and the guest received it.
    assert_eq!(hv.os().onlined_remote(), ByteSize::from_gib(8));
    assert_eq!(
        hv.vm(vm).expect("vm").current_memory(),
        ByteSize::from_gib(9)
    );
    assert_eq!(hv.vm(vm).expect("vm").scale_up_count(), 1);

    // Latency plausibility: orchestration tens of ms, hotplug a few hundred
    // ms, total well under the paper's seconds-scale y-axis.
    assert!(grant.service_time.as_millis_f64() >= 30.0);
    assert!(outcome.total().as_secs_f64() < 1.0);

    // And it all unwinds.
    let reclaim = scaleup
        .apply_reclaim(&mut hv, vm, ByteSize::from_gib(8))
        .expect("reclaim");
    assert!(reclaim.total() > dredbox::sim::time::SimDuration::ZERO);
    sdm.release_scale_up(&grant).expect("release");
    assert_eq!(sdm.pool().total_allocated(), ByteSize::ZERO);
    assert_eq!(
        sdm.agent(BrickId(0)).expect("agent").mapped_remote_memory(),
        ByteSize::ZERO
    );
    assert_eq!(hv.os().onlined_remote(), ByteSize::ZERO);
}

#[test]
fn concurrent_bursts_degrade_gracefully_and_beat_scale_out() {
    // The Figure 10 structure: bursts of 8/16/32 simultaneous scale-up
    // requests against a single SDM controller.
    let mut rng = SimRng::seed(99);
    let mut averages = Vec::new();
    for &concurrency in &[8usize, 16, 32] {
        let mut sdm = SdmController::dredbox_default();
        let mut stacks = Vec::new();
        for i in 0..concurrency {
            sdm.register_compute_brick(BrickId(i as u32), 32, 8);
            sdm.register_membrick(BrickId(1000 + i as u32), ByteSize::from_gib(32));
            stacks.push(brick_stack(i as u32));
        }
        let scaleup = ScaleUpController::default();
        let demands: Vec<ScaleUpDemand> = (0..concurrency)
            .map(|i| {
                ScaleUpDemand::new(BrickId(i as u32), ByteSize::from_gib(rng.range(1u64..=16)))
            })
            .collect();
        // The SDM controller serves the burst one request after another.
        let mut queue =
            ControlPlaneQueue::new(SdmTimings::dredbox_default().queued_request_penalty);
        let mut total = 0.0;
        for (demand, (hv, vm)) in demands.into_iter().zip(&mut stacks) {
            let grant = sdm
                .handle_scale_up(demand)
                .expect("no request may be dropped");
            let completion = queue.admit(SimTime::ZERO, grant.service_time).completion;
            let outcome = scaleup
                .apply_grant(hv, *vm, grant.demand.amount)
                .expect("apply");
            total += (completion.duration_since(SimTime::ZERO) + outcome.total()).as_secs_f64();
        }
        averages.push(total / concurrency as f64);
    }

    // More concurrency means more queueing at the SDM controller...
    assert!(averages[2] > averages[1] && averages[1] > averages[0]);
    // ...but even the most aggressive burst stays within seconds...
    assert!(
        averages[2] < 10.0,
        "32-way average was {:.2} s",
        averages[2]
    );
    // ...which is at least an order of magnitude better than scale-out.
    let scale_out = ScaleOutBaseline::mao_humphrey_default()
        .average_delay(32, 64, &mut rng)
        .as_secs_f64();
    assert!(scale_out > averages[2] * 10.0);
}

#[test]
fn failed_attach_rolls_back_across_layers() {
    let mut sdm = SdmController::dredbox_default();
    sdm.register_compute_brick(BrickId(0), 32, 8);
    sdm.register_membrick(BrickId(100), ByteSize::from_gib(8));
    // Demand beyond the pool: must fail and leave nothing behind.
    assert!(sdm
        .handle_scale_up(ScaleUpDemand::new(BrickId(0), ByteSize::from_gib(64)))
        .is_err());
    assert_eq!(sdm.pool().total_allocated(), ByteSize::ZERO);
    assert_eq!(sdm.ledger().held_memory(), ByteSize::ZERO);
    assert_eq!(
        sdm.agent(BrickId(0)).expect("agent").mapped_remote_memory(),
        ByteSize::ZERO
    );
    let _ = LatencyConfig::dredbox_default();
}
