//! Determinism regression guard for the SDM control plane's capacity
//! indexes: random registration + allocate/release/power traces must
//! produce *identical* placement decisions — and identical controller
//! state — from the indexed request path ([`SdmController::allocate_vm`])
//! and the reference rack-wide scan ([`SdmController::allocate_vm_scan`]),
//! for all three placement policies and both memory pick strategies. The
//! scenario engine's same-seed bit-identical replay guarantee rests on
//! this equivalence.

use proptest::prelude::*;

use dredbox::bricks::BrickId;
use dredbox::interconnect::LatencyConfig;
use dredbox::memory::{AllocationPolicy, PickStrategy};
use dredbox::orchestrator::{
    PlacementPolicy, ScaleUpGrant, SdmController, SdmTimings, VmAllocationRequest,
};
use dredbox::sim::units::ByteSize;

/// One step of a random control-plane trace.
#[derive(Debug, Clone, Copy)]
enum TraceOp {
    /// Admit a VM with `vcpus` cores and `gib` GiB of pooled memory.
    Alloc { vcpus: u32, gib: u64 },
    /// Release the `pick`-th live VM (cores and memory).
    Release { pick: usize },
    /// Flip the power view of the `pick`-th registered brick.
    Power { pick: usize, on: bool },
}

/// Decodes one sampled tuple into a trace op: half the steps allocate, the
/// rest release or flip power, so racks fill, drain and sleep.
fn decode((kind, a, b, on): (u8, u32, u64, bool)) -> TraceOp {
    match kind % 8 {
        0..=3 => TraceOp::Alloc {
            vcpus: a % 16 + 1,
            gib: b % 8 + 1,
        },
        4..=6 => TraceOp::Release { pick: a as usize },
        _ => TraceOp::Power {
            pick: a as usize,
            on,
        },
    }
}

/// A rack with heterogeneous brick sizes so free-core ties and the
/// sleeping-brick fallback both get exercised.
fn controller(placement: PlacementPolicy, memory: AllocationPolicy) -> SdmController {
    let mut sdm = SdmController::new(
        memory,
        placement,
        SdmTimings::dredbox_default(),
        LatencyConfig::dredbox_default(),
    );
    for b in 0..12u32 {
        let cores = if b % 3 == 0 { 16 } else { 32 };
        sdm.register_compute_brick(BrickId(b), cores, 8);
    }
    for b in 100..104u32 {
        sdm.register_membrick(BrickId(b), ByteSize::from_gib(16));
    }
    sdm
}

fn assert_same_state(indexed: &SdmController, scan: &SdmController) {
    assert_eq!(
        indexed.idle_compute_bricks().collect::<Vec<_>>(),
        scan.idle_compute_bricks().collect::<Vec<_>>()
    );
    assert_eq!(
        indexed.idle_membricks().collect::<Vec<_>>(),
        scan.idle_membricks().collect::<Vec<_>>()
    );
    assert_eq!(indexed.pool().total_free(), scan.pool().total_free());
    assert_eq!(indexed.ledger().held_memory(), scan.ledger().held_memory());
}

fn run_trace(placement: PlacementPolicy, memory: AllocationPolicy, ops: &[TraceOp]) {
    let mut indexed = controller(placement, memory);
    let mut scan = controller(placement, memory);
    scan.set_memory_pick_strategy(PickStrategy::ReferenceScan);

    // Live VMs as (brick, vcpus, grant), identical on both sides by
    // construction — the assertions below keep it that way.
    let mut live: Vec<(BrickId, u32, ScaleUpGrant)> = Vec::new();

    for op in ops {
        match *op {
            TraceOp::Alloc { vcpus, gib } => {
                let request = VmAllocationRequest::new(vcpus, ByteSize::from_gib(gib));
                let a = indexed.allocate_vm(request);
                let b = scan.allocate_vm_scan(request);
                assert_eq!(a, b, "{placement:?}/{memory:?} diverged on {op:?}");
                if let Ok((brick, grant)) = a {
                    live.push((brick, vcpus, grant));
                }
            }
            TraceOp::Release { pick } => {
                if live.is_empty() {
                    continue;
                }
                let (brick, vcpus, grant) = live.remove(pick % live.len());
                let a = indexed.release_vm(brick, vcpus);
                let b = scan.release_vm(brick, vcpus);
                assert_eq!(a, b, "{placement:?}/{memory:?} diverged releasing cores");
                let a = indexed.release_scale_up(&grant);
                let b = scan.release_scale_up(&grant);
                assert_eq!(a, b, "{placement:?}/{memory:?} diverged releasing memory");
            }
            TraceOp::Power { pick, on } => {
                let brick = BrickId((pick % 12) as u32);
                let a = indexed.set_compute_power(brick, on);
                let b = scan.set_compute_power(brick, on);
                assert_eq!(a, b);
            }
        }
        assert_same_state(&indexed, &scan);
    }
}

proptest! {
    #[test]
    fn indexed_control_plane_matches_reference_scan(
        raw in proptest::collection::vec((0u8..8, 0u32..64, 0u64..64, proptest::bool::ANY), 1..60)
    ) {
        let ops: Vec<TraceOp> = raw.into_iter().map(decode).collect();
        for placement in [
            PlacementPolicy::FirstFit,
            PlacementPolicy::PowerAware,
            PlacementPolicy::Balanced,
        ] {
            run_trace(placement, AllocationPolicy::PowerAware, &ops);
        }
        // The pool-side equivalence across its four policies is covered by
        // the dredbox-memory property tests; one cross-policy pairing here
        // keeps the end-to-end combination honest.
        run_trace(PlacementPolicy::FirstFit, AllocationPolicy::BestFit, &ops);
    }
}
