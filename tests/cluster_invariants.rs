//! The rack side of the federation contract.
//!
//! The cluster tier never inspects bricks: it routes on each rack's
//! [`RackDigest`], which [`DredboxSystem::digest`] reads off the SDM
//! controller's incrementally maintained indexes and the rack's powered
//! ledger. These property tests replay random admit / scale / migrate /
//! offload / sweep / fault / repair / reclaim traces through one rack and
//! assert after every step that
//!
//! * the digest equals [`rebuild_rack_digest`], a from-scratch rebuild off
//!   the authoritative per-brick state built only from public accessors,
//!   so routing decisions can never act on stale aggregates; and
//! * every rejected admission leaves the whole system (indexes, pools,
//!   ledgers, bricks) bit-identical: no partial residue.

use proptest::prelude::*;

use dredbox::bricks::{Brick, BrickId, BrickKind, PowerState};
use dredbox::orchestrator::RackDigest;
use dredbox::prelude::*;
use dredbox::sim::units::ByteSize;
use dredbox::workload::OffloadDemand;

/// Rebuilds a rack's digest from per-brick state — capacity slots, pool
/// allocators, accelerator slots, physical power states — instead of the
/// maintained aggregates [`DredboxSystem::digest`] reads.
fn rebuild_rack_digest(s: &DredboxSystem) -> RackDigest {
    let sdm = s.sdm();
    let mut free_cores = 0u64;
    let mut largest_free_cores = 0u32;
    let mut largest_sleeping_cores = 0u32;
    let mut active_bricks = 0u32;
    for view in sdm.capacity().views() {
        if view.powered_on {
            free_cores += u64::from(view.free_cores);
            largest_free_cores = largest_free_cores.max(view.free_cores);
            if view.active {
                active_bricks += 1;
            }
        } else {
            largest_sleeping_cores = largest_sleeping_cores.max(view.total_cores);
        }
    }
    let mut free_memory_bytes = 0u64;
    let mut largest_segment_bytes = 0u64;
    for membrick in s.rack().brick_ids(BrickKind::Memory) {
        free_memory_bytes += sdm.pool().free_on(membrick).map_or(0, |b| b.as_bytes());
        largest_segment_bytes = largest_segment_bytes.max(
            sdm.pool()
                .largest_free_on(membrick)
                .map_or(0, |b| b.as_bytes()),
        );
    }
    let idle_accels = sdm
        .accel()
        .slots()
        .filter(|(_, slot)| slot.active_sessions == 0)
        .count() as u32;
    // Powered-on bricks per kind `[compute, memory, accel]`, priced at the
    // catalog's active draw in milliwatts.
    let mut powered = [0u32; 3];
    for brick in s.rack().bricks() {
        let (state, kind) = match brick {
            Brick::Compute(b) => (b.power_state(), 0),
            Brick::Memory(b) => (b.power_state(), 1),
            Brick::Accelerator(b) => (b.power_state(), 2),
        };
        if state != PowerState::Off {
            powered[kind] += 1;
        }
    }
    let catalog = &s.config().catalog;
    let draw_mw = [
        catalog.compute_spec().power.active(),
        catalog.memory_spec().power.active(),
        catalog.accelerator_spec().power.active(),
    ]
    .map(|w| (w.as_watts() * 1e3).round() as u64);
    RackDigest {
        free_cores,
        largest_free_cores,
        largest_sleeping_cores,
        free_memory_bytes,
        largest_segment_bytes,
        idle_accels,
        accel_bricks: sdm.accel().len() as u32,
        active_bricks,
        powered_bricks: powered.iter().sum(),
        provisioned_milliwatts: powered
            .iter()
            .zip(draw_mw)
            .map(|(&n, mw)| u64::from(n) * mw)
            .sum(),
    }
}

/// One step of a random rack-orchestration trace.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Admit a VM with `vcpus` cores and `gib` GiB.
    Admit { vcpus: u32, gib: u64 },
    /// Release the `pick`-th live VM.
    Release { pick: usize },
    /// Grow the `pick`-th live VM by `gib` GiB, then shrink it back when
    /// `shrink` is set.
    Scale { pick: usize, gib: u64, shrink: bool },
    /// Live-migrate the `pick`-th live VM to the `to`-th compute brick.
    Migrate { pick: usize, to: usize },
    /// Begin an offload on the `pick`-th live VM, or end the `pick`-th
    /// open session.
    Offload { pick: usize, end: bool },
    /// Power-sweep the rack.
    Sweep,
    /// Fail the `pick`-th brick of a kind (0 compute, 1 memory, 2 accel).
    Fault { kind: u8, pick: usize },
    /// Repair the `pick`-th brick of a kind.
    Repair { kind: u8, pick: usize },
    /// Retire every orphaned VM record.
    Reclaim,
}

/// Decodes a sampled tuple: ~30% admissions, then a churn mix over the
/// rest of the orchestration and fault surface, so bricks fill, move,
/// sleep, die and come back.
fn decode((kind, a, b): (u8, u8, u8)) -> Op {
    let pick = a as usize;
    match kind % 20 {
        0..=5 => Op::Admit {
            vcpus: u32::from(a % 4) + 1,
            gib: u64::from(b % 4) + 1,
        },
        6..=8 => Op::Release { pick },
        9..=10 => Op::Scale {
            pick,
            gib: u64::from(b % 3) + 1,
            shrink: b % 2 == 0,
        },
        11 => Op::Migrate {
            pick,
            to: b as usize,
        },
        12..=13 => Op::Offload {
            pick,
            end: b % 2 == 0,
        },
        14 => Op::Sweep,
        15..=16 => Op::Fault { kind: b % 3, pick },
        17..=18 => Op::Repair { kind: b % 3, pick },
        _ => Op::Reclaim,
    }
}

/// A small accelerated rack: 2 trays × (2 compute + 2 memory + 1 accel)
/// bricks.
fn build_rack() -> DredboxSystem {
    DredboxSystem::build(SystemConfig::accelerated_rack(2, 2, 2, 1)).expect("build rack")
}

/// The `pick`-th brick of a kind (0 compute, 1 memory, 2 accel).
fn brick(s: &DredboxSystem, kind: u8, pick: usize) -> Option<BrickId> {
    let kind = [
        BrickKind::Compute,
        BrickKind::Memory,
        BrickKind::Accelerator,
    ][kind as usize];
    let ids = s.rack().brick_ids(kind);
    (!ids.is_empty()).then(|| ids[pick % ids.len()])
}

fn demand() -> OffloadDemand {
    OffloadDemand {
        kernel: "kernel-0".into(),
        bitstream: ByteSize::from_mib(8),
        input: ByteSize::from_mib(64),
    }
}

/// The maintained digest must equal a from-scratch rebuild from per-brick
/// state — the lockstep contract routing correctness rests on.
fn check_digest(s: &DredboxSystem) {
    assert_eq!(
        s.digest(),
        rebuild_rack_digest(s),
        "maintained digest diverged from a from-scratch rebuild"
    );
}

proptest! {
    #[test]
    fn federated_traces_keep_digests_in_lockstep_with_brick_state(
        ops in proptest::collection::vec((0u8..=255, 0u8..=255, 0u8..=255), 1..60)
    ) {
        let mut system = build_rack();
        let mut live: Vec<VmHandle> = Vec::new();
        let mut sessions = Vec::new();
        check_digest(&system);

        for tuple in ops {
            match decode(tuple) {
                Op::Admit { vcpus, gib } => {
                    let before = system.clone();
                    match system.allocate_vm(vcpus, ByteSize::from_gib(gib)) {
                        Ok(vm) => live.push(vm),
                        // A refused admission must be a perfect no-op.
                        Err(_) => prop_assert_eq!(&system, &before),
                    }
                }
                // Handles may have died with a faulted brick: errors are
                // part of the surface under test.
                Op::Release { pick } if !live.is_empty() => {
                    let vm = live.swap_remove(pick % live.len());
                    let _ = system.release_vm(vm);
                }
                Op::Scale { pick, gib, shrink } if !live.is_empty() => {
                    let vm = live[pick % live.len()];
                    let amount = ByteSize::from_gib(gib);
                    if system.scale_up(vm, amount).is_ok() && shrink {
                        system.scale_down(vm, amount).expect("the fresh grant shrinks");
                    }
                }
                Op::Migrate { pick, to } if !live.is_empty() => {
                    let vm = live[pick % live.len()];
                    if let Some(to) = brick(&system, 0, to) {
                        let _ = system.migrate_vm(vm, to);
                    }
                }
                Op::Offload { pick, end: false } if !live.is_empty() => {
                    let vm = live[pick % live.len()];
                    if let Ok(report) = system.begin_offload(vm, &demand()) {
                        sessions.push(report.session);
                    }
                }
                Op::Offload { pick, end: true } if !sessions.is_empty() => {
                    let session = sessions.swap_remove(pick % sessions.len());
                    let _ = system.end_offload(session);
                }
                Op::Sweep => {
                    system.power_off_unused();
                }
                Op::Fault { kind, pick } => {
                    if let Some(b) = brick(&system, kind, pick) {
                        let _ = match kind {
                            0 => system.fail_compute_brick(b).map(drop),
                            1 => system.fail_membrick(b).map(|report| {
                                live.extend(report.restarted.iter().map(|&(_, vm)| vm));
                            }),
                            _ => system.fail_accel_brick(b).map(drop),
                        };
                    }
                }
                Op::Repair { kind, pick } => {
                    if let Some(b) = brick(&system, kind, pick) {
                        let _ = match kind {
                            0 => system.repair_compute_brick(b).map(drop),
                            1 => system.repair_membrick(b).map(drop),
                            _ => system.repair_accel_brick(b).map(drop),
                        };
                    }
                }
                Op::Reclaim => {
                    system.reclaim_orphans();
                }
                _ => {}
            }
            check_digest(&system);
        }

        // Drain the trace: releasing every surviving VM and retiring every
        // orphan must return the digest to lockstep with an idle rack.
        for vm in live.drain(..) {
            let _ = system.release_vm(vm);
        }
        system.reclaim_orphans();
        check_digest(&system);
        prop_assert_eq!(system.vm_count(), 0);

        // Every layer a VM touched is empty again: pool, ledger, offload
        // sessions, brick bookkeeping, SDM agents, hypervisors and the
        // memory bricks' exports.
        let sdm = system.sdm();
        prop_assert_eq!(system.pool_allocated(), ByteSize::ZERO);
        prop_assert_eq!(sdm.ledger().held_memory(), ByteSize::ZERO);
        prop_assert_eq!(system.offload_session_count(), 0);
        prop_assert_eq!(sdm.offload_session_count(), 0);
        for id in system.rack().brick_ids(BrickKind::Compute) {
            prop_assert_eq!(sdm.ledger().held_cores(id), 0);
            let compute = system.rack().brick(id).and_then(|b| b.as_compute()).unwrap();
            prop_assert_eq!(compute.allocated_cores(), 0);
            prop_assert_eq!(compute.attached_remote_memory(), ByteSize::ZERO);
            prop_assert_eq!(sdm.agent(id).unwrap().mapped_remote_memory(), ByteSize::ZERO);
            let hv = system.hypervisor(id).unwrap();
            prop_assert_eq!(hv.vm_count(), 0);
            prop_assert_eq!(hv.os().onlined_remote(), ByteSize::ZERO);
        }
        for id in system.rack().brick_ids(BrickKind::Memory) {
            let membrick = system.rack().brick(id).and_then(|b| b.as_memory()).unwrap();
            prop_assert_eq!(membrick.exported(), ByteSize::ZERO);
        }
    }

    #[test]
    fn infeasible_cluster_requests_leave_the_system_bit_identical(
        seeds in proptest::collection::vec((1u32..=4, 1u64..=4), 1..12),
        huge_vcpus in 1_000u32..=100_000,
        huge_gib in 10_000u64..=1_000_000,
    ) {
        let mut system = build_rack();

        // Partially load the rack so rejections race against real state.
        let mut live = Vec::new();
        for (vcpus, gib) in seeds {
            if let Ok(vm) = system.allocate_vm(vcpus, ByteSize::from_gib(gib)) {
                live.push(vm);
            }
        }
        check_digest(&system);
        let before = system.clone();

        // No brick can host this demand, and nothing may move: not the
        // indexes, not the pool, not the digest the cluster routes on.
        prop_assert!(system.allocate_vm(huge_vcpus, ByteSize::from_gib(4)).is_err());
        prop_assert_eq!(&system, &before);
        prop_assert!(system.allocate_vm(1, ByteSize::from_gib(huge_gib)).is_err());
        prop_assert_eq!(&system, &before);
        prop_assert_eq!(system.digest(), before.digest());

        // Migrating a VM onto its own brick or an unknown brick is refused
        // without a trace.
        if let Some(&vm) = live.first() {
            let own = system.vm_brick(vm).expect("live VM has a brick");
            prop_assert!(system.migrate_vm(vm, own).is_err());
            prop_assert_eq!(&system, &before);
            prop_assert!(system.migrate_vm(vm, BrickId(9_999)).is_err());
            prop_assert_eq!(&system, &before);
        }
        check_digest(&system);
    }
}
