//! Snapshot/restore invariants under arbitrary operation and fault traces.
//!
//! Live servicing rests on one promise: a [`SystemSnapshot`] captured at any
//! point — however tangled the history of admissions, releases, live
//! migrations, offload sessions, brick/link/switch faults, repairs and
//! reclaims that led there — serializes, deserializes and restores to a
//! system that is bit-identical *and stays bit-identical under every
//! subsequent operation*. These property tests replay a random trace prefix
//! on one accelerated rack, round-trip the system through the wire format,
//! then drive the original and the restored copy through the same trace
//! suffix in lockstep, asserting equality after every step.
//!
//! A second property holds the decoder's ground: truncations of a valid
//! stream are always rejected with an error, never misread or panicked on.

use proptest::prelude::*;

use dredbox::bricks::{Brick, BrickId};
use dredbox::prelude::*;
use dredbox::sim::units::ByteSize;
use dredbox::workload::OffloadDemand;

/// One step of a random servicing-era trace: the classic orchestration ops
/// plus the full fault/repair surface.
#[derive(Debug, Clone)]
enum Op {
    /// Admit a VM.
    Admit {
        vcpus: u32,
        gib: u64,
    },
    /// Release the `pick`-th tracked VM (it may already be dead to a fault
    /// — the error is the behavior under test, not a trace bug).
    Release {
        pick: usize,
    },
    /// Live-migrate the `pick`-th tracked VM to the `to`-th compute brick.
    Migrate {
        pick: usize,
        to: usize,
    },
    /// Begin a near-data offload session on the `pick`-th tracked VM.
    Offload {
        pick: usize,
        kernel: u8,
    },
    /// End the `pick`-th tracked session (it may have been drained).
    EndOffload {
        pick: usize,
    },
    /// Fail the `pick`-th brick of one kind.
    FaultCompute {
        pick: usize,
    },
    FaultMemory {
        pick: usize,
    },
    FaultAccel {
        pick: usize,
    },
    /// Sever the `ordinal`-th cabled tray-to-switch link.
    FaultLink {
        ordinal: u32,
    },
    /// Kill the rack's optical switch (self-heals onto the standby).
    FaultSwitch,
    /// Repair the `pick`-th brick of one kind, or re-splice a link.
    RepairCompute {
        pick: usize,
    },
    RepairMemory {
        pick: usize,
    },
    RepairAccel {
        pick: usize,
    },
    RepairLink {
        ordinal: u32,
    },
    /// Reclaim every orphaned remote segment.
    Reclaim,
    /// Power-sweep the whole system.
    Sweep,
}

/// Decodes a sampled tuple into an op: ~30% admissions, then a churn mix
/// weighted toward the fault/repair surface this suite exists to cover.
fn decode((kind, a, b): (u8, u8, u8)) -> Op {
    let (pick, ordinal) = (a as usize, u32::from(b));
    match kind % 20 {
        0..=5 => Op::Admit {
            vcpus: u32::from(a % 4) + 1,
            gib: u64::from(b % 4) + 1,
        },
        6..=7 => Op::Release { pick },
        8 => Op::Migrate {
            pick,
            to: b as usize,
        },
        9..=10 => Op::Offload {
            pick,
            kernel: b % 3,
        },
        11 => Op::EndOffload { pick },
        12 => Op::FaultCompute { pick },
        13 => Op::FaultMemory { pick },
        14 => Op::FaultAccel { pick },
        15 => Op::FaultLink { ordinal },
        16 => Op::FaultSwitch,
        17 => match b % 4 {
            0 => Op::RepairCompute { pick },
            1 => Op::RepairMemory { pick },
            2 => Op::RepairAccel { pick },
            _ => Op::RepairLink { ordinal },
        },
        18 => Op::Reclaim,
        _ => Op::Sweep,
    }
}

/// A small rack with every brick kind present: 2 trays × (2 compute +
/// 2 memory + 1 accel) bricks.
fn build() -> DredboxSystem {
    let config = dredbox::SystemConfig::accelerated_rack(2, 2, 2, 1);
    DredboxSystem::build(config).expect("build system")
}

/// The `pick`-th brick of the rack matching a kind filter.
fn brick(s: &DredboxSystem, pick: usize, want: fn(&Brick) -> bool) -> Option<BrickId> {
    let ids: Vec<BrickId> = s
        .rack()
        .bricks()
        .filter(|b| want(b))
        .map(Brick::id)
        .collect();
    if ids.is_empty() {
        None
    } else {
        Some(ids[pick % ids.len()])
    }
}

fn demand(kernel: u8) -> OffloadDemand {
    OffloadDemand {
        kernel: format!("kernel-{kernel}").into(),
        bitstream: ByteSize::from_mib(8),
        input: ByteSize::from_mib(256),
    }
}

/// Applies one op. Rejections and operations on fault-killed handles are
/// deliberately tolerated: a restored system must mirror the original's
/// behavior on the *whole* surface, errors included — the lockstep equality
/// check after each step is what catches any divergence.
fn apply(
    s: &mut DredboxSystem,
    op: &Op,
    live: &mut Vec<VmHandle>,
    sessions: &mut Vec<OffloadSessionId>,
) {
    match *op {
        Op::Admit { vcpus, gib } => {
            if let Ok(vm) = s.allocate_vm(vcpus, ByteSize::from_gib(gib)) {
                live.push(vm);
            }
        }
        Op::Release { pick } => {
            if live.is_empty() {
                return;
            }
            let vm = live.swap_remove(pick % live.len());
            let _ = s.release_vm(vm);
        }
        Op::Migrate { pick, to } => {
            if live.is_empty() {
                return;
            }
            let vm = live[pick % live.len()];
            if let Some(to) = brick(s, to, |b| b.as_compute().is_some()) {
                let _ = s.migrate_vm(vm, to);
            }
        }
        Op::Offload { pick, kernel } => {
            if live.is_empty() {
                return;
            }
            let vm = live[pick % live.len()];
            if let Ok(report) = s.begin_offload(vm, &demand(kernel)) {
                sessions.push(report.session);
            }
        }
        Op::EndOffload { pick } => {
            if sessions.is_empty() {
                return;
            }
            let session = sessions.swap_remove(pick % sessions.len());
            let _ = s.end_offload(session);
        }
        Op::FaultCompute { pick } => {
            if let Some(b) = brick(s, pick, |b| b.as_compute().is_some()) {
                let _ = s.fail_compute_brick(b);
            }
        }
        Op::FaultMemory { pick } => {
            if let Some(b) = brick(s, pick, |b| b.as_memory().is_some()) {
                let _ = s.fail_membrick(b);
            }
        }
        Op::FaultAccel { pick } => {
            if let Some(b) = brick(s, pick, |b| b.as_accelerator().is_some()) {
                let _ = s.fail_accel_brick(b);
            }
        }
        Op::FaultLink { ordinal } => {
            let _ = s.fail_link(ordinal);
        }
        Op::FaultSwitch => {
            s.fail_switch();
        }
        Op::RepairCompute { pick } => {
            if let Some(b) = brick(s, pick, |b| b.as_compute().is_some()) {
                let _ = s.repair_compute_brick(b);
            }
        }
        Op::RepairMemory { pick } => {
            if let Some(b) = brick(s, pick, |b| b.as_memory().is_some()) {
                let _ = s.repair_membrick(b);
            }
        }
        Op::RepairAccel { pick } => {
            if let Some(b) = brick(s, pick, |b| b.as_accelerator().is_some()) {
                let _ = s.repair_accel_brick(b);
            }
        }
        Op::RepairLink { ordinal } => {
            s.repair_link(ordinal);
        }
        Op::Reclaim => {
            s.reclaim_orphans();
        }
        Op::Sweep => {
            s.power_off_unused();
        }
    }
}

proptest! {
    /// The tentpole property: snapshot → serialize → restore anywhere in a
    /// random trace yields a system that is bit-identical now and stays
    /// bit-identical under the rest of the trace.
    #[test]
    fn restored_systems_replay_arbitrary_traces_bit_identically(
        ops in proptest::collection::vec((0u8..=255, 0u8..=255, 0u8..=255), 2..40)
    ) {
        let mut system = build();
        let mut live: Vec<VmHandle> = Vec::new();
        let mut sessions: Vec<OffloadSessionId> = Vec::new();

        // Replay the trace prefix on the original alone.
        let split = ops.len() / 2;
        for tuple in &ops[..split] {
            apply(&mut system, &decode(*tuple), &mut live, &mut sessions);
        }

        // Round-trip through the wire format.
        let bytes = SystemSnapshot::capture(&system).to_bytes();
        let snap = SystemSnapshot::from_bytes(&bytes).expect("valid stream decodes");
        let mut thawed = snap.into_system();
        prop_assert_eq!(&thawed, &system);

        // The restored rack digests exactly as the captured one: no stale
        // aggregate smuggled across.
        prop_assert_eq!(thawed.digest(), system.digest());

        // Drive both through the trace suffix in lockstep: every decision —
        // placements, migrations, fault recovery, orphan reclaim — must
        // come out the same, handle for handle.
        let mut thawed_live = live.clone();
        let mut thawed_sessions = sessions.clone();
        for tuple in &ops[split..] {
            let op = decode(*tuple);
            apply(&mut system, &op, &mut live, &mut sessions);
            apply(&mut thawed, &op, &mut thawed_live, &mut thawed_sessions);
            prop_assert_eq!(&thawed, &system, "diverged on {:?}", op);
            prop_assert_eq!(&thawed_live, &live);
            prop_assert_eq!(&thawed_sessions, &sessions);
        }
    }

    /// Truncating a valid stream anywhere must produce a decode error —
    /// never a panic, never a silently misread system.
    #[test]
    fn truncated_snapshots_are_rejected(
        ops in proptest::collection::vec((0u8..=255, 0u8..=255, 0u8..=255), 0..8),
        cut in 0.0f64..1.0
    ) {
        let mut system = build();
        let mut live = Vec::new();
        let mut sessions = Vec::new();
        for tuple in &ops {
            apply(&mut system, &decode(*tuple), &mut live, &mut sessions);
        }
        let bytes = SystemSnapshot::capture(&system).to_bytes();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let len = ((bytes.len() - 1) as f64 * cut) as usize;
        prop_assert!(SystemSnapshot::from_bytes(&bytes[..len]).is_err());
    }
}

/// FNV-1a over a byte stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The `DRBX` bytes of an accelerated rack holding loaded bitstreams (one
/// reused, one idle after its session ended, one dropped by a power sweep
/// and programmed again), live offload sessions and multi-grant VMs are
/// pinned: a change to how kernel names, grants or the accelerator index
/// are held in memory must leave the encoding byte for byte as it was.
#[test]
fn accelerated_rack_snapshot_bytes_are_pinned() {
    use dredbox::workload::VideoAnalyticsWorkload;
    use dredbox::workload::{NetworkAnalyticsWorkload, NfvKeyServerWorkload};

    let mut system = DredboxSystem::build(dredbox::SystemConfig::accelerated_rack(2, 2, 2, 2))
        .expect("build system");
    let video = VideoAnalyticsWorkload::dredbox_default().offload_demand(40.0);
    let tls = NfvKeyServerWorkload::dredbox_default().offload_demand(15.0);
    let frames = NetworkAnalyticsWorkload::dredbox_default()
        .offload_demand(dredbox::sim::time::SimDuration::from_secs(2));
    let vms: Vec<VmHandle> = (0..5u32)
        .map(|i| {
            system
                .allocate_vm(2 + i, ByteSize::from_gib(3 + u64::from(i)))
                .expect("admit")
        })
        .collect();
    system
        .scale_up(vms[1], ByteSize::from_gib(2))
        .expect("scale up");
    let a = system.begin_offload(vms[0], &video).expect("offload");
    let b = system.begin_offload(vms[1], &tls).expect("offload");
    let c = system.begin_offload(vms[2], &frames).expect("offload");
    system.end_offload(b.session).expect("end");
    system.power_off_unused();
    let reuse = system.begin_offload(vms[3], &video).expect("reuse");
    let again = system.begin_offload(vms[4], &tls).expect("program");
    system.end_offload(c.session).expect("end");
    assert!(!a.reused_bitstream && reuse.reused_bitstream && !again.reused_bitstream);
    assert_eq!(reuse.accel_brick, a.accel_brick);

    let bytes = SystemSnapshot::capture(&system).to_bytes();
    let back = SystemSnapshot::from_bytes(&bytes).expect("decodes");
    assert_eq!(back.into_system(), system);
    assert_eq!(
        (bytes.len(), format!("{:016x}", fnv1a(&bytes))),
        (7963, "9291f76555f246cf".to_owned())
    );
}
