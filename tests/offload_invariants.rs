//! Cross-layer accounting invariants of the offload-session lifecycle.
//!
//! `begin_offload` touches the accelerator index, the two-phase ledger, the
//! compute→accelerator circuit view, the rack's dACCELBRICK state and the
//! softstack in one flow, so this test replays random admit / offload /
//! end / release / sweep interleavings through the whole [`DredboxSystem`]
//! and asserts after every step that the layers still balance:
//!
//! * the incrementally maintained `AccelIndex` equals a from-scratch
//!   rebuild from its authoritative slots;
//! * per accelerator brick, the ledger's holds, the controller's session
//!   records, the index's session count and the rack brick's streaming
//!   counter all agree, and the rack's loaded bitstream matches the
//!   controller's view (including after power sweeps drop it);
//! * rejected offload requests leave the system bit-identical;
//! * draining everything returns the rack to zero sessions and holds.
//!
//! A second, seeded test drives the SDM controller alone through offload
//! begin/end, accelerator failure and repair and power sweeps over bricks
//! of mixed PCAP bandwidths, and holds the dense `AccelIndex` to two
//! oracles after every step: a from-scratch rebuild, and the ordered-map
//! index it replaced, kept below as [`ReferenceIndex`].

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use dredbox::bricks::{Bitstream, BrickId, PowerState};
use dredbox::orchestrator::{AccelIndex, AccelSlot};
use dredbox::orchestrator::{OffloadRequest, OffloadSessionId, SdmController};
use dredbox::prelude::*;
use dredbox::sim::rng::SimRng;
use dredbox::sim::units::Bandwidth;
use dredbox::sim::units::ByteSize;
use dredbox::workload::OffloadDemand;

/// One step of a random offload trace.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Try to admit a VM.
    Admit { vcpus: u32, gib: u64 },
    /// The `pick`-th live VM offloads kernel `kernel` (may be rejected when
    /// every accelerator is saturated — rejections must be no-ops).
    Offload { pick: usize, kernel: u8 },
    /// End the `pick`-th live offload session.
    End { pick: usize },
    /// Release the `pick`-th live VM (drains its sessions).
    Release { pick: usize },
    /// Power-sweep the rack (idle accelerators sleep, dropping bitstreams).
    Sweep,
}

/// Decodes a sampled tuple: ~25% admissions, ~35% offloads, ~20% session
/// ends, ~10% releases, ~10% sweeps.
fn decode((kind, a, b): (u8, u8, u8)) -> Op {
    match kind % 20 {
        0..=4 => Op::Admit {
            vcpus: u32::from(a % 2) + 1,
            gib: u64::from(b % 2) + 1,
        },
        5..=11 => Op::Offload {
            pick: a as usize,
            kernel: b % 4,
        },
        12..=15 => Op::End { pick: a as usize },
        16..=17 => Op::Release { pick: a as usize },
        _ => Op::Sweep,
    }
}

fn demand(kernel: u8) -> OffloadDemand {
    OffloadDemand {
        kernel: format!("kernel-{kernel}").into(),
        bitstream: ByteSize::from_mib(8),
        input: ByteSize::from_gib(1),
    }
}

/// Asserts every cross-layer balance the offload flow must preserve.
fn check_invariants(s: &DredboxSystem, live_sessions: &[(OffloadSessionId, VmHandle)]) {
    let sdm = s.sdm();

    // The system's owner map, the controller's session table and the test's
    // own view agree.
    assert_eq!(s.offload_session_count(), live_sessions.len());
    assert_eq!(sdm.offload_session_count(), live_sessions.len());

    // The incremental accelerator index must equal a from-scratch rebuild
    // from its authoritative slots (bucket membership re-derived).
    let mut rebuilt = AccelIndex::new();
    for (brick, slot) in sdm.accel().slots() {
        rebuilt.upsert(brick, slot.clone());
    }
    assert_eq!(
        &rebuilt,
        sdm.accel(),
        "incremental accel index diverged from a from-scratch rebuild"
    );

    for brick in s.rack().bricks().filter_map(|b| b.as_accelerator()) {
        let id = brick.id();
        let slot = sdm.accel().slot(id).expect("registered accel indexed");

        // Sessions per brick: controller records == index slot == rack
        // streaming counter == ledger holds.
        let here = sdm
            .offload_sessions()
            .filter(|sess| sess.accel_brick == id)
            .count();
        assert_eq!(slot.active_sessions as usize, here, "{id}: index sessions");
        assert_eq!(
            brick.active_sessions() as usize,
            here,
            "{id}: rack sessions"
        );
        assert_eq!(
            sdm.ledger().held_cores(id) as usize,
            here,
            "{id}: ledger holds must match live sessions"
        );

        // Power and bitstream views agree between rack and controller.
        assert_eq!(
            slot.powered_on,
            brick.power_state() != PowerState::Off,
            "{id}: power view"
        );
        assert_eq!(
            slot.loaded.as_deref(),
            brick.slot().loaded().map(|bs| &*bs.name),
            "{id}: loaded bitstream view"
        );
        // A sleeping brick never keeps a bitstream (PR state is lost).
        if !slot.powered_on {
            assert!(slot.loaded.is_none(), "{id}: bitstream survived sleep");
        }
    }
}

proptest! {
    #[test]
    fn offload_traces_keep_every_layer_balanced(
        ops in proptest::collection::vec((0u8..=255, 0u8..=255, 0u8..=255), 1..50)
    ) {
        let mut system = DredboxSystem::build(SystemConfig::prototype_rack()).expect("build");
        let mut live_vms: Vec<VmHandle> = Vec::new();
        let mut live_sessions: Vec<(OffloadSessionId, VmHandle)> = Vec::new();

        for tuple in ops {
            match decode(tuple) {
                Op::Admit { vcpus, gib } => {
                    if let Ok(vm) = system.allocate_vm(vcpus, ByteSize::from_gib(gib)) {
                        live_vms.push(vm);
                    }
                }
                Op::Offload { pick, kernel } => {
                    if live_vms.is_empty() {
                        continue;
                    }
                    let vm = live_vms[pick % live_vms.len()];
                    let before = system.clone();
                    match system.begin_offload(vm, &demand(kernel)) {
                        Ok(report) => {
                            prop_assert!(report.offload_total < report.local_compute);
                            live_sessions.push((report.session, vm));
                        }
                        // Saturated accelerators: a perfect no-op.
                        Err(_) => prop_assert_eq!(&system, &before),
                    }
                }
                Op::End { pick } => {
                    if live_sessions.is_empty() {
                        continue;
                    }
                    let (session, _) = live_sessions.swap_remove(pick % live_sessions.len());
                    system.end_offload(session).expect("live session ends");
                }
                Op::Release { pick } => {
                    if live_vms.is_empty() {
                        continue;
                    }
                    let vm = live_vms.swap_remove(pick % live_vms.len());
                    system.release_vm(vm).expect("live VM releases");
                    // The departure drained the VM's sessions.
                    live_sessions.retain(|(_, owner)| *owner != vm);
                }
                Op::Sweep => {
                    system.power_off_unused();
                }
            }
            check_invariants(&system, &live_sessions);
        }

        // Ending a stale session is rejected as a perfect no-op.
        let before = system.clone();
        prop_assert!(system.end_offload(OffloadSessionId(u64::MAX)).is_err());
        prop_assert_eq!(&system, &before);

        // Drain everything: the closed loop must return to a pristine rack.
        for (session, _) in std::mem::take(&mut live_sessions) {
            system.end_offload(session).expect("live session ends");
        }
        for vm in live_vms.drain(..) {
            system.release_vm(vm).expect("live VM releases");
        }
        check_invariants(&system, &[]);
        prop_assert_eq!(system.offload_session_count(), 0);
        prop_assert_eq!(system.accel_utilization(), 0.0);
        prop_assert_eq!(system.sdm().pool().total_allocated(), ByteSize::ZERO);
        prop_assert_eq!(system.sdm().ledger().held_memory(), ByteSize::ZERO);
    }
}

/// The accelerator index as ordered maps: one bucket per kernel name and
/// per PCAP bandwidth, each a set of brick ids. This is the layout the
/// dense index replaced; its answers are the reference.
#[derive(Default)]
struct ReferenceIndex {
    loaded_available: BTreeMap<String, BTreeSet<BrickId>>,
    empty_by_pcap: BTreeMap<u64, BTreeSet<BrickId>>,
    idle_loaded_by_pcap: BTreeMap<u64, BTreeSet<BrickId>>,
    sleeping_by_pcap: BTreeMap<u64, BTreeSet<BrickId>>,
    idle: BTreeSet<BrickId>,
}

impl ReferenceIndex {
    fn build<'a>(slots: impl Iterator<Item = (BrickId, &'a AccelSlot)>) -> Self {
        let mut index = ReferenceIndex::default();
        for (brick, slot) in slots {
            if slot.powered_on {
                match &slot.loaded {
                    Some(name) => {
                        if slot.active_sessions < slot.session_capacity {
                            let bucket = index.loaded_available.entry(name.to_string());
                            bucket.or_default().insert(brick);
                        }
                        if slot.active_sessions == 0 {
                            let bucket = index.idle_loaded_by_pcap.entry(slot.pcap_bps);
                            bucket.or_default().insert(brick);
                        }
                    }
                    None => {
                        let bucket = index.empty_by_pcap.entry(slot.pcap_bps);
                        bucket.or_default().insert(brick);
                    }
                }
            } else {
                let bucket = index.sleeping_by_pcap.entry(slot.pcap_bps);
                bucket.or_default().insert(brick);
            }
            if slot.active_sessions == 0 {
                index.idle.insert(brick);
            }
        }
        index
    }

    fn loaded_fit(&self, kernel: &str) -> Option<BrickId> {
        self.loaded_available
            .get(kernel)
            .and_then(|bucket| bucket.first().copied())
    }

    /// Fastest PCAP first, lowest id on ties.
    fn fastest(map: &BTreeMap<u64, BTreeSet<BrickId>>) -> Option<BrickId> {
        map.values()
            .next_back()
            .and_then(|bucket| bucket.first().copied())
    }
}

/// Asserts the dense index equals its rebuild and answers all five queries
/// as the reference does.
fn check_index(index: &AccelIndex, kernels: &[String]) {
    let mut rebuilt = AccelIndex::new();
    for (brick, slot) in index.slots() {
        rebuilt.upsert(brick, slot.clone());
    }
    assert_eq!(
        &rebuilt, index,
        "incremental index diverged from its rebuild"
    );

    let reference = ReferenceIndex::build(index.slots());
    for kernel in kernels.iter().map(String::as_str).chain(["never-loaded"]) {
        assert_eq!(
            index.loaded_fit(kernel),
            reference.loaded_fit(kernel),
            "loaded_fit({kernel})"
        );
    }
    assert_eq!(
        index.fastest_empty(),
        ReferenceIndex::fastest(&reference.empty_by_pcap)
    );
    assert_eq!(
        index.fastest_idle_loaded(),
        ReferenceIndex::fastest(&reference.idle_loaded_by_pcap)
    );
    assert_eq!(
        index.fastest_sleeping(),
        ReferenceIndex::fastest(&reference.sleeping_by_pcap)
    );
    assert!(index.idle_bricks().eq(reference.idle.iter().copied()));
    assert_eq!(index.idle_count(), reference.idle.len());
}

/// Seeded traces over a controller whose accelerators mix three PCAP
/// bandwidths and are registered out of id order, so bandwidth rank and id
/// order differ and registration re-lays the index out.
#[test]
fn dense_accel_index_matches_its_rebuild_and_the_ordered_map_reference() {
    let kernels: Vec<String> = (0..5).map(|k| format!("kernel-{k}")).collect();
    for seed in 0..4u64 {
        let mut rng = SimRng::seed(seed);
        let mut sdm = SdmController::dredbox_default();
        for b in 0..4u32 {
            sdm.register_compute_brick(BrickId(b), 32, 8);
        }
        let accels: Vec<BrickId> = [71u32, 40, 66, 45, 90, 52, 83, 41, 60, 77]
            .into_iter()
            .map(BrickId)
            .collect();
        for (i, &brick) in accels.iter().enumerate() {
            let gbps = [3.2, 1.6, 6.4][i % 3];
            sdm.register_accel_brick(brick, Bandwidth::from_gbps(gbps), 1 + (i % 3) as u32);
            check_index(sdm.accel(), &kernels);
        }
        let mut sessions: Vec<OffloadSessionId> = Vec::new();
        for _ in 0..600 {
            match rng.range(0u64..10) {
                0..=3 => {
                    let kernel = &kernels[rng.range(0..kernels.len())];
                    let request = OffloadRequest::new(
                        BrickId(rng.range(0u32..4)),
                        Bitstream::new(kernel.as_str(), ByteSize::from_mib(8)),
                        ByteSize::from_mib(64),
                    );
                    if let Ok(grant) = sdm.begin_offload(request) {
                        sessions.push(grant.session.id);
                    }
                }
                4..=6 if !sessions.is_empty() => {
                    let session = sessions.swap_remove(rng.range(0..sessions.len()));
                    sdm.end_offload(session).expect("live session ends");
                }
                7 => {
                    // A failure drains the brick's sessions first, as the
                    // system's fault handling does.
                    let brick = accels[rng.range(0..accels.len())];
                    for session in sdm.sessions_on_accel(brick) {
                        sdm.end_offload(session).expect("live session ends");
                        sessions.retain(|s| *s != session);
                    }
                    sdm.fail_accel_brick(brick).expect("registered brick");
                }
                8 => {
                    let brick = accels[rng.range(0..accels.len())];
                    sdm.repair_accel_brick(brick).expect("registered brick");
                }
                _ => {
                    let idle: Vec<BrickId> = sdm.idle_accel_bricks().collect();
                    for brick in idle {
                        sdm.set_accel_power(brick, false)
                            .expect("idle brick sleeps");
                    }
                }
            }
            check_index(sdm.accel(), &kernels);
        }
    }
}
