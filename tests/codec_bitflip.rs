//! Bit-flip robustness of the snapshot codecs, from the grant path up to
//! the whole-system stream.
//!
//! Each type is driven to a mid-trace state, encoded, and then every byte
//! of the stream is flipped under several masks. Decoding the damaged stream must either
//! fail with an error or produce a value that re-encodes to exactly the
//! bytes it consumed — it may never panic, and never silently repair or
//! reinterpret what it read. A value that does decode is then used —
//! windows carve and release every hole size, RMSTs look up and remove
//! every entry — and that must not panic either.
//!
//! `fixtures/mid_trace_rack.drbx` is a whole-system snapshot written by
//! the code that still federated racks inside one system; decoding and
//! re-encoding it byte for byte pins the `DRBX` v1 wire format.

use dredbox::bricks::BrickId;
use dredbox::interconnect::RemoteMemorySegmentTable;
use dredbox::memory::{BrickAllocator, MemoryPool, RemoteWindow};
use dredbox::orchestrator::prelude::*;
use dredbox::orchestrator::ReservationLedger;
use dredbox::sim::units::ByteSize;
use dredbox::workload::OffloadDemand;
use dredbox::{DredboxSystem, SystemConfig, SystemSnapshot};
use dredbox_snap::{Reader, Snap};

const MASKS: [u8; 4] = [0x01, 0x10, 0x80, 0xff];

fn encode(value: &impl Snap) -> Vec<u8> {
    let mut out = Vec::new();
    value.snap(&mut out);
    out
}

/// Flips every byte of `value`'s stream under each mask, checks the
/// decode outcome and hands every decoded value to `exercise`. Returns how
/// many damaged streams decoded.
fn check_bit_flips<T: Snap + PartialEq + std::fmt::Debug>(
    value: &T,
    exercise: impl Fn(T),
) -> usize {
    let bytes = encode(value);
    let back = T::unsnap(&mut Reader::new(&bytes)).expect("the clean stream decodes");
    assert_eq!(&back, value, "the clean stream round-trips");
    let mut decoded = 0;
    for pos in 0..bytes.len() {
        for mask in MASKS {
            let mut flipped = bytes.clone();
            flipped[pos] ^= mask;
            let mut r = Reader::new(&flipped);
            if let Ok(value) = T::unsnap(&mut r) {
                let consumed = flipped.len() - r.remaining();
                assert_eq!(
                    encode(&value),
                    &flipped[..consumed],
                    "byte {pos} ^ {mask:#04x} decoded to a value that re-encodes differently"
                );
                exercise(value);
                decoded += 1;
            }
        }
    }
    decoded
}

/// A small linear congruential stream, so the traces are fixed without an
/// RNG dependency.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % bound
    }
}

/// A controller part-way through admissions, scale-ups, releases and
/// migrations: grants spread over several dMEMBRICKs, live RMST entries,
/// circuits and per-VM core records.
fn mid_trace_controller() -> SdmController {
    let mut sdm = SdmController::dredbox_default();
    for b in 0..4u32 {
        sdm.register_compute_brick(BrickId(b), 16, 4);
    }
    for b in 10..14u32 {
        sdm.register_membrick(BrickId(b), ByteSize::from_gib(32));
    }
    let mut rng = Lcg(7);
    let mut vms: Vec<(BrickId, u32, Vec<ScaleUpGrant>)> = Vec::new();
    for _ in 0..60 {
        match rng.next(5) {
            0 | 1 => {
                let vcpus = 1 + rng.next(4) as u32;
                let memory = ByteSize::from_gib(1 + rng.next(12));
                if let Ok((brick, grant)) = sdm.allocate_vm(VmAllocationRequest::new(vcpus, memory))
                {
                    vms.push((brick, vcpus, vec![grant]));
                }
            }
            2 if !vms.is_empty() => {
                let i = rng.next(vms.len() as u64) as usize;
                let brick = vms[i].0;
                let amount = ByteSize::from_gib(1 + rng.next(6));
                if let Ok(grant) = sdm.handle_scale_up(ScaleUpDemand::new(brick, amount)) {
                    vms[i].2.push(grant);
                }
            }
            3 if !vms.is_empty() => {
                let i = rng.next(vms.len() as u64) as usize;
                let (from, vcpus, grants) = &vms[i];
                let to = BrickId((from.0 + 1) % 4);
                if let Ok(outcome) = sdm.migrate_vm(*from, to, *vcpus, grants) {
                    vms[i] = (to, *vcpus, outcome.rebased);
                }
            }
            _ if !vms.is_empty() => {
                let i = rng.next(vms.len() as u64) as usize;
                let (brick, vcpus, grants) = vms.swap_remove(i);
                for grant in &grants {
                    sdm.release_scale_up(grant).expect("live grant releases");
                }
                sdm.release_vm(brick, vcpus).expect("admitted VM releases");
            }
            _ => {}
        }
    }
    assert!(sdm.pool().segment_count() > 4, "the trace left grants live");
    sdm
}

/// Looks up, counts and removes every entry of a decoded table.
fn exercise_rmst(mut rmst: RemoteMemorySegmentTable) {
    let entries: Vec<_> = rmst.iter().copied().collect();
    for entry in entries {
        assert_eq!(rmst.lookup(entry.base), Ok(&entry));
        assert!(rmst.towards_count(entry.destination) >= 1);
        assert_eq!(rmst.remove(entry.base), Ok(entry));
        let _ = rmst.towards_count(entry.destination);
    }
    assert!(rmst.is_empty());
    assert_eq!(rmst.mapped_bytes(), ByteSize::ZERO);
}

/// Carves every hole size of a decoded window — each reuses a hole — and
/// releases the carve again.
fn exercise_window(mut window: RemoteWindow) {
    // The stream lists the holes as `len → [offsets]` after the capacity
    // and the carved extent.
    let (_, _, groups): (u64, u64, Vec<(u64, Vec<u64>)>) =
        Snap::unsnap(&mut Reader::new(&encode(&window))).expect("a decoded window re-encodes");
    for (len, _) in groups {
        let size = ByteSize::from_bytes(len);
        let mapped = window.mapped();
        let address = window.carve(size).expect("a hole of this size is free");
        assert_eq!(window.mapped(), mapped + size);
        window.release(address, size).expect("the carve releases");
        assert_eq!(window.mapped(), mapped);
    }
}

#[test]
fn sdm_controller_survives_bit_flips() {
    let sdm = mid_trace_controller();
    check_bit_flips(&sdm, drop);
}

#[test]
fn memory_pool_survives_bit_flips() {
    let sdm = mid_trace_controller();
    let pool: &MemoryPool = sdm.pool();
    assert!(check_bit_flips(pool, drop) > 0);
}

#[test]
fn rmst_survives_bit_flips() {
    let sdm = mid_trace_controller();
    let rmst: &RemoteMemorySegmentTable = (0..4u32)
        .map(|b| sdm.agent(BrickId(b)).expect("agent").tgl().rmst())
        .max_by_key(|rmst| rmst.len())
        .expect("four agents");
    assert!(rmst.len() >= 2, "the trace left several RMST entries");
    assert!(check_bit_flips(rmst, exercise_rmst) > 0);
}

#[test]
fn reservation_ledger_survives_bit_flips() {
    let sdm = mid_trace_controller();
    check_bit_flips(sdm.ledger(), drop);
    // The controller finalizes every reservation before returning, so
    // pending ones come from a ledger driven directly.
    let mut ledger = ReservationLedger::new();
    for b in 0..6u32 {
        let id = ledger.reserve(
            Some(BrickId(b % 3)),
            b + 1,
            ByteSize::from_gib(u64::from(b)),
        );
        if b % 2 == 0 {
            ledger.commit(id).expect("pending");
        }
    }
    assert_eq!(ledger.pending_count(), 3);
    check_bit_flips(&ledger, drop);
}

#[test]
fn remote_window_survives_bit_flips() {
    let mut window = RemoteWindow::new(ByteSize::from_gib(256));
    let mut rng = Lcg(11);
    let mut live = Vec::new();
    for _ in 0..40 {
        if live.is_empty() || rng.next(3) > 0 {
            let size = ByteSize::from_gib(1 + rng.next(5));
            if let Ok(address) = window.carve(size) {
                live.push((address, size));
            }
        } else {
            let (address, size) = live.swap_remove(rng.next(live.len() as u64) as usize);
            window.release(address, size).expect("live range releases");
        }
    }
    assert!(check_bit_flips(&window, exercise_window) > 0);
}

#[test]
fn brick_allocator_survives_bit_flips() {
    let mut allocator = BrickAllocator::new(BrickId(3), ByteSize::from_gib(64));
    let mut rng = Lcg(5);
    let mut live = Vec::new();
    for _ in 0..40 {
        if live.is_empty() || rng.next(3) > 0 {
            let size = ByteSize::from_gib(1 + rng.next(6));
            if let Ok(offset) = allocator.allocate(size) {
                live.push((offset, size));
            }
        } else {
            let (offset, size) = live.swap_remove(rng.next(live.len() as u64) as usize);
            allocator
                .release(offset, size)
                .expect("live range releases");
        }
    }
    check_bit_flips(&allocator, drop);
}

/// One accelerated rack part-way through a trace: admissions, a scale-up,
/// a live migration, an open offload session, a release, a power sweep
/// and a severed fibre. The committed fixture is this state, written
/// before the system became strictly one rack.
fn mid_trace_system() -> DredboxSystem {
    let mut s = DredboxSystem::build(SystemConfig::accelerated_rack(1, 2, 2, 1)).expect("build");
    let a = s.allocate_vm(2, ByteSize::from_gib(4)).expect("admit a");
    let b = s.allocate_vm(4, ByteSize::from_gib(6)).expect("admit b");
    let c = s.allocate_vm(1, ByteSize::from_gib(2)).expect("admit c");
    s.scale_up(a, ByteSize::from_gib(2)).expect("scale a");
    let to = s.evacuation_target(b).expect("a target");
    s.migrate_vm(b, to).expect("migrate b");
    let demand = OffloadDemand {
        kernel: "kernel-0".to_owned(),
        bitstream: ByteSize::from_mib(8),
        input: ByteSize::from_mib(64),
    };
    s.begin_offload(c, &demand).expect("offload c");
    s.release_vm(a).expect("release a");
    s.power_off_unused();
    s.fail_link(1).expect("sever a link");
    s
}

#[test]
fn whole_system_survives_bit_flips() {
    let bytes = SystemSnapshot::capture(&mid_trace_system()).to_bytes();
    for pos in 0..bytes.len() {
        for mask in MASKS {
            let mut flipped = bytes.clone();
            flipped[pos] ^= mask;
            if let Ok(snapshot) = SystemSnapshot::from_bytes(&flipped) {
                assert_eq!(
                    snapshot.to_bytes(),
                    flipped,
                    "byte {pos} ^ {mask:#04x} decoded to a system that re-encodes differently"
                );
            }
        }
    }
}

#[test]
fn a_snapshot_written_by_the_federating_system_round_trips_byte_for_byte() {
    let bytes: &[u8] = include_bytes!("fixtures/mid_trace_rack.drbx");
    let snapshot = SystemSnapshot::from_bytes(bytes).expect("the fixture decodes");
    assert_eq!(snapshot.to_bytes(), bytes, "re-encoding changed the stream");
    // The same trace replayed today reaches the state the fixture holds.
    assert_eq!(snapshot.into_system(), mid_trace_system());
}
