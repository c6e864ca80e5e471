//! Cross-layer accounting invariants of the admit / migrate / release loop.
//!
//! Migration re-routes a VM's RMST mappings, circuits, pool ownership, core
//! accounting and ledger holds across two bricks in one flow, so this test
//! replays random operation sequences through the whole [`DredboxSystem`]
//! and asserts after every step that the layers still balance:
//!
//! * total pool bytes allocated == total RMST-mapped bytes == two-phase
//!   ledger memory holds;
//! * per compute brick, the RMST entry count and mapped bytes equal the
//!   pool's live segments owned by that brick;
//! * per compute brick, free cores agree between the SDM capacity view,
//!   the hypervisor, the rack model and the set of live VMs, and the
//!   ledger's committed core holds match the live VMs exactly;
//! * the incrementally maintained [`CapacityIndex`] equals a from-scratch
//!   rebuild from the authoritative per-brick states;
//! * a rejected migration leaves the system bit-identical (no partial
//!   circuit teardown, no index drift).

use proptest::prelude::*;

use dredbox::bricks::BrickKind;
use dredbox::orchestrator::{CapacityIndex, CapacitySlot};
use dredbox::prelude::*;
use dredbox::sim::units::ByteSize;

/// One step of a random admit/migrate/release/sweep trace.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Try to admit a VM with `vcpus` cores and `gib` GiB of pooled memory.
    Admit { vcpus: u32, gib: u64 },
    /// Try to migrate the `pick`-th live VM to the `target`-th compute
    /// brick (may be its own brick or a full one — rejections must be
    /// no-ops).
    Migrate { pick: usize, target: usize },
    /// Release the `pick`-th live VM.
    Release { pick: usize },
    /// Power-sweep the rack.
    Sweep,
}

/// Decodes a sampled tuple: ~40% admissions, ~30% migrations, ~20%
/// releases, ~10% sweeps, so racks fill, churn placement and drain.
fn decode((kind, a, b): (u8, u8, u8)) -> Op {
    match kind % 10 {
        0..=3 => Op::Admit {
            vcpus: u32::from(a % 4) + 1,
            gib: u64::from(b % 4) + 1,
        },
        4..=6 => Op::Migrate {
            pick: a as usize,
            target: b as usize,
        },
        7..=8 => Op::Release { pick: a as usize },
        _ => Op::Sweep,
    }
}

/// Asserts every cross-layer balance the migration flow must preserve.
fn check_invariants(s: &DredboxSystem, live: &[(VmHandle, u32)]) {
    let compute_bricks: Vec<_> = s
        .rack()
        .bricks()
        .filter_map(|b| b.as_compute())
        .map(|c| c.id())
        .collect();

    // Rack-wide byte balance: pool == RMST == ledger.
    let pool = s.sdm().pool();
    let mapped: u64 = compute_bricks
        .iter()
        .map(|&b| {
            s.sdm()
                .agent(b)
                .expect("agent")
                .mapped_remote_memory()
                .as_bytes()
        })
        .sum();
    assert_eq!(pool.total_allocated().as_bytes(), mapped);
    assert_eq!(pool.total_allocated(), s.sdm().ledger().held_memory());
    assert_eq!(
        pool.total_capacity(),
        pool.total_free() + pool.total_allocated()
    );

    for &brick in &compute_bricks {
        // Per-brick RMST route counts balance against the pool's segments.
        let agent = s.sdm().agent(brick).expect("agent");
        let segments = pool.segments_of(brick);
        assert_eq!(
            agent.tgl().rmst().len(),
            segments.len(),
            "{brick}: RMST entries vs pool segments"
        );
        let owned: u64 = segments.iter().map(|seg| seg.size.as_bytes()).sum();
        assert_eq!(agent.mapped_remote_memory().as_bytes(), owned);

        // Per-brick core balance: capacity slot == hypervisor == rack ==
        // live VM set == ledger holds.
        let slot = s.sdm().capacity().slot(brick).expect("indexed brick");
        let hv = s.hypervisor(brick).expect("hypervisor");
        let vms_here: Vec<_> = live
            .iter()
            .filter(|(h, _)| s.vm_brick(*h) == Some(brick))
            .collect();
        let used: u32 = vms_here.iter().map(|(_, vcpus)| *vcpus).sum();
        assert_eq!(
            slot.total_cores - slot.free_cores,
            used,
            "{brick}: slot cores"
        );
        assert_eq!(
            hv.total_cores() - hv.free_cores(),
            used,
            "{brick}: hv cores"
        );
        let rack_compute = s
            .rack()
            .brick(brick)
            .and_then(|b| b.as_compute())
            .expect("compute brick");
        assert_eq!(rack_compute.allocated_cores(), used, "{brick}: rack cores");
        assert_eq!(s.sdm().ledger().held_cores(brick), used, "{brick}: ledger");
        assert_eq!(slot.active, !vms_here.is_empty(), "{brick}: active flag");
        assert_eq!(hv.vm_count(), vms_here.len(), "{brick}: hv vm count");
    }

    // The incremental capacity index must equal a from-scratch rebuild from
    // the authoritative per-brick states.
    let mut rebuilt = CapacityIndex::new();
    for view in s.sdm().compute_views() {
        rebuilt.upsert(
            view.brick,
            CapacitySlot {
                total_cores: view.total_cores,
                free_cores: view.free_cores,
                active: view.active,
                powered_on: view.powered_on,
            },
        );
    }
    assert_eq!(
        &rebuilt,
        s.sdm().capacity(),
        "incremental index diverged from a from-scratch rebuild"
    );
}

proptest! {
    #[test]
    fn admit_migrate_release_traces_keep_every_layer_balanced(
        ops in proptest::collection::vec((0u8..=255, 0u8..=255, 0u8..=255), 1..60)
    ) {
        let mut system = DredboxSystem::build(SystemConfig::prototype_rack()).expect("build");
        let compute_bricks: Vec<_> = system
            .rack()
            .bricks()
            .filter_map(|b| b.as_compute())
            .map(|c| c.id())
            .collect();
        let mut live: Vec<(VmHandle, u32)> = Vec::new();

        for tuple in ops {
            match decode(tuple) {
                Op::Admit { vcpus, gib } => {
                    if let Ok(vm) = system.allocate_vm(vcpus, ByteSize::from_gib(gib)) {
                        live.push((vm, vcpus));
                    }
                }
                Op::Migrate { pick, target } => {
                    if live.is_empty() {
                        continue;
                    }
                    let (vm, _) = live[pick % live.len()];
                    let to = compute_bricks[target % compute_bricks.len()];
                    let before = system.clone();
                    if system.migrate_vm(vm, to).is_err() {
                        // A rejected migration must be a perfect no-op.
                        prop_assert_eq!(&system, &before);
                    }
                }
                Op::Release { pick } => {
                    if live.is_empty() {
                        continue;
                    }
                    let (vm, _) = live.swap_remove(pick % live.len());
                    system.release_vm(vm).expect("live VM releases");
                }
                Op::Sweep => {
                    system.power_off_unused();
                }
            }
            check_invariants(&system, &live);
        }

        // Drain everything: the closed loop must return to a pristine pool.
        for (vm, _) in live.drain(..) {
            system.release_vm(vm).expect("live VM releases");
        }
        check_invariants(&system, &[]);
        prop_assert_eq!(system.sdm().pool().total_allocated(), ByteSize::ZERO);
        prop_assert_eq!(system.sdm().ledger().held_memory(), ByteSize::ZERO);
        prop_assert_eq!(
            system.sdm().capacity().idle_bricks().count(),
            system.rack().brick_count(BrickKind::Compute)
        );
    }
}
