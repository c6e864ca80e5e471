//! VM migration model.
//!
//! "Deliver enhanced elasticity and improved process/virtual machine
//! migration within the datacenter" is one of the project objectives. In a
//! disaggregated rack a VM's memory can stay put on its dMEMBRICKs: only the
//! compute state moves, which makes migration dramatically cheaper than the
//! conventional pre-copy of the full guest RAM. This model quantifies both.

use serde::{Deserialize, Serialize};

use dredbox_sim::time::SimDuration;
use dredbox_sim::units::{Bandwidth, ByteSize};

/// Pre-copy live-migration model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MigrationModel {
    /// Bandwidth available for migration traffic.
    pub link: Bandwidth,
    /// Rate at which the guest dirties memory while being migrated.
    pub dirty_rate: Bandwidth,
    /// Maximum number of pre-copy rounds before the VM is paused and the
    /// remainder is copied (stop-and-copy).
    pub max_rounds: u32,
    /// Fixed cost of transferring vCPU/device state and switching over.
    pub switchover: SimDuration,
    /// Brick-local working state per vCPU (caches, page tables, device
    /// queues) — the only memory a disaggregated migration must move.
    pub local_state_per_vcpu: ByteSize,
}

impl MigrationModel {
    /// Defaults: a 10 Gb/s migration link, a 1 Gb/s dirty rate, at most five
    /// pre-copy rounds, 50 ms of switchover, 128 MiB of brick-local state
    /// per vCPU.
    pub fn dredbox_default() -> Self {
        MigrationModel {
            link: Bandwidth::from_gbps(10.0),
            dirty_rate: Bandwidth::from_gbps(1.0),
            max_rounds: 5,
            switchover: SimDuration::from_millis(50),
            local_state_per_vcpu: ByteSize::from_mib(128),
        }
    }

    /// The brick-local state a VM with `vcpus` cores must move when its
    /// memory is disaggregated.
    pub fn local_state(&self, vcpus: u32) -> ByteSize {
        self.local_state_per_vcpu.saturating_mul(u64::from(vcpus))
    }

    /// Total time to live-migrate a VM whose guest RAM must be copied (the
    /// conventional case: memory lives on the source host).
    pub fn conventional_migration(&self, guest_memory: ByteSize) -> SimDuration {
        let mut to_copy = guest_memory;
        let mut total = SimDuration::ZERO;
        for _ in 0..self.max_rounds {
            if to_copy.is_zero() {
                break;
            }
            let round_time = self.link.transfer_time(to_copy);
            total += round_time;
            // While the round ran, the guest dirtied more memory.
            let dirtied_bits = self.dirty_rate.as_bps() * round_time.as_secs_f64();
            let dirtied = ByteSize::from_bytes((dirtied_bits / 8.0) as u64).min(guest_memory);
            to_copy = dirtied;
        }
        // Stop-and-copy whatever remains, then switch over.
        total + self.link.transfer_time(to_copy) + self.switchover
    }

    /// Total time to migrate a VM whose memory is disaggregated: only the
    /// compute brick's local working state (a small fraction, here the
    /// `local_state` argument) plus vCPU/device state moves; the remote
    /// segments are simply re-attached to the destination brick by the
    /// orchestrator.
    pub fn disaggregated_migration(&self, local_state: ByteSize) -> SimDuration {
        self.link.transfer_time(local_state) + self.switchover
    }

    /// Speed-up factor of disaggregated over conventional migration for a
    /// guest with `guest_memory` of RAM of which only `local_state` is
    /// brick-local.
    #[cfg(test)]
    pub(crate) fn speedup(&self, guest_memory: ByteSize, local_state: ByteSize) -> f64 {
        let conventional = self.conventional_migration(guest_memory).as_nanos() as f64;
        let disaggregated = self.disaggregated_migration(local_state).as_nanos() as f64;
        conventional / disaggregated.max(1.0)
    }
}

impl Default for MigrationModel {
    fn default() -> Self {
        MigrationModel::dredbox_default()
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_struct!(MigrationModel {
    link,
    dirty_rate,
    max_rounds,
    switchover,
    local_state_per_vcpu,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conventional_migration_scales_with_guest_memory() {
        let m = MigrationModel::dredbox_default();
        let small = m.conventional_migration(ByteSize::from_gib(4));
        let large = m.conventional_migration(ByteSize::from_gib(32));
        assert!(large > small);
        // 32 GiB at 10 Gb/s is ~27.5 s for the first round alone.
        assert!(large.as_secs_f64() > 25.0);
    }

    #[test]
    fn disaggregated_migration_moves_only_local_state() {
        let m = MigrationModel::dredbox_default();
        let t = m.disaggregated_migration(ByteSize::from_mib(512));
        assert!(t.as_secs_f64() < 1.0, "should be sub-second, got {t}");
        let speedup = m.speedup(ByteSize::from_gib(32), ByteSize::from_mib(512));
        assert!(speedup > 20.0, "expected >20x speedup, got {speedup:.1}x");
    }

    #[test]
    fn precopy_converges_or_stops() {
        let m = MigrationModel {
            // Dirty rate equal to the link: pre-copy can never converge, the
            // model must still terminate via max_rounds.
            dirty_rate: Bandwidth::from_gbps(10.0),
            ..MigrationModel::dredbox_default()
        };
        let t = m.conventional_migration(ByteSize::from_gib(8));
        assert!(t.as_secs_f64().is_finite());
        assert!(t > m.switchover);
    }

    #[test]
    fn zero_memory_migration_is_just_switchover() {
        let m = MigrationModel::dredbox_default();
        assert_eq!(m.conventional_migration(ByteSize::ZERO), m.switchover);
        assert_eq!(m.disaggregated_migration(ByteSize::ZERO), m.switchover);
    }

    #[test]
    fn local_state_scales_with_vcpus() {
        let m = MigrationModel::dredbox_default();
        assert_eq!(m.local_state(0), ByteSize::ZERO);
        assert_eq!(m.local_state(4), ByteSize::from_mib(512));
        // A 4-vCPU / 32 GiB guest: moving only the local state beats the
        // pre-copy of the full RAM by well over an order of magnitude.
        let speedup = m.speedup(ByteSize::from_gib(32), m.local_state(4));
        assert!(speedup > 20.0, "got {speedup:.1}x");
    }
}
