//! Safe, two-phase resource reservation.
//!
//! Role (c) of the SDM controller is to "safely reserve selected resources":
//! between inspecting availability and pushing device configurations, the
//! chosen resources must not be handed to a competing request. The ledger
//! keeps tentative reservations that are later either committed (the
//! configuration was pushed successfully) or rolled back (something failed).

use serde::{Deserialize, Serialize};

use dredbox_bricks::{BrickId, BrickMap};
use dredbox_sim::flat::FlatMap;
use dredbox_sim::units::ByteSize;

use crate::error::OrchestratorError;

/// Identifier of a pending reservation.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ReservationId(pub u64);

impl std::fmt::Display for ReservationId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "reservation{}", self.0)
    }
}

/// A tentative hold on resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Reservation {
    /// Reservation identifier.
    pub id: ReservationId,
    /// The compute brick whose cores are held (if any).
    pub compute_brick: Option<BrickId>,
    /// Cores held on that brick.
    pub cores: u32,
    /// Disaggregated memory held (pool-level, not yet carved into segments).
    pub memory: ByteSize,
}

/// The ledger of pending and committed holds.
///
/// The ledger tracks *quantities*, not placements: it answers "how much of
/// brick X's cores / of the pool's memory is already spoken for by requests
/// that are still being configured", which is what the availability
/// inspection of a later request must subtract.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ReservationLedger {
    /// Reservations between reserve and commit/rollback — at most a few
    /// at a time, since each request finalizes its own before returning.
    pending: FlatMap<ReservationId, Reservation>,
    committed_cores: BrickMap<u32>,
    committed_memory: ByteSize,
    next_id: u64,
}

impl ReservationLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        ReservationLedger::default()
    }

    /// Opens a tentative reservation.
    pub fn reserve(
        &mut self,
        compute_brick: Option<BrickId>,
        cores: u32,
        memory: ByteSize,
    ) -> ReservationId {
        let id = ReservationId(self.next_id);
        self.next_id += 1;
        self.pending.insert(
            id,
            Reservation {
                id,
                compute_brick,
                cores,
                memory,
            },
        );
        id
    }

    /// Commits a pending reservation (configuration was pushed).
    ///
    /// # Errors
    ///
    /// Returns [`OrchestratorError::NoSuchReservation`] if the id is unknown
    /// or already finalized.
    pub fn commit(&mut self, id: ReservationId) -> Result<Reservation, OrchestratorError> {
        let r = self
            .pending
            .remove(&id)
            .ok_or(OrchestratorError::NoSuchReservation { reservation: id })?;
        if let Some(brick) = r.compute_brick {
            *self.committed_cores.get_or_insert_default(brick) += r.cores;
        }
        self.committed_memory += r.memory;
        Ok(r)
    }

    /// Rolls back a pending reservation (configuration failed). Rolling
    /// back the most recently opened reservation also hands its id back,
    /// so a reserve → rollback pair leaves the ledger bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`OrchestratorError::NoSuchReservation`] if the id is unknown
    /// or already finalized.
    pub(crate) fn rollback(&mut self, id: ReservationId) -> Result<Reservation, OrchestratorError> {
        let r = self
            .pending
            .remove(&id)
            .ok_or(OrchestratorError::NoSuchReservation { reservation: id })?;
        if id.0 + 1 == self.next_id {
            self.next_id = id.0;
        }
        Ok(r)
    }

    /// Releases previously committed resources (VM termination or memory
    /// scale-down).
    ///
    /// # Errors
    ///
    /// Returns [`OrchestratorError::UnknownComputeBrick`] if cores are
    /// released on a brick with no committed cores.
    pub(crate) fn release_committed(
        &mut self,
        compute_brick: Option<BrickId>,
        cores: u32,
        memory: ByteSize,
    ) -> Result<(), OrchestratorError> {
        if let Some(brick) = compute_brick {
            let entry = self
                .committed_cores
                .get_mut(brick)
                .ok_or(OrchestratorError::UnknownComputeBrick { brick })?;
            *entry = entry.saturating_sub(cores);
            if *entry == 0 {
                self.committed_cores.remove(brick);
            }
        }
        self.committed_memory = self.committed_memory.saturating_sub(memory);
        Ok(())
    }

    /// Number of reservations still pending.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Cores held (pending plus committed) on a compute brick.
    pub fn held_cores(&self, brick: BrickId) -> u32 {
        let pending: u32 = self
            .pending
            .values()
            .filter(|r| r.compute_brick == Some(brick))
            .map(|r| r.cores)
            .sum();
        pending + self.committed_cores.get(brick).copied().unwrap_or(0)
    }

    /// Memory held (pending plus committed) across the pool.
    pub fn held_memory(&self) -> ByteSize {
        let pending: ByteSize = self.pending.values().map(|r| r.memory).sum();
        pending + self.committed_memory
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_newtype!(ReservationId(u64));
dredbox_snap::snap_struct!(Reservation {
    id,
    compute_brick,
    cores,
    memory,
});
dredbox_snap::snap_struct!(ReservationLedger {
    pending,
    committed_cores,
    committed_memory,
    next_id,
});

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reserve_commit_release_lifecycle() {
        let mut ledger = ReservationLedger::new();
        let id = ledger.reserve(Some(BrickId(1)), 8, ByteSize::from_gib(16));
        assert_eq!(ledger.pending_count(), 1);
        assert_eq!(ledger.held_cores(BrickId(1)), 8);
        assert_eq!(ledger.held_memory(), ByteSize::from_gib(16));

        let r = ledger.commit(id).unwrap();
        assert_eq!(r.cores, 8);
        assert_eq!(ledger.pending_count(), 0);
        // Still held after commit.
        assert_eq!(ledger.held_cores(BrickId(1)), 8);
        assert_eq!(ledger.held_memory(), ByteSize::from_gib(16));
        // Double commit fails.
        assert!(matches!(
            ledger.commit(id),
            Err(OrchestratorError::NoSuchReservation { .. })
        ));

        ledger
            .release_committed(Some(BrickId(1)), 8, ByteSize::from_gib(16))
            .unwrap();
        assert_eq!(ledger.held_cores(BrickId(1)), 0);
        assert_eq!(ledger.held_memory(), ByteSize::ZERO);
        assert!(matches!(
            ledger.release_committed(Some(BrickId(1)), 1, ByteSize::ZERO),
            Err(OrchestratorError::UnknownComputeBrick { .. })
        ));
    }

    #[test]
    fn rollback_releases_the_hold() {
        let mut ledger = ReservationLedger::new();
        let id = ledger.reserve(Some(BrickId(2)), 4, ByteSize::from_gib(8));
        ledger.rollback(id).unwrap();
        assert_eq!(ledger.held_cores(BrickId(2)), 0);
        assert_eq!(ledger.held_memory(), ByteSize::ZERO);
        // The reserve → rollback pair is an exact no-op, id counter
        // included.
        assert_eq!(ledger, ReservationLedger::new());
        assert!(matches!(
            ledger.rollback(id),
            Err(OrchestratorError::NoSuchReservation { .. })
        ));
    }

    #[test]
    fn memory_only_reservations_have_no_brick() {
        let mut ledger = ReservationLedger::new();
        let id = ledger.reserve(None, 0, ByteSize::from_gib(4));
        assert_eq!(ledger.held_cores(BrickId(0)), 0);
        assert_eq!(ledger.held_memory(), ByteSize::from_gib(4));
        ledger.commit(id).unwrap();
        ledger
            .release_committed(None, 0, ByteSize::from_gib(4))
            .unwrap();
        assert_eq!(ledger.held_memory(), ByteSize::ZERO);
    }

    proptest! {
        #[test]
        fn held_memory_is_consistent(ops in proptest::collection::vec((1u64..16, 0u8..3), 1..40)) {
            let mut ledger = ReservationLedger::new();
            let mut open: Vec<ReservationId> = Vec::new();
            let mut committed: Vec<(ReservationId, u64)> = Vec::new();
            let mut expected_gib: i64 = 0;
            for (gib, action) in ops {
                match action {
                    0 => {
                        let id = ledger.reserve(None, 0, ByteSize::from_gib(gib));
                        open.push(id);
                        expected_gib += gib as i64;
                    }
                    1 if !open.is_empty() => {
                        let id = open.remove(0);
                        let r = ledger.commit(id).unwrap();
                        committed.push((id, r.memory.as_gib()));
                    }
                    _ if !open.is_empty() => {
                        let id = open.remove(0);
                        let r = ledger.rollback(id).unwrap();
                        expected_gib -= r.memory.as_gib() as i64;
                    }
                    _ => {}
                }
                prop_assert_eq!(ledger.held_memory().as_gib() as i64, expected_gib);
            }
        }
    }
}
