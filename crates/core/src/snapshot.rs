//! Whole-system snapshot and restore — the live-servicing primitive.
//!
//! A rolling upgrade drains a rack, captures the controller's entire
//! state, swaps the controller binary, restores the state into the new
//! process and readmits the rack. The correctness bar is bit-identity:
//! a restored [`DredboxSystem`] must equal the captured one field for
//! field — the rack, its pool, SDM controller, hypervisors, ledgers and
//! RMSTs — so that every subsequent decision is the one the old
//! controller would have made (`tests/snapshot_invariants.rs` holds this
//! under arbitrary operation traces).
//!
//! The byte format is the deterministic [`dredbox_snap`] codec behind a
//! small container header: magic bytes, a format version, then the
//! snapped system. The workspace's serde is a no-op marker stub, so the
//! hand-rolled codec is the only wire format there is.
//!
//! Version 1 was written when one system federated many racks, and a
//! system still writes it: a one-element rack list, a one-rack cluster
//! section carrying the rack's digest, and the brick stride. All three are
//! derived on capture, and decoding rejects a stream whose recorded values
//! disagree with the rack it carries ([`SnapError::Inconsistent`]), so a
//! hostile stream cannot smuggle in a second rack, an empty rack list or a
//! zero stride. `tests/fixtures/` pins a stream written before the change.

use dredbox_snap::{Reader, Snap, SnapError};

use crate::system::DredboxSystem;

/// Magic bytes opening every snapshot stream.
pub(crate) const MAGIC: [u8; 4] = *b"DRBX";

/// Format version this build writes and understands.
pub(crate) const VERSION: u32 = 1;

/// A captured [`DredboxSystem`], restorable bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSnapshot {
    system: DredboxSystem,
}

impl SystemSnapshot {
    /// Captures the system as it stands.
    pub fn capture(system: &DredboxSystem) -> Self {
        SystemSnapshot {
            system: system.clone(),
        }
    }

    /// A fresh system equal to the captured one.
    pub fn restore(&self) -> DredboxSystem {
        self.system.clone()
    }

    /// Consumes the snapshot into its system.
    pub fn into_system(self) -> DredboxSystem {
        self.system
    }

    /// Serializes the snapshot: magic, version, then the snapped system.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        VERSION.snap(&mut out);
        self.system.snap(&mut out);
        out
    }

    /// Deserializes a snapshot written by [`SystemSnapshot::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`SnapError::Magic`] when the stream is not a snapshot,
    /// [`SnapError::Version`] for an incompatible format version, and the
    /// codec's decode errors for a truncated or corrupted stream. Trailing
    /// bytes after the system are rejected as [`SnapError::Length`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapError> {
        let mut r = Reader::new(bytes);
        let magic = <[u8; 4]>::unsnap(&mut r)?;
        if magic != MAGIC {
            return Err(SnapError::Magic);
        }
        let version = u32::unsnap(&mut r)?;
        if version != VERSION {
            return Err(SnapError::Version {
                found: version,
                expected: VERSION,
            });
        }
        let system = DredboxSystem::unsnap(&mut r)?;
        if !r.is_empty() {
            return Err(SnapError::Length {
                len: r.remaining() as u64,
            });
        }
        Ok(SystemSnapshot { system })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use dredbox_sim::units::ByteSize;

    #[test]
    fn snapshot_round_trips_bit_identically() {
        let mut system = DredboxSystem::build(SystemConfig::prototype_rack()).unwrap();
        let vm = system.allocate_vm(2, ByteSize::from_gib(4)).unwrap();
        system.scale_up(vm, ByteSize::from_gib(8)).unwrap();
        system.power_off_unused();

        let snap = SystemSnapshot::capture(&system);
        let bytes = snap.to_bytes();
        let restored = SystemSnapshot::from_bytes(&bytes).unwrap().into_system();
        assert_eq!(restored, system);

        assert_eq!(restored.digest(), system.digest());

        // And behave identically afterwards.
        let mut live = system.clone();
        let mut thawed = restored;
        let a = live.allocate_vm(1, ByteSize::from_gib(2)).unwrap();
        let b = thawed.allocate_vm(1, ByteSize::from_gib(2)).unwrap();
        assert_eq!(a, b);
        assert_eq!(live, thawed);
    }

    #[test]
    fn bad_streams_are_rejected() {
        let system = DredboxSystem::build(SystemConfig::prototype_rack()).unwrap();
        let bytes = SystemSnapshot::capture(&system).to_bytes();

        assert!(matches!(
            SystemSnapshot::from_bytes(b"nope"),
            Err(SnapError::Magic) | Err(SnapError::Eof { .. })
        ));

        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            SystemSnapshot::from_bytes(&wrong_magic),
            Err(SnapError::Magic)
        ));

        let mut wrong_version = bytes.clone();
        wrong_version[4] = 99;
        assert!(matches!(
            SystemSnapshot::from_bytes(&wrong_version),
            Err(SnapError::Version { found: 99, .. })
        ));

        let truncated = &bytes[..bytes.len() - 1];
        assert!(SystemSnapshot::from_bytes(truncated).is_err());

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            SystemSnapshot::from_bytes(&trailing),
            Err(SnapError::Length { len: 1 })
        ));
    }
}
