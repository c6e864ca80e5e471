//! dACCELBRICK: the accelerator brick (Figure 5 of the paper).
//!
//! An accelerator brick hosts hardware accelerators for near-data processing:
//! rather than moving data to a remote dCOMPUBRICK, compute bricks offload
//! work (and a bitstream) to the accelerator brick. The brick consists of a
//! *dynamic* part — a predefined reconfigurable slot in the programmable
//! logic, wrapped with control/status registers, high-speed transceivers and
//! a local AXI DDR controller — and a *static* part that supports partial
//! reconfiguration via the PCAP port, driven by a thin middleware on the
//! local APU.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use dredbox_sim::time::SimDuration;
use dredbox_sim::units::{Bandwidth, ByteSize};

use crate::error::BrickError;
use crate::id::BrickId;
use crate::ports::PortSet;
use crate::power::{PowerModel, PowerState};

/// A partial-reconfiguration bitstream received from a compute brick.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bitstream {
    /// Human-readable accelerator name (e.g. "video-motion-detect"),
    /// shared with every request and session naming the same kernel.
    pub name: Arc<str>,
    /// Size of the partial bitstream; determines PCAP programming time.
    pub size: ByteSize,
}

impl Bitstream {
    /// Creates a bitstream descriptor.
    pub fn new<N: Into<Arc<str>>>(name: N, size: ByteSize) -> Self {
        Bitstream {
            name: name.into(),
            size,
        }
    }
}

/// The reconfigurable accelerator slot of the dynamic infrastructure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct AcceleratorSlot {
    loaded: Option<Bitstream>,
    reconfigurations: u64,
}

impl AcceleratorSlot {
    /// The bitstream currently programmed into the slot, if any.
    pub fn loaded(&self) -> Option<&Bitstream> {
        self.loaded.as_ref()
    }

    /// Whether the slot holds an accelerator.
    pub fn is_occupied(&self) -> bool {
        self.loaded.is_some()
    }
}

/// Static dimensioning of an accelerator brick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcceleratorBrickSpec {
    /// DDR attached to the programmable-logic side for accelerator use.
    pub pl_memory: ByteSize,
    /// DDR attached to the local APU running the middleware.
    pub apu_memory: ByteSize,
    /// Number of GTH transceiver ports towards the rack interconnect.
    pub gth_ports: u8,
    /// Line rate of each GTH port.
    pub port_rate: Bandwidth,
    /// Effective PCAP programming bandwidth for partial reconfiguration.
    pub pcap_bandwidth: Bandwidth,
    /// Per-state electrical power draw.
    pub power: PowerModel,
}

/// A dACCELBRICK instance.
///
/// ```
/// use dredbox_bricks::{Catalog, BrickId, Bitstream};
/// use dredbox_sim::units::ByteSize;
///
/// let mut brick = Catalog::prototype().accelerator_brick(BrickId(20));
/// let bs = Bitstream::new("aes-offload", ByteSize::from_mib(8));
/// let programming_time = brick.load_bitstream(bs)?;
/// assert!(programming_time.as_millis_f64() > 0.0);
/// assert!(brick.slot().is_occupied());
/// # Ok::<(), dredbox_bricks::BrickError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcceleratorBrick {
    id: BrickId,
    spec: AcceleratorBrickSpec,
    ports: PortSet,
    power_state: PowerState,
    slot: AcceleratorSlot,
    /// Offload sessions currently streaming through the loaded kernel.
    active_sessions: u32,
}

impl AcceleratorBrick {
    /// Creates a powered-on accelerator brick with an empty slot.
    pub(crate) fn new(id: BrickId, spec: AcceleratorBrickSpec) -> Self {
        let ports = PortSet::new(id, spec.gth_ports, spec.port_rate);
        AcceleratorBrick {
            id,
            spec,
            ports,
            power_state: PowerState::Idle,
            slot: AcceleratorSlot::default(),
            active_sessions: 0,
        }
    }

    /// Brick identifier.
    pub fn id(&self) -> BrickId {
        self.id
    }

    /// Static dimensioning.
    pub fn spec(&self) -> &AcceleratorBrickSpec {
        &self.spec
    }

    /// Transceiver ports.
    pub fn ports(&self) -> &PortSet {
        &self.ports
    }

    /// Mutable access to the transceiver ports.
    pub fn ports_mut(&mut self) -> &mut PortSet {
        &mut self.ports
    }

    /// The reconfigurable slot.
    pub fn slot(&self) -> &AcceleratorSlot {
        &self.slot
    }

    /// Current power state.
    pub fn power_state(&self) -> PowerState {
        self.power_state
    }

    /// Offload sessions currently streaming through the brick.
    pub fn active_sessions(&self) -> u32 {
        self.active_sessions
    }

    /// Whether the brick serves no offload session. A loaded-but-idle brick
    /// counts as unused: the power sweep may switch it off, at the price of
    /// losing the cached bitstream (partial-reconfiguration state does not
    /// survive power-down).
    pub(crate) fn is_unused(&self) -> bool {
        self.active_sessions == 0
    }

    /// Starts one offload session against the loaded kernel.
    ///
    /// # Errors
    ///
    /// Returns [`BrickError::PoweredOff`] if the brick is off, or
    /// [`BrickError::SlotEmpty`] if no bitstream is programmed.
    pub fn begin_session(&mut self) -> Result<(), BrickError> {
        if self.power_state == PowerState::Off {
            return Err(BrickError::PoweredOff { brick: self.id });
        }
        if !self.slot.is_occupied() {
            return Err(BrickError::SlotEmpty { brick: self.id });
        }
        self.active_sessions += 1;
        self.power_state = PowerState::Active;
        Ok(())
    }

    /// Ends one offload session. The bitstream stays loaded so a later
    /// session with the same kernel skips the PCAP reprogramming.
    ///
    /// # Errors
    ///
    /// Returns [`BrickError::ReleaseUnderflow`] if no session is active.
    pub fn end_session(&mut self) -> Result<(), BrickError> {
        if self.active_sessions == 0 {
            return Err(BrickError::ReleaseUnderflow { brick: self.id });
        }
        self.active_sessions -= 1;
        Ok(())
    }

    /// Loads `bitstream` into the reconfigurable slot via the PCAP port,
    /// returning the programming time (middleware stores the bitstream, then
    /// reconfigures the PL).
    ///
    /// # Errors
    ///
    /// Returns [`BrickError::PoweredOff`] if the brick is off, or
    /// [`BrickError::SlotOccupied`] if an accelerator is already loaded;
    /// call [`AcceleratorBrick::unload`] first.
    pub fn load_bitstream(&mut self, bitstream: Bitstream) -> Result<SimDuration, BrickError> {
        if self.power_state == PowerState::Off {
            return Err(BrickError::PoweredOff { brick: self.id });
        }
        if self.slot.is_occupied() {
            return Err(BrickError::SlotOccupied { brick: self.id });
        }
        let programming_time = self.spec.pcap_bandwidth.transfer_time(bitstream.size);
        self.slot.loaded = Some(bitstream);
        self.slot.reconfigurations += 1;
        self.power_state = PowerState::Active;
        Ok(programming_time)
    }

    /// Unloads the currently programmed accelerator, returning it.
    ///
    /// # Errors
    ///
    /// Returns [`BrickError::SlotEmpty`] if no accelerator is loaded, or
    /// [`BrickError::SessionActive`] while offload sessions still stream
    /// through the kernel.
    pub fn unload(&mut self) -> Result<Bitstream, BrickError> {
        if self.active_sessions > 0 {
            return Err(BrickError::SessionActive {
                brick: self.id,
                sessions: self.active_sessions,
            });
        }
        let bs = self
            .slot
            .loaded
            .take()
            .ok_or(BrickError::SlotEmpty { brick: self.id })?;
        if self.power_state != PowerState::Off {
            self.power_state = PowerState::Idle;
        }
        Ok(bs)
    }

    /// Estimated time to run an offloaded kernel over `input` data at the
    /// accelerator's local DDR bandwidth, a coarse near-data-processing model
    /// used by the pilot-application examples.
    pub fn offload_time(&self, input: ByteSize) -> SimDuration {
        // Near-data processing: the dominant cost is streaming the input once
        // from the accelerator-local DDR through the kernel.
        MemoryStreamModel::default().stream_time(input)
    }

    /// Powers the brick off. A loaded-but-idle bitstream is dropped — the
    /// reconfigurable fabric loses its partial-reconfiguration state on
    /// power-down, so the next offload of that kernel pays the PCAP
    /// programming again (the power-saving vs bitstream-reuse tension the
    /// offload-heavy scenario reports).
    ///
    /// # Errors
    ///
    /// Returns [`BrickError::SessionActive`] while offload sessions still
    /// stream through the brick: a busy accelerator is not sleepable.
    pub fn power_off(&mut self) -> Result<(), BrickError> {
        if self.active_sessions > 0 {
            return Err(BrickError::SessionActive {
                brick: self.id,
                sessions: self.active_sessions,
            });
        }
        self.slot.loaded = None;
        self.power_state = PowerState::Off;
        Ok(())
    }

    /// Powers the brick back on (idle).
    pub fn power_on(&mut self) {
        if self.power_state == PowerState::Off {
            self.power_state = PowerState::Idle;
        }
    }

    /// Current electrical draw.
    pub(crate) fn power_draw(&self) -> dredbox_sim::units::Watts {
        self.spec.power.draw(self.power_state)
    }
}

/// Streaming-throughput model used to estimate accelerator kernel time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct MemoryStreamModel {
    effective_bandwidth: Bandwidth,
}

impl Default for MemoryStreamModel {
    fn default() -> Self {
        MemoryStreamModel {
            // PL-side DDR sustained streaming rate.
            effective_bandwidth: Bandwidth::from_gbps(100.0),
        }
    }
}

impl MemoryStreamModel {
    fn stream_time(&self, input: ByteSize) -> SimDuration {
        self.effective_bandwidth.transfer_time(input)
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_struct!(Bitstream { name, size });
dredbox_snap::snap_struct!(AcceleratorSlot {
    loaded,
    reconfigurations,
});
dredbox_snap::snap_struct!(AcceleratorBrickSpec {
    pl_memory,
    apu_memory,
    gth_ports,
    port_rate,
    pcap_bandwidth,
    power,
});
dredbox_snap::snap_struct!(AcceleratorBrick {
    id,
    spec,
    ports,
    power_state,
    slot,
    active_sessions,
});

#[cfg(test)]
mod tests {
    use super::*;
    use dredbox_sim::units::Watts;

    fn spec() -> AcceleratorBrickSpec {
        AcceleratorBrickSpec {
            pl_memory: ByteSize::from_gib(4),
            apu_memory: ByteSize::from_gib(2),
            gth_ports: 4,
            port_rate: Bandwidth::from_gbps(10.0),
            pcap_bandwidth: Bandwidth::from_gbps(3.2),
            power: PowerModel::new(Watts::ZERO, Watts::new(12.0), Watts::new(30.0)),
        }
    }

    #[test]
    fn load_and_unload_bitstream() {
        let mut b = AcceleratorBrick::new(BrickId(20), spec());
        assert!(b.is_unused());
        let t = b
            .load_bitstream(Bitstream::new("sobel", ByteSize::from_mib(16)))
            .unwrap();
        assert!(
            t.as_millis_f64() > 10.0,
            "16 MiB at 3.2 Gb/s should take tens of ms, got {t}"
        );
        assert!(b.slot().is_occupied());
        assert_eq!(b.slot().loaded().unwrap().name.as_ref(), "sobel");
        assert_eq!(b.slot().reconfigurations, 1);
        assert_eq!(b.power_state(), PowerState::Active);

        assert!(matches!(
            b.load_bitstream(Bitstream::new("other", ByteSize::from_mib(1))),
            Err(BrickError::SlotOccupied { .. })
        ));

        let bs = b.unload().unwrap();
        assert_eq!(&*bs.name, "sobel");
        assert!(b.is_unused());
        assert_eq!(b.power_state(), PowerState::Idle);
        assert!(matches!(b.unload(), Err(BrickError::SlotEmpty { .. })));
    }

    #[test]
    fn power_cycle() {
        let mut b = AcceleratorBrick::new(BrickId(21), spec());
        b.load_bitstream(Bitstream::new("x", ByteSize::from_mib(1)))
            .unwrap();
        b.begin_session().unwrap();
        // A busy accelerator is not sleepable, and its bitstream cannot be
        // swapped out from under the running session.
        assert!(matches!(
            b.power_off(),
            Err(BrickError::SessionActive { sessions: 1, .. })
        ));
        assert!(matches!(b.unload(), Err(BrickError::SessionActive { .. })));
        b.end_session().unwrap();
        // Idle (even with a bitstream loaded) it can sleep — but the PR
        // state is lost, so the slot comes back empty.
        b.power_off().unwrap();
        assert!(!b.slot().is_occupied());
        assert_eq!(b.power_draw().as_watts(), 0.0);
        assert!(matches!(
            b.load_bitstream(Bitstream::new("x", ByteSize::from_mib(1))),
            Err(BrickError::PoweredOff { .. })
        ));
        b.power_on();
        assert_eq!(b.power_state(), PowerState::Idle);
    }

    #[test]
    fn session_lifecycle_gates_power_and_unload() {
        let mut b = AcceleratorBrick::new(BrickId(23), spec());
        // No kernel programmed: sessions cannot start.
        assert!(matches!(
            b.begin_session(),
            Err(BrickError::SlotEmpty { .. })
        ));
        assert!(matches!(
            b.end_session(),
            Err(BrickError::ReleaseUnderflow { .. })
        ));
        b.load_bitstream(Bitstream::new("sobel", ByteSize::from_mib(8)))
            .unwrap();
        b.begin_session().unwrap();
        b.begin_session().unwrap();
        assert_eq!(b.active_sessions(), 2);
        assert!(!b.is_unused(), "a streaming brick is busy");
        b.end_session().unwrap();
        b.end_session().unwrap();
        assert!(b.is_unused(), "an idle loaded brick is sleepable");
        // The bitstream survived the sessions for reuse.
        assert_eq!(b.slot().loaded().unwrap().name.as_ref(), "sobel");
        assert_eq!(b.slot().reconfigurations, 1);
        // A powered-off brick cannot start sessions.
        b.power_off().unwrap();
        assert!(matches!(
            b.begin_session(),
            Err(BrickError::PoweredOff { .. })
        ));
    }

    #[test]
    fn offload_time_scales_with_input() {
        let b = AcceleratorBrick::new(BrickId(22), spec());
        let small = b.offload_time(ByteSize::from_mib(64));
        let large = b.offload_time(ByteSize::from_mib(128));
        assert!(large.as_nanos() > small.as_nanos());
    }
}
