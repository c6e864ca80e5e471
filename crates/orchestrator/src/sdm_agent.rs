//! SDM agents: the per-dCOMPUBRICK arm of the orchestrator.
//!
//! An SDM agent runs on the OS of each dCOMPUBRICK and executes the
//! configurations the SDM controller pushes: mapping remote segments into
//! the Transaction Glue Logic's RMST, and (on the experimental packet path)
//! programming the on-brick packet switch lookup tables.

use serde::{Deserialize, Serialize};

use dredbox_bricks::{BrickId, PortId};
use dredbox_interconnect::RmstEntry;
use dredbox_interconnect::{InterconnectError, LatencyConfig, OnBrickSwitch, TransactionGlueLogic};
use dredbox_memory::{MemorySegment, RemoteWindow};
use dredbox_sim::time::SimDuration;
use dredbox_sim::units::ByteSize;

/// The result of applying one attach configuration: where the segment was
/// mapped, and what the control path cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AttachOutcome {
    /// RMST base address the segment was installed at (the detach handle).
    pub rmst_base: u64,
    /// Control-path time spent installing the mapping.
    pub control_time: SimDuration,
}

/// The SDM agent (plus the hardware state it manages) for one compute brick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SdmAgent {
    brick: BrickId,
    tgl: TransactionGlueLogic,
    packet_switch: OnBrickSwitch,
    window: RemoteWindow,
    /// Time to write one glue-logic / RMST configuration over the control
    /// interface.
    glue_config_latency: SimDuration,
    /// Time to update one packet-switch lookup-table entry.
    switch_table_latency: SimDuration,
}

impl SdmAgent {
    /// Creates the agent for `brick`, with an RMST of `rmst_entries` entries
    /// and a remote window of `window_capacity`.
    pub(crate) fn new(
        brick: BrickId,
        config: &LatencyConfig,
        rmst_entries: usize,
        window_capacity: ByteSize,
    ) -> Self {
        SdmAgent {
            brick,
            tgl: TransactionGlueLogic::new(brick, config, rmst_entries),
            packet_switch: OnBrickSwitch::new(brick, config),
            window: RemoteWindow::new(window_capacity),
            glue_config_latency: SimDuration::from_millis(2),
            switch_table_latency: SimDuration::from_micros(500),
        }
    }

    /// The Transaction Glue Logic state.
    pub fn tgl(&self) -> &TransactionGlueLogic {
        &self.tgl
    }

    /// The on-brick packet switch state.
    pub fn packet_switch(&self) -> &OnBrickSwitch {
        &self.packet_switch
    }

    /// Remote memory currently mapped for this brick.
    pub fn mapped_remote_memory(&self) -> ByteSize {
        self.tgl.mapped_remote_memory()
    }

    /// Applies an attach configuration for `segment`, reachable through
    /// local port `port`: carves a window range, installs the RMST entry and
    /// programs the packet-switch route towards the hosting dMEMBRICK.
    /// Returns where the segment was mapped and the control-path time spent,
    /// so the controller never has to re-enumerate the RMST to learn the
    /// base it just installed.
    ///
    /// # Errors
    ///
    /// Propagates window-exhaustion and RMST errors; nothing is installed on
    /// failure.
    pub(crate) fn apply_attach(
        &mut self,
        segment: &MemorySegment,
        port: PortId,
    ) -> Result<AttachOutcome, AgentError> {
        let base = self
            .window
            .carve(segment.size)
            .map_err(AgentError::Window)?;
        let entry = RmstEntry {
            base: base.0,
            size: segment.size,
            destination: segment.membrick,
            port,
        };
        if let Err(e) = self.tgl.map_segment(entry) {
            // Roll back the window carve.
            let _ = self.window.release(base, segment.size);
            return Err(AgentError::Rmst(e));
        }
        self.packet_switch.program_route(segment.membrick, port);
        Ok(AttachOutcome {
            rmst_base: base.0,
            control_time: self.glue_config_latency + self.switch_table_latency,
        })
    }

    /// Applies a detach configuration for a segment previously attached at
    /// RMST base `rmst_base`. Returns the control-path time spent.
    ///
    /// # Errors
    ///
    /// Returns an error if no segment is mapped at that base.
    pub(crate) fn apply_detach(&mut self, rmst_base: u64) -> Result<SimDuration, AgentError> {
        let entry = self
            .tgl
            .unmap_segment(rmst_base)
            .map_err(AgentError::Rmst)?;
        let _ = self
            .window
            .release(dredbox_memory::GlobalAddress(entry.base), entry.size);
        // Only drop the switch route if no other segment still targets the
        // same dMEMBRICK.
        if self.tgl.rmst().towards_count(entry.destination) == 0 {
            self.packet_switch.remove_route(entry.destination);
        }
        Ok(self.glue_config_latency + self.switch_table_latency)
    }

    /// The RMST bases currently mapped, ascending by base address (the
    /// table is base-ordered, not attach-ordered). To detach exactly what
    /// an attach installed, keep the [`AttachOutcome::rmst_base`] it
    /// returned instead of re-enumerating the table.
    #[cfg(test)]
    pub(crate) fn mapped_bases(&self) -> Vec<u64> {
        self.tgl.rmst().iter().map(|e| e.base).collect()
    }
}

/// Errors the agent can surface while applying configurations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub(crate) enum AgentError {
    /// The brick's remote window is exhausted.
    Window(dredbox_memory::MemoryError),
    /// The RMST rejected the mapping.
    Rmst(InterconnectError),
}

impl std::fmt::Display for AgentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AgentError::Window(e) => write!(f, "remote window: {e}"),
            AgentError::Rmst(e) => write!(f, "rmst: {e}"),
        }
    }
}

impl std::error::Error for AgentError {}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_struct!(SdmAgent {
    brick,
    tgl,
    packet_switch,
    window,
    glue_config_latency,
    switch_table_latency,
});

#[cfg(test)]
mod tests {
    use super::*;
    use dredbox_memory::SegmentId;

    fn agent() -> SdmAgent {
        SdmAgent::new(
            BrickId(0),
            &LatencyConfig::dredbox_default(),
            8,
            ByteSize::from_gib(64),
        )
    }

    fn segment(id: u64, membrick: u32, gib: u64) -> MemorySegment {
        MemorySegment {
            id: SegmentId(id),
            membrick: BrickId(membrick),
            offset: 0,
            size: ByteSize::from_gib(gib),
            owner: BrickId(0),
        }
    }

    #[test]
    fn attach_installs_rmst_and_switch_route() {
        let mut agent = agent();
        assert_eq!(agent.brick, BrickId(0));
        let seg = segment(1, 10, 8);
        let port = PortId::new(BrickId(0), 1);
        let outcome = agent.apply_attach(&seg, port).unwrap();
        assert!(outcome.control_time.as_millis_f64() >= 2.0);
        assert_eq!(agent.mapped_remote_memory(), ByteSize::from_gib(8));
        assert_eq!(agent.tgl().rmst().len(), 1);
        assert_eq!(agent.packet_switch().route(BrickId(10)).unwrap(), port);
        assert_eq!(agent.mapped_bases(), vec![outcome.rmst_base]);
    }

    #[test]
    fn detach_removes_state_and_switch_route_when_last() {
        let mut agent = agent();
        let port = PortId::new(BrickId(0), 1);
        agent.apply_attach(&segment(1, 10, 8), port).unwrap();
        agent.apply_attach(&segment(2, 10, 4), port).unwrap();
        let bases = agent.mapped_bases();
        assert_eq!(bases.len(), 2);

        agent.apply_detach(bases[0]).unwrap();
        // A segment towards brick 10 remains, so the route survives.
        assert!(agent.packet_switch().route(BrickId(10)).is_ok());
        agent.apply_detach(bases[1]).unwrap();
        assert!(agent.packet_switch().route(BrickId(10)).is_err());
        assert_eq!(agent.mapped_remote_memory(), ByteSize::ZERO);
        assert!(matches!(
            agent.apply_detach(bases[0]),
            Err(AgentError::Rmst(_))
        ));
    }

    #[test]
    fn rmst_exhaustion_rolls_back_the_window() {
        let mut small = SdmAgent::new(
            BrickId(0),
            &LatencyConfig::dredbox_default(),
            1,
            ByteSize::from_gib(64),
        );
        let port = PortId::new(BrickId(0), 0);
        small.apply_attach(&segment(1, 10, 4), port).unwrap();
        let before = small.mapped_remote_memory();
        assert!(matches!(
            small.apply_attach(&segment(2, 11, 4), port),
            Err(AgentError::Rmst(_))
        ));
        assert_eq!(small.mapped_remote_memory(), before);
    }

    #[test]
    fn window_exhaustion_is_reported() {
        let mut tiny = SdmAgent::new(
            BrickId(0),
            &LatencyConfig::dredbox_default(),
            8,
            ByteSize::from_gib(4),
        );
        let port = PortId::new(BrickId(0), 0);
        assert!(matches!(
            tiny.apply_attach(&segment(1, 10, 8), port),
            Err(AgentError::Window(_))
        ));
        let err = AgentError::Window(dredbox_memory::MemoryError::EmptyRequest);
        assert!(err.to_string().contains("remote window"));
    }
}
