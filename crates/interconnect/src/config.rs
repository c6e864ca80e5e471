//! Latency parameters of the data-path blocks.
//!
//! The paper reports a *preliminary* hardware-measured breakdown of the
//! remote-memory round trip over the experimental packet-switched path
//! (Figure 8) without printing absolute numbers in the text; the defaults
//! here are calibrated from the stated component set (on-brick switch and
//! MAC/PHY on both bricks, optical propagation) and typical latencies of
//! 10 Gb/s MAC/PHY and AXI-attached switching logic in the Zynq US+ fabric,
//! so that the *shape* of the breakdown (MAC/PHY-dominated, propagation a
//! thin slice, total below ~1.5 µs) matches the figure.

use serde::{Deserialize, Serialize};

use dredbox_sim::time::SimDuration;
use dredbox_sim::units::{Bandwidth, ByteSize};

/// Latency/bandwidth parameters of every block on the remote-memory path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyConfig {
    /// Transaction Glue Logic address decode + RMST lookup.
    pub tgl_decode: SimDuration,
    /// Network-interface packetization (request side) or depacketization
    /// (response side), per traversal.
    pub ni_traversal: SimDuration,
    /// On-brick packet switch traversal (lookup table + arbitration), per hop.
    pub switch_traversal: SimDuration,
    /// MAC + PCS + transceiver latency per traversal, excluding
    /// serialization time.
    pub mac_phy_traversal: SimDuration,
    /// Line rate used for serialization of packets onto the link.
    pub line_rate: Bandwidth,
    /// Length of fibre between the bricks (via the optical switch).
    pub fibre_metres: f64,
    /// dMEMBRICK glue-logic traversal (AXI interconnect + controller front end).
    pub membrick_glue: SimDuration,
    /// DRAM device access on the dMEMBRICK.
    pub dram_access: SimDuration,
    /// Per-packet protocol header size on the packet-switched path.
    pub packet_header: ByteSize,
    /// Extra latency added per traversal when FEC is enabled (the dReDBox
    /// interface is FEC-free, so this is zero by default).
    pub fec_per_traversal: SimDuration,
}

impl LatencyConfig {
    /// Defaults calibrated to the prototype (see module docs).
    pub fn dredbox_default() -> Self {
        LatencyConfig {
            tgl_decode: SimDuration::from_nanos(25),
            ni_traversal: SimDuration::from_nanos(55),
            switch_traversal: SimDuration::from_nanos(70),
            mac_phy_traversal: SimDuration::from_nanos(160),
            line_rate: Bandwidth::from_gbps(10.0),
            fibre_metres: 10.0,
            membrick_glue: SimDuration::from_nanos(30),
            dram_access: SimDuration::from_nanos(60),
            packet_header: ByteSize::from_bytes(18),
            fec_per_traversal: SimDuration::ZERO,
        }
    }

    /// One-way fibre propagation delay (~4.9 ns/m in standard single-mode
    /// fibre).
    pub(crate) fn propagation_delay(&self) -> SimDuration {
        SimDuration::from_nanos_f64(self.fibre_metres / 2.04e8 * 1e9)
    }

    /// Serialization time of `payload` plus the packet header at the line
    /// rate.
    pub(crate) fn serialization(&self, payload: ByteSize) -> SimDuration {
        self.line_rate.transfer_time(payload + self.packet_header)
    }

    /// Serialization time of `payload` alone (circuit path, no packet
    /// header).
    pub(crate) fn raw_serialization(&self, payload: ByteSize) -> SimDuration {
        self.line_rate.transfer_time(payload)
    }

    /// Returns a copy with FEC latency enabled at `per_traversal`.
    pub fn with_fec(mut self, per_traversal: SimDuration) -> Self {
        self.fec_per_traversal = per_traversal;
        self
    }

    /// Returns a copy with a different fibre length.
    ///
    /// # Panics
    ///
    /// Panics if `metres` is negative or not finite.
    #[cfg(test)]
    pub(crate) fn with_fibre_metres(mut self, metres: f64) -> Self {
        assert!(
            metres.is_finite() && metres >= 0.0,
            "fibre length must be finite and non-negative"
        );
        self.fibre_metres = metres;
        self
    }
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig::dredbox_default()
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_struct!(LatencyConfig {
    tgl_decode,
    ni_traversal,
    switch_traversal,
    mac_phy_traversal,
    line_rate,
    fibre_metres,
    membrick_glue,
    dram_access,
    packet_header,
    fec_per_traversal,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sensible() {
        let c = LatencyConfig::dredbox_default();
        assert!(c.mac_phy_traversal > c.switch_traversal);
        assert!(c.switch_traversal > c.tgl_decode);
        assert_eq!(c.fec_per_traversal, SimDuration::ZERO);
        assert_eq!(c.line_rate.as_gbps(), 10.0);
        // 10 m of fibre is ~49 ns one way.
        let prop = c.propagation_delay().as_nanos();
        assert!((45..=55).contains(&prop), "propagation was {prop} ns");
    }

    #[test]
    fn serialization_includes_header_only_on_packet_path() {
        let c = LatencyConfig::dredbox_default();
        let payload = ByteSize::from_bytes(64);
        let with_header = c.serialization(payload);
        let raw = c.raw_serialization(payload);
        assert!(with_header > raw);
        // 64 B at 10 Gb/s is 51.2 ns.
        assert_eq!(raw.as_nanos(), 51);
    }

    #[test]
    fn builder_overrides() {
        let c = LatencyConfig::dredbox_default()
            .with_fec(SimDuration::from_nanos(120))
            .with_fibre_metres(100.0);
        assert_eq!(c.fec_per_traversal, SimDuration::from_nanos(120));
        assert!(c.propagation_delay().as_nanos() > 400);
        assert_eq!(LatencyConfig::default(), LatencyConfig::dredbox_default());
    }

    #[test]
    #[should_panic]
    fn negative_fibre_rejected() {
        let _ = LatencyConfig::dredbox_default().with_fibre_metres(-5.0);
    }
}
