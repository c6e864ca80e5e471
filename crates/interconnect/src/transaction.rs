//! End-to-end remote-memory transactions and their latency breakdown.
//!
//! This is the model behind Figure 8 of the paper: the round-trip latency of
//! a remote memory access over the experimental packet-switched path, broken
//! down into the contributions of the on-brick switch and the MAC/PHY blocks
//! on both the dCOMPUBRICK and the dMEMBRICK, plus the optical path
//! propagation delay. The circuit-switched mainline path is modelled too, so
//! the packet-vs-circuit ablation can quantify what the extra blocks cost.

use std::fmt;

use serde::{Deserialize, Serialize};

use dredbox_sim::time::SimDuration;
use dredbox_sim::units::ByteSize;

use crate::config::LatencyConfig;

/// The architectural block a slice of latency is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum LatencyComponent {
    /// Transaction Glue Logic decode + RMST lookup on the compute brick.
    TglDecode,
    /// Network interface packetization/depacketization (packet path only).
    NetworkInterface,
    /// On-brick packet switch traversals (both bricks, packet path only).
    OnBrickSwitch,
    /// MAC/PHY block traversals (both bricks, packet path only).
    MacPhy,
    /// Serialization of request/response bits onto the 10 Gb/s link.
    Serialization,
    /// Light propagation through the fibre and optical switch.
    OpticalPropagation,
    /// dMEMBRICK glue logic (AXI interconnect and controller front end).
    MemBrickGlue,
    /// DRAM device access on the dMEMBRICK.
    DramAccess,
    /// Queuing behind other tenants' traffic on shared fabric stages
    /// (compute-brick uplink, rack switch, dMEMBRICK port). Zero when the
    /// fabric is uncontended or contention modelling is disabled.
    Queueing,
}

impl LatencyComponent {
    /// All components in display order, which is also declaration order:
    /// `ALL[c as usize] == c` for every component `c`.
    pub(crate) const ALL: [LatencyComponent; 9] = [
        LatencyComponent::TglDecode,
        LatencyComponent::NetworkInterface,
        LatencyComponent::OnBrickSwitch,
        LatencyComponent::MacPhy,
        LatencyComponent::Serialization,
        LatencyComponent::OpticalPropagation,
        LatencyComponent::MemBrickGlue,
        LatencyComponent::DramAccess,
        LatencyComponent::Queueing,
    ];
}

// `LatencyBreakdown` indexes its totals by `component as usize`.
const _: () = {
    let mut i = 0;
    while i < LatencyComponent::ALL.len() {
        assert!(LatencyComponent::ALL[i] as usize == i);
        i += 1;
    }
};

impl fmt::Display for LatencyComponent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            LatencyComponent::TglDecode => "TGL decode",
            LatencyComponent::NetworkInterface => "network interface",
            LatencyComponent::OnBrickSwitch => "on-brick switch",
            LatencyComponent::MacPhy => "MAC/PHY",
            LatencyComponent::Serialization => "serialization",
            LatencyComponent::OpticalPropagation => "optical propagation",
            LatencyComponent::MemBrickGlue => "dMEMBRICK glue logic",
            LatencyComponent::DramAccess => "DRAM access",
            LatencyComponent::Queueing => "fabric queuing",
        };
        f.write_str(name)
    }
}

/// A round-trip latency broken down by component.
///
/// One total per [`LatencyComponent`], so a breakdown is a fixed-size
/// `Copy` value: pricing a read allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencyBreakdown {
    /// Per-component totals, indexed by `LatencyComponent as usize`
    /// (declaration order, which is [`LatencyComponent::ALL`] order).
    totals: [SimDuration; LatencyComponent::ALL.len()],
}

impl LatencyBreakdown {
    /// Creates an empty breakdown.
    pub(crate) fn new() -> Self {
        LatencyBreakdown::default()
    }

    /// Adds `duration` to `component`.
    pub(crate) fn add(&mut self, component: LatencyComponent, duration: SimDuration) {
        self.totals[component as usize] += duration;
    }

    /// Total round-trip latency.
    pub fn total(&self) -> SimDuration {
        self.totals.iter().copied().sum()
    }

    /// Total latency attributed to `component`.
    pub(crate) fn component_total(&self, component: LatencyComponent) -> SimDuration {
        self.totals[component as usize]
    }

    /// Fraction of the total attributed to `component`, in `[0, 1]`.
    pub fn share(&self, component: LatencyComponent) -> f64 {
        let total = self.total().as_nanos();
        if total == 0 {
            return 0.0;
        }
        self.component_total(component).as_nanos() as f64 / total as f64
    }

    /// The breakdown aggregated per component, in `LatencyComponent::ALL`
    /// order, omitting components with zero contribution.
    pub fn aggregated(&self) -> Vec<(LatencyComponent, SimDuration)> {
        LatencyComponent::ALL
            .iter()
            .map(|c| (*c, self.component_total(*c)))
            .filter(|(_, d)| d.as_nanos() > 0)
            .collect()
    }
}

impl fmt::Display for LatencyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "round trip: {}", self.total())?;
        for (component, duration) in self.aggregated() {
            writeln!(
                f,
                "  {:<22} {:>10}  ({:>5.1}%)",
                component.to_string(),
                duration.to_string(),
                self.share(component) * 100.0
            )?;
        }
        Ok(())
    }
}

/// Which interconnection substrate a transaction uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum PathKind {
    /// The mainline circuit-switched path: TGL straight onto a
    /// pre-established optical circuit; no NI, packet switch or MAC framing.
    #[default]
    CircuitSwitched,
    /// The experimental packet-switched path through NI, on-brick switch and
    /// MAC/PHY blocks (the one measured in Figure 8).
    PacketSwitched,
}

impl fmt::Display for PathKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathKind::CircuitSwitched => f.write_str("circuit-switched"),
            PathKind::PacketSwitched => f.write_str("packet-switched"),
        }
    }
}

/// A modelled remote-memory data path between a dCOMPUBRICK and a dMEMBRICK.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RemoteMemoryPath {
    kind: PathKind,
    config: LatencyConfig,
}

impl RemoteMemoryPath {
    /// A circuit-switched path with the given latency configuration.
    pub fn circuit_switched(config: LatencyConfig) -> Self {
        RemoteMemoryPath {
            kind: PathKind::CircuitSwitched,
            config,
        }
    }

    /// A packet-switched path with the given latency configuration.
    pub fn packet_switched(config: LatencyConfig) -> Self {
        RemoteMemoryPath {
            kind: PathKind::PacketSwitched,
            config,
        }
    }

    /// Round-trip breakdown of a remote read of `size` bytes.
    pub fn read(&self, size: ByteSize) -> LatencyBreakdown {
        self.round_trip(ByteSize::ZERO, size)
    }

    /// Round-trip breakdown of a remote (posted-then-acknowledged) write of
    /// `size` bytes.
    #[cfg(test)]
    pub(crate) fn write(&self, size: ByteSize) -> LatencyBreakdown {
        self.round_trip(size, ByteSize::ZERO)
    }

    /// Generic round trip carrying `request_payload` towards the dMEMBRICK
    /// and `response_payload` back.
    fn round_trip(
        &self,
        request_payload: ByteSize,
        response_payload: ByteSize,
    ) -> LatencyBreakdown {
        let cfg = &self.config;
        let mut b = LatencyBreakdown::new();

        // Compute-brick side, request direction.
        b.add(LatencyComponent::TglDecode, cfg.tgl_decode);
        match self.kind {
            PathKind::PacketSwitched => {
                b.add(LatencyComponent::NetworkInterface, cfg.ni_traversal);
                b.add(LatencyComponent::OnBrickSwitch, cfg.switch_traversal);
                b.add(
                    LatencyComponent::MacPhy,
                    cfg.mac_phy_traversal + cfg.fec_per_traversal,
                );
                b.add(
                    LatencyComponent::Serialization,
                    cfg.serialization(request_payload),
                );
            }
            PathKind::CircuitSwitched => {
                // The transaction is serialized directly onto the circuit:
                // address/command beat plus any write payload.
                b.add(
                    LatencyComponent::Serialization,
                    cfg.raw_serialization(ByteSize::from_bytes(16) + request_payload),
                );
            }
        }
        b.add(
            LatencyComponent::OpticalPropagation,
            cfg.propagation_delay(),
        );

        // Memory-brick side, request direction.
        if self.kind == PathKind::PacketSwitched {
            b.add(
                LatencyComponent::MacPhy,
                cfg.mac_phy_traversal + cfg.fec_per_traversal,
            );
            b.add(LatencyComponent::OnBrickSwitch, cfg.switch_traversal);
        }
        b.add(LatencyComponent::MemBrickGlue, cfg.membrick_glue);
        b.add(LatencyComponent::DramAccess, cfg.dram_access);

        // Memory-brick side, response direction.
        b.add(LatencyComponent::MemBrickGlue, cfg.membrick_glue);
        match self.kind {
            PathKind::PacketSwitched => {
                b.add(LatencyComponent::OnBrickSwitch, cfg.switch_traversal);
                b.add(
                    LatencyComponent::MacPhy,
                    cfg.mac_phy_traversal + cfg.fec_per_traversal,
                );
                b.add(
                    LatencyComponent::Serialization,
                    cfg.serialization(response_payload),
                );
            }
            PathKind::CircuitSwitched => {
                b.add(
                    LatencyComponent::Serialization,
                    cfg.raw_serialization(ByteSize::from_bytes(8) + response_payload),
                );
            }
        }
        b.add(
            LatencyComponent::OpticalPropagation,
            cfg.propagation_delay(),
        );

        // Compute-brick side, response direction.
        if self.kind == PathKind::PacketSwitched {
            b.add(
                LatencyComponent::MacPhy,
                cfg.mac_phy_traversal + cfg.fec_per_traversal,
            );
            b.add(LatencyComponent::OnBrickSwitch, cfg.switch_traversal);
            b.add(LatencyComponent::NetworkInterface, cfg.ni_traversal);
        }
        b
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_unit_enum!(PathKind {
    CircuitSwitched = 0,
    PacketSwitched = 1,
});
dredbox_snap::snap_struct!(RemoteMemoryPath { kind, config });

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn packet_path() -> RemoteMemoryPath {
        RemoteMemoryPath::packet_switched(LatencyConfig::dredbox_default())
    }

    fn circuit_path() -> RemoteMemoryPath {
        RemoteMemoryPath::circuit_switched(LatencyConfig::dredbox_default())
    }

    #[test]
    fn packet_path_breakdown_matches_figure8_shape() {
        let b = packet_path().read(ByteSize::from_bytes(64));
        let total_us = b.total().as_micros_f64();
        assert!(
            (0.5..=1.8).contains(&total_us),
            "round trip should be around a microsecond, got {total_us} us"
        );
        // MAC/PHY blocks (4 traversals) dominate the breakdown...
        assert!(b.share(LatencyComponent::MacPhy) > 0.3);
        // ...the on-brick switches contribute a visible slice...
        assert!(b.share(LatencyComponent::OnBrickSwitch) > 0.1);
        // ...and optical propagation is a small but non-zero slice.
        let prop = b.share(LatencyComponent::OpticalPropagation);
        assert!(prop > 0.02 && prop < 0.2, "propagation share was {prop}");
        // Every latency slice accounted for: shares sum to 1.
        let sum: f64 = LatencyComponent::ALL.iter().map(|c| b.share(*c)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn circuit_path_is_much_faster_than_packet_path() {
        let circuit = circuit_path().read(ByteSize::from_bytes(64));
        let packet = packet_path().read(ByteSize::from_bytes(64));
        assert!(
            circuit.total().as_nanos() * 2 < packet.total().as_nanos(),
            "circuit path ({}) should be well under half the packet path ({})",
            circuit.total(),
            packet.total()
        );
        // The circuit path has no NI / switch / MAC contributions at all.
        assert_eq!(
            circuit.component_total(LatencyComponent::NetworkInterface),
            SimDuration::ZERO
        );
        assert_eq!(
            circuit.component_total(LatencyComponent::OnBrickSwitch),
            SimDuration::ZERO
        );
        assert_eq!(
            circuit.component_total(LatencyComponent::MacPhy),
            SimDuration::ZERO
        );
    }

    #[test]
    fn fec_adds_latency_to_every_mac_phy_traversal() {
        let base = packet_path().read(ByteSize::from_bytes(64));
        let with_fec = RemoteMemoryPath::packet_switched(
            LatencyConfig::dredbox_default().with_fec(SimDuration::from_nanos(150)),
        )
        .read(ByteSize::from_bytes(64));
        let delta = with_fec.total() - base.total();
        // Four MAC/PHY traversals x 150 ns.
        assert_eq!(delta, SimDuration::from_nanos(600));
    }

    #[test]
    fn writes_serialize_payload_on_the_request_direction() {
        let path = packet_path();
        let w = path.write(ByteSize::from_bytes(256));
        let r = path.read(ByteSize::from_bytes(256));
        // Both carry 256 B one way; totals should be equal for this symmetric model.
        assert_eq!(w.total(), r.total());
        let small_w = path.write(ByteSize::from_bytes(64));
        assert!(w.total() > small_w.total());
    }

    #[test]
    fn breakdown_display_lists_components() {
        let b = packet_path().read(ByteSize::from_bytes(64));
        let text = b.to_string();
        assert!(text.contains("MAC/PHY"));
        assert!(text.contains("optical propagation"));
        assert!(text.contains("round trip"));
        assert!(!b.aggregated().is_empty());
        assert_eq!(PathKind::default(), PathKind::CircuitSwitched);
        assert_eq!(PathKind::PacketSwitched.to_string(), "packet-switched");
    }

    /// A breakdown is a plain value: pricing a read must not allocate.
    const _: fn() = assert_copy::<LatencyBreakdown>;
    fn assert_copy<T: Copy>() {}

    /// Prices a 4 KiB read on `path`, plus the queuing a 10 Gb/s stage
    /// carrying `background` B/s of other traffic adds.
    fn priced_read(path: &RemoteMemoryPath, background: f64) -> LatencyBreakdown {
        let moved = ByteSize::from_bytes(4096);
        let stage = crate::contention::StageLoad {
            capacity: dredbox_sim::units::Bandwidth::from_gbps(10.0),
            background_bytes_per_sec: background,
        };
        crate::contention::charge_queueing(path.read(moved), moved, &[stage], 0.96875)
    }

    #[test]
    fn round_trips_keep_their_totals_aggregates_and_text() {
        // Pinned values: reports print these breakdowns, so every path,
        // with and without queuing, must price and print exactly this.
        use LatencyComponent::*;
        let ns = SimDuration::from_nanos;
        let packet_flat = [
            (TglDecode, ns(25)),
            (NetworkInterface, ns(110)),
            (OnBrickSwitch, ns(280)),
            (MacPhy, ns(640)),
            (Serialization, ns(3305)),
            (OpticalPropagation, ns(98)),
            (MemBrickGlue, ns(60)),
            (DramAccess, ns(60)),
        ];
        let circuit_flat = [
            (TglDecode, ns(25)),
            (Serialization, ns(3296)),
            (OpticalPropagation, ns(98)),
            (MemBrickGlue, ns(60)),
            (DramAccess, ns(60)),
        ];
        let queued = |flat: &[(LatencyComponent, SimDuration)]| {
            let mut all = flat.to_vec();
            all.push((Queueing, ns(2185)));
            all
        };
        let cases = [
            (packet_path(), 0.0, 4578, packet_flat.to_vec()),
            (packet_path(), 0.5e9, 6763, queued(&packet_flat)),
            (circuit_path(), 0.0, 3539, circuit_flat.to_vec()),
            (circuit_path(), 0.5e9, 5724, queued(&circuit_flat)),
        ];
        for (path, background, total, aggregated) in cases {
            let b = priced_read(&path, background);
            assert_eq!(b.total(), ns(total), "{} at {background}", path.kind);
            assert_eq!(b.aggregated(), aggregated, "{} at {background}", path.kind);
        }
        assert_eq!(
            priced_read(&packet_path(), 0.5e9).to_string(),
            "round trip: 6.763 us\n\
             \x20 TGL decode                  25 ns  (  0.4%)\n\
             \x20 network interface          110 ns  (  1.6%)\n\
             \x20 on-brick switch            280 ns  (  4.1%)\n\
             \x20 MAC/PHY                    640 ns  (  9.5%)\n\
             \x20 serialization            3.305 us  ( 48.9%)\n\
             \x20 optical propagation         98 ns  (  1.4%)\n\
             \x20 dMEMBRICK glue logic        60 ns  (  0.9%)\n\
             \x20 DRAM access                 60 ns  (  0.9%)\n\
             \x20 fabric queuing           2.185 us  ( 32.3%)\n"
        );
        assert_eq!(
            priced_read(&circuit_path(), 0.0).to_string(),
            "round trip: 3.539 us\n\
             \x20 TGL decode                  25 ns  (  0.7%)\n\
             \x20 serialization            3.296 us  ( 93.1%)\n\
             \x20 optical propagation         98 ns  (  2.8%)\n\
             \x20 dMEMBRICK glue logic        60 ns  (  1.7%)\n\
             \x20 DRAM access                 60 ns  (  1.7%)\n"
        );
    }

    #[test]
    fn repeated_components_accumulate() {
        let mut b = LatencyBreakdown::new();
        b.add(LatencyComponent::MacPhy, SimDuration::from_nanos(160));
        b.add(LatencyComponent::DramAccess, SimDuration::from_nanos(60));
        b.add(LatencyComponent::MacPhy, SimDuration::from_nanos(160));
        assert_eq!(
            b.component_total(LatencyComponent::MacPhy),
            SimDuration::from_nanos(320)
        );
        assert_eq!(b.total(), SimDuration::from_nanos(380));
        // Adding zero changes nothing, not even equality.
        let mut zero = b;
        zero.add(LatencyComponent::Queueing, SimDuration::ZERO);
        assert_eq!(zero, b);
        assert_eq!(zero.aggregated().len(), 2);
    }

    #[test]
    fn empty_breakdown_has_zero_shares() {
        let b = LatencyBreakdown::new();
        assert_eq!(b.total(), SimDuration::ZERO);
        assert_eq!(b.share(LatencyComponent::MacPhy), 0.0);
        assert!(b.aggregated().is_empty());
    }

    proptest! {
        #[test]
        fn larger_transfers_never_reduce_latency(a in 1u64..65_536, b in 1u64..65_536) {
            let path = packet_path();
            let la = path.read(ByteSize::from_bytes(a)).total();
            let lb = path.read(ByteSize::from_bytes(b)).total();
            if a <= b {
                prop_assert!(la <= lb);
            }
        }

        #[test]
        fn shares_always_sum_to_one(size in 1u64..16_384) {
            for path in [packet_path(), circuit_path()] {
                let bd = path.read(ByteSize::from_bytes(size));
                let sum: f64 = LatencyComponent::ALL.iter().map(|c| bd.share(*c)).sum();
                prop_assert!((sum - 1.0).abs() < 1e-9);
            }
        }
    }
}
