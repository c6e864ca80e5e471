//! Experiment runners: one function per paper table/figure.
//!
//! Every function returns the data as a [`Table`] or [`Figure`] from
//! `dredbox_sim::report`, so the bench harness, the examples and the
//! integration tests all print and check the same artifacts.
//!
//! | Function | Paper artifact |
//! |----------|----------------|
//! | [`table1`] | Table I — VM workload mixes |
//! | [`fig7`] | Figure 7 — BER vs. received optical power (box plots) |
//! | [`fig8`] | Figure 8 — remote-memory round-trip latency breakdown |
//! | [`fig10`] | Figure 10 — scale-up agility vs. conventional scale-out |
//! | [`fig11`] | Figure 11 — equal-aggregate datacenter configurations |
//! | [`fig12`] | Figure 12 — % of unutilized resources powered off |
//! | [`fig13`] | Figure 13 — normalized power consumption |
//! | [`ablation_path`] | extension — circuit vs. packet data path |
//! | [`ablation_fec`] | extension — FEC latency/BER trade-off |

use dredbox_bricks::BrickId;
use dredbox_interconnect::{LatencyConfig, RemoteMemoryPath};
use dredbox_memory::HotplugModel;
use dredbox_optical::{
    BerMeasurementCampaign, FecMode, LinkBudget, MidBoardOptics, OpticalCircuitSwitch,
    ReceiverModel,
};
use dredbox_orchestrator::{ScaleUpDemand, SdmController};
use dredbox_sim::report::{Figure, Series, Table};
use dredbox_sim::rng::SimRng;
use dredbox_sim::time::SimDuration;
use dredbox_sim::units::ByteSize;
use dredbox_softstack::{BaremetalOs, Hypervisor, ScaleOutBaseline, ScaleUpController, VmSpec};
use dredbox_tco::TcoStudy;
use dredbox_workload::WorkloadConfig;

/// Table I: the VM workload mixes used by the TCO study.
pub fn table1() -> Table {
    WorkloadConfig::table1()
}

/// Figure 7: BER versus received optical power for the two measured
/// channels (channel 1 over eight switch hops, channel 8 over six), plus a
/// received-power sweep that exposes the underlying receiver curve.
pub fn fig7(seed: u64) -> Figure {
    let mut rng = SimRng::seed(seed);
    let mbo = MidBoardOptics::dredbox_default();
    let switch = OpticalCircuitSwitch::polatis_48();
    let campaign = BerMeasurementCampaign::dredbox_default();

    let channels = vec![
        (
            "ch-1 (8 hops)".to_owned(),
            LinkBudget::new(mbo.channel(0).expect("channel 0 exists").launch_power())
                .with_switch_hops(&switch, 8)
                .with_connectors(2)
                .with_fibre_metres(20.0),
        ),
        (
            "ch-8 (6 hops)".to_owned(),
            LinkBudget::new(mbo.channel(7).expect("channel 7 exists").launch_power())
                .with_switch_hops(&switch, 6)
                .with_connectors(2)
                .with_fibre_metres(20.0),
        ),
    ];
    let measurements = campaign.measure_all(&channels, &mut rng);

    let mut fig = Figure::new("Figure 7 — BER vs received optical power (10 Gb/s, FEC-free)");
    for m in &measurements {
        let mut series = Series::new(m.label.clone(), "received power (dBm)", "bit error rate");
        for y in [m.ber.min, m.ber.q1, m.ber.median, m.ber.q3, m.ber.max] {
            series.push(m.received_power_dbm, y);
        }
        fig.push_series(series);
        fig.note(format!(
            "{}: received {:.1} dBm, median BER {:.2e}, max {:.2e} ({})",
            m.label,
            m.received_power_dbm,
            m.ber.median,
            m.ber.max,
            if m.is_error_free() {
                "below 1e-12 as in the paper"
            } else {
                "ABOVE 1e-12"
            }
        ));
    }

    // Receiver curve: median BER as the received power degrades.
    let receiver = ReceiverModel::dredbox_default();
    let mut sweep = Series::new(
        "receiver model sweep",
        "received power (dBm)",
        "bit error rate",
    );
    let mut dbm = -16.0;
    while dbm <= -8.0 + 1e-9 {
        sweep.push(
            dbm,
            receiver.ber(dredbox_sim::units::DecibelMilliwatts::new(dbm)),
        );
        dbm += 0.5;
    }
    fig.push_series(sweep);
    fig.note("shape target: BER degrades monotonically as received power drops; both measured channels stay below 1e-12".to_owned());
    fig
}

/// Figure 8: round-trip latency breakdown of a 64-byte remote memory read
/// over the experimental packet-switched path.
pub fn fig8() -> Figure {
    let path = RemoteMemoryPath::packet_switched(LatencyConfig::dredbox_default());
    let breakdown = path.read(ByteSize::from_bytes(64));

    let mut fig =
        Figure::new("Figure 8 — Round-trip remote-memory access latency breakdown (packet path)");
    let mut series = Series::new(
        "packet-switched round trip",
        "component index",
        "latency (ns)",
    );
    for (idx, (component, duration)) in breakdown.aggregated().iter().enumerate() {
        series.push(idx as f64, duration.as_nanos() as f64);
        fig.note(format!(
            "[{idx}] {component}: {duration} ({:.1}% of round trip)",
            breakdown.share(*component) * 100.0
        ));
    }
    fig.push_series(series);
    fig.note(format!(
        "total round trip {} — dominated by MAC/PHY and on-brick switch traversals, with optical propagation a thin slice, as in the paper",
        breakdown.total()
    ));
    fig
}

/// Per-VM average scale-up delay for one concurrency level, paired with the
/// conventional scale-out average for the same burst size.
fn fig10_point(concurrency: usize, seed: u64) -> (f64, f64) {
    let mut rng = SimRng::seed(seed);

    // One dCOMPUBRICK (32 cores, 2 GiB local DDR) per requesting VM and one
    // 32-GiB dMEMBRICK per compute brick: the burst stresses the shared SDM
    // controller, not the pool capacity.
    let mut sdm = SdmController::dredbox_default();
    let mut hypervisors = Vec::with_capacity(concurrency);
    let scaleup = ScaleUpController::default();
    for i in 0..concurrency {
        let brick = BrickId(i as u32);
        sdm.register_compute_brick(brick, 32, 8);
        sdm.register_membrick(BrickId(1_000 + i as u32), ByteSize::from_gib(32));
        let os = BaremetalOs::new(
            brick,
            ByteSize::from_gib(2),
            HotplugModel::dredbox_default(),
        );
        let mut hv = Hypervisor::new(os, 32);
        let (vm, _) = hv
            .create_vm(VmSpec::new(2, ByteSize::from_gib(1)))
            .expect("initial VM fits in local memory");
        hypervisors.push((hv, vm));
    }

    // Every VM posts one scale-up request in the same interval.
    let demands: Vec<ScaleUpDemand> = (0..concurrency)
        .map(|i| ScaleUpDemand::new(BrickId(i as u32), ByteSize::from_gib(rng.range(1u64..=16))))
        .collect();
    let grants = sdm.scale_up_burst(&demands);
    assert_eq!(grants.len(), concurrency, "every request must be served");

    let mut total_delay_secs = 0.0;
    for (idx, (grant, completion)) in grants.iter().enumerate() {
        let (hv, vm) = &mut hypervisors[idx];
        let outcome = scaleup
            .apply_grant(hv, *vm, grant.demand.amount)
            .expect("grant applies to the running VM");
        let per_vm: SimDuration = *completion + outcome.total();
        total_delay_secs += per_vm.as_secs_f64();
    }
    let scale_up_avg = total_delay_secs / concurrency as f64;

    let scale_out_avg = ScaleOutBaseline::mao_humphrey_default()
        .average_delay(concurrency, 64, &mut rng)
        .as_secs_f64();
    (scale_up_avg, scale_out_avg)
}

/// Figure 10: per-VM average delay (seconds) of dynamically scaling memory
/// up, under 8/16/32-way scale-up concurrency, against conventional VM
/// scale-out.
pub fn fig10(seed: u64) -> Figure {
    let mut fig = Figure::new(
        "Figure 10 — Per-VM average delay of dynamic memory scale-up vs conventional scale-out (lower is better)",
    );
    let mut scale_up = Series::new(
        "dReDBox scale-up",
        "concurrent requesting VMs",
        "average delay (s)",
    );
    let mut scale_out = Series::new(
        "conventional scale-out",
        "concurrent requesting VMs",
        "average delay (s)",
    );
    for &concurrency in &[8usize, 16, 32] {
        let (up, out) = fig10_point(concurrency, seed + concurrency as u64);
        scale_up.push(concurrency as f64, up);
        scale_out.push(concurrency as f64, out);
        fig.note(format!(
            "{concurrency} VMs: scale-up {up:.2} s vs scale-out {out:.1} s ({:.0}x faster)",
            out / up
        ));
    }
    fig.push_series(scale_up);
    fig.push_series(scale_out);
    fig.note("shape target: disaggregated scale-up stays orders of magnitude below scale-out and degrades only mildly from 8 to 32 concurrent requesters".to_owned());
    fig
}

/// Figure 11: the equal-aggregate configuration of the two datacenters.
pub fn fig11() -> Table {
    TcoStudy::paper_setup().figure11()
}

/// Figure 12: percentage of unutilized resources that can be powered off.
pub fn fig12(seed: u64) -> Figure {
    TcoStudy::paper_setup()
        .run_all(&mut SimRng::seed(seed))
        .figure12()
}

/// Figure 13: power consumption normalized to the conventional datacenter.
pub fn fig13(seed: u64) -> Figure {
    TcoStudy::paper_setup()
        .run_all(&mut SimRng::seed(seed))
        .figure13()
}

/// TCO summary table (per Table I configuration), backing Figures 12 and 13.
pub fn tco_summary(seed: u64) -> Table {
    TcoStudy::paper_setup()
        .run_all(&mut SimRng::seed(seed))
        .summary_table()
}

/// Ablation: circuit-switched versus packet-switched remote-memory round
/// trip across transfer sizes.
pub fn ablation_path() -> Figure {
    let circuit = RemoteMemoryPath::circuit_switched(LatencyConfig::dredbox_default());
    let packet = RemoteMemoryPath::packet_switched(LatencyConfig::dredbox_default());
    let mut fig = Figure::new("Ablation — circuit-switched vs packet-switched remote access");
    let mut circuit_series = Series::new(
        "circuit-switched",
        "transfer size (bytes)",
        "round trip (ns)",
    );
    let mut packet_series = Series::new(
        "packet-switched",
        "transfer size (bytes)",
        "round trip (ns)",
    );
    for size in [64u64, 128, 256, 512, 1024, 4096] {
        circuit_series.push(
            size as f64,
            circuit.read(ByteSize::from_bytes(size)).total().as_nanos() as f64,
        );
        packet_series.push(
            size as f64,
            packet.read(ByteSize::from_bytes(size)).total().as_nanos() as f64,
        );
    }
    let ratio = packet_series.points[0].1 / circuit_series.points[0].1;
    fig.push_series(circuit_series);
    fig.push_series(packet_series);
    fig.note(format!(
        "the mainline circuit path avoids NI, on-brick switch and MAC/PHY traversals: {ratio:.1}x lower 64-byte round trip"
    ));
    fig
}

/// Ablation: what forward error correction would cost the remote-memory
/// path (the paper requires a FEC-free interface because FEC adds >100 ns).
pub fn ablation_fec() -> Figure {
    let receiver = ReceiverModel::dredbox_default();
    let weak_link = dredbox_sim::units::DecibelMilliwatts::new(-15.0);
    let mut fig = Figure::new("Ablation — FEC latency vs post-FEC BER on a weak (-15 dBm) link");
    let mut latency = Series::new(
        "added latency per round trip",
        "FEC mode index",
        "latency (ns)",
    );
    let mut ber = Series::new("post-FEC BER", "FEC mode index", "bit error rate");
    for (idx, mode) in FecMode::ALL.iter().enumerate() {
        // Four MAC/PHY traversals per round trip on the packet path.
        let added = mode.added_latency().saturating_mul(4);
        latency.push(idx as f64, added.as_nanos() as f64);
        ber.push(idx as f64, mode.effective_ber(&receiver, weak_link));
        fig.note(format!(
            "{mode}: +{added} per round trip, post-FEC BER {:.2e}",
            mode.effective_ber(&receiver, weak_link)
        ));
    }
    fig.push_series(latency);
    fig.push_series(ber);
    fig.note("the dReDBox operating points do not need FEC (already below 1e-12), so the latency cost buys nothing".to_owned());
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use dredbox_interconnect::LatencyComponent;

    #[test]
    fn table1_has_six_configs() {
        assert_eq!(table1().len(), 6);
    }

    #[test]
    fn fig7_channels_are_error_free_and_ordered() {
        let fig = fig7(7);
        assert_eq!(fig.series.len(), 3);
        let ch1 = fig.series_named("ch-1 (8 hops)").unwrap();
        let ch8 = fig.series_named("ch-8 (6 hops)").unwrap();
        assert!(ch1.y_max().unwrap() < 1e-12);
        assert!(ch8.y_max().unwrap() < 1e-12);
        // Six hops => more received power => lower BER.
        assert!(ch8.points[0].0 > ch1.points[0].0);
        assert!(ch8.y_max().unwrap() < ch1.y_max().unwrap());
        assert!(fig.notes.iter().any(|n| n.contains("below 1e-12")));
    }

    #[test]
    fn fig8_is_mac_phy_dominated_and_sub_2us() {
        let fig = fig8();
        let series = &fig.series[0];
        let total_ns: f64 = series.points.iter().map(|&(_, y)| y).sum();
        assert!(total_ns < 2_000.0, "total {total_ns} ns");
        let mac_phy_share = RemoteMemoryPath::packet_switched(LatencyConfig::dredbox_default())
            .read(ByteSize::from_bytes(64))
            .share(LatencyComponent::MacPhy);
        assert!(mac_phy_share > 0.3);
        assert!(fig.notes.iter().any(|n| n.contains("MAC/PHY")));
    }

    #[test]
    fn fig10_scale_up_beats_scale_out_by_orders_of_magnitude() {
        let fig = fig10(42);
        let up = fig.series_named("dReDBox scale-up").unwrap();
        let out = fig.series_named("conventional scale-out").unwrap();
        assert_eq!(up.len(), 3);
        assert_eq!(out.len(), 3);
        for (&(_, u), &(_, o)) in up.points.iter().zip(out.points.iter()) {
            assert!(u * 10.0 < o, "scale-up {u} s vs scale-out {o} s");
            assert!(u < 5.0, "scale-up should stay within seconds, got {u}");
            assert!(o > 60.0, "scale-out should take minutes, got {o}");
        }
        // Scale-up delay grows with concurrency (queueing at the SDM-C)...
        assert!(up.points[2].1 > up.points[0].1);
        // ...but far less than proportionally to the 4x burst size.
        assert!(up.points[2].1 < up.points[0].1 * 8.0);
    }

    #[test]
    fn fig11_12_13_reproduce_the_tco_shape() {
        let fig11 = fig11();
        assert_eq!(fig11.len(), 2);
        let fig12 = fig12(2018);
        let compute = fig12.series_named("dReDBox dCOMPUBRICKs off").unwrap();
        let memory = fig12.series_named("dReDBox dMEMBRICKs off").unwrap();
        let conventional = fig12.series_named("conventional hosts off").unwrap();
        let best_brick = compute
            .points
            .iter()
            .chain(memory.points.iter())
            .map(|&(_, y)| y)
            .fold(0.0f64, f64::max);
        assert!(best_brick > 75.0, "best brick-type off {best_brick}%");
        assert!(conventional.y_max().unwrap() < 60.0);

        let fig13 = fig13(2018);
        let dredbox = fig13.series_named("dReDBox").unwrap();
        assert!(
            dredbox.y_min().unwrap() < 0.7,
            "max savings should exceed 30%"
        );
        assert!(dredbox.y_max().unwrap() <= 1.05);
        assert_eq!(tco_summary(2018).len(), 6);
    }

    #[test]
    fn ablations_have_the_expected_ordering() {
        let path = ablation_path();
        let circuit = path.series_named("circuit-switched").unwrap();
        let packet = path.series_named("packet-switched").unwrap();
        for (&(_, c), &(_, p)) in circuit.points.iter().zip(packet.points.iter()) {
            assert!(c < p);
        }
        let fec = ablation_fec();
        let latency = fec.series_named("added latency per round trip").unwrap();
        // FEC-free adds nothing; every real FEC mode adds >400 ns per round trip.
        assert_eq!(latency.points[0].1, 0.0);
        assert!(latency.points[1..].iter().all(|&(_, y)| y > 400.0));
    }
}
