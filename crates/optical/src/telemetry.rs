//! BER measurement campaigns (the substrate behind Figure 7).
//!
//! Figure 7 of the paper is a box plot of measured BER versus received
//! optical power for two bi-directional 10 Gb/s channels (channel 1 and
//! channel 8) between the dCOMPUBRICK and the dMEMBRICK, after traversing
//! multiple hops through the optical switch. Hardware BER testers sample the
//! link repeatedly; run-to-run variation in received power (connector
//! repeatability, polarisation, laser drift) spreads the measurements into
//! the boxes seen in the figure. [`BerMeasurementCampaign`] reproduces that
//! process: it repeatedly perturbs the received power around the link-budget
//! value and evaluates the receiver BER model at each sample.

use serde::{Deserialize, Serialize};

use dredbox_sim::rng::SimRng;
use dredbox_sim::stats::{BoxPlot, Summary};
use dredbox_sim::units::DecibelMilliwatts;

use crate::ber::ReceiverModel;
use crate::link::LinkBudget;

/// Result of measuring one channel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelMeasurement {
    /// Channel label (e.g. "ch-1 (8 hops)").
    pub label: String,
    /// Number of switch hops traversed.
    pub hops: u32,
    /// Nominal received power from the link budget.
    pub received_power_dbm: f64,
    /// Box-plot summary of the measured BER samples.
    pub ber: BoxPlot,
    /// Mean of the measured BER samples.
    pub mean_ber: f64,
}

impl ChannelMeasurement {
    /// Whether the *worst* measured BER sample is below the paper's 1e-12
    /// error-free threshold.
    ///
    /// This is deliberately stricter than a quartile check: a channel whose
    /// box sits comfortably below the threshold but whose outlier whisker
    /// crosses it is not error-free.
    pub fn is_error_free(&self) -> bool {
        self.ber.max < 1e-12
    }
}

/// A repeated-sampling BER measurement campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BerMeasurementCampaign {
    receiver: ReceiverModel,
    samples_per_channel: usize,
    power_jitter_db: f64,
}

impl BerMeasurementCampaign {
    /// Campaign with the prototype receiver, 200 samples per channel and
    /// 0.25 dB of measurement-to-measurement received-power jitter.
    pub fn dredbox_default() -> Self {
        BerMeasurementCampaign {
            receiver: ReceiverModel::dredbox_default(),
            samples_per_channel: 200,
            power_jitter_db: 0.25,
        }
    }

    /// Customises the receiver model.
    pub fn with_receiver(mut self, receiver: ReceiverModel) -> Self {
        self.receiver = receiver;
        self
    }

    /// Customises the number of samples per channel.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero.
    pub fn with_samples(mut self, samples: usize) -> Self {
        assert!(samples > 0, "campaign needs at least one sample");
        self.samples_per_channel = samples;
        self
    }

    /// Customises the received-power jitter (one standard deviation, dB).
    ///
    /// # Panics
    ///
    /// Panics if `jitter_db` is negative or not finite.
    pub fn with_power_jitter(mut self, jitter_db: f64) -> Self {
        assert!(
            jitter_db.is_finite() && jitter_db >= 0.0,
            "jitter must be finite and non-negative"
        );
        self.power_jitter_db = jitter_db;
        self
    }

    /// The receiver model used by the campaign.
    pub fn receiver(&self) -> &ReceiverModel {
        &self.receiver
    }

    /// Measures one channel described by its link budget.
    pub fn measure_channel(
        &self,
        label: &str,
        link: &LinkBudget,
        rng: &mut SimRng,
    ) -> ChannelMeasurement {
        let nominal = link.received_power();
        let mut summary = Summary::new();
        for _ in 0..self.samples_per_channel {
            let jitter = rng.normal(0.0, self.power_jitter_db);
            let power = DecibelMilliwatts::new(nominal.as_dbm() + jitter);
            summary.record(self.receiver.ber(power));
        }
        let summary = summary
            .finish()
            .expect("campaign produces at least one finite sample");
        ChannelMeasurement {
            label: label.to_owned(),
            hops: link.switch_hops(),
            received_power_dbm: nominal.as_dbm(),
            ber: summary.box_plot(),
            mean_ber: summary.mean(),
        }
    }

    /// Measures a set of labelled channels.
    pub fn measure_all(
        &self,
        channels: &[(String, LinkBudget)],
        rng: &mut SimRng,
    ) -> Vec<ChannelMeasurement> {
        channels
            .iter()
            .map(|(label, link)| self.measure_channel(label, link, rng))
            .collect()
    }
}

impl Default for BerMeasurementCampaign {
    fn default() -> Self {
        BerMeasurementCampaign::dredbox_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switch::OpticalCircuitSwitch;

    fn eight_hop_link() -> LinkBudget {
        LinkBudget::new(DecibelMilliwatts::new(-3.7))
            .with_switch_hops(&OpticalCircuitSwitch::polatis_48(), 8)
    }

    fn six_hop_link() -> LinkBudget {
        LinkBudget::new(DecibelMilliwatts::new(-3.7))
            .with_switch_hops(&OpticalCircuitSwitch::polatis_48(), 6)
    }

    #[test]
    fn paper_channels_measure_error_free() {
        let campaign = BerMeasurementCampaign::dredbox_default();
        let mut rng = SimRng::seed(7);
        let m8 = campaign.measure_channel("ch-1 (8 hops)", &eight_hop_link(), &mut rng);
        let m6 = campaign.measure_channel("ch-8 (6 hops)", &six_hop_link(), &mut rng);
        assert!(
            m8.is_error_free(),
            "8-hop channel should stay below 1e-12, max {:e}",
            m8.ber.max
        );
        assert!(
            m6.is_error_free(),
            "6-hop channel should stay below 1e-12, max {:e}",
            m6.ber.max
        );
        // The channel with less loss has the better (lower) median BER.
        assert!(m6.ber.median < m8.ber.median);
        assert!(m6.received_power_dbm > m8.received_power_dbm);
        assert_eq!(m8.hops, 8);
        assert_eq!(m6.hops, 6);
    }

    #[test]
    fn box_plot_is_ordered_and_spread_by_jitter() {
        let campaign = BerMeasurementCampaign::dredbox_default().with_samples(500);
        let mut rng = SimRng::seed(11);
        let m = campaign.measure_channel("ch-1", &eight_hop_link(), &mut rng);
        assert!(m.ber.min <= m.ber.q1);
        assert!(m.ber.q1 <= m.ber.median);
        assert!(m.ber.median <= m.ber.q3);
        assert!(m.ber.q3 <= m.ber.max);
        // Jitter must give a non-degenerate spread.
        assert!(m.ber.max > m.ber.min);
        assert!(m.mean_ber > 0.0);
    }

    #[test]
    fn zero_jitter_collapses_the_box() {
        let campaign = BerMeasurementCampaign::dredbox_default()
            .with_power_jitter(0.0)
            .with_samples(16);
        let mut rng = SimRng::seed(3);
        let m = campaign.measure_channel("ch", &eight_hop_link(), &mut rng);
        assert!((m.ber.max - m.ber.min).abs() < 1e-25);
    }

    #[test]
    fn campaign_is_deterministic_per_seed() {
        let campaign = BerMeasurementCampaign::dredbox_default();
        let channels = vec![
            ("ch-1".to_owned(), eight_hop_link()),
            ("ch-8".to_owned(), six_hop_link()),
        ];
        let a = campaign.measure_all(&channels, &mut SimRng::seed(42));
        let b = campaign.measure_all(&channels, &mut SimRng::seed(42));
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn degraded_receiver_fails_the_error_free_target() {
        // A receiver 4 dB worse than the prototype's cannot keep the 8-hop
        // channel below 1e-12.
        let campaign = BerMeasurementCampaign::dredbox_default()
            .with_receiver(ReceiverModel::with_sensitivity(-9.0));
        let mut rng = SimRng::seed(5);
        let m = campaign.measure_channel("bad", &eight_hop_link(), &mut rng);
        assert!(!m.is_error_free());
    }

    #[test]
    #[should_panic]
    fn zero_samples_rejected() {
        let _ = BerMeasurementCampaign::dredbox_default().with_samples(0);
    }

    #[test]
    fn error_free_checks_the_max_not_the_quartiles() {
        // Every quartile is below 1e-12 but a single outlier whisker
        // crosses the threshold: the channel must NOT count as error-free.
        let measurement = ChannelMeasurement {
            label: "outlier".to_owned(),
            hops: 8,
            received_power_dbm: -10.0,
            ber: BoxPlot {
                min: 1e-18,
                q1: 1e-16,
                median: 1e-15,
                q3: 1e-14,
                max: 1e-11,
            },
            mean_ber: 1e-13,
        };
        assert!(measurement.ber.q1 < 1e-12 && measurement.ber.q3 < 1e-12);
        assert!(!measurement.is_error_free());

        // And once the max itself clears the threshold, the channel is
        // error-free again.
        let clean = ChannelMeasurement {
            ber: BoxPlot {
                max: 9e-13,
                ..measurement.ber
            },
            ..measurement
        };
        assert!(clean.is_error_free());
    }
}
