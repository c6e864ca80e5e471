//! Forward-error-correction modes and their latency cost.
//!
//! The dReDBox architecture requires a *FEC-free* optical interface between
//! bricks: FEC encoding/decoding can add more than 100 ns of latency, which
//! is unacceptable when the whole remote-memory round trip is only a few
//! hundred nanoseconds. This module models the trade-off so the ablation
//! bench can quantify it: FEC buys coding gain (a lower effective BER at a
//! given received power) at the cost of added latency per direction.

use serde::{Deserialize, Serialize};

use dredbox_sim::time::SimDuration;
use dredbox_sim::units::DecibelMilliwatts;

use crate::ber::ReceiverModel;

/// Forward-error-correction operating mode of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum FecMode {
    /// No FEC — the dReDBox baseline. Zero added latency, zero coding gain.
    #[default]
    None,
    /// IEEE 802.3 "fire-code" / BASE-R style FEC: modest gain, moderate latency.
    BaseR,
    /// Reed-Solomon RS(528,514) (clause 91 "KR4"): stronger gain, higher latency.
    Rs528,
    /// Reed-Solomon RS(544,514) (clause 134 "KP4"): strongest gain, highest latency.
    Rs544,
}

impl FecMode {
    /// All modes, in increasing order of strength.
    pub const ALL: [FecMode; 4] = [
        FecMode::None,
        FecMode::BaseR,
        FecMode::Rs528,
        FecMode::Rs544,
    ];

    /// Added latency per traversal (encode or decode side combined), as the
    /// paper argues this is >100 ns for real FEC implementations.
    pub fn added_latency(self) -> SimDuration {
        match self {
            FecMode::None => SimDuration::ZERO,
            FecMode::BaseR => SimDuration::from_nanos(120),
            FecMode::Rs528 => SimDuration::from_nanos(180),
            FecMode::Rs544 => SimDuration::from_nanos(250),
        }
    }

    /// Net coding gain in dB: the link behaves as if the received power were
    /// this much higher when computing the post-FEC error rate.
    pub(crate) fn coding_gain_db(self) -> f64 {
        match self {
            FecMode::None => 0.0,
            FecMode::BaseR => 2.0,
            FecMode::Rs528 => 5.0,
            FecMode::Rs544 => 6.5,
        }
    }

    /// Post-FEC bit error rate at the given received power.
    pub fn effective_ber(self, receiver: &ReceiverModel, received: DecibelMilliwatts) -> f64 {
        let boosted = DecibelMilliwatts::new(received.as_dbm() + self.coding_gain_db());
        receiver.ber(boosted)
    }
}

impl std::fmt::Display for FecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FecMode::None => f.write_str("FEC-free"),
            FecMode::BaseR => f.write_str("BASE-R FEC"),
            FecMode::Rs528 => f.write_str("RS(528,514)"),
            FecMode::Rs544 => f.write_str("RS(544,514)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dredbox_baseline_is_fec_free() {
        assert_eq!(FecMode::default(), FecMode::None);
        assert_eq!(FecMode::None.added_latency(), SimDuration::ZERO);
        assert_eq!(FecMode::None.coding_gain_db(), 0.0);
    }

    #[test]
    fn real_fec_adds_more_than_100ns() {
        for mode in [FecMode::BaseR, FecMode::Rs528, FecMode::Rs544] {
            assert!(
                mode.added_latency().as_nanos() > 100,
                "{mode} should cost >100 ns as argued in the paper"
            );
        }
    }

    #[test]
    fn stronger_fec_gives_lower_ber_but_more_latency() {
        let rx = ReceiverModel::dredbox_default();
        let weak_power = DecibelMilliwatts::new(-17.0);
        let mut last_ber = f64::INFINITY;
        let mut last_latency = SimDuration::ZERO;
        for (i, mode) in FecMode::ALL.iter().enumerate() {
            let ber = mode.effective_ber(&rx, weak_power);
            let lat = mode.added_latency();
            if i > 0 {
                assert!(ber < last_ber, "{mode} should improve BER");
                assert!(lat > last_latency, "{mode} should cost more latency");
            }
            last_ber = ber;
            last_latency = lat;
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(FecMode::None.to_string(), "FEC-free");
        assert_eq!(FecMode::Rs544.to_string(), "RS(544,514)");
        assert_eq!(FecMode::ALL.len(), 4);
    }
}
