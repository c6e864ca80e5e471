//! Optical link budgets.
//!
//! A [`LinkBudget`] accumulates the losses between a transmitting MBO channel
//! and the receiver on the far brick: switch hops (~1 dB each in the Polatis
//! module), connector losses and fibre attenuation. It also accounts for
//! propagation delay, which appears as the "optical path" slice of the
//! Figure 8 latency breakdown.

use serde::{Deserialize, Serialize};

use dredbox_sim::time::SimDuration;
use dredbox_sim::units::DecibelMilliwatts;

use crate::switch::OpticalCircuitSwitch;

/// Speed of light in standard single-mode fibre, metres per second
/// (group index ≈ 1.468).
const FIBRE_LIGHT_SPEED_M_PER_S: f64 = 2.04e8;

/// Typical per-connector insertion loss in dB.
const CONNECTOR_LOSS_DB: f64 = 0.25;

/// Fibre attenuation at 1310 nm, dB per kilometre.
const FIBRE_LOSS_DB_PER_KM: f64 = 0.35;

/// An accumulating optical link budget.
///
/// ```
/// use dredbox_optical::LinkBudget;
/// use dredbox_optical::OpticalCircuitSwitch;
/// use dredbox_sim::units::DecibelMilliwatts;
///
/// let sw = OpticalCircuitSwitch::polatis_48();
/// let link = LinkBudget::new(DecibelMilliwatts::new(-3.7))
///     .with_switch_hops(&sw, 8)
///     .with_connectors(2)
///     .with_fibre_metres(30.0);
/// // -3.7 dBm - 8 dB - 0.5 dB - ~0.01 dB ≈ -12.2 dBm
/// assert!(link.received_power().as_dbm() < -12.0);
/// assert!(link.propagation_delay().as_nanos() > 100);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkBudget {
    launch_power: DecibelMilliwatts,
    switch_hops: u32,
    hop_loss_db: f64,
    connectors: u32,
    fibre_metres: f64,
}

impl LinkBudget {
    /// Starts a budget from the transmitter launch power, with no losses.
    pub fn new(launch_power: DecibelMilliwatts) -> Self {
        LinkBudget {
            launch_power,
            switch_hops: 0,
            hop_loss_db: 0.0,
            connectors: 0,
            fibre_metres: 0.0,
        }
    }

    /// Adds `hops` traversals of `switch` (each costing its insertion loss).
    pub fn with_switch_hops(mut self, switch: &OpticalCircuitSwitch, hops: u32) -> Self {
        self.switch_hops = hops;
        self.hop_loss_db = switch.insertion_loss_db();
        self
    }

    /// Adds `count` connector transitions.
    pub fn with_connectors(mut self, count: u32) -> Self {
        self.connectors = count;
        self
    }

    /// Adds `metres` of single-mode fibre.
    ///
    /// # Panics
    ///
    /// Panics if `metres` is negative or not finite.
    pub fn with_fibre_metres(mut self, metres: f64) -> Self {
        assert!(
            metres.is_finite() && metres >= 0.0,
            "fibre length must be finite and non-negative"
        );
        self.fibre_metres = metres;
        self
    }

    /// The launch power the budget started from.
    #[cfg(test)]
    pub(crate) fn launch_power(&self) -> DecibelMilliwatts {
        self.launch_power
    }

    /// Number of switch hops in the path.
    pub(crate) fn switch_hops(&self) -> u32 {
        self.switch_hops
    }

    /// Total path loss in dB.
    pub(crate) fn total_loss_db(&self) -> f64 {
        f64::from(self.switch_hops) * self.hop_loss_db
            + f64::from(self.connectors) * CONNECTOR_LOSS_DB
            + self.fibre_metres / 1_000.0 * FIBRE_LOSS_DB_PER_KM
    }

    /// Optical power arriving at the receiver.
    pub fn received_power(&self) -> DecibelMilliwatts {
        self.launch_power.attenuate(self.total_loss_db())
    }

    /// One-way propagation delay through the fibre.
    pub fn propagation_delay(&self) -> SimDuration {
        SimDuration::from_nanos_f64(self.fibre_metres / FIBRE_LIGHT_SPEED_M_PER_S * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn switch() -> OpticalCircuitSwitch {
        OpticalCircuitSwitch::polatis_48()
    }

    #[test]
    fn loss_accumulates_per_element() {
        let link = LinkBudget::new(DecibelMilliwatts::new(-3.7))
            .with_switch_hops(&switch(), 8)
            .with_connectors(2)
            .with_fibre_metres(1_000.0);
        let loss = link.total_loss_db();
        assert!((loss - (8.0 + 0.5 + 0.35)).abs() < 1e-9);
        assert!((link.received_power().as_dbm() - (-3.7 - loss)).abs() < 1e-9);
        assert_eq!(link.switch_hops(), 8);
        assert_eq!(link.launch_power().as_dbm(), -3.7);
    }

    #[test]
    fn paper_channels_land_in_expected_power_window() {
        // Channel traversing eight hops: received power ≈ -11.7 dBm; six
        // hops: ≈ -9.7 dBm (Figure 7 x-axis range).
        let eight = LinkBudget::new(DecibelMilliwatts::new(-3.7)).with_switch_hops(&switch(), 8);
        let six = LinkBudget::new(DecibelMilliwatts::new(-3.7)).with_switch_hops(&switch(), 6);
        assert!((eight.received_power().as_dbm() - -11.7).abs() < 1e-9);
        assert!((six.received_power().as_dbm() - -9.7).abs() < 1e-9);
        assert!(six.received_power().as_dbm() > eight.received_power().as_dbm());
    }

    #[test]
    fn propagation_delay_is_about_5ns_per_metre() {
        let link = LinkBudget::new(DecibelMilliwatts::new(0.0)).with_fibre_metres(10.0);
        let ns = link.propagation_delay().as_nanos();
        assert!(
            (48..=50).contains(&ns),
            "10 m of fibre should be ~49 ns, got {ns}"
        );
        let zero = LinkBudget::new(DecibelMilliwatts::new(0.0));
        assert_eq!(zero.propagation_delay(), SimDuration::ZERO);
    }

    #[test]
    #[should_panic]
    fn negative_fibre_length_rejected() {
        let _ = LinkBudget::new(DecibelMilliwatts::new(0.0)).with_fibre_metres(-1.0);
    }

    proptest! {
        #[test]
        fn more_hops_means_less_power(hops_a in 0u32..16, hops_b in 0u32..16) {
            let a = LinkBudget::new(DecibelMilliwatts::new(-3.7)).with_switch_hops(&switch(), hops_a);
            let b = LinkBudget::new(DecibelMilliwatts::new(-3.7)).with_switch_hops(&switch(), hops_b);
            if hops_a < hops_b {
                prop_assert!(a.received_power().as_dbm() > b.received_power().as_dbm());
            } else if hops_a == hops_b {
                prop_assert!((a.received_power().as_dbm() - b.received_power().as_dbm()).abs() < 1e-12);
            }
        }

        #[test]
        fn delay_scales_with_length(metres in 0.0f64..10_000.0) {
            let link = LinkBudget::new(DecibelMilliwatts::new(0.0)).with_fibre_metres(metres);
            let expected = metres / 2.04e8 * 1e9;
            prop_assert!((link.propagation_delay().as_nanos() as f64 - expected).abs() <= 1.0);
        }
    }
}
