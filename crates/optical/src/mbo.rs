//! Silicon-photonics mid-board optics (MBO).
//!
//! Each brick's physical ports attach to a different channel of a
//! multi-channel SiP MBO. The module used in the prototype has eight
//! transceivers with external modulation and a shared laser at 1310 nm; each
//! channel launches −3.7 dBm on average.

use serde::{Deserialize, Serialize};

use dredbox_sim::units::{Bandwidth, DecibelMilliwatts};

/// One transceiver channel of the MBO.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MboChannel {
    index: u8,
    launch_power: DecibelMilliwatts,
    rate: Bandwidth,
}

impl MboChannel {
    /// Creates a channel.
    pub(crate) fn new(index: u8, launch_power: DecibelMilliwatts, rate: Bandwidth) -> Self {
        MboChannel {
            index,
            launch_power,
            rate,
        }
    }

    /// Channel index within the MBO (0-based; the paper numbers them 1–8).
    pub fn index(&self) -> u8 {
        self.index
    }

    /// Optical launch power of the channel.
    pub fn launch_power(&self) -> DecibelMilliwatts {
        self.launch_power
    }
}

/// A multi-channel SiP mid-board optics module.
///
/// ```
/// use dredbox_optical::MidBoardOptics;
///
/// let mbo = MidBoardOptics::dredbox_default();
/// assert_eq!(mbo.channel_count(), 8);
/// assert_eq!(mbo.wavelength_nm(), 1310);
/// assert!((mbo.mean_launch_power().as_dbm() - -3.7).abs() < 0.2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MidBoardOptics {
    channels: Vec<MboChannel>,
    wavelength_nm: u32,
}

impl MidBoardOptics {
    /// The prototype MBO: 8 channels, shared 1310 nm laser, 10 Gb/s per
    /// channel, −3.7 dBm average launch power with a small per-channel
    /// spread from the shared-laser splitting ratio.
    pub fn dredbox_default() -> Self {
        // Deterministic per-channel launch-power spread of ±0.3 dB around the
        // −3.7 dBm average reported in the paper.
        let spread = [-0.3, -0.2, -0.1, 0.0, 0.0, 0.1, 0.2, 0.3];
        let channels = (0..8u8)
            .map(|i| {
                MboChannel::new(
                    i,
                    DecibelMilliwatts::new(-3.7 + spread[usize::from(i)]),
                    Bandwidth::from_gbps(10.0),
                )
            })
            .collect();
        MidBoardOptics {
            channels,
            wavelength_nm: 1310,
        }
    }

    /// Builds an MBO with custom channels.
    #[cfg(test)]
    pub(crate) fn new(channels: Vec<MboChannel>, wavelength_nm: u32) -> Self {
        MidBoardOptics {
            channels,
            wavelength_nm,
        }
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// A channel by 0-based index.
    pub fn channel(&self, index: u8) -> Option<&MboChannel> {
        self.channels.get(usize::from(index))
    }

    /// Iterates over all channels.
    pub fn channels(&self) -> impl Iterator<Item = &MboChannel> {
        self.channels.iter()
    }

    /// Shared laser wavelength in nanometres.
    pub fn wavelength_nm(&self) -> u32 {
        self.wavelength_nm
    }

    /// Average launch power across channels.
    pub fn mean_launch_power(&self) -> DecibelMilliwatts {
        let sum: f64 = self
            .channels
            .iter()
            .map(|c| c.launch_power().as_dbm())
            .sum();
        DecibelMilliwatts::new(sum / self.channels.len().max(1) as f64)
    }
}

impl Default for MidBoardOptics {
    fn default() -> Self {
        MidBoardOptics::dredbox_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mbo_matches_paper() {
        let mbo = MidBoardOptics::dredbox_default();
        assert_eq!(mbo.channel_count(), 8);
        assert_eq!(mbo.wavelength_nm(), 1310);
        assert!((mbo.mean_launch_power().as_dbm() - -3.7).abs() < 1e-9);
        for c in mbo.channels() {
            assert_eq!(c.rate.as_gbps(), 10.0);
            assert!((c.launch_power().as_dbm() - -3.7).abs() <= 0.3 + 1e-9);
        }
        assert!(mbo.channel(0).is_some());
        assert!(mbo.channel(8).is_none());
        assert_eq!(mbo.channel(3).unwrap().index(), 3);
    }

    #[test]
    fn custom_mbo() {
        let mbo = MidBoardOptics::new(
            vec![MboChannel::new(
                0,
                DecibelMilliwatts::new(-2.0),
                Bandwidth::from_gbps(25.0),
            )],
            1550,
        );
        assert_eq!(mbo.channel_count(), 1);
        assert_eq!(mbo.wavelength_nm(), 1550);
        assert_eq!(mbo.mean_launch_power().as_dbm(), -2.0);
        assert_eq!(MidBoardOptics::default(), MidBoardOptics::dredbox_default());
    }
}
