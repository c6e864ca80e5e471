//! Strongly-typed quantities shared by the hardware models.
//!
//! The dReDBox evaluation mixes several unit families: memory capacities
//! (GiB), link bandwidths (10 Gb/s transceivers), optical power (dBm/mW, the
//! MBO launches −3.7 dBm per channel) and electrical power (the optical switch
//! draws ~100 mW/port). Newtypes keep them from being confused.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

use serde::{Deserialize, Serialize};

use crate::time::SimDuration;

/// A memory or transfer size in bytes.
///
/// ```
/// use dredbox_sim::units::ByteSize;
/// let total = ByteSize::from_gib(2) + ByteSize::from_mib(512);
/// assert_eq!(total.as_mib(), 2_560);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// From raw bytes.
    pub const fn from_bytes(bytes: u64) -> Self {
        ByteSize(bytes)
    }

    /// From kibibytes.
    #[cfg(test)]
    pub(crate) const fn from_kib(kib: u64) -> Self {
        ByteSize(kib << 10)
    }

    /// From mebibytes.
    pub const fn from_mib(mib: u64) -> Self {
        ByteSize(mib << 20)
    }

    /// From gibibytes.
    pub const fn from_gib(gib: u64) -> Self {
        ByteSize(gib << 30)
    }

    /// Raw byte count.
    pub const fn as_bytes(self) -> u64 {
        self.0
    }

    /// Whole mebibytes (truncating).
    pub const fn as_mib(self) -> u64 {
        self.0 >> 20
    }

    /// Whole gibibytes (truncating).
    pub const fn as_gib(self) -> u64 {
        self.0 >> 30
    }

    /// Gibibytes as a float.
    pub fn as_gib_f64(self) -> f64 {
        self.0 as f64 / (1u64 << 30) as f64
    }

    /// Whether this is zero bytes.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction; `None` if `rhs > self`.
    #[cfg(test)]
    pub(crate) fn checked_sub(self, rhs: ByteSize) -> Option<ByteSize> {
        self.0.checked_sub(rhs.0).map(ByteSize)
    }

    /// Integer multiple of this size.
    pub fn saturating_mul(self, factor: u64) -> ByteSize {
        ByteSize(self.0.saturating_mul(factor))
    }

    /// The smaller of two sizes.
    #[cfg(test)]
    pub(crate) fn min(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.min(other.0))
    }

    /// The larger of two sizes.
    #[cfg(test)]
    pub(crate) fn max(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.max(other.0))
    }

    /// Number of `chunk`-sized pieces needed to cover this size, rounding up.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn div_ceil_by(self, chunk: ByteSize) -> u64 {
        assert!(!chunk.is_zero(), "chunk size must be non-zero");
        self.0.div_ceil(chunk.0)
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 - rhs.0)
    }
}

impl SubAssign for ByteSize {
    fn sub_assign(&mut self, rhs: ByteSize) {
        self.0 -= rhs.0;
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> Self {
        iter.fold(ByteSize::ZERO, |acc, b| acc + b)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= 1 << 30 {
            write!(f, "{:.2} GiB", self.as_gib_f64())
        } else if b >= 1 << 20 {
            write!(f, "{:.2} MiB", b as f64 / (1u64 << 20) as f64)
        } else if b >= 1 << 10 {
            write!(f, "{:.2} KiB", b as f64 / 1024.0)
        } else {
            write!(f, "{b} B")
        }
    }
}

/// A link bandwidth, stored in bits per second.
///
/// ```
/// use dredbox_sim::units::{Bandwidth, ByteSize};
/// let link = Bandwidth::from_gbps(10.0);
/// let t = link.transfer_time(ByteSize::from_bytes(125)); // 1000 bits
/// assert_eq!(t.as_nanos(), 100);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// From bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is not finite or is negative.
    pub(crate) fn from_bps(bps: f64) -> Self {
        assert!(
            bps.is_finite() && bps >= 0.0,
            "bandwidth must be finite and non-negative"
        );
        Bandwidth(bps)
    }

    /// From gigabits per second.
    pub fn from_gbps(gbps: f64) -> Self {
        Self::from_bps(gbps * 1e9)
    }

    /// Bits per second.
    pub fn as_bps(self) -> f64 {
        self.0
    }

    /// Gigabits per second.
    pub fn as_gbps(self) -> f64 {
        self.0 / 1e9
    }

    /// Serialization time of `size` at this rate.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is zero.
    pub fn transfer_time(self, size: ByteSize) -> SimDuration {
        assert!(self.0 > 0.0, "cannot transfer over a zero-bandwidth link");
        let bits = size.as_bytes() as f64 * 8.0;
        SimDuration::from_nanos_f64(bits / self.0 * 1e9)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} Gb/s", self.as_gbps())
    }
}

/// Optical power in dBm (decibels referenced to 1 mW).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct DecibelMilliwatts(f64);

impl DecibelMilliwatts {
    /// From a dBm value.
    ///
    /// # Panics
    ///
    /// Panics if `dbm` is not finite.
    pub fn new(dbm: f64) -> Self {
        assert!(dbm.is_finite(), "optical power must be finite");
        DecibelMilliwatts(dbm)
    }

    /// The dBm value.
    pub fn as_dbm(self) -> f64 {
        self.0
    }

    /// Attenuates by `loss_db` decibels (insertion loss of a switch hop,
    /// connector, or fibre span).
    ///
    /// # Panics
    ///
    /// Panics if `loss_db` is negative or not finite.
    pub fn attenuate(self, loss_db: f64) -> DecibelMilliwatts {
        assert!(
            loss_db.is_finite() && loss_db >= 0.0,
            "loss must be finite and non-negative"
        );
        DecibelMilliwatts(self.0 - loss_db)
    }
}

impl fmt::Display for DecibelMilliwatts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dBm", self.0)
    }
}

/// Electrical power draw in watts, used by the TCO study's energy model.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Watts(f64);

impl Watts {
    /// Zero watts.
    pub const ZERO: Watts = Watts(0.0);

    /// From a watt value.
    ///
    /// # Panics
    ///
    /// Panics if `w` is negative or not finite.
    pub fn new(w: f64) -> Self {
        assert!(
            w.is_finite() && w >= 0.0,
            "power must be finite and non-negative"
        );
        Watts(w)
    }

    /// The watt value.
    pub fn as_watts(self) -> f64 {
        self.0
    }

    /// Scales by a dimensionless factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scale(self, factor: f64) -> Watts {
        Watts::new(self.0 * factor)
    }
}

impl Add for Watts {
    type Output = Watts;
    fn add(self, rhs: Watts) -> Watts {
        Watts(self.0 + rhs.0)
    }
}

impl AddAssign for Watts {
    fn add_assign(&mut self, rhs: Watts) {
        self.0 += rhs.0;
    }
}

impl Sum for Watts {
    fn sum<I: Iterator<Item = Watts>>(iter: I) -> Self {
        iter.fold(Watts::ZERO, |acc, w| acc + w)
    }
}

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} W", self.0)
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_newtype!(ByteSize(u64));
dredbox_snap::snap_newtype!(Bandwidth(f64));
dredbox_snap::snap_newtype!(DecibelMilliwatts(f64));
dredbox_snap::snap_newtype!(Watts(f64));

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn byte_size_constructors() {
        assert_eq!(ByteSize::from_kib(1).as_bytes(), 1024);
        assert_eq!(ByteSize::from_mib(1).as_bytes(), 1 << 20);
        assert_eq!(ByteSize::from_gib(1).as_mib(), 1024);
        assert_eq!(ByteSize::from_gib(3).as_gib(), 3);
    }

    #[test]
    fn byte_size_arithmetic() {
        let a = ByteSize::from_mib(100);
        let b = ByteSize::from_mib(30);
        assert_eq!((a - b).as_mib(), 70);
        assert_eq!(a.saturating_sub(ByteSize::from_gib(1)), ByteSize::ZERO);
        assert_eq!(a.checked_sub(ByteSize::from_gib(1)), None);
        assert_eq!(b.checked_sub(ByteSize::from_mib(30)), Some(ByteSize::ZERO));
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(b), a);
        let total: ByteSize = [a, b].into_iter().sum();
        assert_eq!(total.as_mib(), 130);
    }

    #[test]
    fn div_ceil_counts_chunks() {
        let size = ByteSize::from_gib(3);
        let section = ByteSize::from_gib(1);
        assert_eq!(size.div_ceil_by(section), 3);
        assert_eq!((size + ByteSize::from_bytes(1)).div_ceil_by(section), 4);
    }

    #[test]
    fn byte_size_display() {
        assert_eq!(ByteSize::from_bytes(12).to_string(), "12 B");
        assert_eq!(ByteSize::from_kib(2).to_string(), "2.00 KiB");
        assert_eq!(ByteSize::from_mib(3).to_string(), "3.00 MiB");
        assert_eq!(ByteSize::from_gib(4).to_string(), "4.00 GiB");
    }

    #[test]
    fn bandwidth_transfer_time() {
        let bw = Bandwidth::from_gbps(10.0);
        assert_eq!(bw.as_gbps(), 10.0);
        // 64-byte memory transaction payload = 512 bits -> 51.2 ns at 10 Gb/s.
        let t = bw.transfer_time(ByteSize::from_bytes(64));
        assert_eq!(t.as_nanos(), 51);
        assert_eq!(bw.to_string(), "10.00 Gb/s");
    }

    /// `p` in linear milliwatts.
    fn to_mw(p: DecibelMilliwatts) -> f64 {
        10f64.powf(p.as_dbm() / 10.0)
    }

    /// `mw` milliwatts in dBm; zero power is clamped to 1e-12 mW first.
    fn to_dbm(mw: f64) -> DecibelMilliwatts {
        DecibelMilliwatts::new(10.0 * mw.max(1e-12).log10())
    }

    #[test]
    fn dbm_mw_roundtrip() {
        let p = DecibelMilliwatts::new(-3.7);
        let mw = to_mw(p);
        assert!((mw - 0.4266).abs() < 1e-3);
        let back = to_dbm(mw);
        assert!((back.as_dbm() - -3.7).abs() < 1e-9);
    }

    #[test]
    fn attenuation_subtracts_decibels() {
        let launch = DecibelMilliwatts::new(-3.7);
        // Eight hops through the Polatis switch at ~1 dB each.
        let received = launch.attenuate(8.0);
        assert!((received.as_dbm() - -11.7).abs() < 1e-9);
        assert!(to_mw(received) < to_mw(launch));
    }

    #[test]
    fn watts_sum_and_scale() {
        let total: Watts = [Watts::new(10.0), Watts::new(5.5)].into_iter().sum();
        assert!((total.as_watts() - 15.5).abs() < 1e-12);
        assert!((total.scale(2.0).as_watts() - 31.0).abs() < 1e-12);
        assert_eq!(Watts::new(3.0).to_string(), "3.0 W");
    }

    #[test]
    #[should_panic]
    fn negative_watts_rejected() {
        let _ = Watts::new(-1.0);
    }

    #[test]
    #[should_panic]
    fn negative_attenuation_rejected() {
        let _ = DecibelMilliwatts::new(0.0).attenuate(-1.0);
    }

    proptest! {
        #[test]
        fn dbm_mw_roundtrip_prop(dbm in -60.0f64..20.0) {
            let p = DecibelMilliwatts::new(dbm);
            let rt = to_dbm(to_mw(p));
            prop_assert!((rt.as_dbm() - dbm).abs() < 1e-6);
        }

        #[test]
        fn transfer_time_scales_linearly(bytes in 1u64..1_000_000) {
            let bw = Bandwidth::from_gbps(10.0);
            let one = bw.transfer_time(ByteSize::from_bytes(bytes));
            let two = bw.transfer_time(ByteSize::from_bytes(bytes * 2));
            // Allow 1 ns of rounding slack.
            prop_assert!((two.as_nanos() as i64 - 2 * one.as_nanos() as i64).abs() <= 1);
        }

        #[test]
        fn byte_size_add_sub_roundtrip(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
            let x = ByteSize::from_bytes(a);
            let y = ByteSize::from_bytes(b);
            prop_assert_eq!((x + y) - y, x);
        }
    }
}
