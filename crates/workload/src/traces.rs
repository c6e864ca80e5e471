//! Arrival processes and load patterns.

use serde::{Deserialize, Serialize};

use dredbox_sim::rng::SimRng;
use dredbox_sim::time::{SimDuration, SimTime};

/// A Poisson arrival trace: requests arriving with exponentially distributed
/// inter-arrival times.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrivalTrace {
    /// Mean inter-arrival time.
    pub mean_interarrival: SimDuration,
}

impl ArrivalTrace {
    /// Creates a trace with the given mean inter-arrival time.
    ///
    /// # Panics
    ///
    /// Panics if the mean is zero.
    pub fn new(mean_interarrival: SimDuration) -> Self {
        assert!(
            mean_interarrival.as_nanos() > 0,
            "mean inter-arrival must be positive"
        );
        ArrivalTrace { mean_interarrival }
    }

    /// Generates `count` arrival instants starting from time zero.
    pub fn generate(&self, count: usize, rng: &mut SimRng) -> Vec<SimTime> {
        let mut now = SimTime::ZERO;
        (0..count)
            .map(|_| {
                let gap = rng.exponential(self.mean_interarrival.as_secs_f64());
                now += SimDuration::from_secs_f64(gap);
                now
            })
            .collect()
    }

    /// Generates `count` arrivals from a Poisson process whose instantaneous
    /// rate follows `pattern` (thinning): the configured mean inter-arrival
    /// time holds at the pattern's peak hour and stretches as load drops
    /// towards the trough.
    pub fn generate_diurnal(
        &self,
        count: usize,
        pattern: &DiurnalPattern,
        rng: &mut SimRng,
    ) -> Vec<SimTime> {
        let mut now = SimTime::ZERO;
        let mut arrivals = Vec::with_capacity(count);
        while arrivals.len() < count {
            let gap = rng.exponential(self.mean_interarrival.as_secs_f64());
            now += SimDuration::from_secs_f64(gap);
            let accept = if pattern.peak > 0.0 {
                pattern.load_at(now) / pattern.peak
            } else {
                1.0
            };
            if rng.chance(accept) {
                arrivals.push(now);
            }
        }
        arrivals
    }
}

/// A bursty arrival trace: groups of near-simultaneous arrivals separated by
/// quiet gaps, the traffic shape of the network-analytics pilot where many
/// capture VMs spin up together when traffic spikes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurstTrace {
    /// Arrivals per burst.
    pub burst_size: usize,
    /// Time between the starts of consecutive bursts.
    pub gap: SimDuration,
    /// Window over which the arrivals of one burst are spread uniformly.
    pub spread: SimDuration,
}

impl BurstTrace {
    /// Creates a burst trace.
    ///
    /// # Panics
    ///
    /// Panics if `burst_size` is zero or `gap` is zero.
    pub fn new(burst_size: usize, gap: SimDuration, spread: SimDuration) -> Self {
        assert!(burst_size > 0, "bursts must contain at least one arrival");
        assert!(gap.as_nanos() > 0, "burst gap must be positive");
        BurstTrace {
            burst_size,
            gap,
            spread,
        }
    }

    /// Generates `count` arrival instants in bursts starting at time zero,
    /// sorted ascending.
    pub fn generate(&self, count: usize, rng: &mut SimRng) -> Vec<SimTime> {
        let mut arrivals = Vec::with_capacity(count);
        let mut burst_start = SimTime::ZERO;
        while arrivals.len() < count {
            for _ in 0..self.burst_size {
                if arrivals.len() == count {
                    break;
                }
                let jitter = if self.spread.as_nanos() == 0 {
                    SimDuration::ZERO
                } else {
                    SimDuration::from_nanos(rng.range(0..=self.spread.as_nanos()))
                };
                arrivals.push(burst_start + jitter);
            }
            burst_start += self.gap;
        }
        arrivals.sort_unstable();
        arrivals
    }
}

/// Exponentially distributed VM lifetimes with a floor, used to schedule
/// departures when replaying an arrival trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LifetimeModel {
    /// Mean of the exponential lifetime distribution.
    pub mean: SimDuration,
    /// Minimum lifetime; samples below it are clamped up.
    pub floor: SimDuration,
}

impl LifetimeModel {
    /// Creates a lifetime model.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is zero.
    pub fn new(mean: SimDuration, floor: SimDuration) -> Self {
        assert!(mean.as_nanos() > 0, "mean lifetime must be positive");
        LifetimeModel { mean, floor }
    }

    /// Samples one lifetime.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        let secs = rng.exponential(self.mean.as_secs_f64());
        SimDuration::from_secs_f64(secs).max(self.floor)
    }
}

/// A 24-hour diurnal load pattern, as exhibited by the NFV pilot ("very low
/// load at night and peaks during day hours").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiurnalPattern {
    /// Load level at the nightly trough, in `[0, 1]`.
    pub trough: f64,
    /// Load level at the daily peak, in `[0, 1]`.
    pub peak: f64,
    /// Hour of day (0–23) at which the peak occurs.
    pub peak_hour: f64,
}

impl DiurnalPattern {
    /// A typical edge-computing pattern: 10% load at night, 100% at 15:00.
    pub fn nfv_default() -> Self {
        DiurnalPattern {
            trough: 0.1,
            peak: 1.0,
            peak_hour: 15.0,
        }
    }

    /// Creates a pattern.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= trough <= peak <= 1` and `peak_hour` is within
    /// `[0, 24)`.
    #[cfg(test)]
    pub(crate) fn new(trough: f64, peak: f64, peak_hour: f64) -> Self {
        assert!((0.0..=1.0).contains(&trough) && (0.0..=1.0).contains(&peak) && trough <= peak);
        assert!((0.0..24.0).contains(&peak_hour));
        DiurnalPattern {
            trough,
            peak,
            peak_hour,
        }
    }

    /// Relative load level in `[trough, peak]` at `hour` (fractional hours
    /// are fine; values wrap modulo 24).
    pub(crate) fn load_at_hour(&self, hour: f64) -> f64 {
        let hour = hour.rem_euclid(24.0);
        let phase = (hour - self.peak_hour) / 24.0 * std::f64::consts::TAU;
        let normalized = (phase.cos() + 1.0) / 2.0; // 1 at the peak hour, 0 twelve hours away
        self.trough + (self.peak - self.trough) * normalized
    }

    /// Load level at an absolute simulation time (time zero = midnight).
    pub(crate) fn load_at(&self, time: SimTime) -> f64 {
        self.load_at_hour(time.as_secs_f64() / 3_600.0)
    }
}

impl Default for DiurnalPattern {
    fn default() -> Self {
        DiurnalPattern::nfv_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn arrivals_are_monotone_and_plausible() {
        let trace = ArrivalTrace::new(SimDuration::from_secs(10));
        let mut rng = SimRng::seed(5);
        let arrivals = trace.generate(500, &mut rng);
        assert_eq!(arrivals.len(), 500);
        for pair in arrivals.windows(2) {
            assert!(pair[1] >= pair[0]);
        }
        // Mean inter-arrival should be near 10 s.
        let total = arrivals.last().unwrap().as_secs_f64();
        let mean = total / 500.0;
        assert!((mean - 10.0).abs() < 1.5, "observed mean {mean}");
    }

    #[test]
    #[should_panic]
    fn zero_interarrival_rejected() {
        let _ = ArrivalTrace::new(SimDuration::ZERO);
    }

    #[test]
    fn diurnal_pattern_peaks_at_peak_hour() {
        let p = DiurnalPattern::nfv_default();
        let at_peak = p.load_at_hour(15.0);
        let at_night = p.load_at_hour(3.0);
        assert!((at_peak - 1.0).abs() < 1e-9);
        assert!((at_night - 0.1).abs() < 1e-9);
        assert!(p.load_at_hour(12.0) > p.load_at_hour(4.0));
        // Wrapping.
        assert!((p.load_at_hour(27.0) - p.load_at_hour(3.0)).abs() < 1e-9);
        // Absolute time: 15 hours after midnight.
        assert!((p.load_at(dredbox_sim::time::SimTime::from_secs(15 * 3600)) - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn invalid_pattern_rejected() {
        let _ = DiurnalPattern::new(0.8, 0.2, 12.0);
    }

    #[test]
    fn diurnal_arrivals_are_sparser_than_the_peak_rate() {
        let trace = ArrivalTrace::new(SimDuration::from_secs(10));
        let pattern = DiurnalPattern::nfv_default();
        let mut rng = SimRng::seed(11);
        let arrivals = trace.generate_diurnal(400, &pattern, &mut rng);
        assert_eq!(arrivals.len(), 400);
        for pair in arrivals.windows(2) {
            assert!(pair[1] >= pair[0]);
        }
        // Thinning stretches the observed mean beyond the at-peak mean.
        let mean = arrivals.last().unwrap().as_secs_f64() / 400.0;
        assert!(mean > 10.0, "observed mean {mean} not thinned");
        // Determinism: same seed, same trace.
        let again = trace.generate_diurnal(400, &pattern, &mut SimRng::seed(11));
        assert_eq!(arrivals, again);
    }

    #[test]
    fn burst_trace_groups_arrivals() {
        let trace = BurstTrace::new(8, SimDuration::from_secs(300), SimDuration::from_secs(5));
        let mut rng = SimRng::seed(3);
        let arrivals = trace.generate(24, &mut rng);
        assert_eq!(arrivals.len(), 24);
        for pair in arrivals.windows(2) {
            assert!(pair[1] >= pair[0]);
        }
        // Three bursts of eight: each burst stays inside its spread window.
        for (i, chunk) in arrivals.chunks(8).enumerate() {
            let start = 300.0 * i as f64;
            for t in chunk {
                let secs = t.as_secs_f64();
                assert!(
                    secs >= start && secs <= start + 5.0,
                    "arrival at {secs} escaped burst {i}"
                );
            }
        }
        assert_eq!(arrivals, trace.generate(24, &mut SimRng::seed(3)));
    }

    #[test]
    #[should_panic]
    fn empty_burst_rejected() {
        let _ = BurstTrace::new(0, SimDuration::from_secs(1), SimDuration::ZERO);
    }

    #[test]
    fn lifetimes_respect_the_floor() {
        let model = LifetimeModel::new(SimDuration::from_secs(600), SimDuration::from_secs(60));
        let mut rng = SimRng::seed(9);
        let mut total = 0.0;
        for _ in 0..2_000 {
            let life = model.sample(&mut rng);
            assert!(life >= SimDuration::from_secs(60));
            total += life.as_secs_f64();
        }
        let mean = total / 2_000.0;
        assert!((mean - 600.0).abs() < 80.0, "observed mean {mean}");
    }

    proptest! {
        #[test]
        fn load_is_always_within_bounds(hour in -50.0f64..50.0) {
            let p = DiurnalPattern::nfv_default();
            let load = p.load_at_hour(hour);
            prop_assert!(load >= p.trough - 1e-9 && load <= p.peak + 1e-9);
        }

        #[test]
        fn burst_trace_yields_requested_count(size in 1usize..10, count in 0usize..40) {
            let trace = BurstTrace::new(size, SimDuration::from_secs(60), SimDuration::from_secs(2));
            let mut rng = SimRng::seed(1);
            prop_assert_eq!(trace.generate(count, &mut rng).len(), count);
        }
    }
}
