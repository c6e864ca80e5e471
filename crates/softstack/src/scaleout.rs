//! The conventional scale-out baseline.
//!
//! Figure 10 compares dReDBox scale-up agility against "elasticity through
//! conventional VM scale-out", i.e. spawning additional VMs to give an
//! application more aggregate memory. The dominant cost there is VM startup
//! time, which the paper's reference \[13\] (Mao & Humphrey, IEEE CLOUD 2012)
//! measured at roughly 45–100 s on public clouds depending on provider,
//! image size and instance type.

use serde::{Deserialize, Serialize};

use dredbox_sim::queue::ControlPlaneQueue;
use dredbox_sim::rng::SimRng;
use dredbox_sim::time::{SimDuration, SimTime};

/// Model of how long spawning one additional VM takes in a conventional
/// cloud, plus the per-request overhead the cloud control plane adds when
/// many requests land at once.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScaleOutBaseline {
    /// Mean VM startup time.
    pub mean_startup: SimDuration,
    /// Standard deviation of the startup time.
    pub startup_std_dev: SimDuration,
    /// Minimum startup time (clamp for the sampled distribution).
    pub min_startup: SimDuration,
    /// Control-plane serialization cost per queued concurrent request
    /// (image-store and scheduler contention).
    pub per_concurrent_penalty: SimDuration,
}

impl ScaleOutBaseline {
    /// Defaults following the Mao & Humphrey measurements: 95 s mean,
    /// 20 s standard deviation, at least 40 s, and a modest 1.5 s additional
    /// queueing per concurrent request at the cloud controller.
    pub fn mao_humphrey_default() -> Self {
        ScaleOutBaseline {
            mean_startup: SimDuration::from_secs(95),
            startup_std_dev: SimDuration::from_secs(20),
            min_startup: SimDuration::from_secs(40),
            per_concurrent_penalty: SimDuration::from_millis(1_500),
        }
    }

    /// Samples the provisioning delay experienced by one of `concurrency`
    /// VMs that all request scale-out at the same time.
    pub(crate) fn provision_delay(&self, concurrency: usize, rng: &mut SimRng) -> SimDuration {
        let startup = rng.normal(
            self.mean_startup.as_secs_f64(),
            self.startup_std_dev.as_secs_f64(),
        );
        let startup = startup.max(self.min_startup.as_secs_f64());
        // Each request also waits, on average, for half of its peers at the
        // control plane before being admitted.
        let queueing = self.per_concurrent_penalty.as_secs_f64()
            * (concurrency.saturating_sub(1) as f64)
            / 2.0;
        SimDuration::from_secs_f64(startup + queueing)
    }

    /// The exact FIFO realization of one burst of `concurrency` simultaneous
    /// scale-out requests: each request queues for a
    /// [`ControlPlaneQueue`]-serialized control-plane admission slot of
    /// [`ScaleOutBaseline::per_concurrent_penalty`] (image-store and
    /// scheduler contention), then its sampled VM startup runs in parallel
    /// with its peers'. `provision_delay` is the
    /// closed-form average of this realization.
    ///
    /// Returns the per-request end-to-end delays, in admission order.
    pub fn provision_burst(&self, concurrency: usize, rng: &mut SimRng) -> Vec<SimDuration> {
        let mut queue = ControlPlaneQueue::new(SimDuration::ZERO);
        (0..concurrency)
            .map(|_| {
                let admission = queue.admit(SimTime::ZERO, self.per_concurrent_penalty);
                let startup = rng
                    .normal(
                        self.mean_startup.as_secs_f64(),
                        self.startup_std_dev.as_secs_f64(),
                    )
                    .max(self.min_startup.as_secs_f64());
                admission.queue_wait + SimDuration::from_secs_f64(startup)
            })
            .collect()
    }

    /// Average provisioning delay over a burst of `concurrency` simultaneous
    /// requests.
    pub fn average_delay(
        &self,
        concurrency: usize,
        samples: usize,
        rng: &mut SimRng,
    ) -> SimDuration {
        assert!(samples > 0, "need at least one sample");
        let total: f64 = (0..samples)
            .map(|_| self.provision_delay(concurrency, rng).as_secs_f64())
            .sum();
        SimDuration::from_secs_f64(total / samples as f64)
    }
}

impl Default for ScaleOutBaseline {
    fn default() -> Self {
        ScaleOutBaseline::mao_humphrey_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn startup_times_are_in_the_published_range() {
        let model = ScaleOutBaseline::mao_humphrey_default();
        let mut rng = SimRng::seed(1);
        for _ in 0..100 {
            let d = model.provision_delay(1, &mut rng).as_secs_f64();
            assert!(
                (40.0..=200.0).contains(&d),
                "delay {d}s outside plausible range"
            );
        }
    }

    #[test]
    fn concurrency_adds_queueing() {
        let model = ScaleOutBaseline::mao_humphrey_default();
        let lone = model.average_delay(1, 200, &mut SimRng::seed(2));
        let crowded = model.average_delay(32, 200, &mut SimRng::seed(2));
        assert!(crowded > lone);
        // 32-way burst adds ~23 s of average queueing with the default penalty.
        assert!((crowded.as_secs_f64() - lone.as_secs_f64() - 23.25).abs() < 2.0);
    }

    #[test]
    fn scale_out_is_orders_of_magnitude_slower_than_a_second() {
        let model = ScaleOutBaseline::default();
        let avg = model.average_delay(8, 100, &mut SimRng::seed(3));
        assert!(
            avg.as_secs_f64() > 60.0,
            "scale-out must be tens of seconds, got {avg}"
        );
    }

    #[test]
    #[should_panic]
    fn zero_samples_rejected() {
        let _ = ScaleOutBaseline::default().average_delay(1, 0, &mut SimRng::seed(0));
    }

    #[test]
    fn burst_realization_queues_each_request_behind_its_peers() {
        let model = ScaleOutBaseline::mao_humphrey_default();
        let delays = model.provision_burst(8, &mut SimRng::seed(4));
        assert_eq!(delays.len(), 8);
        // Request i waits i control-plane admission slots of 1.5 s each on
        // top of its own (>= 40 s) startup.
        for (i, d) in delays.iter().enumerate() {
            let floor = model.min_startup.as_secs_f64()
                + model.per_concurrent_penalty.as_secs_f64() * i as f64;
            assert!(
                d.as_secs_f64() >= floor,
                "request {i} finished in {d}, below its queueing floor"
            );
        }
        // The realization is deterministic given the seed.
        assert_eq!(delays, model.provision_burst(8, &mut SimRng::seed(4)));
    }
}
