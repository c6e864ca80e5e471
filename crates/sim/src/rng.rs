//! Deterministic random-number generation.
//!
//! Every experiment in the reproduction is driven by a [`SimRng`] seeded from
//! an explicit `u64`, so that figures and tests are reproducible run-to-run.

use rand::distributions::uniform::{SampleRange, SampleUniform};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// A seedable, reproducible RNG used throughout the workspace.
///
/// Wraps a ChaCha12 stream cipher generator: fast, high-quality, and with a
/// stable output stream across platforms, which keeps the experiment harness
/// deterministic.
///
/// ```
/// use dredbox_sim::rng::SimRng;
/// let mut a = SimRng::seed(42);
/// let mut b = SimRng::seed(42);
/// assert_eq!(a.range(0..100u32), b.range(0..100u32));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: ChaCha12Rng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        SimRng {
            inner: ChaCha12Rng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child generator; useful to give each simulated
    /// component its own stream without coupling their consumption order.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let base = self.inner.next_u64();
        SimRng::seed(base ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Uniform sample from `range`.
    pub fn range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        self.inner.gen_range(range)
    }

    /// Uniform float in `[0, 1)`.
    #[cfg(test)]
    pub(crate) fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Bernoulli trial with probability `p` of returning `true`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.inner.gen::<f64>() < p
    }

    /// Sample from a normal distribution with the given mean and standard
    /// deviation, using the Box-Muller transform.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "standard deviation must be non-negative");
        // Box-Muller: two uniforms -> one standard normal.
        let u1: f64 = self.inner.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.inner.gen::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std_dev * z
    }

    /// Sample from a log-normal distribution parameterised by the mean and
    /// standard deviation of the underlying normal.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Sample from an exponential distribution with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "mean must be positive");
        let u: f64 = self.inner.gen_range(f64::MIN_POSITIVE..1.0);
        -mean * u.ln()
    }

    /// Chooses one element of `slice` uniformly at random.
    ///
    /// Returns `None` if the slice is empty.
    #[cfg(test)]
    pub(crate) fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            let idx = self.inner.gen_range(0..slice.len());
            Some(&slice[idx])
        }
    }

    /// Shuffles `slice` in place (Fisher-Yates).
    #[cfg(test)]
    pub(crate) fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.range(0..1_000_000u64), b.range(0..1_000_000u64));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(2);
        let va: Vec<u64> = (0..16).map(|_| a.range(0..u64::MAX)).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.range(0..u64::MAX)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn fork_is_deterministic() {
        let mut a = SimRng::seed(9);
        let mut b = SimRng::seed(9);
        let mut fa = a.fork(3);
        let mut fb = b.fork(3);
        assert_eq!(fa.range(0..u32::MAX), fb.range(0..u32::MAX));
    }

    #[test]
    fn normal_has_reasonable_moments() {
        let mut rng = SimRng::seed(123);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean was {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std was {}", var.sqrt());
    }

    #[test]
    fn exponential_has_reasonable_mean() {
        let mut rng = SimRng::seed(55);
        let n = 20_000;
        let mean = (0..n).map(|_| rng.exponential(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.2, "mean was {mean}");
    }

    #[test]
    fn choose_and_shuffle() {
        let mut rng = SimRng::seed(1);
        assert_eq!(rng.choose::<u8>(&[]), None);
        let data = [1, 2, 3, 4, 5];
        assert!(data.contains(rng.choose(&data).unwrap()));
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic]
    fn chance_rejects_invalid_probability() {
        SimRng::seed(0).chance(1.5);
    }

    proptest! {
        #[test]
        fn range_respects_bounds(seed in 0u64..1000, lo in 0u32..100, width in 1u32..100) {
            let mut rng = SimRng::seed(seed);
            let hi = lo + width;
            for _ in 0..32 {
                let x = rng.range(lo..hi);
                prop_assert!(x >= lo && x < hi);
            }
        }

        #[test]
        fn unit_is_in_unit_interval(seed in 0u64..1000) {
            let mut rng = SimRng::seed(seed);
            for _ in 0..64 {
                let u = rng.unit();
                prop_assert!((0.0..1.0).contains(&u));
            }
        }
    }
}
