//! Probability distributions for workload synthesis.
//!
//! `rand` 0.8 ships only uniform sampling without `rand_distr`; to keep the
//! dependency set minimal the handful of distributions the workload
//! generators need are implemented here, all driven by [`SimRng`].

use crate::rng::SimRng;

/// A sampleable distribution over `f64`.
pub trait Distribution {
    /// Draws one sample.
    fn sample(&self, rng: &mut SimRng) -> f64;
}

/// The exponential distribution with the given rate `λ` (mean `1/λ`).
///
/// Used for inter-arrival times of jobs.
///
/// ```
/// use ignem_simcore::{dist::{Distribution, Exponential}, rng::SimRng};
///
/// let d = Exponential::from_mean(2.0);
/// let x = d.sample(&mut SimRng::new(1));
/// assert!(x >= 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential with rate `λ`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn new(rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "invalid rate: {rate}");
        Exponential { rate }
    }

    /// Creates an exponential with the given mean.
    pub fn from_mean(mean: f64) -> Self {
        Exponential::new(1.0 / mean)
    }
}

impl Distribution for Exponential {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Inverse CDF; (1 - u) avoids ln(0).
        -(1.0 - rng.uniform()).ln() / self.rate
    }
}

/// The log-normal distribution parameterised by the underlying normal's
/// `mu` and `sigma`.
///
/// Job queueing delays and task service times in cluster traces are heavy
/// tailed and well described by log-normals (the paper's Google-trace
/// queueing times have mean 8.8 s but median 1.8 s — a strongly skewed shape
/// that [`LogNormal::from_median_mean`] recovers exactly).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal from the underlying normal parameters.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is not finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite() && sigma.is_finite() && sigma >= 0.0);
        LogNormal { mu, sigma }
    }

    /// Creates the unique log-normal with the given **median** and **mean**.
    ///
    /// For a log-normal, `median = exp(mu)` and `mean = exp(mu + sigma²/2)`,
    /// so `sigma = sqrt(2 ln(mean/median))`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < median <= mean`.
    pub fn from_median_mean(median: f64, mean: f64) -> Self {
        assert!(
            median > 0.0 && mean >= median,
            "need 0 < median <= mean, got median={median} mean={mean}"
        );
        let mu = median.ln();
        let sigma = (2.0 * (mean / median).ln()).sqrt();
        LogNormal::new(mu, sigma)
    }

    /// The distribution's median, `exp(mu)`.
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }

    /// The distribution's mean, `exp(mu + sigma²/2)`.
    pub fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }
}

/// One standard-normal sample via Box–Muller (the cosine branch).
pub fn standard_normal(rng: &mut SimRng) -> f64 {
    let u1 = 1.0 - rng.uniform(); // (0, 1]
    let u2 = rng.uniform();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(d: &impl Distribution, seed: u64, n: usize) -> f64 {
        let mut rng = SimRng::new(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean_converges() {
        let d = Exponential::from_mean(4.0);
        let m = mean_of(&d, 1, 200_000);
        assert!((m - 4.0).abs() < 0.1, "mean={m}");
    }

    #[test]
    fn exponential_is_nonnegative() {
        let d = Exponential::new(0.5);
        let mut rng = SimRng::new(2);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn lognormal_median_mean_round_trip() {
        // The paper's Google-trace queueing times: median 1.8 s, mean 8.8 s.
        let d = LogNormal::from_median_mean(1.8, 8.8);
        assert!((d.median() - 1.8).abs() < 1e-12);
        assert!((d.mean() - 8.8).abs() < 1e-12);
        let m = mean_of(&d, 3, 400_000);
        assert!((m - 8.8).abs() < 0.6, "empirical mean={m}");
        // Median check: about half the samples below 1.8.
        let mut rng = SimRng::new(4);
        let below = (0..100_000).filter(|_| d.sample(&mut rng) < 1.8).count() as f64 / 100_000.0;
        assert!((below - 0.5).abs() < 0.01, "below-median frac={below}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = SimRng::new(8);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean={mean}");
        assert!((var - 1.0).abs() < 0.02, "var={var}");
    }

    #[test]
    #[should_panic]
    fn lognormal_rejects_mean_below_median() {
        LogNormal::from_median_mean(5.0, 1.0);
    }
}
