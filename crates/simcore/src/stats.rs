//! Metric collection: empirical CDFs, histograms and time-weighted
//! series.
//!
//! Every table and figure in the evaluation is produced from these types:
//! block-read histograms (Fig. 1/6), task-runtime CDFs (Fig. 2), lead-time
//! ratio CDFs (Fig. 3), utilisation timelines (Fig. 4) and the memory
//! occupancy histograms (Fig. 7).

use crate::time::{SimDuration, SimTime};

/// A collected sample set supporting percentiles, CDF evaluation and export.
///
/// ```
/// use ignem_simcore::stats::Samples;
///
/// let mut s = Samples::new();
/// s.extend([4.0, 1.0, 3.0, 2.0]);
/// assert_eq!(s.percentile(50.0), 2.5);
/// assert_eq!(s.fraction_below(2.5), 0.5);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Adds one sample.
    ///
    /// # Panics
    ///
    /// Panics on a NaN sample.
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN sample");
        self.values.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Mean of the samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            // total_cmp gives NaN a fixed place in the order instead of
            // panicking mid-sort (lint rule F01).
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The `p`-th percentile (linear interpolation between order statistics).
    ///
    /// # Panics
    ///
    /// Panics if the set is empty or `p` is outside `[0, 100]`.
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!(!self.values.is_empty(), "percentile of empty sample set");
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        self.ensure_sorted();
        let n = self.values.len();
        if n == 1 {
            return self.values[0];
        }
        let rank = p / 100.0 * (n - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        self.values[lo] * (1.0 - frac) + self.values[hi] * frac
    }

    /// Median (50th percentile).
    ///
    /// # Panics
    ///
    /// Panics if the set is empty.
    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    /// Fraction of samples strictly below `x` (the empirical CDF).
    pub fn fraction_below(&mut self, x: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let idx = self.values.partition_point(|&v| v < x);
        idx as f64 / self.values.len() as f64
    }

    /// CDF points `(value, cumulative fraction)` thinned to at most
    /// `max_points`, always including the extremes. Used for figure export.
    pub fn cdf_points(&mut self, max_points: usize) -> Vec<(f64, f64)> {
        assert!(max_points >= 2, "need at least two CDF points");
        self.ensure_sorted();
        let n = self.values.len();
        if n == 0 {
            return Vec::new();
        }
        let mut pts = Vec::new();
        let step = (n.max(2) - 1) as f64 / (max_points - 1) as f64;
        let mut last_idx = usize::MAX;
        for k in 0..max_points {
            let idx = ((k as f64 * step).round() as usize).min(n - 1);
            if idx == last_idx {
                continue;
            }
            last_idx = idx;
            pts.push((self.values[idx], (idx + 1) as f64 / n as f64));
        }
        pts
    }
}

impl Extend<f64> for Samples {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Samples::new();
        s.extend(iter);
        s
    }
}

/// A fixed-bin histogram over `[lo, hi)` with an overflow bin.
///
/// ```
/// use ignem_simcore::stats::Histogram;
///
/// let mut h = Histogram::uniform(0.0, 10.0, 5);
/// h.record(1.0);
/// h.record(9.5);
/// h.record(42.0); // overflow
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.bin_counts()[0], 1);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    edges: Vec<f64>, // len = bins + 1, ascending
    counts: Vec<u64>,
    overflow: u64,
    underflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins on `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `bins == 0`.
    pub fn uniform(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo < hi && bins > 0, "bad histogram spec");
        let w = (hi - lo) / bins as f64;
        let edges = (0..=bins).map(|i| lo + w * i as f64).collect();
        Histogram {
            edges,
            counts: vec![0; bins],
            overflow: 0,
            underflow: 0,
        }
    }

    /// Records a sample.
    pub fn record(&mut self, x: f64) {
        let lo = self.edges[0];
        // lint: allow(P02, reason = "constructor rejects empty edge lists, so last() always exists")
        let hi = *self.edges.last().expect("edges nonempty");
        if x < lo {
            self.underflow += 1;
        } else if x >= hi {
            self.overflow += 1;
        } else {
            let idx = (self.edges.partition_point(|&e| e <= x) - 1).min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Total samples recorded, including under/overflow.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.overflow + self.underflow
    }

    /// Per-bin counts.
    pub fn bin_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Bin edges (`bins + 1` values).
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Samples above the last edge.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Samples below the first edge.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Relative frequency per bin (fractions of total count).
    pub fn relative(&self) -> Vec<f64> {
        let total = self.count().max(1) as f64;
        self.counts.iter().map(|&c| c as f64 / total).collect()
    }
}

/// Tracks a piecewise-constant value over simulated time, producing
/// time-weighted averages and change-point series (per-server memory
/// occupancy in Fig. 7, disk utilisation in Fig. 4).
#[derive(Debug, Clone, PartialEq)]
pub struct TimeWeighted {
    last_time: SimTime,
    value: f64,
    weighted_sum: f64, // integral of value dt (seconds)
    span: SimDuration,
    peak: f64,
    /// Change points `(time, new_value)` for series export.
    history: Vec<(SimTime, f64)>,
    keep_history: bool,
}

impl TimeWeighted {
    /// Creates a tracker starting at `value` at time zero. `keep_history`
    /// retains every change point for series export, which costs memory
    /// that grows with the run. Without it the tracker keeps only the
    /// running sum and maximum behind [`average`](Self::average) and
    /// [`peak`](Self::peak): the bounded form that long runs are to keep
    /// instead of change logs.
    pub fn new(value: f64, keep_history: bool) -> Self {
        TimeWeighted {
            last_time: SimTime::ZERO,
            value,
            weighted_sum: 0.0,
            span: SimDuration::ZERO,
            peak: value,
            history: if keep_history {
                vec![(SimTime::ZERO, value)]
            } else {
                Vec::new()
            },
            keep_history,
        }
    }

    /// Sets the value at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous update.
    pub fn set(&mut self, now: SimTime, value: f64) {
        let dt = now.duration_since(self.last_time);
        self.weighted_sum += self.value * dt.as_secs_f64();
        self.span += dt;
        self.last_time = now;
        self.value = value;
        self.peak = self.peak.max(value);
        if self.keep_history && self.history.last().map(|&(_, v)| v) != Some(value) {
            // lint: allow(Q01, reason = "opt-in reporting series, deduplicated per value change")
            self.history.push((now, value));
        }
    }

    /// Adds `delta` to the current value at time `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        self.set(now, self.value + delta);
    }

    /// The current value.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Maximum value ever held, kept without history (see
    /// [`new`](Self::new)).
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Time-weighted average over `[0, now]`, from a running sum kept
    /// without history (see [`new`](Self::new)).
    pub fn average(&self, now: SimTime) -> f64 {
        let extra = now.saturating_duration_since(self.last_time).as_secs_f64();
        let total = self.span.as_secs_f64() + extra;
        if total == 0.0 {
            self.value
        } else {
            (self.weighted_sum + self.value * extra) / total
        }
    }

    /// The raw change-point history `(time, new_value)` (requires history).
    ///
    /// # Panics
    ///
    /// Panics if history was not kept.
    pub fn sample_series_raw(&self) -> &[(SimTime, f64)] {
        assert!(self.keep_history, "history not kept");
        &self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let mut s: Samples = [10.0, 20.0, 30.0, 40.0].into_iter().collect();
        assert_eq!(s.percentile(0.0), 10.0);
        assert_eq!(s.percentile(100.0), 40.0);
        assert_eq!(s.median(), 25.0);
        assert_eq!(s.percentile(25.0), 17.5);
    }

    #[test]
    fn fraction_below_is_cdf() {
        let mut s: Samples = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        assert_eq!(s.fraction_below(0.5), 0.0);
        assert_eq!(s.fraction_below(2.5), 0.5);
        assert_eq!(s.fraction_below(100.0), 1.0);
    }

    #[test]
    fn cdf_points_cover_extremes() {
        let mut s: Samples = (0..1000).map(|i| i as f64).collect();
        let pts = s.cdf_points(11);
        assert_eq!(pts.first().unwrap().0, 0.0);
        assert_eq!(pts.last().unwrap().0, 999.0);
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
        assert!(pts.len() <= 11);
    }

    #[test]
    fn histogram_bins_correctly() {
        let mut h = Histogram::uniform(0.0, 10.0, 10);
        for i in 0..10 {
            h.record(i as f64 + 0.5);
        }
        assert!(h.bin_counts().iter().all(|&c| c == 1));
        h.record(-1.0);
        h.record(10.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 12);
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new(0.0, false);
        tw.set(SimTime::from_secs(10), 100.0); // 0 for 10 s
        tw.set(SimTime::from_secs(20), 0.0); // 100 for 10 s
        assert_eq!(tw.average(SimTime::from_secs(20)), 50.0);
        assert_eq!(tw.peak(), 100.0);
        // Continues at 0 for another 20 s -> average 25.
        assert_eq!(tw.average(SimTime::from_secs(40)), 25.0);
    }

    #[test]
    #[should_panic(expected = "NaN sample")]
    fn samples_reject_nan() {
        Samples::new().push(f64::NAN);
    }
}
