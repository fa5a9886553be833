//! Order statistics over per-unit host times.
//!
//! The conventions match `ignem_cluster::sweep::SeedStat`, so a benchmark
//! percentile and a sweep percentile of the same sample agree: the median
//! is the true middle value for odd sample sizes and the *upper* middle
//! value for even ones (`sorted[n / 2]`), and every other percentile is
//! nearest-rank (`sorted[ceil(q * n) - 1]`).

/// Median of `sorted` (ascending): the upper middle value for even `n`.
///
/// # Panics
///
/// Panics on an empty slice.
pub(crate) fn median(sorted: &[u64]) -> u64 {
    sorted[sorted.len() / 2]
}

/// Nearest-rank `pct`-th percentile of `sorted` (ascending).
///
/// # Panics
///
/// Panics on an empty slice.
pub(crate) fn percentile(sorted: &[u64], pct: usize) -> u64 {
    sorted[rank(sorted.len(), pct) - 1]
}

/// The 1-based nearest rank of the `pct`-th percentile among `n` samples,
/// clamped to `[1, n]`.
const fn rank(n: usize, pct: usize) -> usize {
    let r = (pct * n).div_ceil(100);
    if r < 1 {
        1
    } else if r > n {
        n
    } else {
        r
    }
}

/// How many of `n` samples lie strictly above the `pct`-th percentile's
/// rank. A percentile is reported only with at least ten samples beyond
/// it; [`crate::workloads`] pins that at compile time.
pub(crate) const fn samples_beyond(n: usize, pct: usize) -> usize {
    n - rank(n, pct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ignem_cluster::sweep::SeedStat;

    fn sorted(mut v: Vec<u64>) -> Vec<u64> {
        v.sort_unstable();
        v
    }

    #[test]
    fn median_takes_the_upper_middle_like_seed_stat() {
        for values in [
            vec![10, 2],
            vec![5, 1, 4, 2],
            (1..=100).rev().collect(),
            (1..=7).collect(),
            vec![7],
        ] {
            let s = sorted(values.clone());
            assert_eq!(median(&s), SeedStat::from_values(&values).p50, "{values:?}");
        }
        assert_eq!(median(&[2, 10]), 10);
        assert_eq!(median(&[1, 2, 3]), 2);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 90), 90);
        assert_eq!(percentile(&s, 99), 99);
        assert_eq!(percentile(&s, 99), SeedStat::from_values(&s).p99);
        // n = 180: ceil(0.9 * 180) = 162, ceil(0.99 * 180) = 179.
        let s: Vec<u64> = (1..=180).collect();
        assert_eq!(percentile(&s, 90), 162);
        assert_eq!(percentile(&s, 99), 179);
        // Tiny samples clamp to the ends.
        assert_eq!(percentile(&[4], 90), 4);
        assert_eq!(percentile(&[3, 9], 1), 3);
        assert_eq!(percentile(&[3, 9], 100), 9);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(100, 90), 10);
        assert_eq!(samples_beyond(99, 90), 9);
        assert_eq!(samples_beyond(1000, 99), 10);
        assert_eq!(samples_beyond(180, 90), 18);
        assert_eq!(samples_beyond(1, 50), 0);
    }
}
