//! Deterministic random number generation.
//!
//! All simulator randomness flows through [`SimRng`], a SplitMix64 generator.
//! SplitMix64 is tiny, fast, passes BigCrush, and — unlike `StdRng` — its
//! stream is stable across `rand` versions, so experiment outputs are
//! reproducible forever given a seed.

/// A deterministic SplitMix64 random number generator.
///
/// Self-contained (no `rand` dependency): the repository must build with no
/// network access, and a hand-rolled SplitMix64 keeps the stream
/// version-stable forever given a seed.
///
/// ```
/// use ignem_simcore::rng::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Creates a generator from a seed. Any seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        SimRng { state: seed }
    }

    /// Derives an independent child generator.
    ///
    /// Useful for giving each workload generator or node its own stream so
    /// that adding draws to one component does not perturb another.
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.next_u64())
    }

    /// Next raw 64-bit output.
    fn splitmix(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// A uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 bits of mantissa.
        (self.splitmix() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi);
        lo + self.uniform() * (hi - lo)
    }

    /// A uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index: empty range");
        // Multiply-shift; bias is negligible for simulation n << 2^64.
        ((self.splitmix() as u128 * n as u128) >> 64) as usize
    }

    /// Chooses one element of a slice uniformly at random.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.splitmix()
    }

    /// Fills `dest` with random bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.splitmix().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut r = SimRng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn index_covers_range() {
        let mut r = SimRng::new(5);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[r.index(10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = SimRng::new(9);
        let mut child = parent.fork();
        // The child stream must not equal the continuation of the parent.
        let c: Vec<u64> = (0..8).map(|_| child.next_u64()).collect();
        let p: Vec<u64> = (0..8).map(|_| parent.next_u64()).collect();
        assert_ne!(c, p);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(4);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn fill_bytes_fills_odd_lengths() {
        let mut r = SimRng::new(6);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn index_rejects_zero() {
        SimRng::new(0).index(0);
    }
}
