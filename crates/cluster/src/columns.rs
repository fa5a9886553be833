//! Columnar (struct-of-arrays) per-node hot state.
//!
//! At datacenter scale — 12k nodes — the world scans per-node liveness
//! state on every heartbeat, eviction pass, cancellation sweep and
//! re-replication round. Keeping each field as its own dense column, and
//! packing the boolean columns into 64-bit words, keeps those scans
//! cache-resident: the five liveness flags of 12 288 nodes fit in
//! 5 × 1.5 KiB of bitmap instead of 5 × 12 KiB of `Vec<bool>`, and a
//! sweep that skips dead or uninterested nodes can discard 64 nodes per
//! word test instead of loading a byte each.

/// A packed boolean column: one bit per node, 64 nodes per word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitCol {
    words: Vec<u64>,
    len: usize,
}

impl BitCol {
    /// A column of `len` bits, every bit set to `value`.
    pub fn new(len: usize, value: bool) -> Self {
        let fill = if value { u64::MAX } else { 0 };
        let mut col = BitCol {
            words: vec![fill; len.div_ceil(64)],
            len,
        };
        col.trim_tail();
        col
    }

    /// Clears the bits beyond `len` in the last word so popcounts and
    /// word-level scans never see ghost nodes.
    fn trim_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of bits in the column.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of bounds (len {})", self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit {i} out of bounds (len {})", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Indices of set bits, ascending; skips 64 nodes per zero word.
    pub fn iter_set(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(wi * 64 + bit)
            })
        })
    }

    /// Index of the `k`-th set bit (counting from 0, ascending), or `None`
    /// if at most `k` bits are set; skips 64 nodes per word popcount.
    pub fn nth_set(&self, mut k: usize) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            let ones = w.count_ones() as usize;
            if k < ones {
                let mut rest = w;
                for _ in 0..k {
                    rest &= rest - 1;
                }
                return Some(wi * 64 + rest.trailing_zeros() as usize);
            }
            k -= ones;
        }
        None
    }

    /// Resident bytes of the column's backing storage.
    pub fn resident_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip_across_word_boundaries() {
        let mut col = BitCol::new(130, false);
        for i in [0, 1, 63, 64, 65, 127, 128, 129] {
            assert!(!col.get(i));
            col.set(i, true);
            assert!(col.get(i));
        }
        assert_eq!(col.count_ones(), 8);
        col.set(64, false);
        assert!(!col.get(64));
        assert_eq!(col.count_ones(), 7);
    }

    #[test]
    fn new_true_has_no_ghost_bits() {
        let col = BitCol::new(70, true);
        assert_eq!(col.count_ones(), 70);
        assert_eq!(col.iter_set().count(), 70);
    }

    #[test]
    fn iter_set_skips_zero_words() {
        let mut col = BitCol::new(1000, false);
        for i in [3, 64, 700, 999] {
            col.set(i, true);
        }
        let set: Vec<usize> = col.iter_set().collect();
        assert_eq!(set, vec![3, 64, 700, 999]);
    }

    #[test]
    fn nth_set_agrees_with_iter_set() {
        let mut col = BitCol::new(300, false);
        for i in [0, 5, 63, 64, 128, 191, 192, 299] {
            col.set(i, true);
        }
        let set: Vec<usize> = col.iter_set().collect();
        for (k, &i) in set.iter().enumerate() {
            assert_eq!(col.nth_set(k), Some(i));
        }
        assert_eq!(col.nth_set(set.len()), None);
        assert_eq!(BitCol::new(70, true).nth_set(69), Some(69));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        BitCol::new(10, false).get(10);
    }
}
