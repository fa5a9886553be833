//! The per-node memory block store.
//!
//! [`MemStore`] models the RAM that holds upward-migrated blocks (Ignem's
//! migration buffer) and explicitly pinned blocks (the paper's vmtouch-based
//! *HDFS-Inputs-in-RAM* configuration). It enforces a capacity limit,
//! distinguishes pinned from migrated blocks, and tracks occupancy over time
//! for the paper's Fig. 7 memory-footprint analysis.
//!
//! It is generic over the block key so the DFS layer can use its own
//! `BlockId` without a dependency cycle.

use std::collections::BTreeMap;

use ignem_simcore::stats::TimeWeighted;
use ignem_simcore::time::SimTime;

/// Why a block resides in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// Placed by Ignem migration; subject to reference-list eviction.
    Migrated,
    /// Pinned by the operator (vmtouch); never evicted by Ignem.
    Pinned,
    /// Retained by the page cache after a read (PACMan-style hot-data
    /// caching); evicted LRU under memory pressure. Never helps truly
    /// singly-read data — the gap Ignem fills.
    Cached,
}

/// Error returned when an insert would exceed the store's capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityError {
    /// Bytes requested.
    pub requested: u64,
    /// Bytes free at the time of the request.
    pub available: u64,
}

impl std::fmt::Display for CapacityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "memory store full: requested {} bytes, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for CapacityError {}

/// A capacity-limited in-memory block store (see module docs).
///
/// ```
/// use ignem_storage::memstore::{MemStore, Residency};
/// use ignem_simcore::time::SimTime;
///
/// let mut m: MemStore<u64> = MemStore::new(128_000_000);
/// m.insert(SimTime::ZERO, 7, 64_000_000, Residency::Migrated).unwrap();
/// assert!(m.contains(&7));
/// assert_eq!(m.used(), 64_000_000);
/// ```
#[derive(Debug, Clone)]
pub struct MemStore<K: Ord + Copy> {
    capacity: u64,
    blocks: BTreeMap<K, (u64, Residency)>,
    used: u64,
    migrated_used: u64,
    /// LRU bookkeeping for `Cached` entries: key → last-access sequence.
    cache_seq: BTreeMap<K, u64>,
    next_seq: u64,
    occupancy: TimeWeighted,
    /// Bumped by every mutating call; lets per-event validators skip
    /// stores that provably did not change since their last audit.
    version: u64,
}

impl<K: Ord + Copy> MemStore<K> {
    /// Creates a store with `capacity` bytes, recording occupancy history.
    pub fn new(capacity: u64) -> Self {
        MemStore {
            capacity,
            blocks: BTreeMap::new(),
            used: 0,
            migrated_used: 0,
            cache_seq: BTreeMap::new(),
            next_seq: 0,
            occupancy: TimeWeighted::new(0.0, true),
            version: 0,
        }
    }

    /// Monotone mutation counter: advances on every state-changing call
    /// ([`insert`](Self::insert), [`remove`](Self::remove),
    /// [`insert_cached`](Self::insert_cached), [`touch`](Self::touch)). Two
    /// equal readings guarantee the store was not mutated in between, so
    /// an invariant checker may reuse its previous verdict.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently resident (pinned + migrated).
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes currently resident due to migration only.
    pub fn migrated_used(&self) -> u64 {
        self.migrated_used
    }

    /// Bytes free.
    pub fn available(&self) -> u64 {
        self.capacity - self.used
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the store holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Whether `key` is resident.
    pub fn contains(&self, key: &K) -> bool {
        self.blocks.contains_key(key)
    }

    /// The residency of `key`, if resident.
    pub fn residency(&self, key: &K) -> Option<Residency> {
        self.blocks.get(key).map(|&(_, r)| r)
    }

    /// Keys of all resident blocks with the given residency, in key order.
    /// Lets invariant checkers audit the store contents against external
    /// bookkeeping (e.g. the Ignem slave's reference lists).
    pub fn keys_with(&self, residency: Residency) -> Vec<K> {
        self.blocks
            .iter()
            .filter(|(_, (_, r))| *r == residency)
            .map(|(k, _)| *k)
            .collect()
    }

    /// `(block count, total bytes)` of resident blocks with the given
    /// residency — a single pass, for state dumps that would otherwise
    /// materialize the key list per class.
    pub fn residency_summary(&self, residency: Residency) -> (usize, u64) {
        self.blocks
            .values()
            .filter(|(_, r)| *r == residency)
            .fold((0, 0), |(n, bytes), (b, _)| (n + 1, bytes + b))
    }

    /// Inserts a block.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if the block does not fit.
    ///
    /// # Panics
    ///
    /// Panics if `key` is already resident (promote/demote by removing first).
    pub fn insert(
        &mut self,
        now: SimTime,
        key: K,
        bytes: u64,
        residency: Residency,
    ) -> Result<(), CapacityError> {
        assert!(!self.blocks.contains_key(&key), "block already resident");
        self.version += 1;
        if bytes > self.available() {
            return Err(CapacityError {
                requested: bytes,
                available: self.available(),
            });
        }
        self.blocks.insert(key, (bytes, residency));
        self.used += bytes;
        if residency == Residency::Migrated {
            self.migrated_used += bytes;
            self.occupancy.set(now, self.migrated_used as f64);
        }
        Ok(())
    }

    /// Removes (evicts) a block, returning its size if it was resident.
    pub fn remove(&mut self, now: SimTime, key: &K) -> Option<u64> {
        self.version += 1;
        let (bytes, residency) = self.blocks.remove(key)?;
        self.used -= bytes;
        self.cache_seq.remove(key);
        if residency == Residency::Migrated {
            self.migrated_used -= bytes;
            self.occupancy.set(now, self.migrated_used as f64);
        }
        Some(bytes)
    }

    /// Inserts a block as page-cache-retained ([`Residency::Cached`]),
    /// evicting least-recently-used cached blocks to make room. Pinned and
    /// migrated blocks are never evicted (the do-not-harm rule). If the
    /// block is already resident, its recency is refreshed instead. Returns
    /// whether the block is resident afterwards.
    pub fn insert_cached(&mut self, now: SimTime, key: K, bytes: u64) -> bool {
        self.version += 1;
        if self.blocks.contains_key(&key) {
            self.touch(&key);
            return true;
        }
        while bytes > self.available() {
            // Evict the least recently used cached entry, if any.
            let Some((&victim, _)) = self.cache_seq.iter().min_by_key(|(_, &s)| s) else {
                return false; // nothing evictable; cache insert is best-effort
            };
            self.remove(now, &victim);
        }
        self.blocks.insert(key, (bytes, Residency::Cached));
        self.used += bytes;
        self.cache_seq.insert(key, self.next_seq);
        self.next_seq += 1;
        true
    }

    /// Refreshes the LRU recency of a cached block (no-op otherwise).
    pub fn touch(&mut self, key: &K) {
        self.version += 1;
        if let Some(seq) = self.cache_seq.get_mut(key) {
            *seq = self.next_seq;
            self.next_seq += 1;
        }
    }

    /// Bytes currently held by `Cached` entries.
    pub fn cached_used(&self) -> u64 {
        self.blocks
            .values()
            .filter(|(_, r)| *r == Residency::Cached)
            .map(|(b, _)| *b)
            .sum()
    }

    /// Removes every migrated block (the paper's slave-restart and
    /// master-failure purge paths), returning the evicted keys.
    pub fn purge_migrated(&mut self, now: SimTime) -> Vec<K> {
        let keys: Vec<K> = self
            .blocks
            .iter()
            .filter(|(_, (_, r))| *r == Residency::Migrated)
            .map(|(k, _)| *k)
            .collect();
        for k in &keys {
            self.remove(now, k);
        }
        keys
    }

    /// Removes **every** resident block — migrated, pinned and cached —
    /// modelling a node crash: RAM contents do not survive a power cycle.
    /// Returns the total bytes released. Occupancy history is preserved
    /// (it describes the past) and migrated occupancy drops to zero at
    /// `now`.
    pub fn wipe(&mut self, now: SimTime) -> u64 {
        let keys: Vec<K> = self.blocks.keys().copied().collect();
        let mut released = 0;
        for k in &keys {
            released += self.remove(now, k).unwrap_or(0);
        }
        self.version += 1;
        released
    }

    /// The raw migrated-occupancy change points `(time, bytes)`.
    pub fn occupancy_changes(&self) -> Vec<(SimTime, f64)> {
        self.occupancy.sample_series_raw().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ignem_simcore::units::MB;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn insert_and_remove_round_trip() {
        let mut m: MemStore<u32> = MemStore::new(100 * MB);
        m.insert(t(0), 1, 40 * MB, Residency::Migrated).unwrap();
        assert_eq!(m.used(), 40 * MB);
        assert_eq!(m.available(), 60 * MB);
        assert_eq!(m.remove(t(1), &1), Some(40 * MB));
        assert_eq!(m.used(), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn capacity_is_enforced() {
        let mut m: MemStore<u32> = MemStore::new(100 * MB);
        m.insert(t(0), 1, 80 * MB, Residency::Migrated).unwrap();
        let err = m.insert(t(0), 2, 30 * MB, Residency::Migrated).unwrap_err();
        assert_eq!(err.requested, 30 * MB);
        assert_eq!(err.available, 20 * MB);
        assert!(err.to_string().contains("memory store full"));
    }

    #[test]
    fn pinned_blocks_excluded_from_migrated_accounting() {
        let mut m: MemStore<u32> = MemStore::new(100 * MB);
        m.insert(t(0), 1, 30 * MB, Residency::Pinned).unwrap();
        m.insert(t(0), 2, 20 * MB, Residency::Migrated).unwrap();
        assert_eq!(m.used(), 50 * MB);
        assert_eq!(m.migrated_used(), 20 * MB);
        assert_eq!(m.residency(&1), Some(Residency::Pinned));
    }

    #[test]
    fn purge_migrated_keeps_pinned() {
        let mut m: MemStore<u32> = MemStore::new(100 * MB);
        m.insert(t(0), 1, 30 * MB, Residency::Pinned).unwrap();
        m.insert(t(0), 2, 20 * MB, Residency::Migrated).unwrap();
        m.insert(t(0), 3, 10 * MB, Residency::Migrated).unwrap();
        let purged = m.purge_migrated(t(5));
        assert_eq!(purged, vec![2, 3]);
        assert!(m.contains(&1));
        assert_eq!(m.used(), 30 * MB);
        assert_eq!(m.migrated_used(), 0);
    }

    #[test]
    fn cached_lru_eviction() {
        let mut m: MemStore<u32> = MemStore::new(100 * MB);
        assert!(m.insert_cached(t(0), 1, 40 * MB));
        assert!(m.insert_cached(t(1), 2, 40 * MB));
        // Touch 1 so 2 becomes the LRU victim.
        m.touch(&1);
        assert!(m.insert_cached(t(2), 3, 40 * MB));
        assert!(m.contains(&1));
        assert!(!m.contains(&2), "LRU entry must be evicted");
        assert!(m.contains(&3));
        assert_eq!(m.cached_used(), 80 * MB);
    }

    #[test]
    fn cached_never_evicts_pinned_or_migrated() {
        let mut m: MemStore<u32> = MemStore::new(100 * MB);
        m.insert(t(0), 1, 50 * MB, Residency::Pinned).unwrap();
        m.insert(t(0), 2, 40 * MB, Residency::Migrated).unwrap();
        // Not enough evictable space: best-effort insert fails.
        assert!(!m.insert_cached(t(1), 3, 20 * MB));
        assert!(m.contains(&1) && m.contains(&2));
        // A small cached block fits without eviction.
        assert!(m.insert_cached(t(2), 4, 10 * MB));
    }

    #[test]
    fn cached_reinsert_refreshes() {
        let mut m: MemStore<u32> = MemStore::new(100 * MB);
        assert!(m.insert_cached(t(0), 1, 40 * MB));
        assert!(m.insert_cached(t(1), 2, 40 * MB));
        // Re-inserting 1 refreshes it; 2 is evicted next.
        assert!(m.insert_cached(t(2), 1, 40 * MB));
        assert!(m.insert_cached(t(3), 3, 40 * MB));
        assert!(m.contains(&1) && !m.contains(&2));
        assert_eq!(m.used(), 80 * MB);
    }

    #[test]
    fn wipe_clears_everything() {
        let mut m: MemStore<u32> = MemStore::new(100 * MB);
        m.insert(t(0), 1, 30 * MB, Residency::Pinned).unwrap();
        m.insert(t(0), 2, 20 * MB, Residency::Migrated).unwrap();
        assert!(m.insert_cached(t(0), 3, 10 * MB));
        let v = m.version();
        assert_eq!(m.wipe(t(5)), 60 * MB);
        assert!(m.is_empty());
        assert_eq!(m.used(), 0);
        assert_eq!(m.migrated_used(), 0);
        assert_eq!(m.cached_used(), 0);
        assert!(m.version() > v);
        // The store is reusable after the wipe (the node restarted).
        m.insert(t(6), 4, 40 * MB, Residency::Migrated).unwrap();
        assert_eq!(m.migrated_used(), 40 * MB);
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn double_insert_panics() {
        let mut m: MemStore<u32> = MemStore::new(100 * MB);
        m.insert(t(0), 1, MB, Residency::Migrated).unwrap();
        let _ = m.insert(t(0), 1, MB, Residency::Migrated);
    }
}
