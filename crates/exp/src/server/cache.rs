//! Fingerprint-keyed equilibrium cache with LRU eviction and snapshot
//! recycling.
//!
//! The cache maps a canonical game fingerprint (see
//! [`super::fingerprint::fingerprint`]) to an
//! `Arc<`[`EqSnapshot`]`>`. A hit hands out an `Arc` clone — a refcount
//! bump, no copy, no allocation — which is what makes repeated queries
//! O(lookup). The cache only compares keys; how a key is derived (the
//! server folds a read's axis scalars onto a curve digest it holds) is
//! the fingerprint module's business.
//!
//! Recycling keeps the *steady state* allocation-free too: evicted
//! snapshots retire to a freelist, and [`EqCache::blank`] hands them back
//! as capture buffers for the next insert once every outstanding reader
//! has dropped its `Arc` (uniqueness is checked with
//! [`Arc::strong_count`]; a snapshot some reader still holds is simply
//! dropped from the freelist — immutability is never compromised). The
//! map and freelist reserve `capacity + 1` slots up front, so
//! evict-then-insert churn at capacity touches no allocator either.
//!
//! Eviction is least-recently-used under a monotone logical clock —
//! fully deterministic, so a replayed request stream reproduces the exact
//! same hit/miss/eviction sequence. The clock ticks on every lookup and
//! insert, so no two entries share a recency and key values never break
//! a tie: a change of fingerprint format moves no eviction.

use std::collections::HashMap;
use std::sync::Arc;
use subcomp_core::snapshot::EqSnapshot;

/// Hit/miss/eviction counters plus occupancy, for reports and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found their key.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Snapshots inserted.
    pub insertions: u64,
    /// Snapshots evicted to make room.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: usize,
    /// Maximum resident entries.
    pub capacity: usize,
}

struct Entry {
    snap: Arc<EqSnapshot>,
    last_used: u64,
}

/// A bounded, deterministic LRU cache of solved equilibria.
pub struct EqCache {
    capacity: usize,
    clock: u64,
    map: HashMap<u64, Entry>,
    free: Vec<Arc<EqSnapshot>>,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

impl std::fmt::Debug for EqCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EqCache")
            .field("capacity", &self.capacity)
            .field("len", &self.map.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl EqCache {
    /// A cache holding at most `capacity` equilibria. Capacity 0 is a
    /// valid **always-miss** cache: every lookup misses and every insert
    /// retires its snapshot straight to the freelist (counted as an
    /// insertion plus an immediate eviction), so capture-buffer recycling
    /// keeps working with caching disabled.
    pub fn new(capacity: usize) -> EqCache {
        EqCache {
            capacity,
            clock: 0,
            map: HashMap::with_capacity(capacity + 1),
            free: Vec::with_capacity(capacity + 1),
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: u64) -> Option<Arc<EqSnapshot>> {
        self.clock += 1;
        match self.map.get_mut(&key) {
            Some(entry) => {
                entry.last_used = self.clock;
                self.hits += 1;
                Some(Arc::clone(&entry.snap))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// A unique (`strong_count == 1`) snapshot buffer to capture into —
    /// recycled from the freelist when possible, freshly allocated only
    /// when every retired snapshot is still held by a reader.
    pub fn blank(&mut self) -> Arc<EqSnapshot> {
        while let Some(arc) = self.free.pop() {
            if Arc::strong_count(&arc) == 1 {
                return arc;
            }
            // A reader still holds it; let the reader's drop free it.
        }
        Arc::new(EqSnapshot::empty())
    }

    /// Inserts `snap` under `key`, evicting the least-recently-used entry
    /// if the cache is full (recencies are unique, so there are no ties). The
    /// evicted snapshot retires to the freelist for [`EqCache::blank`].
    pub fn insert(&mut self, key: u64, snap: Arc<EqSnapshot>) {
        self.clock += 1;
        if self.capacity == 0 {
            // Always-miss mode: nothing can reside, so the snapshot is
            // evicted at birth — but it still retires to the freelist so
            // the blank()/capture recycling loop stays allocation-free.
            if self.free.len() < self.free.capacity() {
                self.free.push(snap);
            }
            self.insertions += 1;
            self.evictions += 1;
            return;
        }
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            let victim = self
                .map
                .iter()
                .map(|(&k, e)| (e.last_used, k))
                .min()
                .map(|(_, k)| k)
                .expect("cache is full with capacity >= 1, so non-empty");
            let entry = self.map.remove(&victim).expect("victim key just found");
            self.free.push(entry.snap);
            self.evictions += 1;
        }
        self.map.insert(key, Entry { snap, last_used: self.clock });
        self.insertions += 1;
    }

    /// Whether `key` is resident (no recency touch, no counter bump).
    pub fn contains(&self, key: u64) -> bool {
        self.map.contains_key(&key)
    }

    /// The resident snapshot for `key`, with **no** recency touch and no
    /// counter bump — introspection for tests and the sharded router's
    /// identity checks, never a serving path (it would perturb LRU
    /// replay determinism).
    pub fn peek(&self, key: u64) -> Option<Arc<EqSnapshot>> {
        self.map.get(&key).map(|entry| Arc::clone(&entry.snap))
    }

    /// Drops every entry (retiring snapshots to the freelist) while
    /// keeping the map's reserved capacity. Counters are kept — a clear
    /// is an operational event, not a reset.
    pub fn clear(&mut self) {
        for (_, entry) in self.map.drain() {
            if self.free.len() < self.free.capacity() {
                self.free.push(entry.snap);
            }
        }
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            insertions: self.insertions,
            evictions: self.evictions,
            len: self.map.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Capture semantics are exercised by the server tests; here only
    // identity and bookkeeping matter, so empty snapshots suffice.
    fn snap() -> Arc<EqSnapshot> {
        Arc::new(EqSnapshot::empty())
    }

    #[test]
    fn hit_returns_same_snapshot() {
        let mut cache = EqCache::new(4);
        let s = snap();
        cache.insert(7, Arc::clone(&s));
        let hit = cache.get(7).expect("hit");
        assert!(Arc::ptr_eq(&hit, &s), "a hit is the same allocation, not a copy");
        assert!(cache.get(8).is_none());
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.len), (1, 1, 1));
    }

    #[test]
    fn lru_eviction_is_deterministic() {
        let mut cache = EqCache::new(2);
        cache.insert(1, snap());
        cache.insert(2, snap());
        // Touch key 1 so key 2 is the LRU victim.
        assert!(cache.get(1).is_some());
        cache.insert(3, snap());
        assert!(cache.contains(1));
        assert!(!cache.contains(2), "LRU entry evicted");
        assert!(cache.contains(3));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().len, 2);
    }

    #[test]
    fn blank_recycles_unique_retired_snapshots() {
        let mut cache = EqCache::new(1);
        cache.insert(1, snap());
        cache.insert(2, snap()); // evicts key 1's snapshot to the freelist
        let recycled = cache.blank();
        assert_eq!(Arc::strong_count(&recycled), 1);
        // A retired snapshot still held by a reader is NOT handed out.
        let held = cache.get(2).unwrap();
        cache.insert(3, snap()); // retires key 2's snapshot, reader `held` alive
        let fresh = cache.blank();
        assert!(!Arc::ptr_eq(&fresh, &held));
        drop(held);
    }

    #[test]
    fn clear_keeps_counters_and_capacity() {
        let mut cache = EqCache::new(3);
        cache.insert(1, snap());
        assert!(cache.get(1).is_some());
        cache.clear();
        assert_eq!(cache.stats().len, 0);
        assert_eq!(cache.stats().hits, 1, "clear is not a counter reset");
        assert!(cache.get(1).is_none());
    }

    #[test]
    fn zero_capacity_is_a_valid_always_miss_cache() {
        // The regression behind `.expect("cache is full, so non-empty")`:
        // inserting into a capacity-0 cache used to look for an eviction
        // victim in an empty map and panic. It is now a well-defined
        // always-miss cache.
        let mut cache = EqCache::new(0);
        cache.insert(1, snap());
        assert!(cache.get(1).is_none(), "nothing can reside at capacity 0");
        let st = cache.stats();
        assert_eq!((st.capacity, st.len), (0, 0));
        assert_eq!((st.insertions, st.evictions), (1, 1), "insert counts as evict-at-birth");
        assert_eq!((st.hits, st.misses), (0, 1));
        // The recycling loop still works: the retired snapshot comes
        // back as the next capture buffer.
        let recycled = cache.blank();
        assert_eq!(Arc::strong_count(&recycled), 1);
        cache.insert(2, recycled);
        assert!(!cache.contains(2));
    }

    #[test]
    fn eviction_at_capacity_one_keeps_only_the_newest_entry() {
        let mut cache = EqCache::new(1);
        cache.insert(1, snap());
        assert!(cache.get(1).is_some());
        cache.insert(2, snap());
        assert!(!cache.contains(1), "capacity 1 evicts the previous entry");
        assert!(cache.get(2).is_some());
        let st = cache.stats();
        assert_eq!((st.len, st.insertions, st.evictions), (1, 2, 1));
        // Re-inserting the resident key replaces in place, no eviction.
        cache.insert(2, snap());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().len, 1);
    }

    #[test]
    fn peek_is_counterless_introspection() {
        let mut cache = EqCache::new(2);
        let s = snap();
        cache.insert(7, Arc::clone(&s));
        let before = cache.stats();
        let peeked = cache.peek(7).expect("resident");
        assert!(Arc::ptr_eq(&peeked, &s), "peek hands out the shared snapshot");
        assert!(cache.peek(8).is_none());
        assert_eq!(cache.stats(), before, "peek must not move any counter");
    }
}
