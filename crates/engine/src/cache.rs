//! The strategy cache: fingerprint-keyed memoization of SELECT.
//!
//! Strategy optimization is the dominant per-request cost (Figure 6 of the
//! paper: seconds to minutes at scale) while MEASURE/RECONSTRUCT are
//! milliseconds, and SELECT is a pure function of the workload. Caching on
//! the canonical [`WorkloadFingerprint`] makes repeated workloads — the
//! common case for a serving system issuing the same dashboards and reports —
//! skip re-optimization entirely. Since selection never touches data or
//! budget, a cached strategy is privacy-neutral to reuse.
//!
//! ## Concurrency
//!
//! The map is sharded across [`RwLock`]s and a hit takes only a *read* lock
//! on one shard: recency is an atomic stamp per entry and the hit/miss
//! counters are atomics, so concurrent cache-hit traffic never contends — not
//! with other hits, and not with a miss inserting into a different shard.
//! Only `insert` (which follows a multi-second SELECT, so it is rare by
//! construction) takes a write lock. Eviction is LRU on the global stamp
//! order: capacity is enforced across all shards, not per shard.

use crate::sync::{read_recover, write_recover};
use hdmm_core::{Plan, WorkloadFingerprint};
use hdmm_mechanism::PreparedReconstruct;
use hdmm_net::OperandKeys;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Counters describing cache effectiveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required fresh optimization.
    pub misses: u64,
    /// Entries dropped to respect capacity.
    pub evictions: u64,
    /// Current number of cached plans.
    pub len: usize,
    /// Maximum number of cached plans.
    pub capacity: usize,
}

#[derive(Debug)]
struct CacheEntry {
    plan: Arc<Plan>,
    /// Logical-clock stamp of the last touch; the globally smallest stamp is
    /// the LRU entry.
    last_used: AtomicU64,
    /// The strategy's reconstruction factorization (`(AᵀA)⁺` and friends),
    /// built lazily on the first serve of this plan and reused by every
    /// later request — the warm-path cost that motivated
    /// [`PreparedReconstruct`]. Reset whenever the plan is replaced.
    prepared: OnceLock<Arc<PreparedReconstruct>>,
    /// The content keys the remote fan-out names this plan's factor lists
    /// by: like `prepared`, a pure function of the strategy that costs a
    /// pass over every factor to derive, built on the first remote serve
    /// and reset with the plan.
    operand_keys: OnceLock<Arc<OperandKeys>>,
}

/// Plans the engine's cache holds.
pub(crate) const PLAN_CAPACITY: usize = 64;

/// Number of shards; hits on different fingerprints rarely collide, and even
/// same-shard hits share a read lock.
const SHARDS: usize = 8;

/// A sharded LRU map from workload fingerprint to optimized plan.
///
/// All methods take `&self`: the cache is safely shared by reference across
/// serving threads.
#[derive(Debug)]
pub struct StrategyCache {
    shards: [RwLock<HashMap<WorkloadFingerprint, CacheEntry>>; SHARDS],
    capacity: usize,
    len: AtomicUsize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl StrategyCache {
    /// A cache holding at most `capacity` plans.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        StrategyCache {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            capacity,
            len: AtomicUsize::new(0),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(
        &self,
        key: &WorkloadFingerprint,
    ) -> &RwLock<HashMap<WorkloadFingerprint, CacheEntry>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    fn stamp(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Looks up a plan, updating recency and hit/miss counters. Read-lock
    /// only: cache hits never block each other.
    pub fn get(&self, key: &WorkloadFingerprint) -> Option<Arc<Plan>> {
        let shard = read_recover(self.shard(key));
        match shard.get(key) {
            Some(entry) => {
                entry.last_used.store(self.stamp(), Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.plan))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Looks up a plan without touching recency or counters — for re-checks
    /// on paths that already recorded their miss (single-flight leaders).
    pub fn peek(&self, key: &WorkloadFingerprint) -> Option<Arc<Plan>> {
        read_recover(self.shard(key))
            .get(key)
            .map(|e| Arc::clone(&e.plan))
    }

    /// The reconstruction factorization for `plan`, memoized alongside the
    /// cache entry for `key`: the first caller builds it (`(AᵀA)⁺`, the
    /// per-factor inverse Grams, or the marginals algebra — the dominant
    /// per-request cost of a warm cache hit), every later caller clones an
    /// `Arc`. The factorization is a pure deterministic function of the
    /// strategy, so reusing it is bitwise identical to rebuilding it.
    ///
    /// Falls back to an unmemoized build when the entry is gone (evicted
    /// between the caller's `get` and this call) or holds a different plan
    /// (replaced by a racing insert) — correctness never depends on the
    /// cache's retention.
    pub fn prepared(
        &self,
        key: &WorkloadFingerprint,
        plan: &Arc<Plan>,
    ) -> Arc<PreparedReconstruct> {
        self.memoized(
            key,
            plan,
            |entry| &entry.prepared,
            || PreparedReconstruct::new(plan.strategy()),
        )
    }

    /// The remote fan-out's [`OperandKeys`] for `plan`, memoized beside
    /// [`StrategyCache::prepared`] under the same rules. `prepared` must be
    /// the factorization of the same plan.
    pub fn operand_keys(
        &self,
        key: &WorkloadFingerprint,
        plan: &Arc<Plan>,
        prepared: &PreparedReconstruct,
    ) -> Arc<OperandKeys> {
        self.memoized(
            key,
            plan,
            |entry| &entry.operand_keys,
            || OperandKeys::new(plan.strategy(), prepared),
        )
    }

    /// One per-plan memo slot: built by the first caller, shared by every
    /// later one, bypassed (fresh build, not stored) when the entry is gone
    /// or no longer holds `plan`.
    fn memoized<T>(
        &self,
        key: &WorkloadFingerprint,
        plan: &Arc<Plan>,
        slot: impl Fn(&CacheEntry) -> &OnceLock<Arc<T>>,
        build: impl Fn() -> T,
    ) -> Arc<T> {
        let shard = read_recover(self.shard(key));
        if let Some(entry) = shard.get(key) {
            if Arc::ptr_eq(&entry.plan, plan) {
                return Arc::clone(slot(entry).get_or_init(|| Arc::new(build())));
            }
        }
        drop(shard);
        Arc::new(build())
    }

    /// Inserts a plan, evicting least-recently-used entries when over
    /// capacity (LRU across all shards).
    pub fn insert(&self, key: WorkloadFingerprint, plan: Arc<Plan>) {
        let stamp = self.stamp();
        let grew = {
            let mut shard = write_recover(self.shard(&key));
            match shard.entry(key) {
                Entry::Occupied(mut e) => {
                    // Concurrent planners may race on the same miss; keep one
                    // entry, refreshed. The memoized factorization and keys
                    // belong to the old plan: drop them so the next serve
                    // rebuilds them from the plan actually stored.
                    let entry = e.get_mut();
                    entry.plan = plan;
                    entry.last_used.store(stamp, Ordering::Relaxed);
                    entry.prepared = OnceLock::new();
                    entry.operand_keys = OnceLock::new();
                    false
                }
                Entry::Vacant(v) => {
                    v.insert(CacheEntry {
                        plan,
                        last_used: AtomicU64::new(stamp),
                        prepared: OnceLock::new(),
                        operand_keys: OnceLock::new(),
                    });
                    true
                }
            }
        };
        if grew && self.len.fetch_add(1, Ordering::SeqCst) + 1 > self.capacity {
            self.evict_lru();
        }
    }

    /// Removes globally-oldest entries until within capacity. Insert-path
    /// only, so the O(len) scan runs in the shadow of a full SELECT.
    fn evict_lru(&self) {
        while self.len.load(Ordering::SeqCst) > self.capacity {
            let mut oldest: Option<(usize, WorkloadFingerprint, u64)> = None;
            for (i, shard) in self.shards.iter().enumerate() {
                for (k, e) in read_recover(shard).iter() {
                    let ts = e.last_used.load(Ordering::Relaxed);
                    if oldest.as_ref().is_none_or(|(_, _, best)| ts < *best) {
                        oldest = Some((i, k.clone(), ts));
                    }
                }
            }
            let Some((i, key, _)) = oldest else {
                break; // racing evictors emptied the cache under us
            };
            if write_recover(&self.shards[i]).remove(&key).is_some() {
                self.len.fetch_sub(1, Ordering::SeqCst);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            // If another thread removed it first, loop and rescan.
        }
    }

    /// Current effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len: self.len.load(Ordering::SeqCst),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdmm_core::{builders, Hdmm, Workload};

    fn plan_of(w: &Workload) -> Arc<Plan> {
        Arc::new(Hdmm::with_restarts(1).plan(w))
    }

    #[test]
    fn hit_after_insert() {
        let cache = StrategyCache::new(4);
        let w = builders::prefix_1d(8);
        let fp = w.fingerprint();
        assert!(cache.get(&fp).is_none());
        cache.insert(fp.clone(), plan_of(&w));
        assert!(cache.get(&fp).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 1, 1));
    }

    #[test]
    fn lru_eviction_order() {
        let cache = StrategyCache::new(2);
        let w1 = builders::prefix_1d(4);
        let w2 = builders::prefix_1d(5);
        let w3 = builders::prefix_1d(6);
        cache.insert(w1.fingerprint(), plan_of(&w1));
        cache.insert(w2.fingerprint(), plan_of(&w2));
        // Touch w1 so w2 becomes the LRU entry.
        assert!(cache.get(&w1.fingerprint()).is_some());
        cache.insert(w3.fingerprint(), plan_of(&w3));
        assert!(cache.get(&w2.fingerprint()).is_none(), "w2 was evicted");
        assert!(cache.get(&w1.fingerprint()).is_some());
        assert!(cache.get(&w3.fingerprint()).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn reinsert_does_not_duplicate() {
        let cache = StrategyCache::new(2);
        let w = builders::prefix_1d(4);
        cache.insert(w.fingerprint(), plan_of(&w));
        cache.insert(w.fingerprint(), plan_of(&w));
        assert_eq!(cache.stats().len, 1);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn peek_affects_neither_counters_nor_recency() {
        let cache = StrategyCache::new(2);
        let w1 = builders::prefix_1d(4);
        let w2 = builders::prefix_1d(5);
        let w3 = builders::prefix_1d(6);
        cache.insert(w1.fingerprint(), plan_of(&w1));
        cache.insert(w2.fingerprint(), plan_of(&w2));
        // Peeking w1 must NOT refresh it: w1 stays the LRU entry.
        assert!(cache.peek(&w1.fingerprint()).is_some());
        cache.insert(w3.fingerprint(), plan_of(&w3));
        assert!(cache.peek(&w1.fingerprint()).is_none(), "w1 was evicted");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0), "peek counts nothing");
    }

    #[test]
    fn prepared_is_memoized_per_entry_and_reset_on_reinsert() {
        let cache = StrategyCache::new(2);
        let w = builders::prefix_1d(8);
        let fp = w.fingerprint();
        cache.insert(fp.clone(), plan_of(&w));
        let plan = cache.get(&fp).unwrap();
        let p1 = cache.prepared(&fp, &plan);
        let p2 = cache.prepared(&fp, &plan);
        assert!(Arc::ptr_eq(&p1, &p2), "second lookup reuses the build");
        let k1 = cache.operand_keys(&fp, &plan, &p1);
        assert!(
            Arc::ptr_eq(&k1, &cache.operand_keys(&fp, &plan, &p1)),
            "operand keys share the memo rules"
        );
        // Replacing the plan invalidates the memoized factorization.
        cache.insert(fp.clone(), plan_of(&w));
        let plan2 = cache.get(&fp).unwrap();
        let p3 = cache.prepared(&fp, &plan2);
        assert!(!Arc::ptr_eq(&p1, &p3), "reinsert resets the memo");
        assert!(!Arc::ptr_eq(&k1, &cache.operand_keys(&fp, &plan2, &p3)));
        // A stale plan (no longer the cached one) still gets a working
        // factorization, just unmemoized.
        let p4 = cache.prepared(&fp, &plan);
        assert!(!Arc::ptr_eq(&p3, &p4));
    }

    #[test]
    fn concurrent_hits_and_inserts_keep_counters_consistent() {
        let cache = Arc::new(StrategyCache::new(16));
        let workloads: Vec<Workload> = (4..12).map(builders::prefix_1d).collect();
        for w in &workloads {
            cache.insert(w.fingerprint(), plan_of(w));
        }
        std::thread::scope(|s| {
            for t in 0..4 {
                let cache = Arc::clone(&cache);
                let workloads = &workloads;
                s.spawn(move || {
                    for i in 0..100 {
                        let w = &workloads[(t + i) % workloads.len()];
                        assert!(cache.get(&w.fingerprint()).is_some());
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits, 400);
        assert_eq!(stats.len, 8);
        assert_eq!(stats.evictions, 0);
    }
}
