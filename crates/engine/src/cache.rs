//! The strategy cache: fingerprint-keyed memoization of SELECT, and the one
//! place that keeps "at most one SELECT per fingerprint".
//!
//! Strategy optimization is the dominant per-request cost (Figure 6 of the
//! paper: seconds to minutes at scale) while MEASURE/RECONSTRUCT are
//! milliseconds, and SELECT is a pure function of the workload. Caching on
//! the canonical [`WorkloadFingerprint`] makes repeated workloads — the
//! common case for a serving system issuing the same dashboards and reports —
//! skip re-optimization entirely. Since selection never touches data or
//! budget, a cached strategy is privacy-neutral to reuse.
//!
//! A plan carries its own reconstruction factorization
//! ([`Plan::prepared`], built when the plan is made), so a cache entry holds
//! the plan and its recency stamp, nothing else.
//!
//! ## Concurrency
//!
//! One `RwLock<HashMap>` maps each fingerprint to a [`Slot`]: a landed plan
//! (`Ready`) or a SELECT in flight (`Selecting`). A hit takes the read lock
//! and stamps recency with an atomic. A miss takes the write lock once and
//! either joins the in-flight slot — blocking on its condvar, then sharing
//! the leader's `Arc<Plan>` — or installs one and leads. The leader runs the
//! plan-store load or SELECT outside every lock, then swaps its slot to
//! `Ready` and evicts the least recently used `Ready` entry when over
//! capacity; an in-flight slot is never a victim and never counts towards
//! [`CacheStats::len`].
//!
//! Panic safety: a leader that unwinds removes its slot and marks the flight
//! abandoned, so its waiters wake and re-elect a leader; one poisoned
//! request never wedges the fingerprint (the panic itself propagates only on
//! the leader's thread).

use crate::sync::{lock_recover, read_recover, recover, write_recover};
use hdmm_core::{Plan, WorkloadFingerprint};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

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

/// How [`StrategyCache::get_or_select`] obtained its plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lookup {
    /// The plan was cached.
    Hit,
    /// This call ran the load or SELECT (or found the plan landed between
    /// its read-locked miss and taking the write lock).
    Led,
    /// This call waited on a concurrent leader's SELECT and shares its plan.
    Joined,
}

#[derive(Debug)]
struct CacheEntry {
    plan: Arc<Plan>,
    /// Logical-clock stamp of the last touch; the smallest stamp is the LRU
    /// entry.
    last_used: AtomicU64,
}

enum FlightState {
    Pending,
    Done(Arc<Plan>),
    /// The leader unwound; waiters must re-elect.
    Abandoned,
}

/// One in-flight SELECT: its waiters block on `landed` until the leader
/// moves `state` out of `Pending`.
struct Flight {
    state: Mutex<FlightState>,
    landed: Condvar,
    /// Leader-published progress, packed `total << 32 | done`. Zero means the
    /// leader has not reported anything yet.
    progress: AtomicU64,
}

impl Flight {
    fn finish(&self, state: FlightState) {
        *lock_recover(&self.state) = state;
        self.landed.notify_all();
    }

    /// The leader's plan, or `None` when it unwound.
    fn wait(&self) -> Option<Arc<Plan>> {
        let mut state = lock_recover(&self.state);
        loop {
            match &*state {
                FlightState::Pending => state = recover(self.landed.wait(state)),
                FlightState::Done(plan) => return Some(Arc::clone(plan)),
                FlightState::Abandoned => return None,
            }
        }
    }
}

/// Handle the leader uses to publish partial progress on its flight, so
/// [`StrategyCache::progress`] can show how far a SELECT has come instead of
/// a silent block.
pub(crate) struct FlightProgress<'a>(&'a Flight);

impl FlightProgress<'_> {
    /// Declares the number of units the computation will complete in total.
    pub(crate) fn set_total(&self, total: u64) {
        let done = self.0.progress.load(Ordering::Relaxed) & 0xffff_ffff;
        self.0
            .progress
            .store((total.min(u32::MAX as u64) << 32) | done, Ordering::Relaxed);
    }

    /// Records one completed unit.
    pub(crate) fn tick(&self) {
        self.0.progress.fetch_add(1, Ordering::Relaxed);
    }
}

enum Slot {
    Ready(CacheEntry),
    Selecting(Arc<Flight>),
}

/// Plans the engine's cache holds.
pub(crate) const PLAN_CAPACITY: usize = 64;

/// Bytes of exact MEASURE blocks the engine's
/// [`MeasureCache`](crate::measure_cache::MeasureCache) holds (64 MiB): one
/// `f64` per strategy query, per (dataset, plan) pair served.
pub(crate) const MEASURE_CACHE_BYTES: usize = 64 << 20;

/// An LRU map from workload fingerprint to optimized plan, with at most one
/// SELECT in flight per fingerprint.
///
/// All methods take `&self`: the cache is safely shared by reference across
/// serving threads.
pub(crate) struct StrategyCache {
    slots: RwLock<HashMap<WorkloadFingerprint, Slot>>,
    capacity: usize,
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
            slots: RwLock::new(HashMap::new()),
            capacity,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn stamp(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The plan for `key`: cached, shared from a concurrent caller's
    /// in-flight SELECT, or computed by `select` — which runs outside every
    /// lock, at most once per call, and only while this call is the
    /// fingerprint's one leader. The hit path is a read lock.
    pub fn get_or_select(
        &self,
        key: &WorkloadFingerprint,
        mut select: impl FnMut(&FlightProgress<'_>) -> Arc<Plan>,
    ) -> (Arc<Plan>, Lookup) {
        if let Some(Slot::Ready(entry)) = read_recover(&self.slots).get(key) {
            entry.last_used.store(self.stamp(), Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(&entry.plan), Lookup::Hit);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        loop {
            let (flight, leads) = {
                let mut slots = write_recover(&self.slots);
                match slots.get(key) {
                    Some(Slot::Ready(entry)) => return (Arc::clone(&entry.plan), Lookup::Led),
                    Some(Slot::Selecting(flight)) => (Arc::clone(flight), false),
                    None => {
                        let flight = Arc::new(Flight {
                            state: Mutex::new(FlightState::Pending),
                            landed: Condvar::new(),
                            progress: AtomicU64::new(0),
                        });
                        slots.insert(key.clone(), Slot::Selecting(Arc::clone(&flight)));
                        (flight, true)
                    }
                }
            };
            if leads {
                return (self.lead(key, &flight, &mut select), Lookup::Led);
            }
            if let Some(plan) = flight.wait() {
                return (plan, Lookup::Joined);
            }
        }
    }

    /// Runs `select` for the flight this call installed, then lands the plan
    /// in the flight's slot and wakes its waiters.
    fn lead(
        &self,
        key: &WorkloadFingerprint,
        flight: &Flight,
        select: &mut impl FnMut(&FlightProgress<'_>) -> Arc<Plan>,
    ) -> Arc<Plan> {
        let abandon = AbandonOnUnwind {
            cache: self,
            key,
            flight,
        };
        let plan = select(&FlightProgress(flight));
        std::mem::forget(abandon);
        {
            let mut slots = write_recover(&self.slots);
            let entry = CacheEntry {
                plan: Arc::clone(&plan),
                last_used: AtomicU64::new(self.stamp()),
            };
            slots.insert(key.clone(), Slot::Ready(entry));
            self.evict_over_capacity(&mut slots);
        }
        flight.finish(FlightState::Done(Arc::clone(&plan)));
        plan
    }

    /// Drops the least recently used `Ready` entry when more than `capacity`
    /// have landed (each landing adds one, so one victim is enough);
    /// in-flight slots are never victims.
    fn evict_over_capacity(&self, slots: &mut HashMap<WorkloadFingerprint, Slot>) {
        if ready(slots).count() <= self.capacity {
            return;
        }
        let oldest = ready(slots)
            .min_by_key(|(_, entry)| entry.last_used.load(Ordering::Relaxed))
            .map(|(key, _)| key.clone());
        if let Some(key) = oldest {
            slots.remove(&key);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `(done, total)` as last published by the leader of an in-flight
    /// SELECT for `key`: `None` when nothing is in flight (including once the
    /// plan landed), `Some((0, 0))` when the leader has not reported yet.
    pub fn progress(&self, key: &WorkloadFingerprint) -> Option<(u64, u64)> {
        match read_recover(&self.slots).get(key)? {
            Slot::Selecting(flight) => {
                let packed = flight.progress.load(Ordering::Relaxed);
                Some((packed & 0xffff_ffff, packed >> 32))
            }
            Slot::Ready(_) => None,
        }
    }

    /// Current effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len: ready(&read_recover(&self.slots)).count(),
            capacity: self.capacity,
        }
    }
}

/// The landed entries of `slots`.
fn ready(
    slots: &HashMap<WorkloadFingerprint, Slot>,
) -> impl Iterator<Item = (&WorkloadFingerprint, &CacheEntry)> {
    slots.iter().filter_map(|(key, slot)| match slot {
        Slot::Ready(entry) => Some((key, entry)),
        Slot::Selecting(_) => None,
    })
}

/// Armed while a leader's `select` runs: if it unwinds, the flight's slot is
/// removed and its waiters woken to re-elect. The success path forgets it.
struct AbandonOnUnwind<'a> {
    cache: &'a StrategyCache,
    key: &'a WorkloadFingerprint,
    flight: &'a Flight,
}

impl Drop for AbandonOnUnwind<'_> {
    fn drop(&mut self) {
        write_recover(&self.cache.slots).remove(self.key);
        self.flight.finish(FlightState::Abandoned);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdmm_core::{builders, Hdmm, Workload};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    fn plan_of(w: &Workload) -> Arc<Plan> {
        Arc::new(Hdmm::with_restarts(1).plan(w))
    }

    /// Blocks until `n` callers besides its leader hold `key`'s in-flight
    /// slot (each holds a clone of the flight; the map and leader hold two),
    /// or the slot is no longer in flight.
    fn await_waiters(cache: &StrategyCache, key: &WorkloadFingerprint, n: usize) {
        let waiting = || {
            matches!(read_recover(&cache.slots).get(key),
                Some(Slot::Selecting(flight)) if Arc::strong_count(flight) < n + 2)
        };
        while waiting() {
            std::thread::yield_now();
        }
    }

    /// `w`'s plan through the cache, selected with `plan_of` on a miss.
    fn select(cache: &StrategyCache, w: &Workload) -> (Arc<Plan>, Lookup) {
        cache.get_or_select(&w.fingerprint(), |_| plan_of(w))
    }

    /// Runs `body` while a SELECT for `w` is held in flight on another
    /// thread; the flight lands once `body` returns (or fails).
    fn while_selecting<R>(cache: &StrategyCache, w: &Workload, body: impl FnOnce() -> R) -> R {
        let (started, release) = (Barrier::new(2), Barrier::new(2));
        std::thread::scope(|s| {
            s.spawn(|| {
                cache.get_or_select(&w.fingerprint(), |_| {
                    started.wait();
                    release.wait();
                    plan_of(w)
                })
            });
            started.wait();
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
            release.wait();
            out.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        })
    }

    #[test]
    fn a_miss_leads_and_the_next_lookup_hits() {
        let cache = StrategyCache::new(4);
        let w = builders::prefix_1d(8);
        let (plan, lookup) = select(&cache, &w);
        assert_eq!(lookup, Lookup::Led);
        let (again, lookup) = cache.get_or_select(&w.fingerprint(), |_| {
            panic!("a cached fingerprint never selects again")
        });
        assert_eq!(lookup, Lookup::Hit);
        assert!(Arc::ptr_eq(&plan, &again));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 1, 1));
        assert_eq!(cache.progress(&w.fingerprint()), None, "no slot in flight");
    }

    #[test]
    fn lru_eviction_order() {
        let cache = StrategyCache::new(2);
        let w1 = builders::prefix_1d(4);
        let w2 = builders::prefix_1d(5);
        let w3 = builders::prefix_1d(6);
        select(&cache, &w1);
        select(&cache, &w2);
        // Touch w1 so w2 becomes the LRU entry.
        assert_eq!(select(&cache, &w1).1, Lookup::Hit);
        select(&cache, &w3);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(select(&cache, &w1).1, Lookup::Hit);
        assert_eq!(select(&cache, &w3).1, Lookup::Hit);
        assert_eq!(select(&cache, &w2).1, Lookup::Led, "w2 was evicted");
    }

    /// What replaced `peek`: a lookup that is not a request — a progress
    /// poll — counts nothing and refreshes no entry.
    #[test]
    fn progress_lookups_affect_neither_counters_nor_recency() {
        let cache = StrategyCache::new(2);
        let w1 = builders::prefix_1d(4);
        let w2 = builders::prefix_1d(5);
        let w3 = builders::prefix_1d(6);
        select(&cache, &w1);
        select(&cache, &w2);
        // Reading w1 this way must NOT refresh it: w1 stays the LRU entry.
        assert_eq!(cache.progress(&w1.fingerprint()), None);
        select(&cache, &w3);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 3), "only requests count");
        assert_eq!(select(&cache, &w2).1, Lookup::Hit);
        assert_eq!(select(&cache, &w1).1, Lookup::Led, "w1 was evicted");
    }

    #[test]
    fn concurrent_hits_keep_counters_consistent() {
        let cache = StrategyCache::new(16);
        let workloads: Vec<Workload> = (4..12).map(builders::prefix_1d).collect();
        for w in &workloads {
            select(&cache, w);
        }
        std::thread::scope(|s| {
            for t in 0..4 {
                let (cache, workloads) = (&cache, &workloads);
                s.spawn(move || {
                    for i in 0..100 {
                        let w = &workloads[(t + i) % workloads.len()];
                        assert_eq!(select(cache, w).1, Lookup::Hit);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (400, 8));
        assert_eq!(stats.len, 8);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn concurrent_misses_select_once_and_share_one_plan() {
        const K: usize = 8;
        let cache = StrategyCache::new(4);
        let w = builders::prefix_1d(8);
        let fp = w.fingerprint();
        let computed = AtomicUsize::new(0);
        let barrier = Barrier::new(K);
        let results: Vec<(Arc<Plan>, Lookup)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..K)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        cache.get_or_select(&fp, |_| {
                            computed.fetch_add(1, Ordering::SeqCst);
                            // Hold the flight open until every other caller
                            // has joined it.
                            await_waiters(&cache, &fp, K - 1);
                            plan_of(&w)
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(computed.load(Ordering::SeqCst), 1, "exactly one SELECT");
        let led = results.iter().filter(|(_, l)| *l == Lookup::Led).count();
        let joined = results.iter().filter(|(_, l)| *l == Lookup::Joined).count();
        assert_eq!((led, joined), (1, K - 1));
        assert!(results.iter().all(|(p, _)| Arc::ptr_eq(p, &results[0].0)));
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.len), (K as u64, 1));
        assert_eq!(cache.progress(&fp), None);
    }

    #[test]
    fn distinct_fingerprints_select_concurrently() {
        // Each leader waits inside its SELECT until all four are in flight:
        // a flight that blocked another fingerprint's would deadlock here.
        let cache = StrategyCache::new(8);
        let workloads: Vec<Workload> = (4..8).map(builders::prefix_1d).collect();
        let all_in_flight = Barrier::new(workloads.len());
        std::thread::scope(|s| {
            for w in &workloads {
                let (cache, all_in_flight) = (&cache, &all_in_flight);
                s.spawn(move || {
                    let (_, lookup) = cache.get_or_select(&w.fingerprint(), |_| {
                        all_in_flight.wait();
                        plan_of(w)
                    });
                    assert_eq!(lookup, Lookup::Led);
                });
            }
        });
        assert_eq!(cache.stats().len, workloads.len());
    }

    #[test]
    fn leader_progress_is_visible_until_the_plan_lands() {
        let cache = StrategyCache::new(2);
        let w = builders::prefix_1d(8);
        let fp = w.fingerprint();
        assert_eq!(cache.progress(&fp), None, "no flight, no progress");
        let (ready, release) = (Barrier::new(2), Barrier::new(2));
        let in_flight = std::thread::scope(|s| {
            s.spawn(|| {
                cache.get_or_select(&fp, |p| {
                    p.set_total(4);
                    p.tick();
                    p.tick();
                    ready.wait();
                    release.wait();
                    plan_of(&w)
                })
            });
            ready.wait();
            let progress = cache.progress(&fp);
            release.wait();
            progress
        });
        assert_eq!(in_flight, Some((2, 4)));
        assert_eq!(cache.progress(&fp), None, "the slot is Ready once landed");
    }

    #[test]
    fn leader_panic_releases_waiters_to_re_elect() {
        let cache = StrategyCache::new(2);
        let w = builders::prefix_1d(8);
        let fp = w.fingerprint();
        let attempts = AtomicUsize::new(0);
        let barrier = Barrier::new(2);
        let (plan, lookup) = std::thread::scope(|s| {
            let panicker = s.spawn(|| {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.get_or_select(&fp, |_| {
                        attempts.fetch_add(1, Ordering::SeqCst);
                        barrier.wait(); // this call leads; the waiter may start
                        await_waiters(&cache, &fp, 1);
                        panic!("leader dies");
                    })
                }));
                assert!(result.is_err(), "leader must observe its own panic");
            });
            let waiter = s.spawn(|| {
                barrier.wait();
                cache.get_or_select(&fp, |_| {
                    attempts.fetch_add(1, Ordering::SeqCst);
                    plan_of(&w)
                })
            });
            panicker.join().unwrap();
            waiter.join().unwrap()
        });
        // The waiter re-elected itself and computed successfully.
        assert_eq!(lookup, Lookup::Led);
        assert_eq!(attempts.load(Ordering::SeqCst), 2);
        assert_eq!(cache.progress(&fp), None, "no abandoned slot left behind");
        let (cached, lookup) = select(&cache, &w);
        assert_eq!(lookup, Lookup::Hit, "the re-elected leader's plan landed");
        assert!(Arc::ptr_eq(&cached, &plan));
    }

    #[test]
    fn selecting_slots_are_never_eviction_victims() {
        let cache = StrategyCache::new(1);
        let slow = builders::prefix_1d(4);
        let w2 = builders::prefix_1d(5);
        let w3 = builders::prefix_1d(6);
        while_selecting(&cache, &slow, || {
            select(&cache, &w2);
            select(&cache, &w3);
            // Capacity 1: w2 made way for w3, the in-flight slot stayed.
            assert_eq!(cache.stats().evictions, 1);
            assert_eq!(cache.progress(&slow.fingerprint()), Some((0, 0)));
        });
        // Landing the slow plan evicts w3, the least recently used Ready.
        let stats = cache.stats();
        assert_eq!((stats.len, stats.evictions), (1, 2));
        assert_eq!(select(&cache, &slow).1, Lookup::Hit);
    }

    #[test]
    fn selecting_slots_do_not_count_in_len() {
        let cache = StrategyCache::new(4);
        let slow = builders::prefix_1d(4);
        let w = builders::prefix_1d(5);
        select(&cache, &w);
        let len_in_flight = while_selecting(&cache, &slow, || cache.stats().len);
        assert_eq!(len_in_flight, 1, "only the landed plan counts");
        assert_eq!(cache.stats().len, 2);
    }
}
