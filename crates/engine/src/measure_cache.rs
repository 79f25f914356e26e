//! The exact-answer cache: MEASURE's unscaled blocks `A_p·x`, computed once
//! per (dataset, plan).
//!
//! MEASURE is `y = A·x + Lap(‖A‖₁/ε)`, and only the noise is new per
//! request: a registered data vector never changes (names are unique, and no
//! call updates or removes a dataset), and a plan's measured products are
//! fixed when the plan is made. So the first request on a (dataset, plan)
//! pair keeps a copy of each block before θ-scaling
//! ([`ExactBlocks::Keep`]), whichever kernels computed it — plain, RPC or
//! the local fallback — and every later one copies the blocks into its
//! scratch ([`ExactBlocks::Reuse`]) and only scales and draws noise: the
//! same bits, in the same draw order. A reused request builds no marginal
//! table over `x` and sends no task to a worker.
//!
//! * **Bounded in bytes.** The engine's cache holds at most
//!   [`MEASURE_CACHE_BYTES`](crate::cache::MEASURE_CACHE_BYTES) of blocks
//!   and evicts the least recently used entries to stay under it. A plan
//!   whose blocks alone exceed the bound is served uncached, with the same
//!   bits.
//! * **One plan per entry.** An entry is keyed by the dataset's registration
//!   id and the address of the `Arc<Plan>` it was computed with, and holds a
//!   [`Weak`] of that plan, which keeps the address from being reused. A
//!   re-selected or reloaded plan is another `Arc`, so it misses; entries
//!   whose plan is gone are dropped at the next insert.
//! * **Private.** The blocks are exact answers over private data, like `x`
//!   itself. They live in this process's memory only: nothing here reaches
//!   the plan store, the WAL, a worker, a log or a `Debug` impl.
//! * **Short critical sections.** One mutex, held to look an entry up (an
//!   `Arc` clone) or to insert one (with its evictions), never while a block
//!   is computed or copied. Concurrent misses on one pair each compute the
//!   same bits; the first insert wins.

use crate::sync::lock_recover;
use hdmm_core::Plan;
use hdmm_mechanism::ExactBlocks;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Counters and size of the exact-answer cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MeasureCacheStats {
    /// Bytes of blocks held now.
    pub bytes: u64,
    /// (dataset, plan) pairs held now.
    pub entries: usize,
    /// Requests whose MEASURE copied cached blocks.
    pub hits: u64,
    /// Requests whose MEASURE computed its blocks.
    pub misses: u64,
    /// Entries dropped to stay under the byte bound or because their plan
    /// was dropped.
    pub evictions: u64,
}

/// What one request's MEASURE does with its unscaled blocks.
pub(crate) enum Exact {
    /// Copy the cached blocks of the request's (dataset, plan).
    Reuse(Arc<[Vec<f64>]>),
    /// Compute them and keep a copy for [`MeasureCache::insert`].
    Keep(Vec<Vec<f64>>),
    /// Compute them only: they would not fit in the cache.
    Compute,
}

impl Exact {
    /// Whether the blocks are cached: the request needs no kernel.
    pub(crate) fn is_reuse(&self) -> bool {
        matches!(self, Exact::Reuse(_))
    }

    /// The pipeline's view of this: what `measure_on` reads or fills.
    pub(crate) fn blocks(&mut self) -> ExactBlocks<'_> {
        match self {
            Exact::Reuse(blocks) => ExactBlocks::Reuse(blocks),
            Exact::Keep(kept) => ExactBlocks::Keep(kept),
            Exact::Compute => ExactBlocks::Compute,
        }
    }
}

/// `(dataset registration id, plan address)`.
type Key = (u64, usize);

struct Entry {
    /// The plan the blocks were computed with; while the entry lives, no
    /// other plan can have its address.
    plan: Weak<Plan>,
    blocks: Arc<[Vec<f64>]>,
    bytes: usize,
    /// Logical-clock stamp of the last lookup; the smallest is the LRU entry.
    last_used: u64,
}

#[derive(Default)]
struct Entries {
    map: HashMap<Key, Entry>,
    bytes: usize,
    clock: u64,
}

/// The engine's exact-answer cache (see the module doc).
pub(crate) struct MeasureCache {
    entries: Mutex<Entries>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Bytes of the blocks MEASURE computes for `plan`.
fn block_bytes(plan: &Plan) -> usize {
    let values: usize = plan.prepared().products().iter().map(|p| p.rows()).sum();
    values.saturating_mul(std::mem::size_of::<f64>())
}

fn key(dataset: u64, plan: &Arc<Plan>) -> Key {
    (dataset, Arc::as_ptr(plan) as usize)
}

impl MeasureCache {
    /// A cache holding at most `capacity` bytes of blocks.
    pub(crate) fn new(capacity: usize) -> Self {
        MeasureCache {
            entries: Mutex::new(Entries::default()),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// What a request on `dataset` with `plan` does with its blocks: reuse
    /// the cached ones, or compute them — keeping a copy when they fit.
    pub(crate) fn lookup(&self, dataset: u64, plan: &Arc<Plan>) -> Exact {
        let cached = {
            let mut entries = lock_recover(&self.entries);
            entries.clock += 1;
            let now = entries.clock;
            entries.map.get_mut(&key(dataset, plan)).map(|entry| {
                entry.last_used = now;
                Arc::clone(&entry.blocks)
            })
        };
        match cached {
            Some(blocks) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Exact::Reuse(blocks)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                if block_bytes(plan) <= self.capacity {
                    Exact::Keep(Vec::new())
                } else {
                    Exact::Compute
                }
            }
        }
    }

    /// Caches the blocks a request kept ([`Exact::Keep`], filled by a
    /// MEASURE that returned); anything else is ignored. Entries of dropped
    /// plans go first, then the least recently used ones until the bound
    /// holds. A pair cached meanwhile by a concurrent miss keeps its entry.
    pub(crate) fn insert(&self, dataset: u64, plan: &Arc<Plan>, exact: Exact) {
        let Exact::Keep(kept) = exact else {
            return;
        };
        let bytes = kept.iter().map(Vec::len).sum::<usize>() * std::mem::size_of::<f64>();
        if bytes > self.capacity {
            return;
        }
        let mut guard = lock_recover(&self.entries);
        let entries = &mut *guard;
        let key = key(dataset, plan);
        if entries.map.contains_key(&key) {
            return;
        }
        let mut dropped = 0;
        let mut freed = 0;
        entries.map.retain(|_, e| {
            let live = e.plan.strong_count() > 0;
            if !live {
                dropped += 1;
                freed += e.bytes;
            }
            live
        });
        entries.bytes -= freed;
        while entries.bytes + bytes > self.capacity {
            let oldest = entries
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            let Some(e) = oldest.and_then(|k| entries.map.remove(&k)) else {
                break;
            };
            dropped += 1;
            entries.bytes -= e.bytes;
        }
        entries.clock += 1;
        entries.bytes += bytes;
        entries.map.insert(
            key,
            Entry {
                plan: Arc::downgrade(plan),
                blocks: kept.into(),
                bytes,
                last_used: entries.clock,
            },
        );
        self.evictions.fetch_add(dropped, Ordering::Relaxed);
    }

    /// Current size and counters.
    pub(crate) fn stats(&self) -> MeasureCacheStats {
        let (bytes, entries) = {
            let entries = lock_recover(&self.entries);
            (entries.bytes as u64, entries.map.len())
        };
        MeasureCacheStats {
            bytes,
            entries,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdmm_core::{builders, WorkloadGrams};
    use hdmm_linalg::StructuredMatrix;
    use hdmm_mechanism::Strategy;
    use hdmm_optimizer::Selected;

    /// A plan over `n` cells whose one product has `n` rows: `8·n` bytes of
    /// blocks.
    fn plan(n: usize) -> Arc<Plan> {
        let w = builders::prefix_1d(n);
        let selected = Selected {
            strategy: Strategy::kron(vec![StructuredMatrix::prefix(n)]),
            squared_error: 1.0,
            operator: "test",
        };
        Arc::new(Plan::from_parts(
            selected,
            WorkloadGrams::from_workload(&w),
            w.query_count(),
        ))
    }

    /// Blocks as MEASURE would keep them for `plan`, tagged by `tag`.
    fn blocks(plan: &Plan, tag: f64) -> Exact {
        let products = plan.prepared().products();
        Exact::Keep(products.iter().map(|p| vec![tag; p.rows()]).collect())
    }

    /// Fills the entry of `(dataset, plan)` as a missing request would.
    fn fill(cache: &MeasureCache, dataset: u64, plan: &Arc<Plan>, tag: f64) {
        assert!(matches!(cache.lookup(dataset, plan), Exact::Keep(_)));
        cache.insert(dataset, plan, blocks(plan, tag));
    }

    fn reused(cache: &MeasureCache, dataset: u64, plan: &Arc<Plan>) -> Option<f64> {
        match cache.lookup(dataset, plan) {
            Exact::Reuse(blocks) => Some(blocks[0][0]),
            _ => None,
        }
    }

    #[test]
    fn a_filled_pair_is_reused_and_other_pairs_miss() {
        let cache = MeasureCache::new(1 << 20);
        let (a, b) = (plan(16), plan(16));
        fill(&cache, 0, &a, 1.0);
        assert_eq!(reused(&cache, 0, &a), Some(1.0));
        // Another dataset with the same plan, and the same dataset with an
        // equal plan selected again, are other entries.
        assert_eq!(reused(&cache, 1, &a), None);
        assert_eq!(reused(&cache, 0, &b), None);
        fill(&cache, 1, &a, 2.0);
        assert_eq!(
            (reused(&cache, 0, &a), reused(&cache, 1, &a)),
            (Some(1.0), Some(2.0))
        );
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.bytes), (2, 2 * 16 * 8));
        assert_eq!((stats.hits, stats.misses, stats.evictions), (3, 4, 0));
    }

    #[test]
    fn the_byte_bound_evicts_the_least_recently_used_entries() {
        // Room for two 16-row plans, not three.
        let cache = MeasureCache::new(2 * 16 * 8 + 8);
        let plans: Vec<Arc<Plan>> = (0..3).map(|_| plan(16)).collect();
        fill(&cache, 0, &plans[0], 0.0);
        fill(&cache, 0, &plans[1], 1.0);
        assert_eq!(reused(&cache, 0, &plans[0]), Some(0.0));
        fill(&cache, 0, &plans[2], 2.0);
        assert_eq!(reused(&cache, 0, &plans[1]), None, "the LRU entry went");
        assert_eq!(reused(&cache, 0, &plans[0]), Some(0.0));
        assert_eq!(reused(&cache, 0, &plans[2]), Some(2.0));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.bytes, stats.evictions), (2, 256, 1));

        // One larger entry evicts as many as it needs.
        let wide = plan(32);
        fill(&cache, 0, &wide, 3.0);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.bytes, stats.evictions), (1, 256, 3));
    }

    #[test]
    fn an_oversize_plan_is_computed_and_never_cached() {
        let cache = MeasureCache::new(16 * 8 - 1);
        let big = plan(16);
        assert!(matches!(cache.lookup(0, &big), Exact::Compute));
        cache.insert(0, &big, Exact::Compute);
        // Even blocks kept by a caller are refused.
        cache.insert(0, &big, blocks(&big, 1.0));
        assert_eq!(reused(&cache, 0, &big), None);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.bytes, stats.misses), (0, 0, 2));
    }

    #[test]
    fn entries_of_dropped_plans_go_at_the_next_insert() {
        let cache = MeasureCache::new(1 << 20);
        let gone = plan(16);
        fill(&cache, 0, &gone, 1.0);
        drop(gone);
        let kept = plan(8);
        fill(&cache, 0, &kept, 2.0);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.bytes, stats.evictions), (1, 64, 1));
    }

    #[test]
    fn a_second_insert_of_one_pair_keeps_the_first() {
        let cache = MeasureCache::new(1 << 20);
        let p = plan(16);
        let (first, second) = (cache.lookup(0, &p), cache.lookup(0, &p));
        assert!(matches!(
            (&first, &second),
            (Exact::Keep(_), Exact::Keep(_))
        ));
        cache.insert(0, &p, blocks(&p, 1.0));
        cache.insert(0, &p, blocks(&p, 2.0));
        assert_eq!(reused(&cache, 0, &p), Some(1.0));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.bytes), (1, 128));
    }
}
