//! The exact-answer cache: MEASURE's unscaled blocks `A_p·x`, computed once
//! per (dataset, plan).
//!
//! MEASURE is `y = A·x + Lap(‖A‖₁/ε)`, and only the noise is new per
//! request: a registered data vector never changes (names are unique, and no
//! call updates or removes a dataset), and a plan's measured products are
//! fixed when the plan is made. So the exact blocks of a (dataset, plan)
//! pair are a value: the first request on the pair computes them
//! (`hdmm_mechanism::exact_blocks`), whichever kernels ran — plain, RPC or
//! the plain fallback — and [`MeasureCache::insert`] keeps them. Every
//! request, the first included, then runs the same MEASURE on them: copy
//! each block into its scratch, scale it and draw noise. A request that
//! finds them ([`MeasureCache::get`]) builds no marginal table over `x` and
//! sends no task to a worker.
//!
//! * **Bounded in bytes.** The engine's cache holds at most
//!   [`MEASURE_CACHE_BYTES`](crate::cache::MEASURE_CACHE_BYTES) of blocks
//!   and evicts the least recently used entries to stay under it. A plan
//!   whose blocks alone exceed the bound is computed on every request and
//!   never kept, with the same bits.
//! * **Exact lengths.** A kept block is a copy of exactly its length: the
//!   scratch buffers MEASURE computes into may hold more, and the byte
//!   bound counts what is allocated.
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
//!   same bits; the first insert wins, and the later ones get its blocks.

use crate::sync::lock_recover;
use hdmm_core::Plan;
use hdmm_linalg::KronScratch;
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
    /// Requests whose MEASURE found its blocks cached.
    pub hits: u64,
    /// Requests whose MEASURE computed its blocks.
    pub misses: u64,
    /// Entries dropped to stay under the byte bound or because their plan
    /// was dropped.
    pub evictions: u64,
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

    /// The cached blocks of `dataset` with `plan`, counted as a hit; `None`
    /// is a miss, and the request computes them.
    pub(crate) fn get(&self, dataset: u64, plan: &Arc<Plan>) -> Option<Arc<[Vec<f64>]>> {
        let cached = {
            let mut entries = lock_recover(&self.entries);
            entries.clock += 1;
            let now = entries.clock;
            entries.map.get_mut(&key(dataset, plan)).map(|entry| {
                entry.last_used = now;
                Arc::clone(&entry.blocks)
            })
        };
        let counter = if cached.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        cached
    }

    /// Keeps the blocks a missing request computed — a copy of each at its
    /// exact length, the computed buffers going back to `scratch` — and
    /// returns what MEASURE reads: the kept blocks, the ones a concurrent
    /// miss kept first, or, when they exceed the bound, `computed` itself,
    /// not kept. Entries of dropped plans go first, then the least recently
    /// used ones until the bound holds.
    pub(crate) fn insert(
        &self,
        dataset: u64,
        plan: &Arc<Plan>,
        computed: Vec<Vec<f64>>,
        scratch: &mut KronScratch,
    ) -> Arc<[Vec<f64>]> {
        let values: usize = computed.iter().map(Vec::len).sum();
        let bytes = values.saturating_mul(std::mem::size_of::<f64>());
        if bytes > self.capacity {
            return computed.into();
        }
        let blocks: Arc<[Vec<f64>]> = computed.iter().map(|b| b.to_vec()).collect();
        for block in computed {
            scratch.give(block);
        }
        let mut guard = lock_recover(&self.entries);
        let entries = &mut *guard;
        let key = key(dataset, plan);
        if let Some(first) = entries.map.get(&key) {
            return Arc::clone(&first.blocks);
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
                blocks: Arc::clone(&blocks),
                bytes,
                last_used: entries.clock,
            },
        );
        self.evictions.fetch_add(dropped, Ordering::Relaxed);
        blocks
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

    /// Blocks as MEASURE would compute them for `plan`, tagged by `tag`.
    fn blocks(plan: &Plan, tag: f64) -> Vec<Vec<f64>> {
        let products = plan.prepared().products();
        products.iter().map(|p| vec![tag; p.rows()]).collect()
    }

    /// Fills the entry of `(dataset, plan)` as a missing request would.
    fn fill(cache: &MeasureCache, dataset: u64, plan: &Arc<Plan>, tag: f64) {
        assert!(cache.get(dataset, plan).is_none());
        let kept = cache.insert(dataset, plan, blocks(plan, tag), &mut KronScratch::new());
        assert_eq!(kept[0][0], tag);
    }

    fn reused(cache: &MeasureCache, dataset: u64, plan: &Arc<Plan>) -> Option<f64> {
        cache.get(dataset, plan).map(|blocks| blocks[0][0])
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
        fill(&cache, 0, &big, 1.0);
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
        assert!(cache.get(0, &p).is_none() && cache.get(0, &p).is_none());
        let scratch = &mut KronScratch::new();
        let first = cache.insert(0, &p, blocks(&p, 1.0), scratch);
        let second = cache.insert(0, &p, blocks(&p, 2.0), scratch);
        assert!(
            Arc::ptr_eq(&first, &second),
            "the later miss reads the first"
        );
        assert_eq!(reused(&cache, 0, &p), Some(1.0));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.bytes), (1, 128));
    }

    /// Blocks computed into reused scratch buffers hold more room than
    /// values; the cache keeps each at exactly its length, and its byte
    /// count is what the kept blocks hold.
    #[test]
    fn cached_blocks_hold_exactly_their_length() {
        let cache = MeasureCache::new(1 << 20);
        let plans = [plan(600), plan(700)];
        let scratch = &mut KronScratch::new();
        for (i, p) in plans.iter().enumerate() {
            scratch.give(vec![0.0; 1000]);
            let computed: Vec<Vec<f64>> = blocks(p, i as f64)
                .iter()
                .map(|b| scratch.copy_of(b))
                .collect();
            assert!(computed[0].capacity() > computed[0].len());
            assert!(cache.get(0, p).is_none());
            cache.insert(0, p, computed, scratch);
        }
        let mut held = 0;
        for p in &plans {
            let kept = cache.get(0, p).expect("cached");
            for block in kept.iter() {
                assert_eq!(
                    block.capacity(),
                    block.len(),
                    "a block kept with spare room"
                );
                held += block.capacity() * std::mem::size_of::<f64>();
            }
        }
        assert_eq!(cache.stats().bytes, held as u64);
    }
}
