//! Per-phase latency histograms and serving counters.
//!
//! Everything here is lock-free (`AtomicU64` only): recording a latency on
//! the serving path costs a handful of relaxed atomic adds, so telemetry can
//! stay on in production. Histograms use power-of-two nanosecond buckets —
//! coarse, but latencies spread over nine orders of magnitude (sub-µs answer
//! on tiny domains, multi-second SELECT; Fig. 6 of the paper) and quantiles
//! only need to be order-of-magnitude faithful to steer serving decisions.

use hdmm_obs::{Observer, Phase};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of power-of-two buckets; the last covers everything ≥ 2^39 ns
/// (~9 minutes), far beyond any single request.
const BUCKETS: usize = 40;

/// A lock-free latency histogram with power-of-two nanosecond buckets.
#[derive(Debug)]
pub struct PhaseHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for PhaseHistogram {
    fn default() -> Self {
        PhaseHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl PhaseHistogram {
    /// Records one observation.
    pub fn record(&self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        // floor(log2(ns)) for ns ≥ 1; duration 0 lands in bucket 0.
        let idx = (63 - ns.max(1).leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> PhaseSnapshot {
        let mut buckets = vec![0u64; BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        let count = self.count.load(Ordering::Relaxed);
        let sum_ns = self.sum_ns.load(Ordering::Relaxed);
        PhaseSnapshot {
            count,
            mean_ns: if count == 0 {
                0.0
            } else {
                sum_ns as f64 / count as f64
            },
            sum_ns,
            buckets,
        }
    }
}

/// Point-in-time summary of one phase histogram.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Mean latency in nanoseconds.
    pub mean_ns: f64,
    /// Total observed latency in nanoseconds (Prometheus `_sum`).
    pub sum_ns: u64,
    /// Raw per-bucket counts; bucket `i` covers `[2^i, 2^(i+1) − 1]` ns
    /// (bucket 0 also absorbs zero-duration observations).
    pub buckets: Vec<u64>,
}

impl PhaseSnapshot {
    /// The Prometheus cumulative-bucket view: `(upper_bound_seconds,
    /// cumulative_count)` pairs, one per power-of-two bucket, in increasing
    /// bound order. Each bound is the bucket's **inclusive** upper bound
    /// (`(2^(i+1) − 1)` ns, in seconds), so a quantile read off the
    /// rendered histogram is an upper estimate, exact to within one power
    /// of two.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut cum = 0u64;
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                cum += n;
                (((2u64 << i).saturating_sub(1)) as f64 * 1e-9, cum)
            })
            .collect()
    }
}

/// The engine's telemetry registry: one histogram per request phase plus
/// serving counters. Shared by reference across all worker threads.
#[derive(Debug, Default)]
pub struct Telemetry {
    select: PhaseHistogram,
    measure: PhaseHistogram,
    reconstruct: PhaseHistogram,
    answer: PhaseHistogram,
    requests: AtomicU64,
    failures: AtomicU64,
    selects_run: AtomicU64,
    dedup_waits: AtomicU64,
    plan_disk_hits: AtomicU64,
    inflight_selects: AtomicU64,
    remote_fallbacks: AtomicU64,
    slow_queries: AtomicU64,
    restarts_run: AtomicU64,
    select_threads: AtomicU64,
}

impl Telemetry {
    pub(crate) fn record_select(&self, elapsed: Duration) {
        self.select.record(elapsed);
        self.selects_run.fetch_add(1, Ordering::Relaxed);
    }

    /// Publishes the resolved restart-grid lane count (a static gauge: set
    /// once at engine construction, after `threads = 0` resolves to the
    /// machine's available parallelism).
    pub(crate) fn set_select_threads(&self, threads: u64) {
        self.select_threads.store(threads, Ordering::Relaxed);
    }

    pub(crate) fn record_request(&self, ok: bool) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_dedup_wait(&self) {
        self.dedup_waits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_plan_disk_hit(&self) {
        self.plan_disk_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_remote_fallback(&self) {
        self.remote_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_slow_query(&self) {
        self.slow_queries.fetch_add(1, Ordering::Relaxed);
    }

    /// RAII marker for one in-flight SELECT; decrements on drop so the gauge
    /// is correct even when optimization panics.
    pub(crate) fn select_started(&self) -> InflightSelect<'_> {
        self.inflight_selects.fetch_add(1, Ordering::Relaxed);
        InflightSelect { telemetry: self }
    }

    /// Number of SELECT optimizations currently running.
    pub fn inflight_selects(&self) -> u64 {
        self.inflight_selects.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of all histograms and counters.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            select: self.select.snapshot(),
            measure: self.measure.snapshot(),
            reconstruct: self.reconstruct.snapshot(),
            answer: self.answer.snapshot(),
            requests: self.requests.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            selects_run: self.selects_run.load(Ordering::Relaxed),
            dedup_waits: self.dedup_waits.load(Ordering::Relaxed),
            plan_disk_hits: self.plan_disk_hits.load(Ordering::Relaxed),
            inflight_selects: self.inflight_selects.load(Ordering::Relaxed),
            remote_fallbacks: self.remote_fallbacks.load(Ordering::Relaxed),
            slow_queries: self.slow_queries.load(Ordering::Relaxed),
            restarts_run: self.restarts_run.load(Ordering::Relaxed),
            select_threads: self.select_threads.load(Ordering::Relaxed),
        }
    }
}

/// See [`Telemetry::select_started`].
#[derive(Debug)]
pub(crate) struct InflightSelect<'a> {
    telemetry: &'a Telemetry,
}

impl Drop for InflightSelect<'_> {
    fn drop(&mut self) {
        self.telemetry
            .inflight_selects
            .fetch_sub(1, Ordering::Relaxed);
    }
}

/// The histograms and the restart counter; per-shard task time lives in the
/// `shard:<phase>` spans.
impl Observer for Telemetry {
    fn phase_complete(&self, phase: Phase, elapsed: Duration) {
        match phase {
            Phase::Measure => self.measure.record(elapsed),
            Phase::Reconstruct => self.reconstruct.record(elapsed),
            Phase::Answer => self.answer.record(elapsed),
        }
    }

    /// Any operator, any thread: every cell counts once.
    fn restart_complete(&self, _: &'static str, _: usize, _: f64, _: Duration) {
        self.restarts_run.fetch_add(1, Ordering::Relaxed);
    }
}

/// Point-in-time copy of the engine's telemetry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySnapshot {
    /// SELECT (strategy optimization) latency — cache misses only.
    pub select: PhaseSnapshot,
    /// MEASURE (noisy strategy answering) latency.
    pub measure: PhaseSnapshot,
    /// RECONSTRUCT (least-squares estimation) latency.
    pub reconstruct: PhaseSnapshot,
    /// Workload answering latency.
    pub answer: PhaseSnapshot,
    /// Requests served (including failures).
    pub requests: u64,
    /// Requests that returned a typed error.
    pub failures: u64,
    /// SELECT optimizations actually executed (≤ cache misses, thanks to
    /// single-flight dedup).
    pub selects_run: u64,
    /// Requests that joined another request's in-flight SELECT instead of
    /// optimizing themselves.
    pub dedup_waits: u64,
    /// Plans loaded from the persistent strategy cache instead of optimized.
    pub plan_disk_hits: u64,
    /// SELECTs running at snapshot time.
    pub inflight_selects: u64,
    /// Sharded requests whose remote fan-out failed (pool-wide) and were
    /// re-served locally from the same request seed — byte-identical answers,
    /// but an operator signal that the worker fleet is unhealthy.
    pub remote_fallbacks: u64,
    /// Requests slower than [`crate::EngineOptions::slow_query_threshold`];
    /// each also force-flushed its span tree to the collector.
    pub slow_queries: u64,
    /// Optimizer restart cells executed across all SELECTs (every
    /// `(restart, operator)` grid cell counts once, whichever thread ran it).
    pub restarts_run: u64,
    /// Resolved lane count of the SELECT restart executor (`threads = 0`
    /// shows the machine's available parallelism it resolved to).
    pub select_threads: u64,
}

/// Per-dataset serving counters and ε-budget gauges, exported with
/// [`crate::Engine::metrics`] so sharded and dense datasets can be compared
/// from one call.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetMetrics {
    /// Dataset name.
    pub name: String,
    /// Requests that reached this dataset (including failures).
    pub requests: u64,
    /// Requests that returned a typed error (or panicked) after resolving.
    pub failures: u64,
    /// How many slabs the dataset's backend is partitioned into.
    pub shards: usize,
    /// Total ε budget granted at registration.
    pub eps_total: f64,
    /// ε spent so far (committed measurements).
    pub eps_spent: f64,
    /// ε still available (`eps_total − eps_spent`, floored at 0).
    pub eps_remaining: f64,
    /// Owning tenant, when the dataset is charged against a shared quota.
    pub tenant: Option<String>,
}

/// Per-tenant ε-quota gauges (the sum across all of the tenant's datasets).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMetrics {
    /// Tenant name.
    pub tenant: String,
    /// Quota cap (may be infinite when registered but never capped).
    pub eps_cap: f64,
    /// ε spent across the tenant's datasets.
    pub eps_spent: f64,
    /// ε still available under the quota.
    pub eps_remaining: f64,
}

/// Observability-pipeline counters: the span collector's throughput and the
/// ε-audit stream's, so the monitoring plane can watch its own data loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObsMetrics {
    /// Spans pushed into the collector over the engine's lifetime.
    pub spans_collected: u64,
    /// Spans lost to collector ring overflow (oldest overwritten).
    pub spans_dropped: u64,
    /// Spans the collector can retain.
    pub trace_capacity: usize,
    /// ε-audit events emitted.
    pub audit_events: u64,
    /// Audit events dropped on saturated subscriber channels.
    pub audit_subscriber_drops: u64,
}

/// Everything [`crate::Engine::metrics`] exposes in one call: strategy-cache
/// counters, the telemetry snapshot, per-dataset counters and ε gauges,
/// tenant quotas, and the observability pipeline's own counters.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineMetrics {
    /// Strategy-cache effectiveness counters.
    pub cache: crate::cache::CacheStats,
    /// Per-phase latency histograms and serving counters.
    pub telemetry: TelemetrySnapshot,
    /// Per-dataset request/failure counters and ε gauges, sorted by name.
    pub datasets: Vec<DatasetMetrics>,
    /// Per-tenant ε-quota gauges, sorted by tenant name.
    pub tenants: Vec<TenantMetrics>,
    /// Span-collector and audit-stream counters.
    pub obs: ObsMetrics,
    /// Worker-pool health (per-worker liveness, task/failure counters, mean
    /// task latency) when the engine serves through a remote transport.
    pub remote: Option<hdmm_net::PoolHealth>,
    /// Durable ε-ledger counters (appends, fsyncs, snapshots, recovery) when
    /// the engine runs with [`crate::EngineOptions::wal_dir`] set.
    pub wal: Option<crate::wal::WalMetrics>,
}

/// The Prometheus page ([`crate::render_prometheus`]): the one rendering of
/// the engine's metrics.
impl std::fmt::Display for EngineMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&crate::render_prometheus(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_tracks_count_mean_and_buckets() {
        let h = PhaseHistogram::default();
        for ms in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 100] {
            h.record(Duration::from_millis(ms));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10);
        assert!((s.mean_ns - 10.9e6).abs() < 1e5, "{}", s.mean_ns);
        // 1 ms = 2^19.9 ns lands in bucket 19, 100 ms = 2^26.6 ns in 26.
        assert_eq!((s.buckets[19], s.buckets[26]), (9, 1));
        assert_eq!(s.sum_ns, 109_000_000);
    }

    #[test]
    fn empty_histogram_snapshots_to_zeros() {
        let s = PhaseHistogram::default().snapshot();
        assert_eq!((s.count, s.sum_ns), (0, 0));
        assert_eq!(s.mean_ns, 0.0);
        assert!(s.buckets.iter().all(|&n| n == 0));
    }

    #[test]
    fn zero_duration_is_recorded() {
        let h = PhaseHistogram::default();
        h.record(Duration::ZERO);
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn inflight_gauge_is_exception_safe() {
        let t = Telemetry::default();
        {
            let _guard = t.select_started();
            assert_eq!(t.inflight_selects(), 1);
        }
        assert_eq!(t.inflight_selects(), 0);
    }

    #[test]
    fn observer_routes_phases_to_their_histograms() {
        let t = Telemetry::default();
        t.phase_complete(Phase::Measure, Duration::from_micros(5));
        t.phase_complete(Phase::Reconstruct, Duration::from_micros(7));
        t.phase_complete(Phase::Answer, Duration::from_micros(9));
        let s = t.snapshot();
        assert_eq!(
            (s.measure.count, s.reconstruct.count, s.answer.count),
            (1, 1, 1)
        );
        assert_eq!(s.select.count, 0);
    }

    #[test]
    fn metrics_display_is_the_prometheus_page() {
        let t = Telemetry::default();
        t.record_select(Duration::from_millis(3));
        t.record_request(true);
        let m = EngineMetrics {
            cache: crate::cache::CacheStats {
                hits: 0,
                misses: 1,
                evictions: 0,
                len: 1,
                capacity: 64,
            },
            telemetry: t.snapshot(),
            datasets: Vec::new(),
            tenants: Vec::new(),
            obs: ObsMetrics::default(),
            remote: None,
            wal: None,
        };
        let text = m.to_string();
        assert_eq!(text, crate::render_prometheus(&m));
        assert!(text.contains("hdmm_selects_run_total 1"), "{text}");
    }
}
