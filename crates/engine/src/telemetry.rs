//! Per-phase latency histograms and serving counters.
//!
//! Everything here is lock-free (`AtomicU64` only): recording a latency on
//! the serving path costs a handful of relaxed atomic adds, so telemetry can
//! stay on in production. Histograms use power-of-two nanosecond buckets —
//! coarse, but latencies spread over nine orders of magnitude (sub-µs answer
//! on tiny domains, multi-second SELECT; Fig. 6 of the paper) and quantiles
//! only need to be order-of-magnitude faithful to steer serving decisions.

use hdmm_mechanism::{MechanismPhase, PhaseObserver};
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
    max_ns: AtomicU64,
}

impl Default for PhaseHistogram {
    fn default() -> Self {
        PhaseHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
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
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> PhaseSnapshot {
        let mut buckets = vec![0u64; BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        let count = self.count.load(Ordering::Relaxed);
        // Inclusive upper bound (2^(i+1) − 1 ns) of the bucket where the
        // cumulative count crosses q·count — an upper estimate of the
        // quantile, exact to within one power of two.
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = (q * count as f64).ceil().max(1.0) as u64;
            let mut seen = 0;
            for (i, &n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    return (2u64 << i).saturating_sub(1);
                }
            }
            self.max_ns.load(Ordering::Relaxed)
        };
        let sum_ns = self.sum_ns.load(Ordering::Relaxed);
        PhaseSnapshot {
            count,
            mean_ns: if count == 0 {
                0.0
            } else {
                sum_ns as f64 / count as f64
            },
            max_ns: self.max_ns.load(Ordering::Relaxed),
            p50_ns: quantile(0.50),
            p99_ns: quantile(0.99),
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
    /// Maximum latency in nanoseconds.
    pub max_ns: u64,
    /// Median latency upper bound (power-of-two resolution).
    pub p50_ns: u64,
    /// 99th-percentile latency upper bound (power-of-two resolution).
    pub p99_ns: u64,
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
    /// (`(2^(i+1) − 1)` ns, in seconds) — the same convention
    /// [`PhaseSnapshot::p50_ns`]/[`PhaseSnapshot::p99_ns`] report, so a
    /// quantile read off the rendered histogram matches the snapshot.
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

impl std::fmt::Display for PhaseSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={} p50≤{} p99≤{} max={}",
            self.count,
            fmt_ns(self.mean_ns as u64),
            fmt_ns(self.p50_ns),
            fmt_ns(self.p99_ns),
            fmt_ns(self.max_ns),
        )
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// Number of shard slots tracked individually; tasks for shards at or past
/// the last slot accumulate there.
const SHARD_SLOTS: usize = 16;

/// Lock-free per-shard span accumulator (count + total nanoseconds).
#[derive(Debug, Default)]
struct ShardCell {
    count: AtomicU64,
    sum_ns: AtomicU64,
}

/// Per-shard task spans for one phase.
#[derive(Debug)]
struct ShardSpans {
    cells: [ShardCell; SHARD_SLOTS],
}

impl Default for ShardSpans {
    fn default() -> Self {
        ShardSpans {
            cells: std::array::from_fn(|_| ShardCell::default()),
        }
    }
}

impl ShardSpans {
    fn record(&self, shard: usize, elapsed: Duration) {
        let cell = &self.cells[shard.min(SHARD_SLOTS - 1)];
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        cell.count.fetch_add(1, Ordering::Relaxed);
        cell.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    fn snapshot(&self) -> Vec<ShardSpanSnapshot> {
        self.cells
            .iter()
            .enumerate()
            .filter_map(|(shard, c)| {
                let count = c.count.load(Ordering::Relaxed);
                if count == 0 {
                    return None;
                }
                let sum = c.sum_ns.load(Ordering::Relaxed);
                Some(ShardSpanSnapshot {
                    shard,
                    tasks: count,
                    mean_ns: sum as f64 / count as f64,
                })
            })
            .collect()
    }
}

/// Point-in-time summary of one shard's task spans within a phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardSpanSnapshot {
    /// Shard index (the last tracked slot aggregates all higher indices).
    pub shard: usize,
    /// Shard tasks completed.
    pub tasks: u64,
    /// Mean task latency in nanoseconds.
    pub mean_ns: f64,
}

/// The engine's telemetry registry: one histogram per request phase plus
/// serving counters. Shared by reference across all worker threads.
#[derive(Debug, Default)]
pub struct Telemetry {
    select: PhaseHistogram,
    measure: PhaseHistogram,
    reconstruct: PhaseHistogram,
    answer: PhaseHistogram,
    shard_measure: ShardSpans,
    shard_reconstruct: ShardSpans,
    shard_answer: ShardSpans,
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

    /// One optimizer restart cell completed (any operator, any thread).
    pub(crate) fn record_restart(&self) {
        self.restarts_run.fetch_add(1, Ordering::Relaxed);
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
            shard_measure: self.shard_measure.snapshot(),
            shard_reconstruct: self.shard_reconstruct.snapshot(),
            shard_answer: self.shard_answer.snapshot(),
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

impl PhaseObserver for Telemetry {
    fn phase_complete(&self, phase: MechanismPhase, elapsed: Duration) {
        match phase {
            MechanismPhase::Measure => self.measure.record(elapsed),
            MechanismPhase::Reconstruct => self.reconstruct.record(elapsed),
            MechanismPhase::Answer => self.answer.record(elapsed),
        }
    }

    fn shard_phase_complete(&self, phase: MechanismPhase, shard: usize, elapsed: Duration) {
        match phase {
            MechanismPhase::Measure => self.shard_measure.record(shard, elapsed),
            MechanismPhase::Reconstruct => self.shard_reconstruct.record(shard, elapsed),
            MechanismPhase::Answer => self.shard_answer.record(shard, elapsed),
        }
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
    /// Per-shard MEASURE task spans. Empty until a dataset of more than one
    /// slab serves: a one-slab request runs on the plain kernels, which have
    /// no tasks to report.
    pub shard_measure: Vec<ShardSpanSnapshot>,
    /// Per-shard RECONSTRUCT task spans.
    pub shard_reconstruct: Vec<ShardSpanSnapshot>,
    /// Per-shard ANSWER task spans.
    pub shard_answer: Vec<ShardSpanSnapshot>,
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

fn write_shard_spans(
    f: &mut std::fmt::Formatter<'_>,
    label: &str,
    spans: &[ShardSpanSnapshot],
) -> std::fmt::Result {
    if spans.is_empty() {
        return Ok(());
    }
    write!(f, "\n  {label}:")?;
    for s in spans {
        write!(
            f,
            " [{} n={} mean={}]",
            s.shard,
            s.tasks,
            fmt_ns(s.mean_ns as u64)
        )?;
    }
    Ok(())
}

impl std::fmt::Display for TelemetrySnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "requests={} failures={} selects_run={} dedup_waits={} plan_disk_hits={} \
             inflight_selects={} remote_fallbacks={} slow_queries={} restarts_run={} \
             select_threads={}",
            self.requests,
            self.failures,
            self.selects_run,
            self.dedup_waits,
            self.plan_disk_hits,
            self.inflight_selects,
            self.remote_fallbacks,
            self.slow_queries,
            self.restarts_run,
            self.select_threads
        )?;
        writeln!(f, "  select:      {}", self.select)?;
        writeln!(f, "  measure:     {}", self.measure)?;
        writeln!(f, "  reconstruct: {}", self.reconstruct)?;
        write!(f, "  answer:      {}", self.answer)?;
        write_shard_spans(f, "shard measure", &self.shard_measure)?;
        write_shard_spans(f, "shard reconstruct", &self.shard_reconstruct)?;
        write_shard_spans(f, "shard answer", &self.shard_answer)
    }
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

impl std::fmt::Display for EngineMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "cache: hits={} misses={} evictions={} len={}/{}",
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            self.cache.len,
            self.cache.capacity
        )?;
        write!(f, "{}", self.telemetry)?;
        for d in &self.datasets {
            write!(
                f,
                "\n  dataset {}: requests={} failures={} shards={} ε {:.4}/{:.4}",
                d.name, d.requests, d.failures, d.shards, d.eps_spent, d.eps_total
            )?;
            if let Some(t) = &d.tenant {
                write!(f, " tenant={t}")?;
            }
        }
        for t in &self.tenants {
            write!(
                f,
                "\n  tenant {}: ε {:.4}/{}",
                t.tenant,
                t.eps_spent,
                if t.eps_cap.is_finite() {
                    format!("{:.4}", t.eps_cap)
                } else {
                    "∞".to_string()
                }
            )?;
        }
        write!(
            f,
            "\n  spans: collected={} dropped={} capacity={} audit_events={}",
            self.obs.spans_collected,
            self.obs.spans_dropped,
            self.obs.trace_capacity,
            self.obs.audit_events
        )?;
        if let Some(pool) = &self.remote {
            write!(f, "\nremote pool: {pool}")?;
        }
        if let Some(w) = &self.wal {
            write!(
                f,
                "\n  wal: appends={} fsyncs={} snapshots={} append_errors={} \
                 recovered={} torn_tail={} log_bytes={}",
                w.appends,
                w.fsyncs,
                w.snapshots,
                w.append_errors,
                w.recovery_replayed,
                w.recovery_torn_tail,
                w.log_bytes
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_tracks_count_mean_and_quantiles() {
        let h = PhaseHistogram::default();
        for ms in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 100] {
            h.record(Duration::from_millis(ms));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10);
        assert!((s.mean_ns - 10.9e6).abs() < 1e5, "{}", s.mean_ns);
        // p50 falls in the 1ms bucket, p99 in the 100ms bucket.
        assert!(
            s.p50_ns >= 1_000_000 && s.p50_ns < 4_000_000,
            "{}",
            s.p50_ns
        );
        assert!(s.p99_ns >= 100_000_000, "{}", s.p99_ns);
        assert_eq!(s.max_ns, 100_000_000);
    }

    #[test]
    fn empty_histogram_snapshots_to_zeros() {
        let s = PhaseHistogram::default().snapshot();
        assert_eq!((s.count, s.max_ns, s.p50_ns, s.p99_ns), (0, 0, 0, 0));
        assert_eq!(s.mean_ns, 0.0);
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
        t.phase_complete(MechanismPhase::Measure, Duration::from_micros(5));
        t.phase_complete(MechanismPhase::Reconstruct, Duration::from_micros(7));
        t.phase_complete(MechanismPhase::Answer, Duration::from_micros(9));
        let s = t.snapshot();
        assert_eq!(
            (s.measure.count, s.reconstruct.count, s.answer.count),
            (1, 1, 1)
        );
        assert_eq!(s.select.count, 0);
    }

    #[test]
    fn snapshot_renders_human_readable() {
        let t = Telemetry::default();
        t.record_select(Duration::from_millis(3));
        t.record_request(true);
        let text = t.snapshot().to_string();
        assert!(text.contains("selects_run=1"), "{text}");
        assert!(text.contains("select:"), "{text}");
    }
}
