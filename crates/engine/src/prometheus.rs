//! [`EngineMetrics`] → Prometheus text exposition format (version 0.0.4).
//!
//! One function, [`render_prometheus`], turns a metrics snapshot into the
//! page a scraper expects — the engine's only rendering of its metrics
//! (`EngineMetrics`'s `Display` writes this page). The formatting
//! invariants (name sanitization, label escaping, cumulative histogram
//! buckets, never a `NaN`/`Inf` sample) live in [`hdmm_obs::PromBuf`]; this
//! module owns the *schema*: which counters, gauges, and histograms the
//! engine exports and under which names.
//!
//! Conventions:
//!
//! * latencies are exported in **seconds** (Prometheus base units), converted
//!   from the engine's nanosecond histograms;
//! * histogram `le` bounds are each power-of-two bucket's **inclusive upper
//!   bound**, the same bounds [`crate::PhaseSnapshot::cumulative_buckets`]
//!   reports;
//! * non-finite gauge values (an uncapped tenant quota is `+Inf`) are
//!   skipped rather than rendered, and show up in
//!   `hdmm_render_skipped_nonfinite` instead.

use crate::telemetry::{EngineMetrics, PhaseSnapshot};
use hdmm_obs::PromBuf;

/// Renders a metrics snapshot as a Prometheus exposition page.
pub fn render_prometheus(m: &EngineMetrics) -> String {
    let mut b = PromBuf::new();

    // ---- serving counters ------------------------------------------------
    b.family(
        "hdmm_requests_total",
        "Requests served, including failures.",
        "counter",
    );
    b.sample_u64("hdmm_requests_total", &[], m.telemetry.requests);
    b.family(
        "hdmm_request_failures_total",
        "Requests that returned a typed error (or panicked).",
        "counter",
    );
    b.sample_u64("hdmm_request_failures_total", &[], m.telemetry.failures);
    b.family(
        "hdmm_selects_run_total",
        "SELECT optimizations actually executed (post cache and dedup).",
        "counter",
    );
    b.sample_u64("hdmm_selects_run_total", &[], m.telemetry.selects_run);
    b.family(
        "hdmm_select_dedup_waits_total",
        "Requests that joined another request's in-flight SELECT.",
        "counter",
    );
    b.sample_u64(
        "hdmm_select_dedup_waits_total",
        &[],
        m.telemetry.dedup_waits,
    );
    b.family(
        "hdmm_plan_disk_hits_total",
        "Plans loaded from the persistent strategy store instead of optimized.",
        "counter",
    );
    b.sample_u64("hdmm_plan_disk_hits_total", &[], m.telemetry.plan_disk_hits);
    b.family(
        "hdmm_remote_fallbacks_total",
        "Sharded requests re-served locally after a pool-wide remote failure.",
        "counter",
    );
    b.sample_u64(
        "hdmm_remote_fallbacks_total",
        &[],
        m.telemetry.remote_fallbacks,
    );
    b.family(
        "hdmm_slow_queries_total",
        "Requests slower than the slow-query threshold (span tree force-flushed).",
        "counter",
    );
    b.sample_u64("hdmm_slow_queries_total", &[], m.telemetry.slow_queries);
    b.family(
        "hdmm_inflight_selects",
        "SELECT optimizations running right now.",
        "gauge",
    );
    b.sample_u64("hdmm_inflight_selects", &[], m.telemetry.inflight_selects);
    b.family(
        "hdmm_select_restarts_total",
        "Optimizer restart cells executed across all SELECTs.",
        "counter",
    );
    b.sample_u64("hdmm_select_restarts_total", &[], m.telemetry.restarts_run);
    b.family(
        "hdmm_select_threads",
        "Resolved lane count of the SELECT restart executor.",
        "gauge",
    );
    b.sample_u64("hdmm_select_threads", &[], m.telemetry.select_threads);

    // ---- strategy cache --------------------------------------------------
    b.family(
        "hdmm_cache_hits_total",
        "Strategy-cache lookups answered from memory.",
        "counter",
    );
    b.sample_u64("hdmm_cache_hits_total", &[], m.cache.hits);
    b.family(
        "hdmm_cache_misses_total",
        "Strategy-cache lookups that required optimization.",
        "counter",
    );
    b.sample_u64("hdmm_cache_misses_total", &[], m.cache.misses);
    b.family(
        "hdmm_cache_evictions_total",
        "Plans dropped to respect cache capacity.",
        "counter",
    );
    b.sample_u64("hdmm_cache_evictions_total", &[], m.cache.evictions);
    b.family("hdmm_cache_entries", "Plans currently cached.", "gauge");
    b.sample_u64("hdmm_cache_entries", &[], m.cache.len as u64);
    b.family("hdmm_cache_capacity", "Maximum cached plans.", "gauge");
    b.sample_u64("hdmm_cache_capacity", &[], m.cache.capacity as u64);

    // ---- per-phase latency histograms ------------------------------------
    b.family(
        "hdmm_phase_duration_seconds",
        "Per-phase request latency (power-of-two buckets; le is each bucket's \
         inclusive upper bound).",
        "histogram",
    );
    let phases: [(&str, &PhaseSnapshot); 4] = [
        ("select", &m.telemetry.select),
        ("measure", &m.telemetry.measure),
        ("reconstruct", &m.telemetry.reconstruct),
        ("answer", &m.telemetry.answer),
    ];
    for (name, snap) in phases {
        b.histogram(
            "hdmm_phase_duration_seconds",
            &[("phase", name)],
            &snap.cumulative_buckets(),
            snap.sum_ns as f64 * 1e-9,
            snap.count,
        );
    }

    // ---- per-dataset counters and ε gauges -------------------------------
    b.family(
        "hdmm_dataset_requests_total",
        "Requests that resolved to the dataset, including failures.",
        "counter",
    );
    for d in &m.datasets {
        b.sample_u64(
            "hdmm_dataset_requests_total",
            &[("dataset", &d.name)],
            d.requests,
        );
    }
    b.family(
        "hdmm_dataset_failures_total",
        "Requests that failed after resolving to the dataset.",
        "counter",
    );
    for d in &m.datasets {
        b.sample_u64(
            "hdmm_dataset_failures_total",
            &[("dataset", &d.name)],
            d.failures,
        );
    }
    b.family(
        "hdmm_dataset_shards",
        "Slabs the dataset's backend is partitioned into.",
        "gauge",
    );
    for d in &m.datasets {
        b.sample_u64(
            "hdmm_dataset_shards",
            &[("dataset", &d.name)],
            d.shards as u64,
        );
    }
    for (metric, help, get) in [
        (
            "hdmm_dataset_eps_total",
            "Total \u{3b5} budget granted at registration.",
            (|d| d.eps_total) as fn(&crate::telemetry::DatasetMetrics) -> f64,
        ),
        (
            "hdmm_dataset_eps_spent",
            "\u{3b5} spent on committed measurements.",
            |d| d.eps_spent,
        ),
        (
            "hdmm_dataset_eps_remaining",
            "\u{3b5} still available to the dataset.",
            |d| d.eps_remaining,
        ),
    ] {
        b.family(metric, help, "gauge");
        for d in &m.datasets {
            let tenant = d.tenant.as_deref().unwrap_or("");
            b.sample(metric, &[("dataset", &d.name), ("tenant", tenant)], get(d));
        }
    }

    // ---- tenant quotas ---------------------------------------------------
    for (metric, help, get) in [
        (
            "hdmm_tenant_eps_cap",
            "Tenant \u{3b5} quota cap (absent when uncapped).",
            (|t| t.eps_cap) as fn(&crate::telemetry::TenantMetrics) -> f64,
        ),
        (
            "hdmm_tenant_eps_spent",
            "\u{3b5} spent across the tenant's datasets.",
            |t| t.eps_spent,
        ),
        (
            "hdmm_tenant_eps_remaining",
            "\u{3b5} still available under the tenant quota.",
            |t| t.eps_remaining,
        ),
    ] {
        if m.tenants.is_empty() {
            continue;
        }
        b.family(metric, help, "gauge");
        for t in &m.tenants {
            // An uncapped quota is +Inf: PromBuf skips (and counts) it, so
            // the sample is simply absent rather than poisonous.
            b.sample(metric, &[("tenant", &t.tenant)], get(t));
        }
    }

    // ---- worker pool -----------------------------------------------------
    if let Some(pool) = &m.remote {
        b.family(
            "hdmm_pool_retries_total",
            "Task attempts retried after a failure.",
            "counter",
        );
        b.sample_u64("hdmm_pool_retries_total", &[], pool.retries);
        b.family(
            "hdmm_pool_reassignments_total",
            "Shards moved to a surviving worker after their primary failed.",
            "counter",
        );
        b.sample_u64("hdmm_pool_reassignments_total", &[], pool.reassignments);
        b.family(
            "hdmm_pool_factor_misses_total",
            "Keyed tasks a worker answered with UnknownFactors (restart or eviction).",
            "counter",
        );
        b.sample_u64("hdmm_pool_factor_misses_total", &[], pool.factor_misses);
        b.family(
            "hdmm_worker_up",
            "1 when the worker's last interaction succeeded.",
            "gauge",
        );
        for w in &pool.workers {
            b.sample_u64("hdmm_worker_up", &[("worker", &w.addr)], w.alive as u64);
        }
        b.family(
            "hdmm_worker_tasks_total",
            "Tasks the worker completed successfully.",
            "counter",
        );
        for w in &pool.workers {
            b.sample_u64("hdmm_worker_tasks_total", &[("worker", &w.addr)], w.tasks);
        }
        b.family(
            "hdmm_worker_failures_total",
            "Failed attempts attributed to the worker.",
            "counter",
        );
        for w in &pool.workers {
            b.sample_u64(
                "hdmm_worker_failures_total",
                &[("worker", &w.addr)],
                w.failures,
            );
        }
        b.family(
            "hdmm_worker_mean_task_seconds",
            "Mean per-task round-trip latency.",
            "gauge",
        );
        for w in &pool.workers {
            b.sample(
                "hdmm_worker_mean_task_seconds",
                &[("worker", &w.addr)],
                w.mean_task_micros * 1e-6,
            );
        }
        b.family(
            "hdmm_worker_slabs",
            "Slabs currently pushed to the worker.",
            "gauge",
        );
        for w in &pool.workers {
            b.sample_u64("hdmm_worker_slabs", &[("worker", &w.addr)], w.slabs as u64);
        }
        for (metric, help, get) in [
            (
                "hdmm_worker_bytes_sent_total",
                "Bytes written to the worker's socket.",
                (|w| w.bytes_sent) as fn(&hdmm_net::WorkerHealth) -> u64,
            ),
            (
                "hdmm_worker_bytes_received_total",
                "Bytes read back from the worker's socket.",
                |w| w.bytes_received,
            ),
            (
                "hdmm_worker_factor_pushes_total",
                "Factor lists pushed to the worker (first use plus re-pushes).",
                |w| w.factor_pushes,
            ),
        ] {
            b.family(metric, help, "counter");
            for w in &pool.workers {
                b.sample_u64(metric, &[("worker", &w.addr)], get(w));
            }
        }
    }

    // ---- durable ε-ledger (WAL) ------------------------------------------
    if let Some(w) = &m.wal {
        b.family(
            "hdmm_wal_appends_total",
            "Budget records appended to the durable ledger.",
            "counter",
        );
        b.sample_u64("hdmm_wal_appends_total", &[], w.appends);
        b.family(
            "hdmm_wal_fsyncs_total",
            "fsyncs issued by the durable ledger (commits, admin records, snapshots).",
            "counter",
        );
        b.sample_u64("hdmm_wal_fsyncs_total", &[], w.fsyncs);
        b.family(
            "hdmm_wal_snapshots_total",
            "Ledger snapshots taken (each truncates the log).",
            "counter",
        );
        b.sample_u64("hdmm_wal_snapshots_total", &[], w.snapshots);
        b.family(
            "hdmm_wal_append_errors_total",
            "WAL appends or snapshots that failed at the filesystem.",
            "counter",
        );
        b.sample_u64("hdmm_wal_append_errors_total", &[], w.append_errors);
        b.family(
            "hdmm_wal_recovery_replayed",
            "Records replayed from the log tail at the last startup.",
            "gauge",
        );
        b.sample_u64("hdmm_wal_recovery_replayed", &[], w.recovery_replayed);
        b.family(
            "hdmm_wal_recovery_torn_tail",
            "1 when the last startup trimmed a torn final record.",
            "gauge",
        );
        b.sample_u64(
            "hdmm_wal_recovery_torn_tail",
            &[],
            w.recovery_torn_tail as u64,
        );
        b.family(
            "hdmm_wal_log_bytes",
            "Current write-ahead-log length in bytes.",
            "gauge",
        );
        b.sample_u64("hdmm_wal_log_bytes", &[], w.log_bytes);
    }

    // ---- the observability pipeline's own counters -----------------------
    b.family(
        "hdmm_spans_collected_total",
        "Spans pushed into the trace collector.",
        "counter",
    );
    b.sample_u64("hdmm_spans_collected_total", &[], m.obs.spans_collected);
    b.family(
        "hdmm_spans_dropped_total",
        "Spans lost to collector ring overflow.",
        "counter",
    );
    b.sample_u64("hdmm_spans_dropped_total", &[], m.obs.spans_dropped);
    b.family(
        "hdmm_trace_capacity",
        "Spans the collector can retain.",
        "gauge",
    );
    b.sample_u64("hdmm_trace_capacity", &[], m.obs.trace_capacity as u64);
    b.family(
        "hdmm_audit_events_total",
        "\u{3b5}-budget audit events emitted.",
        "counter",
    );
    b.sample_u64("hdmm_audit_events_total", &[], m.obs.audit_events);
    b.family(
        "hdmm_audit_subscriber_drops_total",
        "Audit events dropped on saturated subscriber channels.",
        "counter",
    );
    b.sample_u64(
        "hdmm_audit_subscriber_drops_total",
        &[],
        m.obs.audit_subscriber_drops,
    );

    // Self-describing render health: how many samples were withheld because
    // their value was non-finite (uncapped quotas, empty means).
    let skipped = b.skipped_nonfinite();
    b.family(
        "hdmm_render_skipped_nonfinite",
        "Samples withheld from this page because their value was NaN or Inf.",
        "gauge",
    );
    b.sample_u64("hdmm_render_skipped_nonfinite", &[], skipped);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{DatasetMetrics, ObsMetrics, TenantMetrics};

    fn sample_metrics() -> EngineMetrics {
        let telemetry = crate::telemetry::Telemetry::default();
        telemetry.record_select(std::time::Duration::from_millis(2));
        EngineMetrics {
            cache: crate::cache::CacheStats {
                hits: 3,
                misses: 1,
                evictions: 0,
                len: 1,
                capacity: 64,
            },
            telemetry: telemetry.snapshot(),
            datasets: vec![DatasetMetrics {
                name: "taxi".into(),
                requests: 4,
                failures: 1,
                shards: 2,
                eps_total: 1.0,
                eps_spent: 0.25,
                eps_remaining: 0.75,
                tenant: Some("acme".into()),
            }],
            tenants: vec![TenantMetrics {
                tenant: "acme".into(),
                eps_cap: f64::INFINITY,
                eps_spent: 0.25,
                eps_remaining: f64::INFINITY,
            }],
            obs: ObsMetrics {
                spans_collected: 10,
                spans_dropped: 2,
                trace_capacity: 4096,
                audit_events: 5,
                audit_subscriber_drops: 0,
            },
            remote: None,
            wal: Some(crate::wal::WalMetrics {
                appends: 6,
                fsyncs: 3,
                snapshots: 1,
                append_errors: 0,
                recovery_replayed: 2,
                recovery_torn_tail: true,
                log_bytes: 200,
            }),
        }
    }

    #[test]
    fn renders_core_families() {
        let page = render_prometheus(&sample_metrics());
        for needle in [
            "# TYPE hdmm_requests_total counter",
            "# TYPE hdmm_phase_duration_seconds histogram",
            "hdmm_phase_duration_seconds_bucket{phase=\"select\",le=\"+Inf\"} 1",
            "hdmm_phase_duration_seconds_count{phase=\"select\"} 1",
            "hdmm_dataset_eps_remaining{dataset=\"taxi\",tenant=\"acme\"} 0.75",
            "hdmm_tenant_eps_spent{tenant=\"acme\"} 0.25",
            "hdmm_spans_dropped_total 2",
            "# TYPE hdmm_wal_appends_total counter",
            "hdmm_wal_appends_total 6",
            "hdmm_wal_fsyncs_total 3",
            "hdmm_wal_recovery_replayed 2",
            "hdmm_wal_recovery_torn_tail 1",
            "hdmm_wal_log_bytes 200",
        ] {
            assert!(page.contains(needle), "missing {needle:?} in:\n{page}");
        }
    }

    #[test]
    fn infinite_quota_gauges_are_withheld_not_rendered() {
        let page = render_prometheus(&sample_metrics());
        assert!(
            !page.contains("hdmm_tenant_eps_cap{tenant=\"acme\"}"),
            "{page}"
        );
        assert!(!page.contains("Inf\n"), "no bare Inf values: {page}");
        // Two withheld samples: the cap and the remaining, both +Inf.
        assert!(page.contains("hdmm_render_skipped_nonfinite 2"), "{page}");
    }

    #[test]
    fn select_sum_is_in_seconds() {
        let page = render_prometheus(&sample_metrics());
        let sum_line = page
            .lines()
            .find(|l| l.starts_with("hdmm_phase_duration_seconds_sum{phase=\"select\"}"))
            .unwrap();
        let v: f64 = sum_line.split(' ').next_back().unwrap().parse().unwrap();
        assert!((0.001..0.5).contains(&v), "2ms in seconds, got {v}");
    }

    /// The page [`sample_metrics`] renders, recorded before the numeric
    /// layers and the engine shared one observer trait: names, HELP texts,
    /// label order, bucket bounds and sample values, byte for byte.
    const RECORDED_PAGE: &str = r#"# HELP hdmm_requests_total Requests served, including failures.
# TYPE hdmm_requests_total counter
hdmm_requests_total 0
# HELP hdmm_request_failures_total Requests that returned a typed error (or panicked).
# TYPE hdmm_request_failures_total counter
hdmm_request_failures_total 0
# HELP hdmm_selects_run_total SELECT optimizations actually executed (post cache and dedup).
# TYPE hdmm_selects_run_total counter
hdmm_selects_run_total 1
# HELP hdmm_select_dedup_waits_total Requests that joined another request's in-flight SELECT.
# TYPE hdmm_select_dedup_waits_total counter
hdmm_select_dedup_waits_total 0
# HELP hdmm_plan_disk_hits_total Plans loaded from the persistent strategy store instead of optimized.
# TYPE hdmm_plan_disk_hits_total counter
hdmm_plan_disk_hits_total 0
# HELP hdmm_remote_fallbacks_total Sharded requests re-served locally after a pool-wide remote failure.
# TYPE hdmm_remote_fallbacks_total counter
hdmm_remote_fallbacks_total 0
# HELP hdmm_slow_queries_total Requests slower than the slow-query threshold (span tree force-flushed).
# TYPE hdmm_slow_queries_total counter
hdmm_slow_queries_total 0
# HELP hdmm_inflight_selects SELECT optimizations running right now.
# TYPE hdmm_inflight_selects gauge
hdmm_inflight_selects 0
# HELP hdmm_select_restarts_total Optimizer restart cells executed across all SELECTs.
# TYPE hdmm_select_restarts_total counter
hdmm_select_restarts_total 0
# HELP hdmm_select_threads Resolved lane count of the SELECT restart executor.
# TYPE hdmm_select_threads gauge
hdmm_select_threads 0
# HELP hdmm_cache_hits_total Strategy-cache lookups answered from memory.
# TYPE hdmm_cache_hits_total counter
hdmm_cache_hits_total 3
# HELP hdmm_cache_misses_total Strategy-cache lookups that required optimization.
# TYPE hdmm_cache_misses_total counter
hdmm_cache_misses_total 1
# HELP hdmm_cache_evictions_total Plans dropped to respect cache capacity.
# TYPE hdmm_cache_evictions_total counter
hdmm_cache_evictions_total 0
# HELP hdmm_cache_entries Plans currently cached.
# TYPE hdmm_cache_entries gauge
hdmm_cache_entries 1
# HELP hdmm_cache_capacity Maximum cached plans.
# TYPE hdmm_cache_capacity gauge
hdmm_cache_capacity 64
# HELP hdmm_phase_duration_seconds Per-phase request latency (power-of-two buckets; le is each bucket's inclusive upper bound).
# TYPE hdmm_phase_duration_seconds histogram
hdmm_phase_duration_seconds_bucket{phase="select",le="0.000000001"} 0
hdmm_phase_duration_seconds_bucket{phase="select",le="0.0000000030000000000000004"} 0
hdmm_phase_duration_seconds_bucket{phase="select",le="0.000000007000000000000001"} 0
hdmm_phase_duration_seconds_bucket{phase="select",le="0.000000015000000000000002"} 0
hdmm_phase_duration_seconds_bucket{phase="select",le="0.000000031"} 0
hdmm_phase_duration_seconds_bucket{phase="select",le="0.00000006300000000000001"} 0
hdmm_phase_duration_seconds_bucket{phase="select",le="0.000000127"} 0
hdmm_phase_duration_seconds_bucket{phase="select",le="0.000000255"} 0
hdmm_phase_duration_seconds_bucket{phase="select",le="0.0000005110000000000001"} 0
hdmm_phase_duration_seconds_bucket{phase="select",le="0.000001023"} 0
hdmm_phase_duration_seconds_bucket{phase="select",le="0.000002047"} 0
hdmm_phase_duration_seconds_bucket{phase="select",le="0.000004095000000000001"} 0
hdmm_phase_duration_seconds_bucket{phase="select",le="0.000008191"} 0
hdmm_phase_duration_seconds_bucket{phase="select",le="0.000016383000000000002"} 0
hdmm_phase_duration_seconds_bucket{phase="select",le="0.000032767"} 0
hdmm_phase_duration_seconds_bucket{phase="select",le="0.000065535"} 0
hdmm_phase_duration_seconds_bucket{phase="select",le="0.00013107100000000002"} 0
hdmm_phase_duration_seconds_bucket{phase="select",le="0.000262143"} 0
hdmm_phase_duration_seconds_bucket{phase="select",le="0.000524287"} 0
hdmm_phase_duration_seconds_bucket{phase="select",le="0.0010485750000000002"} 0
hdmm_phase_duration_seconds_bucket{phase="select",le="0.0020971510000000002"} 1
hdmm_phase_duration_seconds_bucket{phase="select",le="0.004194303"} 1
hdmm_phase_duration_seconds_bucket{phase="select",le="0.008388607000000001"} 1
hdmm_phase_duration_seconds_bucket{phase="select",le="0.016777215"} 1
hdmm_phase_duration_seconds_bucket{phase="select",le="0.033554431"} 1
hdmm_phase_duration_seconds_bucket{phase="select",le="0.067108863"} 1
hdmm_phase_duration_seconds_bucket{phase="select",le="0.134217727"} 1
hdmm_phase_duration_seconds_bucket{phase="select",le="0.268435455"} 1
hdmm_phase_duration_seconds_bucket{phase="select",le="0.5368709110000001"} 1
hdmm_phase_duration_seconds_bucket{phase="select",le="1.073741823"} 1
hdmm_phase_duration_seconds_bucket{phase="select",le="2.147483647"} 1
hdmm_phase_duration_seconds_bucket{phase="select",le="4.294967295"} 1
hdmm_phase_duration_seconds_bucket{phase="select",le="8.589934591"} 1
hdmm_phase_duration_seconds_bucket{phase="select",le="17.179869183"} 1
hdmm_phase_duration_seconds_bucket{phase="select",le="34.359738367000006"} 1
hdmm_phase_duration_seconds_bucket{phase="select",le="68.719476735"} 1
hdmm_phase_duration_seconds_bucket{phase="select",le="137.43895347100002"} 1
hdmm_phase_duration_seconds_bucket{phase="select",le="274.877906943"} 1
hdmm_phase_duration_seconds_bucket{phase="select",le="549.755813887"} 1
hdmm_phase_duration_seconds_bucket{phase="select",le="1099.511627775"} 1
hdmm_phase_duration_seconds_bucket{phase="select",le="+Inf"} 1
hdmm_phase_duration_seconds_sum{phase="select"} 0.002
hdmm_phase_duration_seconds_count{phase="select"} 1
hdmm_phase_duration_seconds_bucket{phase="measure",le="0.000000001"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="0.0000000030000000000000004"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="0.000000007000000000000001"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="0.000000015000000000000002"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="0.000000031"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="0.00000006300000000000001"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="0.000000127"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="0.000000255"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="0.0000005110000000000001"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="0.000001023"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="0.000002047"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="0.000004095000000000001"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="0.000008191"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="0.000016383000000000002"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="0.000032767"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="0.000065535"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="0.00013107100000000002"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="0.000262143"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="0.000524287"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="0.0010485750000000002"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="0.0020971510000000002"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="0.004194303"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="0.008388607000000001"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="0.016777215"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="0.033554431"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="0.067108863"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="0.134217727"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="0.268435455"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="0.5368709110000001"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="1.073741823"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="2.147483647"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="4.294967295"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="8.589934591"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="17.179869183"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="34.359738367000006"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="68.719476735"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="137.43895347100002"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="274.877906943"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="549.755813887"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="1099.511627775"} 0
hdmm_phase_duration_seconds_bucket{phase="measure",le="+Inf"} 0
hdmm_phase_duration_seconds_sum{phase="measure"} 0
hdmm_phase_duration_seconds_count{phase="measure"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="0.000000001"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="0.0000000030000000000000004"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="0.000000007000000000000001"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="0.000000015000000000000002"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="0.000000031"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="0.00000006300000000000001"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="0.000000127"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="0.000000255"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="0.0000005110000000000001"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="0.000001023"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="0.000002047"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="0.000004095000000000001"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="0.000008191"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="0.000016383000000000002"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="0.000032767"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="0.000065535"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="0.00013107100000000002"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="0.000262143"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="0.000524287"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="0.0010485750000000002"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="0.0020971510000000002"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="0.004194303"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="0.008388607000000001"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="0.016777215"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="0.033554431"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="0.067108863"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="0.134217727"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="0.268435455"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="0.5368709110000001"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="1.073741823"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="2.147483647"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="4.294967295"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="8.589934591"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="17.179869183"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="34.359738367000006"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="68.719476735"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="137.43895347100002"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="274.877906943"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="549.755813887"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="1099.511627775"} 0
hdmm_phase_duration_seconds_bucket{phase="reconstruct",le="+Inf"} 0
hdmm_phase_duration_seconds_sum{phase="reconstruct"} 0
hdmm_phase_duration_seconds_count{phase="reconstruct"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="0.000000001"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="0.0000000030000000000000004"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="0.000000007000000000000001"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="0.000000015000000000000002"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="0.000000031"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="0.00000006300000000000001"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="0.000000127"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="0.000000255"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="0.0000005110000000000001"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="0.000001023"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="0.000002047"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="0.000004095000000000001"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="0.000008191"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="0.000016383000000000002"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="0.000032767"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="0.000065535"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="0.00013107100000000002"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="0.000262143"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="0.000524287"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="0.0010485750000000002"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="0.0020971510000000002"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="0.004194303"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="0.008388607000000001"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="0.016777215"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="0.033554431"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="0.067108863"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="0.134217727"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="0.268435455"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="0.5368709110000001"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="1.073741823"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="2.147483647"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="4.294967295"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="8.589934591"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="17.179869183"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="34.359738367000006"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="68.719476735"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="137.43895347100002"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="274.877906943"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="549.755813887"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="1099.511627775"} 0
hdmm_phase_duration_seconds_bucket{phase="answer",le="+Inf"} 0
hdmm_phase_duration_seconds_sum{phase="answer"} 0
hdmm_phase_duration_seconds_count{phase="answer"} 0
# HELP hdmm_dataset_requests_total Requests that resolved to the dataset, including failures.
# TYPE hdmm_dataset_requests_total counter
hdmm_dataset_requests_total{dataset="taxi"} 4
# HELP hdmm_dataset_failures_total Requests that failed after resolving to the dataset.
# TYPE hdmm_dataset_failures_total counter
hdmm_dataset_failures_total{dataset="taxi"} 1
# HELP hdmm_dataset_shards Slabs the dataset's backend is partitioned into.
# TYPE hdmm_dataset_shards gauge
hdmm_dataset_shards{dataset="taxi"} 2
# HELP hdmm_dataset_eps_total Total ε budget granted at registration.
# TYPE hdmm_dataset_eps_total gauge
hdmm_dataset_eps_total{dataset="taxi",tenant="acme"} 1
# HELP hdmm_dataset_eps_spent ε spent on committed measurements.
# TYPE hdmm_dataset_eps_spent gauge
hdmm_dataset_eps_spent{dataset="taxi",tenant="acme"} 0.25
# HELP hdmm_dataset_eps_remaining ε still available to the dataset.
# TYPE hdmm_dataset_eps_remaining gauge
hdmm_dataset_eps_remaining{dataset="taxi",tenant="acme"} 0.75
# HELP hdmm_tenant_eps_cap Tenant ε quota cap (absent when uncapped).
# TYPE hdmm_tenant_eps_cap gauge
# HELP hdmm_tenant_eps_spent ε spent across the tenant's datasets.
# TYPE hdmm_tenant_eps_spent gauge
hdmm_tenant_eps_spent{tenant="acme"} 0.25
# HELP hdmm_tenant_eps_remaining ε still available under the tenant quota.
# TYPE hdmm_tenant_eps_remaining gauge
# HELP hdmm_wal_appends_total Budget records appended to the durable ledger.
# TYPE hdmm_wal_appends_total counter
hdmm_wal_appends_total 6
# HELP hdmm_wal_fsyncs_total fsyncs issued by the durable ledger (commits, admin records, snapshots).
# TYPE hdmm_wal_fsyncs_total counter
hdmm_wal_fsyncs_total 3
# HELP hdmm_wal_snapshots_total Ledger snapshots taken (each truncates the log).
# TYPE hdmm_wal_snapshots_total counter
hdmm_wal_snapshots_total 1
# HELP hdmm_wal_append_errors_total WAL appends or snapshots that failed at the filesystem.
# TYPE hdmm_wal_append_errors_total counter
hdmm_wal_append_errors_total 0
# HELP hdmm_wal_recovery_replayed Records replayed from the log tail at the last startup.
# TYPE hdmm_wal_recovery_replayed gauge
hdmm_wal_recovery_replayed 2
# HELP hdmm_wal_recovery_torn_tail 1 when the last startup trimmed a torn final record.
# TYPE hdmm_wal_recovery_torn_tail gauge
hdmm_wal_recovery_torn_tail 1
# HELP hdmm_wal_log_bytes Current write-ahead-log length in bytes.
# TYPE hdmm_wal_log_bytes gauge
hdmm_wal_log_bytes 200
# HELP hdmm_spans_collected_total Spans pushed into the trace collector.
# TYPE hdmm_spans_collected_total counter
hdmm_spans_collected_total 10
# HELP hdmm_spans_dropped_total Spans lost to collector ring overflow.
# TYPE hdmm_spans_dropped_total counter
hdmm_spans_dropped_total 2
# HELP hdmm_trace_capacity Spans the collector can retain.
# TYPE hdmm_trace_capacity gauge
hdmm_trace_capacity 4096
# HELP hdmm_audit_events_total ε-budget audit events emitted.
# TYPE hdmm_audit_events_total counter
hdmm_audit_events_total 5
# HELP hdmm_audit_subscriber_drops_total Audit events dropped on saturated subscriber channels.
# TYPE hdmm_audit_subscriber_drops_total counter
hdmm_audit_subscriber_drops_total 0
# HELP hdmm_render_skipped_nonfinite Samples withheld from this page because their value was NaN or Inf.
# TYPE hdmm_render_skipped_nonfinite gauge
hdmm_render_skipped_nonfinite 2
"#;

    #[test]
    fn page_matches_the_literal_recorded_before_the_observer_merge() {
        assert_eq!(render_prometheus(&sample_metrics()), RECORDED_PAGE);
    }
}
