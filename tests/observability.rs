//! Observability integration tests (ISSUE 7): end-to-end request tracing
//! across the shard-worker RPC boundary, Prometheus exposition, and the
//! ε-budget audit stream.
//!
//! The tentpole assertion lives in
//! [`remote_query_yields_one_connected_span_tree_with_worker_spans`]: a
//! query served through real loopback TCP workers must produce a **single
//! connected span tree** under the coordinator's trace id — queue-less
//! direct serve, SELECT, phases, per-shard RPC attempts, *and* the
//! worker-side spans shipped back over the v2 wire extension — exportable
//! as structurally valid Chrome `trace_event` JSON.
//!
//! The Prometheus property test parses every rendered line with a small
//! exposition-format checker: names legal, label values well-escaped, no
//! `NaN`/`Inf` sample ever emitted, and every histogram honoring the
//! cumulative-bucket contract (`le`-sorted non-decreasing counts, `+Inf`
//! bucket equal to `_count`).

use hdmm::core::{builders, Domain, EngineError, QueryEngine};
use hdmm::engine::{AuditKind, Engine, EngineOptions, RemoteOptions, RetryPolicy, Span, WalRecord};
use hdmm::optimizer::HdmmOptions;
use hdmm_net::{spawn_worker, WorkerHandle, WorkerOptions};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Duration;

fn engine_with(seed: u64, remote: Option<RemoteOptions>) -> Engine {
    Engine::new(EngineOptions {
        hdmm: HdmmOptions {
            restarts: 1,
            ..Default::default()
        },
        seed,
        remote,
        ..Default::default()
    })
}

fn spawn_workers(count: usize) -> (Vec<WorkerHandle>, RemoteOptions) {
    let handles: Vec<WorkerHandle> = (0..count)
        .map(|_| spawn_worker("127.0.0.1:0", WorkerOptions::default()).expect("loopback bind"))
        .collect();
    let opts = RemoteOptions {
        workers: handles.iter().map(|h| h.addr().to_string()).collect(),
        policy: RetryPolicy {
            task_timeout: Duration::from_secs(10),
            attempts: 3,
            backoff: Duration::from_millis(10),
        },
    };
    (handles, opts)
}

/// A structural JSON validity check: every brace/bracket balances outside
/// strings, escapes are legal, and no raw control character leaks into a
/// string. Not a full parser — exactly the invariants that break a trace
/// viewer's loader.
fn assert_structurally_valid_json(text: &str) {
    let mut depth: i64 = 0;
    let mut in_string = false;
    let mut escaped = false;
    for c in text.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            } else {
                assert!(
                    !c.is_control(),
                    "raw control char {c:?} inside a JSON string"
                );
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                assert!(depth >= 0, "unbalanced closer in JSON output");
            }
            _ => {}
        }
    }
    assert!(!in_string, "unterminated string in JSON output");
    assert_eq!(depth, 0, "unbalanced braces in JSON output");
}

/// The tentpole: a remote sharded query assembles one connected span tree.
#[test]
fn remote_query_yields_one_connected_span_tree_with_worker_spans() {
    let (_workers, remote) = spawn_workers(2);
    let engine = engine_with(11, Some(remote));
    // A Kronecker-routed workload: 1-D explicit strategies are served
    // locally by design (not worth a round-trip), so the remote fan-out —
    // and therefore the wire-crossing spans — need a product workload.
    let domain = Domain::new(&[32, 16]);
    let workload = hdmm::core::Workload::product(
        domain.clone(),
        vec![
            hdmm::workload::blocks::prefix_block(32),
            hdmm::workload::blocks::prefix_block(16),
        ],
    );
    engine
        .register_dataset_sharded("d", domain, vec![2.0; 32 * 16], 4, 10.0)
        .unwrap();
    let resp = engine.serve("d", &workload, 0.5).unwrap();
    assert_ne!(resp.trace_id, 0, "served requests carry a trace id");

    let spans: Vec<Span> = engine.trace_spans(resp.trace_id);
    assert!(!spans.is_empty(), "sampled request must retain spans");
    assert!(
        spans.iter().all(|s| s.trace_id == resp.trace_id),
        "trace lookup returns only this trace"
    );

    // Exactly one root, and every other span parents to a span in the tree.
    let ids: HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
    assert_eq!(ids.len(), spans.len(), "span ids are unique in a trace");
    let roots: Vec<&Span> = spans.iter().filter(|s| s.parent_id == 0).collect();
    assert_eq!(roots.len(), 1, "one root: {spans:#?}");
    assert_eq!(roots[0].name, "request");
    for s in &spans {
        if s.parent_id != 0 {
            assert!(
                ids.contains(&s.parent_id),
                "span {:?} dangles from unknown parent {}",
                s.name,
                s.parent_id
            );
        }
    }

    // The tree spans every layer: SELECT, the mechanism phases, per-attempt
    // RPC spans, and worker-side spans that crossed the wire.
    let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    for expected in ["select", "measure", "reconstruct", "answer"] {
        assert!(names.contains(&expected), "missing {expected}: {names:?}");
    }
    assert!(
        names.iter().any(|n| n.starts_with("rpc:")),
        "missing client RPC spans: {names:?}"
    );
    assert!(
        names.iter().any(|n| n.starts_with("worker:")),
        "missing worker-side spans shipped over the wire: {names:?}"
    );

    // Worker spans parent under the RPC attempt that carried them.
    let rpc_ids: HashSet<u64> = spans
        .iter()
        .filter(|s| s.name.starts_with("rpc:"))
        .map(|s| s.span_id)
        .collect();
    for ws in spans.iter().filter(|s| s.name.starts_with("worker:")) {
        assert!(
            rpc_ids.contains(&ws.parent_id),
            "worker span {ws:?} must parent under an RPC attempt"
        );
    }

    let chrome = engine.chrome_trace(resp.trace_id);
    assert!(chrome.starts_with("{\"traceEvents\":["), "{chrome}");
    assert!(chrome.contains(&format!("{:016x}", resp.trace_id)));
    assert_structurally_valid_json(&chrome);
}

/// Trace ids are a pure function of (engine seed, request counter): replayed
/// deployments trace identically, and distinct seeds diverge.
#[test]
fn trace_ids_are_deterministic_under_the_engine_seed() {
    let ids = |seed: u64| -> Vec<u64> {
        let engine = engine_with(seed, None);
        engine
            .register_dataset("d", Domain::one_dim(16), vec![1.0; 16], 10.0)
            .unwrap();
        (0..3)
            .map(|_| {
                engine
                    .serve("d", &builders::prefix_1d(16), 0.25)
                    .unwrap()
                    .trace_id
            })
            .collect()
    };
    let a = ids(42);
    assert_eq!(a, ids(42), "same seed, same trace ids");
    assert_ne!(a, ids(43), "different seed, different trace ids");
    assert_eq!(
        a.iter().collect::<HashSet<_>>().len(),
        a.len(),
        "ids unique"
    );
}

/// Every ε movement is audited, trace-correlated, and ordered: a grant is
/// Reserve→Commit, a refused request is Reserve-free (accountant denial) or
/// Reserve→Deny→Refund (tenant denial), and the JSONL dump is one ledger-log
/// record per line. Balances live in the ledgers, not in the stream.
#[test]
fn audit_stream_records_grants_and_denials_with_trace_ids() {
    let engine = engine_with(5, None);
    engine
        .register_dataset("d", Domain::one_dim(16), vec![1.0; 16], 1.0)
        .unwrap();
    let rx = engine.audit().subscribe();
    let next = || match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
        (
            _,
            WalRecord::Budget {
                kind,
                dataset,
                eps,
                trace_id,
                ..
            },
        ) => (kind, dataset, eps, trace_id),
        (_, other) => panic!("expected a budget record, got {other:?}"),
    };

    let resp = engine.serve("d", &builders::prefix_1d(16), 0.75).unwrap();
    let (kind, dataset, eps, trace_id) = next();
    assert_eq!(kind, AuditKind::Reserve);
    assert_eq!(trace_id, resp.trace_id);
    assert_eq!(dataset, "d");
    assert!((eps - 0.75).abs() < 1e-12);
    let (kind, _, _, trace_id) = next();
    assert_eq!(kind, AuditKind::Commit);
    assert_eq!(trace_id, resp.trace_id);
    assert!((engine.budget("d").unwrap().1 - 0.75).abs() < 1e-12);

    // Over budget: refused before any reservation — the accountant denies.
    let err = engine
        .serve("d", &builders::prefix_1d(16), 0.5)
        .unwrap_err();
    assert!(matches!(err, EngineError::BudgetExhausted { .. }));
    let (kind, _, _, trace_id) = next();
    assert_eq!(kind, AuditKind::Deny);
    assert_ne!(trace_id, resp.trace_id, "denial has its own trace");

    let dump = engine.audit().dump_jsonl();
    let lines: Vec<&str> = dump.lines().collect();
    assert_eq!(lines.len() as u64, engine.metrics().obs.audit_events);
    for line in lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"kind\""), "{line}");
        assert_structurally_valid_json(line);
    }
}

/// `slow_query_threshold` flushes the span tree even when sampling is off,
/// and counts the breach in telemetry.
#[test]
fn slow_queries_flush_spans_and_count_even_when_unsampled() {
    let engine = Engine::new(EngineOptions {
        hdmm: HdmmOptions {
            restarts: 1,
            ..Default::default()
        },
        seed: 9,
        slow_query_threshold: Some(Duration::ZERO), // everything is "slow"
        trace_sample: 0,                            // sampling off: only slow queries flush
        ..Default::default()
    });
    engine
        .register_dataset("d", Domain::one_dim(16), vec![1.0; 16], 10.0)
        .unwrap();
    let resp = engine.serve("d", &builders::prefix_1d(16), 0.25).unwrap();
    let m = engine.metrics();
    assert_eq!(m.telemetry.slow_queries, 1);
    let spans = engine.trace_spans(resp.trace_id);
    let root = spans.iter().find(|s| s.name == "request").expect("flushed");
    assert!(root.attrs.iter().any(|(k, v)| k == "slow" && v == "true"));

    // And with a generous threshold plus sampling off, nothing is retained.
    let quiet = Engine::new(EngineOptions {
        hdmm: HdmmOptions {
            restarts: 1,
            ..Default::default()
        },
        seed: 9,
        slow_query_threshold: Some(Duration::from_secs(3600)),
        trace_sample: 0,
        ..Default::default()
    });
    quiet
        .register_dataset("d", Domain::one_dim(16), vec![1.0; 16], 10.0)
        .unwrap();
    let resp = quiet.serve("d", &builders::prefix_1d(16), 0.25).unwrap();
    assert!(quiet.trace_spans(resp.trace_id).is_empty());
    assert_eq!(quiet.metrics().obs.spans_collected, 0);
}

// ---------------------------------------------------------------------------
// Prometheus exposition-format checking
// ---------------------------------------------------------------------------

/// One parsed sample line.
struct Sample {
    name: String,
    labels: BTreeMap<String, String>,
    value: f64,
}

/// Parses one exposition line into (name, labels, value), panicking with a
/// line-specific message on any grammar violation.
fn parse_sample(line: &str) -> Sample {
    let (head, value_str) = line.rsplit_once(' ').unwrap_or_else(|| {
        panic!("sample line has no value separator: {line:?}");
    });
    assert!(
        !value_str.is_empty() && value_str != "NaN" && !value_str.contains("nf"),
        "non-finite or empty value in {line:?}"
    );
    let value: f64 = value_str
        .parse()
        .unwrap_or_else(|e| panic!("unparseable value in {line:?}: {e}"));
    assert!(value.is_finite(), "non-finite value rendered: {line:?}");

    let (name, labels) = match head.split_once('{') {
        None => (head.to_string(), BTreeMap::new()),
        Some((name, rest)) => {
            let body = rest
                .strip_suffix('}')
                .unwrap_or_else(|| panic!("unterminated label block: {line:?}"));
            (name.to_string(), parse_labels(body, line))
        }
    };
    let mut chars = name.chars();
    let first = chars
        .next()
        .unwrap_or_else(|| panic!("empty name: {line:?}"));
    assert!(
        first.is_ascii_alphabetic() || first == '_' || first == ':',
        "bad name start in {line:?}"
    );
    assert!(
        chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
        "bad name char in {line:?}"
    );
    Sample {
        name,
        labels,
        value,
    }
}

/// Parses `k="v",k2="v2"` honoring the escape rules (`\\`, `\"`, `\n`).
fn parse_labels(body: &str, line: &str) -> BTreeMap<String, String> {
    let mut labels = BTreeMap::new();
    let mut chars = body.chars().peekable();
    loop {
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        assert!(!key.is_empty(), "empty label key: {line:?}");
        assert_eq!(
            chars.next(),
            Some('"'),
            "label value must be quoted: {line:?}"
        );
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => panic!("illegal escape \\{other:?} in {line:?}"),
                },
                Some('"') => break,
                Some(c) => {
                    assert!(c != '\n', "raw newline in label value: {line:?}");
                    value.push(c);
                }
                None => panic!("unterminated label value: {line:?}"),
            }
        }
        labels.insert(key, value);
        match chars.next() {
            Some(',') => continue,
            None => break,
            Some(c) => panic!("unexpected {c:?} after label value: {line:?}"),
        }
    }
    labels
}

/// Full exposition-format check over a rendered page: grammar per line,
/// TYPE kinds legal, and the cumulative-histogram contract per family and
/// label set.
fn check_exposition(text: &str) {
    let mut histogram_families: HashSet<String> = HashSet::new();
    let mut samples: Vec<Sample> = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().expect("TYPE name");
            let kind = parts.next().expect("TYPE kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown TYPE kind: {line:?}"
            );
            if kind == "histogram" {
                histogram_families.insert(name.to_string());
            }
            continue;
        }
        if line.starts_with('#') {
            assert!(
                line.starts_with("# HELP "),
                "unknown comment form: {line:?}"
            );
            continue;
        }
        samples.push(parse_sample(line));
    }
    assert!(!samples.is_empty(), "no samples rendered");

    for family in &histogram_families {
        // Group bucket lines by their non-`le` label set.
        let mut series: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
        let bucket_name = format!("{family}_bucket");
        for s in samples.iter().filter(|s| s.name == bucket_name) {
            let le = s.labels.get("le").expect("bucket has le");
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().expect("le parses")
            };
            let key: String = s
                .labels
                .iter()
                .filter(|(k, _)| k.as_str() != "le")
                .map(|(k, v)| format!("{k}={v};"))
                .collect();
            series.entry(key).or_default().push((le, s.value));
        }
        for (key, mut buckets) in series {
            buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("le ordered"));
            let mut prev = 0.0f64;
            for &(le, cum) in &buckets {
                assert!(
                    cum >= prev,
                    "{family}{{{key}}}: bucket le={le} count {cum} < previous {prev}"
                );
                prev = cum;
            }
            let (last_le, last_cum) = *buckets.last().expect("at least +Inf");
            assert!(
                last_le.is_infinite(),
                "{family}{{{key}}} missing +Inf bucket"
            );
            let count = samples
                .iter()
                .find(|s| {
                    s.name == format!("{family}_count")
                        && s.labels
                            .iter()
                            .map(|(k, v)| format!("{k}={v};"))
                            .collect::<String>()
                            == key
                })
                .unwrap_or_else(|| panic!("{family}{{{key}}} missing _count"));
            assert_eq!(
                last_cum, count.value,
                "{family}{{{key}}}: +Inf bucket must equal _count"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The rendered `/metrics` page survives a strict exposition-format
    /// parser for engines in varied states: fresh, cache-warm, sharded,
    /// tenant-labeled (with escapes in the tenant name), and over budget.
    #[test]
    fn prometheus_rendering_is_always_parseable(
        seed in 0u64..1_000,
        served in 0usize..4,
        shards in 1usize..4,
        eps_pick in 0usize..3,
        tenant_pick in 0usize..3,
    ) {
        let engine = engine_with(seed, None);
        let n = 16usize;
        let eps = [0.25, 1.0, 5.0][eps_pick];
        let tenant = ["plain", "needs\"escape\\here", "line\nbreak"][tenant_pick];
        engine.set_tenant_quota(tenant, 2.0).unwrap();
        engine
            .register_dataset_sharded("d", Domain::one_dim(n), vec![1.0; n], shards, 6.0)
            .unwrap();
        engine
            .register_dataset_with(
                "t",
                Domain::one_dim(n),
                vec![1.0; n],
                hdmm::engine::DatasetConfig {
                    total_eps: 4.0,
                    shards: 1,
                    tenant: Some(tenant.to_string()),
                },
            )
            .unwrap();
        for i in 0..served {
            let dataset = if i % 2 == 0 { "d" } else { "t" };
            // Later requests may legitimately exhaust the budget or the
            // tenant quota — both states must still render cleanly.
            let _ = engine.serve(dataset, &builders::prefix_1d(n), eps);
        }
        let text = engine.render_prometheus();
        check_exposition(&text);
        prop_assert!(text.contains("hdmm_requests_total"));
        prop_assert!(text.contains("hdmm_phase_duration_seconds_bucket"));
        prop_assert!(text.contains("hdmm_dataset_eps_remaining"));
    }
}

/// Satellite (c): phase snapshots expose their bucket counts and total
/// nanoseconds, with bucket boundaries that reconstruct the cumulative
/// distribution exactly.
#[test]
fn phase_snapshots_expose_buckets_and_sum() {
    let engine = engine_with(3, None);
    engine
        .register_dataset("d", Domain::one_dim(16), vec![1.0; 16], 10.0)
        .unwrap();
    for _ in 0..5 {
        engine.serve("d", &builders::prefix_1d(16), 0.1).unwrap();
    }
    // The select histogram records optimizations, so cache-warm repeats
    // leave exactly the first (miss) observation.
    let snap = engine.metrics().telemetry.select;
    assert!(
        snap.count >= 1,
        "at least the cache-miss SELECT is recorded"
    );
    assert!(snap.sum_ns > 0, "SELECT costs nonzero time");
    assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count);
    let cum = snap.cumulative_buckets();
    assert_eq!(cum.last().map(|&(_, c)| c), Some(snap.count));
    assert!(
        cum.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1),
        "cumulative buckets are le-sorted and non-decreasing"
    );
}

/// One run of identical spans in a trace: how many, their name, their
/// parent's name (empty for the root) and their sorted attribute keys.
type SpanRun = (usize, String, String, Vec<String>);

/// A trace as a table of [`SpanRun`]s, sorted, so completion order and
/// timings drop out and only the tree's shape is compared.
fn span_table(spans: &[Span]) -> Vec<SpanRun> {
    let names: HashMap<u64, &str> = spans.iter().map(|s| (s.span_id, s.name.as_str())).collect();
    let mut rows: Vec<(String, String, Vec<String>)> = spans
        .iter()
        .map(|s| {
            let mut keys: Vec<String> = s.attrs.iter().map(|(k, _)| k.clone()).collect();
            keys.sort();
            let parent = names.get(&s.parent_id).copied().unwrap_or_default();
            (s.name.clone(), parent.to_string(), keys)
        })
        .collect();
    rows.sort();
    let mut runs: Vec<SpanRun> = Vec::new();
    for (name, parent, keys) in rows {
        match runs.last_mut() {
            Some(run) if (&run.1, &run.2, &run.3) == (&name, &parent, &keys) => run.0 += 1,
            _ => runs.push((1, name, parent, keys)),
        }
    }
    runs
}

/// Compares a trace with its recorded table, printing the trace's own table
/// as a literal when they differ.
fn assert_span_table(what: &str, spans: &[Span], expected: &[(usize, &str, &str, &[&str])]) {
    let got = span_table(spans);
    let want: Vec<SpanRun> = expected
        .iter()
        .map(|&(n, name, parent, keys)| {
            let keys = keys.iter().map(|k| k.to_string()).collect();
            (n, name.to_string(), parent.to_string(), keys)
        })
        .collect();
    if got != want {
        let literal: String = got
            .iter()
            .map(|(n, name, parent, keys)| {
                format!("        ({n}, {name:?}, {parent:?}, &{keys:?}),\n")
            })
            .collect();
        panic!("{what}: the span tree changed; it now reads\n{literal}");
    }
}

/// The span trees of three requests — a cold traced request on a 2-shard
/// Kronecker dataset (restart cells included), a traced request through two
/// loopback workers, and an unsampled request under a zero slow-query
/// threshold — as tables recorded before the numeric layers and the engine
/// shared one observer trait. Every span keeps its name, its parent and its
/// attribute keys, except the `shard:*` spans that timed the tasks of the
/// in-process slab fan-out, which no longer exists: the local request lost
/// all of them, and the remote one those of its coordinator-side merge and
/// leading contraction and of ANSWER. The remote request keeps one
/// `shard:measure` span per worker task; it lost the `rpc:apply`,
/// `worker:apply` and `shard:reconstruct` spans of its RECONSTRUCT tasks,
/// since RECONSTRUCT runs on the coordinator and sends no RPC. Its two
/// `rpc:load` / `worker:load` pairs are the pushes of its two slabs, which
/// reach the workers on the first task that needs them.
#[test]
fn span_trees_match_the_table_recorded_before_the_observer_merge() {
    const RPC_KEYS: &[&str] = &["attempt", "lane", "outcome", "shard", "worker"];
    let domain = Domain::new(&[8, 8]);
    let workload = builders::prefix_2d(8, 8);

    let local = engine_with(21, None);
    local
        .register_dataset_sharded("k", domain.clone(), vec![1.0; 64], 2, 10.0)
        .unwrap();
    let resp = local.serve("k", &workload, 0.5).unwrap();
    assert_span_table(
        "cold local, 2 shards",
        &local.trace_spans(resp.trace_id),
        &[
            (1, "answer", "request", &[]),
            (1, "measure", "request", &[]),
            (1, "reconstruct", "request", &[]),
            (1, "request", "", &["dataset", "outcome", "slow"]),
            (1, "restart:kron", "select", &["loss", "restart"]),
            (1, "select", "request", &["cache_hit"]),
        ],
    );

    let (_workers, remote) = spawn_workers(2);
    let rpc = engine_with(22, Some(remote));
    rpc.register_dataset_sharded("k", domain, vec![1.0; 64], 2, 10.0)
        .unwrap();
    let resp = rpc.serve("k", &workload, 0.5).unwrap();
    assert_span_table(
        "cold remote, 2 workers",
        &rpc.trace_spans(resp.trace_id),
        &[
            (1, "answer", "request", &[]),
            (1, "measure", "request", &[]),
            (1, "reconstruct", "request", &[]),
            (1, "request", "", &["dataset", "outcome", "slow"]),
            (1, "restart:kron", "select", &["loss", "restart"]),
            (2, "rpc:forward", "measure", RPC_KEYS),
            (2, "rpc:load", "measure", RPC_KEYS),
            (1, "select", "request", &["cache_hit"]),
            (2, "shard:measure", "measure", &["lane", "shard"]),
            (2, "worker:forward", "rpc:forward", &["lane", "worker"]),
            (2, "worker:load", "rpc:load", &["lane", "worker"]),
        ],
    );

    let slow = Engine::new(EngineOptions {
        hdmm: HdmmOptions {
            restarts: 1,
            ..Default::default()
        },
        seed: 23,
        slow_query_threshold: Some(Duration::ZERO),
        trace_sample: 0,
        ..Default::default()
    });
    slow.register_dataset("d", Domain::one_dim(16), vec![1.0; 16], 10.0)
        .unwrap();
    let resp = slow.serve("d", &builders::prefix_1d(16), 0.25).unwrap();
    assert_span_table(
        "unsampled, slow",
        &slow.trace_spans(resp.trace_id),
        &[
            (1, "answer", "request", &[]),
            (1, "measure", "request", &[]),
            (1, "reconstruct", "request", &[]),
            (1, "request", "", &["dataset", "outcome", "slow"]),
            (1, "restart:opt0", "select", &["loss", "restart"]),
            (1, "select", "request", &["cache_hit"]),
        ],
    );
}
