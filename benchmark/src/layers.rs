//! The traced pass: per-layer numbers for one workload, from three sources,
//! all outside the program under test:
//!
//! 1. the workload served with `trace_sample: 1`, next to an untraced twin —
//!    `engine.serve_ms`, the tracing overhead, and the engine's own phase
//!    histograms and counters read back through `Engine::metrics()`;
//! 2. the replay of one request, stage by stage ([`crate::replay`]);
//! 3. how the two add up: `engine.overhead_ms` is what a request costs beyond
//!    its replayed stages, `engine.phase_gap_share` how far the engine's own
//!    view of the phases is from the replay's.

use crate::replay::{self, Stages, REPS};
use crate::spans::{totals_by_name, SpanLog, NO_PARENT};
use crate::stats::{mean, median};
use crate::workloads::{engine_options, Kind, Reply, Scenario, Served};
use crate::RunResult;
use hdmm_core::EngineError;
use hdmm_engine::{EngineMetrics, PhaseSnapshot, TelemetrySnapshot};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// `(name, unit)` of every per-layer metric, in reporting order. Must match
/// `per_layer` in `BENCHMARK.json`. A metric a workload has no use for (LSMR
/// on a Kronecker plan, the net layer on a local engine) reads 0.
pub const METRICS: [(&str, &str); 52] = [
    ("workload.build_ms", "ms"),
    ("workload.grams_ms", "ms"),
    ("workload.fingerprint_us", "us"),
    ("optimizer.select_ms", "ms"),
    ("optimizer.select_serial_ms", "ms"),
    ("optimizer.select_speedup", "ratio"),
    ("optimizer.cells_run", "count"),
    ("optimizer.cell_ms_p50", "ms"),
    ("optimizer.cell_ms_max", "ms"),
    ("optimizer.loss", "sq_err"),
    ("mechanism.prepare_ms", "ms"),
    ("mechanism.measure_ms", "ms"),
    ("mechanism.reconstruct_ms", "ms"),
    ("mechanism.answer_ms", "ms"),
    ("mechanism.measurements", "count"),
    ("mechanism.noise_ns_per_draw", "ns"),
    ("linalg.gram_ms", "ms"),
    ("linalg.pinv_ms", "ms"),
    ("linalg.kmatvec_ms", "ms"),
    ("linalg.kmatvec_t_ms", "ms"),
    ("linalg.kmatvec_gbps", "GB/s"),
    ("linalg.lsmr_iters", "count"),
    ("linalg.lsmr_ms_per_iter", "ms"),
    ("linalg.lsmr_istop", "code"),
    ("core.plan_bytes", "bytes"),
    ("core.plan_codec_us", "us"),
    ("engine.serve_ms", "ms"),
    ("engine.overhead_ms", "ms"),
    ("engine.phase_select_ms", "ms"),
    ("engine.phase_measure_ms", "ms"),
    ("engine.phase_reconstruct_ms", "ms"),
    ("engine.phase_answer_ms", "ms"),
    ("engine.phase_gap_share", "ratio"),
    ("engine.plan_hit_us", "us"),
    ("engine.cache_hit_share", "ratio"),
    ("engine.ledger_us", "us"),
    ("engine.prometheus_render_us", "us"),
    ("engine.session_single_ms", "ms"),
    ("engine.session_batch_ms_per_workload", "ms"),
    ("engine.wal_append_us", "us"),
    ("engine.trace_overhead_share", "ratio"),
    ("obs.spans_per_request", "count"),
    ("obs.spans_dropped", "count"),
    ("obs.chrome_export_ms", "ms"),
    ("net.tasks_per_request", "count"),
    ("net.task_roundtrip_ms", "ms"),
    ("net.retries", "count"),
    ("net.fallbacks", "count"),
    ("net.frame_encode_us", "us"),
    ("net.frame_decode_us", "us"),
    ("net.bytes_per_request", "bytes"),
    ("net.remote_tax_ms", "ms"),
];

/// Cold requests the untraced twin skips, so that its requests miss the plan
/// store the traced engine has just filled.
const UNTRACED_COLD_OFFSET: usize = 32;
/// Everything this pass writes — traces and scratch files — goes here.
const OUT_DIR: &str = "benchmark/out";

/// Metric values by name; a metric never set reads 0.
#[derive(Default)]
pub struct Measured(BTreeMap<&'static str, f64>);

impl Measured {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            METRICS.iter().any(|(m, _)| *m == name),
            "{name} is not declared"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Serves requests `offset, offset+1, …` for `budget`, at least three.
/// Returns what the loop saw and the trace id of its last served request.
fn serve_for(scenario: &Scenario, offset: usize, budget: Duration) -> (Served, Option<u64>) {
    let mut trace_id = None;
    let served = scenario.serve_window(offset, budget, 3, |_, reply| {
        if let Reply::Served(response) = reply {
            trace_id = Some(response.trace_id);
        }
    });
    (served, trace_id)
}

/// Mean of the phase observations made between two snapshots — the measured
/// requests without the set-up's. When there were none (SELECT on a warm
/// workload) the set-up's own mean is what there is to show.
fn phase_mean_ms(before: &PhaseSnapshot, after: &PhaseSnapshot) -> f64 {
    match after.count - before.count {
        0 => after.mean_ns / 1e6,
        n => (after.sum_ns - before.sum_ns) as f64 / n as f64 / 1e6,
    }
}

/// What the traced engine's own instruments saw: phase histograms, cache and
/// span counters, worker-pool health.
fn engine_view(before: &TelemetrySnapshot, after: &EngineMetrics, m: &mut Measured) {
    let telemetry = &after.telemetry;
    for (metric, before, after) in [
        ("engine.phase_select_ms", &before.select, &telemetry.select),
        (
            "engine.phase_measure_ms",
            &before.measure,
            &telemetry.measure,
        ),
        (
            "engine.phase_reconstruct_ms",
            &before.reconstruct,
            &telemetry.reconstruct,
        ),
        ("engine.phase_answer_ms", &before.answer, &telemetry.answer),
    ] {
        m.set(metric, phase_mean_ms(before, after));
    }
    let lookups = (after.cache.hits + after.cache.misses).max(1);
    m.set(
        "engine.cache_hit_share",
        after.cache.hits as f64 / lookups as f64,
    );
    let requests = telemetry.requests.max(1) as f64;
    m.set(
        "obs.spans_per_request",
        after.obs.spans_collected as f64 / requests,
    );
    m.set("obs.spans_dropped", after.obs.spans_dropped as f64);
    if let Some(pool) = &after.remote {
        let tasks: u64 = pool.workers.iter().map(|w| w.tasks).sum();
        let task_micros: f64 = pool
            .workers
            .iter()
            .map(|w| w.mean_task_micros * w.tasks as f64)
            .sum();
        m.set("net.tasks_per_request", tasks as f64 / requests);
        m.set(
            "net.task_roundtrip_ms",
            task_micros / tasks.max(1) as f64 / 1e3,
        );
        m.set("net.retries", pool.retries as f64);
        m.set("net.fallbacks", telemetry.remote_fallbacks as f64);
    }
}

/// The replayed stages a request of this workload waits for: ANSWER alone
/// when it reads a session, MEASURE onwards when the plan is cached, and
/// SELECT with its Grams and the reconstruction set-up too when it is cold.
/// Returns `(all of them, the three mechanism phases among them)`.
fn blocking_stages(kind: Kind) -> (Vec<&'static str>, &'static [&'static str]) {
    let phases: &[&str] = if kind == Kind::SessionAnswers {
        &["mechanism.answer_ms"]
    } else {
        &[
            "mechanism.measure_ms",
            "mechanism.reconstruct_ms",
            "mechanism.answer_ms",
        ]
    };
    let selection: &[&str] = if kind.expects_cache_hit() {
        &[]
    } else {
        &[
            "workload.grams_ms",
            "optimizer.select_ms",
            "mechanism.prepare_ms",
        ]
    };
    (selection.iter().chain(phases).copied().collect(), phases)
}

/// Removes the scratch directory when the pass ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn run(kind: Kind, seed: u64, seconds: u64) -> Result<RunResult, EngineError> {
    let name = kind.name();
    let scratch =
        Scratch(Path::new(OUT_DIR).join(format!("scratch_{name}_{}", std::process::id())));
    // The engines of this pass share a plan store, so SELECT runs once and
    // the twins load its result. The store plays no part in serving.
    let plans = scratch.0.join("plans");
    let set_up = |trace_sample: u64, remote: bool| {
        let options = engine_options(seed, trace_sample, Some(plans.clone()));
        Scenario::set_up(kind, seed, options, remote)
    };
    let slice = Duration::from_secs_f64(seconds as f64 / 8.0);
    let mut m = Measured::default();

    // Serving, traced and untraced.
    let traced = set_up(1, kind.is_remote())?;
    let before = traced.engine.metrics().telemetry;
    let untraced = set_up(0, kind.is_remote())?;
    let untraced_offset = match kind {
        Kind::ColdRange1d => UNTRACED_COLD_OFFSET,
        _ => 0,
    };
    let (traced_run, trace_id) = serve_for(&traced, 0, 2 * slice);
    let (untraced_run, _) = serve_for(&untraced, untraced_offset, 2 * slice);
    let mut attempted = traced_run.attempted + untraced_run.attempted;
    let mut failed = traced_run.failed + untraced_run.failed;
    if traced_run.latencies_ms.is_empty() || untraced_run.latencies_ms.is_empty() {
        return Ok(RunResult::failed(attempted.max(1), failed.max(1)));
    }
    let serve_ms = mean(&traced_run.latencies_ms);
    let untraced_ms = mean(&untraced_run.latencies_ms);
    m.set("engine.serve_ms", serve_ms);
    m.set(
        "engine.trace_overhead_share",
        (serve_ms - untraced_ms) / untraced_ms,
    );
    engine_view(&before, &traced.engine.metrics(), &mut m);

    // The net layer's cost is the remote engine's latency over its local
    // twin's, both untraced.
    if kind.is_remote() {
        let (local, _) = serve_for(&set_up(0, false)?, 0, 2 * slice);
        attempted += local.attempted;
        failed += local.failed;
        if !local.latencies_ms.is_empty() {
            m.set(
                "net.remote_tax_ms",
                median(&untraced_run.latencies_ms) - median(&local.latencies_ms),
            );
        }
    }
    drop(untraced);

    // The replay, under benchmark-side spans.
    let log = SpanLog::new();
    let ((faithful, engine_trace), replay_took) =
        log.span(0, NO_PARENT, &format!("replay:{name}"), |root| {
            let stages = Stages {
                log: &log,
                root,
                slice,
            };
            let replayed = replay::pipeline(&stages, &traced, seed, &mut m);
            replay::kernels(&stages, &replayed, &traced.inputs.x, seed, &mut m);
            let engine_trace =
                replay::engine_parts(&stages, &traced, &replayed, trace_id, &scratch.0, &mut m);
            if kind.is_remote() {
                let strategy = replayed.plan.strategy();
                replay::net_frames(&stages, strategy, traced.inputs.shards, &mut m);
            }
            (replayed.faithful, engine_trace)
        });
    attempted += 1;
    failed += u64::from(!faithful);

    // Does the replay account for the request?
    let (blocking, phases) = blocking_stages(kind);
    let replayed_ms: f64 = blocking.iter().map(|stage| m.get(stage)).sum();
    m.set("engine.overhead_ms", serve_ms - replayed_ms);
    // The same phases as the engine's histograms saw them — the only view of
    // what the sharded and remote executors did.
    let replayed_phases: f64 = phases.iter().map(|stage| m.get(stage)).sum();
    let engine_phases: f64 = phases
        .iter()
        .map(|stage| m.get(&stage.replace("mechanism.", "engine.phase_")))
        .sum();
    m.set(
        "engine.phase_gap_share",
        (engine_phases - replayed_phases).abs() / serve_ms,
    );

    // Report.
    println!(
        "workload {name} · traced pass · stage slice {:.2} s · up to {REPS} repetitions, medians",
        slice.as_secs_f64()
    );
    for (metric, unit) in METRICS {
        println!("  {metric:<38} {:>16.6} {unit}", m.get(metric));
    }
    let largest = blocking
        .iter()
        .max_by(|a, b| m.get(a).total_cmp(&m.get(b)))
        .expect("every request waits for ANSWER");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "  request {serve_ms:.3} ms = replayed stages {replayed_ms:.3} ms ({:.1} %) \
         + engine.overhead_ms {:.3} ms; largest stage {largest}; \
         ideal select speed-up min(cells, cores) = {}",
        100.0 * replayed_ms / serve_ms,
        m.get("engine.overhead_ms"),
        (m.get("optimizer.cells_run") as usize).min(cores),
    );
    if m.get("engine.phase_gap_share") > 0.10 {
        println!(
            "  WARNING: the engine's own phase means and the replay differ by {:.1} % of the \
             request (sharded and remote executors are seen only by the engine's histograms)",
            100.0 * m.get("engine.phase_gap_share")
        );
    }
    let spans = log.spans();
    println!(
        "  where the time went ({} spans, {:.2} s replayed):",
        spans.len(),
        replay_took.as_secs_f64()
    );
    println!(
        "    {:<28} {:>6} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for t in totals_by_name(&spans) {
        println!(
            "    {:<28} {:>6} {:>12.3} {:>12.3}",
            t.name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    write_out(&format!("trace_{name}.json"), &log.chrome_trace());
    if let Some(chrome) = engine_trace {
        // The engine's own span tree of one served request, for comparison.
        write_out(&format!("engine_trace_{name}.json"), &chrome);
    }

    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics: METRICS
            .iter()
            .map(|&(metric, unit)| (metric, m.get(metric), unit))
            .collect(),
    })
}

/// Writes a trace file under [`OUT_DIR`]. Traces are a by-product: failing to
/// write one is reported, not fatal.
fn write_out(file: &str, text: &str) {
    let path = Path::new(OUT_DIR).join(file);
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, text));
    match written {
        Ok(()) => println!("  trace written to {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}
