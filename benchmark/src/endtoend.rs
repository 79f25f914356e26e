//! The end-to-end pass: one workload through the public `Engine` API with
//! tracing off — closed loop, one client thread.

use crate::procfs::{cpu_seconds, peak_rss_mb};
use crate::stats::{median, segment_throughput, tail};
use crate::verify::Verifier;
use crate::workloads::{engine_options, Kind, Scenario, Served};
use crate::RunResult;
use hdmm_core::EngineError;
use std::time::{Duration, Instant};

/// `(name, unit)` of every end-to-end metric, in reporting order. Must match
/// `end_to_end` in `BENCHMARK.json`; `main` checks that at start-up.
pub const METRICS: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("request_p50_ms", "ms"),
    ("throughput_rps", "req/s"),
    ("cpu_ms_per_request", "ms"),
    ("peak_rss_mb", "MB"),
    ("rmse_ratio", "ratio"),
    ("error_vs_identity", "ratio"),
];

/// Set-ups per run; `setup_s` is their median, because one set-up is a single
/// sample of a seconds-long SELECT.
const SETUPS: usize = 3;

fn set_up(kind: Kind, seed: u64, remote: bool) -> Result<Scenario, EngineError> {
    Scenario::set_up(kind, seed, engine_options(seed, 0, None), remote)
}

pub fn run(kind: Kind, seed: u64, seconds: u64) -> Result<RunResult, EngineError> {
    // Set-up, repeated. Each scenario is dropped before the next is built so
    // two never hold memory at once; the last one serves the window.
    let mut setup_seconds = Vec::with_capacity(SETUPS);
    let mut scenario = None;
    for _ in 0..SETUPS {
        drop(scenario.take());
        let started = Instant::now();
        scenario = Some(set_up(kind, seed, kind.is_remote())?);
        setup_seconds.push(started.elapsed().as_secs_f64());
    }
    let scenario = scenario.expect("SETUPS is at least one");
    let mut verifier = Verifier::new(&scenario);

    // The measured window: runs for `seconds`, and on until the verified
    // requests are in.
    let cpu_before = cpu_seconds();
    let served = scenario.serve_window(
        0,
        Duration::from_secs(seconds),
        kind.verified_requests(),
        |i, reply| verifier.check(i, reply),
    );
    let cpu_seconds_used = cpu_seconds() - cpu_before;
    // Before the checks below build their twin engine.
    let peak_rss = peak_rss_mb();
    let Served {
        latencies_ms,
        completions_s,
        mut attempted,
        mut failed,
    } = served;
    if latencies_ms.is_empty() {
        // Nothing to report a latency of; the caller prints the failure.
        return Ok(RunResult::failed(attempted.max(1), failed.max(1)));
    }

    if kind == Kind::ColdRange1d {
        let (replays, replay_failures) = verifier.replay_cold_plans();
        attempted += replays;
        failed += replay_failures;
    }
    if kind.is_remote() {
        verifier.check_remote_identity(&set_up(kind, seed, false)?);
    }
    let incomplete = verifier.verified() < kind.verified_requests();
    let verdict = verifier.finish();

    let values = [
        median(&setup_seconds),
        median(&latencies_ms),
        segment_throughput(&completions_s),
        cpu_seconds_used * 1e3 / latencies_ms.len() as f64,
        peak_rss,
        verdict.rmse_ratio,
        verdict.error_vs_identity,
    ];

    let name = kind.name();
    println!("workload {name} · end-to-end pass · window {seconds} s · tracing off");
    let notes = [
        format!("median of {SETUPS} set-ups: {setup_seconds:.3?}"),
        format!("{} samples", latencies_ms.len()),
        "median of 3 request-count segments".to_string(),
        format!("{cpu_seconds_used:.2} s user+sys over the window"),
        "VmHWM after the window".to_string(),
        format!("over {} verified requests", kind.verified_requests()),
        "√(identity error ÷ expected error) of the served plans".to_string(),
    ];
    for (((metric, unit), value), note) in METRICS.iter().zip(values).zip(notes) {
        println!("  {metric:<22} {value:>14.6} {unit:<6} ({note})");
    }
    match tail(&latencies_ms) {
        Some((percentile, value)) => println!(
            "  {:<22} {value:>14.6} {:<6} (p{percentile:.2}, diagnostic, not gated)",
            "engine.request_tail_ms", "ms"
        ),
        None => println!(
            "  {:<22} {:>14} {:<6} (needs 20 samples, has {})",
            "engine.request_tail_ms",
            "n/a",
            "ms",
            latencies_ms.len()
        ),
    }
    println!(
        "  {:<22} {:>14.6} {:<6} ({failed} failed of {attempted} attempted)",
        "failed_share",
        failed as f64 / attempted as f64,
        "ratio"
    );
    println!("  {:<22} {:>#14x}", "answers_digest", verdict.digest);
    for problem in &verdict.problems {
        println!("  CHECK FAILED: {problem}");
    }
    if verdict.problem_count > verdict.problems.len() {
        println!(
            "  … and {} more failed checks",
            verdict.problem_count - verdict.problems.len()
        );
    }
    if incomplete {
        println!("  CHECK FAILED: the schedule ran out before the verified requests were in");
    }
    let correct = failed == 0 && verdict.problem_count == 0 && !incomplete;
    println!("  {:<22} {:>14}", "answers_digest_ok", u8::from(correct));

    Ok(RunResult {
        correct,
        attempted,
        failed,
        metrics: METRICS
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect(),
    })
}
