//! Runs over several workloads: one child process per workload and pass, so
//! every `peak_rss_mb` belongs to one workload alone.

use crate::contract::{Better, Contract};
use crate::json::Json;
use crate::procfs::Runner;
use crate::workloads::Kind;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// Runs one pass in a child process, echoing its report, and returns the
/// result object from its last line. `None` when the child printed none.
fn child_pass(kind: Kind, seed: u64, seconds: u64, traced: bool) -> Option<Json> {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut child = Command::new(exe)
        .args(["--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .expect("the benchmark can start itself");
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut last = String::new();
    for line in BufReader::new(stdout).lines().map_while(Result::ok) {
        // The result object is for machines; everything above it is the
        // report a person reads.
        if !last.is_empty() {
            println!("{last}");
        }
        last = line;
    }
    let status = child.wait().expect("the child can be waited for");
    match Json::parse(&last) {
        Ok(result) if result.get("metrics").is_some() => {
            if !status.success() {
                println!("  ({} exited with {status})", kind.name());
            }
            Some(result)
        }
        _ => {
            println!("{last}");
            None
        }
    }
}

fn is_correct(result: &Option<Json>) -> bool {
    result
        .as_ref()
        .and_then(|r| r.get("correct"))
        .and_then(Json::as_bool)
        .unwrap_or(false)
}

/// Both passes over every workload in `kinds`. Writes all results, headed by
/// the runner, to `out` when given. True when every check passed.
pub fn run_all(kinds: &[Kind], seed: u64, seconds: u64, out: Option<&str>) -> bool {
    let runner = Runner::detect(seed);
    let mut all_correct = true;
    let mut results = Vec::new();
    for &kind in kinds {
        for (traced, pass) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = child_pass(kind, seed, seconds, traced);
            all_correct &= is_correct(&result);
            results.push(Json::obj([
                ("workload", Json::str(kind.name())),
                ("pass", Json::str(pass)),
                ("result", result.unwrap_or(Json::Null)),
            ]));
            println!();
        }
    }
    println!(
        "{} workloads, both passes: {}",
        kinds.len(),
        if all_correct {
            "every check passed"
        } else {
            "CHECKS FAILED"
        }
    );
    if let Some(path) = out {
        // One result per line keeps the file diffable.
        let lines: Vec<String> = results
            .iter()
            .map(|r| format!("    {}", r.render()))
            .collect();
        let text = format!(
            "{{\n  \"runner\": {},\n  \"seconds\": {seconds},\n  \"results\": [\n{}\n  ]\n}}\n",
            runner.to_json().render(),
            lines.join(",\n")
        );
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("cannot write {path}: {e}");
            return false;
        }
        println!("results written to {path}");
    }
    all_correct
}

/// The end-to-end pass twice, back to back, per workload; then both values of
/// every metric, the share by which the second is worse, and PASS/FAIL
/// against the metric's bound in `BENCHMARK.json`. True when all pass.
pub fn check_repeat(contract: &Contract, kinds: &[Kind], seed: u64, seconds: u64) -> bool {
    println!("{}", Runner::detect(seed));
    let mut rows = Vec::new();
    let mut all_pass = true;
    for &kind in kinds {
        let first = child_pass(kind, seed, seconds, false);
        let second = child_pass(kind, seed, seconds, false);
        all_pass &= is_correct(&first) && is_correct(&second);
        for metric in &contract.end_to_end {
            let value = |result: &Option<Json>| {
                result
                    .as_ref()?
                    .get("metrics")?
                    .get(&metric.name)?
                    .get("value")?
                    .as_f64()
            };
            let (Some(a), Some(b)) = (value(&first), value(&second)) else {
                rows.push(format!("{:<18} {:<20} missing", kind.name(), metric.name));
                all_pass = false;
                continue;
            };
            let worse_by = worsening(metric.better, a, b);
            let pass = worse_by <= metric.bound;
            all_pass &= pass;
            rows.push(format!(
                "{:<18} {:<20} {a:>14.6} {b:>14.6} {:>+8.2}% {:>6.1}%  {}",
                kind.name(),
                metric.name,
                100.0 * worse_by,
                100.0 * metric.bound,
                if pass { "PASS" } else { "FAIL" }
            ));
        }
    }
    println!(
        "\n{:<18} {:<20} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for row in rows {
        println!("{row}");
    }
    println!("\ncheck-repeat: {}", if all_pass { "PASS" } else { "FAIL" });
    all_pass
}

/// Share of `first` by which `second` is worse; negative when it is better.
fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 12.0) + 0.2).abs() < 1e-12);
    }
}
