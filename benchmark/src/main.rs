//! The repository's benchmark.
//!
//! ```text
//! benchmark/run.sh                          all workloads, both passes
//! benchmark/run.sh --workload warm_kron_2d  one workload, both passes
//! benchmark/run.sh --check-repeat           end-to-end pass twice, gaps vs bounds
//! benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//!                                           one pass in this process; the last
//!                                           stdout line is the result as JSON
//! ```
//!
//! One process per workload and pass, so `peak_rss_mb` is per workload: the
//! first three forms re-invoke this executable in the fourth.

mod contract;
mod endtoend;
mod json;
mod layers;
mod orchestrate;
mod procfs;
mod replay;
mod spans;
mod stats;
mod verify;
mod workloads;

use json::Json;
use std::process::ExitCode;
use workloads::Kind;

/// What one pass over one workload measured.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    /// A run that could not measure anything.
    pub fn failed(attempted: u64, failed: u64) -> RunResult {
        RunResult {
            correct: false,
            attempted,
            failed,
            metrics: Vec::new(),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|&(name, value, unit)| {
                    (
                        name,
                        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                    )
                })),
            ),
        ])
    }
}

#[derive(Debug, Default, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<u64>,
    out: Option<String>,
    check_repeat: bool,
}

const USAGE: &str = "usage: run.sh [--workload <name>] [--seed <u64>] [--seconds <1..60>] \
                     [--trace <0|1>] [--out <file>] [--check-repeat]";

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        if flag == "--check-repeat" {
            parsed.check_repeat = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got '{value}'"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value),
            "--seed" => parsed.seed = Some(number()?),
            "--seconds" => parsed.seconds = Some(number()?),
            "--trace" => parsed.trace = Some(number()?),
            "--out" => parsed.out = Some(value),
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    if parsed.trace.is_some_and(|t| t > 1) {
        return Err("--trace takes 0 or 1".into());
    }
    if parsed.seconds.is_some_and(|s| !(1..=60).contains(&s)) {
        return Err("--seconds takes 1 to 60".into());
    }
    if parsed.trace.is_some() && parsed.workload.is_none() {
        return Err("--trace needs --workload".into());
    }
    if parsed.check_repeat && parsed.trace.is_some() {
        return Err("--check-repeat runs the end-to-end pass only; drop --trace".into());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let contract = match contract::Contract::load() {
        Ok(contract) => contract,
        Err(e) => {
            eprintln!("BENCHMARK.json: {e}");
            return ExitCode::from(2);
        }
    };
    let kinds: Vec<Kind> = match &args.workload {
        Some(name) => match Kind::parse(name) {
            Some(kind) => vec![kind],
            None => {
                let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                eprintln!("unknown workload '{name}'; one of {}", names.join(", "));
                return ExitCode::from(2);
            }
        },
        None => Kind::ALL.to_vec(),
    };
    let seed = args.seed.unwrap_or(1);
    let seconds = args.seconds.unwrap_or(contract.run_seconds);

    let ok = match args.trace {
        Some(trace) => run_one_pass(kinds[0], seed, seconds, trace == 1),
        None if args.check_repeat => orchestrate::check_repeat(&contract, &kinds, seed, seconds),
        None => orchestrate::run_all(&kinds, seed, seconds, args.out.as_deref()),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One pass in this process. The last stdout line is the result object the
/// benchmark contract asks for.
fn run_one_pass(kind: Kind, seed: u64, seconds: u64, traced: bool) -> bool {
    println!("{}", procfs::Runner::detect(seed));
    let outcome = if traced {
        layers::run(kind, seed, seconds)
    } else {
        endtoend::run(kind, seed, seconds)
    };
    match outcome {
        Ok(result) => {
            println!("{}", result.to_json().render());
            result.correct
        }
        Err(e) => {
            // Set-up itself failed: there is no result to print.
            eprintln!("{}: set-up failed: {e}", kind.name());
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_driver_invocation() {
        let args = parse("--workload union_5d --seed 7 --seconds 6 --trace 1").unwrap();
        assert_eq!(
            args,
            Args {
                workload: Some("union_5d".into()),
                seed: Some(7),
                seconds: Some(6),
                trace: Some(1),
                out: None,
                check_repeat: false,
            }
        );
        assert!(parse("").unwrap() == Args::default());
        assert!(parse("--check-repeat --seed 2").unwrap().check_repeat);
    }

    #[test]
    fn rejects_bad_invocations() {
        for bad in [
            "--trace 2 --workload union_5d",
            "--trace 1",
            "--seconds 0",
            "--seconds 61",
            "--seed x",
            "--seed",
            "--quick",
            "--check-repeat --workload union_5d --trace 0",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} was accepted");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let result = RunResult {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![("setup_s", 0.8127, "s")],
        };
        assert_eq!(
            result.to_json().render(),
            r#"{"correct":true,"attempted":12,"failed":0,"metrics":{"setup_s":{"value":0.8127,"unit":"s"}}}"#
        );
    }
}
