//! `BENCHMARK.json` as the harness sees it.
//!
//! The file at the root of the repository is the one place bounds and the
//! default window length are written down. The harness reads them from there
//! and refuses to run when the file's workload or metric lists have drifted
//! from what this code measures.

use crate::json::Json;
use crate::workloads::Kind;
use crate::{endtoend, layers};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Bounded {
    pub name: String,
    pub better: Better,
    /// Share of the first value by which the second may be worse.
    pub bound: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    pub run_seconds: u64,
    pub end_to_end: Vec<Bounded>,
}

impl Contract {
    /// Reads `BENCHMARK.json` from the working directory — the root of the
    /// repository, where `run.sh` puts the process.
    pub fn load() -> Result<Contract, String> {
        let text = std::fs::read_to_string("BENCHMARK.json").map_err(|e| e.to_string())?;
        Contract::parse(&text)
    }

    fn parse(text: &str) -> Result<Contract, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("'{key}' is not a list"))
        };
        let field = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("an entry lacks '{key}'"))
        };

        let workloads: Vec<String> = list("workloads")?
            .iter()
            .map(|w| field(w, "name"))
            .collect::<Result<_, _>>()?;
        let measured: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        if workloads != measured {
            return Err(format!(
                "workloads {workloads:?}, the harness runs {measured:?}"
            ));
        }

        for (key, measured) in [
            ("end_to_end", &endtoend::METRICS[..]),
            ("per_layer", &layers::METRICS[..]),
        ] {
            let declared: Vec<(String, String)> = list(key)?
                .iter()
                .map(|m| Ok((field(m, "name")?, field(m, "unit")?)))
                .collect::<Result<_, String>>()?;
            let same = declared.len() == measured.len()
                && declared
                    .iter()
                    .zip(measured)
                    .all(|((name, unit), (m_name, m_unit))| name == m_name && unit == m_unit);
            if !same {
                return Err(format!(
                    "'{key}' declares {declared:?}, the harness reports {measured:?}"
                ));
            }
        }

        let end_to_end = list("end_to_end")?
            .iter()
            .map(|m| {
                Ok(Bounded {
                    name: field(m, "name")?,
                    better: match field(m, "better")?.as_str() {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => return Err(format!("better: '{other}'")),
                    },
                    bound: m
                        .get("bound")
                        .and_then(Json::as_f64)
                        .ok_or("an end-to-end metric lacks 'bound'")?,
                })
            })
            .collect::<Result<_, String>>()?;

        let run_seconds =
            doc.get("run_seconds")
                .and_then(Json::as_f64)
                .filter(|s| (1.0..=60.0).contains(s) && s.fract() == 0.0)
                .ok_or("'run_seconds' is not a whole number from 1 to 60")? as u64;
        Ok(Contract {
            run_seconds,
            end_to_end,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed contract and the harness agree on workloads, metric
    /// names and units — the same check every run makes at start-up.
    #[test]
    fn committed_contract_matches_the_harness() {
        let contract = Contract::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(contract.end_to_end.len(), endtoend::METRICS.len());
        let setup = &contract.end_to_end[0];
        assert_eq!(
            (setup.name.as_str(), setup.better),
            ("setup_s", Better::Lower)
        );
        assert!(contract
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn drift_is_refused() {
        let text = include_str!("../../BENCHMARK.json");
        let renamed = text.replace("\"request_p50_ms\"", "\"request_p99_ms\"");
        assert!(Contract::parse(&renamed)
            .unwrap_err()
            .contains("end_to_end"));
        let dropped = text.replace("\"union_5d\"", "\"union_6d\"");
        assert!(Contract::parse(&dropped).unwrap_err().contains("workloads"));
    }
}
