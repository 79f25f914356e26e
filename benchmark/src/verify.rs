//! Output checks: every timed run also checks what the engine answered.
//!
//! Truth comes from `Workload::answer(x)` on the registered data, the
//! predicted error from the closed form, and the two must agree — so speed
//! can never be bought with accuracy unnoticed.

use crate::stats::{fnv1a, geometric_mean, FNV_OFFSET};
use crate::workloads::{Kind, Reply, Scenario, DATASET, EPS, REPLAY_DATASET};
use hdmm_core::mechanism::error::expected_total_squared_error;
use hdmm_core::{QueryEngine, QueryResponse, WorkloadGrams};
use hdmm_engine::Engine;
use std::collections::BTreeSet;

/// Failed checks kept verbatim; further ones are only counted.
const MAX_PROBLEMS_KEPT: usize = 8;
/// Warm replays of each verified cold plan. A cold window holds a handful of
/// requests with ~270 noise draws each — far too few for the observed RMSE
/// to sit within a few percent of the prediction — and a replay costs 0.3 ms.
const COLD_ACCURACY_REPLAYS: usize = 64;

/// Remote answers a local twin must reproduce bit for bit.
const TWIN_CHECKED_REQUESTS: usize = 8;

/// Reference values, built after set-up and outside every clock.
struct Oracle {
    /// `W·x` per pool entry.
    truths: Vec<Vec<f64>>,
    /// `session_answers`: predicted total squared error of each follow-up
    /// under the session's strategy. Empty otherwise (a served response
    /// carries its own prediction).
    follow_up_expected: Vec<f64>,
}

impl Oracle {
    fn new(scenario: &Scenario) -> Oracle {
        let truths = scenario
            .pool
            .iter()
            .map(|w| w.answer(&scenario.inputs.x))
            .collect();
        let follow_up_expected = if scenario.sessions.is_empty() {
            Vec::new()
        } else {
            let measured = scenario.inputs.warmup[0].build();
            let (plan, _) = scenario.engine.plan(&measured);
            scenario
                .pool
                .iter()
                .map(|w| {
                    expected_total_squared_error(
                        &WorkloadGrams::from_workload(w),
                        plan.strategy(),
                        EPS,
                    )
                })
                .collect()
        };
        Oracle {
            truths,
            follow_up_expected,
        }
    }
}

/// Where a checked reply came from, for problem messages.
#[derive(Clone, Copy)]
enum At {
    Request(usize),
    ColdReplay(usize),
}

impl std::fmt::Display for At {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            At::Request(i) => write!(f, "request {i}"),
            At::ColdReplay(entry) => write!(f, "accuracy replay of pool entry {entry}"),
        }
    }
}

/// What the checks concluded about one run.
pub struct Verdict {
    /// √(Σ squared answer error ÷ Σ predicted squared error) over the
    /// verified requests.
    pub rmse_ratio: f64,
    /// √(identity error ÷ expected error), geometric mean over the distinct
    /// plans behind the verified requests (the paper's Table 3 ratio).
    pub error_vs_identity: f64,
    /// FNV-1a over the bits of every verified answer.
    pub digest: u64,
    pub problems: Vec<String>,
    pub problem_count: usize,
}

pub struct Verifier<'a> {
    scenario: &'a Scenario,
    oracle: Oracle,
    verified: usize,
    squared_error: f64,
    expected_error: f64,
    digest: u64,
    /// ε the responses reported as spent, on the measured dataset and on the
    /// replay dataset.
    eps_reported: f64,
    replay_eps_reported: f64,
    /// Pool entries behind the verified requests.
    verified_entries: BTreeSet<usize>,
    /// The verified answers themselves, kept only where a twin engine must
    /// reproduce them bit for bit.
    kept_answers: Vec<Vec<f64>>,
    problems: Vec<String>,
    problem_count: usize,
}

impl<'a> Verifier<'a> {
    pub fn new(scenario: &'a Scenario) -> Self {
        Verifier {
            scenario,
            oracle: Oracle::new(scenario),
            verified: 0,
            squared_error: 0.0,
            expected_error: 0.0,
            digest: FNV_OFFSET,
            eps_reported: 0.0,
            replay_eps_reported: 0.0,
            verified_entries: BTreeSet::new(),
            kept_answers: Vec::new(),
            problems: Vec::new(),
            problem_count: 0,
        }
    }

    fn problem(&mut self, what: String) {
        self.problem_count += 1;
        if self.problems.len() < MAX_PROBLEMS_KEPT {
            self.problems.push(what);
        }
    }

    /// Checks the reply to request `i` (requests arrive in order). The first
    /// [`Kind::verified_requests`] replies also enter the accuracy sums and
    /// the digest.
    pub fn check(&mut self, i: usize, reply: &Reply) {
        // Borrowed from the scenario, not from `self`, so the checks below
        // can record problems while holding it.
        let scenario = self.scenario;
        let kind = scenario.kind;
        let fold = i < kind.verified_requests();
        let entries = scenario
            .inputs
            .entries(i)
            .expect("a reply exists only for a scheduled request");
        match reply {
            Reply::Served(response) => {
                let at = At::Request(i);
                self.eps_reported += response.eps_spent;
                self.check_response(at, response, kind.expects_cache_hit());
                self.check_answers(
                    at,
                    entries[0],
                    &response.answers,
                    response.expected_error,
                    fold,
                );
                if kind.is_remote() && i < TWIN_CHECKED_REQUESTS {
                    self.kept_answers.push(response.answers.clone());
                }
            }
            Reply::Batch(batch) => {
                if batch.len() != entries.len() {
                    self.problem(format!(
                        "request {i}: {} answer sets for {} follow-ups",
                        batch.len(),
                        entries.len()
                    ));
                }
                for (&entry, answers) in entries.iter().zip(batch) {
                    let expected = self.oracle.follow_up_expected[entry];
                    self.check_answers(At::Request(i), entry, answers, expected, fold);
                }
            }
        }
        if fold {
            self.verified += 1;
        }
    }

    fn check_response(&mut self, at: At, response: &QueryResponse, want_hit: bool) {
        let kind = self.scenario.kind;
        if response.eps_spent != EPS {
            self.problem(format!("{at}: spent ε {} ≠ {EPS}", response.eps_spent));
        }
        if response.cache_hit != want_hit {
            self.problem(format!(
                "{at}: cache_hit = {}, expected {want_hit}",
                response.cache_hit
            ));
        }
        if kind
            .expected_operator()
            .is_some_and(|op| op != response.operator)
        {
            self.problem(format!(
                "{at}: operator '{}', expected {:?}",
                response.operator,
                kind.expected_operator()
            ));
        }
        if response.shards != kind.expected_shards() {
            self.problem(format!(
                "{at}: fanned over {} shards, expected {}",
                response.shards,
                kind.expected_shards()
            ));
        }
    }

    fn check_answers(&mut self, at: At, entry: usize, answers: &[f64], expected: f64, fold: bool) {
        let truth = &self.oracle.truths[entry];
        if answers.len() != truth.len() {
            self.problem(format!(
                "{at}: {} answers for {} queries",
                answers.len(),
                truth.len()
            ));
            return;
        }
        let squared: f64 = answers
            .iter()
            .zip(truth)
            .map(|(a, t)| (a - t) * (a - t))
            .sum();
        if !squared.is_finite() {
            self.problem(format!("{at}: non-finite answers"));
            return;
        }
        if fold {
            self.squared_error += squared;
            self.expected_error += expected;
            self.verified_entries.insert(entry);
            for a in answers {
                self.digest = fnv1a(self.digest, &a.to_bits().to_le_bytes());
            }
        }
    }

    /// Requests folded into the sums so far.
    pub fn verified(&self) -> usize {
        self.verified
    }

    /// Serves every verified cold plan again, warm and from the replay
    /// dataset, to give the accuracy sums enough noise draws (see
    /// [`COLD_ACCURACY_REPLAYS`]). Returns `(attempted, failed)`.
    pub fn replay_cold_plans(&mut self) -> (u64, u64) {
        let scenario = self.scenario;
        let (mut attempted, mut failed) = (0, 0);
        for entry in self.verified_entries.clone() {
            for _ in 0..COLD_ACCURACY_REPLAYS {
                attempted += 1;
                match scenario
                    .engine
                    .serve(REPLAY_DATASET, &scenario.pool[entry], EPS)
                {
                    Ok(response) => {
                        let _ = scenario.engine.close_session(response.session);
                        self.replay_eps_reported += response.eps_spent;
                        let at = At::ColdReplay(entry);
                        self.check_response(at, &response, true);
                        self.check_answers(
                            at,
                            entry,
                            &response.answers,
                            response.expected_error,
                            true,
                        );
                    }
                    Err(e) => {
                        failed += 1;
                        self.problem(format!("{}: {e}", At::ColdReplay(entry)));
                    }
                }
            }
        }
        (attempted, failed)
    }

    /// The remote scenario's defining check: a local twin (same seed, same
    /// dataset name, same slabs, no workers) must produce the kept answers
    /// bit for bit, and the pool must not have retried or fallen back.
    pub fn check_remote_identity(&mut self, twin: &Scenario) {
        for i in 0..self.kept_answers.len() {
            match twin.request(i) {
                Some(Ok(Reply::Served(local))) => {
                    let same = local.answers.len() == self.kept_answers[i].len()
                        && local
                            .answers
                            .iter()
                            .zip(&self.kept_answers[i])
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                    if !same {
                        self.problem(format!("request {i}: remote answers differ from local"));
                    }
                }
                _ => self.problem(format!("request {i}: local twin did not serve")),
            }
        }
        let metrics = self.scenario.engine.metrics();
        let retries = metrics.remote.as_ref().map_or(0, |pool| pool.retries);
        if retries != 0 || metrics.telemetry.remote_fallbacks != 0 {
            self.problem(format!(
                "remote pool retried {retries}× and fell back {}×; expected neither",
                metrics.telemetry.remote_fallbacks
            ));
        }
    }

    /// Closes the books: the ledger must show exactly the ε the responses
    /// reported, and the observed error must sit in the workload's band.
    pub fn finish(mut self) -> Verdict {
        let scenario = self.scenario;
        let mut ledgers = vec![(DATASET, scenario.setup_eps + self.eps_reported)];
        if self.replay_eps_reported > 0.0 {
            ledgers.push((REPLAY_DATASET, self.replay_eps_reported));
        }
        for (dataset, reported) in ledgers {
            match scenario.engine.budget(dataset) {
                Ok((_, spent, _)) if spent == reported => {}
                Ok((_, spent, _)) => self.problem(format!(
                    "{dataset}: ledger spent ε {spent}, responses reported {reported}"
                )),
                Err(e) => self.problem(format!("{dataset}: ledger unreadable: {e}")),
            }
        }

        let rmse_ratio = (self.squared_error / self.expected_error).sqrt();
        let (lo, hi) = scenario.kind.rmse_band();
        if !(lo..=hi).contains(&rmse_ratio) {
            self.problem(format!("rmse_ratio {rmse_ratio} outside [{lo}, {hi}]"));
        }

        let error_vs_identity = error_vs_identity(scenario, &self.verified_entries);
        if !(error_vs_identity.is_finite() && error_vs_identity > 0.0) {
            self.problem(format!(
                "error_vs_identity {error_vs_identity} is not a ratio"
            ));
        }

        Verdict {
            rmse_ratio,
            error_vs_identity,
            digest: self.digest,
            problems: self.problems,
            problem_count: self.problem_count,
        }
    }
}

/// The served plans' predicted gain over the Identity strategy. For
/// `session_answers` the served plan is the one measured in set-up.
fn error_vs_identity(scenario: &Scenario, entries: &BTreeSet<usize>) -> f64 {
    let ratio = |engine: &Engine, workload| {
        let (plan, _) = engine.plan(workload);
        (plan.identity_error(EPS) / plan.expected_error(EPS)).sqrt()
    };
    if scenario.kind == Kind::SessionAnswers {
        return ratio(&scenario.engine, &scenario.inputs.warmup[0].build());
    }
    let ratios: Vec<f64> = entries
        .iter()
        .map(|&e| ratio(&scenario.engine, &scenario.pool[e]))
        .collect();
    geometric_mean(&ratios)
}
