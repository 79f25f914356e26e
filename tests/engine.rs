//! Integration tests for the end-to-end serving engine: the acceptance
//! scenario of the hdmm-engine subsystem — cache hit on the second identical
//! workload, zero-ε follow-ups from a session, typed budget exhaustion — plus
//! seeded determinism of the full optimize→measure→reconstruct→answer loop.

use hdmm_core::{builders, census, BudgetAccountant, Domain, EngineError, QueryEngine};
use hdmm_engine::{Engine, EngineOptions, EpsAccountant};
use hdmm_optimizer::HdmmOptions;

fn quick_engine(seed: u64) -> Engine {
    Engine::new(EngineOptions {
        hdmm: HdmmOptions {
            restarts: 1,
            ..Default::default()
        },
        seed,
        ..Default::default()
    })
}

/// A small census-style workload: SF1-like union of products over a
/// multi-attribute person domain (the §2 use case, shrunk for test speed).
fn census_style_workload() -> (Domain, hdmm_core::Workload) {
    let domain = Domain::new(&[2, 8, 8]);
    let w = builders::upto_kway_marginals(&domain, 2);
    (domain, w)
}

#[test]
fn acceptance_cache_hit_session_reuse_and_budget_exhaustion() {
    let engine = quick_engine(42);
    let (domain, workload) = census_style_workload();
    let x: Vec<f64> = (0..domain.size()).map(|i| ((i * 13) % 31) as f64).collect();
    engine
        .register_dataset("census", domain.clone(), x, /*total ε=*/ 1.0)
        .unwrap();

    // First request: optimizes (cache miss) and spends ε.
    let first = engine.serve("census", &workload, 0.4).unwrap();
    assert!(!first.cache_hit, "first request must optimize");
    assert_eq!(first.answers.len(), workload.query_count());

    // Second request for the same census-style workload: strategy cache hit.
    let second = engine.serve("census", &workload, 0.4).unwrap();
    assert!(
        second.cache_hit,
        "second identical workload must hit the cache"
    );
    assert_eq!(second.operator, first.operator);
    let stats = engine.cache_stats();
    assert!(
        stats.hits >= 1 && stats.misses >= 1 && stats.len == 1,
        "{stats:?}"
    );

    // Follow-up workload on the same session: zero additional ε.
    let follow_up = builders::kway_marginals(&Domain::new(&[2, 8, 8]), 1);
    let (_, spent_before, _) = engine.budget("census").unwrap();
    let free = engine
        .serve_from_session(second.session, &follow_up)
        .unwrap();
    assert_eq!(free.len(), follow_up.query_count());
    let (_, spent_after, remaining) = engine.budget("census").unwrap();
    assert_eq!(
        spent_before, spent_after,
        "session answering must spend zero ε"
    );

    // Over-budget request: typed BudgetExhausted, ledger untouched.
    assert!((remaining - 0.2).abs() < 1e-9);
    match engine.serve("census", &workload, 0.5) {
        Err(EngineError::BudgetExhausted {
            dataset,
            requested,
            remaining,
        }) => {
            assert_eq!(dataset, "census");
            assert!((requested - 0.5).abs() < 1e-12);
            assert!((remaining - 0.2).abs() < 1e-9);
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    let (_, spent_final, _) = engine.budget("census").unwrap();
    assert_eq!(spent_after, spent_final, "rejected request must not spend");

    // The exact remaining budget is still spendable.
    engine.serve("census", &workload, 0.2).unwrap();
    assert!(engine.budget("census").unwrap().2 < 1e-9);
}

#[test]
fn full_roundtrip_is_deterministic_under_a_seed() {
    let run = |seed: u64| {
        let engine = quick_engine(seed);
        let w = builders::all_range_1d(32);
        let x: Vec<f64> = (0..32).map(|i| (i % 7) as f64 * 3.0).collect();
        engine
            .register_dataset("hist", Domain::one_dim(32), x, 10.0)
            .unwrap();
        let resp = engine.serve("hist", &w, 1.0).unwrap();
        (resp.answers, resp.operator, resp.expected_error)
    };
    let (a1, op1, err1) = run(7);
    let (a2, op2, err2) = run(7);
    assert_eq!(a1, a2, "same seed, same request sequence, same answers");
    assert_eq!(op1, op2);
    assert_eq!(err1, err2);
    let (a3, _, _) = run(8);
    assert_ne!(a1, a3, "a different seed must perturb the Laplace noise");
}

#[test]
fn session_answers_converge_to_truth_at_high_eps() {
    let engine = quick_engine(3);
    let w = builders::prefix_1d(16);
    let x = vec![4.0; 16];
    engine
        .register_dataset("d", Domain::one_dim(16), x.clone(), 1e7)
        .unwrap();
    let resp = engine.serve("d", &w, 1e6).unwrap();
    let truth = w.answer(&x);
    for (a, t) in resp.answers.iter().zip(&truth) {
        assert!((a - t).abs() < 0.1, "{a} vs {t}");
    }
    // The session estimate answers a *different* workload near-exactly too.
    let ranges = builders::all_range_1d(16);
    let got = engine.serve_from_session(resp.session, &ranges).unwrap();
    let expect = ranges.answer(&x);
    for (a, t) in got.iter().zip(&expect) {
        assert!((a - t).abs() < 0.2, "{a} vs {t}");
    }
}

#[test]
fn planner_routes_a_structured_union_through_the_cache_consistently() {
    // A census-like union of products (ranges on one attribute, totals on the
    // other — the SF1 shape, shrunk for test speed), served twice: the second
    // serve must not re-run SELECT (the dominant cost).
    let engine = quick_engine(0);
    let w = builders::range_total_union_2d(16, 16);
    let domain = w.domain().clone();
    let x = vec![1.0; domain.size()];
    engine.register_dataset("sf1-mini", domain, x, 2.0).unwrap();

    let decision = engine.explain(&w);
    assert_eq!(decision.choice, hdmm_optimizer::OptimizerChoice::Plus);

    let first = engine.serve("sf1-mini", &w, 0.5).unwrap();
    let second = engine.serve("sf1-mini", &w, 0.5).unwrap();
    assert!(!first.cache_hit && second.cache_hit);
    assert_eq!(first.answers.len(), w.query_count());
}

#[test]
fn sf1_fingerprint_and_planner_decision_are_stable() {
    // The real SF1 workload from §2 (N = 500,480): fingerprinting and plan
    // selection must be cheap and deterministic even at this scale — only
    // serving (SELECT/MEASURE) is the expensive part, exercised above on the
    // shrunk variant.
    let w = census::sf1_workload();
    assert_eq!(w.fingerprint(), census::sf1_workload().fingerprint());
    let engine = quick_engine(0);
    let d1 = engine.explain(&w);
    let d2 = engine.explain(&w);
    assert_eq!(d1.choice, d2.choice);
}

#[test]
fn accountant_trait_is_usable_standalone() {
    let mut ledger = EpsAccountant::new("adhoc", 2.0);
    ledger.try_spend(1.5).unwrap();
    assert!((ledger.remaining() - 0.5).abs() < 1e-12);
    assert!(matches!(
        ledger.try_spend(1.0),
        Err(EngineError::BudgetExhausted { .. })
    ));
}

#[test]
fn sessions_expose_their_provenance() {
    let engine = quick_engine(1);
    let w = builders::prefix_1d(8);
    engine
        .register_dataset("d", Domain::one_dim(8), vec![2.0; 8], 1.0)
        .unwrap();
    let resp = engine.serve("d", &w, 0.3).unwrap();
    let session = engine.session(resp.session).unwrap();
    assert_eq!(session.dataset(), "d");
    assert_eq!(session.domain().size(), 8);
    assert!((session.eps_spent() - 0.3).abs() < 1e-12);
    assert_eq!(session.estimate().len(), 8);
    // Unknown ids are typed errors.
    assert!(matches!(
        engine.session(hdmm_core::SessionId(999_999)),
        Err(EngineError::UnknownSession { .. })
    ));
}

/// A workload with a NaN or ±∞ leaf entry or term weight answers NaN or ±∞,
/// so serving it would spend ε on nothing. It is refused with a typed error
/// before SELECT and before the reservation: the budget does not move, the
/// audit stream gets no `Reserve`, and no plan is cached. A session
/// follow-up refuses it too.
#[test]
fn non_finite_workloads_are_refused_before_any_eps_moves() {
    use hdmm_core::linalg::{Csr, Matrix, StructuredMatrix};
    use hdmm_core::{ProductTerm, Workload};
    use hdmm_engine::{AuditKind, WalRecord};

    let engine = quick_engine(3);
    let domain = Domain::one_dim(8);
    engine
        .register_dataset("d", domain.clone(), vec![4.0; 8], 1.0)
        .unwrap();
    let session = engine
        .serve("d", &builders::prefix_1d(8), 0.25)
        .unwrap()
        .session;

    let mut nan = Matrix::identity(8);
    nan[(0, 0)] = f64::NAN;
    let inf = Csr::new(
        2,
        8,
        vec![0, 1, 3],
        vec![2, 4, 5],
        vec![1.0, f64::INFINITY, 1.0],
    );
    let inf_weight = ProductTerm::new(f64::INFINITY, vec![StructuredMatrix::prefix(8)]);
    let workloads = [
        Workload::one_dim(StructuredMatrix::Dense(nan)),
        Workload::one_dim(StructuredMatrix::Sparse(inf)),
        Workload::new(domain, vec![inf_weight]),
    ];
    let reserves = || {
        engine
            .audit()
            .recent()
            .iter()
            .filter(|(_, r)| {
                matches!(
                    r,
                    WalRecord::Budget {
                        kind: AuditKind::Reserve,
                        ..
                    }
                )
            })
            .count()
    };
    for w in &workloads {
        let (budget, reserved, cached) = (
            engine.budget("d").unwrap(),
            reserves(),
            engine.cache_stats().len,
        );
        assert_eq!(
            engine.serve("d", w, 0.25).unwrap_err(),
            EngineError::NonFiniteWorkload
        );
        assert_eq!(engine.budget("d").unwrap(), budget);
        assert_eq!(reserves(), reserved, "no Reserve for a refused request");
        assert_eq!(
            engine.cache_stats().len,
            cached,
            "no SELECT for a refused request"
        );
        assert_eq!(
            engine.serve_from_session(session, w).unwrap_err(),
            EngineError::NonFiniteWorkload
        );
        assert_eq!(
            engine.serve_batch_from_session(session, &[w]).unwrap_err(),
            EngineError::NonFiniteWorkload
        );
    }
}
