//! Union RECONSTRUCT against exact values: the closed-form joint solve of a
//! union's two groups vs the dense normal equations
//! `pinv_psd(Σ w_g²·A_gᵀA_g)·Σ w_g²·A_gᵀy_g` on domains of at most 64 cells,
//! and vs the LSMR estimator (the test oracle) on SELECT's own union plan.
//! A union has two groups by type, so the codec refuses any other count.
//!
//! Full-rank unions have one least-squares solution, so `x̄` itself must
//! match. A rank-deficient union (`Total` factors, as `range_total_union_2d`
//! selects) has many; the joint solve need not return the minimum-norm one,
//! so there only the workload answers `W·x̄` must match, which every
//! solution shares when `W`'s rows lie in the strategy's row space.

use hdmm::core::codec::{self, CodecError, Reader};
use hdmm::core::{builders, Domain, Workload};
use hdmm::linalg::{
    kron_all, lsmr, pinv_psd, LinOp, LsmrOptions, Matrix, ScaledOp, StackedOp, StructuredMatrix,
};
use hdmm::mechanism::{
    measure, reconstruct_with, Measurements, PreparedReconstruct, Strategy, UnionGroup,
};
use hdmm::optimizer::{default_ps, optimize_with_choice, HdmmOptions, OptimizerChoice, PIdentity};
use hdmm::workload::WorkloadGrams;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn data(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 7) % 13) as f64).collect()
}

/// `‖a − b‖ / ‖b‖`.
fn relative_gap(a: &[f64], b: &[f64]) -> f64 {
    let diff: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    let norm: f64 = b.iter().map(|y| y * y).sum();
    (diff / norm).sqrt()
}

/// The dense normal-equations solution of a union's measurements.
fn dense_reference(strategy: &Strategy, meas: &Measurements) -> Vec<f64> {
    let Strategy::Union(groups) = strategy else {
        panic!("not a union");
    };
    let mut normal: Option<Matrix> = None;
    let mut rhs: Vec<f64> = Vec::new();
    for (g, block) in groups.iter().zip(&meas.blocks) {
        let w2 = block.noise_scale.powi(-2);
        let dense: Vec<Matrix> = g.factors.iter().map(StructuredMatrix::to_dense).collect();
        let a = kron_all(&dense.iter().collect::<Vec<_>>());
        let gram = a.gram().scaled(w2);
        match &mut normal {
            Some(n) => n.axpy(1.0, &gram),
            None => normal = Some(gram),
        }
        rhs.resize(a.cols(), 0.0);
        for (acc, v) in rhs.iter_mut().zip(a.t_matvec(&block.noisy)) {
            *acc += w2 * v;
        }
    }
    pinv_psd(&normal.expect("a union has groups"))
        .expect("dense normal matrix eigendecomposition")
        .matvec(&rhs)
}

fn theta(p: usize, n: usize, salt: usize) -> Matrix {
    Matrix::from_fn(p, n, |r, c| ((r * 5 + c * 3 + salt) % 7) as f64 * 0.3)
}

/// A dense `(n+p)×n` p-Identity-like factor `[I; Θ]`, column-normalised.
fn dense_p_identity(p: usize, n: usize, salt: usize) -> Matrix {
    let t = theta(p, n, salt);
    let a = Matrix::from_fn(n + p, n, |r, c| {
        if r < n {
            f64::from(u8::from(r == c))
        } else {
            t[(r - n, c)]
        }
    });
    let sens = a.norm_l1_operator();
    a.scaled(1.0 / sens)
}

fn full_rank_unions() -> Vec<(&'static str, Strategy)> {
    vec![
        (
            "dense p-Identity",
            Strategy::Union([
                UnionGroup::new(
                    0.3,
                    vec![dense_p_identity(2, 4, 0), dense_p_identity(1, 4, 1)],
                    vec![0],
                ),
                UnionGroup::new(
                    0.7,
                    vec![dense_p_identity(1, 4, 2), dense_p_identity(3, 4, 3)],
                    vec![1],
                ),
            ]),
        ),
        (
            "p-Identity leaves, three attributes",
            Strategy::Union([
                UnionGroup::new(
                    0.6,
                    vec![
                        PIdentity::new(theta(2, 4, 0)).leaf(),
                        PIdentity::new(theta(1, 2, 1)).leaf(),
                        PIdentity::new(theta(1, 3, 2)).leaf(),
                    ],
                    vec![0],
                ),
                UnionGroup::new(
                    0.4,
                    vec![
                        PIdentity::new(theta(1, 4, 3)).leaf(),
                        PIdentity::new(theta(2, 2, 4)).leaf(),
                        PIdentity::new(theta(2, 3, 5)).leaf(),
                    ],
                    vec![1],
                ),
            ]),
        ),
        (
            "Identity and Prefix",
            Strategy::Union([
                UnionGroup::new(
                    0.5,
                    vec![
                        StructuredMatrix::identity(8),
                        StructuredMatrix::prefix(8).scaled(0.125),
                    ],
                    vec![0],
                ),
                UnionGroup::new(
                    0.5,
                    vec![
                        StructuredMatrix::prefix(8).scaled(0.125),
                        StructuredMatrix::identity(8),
                    ],
                    vec![1],
                ),
            ]),
        ),
    ]
}

fn range_total_union(n1: usize, n2: usize) -> Strategy {
    Strategy::Union([
        UnionGroup::new(
            0.4,
            vec![
                StructuredMatrix::prefix(n1).scaled(1.0 / n1 as f64),
                StructuredMatrix::total(n2),
            ],
            vec![0],
        ),
        UnionGroup::new(
            0.6,
            vec![
                StructuredMatrix::total(n1),
                StructuredMatrix::prefix(n2).scaled(1.0 / n2 as f64),
            ],
            vec![1],
        ),
    ])
}

fn rank_deficient_unions() -> Vec<(&'static str, Workload, Strategy)> {
    vec![
        (
            "Prefix ⊗ Total + Total ⊗ Prefix",
            builders::range_total_union_2d(8, 8),
            range_total_union(8, 8),
        ),
        (
            "uneven sides",
            builders::range_total_union_2d(4, 9),
            range_total_union(4, 9),
        ),
        (
            "Total ⊗ Total twice",
            Workload::new(
                Domain::new(&[4, 3]),
                vec![hdmm::workload::ProductTerm::new(
                    1.0,
                    vec![StructuredMatrix::total(4), StructuredMatrix::total(3)],
                )],
            ),
            Strategy::Union([
                UnionGroup::new(
                    0.5,
                    vec![StructuredMatrix::total(4), StructuredMatrix::total(3)],
                    vec![0],
                ),
                UnionGroup::new(
                    0.5,
                    vec![StructuredMatrix::total(4), StructuredMatrix::total(3)],
                    vec![0],
                ),
            ]),
        ),
    ]
}

#[test]
fn two_group_joint_solve_matches_the_dense_normal_equations() {
    for (seed, (what, strategy)) in full_rank_unions().into_iter().enumerate() {
        let cells: usize = match &strategy {
            Strategy::Union(groups) => groups[0].factors.iter().map(|f| f.cols()).product(),
            _ => unreachable!(),
        };
        assert!(cells <= 64, "{what}: {cells} cells");
        let prepared = PreparedReconstruct::new(&strategy);
        assert!(
            prepared.joint_basis().is_some(),
            "{what}: a union gets a joint basis"
        );
        let meas = measure(
            &strategy,
            &data(cells),
            1.0,
            &mut StdRng::seed_from_u64(seed as u64),
        );
        let x_hat = reconstruct_with(&prepared, &strategy, &meas);
        let reference = dense_reference(&strategy, &meas);
        let gap = relative_gap(&x_hat, &reference);
        assert!(gap <= 1e-9, "{what}: x̂ is {gap:e} from the dense solution");
    }
}

#[test]
fn rank_deficient_joint_solve_answers_like_the_dense_normal_equations() {
    for (seed, (what, workload, strategy)) in rank_deficient_unions().into_iter().enumerate() {
        let cells = workload.domain().size();
        assert!(cells <= 64, "{what}: {cells} cells");
        let prepared = PreparedReconstruct::new(&strategy);
        assert!(
            prepared.joint_basis().is_some(),
            "{what}: a rank-deficient union still gets a joint basis"
        );
        let meas = measure(
            &strategy,
            &data(cells),
            1.0,
            &mut StdRng::seed_from_u64(100 + seed as u64),
        );
        let x_hat = reconstruct_with(&prepared, &strategy, &meas);
        let reference = dense_reference(&strategy, &meas);
        let gap = relative_gap(&workload.answer(&x_hat), &workload.answer(&reference));
        assert!(gap <= 1e-9, "{what}: W·x̂ is {gap:e} from the dense answers");
    }
}

/// A hand-encoded union payload (codec tag 2): its group count, then per
/// group its share, factor list and term indices.
fn union_payload(groups: &[(f64, Vec<StructuredMatrix>)]) -> Vec<u8> {
    let mut out = vec![2];
    codec::put_usize(&mut out, groups.len());
    for (share, factors) in groups {
        codec::put_f64(&mut out, *share);
        codec::put_structured_list(&mut out, factors);
        codec::put_usizes(&mut out, &[0]);
    }
    out
}

#[test]
fn union_payloads_of_one_or_three_groups_are_invalid() {
    let prefix = |n: usize| StructuredMatrix::prefix(n).scaled(1.0 / n as f64);
    let pt = || vec![prefix(4), StructuredMatrix::total(6)];
    let tp = || vec![StructuredMatrix::total(4), prefix(6)];
    let valid = union_payload(&[(0.5, pt()), (0.5, tp())]);
    let mut r = Reader::new(&valid);
    assert!(matches!(r.strategy(), Ok(Strategy::Union(_))));
    r.expect_end().expect("fully consumed");

    for (what, payload) in [
        ("one group", union_payload(&[(1.0, pt())])),
        (
            "three groups",
            union_payload(&[(0.25, pt()), (0.25, tp()), (0.5, pt())]),
        ),
        (
            "groups over permuted attribute orders",
            union_payload(&[
                (0.5, pt()),
                (0.5, vec![prefix(6), StructuredMatrix::total(4)]),
            ]),
        ),
        (
            "groups over different cell counts",
            union_payload(&[
                (0.5, pt()),
                (0.5, vec![StructuredMatrix::total(4), prefix(5)]),
            ]),
        ),
    ] {
        assert!(
            matches!(
                Reader::new(&payload).strategy(),
                Err(CodecError::Invalid(_))
            ),
            "{what} decoded"
        );
    }
}

/// SELECT's OPT_+ plan for `union_5d`'s workload (2-way range-marginals on
/// `[32, 4, 4, 2, 16]`): one noisy measurement reconstructed by the joint
/// solve and by the LSMR estimator it replaced gives the same estimate.
#[test]
fn joint_solve_is_the_lsmr_estimator_on_selects_union_plan() {
    let domain = Domain::new(&[32, 4, 4, 2, 16]);
    let workload = builders::range_marginals(&domain, &[true, false, false, false, true], Some(2));
    let grams = WorkloadGrams::from_workload(&workload);
    let opts = HdmmOptions {
        restarts: 1,
        seed: 1,
        ..HdmmOptions::default()
    };
    let selected =
        optimize_with_choice(&grams, &default_ps(&workload), &opts, OptimizerChoice::Plus);
    assert_eq!(selected.operator, "plus");
    let strategy = selected.strategy;
    let Strategy::Union(groups) = &strategy else {
        panic!("OPT_+ selects a union");
    };
    let prepared = PreparedReconstruct::new(&strategy);
    assert!(prepared.joint_basis().is_some());

    let x: Vec<f64> = (0..domain.size())
        .map(|i| ((i * 7919) % 20) as f64)
        .collect();
    let meas = measure(&strategy, &x, 1.0, &mut StdRng::seed_from_u64(1));
    let joint = reconstruct_with(&prepared, &strategy, &meas);
    // The LSMR estimator: each group whitened by its inverse noise scale,
    // stacked, solved jointly.
    let mut ops: Vec<Box<dyn LinOp>> = Vec::new();
    let mut rhs = Vec::new();
    for (group, block) in groups.iter().zip(&meas.blocks) {
        let w = 1.0 / block.noise_scale;
        ops.push(Box::new(ScaledOp {
            alpha: w,
            inner: StructuredMatrix::kron(group.factors.clone()),
        }));
        rhs.extend(block.noisy.iter().map(|v| v * w));
    }
    let lsmr_x = lsmr(&StackedOp::new(ops), &rhs, &LsmrOptions::default()).x;
    let gap = relative_gap(&joint, &lsmr_x);
    assert!(gap <= 1e-6, "joint x̂ is {gap:e} from the LSMR x̂");
}
