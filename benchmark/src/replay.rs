//! The layer replay: one request of a workload taken apart, each stage run
//! through its layer's public function under a benchmark-side span, followed
//! by stand-alone timings of the kernels and engine parts the stages are made
//! of.
//!
//! Every timed stage is repeated up to [`REPS`] times and its median
//! reported. Stages that take seconds (a Kronecker SELECT, an LSMR solve)
//! stop repeating once they have used their slice of the run.

use crate::layers::Measured;
use crate::spans::SpanLog;
use crate::stats::median;
use crate::workloads::{Scenario, DATASET, EPS};
use hdmm_core::codec::{self, Reader};
use hdmm_core::linalg::{
    kmatvec_structured, kmatvec_transpose_structured, leading_split, lsmr, partition_rows,
    pinv_psd, LinOp, LsmrOptions, ScaledOp, StackedOp, StructuredMatrix,
};
use hdmm_core::mechanism::laplace::add_laplace_noise;
use hdmm_core::mechanism::{
    answer_workload, measure, reconstruct_with, MarginalsAlgebra, Measurements,
    PreparedReconstruct, Strategy,
};
use hdmm_core::optimizer::{
    default_ps, optimize_with_choice, optimize_with_choice_observed, select_optimizer, HdmmOptions,
    RestartObserver,
};
use hdmm_core::{Plan, QueryEngine, Workload, WorkloadGrams};
use hdmm_engine::{render_prometheus, AuditKind, BudgetAccountant, EpsAccountant, Wal, WalRecord};
use hdmm_net::{decode_frame, encode_frame, Frame};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Repetitions of a timed stage.
pub const REPS: usize = 5;

/// Runs timed stages as children of one span.
pub struct Stages<'a> {
    pub log: &'a SpanLog,
    /// The span every stage is parented under.
    pub root: u64,
    /// How long a stage may keep repeating.
    pub slice: Duration,
}

impl Stages<'_> {
    /// Runs `f` under a span `name`, up to [`REPS`] times, stopping early once
    /// the stage has used its slice. `f` gets the span id (to parent children
    /// under) and the repetition index. Returns the last value and the median
    /// time in milliseconds.
    fn run<T>(&self, name: &str, mut f: impl FnMut(u64, usize) -> T) -> (T, f64) {
        let started = Instant::now();
        let mut times = Vec::with_capacity(REPS);
        let mut last = None;
        for rep in 0..REPS {
            // The repetition index is the request id: repetition `r` of every
            // stage belongs to replayed request `r`.
            let (value, took) = self.log.span(rep as u64, self.root, name, |id| f(id, rep));
            times.push(took.as_secs_f64() * 1e3);
            last = Some(value);
            if started.elapsed() > self.slice {
                break;
            }
        }
        (last.expect("REPS is at least one"), median(&times))
    }

    /// [`Stages::run`] for calls too short to time one at a time: each
    /// repetition makes `inner` calls. Returns microseconds per call.
    fn run_micro<T>(&self, name: &str, inner: usize, mut f: impl FnMut() -> T) -> f64 {
        let ((), ms) = self.run(name, |_, _| {
            for _ in 0..inner {
                std::hint::black_box(f());
            }
        });
        ms * 1e3 / inner as f64
    }
}

/// Collects the optimizer's per-cell callbacks as child spans of the SELECT
/// being replayed. Cells complete on the optimizer's own threads.
struct CellObserver<'a> {
    log: &'a SpanLog,
    request: u64,
    parent: u64,
    cells_ms: Mutex<Vec<f64>>,
}

impl RestartObserver for CellObserver<'_> {
    fn restart_complete(
        &self,
        _operator: &'static str,
        _restart: usize,
        _loss: f64,
        took: Duration,
    ) {
        self.log
            .record_ended(self.request, self.parent, "optimizer.cell", took);
        self.cells_ms
            .lock()
            .expect("no cell reports while panicking")
            .push(took.as_secs_f64() * 1e3);
    }
}

/// What the pipeline replay hands to the timings that follow it.
pub struct Replayed<'a> {
    /// The workload that was selected for and measured.
    pub workload: Workload,
    /// The workloads answered from that measurement.
    pub answered: Vec<&'a Workload>,
    /// The engine's own plan for it.
    pub plan: Arc<Plan>,
    pub measurements: Measurements,
    /// Whether the replay ran what the engine ran, and produced numbers.
    pub faithful: bool,
}

/// Replays request 0 of `scenario` stage by stage: build → Grams →
/// fingerprint → SELECT (at the default lane count, and serially) → prepare →
/// MEASURE → RECONSTRUCT → ANSWER.
///
/// What is selected and measured and what is answered are the same workload
/// for a `serve`; for `session_answers` they are the set-up's measurement
/// and the batch of follow-ups.
pub fn pipeline<'a>(
    stages: &Stages,
    scenario: &'a Scenario,
    seed: u64,
    m: &mut Measured,
) -> Replayed<'a> {
    let entries = scenario
        .inputs
        .entries(0)
        .expect("every schedule has a first request");
    let (recipe, answered): (_, Vec<&Workload>) = if scenario.sessions.is_empty() {
        (
            &scenario.inputs.pool[entries[0]],
            vec![&scenario.pool[entries[0]]],
        )
    } else {
        (
            &scenario.inputs.warmup[0],
            entries.iter().map(|&e| &scenario.pool[e]).collect(),
        )
    };

    let (workload, build_ms) = stages.run("workload.build", |_, _| recipe.build());
    m.set("workload.build_ms", build_ms);
    let (grams, grams_ms) = stages.run("workload.grams", |_, _| {
        WorkloadGrams::from_workload(&workload)
    });
    m.set("workload.grams_ms", grams_ms);
    m.set(
        "workload.fingerprint_us",
        stages.run_micro("workload.fingerprint", 16, || workload.fingerprint()),
    );

    // SELECT exactly as the engine runs it: default options, the structural
    // planner's choice, the §7.1 p convention.
    let options = HdmmOptions::default();
    let ps = default_ps(&workload);
    let choice = select_optimizer(&workload, &options).choice;
    let ((selected, cells_ms), select_ms) = stages.run("optimizer.select", |id, rep| {
        let observer = CellObserver {
            log: stages.log,
            request: rep as u64,
            parent: id,
            cells_ms: Mutex::new(Vec::new()),
        };
        let selected = optimize_with_choice_observed(&grams, &ps, &options, choice, &observer);
        let cells_ms = observer
            .cells_ms
            .into_inner()
            .expect("no cell reports while panicking");
        (selected, cells_ms)
    });
    let serial = HdmmOptions {
        threads: 1,
        ..options.clone()
    };
    let (_, serial_ms) = stages.run("optimizer.select_serial", |_, _| {
        optimize_with_choice(&grams, &ps, &serial, choice)
    });
    m.set("optimizer.select_ms", select_ms);
    m.set("optimizer.select_serial_ms", serial_ms);
    m.set("optimizer.select_speedup", serial_ms / select_ms);
    m.set("optimizer.cells_run", cells_ms.len() as f64);
    if !cells_ms.is_empty() {
        m.set("optimizer.cell_ms_p50", median(&cells_ms));
        m.set(
            "optimizer.cell_ms_max",
            cells_ms.iter().copied().fold(0.0, f64::max),
        );
    }
    m.set("optimizer.loss", selected.squared_error);

    // The rest runs on the plan the engine itself holds.
    let (plan, _) = scenario.engine.plan(&workload);
    let strategy = plan.strategy();
    m.set("mechanism.measurements", strategy.query_count() as f64);
    let (prepared, prepare_ms) = stages.run("mechanism.prepare", |_, _| {
        PreparedReconstruct::new(strategy)
    });
    m.set("mechanism.prepare_ms", prepare_ms);
    let (measurements, measure_ms) = stages.run("mechanism.measure", |_, rep| {
        let mut rng = StdRng::seed_from_u64(seed ^ rep as u64);
        measure(strategy, &scenario.inputs.x, EPS, &mut rng)
    });
    m.set("mechanism.measure_ms", measure_ms);
    let (x_hat, reconstruct_ms) = stages.run("mechanism.reconstruct", |_, _| {
        reconstruct_with(&prepared, strategy, &measurements)
    });
    m.set("mechanism.reconstruct_ms", reconstruct_ms);
    let (answers, answer_ms) = stages.run("mechanism.answer", |_, _| {
        answered
            .iter()
            .map(|w| answer_workload(w, &x_hat))
            .collect::<Vec<_>>()
    });
    m.set("mechanism.answer_ms", answer_ms);

    // The replay is only worth reading if it ran what the engine ran.
    let same_selection = selected.squared_error == plan.squared_error_coefficient();
    if !same_selection {
        println!(
            "  CHECK FAILED: replayed SELECT found loss {}, the engine's plan has {}",
            selected.squared_error,
            plan.squared_error_coefficient()
        );
    }
    let finite = answers.iter().flatten().all(|a| a.is_finite());
    if !finite {
        println!("  CHECK FAILED: replayed answers are not finite");
    }
    Replayed {
        workload,
        answered,
        plan,
        measurements,
        faithful: same_selection && finite,
    }
}

/// The factors a kernel timing runs on: the served plan's own where it is a
/// product, else its largest measured block.
fn kernel_factors(strategy: &Strategy) -> Vec<StructuredMatrix> {
    match strategy {
        Strategy::Explicit(a) => vec![StructuredMatrix::Dense(a.clone())],
        Strategy::Kron(factors) => factors.clone(),
        Strategy::Union(groups) => groups
            .iter()
            .max_by_key(|g| {
                g.factors
                    .iter()
                    .map(StructuredMatrix::rows)
                    .product::<usize>()
            })
            .map(|g| g.factors.clone())
            .expect("a union strategy has groups"),
        Strategy::Marginals(m) => {
            let cells = |a: usize| -> usize {
                (0..m.domain.dims())
                    .filter(|i| a >> i & 1 == 1)
                    .map(|i| m.domain.attr_size(i))
                    .product()
            };
            let widest = (0..m.theta.len())
                .filter(|&a| m.theta[a] > 0.0)
                .max_by_key(|&a| cells(a))
                .expect("a marginals strategy measures something");
            MarginalsAlgebra::new(&m.domain).marginal_factors(widest)
        }
    }
}

/// The whitened stacked operator and right-hand side the union RECONSTRUCT
/// hands to LSMR (`mechanism::reconstruct_with`, union arm).
fn whitened_union(
    strategy: &Strategy,
    measurements: &Measurements,
) -> Option<(StackedOp<'static>, Vec<f64>)> {
    let Strategy::Union(groups) = strategy else {
        return None;
    };
    let mut blocks: Vec<Box<dyn LinOp>> = Vec::with_capacity(groups.len());
    let mut rhs = Vec::new();
    for (group, block) in groups.iter().zip(&measurements.blocks) {
        let weight = 1.0 / block.noise_scale;
        blocks.push(Box::new(ScaledOp {
            alpha: weight,
            inner: StructuredMatrix::kron(group.factors.clone()),
        }));
        rhs.extend(block.noisy.iter().map(|v| v * weight));
    }
    Some((StackedOp::new(blocks), rhs))
}

/// The `hdmm-linalg`, noise and codec kernels under the replayed stages, on
/// the shapes of the served plan.
pub fn kernels(stages: &Stages, replayed: &Replayed, x: &[f64], seed: u64, m: &mut Measured) {
    let strategy = replayed.plan.strategy();
    let factors = kernel_factors(strategy);
    let refs: Vec<&StructuredMatrix> = factors.iter().collect();

    // `gram` and `pinv_psd` on the first factor: for a 1-D or Kronecker plan
    // the (n+p)×n p-Identity block and its n×n Gram.
    let dense = factors[0].to_dense();
    let (gram, gram_ms) = stages.run("linalg.gram", |_, _| dense.gram());
    m.set("linalg.gram_ms", gram_ms);
    let (_, pinv_ms) = stages.run("linalg.pinv", |_, _| pinv_psd(&gram));
    m.set("linalg.pinv_ms", pinv_ms);

    let (forward, kmatvec_ms) = stages.run("linalg.kmatvec", |_, _| kmatvec_structured(&refs, x));
    let (_, kmatvec_t_ms) = stages.run("linalg.kmatvec_t", |_, _| {
        kmatvec_transpose_structured(&refs, &forward)
    });
    m.set("linalg.kmatvec_ms", kmatvec_ms);
    m.set("linalg.kmatvec_t_ms", kmatvec_t_ms);
    // Bytes the kernel has to touch at least once: input, output and the
    // factors' stored entries. Computed, not read from a counter.
    let stored: usize = factors.iter().map(StructuredMatrix::storage_size).sum();
    let touched = 8 * (x.len() + forward.len() + stored);
    m.set(
        "linalg.kmatvec_gbps",
        touched as f64 / (kmatvec_ms * 1e-3) / 1e9,
    );

    if let Some((stacked, rhs)) = whitened_union(strategy, &replayed.measurements) {
        let (solve, lsmr_ms) = stages.run("linalg.lsmr", |_, _| {
            lsmr(&stacked, &rhs, &LsmrOptions::default())
        });
        m.set("linalg.lsmr_iters", solve.iterations as f64);
        m.set(
            "linalg.lsmr_ms_per_iter",
            lsmr_ms / solve.iterations.max(1) as f64,
        );
        m.set("linalg.lsmr_istop", f64::from(solve.istop));
    }

    let mut noisy = vec![0.0; strategy.query_count()];
    let mut rng = StdRng::seed_from_u64(seed);
    let (_, noise_ms) = stages.run("mechanism.noise", |_, _| {
        add_laplace_noise(&mut noisy, 1.0, &mut rng)
    });
    m.set(
        "mechanism.noise_ns_per_draw",
        noise_ms * 1e6 / noisy.len() as f64,
    );

    let (plan_bytes, codec_ms) = stages.run("core.plan_codec", |_, _| {
        let mut bytes = Vec::new();
        codec::put_strategy(&mut bytes, strategy);
        codec::seal(&mut bytes);
        let payload = codec::open(&bytes).expect("a sealed plan opens");
        let decoded = Reader::new(payload)
            .strategy()
            .expect("an encoded plan decodes");
        std::hint::black_box(decoded);
        bytes.len()
    });
    m.set("core.plan_bytes", plan_bytes as f64);
    m.set("core.plan_codec_us", codec_ms * 1e3);
}

/// The parts of `hdmm-engine` a request passes through besides the math:
/// cache lookup, ledger, metrics rendering, the WAL's commit path, trace
/// export, and — where the scenario has sessions — answering follow-ups one
/// by one against answering them as a batch. Returns the exported engine
/// trace of request `trace_id`, if there was one.
pub fn engine_parts(
    stages: &Stages,
    scenario: &Scenario,
    replayed: &Replayed,
    trace_id: Option<u64>,
    scratch: &Path,
    m: &mut Measured,
) -> Option<String> {
    let engine = &scenario.engine;
    m.set(
        "engine.plan_hit_us",
        stages.run_micro("engine.plan_hit", 64, || engine.plan(&replayed.workload)),
    );
    let mut ledger = EpsAccountant::new(DATASET, 1e18);
    m.set(
        "engine.ledger_us",
        stages.run_micro("engine.ledger", 1024, || ledger.try_spend(EPS)),
    );
    m.set(
        "engine.prometheus_render_us",
        stages.run_micro("engine.prometheus_render", 4, || {
            render_prometheus(&engine.metrics())
        }),
    );

    // No end-to-end workload enables the WAL — that keeps disk noise out of
    // them — so its commit path (append + fsync) is timed here, alone.
    match Wal::open(scratch.join("wal"), 0) {
        Ok(wal) => {
            let commit = WalRecord::Budget {
                kind: AuditKind::Commit,
                dataset: DATASET.to_string(),
                tenant: None,
                eps: EPS,
                trace_id: 0,
                unix_ms: 0,
            };
            m.set(
                "engine.wal_append_us",
                stages.run_micro("engine.wal_append", 4, || wal.append(&commit)),
            );
        }
        Err(e) => eprintln!("WAL timing skipped: {e}"),
    }

    if let Some(&session) = scenario.sessions.first() {
        let follow_ups = &replayed.answered;
        let (_, single_ms) = stages.run("engine.session_single", |_, _| {
            follow_ups
                .iter()
                .map(|w| engine.serve_from_session(session, w))
                .collect::<Vec<_>>()
        });
        let (_, batch_ms) = stages.run("engine.session_batch", |_, _| {
            engine.serve_batch_from_session(session, follow_ups)
        });
        m.set(
            "engine.session_single_ms",
            single_ms / follow_ups.len() as f64,
        );
        m.set(
            "engine.session_batch_ms_per_workload",
            batch_ms / follow_ups.len() as f64,
        );
    }

    trace_id.map(|id| {
        let (chrome, export_ms) = stages.run("obs.chrome_export", |_, _| engine.chrome_trace(id));
        m.set("obs.chrome_export_ms", export_ms);
        chrome
    })
}

/// `leading_split` of a factor list, with the trailing factors owned (a frame
/// owns what it ships).
struct OwnedSplit {
    leading_rows: usize,
    leading_cols: usize,
    /// Product of the trailing factors' row counts.
    rest_rows: usize,
    /// Product of the trailing factors' column counts.
    rest_cols: usize,
    trailing: Vec<StructuredMatrix>,
}

impl OwnedSplit {
    fn of(factors: &[StructuredMatrix]) -> OwnedSplit {
        let refs: Vec<&StructuredMatrix> = factors.iter().collect();
        let split = leading_split(&refs);
        OwnedSplit {
            leading_rows: split.leading.rows(),
            leading_cols: split.leading.cols(),
            rest_rows: split.trailing_rows(),
            rest_cols: split.trailing_cols(),
            trailing: split.trailing.iter().map(|f| (*f).clone()).collect(),
        }
    }
}

/// The frames one remote request of a Kronecker plan exchanges with its
/// workers (`hdmm_net::remote`): per shard a `SlabForward` for MEASURE, then
/// for RECONSTRUCT a transposed `Apply` and an inverse-Gram `Apply`, each
/// answered by a `Part`. Sizes are computed from the plan — no socket is
/// read — so the byte count is what the codec would put on the wire.
fn remote_frames(strategy: &Strategy, shards: usize) -> Vec<Frame> {
    let Strategy::Kron(factors) = strategy else {
        return Vec::new();
    };
    let strategy_split = OwnedSplit::of(factors);
    let gram_pinvs: Vec<StructuredMatrix> =
        factors.iter().map(StructuredMatrix::gram_pinv).collect();
    let pinv_split = OwnedSplit::of(&gram_pinvs);

    let part = |len: usize| Frame::Part {
        values: vec![0.0; len],
    };
    // Data slabs cut the leading domain axis, measurement blocks the
    // leading strategy-row axis.
    let slabs = partition_rows(strategy_split.leading_cols, shards);
    let blocks = partition_rows(strategy_split.leading_rows, shards);
    let mut frames = Vec::new();
    for (shard, (slab, block)) in slabs.iter().zip(&blocks).enumerate() {
        frames.push(Frame::SlabForward {
            dataset: DATASET.to_string(),
            shard: shard as u64,
            factors: strategy_split.trailing.clone(),
        });
        frames.push(part(slab.len() * strategy_split.rest_rows));
        frames.push(Frame::Apply {
            transpose: true,
            factors: strategy_split.trailing.clone(),
            payload: vec![0.0; block.len() * strategy_split.rest_rows],
        });
        frames.push(part(block.len() * strategy_split.rest_cols));
        frames.push(Frame::Apply {
            transpose: false,
            factors: pinv_split.trailing.clone(),
            payload: vec![0.0; slab.len() * pinv_split.rest_cols],
        });
        frames.push(part(slab.len() * pinv_split.rest_rows));
    }
    frames
}

/// The `hdmm-net` codec on the frames of one remote request.
pub fn net_frames(stages: &Stages, strategy: &Strategy, shards: usize, m: &mut Measured) {
    let frames = remote_frames(strategy, shards);
    let sizes: Vec<usize> = frames.iter().map(|f| encode_frame(f).len()).collect();
    let Some(largest) = frames.iter().zip(&sizes).max_by_key(|(_, &size)| size) else {
        return;
    };
    let (encoded, encode_ms) = stages.run("net.frame_encode", |_, _| encode_frame(largest.0));
    let (_, decode_ms) = stages.run("net.frame_decode", |_, _| decode_frame(&encoded));
    m.set("net.frame_encode_us", encode_ms * 1e3);
    m.set("net.frame_decode_us", decode_ms * 1e3);
    m.set("net.bytes_per_request", sizes.iter().sum::<usize>() as f64);
}
