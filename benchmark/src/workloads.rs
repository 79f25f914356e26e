//! The seven workloads: their inputs as a pure function of the seed, and the
//! set-up that turns inputs into a serving engine.
//!
//! Names are normative — later issues cite them. Problem sizes are fixed;
//! only the data, the draws and the request order follow the seed.

use crate::stats::{fnv1a, FNV_OFFSET};
use hdmm_core::{builders, Domain, EngineError, QueryEngine, QueryResponse, SessionId, Workload};
use hdmm_engine::{Engine, EngineOptions, RemoteOptions};
use hdmm_net::{spawn_worker, WorkerHandle, WorkerOptions};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The one dataset every scenario registers.
pub const DATASET: &str = "bench";
/// A second registration of the same data, which only `cold_range_1d`'s
/// accuracy replays are served from. A dataset has its own noise stream, so
/// the replays' answers do not depend on how many requests the measured
/// window happened to fit before them.
pub const REPLAY_DATASET: &str = "bench-replay";
/// ε per request.
pub const EPS: f64 = 1.0;
/// Budget large enough that no request is ever refused.
const TOTAL_EPS: f64 = 1e18;
/// Fixed (not `nproc`) so numbers compare across runners.
const SHARDS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ColdRange1d,
    WarmHit1d,
    WarmMarginals5d,
    WarmKron2d,
    RemoteKron2d,
    Union5d,
    SessionAnswers,
}

impl Kind {
    pub const ALL: [Kind; 7] = [
        Kind::ColdRange1d,
        Kind::WarmHit1d,
        Kind::WarmMarginals5d,
        Kind::WarmKron2d,
        Kind::RemoteKron2d,
        Kind::Union5d,
        Kind::SessionAnswers,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ColdRange1d => "cold_range_1d",
            Kind::WarmHit1d => "warm_hit_1d",
            Kind::WarmMarginals5d => "warm_marginals_5d",
            Kind::WarmKron2d => "warm_kron_2d",
            Kind::RemoteKron2d => "remote_kron_2d",
            Kind::Union5d => "union_5d",
            Kind::SessionAnswers => "session_answers",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Requests whose answers enter the exactly-repeating accuracy sums and
    /// digest. The measured window never closes before this many requests,
    /// so the sums cover the same requests on a fast and a slow runner.
    pub fn verified_requests(self) -> usize {
        match self {
            // Two draws per width stratum.
            Kind::ColdRange1d => 2 * COLD_STRATA,
            Kind::WarmHit1d => 4096,
            Kind::WarmMarginals5d => 16,
            // The same on both, so their digests can be compared. Prefix
            // queries share most of their noise, so one request's error is
            // a draw with few degrees of freedom; 64 average it out.
            Kind::WarmKron2d | Kind::RemoteKron2d => 64,
            Kind::Union5d => 12,
            // One batch per session.
            Kind::SessionAnswers => SESSIONS,
        }
    }

    /// Accepted band for observed ÷ predicted RMSE. The closed form is exact
    /// for explicit, Kronecker and marginals strategies. For a union strategy
    /// it is the per-group bound (`mechanism::error`: "the joint
    /// pseudo-inverse has no closed form") while RECONSTRUCT solves the joint
    /// least-squares problem, so the observed error sits well below it.
    pub fn rmse_band(self) -> (f64, f64) {
        match self {
            Kind::Union5d => (0.5, 1.1),
            _ => (0.9, 1.1),
        }
    }

    /// Whether measured requests must be strategy-cache hits.
    pub fn expects_cache_hit(self) -> bool {
        self != Kind::ColdRange1d
    }

    /// The optimizer the served plan must come from, where the workload's
    /// point is to exercise that path.
    pub fn expected_operator(self) -> Option<&'static str> {
        match self {
            Kind::WarmMarginals5d => Some("marginals"),
            Kind::WarmKron2d | Kind::RemoteKron2d | Kind::SessionAnswers => Some("kron"),
            Kind::Union5d => Some("plus"),
            Kind::ColdRange1d | Kind::WarmHit1d => None,
        }
    }

    pub fn expected_shards(self) -> usize {
        match self {
            Kind::WarmKron2d | Kind::RemoteKron2d | Kind::SessionAnswers => SHARDS,
            _ => 1,
        }
    }

    pub fn is_remote(self) -> bool {
        self == Kind::RemoteKron2d
    }
}

/// How to build one workload. Keeping the recipe (not just the workload)
/// lets the layer replay time the builder and lets tests compare draws.
#[derive(Debug, Clone, PartialEq)]
pub enum Recipe {
    WidthRange1d {
        n: usize,
        width: usize,
    },
    PermutedRange1d {
        n: usize,
        seed: u64,
    },
    Prefix2d {
        n: usize,
    },
    PrefixIdentity2d {
        n: usize,
    },
    RangeTotalUnion2d {
        n: usize,
    },
    UptoKwayMarginals {
        sizes: Vec<usize>,
        k: usize,
    },
    RangeMarginals {
        sizes: Vec<usize>,
        numeric: Vec<bool>,
        max_way: usize,
    },
}

impl Recipe {
    pub fn build(&self) -> Workload {
        match self {
            Recipe::WidthRange1d { n, width } => builders::width_range_1d(*n, *width),
            Recipe::PermutedRange1d { n, seed } => {
                builders::permuted_range_1d(*n, &mut StdRng::seed_from_u64(*seed))
            }
            Recipe::Prefix2d { n } => builders::prefix_2d(*n, *n),
            Recipe::PrefixIdentity2d { n } => builders::prefix_identity_2d(*n, *n),
            Recipe::RangeTotalUnion2d { n } => builders::range_total_union_2d(*n, *n),
            Recipe::UptoKwayMarginals { sizes, k } => {
                builders::upto_kway_marginals(&Domain::new(sizes), *k)
            }
            Recipe::RangeMarginals {
                sizes,
                numeric,
                max_way,
            } => builders::range_marginals(&Domain::new(sizes), numeric, Some(*max_way)),
        }
    }
}

/// Everything a scenario is given: a pure function of `(kind, seed)`.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub domain: Domain,
    pub x: Vec<f64>,
    /// Leading-axis slabs the dataset is registered in (1 = dense).
    pub shards: usize,
    /// Served once, in order, during set-up. For warm workloads this is
    /// where SELECT happens.
    pub warmup: Vec<Recipe>,
    /// The distinct workloads measured requests draw from.
    pub pool: Vec<Recipe>,
    /// Request `i` uses the pool entries `schedule[i % schedule.len()]`: one
    /// entry for a `serve`, eight for a session batch.
    pub schedule: Vec<Vec<usize>>,
    /// Cold workloads stop when the schedule is exhausted instead of cycling
    /// (a repeat would be a cache hit).
    pub cycle: bool,
}

const COLD_N: usize = 256;
/// Widths 64..=127, cut into four strata of sixteen. Requests walk the strata
/// round-robin, so any four consecutive requests cost the same and have the
/// same mean error ratio whatever the seed; the seed picks within a stratum.
/// Narrower widths are left out: below ~10 SELECT falls back to Identity in a
/// fifth of the time, and a window of seven requests cannot average that out.
const COLD_WIDTHS: std::ops::Range<usize> = 64..128;
const COLD_STRATA: usize = 4;

const HIT_N: usize = 128;
const HIT_POOL: usize = 16;

const KRON_N: usize = 256;
const SESSION_BATCH: usize = 8;
/// Sessions opened in set-up; request `i` reads session `i % SESSIONS`. One
/// session is one noise draw, and the follow-ups' errors under it are almost
/// fully correlated, so the accuracy check needs several.
const SESSIONS: usize = 16;

const UNION_SIZES: [usize; 5] = [32, 4, 4, 2, 16];

fn sub_seed(seed: u64, stream: &str) -> u64 {
    fnv1a(fnv1a(FNV_OFFSET, stream.as_bytes()), &seed.to_le_bytes())
}

impl Inputs {
    pub fn generate(kind: Kind, seed: u64) -> Inputs {
        let mut data_rng = StdRng::seed_from_u64(sub_seed(seed, "data"));
        let mut draw_rng = StdRng::seed_from_u64(sub_seed(seed, "draws"));
        match kind {
            Kind::ColdRange1d => {
                let per_stratum = COLD_WIDTHS.len() / COLD_STRATA;
                let mut strata: Vec<Vec<usize>> = COLD_WIDTHS
                    .collect::<Vec<_>>()
                    .chunks(per_stratum)
                    .map(<[usize]>::to_vec)
                    .collect();
                for stratum in &mut strata {
                    stratum.shuffle(&mut draw_rng);
                }
                let pool: Vec<Recipe> = (0..per_stratum)
                    .flat_map(|round| strata.iter().map(move |s| s[round]))
                    .map(|width| Recipe::WidthRange1d { n: COLD_N, width })
                    .collect();
                Inputs {
                    domain: Domain::one_dim(COLD_N),
                    x: hdmm_data::patent_1d(COLD_N, 100_000, &mut data_rng),
                    shards: 1,
                    // One cold request before the clock starts: threads,
                    // allocator and page cache reach their steady state.
                    warmup: vec![Recipe::PermutedRange1d {
                        n: COLD_N,
                        seed: draw_rng.gen(),
                    }],
                    schedule: (0..pool.len()).map(|i| vec![i]).collect(),
                    pool,
                    cycle: false,
                }
            }
            Kind::WarmHit1d => {
                // The set is fixed — widths 20, 26, …, 110, all served by an
                // explicit p-Identity strategy — and the seed orders it, so
                // the latency mix is the same for every seed.
                let pool: Vec<Recipe> = (0..HIT_POOL)
                    .map(|i| Recipe::WidthRange1d {
                        n: HIT_N,
                        width: 20 + 6 * i,
                    })
                    .collect();
                let mut order: Vec<usize> = (0..HIT_POOL).collect();
                order.shuffle(&mut draw_rng);
                Inputs {
                    domain: Domain::one_dim(HIT_N),
                    x: hdmm_data::patent_1d(HIT_N, 100_000, &mut data_rng),
                    shards: 1,
                    warmup: pool.clone(),
                    pool,
                    schedule: order.into_iter().map(|i| vec![i]).collect(),
                    cycle: true,
                }
            }
            Kind::WarmMarginals5d => {
                let domain = hdmm_data::adult_domain();
                let records = hdmm_data::adult_records(50_000, &mut data_rng);
                let recipe = Recipe::UptoKwayMarginals {
                    sizes: domain.sizes().to_vec(),
                    k: 3,
                };
                let x = hdmm_data::data_vector(&domain, &records);
                Inputs::single(domain, x, 1, recipe)
            }
            Kind::WarmKron2d | Kind::RemoteKron2d => Inputs::single(
                Domain::new(&[KRON_N, KRON_N]),
                hdmm_data::taxi_2d(KRON_N, 1_000_000, &mut data_rng),
                SHARDS,
                Recipe::Prefix2d { n: KRON_N },
            ),
            Kind::Union5d => {
                let domain = Domain::new(&UNION_SIZES);
                let x = (0..domain.size())
                    .map(|_| (data_rng.gen::<f64>() * 20.0).floor())
                    .collect();
                let recipe = Recipe::RangeMarginals {
                    sizes: UNION_SIZES.to_vec(),
                    numeric: vec![true, false, false, false, true],
                    max_way: 2,
                };
                Inputs::single(domain, x, 1, recipe)
            }
            Kind::SessionAnswers => {
                let pool = vec![
                    Recipe::Prefix2d { n: KRON_N },
                    Recipe::PrefixIdentity2d { n: KRON_N },
                    Recipe::RangeTotalUnion2d { n: KRON_N },
                    Recipe::UptoKwayMarginals {
                        sizes: vec![KRON_N, KRON_N],
                        k: 2,
                    },
                ];
                // Every batch is the four follow-ups, twice, in this order; the
                // seed drives only the data and the sessions' noise. A seeded
                // order would make latency a coin toss: `range_total_union`
                // costs 250× the others, the executor deals a batch to its
                // lanes round-robin, and so a batch takes one heavy answer or
                // two depending on the parity of where the two heavies fell.
                // As fixed here both land on lane 0, which is what a
                // cost-blind dealer does to this batch.
                let schedule = vec![(0..SESSION_BATCH).map(|i| i % pool.len()).collect()];
                Inputs {
                    domain: Domain::new(&[KRON_N, KRON_N]),
                    x: hdmm_data::taxi_2d(KRON_N, 1_000_000, &mut data_rng),
                    shards: SHARDS,
                    warmup: vec![Recipe::Prefix2d { n: KRON_N }; SESSIONS],
                    pool,
                    schedule,
                    cycle: true,
                }
            }
        }
    }

    /// One workload, warmed once and then requested over and over.
    fn single(domain: Domain, x: Vec<f64>, shards: usize, recipe: Recipe) -> Inputs {
        Inputs {
            domain,
            x,
            shards,
            warmup: vec![recipe.clone()],
            pool: vec![recipe],
            schedule: vec![vec![0]],
            cycle: true,
        }
    }

    /// Pool entries of request `i`, or `None` once a non-cycling schedule is
    /// used up.
    pub fn entries(&self, i: usize) -> Option<&[usize]> {
        if self.cycle {
            Some(&self.schedule[i % self.schedule.len()])
        } else {
            self.schedule.get(i).map(Vec::as_slice)
        }
    }
}

/// What a request returned.
pub enum Reply {
    Served(QueryResponse),
    Batch(Vec<Vec<f64>>),
}

/// Engine options of the load model: defaults, except the seed and the
/// trace-sampling stride. `plan_dir` is set only by the layer pass, whose
/// twin engines load each other's plans instead of repeating SELECT.
pub fn engine_options(seed: u64, trace_sample: u64, plan_dir: Option<PathBuf>) -> EngineOptions {
    EngineOptions {
        seed,
        trace_sample,
        cache_dir: plan_dir,
        ..Default::default()
    }
}

/// A workload set up and ready to serve.
pub struct Scenario {
    pub kind: Kind,
    pub inputs: Inputs,
    pub pool: Vec<Workload>,
    pub engine: Engine,
    /// In-process shard workers of the remote scenario; dropping a handle
    /// stops its worker.
    _workers: Vec<WorkerHandle>,
    /// The sessions the follow-ups of `session_answers` read; empty for the
    /// workloads that `serve`.
    pub sessions: Vec<SessionId>,
    /// ε the set-up requests spent — the ledger must show exactly this plus
    /// what the measured requests report.
    pub setup_eps: f64,
}

impl Scenario {
    /// Builds data and workloads, constructs the engine, registers the
    /// dataset, spawns and preloads workers, and serves the warm-up requests
    /// (for warm workloads: the cold request, SELECT included). All of it is
    /// what `setup_s` times.
    ///
    /// `remote` = false builds the local twin of a remote scenario.
    pub fn set_up(
        kind: Kind,
        seed: u64,
        options: EngineOptions,
        remote: bool,
    ) -> Result<Scenario, EngineError> {
        let inputs = Inputs::generate(kind, seed);
        let pool: Vec<Workload> = inputs.pool.iter().map(Recipe::build).collect();

        let workers: Vec<WorkerHandle> = if remote {
            (0..SHARDS)
                .map(|_| spawn_worker("127.0.0.1:0", WorkerOptions::default()))
                .collect::<std::io::Result<_>>()
                .map_err(|e| EngineError::WorkerUnavailable {
                    addr: format!("127.0.0.1:0 ({e})"),
                })?
        } else {
            Vec::new()
        };
        let engine = Engine::new(EngineOptions {
            remote: remote.then(|| RemoteOptions {
                workers: workers.iter().map(|w| w.addr().to_string()).collect(),
                ..Default::default()
            }),
            ..options
        });
        // One slab is the dense registration.
        let datasets: &[&str] = match kind {
            Kind::ColdRange1d => &[DATASET, REPLAY_DATASET],
            _ => &[DATASET],
        };
        for name in datasets {
            engine.register_dataset_sharded(
                *name,
                inputs.domain.clone(),
                inputs.x.clone(),
                inputs.shards,
                TOTAL_EPS,
            )?;
        }

        let mut sessions = Vec::new();
        let mut setup_eps = 0.0;
        for recipe in &inputs.warmup {
            let response = engine.serve(DATASET, &recipe.build(), EPS)?;
            setup_eps += response.eps_spent;
            if kind == Kind::SessionAnswers {
                sessions.push(response.session);
            } else {
                engine.close_session(response.session)?;
            }
        }
        Ok(Scenario {
            kind,
            inputs,
            pool,
            engine,
            _workers: workers,
            sessions,
            setup_eps,
        })
    }

    /// Issues request `i`. `None` when a cold schedule has no fresh workload
    /// left. The caller closes the session a served reply opens, as a client
    /// with no follow-ups would: left open, up to 1024 domain-sized estimates
    /// pile up and peak memory would measure how many requests fit in the
    /// window.
    pub fn request(&self, i: usize) -> Option<Result<Reply, EngineError>> {
        let entries = self.inputs.entries(i)?;
        Some(if self.sessions.is_empty() {
            self.engine
                .serve(DATASET, &self.pool[entries[0]], EPS)
                .map(Reply::Served)
        } else {
            let batch: Vec<&Workload> = entries.iter().map(|&e| &self.pool[e]).collect();
            self.engine
                .serve_batch_from_session(self.sessions[i % self.sessions.len()], &batch)
                .map(Reply::Batch)
        })
    }

    /// The closed loop both passes drive: issues requests `offset, offset+1, …`
    /// one after the other for `window`, and on until `at_least` have been
    /// attempted (or a cold schedule runs out). Each reply is handed to
    /// `on_reply` with its request index — after the latency clock stopped
    /// and the reply's session was closed, before the completion is stamped,
    /// so whatever the client does with a reply counts against throughput but
    /// not latency. A failed request counts as attempted and has no sample.
    pub fn serve_window(
        &self,
        offset: usize,
        window: Duration,
        at_least: usize,
        mut on_reply: impl FnMut(usize, &Reply),
    ) -> Served {
        let mut served = Served::default();
        let opened = Instant::now();
        while opened.elapsed() < window || (served.attempted as usize) < at_least {
            let i = offset + served.attempted as usize;
            let sent = Instant::now();
            let Some(outcome) = self.request(i) else {
                break;
            };
            let latency = sent.elapsed();
            served.attempted += 1;
            match outcome {
                Ok(reply) => {
                    if let Reply::Served(response) = &reply {
                        // The reply in hand opened this session; failing to
                        // find it would be an engine bug the ledger checks
                        // surface anyway.
                        let _ = self.engine.close_session(response.session);
                    }
                    on_reply(i, &reply);
                    served.latencies_ms.push(latency.as_secs_f64() * 1e3);
                    served.completions_s.push(opened.elapsed().as_secs_f64());
                }
                Err(e) => {
                    served.failed += 1;
                    eprintln!("request {i} failed: {e}");
                }
            }
        }
        served
    }
}

/// What one [`Scenario::serve_window`] saw.
#[derive(Default)]
pub struct Served {
    /// Latency of every successful request, in order.
    pub latencies_ms: Vec<f64>,
    /// When each of them completed, in seconds since the window opened.
    pub completions_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprints(inputs: &Inputs) -> Vec<String> {
        inputs
            .warmup
            .iter()
            .chain(&inputs.pool)
            .map(|r| r.build().fingerprint().to_string())
            .collect()
    }

    #[test]
    fn generator_is_a_pure_function_of_the_seed() {
        for kind in Kind::ALL {
            let a = Inputs::generate(kind, 5);
            let b = Inputs::generate(kind, 5);
            assert_eq!(a.x, b.x, "{}", kind.name());
            assert_eq!(a.schedule, b.schedule, "{}", kind.name());
            assert_eq!(a.pool, b.pool, "{}", kind.name());
            // The heavy 5-D workloads are covered by recipe equality; the
            // rest also by the fingerprints of what the recipes build.
            if !matches!(kind, Kind::WarmMarginals5d | Kind::Union5d) {
                assert_eq!(fingerprints(&a), fingerprints(&b), "{}", kind.name());
            }
            assert_eq!(a.x.len(), a.domain.size());
        }
    }

    #[test]
    fn two_seeds_draw_different_cold_workloads_and_data() {
        let a = Inputs::generate(Kind::ColdRange1d, 1);
        let b = Inputs::generate(Kind::ColdRange1d, 2);
        assert_ne!(a.pool, b.pool);
        assert_ne!(a.warmup, b.warmup);
        assert_ne!(a.x, b.x);
        assert_ne!(
            Inputs::generate(Kind::WarmHit1d, 1).schedule,
            Inputs::generate(Kind::WarmHit1d, 2).schedule
        );
    }

    #[test]
    fn cold_draws_are_distinct_and_stratified() {
        let inputs = Inputs::generate(Kind::ColdRange1d, 9);
        let mut prints = fingerprints(&inputs);
        let total = prints.len();
        prints.sort();
        prints.dedup();
        assert_eq!(
            prints.len(),
            total,
            "every cold request must miss the cache"
        );
        assert_eq!(inputs.pool.len(), COLD_WIDTHS.len());

        // Any four consecutive requests take one width from each stratum.
        for window in inputs.pool.chunks(COLD_STRATA) {
            let mut strata: Vec<usize> = window
                .iter()
                .map(|r| match r {
                    Recipe::WidthRange1d { width, .. } => (width - COLD_WIDTHS.start) / 16,
                    other => panic!("unexpected cold recipe {other:?}"),
                })
                .collect();
            strata.sort_unstable();
            assert_eq!(strata, vec![0, 1, 2, 3]);
        }
        assert!(
            inputs.entries(inputs.pool.len()).is_none(),
            "cold never cycles"
        );
    }

    #[test]
    fn session_batches_hold_every_follow_up_twice() {
        let inputs = Inputs::generate(Kind::SessionAnswers, 4);
        assert_eq!(inputs.entries(0), Some(&[0, 1, 2, 3, 0, 1, 2, 3][..]));
        assert_eq!(inputs.entries(17), inputs.entries(0));
        assert_eq!(inputs.warmup.len(), SESSIONS);
    }

    #[test]
    fn names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("warm"), None);
    }
}
