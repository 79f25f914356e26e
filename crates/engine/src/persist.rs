//! Persistent strategy cache: plans spilled to disk, keyed by workload
//! fingerprint.
//!
//! Plans are pure functions of the workload, so a strategy optimized before
//! a restart is exactly as good after it. The store writes one compact
//! binary file per fingerprint under a cache directory; on a memory-cache
//! miss the engine probes the store *before* running SELECT (lazy reload —
//! construction only records the directory), and freshly optimized plans are
//! written back best-effort.
//!
//! The value encoding is the shared [`hdmm_core::codec`] — the same
//! checksummed, length-checked path used for shard-task wire frames — so
//! there is exactly one serializer for strategies in the system. The loader
//! stays corrupt-file tolerant by construction: any [`CodecError`], domain
//! mismatch, or invariant violation simply reports "no cached plan" and the
//! engine re-optimizes and overwrites the bad file. I/O failures on store
//! are swallowed for the same reason: persistence is an optimization, never
//! a correctness dependency.
//!
//! Only the [`Selected`] (strategy + error coefficient + operator tag) and
//! the query count are encoded; the workload Grams are recomputed from the
//! live workload at load time, which is cheap next to the SELECT the hit
//! avoids and keeps the on-disk format independent of the Gram
//! representation.
//!
//! [`CodecError`]: hdmm_core::codec::CodecError

use hdmm_core::codec::{self, Reader};
use hdmm_core::{Plan, Workload, WorkloadFingerprint, WorkloadGrams};
use hdmm_optimizer::Selected;
use hdmm_workload::Domain;
use std::io::Write as _;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"HDMMPLN1";

/// A directory-backed store of serialized plans.
///
/// # Examples
///
/// A stored plan survives a round trip through disk with its operator and
/// error accounting intact — this is exactly what lets an engine restart
/// skip re-running SELECT:
///
/// ```
/// use hdmm_core::{builders, Hdmm};
/// use hdmm_engine::PlanStore;
///
/// let dir = std::env::temp_dir().join(format!("plan-store-doc-{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&dir);
/// let store = PlanStore::new(&dir);
///
/// let workload = builders::prefix_1d(8);
/// let plan = Hdmm::with_restarts(1).plan(&workload);
/// let fp = workload.fingerprint();
///
/// assert!(store.store(&fp, &plan, workload.domain()));
/// let reloaded = store.load(&fp, &workload).expect("cached plan reloads");
/// assert_eq!(reloaded.operator(), plan.operator());
///
/// // A corrupt file is a clean miss, never an error.
/// for entry in std::fs::read_dir(&dir).unwrap() {
///     std::fs::write(entry.unwrap().path(), b"garbage").unwrap();
/// }
/// assert!(store.load(&fp, &workload).is_none());
/// # let _ = std::fs::remove_dir_all(&dir);
/// ```
#[derive(Debug, Clone)]
pub struct PlanStore {
    dir: PathBuf,
}

impl PlanStore {
    /// A store rooted at `dir`. The directory is created on first write, not
    /// here — constructing an engine never touches the filesystem.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        PlanStore { dir: dir.into() }
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn file_for(&self, fp: &WorkloadFingerprint) -> PathBuf {
        let shape: Vec<String> = fp.domain_sizes().iter().map(|n| n.to_string()).collect();
        self.dir
            .join(format!("{}-{:032x}.plan", shape.join("x"), fp.digest()))
    }

    /// Loads the plan cached for `fp`, rebuilding its Grams from `workload`.
    /// Returns `None` on any miss, mismatch, or corruption.
    pub fn load(&self, fp: &WorkloadFingerprint, workload: &Workload) -> Option<Plan> {
        let bytes = std::fs::read(self.file_for(fp)).ok()?;
        let (selected, query_count, domain) = decode(&bytes)?;
        // A plan is only valid for the domain it was optimized over; a stale
        // or colliding file must not be served.
        if &domain != workload.domain() || query_count != workload.query_count() {
            return None;
        }
        let grams = WorkloadGrams::from_workload(workload);
        Some(Plan::from_parts(selected, grams, query_count))
    }

    /// Persists a plan under `fp`, best-effort: errors are reported to the
    /// caller only as `false` (the engine keeps serving from memory).
    pub fn store(&self, fp: &WorkloadFingerprint, plan: &Plan, domain: &Domain) -> bool {
        let bytes = encode(plan, domain);
        let write = || -> std::io::Result<()> {
            std::fs::create_dir_all(&self.dir)?;
            // Write-then-rename so a crash mid-write never leaves a torn
            // file under the final name. The temp name is unique per process
            // and write so concurrent writers (two server processes sharing
            // a cache dir) never interleave into one temp file; last rename
            // wins with a complete file either way.
            static WRITE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let final_path = self.file_for(fp);
            let tmp = final_path.with_extension(format!(
                "plan.tmp.{}.{}",
                std::process::id(),
                WRITE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            ));
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
            std::fs::rename(&tmp, &final_path)
        };
        write().is_ok()
    }
}

fn encode(plan: &Plan, domain: &Domain) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    codec::put_usizes(&mut out, domain.sizes());
    codec::put_usize(&mut out, plan.query_count());
    codec::put_str(&mut out, plan.operator());
    codec::put_f64(&mut out, plan.squared_error_coefficient());
    codec::put_strategy(&mut out, plan.strategy());
    codec::seal(&mut out);
    out
}

/// Maps a persisted operator tag back to the planner's static tag set;
/// unknown tags (from future versions) degrade to `"cached"`.
fn static_operator(tag: &str) -> &'static str {
    match tag {
        "identity" => "identity",
        "kron" => "kron",
        "plus" => "plus",
        "marginals" => "marginals",
        "opt0" => "opt0",
        _ => "cached",
    }
}

fn decode(full: &[u8]) -> Option<(Selected, usize, Domain)> {
    let payload = codec::open(full).ok()?;
    let mut c = Reader::new(payload);
    if c.take(MAGIC.len()).ok()? != MAGIC {
        return None;
    }
    let sizes = c.usizes().ok()?;
    if sizes.is_empty() || sizes.contains(&0) {
        return None;
    }
    let domain = Domain::new(&sizes);
    let query_count = c.usize().ok()?;
    let operator = static_operator(&c.str().ok()?);
    let squared_error = c.f64().ok()?;
    if !(squared_error.is_finite() && squared_error >= 0.0) {
        return None;
    }
    let strategy = c.strategy().ok()?;
    c.expect_end().ok()?; // trailing garbage: treat as corruption
    Some((
        Selected {
            strategy,
            squared_error,
            operator,
        },
        query_count,
        domain,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdmm_core::{builders, Hdmm};

    fn store() -> (PlanStore, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "hdmm-plan-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        (PlanStore::new(&dir), dir)
    }

    #[test]
    fn round_trips_plans_of_every_operator_family() {
        let (store, dir) = store();
        let workloads = vec![
            builders::prefix_2d(6, 5),                      // kron strategy
            builders::prefix_1d(8),                         // 1-D explicit
            builders::all_marginals(&Domain::new(&[3, 4])), // marginals
            builders::range_total_union_2d(4, 4),           // union-ish
        ];
        for w in workloads {
            let plan = Hdmm::with_restarts(1).plan(&w);
            let fp = w.fingerprint();
            assert!(store.store(&fp, &plan, w.domain()), "store must succeed");
            let loaded = store.load(&fp, &w).expect("plan reloads");
            assert_eq!(loaded.operator(), plan.operator());
            assert_eq!(loaded.strategy().kind(), plan.strategy().kind());
            assert!(
                (loaded.expected_error(1.0) - plan.expected_error(1.0)).abs()
                    < 1e-12 * plan.expected_error(1.0).max(1.0),
                "error accounting must survive the round trip"
            );
            // Byte-stable: encode(decode(x)) == x.
            let original = encode(&plan, w.domain());
            let reencoded = encode(&loaded, w.domain());
            assert_eq!(original, reencoded);
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A plan builds its reconstruction factorization once, in
    /// `Plan::from_parts`: SELECT's plans and the plan store's reloads hold
    /// the same bits a fresh `PreparedReconstruct::new` of their strategy
    /// does. `{:?}` renders every `f64` round-trip exactly (`-0.0`
    /// included), so equal renderings are equal bits.
    #[test]
    fn plans_own_their_factorization_and_reloads_rebuild_it() {
        use hdmm_core::PreparedReconstruct;
        use hdmm_optimizer::OptimizerChoice;
        let (store, dir) = store();
        let opts = hdmm_core::HdmmOptions {
            restarts: 1,
            ..Default::default()
        };
        let cases = [
            (builders::prefix_2d(6, 5), OptimizerChoice::Kron, "kron"),
            (
                builders::upto_kway_marginals(&Domain::new(&[4, 4, 4]), 1),
                OptimizerChoice::Marginals,
                "marginals",
            ),
            (
                builders::range_total_union_2d(16, 16),
                OptimizerChoice::Plus,
                "union",
            ),
        ];
        let bits = |p: &PreparedReconstruct| format!("{p:?}");
        for (w, choice, kind) in cases {
            let plan = Plan::select(&w, &opts, choice, &());
            assert_eq!(plan.strategy().kind(), kind);
            let fresh = PreparedReconstruct::new(plan.strategy());
            assert_eq!(bits(plan.prepared()), bits(&fresh), "{kind}");
            let fp = w.fingerprint();
            assert!(store.store(&fp, &plan, w.domain()));
            let loaded = store.load(&fp, &w).expect("plan reloads");
            let reloaded_fresh = PreparedReconstruct::new(loaded.strategy());
            assert_eq!(bits(loaded.prepared()), bits(&reloaded_fresh), "{kind}");
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_files_are_tolerated() {
        let (store, dir) = store();
        let w = builders::prefix_1d(8);
        let fp = w.fingerprint();
        let plan = Hdmm::with_restarts(1).plan(&w);
        assert!(store.store(&fp, &plan, w.domain()));
        let path = store.file_for(&fp);

        // Truncation, bit flips in the middle, and garbage all load as None.
        let good = std::fs::read(&path).unwrap();
        for bad in [
            good[..good.len() / 2].to_vec(),
            {
                let mut b = good.clone();
                let mid = b.len() / 2;
                b[mid] ^= 0xFF;
                // Flip the tag byte region too so *some* structural check trips.
                b[MAGIC.len() + 8] ^= 0xFF;
                b
            },
            b"not a plan at all".to_vec(),
            Vec::new(),
        ] {
            std::fs::write(&path, &bad).unwrap();
            assert!(
                store.load(&fp, &w).is_none(),
                "corruption must be tolerated"
            );
        }

        // A valid file for a *different* domain must not serve.
        std::fs::write(&path, &good).unwrap();
        let other = builders::prefix_1d(16);
        assert!(store.load(&fp, &other).is_none());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn missing_directory_is_a_clean_miss() {
        let (store, _dir) = store();
        let w = builders::prefix_1d(4);
        assert!(store.load(&w.fingerprint(), &w).is_none());
    }
}
