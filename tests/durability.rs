//! Crash-recovery tests for the durable ε-ledger (`hdmm_engine::wal`).
//!
//! These tests enforce the crash-consistency invariants of
//! `docs/DURABILITY.md` §5 against the formats of §2–§3 and the recovery
//! procedure of §4:
//!
//! * **I2 (conservative recovery)** — the truncate-at-every-offset proptest:
//!   for a random event sequence, cutting the log at *every* byte offset
//!   must recover at least the ε committed within the surviving prefix.
//! * **I3 (remaining ε never inflates)** — the kill&nbsp;-9 test: a child
//!   process is killed between Reserve and Commit and must never recover
//!   with more remaining ε than a clean shutdown would report.
//! * §4.2 torn tails are trimmed and appending continues; §4.3 snapshotting
//!   truncates the log and recovery is idempotent; §6 recovered ledgers
//!   re-attach by dataset name; §7 a tenant denial journals as
//!   Reserve → Deny → Refund.

use hdmm::core::{builders, Domain, EngineError, QueryEngine};
use hdmm::engine::wal::{self, WalRecord};
use hdmm::engine::{AuditKind, DatasetConfig, Engine, EngineOptions};
use hdmm::optimizer::HdmmOptions;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

/// A fresh, empty WAL directory unique to this process and test.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hdmm-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Engine options with the durable ledger rooted at `dir` (and a fast
/// optimizer, since these tests exercise recovery, not SELECT quality).
fn opts(dir: &Path) -> EngineOptions {
    EngineOptions {
        hdmm: HdmmOptions {
            restarts: 1,
            ..Default::default()
        },
        wal_dir: Some(dir.to_path_buf()),
        ..Default::default()
    }
}

fn spent(engine: &Engine, dataset: &str) -> f64 {
    engine.recovered_spent(dataset).unwrap_or(0.0)
}

// ---------------------------------------------------------------------------
// I2: truncate-at-every-offset (DURABILITY.md §5, via the pure replay path)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For a random sequence of budget events, every possible crash point —
    /// the log cut at every byte offset — must replay without error and
    /// recover **at least** the ε committed within the surviving prefix
    /// (invariant I2: a Reserve whose outcome is missing replays as spent,
    /// so recovery can over-count, never under-count).
    #[test]
    fn every_truncation_offset_recovers_at_least_committed_spend(
        outcomes in proptest::collection::vec((0u32..5, 1u32..16), 12),
    ) {
        let budget = |kind: AuditKind, eps: f64| WalRecord::Budget {
            kind,
            dataset: "d".to_string(),
            tenant: None,
            eps,
            trace_id: 7,
            unix_ms: 0,
        };
        // Each outcome is one request: Reserve, then commit / refund /
        // tenant-deny unwind (§7) / nothing (the process died mid-request).
        let mut events = vec![WalRecord::DatasetRegistered {
            name: "d".to_string(),
            total_eps: 1e9,
            tenant: None,
        }];
        for &(sel, scale) in &outcomes {
            let eps = f64::from(scale) * 0.01;
            events.push(budget(AuditKind::Reserve, eps));
            match sel {
                0 | 1 => events.push(budget(AuditKind::Commit, eps)),
                2 => events.push(budget(AuditKind::Refund, eps)),
                3 => {
                    events.push(budget(AuditKind::Deny, eps));
                    events.push(budget(AuditKind::Refund, eps));
                }
                _ => {}
            }
        }

        // Serialize with the real frame codec (§2), tracking the
        // committed-spend floor at every frame boundary.
        let mut log = wal::LOG_MAGIC.to_vec();
        let mut floors: Vec<(usize, f64)> = vec![(log.len(), 0.0)];
        let mut committed = 0.0;
        for (i, event) in events.iter().enumerate() {
            log.extend_from_slice(&wal::encode_record(i as u64 + 1, event));
            if let WalRecord::Budget { kind: AuditKind::Commit, eps, .. } = event {
                committed += eps;
            }
            floors.push((log.len(), committed));
        }

        for cut in 0..=log.len() {
            let (state, summary) =
                wal::replay(None, &log[..cut]).expect("any prefix of a valid log recovers");
            let recovered = state.datasets.get("d").map_or(0.0, |d| d.spent);
            let floor = floors
                .iter()
                .rev()
                .find(|&&(off, _)| off <= cut)
                .map_or(0.0, |&(_, c)| c);
            prop_assert!(
                recovered + 1e-9 >= floor,
                "cut at byte {cut}: recovered spent {recovered} < committed floor {floor} \
                 — violates invariant I2 (DURABILITY.md §5)"
            );
            prop_assert!(summary.valid_len <= log.len());
            // A cut strictly inside the log is either at a frame boundary or
            // leaves a torn tail — it must never decode into extra records.
            if cut < log.len() {
                let at_boundary = floors.iter().any(|&(off, _)| off == cut);
                prop_assert!(at_boundary || summary.torn_tail || cut < 8);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// I3: kill -9 between Reserve and Commit (DURABILITY.md §5, §5.1)
// ---------------------------------------------------------------------------

const CHILD_DIR_VAR: &str = "HDMM_DURABILITY_CHILD_DIR";
const CHILD_EPS: f64 = 0.125;

/// Child half of the kill -9 test: not a test of its own (it returns
/// immediately under a normal `cargo test` run). When re-executed by
/// `killed_mid_commit_never_inflates_remaining_eps` with [`CHILD_DIR_VAR`]
/// set, it opens an engine on that WAL directory and serves one request of
/// [`CHILD_EPS`] per `GO` line on stdin, printing `ACK` after each answer is
/// released — i.e. after the commit fsync of §5.1.
#[test]
fn durability_child_serve_loop() {
    let Ok(dir) = std::env::var(CHILD_DIR_VAR) else {
        return;
    };
    let engine = Engine::open(opts(Path::new(&dir))).expect("child opens the WAL");
    engine
        .register_dataset("census", Domain::one_dim(8), vec![2.0; 8], 100.0)
        .expect("child registers");
    let workload = builders::prefix_1d(8);
    println!("READY");
    std::io::stdout().flush().expect("flush");
    for line in std::io::stdin().lock().lines() {
        if !matches!(line.as_deref().map(str::trim), Ok("GO")) {
            break;
        }
        engine
            .serve("census", &workload, CHILD_EPS)
            .expect("child serves within budget");
        println!("ACK");
        std::io::stdout().flush().expect("flush");
    }
}

/// Waits for the child to print `marker`. Matched as a line *suffix*: the
/// child's libtest harness prints `test <name> ... ` without a newline, so
/// the first marker lands at the end of that progress line.
fn await_line(lines: &mut std::io::Lines<BufReader<std::process::ChildStdout>>, marker: &str) {
    for line in lines.by_ref() {
        if line
            .expect("child stdout readable")
            .trim_end()
            .ends_with(marker)
        {
            return;
        }
    }
    panic!("child exited before printing {marker:?}");
}

/// Invariant I3: SIGKILL at an arbitrary point of a request — including
/// between the Reserve append and the Commit fsync — never recovers with
/// more remaining ε than the acknowledged spend implies, and at most one
/// in-flight reservation beyond it (the conservative direction).
#[test]
fn killed_mid_commit_never_inflates_remaining_eps() {
    let dir = fresh_dir("kill9");
    let exe = std::env::current_exe().expect("test binary path");
    let mut child = std::process::Command::new(exe)
        .args(["durability_child_serve_loop", "--exact", "--nocapture"])
        .env(CHILD_DIR_VAR, &dir)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child");
    let mut stdin = child.stdin.take().expect("child stdin");
    let mut lines = BufReader::new(child.stdout.take().expect("child stdout")).lines();

    // Lock-step: each GO triggers exactly one serve; each ACK means that
    // request's commit was fsynced before the answer was released (I1).
    await_line(&mut lines, "READY");
    let acked: u32 = 4;
    for _ in 0..acked {
        writeln!(stdin, "GO").expect("child accepts GO");
        stdin.flush().expect("flush GO");
        await_line(&mut lines, "ACK");
    }
    // Launch one more request and SIGKILL the child without waiting: the
    // process dies somewhere between "not yet reserved" and "committed".
    writeln!(stdin, "GO").expect("child accepts final GO");
    stdin.flush().expect("flush final GO");
    child.kill().expect("SIGKILL child");
    child.wait().expect("reap child");

    let engine = Engine::open(opts(&dir)).expect("recovery after SIGKILL");
    let recovered = spent(&engine, "census");
    let acked_spend = f64::from(acked) * CHILD_EPS;
    assert!(
        recovered + 1e-9 >= acked_spend,
        "recovered spend {recovered} < acknowledged spend {acked_spend}: \
         remaining ε inflated across a crash (violates I3, DURABILITY.md §5)"
    );
    assert!(
        recovered <= acked_spend + CHILD_EPS + 1e-9,
        "recovered spend {recovered} exceeds acknowledged plus one in-flight \
         reservation ({acked_spend} + {CHILD_EPS})"
    );

    // Re-registration re-attaches the recovered ledger (§6) and serving
    // resumes against the *reduced* remaining budget.
    engine
        .register_dataset("census", Domain::one_dim(8), vec![2.0; 8], 100.0)
        .expect("re-register after recovery");
    engine
        .serve("census", &builders::prefix_1d(8), CHILD_EPS)
        .expect("serving resumes after recovery");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Restart, torn tails, snapshots, ordering (DURABILITY.md §4, §6, §7)
// ---------------------------------------------------------------------------

/// §6: a clean restart recovers exactly the committed spend, the ledger
/// re-attaches at re-registration by name, and the remaining budget is
/// enforced against the recovered spend.
#[test]
fn restart_reattaches_spent_budget_by_name() {
    let dir = fresh_dir("restart");
    let workload = builders::prefix_1d(8);
    {
        let engine = Engine::open(opts(&dir)).expect("fresh open");
        engine
            .register_dataset("census", Domain::one_dim(8), vec![2.0; 8], 1.0)
            .expect("register");
        engine.serve("census", &workload, 0.4).expect("first serve");
        engine
            .serve("census", &workload, 0.4)
            .expect("second serve");
    }

    let engine = Engine::open(opts(&dir)).expect("reopen");
    assert!(
        (spent(&engine, "census") - 0.8).abs() < 1e-12,
        "clean shutdown recovers exactly the committed spend, got {}",
        spent(&engine, "census")
    );
    let wal_metrics = engine.metrics().wal.expect("wal configured");
    assert!(wal_metrics.recovery_replayed >= 4, "{wal_metrics:?}");
    assert!(!wal_metrics.recovery_torn_tail);

    engine
        .register_dataset("census", Domain::one_dim(8), vec![2.0; 8], 1.0)
        .expect("re-register");
    match engine.serve("census", &workload, 0.4) {
        Err(EngineError::BudgetExhausted { remaining, .. }) => {
            assert!((remaining - 0.2).abs() < 1e-9, "remaining {remaining}");
        }
        other => panic!("expected BudgetExhausted after recovery, got {other:?}"),
    }
    engine
        .serve("census", &workload, 0.15)
        .expect("within the recovered remaining budget");
    let _ = std::fs::remove_dir_all(&dir);
}

/// §4.2: a torn final record (a crash mid-append) is trimmed, never costs
/// committed spend, and the trimmed log accepts new appends.
#[test]
fn torn_tail_is_trimmed_and_serving_continues() {
    let dir = fresh_dir("torn");
    let workload = builders::prefix_1d(8);
    {
        let engine = Engine::open(opts(&dir)).expect("fresh open");
        engine
            .register_dataset("d", Domain::one_dim(8), vec![1.0; 8], 1.0)
            .expect("register");
        engine.serve("d", &workload, 0.25).expect("serve");
    }
    // Simulate a crash mid-append: half a valid Reserve frame at the tail.
    let torn = wal::encode_record(
        999,
        &WalRecord::Budget {
            kind: AuditKind::Reserve,
            dataset: "d".to_string(),
            tenant: None,
            eps: 0.5,
            trace_id: 0,
            unix_ms: 0,
        },
    );
    let mut log = std::fs::read(dir.join("wal.log")).expect("log exists");
    log.extend_from_slice(&torn[..torn.len() / 2]);
    std::fs::write(dir.join("wal.log"), &log).expect("write torn log");

    let engine = Engine::open(opts(&dir)).expect("torn tail is tolerated");
    let wal_metrics = engine.metrics().wal.expect("wal configured");
    assert!(wal_metrics.recovery_torn_tail, "{wal_metrics:?}");
    assert!(
        (spent(&engine, "d") - 0.25).abs() < 1e-12,
        "the torn record is ignored; committed spend survives"
    );
    engine
        .register_dataset("d", Domain::one_dim(8), vec![1.0; 8], 1.0)
        .expect("re-register");
    engine
        .serve("d", &workload, 0.25)
        .expect("appending continues after the trim");
    drop(engine);

    // The post-trim appends themselves recover cleanly.
    let engine = Engine::open(opts(&dir)).expect("second reopen");
    assert!((spent(&engine, "d") - 0.5).abs() < 1e-12);
    let _ = std::fs::remove_dir_all(&dir);
}

/// §4.3 + §3: a snapshot truncates the log to its bare header, recovery
/// comes from the snapshot (zero replayed records when nothing followed it),
/// and reopening repeatedly is idempotent.
#[test]
fn snapshot_truncates_log_and_recovery_is_idempotent() {
    let dir = fresh_dir("snapshot");
    let workload = builders::prefix_1d(8);
    {
        let engine = Engine::open(opts(&dir)).expect("fresh open");
        engine
            .register_dataset("d", Domain::one_dim(8), vec![1.0; 8], 2.0)
            .expect("register");
        engine.serve("d", &workload, 0.5).expect("serve");
        engine.serve("d", &workload, 0.25).expect("serve");
        engine.snapshot_wal().expect("snapshot");
        assert_eq!(
            std::fs::metadata(dir.join("wal.log"))
                .expect("log exists")
                .len(),
            8,
            "a snapshot truncates the log to its 8-byte header (§5.2)"
        );
        assert!(dir.join("snapshot.bin").exists());
        // One more request lands in the (now tiny) log tail.
        engine
            .serve("d", &workload, 0.25)
            .expect("serve after snapshot");
    }

    for reopen in 0..2 {
        let engine = Engine::open(opts(&dir)).expect("reopen");
        assert!(
            (spent(&engine, "d") - 1.0).abs() < 1e-12,
            "reopen {reopen}: snapshot + tail recover the full spend"
        );
        let wal_metrics = engine.metrics().wal.expect("wal configured");
        assert_eq!(
            wal_metrics.recovery_replayed, 2,
            "only the post-snapshot Reserve+Commit replay (§4.3)"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// §7 + §2: a tenant denial journals the documented unwind —
/// Reserve → Deny → Refund — and the whole log decodes with strictly
/// monotone sequence numbers.
#[test]
fn tenant_denial_journals_reserve_deny_refund() {
    let dir = fresh_dir("tenant");
    let workload = builders::prefix_1d(8);
    {
        let engine = Engine::open(opts(&dir)).expect("fresh open");
        engine.set_tenant_quota("acme", 0.5).expect("quota");
        engine
            .register_dataset_with(
                "d",
                Domain::one_dim(8),
                vec![1.0; 8],
                DatasetConfig::new(10.0).with_tenant("acme"),
            )
            .expect("register");
        engine.serve("d", &workload, 0.4).expect("within quota");
        match engine.serve("d", &workload, 0.4) {
            Err(EngineError::TenantBudgetExceeded { .. }) => {}
            other => panic!("expected tenant denial, got {other:?}"),
        }
    }

    let log = std::fs::read(dir.join("wal.log")).expect("log exists");
    assert_eq!(&log[..8], &wal::LOG_MAGIC, "§2.1 file header");
    let mut kinds = Vec::new();
    let mut pos = 8;
    let mut prev_seq = 0;
    while pos < log.len() {
        let (seq, record, used) =
            wal::decode_record(&log[pos..]).expect("clean shutdown leaves no torn frames");
        assert!(seq > prev_seq, "§2.2: sequence numbers strictly increase");
        prev_seq = seq;
        pos += used;
        kinds.push(match record {
            WalRecord::TenantQuotaSet { .. } => "quota",
            WalRecord::DatasetRegistered { .. } => "register",
            WalRecord::Budget { kind, .. } => kind.name(),
        });
    }
    assert_eq!(
        kinds,
        ["quota", "register", "reserve", "commit", "reserve", "deny", "refund"],
        "§7: the tenant denial unwinds as Reserve → Deny → Refund"
    );

    // The denied request nets to zero: only the committed 0.4 recovers.
    let (state, _) = wal::replay(None, &log).expect("replay");
    assert!((state.datasets["d"].spent - 0.4).abs() < 1e-12);
    assert!((state.tenants["acme"].spent - 0.4).abs() < 1e-12);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The WAL's records are the audit stream. An engine with a `wal_dir`
/// serves a grant, a dataset denial and a tenant denial: its `audit()` tail
/// is exactly the `(seq, record)` pairs `wal.log` decodes to, in order. A
/// memory-only engine with the same seed serving the same requests keeps
/// the same budget transitions — kind, dataset, tenant, ε and trace id.
#[test]
fn audit_tail_is_the_decoded_log_with_or_without_a_wal_dir() {
    let dir = fresh_dir("one-log");
    let run = |options: EngineOptions| {
        let engine = Engine::open(options).expect("open");
        engine.set_tenant_quota("acme", 0.5).expect("quota");
        engine
            .register_dataset_with(
                "d",
                Domain::one_dim(8),
                vec![1.0; 8],
                DatasetConfig::new(1.0).with_tenant("acme"),
            )
            .expect("register");
        let workload = builders::prefix_1d(8);
        engine.serve("d", &workload, 0.25).expect("grant");
        assert!(matches!(
            engine.serve("d", &workload, 2.0),
            Err(EngineError::BudgetExhausted { .. })
        ));
        assert!(matches!(
            engine.serve("d", &workload, 0.5),
            Err(EngineError::TenantBudgetExceeded { .. })
        ));
        engine.audit().recent()
    };
    let durable = run(opts(&dir));
    let log = std::fs::read(dir.join("wal.log")).expect("log exists");
    let mut decoded = Vec::new();
    let mut pos = wal::LOG_MAGIC.len();
    while pos < log.len() {
        let (seq, record, used) = wal::decode_record(&log[pos..]).expect("a clean log");
        decoded.push((seq, record));
        pos += used;
    }
    assert_eq!(durable, decoded, "the tail is the log");

    let memory = run(EngineOptions {
        wal_dir: None,
        ..opts(&dir)
    });
    let transitions = |tail: &[(u64, WalRecord)]| -> Vec<_> {
        tail.iter()
            .filter_map(|(_, record)| match record {
                WalRecord::Budget {
                    kind,
                    dataset,
                    tenant,
                    eps,
                    trace_id,
                    ..
                } => Some((*kind, dataset.clone(), tenant.clone(), *eps, *trace_id)),
                _ => None,
            })
            .collect()
    };
    let kinds: Vec<AuditKind> = transitions(&memory).iter().map(|t| t.0).collect();
    use AuditKind::{Commit, Deny, Refund, Reserve};
    assert_eq!(kinds, [Reserve, Commit, Deny, Reserve, Deny, Refund]);
    assert_eq!(transitions(&memory), transitions(&durable));
    let _ = std::fs::remove_dir_all(&dir);
}
