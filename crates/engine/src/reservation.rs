//! The one place ε moves: Reserve → Commit / Refund / Deny.
//!
//! SELECT touches no data and everything after MEASURE is post-processing
//! (Table 1(b), Theorem 7), so the privacy argument rests on one rule: ε is
//! reserved *before* noise is drawn and kept only if it was. A
//! [`Reservation`] is that rule as an object. [`Reservation::reserve`] moves
//! the ledgers in a fixed order — dataset ledger → `Reserve` appended to the
//! ledger log → tenant ledger — and fails without holding anything;
//! [`Reservation::commit`] keeps the spend once noise has been drawn; every
//! other exit (typed error or panic unwinding through the holder) refunds in
//! `Drop`. No ledger lock is held across an append, and the holder runs
//! MEASURE with no lock at all.
//!
//! Every transition is one append to the engine's one ledger log ([`Wal`]),
//! by the single private `Reservation::record`; the log's tail is the audit
//! stream. A `Reserve` whose append failed refunds the dataset ledger
//! without a record (`docs/DURABILITY.md` §7): a `Refund` journaled after a
//! `Reserve` that never reached the log would make replay subtract it from
//! previously *committed* spend and under-count ε.

use crate::accountant::{EpsAccountant, TenantLedger};
use crate::sync::lock_recover;
use crate::wal::{now_unix_ms, AuditKind, Wal, WalError, WalRecord};
use hdmm_core::{BudgetAccountant, EngineError};
use std::sync::{Arc, Mutex};

/// The ledgers one dataset's spends are charged against, each behind its own
/// short-critical-section mutex.
pub(crate) struct Ledgers {
    accountant: Mutex<EpsAccountant>,
    /// The owning tenant's name (duplicated outside the ledger lock for
    /// metrics labels and log records) and its quota, shared by all of the
    /// tenant's datasets.
    tenant: Option<(String, Arc<Mutex<TenantLedger>>)>,
}

impl Ledgers {
    pub(crate) fn new(
        accountant: EpsAccountant,
        tenant: Option<(String, Arc<Mutex<TenantLedger>>)>,
    ) -> Self {
        Ledgers {
            accountant: Mutex::new(accountant),
            tenant,
        }
    }

    pub(crate) fn tenant_name(&self) -> Option<&str> {
        self.tenant.as_ref().map(|(name, _)| name.as_str())
    }

    /// (total, spent, remaining) ε on the dataset ledger.
    pub(crate) fn budget(&self) -> (f64, f64, f64) {
        let a = lock_recover(&self.accountant);
        (a.total_budget(), a.spent(), a.remaining())
    }
}

/// Which ledgers currently hold this reservation's ε.
#[derive(Clone, Copy, PartialEq)]
enum Held {
    Nothing,
    Dataset,
    DatasetAndTenant,
}

/// ε reserved against a dataset (and its tenant's quota) for one request.
/// Dropping it refunds; [`Reservation::commit`] is the only way to keep the
/// spend.
pub(crate) struct Reservation<'a> {
    ledgers: &'a Ledgers,
    dataset: &'a str,
    eps: f64,
    trace_id: u64,
    log: &'a Wal,
    held: Held,
}

impl<'a> Reservation<'a> {
    /// Reserves `eps` all-or-nothing, before any noise is drawn: concurrent
    /// requests on one dataset measure at once, and optimistic
    /// spend-after-measure could let both draw noise when only one fits the
    /// remaining ε. A denial by either ledger is recorded as `Deny` (after
    /// the `Reserve` it follows, when it is the tenant's) and holds nothing;
    /// a failed `Reserve` append fails the request the same way.
    pub(crate) fn reserve(
        ledgers: &'a Ledgers,
        dataset: &'a str,
        eps: f64,
        trace_id: u64,
        log: &'a Wal,
    ) -> Result<Self, EngineError> {
        let mut r = Reservation {
            ledgers,
            dataset,
            eps,
            trace_id,
            log,
            held: Held::Nothing,
        };
        let outcome = lock_recover(&ledgers.accountant).try_spend(eps);
        if let Err(e) = outcome {
            // A denial changes no ledger state; journaling it is best-effort
            // forensic context, not a correctness need.
            let _ = r.record(AuditKind::Deny);
            return Err(e);
        }
        if let Err(e) = r.record(AuditKind::Reserve) {
            // §7: the Reserve never reached the log, so its Refund must not.
            lock_recover(&ledgers.accountant).refund(eps);
            return Err(e.into());
        }
        r.held = Held::Dataset;
        if let Some((_, tenant)) = &ledgers.tenant {
            let outcome = lock_recover(tenant).try_spend(eps);
            if let Err(e) = outcome {
                // The log reads Reserve → Deny → Refund in cause order;
                // replay relies on the refund following its reserve.
                let _ = r.record(AuditKind::Deny);
                return Err(e);
            }
            r.held = Held::DatasetAndTenant;
        }
        Ok(r)
    }

    /// Noise was drawn: the ε is genuinely spent. The `Commit` append fsyncs
    /// (see `WalRecord::durable`), and the caller releases the answer only
    /// after this returns, so an acked spend is never observable as unspent
    /// after a crash (`docs/DURABILITY.md` §5).
    pub(crate) fn commit(mut self) {
        self.held = Held::Nothing;
        // Best-effort past this point: the in-memory spend already stands,
        // and replay counts a reserve whose commit was lost as spent.
        let _ = self.record(AuditKind::Commit);
    }

    /// Appends one transition to the ledger log. The caller chooses what a
    /// failure means: the reserve fails the request (no noise drawn yet);
    /// deny, commit and refund absorb it (the in-memory transition already
    /// happened; the failure is counted in
    /// [`crate::wal::WalMetrics::append_errors`] and can only make replay
    /// over-count spend).
    fn record(&self, kind: AuditKind) -> Result<(), WalError> {
        self.log.push(WalRecord::Budget {
            kind,
            dataset: self.dataset.to_string(),
            tenant: self.ledgers.tenant_name().map(str::to_string),
            eps: self.eps,
            trace_id: self.trace_id,
            unix_ms: now_unix_ms(),
        })
    }
}

impl Drop for Reservation<'_> {
    /// Releases whatever is still held — the measurement never completed, so
    /// no noise was drawn against the ε.
    fn drop(&mut self) {
        if self.held == Held::Nothing {
            return;
        }
        lock_recover(&self.ledgers.accountant).refund(self.eps);
        if let (Held::DatasetAndTenant, Some((_, tenant))) = (self.held, &self.ledgers.tenant) {
            lock_recover(tenant).refund(self.eps);
        }
        let _ = self.record(AuditKind::Refund);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use AuditKind::{Commit, Deny, Refund, Reserve};

    /// How one request leaves the reservation.
    #[derive(Debug, Clone, Copy)]
    enum Exit {
        DatasetDeny,
        ReserveAppendFails,
        TenantDeny,
        DropWithoutCommit,
        PanicInHolder,
        Commit,
    }

    /// One row of the exit table: where the request leaves, the ε both
    /// ledgers hold afterwards, and the transition kinds the log holds.
    struct Row {
        exit: Exit,
        spent: f64,
        log: &'static [AuditKind],
    }

    const EPS: f64 = 0.25;

    /// The `(seq, record)` pairs in the directory's `wal.log`, in order.
    fn journaled(dir: &std::path::Path) -> Vec<(u64, WalRecord)> {
        let log = std::fs::read(dir.join("wal.log")).unwrap();
        let mut records = Vec::new();
        let mut pos = crate::wal::LOG_MAGIC.len();
        while pos < log.len() {
            let (seq, record, used) =
                crate::wal::decode_record(&log[pos..]).expect("no partial frame left in the log");
            records.push((seq, record));
            pos += used;
        }
        records
    }

    #[test]
    fn every_exit_moves_both_ledgers_and_the_log_as_specified() {
        #[rustfmt::skip]
        let table = [
            Row { exit: Exit::DatasetDeny, spent: 0.0, log: &[Deny] },
            // §7: the Reserve never reached the log, so neither does its Refund.
            Row { exit: Exit::ReserveAppendFails, spent: 0.0, log: &[] },
            Row { exit: Exit::TenantDeny, spent: 0.0, log: &[Reserve, Deny, Refund] },
            Row { exit: Exit::DropWithoutCommit, spent: 0.0, log: &[Reserve, Refund] },
            Row { exit: Exit::PanicInHolder, spent: 0.0, log: &[Reserve, Refund] },
            Row { exit: Exit::Commit, spent: EPS, log: &[Reserve, Commit] },
        ];
        for Row { exit, spent, log } in table {
            let dir = std::env::temp_dir().join(format!(
                "hdmm-reservation-{exit:?}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let wal = Wal::open(&dir, 0).unwrap();
            // A ledger that must deny is granted less than the request.
            let grant = |deny: bool| if deny { EPS / 2.0 } else { 1.0 };
            let tenant = Arc::new(Mutex::new(TenantLedger::new(
                "acme",
                grant(matches!(exit, Exit::TenantDeny)),
            )));
            let ledgers = Ledgers::new(
                EpsAccountant::new("d", grant(matches!(exit, Exit::DatasetDeny))),
                Some(("acme".to_string(), Arc::clone(&tenant))),
            );
            let fail = matches!(exit, Exit::ReserveAppendFails);
            wal.fail_appends.store(fail as u64, Ordering::Relaxed);
            let reserved = Reservation::reserve(&ledgers, "d", EPS, 7, &wal);
            wal.fail_appends.store(0, Ordering::Relaxed);
            match (exit, reserved) {
                (Exit::DatasetDeny, Err(EngineError::BudgetExhausted { .. }))
                | (Exit::ReserveAppendFails, Err(EngineError::WalFailed { .. }))
                | (Exit::TenantDeny, Err(EngineError::TenantBudgetExceeded { .. })) => {}
                (Exit::DropWithoutCommit, Ok(r)) => drop(r),
                (Exit::PanicInHolder, Ok(r)) => {
                    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let _held = r;
                        panic!("measurement died mid-flight");
                    }));
                    assert!(unwound.is_err());
                }
                (Exit::Commit, Ok(r)) => r.commit(),
                (_, other) => panic!("{exit:?}: unexpected reserve outcome {:?}", other.err()),
            }

            let (_, dataset_spent, _) = ledgers.budget();
            let tenant_spent = lock_recover(&tenant).spent();
            assert!(
                (dataset_spent - spent).abs() < 1e-12,
                "{exit:?}: dataset {dataset_spent}"
            );
            assert!(
                (tenant_spent - spent).abs() < 1e-12,
                "{exit:?}: tenant {tenant_spent}"
            );
            let tail = wal.recent();
            let kinds: Vec<AuditKind> = tail
                .iter()
                .map(|(_, record)| match record {
                    WalRecord::Budget {
                        kind,
                        dataset,
                        trace_id: 7,
                        ..
                    } if dataset == "d" => *kind,
                    other => panic!("{exit:?}: unexpected record {other:?}"),
                })
                .collect();
            assert_eq!(kinds, log, "{exit:?}: the log's tail");
            assert_eq!(wal.metrics().append_errors, u64::from(fail), "{exit:?}");
            drop(wal);
            assert_eq!(journaled(&dir), tail, "{exit:?}: wal.log vs the tail");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
