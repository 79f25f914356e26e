//! The ε-budget audit stream.
//!
//! For a private query engine the budget ledger is a resource whose
//! consumption must be **auditable per request**: a compliance review has to
//! answer "which request spent this ε, when, and did a failed request really
//! refund it?". Aggregate gauges cannot; this stream can. Every ledger
//! transition — reservation, commit, refund, denial — is emitted as a typed
//! [`AuditEvent`] carrying the request's trace id, so audit records join
//! span trees and server logs on one key.
//!
//! The log is deliberately an *event stream*, not a balance store: balances
//! live in the ledgers, and replaying the stream reproduces them. The same
//! events, checksummed and fsynced, are the redo log of the engine's durable
//! ε-ledger (`hdmm_engine::wal`); `docs/DURABILITY.md` §4 specifies how they
//! replay.
//!
//! # Event ordering under tenant denial
//!
//! Budget admission is two-phase: the *dataset* ledger reserves first, then
//! the owning *tenant* quota is charged. When the dataset reservation
//! succeeds but the tenant quota refuses it, the request fails — and the
//! stream records the unwind explicitly rather than pretending the
//! reservation never happened:
//!
//! ```text
//! Reserve(dataset, ε)   the dataset ledger accepted the hold
//! Deny(dataset, ε)      the tenant quota refused it (tenant field set)
//! Refund(dataset, ε)    the hold was released; the ledger is balanced
//! ```
//!
//! Consumers that fold the stream into balances must treat `Deny` as a
//! no-op (the denied amount was never spent) and pair every `Reserve` with
//! exactly one later `Commit` or `Refund`. A `Reserve` with *neither* means
//! the process died mid-request; the durable ledger's recovery deliberately
//! counts such dangling reservations as spent (`docs/DURABILITY.md` §7
//! documents this ordering contract, §5 the conservative-replay invariant).

use crate::json_escape;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// A ledger transition kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AuditKind {
    /// ε reserved before measurement (all-or-nothing, pre-noise).
    Reserve,
    /// The reservation stands: noise was drawn, the ε is genuinely spent.
    Commit,
    /// The reservation was released: no noise was drawn against it.
    Refund,
    /// A reservation was refused (budget or quota exhausted, invalid ε).
    Deny,
}

impl AuditKind {
    /// Stable lowercase name (JSONL field, metric label).
    pub fn name(self) -> &'static str {
        match self {
            AuditKind::Reserve => "reserve",
            AuditKind::Commit => "commit",
            AuditKind::Refund => "refund",
            AuditKind::Deny => "deny",
        }
    }
}

/// One ε-ledger transition.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditEvent {
    /// Monotone sequence number (gap-free per log; a reader that sees a gap
    /// knows the ring evicted events between its reads).
    pub seq: u64,
    /// Wall-clock milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Trace id of the request that caused the transition (0 = untraced,
    /// e.g. an administrative quota change).
    pub trace_id: u64,
    /// The dataset whose ledger moved.
    pub dataset: String,
    /// The owning tenant when the transition also touched a tenant quota.
    pub tenant: Option<String>,
    /// Transition kind.
    pub kind: AuditKind,
    /// The ε amount of the transition.
    pub eps: f64,
    /// ε remaining in the dataset ledger *after* the transition.
    pub remaining: f64,
}

impl AuditEvent {
    /// One JSONL line (no trailing newline). Non-finite ε/remaining render
    /// as JSON `null` — JSON has no `Infinity` literal.
    pub fn to_json(&self) -> String {
        let num = |v: f64| {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            }
        };
        let mut out = format!(
            "{{\"seq\":{},\"unix_ms\":{},\"trace_id\":\"{:016x}\",\"kind\":\"{}\",\"dataset\":\"",
            self.seq,
            self.unix_ms,
            self.trace_id,
            self.kind.name()
        );
        json_escape(&mut out, &self.dataset);
        out.push('"');
        if let Some(t) = &self.tenant {
            out.push_str(",\"tenant\":\"");
            json_escape(&mut out, t);
            out.push('"');
        }
        out.push_str(&format!(
            ",\"eps\":{},\"remaining\":{}}}",
            num(self.eps),
            num(self.remaining)
        ));
        out
    }
}

/// How many events a subscriber channel buffers before the log stops
/// blocking on it: a slow subscriber loses events (counted) rather than
/// stalling the serving path.
const SUBSCRIBER_BUFFER: usize = 1024;

struct AuditInner {
    events: VecDeque<AuditEvent>,
    subscribers: Vec<SyncSender<AuditEvent>>,
}

/// A bounded, subscribable log of [`AuditEvent`]s.
///
/// Emission is a short critical section (ring push + non-blocking sends);
/// it never blocks on I/O or slow subscribers, so it is safe on the serving
/// path.
pub struct AuditLog {
    inner: Mutex<AuditInner>,
    capacity: usize,
    next_seq: AtomicU64,
    emitted: AtomicU64,
    subscriber_drops: AtomicU64,
}

impl std::fmt::Debug for AuditLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuditLog")
            .field("capacity", &self.capacity)
            .field("emitted", &self.emitted())
            .finish()
    }
}

impl AuditLog {
    /// A log retaining the most recent `capacity` events.
    pub fn new(capacity: usize) -> AuditLog {
        AuditLog {
            inner: Mutex::new(AuditInner {
                events: VecDeque::new(),
                subscribers: Vec::new(),
            }),
            capacity: capacity.max(1),
            next_seq: AtomicU64::new(0),
            emitted: AtomicU64::new(0),
            subscriber_drops: AtomicU64::new(0),
        }
    }

    /// Emits one event: assigns its sequence number and timestamp, appends
    /// it to the ring (evicting the oldest when full), and forwards it to
    /// every live subscriber without blocking.
    pub fn emit(
        &self,
        trace_id: u64,
        dataset: &str,
        tenant: Option<&str>,
        kind: AuditKind,
        eps: f64,
        remaining: f64,
    ) -> u64 {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let event = AuditEvent {
            seq,
            unix_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
                .unwrap_or(0),
            trace_id,
            dataset: dataset.to_string(),
            tenant: tenant.map(str::to_string),
            kind,
            eps,
            remaining,
        };
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner
            .subscribers
            .retain(|tx| match tx.try_send(event.clone()) {
                Ok(()) => true,
                Err(TrySendError::Full(_)) => {
                    // Slow subscriber: drop the event for it, keep the channel.
                    self.subscriber_drops.fetch_add(1, Ordering::Relaxed);
                    true
                }
                Err(TrySendError::Disconnected(_)) => false,
            });
        inner.events.push_back(event);
        while inner.events.len() > self.capacity {
            inner.events.pop_front();
        }
        drop(inner);
        self.emitted.fetch_add(1, Ordering::Relaxed);
        seq
    }

    /// Subscribes to all *future* events. The returned receiver buffers a
    /// bounded number of events; if the subscriber falls further behind,
    /// events are dropped for it (see [`AuditLog::subscriber_drops`])
    /// rather than stalling emitters. Dropping the receiver unsubscribes.
    pub fn subscribe(&self) -> Receiver<AuditEvent> {
        let (tx, rx) = std::sync::mpsc::sync_channel(SUBSCRIBER_BUFFER);
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .subscribers
            .push(tx);
        rx
    }

    /// The retained events, oldest first.
    pub fn recent(&self) -> Vec<AuditEvent> {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Events emitted over the log's lifetime.
    pub fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }

    /// Events dropped because a subscriber's buffer was full.
    pub fn subscriber_drops(&self) -> u64 {
        self.subscriber_drops.load(Ordering::Relaxed)
    }

    /// The retained events as JSONL (one event per line, oldest first).
    pub fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.recent() {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_sequence_ring_and_dump() {
        let log = AuditLog::new(2);
        log.emit(7, "census", None, AuditKind::Reserve, 0.5, 0.5);
        log.emit(7, "census", Some("acme"), AuditKind::Commit, 0.5, 0.5);
        log.emit(8, "census", None, AuditKind::Deny, 9.0, 0.5);
        let recent = log.recent();
        assert_eq!(recent.len(), 2, "ring capacity 2 keeps the newest");
        assert_eq!(recent[0].seq, 1);
        assert_eq!(recent[1].kind, AuditKind::Deny);
        assert_eq!(log.emitted(), 3);
        let jsonl = log.dump_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"kind\":\"deny\""), "{jsonl}");
        assert!(jsonl.contains("\"tenant\":\"acme\""), "{jsonl}");
    }

    #[test]
    fn subscribers_see_future_events_and_unsubscribe_on_drop() {
        let log = AuditLog::new(16);
        log.emit(1, "d", None, AuditKind::Reserve, 0.1, 0.9);
        let rx = log.subscribe();
        log.emit(2, "d", None, AuditKind::Commit, 0.1, 0.9);
        let got = rx.try_recv().unwrap();
        assert_eq!((got.trace_id, got.kind), (2, AuditKind::Commit));
        assert!(rx.try_recv().is_err(), "only future events are delivered");
        drop(rx);
        log.emit(3, "d", None, AuditKind::Refund, 0.1, 1.0);
        assert_eq!(log.emitted(), 3, "emit survives dropped subscribers");
    }

    #[test]
    fn json_escapes_and_handles_nonfinite() {
        let e = AuditEvent {
            seq: 0,
            unix_ms: 1,
            trace_id: 0xabc,
            dataset: "we\"ird\n".into(),
            tenant: None,
            kind: AuditKind::Reserve,
            eps: 0.25,
            remaining: f64::INFINITY,
        };
        let json = e.to_json();
        assert!(json.contains("we\\\"ird\\n"), "{json}");
        assert!(json.contains("\"remaining\":null"), "{json}");
        assert!(json.contains("\"trace_id\":\"0000000000000abc\""), "{json}");
    }
}
