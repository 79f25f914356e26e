//! The engine's one ledger log and, with a directory, the durable ε-ledger:
//! a write-ahead log of budget events with periodic snapshots, log
//! truncation, and torn-tail-tolerant crash recovery.
//!
//! A restart that forgets spent ε is a **privacy violation**, not merely a
//! bug: the ledger is the one piece of engine state that must survive a
//! crash. This module makes it survive with the classic redo-log design
//! (ARIES-style, trimmed to a ledger whose state is a handful of additive
//! counters):
//!
//! * every ledger transition — `Reserve` / `Commit` / `Refund` / `Deny`,
//!   plus the replayable administrative records `DatasetRegistered` and
//!   `TenantQuotaSet` — is appended to `wal.log` as a length-prefixed,
//!   checksummed record (the framing is [`hdmm_core::codec`], the same
//!   seal/open path the plan store and the wire protocol use);
//! * `Commit` and the administrative records are **fsynced before the
//!   caller proceeds**, so no answer is ever released whose spend could be
//!   forgotten; `Reserve`/`Refund`/`Deny` ride to the OS unfsynced and are
//!   made safe by replay semantics instead (a reserve with no later commit
//!   or refund replays as *spent* — the conservative direction);
//! * every `snapshot_every` appends, the materialized ledger state is
//!   serialized to `snapshot.bin` (write-temp, fsync, rename) and the log is
//!   truncated; records carry monotone sequence numbers and the snapshot
//!   carries the last sequence it covers, so replaying a stale log tail over
//!   a snapshot is idempotent no matter where a crash lands;
//! * recovery ([`Wal::open`]) loads the snapshot, replays the log tail, and
//!   stops at the first invalid record — a torn final record (the expected
//!   result of a crash mid-append) is tolerated and trimmed, never an error.
//!
//! The same log is the engine's ε-audit stream, with or without a
//! directory: it keeps its last [`TAIL_CAPACITY`] records as `(seq, record)`
//! pairs for [`Wal::recent`], `/audit.jsonl` and non-blocking
//! [`Wal::subscribe`]rs, and a record enters that tail exactly when it
//! enters the log. A memory-only log ([`Wal::in_memory`]) has no file,
//! encodes nothing and keeps no replayed state.
//!
//! The byte-level record and snapshot formats, the recovery state machine,
//! and the crash-consistency invariants are specified in
//! `docs/DURABILITY.md`; the examples below double as format-stability
//! checks for the documented encoding.
//!
//! # Examples
//!
//! Records encode to the exact bytes `docs/DURABILITY.md` §2 specifies: a
//! little-endian `u32` length prefix, a tag byte, a `u64` sequence number,
//! the tag's fields, and an 8-byte FNV-1a trailer over the payload.
//!
//! ```
//! use hdmm_engine::wal::{decode_record, encode_record, WalRecord};
//!
//! let rec = WalRecord::TenantQuotaSet { tenant: "acme".into(), cap: 1.5 };
//! let frame = encode_record(7, &rec);
//!
//! // §2.1: the length prefix counts everything after itself.
//! assert_eq!(frame[..4], ((frame.len() - 4) as u32).to_le_bytes());
//! // §2.3: tag 0x02 = TenantQuotaSet, then the seq as a little-endian u64.
//! assert_eq!(frame[4], 0x02);
//! assert_eq!(frame[5..13], 7u64.to_le_bytes());
//! // The frame round-trips, consuming itself exactly.
//! let (seq, back, used) = decode_record(&frame).unwrap();
//! assert_eq!((seq, used), (7, frame.len()));
//! assert_eq!(back, rec);
//! ```
//!
//! Replay is a pure function of the snapshot and log bytes
//! (`docs/DURABILITY.md` §4), which is what makes truncate-at-every-offset
//! crash testing cheap — and a dangling reserve is conservatively spent:
//!
//! ```
//! use hdmm_engine::wal::{encode_record, replay, WalRecord, LOG_MAGIC};
//! use hdmm_engine::AuditKind;
//!
//! let mut log = LOG_MAGIC.to_vec();
//! log.extend(encode_record(1, &WalRecord::DatasetRegistered {
//!     name: "census".into(), total_eps: 1.0, tenant: None,
//! }));
//! log.extend(encode_record(2, &WalRecord::Budget {
//!     kind: AuditKind::Reserve, dataset: "census".into(), tenant: None,
//!     eps: 0.25, trace_id: 9, unix_ms: 0,
//! }));
//! // The crash ate the Commit record: the reserve still counts as spent.
//! let (state, summary) = replay(None, &log).unwrap();
//! assert_eq!(state.datasets["census"].spent, 0.25);
//! assert_eq!(summary.replayed, 2);
//! assert!(!summary.torn_tail);
//!
//! // A torn final record (half a frame) is tolerated and trimmed (§4.2).
//! log.extend(&encode_record(3, &WalRecord::Budget {
//!     kind: AuditKind::Commit, dataset: "census".into(), tenant: None,
//!     eps: 0.25, trace_id: 9, unix_ms: 0,
//! })[..10]);
//! let (state, summary) = replay(None, &log).unwrap();
//! assert_eq!(state.datasets["census"].spent, 0.25);
//! assert!(summary.torn_tail);
//! ```

use hdmm_core::codec::{self, Reader};
use hdmm_core::EngineError;
use hdmm_obs::json_escape;
use std::collections::{BTreeMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// The 8-byte magic at offset 0 of `wal.log` (`docs/DURABILITY.md` §2.1).
pub const LOG_MAGIC: [u8; 8] = *b"HDMMWAL1";

/// The 8-byte magic opening a snapshot payload (`docs/DURABILITY.md` §3).
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"HDMMSNP1";

/// Upper bound on one record frame; a length prefix beyond this is corruption
/// (the largest legitimate record is a few hundred bytes of names).
const MAX_RECORD_BYTES: u32 = 1 << 20;

/// Ways the durability layer can fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// Filesystem I/O failed (open, append, fsync, rename).
    Io(String),
    /// On-disk state that must be trusted is unreadable: a corrupt snapshot
    /// or a log whose header is not a WAL. Torn log *tails* are tolerated and
    /// never produce this; corruption in state that recovery depends on does,
    /// because serving with a partial ledger would under-count spent ε.
    Corrupt(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(detail) => write!(f, "wal i/o: {detail}"),
            WalError::Corrupt(detail) => write!(f, "wal corrupt: {detail}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<WalError> for EngineError {
    fn from(e: WalError) -> EngineError {
        EngineError::WalFailed {
            detail: e.to_string(),
        }
    }
}

/// A budget transition kind (`docs/DURABILITY.md` §7 gives the order a
/// request's transitions take).
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

/// One ledger-log record (`docs/DURABILITY.md` §2.2–§2.4).
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A dataset was registered (tag `0x01`). Replayable: recovery keeps the
    /// ledger's spent ε under the dataset's *name*, so a re-registration
    /// after restart re-attaches to it.
    DatasetRegistered {
        /// Dataset name (the re-attachment key).
        name: String,
        /// Total ε granted by this registration.
        total_eps: f64,
        /// Owning tenant, when spends also charge a shared quota.
        tenant: Option<String>,
    },
    /// A tenant quota was created or updated (tag `0x02`).
    TenantQuotaSet {
        /// Tenant name.
        tenant: String,
        /// New quota cap (may be `+∞` for "registered but uncapped").
        cap: f64,
    },
    /// A budget transition (tags `0x10`–`0x13` for
    /// Reserve/Commit/Refund/Deny), journaled by the request's reservation.
    Budget {
        /// Transition kind.
        kind: AuditKind,
        /// Dataset whose ledger moved.
        dataset: String,
        /// Owning tenant when the transition also touched a tenant quota.
        tenant: Option<String>,
        /// The ε amount.
        eps: f64,
        /// Trace id of the causing request (0 = untraced).
        trace_id: u64,
        /// Wall-clock milliseconds since the Unix epoch at append time.
        unix_ms: u64,
    },
}

impl WalRecord {
    /// Whether appending this record must fsync before the caller proceeds
    /// (`docs/DURABILITY.md` §5): `Commit` (the answer is about to be
    /// released) and the administrative records (rare, and replay anchors).
    fn durable(&self) -> bool {
        match self {
            WalRecord::DatasetRegistered { .. } | WalRecord::TenantQuotaSet { .. } => true,
            WalRecord::Budget { kind, .. } => *kind == AuditKind::Commit,
        }
    }

    /// The record as one `/audit.jsonl` line (no trailing newline): `seq`,
    /// `kind` (an [`AuditKind::name`], `dataset_registered` or
    /// `tenant_quota_set`), then the record's fields. A non-finite number
    /// renders as JSON `null`, which has no `Infinity` literal.
    pub fn to_json(&self, seq: u64) -> String {
        let num = |v: f64| {
            if v.is_finite() {
                v.to_string()
            } else {
                "null".to_string()
            }
        };
        let string = |key: &str, value: &str| {
            let mut out = format!(",\"{key}\":\"");
            json_escape(&mut out, value);
            out + "\""
        };
        let tenant =
            |t: &Option<String>| t.as_deref().map_or(String::new(), |t| string("tenant", t));
        let (kind, fields) = match self {
            WalRecord::DatasetRegistered {
                name,
                total_eps,
                tenant: t,
            } => (
                "dataset_registered",
                format!(
                    "{},\"total_eps\":{}{}",
                    string("name", name),
                    num(*total_eps),
                    tenant(t)
                ),
            ),
            WalRecord::TenantQuotaSet { tenant: t, cap } => (
                "tenant_quota_set",
                format!("{},\"cap\":{}", string("tenant", t), num(*cap)),
            ),
            WalRecord::Budget {
                kind,
                dataset,
                tenant: t,
                eps,
                trace_id,
                unix_ms,
            } => (
                kind.name(),
                format!(
                    ",\"unix_ms\":{unix_ms},\"trace_id\":\"{trace_id:016x}\"{}{},\"eps\":{}",
                    string("dataset", dataset),
                    tenant(t),
                    num(*eps)
                ),
            ),
        };
        format!("{{\"seq\":{seq},\"kind\":\"{kind}\"{fields}}}")
    }
}

/// Recovered ledger state for one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredDataset {
    /// Total ε granted by the most recent registration.
    pub total_eps: f64,
    /// ε spent (committed plus conservatively-counted dangling reserves).
    pub spent: f64,
    /// Owning tenant at the most recent registration.
    pub tenant: Option<String>,
}

/// Recovered quota state for one tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredTenant {
    /// Quota cap (`+∞` when registered but never capped).
    pub cap: f64,
    /// ε spent across the tenant's datasets.
    pub spent: f64,
}

/// The materialized ledger state: exactly what replaying the snapshot plus
/// the log tail produces. `BTreeMap` keeps snapshot bytes deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveredState {
    /// Per-dataset ledgers, by name.
    pub datasets: BTreeMap<String, RecoveredDataset>,
    /// Per-tenant quotas, by name.
    pub tenants: BTreeMap<String, RecoveredTenant>,
}

impl RecoveredState {
    /// Applies one record — the replay state machine of
    /// `docs/DURABILITY.md` §4.1. `Commit` and `Deny` are deliberate
    /// no-ops: a reserve counts as spent from the moment it is logged, so a
    /// crash that eats the commit can only *over*-count spend, never under.
    pub fn apply(&mut self, record: &WalRecord) {
        match record {
            WalRecord::DatasetRegistered {
                name,
                total_eps,
                tenant,
            } => {
                let entry = self
                    .datasets
                    .entry(name.clone())
                    .or_insert(RecoveredDataset {
                        total_eps: *total_eps,
                        spent: 0.0,
                        tenant: tenant.clone(),
                    });
                // Re-registration keeps accumulated spend, adopts the new
                // grant and tenant.
                entry.total_eps = *total_eps;
                entry.tenant = tenant.clone();
                if let Some(t) = tenant {
                    self.tenants.entry(t.clone()).or_insert(RecoveredTenant {
                        cap: f64::INFINITY,
                        spent: 0.0,
                    });
                }
            }
            WalRecord::TenantQuotaSet { tenant, cap } => {
                self.tenants
                    .entry(tenant.clone())
                    .or_insert(RecoveredTenant {
                        cap: *cap,
                        spent: 0.0,
                    })
                    .cap = *cap;
            }
            WalRecord::Budget {
                kind,
                dataset,
                tenant,
                eps,
                ..
            } => {
                let delta = match kind {
                    AuditKind::Reserve => *eps,
                    AuditKind::Refund => -*eps,
                    AuditKind::Commit | AuditKind::Deny => return,
                };
                let d = self
                    .datasets
                    .entry(dataset.clone())
                    .or_insert(RecoveredDataset {
                        // A reserve for a dataset the log never registered
                        // (possible after partial truncation): track the
                        // spend anyway — the conservative direction.
                        total_eps: f64::INFINITY,
                        spent: 0.0,
                        tenant: tenant.clone(),
                    });
                d.spent = (d.spent + delta).max(0.0);
                if let Some(t) = tenant {
                    let q = self.tenants.entry(t.clone()).or_insert(RecoveredTenant {
                        cap: f64::INFINITY,
                        spent: 0.0,
                    });
                    q.spent = (q.spent + delta).max(0.0);
                }
            }
        }
    }
}

/// What replaying a log produced, beyond the state itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplaySummary {
    /// Records applied to the state.
    pub replayed: u64,
    /// Records skipped because the snapshot already covered their sequence.
    pub skipped: u64,
    /// Whether replay stopped at an invalid record before the end of the
    /// input (a torn tail; the bytes from there on are ignored).
    pub torn_tail: bool,
    /// Byte length of the valid prefix, including the 8-byte header
    /// (recovery truncates the file here before appending).
    pub valid_len: usize,
    /// Highest sequence number seen (snapshot's or a replayed record's).
    pub last_seq: u64,
}

// ---------------------------------------------------------------------------
// Record codec (docs/DURABILITY.md §2)
// ---------------------------------------------------------------------------

fn put_opt_str(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            codec::put_str(out, s);
        }
    }
}

fn read_opt_str(r: &mut Reader<'_>) -> Result<Option<String>, codec::CodecError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.str()?)),
        tag => Err(codec::CodecError::BadTag { tag }),
    }
}

fn budget_tag(kind: AuditKind) -> u8 {
    match kind {
        AuditKind::Reserve => 0x10,
        AuditKind::Commit => 0x11,
        AuditKind::Refund => 0x12,
        AuditKind::Deny => 0x13,
    }
}

/// Encodes one record as a complete log frame: `u32` little-endian length,
/// then `tag · seq · fields`, sealed with the codec's FNV-1a trailer.
pub fn encode_record(seq: u64, record: &WalRecord) -> Vec<u8> {
    let mut payload = Vec::new();
    match record {
        WalRecord::DatasetRegistered {
            name,
            total_eps,
            tenant,
        } => {
            payload.push(0x01);
            codec::put_u64(&mut payload, seq);
            codec::put_str(&mut payload, name);
            codec::put_f64(&mut payload, *total_eps);
            put_opt_str(&mut payload, tenant.as_deref());
        }
        WalRecord::TenantQuotaSet { tenant, cap } => {
            payload.push(0x02);
            codec::put_u64(&mut payload, seq);
            codec::put_str(&mut payload, tenant);
            codec::put_f64(&mut payload, *cap);
        }
        WalRecord::Budget {
            kind,
            dataset,
            tenant,
            eps,
            trace_id,
            unix_ms,
        } => {
            payload.push(budget_tag(*kind));
            codec::put_u64(&mut payload, seq);
            codec::put_u64(&mut payload, *trace_id);
            codec::put_u64(&mut payload, *unix_ms);
            codec::put_str(&mut payload, dataset);
            put_opt_str(&mut payload, tenant.as_deref());
            codec::put_f64(&mut payload, *eps);
        }
    }
    codec::seal(&mut payload);
    let mut out = Vec::with_capacity(payload.len() + 4);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Decodes one frame from the front of `bytes`, returning the sequence
/// number, the record, and the bytes consumed. Any truncation, checksum
/// mismatch, or semantic violation is a typed error — never a panic.
pub fn decode_record(bytes: &[u8]) -> Result<(u64, WalRecord, usize), WalError> {
    let corrupt = |what: &str| WalError::Corrupt(what.to_string());
    let Some((prefix, _)) = bytes.split_first_chunk::<4>() else {
        return Err(corrupt("frame shorter than its length prefix"));
    };
    let len = u32::from_le_bytes(*prefix);
    if !(9..=MAX_RECORD_BYTES).contains(&len) {
        return Err(corrupt("implausible record length"));
    }
    let end = 4 + len as usize;
    if bytes.len() < end {
        return Err(corrupt("frame body truncated"));
    }
    let payload = codec::open(&bytes[4..end]).map_err(|e| WalError::Corrupt(e.to_string()))?;
    let mut r = Reader::new(payload);
    let parse = |r: &mut Reader<'_>| -> Result<(u64, WalRecord), codec::CodecError> {
        let tag = r.u8()?;
        let seq = r.u64()?;
        let positive_finite = |v: f64, what: &'static str| {
            if v.is_finite() && v > 0.0 {
                Ok(v)
            } else {
                Err(codec::CodecError::Invalid(what))
            }
        };
        let record = match tag {
            0x01 => {
                let name = r.str()?;
                let total_eps = positive_finite(r.f64()?, "non-positive total_eps")?;
                let tenant = read_opt_str(r)?;
                WalRecord::DatasetRegistered {
                    name,
                    total_eps,
                    tenant,
                }
            }
            0x02 => {
                let tenant = r.str()?;
                let cap = r.f64()?;
                if cap.is_nan() || cap <= 0.0 {
                    return Err(codec::CodecError::Invalid("non-positive quota cap"));
                }
                WalRecord::TenantQuotaSet { tenant, cap }
            }
            0x10..=0x13 => {
                let kind = match tag {
                    0x10 => AuditKind::Reserve,
                    0x11 => AuditKind::Commit,
                    0x12 => AuditKind::Refund,
                    _ => AuditKind::Deny,
                };
                let trace_id = r.u64()?;
                let unix_ms = r.u64()?;
                let dataset = r.str()?;
                let tenant = read_opt_str(r)?;
                let eps = positive_finite(r.f64()?, "non-positive eps")?;
                WalRecord::Budget {
                    kind,
                    dataset,
                    tenant,
                    eps,
                    trace_id,
                    unix_ms,
                }
            }
            tag => return Err(codec::CodecError::BadTag { tag }),
        };
        r.expect_end()?;
        Ok((seq, record))
    };
    let (seq, record) = parse(&mut r).map_err(|e| WalError::Corrupt(e.to_string()))?;
    Ok((seq, record, end))
}

// ---------------------------------------------------------------------------
// Snapshot codec (docs/DURABILITY.md §3)
// ---------------------------------------------------------------------------

/// Serializes the materialized state as a snapshot file image: the magic,
/// the last covered sequence number, the dataset and tenant tables, sealed.
pub fn encode_snapshot(state: &RecoveredState, last_seq: u64) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    codec::put_u64(&mut out, last_seq);
    codec::put_usize(&mut out, state.datasets.len());
    for (name, d) in &state.datasets {
        codec::put_str(&mut out, name);
        codec::put_f64(&mut out, d.total_eps);
        codec::put_f64(&mut out, d.spent);
        put_opt_str(&mut out, d.tenant.as_deref());
    }
    codec::put_usize(&mut out, state.tenants.len());
    for (name, t) in &state.tenants {
        codec::put_str(&mut out, name);
        codec::put_f64(&mut out, t.cap);
        codec::put_f64(&mut out, t.spent);
    }
    codec::seal(&mut out);
    out
}

/// Decodes a snapshot file image back into `(state, last_seq)`.
pub fn decode_snapshot(bytes: &[u8]) -> Result<(RecoveredState, u64), WalError> {
    let fail = |e: codec::CodecError| WalError::Corrupt(format!("snapshot: {e}"));
    let payload = codec::open(bytes).map_err(fail)?;
    let mut r = Reader::new(payload);
    let parse = |r: &mut Reader<'_>| -> Result<(RecoveredState, u64), codec::CodecError> {
        if r.take(SNAPSHOT_MAGIC.len())? != SNAPSHOT_MAGIC {
            return Err(codec::CodecError::BadMagic);
        }
        let last_seq = r.u64()?;
        let mut state = RecoveredState::default();
        let spent_ok = |v: f64| v.is_finite() && v >= 0.0;
        for _ in 0..r.count()? {
            let name = r.str()?;
            let total_eps = r.f64()?;
            let spent = r.f64()?;
            let tenant = read_opt_str(r)?;
            if total_eps.is_nan() || total_eps <= 0.0 || !spent_ok(spent) {
                return Err(codec::CodecError::Invalid("snapshot dataset ledger"));
            }
            state.datasets.insert(
                name,
                RecoveredDataset {
                    total_eps,
                    spent,
                    tenant,
                },
            );
        }
        for _ in 0..r.count()? {
            let name = r.str()?;
            let cap = r.f64()?;
            let spent = r.f64()?;
            if cap.is_nan() || cap <= 0.0 || !spent_ok(spent) {
                return Err(codec::CodecError::Invalid("snapshot tenant quota"));
            }
            state.tenants.insert(name, RecoveredTenant { cap, spent });
        }
        r.expect_end()?;
        Ok((state, last_seq))
    };
    parse(&mut r).map_err(fail)
}

// ---------------------------------------------------------------------------
// Replay (docs/DURABILITY.md §4)
// ---------------------------------------------------------------------------

/// Reconstructs ledger state from raw `snapshot.bin` and `wal.log` bytes —
/// the pure core of [`Wal::open`], usable directly for crash testing (feed
/// it every truncation of a log and assert the recovered spend floor).
///
/// A corrupt **snapshot** is an error: it is the base the log builds on, and
/// serving without it would under-count spend. An invalid **log record**
/// ends replay at the last valid prefix (`summary.torn_tail`); this is the
/// expected shape of a crash mid-append.
pub fn replay(
    snapshot: Option<&[u8]>,
    log: &[u8],
) -> Result<(RecoveredState, ReplaySummary), WalError> {
    let (mut state, snap_seq) = match snapshot {
        Some(bytes) => decode_snapshot(bytes)?,
        None => (RecoveredState::default(), 0),
    };
    let mut summary = ReplaySummary {
        last_seq: snap_seq,
        ..Default::default()
    };
    // A log shorter than its header is what a crash between `create` and the
    // header write leaves behind: an empty log, not corruption. A *wrong*
    // header is corruption — this file is not (or no longer) a WAL.
    if log.len() < LOG_MAGIC.len() {
        summary.torn_tail = !log.is_empty();
        return Ok((state, summary));
    }
    if log[..LOG_MAGIC.len()] != LOG_MAGIC {
        return Err(WalError::Corrupt("log header magic mismatch".into()));
    }
    let mut pos = LOG_MAGIC.len();
    while pos < log.len() {
        match decode_record(&log[pos..]) {
            Ok((seq, record, used)) => {
                // The snapshot already covers sequences ≤ its last_seq: a
                // crash between snapshot rename and log truncation leaves
                // those records behind, and replaying them again would
                // double-count. Skipping by sequence makes the pair
                // idempotent (§4.3).
                if seq > snap_seq {
                    state.apply(&record);
                    summary.replayed += 1;
                    summary.last_seq = summary.last_seq.max(seq);
                } else {
                    summary.skipped += 1;
                }
                pos += used;
            }
            Err(_) => {
                summary.torn_tail = true;
                break;
            }
        }
    }
    summary.valid_len = pos;
    Ok((state, summary))
}

// ---------------------------------------------------------------------------
// The live WAL
// ---------------------------------------------------------------------------

/// Counters the ledger log exports through `Engine::metrics()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalMetrics {
    /// Records appended since open.
    pub appends: u64,
    /// fsyncs issued (commits, administrative records, snapshots).
    pub fsyncs: u64,
    /// Snapshots taken since open (each also truncated the log).
    pub snapshots: u64,
    /// Appends or snapshots that failed at the filesystem and were absorbed
    /// (the in-memory ledger stays authoritative; durability is degraded).
    pub append_errors: u64,
    /// Records replayed from the log tail at open.
    pub recovery_replayed: u64,
    /// Whether open found (and trimmed) a torn final record.
    pub recovery_torn_tail: bool,
    /// Current log length in bytes, header included.
    pub log_bytes: u64,
    /// Records a saturated subscriber channel did not receive.
    pub subscriber_drops: u64,
}

/// Records every ledger log keeps in memory, durable or not: what
/// [`Wal::recent`] and `/audit.jsonl` return.
pub const TAIL_CAPACITY: usize = 1024;

/// How many records a subscriber channel buffers before the log stops
/// sending to it: a slow subscriber loses records (counted) rather than
/// stalling the serving path.
const SUBSCRIBER_BUFFER: usize = 1024;

/// The open `wal.log` of a durable log and the state replaying it gives.
struct LogFile {
    dir: PathBuf,
    file: File,
    state: RecoveredState,
    since_snapshot: u64,
    log_bytes: u64,
    /// Set when a failed append could not be rolled back: the file may hold
    /// a partial frame that later appends would bury behind garbage, so the
    /// WAL fail-stops — every subsequent append and snapshot errors out
    /// (docs/DURABILITY.md §4.5).
    poisoned: bool,
}

struct WalInner {
    /// `None` for a memory-only log.
    disk: Option<LogFile>,
    next_seq: u64,
    /// The last [`TAIL_CAPACITY`] records, oldest first.
    tail: VecDeque<(u64, WalRecord)>,
    subscribers: Vec<SyncSender<(u64, WalRecord)>>,
}

/// WAL records between the engine's automatic snapshots (each snapshot also
/// truncates the log).
pub(crate) const SNAPSHOT_EVERY: u64 = 1024;

/// The engine's one ledger log: every budget transition and administrative
/// record, durable (`wal.log` and `snapshot.bin` inside its directory) or
/// memory-only. All appends serialize through one mutex — correctness
/// wants the record order to *be* the apply order, and the commit-path
/// fsync dominates the hold time anyway.
pub struct Wal {
    snapshot_every: u64,
    inner: Mutex<WalInner>,
    recovered: RecoveredState,
    recovery_replayed: u64,
    recovery_torn_tail: bool,
    appends: AtomicU64,
    fsyncs: AtomicU64,
    snapshots: AtomicU64,
    append_errors: AtomicU64,
    subscriber_drops: AtomicU64,
    /// Fault injection for the append path: 0 = off, 1 = fail before
    /// writing, 2 = write half the frame then fail (a torn append).
    #[cfg(test)]
    pub(crate) fail_appends: AtomicU64,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("snapshot_every", &self.snapshot_every)
            .field("appends", &self.appends)
            .finish()
    }
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
pub fn now_unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

fn poisoned() -> WalError {
    WalError::Io("WAL poisoned: an earlier failed append could not be rolled back".into())
}

impl Wal {
    /// Opens (or creates) the WAL in `dir`, running recovery: load
    /// `snapshot.bin` if present, replay the log tail, trim a torn final
    /// record, and position the writer after the last valid byte. The
    /// recovered ledger state is available from [`Wal::recovered`] — the
    /// engine applies it **before serving its first query**.
    ///
    /// `snapshot_every` is the append count between automatic snapshots
    /// (0 disables automatic snapshotting).
    pub fn open(dir: impl Into<PathBuf>, snapshot_every: u64) -> Result<Wal, WalError> {
        let dir = dir.into();
        let io = |e: std::io::Error| WalError::Io(e.to_string());
        std::fs::create_dir_all(&dir).map_err(io)?;

        // Sweep snapshot temp files a crash between create and rename left
        // behind: recovery never reads them, and removing them here keeps
        // restarts from accumulating stale `snapshot.tmp.<pid>` debris (and
        // rules out a recycled pid colliding with one mid-write).
        if let Ok(entries) = std::fs::read_dir(&dir) {
            for entry in entries.flatten() {
                if entry
                    .file_name()
                    .to_string_lossy()
                    .starts_with("snapshot.tmp.")
                {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }

        let snap_path = dir.join("snapshot.bin");
        let snapshot = match std::fs::read(&snap_path) {
            Ok(bytes) => Some(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(io(e)),
        };
        let log_path = dir.join("wal.log");
        let log = match std::fs::read(&log_path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io(e)),
        };
        let (state, summary) = replay(snapshot.as_deref(), &log)?;

        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&log_path)
            .map_err(io)?;
        // Trim the torn tail (and any pre-header fragment) so new appends
        // continue the valid prefix instead of burying records behind
        // garbage the next recovery would stop at.
        let valid_len = if log.len() < LOG_MAGIC.len() {
            file.set_len(0).map_err(io)?;
            file.write_all(&LOG_MAGIC).map_err(io)?;
            file.sync_data().map_err(io)?;
            LOG_MAGIC.len() as u64
        } else {
            let len = summary.valid_len as u64;
            if len < log.len() as u64 {
                file.set_len(len).map_err(io)?;
                file.sync_data().map_err(io)?;
            }
            len
        };
        file.seek(SeekFrom::Start(valid_len)).map_err(io)?;

        let disk = LogFile {
            dir,
            file,
            state: state.clone(),
            since_snapshot: 0,
            log_bytes: valid_len,
            poisoned: false,
        };
        Ok(Wal::with(Some(disk), snapshot_every, state, summary))
    }

    /// A memory-only log: no file, no encoding, no replayed state — only the
    /// sequence numbers, the tail and the subscribers.
    pub fn in_memory() -> Wal {
        Wal::with(None, 0, RecoveredState::default(), ReplaySummary::default())
    }

    fn with(
        disk: Option<LogFile>,
        snapshot_every: u64,
        recovered: RecoveredState,
        summary: ReplaySummary,
    ) -> Wal {
        Wal {
            snapshot_every,
            inner: Mutex::new(WalInner {
                disk,
                next_seq: summary.last_seq + 1,
                tail: VecDeque::new(),
                subscribers: Vec::new(),
            }),
            recovered,
            recovery_replayed: summary.replayed,
            recovery_torn_tail: summary.torn_tail,
            appends: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            append_errors: AtomicU64::new(0),
            subscriber_drops: AtomicU64::new(0),
            #[cfg(test)]
            fail_appends: AtomicU64::new(0),
        }
    }

    /// The ledger state recovery reconstructed at open (snapshot + log
    /// tail). Empty on a fresh directory and for a memory-only log.
    pub fn recovered(&self) -> &RecoveredState {
        &self.recovered
    }

    /// Appends one record: assigns its sequence number, writes the frame
    /// (fsyncing when the record demands it; [`WalRecord`] kinds document
    /// the policy), applies it to the materialized state, snapshots +
    /// truncates when the snapshot interval is reached, and hands the record
    /// to the tail and the subscribers. A memory-only log does only the
    /// first and the last step.
    ///
    /// The caller decides what a failure means: registration rolls back,
    /// a reserve fails the request before noise is drawn, a commit/refund
    /// absorbs it (counted in [`WalMetrics::append_errors`]) because the
    /// in-memory transition has already happened. A record whose write
    /// failed takes no sequence number and never reaches the tail.
    ///
    /// A failed write is rolled back: the file is truncated to the last
    /// known-good offset so a partial frame never sits in front of later
    /// records (recovery stops at the first invalid frame and would silently
    /// drop everything after it). If that rollback itself fails, the WAL is
    /// poisoned — every later append and snapshot fail-stops rather than
    /// appending behind garbage (docs/DURABILITY.md §4.5).
    pub fn append(&self, record: &WalRecord) -> Result<(), WalError> {
        self.push(record.clone())
    }

    /// [`Wal::append`] of an owned record, which the tail keeps as is.
    pub(crate) fn push(&self, record: WalRecord) -> Result<(), WalError> {
        let mut guard = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let inner = &mut *guard;
        let seq = inner.next_seq;
        let mut snapshot = Ok(());
        if let Some(disk) = &mut inner.disk {
            self.write(disk, seq, &record)?;
            if self.snapshot_every > 0 && disk.since_snapshot >= self.snapshot_every {
                snapshot = self.snapshot_locked(disk, seq).inspect_err(|_| {
                    self.append_errors.fetch_add(1, Ordering::Relaxed);
                });
            }
        }
        inner.next_seq += 1;
        self.appends.fetch_add(1, Ordering::Relaxed);
        inner
            .subscribers
            .retain(|tx| match tx.try_send((seq, record.clone())) {
                Ok(()) => true,
                Err(TrySendError::Full(_)) => {
                    // Slow subscriber: drop the record for it, keep the channel.
                    self.subscriber_drops.fetch_add(1, Ordering::Relaxed);
                    true
                }
                Err(TrySendError::Disconnected(_)) => false,
            });
        if inner.tail.len() == TAIL_CAPACITY {
            inner.tail.pop_front();
        }
        inner.tail.push_back((seq, record));
        snapshot
    }

    /// Writes one frame to `wal.log` and applies it to the materialized
    /// state, rolling a failed write back (see [`Wal::append`]).
    fn write(&self, disk: &mut LogFile, seq: u64, record: &WalRecord) -> Result<(), WalError> {
        if disk.poisoned {
            self.append_errors.fetch_add(1, Ordering::Relaxed);
            return Err(poisoned());
        }
        let frame = encode_record(seq, record);
        let result = (|| -> std::io::Result<()> {
            #[cfg(test)]
            match self.fail_appends.load(Ordering::Relaxed) {
                1 => return Err(std::io::Error::other("injected append failure")),
                2 => {
                    disk.file.write_all(&frame[..frame.len() / 2])?;
                    return Err(std::io::Error::other("injected torn append"));
                }
                _ => {}
            }
            disk.file.write_all(&frame)?;
            if record.durable() {
                disk.file.sync_data()?;
                self.fsyncs.fetch_add(1, Ordering::Relaxed);
            }
            Ok(())
        })();
        if let Err(e) = result {
            self.append_errors.fetch_add(1, Ordering::Relaxed);
            // Roll the file back to the last known-good offset: commit and
            // refund callers absorb this error and keep appending, and those
            // later records must not land behind a partial frame.
            let good_len = disk.log_bytes;
            let rollback = disk
                .file
                .set_len(good_len)
                .and_then(|()| disk.file.seek(SeekFrom::Start(good_len)))
                .map(|_| ());
            if rollback.is_err() {
                disk.poisoned = true;
            }
            return Err(WalError::Io(e.to_string()));
        }
        disk.log_bytes += frame.len() as u64;
        disk.state.apply(record);
        disk.since_snapshot += 1;
        Ok(())
    }

    /// Takes a snapshot now (serialize state, fsync, rename, truncate the
    /// log), regardless of the automatic interval. A no-op for a
    /// memory-only log.
    pub fn snapshot_now(&self) -> Result<(), WalError> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let last_seq = inner.next_seq - 1;
        match &mut inner.disk {
            Some(disk) => self.snapshot_locked(disk, last_seq),
            None => Ok(()),
        }
    }

    /// `docs/DURABILITY.md` §5.2: tmp-write + fsync + rename, then truncate
    /// the log back to its header. A crash at any point leaves either the
    /// old snapshot + full log, or the new snapshot + a log whose records
    /// are all ≤ `last_seq` and therefore skipped on replay.
    fn snapshot_locked(&self, disk: &mut LogFile, last_seq: u64) -> Result<(), WalError> {
        if disk.poisoned {
            return Err(poisoned());
        }
        let io = |e: std::io::Error| WalError::Io(e.to_string());
        let bytes = encode_snapshot(&disk.state, last_seq);
        let final_path = disk.dir.join("snapshot.bin");
        let tmp = disk
            .dir
            .join(format!("snapshot.tmp.{}", std::process::id()));
        let write = || -> std::io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
            std::fs::rename(&tmp, &final_path)?;
            // Make the rename itself durable before truncating the log it
            // supersedes (best-effort: not all filesystems support dir sync).
            if let Ok(d) = File::open(&disk.dir) {
                let _ = d.sync_all();
            }
            Ok(())
        };
        write().map_err(io)?;
        disk.file.set_len(LOG_MAGIC.len() as u64).map_err(io)?;
        disk.file
            .seek(SeekFrom::Start(LOG_MAGIC.len() as u64))
            .map_err(io)?;
        disk.file.sync_data().map_err(io)?;
        disk.log_bytes = LOG_MAGIC.len() as u64;
        disk.since_snapshot = 0;
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        self.fsyncs.fetch_add(2, Ordering::Relaxed);
        Ok(())
    }

    /// Subscribes to all *future* records. The returned receiver buffers a
    /// bounded number of records; if the subscriber falls further behind,
    /// records are dropped for it ([`WalMetrics::subscriber_drops`]) rather
    /// than stalling appenders. Dropping the receiver unsubscribes.
    pub fn subscribe(&self) -> Receiver<(u64, WalRecord)> {
        let (tx, rx) = std::sync::mpsc::sync_channel(SUBSCRIBER_BUFFER);
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .subscribers
            .push(tx);
        rx
    }

    /// The retained tail as `(seq, record)` pairs, oldest first.
    pub fn recent(&self) -> Vec<(u64, WalRecord)> {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.tail.iter().cloned().collect()
    }

    /// The retained tail as JSONL ([`WalRecord::to_json`], one record per
    /// line, oldest first).
    pub fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        for (seq, record) in self.recent() {
            out.push_str(&record.to_json(seq));
            out.push('\n');
        }
        out
    }

    /// A point-in-time copy of the log's counters.
    pub fn metrics(&self) -> WalMetrics {
        let log_bytes = self
            .inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .disk
            .as_ref()
            .map_or(0, |d| d.log_bytes);
        WalMetrics {
            appends: self.appends.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            append_errors: self.append_errors.load(Ordering::Relaxed),
            recovery_replayed: self.recovery_replayed,
            recovery_torn_tail: self.recovery_torn_tail,
            log_bytes,
            subscriber_drops: self.subscriber_drops.load(Ordering::Relaxed),
        }
    }
}

/// The ledger log as its readers see it ([`crate::Engine::audit`]): the
/// retained tail and live subscription, but no append, so nothing outside
/// the engine can write a record that replay would apply.
#[derive(Debug, Clone, Copy)]
pub struct AuditTail<'a>(pub(crate) &'a Wal);

impl AuditTail<'_> {
    /// [`Wal::recent`].
    pub fn recent(&self) -> Vec<(u64, WalRecord)> {
        self.0.recent()
    }

    /// [`Wal::subscribe`].
    pub fn subscribe(&self) -> Receiver<(u64, WalRecord)> {
        self.0.subscribe()
    }

    /// [`Wal::dump_jsonl`].
    pub fn dump_jsonl(&self) -> String {
        self.0.dump_jsonl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hdmm-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn budget(kind: AuditKind, dataset: &str, eps: f64) -> WalRecord {
        WalRecord::Budget {
            kind,
            dataset: dataset.into(),
            tenant: None,
            eps,
            trace_id: 42,
            unix_ms: 1,
        }
    }

    #[test]
    fn records_round_trip_every_kind() {
        let records = [
            WalRecord::DatasetRegistered {
                name: "census".into(),
                total_eps: 2.0,
                tenant: Some("acme".into()),
            },
            WalRecord::DatasetRegistered {
                name: "taxi".into(),
                total_eps: 1.0,
                tenant: None,
            },
            WalRecord::TenantQuotaSet {
                tenant: "acme".into(),
                cap: f64::INFINITY,
            },
            budget(AuditKind::Reserve, "census", 0.25),
            budget(AuditKind::Commit, "census", 0.25),
            budget(AuditKind::Refund, "census", 0.25),
            budget(AuditKind::Deny, "census", 9.0),
        ];
        for (i, rec) in records.iter().enumerate() {
            let frame = encode_record(i as u64, rec);
            let (seq, back, used) = decode_record(&frame).expect("decodes");
            assert_eq!((seq, used), (i as u64, frame.len()));
            assert_eq!(&back, rec);
        }
    }

    #[test]
    fn record_corruption_is_typed_at_every_truncation_and_flip() {
        let frame = encode_record(3, &budget(AuditKind::Reserve, "d", 0.5));
        for cut in 0..frame.len() {
            assert!(decode_record(&frame[..cut]).is_err(), "cut at {cut}");
        }
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0xFF;
            // The FNV trailer covers the payload and the length prefix
            // determines what the trailer is checked against, so no
            // single-byte flip can decode successfully.
            assert!(decode_record(&bad).is_err(), "flip at {i} decoded");
        }
    }

    #[test]
    fn replay_counts_dangling_reserves_as_spent() {
        let mut state = RecoveredState::default();
        state.apply(&WalRecord::DatasetRegistered {
            name: "d".into(),
            total_eps: 1.0,
            tenant: Some("t".into()),
        });
        state.apply(&budget(AuditKind::Reserve, "d", 0.25));
        assert_eq!(state.datasets["d"].spent, 0.25);
        // Commit does not double-count.
        state.apply(&budget(AuditKind::Commit, "d", 0.25));
        assert_eq!(state.datasets["d"].spent, 0.25);
        // A refunded reserve nets to zero.
        state.apply(&budget(AuditKind::Reserve, "d", 0.5));
        state.apply(&budget(AuditKind::Refund, "d", 0.5));
        assert_eq!(state.datasets["d"].spent, 0.25);
        // Deny never moves the ledger.
        state.apply(&budget(AuditKind::Deny, "d", 7.0));
        assert_eq!(state.datasets["d"].spent, 0.25);
    }

    #[test]
    fn snapshot_round_trips_and_rejects_corruption() {
        let mut state = RecoveredState::default();
        state.datasets.insert(
            "d".into(),
            RecoveredDataset {
                total_eps: 2.0,
                spent: 0.75,
                tenant: Some("acme".into()),
            },
        );
        state.tenants.insert(
            "acme".into(),
            RecoveredTenant {
                cap: f64::INFINITY,
                spent: 0.75,
            },
        );
        let bytes = encode_snapshot(&state, 11);
        let (back, seq) = decode_snapshot(&bytes).expect("round trip");
        assert_eq!(seq, 11);
        assert_eq!(back, state);
        for cut in 0..bytes.len() {
            assert!(decode_snapshot(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut flipped = bytes.clone();
        flipped[10] ^= 0x01;
        assert!(decode_snapshot(&flipped).is_err());
    }

    #[test]
    fn open_append_reopen_recovers_exactly() {
        let dir = tmp_dir("reopen");
        {
            let wal = Wal::open(&dir, 0).unwrap();
            wal.append(&WalRecord::DatasetRegistered {
                name: "d".into(),
                total_eps: 1.0,
                tenant: None,
            })
            .unwrap();
            wal.append(&budget(AuditKind::Reserve, "d", 0.25)).unwrap();
            wal.append(&budget(AuditKind::Commit, "d", 0.25)).unwrap();
            let m = wal.metrics();
            assert_eq!(m.appends, 3);
            assert!(m.fsyncs >= 2, "registration + commit fsync");
        }
        let wal = Wal::open(&dir, 0).unwrap();
        let st = wal.recovered();
        assert_eq!(st.datasets["d"].spent, 0.25);
        assert_eq!(wal.metrics().recovery_replayed, 3);
        assert!(!wal.metrics().recovery_torn_tail);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn torn_tail_is_trimmed_and_appending_continues() {
        let dir = tmp_dir("torn");
        {
            let wal = Wal::open(&dir, 0).unwrap();
            wal.append(&budget(AuditKind::Reserve, "d", 0.5)).unwrap();
            wal.append(&budget(AuditKind::Commit, "d", 0.5)).unwrap();
        }
        // Simulate a crash mid-append: half a frame of garbage at the tail.
        let log_path = dir.join("wal.log");
        let mut bytes = std::fs::read(&log_path).unwrap();
        let clean_len = bytes.len();
        bytes.extend_from_slice(&[0x55; 7]);
        std::fs::write(&log_path, &bytes).unwrap();

        let wal = Wal::open(&dir, 0).unwrap();
        assert!(wal.metrics().recovery_torn_tail);
        assert_eq!(wal.recovered().datasets["d"].spent, 0.5);
        assert_eq!(
            std::fs::metadata(&log_path).unwrap().len(),
            clean_len as u64,
            "the torn tail must be trimmed"
        );
        // New appends land on the valid prefix and replay cleanly.
        wal.append(&budget(AuditKind::Reserve, "d", 0.25)).unwrap();
        drop(wal);
        let wal = Wal::open(&dir, 0).unwrap();
        assert!((wal.recovered().datasets["d"].spent - 0.75).abs() < 1e-12);
        assert!(!wal.metrics().recovery_torn_tail);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn snapshot_truncates_log_and_replay_is_idempotent() {
        let dir = tmp_dir("snap");
        {
            let wal = Wal::open(&dir, 4).unwrap();
            wal.append(&WalRecord::DatasetRegistered {
                name: "d".into(),
                total_eps: 10.0,
                tenant: None,
            })
            .unwrap();
            for _ in 0..3 {
                wal.append(&budget(AuditKind::Reserve, "d", 0.5)).unwrap();
            }
            let m = wal.metrics();
            assert_eq!(m.snapshots, 1, "4th append crossed the interval");
            assert_eq!(m.log_bytes, LOG_MAGIC.len() as u64, "log truncated");
            // Two more appends after the snapshot.
            wal.append(&budget(AuditKind::Refund, "d", 0.5)).unwrap();
            wal.append(&budget(AuditKind::Reserve, "d", 0.25)).unwrap();
        }
        let wal = Wal::open(&dir, 4).unwrap();
        let spent = wal.recovered().datasets["d"].spent;
        assert!((spent - 1.25).abs() < 1e-12, "snapshot + tail = {spent}");
        assert_eq!(wal.metrics().recovery_replayed, 2, "only the tail replays");

        // A crash between snapshot-rename and truncation leaves old records
        // in the log; their sequences are covered and must be skipped.
        let log_path = dir.join("wal.log");
        let mut log = std::fs::read(&log_path).unwrap();
        log.extend(encode_record(2, &budget(AuditKind::Reserve, "d", 0.5)));
        std::fs::write(&log_path, &log).unwrap();
        let wal = Wal::open(&dir, 4).unwrap();
        let spent = wal.recovered().datasets["d"].spent;
        assert!(
            (spent - 1.25).abs() < 1e-12,
            "covered sequence replayed twice: {spent}"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn bad_header_is_corrupt_not_silently_empty() {
        let dir = tmp_dir("badmagic");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("wal.log"), b"NOTAWAL1plusdata").unwrap();
        assert!(matches!(Wal::open(&dir, 0), Err(WalError::Corrupt(_)),));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn failed_append_rolls_back_so_later_records_survive_recovery() {
        let dir = tmp_dir("rollback");
        {
            let wal = Wal::open(&dir, 0).unwrap();
            wal.append(&budget(AuditKind::Reserve, "d", 0.25)).unwrap();
            // A torn append: half the frame reaches the file, then the
            // write "fails". §4.5 requires the partial frame be truncated
            // away so the next append continues the valid prefix.
            wal.fail_appends.store(2, Ordering::Relaxed);
            assert!(wal.append(&budget(AuditKind::Reserve, "d", 0.5)).is_err());
            wal.fail_appends.store(0, Ordering::Relaxed);
            wal.append(&budget(AuditKind::Reserve, "d", 0.125)).unwrap();
            assert_eq!(wal.metrics().append_errors, 1);
        }
        let wal = Wal::open(&dir, 0).unwrap();
        let m = wal.metrics();
        assert!(!m.recovery_torn_tail, "partial frame was not rolled back");
        assert_eq!(m.recovery_replayed, 2, "record after the failure was lost");
        let spent = wal.recovered().datasets["d"].spent;
        assert!((spent - 0.375).abs() < 1e-12, "recovered spent = {spent}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn open_sweeps_stale_snapshot_tmp_files() {
        let dir = tmp_dir("tmpsweep");
        std::fs::create_dir_all(&dir).unwrap();
        let stale = dir.join("snapshot.tmp.999999");
        std::fs::write(&stale, b"half-written junk").unwrap();
        let wal = Wal::open(&dir, 0).unwrap();
        assert!(!stale.exists(), "stale snapshot temp file survived open");
        // The sweep touched nothing recovery cares about.
        assert_eq!(wal.recovered(), &RecoveredState::default());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn memory_log_keeps_a_bounded_tail_and_feeds_subscribers() {
        let log = Wal::in_memory();
        log.append(&budget(AuditKind::Reserve, "d", 0.1)).unwrap();
        let rx = log.subscribe();
        for _ in 0..TAIL_CAPACITY {
            log.append(&budget(AuditKind::Commit, "d", 0.1)).unwrap();
        }
        let tail = log.recent();
        assert_eq!(tail.len(), TAIL_CAPACITY, "the tail keeps the newest");
        assert_eq!(tail[0].0, 2, "seq 1 was evicted");
        assert_eq!(tail[TAIL_CAPACITY - 1].0, TAIL_CAPACITY as u64 + 1);
        // The subscriber sees only records after it subscribed, in order.
        let got = rx.try_recv().unwrap();
        assert_eq!(got, (2, budget(AuditKind::Commit, "d", 0.1)));
        drop(rx);
        log.snapshot_now().unwrap();
        log.append(&budget(AuditKind::Refund, "d", 0.1)).unwrap();
        let m = log.metrics();
        assert_eq!(
            (m.appends, m.fsyncs, m.snapshots),
            (TAIL_CAPACITY as u64 + 2, 0, 0)
        );
        assert_eq!((m.log_bytes, m.subscriber_drops), (0, 0));
        assert_eq!(log.dump_jsonl().lines().count(), TAIL_CAPACITY);
    }

    #[test]
    fn json_lines_escape_and_render_nonfinite_as_null() {
        let record = WalRecord::Budget {
            kind: AuditKind::Deny,
            dataset: "we\"ird\n".into(),
            tenant: Some("acme".into()),
            eps: 0.25,
            trace_id: 0xabc,
            unix_ms: 1,
        };
        assert_eq!(
            record.to_json(3),
            "{\"seq\":3,\"kind\":\"deny\",\"unix_ms\":1,\"trace_id\":\"0000000000000abc\",\
             \"dataset\":\"we\\\"ird\\n\",\"tenant\":\"acme\",\"eps\":0.25}"
        );
        let quota = WalRecord::TenantQuotaSet {
            tenant: "acme".into(),
            cap: f64::INFINITY,
        };
        assert_eq!(
            quota.to_json(4),
            "{\"seq\":4,\"kind\":\"tenant_quota_set\",\"tenant\":\"acme\",\"cap\":null}"
        );
    }

    #[test]
    fn corrupt_snapshot_refuses_to_open() {
        let dir = tmp_dir("badsnap");
        {
            let wal = Wal::open(&dir, 0).unwrap();
            wal.append(&budget(AuditKind::Reserve, "d", 0.5)).unwrap();
            wal.snapshot_now().unwrap();
        }
        let snap = dir.join("snapshot.bin");
        let mut bytes = std::fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&snap, &bytes).unwrap();
        assert!(matches!(Wal::open(&dir, 0), Err(WalError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(dir);
    }
}
