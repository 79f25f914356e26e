//! Wire frames for shard-task RPC: length-prefixed, checksummed, typed,
//! versioned.
//!
//! A frame on the wire is `[len: u32 LE][payload][checksum: u64 LE]`, where
//! `len` covers the payload plus its checksum trailer and the payload is
//! `[magic "HNW"][version: u8][ext?][kind: u8][body]` encoded through the
//! shared [`hdmm_core::codec`] — the same encode/decode path and FNV-1a
//! checksum that seals [`PlanStore`] files, so there is exactly one binary
//! codec in the system. The length prefix is sanity-bounded by
//! [`MAX_FRAME_BYTES`] before any allocation: a corrupt or hostile length
//! yields a typed [`NetError::Oversized`], never a multi-gigabyte buffer.
//!
//! **Versioning.** The byte after the `"HNW"` tag says whether a frame
//! carries a trace extension:
//!
//! * version `'1'` — no extension, `kind` immediately follows the magic;
//! * version `'2'` — a [`TraceExt`] (trace id, parent span id, and — on
//!   responses — worker-side [`WireSpan`]s) sits between the version byte
//!   and `kind`. A v2 frame with `trace_id == 0` is explicitly "untraced".
//!
//! Both decode through [`decode_frame_ext`]. The coordinator sends v2 for a
//! traced call and v1 for an untraced one; workers answer in the version
//! the request arrived in. There is no negotiation: every peer reads both.
//!
//! Every task frame is **pure and idempotent** — a `SlabForward` or `Apply`
//! computes a deterministic function of its inputs and mutates nothing — so
//! the client may retry at-least-once on timeout without coordination.
//!
//! **Keyed operands.** A strategy is a few small per-attribute factors while
//! the vectors are what is big, so trailing-factor lists are worker-resident
//! operands exactly like slabs: the coordinator names a list by its
//! [`FactorKey`] (content checksum + encoded length), pushes it to a worker
//! once with [`Frame::LoadFactors`], and from then on sends
//! [`Frame::SlabForwardKeyed`] / [`Frame::ApplyKeyed`] tasks that carry only
//! the key plus a slab reference or a payload. A worker that does not hold
//! the key (it restarted, or evicted the list) answers a typed
//! [`ErrorCode::UnknownFactors`]; the coordinator re-pushes and retries, the
//! same choreography as [`ErrorCode::UnknownSlab`]. Because the key is the
//! content, a stale or colliding registration is impossible by construction:
//! `LoadFactors` frames whose key does not match their factor bytes do not
//! decode. The inline-factor `SlabForward` / `Apply` frames stay decodable
//! and served (a stateless fallback for older coordinators); this crate's
//! coordinator no longer emits them.
//!
//! [`PlanStore`]: https://docs.rs/hdmm-engine

use hdmm_core::codec::{self, CodecError, Reader};
use hdmm_linalg::StructuredMatrix;
use std::borrow::Borrow;
use std::io::{Read, Write};

/// Magic prefix of every frame payload: format tag + the v1 version byte.
/// Kept as the public name because v1 is the compatibility baseline.
pub const WIRE_MAGIC: &[u8; 4] = b"HNW1";

/// The version-independent format tag (the first three payload bytes).
pub const WIRE_PREFIX: &[u8; 3] = b"HNW";

/// Version byte of an extension-free (untraced) frame.
pub const PROTO_V1: u8 = b'1';

/// Version byte of a frame that carries a [`TraceExt`].
pub const PROTO_V2: u8 = b'2';

/// Upper bound on a frame's encoded size; length prefixes beyond this are
/// rejected before allocation. Generous: a 2^27-cell slab of `f64`s is 1 GiB.
pub const MAX_FRAME_BYTES: u64 = 1 << 30;

/// Upper bound on spans per [`TraceExt`]; a corrupt count is rejected before
/// allocation.
const MAX_EXT_SPANS: usize = 1 << 16;

/// One worker-side timed section, shipped back inside a response's
/// [`TraceExt`]. Only a name and a duration travel: worker clocks are not
/// comparable with the coordinator's, so the coordinator re-bases each span
/// onto its own timeline from the RPC attempt that carried it (span ids are
/// also assigned coordinator-side, keeping them unique within the trace).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSpan {
    /// Span name (`worker:forward`, `worker:apply`, `worker:load`).
    pub name: String,
    /// Duration in nanoseconds on the worker's clock.
    pub dur_ns: u64,
}

/// The v2 frame extension: trace identity on requests, plus worker-side
/// spans on responses.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceExt {
    /// Trace the request belongs to; 0 means "untraced" (the frame is v2
    /// for protocol reasons only).
    pub trace_id: u64,
    /// On requests: the coordinator span the worker's spans will be parented
    /// under. Echoed on responses.
    pub span_id: u64,
    /// Worker-side spans (responses only; empty on requests).
    pub spans: Vec<WireSpan>,
}

impl TraceExt {
    /// A request-side extension carrying just the trace identity.
    pub fn request(trace_id: u64, span_id: u64) -> TraceExt {
        TraceExt {
            trace_id,
            span_id,
            spans: Vec::new(),
        }
    }
}

fn put_ext(out: &mut Vec<u8>, ext: &TraceExt) {
    codec::put_u64(out, ext.trace_id);
    codec::put_u64(out, ext.span_id);
    codec::put_usize(out, ext.spans.len());
    for s in &ext.spans {
        codec::put_str(out, &s.name);
        codec::put_u64(out, s.dur_ns);
    }
}

fn read_ext(r: &mut Reader<'_>) -> Result<TraceExt, CodecError> {
    let trace_id = r.u64()?;
    let span_id = r.u64()?;
    let n = r.count()?;
    if n > MAX_EXT_SPANS {
        return Err(CodecError::Invalid("trace extension span count"));
    }
    let spans = (0..n)
        .map(|_| {
            Ok(WireSpan {
                name: r.str()?,
                dur_ns: r.u64()?,
            })
        })
        .collect::<Result<_, CodecError>>()?;
    Ok(TraceExt {
        trace_id,
        span_id,
        spans,
    })
}

/// Typed error taxonomy a worker can report back to the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The task itself failed (kernel panic, shape mismatch).
    Internal,
    /// The worker does not hold the requested slab (e.g. it restarted); the
    /// client re-pushes the slab and retries.
    UnknownSlab,
    /// The request was structurally invalid for this worker.
    BadTask,
    /// The worker does not hold the factor list a keyed task names (it
    /// restarted, or evicted the list); the client re-pushes the factors and
    /// retries.
    UnknownFactors,
}

impl ErrorCode {
    fn tag(self) -> u8 {
        match self {
            ErrorCode::Internal => 0,
            ErrorCode::UnknownSlab => 1,
            ErrorCode::BadTask => 2,
            ErrorCode::UnknownFactors => 3,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, CodecError> {
        match tag {
            0 => Ok(ErrorCode::Internal),
            1 => Ok(ErrorCode::UnknownSlab),
            2 => Ok(ErrorCode::BadTask),
            3 => Ok(ErrorCode::UnknownFactors),
            tag => Err(CodecError::BadTag { tag }),
        }
    }
}

/// Content key of a trailing-factor list: what keyed tasks send instead of
/// the factors themselves. Two lists share a key only if their encodings
/// agree in both checksum and length, so different factors never alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FactorKey {
    /// [`codec::checksum`] of the list's `put_structured_list` bytes.
    pub sum: u64,
    /// Length of those bytes — also what a worker charges against its
    /// resident-factor budget.
    pub len: u64,
}

impl FactorKey {
    /// Derives the key of a factor list (encodes and checksums it — do this
    /// once per plan, not per request).
    pub fn of<F: Borrow<StructuredMatrix>>(factors: &[F]) -> FactorKey {
        let mut bytes = Vec::new();
        codec::put_structured_list(&mut bytes, factors);
        FactorKey::of_encoded(&bytes)
    }

    fn of_encoded(bytes: &[u8]) -> FactorKey {
        FactorKey {
            sum: codec::checksum(bytes),
            len: bytes.len() as u64,
        }
    }
}

fn put_key(out: &mut Vec<u8>, key: FactorKey) {
    codec::put_u64(out, key.sum);
    codec::put_u64(out, key.len);
}

fn read_key(r: &mut Reader<'_>) -> Result<FactorKey, CodecError> {
    Ok(FactorKey {
        sum: r.u64()?,
        len: r.u64()?,
    })
}

/// Every message exchanged between coordinator and shard worker, both
/// directions (requests first, responses after).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Health probe; doubles as the registration handshake.
    Ping,
    /// Pushes one leading-axis slab (`rows` in leading-row coordinates) of a
    /// dataset to the worker. Idempotent: re-loading overwrites.
    LoadSlab {
        /// Dataset the slab belongs to.
        dataset: String,
        /// Shard index within the dataset's partition.
        shard: u64,
        /// Leading-axis row range `[start, end)` the slab covers.
        rows: (u64, u64),
        /// The slab's cells, row-major.
        values: Vec<f64>,
    },
    /// MEASURE phase 1: apply the trailing strategy factors to a slab the
    /// worker owns (raw data never travels for measurement tasks).
    SlabForward {
        /// Dataset whose slab to use.
        dataset: String,
        /// Shard index within the dataset's partition.
        shard: u64,
        /// Trailing factors, outermost first.
        factors: Vec<StructuredMatrix>,
    },
    /// RECONSTRUCT fan-out: apply trailing factors (forward or transposed)
    /// to a coordinator-resident payload block shipped with the task.
    Apply {
        /// `true` for the transposed kernel (`Aᵀ`-side passes).
        transpose: bool,
        /// Trailing factors, outermost first.
        factors: Vec<StructuredMatrix>,
        /// The payload block to contract.
        payload: Vec<f64>,
    },
    /// Pushes one trailing-factor list to the worker under its content key.
    /// Idempotent; answered by [`Frame::Loaded`].
    LoadFactors {
        /// Must equal [`FactorKey::of`] the list, or the frame does not
        /// decode.
        key: FactorKey,
        /// Trailing factors, outermost first.
        factors: Vec<StructuredMatrix>,
    },
    /// [`Frame::SlabForward`] with the trailing factors named by key.
    SlabForwardKeyed {
        /// Dataset whose slab to use.
        dataset: String,
        /// Shard index within the dataset's partition.
        shard: u64,
        /// Key of a factor list pushed with [`Frame::LoadFactors`].
        key: FactorKey,
    },
    /// [`Frame::Apply`] with the trailing factors named by key.
    ApplyKeyed {
        /// `true` for the transposed kernel (`Aᵀ`-side passes).
        transpose: bool,
        /// Key of a factor list pushed with [`Frame::LoadFactors`].
        key: FactorKey,
        /// The payload block to contract.
        payload: Vec<f64>,
    },
    /// Response to [`Frame::Ping`]: how many slabs the worker holds.
    Pong {
        /// Number of loaded slabs.
        slabs: u64,
    },
    /// Response to [`Frame::LoadSlab`] and [`Frame::LoadFactors`].
    Loaded,
    /// Successful task result: the per-slab partial product.
    Part {
        /// The computed values.
        values: Vec<f64>,
    },
    /// Typed task failure.
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Frame {
    /// Short name for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Frame::Ping => "ping",
            Frame::LoadSlab { .. } => "load-slab",
            Frame::SlabForward { .. } => "slab-forward",
            Frame::Apply { .. } => "apply",
            Frame::LoadFactors { .. } => "load-factors",
            Frame::SlabForwardKeyed { .. } => "slab-forward-keyed",
            Frame::ApplyKeyed { .. } => "apply-keyed",
            Frame::Pong { .. } => "pong",
            Frame::Loaded => "loaded",
            Frame::Part { .. } => "part",
            Frame::Error { .. } => "error",
        }
    }
}

/// Everything that can go wrong talking to a shard worker.
#[derive(Debug)]
pub enum NetError {
    /// Transport failure (connect, read, write, timeout).
    Io(std::io::Error),
    /// The bytes arrived but do not decode (corruption, version skew).
    Codec(CodecError),
    /// A length prefix exceeded [`MAX_FRAME_BYTES`]; rejected pre-allocation.
    Oversized {
        /// The claimed frame length.
        len: u64,
        /// The enforced maximum.
        max: u64,
    },
    /// The worker answered with a typed [`Frame::Error`].
    Remote {
        /// Failure class reported by the worker.
        code: ErrorCode,
        /// Worker-side detail.
        message: String,
    },
    /// The worker answered with the wrong frame kind.
    Unexpected {
        /// Kind of the frame actually received.
        got: &'static str,
    },
    /// No worker in the pool could run the task (all dead / pool empty).
    NoWorkers,
    /// The task shape cannot fan out remotely (e.g. slab boundaries
    /// misaligned with the leading factor); the caller should fall back to
    /// the local pipeline.
    Unsupported(&'static str),
    /// A fan-out thread panicked (in the observer — caller code); nothing
    /// was lost that a local re-run cannot redo.
    TaskPanicked,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport: {e}"),
            NetError::Codec(e) => write!(f, "frame decode: {e}"),
            NetError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds maximum {max}")
            }
            NetError::Remote { code, message } => {
                write!(f, "worker error ({code:?}): {message}")
            }
            NetError::Unexpected { got } => write!(f, "unexpected response frame: {got}"),
            NetError::NoWorkers => write!(f, "no live workers available"),
            NetError::Unsupported(what) => write!(f, "not remotable: {what}"),
            NetError::TaskPanicked => write!(f, "a shard task thread panicked"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> Self {
        NetError::Codec(e)
    }
}

/// Factor lists on the wire may be empty (a single-factor Kronecker strategy
/// has no trailing factors), unlike strategy factor lists in the shared
/// codec — hence a dedicated reader beside `codec::put_structured_list`.
fn read_factors(r: &mut Reader<'_>) -> Result<Vec<StructuredMatrix>, CodecError> {
    let n = r.count()?;
    (0..n).map(|_| r.structured()).collect()
}

/// A keyed task borrowed from coordinator memory: what the request path
/// encodes, so a payload is copied once — into the link's send buffer — and
/// never into an owned [`Frame`] first. Encodes to exactly the bytes of the
/// owned [`Frame::SlabForwardKeyed`] / [`Frame::ApplyKeyed`] it mirrors.
#[derive(Debug, Clone, Copy)]
pub(crate) enum KeyedTask<'a> {
    SlabForward {
        dataset: &'a str,
        shard: u64,
        key: FactorKey,
    },
    Apply {
        transpose: bool,
        key: FactorKey,
        payload: &'a [f64],
    },
}

fn put_keyed_task(out: &mut Vec<u8>, task: &KeyedTask<'_>) {
    match *task {
        KeyedTask::SlabForward {
            dataset,
            shard,
            key,
        } => {
            out.push(9);
            codec::put_str(out, dataset);
            codec::put_u64(out, shard);
            put_key(out, key);
        }
        KeyedTask::Apply {
            transpose,
            key,
            payload,
        } => {
            out.push(10);
            out.push(u8::from(transpose));
            put_key(out, key);
            codec::put_f64s(out, payload);
        }
    }
}

fn read_bool(r: &mut Reader<'_>) -> Result<bool, CodecError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        tag => Err(CodecError::BadTag { tag }),
    }
}

/// Encodes a v1 frame payload (magic + kind + body + checksum trailer)
/// without the stream length prefix — what [`decode_frame`] accepts.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    encode_frame_ext(frame, None)
}

/// Encodes a frame payload in the version implied by `ext`: `None` ⇒ the
/// legacy v1 bytes (identical to what pre-versioning builds emitted),
/// `Some` ⇒ v2 with the extension between version byte and kind.
pub fn encode_frame_ext(frame: &Frame, ext: Option<&TraceExt>) -> Vec<u8> {
    let mut out = Vec::new();
    put_header(&mut out, ext);
    put_body(&mut out, frame);
    codec::seal(&mut out);
    out
}

fn put_header(out: &mut Vec<u8>, ext: Option<&TraceExt>) {
    out.extend_from_slice(WIRE_PREFIX);
    match ext {
        None => out.push(PROTO_V1),
        Some(ext) => {
            out.push(PROTO_V2);
            put_ext(out, ext);
        }
    }
}

fn put_body(out: &mut Vec<u8>, frame: &Frame) {
    match frame {
        Frame::Ping => out.push(0),
        Frame::LoadSlab {
            dataset,
            shard,
            rows,
            values,
        } => {
            out.push(1);
            codec::put_str(out, dataset);
            codec::put_u64(out, *shard);
            codec::put_u64(out, rows.0);
            codec::put_u64(out, rows.1);
            codec::put_f64s(out, values);
        }
        Frame::SlabForward {
            dataset,
            shard,
            factors,
        } => {
            out.push(2);
            codec::put_str(out, dataset);
            codec::put_u64(out, *shard);
            codec::put_structured_list(out, factors);
        }
        Frame::Apply {
            transpose,
            factors,
            payload,
        } => {
            out.push(3);
            out.push(u8::from(*transpose));
            codec::put_structured_list(out, factors);
            codec::put_f64s(out, payload);
        }
        Frame::Pong { slabs } => {
            out.push(4);
            codec::put_u64(out, *slabs);
        }
        Frame::Loaded => out.push(5),
        Frame::Part { values } => {
            out.push(6);
            codec::put_f64s(out, values);
        }
        Frame::Error { code, message } => {
            out.push(7);
            out.push(code.tag());
            codec::put_str(out, message);
        }
        Frame::LoadFactors { key, factors } => {
            out.push(8);
            put_key(out, *key);
            codec::put_structured_list(out, factors);
        }
        Frame::SlabForwardKeyed {
            dataset,
            shard,
            key,
        } => put_keyed_task(
            out,
            &KeyedTask::SlabForward {
                dataset,
                shard: *shard,
                key: *key,
            },
        ),
        Frame::ApplyKeyed {
            transpose,
            key,
            payload,
        } => put_keyed_task(
            out,
            &KeyedTask::Apply {
                transpose: *transpose,
                key: *key,
                payload,
            },
        ),
    }
}

/// Decodes a frame payload of either protocol version, discarding any trace
/// extension — see [`decode_frame_ext`] to keep it.
pub fn decode_frame(bytes: &[u8]) -> Result<Frame, CodecError> {
    decode_frame_ext(bytes).map(|(frame, _)| frame)
}

/// Decodes a frame payload produced by [`encode_frame_ext`]: verifies the
/// checksum trailer, the prefix, the version, the kind tag, and full
/// consumption. Returns the frame plus its trace extension (`None` for v1
/// frames). Any corruption — truncation, bit flips, oversized element
/// counts, trailing garbage — yields a typed [`CodecError`], never a panic
/// or a partial read. An unknown version byte is [`CodecError::BadMagic`],
/// exactly what a pre-versioning peer reports for a v2 frame.
pub fn decode_frame_ext(bytes: &[u8]) -> Result<(Frame, Option<TraceExt>), CodecError> {
    let payload = codec::open(bytes)?;
    let mut r = Reader::new(payload);
    if r.take(WIRE_PREFIX.len())? != WIRE_PREFIX {
        return Err(CodecError::BadMagic);
    }
    let ext = match r.u8()? {
        PROTO_V1 => None,
        PROTO_V2 => Some(read_ext(&mut r)?),
        _ => return Err(CodecError::BadMagic),
    };
    let frame = match r.u8()? {
        0 => Frame::Ping,
        1 => Frame::LoadSlab {
            dataset: r.str()?,
            shard: r.u64()?,
            rows: (r.u64()?, r.u64()?),
            values: r.f64s()?,
        },
        2 => Frame::SlabForward {
            dataset: r.str()?,
            shard: r.u64()?,
            factors: read_factors(&mut r)?,
        },
        3 => Frame::Apply {
            transpose: read_bool(&mut r)?,
            factors: read_factors(&mut r)?,
            payload: r.f64s()?,
        },
        4 => Frame::Pong { slabs: r.u64()? },
        5 => Frame::Loaded,
        6 => Frame::Part { values: r.f64s()? },
        7 => Frame::Error {
            code: ErrorCode::from_tag(r.u8()?)?,
            message: r.str()?,
        },
        8 => {
            let key = read_key(&mut r)?;
            let start = r.position();
            let factors = read_factors(&mut r)?;
            // The key is the content: a frame that names its factors wrongly
            // is corrupt, and a worker must never file a list under it.
            if FactorKey::of_encoded(&payload[start..r.position()]) != key {
                return Err(CodecError::Invalid("factor key does not match its list"));
            }
            Frame::LoadFactors { key, factors }
        }
        9 => Frame::SlabForwardKeyed {
            dataset: r.str()?,
            shard: r.u64()?,
            key: read_key(&mut r)?,
        },
        10 => Frame::ApplyKeyed {
            transpose: read_bool(&mut r)?,
            key: read_key(&mut r)?,
            payload: r.f64s()?,
        },
        tag => return Err(CodecError::BadTag { tag }),
    };
    r.expect_end()?;
    Ok((frame, ext))
}

/// Writes one length-prefixed v1 frame to a stream and flushes it.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    write_frame_ext(w, frame, None)
}

/// Writes one length-prefixed frame to a stream and flushes it, in the
/// version implied by `ext` (see [`encode_frame_ext`]).
pub fn write_frame_ext(
    w: &mut impl Write,
    frame: &Frame,
    ext: Option<&TraceExt>,
) -> std::io::Result<()> {
    let mut buf = Vec::new();
    frame_into(&mut buf, frame, ext)?;
    w.write_all(&buf)?;
    w.flush()
}

/// Replaces `buf` with one complete stream frame — length prefix, payload,
/// checksum — so a link can reuse one buffer across requests and hand the
/// socket a single write.
pub(crate) fn frame_into(
    buf: &mut Vec<u8>,
    frame: &Frame,
    ext: Option<&TraceExt>,
) -> std::io::Result<()> {
    stream_frame_into(buf, ext, |out| put_body(out, frame))
}

/// [`frame_into`] for a borrowed [`KeyedTask`].
pub(crate) fn keyed_task_into(
    buf: &mut Vec<u8>,
    task: &KeyedTask<'_>,
    ext: Option<&TraceExt>,
) -> std::io::Result<()> {
    stream_frame_into(buf, ext, |out| put_keyed_task(out, task))
}

fn stream_frame_into(
    buf: &mut Vec<u8>,
    ext: Option<&TraceExt>,
    body: impl FnOnce(&mut Vec<u8>),
) -> std::io::Result<()> {
    buf.clear();
    buf.extend_from_slice(&[0; 4]);
    put_header(buf, ext);
    body(buf);
    let sum = codec::checksum(&buf[4..]);
    codec::put_u64(buf, sum);
    let len = u32::try_from(buf.len() - 4).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "frame exceeds u32 length")
    })?;
    buf[..4].copy_from_slice(&len.to_le_bytes());
    Ok(())
}

/// Reads one length-prefixed frame of either version, discarding any trace
/// extension.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, NetError> {
    read_frame_ext(r).map(|(frame, _)| frame)
}

/// Reads one length-prefixed frame from a stream, returning its trace
/// extension (`None` for v1 frames). The length prefix is bounds-checked
/// against [`MAX_FRAME_BYTES`] *before* the payload buffer is allocated, so
/// a corrupt prefix costs nothing.
pub fn read_frame_ext(r: &mut impl Read) -> Result<(Frame, Option<TraceExt>), NetError> {
    read_frame_ext_buf(r, &mut Vec::new())
}

/// [`read_frame_ext`] reading the payload into a caller-owned buffer (left
/// holding the payload bytes), so a link reuses one allocation.
pub(crate) fn read_frame_ext_buf(
    r: &mut impl Read,
    payload: &mut Vec<u8>,
) -> Result<(Frame, Option<TraceExt>), NetError> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u64::from(u32::from_le_bytes(len_bytes));
    if len > MAX_FRAME_BYTES {
        return Err(NetError::Oversized {
            len,
            max: MAX_FRAME_BYTES,
        });
    }
    payload.clear();
    payload.resize(len as usize, 0);
    r.read_exact(payload)?;
    Ok(decode_frame_ext(payload)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_round_trip() {
        let frame = Frame::Part {
            values: vec![1.5, -2.5, 0.0],
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        let back = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        match read_frame(&mut buf.as_slice()) {
            Err(NetError::Oversized { len, .. }) => assert_eq!(len, u64::from(u32::MAX)),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn v1_bytes_are_the_legacy_format() {
        // The compatibility contract: an ext-free encode starts with the
        // exact legacy magic, so pre-versioning peers accept it.
        let payload = encode_frame(&Frame::Ping);
        assert_eq!(&payload[..4], WIRE_MAGIC);
        let (frame, ext) = decode_frame_ext(&payload).unwrap();
        assert_eq!(frame, Frame::Ping);
        assert_eq!(ext, None);
    }

    #[test]
    fn v2_round_trips_the_trace_extension() {
        let ext = TraceExt {
            trace_id: 0xdead_beef,
            span_id: 42,
            spans: vec![
                WireSpan {
                    name: "worker:forward".into(),
                    dur_ns: 1_234,
                },
                WireSpan {
                    name: "worker:load".into(),
                    dur_ns: 9,
                },
            ],
        };
        let frame = Frame::Part {
            values: vec![1.0, 2.0],
        };
        let mut buf = Vec::new();
        write_frame_ext(&mut buf, &frame, Some(&ext)).unwrap();
        let (back, back_ext) = read_frame_ext(&mut buf.as_slice()).unwrap();
        assert_eq!(back, frame);
        assert_eq!(back_ext, Some(ext));
    }

    #[test]
    fn v2_frames_read_as_bad_magic_by_a_v1_only_decoder() {
        // What an old worker does with a v2 frame: its strict "HNW1" check
        // fails. The shared decoder reports the same class of error for an
        // unknown version, so both directions of skew degrade identically.
        let payload = encode_frame_ext(&Frame::Ping, Some(&TraceExt::request(1, 1)));
        assert_ne!(&payload[..4], WIRE_MAGIC);
        // A well-formed frame of an unknown future version: same error class.
        let mut future = Vec::new();
        future.extend_from_slice(WIRE_PREFIX);
        future.push(b'9');
        future.push(0); // Ping
        codec::seal(&mut future);
        assert!(matches!(
            decode_frame_ext(&future),
            Err(CodecError::BadMagic)
        ));
    }

    #[test]
    fn untraced_v2_is_legal() {
        let payload = encode_frame_ext(&Frame::Loaded, Some(&TraceExt::request(0, 0)));
        let (frame, ext) = decode_frame_ext(&payload).unwrap();
        assert_eq!(frame, Frame::Loaded);
        assert_eq!(ext.unwrap().trace_id, 0);
    }

    #[test]
    fn truncated_stream_is_a_typed_io_error() {
        let frame = Frame::Pong { slabs: 3 };
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        buf.truncate(buf.len() - 2);
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(NetError::Io(_))
        ));
    }

    #[test]
    fn borrowed_keyed_tasks_encode_to_the_owned_frames_bytes() {
        let key = FactorKey::of(&[StructuredMatrix::prefix(3)]);
        let payload = [1.5, -0.0, f64::NAN];
        let pairs = [
            (
                KeyedTask::SlabForward {
                    dataset: "d",
                    shard: 7,
                    key,
                },
                Frame::SlabForwardKeyed {
                    dataset: "d".into(),
                    shard: 7,
                    key,
                },
            ),
            (
                KeyedTask::Apply {
                    transpose: true,
                    key,
                    payload: &payload,
                },
                Frame::ApplyKeyed {
                    transpose: true,
                    key,
                    payload: payload.to_vec(),
                },
            ),
        ];
        for (task, frame) in pairs {
            for ext in [None, Some(TraceExt::request(9, 4))] {
                let (mut borrowed, mut owned) = (vec![0xAA; 3], Vec::new());
                keyed_task_into(&mut borrowed, &task, ext.as_ref()).unwrap();
                write_frame_ext(&mut owned, &frame, ext.as_ref()).unwrap();
                assert_eq!(borrowed, owned, "{}", frame.kind());
            }
        }
    }

    #[test]
    fn a_factor_list_filed_under_the_wrong_key_does_not_decode() {
        let factors = vec![StructuredMatrix::prefix(3)];
        let right = FactorKey::of(&factors);
        let good = Frame::LoadFactors {
            key: right,
            factors: factors.clone(),
        };
        assert_eq!(decode_frame(&encode_frame(&good)).unwrap(), good);
        for wrong in [
            FactorKey {
                sum: right.sum ^ 1,
                ..right
            },
            FactorKey {
                len: right.len + 1,
                ..right
            },
            FactorKey::of(&[StructuredMatrix::prefix(4)]),
        ] {
            let bad = Frame::LoadFactors {
                key: wrong,
                factors: factors.clone(),
            };
            assert_eq!(
                decode_frame(&encode_frame(&bad)),
                Err(CodecError::Invalid("factor key does not match its list"))
            );
        }
    }
}
