//! Wire frames for shard-task RPC: length-prefixed, checksummed, typed.
//!
//! A frame on the wire is `[len: u32 LE][payload][checksum: u64 LE]`, where
//! `len` covers the payload plus its checksum trailer and the payload is
//! `[magic "HNW"][version '2'][ext][kind: u8][body]` encoded through the
//! shared [`hdmm_core::codec`] — the same encode/decode path and FNV-1a
//! checksum that seals [`PlanStore`] files, so there is exactly one binary
//! codec in the system. The length prefix is sanity-bounded by
//! [`MAX_FRAME_BYTES`] before any allocation: a corrupt or hostile length
//! yields a typed [`NetError::Oversized`], never a multi-gigabyte buffer.
//!
//! **One layout.** Every frame carries a [`TraceExt`] (trace id, parent span
//! id, and — on responses — worker-side [`WireSpan`]s) between the version
//! byte and `kind`; an untraced call carries [`TraceExt::default()`], whose
//! trace id 0 means "untraced". Coordinator and worker ship in one build, so
//! there is no negotiation and no older layout: any other version byte
//! decodes to [`CodecError::BadMagic`]. A change to the layout bumps the
//! version byte.
//!
//! Every task frame is **pure and idempotent** — a `SlabForward` computes a
//! deterministic function of its inputs and mutates nothing — so the client
//! may retry at-least-once on timeout without coordination.
//!
//! **One task frame.** MEASURE's one task is a [`Frame::SlabForward`]: the
//! trailing factors travel inline, next to a reference to a slab the worker
//! holds. A strategy is a few small per-attribute factors while the slabs
//! and the partial products are what is big, and a task is sent only when
//! the engine's cache of MEASURE's exact blocks misses, so the factors are
//! sent again on every task rather than kept on the worker. The coordinator
//! encodes the frame straight from its borrowed factors, through the same
//! body writer as [`encode_frame`], so no factor is cloned per task; a slab
//! push ([`SlabLoad`]) is encoded from the borrowed slab the same way.
//! [`Frame::Apply`] stays decodable; no coordinator sends it, and workers
//! answer it with [`ErrorCode::BadTask`]. Payload tags 8 and 9, once a
//! keyed factor push and a keyed slab task, and error code 3, once a keyed
//! task's miss, no longer decode ([`CodecError::BadTag`]). The version byte
//! is still `'2'`: no remaining frame's bytes changed.
//!
//! [`PlanStore`]: https://docs.rs/hdmm-engine

use hdmm_core::codec::{self, CodecError, Reader};
use hdmm_linalg::StructuredMatrix;
use std::borrow::Borrow;
use std::io::{Read, Write};

/// The format tag (the first three payload bytes).
pub const WIRE_PREFIX: &[u8; 3] = b"HNW";

/// The version byte after [`WIRE_PREFIX`]: the one frame layout.
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
    /// Span name (`worker:forward`, `worker:load`).
    pub name: String,
    /// Duration in nanoseconds on the worker's clock.
    pub dur_ns: u64,
}

/// The extension every frame carries: trace identity on requests, plus
/// worker-side spans on responses.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceExt {
    /// Trace the request belongs to; 0 means "untraced".
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
}

impl ErrorCode {
    fn tag(self) -> u8 {
        match self {
            ErrorCode::Internal => 0,
            ErrorCode::UnknownSlab => 1,
            ErrorCode::BadTask => 2,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, CodecError> {
        match tag {
            0 => Ok(ErrorCode::Internal),
            1 => Ok(ErrorCode::UnknownSlab),
            2 => Ok(ErrorCode::BadTask),
            tag => Err(CodecError::BadTag { tag }),
        }
    }
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
    /// Apply trailing factors (forward or transposed) to a payload shipped
    /// with the task. No coordinator sends it, and workers answer it with
    /// [`ErrorCode::BadTask`]; it stays encodable and decodable.
    Apply {
        /// `true` for the transposed kernel (`Aᵀ`-side passes).
        transpose: bool,
        /// Trailing factors, outermost first.
        factors: Vec<StructuredMatrix>,
        /// The payload block to contract.
        payload: Vec<f64>,
    },
    /// Response to [`Frame::Ping`]: how many slabs the worker holds.
    Pong {
        /// Number of loaded slabs.
        slabs: u64,
    },
    /// Response to [`Frame::LoadSlab`].
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
    /// The bytes arrived but do not decode (corruption, another layout).
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

/// A slab task borrowed from coordinator memory: what the request path
/// encodes, with no owned [`Frame`] built first and no factor cloned.
/// Encodes to exactly the bytes of the owned [`Frame::SlabForward`] it
/// mirrors.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlabTask<'a> {
    pub(crate) dataset: &'a str,
    pub(crate) shard: u64,
    pub(crate) factors: &'a [&'a StructuredMatrix],
}

/// A slab push borrowed from coordinator memory: encodes to exactly the
/// bytes of the owned [`Frame::LoadSlab`] it mirrors, without copying the
/// slab's values into one.
#[derive(Debug, Clone, Copy)]
pub struct SlabLoad<'a> {
    /// Dataset the slab belongs to.
    pub dataset: &'a str,
    /// Shard index within the dataset's partition.
    pub shard: u64,
    /// Leading-axis row range `[start, end)` the slab covers.
    pub rows: (u64, u64),
    /// The slab's cells, row-major.
    pub values: &'a [f64],
}

/// The one writer of a [`Frame::LoadSlab`] body, owned or borrowed.
fn put_load_slab(out: &mut Vec<u8>, load: &SlabLoad<'_>) {
    out.push(1);
    codec::put_str(out, load.dataset);
    codec::put_u64(out, load.shard);
    codec::put_u64(out, load.rows.0);
    codec::put_u64(out, load.rows.1);
    codec::put_f64s(out, load.values);
}

/// The one writer of a [`Frame::SlabForward`] body, owned or borrowed.
fn put_slab_forward<F: Borrow<StructuredMatrix>>(
    out: &mut Vec<u8>,
    dataset: &str,
    shard: u64,
    factors: &[F],
) {
    out.push(2);
    codec::put_str(out, dataset);
    codec::put_u64(out, shard);
    codec::put_structured_list(out, factors);
}

fn read_bool(r: &mut Reader<'_>) -> Result<bool, CodecError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        tag => Err(CodecError::BadTag { tag }),
    }
}

/// Encodes an untraced frame payload (header + kind + body + checksum
/// trailer) without the stream length prefix — what [`decode_frame`]
/// accepts.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    put_header(&mut out, &TraceExt::default());
    put_body(&mut out, frame);
    codec::seal(&mut out);
    out
}

fn put_header(out: &mut Vec<u8>, ext: &TraceExt) {
    out.extend_from_slice(WIRE_PREFIX);
    out.push(PROTO_V2);
    put_ext(out, ext);
}

fn put_body(out: &mut Vec<u8>, frame: &Frame) {
    match frame {
        Frame::Ping => out.push(0),
        Frame::LoadSlab {
            dataset,
            shard,
            rows,
            values,
        } => put_load_slab(
            out,
            &SlabLoad {
                dataset,
                shard: *shard,
                rows: *rows,
                values,
            },
        ),
        Frame::SlabForward {
            dataset,
            shard,
            factors,
        } => put_slab_forward(out, dataset, *shard, factors),
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
    }
}

/// Decodes a frame payload: verifies the checksum trailer, the prefix, the
/// version, the kind tag, and full consumption. Returns the frame plus its
/// trace extension. Any corruption — truncation, bit flips, oversized
/// element counts, trailing garbage — yields a typed [`CodecError`], never a
/// panic or a partial read; any version byte but [`PROTO_V2`] is
/// [`CodecError::BadMagic`].
pub fn decode_frame(bytes: &[u8]) -> Result<(Frame, TraceExt), CodecError> {
    let payload = codec::open(bytes)?;
    let mut r = Reader::new(payload);
    if r.take(WIRE_PREFIX.len())? != WIRE_PREFIX || r.u8()? != PROTO_V2 {
        return Err(CodecError::BadMagic);
    }
    let ext = read_ext(&mut r)?;
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
        tag => return Err(CodecError::BadTag { tag }),
    };
    r.expect_end()?;
    Ok((frame, ext))
}

/// Writes one length-prefixed frame carrying `ext` to a stream and flushes
/// it.
pub fn write_frame(w: &mut impl Write, frame: &Frame, ext: &TraceExt) -> std::io::Result<()> {
    let mut buf = Vec::new();
    frame_into(&mut buf, frame, ext)?;
    w.write_all(&buf)?;
    w.flush()
}

/// Replaces `buf` with one complete stream frame — length prefix, payload,
/// checksum — so a link can reuse one buffer across requests and hand the
/// socket a single write.
pub(crate) fn frame_into(buf: &mut Vec<u8>, frame: &Frame, ext: &TraceExt) -> std::io::Result<()> {
    stream_frame_into(buf, ext, |out| put_body(out, frame))
}

/// Replaces `buf` with the stream bytes [`write_frame`] gives the
/// [`Frame::LoadSlab`] that `load` mirrors (length prefix, payload,
/// checksum).
pub fn slab_load_into(
    buf: &mut Vec<u8>,
    load: &SlabLoad<'_>,
    ext: &TraceExt,
) -> std::io::Result<()> {
    stream_frame_into(buf, ext, |out| put_load_slab(out, load))
}

/// [`frame_into`] for a borrowed [`SlabTask`].
pub(crate) fn slab_task_into(
    buf: &mut Vec<u8>,
    task: &SlabTask<'_>,
    ext: &TraceExt,
) -> std::io::Result<()> {
    stream_frame_into(buf, ext, |out| {
        put_slab_forward(out, task.dataset, task.shard, task.factors)
    })
}

fn stream_frame_into(
    buf: &mut Vec<u8>,
    ext: &TraceExt,
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

/// Reads one length-prefixed frame from a stream, with its trace extension.
/// The length prefix is bounds-checked against [`MAX_FRAME_BYTES`] *before*
/// the payload buffer is allocated, so a corrupt prefix costs nothing.
pub fn read_frame(r: &mut impl Read) -> Result<(Frame, TraceExt), NetError> {
    read_frame_buf(r, &mut Vec::new())
}

/// [`read_frame`] reading the payload into a caller-owned buffer (left
/// holding the payload bytes), so a link reuses one allocation.
pub(crate) fn read_frame_buf(
    r: &mut impl Read,
    payload: &mut Vec<u8>,
) -> Result<(Frame, TraceExt), NetError> {
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
    Ok(decode_frame(payload)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_round_trip() {
        let frame = Frame::Part {
            values: vec![1.5, -2.5, 0.0],
        };
        let ext = TraceExt {
            trace_id: 0xdead_beef,
            span_id: 42,
            spans: vec![WireSpan {
                name: "worker:forward".into(),
                dur_ns: 1_234,
            }],
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame, &ext).unwrap();
        assert_eq!(read_frame(&mut buf.as_slice()).unwrap(), (frame, ext));
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
    fn truncated_stream_is_a_typed_io_error() {
        let frame = Frame::Pong { slabs: 3 };
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame, &TraceExt::default()).unwrap();
        buf.truncate(buf.len() - 2);
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(NetError::Io(_))
        ));
    }

    #[test]
    fn borrowed_slab_tasks_encode_to_the_owned_frames_bytes() {
        let (prefix, total) = (StructuredMatrix::prefix(3), StructuredMatrix::total(4));
        let lists: [&[&StructuredMatrix]; 3] = [&[], &[&prefix], &[&prefix, &total]];
        for factors in lists {
            let task = SlabTask {
                dataset: "d",
                shard: 7,
                factors,
            };
            let frame = Frame::SlabForward {
                dataset: "d".into(),
                shard: 7,
                factors: factors.iter().map(|f| (*f).clone()).collect(),
            };
            for ext in [TraceExt::default(), TraceExt::request(9, 4)] {
                let (mut borrowed, mut owned) = (vec![0xAA; 3], Vec::new());
                slab_task_into(&mut borrowed, &task, &ext).unwrap();
                write_frame(&mut owned, &frame, &ext).unwrap();
                assert_eq!(borrowed, owned);
            }
            let untraced = encode_frame(&frame);
            let mut stream = Vec::new();
            slab_task_into(&mut stream, &task, &TraceExt::default()).unwrap();
            assert_eq!(stream[4..], untraced[..], "the payload is encode_frame's");
        }
    }
}
