//! Property tests for the wire codec: every frame kind round-trips
//! bit-exactly through encode/decode and through the length-prefixed stream
//! path, with any trace extension — and corruption (truncated frames,
//! flipped bytes, oversized length prefixes, another layout's version byte)
//! always yields a **typed error**, never a panic and never a partial read
//! that decodes to a different frame. Two golden frames pin the one layout
//! byte for byte, and the retired payload tags 8 and 9 (and error code 3)
//! no longer decode.

use hdmm_core::codec::{self, CodecError, Reader};
use hdmm_linalg::{Matrix, StructuredMatrix};
use hdmm_net::{
    decode_frame, encode_frame, read_frame, slab_load_into, write_frame, ErrorCode, Frame,
    SlabLoad, TraceExt, WireSpan, MAX_FRAME_BYTES, PROTO_V2, WIRE_PREFIX,
};
use proptest::prelude::*;

fn values_from(seed: u64, len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| {
            let v = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add((i as u64).wrapping_mul(1442695040888963407))
                >> 11;
            // Mix in non-finite-free but sign/precision-diverse payloads,
            // including negative zero, so bit-exactness is actually tested.
            match i % 4 {
                0 => v as f64 / 1e3,
                1 => -(v as f64) * 1e-9,
                2 => -0.0,
                _ => (v % 97) as f64,
            }
        })
        .collect()
}

fn factor_from(kind: usize, n: usize, seed: u64) -> StructuredMatrix {
    match kind {
        0 => StructuredMatrix::identity(n),
        1 => StructuredMatrix::total(n),
        2 => StructuredMatrix::prefix(n),
        3 => StructuredMatrix::all_range(n),
        4 => StructuredMatrix::kron(vec![
            StructuredMatrix::prefix(n),
            StructuredMatrix::total(2),
        ]),
        _ => Matrix::from_fn(n, n, |r, c| {
            ((seed as usize + r * n + c) % 7) as f64 / 3.0 - 1.0
        })
        .into(),
    }
}

/// One frame of every kind, parameterized so proptest explores payload sizes
/// and factor shapes. `which` selects the kind; the rest feed its fields.
fn frame_from(which: usize, n: usize, len: usize, seed: u64, kinds: &[usize]) -> Frame {
    let factors: Vec<StructuredMatrix> = kinds
        .iter()
        .enumerate()
        .map(|(i, &k)| factor_from(k, n, seed + i as u64))
        .collect();
    match which {
        0 => Frame::Ping,
        1 => Frame::Pong { slabs: seed },
        2 => Frame::Loaded,
        3 => Frame::Part {
            values: values_from(seed, len),
        },
        4 => Frame::Error {
            code: match seed % 3 {
                0 => ErrorCode::Internal,
                1 => ErrorCode::UnknownSlab,
                _ => ErrorCode::BadTask,
            },
            message: format!("err-{seed}: ünïcode ok"),
        },
        5 => Frame::LoadSlab {
            dataset: format!("ds-{}", seed % 5),
            shard: seed % 16,
            rows: (seed % 7, seed % 7 + 1 + len as u64),
            values: values_from(seed, len.max(1)),
        },
        6 => Frame::SlabForward {
            dataset: format!("ds-{}", seed % 5),
            shard: seed % 16,
            factors,
        },
        _ => Frame::Apply {
            transpose: seed.is_multiple_of(2),
            factors,
            payload: values_from(seed, len),
        },
    }
}

/// Number of frame kinds [`frame_from`] can build.
const KINDS: usize = 8;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every frame kind round-trips bit-exactly, both through the in-memory
    /// codec and through the length-prefixed stream.
    #[test]
    fn every_frame_kind_round_trips_bit_exactly(
        which in 0usize..KINDS,
        n in 1usize..6,
        len in 0usize..40,
        seed in 0u64..10_000,
        kinds in proptest::collection::vec(0usize..6, 3),
    ) {
        let frame = frame_from(which, n, len, seed, &kinds);
        let encoded = encode_frame(&frame);
        let decoded = decode_frame(&encoded).expect("self-encoded frame must decode");
        prop_assert_eq!(&decoded, &(frame.clone(), TraceExt::default()));

        let mut stream = Vec::new();
        write_frame(&mut stream, &frame, &TraceExt::default()).expect("vec write cannot fail");
        // The stream frame is the payload behind its length prefix.
        prop_assert_eq!(&stream[4..], &encoded[..]);
        let mut cursor = std::io::Cursor::new(stream);
        let via_stream = read_frame(&mut cursor).expect("stream round trip must decode");
        prop_assert_eq!(&via_stream.0, &frame);
    }

    /// Truncating an encoded frame at any point yields a typed error — never
    /// a panic, and never a shorter frame that happens to decode.
    #[test]
    fn truncated_frames_are_typed_errors(
        which in 0usize..KINDS,
        n in 1usize..5,
        len in 0usize..20,
        seed in 0u64..10_000,
        kinds in proptest::collection::vec(0usize..6, 2),
        cut_num in 0usize..997,
    ) {
        let frame = frame_from(which, n, len, seed, &kinds);
        let encoded = encode_frame(&frame);
        let cut = cut_num % encoded.len();
        prop_assert!(
            decode_frame(&encoded[..cut]).is_err(),
            "truncation at {cut}/{} must be a typed error",
            encoded.len()
        );

        // Same through the stream path: a connection dropped mid-frame.
        let mut stream = Vec::new();
        write_frame(&mut stream, &frame, &TraceExt::default()).expect("vec write cannot fail");
        let cut = cut_num % stream.len();
        let mut cursor = std::io::Cursor::new(&stream[..cut]);
        prop_assert!(
            read_frame(&mut cursor).is_err(),
            "stream truncation at {cut}/{} must be a typed error",
            stream.len()
        );
    }

    /// Flipping any single byte — payload or checksum trailer — is always
    /// detected: FNV-1a's per-byte step is a bijection of the running state,
    /// so a one-byte change can never collide with the original checksum.
    #[test]
    fn flipped_bytes_never_decode(
        which in 0usize..KINDS,
        n in 1usize..5,
        len in 0usize..20,
        seed in 0u64..10_000,
        kinds in proptest::collection::vec(0usize..6, 2),
        pos_num in 0usize..997,
        flip_num in 1usize..256,
    ) {
        let flip = flip_num as u8;
        let frame = frame_from(which, n, len, seed, &kinds);
        let mut encoded = encode_frame(&frame);
        let pos = pos_num % encoded.len();
        encoded[pos] ^= flip;
        prop_assert!(
            decode_frame(&encoded).is_err(),
            "flip of byte {pos} (xor {flip:#04x}) must be detected"
        );
    }

    /// Every frame kind round-trips bit-exactly with an arbitrary trace
    /// extension — trace id 0 ("untraced") included: the frame, the trace
    /// identity, and every worker-side span.
    #[test]
    fn every_frame_kind_round_trips_with_any_trace_extension(
        which in 0usize..KINDS,
        n in 1usize..5,
        len in 0usize..20,
        seed in 0u64..10_000,
        kinds in proptest::collection::vec(0usize..6, 2),
        traced in proptest::bool::weighted(0.75),
        trace_id in 1u64..u64::MAX,
        span_id in 0u64..u64::MAX,
        spans in proptest::collection::vec((0usize..4, 0u64..u64::MAX), 4),
        span_count in 0usize..5,
    ) {
        const NAMES: [&str; 4] = ["worker:forward", "worker:apply", "worker:load", ""];
        let frame = frame_from(which, n, len, seed, &kinds);
        let ext = TraceExt {
            trace_id: if traced { trace_id } else { 0 },
            span_id,
            spans: spans
                .into_iter()
                .take(span_count)
                .map(|(name, dur_ns)| WireSpan {
                    name: NAMES[name].to_string(),
                    dur_ns,
                })
                .collect(),
        };
        let mut stream = Vec::new();
        write_frame(&mut stream, &frame, &ext).expect("vec write cannot fail");
        let back = read_frame(&mut stream.as_slice()).expect("self-written frame must decode");
        prop_assert_eq!(back, (frame, ext));
    }

    /// A frame in the retired v1 layout (`"HNW1"`, no extension) — or under
    /// any version byte but `'2'` — behind a valid checksum is a typed
    /// `BadMagic`, never a panic and never a frame.
    #[test]
    fn a_v1_frame_is_bad_magic(
        which in 0usize..KINDS,
        n in 1usize..5,
        len in 0usize..20,
        seed in 0u64..10_000,
        kinds in proptest::collection::vec(0usize..6, 2),
        version in 0u16..256,
    ) {
        let version = version as u8;
        let frame = frame_from(which, n, len, seed, &kinds);
        let encoded = encode_frame(&frame);
        let payload = codec::open(&encoded).expect("self-encoded frame opens");
        // v1: the kind and body right after the version byte.
        let mut v1 = b"HNW1".to_vec();
        v1.extend_from_slice(&payload[4 + EMPTY_EXT_BYTES..]);
        codec::seal(&mut v1);
        prop_assert_eq!(decode_frame(&v1), Err(CodecError::BadMagic));

        let mut other = payload.to_vec();
        other[WIRE_PREFIX.len()] = version;
        codec::seal(&mut other);
        if version != b'2' {
            prop_assert_eq!(decode_frame(&other), Err(CodecError::BadMagic));
        }
    }

    /// The codec's bulk `f64` paths write and accept byte-for-byte what one
    /// `put_f64` / `Reader::f64` per element does — NaN payloads, negative
    /// zero, and infinities included — so plan-store files, WAL records and
    /// frames written element-wise by earlier builds still open, and
    /// everything written now opens there.
    #[test]
    fn bulk_f64_runs_match_the_element_wise_reference_byte_for_byte(
        bits in proptest::collection::vec(0u64..u64::MAX, 48),
        specials in proptest::collection::vec(0usize..6, 48),
        len in 0usize..48,
        rows in 0usize..7,
    ) {
        const SPECIAL: [u64; 5] = [
            0x8000_0000_0000_0000, // -0.0
            0x7ff8_0000_0000_0001, // quiet NaN with a payload
            0x7ff0_0000_dead_beef, // signalling NaN with a payload
            0x7ff0_0000_0000_0000, // +inf
            0xfff0_0000_0000_0000, // -inf
        ];
        let values: Vec<f64> = bits
            .iter()
            .zip(&specials)
            .take(len)
            .map(|(&b, &s)| f64::from_bits(SPECIAL.get(s).copied().unwrap_or(b)))
            .collect();

        let mut bulk = Vec::new();
        codec::put_f64s(&mut bulk, &values);
        let reference = reference_f64s(&values);
        prop_assert_eq!(&bulk, &reference);
        let mut r = Reader::new(&reference);
        let back = r.f64s().expect("reference bytes decode");
        r.expect_end().expect("fully consumed");
        prop_assert_eq!(
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            values.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );

        // Same for a dense matrix over the same cells.
        let cols = values.len().checked_div(rows).unwrap_or(0);
        let cells = &values[..rows * cols];
        let m = Matrix::from_vec(rows, cols, cells.to_vec());
        let mut bulk = Vec::new();
        codec::put_matrix(&mut bulk, &m);
        let mut reference = Vec::new();
        codec::put_usize(&mut reference, rows);
        codec::put_usize(&mut reference, cols);
        for &v in cells {
            codec::put_f64(&mut reference, v);
        }
        prop_assert_eq!(&bulk, &reference);
        let mut r = Reader::new(&reference);
        let back = r.matrix().expect("reference bytes decode");
        r.expect_end().expect("fully consumed");
        prop_assert_eq!(back.shape(), (rows, cols));
        prop_assert_eq!(
            back.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            cells.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );

        // A run cut short is Truncated, exactly as the element loop was.
        if !values.is_empty() {
            let full = reference_f64s(&values);
            let cut = &full[..full.len() - 3];
            prop_assert!(Reader::new(cut).f64s().is_err());
        }
    }

    /// Oversized length prefixes are rejected before any allocation.
    #[test]
    fn oversized_length_prefixes_are_rejected(excess in 1u64..1_000_000) {
        let bad_len = u32::try_from((MAX_FRAME_BYTES + excess).min(u64::from(u32::MAX)))
            .expect("clamped");
        let mut stream = bad_len.to_le_bytes().to_vec();
        stream.extend_from_slice(&[0u8; 64]);
        let mut cursor = std::io::Cursor::new(stream);
        prop_assert!(
            read_frame(&mut cursor).is_err(),
            "length {bad_len} must be rejected before allocation"
        );
    }
}

fn reference_f64s(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::new();
    codec::put_usize(&mut out, values.len());
    for &v in values {
        codec::put_f64(&mut out, v);
    }
    out
}

/// Response-vs-request confusion and garbage magic are typed, not panics.
#[test]
fn garbage_and_wrong_magic_are_typed_errors() {
    assert!(decode_frame(b"").is_err());
    assert!(decode_frame(b"garbage that is not a frame at all").is_err());
    // A valid codec envelope around the wrong magic still fails typed.
    let mut encoded = encode_frame(&Frame::Ping);
    encoded[0] ^= 0xff; // corrupt the magic inside the sealed envelope
    assert!(decode_frame(&encoded).is_err());
}

/// Bytes of the empty [`TraceExt`]: trace id, span id, span count.
const EMPTY_EXT_BYTES: usize = 24;

/// An untraced `Ping` as it goes on the wire: length prefix, `"HNW2"`, the
/// empty extension, kind 0, checksum.
const GOLDEN_PING: &[u8] = &[
    37, 0, 0, 0, // length: payload + checksum
    b'H', b'N', b'W', b'2', // prefix, version
    0, 0, 0, 0, 0, 0, 0, 0, // trace id
    0, 0, 0, 0, 0, 0, 0, 0, // span id
    0, 0, 0, 0, 0, 0, 0, 0, // span count
    0, // kind: Ping
    70, 35, 147, 71, 116, 115, 184, 63, // checksum
];

/// An untraced `Part { values: [1.5, -0.0] }` as it goes on the wire.
const GOLDEN_PART: &[u8] = &[
    61, 0, 0, 0, // length: payload + checksum
    b'H', b'N', b'W', b'2', // prefix, version
    0, 0, 0, 0, 0, 0, 0, 0, // trace id
    0, 0, 0, 0, 0, 0, 0, 0, // span id
    0, 0, 0, 0, 0, 0, 0, 0, // span count
    6, // kind: Part
    2, 0, 0, 0, 0, 0, 0, 0, // value count
    0, 0, 0, 0, 0, 0, 248, 63, // 1.5
    0, 0, 0, 0, 0, 0, 0, 128, // -0.0
    247, 14, 151, 147, 20, 195, 137, 239, // checksum
];

/// The one layout, pinned: a change to the frame format has to edit these
/// literals.
#[test]
fn untraced_frames_match_the_recorded_bytes() {
    let part = Frame::Part {
        values: vec![1.5, -0.0],
    };
    for (frame, golden) in [(Frame::Ping, GOLDEN_PING), (part, GOLDEN_PART)] {
        let mut stream = Vec::new();
        write_frame(&mut stream, &frame, &TraceExt::default()).expect("vec write cannot fail");
        assert_eq!(stream, golden, "{} bytes moved: {stream:?}", frame.kind());
        let back = read_frame(&mut &golden[..]).expect("recorded bytes decode");
        assert_eq!(back, (frame, TraceExt::default()));
    }
}

/// A slab push encoded from the borrowed slab is the owned
/// `Frame::LoadSlab`'s bytes, traced or not: the payload is
/// `encode_frame`'s, and the version byte is still `'2'`.
#[test]
fn borrowed_slab_loads_encode_to_the_owned_frames_bytes() {
    for len in [0, 1, 37] {
        let values = values_from(len as u64 + 5, len);
        let load = SlabLoad {
            dataset: "census",
            shard: 3,
            rows: (4, 4 + len as u64),
            values: &values,
        };
        let frame = Frame::LoadSlab {
            dataset: "census".into(),
            shard: 3,
            rows: load.rows,
            values: values.clone(),
        };
        for ext in [TraceExt::default(), TraceExt::request(9, 4)] {
            let (mut borrowed, mut owned) = (vec![0xAA; 3], Vec::new());
            slab_load_into(&mut borrowed, &load, &ext).expect("vec write cannot fail");
            write_frame(&mut owned, &frame, &ext).expect("vec write cannot fail");
            assert_eq!(borrowed, owned, "{len} values, {ext:?}");
        }
        let mut stream = Vec::new();
        slab_load_into(&mut stream, &load, &TraceExt::default()).expect("vec write cannot fail");
        let untraced = encode_frame(&frame);
        assert_eq!(stream[4..], untraced[..], "the payload is encode_frame's");
        assert_eq!(untraced[WIRE_PREFIX.len()], PROTO_V2);
        assert_eq!(PROTO_V2, b'2');
    }
}

/// A sealed, untraced payload: the header, then `body` (kind tag first).
fn sealed_payload(body: &[u8]) -> Vec<u8> {
    let mut payload = WIRE_PREFIX.to_vec();
    payload.push(PROTO_V2);
    payload.extend_from_slice(&[0; EMPTY_EXT_BYTES]);
    payload.extend_from_slice(body);
    codec::seal(&mut payload);
    payload
}

/// Tags 8 and 9 were a keyed factor push and a keyed slab task, and error
/// code 3 a keyed task's miss. None of them decodes any more, whatever
/// follows the tag.
#[test]
fn retired_tags_are_bad_tags() {
    for tag in [8, 9] {
        for tail in [&[][..], &[0; 16], &[7; 40]] {
            let body = [&[tag][..], tail].concat();
            assert_eq!(
                decode_frame(&sealed_payload(&body)),
                Err(CodecError::BadTag { tag }),
                "payload tag {tag}, {} trailing bytes",
                tail.len()
            );
        }
    }
    let mut error = vec![7, 3];
    codec::put_str(&mut error, "no factor list");
    assert_eq!(
        decode_frame(&sealed_payload(&error)),
        Err(CodecError::BadTag { tag: 3 })
    );
    // The same envelope around a live tag decodes: the header is right.
    assert_eq!(
        decode_frame(&sealed_payload(&[0])),
        Ok((Frame::Ping, TraceExt::default()))
    );
}
