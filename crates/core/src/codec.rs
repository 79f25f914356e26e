//! The checksummed binary codec shared by every serialized surface of the
//! system: [`PlanStore`] files on disk and shard-task frames on the wire.
//!
//! One encode path, one decode path, one checksum. Values are written
//! little-endian through the `put_*` helpers and read back through a
//! length-checked [`Reader`] that can never panic or read past its input:
//! every failure is a typed [`CodecError`]. Payloads are sealed with an
//! FNV-1a trailer ([`seal`]) and verified on the way in ([`open`]), so any
//! bit flip — even one that lands in numeric data and would otherwise decode
//! cleanly — is detected before a single field is trusted.
//!
//! The structured-matrix and strategy encodings live here (rather than in
//! the plan store) because both consumers need them: a persisted plan is a
//! strategy plus error accounting, and a MEASURE/RECONSTRUCT shard-task RPC
//! is a strategy factor list plus a payload.
//!
//! # Examples
//!
//! Seal a payload, open and read it back, and observe that corruption is a
//! typed error. The byte-offset assertions double as a format-stability
//! check: strings are `u64` length-prefixed, scalars are little-endian, and
//! the trailer is the 8-byte FNV-1a checksum of everything before it
//! (`docs/DURABILITY.md` §2 builds the WAL frame format on exactly this
//! layout).
//!
//! ```
//! use hdmm_core::codec::{self, CodecError, Reader};
//!
//! let mut frame = Vec::new();
//! codec::put_str(&mut frame, "census");
//! codec::put_f64(&mut frame, 0.5);
//! codec::seal(&mut frame);
//!
//! // 8-byte length prefix + "census" + 8-byte f64 + 8-byte checksum trailer.
//! assert_eq!(frame.len(), 8 + 6 + 8 + 8);
//! assert_eq!(&frame[..8], 6u64.to_le_bytes().as_slice());
//! assert_eq!(&frame[8..14], b"census");
//!
//! let payload = codec::open(&frame)?;
//! let mut r = Reader::new(payload);
//! assert_eq!(r.str()?, "census");
//! assert_eq!(r.f64()?.to_bits(), 0.5f64.to_bits());
//! r.expect_end()?;
//!
//! // Any flipped bit is detected before a single field is trusted.
//! let mut bad = frame.clone();
//! bad[9] ^= 0x01;
//! assert_eq!(codec::open(&bad), Err(CodecError::ChecksumMismatch));
//! # Ok::<(), CodecError>(())
//! ```
//!
//! [`PlanStore`]: https://docs.rs/hdmm-engine

use hdmm_linalg::{Csr, Matrix, StructuredMatrix};
use hdmm_mechanism::{MarginalsStrategy, Strategy, UnionGroup};
use hdmm_workload::Domain;
use std::borrow::Borrow;

/// Every way a decode can fail. Corruption is always a typed error, never a
/// panic, an over-allocation, or a partially read value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value did (includes corrupt length
    /// prefixes that claim more elements than the input could hold).
    Truncated,
    /// The payload's checksum trailer does not match its contents.
    ChecksumMismatch,
    /// The magic header is missing or wrong (not this format, or not this
    /// version).
    BadMagic,
    /// An enum tag byte has no meaning in this version.
    BadTag {
        /// The unrecognized tag.
        tag: u8,
    },
    /// A decoded value violates a semantic invariant (zero-sized dimension,
    /// non-finite share, inconsistent CSR arrays, …).
    Invalid(&'static str),
    /// The value decoded cleanly but bytes were left over — treated as
    /// corruption rather than silently ignored.
    TrailingBytes,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input ended before the value did"),
            CodecError::ChecksumMismatch => write!(f, "checksum trailer mismatch"),
            CodecError::BadMagic => write!(f, "bad or missing magic header"),
            CodecError::BadTag { tag } => write!(f, "unknown tag byte {tag:#04x}"),
            CodecError::Invalid(what) => write!(f, "invalid value: {what}"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after the value"),
        }
    }
}

impl std::error::Error for CodecError {}

/// FNV-1a over the payload; stored as a trailer so any bit flip is detected
/// and the payload treated as absent/corrupt.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends the checksum trailer over everything currently in `out`.
pub fn seal(out: &mut Vec<u8>) {
    let sum = checksum(out);
    put_u64(out, sum);
}

/// Verifies and strips the checksum trailer, returning the payload.
pub fn open(full: &[u8]) -> Result<&[u8], CodecError> {
    let Some((payload, trailer)) = full.split_last_chunk::<8>() else {
        return Err(CodecError::Truncated);
    };
    if checksum(payload) != u64::from_le_bytes(*trailer) {
        return Err(CodecError::ChecksumMismatch);
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `usize` as a `u64`.
pub fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

/// Appends a little-endian `f64` (bit-exact: what is written is what is
/// read, down to the sign of zero and NaN payloads).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a run of `f64`s with no length prefix: the same bytes as one
/// [`put_f64`] per element, written as a single sized copy the compiler
/// lowers to a block move instead of a bounds-checked push per value.
fn put_f64_run(out: &mut Vec<u8>, vs: &[f64]) {
    let start = out.len();
    out.resize(start + vs.len() * 8, 0);
    for (dst, v) in out[start..].chunks_exact_mut(8).zip(vs) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// Appends a length-prefixed `f64` slice.
pub fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    put_usize(out, vs.len());
    put_f64_run(out, vs);
}

/// Appends a length-prefixed `usize` slice.
pub fn put_usizes(out: &mut Vec<u8>, vs: &[usize]) {
    put_usize(out, vs.len());
    for &v in vs {
        put_usize(out, v);
    }
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_usize(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// Appends a dense matrix (rows, cols, row-major data).
pub fn put_matrix(out: &mut Vec<u8>, m: &Matrix) {
    put_usize(out, m.rows());
    put_usize(out, m.cols());
    put_f64_run(out, m.as_slice());
}

/// Appends a structured matrix (tagged by variant; `Kron` recurses).
pub fn put_structured(out: &mut Vec<u8>, f: &StructuredMatrix) {
    match f {
        StructuredMatrix::Dense(m) => {
            out.push(0);
            put_matrix(out, m);
        }
        StructuredMatrix::Sparse(s) => {
            out.push(1);
            put_usize(out, s.rows());
            put_usize(out, s.cols());
            let mut indptr = Vec::with_capacity(s.rows() + 1);
            let mut indices = Vec::new();
            let mut data = Vec::new();
            indptr.push(0usize);
            for r in 0..s.rows() {
                for (c, v) in s.row_entries(r) {
                    indices.push(c);
                    data.push(v);
                }
                indptr.push(indices.len());
            }
            put_usizes(out, &indptr);
            put_usizes(out, &indices);
            put_f64s(out, &data);
        }
        StructuredMatrix::Identity { n, scale } => {
            out.push(2);
            put_usize(out, *n);
            put_f64(out, *scale);
        }
        StructuredMatrix::Total { n, scale } => {
            out.push(3);
            put_usize(out, *n);
            put_f64(out, *scale);
        }
        StructuredMatrix::Prefix { n, scale } => {
            out.push(4);
            put_usize(out, *n);
            put_f64(out, *scale);
        }
        StructuredMatrix::AllRange { n, scale } => {
            out.push(5);
            put_usize(out, *n);
            put_f64(out, *scale);
        }
        StructuredMatrix::Kron(fs) => {
            out.push(6);
            put_usize(out, fs.len());
            for inner in fs {
                put_structured(out, inner);
            }
        }
        StructuredMatrix::PIdentity { diag, block } => {
            out.push(7);
            put_f64s(out, diag);
            put_matrix(out, block);
        }
        StructuredMatrix::Woodbury { diag, u } => {
            out.push(8);
            put_f64s(out, diag);
            put_matrix(out, u);
        }
    }
}

/// Appends a length-prefixed structured factor list (owned factors or
/// references to them — the bytes are the same).
pub fn put_structured_list<F: Borrow<StructuredMatrix>>(out: &mut Vec<u8>, fs: &[F]) {
    put_usize(out, fs.len());
    for f in fs {
        put_structured(out, f.borrow());
    }
}

/// Appends a measurement strategy (tagged by family).
pub fn put_strategy(out: &mut Vec<u8>, s: &Strategy) {
    match s {
        Strategy::Explicit(m) => {
            out.push(0);
            put_matrix(out, m);
        }
        Strategy::Kron(fs) => {
            out.push(1);
            put_structured_list(out, fs);
        }
        Strategy::Union(groups) => {
            out.push(2);
            put_usize(out, groups.len());
            for g in groups {
                put_f64(out, g.share);
                put_structured_list(out, &g.factors);
                put_usizes(out, &g.term_indices);
            }
        }
        Strategy::Marginals(m) => {
            out.push(3);
            put_usizes(out, m.domain.sizes());
            put_f64s(out, &m.theta);
        }
    }
}

// ---------------------------------------------------------------------------
// Reader (cursor-based, length-checked: every failure is a typed error)
// ---------------------------------------------------------------------------

/// A length-checked cursor over an input slice. Every read validates
/// availability before touching bytes; length prefixes are sanity-bounded
/// against the input size so a corrupt count can never trigger a huge
/// allocation or a partial read.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Takes the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        if end > self.bytes.len() {
            return Err(CodecError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let bytes = self.take(8)?.first_chunk().ok_or(CodecError::Truncated)?;
        Ok(u64::from_le_bytes(*bytes))
    }

    /// Reads a `u64` that must fit a `usize`.
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.u64()?).map_err(|_| CodecError::Invalid("u64 exceeds usize"))
    }

    /// Reads a length prefix, sanity-bounded so a corrupt count (each
    /// element needs at least one payload byte) fails typed instead of
    /// allocating.
    pub fn count(&mut self) -> Result<usize, CodecError> {
        let n = self.usize()?;
        if n > self.bytes.len() {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }

    /// Reads a little-endian `f64`, bit-exact.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a run of `n` `f64`s: availability is checked once for the
    /// whole run (so a corrupt count fails before any allocation), then the
    /// bytes convert in one pass — the same values as `n` calls of
    /// [`Reader::f64`].
    fn f64_run(&mut self, n: usize) -> Result<Vec<f64>, CodecError> {
        let bytes = self.take(n.checked_mul(8).ok_or(CodecError::Truncated)?)?;
        let (chunks, _) = bytes.as_chunks::<8>();
        Ok(chunks.iter().copied().map(f64::from_le_bytes).collect())
    }

    /// Reads a length-prefixed `f64` vector.
    pub fn f64s(&mut self) -> Result<Vec<f64>, CodecError> {
        let n = self.count()?;
        self.f64_run(n)
    }

    /// Reads a length-prefixed `usize` vector.
    pub fn usizes(&mut self) -> Result<Vec<usize>, CodecError> {
        let n = self.count()?;
        (0..n).map(|_| self.usize()).collect()
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let n = self.count()?;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| CodecError::Invalid("non-UTF-8"))
    }

    /// Reads a dense matrix, bounding `rows·cols` by the available input.
    pub fn matrix(&mut self) -> Result<Matrix, CodecError> {
        let rows = self.usize()?;
        let cols = self.usize()?;
        let n = rows.checked_mul(cols).ok_or(CodecError::Truncated)?;
        Ok(Matrix::from_vec(rows, cols, self.f64_run(n)?))
    }

    /// Reads a structured matrix, validating every variant invariant.
    pub fn structured(&mut self) -> Result<StructuredMatrix, CodecError> {
        match self.u8()? {
            0 => {
                let m = self.matrix()?;
                all_finite(m.as_slice())?;
                Ok(StructuredMatrix::Dense(m))
            }
            1 => {
                let rows = self.usize()?;
                let cols = self.usize()?;
                let indptr = self.usizes()?;
                let indices = self.usizes()?;
                let data = self.f64s()?;
                all_finite(&data)?;
                csr_checked(rows, cols, indptr, indices, data).map(StructuredMatrix::Sparse)
            }
            tag @ 2..=5 => {
                let n = self.usize()?;
                let scale = self.f64()?;
                if n == 0 || scale == 0.0 {
                    return Err(CodecError::Invalid("zero-sized or zero-scaled block"));
                }
                all_finite(&[scale])?;
                Ok(match tag {
                    2 => StructuredMatrix::Identity { n, scale },
                    3 => StructuredMatrix::Total { n, scale },
                    4 => StructuredMatrix::Prefix { n, scale },
                    _ => StructuredMatrix::AllRange { n, scale },
                })
            }
            6 => {
                let n = self.count()?;
                if n == 0 {
                    return Err(CodecError::Invalid("empty Kron factor list"));
                }
                let fs: Result<Vec<StructuredMatrix>, _> =
                    (0..n).map(|_| self.structured()).collect();
                Ok(StructuredMatrix::Kron(fs?))
            }
            tag @ 7..=8 => {
                let diag = self.f64s()?;
                let low = self.matrix()?;
                if diag.is_empty() || low.cols() != diag.len() {
                    return Err(CodecError::Invalid(
                        "inconsistent diagonal-plus-low-rank shape",
                    ));
                }
                if diag.iter().any(|d| !d.is_finite() || *d == 0.0)
                    || low.as_slice().iter().any(|v| !v.is_finite())
                {
                    return Err(CodecError::Invalid("non-finite entry or zero diagonal"));
                }
                Ok(match tag {
                    7 => StructuredMatrix::PIdentity { diag, block: low },
                    _ => StructuredMatrix::Woodbury { diag, u: low },
                })
            }
            tag => Err(CodecError::BadTag { tag }),
        }
    }

    /// Reads a non-empty structured factor list.
    pub fn structured_list(&mut self) -> Result<Vec<StructuredMatrix>, CodecError> {
        let n = self.count()?;
        if n == 0 {
            return Err(CodecError::Invalid("empty factor list"));
        }
        (0..n).map(|_| self.structured()).collect()
    }

    /// Reads a measurement strategy, validating every family invariant.
    pub fn strategy(&mut self) -> Result<Strategy, CodecError> {
        match self.u8()? {
            0 => Ok(Strategy::Explicit(self.matrix()?)),
            1 => Ok(Strategy::Kron(self.structured_list()?)),
            2 => {
                if self.count()? != 2 {
                    return Err(CodecError::Invalid("a union has two groups"));
                }
                let mut group = || -> Result<UnionGroup, CodecError> {
                    let share = self.f64()?;
                    if !(share.is_finite() && share > 0.0) {
                        return Err(CodecError::Invalid("non-positive union share"));
                    }
                    Ok(UnionGroup::new(
                        share,
                        self.structured_list()?,
                        self.usizes()?,
                    ))
                };
                let groups = [group()?, group()?];
                // MEASURE spends `share_g·ε` per group: shares summing past
                // 1 would spend more than the request reserved.
                let [a, b] = &groups;
                if (a.share + b.share - 1.0).abs() >= 1e-9 {
                    return Err(CodecError::Invalid("union shares do not sum to 1"));
                }
                // Both groups measure one data vector, attribute by attribute.
                let cols = |g: &UnionGroup| g.factors.iter().map(|f| f.cols()).collect::<Vec<_>>();
                if cols(a) != cols(b) {
                    return Err(CodecError::Invalid("union groups over other attributes"));
                }
                Ok(Strategy::Union(groups))
            }
            3 => {
                let sizes = self.usizes()?;
                if sizes.is_empty() || sizes.contains(&0) {
                    return Err(CodecError::Invalid("degenerate marginals domain"));
                }
                let theta = self.f64s()?;
                let domain = Domain::new(&sizes);
                if theta.len() != 1usize << domain.dims()
                    || theta.iter().any(|t| !t.is_finite() || *t < 0.0)
                    || theta[theta.len() - 1] <= 0.0
                {
                    return Err(CodecError::Invalid("inconsistent marginals weights"));
                }
                Ok(Strategy::Marginals(MarginalsStrategy::new(domain, theta)))
            }
            tag => Err(CodecError::BadTag { tag }),
        }
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Fails with [`CodecError::TrailingBytes`] unless the input is fully
    /// consumed — leftover bytes are corruption, not padding.
    pub fn expect_end(&self) -> Result<(), CodecError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes)
        }
    }
}

/// Fails with [`CodecError::Invalid`] unless every entry is finite.
fn all_finite(entries: &[f64]) -> Result<(), CodecError> {
    let finite = entries.iter().all(|v| v.is_finite());
    finite
        .then_some(())
        .ok_or(CodecError::Invalid("non-finite entry"))
}

/// Validates raw CSR arrays without panicking, then builds the matrix.
fn csr_checked(
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    data: Vec<f64>,
) -> Result<Csr, CodecError> {
    let invalid = Err(CodecError::Invalid("inconsistent CSR arrays"));
    if indptr.len() != rows + 1 || indices.len() != data.len() {
        return invalid;
    }
    if indptr.first() != Some(&0) || indptr.last() != Some(&indices.len()) {
        return invalid;
    }
    for r in 0..rows {
        if indptr[r] > indptr[r + 1] || indptr[r + 1] > indices.len() {
            return invalid;
        }
        let row = &indices[indptr[r]..indptr[r + 1]];
        if row.windows(2).any(|w| w[0] >= w[1]) || row.last().is_some_and(|&c| c >= cols) {
            return invalid;
        }
    }
    Ok(Csr::new(rows, cols, indptr, indices, data))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strategies() -> Vec<Strategy> {
        vec![
            Strategy::Explicit(Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f64 - 5.5)),
            Strategy::Kron(vec![
                StructuredMatrix::prefix(4).scaled(0.25),
                StructuredMatrix::Sparse(Csr::from_dense(&Matrix::from_fn(3, 3, |r, c| {
                    if r == c {
                        1.5
                    } else {
                        0.0
                    }
                }))),
            ]),
            Strategy::Union([
                UnionGroup {
                    share: 0.25,
                    factors: vec![StructuredMatrix::total(3), StructuredMatrix::identity(2)],
                    term_indices: vec![0, 1],
                },
                UnionGroup {
                    share: 0.75,
                    factors: vec![StructuredMatrix::identity(3), StructuredMatrix::prefix(2)],
                    term_indices: vec![2],
                },
            ]),
            Strategy::Marginals(MarginalsStrategy::uniform(Domain::new(&[3, 2]))),
            Strategy::Kron(vec![p_identity(), p_identity().gram_pinv()]),
        ]
    }

    /// A p = 2, n = 3 p-Identity leaf (Example 8 of the paper).
    fn p_identity() -> StructuredMatrix {
        let diag = vec![1.0 / 3.0, 0.25, 0.2];
        let theta = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[1.0, 1.0, 1.0]]);
        let block = Matrix::from_fn(2, 3, |r, c| theta[(r, c)] * diag[c]);
        StructuredMatrix::PIdentity { diag, block }
    }

    #[test]
    fn diagonal_plus_low_rank_leaves_round_trip_and_are_validated() {
        let woodbury = p_identity().gram_pinv();
        assert!(matches!(woodbury, StructuredMatrix::Woodbury { .. }));
        for leaf in [p_identity(), woodbury] {
            let mut out = Vec::new();
            put_structured_list(&mut out, &[&leaf]);
            let mut r = Reader::new(&out);
            assert_eq!(r.structured_list().expect("decodes"), vec![leaf.clone()]);
            r.expect_end().expect("fully consumed");
        }

        let encode = |diag: Vec<f64>, low: Matrix| {
            let mut out = Vec::new();
            put_structured(&mut out, &StructuredMatrix::PIdentity { diag, block: low });
            out
        };
        let block = Matrix::from_fn(2, 3, |r, c| (r + c) as f64);
        for (what, bytes) in [
            ("empty diagonal", encode(Vec::new(), Matrix::zeros(2, 0))),
            (
                "block of another width",
                encode(vec![1.0; 2], block.clone()),
            ),
            ("zero diagonal", encode(vec![1.0, 0.0, 1.0], block.clone())),
            (
                "NaN diagonal",
                encode(vec![1.0, f64::NAN, 1.0], block.clone()),
            ),
            (
                "infinite block",
                encode(vec![1.0; 3], Matrix::from_fn(2, 3, |_, _| f64::INFINITY)),
            ),
        ] {
            assert!(
                matches!(
                    Reader::new(&bytes).structured(),
                    Err(CodecError::Invalid(_))
                ),
                "{what}"
            );
        }
    }

    #[test]
    fn non_finite_entries_and_zero_scales_are_invalid() {
        let sparse = Csr::from_dense(&Matrix::identity(2));
        let nan_sparse = Csr::new(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, f64::NAN]);
        let mut leaves = vec![
            StructuredMatrix::Dense(Matrix::from_rows(&[&[1.0, f64::INFINITY]])),
            StructuredMatrix::Sparse(nan_sparse),
        ];
        for scale in [0.0, -0.0, f64::NAN, f64::INFINITY] {
            leaves.extend([
                StructuredMatrix::Identity { n: 3, scale },
                StructuredMatrix::Total { n: 3, scale },
                StructuredMatrix::Prefix { n: 3, scale },
                StructuredMatrix::AllRange { n: 3, scale },
            ]);
        }
        for leaf in leaves {
            let mut out = Vec::new();
            put_structured(&mut out, &leaf);
            assert!(
                matches!(Reader::new(&out).structured(), Err(CodecError::Invalid(_))),
                "{leaf:?} decoded"
            );
        }
        // Their finite, nonzero-scaled counterparts decode.
        for leaf in [
            StructuredMatrix::Sparse(sparse),
            StructuredMatrix::prefix(3).scaled(-0.5),
        ] {
            let mut out = Vec::new();
            put_structured(&mut out, &leaf);
            assert_eq!(Reader::new(&out).structured(), Ok(leaf));
        }
    }

    #[test]
    fn strategies_round_trip_bit_exact() {
        for s in strategies() {
            let mut out = Vec::new();
            put_strategy(&mut out, &s);
            seal(&mut out);
            let payload = open(&out).expect("seal/open round trip");
            let mut r = Reader::new(payload);
            let back = r.strategy().expect("decodes");
            r.expect_end().expect("fully consumed");
            let mut re = Vec::new();
            put_strategy(&mut re, &back);
            seal(&mut re);
            assert_eq!(out, re, "re-encoding must be byte-stable");
        }
    }

    #[test]
    fn corruption_is_typed_never_panicking() {
        let mut out = Vec::new();
        put_strategy(&mut out, &strategies()[1]);
        seal(&mut out);

        // Truncation at every prefix either fails the trailer or the reader.
        for cut in 0..out.len() {
            let sliced = &out[..cut];
            let result = open(sliced).and_then(|p| Reader::new(p).strategy());
            assert!(result.is_err(), "truncation at {cut} must fail typed");
        }

        // A flipped checksum byte is a ChecksumMismatch.
        let mut flipped = out.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xFF;
        assert_eq!(open(&flipped).unwrap_err(), CodecError::ChecksumMismatch);

        // An oversized length prefix fails Truncated, not an allocation.
        let mut huge = Vec::new();
        put_usize(&mut huge, u64::MAX as usize);
        let mut r = Reader::new(&huge);
        assert_eq!(r.f64s().unwrap_err(), CodecError::Truncated);

        // A bad tag is reported as such.
        let mut r = Reader::new(&[0xEE]);
        assert_eq!(r.strategy().unwrap_err(), CodecError::BadTag { tag: 0xEE });
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut out = Vec::new();
        put_u64(&mut out, 7);
        out.push(0xAA);
        let mut r = Reader::new(&out);
        assert_eq!(r.u64().unwrap(), 7);
        assert_eq!(r.expect_end().unwrap_err(), CodecError::TrailingBytes);
    }

    #[test]
    fn f64_bits_survive_including_nan_and_negative_zero() {
        for v in [f64::NAN, -0.0, f64::INFINITY, 1.0 / 3.0] {
            let mut out = Vec::new();
            put_f64(&mut out, v);
            let back = Reader::new(&out).f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }
}
