//! Canonical workload fingerprints for strategy caching.
//!
//! Strategy selection is a pure function of the workload (domain shape plus
//! query matrices) — it never touches the data or the privacy budget — so
//! its output can be cached across requests. The cache key must be *canonical*:
//! two logically identical workloads must produce the same fingerprint even
//! when their union terms are listed in a different order (the union is a set,
//! Equation 1 of the paper).
//!
//! The fingerprint combines the domain's attribute cardinalities with a
//! 128-bit FNV-1a digest over every term's weight and factor entries. Term
//! digests are sorted before the final combination, making the fingerprint
//! order-insensitive across terms while still distinguishing duplicated terms
//! (a duplicated term changes the sorted sequence, unlike an XOR fold).

use crate::Workload;
use hdmm_linalg::{Matrix, StructuredMatrix};

const FNV_OFFSET_LO: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_OFFSET_HI: u64 = 0x6c62_272e_07bb_0142;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit FNV-1a accumulator.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new(offset: u64) -> Self {
        Fnv(offset)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn write_f64(&mut self, v: f64) {
        // `to_bits` distinguishes -0.0 from 0.0; canonicalize so workloads
        // differing only in a signed zero hash identically.
        let canonical = if v == 0.0 { 0.0f64 } else { v };
        self.write_u64(canonical.to_bits());
    }
}

/// The canonical cache key of a workload: domain shape plus a 128-bit content
/// digest of the query matrices and weights.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WorkloadFingerprint {
    sizes: Vec<usize>,
    digest: u128,
}

impl WorkloadFingerprint {
    /// The per-attribute cardinalities of the fingerprinted domain.
    pub fn domain_sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// The 128-bit content digest.
    pub fn digest(&self) -> u128 {
        self.digest
    }
}

impl std::fmt::Display for WorkloadFingerprint {
    /// Renders like `3x2:0123456789abcdef0123456789abcdef`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let shape: Vec<String> = self.sizes.iter().map(|n| n.to_string()).collect();
        write!(f, "{}:{:032x}", shape.join("x"), self.digest)
    }
}

fn hash_matrix(h: &mut Fnv, m: &Matrix) {
    h.write_u64(m.rows() as u64);
    h.write_u64(m.cols() as u64);
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            h.write_f64(m[(r, c)]);
        }
    }
}

/// Hashes a structured factor by its representation: closed-form variants
/// hash their O(1) descriptor, so fingerprinting a `Prefix` block on a
/// domain of 2¹⁴ touches three words instead of 2²⁸ entries. The digest is
/// representation-sensitive — a `Dense` copy of a `Prefix` block hashes
/// differently — which is sound for caching (worst case a duplicate SELECT)
/// because builders construct blocks deterministically.
fn hash_structured(h: &mut Fnv, f: &StructuredMatrix) {
    match f {
        StructuredMatrix::Dense(m) => {
            h.write_u64(0);
            hash_matrix(h, m);
        }
        StructuredMatrix::Sparse(s) => {
            h.write_u64(1);
            h.write_u64(s.rows() as u64);
            h.write_u64(s.cols() as u64);
            for r in 0..s.rows() {
                for (c, v) in s.row_entries(r) {
                    h.write_u64(r as u64);
                    h.write_u64(c as u64);
                    h.write_f64(v);
                }
            }
        }
        StructuredMatrix::Identity { n, scale } => {
            h.write_u64(2);
            h.write_u64(*n as u64);
            h.write_f64(*scale);
        }
        StructuredMatrix::Total { n, scale } => {
            h.write_u64(3);
            h.write_u64(*n as u64);
            h.write_f64(*scale);
        }
        StructuredMatrix::Prefix { n, scale } => {
            h.write_u64(4);
            h.write_u64(*n as u64);
            h.write_f64(*scale);
        }
        StructuredMatrix::AllRange { n, scale } => {
            h.write_u64(5);
            h.write_u64(*n as u64);
            h.write_f64(*scale);
        }
        StructuredMatrix::WidthRange { n, width, scale } => {
            h.write_u64(10);
            h.write_u64(*n as u64);
            h.write_u64(*width as u64);
            h.write_f64(*scale);
        }
        StructuredMatrix::Kron(fs) => {
            h.write_u64(6);
            h.write_u64(fs.len() as u64);
            for inner in fs {
                hash_structured(h, inner);
            }
        }
        // `diag.len()` is the low-rank part's column count, which
        // `hash_matrix` writes.
        StructuredMatrix::PIdentity { diag, block } => {
            h.write_u64(7);
            diag.iter().for_each(|&d| h.write_f64(d));
            hash_matrix(h, block);
        }
        StructuredMatrix::Woodbury { diag, u } => {
            h.write_u64(8);
            diag.iter().for_each(|&d| h.write_f64(d));
            hash_matrix(h, u);
        }
        // O(n): the inner descriptor and the indices, never the entries.
        StructuredMatrix::Permuted { inner, perm } => {
            h.write_u64(9);
            h.write_u64(perm.len() as u64);
            perm.iter().for_each(|&p| h.write_u64(p as u64));
            hash_structured(h, inner);
        }
    }
}

fn term_digest(offset: u64, weight: f64, factors: &[StructuredMatrix]) -> u64 {
    let mut h = Fnv::new(offset);
    h.write_f64(weight);
    h.write_u64(factors.len() as u64);
    for f in factors {
        hash_structured(&mut h, f);
    }
    h.0
}

impl Workload {
    /// The canonical fingerprint of this workload (order-insensitive across
    /// union terms). Hashed once per workload value; later calls, and calls
    /// on its clones, copy the stored key.
    pub fn fingerprint(&self) -> WorkloadFingerprint {
        self.contents().0.clone()
    }

    /// True when every term weight and every leaf entry or scale is finite:
    /// a workload that is not answers NaN or ±∞ and must not be served.
    /// Found by the same once-per-value walk as [`Workload::fingerprint`],
    /// so asking again, or after the fingerprint, is a load.
    pub fn is_finite(&self) -> bool {
        self.contents().1
    }

    fn contents(&self) -> &(WorkloadFingerprint, bool) {
        self.fingerprint.get_or_init(|| self.hash_contents())
    }

    fn hash_contents(&self) -> (WorkloadFingerprint, bool) {
        #[cfg(test)]
        tests::HASHED.set(tests::HASHED.get() + 1);
        let finite = self
            .terms()
            .iter()
            .all(|t| t.weight.is_finite() && t.factors.iter().all(StructuredMatrix::is_finite));
        let mut lo: Vec<u64> = self
            .terms()
            .iter()
            .map(|t| term_digest(FNV_OFFSET_LO, t.weight, &t.factors))
            .collect();
        let mut hi: Vec<u64> = self
            .terms()
            .iter()
            .map(|t| term_digest(FNV_OFFSET_HI, t.weight, &t.factors))
            .collect();
        // Sort both digest streams by the (lo, hi) pair so the two halves
        // stay aligned on the same term permutation.
        let mut pairs: Vec<(u64, u64)> = lo.iter().copied().zip(hi.iter().copied()).collect();
        pairs.sort_unstable();
        lo = pairs.iter().map(|p| p.0).collect();
        hi = pairs.iter().map(|p| p.1).collect();

        let mut hasher_lo = Fnv::new(FNV_OFFSET_LO);
        let mut hasher_hi = Fnv::new(FNV_OFFSET_HI);
        for &n in self.domain().sizes() {
            hasher_lo.write_u64(n as u64);
            hasher_hi.write_u64(n as u64);
        }
        for (&a, &b) in lo.iter().zip(&hi) {
            hasher_lo.write_u64(a);
            hasher_hi.write_u64(b);
        }
        let key = WorkloadFingerprint {
            sizes: self.domain().sizes().to_vec(),
            digest: (hasher_hi.0 as u128) << 64 | hasher_lo.0 as u128,
        };
        (key, finite)
    }
}

#[cfg(test)]
mod tests {
    use crate::{blocks, Domain, ProductTerm, Workload};
    use std::cell::Cell;

    thread_local! {
        /// Content hashes computed on this thread.
        pub(super) static HASHED: Cell<usize> = const { Cell::new(0) };
    }

    fn two_term(domain: &Domain, flip: bool) -> Workload {
        let a = ProductTerm::new(1.0, vec![blocks::prefix(3), blocks::total(2)]);
        let b = ProductTerm::new(2.0, vec![blocks::total(3), blocks::identity(2)]);
        let terms = if flip { vec![b, a] } else { vec![a, b] };
        Workload::new(domain.clone(), terms)
    }

    #[test]
    fn identical_workloads_share_fingerprints() {
        let d = Domain::new(&[3, 2]);
        assert_eq!(
            two_term(&d, false).fingerprint(),
            two_term(&d, false).fingerprint()
        );
    }

    #[test]
    fn contents_are_hashed_once_per_workload_and_clones_carry_the_key() {
        let d = Domain::new(&[3, 2]);
        let w = two_term(&d, false);
        let before = HASHED.get();
        let first = w.fingerprint();
        assert_eq!(HASHED.get(), before + 1);
        assert_eq!(w.fingerprint(), first);
        assert_eq!(w.clone().fingerprint(), first);
        assert_eq!(
            HASHED.get(),
            before + 1,
            "repeat and clone must not re-hash"
        );
        // A clone taken before the first call hashes for itself, to the same key.
        let fresh = two_term(&d, false);
        assert_eq!(fresh.clone().fingerprint(), first);
        assert_eq!(fresh.fingerprint(), first);
        assert_eq!(HASHED.get(), before + 3);
    }

    #[test]
    fn term_order_is_canonicalized() {
        let d = Domain::new(&[3, 2]);
        assert_eq!(
            two_term(&d, false).fingerprint(),
            two_term(&d, true).fingerprint()
        );
    }

    #[test]
    fn weights_change_the_fingerprint() {
        let d = Domain::new(&[4]);
        let w1 = Workload::new(
            d.clone(),
            vec![ProductTerm::new(1.0, vec![blocks::prefix(4)])],
        );
        let w2 = Workload::new(d, vec![ProductTerm::new(2.0, vec![blocks::prefix(4)])]);
        assert_ne!(w1.fingerprint(), w2.fingerprint());
    }

    #[test]
    fn entries_change_the_fingerprint() {
        let w1 = Workload::one_dim(blocks::prefix(5));
        let w2 = Workload::one_dim(blocks::identity(5));
        assert_ne!(w1.fingerprint(), w2.fingerprint());
    }

    #[test]
    fn duplicate_terms_are_not_cancelled() {
        let d = Domain::new(&[3]);
        let t = || ProductTerm::new(1.0, vec![blocks::prefix(3)]);
        let once = Workload::new(d.clone(), vec![t()]);
        let twice = Workload::new(d, vec![t(), t()]);
        assert_ne!(once.fingerprint(), twice.fingerprint());
    }

    #[test]
    fn same_shape_different_domain_split_differs() {
        // A 6-cell domain as [6] vs [2,3] with equivalent identity queries.
        let w1 = Workload::one_dim(blocks::identity(6));
        let d = Domain::new(&[2, 3]);
        let w2 = Workload::product(d, vec![blocks::identity(2), blocks::identity(3)]);
        assert_ne!(w1.fingerprint(), w2.fingerprint());
    }

    #[test]
    fn structured_fingerprints_are_stable_and_representation_sensitive() {
        let structured = || Workload::one_dim(blocks::prefix_block(8));
        assert_eq!(structured().fingerprint(), structured().fingerprint());
        // A dense copy of the same logical block is a different (still valid)
        // cache key: worst case one duplicate SELECT, never a wrong hit.
        let dense = Workload::one_dim(blocks::prefix(8));
        assert_ne!(structured().fingerprint(), dense.fingerprint());
    }

    #[test]
    fn display_is_stable() {
        let w = Workload::one_dim(blocks::prefix(4));
        let s = w.fingerprint().to_string();
        assert!(s.starts_with("4:"));
        assert_eq!(s, w.fingerprint().to_string());
    }
}
