//! Matrix-free linear operators.
//!
//! LSMR-based reconstruction for union-of-product strategies (§7.2) only needs
//! products with `A` and `Aᵀ`; this trait lets strategies stay implicit.

/// A linear operator exposing forward and adjoint matrix–vector products.
pub trait LinOp {
    /// Output dimension (number of rows).
    fn rows(&self) -> usize;
    /// Input dimension (number of columns).
    fn cols(&self) -> usize;
    /// `A·x`.
    fn matvec(&self, x: &[f64]) -> Vec<f64>;
    /// `Aᵀ·y`.
    fn rmatvec(&self, y: &[f64]) -> Vec<f64>;

    /// `A·x` written into `out` (length `rows()`), bitwise [`LinOp::matvec`].
    /// An operator that owns reusable buffers overrides it, so an iterative
    /// solver's products allocate nothing.
    fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        out.copy_from_slice(&self.matvec(x));
    }

    /// `out += Aᵀ·y` element by element (`out` of length `cols()`): how
    /// [`StackedOp`] sums its blocks. Overridden as [`LinOp::matvec_into`] is.
    fn rmatvec_add(&self, y: &[f64], out: &mut [f64]) {
        for (o, p) in out.iter_mut().zip(self.rmatvec(y)) {
            *o += p;
        }
    }
}

/// `alpha · A` as a [`LinOp`].
pub struct ScaledOp<T: LinOp> {
    /// Scale factor.
    pub alpha: f64,
    /// Inner operator.
    pub inner: T,
}

impl<T: LinOp> LinOp for ScaledOp<T> {
    fn rows(&self) -> usize {
        self.inner.rows()
    }
    fn cols(&self) -> usize {
        self.inner.cols()
    }
    fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut v = self.inner.matvec(x);
        for e in &mut v {
            *e *= self.alpha;
        }
        v
    }
    fn rmatvec(&self, y: &[f64]) -> Vec<f64> {
        let mut v = self.inner.rmatvec(y);
        for e in &mut v {
            *e *= self.alpha;
        }
        v
    }
}

/// Vertical stack `[A₁; A₂; …]` of operators sharing a column dimension.
pub struct StackedOp<'a> {
    blocks: Vec<Box<dyn LinOp + 'a>>,
    cols: usize,
}

impl<'a> StackedOp<'a> {
    /// Builds a stack; all blocks must agree on column count.
    ///
    /// # Panics
    /// Panics if `blocks` is empty or column counts differ.
    pub fn new(blocks: Vec<Box<dyn LinOp + 'a>>) -> Self {
        assert!(!blocks.is_empty(), "StackedOp requires at least one block");
        let cols = blocks[0].cols();
        for b in &blocks {
            assert_eq!(b.cols(), cols, "StackedOp blocks must share column count");
        }
        StackedOp { blocks, cols }
    }
}

impl LinOp for StackedOp<'_> {
    fn rows(&self) -> usize {
        self.blocks.iter().map(|b| b.rows()).sum()
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.rows()];
        self.matvec_into(x, &mut out);
        out
    }
    fn rmatvec(&self, y: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        self.rmatvec_add(y, &mut out);
        out
    }
    fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        let mut rest = out;
        for b in &self.blocks {
            let (block, tail) = rest.split_at_mut(b.rows());
            b.matvec_into(x, block);
            rest = tail;
        }
    }
    fn rmatvec_add(&self, y: &[f64], out: &mut [f64]) {
        let mut offset = 0;
        for b in &self.blocks {
            let m = b.rows();
            b.rmatvec_add(&y[offset..offset + m], out);
            offset += m;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Matrix, StructuredMatrix};

    #[test]
    fn stacked_op_matches_vstack() {
        let a = Matrix::identity(3);
        let b = Matrix::ones(2, 3);
        let explicit = Matrix::vstack(&[&a, &b]).unwrap();
        let stacked = StackedOp::new(vec![
            Box::new(StructuredMatrix::Dense(a)) as Box<dyn LinOp>,
            Box::new(StructuredMatrix::Dense(b)),
        ]);
        let x = vec![1.0, 2.0, 3.0];
        assert_eq!(stacked.matvec(&x), explicit.matvec(&x));
        let y = vec![1.0, 0.0, -1.0, 2.0, 2.0];
        assert_eq!(stacked.rmatvec(&y), explicit.t_matvec(&y));
    }

    #[test]
    fn scaled_op_scales_both_directions() {
        let op = ScaledOp {
            alpha: 3.0,
            inner: StructuredMatrix::Dense(Matrix::identity(2)),
        };
        assert_eq!(op.matvec(&[1.0, 2.0]), vec![3.0, 6.0]);
        assert_eq!(op.rmatvec(&[1.0, 1.0]), vec![3.0, 3.0]);
    }
}
