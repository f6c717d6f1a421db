//! Dense 2-D tensors (row-major `f32` matrices) and the linear algebra the
//! NN substrate needs. Shapes follow the ML convention used throughout the
//! crate: `rows` = batch / sequence positions, `cols` = features.

use rand::Rng;
use std::fmt;

/// A row-major matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

impl Matrix {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Matrix { rows, cols, data }
    }

    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Xavier/Glorot-uniform initialization for a layer with `rows` inputs
    /// and `cols` outputs.
    pub fn xavier(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Matrix { rows, cols, data }
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self @ other` — naive ikj matmul (cache-friendly inner loop).
    ///
    /// Each output sums its nonzero `self[i][k] * other[k][j]` terms in
    /// `k` order from zero. The kernels below keep that order, so their
    /// results do not depend on which loop nest computes them.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        if other.cols == 1 {
            // A one-column right-hand side leaves the ikj inner loop one
            // element long; take each output as a dot product instead.
            for (i, o) in out.data.iter_mut().enumerate() {
                *o = dot_skipping_zeros(self.row(i), &other.data);
            }
            return out;
        }
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = out.row_mut(i);
                for (o, b) in out_row.iter_mut().zip(orow.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self^T @ other` without materializing the transpose.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        if other.cols == 1 {
            // One output column: run the inner loop along the output
            // instead of along that single column. Adding `0.0` for a
            // zero `a` gives the skip's bits (see `dot_skipping_zeros`).
            for (r, &b) in other.data.iter().enumerate() {
                for (o, &a) in out.data.iter_mut().zip(self.row(r)) {
                    *o += if a == 0.0 { 0.0 } else { a * b };
                }
            }
            return out;
        }
        for r in 0..self.rows {
            let arow = self.row(r);
            let brow = other.row(r);
            for (i, a) in arow.iter().enumerate() {
                if *a == 0.0 {
                    continue;
                }
                let out_row = out.row_mut(i);
                for (o, b) in out_row.iter_mut().zip(brow.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self @ other^T`: ikj over a transposed copy of `other`, so the
    /// inner loop runs along an output row. Unlike [`Matrix::matmul`] it
    /// adds every term, zeros included.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        let other_t = other.transpose();
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let out_row = out.row_mut(i);
            for (k, &a) in self.row(i).iter().enumerate() {
                for (o, b) in out_row.iter_mut().zip(other_t.row(k)) {
                    *o += a * b;
                }
            }
        }
        out
    }

    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    pub fn scale(&self, k: f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|a| a * k).collect(),
        }
    }

    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|a| f(*a)).collect(),
        }
    }

    /// Add a row vector (1 × cols) to every row, in place.
    pub fn add_row_broadcast(mut self, bias: &[f32]) -> Matrix {
        assert_eq!(bias.len(), self.cols);
        for r in 0..self.rows {
            for (o, b) in self.row_mut(r).iter_mut().zip(bias.iter()) {
                *o += b;
            }
        }
        self
    }

    /// Column-wise sum → length-`cols` vector (used for bias gradients).
    pub fn sum_rows(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (o, v) in out.iter_mut().zip(self.row(r).iter()) {
                *o += v;
            }
        }
        out
    }

    /// Row-wise softmax, numerically stabilized.
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        for r in 0..out.rows {
            let row = out.row_mut(r);
            let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - m).exp();
                sum += *v;
            }
            if sum > 0.0 {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
        out
    }

    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }
}

/// `sum_k a[k] * b[k]` in `k` order from zero, with the terms whose `a`
/// is zero left out as [`Matrix::matmul`] leaves them out. Adding `0.0`
/// instead of branching gives the same bits: the sum starts at `+0.0` and
/// so is never `-0.0`, for which `x + 0.0 == x` would fail.
fn dot_skipping_zeros(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .fold(0.0, |s, (&a, &b)| s + if a == 0.0 { 0.0 } else { a * b })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn approx(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_matmuls_agree() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let a = Matrix::xavier(4, 5, &mut rng);
        let b = Matrix::xavier(4, 3, &mut rng);
        let via_t = a.transpose().matmul(&b);
        let fused = a.t_matmul(&b);
        for (x, y) in via_t.data.iter().zip(fused.data.iter()) {
            assert!(approx(*x, *y));
        }
        let c = Matrix::xavier(6, 5, &mut rng);
        let via_t2 = a.matmul(&c.transpose());
        let fused2 = a.matmul_t(&c);
        for (x, y) in via_t2.data.iter().zip(fused2.data.iter()) {
            assert!(approx(*x, *y));
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0]);
        let s = m.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!(approx(sum, 1.0));
        }
        // Large inputs must not overflow to NaN.
        assert!(s.data.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn broadcast_and_sum() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = m.clone().add_row_broadcast(&[10.0, 20.0]);
        assert_eq!(b.data, vec![11.0, 22.0, 13.0, 24.0]);
        assert_eq!(m.sum_rows(), vec![4.0, 6.0]);
    }

    #[test]
    fn xavier_bounds() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let m = Matrix::xavier(100, 50, &mut rng);
        let bound = (6.0 / 150.0_f32).sqrt();
        assert!(m.data.iter().all(|x| x.abs() <= bound));
        assert!(m.mean().abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        a.matmul(&b);
    }
}
