//! Minimal dense linear algebra.
//!
//! Row-major [`Matrix`] with exactly the operations the model trainers need:
//! products, transposes, Cholesky factorisation (for SPD normal equations)
//! and partial-pivot LU (for the indefinite LS-SVM saddle system). Matrices
//! here are at most a few thousand rows, so straightforward loops are both
//! clear and fast enough; the hot paths iterate rows contiguously to stay
//! cache-friendly per the hpc guides.

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from nested rows. Panics on ragged input.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
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

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`. Panics on dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // i-k-j loop order: the inner loop walks both `rhs` and `out` rows
        // contiguously.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = out.row_mut(i);
                for (o, r) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * r;
                }
            }
        }
        out
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "matvec dimension mismatch");
        (0..self.rows).map(|i| dot(self.row(i), v)).collect()
    }

    /// Gram matrix `selfᵀ * self` (symmetric, computed once per triangle).
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut g = Matrix::zeros(n, n);
        for row in 0..self.rows {
            let r = self.row(row);
            for i in 0..n {
                let ri = r[i];
                if ri == 0.0 {
                    continue;
                }
                for j in i..n {
                    g[(i, j)] += ri * r[j];
                }
            }
        }
        for i in 0..n {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// Adds `value` to every diagonal entry (Tikhonov / jitter).
    pub fn add_diagonal(&mut self, value: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += value;
        }
    }

    /// Solves `self * x = b` for symmetric positive-definite `self` via
    /// Cholesky. Returns `None` if the matrix is not SPD (within roundoff).
    pub fn solve_spd(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(self.rows, self.cols, "solve requires square matrix");
        assert_eq!(self.rows, b.len(), "rhs length mismatch");
        let n = self.rows;
        // Lower-triangular factor L with self = L Lᵀ.
        let mut l = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if sum <= 0.0 {
                        return None;
                    }
                    l[i * n + i] = sum.sqrt();
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
        }
        // Forward substitution L y = b.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= l[i * n + k] * y[k];
            }
            y[i] = sum / l[i * n + i];
        }
        // Back substitution Lᵀ x = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in i + 1..n {
                sum -= l[k * n + i] * x[k];
            }
            x[i] = sum / l[i * n + i];
        }
        Some(x)
    }

    /// Solves `self * x = b` via LU with partial pivoting. Returns `None`
    /// for (numerically) singular systems.
    pub fn solve_lu(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(self.rows, self.cols, "solve requires square matrix");
        assert_eq!(self.rows, b.len(), "rhs length mismatch");
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x: Vec<f64> = b.to_vec();
        let mut perm: Vec<usize> = (0..n).collect();

        for col in 0..n {
            // Pivot: largest magnitude in this column at or below the diagonal.
            let mut pivot_row = col;
            let mut pivot_val = a[perm[col] * n + col].abs();
            for r in col + 1..n {
                let v = a[perm[r] * n + col].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-12 {
                return None;
            }
            perm.swap(col, pivot_row);
            let p = perm[col];
            let pivot = a[p * n + col];
            for &row in &perm[col + 1..] {
                let factor = a[row * n + col] / pivot;
                if factor == 0.0 {
                    continue;
                }
                a[row * n + col] = 0.0;
                for c in col + 1..n {
                    a[row * n + c] -= factor * a[p * n + c];
                }
                x[row] -= factor * x[p];
            }
        }
        // Back substitution on the permuted triangular system.
        let mut out = vec![0.0; n];
        for i in (0..n).rev() {
            let row = perm[i];
            let mut sum = x[row];
            for c in i + 1..n {
                sum -= a[row * n + c] * out[c];
            }
            out[i] = sum / a[row * n + i];
        }
        Some(out)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

/// Dot product of two equal-length slices.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_indexing() {
        let m = Matrix::identity(3);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 1)], 0.0);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 3);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let c = a.matmul(&Matrix::identity(3));
        assert_eq!(c, a);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.transpose(), a);
        assert_eq!(t[(2, 1)], 6.0);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn gram_is_xtx() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let g = x.gram();
        let expect = x.transpose().matmul(&x);
        assert_eq!(g, expect);
    }

    #[test]
    fn cholesky_solves_spd_system() {
        // A = [[4,2],[2,3]], b = [8, 7] -> x = [1.3..., ...]; verify A x = b.
        let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
        let x = a.solve_spd(&[8.0, 7.0]).unwrap();
        let back = a.matvec(&x);
        assert!((back[0] - 8.0).abs() < 1e-10);
        assert!((back[1] - 7.0).abs() < 1e-10);
    }

    #[test]
    fn cholesky_rejects_non_spd() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        assert!(a.solve_spd(&[1.0, 1.0]).is_none());
    }

    #[test]
    fn lu_solves_general_system() {
        // Indefinite but nonsingular (the LS-SVM saddle shape).
        let a = Matrix::from_rows(&[
            vec![0.0, 1.0, 1.0],
            vec![1.0, 2.0, 0.5],
            vec![1.0, 0.5, 2.0],
        ]);
        let b = [1.0, 2.0, 3.0];
        let x = a.solve_lu(&b).unwrap();
        let back = a.matvec(&x);
        for (got, want) in back.iter().zip(b) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
    }

    #[test]
    fn lu_rejects_singular() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(a.solve_lu(&[1.0, 2.0]).is_none());
    }

    #[test]
    fn lu_and_cholesky_agree_on_spd() {
        let a = Matrix::from_rows(&[
            vec![6.0, 2.0, 1.0],
            vec![2.0, 5.0, 2.0],
            vec![1.0, 2.0, 4.0],
        ]);
        let b = [1.0, -2.0, 3.0];
        let x1 = a.solve_spd(&b).unwrap();
        let x2 = a.solve_lu(&b).unwrap();
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn add_diagonal_shifts_eigenvalues() {
        let mut a = Matrix::zeros(2, 2);
        a.add_diagonal(3.0);
        assert_eq!(a, Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 3.0]]));
    }

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let _ = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }
}
