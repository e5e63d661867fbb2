//! Dense linear algebra: a small row-major [`Matrix`] with LU factorization
//! and linear solves.
//!
//! The circuit simulator's MNA systems are small (tens of unknowns), so a
//! straightforward dense LU with partial pivoting is both adequate and easy
//! to validate.

use crate::{NumError, Result};

/// Magnitude below which a pivot is declared singular.
///
/// Every solver in the workspace — dense [`LuFactors`], [`ComplexMatrix`]
/// and the sparse LU — tests its pivots against this one constant, so they
/// cannot disagree on which system is "singular".
pub const SINGULAR_PIVOT_THRESHOLD: f64 = f64::MIN_POSITIVE * 1e4;

/// Shared singular-pivot predicate: true when `pmax` (the magnitude of the
/// best available pivot) is below [`SINGULAR_PIVOT_THRESHOLD`] or non-finite.
///
/// Callers map a `true` result to [`NumError::SingularMatrix`] with the
/// elimination step as the `pivot` index.
#[inline]
pub fn pivot_is_singular(pmax: f64) -> bool {
    pmax < SINGULAR_PIVOT_THRESHOLD || !pmax.is_finite()
}

/// A dense, row-major `f64` matrix.
///
/// # Example
///
/// ```
/// use lcosc_num::linalg::Matrix;
///
/// # fn main() -> Result<(), lcosc_num::NumError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]])?;
/// let x = a.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero-filled `rows x cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidInput`] if `rows` is empty or the rows have
    /// inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let nrows = rows.len();
        if nrows == 0 {
            return Err(NumError::InvalidInput("matrix needs at least one row"));
        }
        let ncols = rows[0].len();
        if ncols == 0 {
            return Err(NumError::InvalidInput("matrix needs at least one column"));
        }
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            if r.len() != ncols {
                return Err(NumError::InvalidInput("rows have inconsistent lengths"));
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Returns `true` if the matrix is square.
    pub(crate) fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Sets every entry to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Adds `value` to entry `(row, col)` — the fundamental MNA "stamp"
    /// operation.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        self[(row, col)] += value;
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the column count.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch in mul_vec");
        let mut y = vec![0.0; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            *yi = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        y
    }

    /// LU factorization with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidInput`] for non-square matrices or
    /// non-finite entries, and [`NumError::SingularMatrix`] when a pivot
    /// underflows.
    pub fn lu(&self) -> Result<LuFactors> {
        let mut f = LuFactors::with_dim(self.rows);
        f.factor_into(self)?;
        Ok(f)
    }

    /// Solves `self * x = b` via LU factorization.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`Matrix::lu`]; also fails if `b.len()` does not
    /// match the matrix dimension.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != self.rows {
            return Err(NumError::InvalidInput("rhs length mismatch"));
        }
        self.lu()?.solve(b)
    }

    /// Determinant via LU factorization. Returns `0.0` for singular matrices.
    pub fn det(&self) -> f64 {
        match self.lu() {
            Ok(f) => f.det(),
            Err(_) => 0.0,
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>12.5e} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// LU factorization produced by [`Matrix::lu`], reusable for several
/// right-hand sides.
#[derive(Debug, Clone)]
pub struct LuFactors {
    n: usize,
    lu: Vec<f64>,
    perm: Vec<usize>,
    sign: f64,
}

impl LuFactors {
    /// Creates empty factorization storage pre-sized for an `n × n` system.
    ///
    /// The value is not usable for solves until [`LuFactors::factor_into`]
    /// has succeeded at least once; this constructor only reserves the
    /// buffers so the first factorization is the last allocation.
    pub fn with_dim(n: usize) -> Self {
        LuFactors {
            n,
            lu: vec![0.0; n * n],
            perm: (0..n).collect(),
            sign: 1.0,
        }
    }

    /// Dimension of the factorized system.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Re-factorizes `a` into this storage, reusing the existing buffers.
    ///
    /// No heap allocation happens when the dimension matches the storage
    /// (the steady-state path of the transient solver); the arithmetic is
    /// identical to [`Matrix::lu`], so the factors — and every subsequent
    /// solve — are bit-for-bit the same.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidInput`] for non-square matrices or
    /// non-finite entries, and [`NumError::SingularMatrix`] when a pivot
    /// underflows. On error the previous factors are destroyed.
    pub fn factor_into(&mut self, a: &Matrix) -> Result<()> {
        if !a.is_square() {
            return Err(NumError::InvalidInput("lu requires a square matrix"));
        }
        // The pivot search only inspects one column per elimination step: a
        // NaN elsewhere would silently poison the factors instead of
        // surfacing as an error.
        if a.data.iter().any(|v| !v.is_finite()) {
            return Err(NumError::InvalidInput("matrix has non-finite entries"));
        }
        let n = a.rows;
        self.n = n;
        self.lu.clear();
        self.lu.extend_from_slice(&a.data);
        self.perm.clear();
        self.perm.extend(0..n);
        self.sign = 1.0;
        let lu = &mut self.lu;
        let perm = &mut self.perm;

        for k in 0..n {
            // Find pivot.
            let mut p = k;
            let mut pmax = lu[k * n + k].abs();
            for i in (k + 1)..n {
                let v = lu[i * n + k].abs();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            if pivot_is_singular(pmax) {
                return Err(NumError::SingularMatrix { pivot: k });
            }
            if p != k {
                for j in 0..n {
                    lu.swap(k * n + j, p * n + j);
                }
                perm.swap(k, p);
                self.sign = -self.sign;
            }
            let pivot = lu[k * n + k];
            for i in (k + 1)..n {
                let factor = lu[i * n + k] / pivot;
                lu[i * n + k] = factor;
                for j in (k + 1)..n {
                    lu[i * n + j] -= factor * lu[k * n + j];
                }
            }
        }
        Ok(())
    }

    /// Solves `A x = b` for the factorized `A`.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidInput`] on an `b` length mismatch.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = vec![0.0; self.n];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A x = b` into the caller's buffer, with no heap allocation.
    ///
    /// The arithmetic (permutation apply, forward and back substitution in
    /// ascending column order) is identical to [`LuFactors::solve`], so the
    /// result is bit-for-bit the same.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidInput`] when `b` or `x` does not match the
    /// factorized dimension.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<()> {
        if b.len() != self.n || x.len() != self.n {
            return Err(NumError::InvalidInput("rhs length mismatch"));
        }
        let n = self.n;
        // Apply permutation: y = P b.
        for (xi, &p) in x.iter_mut().zip(&self.perm) {
            *xi = b[p];
        }
        // Forward substitution (L has unit diagonal).
        for i in 1..n {
            let (done, rest) = x.split_at_mut(i);
            let mut s = rest[0];
            for (j, xj) in done.iter().enumerate() {
                s -= self.lu[i * n + j] * xj;
            }
            rest[0] = s;
        }
        // Back substitution.
        for i in (0..n).rev() {
            let (head, tail) = x.split_at_mut(i + 1);
            let mut s = head[i];
            for (j, xj) in tail.iter().enumerate() {
                s -= self.lu[i * n + (i + 1 + j)] * xj;
            }
            head[i] = s / self.lu[i * n + i];
        }
        Ok(())
    }

    /// Determinant of the factorized matrix.
    pub fn det(&self) -> f64 {
        let mut d = self.sign;
        for i in 0..self.n {
            d *= self.lu[i * self.n + i];
        }
        d
    }
}

/// A fixed-size 4×4 matrix, row-major.
pub type Mat4 = [[f64; 4]; 4];

fn mat4_mul(a: &Mat4, b: &Mat4) -> Mat4 {
    let mut c = [[0.0; 4]; 4];
    for (ci, ai) in c.iter_mut().zip(a) {
        for (k, aik) in ai.iter().enumerate() {
            for (cij, bkj) in ci.iter_mut().zip(&b[k]) {
                *cij += aik * bkj;
            }
        }
    }
    c
}

/// Matrix exponential `e^M` of a fixed-size 4×4 matrix.
///
/// The matrix is first balanced by an exact power-of-two diagonal
/// similarity `B = D⁻¹·M·D` (so entries in mixed units, such as volts and
/// amperes side by side, are brought to one scale), then `e^B` is taken by
/// scaling and squaring: `B` is halved until its 1-norm is at most ½, an
/// 18-term Taylor series (remainder below 10⁻²² of the norm) is summed in
/// Horner form, and the result is squared back. `e^M = D·e^B·D⁻¹`.
///
/// A matrix whose 1-norm is not finite (an infinite or NaN entry, or
/// entries whose sum overflows) has no result here: every entry comes
/// back NaN.
///
/// # Example
///
/// ```
/// use lcosc_num::linalg::expm4;
///
/// // A rotation generator: e^M is the rotation by one radian.
/// let mut m = [[0.0; 4]; 4];
/// m[0][1] = -1.0;
/// m[1][0] = 1.0;
/// let e = expm4(&m);
/// assert!((e[0][0] - 1f64.cos()).abs() < 1e-15);
/// assert!((e[1][0] - 1f64.sin()).abs() < 1e-15);
/// assert_eq!(e[2][2], 1.0);
/// ```
pub fn expm4(m: &Mat4) -> Mat4 {
    let (mut b, d) = balance4(m);
    let norm = (0..4)
        .map(|j| b.iter().map(|row| row[j].abs()).sum::<f64>())
        .fold(0.0, f64::max);
    if !norm.is_finite() {
        return [[f64::NAN; 4]; 4];
    }
    let mut squarings = 0;
    let mut scaled_norm = norm;
    while scaled_norm > 0.5 {
        scaled_norm *= 0.5;
        squarings += 1;
    }
    let scale = 0.5f64.powi(squarings);
    for row in b.iter_mut() {
        for v in row.iter_mut() {
            *v *= scale;
        }
    }
    // Horner: I + B(I + B/2(I + B/3(… (I + B/18)))).
    let mut e = IDENTITY4;
    for k in (1..=18).rev() {
        let mut t = mat4_mul(&b, &e);
        for (i, row) in t.iter_mut().enumerate() {
            for v in row.iter_mut() {
                *v /= k as f64;
            }
            row[i] += 1.0;
        }
        e = t;
    }
    for _ in 0..squarings {
        e = mat4_mul(&e, &e);
    }
    for (i, row) in e.iter_mut().enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            *v *= d[i] / d[j];
        }
    }
    e
}

const IDENTITY4: Mat4 = [
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
];

/// Power-of-two diagonal balancing (the scaling half of LAPACK's `gebal`):
/// returns `B = D⁻¹·M·D` and the diagonal of `D`. Each pass rescales a
/// row/column pair whose off-diagonal norms differ by more than a factor
/// of two; powers of two make every rescaling exact.
fn balance4(m: &Mat4) -> (Mat4, [f64; 4]) {
    let mut b = *m;
    let mut d = [1.0; 4];
    // Converges in a few passes; the cap only bounds pathological input.
    for _ in 0..64 {
        let mut converged = true;
        for i in 0..4 {
            let mut c = 0.0;
            let mut r = 0.0;
            for j in (0..4).filter(|&j| j != i) {
                c += b[j][i].abs();
                r += b[i][j].abs();
            }
            if c == 0.0 || r == 0.0 || !(c + r).is_finite() {
                continue;
            }
            let sum = c + r;
            let mut f = 1.0;
            while c < r / 2.0 {
                f *= 2.0;
                c *= 4.0;
            }
            while c > r * 2.0 {
                f /= 2.0;
                c /= 4.0;
            }
            // `c` is now the column norm times f², so (c + r)/f is the pair's
            // norm after the rescaling.
            if (c + r) / f < 0.95 * sum {
                converged = false;
                d[i] *= f;
                for row in b.iter_mut() {
                    row[i] *= f;
                }
                for v in b[i].iter_mut() {
                    *v /= f;
                }
            }
        }
        if converged {
            break;
        }
    }
    (b, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, rel: f64) -> bool {
        (a - b).abs() <= rel * b.abs().max(f64::MIN_POSITIVE)
    }

    #[test]
    fn expm4_of_zero_is_identity_and_of_a_diagonal_is_elementwise() {
        assert_eq!(expm4(&[[0.0; 4]; 4]), IDENTITY4);
        let d = [-3.0, 0.5, 2.0, -0.1];
        let mut m = [[0.0; 4]; 4];
        for (i, di) in d.iter().enumerate() {
            m[i][i] = *di;
        }
        let e = expm4(&m);
        for (i, di) in d.iter().enumerate() {
            for (j, eij) in e[i].iter().enumerate() {
                let want = if i == j { di.exp() } else { 0.0 };
                // e^{−3} takes three squarings, each doubling the rounding.
                assert!(close(*eij, want, 1e-14), "({i},{j}): {eij} vs {want}");
            }
        }
    }

    #[test]
    fn expm4_sums_a_nilpotent_series_exactly() {
        // Strictly upper triangular: e^N = I + N + N²/2 + N³/6.
        let n = [
            [0.0, 1.0, 2.0, 3.0],
            [0.0, 0.0, 4.0, 5.0],
            [0.0, 0.0, 0.0, 6.0],
            [0.0, 0.0, 0.0, 0.0],
        ];
        let e = expm4(&n);
        let n2 = mat4_mul(&n, &n);
        let n3 = mat4_mul(&n2, &n);
        for i in 0..4 {
            for j in 0..4 {
                let want = IDENTITY4[i][j] + n[i][j] + n2[i][j] / 2.0 + n3[i][j] / 6.0;
                assert!(
                    close(e[i][j], want, 1e-14),
                    "({i},{j}): {} vs {want}",
                    e[i][j]
                );
            }
        }
    }

    #[test]
    fn expm4_keeps_every_entry_of_a_badly_scaled_rotation() {
        // [[0, −s], [1/s, 0]]·θ: a rotation in mixed units, whose 1-norm
        // (1e9·θ) would need 31 squarings without balancing. θ = 10 rad
        // still needs squarings after it.
        for (scale, theta) in [(1e9, 1.0), (1e-7, 0.3), (1.0, 10.0), (1e6, 10.0)] {
            let mut m = [[0.0; 4]; 4];
            m[0][1] = -scale * theta;
            m[1][0] = theta / scale;
            m[3][3] = -theta;
            let e = expm4(&m);
            let (c, s) = (theta.cos(), theta.sin());
            let want = [[c, -scale * s], [s / scale, c]];
            for i in 0..2 {
                for j in 0..2 {
                    assert!(
                        close(e[i][j], want[i][j], 1e-13),
                        "scale {scale}, θ {theta}, ({i},{j}): {} vs {}",
                        e[i][j],
                        want[i][j]
                    );
                }
            }
            assert!(close(e[3][3], (-theta).exp(), 1e-14));
            assert_eq!(e[2][2], 1.0);
        }
    }

    #[test]
    fn expm4_of_a_non_finite_matrix_is_nan() {
        // An infinite entry once kept the halving loop running for good.
        for bad in [f64::NEG_INFINITY, f64::INFINITY, f64::NAN] {
            let mut m = [[0.0; 4]; 4];
            m[2][2] = bad;
            assert!(expm4(&m).iter().flatten().all(|v| v.is_nan()), "{bad}");
        }
        // Finite entries whose column sum overflows.
        let mut m = [[0.0; 4]; 4];
        m[0][0] = f64::MAX;
        m[1][0] = f64::MAX;
        assert!(expm4(&m).iter().flatten().all(|v| v.is_nan()));
    }

    #[test]
    fn identity_solves_to_rhs() {
        let a = Matrix::identity(4);
        let b = [1.0, -2.0, 3.5, 0.25];
        let x = a.solve(&b).unwrap();
        assert_eq!(x, b.to_vec());
    }

    #[test]
    fn solve_known_2x2() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let x = a.solve(&[3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = a.solve(&[7.0, 9.0]).unwrap();
        assert!((x[0] - 9.0).abs() < 1e-12);
        assert!((x[1] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        match a.solve(&[1.0, 2.0]) {
            Err(NumError::SingularMatrix { .. }) => {}
            other => panic!("expected SingularMatrix, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_entries_are_rejected_not_propagated() {
        // NaN off the pivot column used to factor "successfully" and poison
        // every solve result.
        let a = Matrix::from_rows(&[&[1.0, f64::NAN], &[0.0, 1.0]]).unwrap();
        assert!(matches!(
            a.solve(&[1.0, 1.0]),
            Err(NumError::InvalidInput(_))
        ));
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[f64::INFINITY, 1.0]]).unwrap();
        assert!(b.lu().is_err());
        assert_eq!(b.det(), 0.0);
    }

    #[test]
    fn determinant_matches_cofactor_expansion() {
        let a =
            Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 10.0]]).unwrap();
        // det = 1*(50-48) - 2*(40-42) + 3*(32-35) = 2 + 4 - 9 = -3
        assert!((a.det() + 3.0).abs() < 1e-10);
    }

    #[test]
    fn residual_of_random_like_system_is_tiny() {
        // Fixed pseudo-random matrix (deterministic, no rng dependency).
        let n = 8;
        let mut a = Matrix::zeros(n, n);
        let mut seed = 1u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = next();
            }
            a[(i, i)] += 4.0; // diagonally dominant => well conditioned
        }
        let xtrue: Vec<f64> = (0..n).map(|i| (i as f64) - 3.5).collect();
        let b = a.mul_vec(&xtrue);
        let x = a.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&xtrue) {
            assert!((xi - ti).abs() < 1e-10, "{xi} vs {ti}");
        }
    }

    #[test]
    fn lu_factors_reusable_for_multiple_rhs() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]).unwrap();
        let f = a.lu().unwrap();
        let x1 = f.solve(&[4.0, 3.0]).unwrap();
        let x2 = f.solve(&[1.0, 0.0]).unwrap();
        assert!((x1[0] - 1.0).abs() < 1e-12 && (x1[1] - 1.0).abs() < 1e-12);
        assert!((x2[0] - 0.4).abs() < 1e-12 && (x2[1] + 0.2).abs() < 1e-12);
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let e = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(e, NumError::InvalidInput(_)));
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn clear_zeroes_everything() {
        let mut a = Matrix::identity(3);
        a.clear();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(a[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn stamp_accumulates() {
        let mut a = Matrix::zeros(2, 2);
        a.add(0, 0, 1.5);
        a.add(0, 0, 2.5);
        assert_eq!(a[(0, 0)], 4.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let a = Matrix::zeros(2, 2);
        let _ = a[(2, 0)];
    }

    #[test]
    fn display_is_nonempty() {
        let a = Matrix::identity(2);
        assert!(!format!("{a}").is_empty());
    }

    fn pseudo_random_matrix(n: usize, mut seed: u64) -> Matrix {
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = next();
            }
            a[(i, i)] += 3.0;
        }
        a
    }

    #[test]
    fn factor_into_is_bit_identical_to_lu_and_reuses_storage() {
        let a = pseudo_random_matrix(7, 11);
        let b = pseudo_random_matrix(7, 99);
        let fa = a.lu().unwrap();
        let mut reused = LuFactors::with_dim(7);
        reused.factor_into(&a).unwrap();
        let rhs: Vec<f64> = (0..7).map(|i| i as f64 - 2.5).collect();
        let xa = fa.solve(&rhs).unwrap();
        let xr = reused.solve(&rhs).unwrap();
        for (p, q) in xa.iter().zip(&xr) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
        // Refactor different data into the same storage.
        reused.factor_into(&b).unwrap();
        let xb = b.lu().unwrap().solve(&rhs).unwrap();
        let xr = reused.solve(&rhs).unwrap();
        for (p, q) in xb.iter().zip(&xr) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    #[test]
    fn solve_into_matches_solve_bitwise() {
        let a = pseudo_random_matrix(6, 5);
        let f = a.lu().unwrap();
        let rhs: Vec<f64> = (0..6).map(|i| (i as f64).sin()).collect();
        let x = f.solve(&rhs).unwrap();
        let mut xi = vec![0.0; 6];
        f.solve_into(&rhs, &mut xi).unwrap();
        for (p, q) in x.iter().zip(&xi) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    #[test]
    fn factor_into_rejects_bad_input_like_lu() {
        let mut f = LuFactors::with_dim(2);
        let rect = Matrix::zeros(2, 3);
        assert!(matches!(
            f.factor_into(&rect),
            Err(NumError::InvalidInput(_))
        ));
        let nan = Matrix::from_rows(&[&[1.0, f64::NAN], &[0.0, 1.0]]).unwrap();
        assert!(matches!(
            f.factor_into(&nan),
            Err(NumError::InvalidInput(_))
        ));
        let sing = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(
            f.factor_into(&sing),
            Err(NumError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn solve_into_rejects_length_mismatch() {
        let f = Matrix::identity(3).lu().unwrap();
        let mut x = vec![0.0; 2];
        assert!(f.solve_into(&[1.0, 2.0, 3.0], &mut x).is_err());
        let mut x3 = vec![0.0; 3];
        assert!(f.solve_into(&[1.0, 2.0], &mut x3).is_err());
    }
}

/// A dense, row-major complex matrix with LU solve — used by the circuit
/// simulator's AC (small-signal, frequency-domain) analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct ComplexMatrix {
    rows: usize,
    cols: usize,
    data: Vec<crate::fft::Complex>,
}

impl ComplexMatrix {
    /// Creates a zero-filled `rows x cols` complex matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        ComplexMatrix {
            rows,
            cols,
            data: vec![crate::fft::Complex::default(); rows * cols],
        }
    }

    /// Sets every entry to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data
            .iter_mut()
            .for_each(|v| *v = crate::fft::Complex::default());
    }

    /// Adds `value` to entry `(row, col)` (the MNA stamp operation).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn add(&mut self, row: usize, col: usize, value: crate::fft::Complex) {
        assert!(
            row < self.rows && col < self.cols,
            "matrix index out of bounds"
        );
        let cur = self.data[row * self.cols + col];
        self.data[row * self.cols + col] = cur + value;
    }

    /// Solves `self · x = b` via LU with partial (magnitude) pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidInput`] for non-square systems, a
    /// mismatched rhs or non-finite entries, and
    /// [`NumError::SingularMatrix`] when a pivot underflows.
    pub fn solve(&self, b: &[crate::fft::Complex]) -> Result<Vec<crate::fft::Complex>> {
        let mut lu = Vec::new();
        let mut x = Vec::new();
        self.solve_into(b, &mut lu, &mut x)?;
        Ok(x)
    }

    /// Solves `self · x = b` like [`ComplexMatrix::solve`], but into
    /// caller-provided buffers: `lu` is factorization scratch and `x`
    /// receives the solution. Both are cleared and refilled, so after the
    /// first call no reallocation happens when the dimensions are stable —
    /// an AC sweep reuses one pair of buffers across every frequency point.
    ///
    /// # Errors
    ///
    /// Same as [`ComplexMatrix::solve`] (the results are bit-identical).
    pub fn solve_into(
        &self,
        b: &[crate::fft::Complex],
        lu: &mut Vec<crate::fft::Complex>,
        x: &mut Vec<crate::fft::Complex>,
    ) -> Result<()> {
        if self.rows != self.cols {
            return Err(NumError::InvalidInput("solve requires a square matrix"));
        }
        if b.len() != self.rows {
            return Err(NumError::InvalidInput("rhs length mismatch"));
        }
        if self
            .data
            .iter()
            .any(|v| !v.re.is_finite() || !v.im.is_finite())
        {
            return Err(NumError::InvalidInput("matrix has non-finite entries"));
        }
        let n = self.rows;
        lu.clear();
        lu.extend_from_slice(&self.data);
        x.clear();
        x.extend_from_slice(b);

        for k in 0..n {
            // Pivot by magnitude.
            let mut p = k;
            let mut pmax = lu[k * n + k].abs();
            for i in (k + 1)..n {
                let v = lu[i * n + k].abs();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            if pivot_is_singular(pmax) {
                return Err(NumError::SingularMatrix { pivot: k });
            }
            if p != k {
                for j in 0..n {
                    lu.swap(k * n + j, p * n + j);
                }
                x.swap(k, p);
            }
            let pivot = lu[k * n + k];
            for i in (k + 1)..n {
                let factor = lu[i * n + k] / pivot;
                lu[i * n + k] = factor;
                for j in (k + 1)..n {
                    let sub = factor * lu[k * n + j];
                    let cur = lu[i * n + j];
                    lu[i * n + j] = cur - sub;
                }
                let sub = factor * x[k];
                let cur = x[i];
                x[i] = cur - sub;
            }
        }
        // Back substitution.
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in (i + 1)..n {
                s = s - lu[i * n + j] * x[j];
            }
            x[i] = s / lu[i * n + i];
        }
        Ok(())
    }
}

#[cfg(test)]
mod complex_tests {
    use super::*;
    use crate::fft::Complex;

    #[test]
    fn complex_identity_solve() {
        let mut a = ComplexMatrix::zeros(2, 2);
        a.add(0, 0, Complex::new(1.0, 0.0));
        a.add(1, 1, Complex::new(1.0, 0.0));
        let b = [Complex::new(2.0, 1.0), Complex::new(-3.0, 0.5)];
        let x = a.solve(&b).unwrap();
        assert_eq!(x, b.to_vec());
    }

    #[test]
    fn complex_known_system() {
        // (1 + j)·x = 2 -> x = 1 − j.
        let mut a = ComplexMatrix::zeros(1, 1);
        a.add(0, 0, Complex::new(1.0, 1.0));
        let x = a.solve(&[Complex::new(2.0, 0.0)]).unwrap();
        assert!((x[0].re - 1.0).abs() < 1e-12 && (x[0].im + 1.0).abs() < 1e-12);
    }

    #[test]
    fn complex_pivoting_works() {
        let mut a = ComplexMatrix::zeros(2, 2);
        a.add(0, 1, Complex::new(0.0, 1.0)); // j in the corner
        a.add(1, 0, Complex::new(2.0, 0.0));
        let x = a
            .solve(&[Complex::new(0.0, 2.0), Complex::new(4.0, 0.0)])
            .unwrap();
        // Row0: j·x1 = 2j -> x1 = 2. Row1: 2 x0 = 4 -> x0 = 2.
        assert!((x[0].re - 2.0).abs() < 1e-12);
        assert!((x[1].re - 2.0).abs() < 1e-12);
    }

    #[test]
    fn complex_non_finite_entries_rejected() {
        let mut a = ComplexMatrix::zeros(2, 2);
        a.add(0, 0, Complex::new(1.0, 0.0));
        a.add(0, 1, Complex::new(0.0, f64::NAN));
        a.add(1, 1, Complex::new(1.0, 0.0));
        assert!(matches!(
            a.solve(&[Complex::default(), Complex::default()]),
            Err(NumError::InvalidInput(_))
        ));
    }

    #[test]
    fn complex_singular_detected() {
        let a = ComplexMatrix::zeros(2, 2);
        assert!(matches!(
            a.solve(&[Complex::default(), Complex::default()]),
            Err(NumError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn complex_solve_into_matches_solve_bitwise_and_reuses_buffers() {
        let n = 4;
        let mut a = ComplexMatrix::zeros(n, n);
        let mut seed = 3u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for i in 0..n {
            for j in 0..n {
                a.add(i, j, Complex::new(next(), next()));
            }
            a.add(i, i, Complex::new(4.0, 0.0));
        }
        let b: Vec<Complex> = (0..n).map(|i| Complex::new(i as f64, 1.0)).collect();
        let x = a.solve(&b).unwrap();
        let mut lu = Vec::new();
        let mut xi = Vec::new();
        a.solve_into(&b, &mut lu, &mut xi).unwrap();
        for (p, q) in x.iter().zip(&xi) {
            assert_eq!(p.re.to_bits(), q.re.to_bits());
            assert_eq!(p.im.to_bits(), q.im.to_bits());
        }
        // A second solve must not grow the scratch buffers.
        let cap = (lu.capacity(), xi.capacity());
        a.solve_into(&b, &mut lu, &mut xi).unwrap();
        assert_eq!((lu.capacity(), xi.capacity()), cap);
    }

    #[test]
    fn complex_residual_small() {
        let n = 5;
        let mut a = ComplexMatrix::zeros(n, n);
        let mut seed = 7u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut dense = vec![Complex::default(); n * n];
        for i in 0..n {
            for j in 0..n {
                let v = Complex::new(next(), next());
                dense[i * n + j] = v;
                a.add(i, j, v);
            }
            a.add(i, i, Complex::new(5.0, 0.0));
            dense[i * n + i] = dense[i * n + i] + Complex::new(5.0, 0.0);
        }
        let xt: Vec<Complex> = (0..n)
            .map(|i| Complex::new(i as f64, -(i as f64)))
            .collect();
        let b: Vec<Complex> = (0..n)
            .map(|i| {
                let mut s = Complex::default();
                for j in 0..n {
                    s = s + dense[i * n + j] * xt[j];
                }
                s
            })
            .collect();
        let x = a.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&xt) {
            assert!((*xi - *ti).abs() < 1e-9);
        }
    }
}
