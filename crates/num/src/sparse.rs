//! Sparse linear algebra: a compressed-sparse-column matrix with a
//! KLU-style split between **symbolic analysis** and **numeric
//! factorization**.
//!
//! The dense [`crate::linalg::Matrix`] path is O(n³) per factorization and
//! caps MNA systems at toy size. Circuit matrices, however, have a fixed
//! sparsity pattern for a given netlist structure: only the *values* change
//! between Newton iterations, time steps and campaign jobs. This module
//! exploits that by doing all the pattern work once:
//!
//! 1. [`SparseSymbolic::analyze`] takes the structural pattern and computes
//!    a row matching (so the permuted diagonal is structurally nonzero — MNA
//!    voltage-source branch rows have a zero diagonal), a fill-reducing
//!    minimum-degree column ordering, and the exact elimination pattern of
//!    `L` and `U`. This is a pure function of the pattern: no numeric
//!    values are consulted, so the analysis can be cached per netlist
//!    structural digest and shared across threads without affecting
//!    results.
//! 2. [`SparseLu::factor_into`] scatters the current values into the
//!    precomputed pattern and runs a left-looking elimination with **no
//!    numeric pivoting** — the pivot order is fixed by the symbolic step.
//!    A pivot that underflows [`crate::linalg::SINGULAR_PIVOT_THRESHOLD`]
//!    reports [`NumError::SingularMatrix`] with the elimination step, the
//!    same semantics as the dense solver.
//!
//! Because the factorization path is a pure function of (pattern, values),
//! sparse results are bit-identical regardless of which thread computed the
//! symbolic analysis or how many jobs share it.

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::linalg::pivot_is_singular;
use crate::{NumError, Result};

/// A compressed-sparse-column `f64` matrix with a fixed structural pattern.
///
/// The pattern (which `(row, col)` slots exist) is fixed at construction;
/// [`SparseMatrix::add`] accumulates into existing slots only. This mirrors
/// how MNA stamping works: the netlist fixes the pattern, each solve only
/// rewrites values.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    n: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl SparseMatrix {
    /// Builds an `n x n` matrix whose structural slots are `entries`
    /// (`(row, col)` pairs, duplicates allowed and merged). All values start
    /// at zero.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidInput`] when `n == 0` or any index is out
    /// of range.
    pub fn from_pattern(n: usize, entries: &[(usize, usize)]) -> Result<Self> {
        if n == 0 {
            return Err(NumError::InvalidInput("sparse matrix must be non-empty"));
        }
        if entries.iter().any(|&(r, c)| r >= n || c >= n) {
            return Err(NumError::InvalidInput("pattern entry out of range"));
        }
        // Column-major sort, then dedup.
        let mut sorted: Vec<(usize, usize)> = entries.iter().map(|&(r, c)| (c, r)).collect();
        sorted.sort_unstable();
        sorted.dedup();
        let mut col_ptr = vec![0usize; n + 1];
        let mut row_idx = Vec::with_capacity(sorted.len());
        for &(c, r) in &sorted {
            col_ptr[c + 1] += 1;
            row_idx.push(r);
        }
        for c in 0..n {
            col_ptr[c + 1] += col_ptr[c];
        }
        let values = vec![0.0; row_idx.len()];
        Ok(SparseMatrix {
            n,
            col_ptr,
            row_idx,
            values,
        })
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Resets every value to zero, keeping the pattern.
    pub fn clear(&mut self) {
        for v in &mut self.values {
            *v = 0.0;
        }
    }

    /// Accumulates `v` into slot `(i, j)`. Returns `false` (leaving the
    /// matrix untouched) when the slot is not part of the pattern, so
    /// callers can detect a pattern/stamp mismatch without panicking.
    #[must_use]
    pub fn add(&mut self, i: usize, j: usize, v: f64) -> bool {
        if i >= self.n || j >= self.n {
            return false;
        }
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        match self.row_idx[lo..hi].binary_search(&i) {
            Ok(pos) => {
                self.values[lo + pos] += v;
                true
            }
            Err(_) => false,
        }
    }
}

/// The cached, value-independent half of a sparse LU: permutations and the
/// exact elimination pattern. Computed once per structural pattern by
/// [`SparseSymbolic::analyze`]; shared across factorizations via `Arc`.
#[derive(Debug, Clone)]
pub struct SparseSymbolic {
    n: usize,
    /// Original row stored at permuted row position `k`.
    perm_row: Vec<usize>,
    /// Original column eliminated at step `k`.
    perm_col: Vec<usize>,
    /// Factor pattern in CSC over permuted indices; each column ascending.
    lu_col_ptr: Vec<usize>,
    lu_row_idx: Vec<usize>,
    /// Position of the diagonal inside each factor column.
    diag_idx: Vec<usize>,
    /// Canonical input pattern (for a cheap compatibility check at factor
    /// time) plus a precomputed scatter map: for every input CSC slot, the
    /// permuted row it lands on.
    a_col_ptr: Vec<usize>,
    a_row_idx: Vec<usize>,
    scatter_row: Vec<usize>,
}

impl SparseSymbolic {
    /// Analyzes the structural pattern of `a`.
    ///
    /// The result depends only on the pattern — never on values — which is
    /// what makes caching it per netlist digest sound and keeps factor
    /// results independent of which thread performed the analysis.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::SingularMatrix`] when the pattern is structurally
    /// singular (no complete row matching exists); the reported `pivot` is
    /// the first column that cannot be matched.
    pub fn analyze(a: &SparseMatrix) -> Result<Self> {
        let n = a.n;
        // Column adjacency over original indices.
        let col_rows: Vec<&[usize]> = (0..n)
            .map(|c| &a.row_idx[a.col_ptr[c]..a.col_ptr[c + 1]])
            .collect();

        let match_row = maximum_matching(n, &col_rows)?;

        // Relabel rows so the matched row of column `c` sits at row `c`:
        // the diagonal of the relabeled structure is structurally nonzero.
        let mut row_pos = vec![0usize; n];
        for (c, &r) in match_row.iter().enumerate() {
            row_pos[r] = c;
        }

        // Fill-reducing order on the symmetrized relabeled structure.
        let order = minimum_degree_order(n, &col_rows, &row_pos);
        let mut inv_order = vec![0usize; n];
        for (k, &c) in order.iter().enumerate() {
            inv_order[c] = k;
        }

        // Exact symbolic elimination on the doubly-permuted structure.
        let mut cols: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        let mut rows: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        for c in 0..n {
            let j = inv_order[c];
            for &r in col_rows[c] {
                let i = inv_order[row_pos[r]];
                cols[j].insert(i);
                rows[i].insert(j);
            }
        }
        for k in 0..n {
            let below: Vec<usize> = cols[k].range(k + 1..).copied().collect();
            let right: Vec<usize> = rows[k].range(k + 1..).copied().collect();
            for &i in &below {
                for &j in &right {
                    if cols[j].insert(i) {
                        rows[i].insert(j);
                    }
                }
            }
        }

        // Freeze the factor pattern into CSC arrays.
        let mut lu_col_ptr = Vec::with_capacity(n + 1);
        let mut lu_row_idx = Vec::new();
        let mut diag_idx = Vec::with_capacity(n);
        lu_col_ptr.push(0);
        for (j, col) in cols.iter().enumerate() {
            let base = lu_row_idx.len();
            let mut diag = None;
            for (off, &i) in col.iter().enumerate() {
                if i == j {
                    diag = Some(base + off);
                }
                lu_row_idx.push(i);
            }
            // The matching guarantees a structural diagonal in every column.
            diag_idx.push(diag.ok_or(NumError::InvalidInput(
                "symbolic elimination lost a structural diagonal",
            ))?);
            lu_col_ptr.push(lu_row_idx.len());
        }

        // Final permutations over original indices and the scatter map for
        // every input slot.
        let perm_col: Vec<usize> = order.clone();
        let perm_row: Vec<usize> = order.iter().map(|&c| match_row[c]).collect();
        let mut scatter_row = vec![0usize; a.row_idx.len()];
        for c in 0..n {
            for slot in a.col_ptr[c]..a.col_ptr[c + 1] {
                scatter_row[slot] = inv_order[row_pos[a.row_idx[slot]]];
            }
        }

        Ok(SparseSymbolic {
            n,
            perm_row,
            perm_col,
            lu_col_ptr,
            lu_row_idx,
            diag_idx,
            a_col_ptr: a.col_ptr.clone(),
            a_row_idx: a.row_idx.clone(),
            scatter_row,
        })
    }

    /// Matrix dimension this analysis applies to.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Slot count of the `L + U` factor pattern (fill included).
    pub(crate) fn factor_nnz(&self) -> usize {
        self.lu_row_idx.len()
    }

    fn pattern_matches(&self, a: &SparseMatrix) -> bool {
        a.n == self.n && a.col_ptr == self.a_col_ptr && a.row_idx == self.a_row_idx
    }
}

/// Maximum bipartite matching columns → rows via BFS augmenting paths,
/// preferring the diagonal so well-posed node equations keep their natural
/// pivot. Deterministic: adjacency is scanned in ascending row order and
/// columns are processed in ascending index order.
fn maximum_matching(n: usize, col_rows: &[&[usize]]) -> Result<Vec<usize>> {
    let mut match_row: Vec<Option<usize>> = vec![None; n];
    let mut match_col: Vec<Option<usize>> = vec![None; n];
    // Cheap pass: take the diagonal wherever it exists.
    for (c, rows) in col_rows.iter().enumerate() {
        if rows.binary_search(&c).is_ok() && match_col[c].is_none() {
            match_row[c] = Some(c);
            match_col[c] = Some(c);
        }
    }
    let mut prev_col = vec![0usize; n];
    let mut via_row = vec![0usize; n];
    let mut visited = vec![false; n];
    let mut enqueued = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if match_row[start].is_some() {
            continue;
        }
        visited.fill(false);
        enqueued.fill(false);
        queue.clear();
        queue.push_back(start);
        enqueued[start] = true;
        let mut free = None;
        'bfs: while let Some(c) = queue.pop_front() {
            for &r in col_rows[c] {
                if visited[r] {
                    continue;
                }
                visited[r] = true;
                prev_col[r] = c;
                match match_col[r] {
                    None => {
                        free = Some(r);
                        break 'bfs;
                    }
                    Some(c2) => {
                        if !enqueued[c2] {
                            enqueued[c2] = true;
                            via_row[c2] = r;
                            queue.push_back(c2);
                        }
                    }
                }
            }
        }
        let Some(mut r) = free else {
            return Err(NumError::SingularMatrix { pivot: start });
        };
        // Flip the alternating path back to the start column.
        loop {
            let c = prev_col[r];
            match_row[c] = Some(r);
            match_col[r] = Some(c);
            if c == start {
                break;
            }
            r = via_row[c];
        }
    }
    Ok(match_row
        .into_iter()
        .map(|r| r.expect("every column matched"))
        .collect())
}

/// Greedy minimum-degree ordering on the symmetrized, row-relabeled
/// structure. Ties break toward the lowest index, so the order is a
/// deterministic function of the pattern.
fn minimum_degree_order(n: usize, col_rows: &[&[usize]], row_pos: &[usize]) -> Vec<usize> {
    let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for (c, rows) in col_rows.iter().enumerate() {
        for &r in rows.iter() {
            let i = row_pos[r];
            if i != c {
                adj[i].insert(c);
                adj[c].insert(i);
            }
        }
    }
    let mut alive = vec![true; n];
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let mut best = usize::MAX;
        let mut best_deg = usize::MAX;
        for (v, a) in adj.iter().enumerate() {
            if alive[v] && a.len() < best_deg {
                best_deg = a.len();
                best = v;
            }
        }
        let v = best;
        order.push(v);
        alive[v] = false;
        let neighbors: Vec<usize> = adj[v].iter().copied().collect();
        for &u in &neighbors {
            adj[u].remove(&v);
        }
        for (ai, &u) in neighbors.iter().enumerate() {
            for &w in &neighbors[ai + 1..] {
                adj[u].insert(w);
                adj[w].insert(u);
            }
        }
        adj[v].clear();
    }
    order
}

/// Numeric sparse LU over a cached [`SparseSymbolic`] pattern.
///
/// After construction the buffers never grow: `factor_into` and
/// `solve_into` are allocation-free, matching the dense
/// [`crate::linalg::LuFactors`] steady-state contract.
#[derive(Debug, Clone)]
pub struct SparseLu {
    sym: Arc<SparseSymbolic>,
    values: Vec<f64>,
    work: Vec<f64>,
}

impl SparseLu {
    /// Creates numeric storage for the given symbolic analysis.
    pub fn new(sym: Arc<SparseSymbolic>) -> Self {
        let nnz = sym.factor_nnz();
        let n = sym.n;
        SparseLu {
            sym,
            values: vec![0.0; nnz],
            work: vec![0.0; n],
        }
    }

    /// Factorizes `a` into the cached pattern (left-looking, fixed pivot
    /// order, no heap allocation).
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidInput`] when `a` was not built from this
    /// symbolic pattern or contains non-finite values, and
    /// [`NumError::SingularMatrix`] when a pivot underflows the shared
    /// [`crate::linalg::SINGULAR_PIVOT_THRESHOLD`]. On error the previous
    /// factors are destroyed.
    pub fn factor_into(&mut self, a: &SparseMatrix) -> Result<()> {
        if !self.sym.pattern_matches(a) {
            return Err(NumError::InvalidInput(
                "matrix pattern does not match symbolic analysis",
            ));
        }
        if a.values.iter().any(|v| !v.is_finite()) {
            return Err(NumError::InvalidInput("matrix has non-finite entries"));
        }
        let sym = &*self.sym;
        let n = sym.n;
        let x = &mut self.work;
        let lu = &mut self.values;
        for v in x.iter_mut() {
            *v = 0.0;
        }
        for j in 0..n {
            // Scatter the permuted input column into the dense workspace.
            let c = sym.perm_col[j];
            for slot in a.col_ptr[c]..a.col_ptr[c + 1] {
                x[sym.scatter_row[slot]] = a.values[slot];
            }
            let lo = sym.lu_col_ptr[j];
            let hi = sym.lu_col_ptr[j + 1];
            let dj = sym.diag_idx[j];
            // Left-looking update: ascending U rows, each applying the
            // already-final L column k.
            for ptr in lo..dj {
                let k = sym.lu_row_idx[ptr];
                let xk = x[k];
                lu[ptr] = xk;
                if xk != 0.0 {
                    for lptr in (sym.diag_idx[k] + 1)..sym.lu_col_ptr[k + 1] {
                        x[sym.lu_row_idx[lptr]] -= lu[lptr] * xk;
                    }
                }
            }
            let pivot = x[j];
            if pivot_is_singular(pivot.abs()) {
                // Re-zero the workspace so a later retry starts clean.
                for ptr in lo..hi {
                    x[sym.lu_row_idx[ptr]] = 0.0;
                }
                return Err(NumError::SingularMatrix { pivot: j });
            }
            lu[dj] = pivot;
            for ptr in (dj + 1)..hi {
                lu[ptr] = x[sym.lu_row_idx[ptr]] / pivot;
            }
            // Clear exactly the touched entries (the factor pattern is the
            // closure of every update this column received).
            for ptr in lo..hi {
                x[sym.lu_row_idx[ptr]] = 0.0;
            }
        }
        Ok(())
    }

    /// Solves `A x = b` for the factorized `A`.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidInput`] on a length mismatch.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = vec![0.0; self.sym.n];
        let mut scratch = vec![0.0; self.sym.n];
        self.solve_with(b, &mut x, &mut scratch)?;
        Ok(x)
    }

    /// Solves `A x = b` into caller-provided buffers with no allocation.
    /// `y` is forward/backward substitution scratch.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidInput`] when `b`, `x` or `y` does not
    /// match the factorized dimension.
    pub fn solve_with(&self, b: &[f64], x: &mut [f64], y: &mut [f64]) -> Result<()> {
        let sym = &*self.sym;
        let n = sym.n;
        if b.len() != n || x.len() != n || y.len() != n {
            return Err(NumError::InvalidInput("rhs length mismatch"));
        }
        // y = P_row b.
        for (k, &r) in sym.perm_row.iter().enumerate() {
            y[k] = b[r];
        }
        // Forward substitution with unit-diagonal L, column by column.
        for k in 0..n {
            let yk = y[k];
            if yk != 0.0 {
                for ptr in (sym.diag_idx[k] + 1)..sym.lu_col_ptr[k + 1] {
                    y[sym.lu_row_idx[ptr]] -= self.values[ptr] * yk;
                }
            }
        }
        // Back substitution with U, column by column.
        for j in (0..n).rev() {
            let yj = y[j] / self.values[sym.diag_idx[j]];
            y[j] = yj;
            if yj != 0.0 {
                for ptr in sym.lu_col_ptr[j]..sym.diag_idx[j] {
                    y[sym.lu_row_idx[ptr]] -= self.values[ptr] * yj;
                }
            }
        }
        // Undo the column permutation.
        for (j, &c) in sym.perm_col.iter().enumerate() {
            x[c] = y[j];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Matrix;

    fn dense_pattern(rows: &[&[f64]]) -> (Vec<(usize, usize)>, Matrix) {
        let n = rows.len();
        let mut entries = Vec::new();
        let mut m = Matrix::zeros(n, n);
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    entries.push((i, j));
                    m.add(i, j, v);
                }
            }
        }
        (entries, m)
    }

    fn sparse_from(rows: &[&[f64]]) -> (SparseLu, SparseMatrix, Matrix) {
        let n = rows.len();
        let (entries, dense) = dense_pattern(rows);
        let mut a = SparseMatrix::from_pattern(n, &entries).unwrap();
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    assert!(a.add(i, j, v));
                }
            }
        }
        let sym = Arc::new(SparseSymbolic::analyze(&a).unwrap());
        (SparseLu::new(sym), a, dense)
    }

    #[test]
    fn matches_dense_on_small_system() {
        let rows: &[&[f64]] = &[&[4.0, 1.0, 0.0], &[1.0, 3.0, -1.0], &[0.0, -1.0, 2.5]];
        let (mut lu, a, dense) = sparse_from(rows);
        lu.factor_into(&a).unwrap();
        let b = [1.0, -2.0, 0.5];
        let xs = lu.solve(&b).unwrap();
        let xd = dense.solve(&b).unwrap();
        for (s, d) in xs.iter().zip(&xd) {
            assert!((s - d).abs() < 1e-12, "{s} vs {d}");
        }
    }

    #[test]
    fn handles_zero_diagonal_saddle_rows() {
        // MNA with a voltage source: the branch row has a zero diagonal and
        // needs the structural matching to find an off-diagonal pivot.
        let rows: &[&[f64]] = &[&[2.0, 0.0, 1.0], &[0.0, 1.0, -1.0], &[1.0, -1.0, 0.0]];
        let (mut lu, a, dense) = sparse_from(rows);
        lu.factor_into(&a).unwrap();
        let b = [0.0, 0.0, 5.0];
        let xs = lu.solve(&b).unwrap();
        let xd = dense.solve(&b).unwrap();
        for (s, d) in xs.iter().zip(&xd) {
            assert!((s - d).abs() < 1e-9, "{s} vs {d}");
        }
    }

    #[test]
    fn tridiagonal_ladder_matches_dense() {
        let n = 60;
        let mut entries = Vec::new();
        for i in 0..n {
            entries.push((i, i));
            if i + 1 < n {
                entries.push((i, i + 1));
                entries.push((i + 1, i));
            }
        }
        let mut a = SparseMatrix::from_pattern(n, &entries).unwrap();
        let mut dense = Matrix::zeros(n, n);
        for i in 0..n {
            let d = 2.0 + (i as f64) * 0.01;
            assert!(a.add(i, i, d));
            dense.add(i, i, d);
            if i + 1 < n {
                assert!(a.add(i, i + 1, -1.0));
                assert!(a.add(i + 1, i, -1.0));
                dense.add(i, i + 1, -1.0);
                dense.add(i + 1, i, -1.0);
            }
        }
        let sym = Arc::new(SparseSymbolic::analyze(&a).unwrap());
        // Tridiagonal systems admit an ordering with almost no fill.
        assert!(sym.factor_nnz() <= (3 * n - 2) + n);
        let mut lu = SparseLu::new(sym);
        lu.factor_into(&a).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let xs = lu.solve(&b).unwrap();
        let xd = dense.solve(&b).unwrap();
        for (s, d) in xs.iter().zip(&xd) {
            assert!((s - d).abs() < 1e-9, "{s} vs {d}");
        }
    }

    #[test]
    fn refactor_with_new_values_reuses_pattern() {
        let rows: &[&[f64]] = &[&[3.0, 1.0], &[1.0, 2.0]];
        let (mut lu, mut a, _) = sparse_from(rows);
        lu.factor_into(&a).unwrap();
        let x1 = lu.solve(&[1.0, 0.0]).unwrap();
        assert!((x1[0] - 0.4).abs() < 1e-12);
        a.clear();
        assert!(a.add(0, 0, 1.0));
        assert!(a.add(0, 1, 0.0));
        assert!(a.add(1, 0, 0.0));
        assert!(a.add(1, 1, 4.0));
        lu.factor_into(&a).unwrap();
        let x2 = lu.solve(&[1.0, 2.0]).unwrap();
        assert!((x2[0] - 1.0).abs() < 1e-12 && (x2[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn structurally_singular_pattern_rejected_at_analysis() {
        // Column 1 is empty: no matching can exist.
        let a = SparseMatrix::from_pattern(2, &[(0, 0), (1, 0)]).unwrap();
        let e = SparseSymbolic::analyze(&a).unwrap_err();
        assert!(matches!(e, NumError::SingularMatrix { pivot: 1 }));
    }

    #[test]
    fn numerically_singular_matrix_rejected_at_factor() {
        let rows: &[&[f64]] = &[&[1.0, 2.0], &[2.0, 4.0]];
        let (mut lu, a, dense) = sparse_from(rows);
        let es = lu.factor_into(&a).unwrap_err();
        let ed = dense.solve(&[1.0, 1.0]).unwrap_err();
        assert!(matches!(es, NumError::SingularMatrix { .. }));
        assert!(matches!(ed, NumError::SingularMatrix { .. }));
    }

    #[test]
    fn non_finite_values_rejected() {
        let rows: &[&[f64]] = &[&[1.0, 0.0], &[0.0, 1.0]];
        let (mut lu, mut a, _) = sparse_from(rows);
        assert!(a.add(0, 0, f64::NAN));
        let e = lu.factor_into(&a).unwrap_err();
        assert!(matches!(e, NumError::InvalidInput(_)));
    }

    #[test]
    fn add_outside_pattern_is_reported_not_panicked() {
        let mut a = SparseMatrix::from_pattern(2, &[(0, 0), (1, 1)]).unwrap();
        assert!(a.add(0, 0, 1.0));
        assert!(!a.add(0, 1, 1.0));
        assert!(!a.add(5, 0, 1.0));
    }

    #[test]
    fn pattern_mismatch_rejected_at_factor() {
        let a = SparseMatrix::from_pattern(2, &[(0, 0), (1, 1)]).unwrap();
        let sym = Arc::new(SparseSymbolic::analyze(&a).unwrap());
        let other = SparseMatrix::from_pattern(2, &[(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
        let mut lu = SparseLu::new(sym);
        let e = lu.factor_into(&other).unwrap_err();
        assert!(matches!(e, NumError::InvalidInput(_)));
    }

    #[test]
    fn solve_is_deterministic_across_repeats() {
        let rows: &[&[f64]] = &[
            &[5.0, -1.0, 0.0, 2.0],
            &[-1.0, 4.0, -1.0, 0.0],
            &[0.0, -1.0, 3.0, -1.0],
            &[2.0, 0.0, -1.0, 6.0],
        ];
        let (mut lu, a, _) = sparse_from(rows);
        lu.factor_into(&a).unwrap();
        let b = [1.0, 2.0, 3.0, 4.0];
        let first = lu.solve(&b).unwrap();
        for _ in 0..3 {
            lu.factor_into(&a).unwrap();
            let again = lu.solve(&b).unwrap();
            assert_eq!(
                first.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                again.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }
}
