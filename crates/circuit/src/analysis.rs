//! Analyses: DC operating point, DC sweep, AC sweep and transient.

pub mod ac;
pub mod dc;
pub mod sweep;
pub mod transient;

use std::sync::Arc;

use crate::netlist::Netlist;
use crate::stamp::{build_system, Mode, SparseStamper};
use crate::{CircuitError, Result};
use lcosc_num::linalg::{LuFactors, Matrix};
use lcosc_num::sparse::{SparseLu, SparseMatrix, SparseSymbolic};

/// The linear solver of a [`NewtonWorkspace`]: the matrix the stamps land
/// in, its factorization and the solve.
pub(crate) enum LinearBackend {
    /// Dense matrix with an in-place partial-pivoting LU.
    Dense { a: Matrix, lu: LuFactors },
    /// Pattern-fixed CSC matrix with a numeric LU over a shared symbolic
    /// analysis; `y` is the substitution scratch.
    Sparse {
        a: SparseMatrix,
        lu: SparseLu,
        y: Vec<f64>,
    },
}

/// Reusable buffers for [`newton_solve_in`]: the linear backend, the
/// stamped right-hand side and the solution of the current iteration.
///
/// The transient engine keeps one workspace alive for the whole run, so
/// stepping performs no heap allocation after the first step; DC callers
/// create one per solve.
pub(crate) struct NewtonWorkspace {
    backend: LinearBackend,
    b: Vec<f64>,
    xn: Vec<f64>,
    /// Whether `backend` holds the factorization of a linear deck's matrix,
    /// which every later linear solve on this workspace reuses.
    factored: bool,
}

impl NewtonWorkspace {
    /// A dense workspace for an `n`-unknown system (4 heap allocations).
    /// The matrix is kept at least 1×1 (`Matrix` rejects zero dimensions);
    /// an `n == 0` workspace is never factored.
    pub fn dense(n: usize) -> Self {
        let a = Matrix::zeros(n.max(1), n.max(1));
        let lu = LuFactors::with_dim(n);
        Self::over(LinearBackend::Dense { a, lu }, n)
    }

    /// A sparse workspace over the pattern of `a` and its symbolic
    /// analysis.
    pub fn sparse(a: SparseMatrix, sym: Arc<SparseSymbolic>) -> Self {
        let n = a.dim();
        let lu = SparseLu::new(sym);
        let y = vec![0.0; n];
        Self::over(LinearBackend::Sparse { a, lu, y }, n)
    }

    fn over(backend: LinearBackend, n: usize) -> Self {
        NewtonWorkspace {
            backend,
            b: vec![0.0; n],
            xn: vec![0.0; n],
            factored: false,
        }
    }

    /// Stamps the system around `x` and solves it into `xn`. With `linear`
    /// the matrix is stamped and factored once per workspace; later solves
    /// restamp only the RHS and reuse that factorization.
    fn solve(
        &mut self,
        nl: &Netlist,
        branch: &[Option<usize>],
        x: &[f64],
        mode: &Mode<'_>,
        at: f64,
        linear: bool,
    ) -> Result<()> {
        let singular = |_| CircuitError::Singular { at };
        if linear && self.factored {
            build_system(nl, branch, x, mode, &mut (), &mut self.b);
        } else {
            match &mut self.backend {
                LinearBackend::Dense { a, lu } => {
                    build_system(nl, branch, x, mode, a, &mut self.b);
                    lu.factor_into(a).map_err(singular)?;
                }
                LinearBackend::Sparse { a, lu, .. } => {
                    let mut target = SparseStamper::new(a);
                    build_system(nl, branch, x, mode, &mut target, &mut self.b);
                    if target.missed {
                        return Err(CircuitError::InvalidInput("sparse pattern missed a stamp"));
                    }
                    lu.factor_into(a).map_err(singular)?;
                }
            }
            self.factored = linear;
        }
        match &mut self.backend {
            LinearBackend::Dense { lu, .. } => lu.solve_into(&self.b, &mut self.xn),
            LinearBackend::Sparse { lu, y, .. } => lu.solve_with(&self.b, &mut self.xn, y),
        }
        .map_err(singular)
    }
}

/// Newton solve from `x0` on a fresh dense workspace, for the DC analyses.
#[allow(clippy::too_many_arguments)] // internal driver shared by dc/sweep
pub(crate) fn newton_solve(
    nl: &Netlist,
    x0: &[f64],
    mode: &Mode<'_>,
    max_iter: usize,
    v_tol: f64,
    v_step_limit: f64,
    analysis: &'static str,
    at: f64,
) -> Result<Vec<f64>> {
    let mut x = x0.to_vec();
    let mut ws = NewtonWorkspace::dense(nl.unknown_count());
    newton_solve_in(
        nl,
        &nl.branch_indices(),
        &mut x,
        mode,
        max_iter,
        v_tol,
        v_step_limit,
        analysis,
        at,
        &mut ws,
        false,
    )?;
    Ok(x)
}

/// Newton–Raphson on the companion-model linearization, in place on `x`
/// and using only the buffers in `ws`, until the update is below `v_tol`.
/// Returns the number of iterations performed (including the converging
/// one).
///
/// Node-voltage updates are limited to `v_step_limit` per iteration
/// (SPICE-style limiting), which keeps exponential devices stable; branch
/// currents move freely.
///
/// `linear` asserts that the deck is linear ([`Netlist::is_linear`]): the
/// stamped system then does not read `x`, so every iteration would solve
/// the same system to the same `xn`. The system is stamped and solved on
/// iteration 1 only, and the later iterations replay the clamped update
/// `x += clamp(xn − x)` against that one solution, which reproduces the
/// full Newton iterates, and their final rounding, bit for bit.
#[allow(clippy::too_many_arguments)] // internal driver shared by dc/sweep/transient
pub(crate) fn newton_solve_in(
    nl: &Netlist,
    branch: &[Option<usize>],
    x: &mut [f64],
    mode: &Mode<'_>,
    max_iter: usize,
    v_tol: f64,
    v_step_limit: f64,
    analysis: &'static str,
    at: f64,
    ws: &mut NewtonWorkspace,
    linear: bool,
) -> Result<u64> {
    if x.is_empty() {
        return Ok(0);
    }
    let nn = nl.node_count() - 1;

    for iter in 1..=max_iter {
        if iter == 1 || !linear {
            ws.solve(nl, branch, x, mode, at, linear)?;
        }
        let mut max_delta = 0.0f64;
        for (i, (xi, &xn)) in x.iter_mut().zip(&ws.xn).enumerate() {
            let mut delta = xn - *xi;
            if i < nn {
                delta = delta.clamp(-v_step_limit, v_step_limit);
                max_delta = max_delta.max(delta.abs());
            }
            *xi += delta;
        }
        if !x.iter().all(|v| v.is_finite()) {
            return Err(CircuitError::NoConvergence { analysis, at });
        }
        if max_delta < v_tol {
            return Ok(iter as u64);
        }
    }
    Err(CircuitError::NoConvergence { analysis, at })
}
