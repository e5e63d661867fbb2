//! Analyses: DC operating point, DC sweep, AC sweep and transient.

pub mod ac;
pub mod dc;
pub mod sweep;
pub mod transient;

use crate::netlist::Netlist;
use crate::stamp::{build_system, Mode};
use crate::{CircuitError, Result};
use lcosc_num::linalg::{LuFactors, Matrix};

/// Reusable scratch buffers for [`newton_solve_in`]: the stamped system,
/// the in-place LU factorization and the solve target.
///
/// The transient fast path keeps one workspace alive for the whole run, so
/// the Newton inner loop performs no heap allocation after the first step;
/// DC-style callers create one per solve (which still halves the per-
/// iteration allocations versus the old `Matrix::solve` path, since the
/// factorization and solution buffers are reused across iterations).
pub(crate) struct NewtonWorkspace {
    /// Stamped MNA matrix `A`.
    pub a: Matrix,
    /// Stamped right-hand side `b`.
    pub b: Vec<f64>,
    /// Solution of `A·xn = b` for the current iteration.
    pub xn: Vec<f64>,
    /// In-place LU factorization of `a`.
    pub lu: LuFactors,
}

impl NewtonWorkspace {
    /// Allocates buffers for an `n`-unknown system (4 heap allocations).
    /// The matrix is kept at least 1×1 (`Matrix` rejects zero dimensions);
    /// an `n == 0` workspace is never factored.
    pub fn new(n: usize) -> Self {
        NewtonWorkspace {
            a: Matrix::zeros(n.max(1), n.max(1)),
            b: vec![0.0; n],
            xn: vec![0.0; n],
            lu: LuFactors::with_dim(n),
        }
    }
}

/// Shared Newton–Raphson driver: iterates the companion-model linearization
/// until the update is below tolerance.
///
/// Node-voltage updates are limited to `v_step_limit` per iteration
/// (SPICE-style limiting), which keeps exponential devices stable.
#[allow(clippy::too_many_arguments)] // internal driver shared by dc/sweep/transient
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
    let mut ws = NewtonWorkspace::new(nl.unknown_count());
    newton_solve_in(
        nl,
        &mut x,
        mode,
        max_iter,
        v_tol,
        v_step_limit,
        analysis,
        at,
        &mut ws,
    )?;
    Ok(x)
}

/// Allocation-free core of [`newton_solve`]: iterates in place on `x`,
/// using only the buffers in `ws`, and returns the number of Newton
/// iterations performed (including the converging one).
///
/// Numerically identical to the historical `Matrix::solve`-per-iteration
/// driver: `factor_into`/`solve_into` run the exact same pivoting and
/// substitution arithmetic, only into caller-owned storage.
#[allow(clippy::too_many_arguments)] // internal driver shared by dc/sweep/transient
pub(crate) fn newton_solve_in(
    nl: &Netlist,
    x: &mut [f64],
    mode: &Mode<'_>,
    max_iter: usize,
    v_tol: f64,
    v_step_limit: f64,
    analysis: &'static str,
    at: f64,
    ws: &mut NewtonWorkspace,
) -> Result<u64> {
    let n = nl.unknown_count();
    if n == 0 {
        return Ok(0);
    }
    let nn = nl.node_count() - 1;

    for iter in 1..=max_iter {
        build_system(nl, x, mode, &mut ws.a, &mut ws.b);
        if ws.lu.factor_into(&ws.a).is_err() || ws.lu.solve_into(&ws.b, &mut ws.xn).is_err() {
            return Err(CircuitError::Singular { at });
        }
        let mut max_delta = 0.0f64;
        for (i, xi) in x.iter_mut().enumerate() {
            let mut delta = ws.xn[i] - *xi;
            if i < nn {
                // Limit node-voltage moves; branch currents are left free.
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
