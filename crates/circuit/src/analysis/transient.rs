//! Transient analysis: fixed-step backward-Euler or trapezoidal integration
//! with a Newton solve at every time step.
//!
//! One step loop over two linear backends: every step is one
//! `newton_solve_in` call on a workspace that is either **dense** (LU
//! with partial pivoting) or **sparse** (a CSC LU whose symbolic analysis,
//! ordering plus elimination pattern, is computed once per netlist
//! structural digest and cached process-wide). On a fully linear deck
//! ([`Netlist::is_linear`]) the workspace stamps and factors the MNA matrix
//! once per run and each step restamps only the RHS and substitutes; a
//! nonlinear deck refactors every Newton iteration.
//!
//! - [`SolverPath::Dense`] keeps one dense workspace for the whole run and
//!   is bit-identical to the reference path by construction;
//! - [`SolverPath::Sparse`] keeps one sparse workspace. Its elimination
//!   order differs from dense partial pivoting, so results agree with dense
//!   to solver tolerance, not bitwise, but the sparse path itself is a
//!   pure function of (pattern, values) and therefore bit-identical across
//!   runs and thread counts;
//! - [`SolverPath::Reference`] takes a fresh dense workspace every step
//!   and runs a full Newton solve even on linear decks.
//!
//! [`SolverPath::Auto`] (the default) picks dense below
//! [`SPARSE_MIN_UNKNOWNS`] MNA unknowns and sparse at or above it (linear
//! decks only); any other value runs exactly the path it names. See
//! `DESIGN.md` §9 and §13 and the differential suites in
//! `crates/circuit/tests/solver_differential.rs` and
//! `crates/circuit/tests/sparse_differential.rs`.

use std::sync::Arc;

use crate::analysis::dc::{solve_dc_with, DcOptions};
use crate::analysis::{newton_solve_in, NewtonWorkspace};
use crate::netlist::{ElementId, Netlist, NodeId};
use crate::stamp::{build_system, element_current, AbsorbRule, History, Mode};
use crate::{CircuitError, Result};
use lcosc_num::sparse::{SparseMatrix, SparseSymbolic};

pub use crate::stamp::Integrator;

/// Unknown count at or above which [`SolverPath::Auto`] routes linear decks
/// to the sparse solver. Below it the dense fast path wins (and keeps its
/// bit-identity guarantee vs. the reference path); above it sparse wins by
/// a growing margin — see the crossover table in `BENCH_PR8.json` and
/// README's performance section.
pub const SPARSE_MIN_UNKNOWNS: usize = 64;

/// Which transient solver implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SolverPath {
    /// Pick the fastest correct path: the dense solver below
    /// [`SPARSE_MIN_UNKNOWNS`] unknowns, the sparse solver at or above it
    /// (linear decks only — nonlinear decks stay dense, where partial
    /// pivoting is the safer default).
    #[default]
    Auto,
    /// Force the dense solver regardless of deck size.
    Dense,
    /// Force the sparse path regardless of deck size. Results agree with
    /// dense to solver tolerance (different elimination order), and are
    /// bit-identical across runs and thread counts.
    Sparse,
    /// A full Newton solve on a fresh dense workspace every step, without
    /// the linear-deck factorization reuse. Kept as the differential-testing
    /// oracle; bit-identical to [`SolverPath::Dense`].
    Reference,
}

/// Options controlling a transient run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientOptions {
    /// Fixed time step in seconds.
    pub dt: f64,
    /// End time in seconds (simulation runs from 0 to `t_end`).
    pub t_end: f64,
    /// Integration method.
    pub integrator: Integrator,
    /// When `true`, start from element initial conditions instead of a DC
    /// operating point (SPICE "UIC").
    pub use_initial_conditions: bool,
    /// Record every `record_stride`-th step (must be nonzero).
    pub record_stride: usize,
    /// Newton budget per step.
    pub max_iter: usize,
    /// Newton voltage tolerance.
    pub v_tol: f64,
    /// Solver implementation to use.
    pub solver: SolverPath,
}

impl TransientOptions {
    /// Creates options for a run to `t_end` with step `dt`, trapezoidal
    /// integration, starting from initial conditions.
    ///
    /// # Panics
    ///
    /// Panics unless `dt > 0` and `t_end > dt`.
    pub fn new(dt: f64, t_end: f64) -> Self {
        assert!(dt > 0.0, "dt must be positive");
        assert!(t_end > dt, "t_end must exceed dt");
        TransientOptions {
            dt,
            t_end,
            integrator: Integrator::Trapezoidal,
            use_initial_conditions: true,
            record_stride: 1,
            max_iter: 50,
            v_tol: 1e-9,
            solver: SolverPath::Auto,
        }
    }

    /// Checks the options for values that would panic or loop forever
    /// downstream (non-finite or non-positive `dt`/`t_end`, a zero
    /// `record_stride` or `max_iter`, a useless `v_tol`).
    ///
    /// Called by [`run_transient`]; exposed so callers constructing options
    /// field-by-field can fail early.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidInput`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        if !self.dt.is_finite() || self.dt <= 0.0 {
            return Err(CircuitError::InvalidInput(
                "transient dt must be finite and positive",
            ));
        }
        if !self.t_end.is_finite() || self.t_end <= 0.0 {
            return Err(CircuitError::InvalidInput(
                "transient t_end must be finite and positive",
            ));
        }
        if self.record_stride == 0 {
            return Err(CircuitError::InvalidInput(
                "transient record_stride must be nonzero",
            ));
        }
        if self.max_iter == 0 {
            return Err(CircuitError::InvalidInput(
                "transient max_iter must be nonzero",
            ));
        }
        if !self.v_tol.is_finite() || self.v_tol <= 0.0 {
            return Err(CircuitError::InvalidInput(
                "transient v_tol must be finite and positive",
            ));
        }
        Ok(())
    }
}

/// Counters describing the work a transient solve performed. Deterministic
/// (no wall-clock): two runs of the same deck and options produce the same
/// stats, so they are safe to assert on in tests and to emit as trace
/// counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverStats {
    /// Time steps integrated (excluding the recorded `t = 0` state).
    pub steps: u64,
    /// Total Newton iterations across all steps (for the linear fast path:
    /// update-replay iterations, which mirror what the reference Newton
    /// loop would have counted).
    pub newton_iterations: u64,
    /// LU factorizations performed.
    pub factorizations: u64,
    /// Steps solved by reusing a previously computed factorization.
    pub factor_reuses: u64,
    /// Heap allocations attributable to the stepping machinery (workspace
    /// buffers, result storage, per-step scratch), counted at their
    /// allocation sites.
    pub allocations: u64,
    /// The subset of [`SolverStats::allocations`] performed after the first
    /// time step completed. Zero on the fast path — the acceptance gate for
    /// "allocation-free stepping".
    pub post_warmup_allocations: u64,
    /// Whether the run factored a linear deck once on the dense backend.
    pub used_linear_fast_path: bool,
    /// Whether the run solved through the sparse path.
    pub used_sparse_path: bool,
    /// Sparse symbolic analyses computed by this run (0 or 1: a cache miss
    /// on the netlist's structural digest).
    pub symbolic_analyses: u64,
    /// Sparse symbolic analyses reused from the process-wide cache (0 or 1:
    /// a cache hit on the netlist's structural digest).
    pub symbolic_reuses: u64,
}

/// Allocation bookkeeping for [`SolverStats`]: counts allocations at their
/// sites and splits them into warm-up vs. steady-state.
struct AllocCounter {
    warm: bool,
    total: u64,
    post_warmup: u64,
}

impl AllocCounter {
    fn new() -> Self {
        AllocCounter {
            warm: false,
            total: 0,
            post_warmup: 0,
        }
    }

    /// Records `n` allocations just performed.
    fn note(&mut self, n: u64) {
        self.total += n;
        if self.warm {
            self.post_warmup += n;
        }
    }

    /// Marks the end of warm-up (first step complete).
    fn finish_warmup(&mut self) {
        self.warm = true;
    }
}

/// Recorded transient waveforms in contiguous row-major storage: sample `k`
/// occupies `voltages[k·(node_count−1) ..]` and `currents[k·element_count ..]`.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientResult {
    times: Vec<f64>,
    node_count: usize,
    element_count: usize,
    /// Row-major node voltages; row `k` is the full node-voltage vector at
    /// `times[k]` (column 0 = node 1; ground is implicit 0).
    voltages: Vec<f64>,
    /// Row-major element currents; row `k` column `e` is element `e`'s
    /// current at `times[k]`.
    currents: Vec<f64>,
    stats: SolverStats,
}

impl TransientResult {
    /// Recorded sample times.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Work counters of the solve that produced this result.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// The full node-voltage row of sample `k` (index 0 = node 1; ground is
    /// not stored).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range sample.
    pub fn voltages_at(&self, k: usize) -> &[f64] {
        let nn = self.node_count - 1;
        &self.voltages[k * nn..(k + 1) * nn]
    }

    /// The entire row-major voltage storage (all samples back to back) —
    /// handy for bitwise comparisons between runs.
    pub fn voltages_flat(&self) -> &[f64] {
        &self.voltages
    }

    /// The entire row-major current storage (all samples back to back).
    pub fn currents_flat(&self) -> &[f64] {
        &self.currents
    }

    /// Voltage trace of one node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to the simulated netlist.
    pub fn voltage_trace(&self, n: NodeId) -> Vec<f64> {
        assert!(n.index() < self.node_count, "node {n} not in result");
        if n.is_ground() {
            return vec![0.0; self.times.len()];
        }
        let nn = self.node_count - 1;
        self.voltages
            .iter()
            .skip(n.index() - 1)
            .step_by(nn.max(1))
            .copied()
            .collect()
    }

    /// Current trace of one element.
    ///
    /// # Panics
    ///
    /// Panics if the element does not belong to the simulated netlist.
    pub fn current_trace(&self, e: ElementId) -> Vec<f64> {
        assert!(e.index() < self.element_count, "element not in result");
        self.currents
            .iter()
            .skip(e.index())
            .step_by(self.element_count.max(1))
            .copied()
            .collect()
    }

    /// Appends one sample row. `branch` is the netlist's branch-index table,
    /// hoisted once per run so recording stays linear in element count.
    fn push_sample(
        &mut self,
        nl: &Netlist,
        branch: &[Option<usize>],
        t: f64,
        x: &[f64],
        mode: &Mode<'_>,
    ) {
        self.times.push(t);
        self.voltages.extend_from_slice(&x[..self.node_count - 1]);
        for k in 0..self.element_count {
            self.currents.push(element_current(nl, branch, k, x, mode));
        }
    }
}

/// Number of samples `run_transient` records: `t = 0`, every `stride`-th
/// step, and the final step. `None` when the count overflows `usize`.
fn sample_count(steps: usize, stride: usize) -> Option<usize> {
    (steps / stride).checked_add(1 + usize::from(!steps.is_multiple_of(stride) && steps > 0))
}

/// Number of fixed-size steps a run from 0 to `t_end` takes:
/// `ceil(t_end / dt)`, so any fractional remainder — including one produced
/// purely by floating-point rounding, e.g. `t_end / dt` landing a ulp above
/// an integer — adds a final step past `t_end`.
fn step_count(t_end: f64, dt: f64) -> usize {
    (t_end / dt).ceil() as usize
}

/// Runs a transient analysis.
///
/// # Errors
///
/// Propagates Newton convergence failures annotated with the failing time
/// point, DC failures when `use_initial_conditions` is `false`, and
/// [`CircuitError::InvalidInput`] for options rejected by
/// [`TransientOptions::validate`] or for a run whose recorded output cannot
/// be allocated.
pub fn run_transient(nl: &Netlist, opts: &TransientOptions) -> Result<TransientResult> {
    opts.validate()?;
    let n = nl.unknown_count();
    let path = resolve_solver_path(opts.solver, nl);
    let reference = path == SolverPath::Reference;
    // `n > 0` keeps the degenerate empty deck off the factorization paths
    // (nothing to factor; Newton's early return handles it).
    let sparse = path == SolverPath::Sparse && n > 0;
    let linear = !reference && n > 0 && nl.is_linear();
    let nn = nl.node_count() - 1;
    let mut alloc = AllocCounter::new();

    // Size the recorded output first, with checked arithmetic and fallible
    // reservations: an absurd `t_end / dt` must come back as a typed error,
    // not abort the process on a failed allocation.
    let steps = step_count(opts.t_end, opts.dt);
    let stride = opts.record_stride;
    let too_large = || CircuitError::InvalidInput("transient output is too large to allocate");
    let samples = sample_count(steps, stride).ok_or_else(too_large)?;
    let storage = |width: usize| -> Result<Vec<f64>> {
        let mut v = Vec::new();
        samples
            .checked_mul(width)
            .and_then(|len| v.try_reserve_exact(len).ok())
            .ok_or_else(too_large)?;
        Ok(v)
    };
    let mut result = TransientResult {
        times: storage(1)?,
        node_count: nl.node_count(),
        element_count: nl.elements().len(),
        voltages: storage(nn)?,
        currents: storage(nl.elements().len())?,
        stats: SolverStats {
            used_linear_fast_path: linear && !sparse,
            used_sparse_path: sparse,
            ..SolverStats::default()
        },
    };
    alloc.note(3); // times / voltages / currents storage

    // Branch-index table for stamping, history updates and current
    // recording, hoisted once per run.
    let branch = nl.branch_indices();
    alloc.note(1);

    let mut history = History::from_initial_conditions(nl);
    alloc.note(4); // the four history vectors

    // Starting state.
    let mut x = if opts.use_initial_conditions {
        vec![0.0; n]
    } else {
        let dc = solve_dc_with(nl, &DcOptions::default(), None)?;
        let x = dc.raw().to_vec();
        // Absorb the DC point into the reactive-element history so the first
        // step starts from steady state.
        history.absorb(nl, &branch, &x, AbsorbRule::Dc);
        x
    };
    alloc.note(1);

    // Record t = 0 under DC conventions (reactive currents are zero).
    let mode0 = Mode::Dc {
        gmin: 1e-12,
        source_scale: 1.0,
    };
    result.push_sample(nl, &branch, 0.0, &x, &mode0);

    // One workspace for the whole run. The reference path has none: it
    // takes fresh buffers every step, like the historical solver did.
    let mut ws = if reference {
        None
    } else if sparse {
        let mode = Mode::Transient {
            t: 0.0,
            dt: opts.dt,
            integrator: opts.integrator,
            history: &history,
        };
        let (ws, reused) = sparse_workspace(nl, &branch, &x, &mode)?;
        if reused {
            result.stats.symbolic_reuses += 1;
        } else {
            result.stats.symbolic_analyses += 1;
        }
        alloc.note(6); // pattern + matrix + LU values/work + rhs/solution
        Some(ws)
    } else {
        alloc.note(4); // matrix + rhs + solution + LU storage
        Some(NewtonWorkspace::dense(n))
    };

    for step in 1..=steps {
        let t = step as f64 * opts.dt;
        let mode = Mode::Transient {
            t,
            dt: opts.dt,
            integrator: opts.integrator,
            history: &history,
        };
        let mut fresh;
        let ws = match &mut ws {
            Some(ws) => ws,
            None => {
                fresh = NewtonWorkspace::dense(n);
                alloc.note(4);
                &mut fresh
            }
        };
        let reused = linear && ws.factored;
        let iters = newton_solve_in(
            nl,
            &branch,
            &mut x,
            &mode,
            opts.max_iter,
            opts.v_tol,
            2.0,
            "transient",
            t,
            ws,
            linear,
        )?;
        let stats = &mut result.stats;
        stats.steps += 1;
        stats.newton_iterations += iters;
        if reused {
            stats.factor_reuses += 1;
        } else {
            // A linear step factors once, a Newton step every iteration.
            stats.factorizations += if linear { 1 } else { iters };
        }

        if step % stride == 0 || step == steps {
            result.push_sample(nl, &branch, t, &x, &mode);
        }
        // Update history *after* recording so recorded currents use the
        // pre-step history (consistent companion model).
        history.absorb(
            nl,
            &branch,
            &x,
            AbsorbRule::Transient {
                dt: opts.dt,
                integrator: opts.integrator,
            },
        );
        alloc.finish_warmup();
    }

    debug_assert_eq!(result.times.len(), samples, "sample_count mismatch");
    result.stats.allocations = alloc.total;
    result.stats.post_warmup_allocations = alloc.post_warmup;
    Ok(result)
}

/// Resolves the effective solver path: an explicit path is taken as given;
/// [`SolverPath::Auto`] picks dense below [`SPARSE_MIN_UNKNOWNS`] unknowns
/// and sparse at or above it — linear decks only. Nonlinear decks stay
/// dense under `Auto`: an off-state device can zero a conductance that the
/// structure-only sparse pivot order relies on, where dense partial
/// pivoting recovers.
fn resolve_solver_path(configured: SolverPath, nl: &Netlist) -> SolverPath {
    match configured {
        SolverPath::Auto => {
            if nl.unknown_count() >= SPARSE_MIN_UNKNOWNS && nl.is_linear() {
                SolverPath::Sparse
            } else {
                SolverPath::Dense
            }
        }
        explicit => explicit,
    }
}

/// The sparse workspace for one run. Its pattern is recorded by stamping
/// `mode` once, since stamp positions depend on the structure only. Its
/// symbolic analysis comes from a process-wide cache keyed by the
/// netlist's structural digest; the flag says whether the cache hit.
///
/// The symbolic result is a pure function of the structure, so a cache hit
/// is observationally identical to recomputing: whichever thread populated
/// the entry, factorization results are the same bits.
fn sparse_workspace(
    nl: &Netlist,
    branch: &[Option<usize>],
    x: &[f64],
    mode: &Mode<'_>,
) -> Result<(NewtonWorkspace, bool)> {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    static CACHE: OnceLock<Mutex<HashMap<u64, Arc<SparseSymbolic>>>> = OnceLock::new();
    let mut pattern = Vec::new();
    build_system(nl, branch, x, mode, &mut pattern, &mut vec![0.0; x.len()]);
    let a = SparseMatrix::from_pattern(x.len(), &pattern)
        .map_err(|_| CircuitError::InvalidInput("sparse pattern construction failed"))?;
    let key = nl.structural_digest();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Ok(map) = cache.lock() {
        if let Some(sym) = map.get(&key) {
            // Digest collisions are astronomically unlikely; the dimension
            // check (and the pattern check inside `factor_into`) turn one
            // into a typed error instead of a wrong answer.
            if sym.dim() == a.dim() {
                return Ok((NewtonWorkspace::sparse(a, Arc::clone(sym)), true));
            }
        }
    }
    let sym =
        Arc::new(SparseSymbolic::analyze(&a).map_err(|_| CircuitError::Singular { at: 0.0 })?);
    if let Ok(mut map) = cache.lock() {
        map.insert(key, Arc::clone(&sym));
    }
    Ok((NewtonWorkspace::sparse(a, sym), false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Waveform;

    #[test]
    fn rc_charge_curve() {
        let mut nl = Netlist::new();
        let vin = nl.node("vin");
        let out = nl.node("out");
        nl.voltage_source(vin, Netlist::GROUND, Waveform::Dc(1.0));
        nl.resistor(vin, out, 1e3);
        nl.capacitor(out, Netlist::GROUND, 1e-6); // tau = 1 ms
        let opts = TransientOptions::new(1e-6, 1e-3);
        let res = run_transient(&nl, &opts).unwrap();
        let v_end = *res.voltage_trace(out).last().unwrap();
        let expect = 1.0 - (-1.0f64).exp();
        assert!((v_end - expect).abs() < 1e-3, "{v_end} vs {expect}");
    }

    #[test]
    fn rc_from_dc_operating_point_stays_flat() {
        let mut nl = Netlist::new();
        let vin = nl.node("vin");
        let out = nl.node("out");
        nl.voltage_source(vin, Netlist::GROUND, Waveform::Dc(2.0));
        nl.resistor(vin, out, 1e3);
        nl.capacitor(out, Netlist::GROUND, 1e-6);
        let mut opts = TransientOptions::new(1e-5, 5e-4);
        opts.use_initial_conditions = false;
        let res = run_transient(&nl, &opts).unwrap();
        for &v in &res.voltage_trace(out) {
            assert!((v - 2.0).abs() < 1e-6, "drifted to {v}");
        }
    }

    #[test]
    fn lc_tank_oscillates_at_resonance() {
        // 1 µH with 1 µF -> f0 = 1/(2π·1µ) ≈ 159.15 kHz
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.capacitor_ic(a, Netlist::GROUND, 1e-6, 1.0);
        nl.inductor(a, Netlist::GROUND, 1e-6);
        let opts = TransientOptions::new(5e-9, 40e-6);
        let res = run_transient(&nl, &opts).unwrap();
        let trace = res.voltage_trace(a);
        let f = lcosc_num::ode::frequency_from_crossings(0.0, 5e-9, &trace).unwrap();
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * 1e-6);
        assert!((f / f0 - 1.0).abs() < 0.01, "f {f} vs {f0}");
    }

    #[test]
    fn trapezoidal_preserves_lc_amplitude_better_than_be() {
        let build = || {
            let mut nl = Netlist::new();
            let a = nl.node("a");
            nl.capacitor_ic(a, Netlist::GROUND, 1e-6, 1.0);
            nl.inductor(a, Netlist::GROUND, 1e-6);
            (nl, a)
        };
        let run = |integrator| {
            let (nl, a) = build();
            let mut opts = TransientOptions::new(2e-8, 60e-6);
            opts.integrator = integrator;
            let res = run_transient(&nl, &opts).unwrap();
            let trace = res.voltage_trace(a);
            trace[trace.len() / 2..]
                .iter()
                .fold(0.0f64, |m, v| m.max(v.abs()))
        };
        let amp_trap = run(Integrator::Trapezoidal);
        let amp_be = run(Integrator::BackwardEuler);
        assert!(amp_trap > 0.95, "trapezoidal amplitude {amp_trap}");
        assert!(amp_be < amp_trap, "BE should damp: {amp_be} vs {amp_trap}");
    }

    #[test]
    fn sine_source_passes_through() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.voltage_source(
            a,
            Netlist::GROUND,
            Waveform::Sine {
                offset: 0.0,
                amplitude: 1.0,
                frequency: 1e6,
                phase: 0.0,
            },
        );
        nl.resistor(a, Netlist::GROUND, 1e3);
        let opts = TransientOptions::new(1e-9, 2e-6);
        let res = run_transient(&nl, &opts).unwrap();
        let trace = res.voltage_trace(a);
        let peak = trace.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!((peak - 1.0).abs() < 1e-3);
    }

    #[test]
    fn record_stride_thins_output() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.voltage_source(a, Netlist::GROUND, Waveform::Dc(1.0));
        nl.resistor(a, Netlist::GROUND, 1.0);
        let mut opts = TransientOptions::new(1e-6, 1e-4);
        opts.record_stride = 10;
        let res = run_transient(&nl, &opts).unwrap();
        assert!(res.len() <= 12, "{} samples", res.len());
        assert!(!res.is_empty());
    }

    #[test]
    fn inductor_current_ramp() {
        // V = L di/dt: 1 V across 1 mH ramps 1 A/ms.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.voltage_source(a, Netlist::GROUND, Waveform::Dc(1.0));
        let l = nl.inductor(a, Netlist::GROUND, 1e-3);
        let opts = TransientOptions::new(1e-6, 1e-3);
        let res = run_transient(&nl, &opts).unwrap();
        let i_end = *res.current_trace(l).last().unwrap();
        assert!((i_end - 1.0).abs() < 2e-3, "i {i_end}");
    }

    #[test]
    fn ground_and_node_trace_queries() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.voltage_source(a, Netlist::GROUND, Waveform::Dc(1.0));
        nl.resistor(a, Netlist::GROUND, 1.0);
        let res = run_transient(&nl, &TransientOptions::new(1e-6, 1e-5)).unwrap();
        assert!(res.voltage_trace(Netlist::GROUND).iter().all(|&v| v == 0.0));
        assert!((res.voltage_trace(a)[res.len() - 1] - 1.0).abs() < 1e-9);
        assert_eq!(res.voltage_trace(Netlist::GROUND).len(), res.len());
    }

    #[test]
    fn validate_rejects_degenerate_options() {
        let base = TransientOptions::new(1e-6, 1e-3);
        assert!(base.validate().is_ok());
        for bad in [
            TransientOptions { dt: 0.0, ..base },
            TransientOptions {
                dt: f64::NAN,
                ..base
            },
            TransientOptions {
                dt: f64::INFINITY,
                ..base
            },
            TransientOptions {
                t_end: -1.0,
                ..base
            },
            TransientOptions {
                t_end: f64::NAN,
                ..base
            },
            TransientOptions {
                record_stride: 0,
                ..base
            },
            TransientOptions {
                max_iter: 0,
                ..base
            },
            TransientOptions { v_tol: 0.0, ..base },
            TransientOptions {
                v_tol: f64::NAN,
                ..base
            },
        ] {
            let err = bad.validate().expect_err("should reject");
            assert!(matches!(err, CircuitError::InvalidInput(_)), "{err}");
            // run_transient surfaces the same typed error.
            let mut nl = Netlist::new();
            let a = nl.node("a");
            nl.resistor(a, Netlist::GROUND, 1.0);
            assert_eq!(run_transient(&nl, &bad).expect_err("reject"), err);
        }
    }

    #[test]
    fn linear_fast_path_stats_show_single_factorization() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.capacitor_ic(a, Netlist::GROUND, 1e-6, 1.0);
        nl.inductor(a, Netlist::GROUND, 1e-6);
        let opts = TransientOptions::new(5e-9, 5e-6);
        let res = run_transient(&nl, &opts).unwrap();
        let s = res.stats();
        assert!(s.used_linear_fast_path);
        assert_eq!(s.factorizations, 1);
        assert_eq!(s.factor_reuses, s.steps - 1);
        assert_eq!(s.post_warmup_allocations, 0, "stepping must not allocate");
        assert!(s.newton_iterations >= s.steps);
    }

    #[test]
    fn reference_path_stats_show_per_step_factorization() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.capacitor_ic(a, Netlist::GROUND, 1e-6, 1.0);
        nl.inductor(a, Netlist::GROUND, 1e-6);
        let mut opts = TransientOptions::new(5e-9, 5e-6);
        opts.solver = SolverPath::Reference;
        let res = run_transient(&nl, &opts).unwrap();
        let s = res.stats();
        assert!(!s.used_linear_fast_path);
        assert_eq!(s.factorizations, s.newton_iterations);
        assert_eq!(s.factor_reuses, 0);
        assert!(s.post_warmup_allocations > 0, "reference path allocates");
    }

    #[test]
    fn nonlinear_deck_uses_workspace_newton_without_allocating() {
        let mut nl = Netlist::new();
        let vin = nl.node("vin");
        let out = nl.node("out");
        nl.voltage_source(vin, Netlist::GROUND, Waveform::Dc(1.0));
        nl.resistor(vin, out, 1e3);
        nl.diode(
            out,
            Netlist::GROUND,
            lcosc_device::diode::DiodeModel::default(),
        );
        nl.capacitor(out, Netlist::GROUND, 1e-9);
        let opts = TransientOptions::new(1e-8, 1e-6);
        let res = run_transient(&nl, &opts).unwrap();
        let s = res.stats();
        assert!(!s.used_linear_fast_path);
        assert_eq!(s.factorizations, s.newton_iterations);
        assert_eq!(s.post_warmup_allocations, 0, "workspace must be reused");
    }

    #[test]
    fn flat_row_accessors_agree_with_traces() {
        let mut nl = Netlist::new();
        let vin = nl.node("vin");
        let out = nl.node("out");
        nl.voltage_source(vin, Netlist::GROUND, Waveform::Dc(1.0));
        nl.resistor(vin, out, 1e3);
        nl.capacitor(out, Netlist::GROUND, 1e-6);
        let res = run_transient(&nl, &TransientOptions::new(1e-6, 1e-4)).unwrap();
        let trace = res.voltage_trace(out);
        for (k, &traced) in trace.iter().enumerate() {
            assert_eq!(res.voltages_at(k)[out.index() - 1], traced);
            assert_eq!(res.voltages_at(k).len(), 2);
        }
        assert_eq!(trace.len(), res.len());
        assert_eq!(res.voltages_flat().len(), res.len() * 2);
        assert_eq!(res.currents_flat().len(), res.len() * 3);
    }

    #[test]
    fn sample_count_matches_recording_rule() {
        for steps in 0..40usize {
            for stride in 1..7usize {
                let expect = (1..=steps)
                    .filter(|s| s % stride == 0 || *s == steps)
                    .count()
                    + 1;
                assert_eq!(
                    sample_count(steps, stride),
                    Some(expect),
                    "steps {steps} stride {stride}"
                );
            }
        }
        assert_eq!(sample_count(usize::MAX, 1), None);
        assert_eq!(sample_count(usize::MAX, 2), Some(usize::MAX / 2 + 2));
    }

    #[test]
    fn unallocatable_output_is_a_typed_error() {
        // 1e15 steps: the recorded times alone would need 8 PB. This must
        // come back as `InvalidInput` instead of aborting the process on a
        // failed allocation.
        let mut nl = Netlist::new();
        let a = nl.node("in");
        nl.voltage_source(a, Netlist::GROUND, Waveform::Dc(1.0));
        nl.resistor(a, Netlist::GROUND, 50.0);
        let err = run_transient(&nl, &TransientOptions::new(1e-12, 1000.0)).expect_err("too large");
        assert!(matches!(err, CircuitError::InvalidInput(_)), "{err}");
        // Past `usize::MAX` steps the sample count itself overflows.
        let err = run_transient(&nl, &TransientOptions::new(1e-300, 1e10)).expect_err("overflow");
        assert!(matches!(err, CircuitError::InvalidInput(_)), "{err}");
    }

    #[test]
    fn step_count_pins_fp_boundary_semantics() {
        // Exact quotients stay exact.
        assert_eq!(step_count(1.0, 0.25), 4);
        assert_eq!(step_count(1e-6, 1e-9), 1000);
        // A quotient a hair above an integer rounds up to an extra step.
        let t_end = 0.25 * (4.0 + f64::EPSILON * 8.0);
        assert_eq!(step_count(t_end, 0.25), 5);
        // The classic inexact-decimal case: 0.3 / 0.1 is slightly below 3
        // in binary, so it must NOT round up to 4.
        assert_eq!(step_count(0.3, 0.1), 3);
        // Fractional remainders always add the final partial step.
        assert_eq!(step_count(1.05, 0.25), 5);
        // Degenerate but well-defined: zero duration takes zero steps.
        assert_eq!(step_count(0.0, 0.25), 0);
    }

    #[test]
    fn run_transient_takes_step_count_steps() {
        // Pin the observable step count through a real run, so the loop
        // cannot drift from the single `step_count` definition.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.current_source(a, Netlist::GROUND, Waveform::Dc(1e-3));
        nl.resistor(a, Netlist::GROUND, 1e3);
        let res = run_transient(&nl, &TransientOptions::new(0.25e-9, 1.05e-9)).unwrap();
        assert_eq!(res.stats().steps, step_count(1.05e-9, 0.25e-9) as u64);
    }

    #[test]
    fn resolve_solver_path_auto_splits_on_size_and_linearity() {
        let small = crate::workloads::rc_ladder(4);
        assert_eq!(
            resolve_solver_path(SolverPath::Auto, &small),
            SolverPath::Dense
        );
        let large = crate::workloads::rc_ladder(200);
        assert!(large.unknown_count() >= SPARSE_MIN_UNKNOWNS);
        assert_eq!(
            resolve_solver_path(SolverPath::Auto, &large),
            SolverPath::Sparse
        );
        // Nonlinear decks stay dense under Auto regardless of size.
        let mut nonlinear = crate::workloads::rc_ladder(200);
        let a = nonlinear.node("d");
        nonlinear.diode(
            a,
            Netlist::GROUND,
            lcosc_device::diode::DiodeModel::default(),
        );
        assert_eq!(
            resolve_solver_path(SolverPath::Auto, &nonlinear),
            SolverPath::Dense
        );
        // Explicit configuration passes through untouched.
        assert_eq!(
            resolve_solver_path(SolverPath::Sparse, &small),
            SolverPath::Sparse
        );
        assert_eq!(
            resolve_solver_path(SolverPath::Dense, &large),
            SolverPath::Dense
        );
    }

    #[test]
    fn forced_sparse_runs_nonlinear_newton() {
        let mut nl = Netlist::new();
        let vin = nl.node("vin");
        let out = nl.node("out");
        nl.voltage_source(vin, Netlist::GROUND, Waveform::Dc(1.0));
        nl.resistor(vin, out, 100.0);
        nl.diode(
            out,
            Netlist::GROUND,
            lcosc_device::diode::DiodeModel::default(),
        );
        nl.capacitor(out, Netlist::GROUND, 1e-9);
        let mut opts = TransientOptions::new(1e-9, 50e-9);
        opts.solver = SolverPath::Sparse;
        let mut dense_opts = TransientOptions::new(1e-9, 50e-9);
        dense_opts.solver = SolverPath::Dense;
        let sparse = run_transient(&nl, &opts).unwrap();
        let dense = run_transient(&nl, &dense_opts).unwrap();
        assert!(sparse.stats().used_sparse_path);
        assert!(!dense.stats().used_sparse_path);
        // Nonlinear sparse refactors every Newton iteration.
        assert_eq!(sparse.stats().factor_reuses, 0);
        assert!(sparse.stats().factorizations >= sparse.stats().steps);
        for (s, d) in sparse
            .voltages_flat()
            .iter()
            .zip(dense.voltages_flat().iter())
        {
            assert!((s - d).abs() < 1e-9, "sparse {s} vs dense {d}");
        }
    }
}
