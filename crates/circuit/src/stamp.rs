//! MNA stamping: turns a [`Netlist`] plus a linearization point into the
//! linear system `A·x = b` solved at each Newton iteration.
//!
//! Unknown ordering: node voltages for nodes `1..node_count` (ground is
//! eliminated), followed by one branch current per voltage source or
//! inductor in element order.

use crate::netlist::{Element, Netlist, NodeId};
use lcosc_num::linalg::Matrix;
use lcosc_num::sparse::SparseMatrix;

/// Minimum conductance added from every node to ground outside DC gmin
/// stepping. One shared constant keeps transient stamping (dense and
/// sparse) and the AC stamper numerically identical.
pub(crate) const GMIN: f64 = 1e-12;

/// Destination of the matrix stamps of [`build_system`], the only place
/// the element stamp formulas live. Implemented by the dense [`Matrix`],
/// by [`SparseStamper`], by `()` (no matrix: a linear deck's RHS-only
/// restamp) and by `Vec<(usize, usize)>` (records the sparse pattern).
pub(crate) trait StampTarget {
    /// Zeroes every value, keeping the storage.
    fn clear(&mut self);
    /// Accumulates `v` into `(i, j)`.
    fn add(&mut self, i: usize, j: usize, v: f64);
}

impl StampTarget for Matrix {
    fn clear(&mut self) {
        Matrix::clear(self);
    }
    fn add(&mut self, i: usize, j: usize, v: f64) {
        Matrix::add(self, i, j, v);
    }
}

/// Adapter stamping into a [`SparseMatrix`] with a fixed pattern. A stamp
/// landing outside the pattern records `missed = true` instead of
/// panicking; callers check the flag after stamping and fall back or error
/// out, keeping the solver free of stamp-time panics.
pub(crate) struct SparseStamper<'a> {
    /// The pattern-fixed destination matrix.
    pub m: &'a mut SparseMatrix,
    /// Set when any stamp fell outside the pattern.
    pub missed: bool,
}

impl<'a> SparseStamper<'a> {
    /// Wraps `m` with a clean miss flag.
    pub fn new(m: &'a mut SparseMatrix) -> Self {
        SparseStamper { m, missed: false }
    }
}

impl StampTarget for SparseStamper<'_> {
    fn clear(&mut self) {
        self.m.clear();
    }
    fn add(&mut self, i: usize, j: usize, v: f64) {
        if !self.m.add(i, j, v) {
            self.missed = true;
        }
    }
}

/// Discards the matrix: stamping into `()` computes only the RHS. A linear
/// deck's matrix is fixed for a whole run, so after the one factorization
/// each step restamps just its sources and history currents.
impl StampTarget for () {
    fn clear(&mut self) {}
    fn add(&mut self, _: usize, _: usize, _: f64) {}
}

/// Records the `(row, col)` slot of every stamp: the sparse solver's fixed
/// pattern. Stamp positions depend on the netlist structure and the
/// analysis mode only, never on values, so one transient stamp records
/// every slot any Newton iteration of any step can touch. Duplicates are
/// fine; the sparse pattern constructor merges them.
impl StampTarget for Vec<(usize, usize)> {
    fn clear(&mut self) {
        Vec::clear(self);
    }
    fn add(&mut self, i: usize, j: usize, _: f64) {
        self.push((i, j));
    }
}

/// Time-integration method for reactive elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Integrator {
    /// Backward Euler: robust, slightly lossy (numerical damping).
    #[default]
    BackwardEuler,
    /// Trapezoidal: second-order, energy-preserving for LC tanks.
    Trapezoidal,
}

/// Per-element history carried between transient time steps.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct History {
    /// Capacitor voltage v(a)−v(b) at the previous accepted step.
    pub cap_v: Vec<f64>,
    /// Capacitor current at the previous accepted step (trapezoidal only).
    pub cap_i: Vec<f64>,
    /// Inductor current at the previous accepted step.
    pub ind_i: Vec<f64>,
    /// Inductor voltage at the previous accepted step (trapezoidal only).
    pub ind_v: Vec<f64>,
}

impl History {
    /// Initializes history from the element initial conditions.
    pub fn from_initial_conditions(nl: &Netlist) -> Self {
        let n = nl.elements().len();
        let mut h = History {
            cap_v: vec![0.0; n],
            cap_i: vec![0.0; n],
            ind_i: vec![0.0; n],
            ind_v: vec![0.0; n],
        };
        for (k, e) in nl.elements().iter().enumerate() {
            match e {
                Element::Capacitor { v0, .. } => h.cap_v[k] = *v0,
                Element::Inductor { i0, .. } => h.ind_i[k] = *i0,
                _ => {}
            }
        }
        h
    }

    /// Updates history from a converged solution at the end of a step.
    ///
    /// Takes an [`AbsorbRule`] rather than a [`Mode`] so the update can run
    /// in place on the same history the step's `Mode` borrowed (a `Mode`
    /// holds `&History`, which would otherwise force a defensive clone of
    /// all four history vectors on every time step). `branch` is the
    /// netlist's [`Netlist::branch_indices`] table, hoisted by the caller.
    pub fn absorb(&mut self, nl: &Netlist, branch: &[Option<usize>], x: &[f64], rule: AbsorbRule) {
        let nn = nl.node_count() - 1;
        for (k, e) in nl.elements().iter().enumerate() {
            match e {
                Element::Capacitor { a, b, farads, .. } => {
                    let v = volt(x, *a) - volt(x, *b);
                    let i = match rule {
                        AbsorbRule::Transient {
                            dt,
                            integrator: Integrator::BackwardEuler,
                        } => farads / dt * (v - self.cap_v[k]),
                        AbsorbRule::Transient {
                            dt,
                            integrator: Integrator::Trapezoidal,
                        } => 2.0 * farads / dt * (v - self.cap_v[k]) - self.cap_i[k],
                        AbsorbRule::Dc => 0.0,
                    };
                    self.cap_v[k] = v;
                    self.cap_i[k] = i;
                }
                Element::Inductor { a, b, .. } => {
                    let j = branch[k].expect("inductor has a branch index");
                    self.ind_i[k] = x[nn + j];
                    self.ind_v[k] = volt(x, *a) - volt(x, *b);
                }
                _ => {}
            }
        }
    }
}

/// The history-update rule for one accepted solution. Unlike [`Mode`] it
/// carries no borrow of the history, so [`History::absorb`] can mutate the
/// history in place.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum AbsorbRule {
    /// DC solution: reactive-element currents are zero.
    Dc,
    /// End of a transient step with the given companion model.
    Transient {
        /// Fixed step size in seconds.
        dt: f64,
        /// Integration method the step used.
        integrator: Integrator,
    },
}

/// Analysis mode passed to the stamper.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Mode<'a> {
    /// DC operating point; `gmin` is added from every node to ground and
    /// `source_scale` scales all independent sources (source stepping).
    Dc { gmin: f64, source_scale: f64 },
    /// One transient step ending at time `t` with step `dt`.
    Transient {
        t: f64,
        dt: f64,
        integrator: Integrator,
        history: &'a History,
    },
}

/// Voltage of a node under the MNA unknown ordering.
pub(crate) fn volt(x: &[f64], n: NodeId) -> f64 {
    if n.is_ground() {
        0.0
    } else {
        x[n.index() - 1]
    }
}

/// Builds the linearized MNA system `A·x_new = b` around the current
/// iterate `x`. `branch` is the netlist's [`Netlist::branch_indices`]
/// table, hoisted by the caller.
///
/// Generic over the [`StampTarget`], so every solver path shares these
/// stamp formulas verbatim. Each matrix cell and each RHS entry receives
/// its contributions in element order whatever the target, so the RHS
/// stamped beside `()` is bit-identical to the one stamped beside a
/// matrix.
pub(crate) fn build_system<T: StampTarget>(
    nl: &Netlist,
    branch: &[Option<usize>],
    x: &[f64],
    mode: &Mode<'_>,
    a: &mut T,
    b: &mut [f64],
) {
    a.clear();
    b.iter_mut().for_each(|v| *v = 0.0);
    let nn = nl.node_count() - 1;

    // Row/column index of a node (None for ground).
    let idx = |n: NodeId| -> Option<usize> { (!n.is_ground()).then(|| n.index() - 1) };

    // Conductance stamp between two nodes.
    let stamp_g = |a: &mut T, na: NodeId, nb: NodeId, g: f64| {
        if let Some(i) = idx(na) {
            a.add(i, i, g);
            if let Some(j) = idx(nb) {
                a.add(i, j, -g);
            }
        }
        if let Some(i) = idx(nb) {
            a.add(i, i, g);
            if let Some(j) = idx(na) {
                a.add(i, j, -g);
            }
        }
    };
    // Current injection into a node.
    let inject = |b: &mut [f64], n: NodeId, i: f64| {
        if let Some(k) = idx(n) {
            b[k] += i;
        }
    };

    let (src_scale, t_now) = match mode {
        Mode::Dc { source_scale, .. } => (*source_scale, 0.0),
        Mode::Transient { t, .. } => (1.0, *t),
    };

    for (k, e) in nl.elements().iter().enumerate() {
        match e {
            Element::Resistor { a: na, b: nb, ohms } => stamp_g(a, *na, *nb, 1.0 / ohms),
            Element::Switch {
                a: na,
                b: nb,
                closed,
                r_on,
                r_off,
            } => {
                let r = if *closed { *r_on } else { *r_off };
                stamp_g(a, *na, *nb, 1.0 / r);
            }
            Element::Capacitor {
                a: na,
                b: nb,
                farads,
                ..
            } => match mode {
                Mode::Dc { .. } => {} // open circuit
                Mode::Transient {
                    dt,
                    integrator,
                    history,
                    ..
                } => {
                    let (g, i_hist) = match integrator {
                        Integrator::BackwardEuler => {
                            let g = farads / dt;
                            (g, g * history.cap_v[k])
                        }
                        Integrator::Trapezoidal => {
                            let g = 2.0 * farads / dt;
                            (g, g * history.cap_v[k] + history.cap_i[k])
                        }
                    };
                    stamp_g(a, *na, *nb, g);
                    inject(b, *na, i_hist);
                    inject(b, *nb, -i_hist);
                }
            },
            Element::Inductor {
                a: na,
                b: nb,
                henries,
                ..
            } => {
                let j = nn + branch[k].expect("inductor branch");
                // Branch current columns: current j flows a -> b.
                if let Some(i) = idx(*na) {
                    a.add(i, j, 1.0);
                    a.add(j, i, 1.0);
                }
                if let Some(i) = idx(*nb) {
                    a.add(i, j, -1.0);
                    a.add(j, i, -1.0);
                }
                match mode {
                    Mode::Dc { .. } => {
                        // Short: v_a − v_b = 0, row already stamped; keep a
                        // tiny series resistance so parallel sources cannot
                        // make the matrix singular.
                        a.add(j, j, -1e-9);
                    }
                    Mode::Transient {
                        dt,
                        integrator,
                        history,
                        ..
                    } => match integrator {
                        Integrator::BackwardEuler => {
                            a.add(j, j, -henries / dt);
                            b[j] = -henries / dt * history.ind_i[k];
                        }
                        Integrator::Trapezoidal => {
                            a.add(j, j, -2.0 * henries / dt);
                            b[j] = -2.0 * henries / dt * history.ind_i[k] - history.ind_v[k];
                        }
                    },
                }
            }
            Element::VoltageSource { p, n, wave } => {
                let j = nn + branch[k].expect("vsource branch");
                if let Some(i) = idx(*p) {
                    a.add(i, j, 1.0);
                    a.add(j, i, 1.0);
                }
                if let Some(i) = idx(*n) {
                    a.add(i, j, -1.0);
                    a.add(j, i, -1.0);
                }
                b[j] = wave.eval(t_now) * src_scale;
            }
            Element::CurrentSource { p, n, wave } => {
                let i = wave.eval(t_now) * src_scale;
                inject(b, *p, i);
                inject(b, *n, -i);
            }
            Element::Vccs {
                out_p,
                out_n,
                in_p,
                in_n,
                gm,
            } => {
                // i(out_p -> out_n) = gm (v_inp − v_inn): KCL at out_p gains
                // +gm·v_inp − gm·v_inn on the LHS.
                for (out, sign) in [(out_p, 1.0), (out_n, -1.0)] {
                    if let Some(r) = idx(*out) {
                        if let Some(c) = idx(*in_p) {
                            a.add(r, c, sign * gm);
                        }
                        if let Some(c) = idx(*in_n) {
                            a.add(r, c, -sign * gm);
                        }
                    }
                }
            }
            Element::Diode {
                anode,
                cathode,
                model,
            } => {
                let v = volt(x, *anode) - volt(x, *cathode);
                let (g, ieq) = model.companion(v);
                stamp_g(a, *anode, *cathode, g);
                inject(b, *anode, -ieq);
                inject(b, *cathode, ieq);
            }
            Element::Mosfet {
                d,
                g: gate,
                s,
                b: bulk,
                model,
            } => {
                let vb = volt(x, *bulk);
                let vg = volt(x, *gate) - vb;
                let vd = volt(x, *d) - vb;
                let vs = volt(x, *s) - vb;
                let op = model.evaluate_4t(vg, vd, vs);
                let gmb = -(op.gm + op.gds + op.gms);
                // id ≈ id* + gm ΔVg + gds ΔVd + gms ΔVs + gmb ΔVb (absolute
                // node voltages).
                let ieq = op.id
                    - op.gm * volt(x, *gate)
                    - op.gds * volt(x, *d)
                    - op.gms * volt(x, *s)
                    - gmb * vb;
                for (node, sign) in [(*d, 1.0), (*s, -1.0)] {
                    if let Some(r) = idx(node) {
                        if let Some(c) = idx(*gate) {
                            a.add(r, c, sign * op.gm);
                        }
                        if let Some(c) = idx(*d) {
                            a.add(r, c, sign * op.gds);
                        }
                        if let Some(c) = idx(*s) {
                            a.add(r, c, sign * op.gms);
                        }
                        if let Some(c) = idx(*bulk) {
                            a.add(r, c, sign * gmb);
                        }
                        b[r] -= sign * ieq;
                    }
                }
            }
        }
    }

    // gmin to ground on every node (keeps floating subcircuits solvable and
    // implements gmin stepping in DC).
    let gmin = match mode {
        Mode::Dc { gmin, .. } => *gmin,
        Mode::Transient { .. } => GMIN,
    };
    for i in 0..nn {
        a.add(i, i, gmin);
    }
}

/// Structural occupancy of the DC MNA matrix: which `(row, column)` slots
/// receive a stamp, ignoring numeric values and the two numerical crutches
/// (the per-node `gmin` to ground and the tiny series resistance on DC
/// inductor branches).
///
/// A pattern without a perfect row/column matching is *structurally
/// singular*: no set of element values makes the matrix invertible, so the
/// solve can only succeed by leaning on `gmin`. `lcosc-check` uses this to
/// flag such netlists before any analysis runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StampPattern {
    size: usize,
    rows: Vec<Vec<usize>>,
}

impl StampPattern {
    /// Rows with no stamped entry at all (unknowns no equation touches).
    pub fn empty_rows(&self) -> Vec<usize> {
        (0..self.size)
            .filter(|&r| self.rows[r].is_empty())
            .collect()
    }

    /// Columns with no stamped entry at all (unknowns appearing nowhere).
    pub fn empty_columns(&self) -> Vec<usize> {
        let mut used = vec![false; self.size];
        for row in &self.rows {
            for &c in row {
                used[c] = true;
            }
        }
        (0..self.size).filter(|&c| !used[c]).collect()
    }

    /// Whether a perfect matching between rows and columns exists
    /// (Hall's condition via augmenting paths). `false` means the matrix is
    /// structurally singular for *every* assignment of element values.
    pub fn has_perfect_matching(&self) -> bool {
        let n = self.size;
        let mut col_of = vec![usize::MAX; n];
        // Augmenting path search from `row`; `seen` is per-outer-iteration.
        fn try_assign(
            rows: &[Vec<usize>],
            row: usize,
            seen: &mut [bool],
            col_of: &mut [usize],
        ) -> bool {
            for &c in &rows[row] {
                if !seen[c] {
                    seen[c] = true;
                    if col_of[c] == usize::MAX || try_assign(rows, col_of[c], seen, col_of) {
                        col_of[c] = row;
                        return true;
                    }
                }
            }
            false
        }
        for r in 0..n {
            let mut seen = vec![false; n];
            if !try_assign(&self.rows, r, &mut seen, &mut col_of) {
                return false;
            }
        }
        true
    }
}

/// Computes the [`StampPattern`] of a netlist's DC MNA system.
///
/// The pattern mirrors `build_system`'s DC mode exactly, except that the
/// numerical regularization terms (node `gmin`, the inductor branch's tiny
/// series resistance) are excluded — the whole point is to detect matrices
/// that are only invertible thanks to them.
pub fn dc_stamp_pattern(nl: &Netlist) -> StampPattern {
    let nn = nl.node_count() - 1;
    let size = nl.unknown_count();
    let branch = nl.branch_indices();
    let mut rows: Vec<Vec<usize>> = vec![Vec::new(); size];
    let idx = |n: NodeId| -> Option<usize> { (!n.is_ground()).then(|| n.index() - 1) };
    // Conductance-shaped two-terminal pattern.
    let pattern_g = |rows: &mut Vec<Vec<usize>>, na: NodeId, nb: NodeId| {
        if let Some(i) = idx(na) {
            rows[i].push(i);
            if let Some(j) = idx(nb) {
                rows[i].push(j);
            }
        }
        if let Some(i) = idx(nb) {
            rows[i].push(i);
            if let Some(j) = idx(na) {
                rows[i].push(j);
            }
        }
    };
    for (k, e) in nl.elements().iter().enumerate() {
        match e {
            Element::Resistor { a, b, .. } | Element::Switch { a, b, .. } => {
                pattern_g(&mut rows, *a, *b);
            }
            Element::Capacitor { .. } | Element::CurrentSource { .. } => {} // no DC matrix entry
            Element::Inductor { a, b, .. } | Element::VoltageSource { p: a, n: b, .. } => {
                let j = nn + branch[k].expect("branch element has an index");
                if let Some(i) = idx(*a) {
                    rows[i].push(j);
                    rows[j].push(i);
                }
                if let Some(i) = idx(*b) {
                    rows[i].push(j);
                    rows[j].push(i);
                }
            }
            Element::Vccs {
                out_p,
                out_n,
                in_p,
                in_n,
                ..
            } => {
                for out in [*out_p, *out_n] {
                    if let Some(r) = idx(out) {
                        for inp in [*in_p, *in_n] {
                            if let Some(c) = idx(inp) {
                                rows[r].push(c);
                            }
                        }
                    }
                }
            }
            Element::Diode { anode, cathode, .. } => pattern_g(&mut rows, *anode, *cathode),
            Element::Mosfet { d, g, s, b, .. } => {
                for node in [*d, *s] {
                    if let Some(r) = idx(node) {
                        for c_node in [*g, *d, *s, *b] {
                            if let Some(c) = idx(c_node) {
                                rows[r].push(c);
                            }
                        }
                    }
                }
            }
        }
    }
    for row in &mut rows {
        row.sort_unstable();
        row.dedup();
    }
    StampPattern { size, rows }
}

/// Current through an element given a converged solution `x`.
///
/// Sign conventions: positive current flows from the first terminal to the
/// second (for sources: from `p` through the element to `n`).
///
/// `branch` is the netlist's [`Netlist::branch_indices`] table, hoisted by
/// the caller: computing it here made every per-element call O(elements),
/// turning per-sample current recording quadratic in circuit size.
pub(crate) fn element_current(
    nl: &Netlist,
    branch: &[Option<usize>],
    k: usize,
    x: &[f64],
    mode: &Mode<'_>,
) -> f64 {
    let nn = nl.node_count() - 1;
    match &nl.elements()[k] {
        Element::Resistor { a, b, ohms } => (volt(x, *a) - volt(x, *b)) / ohms,
        Element::Switch {
            a,
            b,
            closed,
            r_on,
            r_off,
        } => (volt(x, *a) - volt(x, *b)) / if *closed { *r_on } else { *r_off },
        Element::Capacitor { a, b, farads, .. } => match mode {
            Mode::Dc { .. } => 0.0,
            Mode::Transient {
                dt,
                integrator,
                history,
                ..
            } => {
                let v = volt(x, *a) - volt(x, *b);
                match integrator {
                    Integrator::BackwardEuler => farads / dt * (v - history.cap_v[k]),
                    Integrator::Trapezoidal => {
                        2.0 * farads / dt * (v - history.cap_v[k]) - history.cap_i[k]
                    }
                }
            }
        },
        Element::Inductor { .. } | Element::VoltageSource { .. } => {
            x[nn + branch[k].expect("branch element")]
        }
        Element::CurrentSource { wave, .. } => match mode {
            Mode::Dc { source_scale, .. } => wave.dc_value() * source_scale,
            Mode::Transient { t, .. } => wave.eval(*t),
        },
        Element::Vccs { in_p, in_n, gm, .. } => gm * (volt(x, *in_p) - volt(x, *in_n)),
        Element::Diode {
            anode,
            cathode,
            model,
        } => model.current(volt(x, *anode) - volt(x, *cathode)),
        Element::Mosfet { d, g, s, b, model } => {
            let vb = volt(x, *b);
            model
                .evaluate_4t(volt(x, *g) - vb, volt(x, *d) - vb, volt(x, *s) - vb)
                .id
        }
    }
}

#[cfg(test)]
mod pattern_tests {
    use super::*;
    use crate::netlist::Waveform;

    #[test]
    fn divider_pattern_is_structurally_regular() {
        let mut nl = Netlist::new();
        let vin = nl.node("vin");
        let out = nl.node("out");
        nl.voltage_source(vin, Netlist::GROUND, Waveform::Dc(1.0));
        nl.resistor(vin, out, 1e3);
        nl.resistor(out, Netlist::GROUND, 1e3);
        let p = dc_stamp_pattern(&nl);
        assert_eq!(p.size, 3); // 2 node voltages + 1 branch current
        assert!(p.empty_rows().is_empty());
        assert!(p.empty_columns().is_empty());
        assert!(p.has_perfect_matching());
    }

    #[test]
    fn capacitor_only_node_gives_empty_row() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.capacitor(a, Netlist::GROUND, 1e-9);
        let p = dc_stamp_pattern(&nl);
        assert_eq!(p.empty_rows(), vec![0]);
        assert_eq!(p.empty_columns(), vec![0]);
        assert!(!p.has_perfect_matching());
    }

    #[test]
    fn current_source_into_capacitor_is_structurally_singular() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.current_source(a, Netlist::GROUND, Waveform::Dc(1e-3));
        nl.capacitor(a, Netlist::GROUND, 1e-9);
        let p = dc_stamp_pattern(&nl);
        assert!(!p.has_perfect_matching());
    }

    #[test]
    fn vccs_sense_only_node_breaks_matching() {
        // The sense node appears as a column (through the VCCS) but no
        // equation row touches it.
        let mut nl = Netlist::new();
        let out = nl.node("out");
        let sense = nl.node("sense");
        nl.resistor(out, Netlist::GROUND, 1e3);
        nl.vccs(out, Netlist::GROUND, sense, Netlist::GROUND, 1e-3);
        let p = dc_stamp_pattern(&nl);
        assert_eq!(p.empty_rows(), vec![1]);
        assert!(!p.has_perfect_matching());
    }

    #[test]
    fn voltage_inductor_loop_is_structurally_singular() {
        // Both branch equations only touch the single node column: without
        // the solver's tiny series resistance the matrix cannot be regular.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.voltage_source(a, Netlist::GROUND, Waveform::Dc(0.0));
        nl.inductor(a, Netlist::GROUND, 1e-6);
        let p = dc_stamp_pattern(&nl);
        assert_eq!(p.size, 3);
        assert!(!p.has_perfect_matching());
    }

    #[test]
    fn inductor_with_load_keeps_matching() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.voltage_source(a, Netlist::GROUND, Waveform::Dc(1.0));
        nl.inductor(a, b, 1e-6);
        nl.resistor(b, Netlist::GROUND, 1e3);
        let p = dc_stamp_pattern(&nl);
        assert_eq!(p.size, 4);
        assert!(p.has_perfect_matching());
        assert!(p.empty_rows().is_empty());
    }

    #[test]
    fn rows_are_sorted_and_deduped() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.resistor(a, Netlist::GROUND, 1.0);
        nl.resistor(a, Netlist::GROUND, 2.0);
        let p = dc_stamp_pattern(&nl);
        assert_eq!(p.rows[0], [0]);
    }
}
