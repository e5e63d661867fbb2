//! Differential suite for the sparse solver path.
//!
//! The sparse path does **not** promise bit-identity with the dense path —
//! its fill-reducing elimination order intentionally differs — so this
//! suite pins the two contracts it does make:
//!
//! 1. **Tolerance agreement with dense** on every deck both paths can
//!    solve: same structure, same physics, different rounding only.
//! 2. **Bit-exact determinism with itself**: the sparse factorization is a
//!    pure function of the cached symbolic pattern and the stamped values,
//!    so repeat runs (and therefore any thread count in a campaign) must
//!    reproduce identical bytes.
//!
//! Plus the [`SolverPath::Auto`] selection contract: below
//! [`SPARSE_MIN_UNKNOWNS`] a linear deck runs dense, at or above it the
//! run is byte-identical to forced-sparse.

use lcosc_circuit::workloads::{coupled_tank_network, pad_driver_array, rc_ladder};
use lcosc_circuit::{
    run_transient, Integrator, Netlist, SolverPath, TransientOptions, TransientResult,
    SPARSE_MIN_UNKNOWNS,
};

/// Bitwise slice equality (stricter than `==`).
fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn assert_bits_identical(a: &TransientResult, b: &TransientResult, label: &str) {
    assert!(bits_equal(a.times(), b.times()), "{label}: times diverged");
    assert!(
        bits_equal(a.voltages_flat(), b.voltages_flat()),
        "{label}: voltages diverged"
    );
    assert!(
        bits_equal(a.currents_flat(), b.currents_flat()),
        "{label}: currents diverged"
    );
}

/// Dense and sparse share structure and physics but not rounding; compare
/// against the larger of an absolute floor and a relative band.
fn assert_close(a: &TransientResult, b: &TransientResult, label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: sample counts differ");
    for (x, y) in a
        .voltages_flat()
        .iter()
        .chain(a.currents_flat().iter())
        .zip(b.voltages_flat().iter().chain(b.currents_flat().iter()))
    {
        let tol = 1e-9 + 1e-6 * x.abs().max(y.abs());
        assert!((x - y).abs() <= tol, "{label}: {x} vs {y}");
    }
}

fn run_with(nl: &Netlist, opts: &TransientOptions, path: SolverPath) -> TransientResult {
    let mut o = *opts;
    o.solver = path;
    run_transient(nl, &o).expect("transient run")
}

/// Paper-shaped series tank ring-down (3 nodes, 4 unknowns): a deck far
/// below [`SPARSE_MIN_UNKNOWNS`] that only an explicit `Sparse` solves
/// sparse.
fn tank() -> Netlist {
    let mut nl = Netlist::new();
    let lc1 = nl.node("lc1");
    let lc2 = nl.node("lc2");
    let mid = nl.node("mid");
    nl.capacitor_ic(lc1, Netlist::GROUND, 2e-9, 1.0);
    nl.capacitor_ic(lc2, Netlist::GROUND, 2e-9, -1.0);
    nl.inductor(lc1, mid, 25e-6);
    nl.resistor(mid, lc2, 15.0);
    nl
}

/// Every workload deck plus the small tank, with options sized for a quick
/// but non-trivial run.
fn decks() -> Vec<(&'static str, Netlist, TransientOptions)> {
    vec![
        ("tank", tank(), TransientOptions::new(5e-9, 5e-6)),
        (
            "rc_ladder_120",
            rc_ladder(120),
            TransientOptions::new(2e-9, 400e-9),
        ),
        (
            "coupled_tanks_40",
            coupled_tank_network(40),
            TransientOptions::new(20e-9, 8e-6),
        ),
        (
            "pad_array_40",
            pad_driver_array(40),
            TransientOptions::new(10e-12, 2e-9),
        ),
    ]
}

#[test]
fn sparse_agrees_with_dense_within_tolerance_on_all_decks() {
    for (label, nl, opts) in decks() {
        for integrator in [Integrator::BackwardEuler, Integrator::Trapezoidal] {
            let mut o = opts;
            o.integrator = integrator;
            let dense = run_with(&nl, &o, SolverPath::Dense);
            let sparse = run_with(&nl, &o, SolverPath::Sparse);
            assert!(sparse.stats().used_sparse_path, "{label}: path not taken");
            assert!(!dense.stats().used_sparse_path);
            assert_close(&sparse, &dense, label);
        }
    }
}

#[test]
fn sparse_results_are_bit_identical_across_repeat_runs() {
    for (label, nl, opts) in decks() {
        let first = run_with(&nl, &opts, SolverPath::Sparse);
        for _ in 0..2 {
            let again = run_with(&nl, &opts, SolverPath::Sparse);
            assert_bits_identical(&first, &again, label);
        }
    }
}

#[test]
fn auto_matches_forced_sparse_bit_for_bit_above_threshold() {
    let nl = rc_ladder(SPARSE_MIN_UNKNOWNS); // unknowns = sections + 2
    assert!(nl.unknown_count() >= SPARSE_MIN_UNKNOWNS);
    let opts = TransientOptions::new(2e-9, 200e-9);
    let auto = run_with(&nl, &opts, SolverPath::Auto);
    let forced = run_with(&nl, &opts, SolverPath::Sparse);
    assert!(auto.stats().used_sparse_path);
    assert_bits_identical(&auto, &forced, "auto-vs-forced-sparse");
}

#[test]
fn auto_stays_dense_below_threshold_and_matches_dense_exactly() {
    let nl = rc_ladder(8);
    assert!(nl.unknown_count() < SPARSE_MIN_UNKNOWNS);
    let opts = TransientOptions::new(2e-9, 200e-9);
    let auto = run_with(&nl, &opts, SolverPath::Auto);
    let dense = run_with(&nl, &opts, SolverPath::Dense);
    assert!(!auto.stats().used_sparse_path);
    assert_bits_identical(&auto, &dense, "auto-vs-forced-dense");
}

#[test]
fn sparse_counters_prove_symbolic_and_numeric_reuse() {
    let nl = coupled_tank_network(80);
    let opts = TransientOptions::new(20e-9, 4e-6);
    let res = run_with(&nl, &opts, SolverPath::Sparse);
    let s = res.stats();
    assert!(s.used_sparse_path);
    // Linear deck: one numeric factorization, every further step reuses it.
    assert_eq!(s.factorizations, 1);
    assert_eq!(s.factor_reuses, s.steps - 1);
    // Exactly one symbolic analysis or cache hit per run, never more.
    assert_eq!(s.symbolic_analyses + s.symbolic_reuses, 1);
    assert_eq!(s.post_warmup_allocations, 0, "stepping must not allocate");
    // Same structure again: the symbolic cache must serve it.
    let again = run_with(&nl, &opts, SolverPath::Sparse);
    assert_eq!(again.stats().symbolic_analyses, 0);
    assert_eq!(again.stats().symbolic_reuses, 1);
}
