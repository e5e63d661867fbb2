//! Differential suite pinning the transient fast path bit-identical to the
//! reference path across both integrators and across linear and nonlinear
//! decks, plus the solver-counter contracts the fast path guarantees.
//!
//! "Bit-identical" here is literal: every recorded time, node voltage and
//! element current must have the same `f64` bit pattern under both
//! [`SolverPath`] values. The fast path earns this by construction (same
//! per-cell stamp accumulation order, same LU arithmetic, same Newton
//! update replay), and this suite is the tripwire for any refactor that
//! would trade that away.

use lcosc_circuit::{
    run_transient, Integrator, Netlist, SolverPath, TransientOptions, TransientResult, Waveform,
};

/// Bitwise slice equality (stricter than `==`: distinguishes signed zeros,
/// equates NaN payloads).
fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn assert_bit_identical(fast: &TransientResult, reference: &TransientResult, label: &str) {
    assert!(
        bits_equal(fast.times(), reference.times()),
        "{label}: times diverged"
    );
    assert!(
        bits_equal(fast.voltages_flat(), reference.voltages_flat()),
        "{label}: voltages diverged"
    );
    assert!(
        bits_equal(fast.currents_flat(), reference.currents_flat()),
        "{label}: currents diverged"
    );
}

/// Paper-shaped series tank ring-down: linear, both caps precharged.
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

/// Driven RLC with a sine source: linear, exercises the per-step RHS
/// restamp (time-varying source) against the cached factorization.
fn driven_rlc() -> Netlist {
    let mut nl = Netlist::new();
    let vin = nl.node("vin");
    let mid = nl.node("mid");
    let out = nl.node("out");
    nl.voltage_source(
        vin,
        Netlist::GROUND,
        Waveform::Sine {
            offset: 0.0,
            amplitude: 1.0,
            frequency: 1e6,
            phase: 0.0,
        },
    );
    nl.resistor(vin, mid, 15.0);
    nl.inductor(mid, out, 25e-6);
    nl.capacitor(out, Netlist::GROUND, 1e-9);
    nl
}

/// Diode-clamped divider: nonlinear, forces the Newton overlay path.
fn diode_deck() -> Netlist {
    let mut nl = Netlist::new();
    let vin = nl.node("vin");
    let out = nl.node("out");
    nl.voltage_source(
        vin,
        Netlist::GROUND,
        Waveform::Sine {
            offset: 0.0,
            amplitude: 1.5,
            frequency: 5e5,
            phase: 0.0,
        },
    );
    nl.resistor(vin, out, 1e3);
    nl.diode(
        out,
        Netlist::GROUND,
        lcosc_device::diode::DiodeModel::default(),
    );
    nl.capacitor(out, Netlist::GROUND, 1e-9);
    nl
}

fn run_both(nl: &Netlist, opts: &TransientOptions) -> (TransientResult, TransientResult) {
    let fast = run_transient(nl, opts).expect("fast path converges");
    let mut ref_opts = *opts;
    ref_opts.solver = SolverPath::Reference;
    let reference = run_transient(nl, &ref_opts).expect("reference path converges");
    (fast, reference)
}

#[test]
fn linear_tank_is_bit_identical_under_both_integrators() {
    let nl = tank();
    for integrator in [Integrator::BackwardEuler, Integrator::Trapezoidal] {
        let mut opts = TransientOptions::new(5e-9, 20e-6);
        opts.integrator = integrator;
        let (fast, reference) = run_both(&nl, &opts);
        assert_bit_identical(&fast, &reference, &format!("tank/{integrator:?}"));
        // `Auto` resolves this small linear deck to dense.
        assert!(fast.stats().used_linear_fast_path);
        assert!(!reference.stats().used_linear_fast_path);
    }
}

#[test]
fn driven_linear_deck_is_bit_identical_with_stride_and_dc_start() {
    let nl = driven_rlc();
    for integrator in [Integrator::BackwardEuler, Integrator::Trapezoidal] {
        let mut opts = TransientOptions::new(2e-9, 4e-6);
        opts.integrator = integrator;
        opts.record_stride = 7;
        opts.use_initial_conditions = false;
        let (fast, reference) = run_both(&nl, &opts);
        assert_bit_identical(&fast, &reference, &format!("driven/{integrator:?}"));
    }
}

#[test]
fn nonlinear_deck_is_bit_identical_under_both_integrators() {
    let nl = diode_deck();
    for integrator in [Integrator::BackwardEuler, Integrator::Trapezoidal] {
        let mut opts = TransientOptions::new(1e-8, 4e-6);
        opts.integrator = integrator;
        let (fast, reference) = run_both(&nl, &opts);
        assert_bit_identical(&fast, &reference, &format!("diode/{integrator:?}"));
        assert!(
            !fast.stats().used_linear_fast_path,
            "diode deck is nonlinear"
        );
        assert_eq!(
            fast.stats().newton_iterations,
            reference.stats().newton_iterations
        );
    }
}

#[test]
fn linear_fast_path_counters_prove_single_factorization_and_no_allocs() {
    let nl = tank();
    let opts = TransientOptions::new(5e-9, 10e-6);
    let res = run_transient(&nl, &opts).expect("converges");
    let s = res.stats();
    assert!(s.used_linear_fast_path);
    assert_eq!(s.factorizations, 1, "one LU for the whole transient");
    assert_eq!(s.factor_reuses, s.steps - 1, "every later step reuses it");
    assert_eq!(
        s.post_warmup_allocations, 0,
        "Newton inner loop must be allocation-free after the first step"
    );
}

#[test]
fn nonlinear_fast_path_reuses_workspace() {
    let nl = diode_deck();
    let opts = TransientOptions::new(1e-8, 2e-6);
    let res = run_transient(&nl, &opts).expect("converges");
    let s = res.stats();
    assert!(!s.used_linear_fast_path);
    assert_eq!(s.factorizations, s.newton_iterations);
    assert_eq!(s.factor_reuses, 0);
    assert_eq!(
        s.post_warmup_allocations, 0,
        "workspace persists across steps"
    );
}

#[test]
fn reference_path_attributes_per_step_allocations() {
    let nl = tank();
    let mut opts = TransientOptions::new(5e-9, 2e-6);
    opts.solver = SolverPath::Reference;
    let res = run_transient(&nl, &opts).expect("converges");
    let s = res.stats();
    assert!(s.post_warmup_allocations > 0);
    assert_eq!(s.factor_reuses, 0);
}

#[test]
fn stats_are_deterministic_across_repeat_runs() {
    let nl = driven_rlc();
    let opts = TransientOptions::new(2e-9, 1e-6);
    let a = run_transient(&nl, &opts).expect("run a");
    let b = run_transient(&nl, &opts).expect("run b");
    assert_eq!(a.stats(), b.stats());
    assert_bit_identical(&a, &b, "repeat");
}
