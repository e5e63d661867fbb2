//! Property-based tests on the MNA simulator: conservation laws and
//! solution invariants on randomized linear networks.

use lcosc_circuit::analysis::dc::solve_dc;
use lcosc_circuit::analysis::transient::{run_transient, SolverPath, TransientOptions};
use lcosc_circuit::netlist::{Netlist, Waveform};
use proptest::prelude::*;

proptest! {
    /// Voltage divider solves exactly for arbitrary positive resistors.
    #[test]
    fn divider_ratio_exact(r1 in 1.0f64..1e6, r2 in 1.0f64..1e6, v in -100.0f64..100.0) {
        let mut nl = Netlist::new();
        let vin = nl.node("vin");
        let out = nl.node("out");
        nl.voltage_source(vin, Netlist::GROUND, Waveform::Dc(v));
        nl.resistor(vin, out, r1);
        nl.resistor(out, Netlist::GROUND, r2);
        let s = solve_dc(&nl).expect("linear network");
        let expect = v * r2 / (r1 + r2);
        prop_assert!((s.voltage(out) - expect).abs() < 1e-6 * expect.abs().max(1.0));
    }

    /// KCL: currents into a three-resistor star node sum to zero.
    #[test]
    fn star_node_kcl(
        r in proptest::collection::vec(10.0f64..1e5, 3),
        v in proptest::collection::vec(-10.0f64..10.0, 3),
    ) {
        let mut nl = Netlist::new();
        let star = nl.node("star");
        let mut legs = Vec::new();
        for k in 0..3 {
            let src = nl.node("src");
            nl.voltage_source(src, Netlist::GROUND, Waveform::Dc(v[k]));
            legs.push(nl.resistor(src, star, r[k]));
        }
        let s = solve_dc(&nl).expect("linear network");
        let total: f64 = legs.iter().map(|&e| s.current(e)).sum();
        prop_assert!(total.abs() < 1e-9, "kcl residual {total}");
    }

    /// Superposition: response to two sources equals the sum of responses.
    #[test]
    fn superposition_holds(va in -10.0f64..10.0, vb in -10.0f64..10.0) {
        let build = |va: f64, vb: f64| {
            let mut nl = Netlist::new();
            let a = nl.node("a");
            let b = nl.node("b");
            let out = nl.node("out");
            nl.voltage_source(a, Netlist::GROUND, Waveform::Dc(va));
            nl.voltage_source(b, Netlist::GROUND, Waveform::Dc(vb));
            nl.resistor(a, out, 1e3);
            nl.resistor(b, out, 2.2e3);
            nl.resistor(out, Netlist::GROUND, 4.7e3);
            let s = solve_dc(&nl).expect("linear network");
            s.voltage(out)
        };
        let both = build(va, vb);
        let sum = build(va, 0.0) + build(0.0, vb);
        prop_assert!((both - sum).abs() < 1e-9, "{both} vs {sum}");
    }

    /// An RC transient always relaxes monotonically toward the source, on
    /// every solver path.
    #[test]
    fn rc_step_is_monotone(r_k in 0.1f64..100.0, c_n in 0.1f64..100.0) {
        let r = r_k * 1e3;
        let c = c_n * 1e-9;
        let tau = r * c;
        let mut nl = Netlist::new();
        let vin = nl.node("vin");
        let out = nl.node("out");
        nl.voltage_source(vin, Netlist::GROUND, Waveform::Dc(1.0));
        nl.resistor(vin, out, r);
        nl.capacitor(out, Netlist::GROUND, c);
        for solver in [
            SolverPath::Auto,
            SolverPath::Dense,
            SolverPath::Sparse,
            SolverPath::Reference,
        ] {
            let mut opts = TransientOptions::new(tau / 50.0, 3.0 * tau);
            opts.solver = solver;
            let res = run_transient(&nl, &opts).expect("stable network");
            let trace = res.voltage_trace(out);
            for w in trace.windows(2) {
                prop_assert!(w[1] >= w[0] - 1e-9, "{solver:?} non-monotone {} -> {}", w[0], w[1]);
            }
            let last = *trace.last().expect("non-empty");
            prop_assert!((last - (1.0 - (-3.0f64).exp())).abs() < 0.02, "{solver:?}: {last}");
        }
    }

    /// Passivity: a resistive network never outputs more than the source
    /// magnitude anywhere.
    #[test]
    fn resistive_network_bounded_by_source(
        rs in proptest::collection::vec(10.0f64..1e5, 4),
        v in -50.0f64..50.0,
    ) {
        let mut nl = Netlist::new();
        let vin = nl.node("vin");
        let n1 = nl.node("n1");
        let n2 = nl.node("n2");
        nl.voltage_source(vin, Netlist::GROUND, Waveform::Dc(v));
        nl.resistor(vin, n1, rs[0]);
        nl.resistor(n1, n2, rs[1]);
        nl.resistor(n2, Netlist::GROUND, rs[2]);
        nl.resistor(n1, Netlist::GROUND, rs[3]);
        let s = solve_dc(&nl).expect("linear network");
        for node in [n1, n2] {
            let vn = s.voltage(node);
            prop_assert!(vn.abs() <= v.abs() + 1e-9, "node {vn} vs source {v}");
        }
    }

    /// `structural_digest` keys the sparse symbolic cache, so it must be
    /// invariant under element *values* while distinguishing element
    /// *structure*: a terminal permutation or an extra node must change it.
    #[test]
    fn structural_digest_ignores_values_but_sees_structure(
        r1 in 1.0f64..1e6,
        r2 in 1.0f64..1e6,
        c in 1e-12f64..1e-6,
        v in -10.0f64..10.0,
    ) {
        let build = |r1: f64, r2: f64, c: f64, v: f64, flip: bool, extra: bool| {
            let mut nl = Netlist::new();
            let vin = nl.node("vin");
            let out = nl.node("out");
            nl.voltage_source(vin, Netlist::GROUND, Waveform::Dc(v));
            if flip {
                nl.resistor(out, vin, r1);
            } else {
                nl.resistor(vin, out, r1);
            }
            nl.resistor(out, Netlist::GROUND, r2);
            nl.capacitor(out, Netlist::GROUND, c);
            if extra {
                let tail = nl.node("tail");
                nl.resistor(out, tail, r2);
            }
            nl.structural_digest()
        };
        let base = build(r1, r2, c, v, false, false);
        // Value-invariant: different values, same structure, same digest.
        prop_assert_eq!(base, build(r1 * 2.0 + 1.0, r2 / 3.0 + 1.0, c * 10.0, -v, false, false));
        // Terminal permutation changes the digest.
        prop_assert_ne!(base, build(r1, r2, c, v, true, false));
        // Node-count change changes the digest.
        prop_assert_ne!(base, build(r1, r2, c, v, false, true));
    }
}
