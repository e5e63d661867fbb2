//! Parametric workload generators for the decks the dense solver could not
//! touch: long RC ladders, coupled LC sensor-tank networks and multi-cell
//! pad-driver arrays.
//!
//! All three are fully linear, so [`crate::SolverPath::Auto`] routes them to
//! the sparse solver once they cross [`crate::SPARSE_MIN_UNKNOWNS`]
//! unknowns. Each generator produces an ordinary [`Netlist`], so the decks
//! round-trip through [`crate::netlist_to_json`] / deck JSON and run
//! through `lcosc-serve` like any hand-written deck.

use crate::netlist::{Netlist, Waveform};

/// An `sections`-section RC transmission-line ladder driven by a 1 MHz
/// sine: `vin — R — n1 — R — n2 — …`, each interior node loaded by a
/// capacitor to ground. MNA size: `sections + 1` node voltages plus one
/// source branch current.
///
/// # Panics
///
/// Panics if `sections == 0`.
pub fn rc_ladder(sections: usize) -> Netlist {
    assert!(sections > 0, "ladder needs at least one section");
    let mut nl = Netlist::new();
    let vin = nl.node("vin");
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
    let mut prev = vin;
    for k in 0..sections {
        let n = nl.node(&format!("n{k}"));
        nl.resistor(prev, n, 100.0);
        nl.capacitor(n, Netlist::GROUND, 100e-12);
        prev = n;
    }
    nl
}

/// A network of `tanks` LC sensor tanks coupled to their neighbors through
/// resistors — the paper's redundant dual-tank scenario generalized to a
/// fleet. Tank `0` starts charged (the "excited sensor"); the rest ring up
/// through the coupling. MNA size: `tanks` node voltages plus `tanks`
/// inductor branch currents.
///
/// # Panics
///
/// Panics if `tanks == 0`.
pub fn coupled_tank_network(tanks: usize) -> Netlist {
    coupled_tank_network_scaled(tanks, 1.0)
}

/// [`coupled_tank_network`] with every reactive value multiplied by
/// `value_scale`: same structure (same structural digest), different
/// values — the shape campaign populations are made of.
///
/// # Panics
///
/// Panics if `tanks == 0`.
pub fn coupled_tank_network_scaled(tanks: usize, value_scale: f64) -> Netlist {
    assert!(tanks > 0, "network needs at least one tank");
    let mut nl = Netlist::new();
    let mut nodes = Vec::with_capacity(tanks);
    for k in 0..tanks {
        let n = nl.node(&format!("tank{k}"));
        // Paper-style tank values with a slight per-tank spread so the
        // network is not degenerate.
        let scale = value_scale * (1.0 + 0.01 * k as f64);
        let v0 = if k == 0 { 1.0 } else { 0.0 };
        nl.capacitor_ic(n, Netlist::GROUND, 2e-9 * scale, v0);
        nl.inductor(n, Netlist::GROUND, 25e-6 * scale);
        // Tank loss.
        nl.resistor(n, Netlist::GROUND, 50e3);
        nodes.push(n);
    }
    for k in 1..tanks {
        nl.resistor(nodes[k - 1], nodes[k], 10e3);
    }
    nl
}

/// A `cells`-cell pad-driver array: one shared supply rail feeding per-cell
/// drivers (a closed switch in series with the driver resistance) into the
/// pad capacitance, with a small coupling capacitor between neighboring
/// pads. Models the multi-cell driver arrays of the PLL-array literature;
/// fully linear (switches are resistive). MNA size: `2 * cells + 1` node
/// voltages plus one source branch current.
///
/// # Panics
///
/// Panics if `cells == 0`.
pub fn pad_driver_array(cells: usize) -> Netlist {
    assert!(cells > 0, "array needs at least one cell");
    let mut nl = Netlist::new();
    let rail = nl.node("rail");
    nl.voltage_source(rail, Netlist::GROUND, Waveform::Dc(3.3));
    let mut prev_pad = None;
    for k in 0..cells {
        let drv = nl.node(&format!("drv{k}"));
        let pad = nl.node(&format!("pad{k}"));
        // Rail feed, driver switch (alternate cells active) and series
        // output resistance into the pad load.
        nl.resistor(rail, drv, 10.0);
        nl.switch(drv, pad, k % 2 == 0);
        nl.resistor(pad, Netlist::GROUND, 1e6);
        nl.capacitor(pad, Netlist::GROUND, 5e-12);
        if let Some(prev) = prev_pad {
            nl.capacitor(prev, pad, 0.2e-12);
        }
        prev_pad = Some(pad);
    }
    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::transient::SPARSE_MIN_UNKNOWNS;
    use crate::netlist::NodeId;
    use crate::{netlist_from_json, netlist_to_json, run_transient, TransientOptions};

    #[test]
    fn generators_are_linear_and_sized_as_documented() {
        let ladder = rc_ladder(40);
        assert!(ladder.is_linear());
        assert_eq!(ladder.unknown_count(), 40 + 1 + 1);
        let tanks = coupled_tank_network(8);
        assert!(tanks.is_linear());
        assert_eq!(tanks.unknown_count(), 8 + 8);
        let pads = pad_driver_array(5);
        assert!(pads.is_linear());
        assert_eq!(pads.unknown_count(), 2 * 5 + 1 + 1);
    }

    #[test]
    fn big_workloads_cross_the_sparse_threshold() {
        assert!(rc_ladder(1000).unknown_count() >= SPARSE_MIN_UNKNOWNS);
        assert!(coupled_tank_network(64).unknown_count() >= SPARSE_MIN_UNKNOWNS);
        assert!(pad_driver_array(64).unknown_count() >= SPARSE_MIN_UNKNOWNS);
    }

    #[test]
    fn scaled_tank_network_keeps_the_structural_digest() {
        let a = coupled_tank_network_scaled(12, 0.8);
        let b = coupled_tank_network_scaled(12, 1.3);
        assert_eq!(a.structural_digest(), b.structural_digest());
        assert_ne!(a, b, "values must differ");
    }

    #[test]
    fn workloads_round_trip_through_deck_json() {
        for nl in [rc_ladder(12), coupled_tank_network(6), pad_driver_array(4)] {
            let json = netlist_to_json(&nl);
            let back = netlist_from_json(&json).expect("round-trip");
            assert_eq!(back.structural_digest(), nl.structural_digest());
            assert_eq!(back.unknown_count(), nl.unknown_count());
        }
    }

    #[test]
    fn small_workloads_solve_on_the_dense_path() {
        let nl = coupled_tank_network(4);
        let res = run_transient(&nl, &TransientOptions::new(20e-9, 4e-6)).unwrap();
        let s = res.stats();
        assert!(!s.used_sparse_path);
        assert!(s.used_linear_fast_path);
        // The excited tank must actually ring.
        let v0 = res.voltage_trace(NodeId(1));
        assert!(v0.iter().any(|v| v.abs() > 0.1));
    }

    #[test]
    fn large_ladder_solves_on_the_sparse_path() {
        let nl = rc_ladder(200);
        let res = run_transient(&nl, &TransientOptions::new(10e-9, 1e-6)).unwrap();
        let s = res.stats();
        assert!(s.used_sparse_path);
        assert!(!s.used_linear_fast_path);
        assert_eq!(s.factorizations, 1);
        assert_eq!(s.factor_reuses, s.steps - 1);
        assert_eq!(s.symbolic_analyses + s.symbolic_reuses, 1);
        assert_eq!(s.post_warmup_allocations, 0, "stepping must not allocate");
        // Second run of the same structure hits the symbolic cache.
        let res2 = run_transient(&nl, &TransientOptions::new(10e-9, 1e-6)).unwrap();
        assert_eq!(res2.stats().symbolic_reuses, 1);
        assert_eq!(res2.stats().symbolic_analyses, 0);
    }
}
