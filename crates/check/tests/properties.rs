//! Property-based tests on the static checker: malformed netlists and
//! configurations are rejected with their documented codes, and check-clean
//! netlists solve DC without panicking.

use lcosc_check::{
    check_config_facts, check_control_word, check_netlist, check_safety_facts, ConfigFacts,
    SafetyFacts,
};
use lcosc_circuit::analysis::dc::solve_dc;
use lcosc_circuit::{Element, Netlist, Waveform};
use lcosc_dac::ControlWord;
use proptest::prelude::*;

/// A grounded resistor ladder driven by a DC source: the canonical
/// check-clean network.
fn ladder(v: f64, rs: &[f64]) -> Netlist {
    let mut nl = Netlist::new();
    let mut prev = nl.node("vin");
    nl.voltage_source(prev, Netlist::GROUND, Waveform::Dc(v));
    for (k, &r) in rs.iter().enumerate() {
        let next = nl.node(&format!("n{k}"));
        nl.resistor(prev, next, r);
        prev = next;
    }
    nl.resistor(prev, Netlist::GROUND, *rs.first().unwrap_or(&1e3));
    nl
}

fn good_config() -> ConfigFacts {
    ConfigFacts {
        vdd: 3.3,
        vref: 1.65,
        target_vpp: 2.7,
        rail_clamp: 1.65,
        window_rel_width: 0.15,
        detector_tau: 30e-6,
        tick_period: 1e-3,
        nvm_delay: 5e-6,
        steps_per_period: 60,
        envelope_substeps: 256,
        detector_noise_rms: 0.0,
        nvm_code: 105,
    }
}

fn good_safety() -> SafetyFacts {
    SafetyFacts {
        window_rel_width: 0.15,
        max_rel_step: 0.0625,
        window_low: 0.397,
        window_high: 0.462,
        missing_clock_timeout: 100e-6,
        lc_period: 0.37e-6,
        low_amplitude_fraction: 0.6,
        asymmetry_threshold: 0.05,
        detector_noise_rms: 0.0,
    }
}

proptest! {
    /// Check-clean random ladders solve DC without panicking, and every
    /// solved node voltage is finite and bounded by the source.
    #[test]
    fn clean_ladders_solve_dc(
        v in -10.0f64..10.0,
        rs in proptest::collection::vec(10.0f64..1e6, 1..6),
    ) {
        let nl = ladder(v, &rs);
        let report = check_netlist(&nl);
        prop_assert!(report.is_clean(), "{}", report.render_human());
        let s = solve_dc(&nl).expect("check-clean ladder must solve");
        for node in nl.nodes() {
            let vn = s.voltage(node);
            prop_assert!(vn.is_finite());
            prop_assert!(vn.abs() <= v.abs() + 1e-9, "node {vn} vs source {v}");
        }
    }

    /// Any non-positive R/L/C value is rejected as E005, never silently
    /// accepted.
    #[test]
    fn nonpositive_values_are_e005(
        v in 1.0f64..10.0,
        bad in -1e6f64..=0.0,
        rs in proptest::collection::vec(10.0f64..1e6, 1..4),
    ) {
        let mut nl = ladder(v, &rs);
        let a = nl.node("bad_a");
        // The safe builders assert on bad values; inject the raw element.
        nl.push_element(Element::Resistor { a, b: Netlist::GROUND, ohms: bad });
        nl.resistor(a, Netlist::GROUND, 1e3); // keep the node connected twice
        let report = check_netlist(&nl);
        prop_assert!(report.contains("E005"), "{}", report.render_human());
        prop_assert!(report.has_errors());
    }

    /// Non-finite values are rejected as E006.
    #[test]
    fn non_finite_values_are_e006(
        v in 1.0f64..10.0,
        which in 0u8..3,
    ) {
        let bad = match which {
            0 => f64::NAN,
            1 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        };
        let mut nl = ladder(v, &[1e3]);
        let a = nl.node("bad_a");
        nl.push_element(Element::Resistor { a, b: Netlist::GROUND, ohms: bad });
        nl.resistor(a, Netlist::GROUND, 1e3);
        let report = check_netlist(&nl);
        prop_assert!(report.contains("E006"), "{}", report.render_human());
        prop_assert!(report.has_errors());
    }

    /// A resistor island disconnected from ground is always rejected as
    /// E003 (no DC path to ground), regardless of its size.
    #[test]
    fn disconnected_islands_are_e003(
        v in 1.0f64..10.0,
        island in proptest::collection::vec(10.0f64..1e5, 1..4),
    ) {
        let mut nl = ladder(v, &[1e3]);
        let mut prev = nl.node("isl0");
        let first = prev;
        for (k, &r) in island.iter().enumerate() {
            let next = nl.node(&format!("isl{}", k + 1));
            nl.resistor(prev, next, r);
            prev = next;
        }
        // Close the island into a ring so no node dangles; only the
        // missing ground path remains.
        nl.resistor(prev, first, 1e3);
        let report = check_netlist(&nl);
        prop_assert!(report.contains("E003"), "{}", report.render_human());
        prop_assert!(report.has_errors());
    }

    /// A node with exactly one connection is always flagged E002 (a
    /// warning: the netlist still solves, but the stub does nothing).
    #[test]
    fn dangling_nodes_are_e002(
        v in 1.0f64..10.0,
        r in 10.0f64..1e6,
    ) {
        let mut nl = ladder(v, &[1e3]);
        let stub = nl.node("stub");
        nl.resistor(stub, Netlist::GROUND, r);
        let report = check_netlist(&nl);
        prop_assert!(report.contains("E002"), "{}", report.render_human());
        prop_assert!(!report.is_clean());
    }

    /// `check_control_word` is exactly the Table 1 membership test: a word
    /// passes clean if and only if it decodes to a code that re-encodes to
    /// the same word.
    #[test]
    fn control_word_check_matches_table1(
        d in 0u8..8,
        e in 0u8..16,
        f in 0u8..=255,
    ) {
        let w = ControlWord { osc_d: d, osc_e: e, osc_f: f };
        let report = check_control_word(&w);
        let in_table = w.decode().is_ok_and(|c| ControlWord::encode(c) == w);
        prop_assert_eq!(report.is_clean(), in_table, "{w}: {}", report.render_human());
        if !report.is_clean() {
            prop_assert!(report.contains("C011"));
        }
    }

    /// Any window narrower than the 6.25 % DAC step is rejected as S001 by
    /// both the config pass and the safety pass.
    #[test]
    fn narrow_windows_are_s001(w in 0.0f64..0.0625) {
        let mut cfg = good_config();
        cfg.window_rel_width = w;
        let r = check_config_facts(&cfg);
        prop_assert!(r.contains("S001"), "{}", r.render_human());
        prop_assert!(r.has_errors());

        let mut s = good_safety();
        s.window_rel_width = w;
        let r = check_safety_facts(&s);
        prop_assert!(r.contains("S001"), "{}", r.render_human());
        prop_assert!(r.has_errors());
    }

    /// Inverted or collapsed window thresholds are rejected as S002.
    #[test]
    fn unordered_thresholds_are_s002(lo in 0.1f64..1.0, gap in 0.0f64..0.5) {
        let mut s = good_safety();
        s.window_low = lo + gap; // low at or above high
        s.window_high = lo;
        let r = check_safety_facts(&s);
        prop_assert!(r.contains("S002"), "{}", r.render_human());
        prop_assert!(r.has_errors());
    }

    /// A missing-clock timeout shorter than 4 LC periods is rejected as
    /// S003 for any period.
    #[test]
    fn short_timeouts_are_s003(
        period_us in 0.01f64..10.0,
        frac in 0.0f64..3.9,
    ) {
        let mut s = good_safety();
        s.lc_period = period_us * 1e-6;
        s.missing_clock_timeout = frac * s.lc_period;
        let r = check_safety_facts(&s);
        prop_assert!(r.contains("S003"), "{}", r.render_human());
        prop_assert!(r.has_errors());
    }

    /// Out-of-range NVM codes are always a C010 error.
    #[test]
    fn out_of_range_codes_are_c010(code in 128u32..100_000) {
        let mut cfg = good_config();
        cfg.nvm_code = code;
        let r = check_config_facts(&cfg);
        prop_assert!(r.contains("C010"), "{}", r.render_human());
        prop_assert!(r.has_errors());
    }

    /// Configurations drawn from the physically sensible region pass the
    /// whole config rule set clean.
    #[test]
    fn sensible_configs_stay_clean(
        vdd in 2.0f64..5.5,
        vref_frac in 0.3f64..0.7,
        target_frac in 0.2f64..0.9,
        width in 0.07f64..0.5,
        tau_us in 1.0f64..50.0,
        code in 16u32..=127,
    ) {
        let vref = vref_frac * vdd;
        let rail_clamp = vref.min(vdd - vref);
        let cfg = ConfigFacts {
            vdd,
            vref,
            target_vpp: target_frac * 4.0 * rail_clamp,
            rail_clamp,
            window_rel_width: width,
            detector_tau: tau_us * 1e-6,
            tick_period: 20.0 * tau_us * 1e-6,
            nvm_delay: tau_us * 1e-6,
            steps_per_period: 60,
            envelope_substeps: 64,
            detector_noise_rms: 0.0,
            nvm_code: code,
        };
        let r = check_config_facts(&cfg);
        prop_assert!(r.is_clean(), "{}", r.render_human());
    }
}
