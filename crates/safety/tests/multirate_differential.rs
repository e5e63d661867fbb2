//! Differential harness for the multi-rate engine: every fault in the
//! FMEA catalog must produce the *same* discrete safety outcome —
//! triggered detector set, trip latencies, code saturation and the final
//! regulation code — whether the scenario runs multi-rate (the scenario
//! runner's default) or at full cycle fidelity. Every assertion lives in
//! the single `#[test]` below, so the cycle reference sweep runs once.

use lcosc_core::{Fidelity, OscillatorConfig};
use lcosc_safety::{run_scenario_mission, Fault, SCENARIO_POST_FAULT_TICKS};
use lcosc_trace::{DetectorId, MemorySink, Trace, TraceEvent};
use std::sync::Arc;

/// Shortened fast-test configuration (fewer ODE steps per regulation
/// tick) so the full-fidelity reference sweep stays affordable in debug
/// builds. Mirrors the `cycle_cfg` used by the core crate's sim tests.
fn short_cfg() -> OscillatorConfig {
    let mut cfg = OscillatorConfig::fast_test();
    cfg.tick_period = 0.2e-3;
    cfg.detector_tau = 15e-6;
    cfg
}

/// Everything a scenario decides discretely, plus the analog outcomes the
/// FMEA verdict (`is_safe`) derives from.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    detected: bool,
    safe: bool,
    triggered: Vec<DetectorId>,
    code_saturated: bool,
    final_code: u8,
    trip_latencies: Vec<(DetectorId, u64)>,
}

fn outcome(fault: Fault, cfg: &OscillatorConfig, fidelity: Fidelity) -> Outcome {
    let sink = Arc::new(MemorySink::new());
    let trace = Trace::new(sink.clone());
    let r = run_scenario_mission(fault, cfg, &trace, fidelity, SCENARIO_POST_FAULT_TICKS)
        .unwrap_or_else(|e| panic!("scenario {fault} failed: {e}"));
    let events = sink.snapshot();
    let final_code = events
        .iter()
        .rev()
        .find_map(|e| match e {
            TraceEvent::CodeStep { new, .. } => Some(*new),
            _ => None,
        })
        .expect("every scenario ticks the regulation loop");
    let trip_latencies = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::DetectorTrip {
                detector,
                latency_ticks,
                ..
            } => Some((*detector, *latency_ticks)),
            _ => None,
        })
        .collect();
    Outcome {
        detected: r.detected,
        safe: r.is_safe(),
        triggered: r
            .triggered
            .iter()
            .map(|&k| lcosc_safety::detector_id(k))
            .collect(),
        code_saturated: r.code_saturated,
        final_code,
        trip_latencies,
    }
}

fn sweep(cfg: &OscillatorConfig, fidelity: Fidelity) -> Vec<(Fault, Outcome)> {
    Fault::catalog()
        .into_iter()
        .map(|f| (f, outcome(f, cfg, fidelity)))
        .collect()
}

/// Minimal deterministic generator (splitmix64) for the jittered
/// guard-window sweep — no RNG dependency, fixed seed, reproducible.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn multirate_catalog_matches_full_fidelity() {
    let cfg = short_cfg();

    let reference = sweep(&cfg, Fidelity::Cycle);
    assert_eq!(reference.len(), 11, "FMEA catalog is exhaustive");

    // Every catalog fault must be caught (or safely regulated) by the
    // reference itself, otherwise the comparison below proves nothing.
    for (fault, out) in &reference {
        assert!(out.safe, "reference run of {fault} is unsafe: {out:?}");
    }

    // Multi-rate sweep (the default fidelity of the scenario runner):
    // discrete outcomes must match the full-fidelity reference 1:1.
    let multirate = sweep(&cfg, Fidelity::MultiRate);
    for ((fault, full), (_, mr)) in reference.iter().zip(&multirate) {
        assert_eq!(
            full, mr,
            "multi-rate diverged from full fidelity on {fault}"
        );
    }

    // Property: the exact placement of envelope↔cycle hand-offs is an
    // implementation detail — jittering the guard-window width and the
    // hand-off tolerances must never change a safety verdict, a trip
    // latency or a final code.
    let mut state = 0x5afe_ca7a_1005_c111u64;
    for trial in 0..3u32 {
        let mut jcfg = short_cfg();
        jcfg.multirate.guard_ticks = 1 + (splitmix64(&mut state) % 5) as u32;
        jcfg.multirate.handoff_rel_tol = 0.02 + (splitmix64(&mut state) % 9) as f64 * 0.01;
        jcfg.multirate.boundary_margin = 0.02 + (splitmix64(&mut state) % 7) as f64 * 0.01;
        let jittered = sweep(&jcfg, Fidelity::MultiRate);
        for ((fault, full), (_, jit)) in reference.iter().zip(&jittered) {
            assert_eq!(
                full, jit,
                "trial {trial} ({:?}) changed the outcome of {fault}",
                jcfg.multirate
            );
        }
    }
}
