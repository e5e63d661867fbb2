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
}
