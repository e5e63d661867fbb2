//! Fault injection scenarios: apply one [`Fault`] to a settled closed-loop
//! simulation and evaluate which on-chip detectors fire.

use crate::detectors::{
    AsymmetryDetector, DetectorKind, LowAmplitudeDetector, MissingClockDetector,
    CHIP_ASYMMETRY_THRESHOLD, CHIP_LOW_AMPLITUDE_FRACTION, CHIP_MISSING_CLOCK_TIMEOUT,
};
use crate::fault::Fault;
use lcosc_core::config::{Fidelity, OscillatorConfig};
use lcosc_core::detector::RECTIFIER_GAIN;
use lcosc_core::sim::{ClosedLoopSim, SimEvent};
use lcosc_core::{CoreError, Result};
use lcosc_trace::{DetectorId, Trace, TraceEvent};

/// Maps the safety crate's detector enumeration onto the trace layer's
/// stable identifiers.
pub fn detector_id(kind: DetectorKind) -> DetectorId {
    match kind {
        DetectorKind::MissingOscillation => DetectorId::MissingOscillation,
        DetectorKind::LowAmplitude => DetectorId::LowAmplitude,
        DetectorKind::Asymmetry => DetectorId::Asymmetry,
    }
}

/// Conductance of a hard pin short (≈50 Ω solder bridge).
const SHORT_CONDUCTANCE: f64 = 0.02;

/// Outcome of one injected-fault scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// The injected fault.
    pub fault: Fault,
    /// Detectors that fired after the fault.
    pub triggered: Vec<DetectorKind>,
    /// Whether at least one detector fired.
    pub detected: bool,
    /// Whether the regulation code was pinned at maximum after the fault.
    pub code_saturated: bool,
    /// Differential amplitude after the fault settled, volts.
    pub final_vpp: f64,
    /// Amplitude before the fault, volts.
    pub vpp_before: f64,
}

impl ScenarioResult {
    /// The safety verdict: a fault scenario is *safe* when it was detected
    /// (the system can then force its outputs to safe values). Undetected
    /// faults that still regulate to the correct amplitude are also safe —
    /// but the paper's FMEA demands detection for every external fault, so
    /// [`crate::fmea::FmeaReport`] tracks detection separately.
    pub fn is_safe(&self) -> bool {
        self.detected || (self.final_vpp / self.vpp_before - 1.0).abs() < 0.2
    }
}

/// Builds the `S0xx` facts snapshot for a configuration paired with the
/// chip-default detectors this module injects faults against.
pub fn safety_facts(cfg: &OscillatorConfig) -> lcosc_check::SafetyFacts {
    let vdc_target = RECTIFIER_GAIN * cfg.target_peak();
    lcosc_check::SafetyFacts {
        window_rel_width: cfg.window_rel_width,
        max_rel_step: lcosc_check::ideal_max_rel_step_above_16(),
        window_low: vdc_target * (1.0 - cfg.window_rel_width / 2.0),
        window_high: vdc_target * (1.0 + cfg.window_rel_width / 2.0),
        missing_clock_timeout: CHIP_MISSING_CLOCK_TIMEOUT,
        lc_period: 1.0 / cfg.tank.f0().value(),
        low_amplitude_fraction: CHIP_LOW_AMPLITUDE_FRACTION,
        asymmetry_threshold: CHIP_ASYMMETRY_THRESHOLD,
        detector_noise_rms: cfg.detector_noise_rms,
    }
}

/// Runs the full static verification pass a scenario depends on: the
/// configuration's `C0xx` rules plus the `S0xx` safety invariants of the
/// chip-default detectors.
pub fn check_scenario(cfg: &OscillatorConfig) -> lcosc_check::Report {
    let mut report = cfg.check();
    report.merge(lcosc_check::check_safety_facts(&safety_facts(cfg)));
    report
}

/// Runs one fault scenario on the given base configuration (multi-rate
/// fidelity is forced for speed — envelope dynamics between events, cycle
/// fidelity in guard windows around them; the `multirate_differential`
/// integration test proves the discrete outcomes match full-fidelity
/// runs), after pre-checking the configuration and safety invariants.
///
/// # Errors
///
/// Returns [`lcosc_core::CoreError::CheckFailed`] when the static pass
/// rejects the configuration, and propagates simulation-setup errors.
pub fn run_scenario(fault: Fault, base: &OscillatorConfig) -> Result<ScenarioResult> {
    let report = check_scenario(base);
    if report.has_errors() {
        return Err(lcosc_core::CoreError::CheckFailed(report));
    }
    run_scenario_with_trace(fault, base, &Trace::off())
}

/// Regulation ticks a scenario observes after the fault injection (the
/// missing-clock time-out is ~100 µs, the regulation saturation takes
/// tens of ticks).
pub const SCENARIO_POST_FAULT_TICKS: usize = 150;

/// [`run_scenario`] without the static verification pass (for FMEA studies
/// that intentionally inject out-of-spec parameters; basic configuration
/// validation still applies) and with full observability: the simulation's
/// regulation loop emits its per-tick event stream into `tracer`, and each
/// detector that fires adds a [`TraceEvent::DetectorTrip`] whose
/// `latency_ticks` counts regulation ticks from the fault injection to the
/// evaluation. All emitted events are deterministic (golden stream).
///
/// # Errors
///
/// Propagates configuration errors from the simulation setup.
pub fn run_scenario_with_trace(
    fault: Fault,
    base: &OscillatorConfig,
    tracer: &Trace,
) -> Result<ScenarioResult> {
    // Multi-rate by default: envelope fidelity between events, cycle
    // fidelity inside guard windows around fault injection, detector
    // threshold crossings and segment-boundary code steps.
    run_scenario_mission(
        fault,
        base,
        tracer,
        Fidelity::MultiRate,
        SCENARIO_POST_FAULT_TICKS,
    )
}

/// The fully explicit scenario runner: `fidelity` selects the simulation
/// engine and `post_fault_ticks` sets the observation horizon after the
/// injection — the multi-rate benchmark stretches it into a long mission
/// profile and runs the same fault once per fidelity to compare wall-clock
/// at pinned discrete outcomes.
///
/// # Errors
///
/// Propagates configuration errors from the simulation setup.
pub fn run_scenario_mission(
    fault: Fault,
    base: &OscillatorConfig,
    tracer: &Trace,
    fidelity: Fidelity,
    post_fault_ticks: usize,
) -> Result<ScenarioResult> {
    let mut cfg = base.clone();
    cfg.fidelity = fidelity;
    // A tank fault whose values are no valid tank is refused up front.
    let faulted_tank = fault.try_faulted_tank(&cfg.tank)?;
    let mut sim = ClosedLoopSim::new_unchecked(cfg.clone())?.with_trace(tracer.clone());

    // Settle at the healthy operating point.
    let healthy = sim.run_until_settled()?;
    let vpp_before = healthy.final_vpp;
    let t_fault = sim.time();
    let tick_fault = sim.ticks();

    // Inject.
    match fault {
        Fault::OpenCoil | Fault::SupplyLoss | Fault::DriverDead => {
            // No resonance path / no supply / no stages: the driver cannot
            // deliver energy and the clock disappears.
            sim.inject_driver_failure();
        }
        Fault::PinShortToGround { pin } | Fault::PinShortToSupply { pin } => {
            sim.inject_pin_leak(pin, SHORT_CONDUCTANCE);
        }
        Fault::CoilShort | Fault::MissingCapacitor { .. } | Fault::RsDrift { .. } => {
            let tank = faulted_tank.ok_or(CoreError::InvalidConfig(
                "tank fault provides no faulted tank",
            ))?;
            sim.inject_tank(tank);
        }
    }

    // Let the loop react over the requested observation horizon.
    sim.run_ticks(post_fault_ticks);

    // Evaluate the three on-chip detectors on the post-fault state.
    let vpp = sim.amplitude_vpp();
    let elapsed = sim.time() - t_fault;

    let mut clock = MissingClockDetector::chip_default();
    let clock_tripped = clock.update(vpp / 2.0, elapsed);

    let code_saturated = sim
        .trace()
        .events
        .iter()
        .any(|e| matches!(e, SimEvent::SaturatedHigh { t } if *t >= t_fault));
    let low = LowAmplitudeDetector::chip_default(cfg.target_vpp).evaluate(vpp, code_saturated);

    // Per-pin amplitudes from the capacitor ratio (charge balance through
    // the series loop: a1·C1 = a2·C2).
    let tank = sim.config().tank;
    let (c1, c2) = (tank.c1().value(), tank.c2().value());
    let a = sim.amplitude_peak();
    let a1 = 2.0 * a * c2 / (c1 + c2);
    let a2 = 2.0 * a * c1 / (c1 + c2);
    let asym = AsymmetryDetector::new(cfg.vref, 20e-6, 1e-8, CHIP_ASYMMETRY_THRESHOLD)
        .evaluate_amplitudes(a1, a2);

    let mut triggered = Vec::new();
    if clock_tripped {
        triggered.push(DetectorKind::MissingOscillation);
    }
    if low {
        triggered.push(DetectorKind::LowAmplitude);
    }
    if asym {
        triggered.push(DetectorKind::Asymmetry);
    }

    // Detector trips, stamped in the regulation loop's discrete time: the
    // scenario evaluates detectors once after the post-fault window, so
    // the latency is the injection-to-evaluation distance in ticks.
    let tick = sim.ticks();
    let latency_ticks = tick - tick_fault;
    for &kind in &triggered {
        tracer.emit(|| TraceEvent::DetectorTrip {
            tick,
            detector: detector_id(kind),
            latency_ticks,
        });
    }

    Ok(ScenarioResult {
        fault,
        detected: !triggered.is_empty(),
        triggered,
        code_saturated,
        final_vpp: vpp,
        vpp_before,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> OscillatorConfig {
        OscillatorConfig::fast_test()
    }

    #[test]
    fn open_coil_detected_as_missing_oscillation() {
        let r = run_scenario(Fault::OpenCoil, &base()).unwrap();
        assert!(
            r.triggered.contains(&DetectorKind::MissingOscillation),
            "{r:?}"
        );
        assert!(r.detected);
        assert!(r.final_vpp < 0.05);
    }

    #[test]
    fn driver_failure_detected() {
        let r = run_scenario(Fault::DriverDead, &base()).unwrap();
        assert!(r.detected);
        assert!(r.code_saturated, "loop should hit the top code");
    }

    #[test]
    fn pin_short_kills_oscillation_and_is_detected() {
        for pin in 0..2 {
            let r = run_scenario(Fault::PinShortToGround { pin }, &base()).unwrap();
            assert!(r.detected, "pin {pin}: {r:?}");
            assert!(
                r.triggered.contains(&DetectorKind::MissingOscillation)
                    || r.triggered.contains(&DetectorKind::LowAmplitude),
                "pin {pin}: {:?}",
                r.triggered
            );
        }
    }

    #[test]
    fn missing_cap_detected_as_asymmetry() {
        let r = run_scenario(Fault::MissingCapacitor { pin: 1 }, &base()).unwrap();
        assert!(r.triggered.contains(&DetectorKind::Asymmetry), "{r:?}");
    }

    #[test]
    fn rs_drift_is_compensated_or_detected() {
        // A 4x loss drift on the fast-test tank can still be regulated
        // (code rises); that is a safe outcome. A detection is also
        // acceptable if the code saturates.
        let r = run_scenario(Fault::RsDrift { factor: 4.0 }, &base()).unwrap();
        assert!(r.is_safe(), "{r:?}");
    }

    #[test]
    fn coil_short_compensated_or_detected() {
        // Collapsed inductance multiplies the critical gm ~12x. Under the
        // envelope (describing-function) approximation the loop saturates
        // and amplitude collapses; full cycle fidelity shows the
        // current-limited driver instead sustains a relaxation-style
        // oscillation on the overdamped tank that the loop regulates back
        // into the amplitude window. Both outcomes are safe: a detection,
        // or regulation within authority. The multi-rate runner is required
        // to reproduce whichever the cycle-accurate model produces (see
        // tests/multirate_differential.rs), so this test accepts either.
        let r = run_scenario(Fault::CoilShort, &base()).unwrap();
        assert!(r.is_safe(), "{r:?}");
    }

    #[test]
    fn scenario_precheck_is_clean_for_presets() {
        for cfg in [
            OscillatorConfig::fast_test(),
            OscillatorConfig::datasheet_3mhz(),
            OscillatorConfig::low_q(),
        ] {
            let r = check_scenario(&cfg);
            assert!(!r.has_errors(), "{}", r.render_human());
        }
    }

    #[test]
    fn slow_tank_fails_the_safety_precheck() {
        use lcosc_core::tank::LcTank;
        use lcosc_num::units::{Farads, Henries};
        // A ~1 kHz tank: the 100 µs missing-clock time-out spans a fraction
        // of one LC period, so the detector would trip on a healthy clock.
        let tank = LcTank::with_q(
            Henries::from_micro(25_000.0),
            Farads::from_nano(2_000.0),
            10.0,
        )
        .expect("constants are valid");
        let cfg = OscillatorConfig::for_tank(tank);
        let report = check_scenario(&cfg);
        assert!(report.contains("S003"), "{}", report.render_human());
        match run_scenario(Fault::OpenCoil, &cfg) {
            Err(lcosc_core::CoreError::CheckFailed(r)) => assert!(r.contains("S003")),
            other => panic!("expected CheckFailed, got {other:?}"),
        }
    }

    #[test]
    fn traced_scenario_emits_fault_and_detector_events() {
        use lcosc_trace::MemorySink;
        use std::sync::Arc;
        let sink = Arc::new(MemorySink::new());
        let r =
            run_scenario_with_trace(Fault::DriverDead, &base(), &Trace::new(sink.clone())).unwrap();
        assert!(r.detected);
        let evs = sink.snapshot();
        let fault_tick = evs
            .iter()
            .find_map(|e| match e {
                TraceEvent::FaultInjected { tick } => Some(*tick),
                _ => None,
            })
            .expect("fault injection is traced");
        let trips: Vec<(u64, u64)> = evs
            .iter()
            .filter_map(|e| match e {
                TraceEvent::DetectorTrip {
                    tick,
                    latency_ticks,
                    ..
                } => Some((*tick, *latency_ticks)),
                _ => None,
            })
            .collect();
        assert!(!trips.is_empty(), "detected scenario must record trips");
        for (tick, latency) in trips {
            assert_eq!(tick - latency, fault_tick, "latency anchored at the fault");
        }
        // The regulation loop's per-tick stream rides along, and nothing
        // in a scenario trace is machine-dependent.
        assert!(evs.iter().any(|e| matches!(e, TraceEvent::CodeStep { .. })));
        assert!(evs.iter().all(TraceEvent::is_golden));
    }

    #[test]
    fn traced_scenario_matches_untraced_result() {
        use lcosc_trace::MemorySink;
        use std::sync::Arc;
        // Observability must not perturb the physics: the traced run's
        // outcome is identical to the plain one.
        let plain = run_scenario_with_trace(Fault::CoilShort, &base(), &Trace::off()).unwrap();
        let sink = Arc::new(MemorySink::new());
        let traced = run_scenario_with_trace(Fault::CoilShort, &base(), &Trace::new(sink)).unwrap();
        assert_eq!(plain, traced);
    }

    #[test]
    fn healthy_system_triggers_nothing() {
        // Sanity: run the scenario machinery with a null fault (Rs x1).
        let r = run_scenario(Fault::RsDrift { factor: 1.0 }, &base()).unwrap();
        assert!(!r.detected, "{r:?}");
        assert!(r.is_safe());
        assert!((r.final_vpp / r.vpp_before - 1.0).abs() < 0.1);
    }
}
