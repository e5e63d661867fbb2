//! The three on-chip failure detectors (paper §6/§7, Fig 8).

use lcosc_num::filter::OnePoleLowPass;

/// Chip-default missing-clock comparator sensitivity, volts.
pub const CHIP_CLOCK_SENSITIVITY: f64 = 0.05;
/// Chip-default missing-clock time-out, seconds (hundreds of missing
/// cycles at 2–5 MHz).
pub const CHIP_MISSING_CLOCK_TIMEOUT: f64 = 100e-6;
/// Chip-default low-amplitude threshold as a fraction of the target.
pub const CHIP_LOW_AMPLITUDE_FRACTION: f64 = 0.6;
/// Chip-default asymmetry trip threshold, volts.
pub const CHIP_ASYMMETRY_THRESHOLD: f64 = 0.05;

/// Which detector fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectorKind {
    /// Fast comparator clock missing for longer than the time-out.
    MissingOscillation,
    /// Rectified amplitude below the safety threshold (or the regulation
    /// code pinned at maximum while still below the window).
    LowAmplitude,
    /// LC1/LC2 amplitude asymmetry via synchronous rectification of the
    /// mid-point VR0.
    Asymmetry,
}

impl std::fmt::Display for DetectorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DetectorKind::MissingOscillation => write!(f, "missing oscillations"),
            DetectorKind::LowAmplitude => write!(f, "low amplitude"),
            DetectorKind::Asymmetry => write!(f, "LC1/LC2 asymmetry"),
        }
    }
}

/// Missing-oscillation detector: a fast comparator between LC1 and LC2
/// recovers the clock; a time-out circuit flags when no edge arrives.
///
/// Behavioral contract: feed the current differential amplitude every
/// update — an amplitude below the comparator sensitivity produces no
/// edges, and the time-out accumulates.
#[derive(Debug, Clone, PartialEq)]
pub struct MissingClockDetector {
    sensitivity: f64,
    timeout: f64,
    quiet_time: f64,
    tripped: bool,
}

impl MissingClockDetector {
    /// Creates a detector: the comparator needs at least `sensitivity`
    /// volts of differential amplitude to slice a clock; `timeout` seconds
    /// without edges trips the flag.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are positive.
    pub fn new(sensitivity: f64, timeout: f64) -> Self {
        assert!(sensitivity > 0.0, "sensitivity must be positive");
        assert!(timeout > 0.0, "timeout must be positive");
        MissingClockDetector {
            sensitivity,
            timeout,
            quiet_time: 0.0,
            tripped: false,
        }
    }

    /// Chip-like defaults: 50 mV comparator sensitivity, 100 µs time-out
    /// (hundreds of missing cycles at 2–5 MHz).
    pub fn chip_default() -> Self {
        MissingClockDetector::new(CHIP_CLOCK_SENSITIVITY, CHIP_MISSING_CLOCK_TIMEOUT)
    }

    /// Relative tolerance for the time-out comparison. Repeated
    /// `quiet_time += dt` accumulates rounding error: e.g. eleven steps of
    /// `timeout / 11` sum to `9.999999999999998e-5 < 1e-4`, so an exact
    /// `>=` misses a trip that mathematically lands on the boundary. One
    /// part in 10⁹ is orders of magnitude above f64 accumulation error for
    /// any realistic step count and far below any physical margin.
    const TIMEOUT_REL_TOL: f64 = 1e-9;

    /// Advances by `dt` with the present differential amplitude.
    /// Returns `true` while the time-out is tripped.
    ///
    /// Boundary semantics (pinned by tests):
    ///
    /// - the detector trips on the update where the accumulated quiet time
    ///   **reaches** the time-out (within `Self::TIMEOUT_REL_TOL` relative
    ///   tolerance, absorbing float accumulation error) — not one step
    ///   later;
    /// - a single coarse step with `dt > timeout` (the envelope fidelity's
    ///   `det_dt = tick_period / envelope_substeps` can exceed a short
    ///   time-out) trips immediately;
    /// - an edge **clears before** the time-out check: an update carrying
    ///   amplitude above the sensitivity never trips, no matter how much
    ///   quiet time had accumulated.
    pub fn update(&mut self, v_diff_amplitude: f64, dt: f64) -> bool {
        if v_diff_amplitude.abs() >= self.sensitivity {
            self.quiet_time = 0.0;
            self.tripped = false;
        } else {
            self.quiet_time += dt;
            if self.quiet_time >= self.timeout * (1.0 - Self::TIMEOUT_REL_TOL) {
                self.tripped = true;
            }
        }
        self.tripped
    }
}

/// Low-amplitude detector: the same rectified/filtered `VDC1` as the
/// regulation loop, compared against a lower safety threshold, plus the
/// saturation condition (code at maximum while the comparator still asks
/// for more).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LowAmplitudeDetector {
    threshold_fraction: f64,
    target_vpp: f64,
}

impl LowAmplitudeDetector {
    /// Creates a detector flagging when the differential amplitude falls
    /// below `threshold_fraction` of the regulation target.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < threshold_fraction < 1` and `target_vpp > 0`.
    pub fn new(threshold_fraction: f64, target_vpp: f64) -> Self {
        assert!(
            threshold_fraction > 0.0 && threshold_fraction < 1.0,
            "threshold fraction must be in (0, 1)"
        );
        assert!(target_vpp > 0.0, "target must be positive");
        LowAmplitudeDetector {
            threshold_fraction,
            target_vpp,
        }
    }

    /// Chip-like default: flag below 60 % of the target amplitude.
    pub fn chip_default(target_vpp: f64) -> Self {
        LowAmplitudeDetector::new(CHIP_LOW_AMPLITUDE_FRACTION, target_vpp)
    }

    /// Evaluates the detector: `vpp` is the present amplitude and
    /// `saturated_high` the regulation-loop condition.
    pub fn evaluate(&self, vpp: f64, saturated_high: bool) -> bool {
        vpp < self.threshold_fraction * self.target_vpp || saturated_high
    }
}

/// Asymmetry detector: synchronous rectification of the LC mid-point VR0.
///
/// With matched capacitors the mid-point is DC; a missing/defective
/// `Cosc` makes the pin amplitudes unequal and VR0 carries a component at
/// the oscillation frequency, phase-locked to the differential signal.
/// Multiplying by the sign of `v_diff` (synchronous rectification) and
/// filtering yields a DC value proportional to the asymmetry.
#[derive(Debug, Clone, PartialEq)]
pub struct AsymmetryDetector {
    lpf: OnePoleLowPass,
    vref: f64,
    threshold: f64,
}

impl AsymmetryDetector {
    /// Creates the detector with the DC operating point `vref`, a filter
    /// time constant `tau`, sample interval `dt` and trip `threshold`
    /// (volts of rectified mid-point ripple).
    ///
    /// # Panics
    ///
    /// Panics unless `tau`, `dt` and `threshold` are positive.
    pub fn new(vref: f64, tau: f64, dt: f64, threshold: f64) -> Self {
        assert!(threshold > 0.0, "threshold must be positive");
        let mut lpf = OnePoleLowPass::new(tau, dt);
        lpf.reset_to(0.0);
        AsymmetryDetector {
            lpf,
            vref,
            threshold,
        }
    }

    /// Processes one sample of the pin voltages; returns `true` when the
    /// filtered synchronous-rectifier output exceeds the threshold.
    pub fn update(&mut self, v1: f64, v2: f64) -> bool {
        let v_diff = v1 - v2;
        let vr0 = 0.5 * (v1 + v2) - self.vref;
        let sync = if v_diff >= 0.0 { vr0 } else { -vr0 };
        self.lpf.update(sync).abs() > self.threshold
    }

    /// Filtered rectifier output.
    pub fn output(&self) -> f64 {
        self.lpf.output()
    }

    /// Analytic equivalent used by the envelope-fidelity FMEA: per-pin
    /// amplitudes `a1`, `a2` produce a mid-point ripple `(a1 − a2)/2`
    /// phase-locked to `v_diff`; the synchronous rectifier extracts
    /// `(2/π)·(a1 − a2)/2` of DC.
    pub fn evaluate_amplitudes(&self, a1: f64, a2: f64) -> bool {
        (std::f64::consts::FRAC_2_PI * 0.5 * (a1 - a2)).abs() > self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_clock_trips_after_timeout() {
        let mut d = MissingClockDetector::new(0.05, 100e-6);
        assert!(!d.update(1.0, 50e-6));
        assert!(!d.update(0.0, 50e-6));
        assert!(!d.tripped);
        assert!(d.update(0.0, 60e-6)); // 110 µs quiet
        assert!(d.tripped);
    }

    #[test]
    fn missing_clock_recovers_on_edges() {
        let mut d = MissingClockDetector::chip_default();
        d.update(0.0, 200e-6);
        assert!(d.tripped);
        assert!(!d.update(1.0, 1e-6), "edge clears the timeout");
    }

    #[test]
    fn missing_clock_trips_exactly_at_accumulated_timeout() {
        // Regression: N steps of `timeout / N` can sum *below* the
        // mathematical time-out in f64 (eleven steps of 1e-4/11 give
        // 9.999999999999998e-5), so the old exact `>=` comparison missed
        // a trip landing precisely on the boundary.
        for divisor in [7u32, 11, 13] {
            let timeout = CHIP_MISSING_CLOCK_TIMEOUT;
            let dt = timeout / f64::from(divisor);
            let mut d = MissingClockDetector::new(0.05, timeout);
            for step in 1..divisor {
                assert!(
                    !d.update(0.0, dt),
                    "divisor {divisor}: step {step} is before the time-out"
                );
            }
            assert!(
                d.update(0.0, dt),
                "divisor {divisor}: final step lands exactly on the time-out"
            );
        }
    }

    #[test]
    fn missing_clock_boundary_in_both_fidelity_step_sizes() {
        // The two simulation fidelities drive the detector with very
        // different step sizes: envelope mode uses the coarse
        // `det_dt = tick_period / envelope_substeps`, cycle mode the fine
        // ODE step `cfg.dt()`. In both, the trip must land on the first
        // update whose accumulated quiet time reaches the time-out.
        let cfg = lcosc_core::config::OscillatorConfig::fast_test();
        let timeout = CHIP_MISSING_CLOCK_TIMEOUT;
        let envelope_dt = cfg.tick_period / cfg.envelope_substeps as f64;
        let cycle_dt = cfg.dt();
        for (fidelity, dt) in [("envelope", envelope_dt), ("cycle", cycle_dt)] {
            assert!(dt < timeout, "{fidelity}: step must subdivide the time-out");
            let expected = (timeout / dt - 1e-6).ceil() as u32;
            let mut d = MissingClockDetector::new(0.05, timeout);
            let mut step = 0u32;
            loop {
                step += 1;
                if d.update(0.0, dt) {
                    break;
                }
                assert!(
                    step < expected,
                    "{fidelity}: no trip after {step} steps of {dt}"
                );
            }
            assert_eq!(
                step, expected,
                "{fidelity}: tripped at step {step}, expected {expected}"
            );
        }
    }

    #[test]
    fn missing_clock_coarse_step_exceeding_timeout_trips_immediately() {
        // Envelope fidelity with a short time-out can present a single
        // step larger than the whole time-out — that must trip at once,
        // not wait for a second quiet update.
        let mut d = MissingClockDetector::new(0.05, 50e-6);
        assert!(d.update(0.0, 200e-6), "single dt > timeout must trip");
    }

    #[test]
    fn missing_clock_edge_clears_before_timeout_check() {
        let mut d = MissingClockDetector::new(0.05, 100e-6);
        d.update(0.0, 99e-6);
        // The edge arrives together with a dt that would cross the
        // time-out: the clear happens before the comparison, so a live
        // clock can never be reported missing.
        assert!(!d.update(1.0, 500e-6));
        assert!(!d.tripped);
    }

    #[test]
    fn missing_clock_ignores_short_dropouts() {
        let mut d = MissingClockDetector::chip_default();
        for _ in 0..10 {
            assert!(!d.update(0.0, 9e-6)); // 9 µs quiet
            assert!(!d.update(0.5, 1e-6)); // edge resets
        }
    }

    #[test]
    fn low_amplitude_threshold() {
        let d = LowAmplitudeDetector::chip_default(2.7);
        assert!(d.evaluate(1.0, false));
        assert!(!d.evaluate(2.5, false));
        assert!(d.evaluate(2.5, true), "saturation flags regardless");
    }

    #[test]
    fn asymmetry_fires_on_unequal_amplitudes() {
        let mut d = AsymmetryDetector::new(1.65, 20e-6, 1e-8, 0.05);
        let f = 1e6;
        let mut fired = false;
        for k in 0..400_000 {
            let ph = 2.0 * std::f64::consts::PI * f * k as f64 * 1e-8;
            // a1 = 0.9, a2 = 0.5: strongly asymmetric.
            let v1 = 1.65 + 0.9 * ph.sin();
            let v2 = 1.65 - 0.5 * ph.sin();
            fired = d.update(v1, v2);
        }
        assert!(fired, "output {}", d.output());
    }

    #[test]
    fn asymmetry_quiet_on_symmetric_tank() {
        let mut d = AsymmetryDetector::new(1.65, 20e-6, 1e-8, 0.05);
        let f = 1e6;
        let mut fired = false;
        for k in 0..200_000 {
            let ph = 2.0 * std::f64::consts::PI * f * k as f64 * 1e-8;
            let v1 = 1.65 + 0.7 * ph.sin();
            let v2 = 1.65 - 0.7 * ph.sin();
            fired = d.update(v1, v2);
        }
        assert!(!fired, "output {}", d.output());
    }

    /// The analytic form every FMEA mission uses stands for the waveform
    /// detector: driven with the pin sines, the settled rectifier output
    /// must equal `(2/π)·(a1 − a2)/2`, and `evaluate_amplitudes` must trip
    /// exactly where the waveform output crosses a threshold set half that
    /// value below or above it.
    #[test]
    fn asymmetry_analytic_matches_waveform_version() {
        // Volts of settled rectifier output; the 2 MHz ripple left by the
        // 20 µs filter is about 0.3 mV at the largest asymmetry here.
        const TOL: f64 = 1e-3;
        let (f, dt) = (1e6, 1e-8);
        for (a1, a2) in [(0.9, 0.5), (0.7, 0.7), (0.7, 0.65)] {
            let mut d = AsymmetryDetector::new(1.65, 20e-6, dt, CHIP_ASYMMETRY_THRESHOLD);
            let mut fired = false;
            for k in 0..200_000 {
                let s = (2.0 * std::f64::consts::PI * f * k as f64 * dt).sin();
                fired = d.update(1.65 + a1 * s, 1.65 - a2 * s);
            }
            let analytic = std::f64::consts::FRAC_2_PI * 0.5 * (a1 - a2);
            let out = d.output();
            assert!(
                (out - analytic).abs() < TOL,
                "({a1}, {a2}): {out} vs {analytic}"
            );
            assert_eq!(d.evaluate_amplitudes(a1, a2), fired, "({a1}, {a2})");
            for threshold in [0.5 * analytic, 1.5 * analytic] {
                if threshold > 0.0 {
                    let t = AsymmetryDetector::new(1.65, 20e-6, dt, threshold);
                    assert_eq!(
                        t.evaluate_amplitudes(a1, a2),
                        out.abs() > threshold,
                        "({a1}, {a2}) at threshold {threshold}"
                    );
                }
            }
        }
    }

    #[test]
    fn detector_kind_display() {
        assert_eq!(
            DetectorKind::MissingOscillation.to_string(),
            "missing oscillations"
        );
        assert_eq!(DetectorKind::LowAmplitude.to_string(), "low amplitude");
        assert_eq!(DetectorKind::Asymmetry.to_string(), "LC1/LC2 asymmetry");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn missing_clock_rejects_zero_timeout() {
        let _ = MissingClockDetector::new(0.05, 0.0);
    }
}
