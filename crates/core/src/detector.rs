//! Amplitude detection chain (paper §6, Fig 8): full-wave rectification of
//! the LC1/LC2 pin voltages around the filtered mid-point, low-pass
//! filtering, and a window comparator against bandgap-derived thresholds.

use lcosc_device::comparator::{WindowComparator, WindowState};
use lcosc_num::filter::OnePoleLowPass;

/// Ratio between the filtered full-wave-rectified value and the peak
/// amplitude of a sine: `mean(|sin|) = 2/π`.
pub const RECTIFIER_GAIN: f64 = 2.0 / std::f64::consts::PI;

/// Full-wave rectifier + low-pass + window comparator.
///
/// `update` is fed the raw pin voltages every simulation step; the detector
/// tracks `VR1` (the filtered mid-point), rectifies each pin against it,
/// filters the result into `VDC1` and classifies it against the window.
#[derive(Debug, Clone, PartialEq)]
pub struct AmplitudeDetector {
    midpoint_lpf: OnePoleLowPass,
    amplitude_lpf: OnePoleLowPass,
    window: WindowComparator,
    tau: f64,
}

impl AmplitudeDetector {
    /// Creates a detector.
    ///
    /// - `target_peak` — per-pin oscillation amplitude to regulate to
    ///   (volts); the window is centered on the corresponding `VDC1`.
    /// - `window_rel_width` — total window width relative to its center;
    ///   the paper requires this to exceed the DAC's maximum step (6.25 %).
    /// - `tau` — low-pass time constant (seconds).
    /// - `dt` — simulation step (seconds).
    /// - `vref0` — initial mid-point estimate (the DC operating point).
    ///
    /// # Panics
    ///
    /// Panics unless `target_peak`, `window_rel_width`, `tau` and `dt` are
    /// positive.
    pub fn new(target_peak: f64, window_rel_width: f64, tau: f64, dt: f64, vref0: f64) -> Self {
        assert!(target_peak > 0.0, "target amplitude must be positive");
        let target_vdc = RECTIFIER_GAIN * target_peak;
        let mut midpoint_lpf = OnePoleLowPass::new(tau, dt);
        midpoint_lpf.reset_to(vref0);
        AmplitudeDetector {
            midpoint_lpf,
            amplitude_lpf: OnePoleLowPass::new(tau, dt),
            window: WindowComparator::centered(target_vdc, window_rel_width),
            tau,
        }
    }

    /// Re-discretizes both low-pass filters for a new sample interval,
    /// preserving their current outputs. The analog filter state (`VR1`,
    /// `VDC1`) is continuous across the change — this is what lets the
    /// multi-rate engine hand the *same* detector back and forth between
    /// the envelope substep grid and the cycle ODE grid.
    ///
    /// # Panics
    ///
    /// Panics unless `dt` is positive (the filter constructor's contract).
    pub fn retime(&mut self, dt: f64) {
        let vr1 = self.midpoint_lpf.output();
        let vdc1 = self.amplitude_lpf.output();
        self.midpoint_lpf = OnePoleLowPass::new(self.tau, dt);
        self.midpoint_lpf.reset_to(vr1);
        self.amplitude_lpf = OnePoleLowPass::new(self.tau, dt);
        self.amplitude_lpf.reset_to(vdc1);
    }

    /// Processes one sample of the pin voltages; returns the current window
    /// classification.
    pub fn update(&mut self, v1: f64, v2: f64) -> WindowState {
        let vr1 = self.midpoint_lpf.update(0.5 * (v1 + v2));
        // Full-wave rectification of both pins against VR1: the rectifier
        // output follows whichever pin is further from the mid-point.
        let rectified = (v1 - vr1).abs().max((v2 - vr1).abs());
        let vdc1 = self.amplitude_lpf.update(rectified);
        self.window.classify(vdc1)
    }

    /// Feeds a known amplitude directly (envelope-mode simulation):
    /// `peak` is the current per-pin amplitude.
    pub fn update_from_amplitude(&mut self, peak: f64) -> WindowState {
        let vdc1 = self
            .amplitude_lpf
            .update(RECTIFIER_GAIN * peak * RECT_TO_PEAK);
        self.window.classify(vdc1)
    }

    /// Filtered detector output `VDC1`.
    pub fn vdc1(&self) -> f64 {
        self.amplitude_lpf.output()
    }

    /// The comparison window (thresholds `VR3`, `VR4` relative to `VR1`).
    pub fn window(&self) -> &WindowComparator {
        &self.window
    }

    /// Classification of the current filter state without new input.
    pub fn state(&self) -> WindowState {
        self.window.classify(self.vdc1())
    }
}

/// The max-of-two-pins rectifier sees `max(|sin|, |−sin|) = |sin|`, so its
/// average equals the classic full-wave value; kept as an explicit constant
/// so envelope mode and cycle mode share the same calibration.
const RECT_TO_PEAK: f64 = 1.0;

#[cfg(test)]
mod tests {
    use super::*;

    const F0: f64 = 1e6;
    const DT: f64 = 1e-8;

    fn feed_sine(det: &mut AmplitudeDetector, amp: f64, vref: f64, cycles: usize) -> WindowState {
        let mut s = WindowState::Inside;
        let steps = (cycles as f64 / F0 / DT) as usize;
        for k in 0..steps {
            let ph = 2.0 * std::f64::consts::PI * F0 * k as f64 * DT;
            s = det.update(vref + amp * ph.sin(), vref - amp * ph.sin());
        }
        s
    }

    #[test]
    fn detects_amplitude_inside_window() {
        let mut det = AmplitudeDetector::new(0.5, 0.15, 20e-6, DT, 1.65);
        let s = feed_sine(&mut det, 0.5, 1.65, 200);
        assert_eq!(s, WindowState::Inside);
        // VDC1 should be (2/π)·0.5 ≈ 0.318.
        assert!(
            (det.vdc1() - RECTIFIER_GAIN * 0.5).abs() < 0.02,
            "vdc1 {}",
            det.vdc1()
        );
    }

    #[test]
    fn low_amplitude_reports_below() {
        let mut det = AmplitudeDetector::new(0.5, 0.15, 20e-6, DT, 1.65);
        let s = feed_sine(&mut det, 0.3, 1.65, 200);
        assert_eq!(s, WindowState::Below);
    }

    #[test]
    fn high_amplitude_reports_above() {
        let mut det = AmplitudeDetector::new(0.5, 0.15, 20e-6, DT, 1.65);
        let s = feed_sine(&mut det, 0.7, 1.65, 200);
        assert_eq!(s, WindowState::Above);
    }

    #[test]
    fn silence_reports_below() {
        let mut det = AmplitudeDetector::new(0.5, 0.15, 20e-6, DT, 1.65);
        let s = feed_sine(&mut det, 0.0, 1.65, 100);
        assert_eq!(s, WindowState::Below);
        assert!(det.vdc1() < 1e-3);
    }

    #[test]
    fn midpoint_tracks_dc_shift() {
        let mut det = AmplitudeDetector::new(0.5, 0.15, 20e-6, DT, 1.65);
        feed_sine(&mut det, 0.5, 2.0, 300);
        let vr1 = det.midpoint_lpf.output();
        assert!((vr1 - 2.0).abs() < 0.02, "vr1 {vr1}");
        // Amplitude classification is unaffected by the common-mode shift.
        assert_eq!(det.state(), WindowState::Inside);
    }

    #[test]
    fn envelope_mode_matches_cycle_mode_calibration() {
        let mut cyc = AmplitudeDetector::new(0.5, 0.15, 20e-6, DT, 1.65);
        feed_sine(&mut cyc, 0.5, 1.65, 300);
        let mut env = AmplitudeDetector::new(0.5, 0.15, 20e-6, DT, 1.65);
        for _ in 0..30_000 {
            env.update_from_amplitude(0.5);
        }
        assert!(
            (cyc.vdc1() - env.vdc1()).abs() < 0.02,
            "cycle {} vs envelope {}",
            cyc.vdc1(),
            env.vdc1()
        );
        assert_eq!(env.state(), WindowState::Inside);
    }

    #[test]
    fn window_is_wider_than_max_dac_step() {
        // Construction used by the closed-loop sim: 15 % window vs the
        // 6.25 % maximum step — the paper's anti-hunting requirement.
        let det = AmplitudeDetector::new(0.675, 0.15, 20e-6, DT, 1.65);
        assert!(det.window().relative_width() > 0.0625);
    }

    #[test]
    fn retime_preserves_filter_state_and_time_constant() {
        let mut det = AmplitudeDetector::new(0.5, 0.15, 20e-6, DT, 1.65);
        feed_sine(&mut det, 0.5, 1.65, 200);
        let (vr1, vdc1, state) = (det.midpoint_lpf.output(), det.vdc1(), det.state());
        // Hand-off to a 100× coarser grid: outputs carry over bit-exactly.
        det.retime(DT * 100.0);
        assert_eq!(det.midpoint_lpf.output(), vr1);
        assert_eq!(det.vdc1(), vdc1);
        assert_eq!(det.state(), state);
        // The retimed filter still settles to the same steady state with
        // the same time constant: feeding the steady amplitude holds it.
        for _ in 0..1000 {
            det.update_from_amplitude(0.5);
        }
        assert!(
            (det.vdc1() - RECTIFIER_GAIN * 0.5).abs() < 0.02,
            "vdc1 {}",
            det.vdc1()
        );
    }

    #[test]
    #[should_panic(expected = "target amplitude")]
    fn rejects_zero_target() {
        let _ = AmplitudeDetector::new(0.0, 0.15, 20e-6, DT, 1.65);
    }
}
