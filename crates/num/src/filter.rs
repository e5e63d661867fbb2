//! Discrete-time filters used by the amplitude-detection chain: one-pole
//! low-pass, moving RMS and a diode-style envelope follower.

/// First-order (one-pole) discrete low-pass filter.
///
/// Discretized with the exact zero-order-hold mapping
/// `alpha = 1 - exp(-dt / tau)`, so the step response matches the continuous
/// RC filter at the sample instants.
///
/// # Example
///
/// ```
/// use lcosc_num::filter::OnePoleLowPass;
///
/// let mut lpf = OnePoleLowPass::new(1e-3, 1e-5);
/// for _ in 0..1000 { lpf.update(1.0); }
/// assert!((lpf.output() - 1.0).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OnePoleLowPass {
    alpha: f64,
    y: f64,
}

impl OnePoleLowPass {
    /// Creates a low-pass with time constant `tau` seconds sampled every
    /// `dt` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `tau` or `dt` is not positive.
    pub fn new(tau: f64, dt: f64) -> Self {
        assert!(tau > 0.0 && dt > 0.0, "tau and dt must be positive");
        OnePoleLowPass {
            alpha: 1.0 - (-dt / tau).exp(),
            y: 0.0,
        }
    }

    /// Pre-loads the internal state (e.g. to start at a DC operating point).
    pub fn reset_to(&mut self, y0: f64) {
        self.y = y0;
    }

    /// Processes one sample and returns the new output.
    pub fn update(&mut self, x: f64) -> f64 {
        self.y += self.alpha * (x - self.y);
        self.y
    }

    /// Current output without advancing the filter.
    pub fn output(&self) -> f64 {
        self.y
    }
}

/// Sliding-window RMS detector.
#[derive(Debug, Clone)]
pub struct MovingRms {
    window: Vec<f64>,
    head: usize,
    filled: usize,
    sum_sq: f64,
}

impl MovingRms {
    /// Creates a detector over the last `len` samples.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "window length must be non-zero");
        MovingRms {
            window: vec![0.0; len],
            head: 0,
            filled: 0,
            sum_sq: 0.0,
        }
    }

    /// Pushes a sample and returns the RMS over the (possibly partial)
    /// window.
    pub fn update(&mut self, x: f64) -> f64 {
        let old = self.window[self.head];
        self.sum_sq += x * x - old * old;
        self.window[self.head] = x;
        self.head = (self.head + 1) % self.window.len();
        if self.filled < self.window.len() {
            self.filled += 1;
        }
        self.output()
    }

    /// Current RMS value.
    pub fn output(&self) -> f64 {
        if self.filled == 0 {
            return 0.0;
        }
        // Guard against tiny negative drift from cancellation.
        (self.sum_sq.max(0.0) / self.filled as f64).sqrt()
    }
}

/// Peak/envelope follower modeling a rectifier with a hold capacitor:
/// instant attack, exponential release.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvelopeFollower {
    release: f64,
    y: f64,
}

impl EnvelopeFollower {
    /// Creates a follower whose held peak decays with time constant
    /// `tau_release` seconds, sampled every `dt` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `tau_release` or `dt` is not positive.
    pub fn new(tau_release: f64, dt: f64) -> Self {
        assert!(tau_release > 0.0 && dt > 0.0, "tau and dt must be positive");
        EnvelopeFollower {
            release: (-dt / tau_release).exp(),
            y: 0.0,
        }
    }

    /// Processes the absolute value of one sample.
    pub fn update(&mut self, x: f64) -> f64 {
        let a = x.abs();
        self.y = if a > self.y { a } else { self.y * self.release };
        self.y
    }

    /// Current envelope estimate.
    pub fn output(&self) -> f64 {
        self.y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_pole_step_response_matches_rc() {
        let tau = 1e-3;
        let dt = 1e-6;
        let mut f = OnePoleLowPass::new(tau, dt);
        let steps = (tau / dt) as usize; // one time constant
        let mut y = 0.0;
        for _ in 0..steps {
            y = f.update(1.0);
        }
        let expect = 1.0 - (-1.0f64).exp();
        assert!((y - expect).abs() < 1e-3, "{y} vs {expect}");
    }

    #[test]
    fn one_pole_attenuates_fast_sine() {
        let dt = 1e-6;
        // A 1 kHz cutoff: tau = 1 / (2π · 1 kHz).
        let mut f = OnePoleLowPass::new(1.0 / (2.0 * std::f64::consts::PI * 1e3), dt);
        // 100 kHz sine, two decades above cutoff -> ~40 dB attenuation.
        let mut peak = 0.0f64;
        for i in 0..100_000 {
            let x = (2.0 * std::f64::consts::PI * 1e5 * i as f64 * dt).sin();
            let y = f.update(x);
            if i > 50_000 {
                peak = peak.max(y.abs());
            }
        }
        assert!(peak < 0.02, "peak {peak}");
    }

    #[test]
    fn one_pole_reset_to_sets_state() {
        let mut f = OnePoleLowPass::new(1.0, 0.1);
        f.reset_to(5.0);
        assert_eq!(f.output(), 5.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn one_pole_rejects_zero_tau() {
        let _ = OnePoleLowPass::new(0.0, 1e-6);
    }

    #[test]
    fn moving_rms_of_constant_is_constant() {
        let mut r = MovingRms::new(16);
        let mut y = 0.0;
        for _ in 0..64 {
            y = r.update(2.0);
        }
        assert!((y - 2.0).abs() < 1e-12);
    }

    #[test]
    fn moving_rms_of_sine_approaches_invsqrt2() {
        let n = 1000; // window = exactly one period
        let mut r = MovingRms::new(n);
        let mut y = 0.0;
        for i in 0..(4 * n) {
            let x = (2.0 * std::f64::consts::PI * i as f64 / n as f64).sin();
            y = r.update(x);
        }
        assert!((y - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3, "{y}");
    }

    #[test]
    fn moving_rms_partial_window() {
        let mut r = MovingRms::new(100);
        let y = r.update(3.0);
        assert!((y - 3.0).abs() < 1e-12);
    }

    #[test]
    fn envelope_tracks_peak_and_decays() {
        let dt = 1e-6;
        let mut e = EnvelopeFollower::new(1e-3, dt);
        e.update(2.0);
        assert!((e.output() - 2.0).abs() < 1e-12);
        // decay for one time constant
        for _ in 0..1000 {
            e.update(0.0);
        }
        let expect = 2.0 * (-1.0f64).exp();
        assert!((e.output() - expect).abs() < 5e-3, "{}", e.output());
    }

    #[test]
    fn envelope_rectifies_negative_input() {
        let mut e = EnvelopeFollower::new(1e-3, 1e-6);
        e.update(-3.0);
        assert!((e.output() - 3.0).abs() < 1e-12);
    }
}
