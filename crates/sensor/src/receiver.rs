//! The receive chain: amplifier + synchronous (coherent) demodulator.
//!
//! The received coil voltage is the excitation carrier scaled by the signed
//! coupling factor, plus interference. Multiplying by the excitation
//! reference and low-pass filtering recovers the signed coupling — coherent
//! detection attenuates anything uncorrelated with the carrier, which is
//! why the sensor survives the harsh automotive EMC environment.

use lcosc_num::filter::OnePoleLowPass;

/// Synchronous demodulator for one receiving coil.
///
/// Feed the raw received sample and the excitation-reference sample every
/// step; the output settles to `gain · k · A²/2` where `A` is the carrier
/// amplitude and `k` the signed coupling (the `A²/2` comes from
/// `sin² = (1 − cos 2ωt)/2`), so `k = 2·out/(gain·A²)` for a known
/// carrier amplitude.
#[derive(Debug, Clone, PartialEq)]
pub struct SynchronousDemodulator {
    gain: f64,
    offset: f64,
    lpf: OnePoleLowPass,
}

impl SynchronousDemodulator {
    /// Creates a demodulator with amplifier `gain`, input-referred
    /// `offset` (volts) and a low-pass time constant `tau` sampled at `dt`.
    ///
    /// # Panics
    ///
    /// Panics unless `gain > 0`, `tau > 0` and `dt > 0`.
    pub fn new(gain: f64, offset: f64, tau: f64, dt: f64) -> Self {
        assert!(gain > 0.0, "gain must be positive");
        SynchronousDemodulator {
            gain,
            offset,
            lpf: OnePoleLowPass::new(tau, dt),
        }
    }

    /// A typical chain: unity gain, no offset, 50 µs filter at 10 ns steps.
    pub fn typical(dt: f64) -> Self {
        SynchronousDemodulator::new(1.0, 0.0, 50e-6, dt)
    }

    /// Processes one sample pair; returns the filtered demodulator output.
    pub fn update(&mut self, received: f64, reference: f64) -> f64 {
        let amplified = self.gain * (received + self.offset);
        self.lpf.update(amplified * reference)
    }

    /// Current filtered output.
    pub fn output(&self) -> f64 {
        self.lpf.output()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: f64 = 1e6;
    const DT: f64 = 1e-8;

    fn run(demod: &mut SynchronousDemodulator, k: f64, a: f64, cycles: usize) -> f64 {
        let steps = (cycles as f64 / F / DT) as usize;
        let mut out = 0.0;
        for i in 0..steps {
            let carrier = a * (2.0 * std::f64::consts::PI * F * i as f64 * DT).sin();
            out = demod.update(k * carrier, carrier / a.max(1e-12));
        }
        out
    }

    #[test]
    fn recovers_signed_coupling() {
        for k in [-0.25, -0.1, 0.0, 0.1, 0.25] {
            let mut d = SynchronousDemodulator::typical(DT);
            run(&mut d, k, 1.35, 400);
            // reference normalized to unit amplitude: out = k·A/2·... with
            // ref = carrier/A: out -> k·A/2.
            let expect = k * 1.35 / 2.0;
            assert!(
                (d.output() - expect).abs() < 0.01,
                "k {k}: {} vs {expect}",
                d.output()
            );
        }
    }

    #[test]
    fn normalized_recovers_k_with_raw_reference() {
        // Using the raw carrier as reference: out = k·A²/2.
        let mut d = SynchronousDemodulator::typical(DT);
        let (k, a) = (0.2, 1.35);
        let steps = (400.0 / F / DT) as usize;
        for i in 0..steps {
            let carrier = a * (2.0 * std::f64::consts::PI * F * i as f64 * DT).sin();
            d.update(k * carrier, carrier);
        }
        let k_out = 2.0 * d.output() / (d.gain * a * a);
        assert!((k_out - k).abs() < 0.01, "{k_out}");
    }

    #[test]
    fn rejects_uncorrelated_interference() {
        // A strong interferer at an incommensurate frequency averages out.
        let mut d = SynchronousDemodulator::typical(DT);
        let steps = (400.0 / F / DT) as usize;
        for i in 0..steps {
            let t = i as f64 * DT;
            let carrier = (2.0 * std::f64::consts::PI * F * t).sin();
            let interference = 5.0 * (2.0 * std::f64::consts::PI * 1.37e6 * t).sin();
            d.update(0.1 * carrier + interference, carrier);
        }
        assert!((d.output() - 0.05).abs() < 0.01, "{}", d.output());
    }

    #[test]
    fn gain_scales_output() {
        let mut unity = SynchronousDemodulator::new(1.0, 0.0, 50e-6, DT);
        let mut x10 = SynchronousDemodulator::new(10.0, 0.0, 50e-6, DT);
        run(&mut unity, 0.2, 1.0, 300);
        run(&mut x10, 0.2, 1.0, 300);
        assert!((x10.output() / unity.output() - 10.0).abs() < 0.01);
    }

    #[test]
    fn dc_offset_is_rejected_by_coherent_detection() {
        // A constant input offset multiplies a zero-mean reference: no DC
        // at the output.
        let mut d = SynchronousDemodulator::new(1.0, 0.5, 50e-6, DT);
        run(&mut d, 0.0, 1.0, 400);
        assert!(d.output().abs() < 5e-3, "{}", d.output());
    }

    #[test]
    #[should_panic(expected = "gain")]
    fn rejects_zero_gain() {
        let _ = SynchronousDemodulator::new(0.0, 0.0, 1e-6, 1e-8);
    }
}
