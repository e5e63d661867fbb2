//! The complete position sensor: regulated excitation + coupling +
//! receivers + decoder + diagnostics.

use crate::coupling::RotorCoupling;
use crate::decoder::{DecodedPosition, PositionDecoder};
use crate::diagnostics::{ReceiverDiagnostics, ReceiverFault};
use crate::receiver::SynchronousDemodulator;
use crate::SensorError;
use lcosc_core::config::OscillatorConfig;
use lcosc_core::sim::ClosedLoopSim;

/// One complete position measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct PositionMeasurement {
    /// Decoded electrical angle and magnitude.
    pub position: DecodedPosition,
    /// Whether the magnitude passed the validity window.
    pub valid: bool,
    /// Receiving-side faults (empty when healthy).
    pub faults: Vec<ReceiverFault>,
    /// Excitation amplitude used, volts differential peak.
    pub excitation_peak: f64,
}

/// The sensor system.
#[derive(Debug, Clone)]
pub struct PositionSensor {
    excitation: ClosedLoopSim,
    coupling: RotorCoupling,
    decoder: PositionDecoder,
    diagnostics: ReceiverDiagnostics,
    /// Demodulation carrier frequency and step used for waveform-level
    /// measurements.
    carrier_hz: f64,
    /// Fault-injection hooks: per-channel scaling (1.0 healthy, 0.0 open).
    channel_gain: [f64; 2],
    /// Resistance to the excitation coil (∞ healthy).
    r_short: f64,
}

impl PositionSensor {
    /// Builds the sensor and settles the excitation loop.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError`] when the oscillator configuration is invalid
    /// or the excitation loop fails to settle.
    pub fn new(config: OscillatorConfig, coupling: RotorCoupling) -> Result<Self, SensorError> {
        let carrier_hz = config.tank.f0().value();
        let mut excitation = ClosedLoopSim::new(config)?;
        let report = excitation.run_until_settled()?;
        if !report.settled {
            return Err(SensorError::InvalidConfig(
                "excitation loop did not settle on this tank",
            ));
        }
        // Expected demod magnitude: coupling × differential peak / 2
        // (normalized demodulation; see SynchronousDemodulator docs).
        let excitation_peak = report.final_vpp / 2.0;
        let magnitude_nominal = coupling.k_peak() * excitation_peak / 2.0;
        Ok(PositionSensor {
            excitation,
            coupling,
            decoder: PositionDecoder::new(magnitude_nominal, 0.3),
            diagnostics: ReceiverDiagnostics::chip_default(magnitude_nominal),
            carrier_hz,
            channel_gain: [1.0, 1.0],
            r_short: f64::INFINITY,
        })
    }

    /// The regulated excitation simulation.
    pub fn excitation(&self) -> &ClosedLoopSim {
        &self.excitation
    }

    /// Injects an open receiving coil (channel 0 = sin, 1 = cos).
    ///
    /// # Panics
    ///
    /// Panics if `channel > 1`.
    pub fn inject_open_coil(&mut self, channel: usize) {
        assert!(channel < 2, "channel must be 0 or 1");
        self.channel_gain[channel] = 0.0;
    }

    /// Injects a short between a receiving coil and the excitation coil
    /// with the given fault resistance.
    ///
    /// # Panics
    ///
    /// Panics if `r_short` is not positive.
    pub fn inject_short_to_excitation(&mut self, r_short: f64) {
        assert!(r_short > 0.0, "fault resistance must be positive");
        self.r_short = r_short;
        // The low-impedance excitation winding dumps the full carrier into
        // the receiving channel.
        self.channel_gain[0] = 1.0 / self.coupling.k_peak();
    }

    /// Measures the position at mechanical angle `theta` by running the
    /// waveform-level demodulation for `cycles` carrier cycles.
    pub fn measure(&mut self, theta: f64, cycles: usize) -> PositionMeasurement {
        let a = self.excitation.amplitude_vpp() / 2.0; // differential peak
        let (k_sin, k_cos) = self.coupling.at(theta);
        let dt = 1.0 / (self.carrier_hz * 40.0);
        let mut demod_sin = SynchronousDemodulator::typical(dt);
        let mut demod_cos = SynchronousDemodulator::typical(dt);
        let steps = (cycles as f64 / self.carrier_hz / dt) as usize;
        for i in 0..steps {
            let ph = 2.0 * std::f64::consts::PI * self.carrier_hz * i as f64 * dt;
            let carrier = a * ph.sin();
            let reference = ph.sin(); // unit reference from the fast comparator
            demod_sin.update(self.channel_gain[0] * k_sin * carrier, reference);
            demod_cos.update(self.channel_gain[1] * k_cos * carrier, reference);
        }
        let position = self.decoder.decode(demod_sin.output(), demod_cos.output());
        let valid = self.decoder.is_valid(&position);
        let faults = self.diagnostics.evaluate(position.magnitude, self.r_short);
        PositionMeasurement {
            position,
            valid: valid && faults.is_empty(),
            faults,
            excitation_peak: a,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::angle_difference;

    fn sensor() -> PositionSensor {
        PositionSensor::new(OscillatorConfig::fast_test(), RotorCoupling::typical())
            .expect("fast-test sensor builds")
    }

    #[test]
    fn measures_angles_accurately() {
        let mut s = sensor();
        for i in 0..8 {
            let theta = -3.0 + i as f64 * 0.75;
            let m = s.measure(theta, 150);
            let expect = s.coupling.electrical_angle(theta);
            assert!(
                angle_difference(m.position.angle, expect).abs() < 0.01,
                "theta {theta}: decoded {} vs {expect}",
                m.position.angle
            );
            assert!(m.valid, "theta {theta}: {m:?}");
        }
    }

    #[test]
    fn open_coil_invalidates_measurement() {
        let mut s = sensor();
        s.inject_open_coil(0);
        let m = s.measure(0.8, 150);
        assert!(!m.valid);
        // With the sine channel dead the magnitude drops below nominal at
        // angles where sine should dominate.
        assert!(m.position.magnitude < s.diagnostics.magnitude_nominal);
    }

    #[test]
    fn short_to_excitation_detected() {
        let mut s = sensor();
        s.inject_short_to_excitation(100.0);
        let m = s.measure(0.3, 150);
        assert!(!m.valid);
        assert!(
            m.faults.contains(&ReceiverFault::ShortToExcitation),
            "{:?}",
            m.faults
        );
    }

    #[test]
    fn magnitude_tracks_regulated_excitation() {
        // 400 carrier cycles = 8 demodulator time constants: the filter is
        // fully settled and the magnitude matches the analytic value.
        let mut s = sensor();
        let m = s.measure(0.5, 400);
        let expect = s.coupling.k_peak() * m.excitation_peak / 2.0;
        assert!(
            (m.position.magnitude / expect - 1.0).abs() < 0.02,
            "{} vs {expect}",
            m.position.magnitude
        );
    }
}
