//! Closed-loop simulation configuration.

use crate::condition::OscillationCondition;
use crate::gm_driver::DriverShape;
use crate::tank::LcTank;
use crate::{CoreError, Result};
use lcosc_dac::{Code, MismatchedDac};
use lcosc_num::units::{Farads, Henries, Volts};

/// Simulation fidelity of the closed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Fidelity {
    /// Cycle-accurate 3-state ODE: the reference the other two are
    /// checked against.
    Cycle,
    /// Averaged envelope dynamics; ~1000× faster, used for sweeps and FMEA
    /// matrices.
    #[default]
    Envelope,
    /// Envelope by default, cycle fidelity in guard windows around events
    /// (fault injections, segment-boundary code steps, window-state
    /// changes); see [`crate::multirate`]. Long-horizon speed with
    /// cycle-accurate discrete outcomes.
    MultiRate,
}

/// Full configuration of the regulated oscillator.
#[derive(Debug, Clone, PartialEq)]
pub struct OscillatorConfig {
    /// External resonance network.
    pub tank: LcTank,
    /// Driver static I–V shape.
    pub driver_shape: DriverShape,
    /// Current-limitation DAC die.
    pub dac: MismatchedDac,
    /// Supply voltage (the pins cannot swing outside 0..vdd), volts.
    pub vdd: f64,
    /// DC operating point of the pins (mid-supply), volts.
    pub vref: f64,
    /// Regulation target: differential peak-to-peak amplitude, volts
    /// (the chip's maximum operating amplitude is 2.7 Vpp).
    pub target_vpp: f64,
    /// Window width relative to the target (total), > the max DAC step.
    pub window_rel_width: f64,
    /// Detector low-pass time constant, seconds.
    pub detector_tau: f64,
    /// Regulation tick period (1 ms on the chip), seconds.
    pub tick_period: f64,
    /// NVM-stored startup code.
    pub nvm_code: Code,
    /// Delay from POR release to the NVM load, seconds.
    pub nvm_delay: f64,
    /// Simulation fidelity.
    pub fidelity: Fidelity,
    /// Cycle mode: ODE steps per oscillation period.
    pub steps_per_period: usize,
    /// Envelope mode: integrator substeps per tick.
    pub envelope_substeps: usize,
    /// RMS measurement noise on the detector output `VDC1`, volts
    /// (comparator offset drift, coupled interference). 0 = noiseless.
    pub detector_noise_rms: f64,
    /// Seed for the measurement-noise generator (reproducible runs).
    pub noise_seed: u64,
}

impl OscillatorConfig {
    /// Configuration around a tank: the driver is the chip's 10 mS
    /// linear-saturate stage, the DAC an ideal 12.5 µA/LSB die, the target
    /// 2.7 Vpp with a 15 % window, 1 ms ticks, and the NVM preset computed
    /// from the analytic amplitude law.
    pub fn for_tank(tank: LcTank) -> Self {
        let mut cfg = OscillatorConfig {
            tank,
            driver_shape: DriverShape::LinearSaturate { gm: 10e-3 },
            dac: MismatchedDac::ideal(12.5e-6),
            vdd: 3.3,
            vref: 1.65,
            target_vpp: 2.7,
            window_rel_width: 0.15,
            detector_tau: 30e-6,
            tick_period: 1e-3,
            nvm_code: Code::POR_PRESET,
            nvm_delay: 5e-6,
            fidelity: Fidelity::Envelope,
            steps_per_period: 60,
            envelope_substeps: 256,
            detector_noise_rms: 0.0,
            noise_seed: 1,
        };
        cfg.nvm_code = cfg.recommended_nvm_code();
        cfg
    }

    /// The paper's nominal operating point: datasheet tank (≈2.7 MHz,
    /// Q = 50).
    pub fn datasheet_3mhz() -> Self {
        OscillatorConfig::for_tank(LcTank::datasheet_3mhz())
    }

    /// A poor-quality tank needing close to the maximum code.
    pub fn low_q() -> Self {
        let tank = LcTank::with_q(Henries::from_micro(4.7), Farads::from_nano(1.5), 0.7)
            .expect("constants are valid");
        OscillatorConfig::for_tank(tank)
    }

    /// Fast unit-test configuration: 1 MHz tank, Q = 10, envelope fidelity.
    pub fn fast_test() -> Self {
        let tank = LcTank::with_q(Henries::from_micro(25.0), Farads::from_nano(2.0), 10.0)
            .expect("constants are valid");
        let mut cfg = OscillatorConfig::for_tank(tank);
        cfg.target_vpp = 2.0;
        cfg.nvm_code = cfg.recommended_nvm_code();
        cfg
    }

    /// The code whose ideal output current produces the target amplitude on
    /// this tank (the value a production line would burn into NVM), clamped
    /// to the code range.
    pub fn recommended_nvm_code(&self) -> Code {
        let cond = OscillationCondition::new(self.tank);
        let i_needed = cond.i_max_for_amplitude(Volts(self.target_vpp)).value();
        let units = i_needed / self.dac.lsb();
        // First code at or above the needed units.
        Code::all()
            .find(|&c| lcosc_dac::multiplication_factor(c) as f64 >= units)
            .unwrap_or(Code::MAX)
    }

    /// Per-pin peak amplitude corresponding to the differential target.
    pub fn target_peak(&self) -> f64 {
        self.target_vpp / 4.0
    }

    /// Cycle-mode ODE step.
    pub fn dt(&self) -> f64 {
        1.0 / (self.tank.f0().value() * self.steps_per_period as f64)
    }

    /// Maximum per-pin amplitude the rails allow.
    pub fn rail_clamp(&self) -> f64 {
        self.vref.min(self.vdd - self.vref)
    }

    /// Snapshot of this configuration for the static verification pass
    /// (`lcosc-check`'s `C0xx` rules).
    pub fn facts(&self) -> lcosc_check::ConfigFacts {
        lcosc_check::ConfigFacts {
            vdd: self.vdd,
            vref: self.vref,
            target_vpp: self.target_vpp,
            rail_clamp: self.rail_clamp(),
            window_rel_width: self.window_rel_width,
            detector_tau: self.detector_tau,
            tick_period: self.tick_period,
            nvm_delay: self.nvm_delay,
            steps_per_period: self.steps_per_period,
            envelope_substeps: self.envelope_substeps,
            detector_noise_rms: self.detector_noise_rms,
            nvm_code: u32::from(self.nvm_code.value()),
        }
    }

    /// Runs the full static verification pass on this configuration and
    /// returns every diagnostic (errors, warnings and notes).
    ///
    /// [`validate`](Self::validate) stops at the first violation with a
    /// terse message; this pass reports them all, with stable codes.
    pub fn check(&self) -> lcosc_check::Report {
        lcosc_check::check_config_facts(&self.facts())
    }

    /// Snapshot of this configuration for the static safety prover
    /// (`lcosc-check`'s `A0xx` obligations): the nominal tank elements,
    /// the regulation window and the tick period, with the prover's
    /// default mismatch box, tolerance box and Q range on top.
    pub fn prove_facts(&self) -> lcosc_check::ProveFacts {
        lcosc_check::ProveFacts::chip(
            self.window_rel_width,
            self.tank.l().value(),
            self.tank.c1().value(),
            self.tank.c2().value(),
            self.tick_period,
        )
    }

    /// Runs the static safety prover on this configuration: abstract
    /// interpretation of the DAC over its whole mismatch box plus
    /// exhaustive reachability of the regulation/safety automaton. Far
    /// stronger (and slower) than [`check`](Self::check) — every verdict
    /// holds for *all* dies and inputs in the box, not one sample.
    pub fn prove(&self) -> lcosc_check::ProveOutcome {
        lcosc_check::prove(&self.prove_facts())
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<()> {
        if !(self.target_vpp > 0.0) {
            return Err(CoreError::InvalidConfig(
                "target amplitude must be positive",
            ));
        }
        if !(self.vdd > 0.0 && self.vref > 0.0 && self.vref < self.vdd) {
            return Err(CoreError::InvalidConfig("vref must sit between the rails"));
        }
        if !(self.target_vpp < 4.0 * self.rail_clamp()) {
            return Err(CoreError::InvalidConfig(
                "target amplitude exceeds the supply rails",
            ));
        }
        if !(self.window_rel_width > 0.0625) {
            return Err(CoreError::InvalidConfig(
                "window must be wider than the 6.25 % maximum dac step",
            ));
        }
        if !(self.detector_tau > 0.0) {
            return Err(CoreError::InvalidConfig("detector tau must be positive"));
        }
        if !(self.tick_period > 10.0 * self.detector_tau) {
            return Err(CoreError::InvalidConfig(
                "tick period must dominate the detector time constant",
            ));
        }
        if !(self.nvm_delay > 0.0 && self.nvm_delay < self.tick_period) {
            return Err(CoreError::InvalidConfig(
                "nvm delay must fall within the first tick",
            ));
        }
        if self.steps_per_period < 20 {
            return Err(CoreError::InvalidConfig(
                "cycle fidelity needs >= 20 steps per period",
            ));
        }
        if self.envelope_substeps == 0 {
            return Err(CoreError::InvalidConfig(
                "envelope substeps must be non-zero",
            ));
        }
        if !(self.detector_noise_rms >= 0.0 && self.detector_noise_rms.is_finite()) {
            return Err(CoreError::InvalidConfig(
                "detector noise must be finite and non-negative",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        OscillatorConfig::datasheet_3mhz().validate().unwrap();
        OscillatorConfig::low_q().validate().unwrap();
        OscillatorConfig::fast_test().validate().unwrap();
    }

    #[test]
    fn datasheet_nvm_code_is_low_but_above_16() {
        // High-Q tank: little loss to replace, so the regulated code is low
        // — but by design it stays above 16 (paper §3).
        let cfg = OscillatorConfig::datasheet_3mhz();
        let code = cfg.nvm_code.value();
        assert!((17..40).contains(&code), "nvm code {code}");
    }

    #[test]
    fn low_q_nvm_code_is_high() {
        let cfg = OscillatorConfig::low_q();
        assert!(cfg.nvm_code.value() > 100, "nvm code {}", cfg.nvm_code);
    }

    #[test]
    fn recommended_code_produces_at_least_target_amplitude() {
        let cfg = OscillatorConfig::datasheet_3mhz();
        let cond = OscillationCondition::new(cfg.tank);
        let i = lcosc_dac::multiplication_factor(cfg.nvm_code) as f64 * cfg.dac.lsb();
        let vpp = cond.steady_amplitude_pp(lcosc_num::units::Amps(i)).value();
        assert!(vpp >= cfg.target_vpp, "vpp {vpp}");
        // And the next lower code would fall short.
        let i_prev =
            lcosc_dac::multiplication_factor(cfg.nvm_code.decrement()) as f64 * cfg.dac.lsb();
        let vpp_prev = cond
            .steady_amplitude_pp(lcosc_num::units::Amps(i_prev))
            .value();
        assert!(vpp_prev < cfg.target_vpp, "vpp_prev {vpp_prev}");
    }

    #[test]
    fn validation_catches_narrow_window() {
        let mut cfg = OscillatorConfig::fast_test();
        cfg.window_rel_width = 0.05;
        assert!(matches!(cfg.validate(), Err(CoreError::InvalidConfig(_))));
    }

    #[test]
    fn validation_catches_slow_detector() {
        let mut cfg = OscillatorConfig::fast_test();
        cfg.detector_tau = cfg.tick_period; // detector slower than the loop
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_nvm_delay() {
        let mut cfg = OscillatorConfig::fast_test();
        cfg.nvm_delay = cfg.tick_period * 2.0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn dt_matches_steps_per_period() {
        let cfg = OscillatorConfig::fast_test();
        let period = 1.0 / cfg.tank.f0().value();
        assert!((cfg.dt() * cfg.steps_per_period as f64 / period - 1.0).abs() < 1e-12);
    }

    #[test]
    fn target_peak_is_quarter_of_differential_pp() {
        let cfg = OscillatorConfig::datasheet_3mhz();
        assert!((cfg.target_peak() - 0.675).abs() < 1e-12);
    }
}
