//! Cycle-accurate oscillator model: the 3-state ODE of Fig 1.
//!
//! States are the two pin voltages and the coil current:
//!
//! ```text
//! C1·dv1/dt = −i_drv(v2 − Vref) − iL          (stage 1 drives LC1 from LC2)
//! C2·dv2/dt = −i_drv(v1 − Vref) + iL          (stage 2 drives LC2 from LC1)
//! L ·diL/dt = (v1 − v2) − Rs·iL
//! ```
//!
//! The two limited Gm stages are cross-coupled *inverting*, which gives
//! positive feedback for the differential mode (oscillation) and negative
//! feedback for the common mode (the Vref operating point holds without a
//! separate regulator, matching §6's transimpedance buffer behaviorally).

use crate::gm_driver::GmDriver;
use crate::tank::LcTank;
use lcosc_num::ode::OdeSystem;

/// Oscillator state: pin voltages and coil current.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OscillatorState {
    /// Voltage on the LC1 pin, volts.
    pub v1: f64,
    /// Voltage on the LC2 pin, volts.
    pub v2: f64,
    /// Coil current flowing LC1 → LC2, amperes.
    pub il: f64,
}

impl OscillatorState {
    /// Rest state at the DC operating point `vref` with a tiny differential
    /// seed so oscillation can grow from "noise".
    pub fn at_rest(vref: f64) -> Self {
        OscillatorState {
            v1: vref + 0.5e-3,
            v2: vref - 0.5e-3,
            il: 0.0,
        }
    }

    /// Differential voltage `v1 − v2`.
    pub fn v_diff(&self) -> f64 {
        self.v1 - self.v2
    }

    /// Common-mode voltage `(v1 + v2)/2`.
    pub fn v_cm(&self) -> f64 {
        0.5 * (self.v1 + self.v2)
    }
}

/// The oscillator ODE: tank + two cross-coupled limited drivers.
#[derive(Debug, Clone, PartialEq)]
pub struct OscillatorModel {
    tank: LcTank,
    driver: GmDriver,
    vref: f64,
    /// Optional extra parallel loss at each pin (models pin shorts), S.
    pin_leak: [f64; 2],
    /// Per-driver enable (a dead driver models a hard internal failure).
    driver_enabled: bool,
    /// Supply rail for the behavioral pin clamp (None = unclamped).
    rails_vdd: Option<f64>,
}

impl OscillatorModel {
    /// Creates a model with the DC operating point `vref` (mid-supply on
    /// the real chip).
    pub fn new(tank: LcTank, driver: GmDriver, vref: f64) -> Self {
        OscillatorModel {
            tank,
            driver,
            vref,
            pin_leak: [0.0, 0.0],
            driver_enabled: true,
            rails_vdd: None,
        }
    }

    /// Returns a copy whose pins are clamped to the `0..vdd` supply range
    /// (behavioral rail diodes).
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is not positive.
    pub fn with_rails(mut self, vdd: f64) -> Self {
        assert!(vdd > 0.0, "vdd must be positive");
        self.rails_vdd = Some(vdd);
        self
    }

    /// The tank.
    pub fn tank(&self) -> &LcTank {
        &self.tank
    }

    /// The driver.
    pub fn driver(&self) -> &GmDriver {
        &self.driver
    }

    /// DC operating point.
    pub fn vref(&self) -> f64 {
        self.vref
    }

    /// Updates the driver current limit (regulation loop interface).
    pub fn set_i_max(&mut self, i_max: f64) {
        self.driver.set_i_max(i_max);
    }

    /// Updates the driver small-signal transconductance (Gm-stage enables).
    pub fn set_gm(&mut self, gm: f64) {
        self.driver.set_gm(gm);
    }

    /// Adds a leak conductance from a pin to ground
    /// (0 = LC1, 1 = LC2) — fault injection for shorts.
    ///
    /// # Panics
    ///
    /// Panics if `pin > 1` or `siemens` is negative.
    pub fn set_pin_leak(&mut self, pin: usize, siemens: f64) {
        assert!(pin < 2, "pin must be 0 (LC1) or 1 (LC2)");
        assert!(siemens >= 0.0, "leak must be non-negative");
        self.pin_leak[pin] = siemens;
    }

    /// Enables or disables both driver stages (internal failure injection).
    pub fn set_driver_enabled(&mut self, enabled: bool) {
        self.driver_enabled = enabled;
    }

    /// Advances the state by one classic RK4 step of size `dt`.
    ///
    /// The four stages run on `[f64; 3]` over one forced-inline derivative,
    /// so the step compiles to one straight-line body. Its expression trees
    /// are those of the generic [`lcosc_num::ode::rk4_step`], which stays
    /// its bit-for-bit reference.
    pub fn step(&self, state: &mut OscillatorState, dt: f64) {
        let x = [state.v1, state.v2, state.il];
        let half = 0.5 * dt;
        let k1 = self.rates(x);
        let k2 = self.rates(offset(x, half, k1));
        let k3 = self.rates(offset(x, half, k2));
        let k4 = self.rates(offset(x, dt, k3));
        let h = dt / 6.0;
        state.v1 = x[0] + h * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]);
        state.v2 = x[1] + h * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]);
        state.il = x[2] + h * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]);
    }

    /// Runs for `duration` seconds with step `dt`, recording every
    /// `stride`-th sample.
    ///
    /// # Panics
    ///
    /// Panics unless `dt > 0`, `duration > dt` and `stride > 0`.
    pub fn run(
        &self,
        mut state: OscillatorState,
        duration: f64,
        dt: f64,
        stride: usize,
    ) -> OscillatorWaveform {
        assert!(dt > 0.0 && duration > dt, "need duration > dt > 0");
        assert!(stride > 0, "stride must be non-zero");
        let steps = (duration / dt).ceil() as usize;
        let mut wf = OscillatorWaveform {
            dt: dt * stride as f64,
            v1: Vec::with_capacity(steps / stride + 1),
            v2: Vec::with_capacity(steps / stride + 1),
            il: Vec::with_capacity(steps / stride + 1),
        };
        wf.push(&state);
        for k in 1..=steps {
            self.step(&mut state, dt);
            if k % stride == 0 {
                wf.push(&state);
            }
        }
        wf
    }

    /// Driver currents injected into (LC1, LC2) at a given state.
    #[inline(always)]
    pub fn driver_currents(&self, state: &OscillatorState) -> (f64, f64) {
        if !self.driver_enabled {
            return (0.0, 0.0);
        }
        // Inverting cross-coupled stages.
        (
            -self.driver.current(state.v2 - self.vref),
            -self.driver.current(state.v1 - self.vref),
        )
    }

    /// The Fig 1 ODE's right-hand side `dx/dt` at `x = [v1, v2, iL]`: the
    /// one place the formula lives ([`OdeSystem::derivatives`] delegates
    /// here too).
    #[inline(always)]
    fn rates(&self, x: [f64; 3]) -> [f64; 3] {
        let state = OscillatorState {
            v1: x[0],
            v2: x[1],
            il: x[2],
        };
        let (i1, i2) = self.driver_currents(&state);
        let c1 = self.tank.c1().value();
        let c2 = self.tank.c2().value();
        let l = self.tank.l().value();
        let rs = self.tank.rs().value();
        let leak1 = self.pin_leak[0] * (state.v1 - 0.0);
        let leak2 = self.pin_leak[1] * (state.v2 - 0.0);
        [
            (i1 - state.il - leak1 + self.clamp(state.v1)) / c1,
            (i2 + state.il - leak2 + self.clamp(state.v2)) / c2,
            ((state.v1 - state.v2) - rs * state.il) / l,
        ]
    }

    /// Behavioral rail clamp current into a pin at `v`: 20 mS (≈50 Ω
    /// ESD/junction path) beyond the supply range — strong enough to bound
    /// the swing, soft enough to keep the RK4 step non-stiff at the default
    /// step size.
    #[inline(always)]
    fn clamp(&self, v: f64) -> f64 {
        const G_CLAMP: f64 = 0.02;
        match self.rails_vdd {
            Some(vdd) if v > vdd => -G_CLAMP * (v - vdd),
            Some(_) if v < 0.0 => -G_CLAMP * v,
            _ => 0.0,
        }
    }
}

impl OdeSystem for OscillatorModel {
    fn dim(&self) -> usize {
        3
    }

    fn derivatives(&self, _t: f64, x: &[f64], dx: &mut [f64]) {
        dx.copy_from_slice(&self.rates([x[0], x[1], x[2]]));
    }
}

/// One RK4 stage state `x + h·k`.
#[inline(always)]
fn offset(x: [f64; 3], h: f64, k: [f64; 3]) -> [f64; 3] {
    [x[0] + h * k[0], x[1] + h * k[1], x[2] + h * k[2]]
}

/// A recorded oscillator run (uniformly sampled).
#[derive(Debug, Clone, PartialEq)]
pub struct OscillatorWaveform {
    /// Sample spacing in seconds.
    pub dt: f64,
    /// LC1 pin voltage samples.
    pub v1: Vec<f64>,
    /// LC2 pin voltage samples.
    pub v2: Vec<f64>,
    /// Coil current samples.
    pub il: Vec<f64>,
}

impl OscillatorWaveform {
    fn push(&mut self, s: &OscillatorState) {
        self.v1.push(s.v1);
        self.v2.push(s.v2);
        self.il.push(s.il);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.v1.len()
    }

    /// Whether the record is empty.
    pub fn is_empty(&self) -> bool {
        self.v1.is_empty()
    }

    /// Differential voltage trace `v1 − v2`.
    pub fn v_diff(&self) -> Vec<f64> {
        self.v1.iter().zip(&self.v2).map(|(a, b)| a - b).collect()
    }

    /// Final state of the run.
    ///
    /// # Panics
    ///
    /// Panics if the waveform is empty.
    pub fn last_state(&self) -> OscillatorState {
        let k = self.len().checked_sub(1).expect("waveform is empty");
        OscillatorState {
            v1: self.v1[k],
            v2: self.v2[k],
            il: self.il[k],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::OscillationCondition;
    use crate::gm_driver::DriverShape;
    use lcosc_num::ode::{frequency_from_crossings, rk4_step};
    use lcosc_num::units::Amps;

    /// A fast, low-frequency tank for unit tests (f0 ≈ 1 MHz, Q = 10).
    fn test_tank() -> LcTank {
        LcTank::with_q(
            lcosc_num::units::Henries::from_micro(25.0),
            lcosc_num::units::Farads::from_nano(2.0),
            10.0,
        )
        .unwrap()
    }

    fn test_driver(i_max: f64) -> GmDriver {
        GmDriver::new(DriverShape::LinearSaturate { gm: 10e-3 }, i_max)
    }

    fn dt_for(tank: &LcTank) -> f64 {
        1.0 / tank.f0().value() / 80.0
    }

    #[test]
    fn oscillation_grows_from_noise_and_saturates() {
        let tank = test_tank();
        let model = OscillatorModel::new(tank, test_driver(1e-3), 1.65);
        let dt = dt_for(&tank);
        // ~200 cycles.
        let wf = model.run(
            OscillatorState::at_rest(1.65),
            200.0 / tank.f0().value(),
            dt,
            1,
        );
        let vd = wf.v_diff();
        // Early window: the first oscillation cycle (amplitude saturates
        // within a few microseconds at this gain margin).
        let early = vd[..80].iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let late = vd[9 * vd.len() / 10..]
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(late > 50.0 * early, "no growth: early {early}, late {late}");
        // Saturated amplitude close to the describing-function prediction.
        let predict = OscillationCondition::new(tank)
            .steady_amplitude_pp(Amps(1e-3))
            .value();
        let measured_pp = 2.0 * late;
        assert!(
            (measured_pp / predict - 1.0).abs() < 0.15,
            "amplitude {measured_pp} vs predicted {predict}"
        );
    }

    #[test]
    fn oscillation_frequency_matches_tank() {
        let tank = test_tank();
        let model = OscillatorModel::new(tank, test_driver(1e-3), 1.65);
        let dt = dt_for(&tank);
        let wf = model.run(
            OscillatorState::at_rest(1.65),
            150.0 / tank.f0().value(),
            dt,
            1,
        );
        let vd = wf.v_diff();
        // Measure over the saturated tail.
        let tail = &vd[vd.len() / 2..];
        let f = frequency_from_crossings(0.0, dt, tail).unwrap();
        assert!(
            (f / tank.f0().value() - 1.0).abs() < 0.02,
            "f {} vs f0 {}",
            f,
            tank.f0().value()
        );
    }

    #[test]
    fn amplitude_scales_with_current_limit() {
        let tank = test_tank();
        let run_amp = |i_max: f64| {
            let model = OscillatorModel::new(tank, test_driver(i_max), 1.65);
            let dt = dt_for(&tank);
            let wf = model.run(
                OscillatorState::at_rest(1.65),
                250.0 / tank.f0().value(),
                dt,
                1,
            );
            let vd = wf.v_diff();
            vd[4 * vd.len() / 5..]
                .iter()
                .fold(0.0f64, |m, v| m.max(v.abs()))
        };
        let a1 = run_amp(0.5e-3);
        let a2 = run_amp(1.0e-3);
        assert!((a2 / a1 - 2.0).abs() < 0.1, "a1 {a1}, a2 {a2}");
    }

    #[test]
    fn subcritical_driver_decays() {
        let tank = test_tank();
        let crit = OscillationCondition::new(tank).critical_gm();
        let weak = GmDriver::new(DriverShape::LinearSaturate { gm: 0.5 * crit }, 1e-3);
        let model = OscillatorModel::new(tank, weak, 1.65);
        let dt = dt_for(&tank);
        let mut state = OscillatorState::at_rest(1.65);
        state.v1 += 0.1; // sizeable kick
        state.v2 -= 0.1;
        let wf = model.run(state, 100.0 / tank.f0().value(), dt, 1);
        let vd = wf.v_diff();
        let early = vd[..vd.len() / 5]
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()));
        let late = vd[4 * vd.len() / 5..]
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(late < 0.5 * early, "should decay: {early} -> {late}");
    }

    #[test]
    fn disabled_driver_rings_down() {
        let tank = test_tank();
        let mut model = OscillatorModel::new(tank, test_driver(1e-3), 1.65);
        model.set_driver_enabled(false);
        let dt = dt_for(&tank);
        let mut state = OscillatorState::at_rest(1.65);
        state.v1 += 0.5;
        state.v2 -= 0.5;
        let wf = model.run(state, 60.0 / tank.f0().value(), dt, 1);
        let vd = wf.v_diff();
        let late = vd[4 * vd.len() / 5..]
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()));
        // Q = 10: envelope decays as exp(−π f t / Q): 60 cycles ≈ 6·10⁻⁹·...
        // 60 cycles -> exp(−π·60/10) ≈ 6·10⁻⁹ of the initial 1.0.
        assert!(late < 1e-3, "ring-down amplitude {late}");
    }

    #[test]
    fn common_mode_stays_at_vref() {
        let tank = test_tank();
        let model = OscillatorModel::new(tank, test_driver(1e-3), 1.65);
        let dt = dt_for(&tank);
        let wf = model.run(
            OscillatorState::at_rest(1.65),
            150.0 / tank.f0().value(),
            dt,
            1,
        );
        let cm_late: f64 = wf.v1[wf.len() - 100..]
            .iter()
            .zip(&wf.v2[wf.len() - 100..])
            .map(|(a, b)| 0.5 * (a + b))
            .sum::<f64>()
            / 100.0;
        assert!(
            (cm_late - 1.65).abs() < 0.05,
            "common mode drifted to {cm_late}"
        );
    }

    #[test]
    fn pin_leak_lowers_amplitude() {
        let tank = test_tank();
        let dt = dt_for(&tank);
        let amp = |leak: f64| {
            let mut model = OscillatorModel::new(tank, test_driver(1e-3), 1.65);
            model.set_pin_leak(0, leak);
            let wf = model.run(
                OscillatorState::at_rest(1.65),
                250.0 / tank.f0().value(),
                dt,
                1,
            );
            let vd = wf.v_diff();
            vd[4 * vd.len() / 5..]
                .iter()
                .fold(0.0f64, |m, v| m.max(v.abs()))
        };
        let clean = amp(0.0);
        let leaky = amp(2e-3); // 500 Ω to ground on LC1
        assert!(
            leaky < 0.8 * clean,
            "leak should reduce amplitude: {clean} -> {leaky}"
        );
    }

    #[test]
    fn waveform_helpers() {
        let tank = test_tank();
        let model = OscillatorModel::new(tank, test_driver(1e-3), 1.65);
        let wf = model.run(
            OscillatorState::at_rest(1.65),
            20.0 / tank.f0().value(),
            dt_for(&tank),
            4,
        );
        assert!(!wf.is_empty());
        assert_eq!(wf.v_diff().len(), wf.len());
        let last = wf.last_state();
        assert_eq!(last.v1, *wf.v1.last().unwrap());
        assert!((last.v_cm() - 1.65).abs() < 0.2);
    }

    #[test]
    fn step_matches_generic_rk4_bit_for_bit() {
        // 2 mA swings this tank's pins past both rails, so every branch of
        // the derivative runs.
        let tank = test_tank();
        let dt = dt_for(&tank);
        for shape in [
            DriverShape::HardLimit,
            DriverShape::LinearSaturate { gm: 10e-3 },
            DriverShape::Tanh { gm: 10e-3 },
        ] {
            for rails in [false, true] {
                for leak_pin in [None, Some(0), Some(1)] {
                    for enabled in [true, false] {
                        let mut model =
                            OscillatorModel::new(tank, GmDriver::new(shape, 2e-3), 1.65);
                        if rails {
                            model = model.with_rails(3.3);
                        }
                        if let Some(pin) = leak_pin {
                            model.set_pin_leak(pin, 2e-3);
                        }
                        model.set_driver_enabled(enabled);
                        let mut fixed = OscillatorState {
                            v1: 1.95,
                            v2: 1.35,
                            il: 0.0,
                        };
                        let mut generic = [fixed.v1, fixed.v2, fixed.il];
                        let mut scratch = [0.0; 15];
                        for k in 0..10_000 {
                            model.step(&mut fixed, dt);
                            rk4_step(&model, k as f64 * dt, dt, &mut generic, &mut scratch);
                            assert_eq!(
                                [fixed.v1, fixed.v2, fixed.il].map(f64::to_bits),
                                generic.map(f64::to_bits),
                                "{shape:?}, rails {rails}, leak {leak_pin:?}, \
                                 enabled {enabled}: step {k}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "pin must be")]
    fn set_pin_leak_rejects_bad_pin() {
        let mut m = OscillatorModel::new(test_tank(), test_driver(1e-3), 1.65);
        m.set_pin_leak(2, 1e-3);
    }
}
