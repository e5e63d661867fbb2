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
//!
//! With the paper's Fig 2 driver ([`DriverShape::LinearSaturate`]) the
//! ODE is piecewise linear: inside one region (each stage linear or
//! clipped at ±I_M, each pin's rail clamp off or on) it is
//! `x' = A·x + b`. `CycleStepper`, the production cycle integrator,
//! steps such a region exactly with a cached per-region propagator and
//! takes one RK4 step ([`OscillatorModel::step`]) only where a step ends
//! in another region, or for the other driver shapes.

use crate::gm_driver::{DriverShape, GmDriver};
use crate::tank::LcTank;
use lcosc_num::ode::{affine_propagator, OdeSystem};

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
    /// This is the cycle stepper's fallback for a step that crosses a region
    /// of the piecewise-linear driver, its only path for the
    /// [`DriverShape::Tanh`] and [`DriverShape::HardLimit`] drivers, and
    /// the reference the exact stepper is measured against.
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
    /// `stride`-th sample. The `ceil(duration / dt)` steps are one span of
    /// the cycle stepper: exact inside each region of the `LinearSaturate`
    /// driver, RK4 across a region boundary and for the other shapes.
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
        let mut k = 0usize;
        CycleStepper::new(self.clone()).span(&mut state, &mut 0.0, f64::INFINITY, dt, steps, |x| {
            k += 1;
            if k.is_multiple_of(stride) {
                wf.push(x);
            }
        });
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

    /// Behavioral rail clamp current into a pin at `v`: [`G_CLAMP`]
    /// beyond the supply range.
    #[inline(always)]
    fn clamp(&self, v: f64) -> f64 {
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

/// Rail clamp conductance: 20 mS (≈50 Ω ESD/junction path) beyond the
/// supply range — strong enough to bound the swing, soft enough to keep
/// the RK4 step non-stiff at the default step size.
const G_CLAMP: f64 = 0.02;

/// Regions of the `LinearSaturate` model: each driver stage is linear,
/// clipped at +I_M or clipped at −I_M, and each pin's rail clamp is off,
/// above the supply or below ground (3⁴).
const REGIONS: usize = 81;

/// Which piece of a three-piece characteristic a voltage is on.
const LINEAR: usize = 0;
const HIGH: usize = 1;
const LOW: usize = 2;

/// The production cycle integrator of [`OscillatorModel`]: an exact
/// piecewise-linear stepper for the [`DriverShape::LinearSaturate`]
/// driver, with RK4 only where a step crosses a region.
///
/// Inside one region — each driver stage linear or clipped at ±I_M, each
/// rail clamp off or on, pin leaks always linear — the Fig 1 ODE is
/// `x' = A·x + b`, so a step of size `dt` is exactly `x ← Φ·x + Γ`. The
/// region's `A` and `b` are written from the circuit equations (not read
/// off the model's derivative), and `Φ`, `Γ` come from
/// [`affine_propagator`] the first time a region is visited. A step whose
/// end state lies in another region is redone with
/// [`OscillatorModel::step`] from its start; the `Tanh` and `HardLimit`
/// drivers always take that RK4 step. So the driver shape alone picks the
/// path.
///
/// It steps in spans ([`CycleStepper::span`]): one loop that classifies
/// its start state once and keeps the state, the clock, the region and
/// the region's propagator in locals until a step ends in another region.
///
/// The stepper owns its model, so the table can never outlive the model
/// it was filled for: [`CycleStepper::model_mut`] empties it, and a new
/// step size does too.
#[derive(Debug, Clone)]
pub(crate) struct CycleStepper {
    model: OscillatorModel,
    path: Path,
    /// Bit `r` set: `table[r]` holds region `r`'s propagator.
    filled: u128,
    table: Box<[Affine; REGIONS]>,
}

/// How [`CycleStepper`] steps its model.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Path {
    /// Not yet prepared for the current model.
    Unprepared,
    /// A smooth or discontinuous driver: RK4 every step.
    Rk4,
    /// The piecewise-linear driver: exact per-region steps.
    Exact(Pieces),
}

/// One region's exact discrete propagator `x ← Φ·x + Γ`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Affine {
    phi: [[f64; 3]; 3],
    gamma: [f64; 3],
}

impl Affine {
    #[inline(always)]
    fn apply(&self, x: &OscillatorState) -> OscillatorState {
        let (p, g) = (&self.phi, &self.gamma);
        OscillatorState {
            v1: p[0][0] * x.v1 + p[0][1] * x.v2 + p[0][2] * x.il + g[0],
            v2: p[1][0] * x.v1 + p[1][1] * x.v2 + p[1][2] * x.il + g[1],
            il: p[2][0] * x.v1 + p[2][1] * x.v2 + p[2][2] * x.il + g[2],
        }
    }
}

/// What locates a state's region for one `LinearSaturate` model, and the
/// step size its propagators were built for.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pieces {
    dt: f64,
    gm: f64,
    i_max: f64,
    vref: f64,
    /// Whether both driver stages are enabled.
    driven: bool,
    /// The supply rail of the clamp, `None` when the pins are unclamped.
    vdd: Option<f64>,
}

impl Pieces {
    /// Piece of the driver stage fed by pin voltage `v`: the stage current
    /// `clamp(gm·(v − vref), ±I_M)` is linear, clipped high or clipped low.
    /// A disabled driver is one piece (no current).
    #[inline(always)]
    fn stage(&self, v: f64) -> usize {
        if !self.driven {
            return LINEAR;
        }
        let u = self.gm * (v - self.vref);
        if u > self.i_max {
            HIGH
        } else if u < -self.i_max {
            LOW
        } else {
            LINEAR
        }
    }

    /// Piece of a pin's rail clamp: off, above the supply, below ground.
    #[inline(always)]
    fn clamp(&self, v: f64) -> usize {
        match self.vdd {
            Some(vdd) if v > vdd => HIGH,
            Some(_) if v < 0.0 => LOW,
            _ => LINEAR,
        }
    }

    /// Region index of a state; the coil current plays no part. Stage 1
    /// drives LC1 from v2, stage 2 drives LC2 from v1.
    #[inline(always)]
    fn region(&self, x: &OscillatorState) -> usize {
        ((self.stage(x.v2) * 3 + self.stage(x.v1)) * 3 + self.clamp(x.v1)) * 3 + self.clamp(x.v2)
    }

    /// The region's `A` and `b` of `x' = A·x + b`, from the circuit
    /// equations of Fig 1: KCL at each pin,
    /// `C·dv/dt = i_stage − (±iL) − g_leak·v + i_clamp`, and KVL round the
    /// coil, `L·diL/dt = v1 − v2 − Rs·iL`. Each stage or clamp current is
    /// `slope·v + offset` on its piece.
    fn system(&self, model: &OscillatorModel, region: usize) -> ([[f64; 3]; 3], [f64; 3]) {
        let (s1, s2, k1, k2) = (region / 27, region / 9 % 3, region / 3 % 3, region % 3);
        // Inverting stage current i = −clamp(gm·(v − vref), ±I_M).
        let stage = |piece| match (self.driven, piece) {
            (false, _) => (0.0, 0.0),
            (true, LINEAR) => (-self.gm, self.gm * self.vref),
            (true, HIGH) => (0.0, -self.i_max),
            (true, _) => (0.0, self.i_max),
        };
        // Clamp current −G·(v − vdd) above the supply, −G·v below ground.
        let rail = |piece| match (piece, self.vdd) {
            (HIGH, Some(vdd)) => (-G_CLAMP, G_CLAMP * vdd),
            (LOW, Some(_)) => (-G_CLAMP, 0.0),
            _ => (0.0, 0.0),
        };
        let ((g1, i1), (g2, i2)) = (stage(s1), stage(s2));
        let ((gc1, ic1), (gc2, ic2)) = (rail(k1), rail(k2));
        let tank = model.tank();
        let (c1, c2) = (tank.c1().value(), tank.c2().value());
        let (l, rs) = (tank.l().value(), tank.rs().value());
        let [leak1, leak2] = model.pin_leak;
        let a = [
            [(gc1 - leak1) / c1, g1 / c1, -1.0 / c1],
            [g2 / c2, (gc2 - leak2) / c2, 1.0 / c2],
            [1.0 / l, -1.0 / l, -rs / l],
        ];
        let b = [(i1 + ic1) / c1, (i2 + ic2) / c2, 0.0];
        (a, b)
    }
}

impl CycleStepper {
    /// A stepper for `model`, with an empty table.
    pub(crate) fn new(model: OscillatorModel) -> Self {
        CycleStepper {
            model,
            path: Path::Unprepared,
            filled: 0,
            table: Box::new([Affine::default(); REGIONS]),
        }
    }

    /// The model being stepped.
    pub(crate) fn model(&self) -> &OscillatorModel {
        &self.model
    }

    /// The model, to change it: empties the table, whose propagators were
    /// built for the model as it was.
    pub(crate) fn model_mut(&mut self) -> &mut OscillatorModel {
        self.path = Path::Unprepared;
        &mut self.model
    }

    /// Steps `state` by `dt` from time `*t`, at most `steps` times and
    /// while `*t < t_end`, adding `dt` to the clock after each step and
    /// handing each step's end state to `visit`.
    ///
    /// A step of the `LinearSaturate` driver is exact while it stays in the
    /// region it starts in; one that ends in another region is redone by
    /// [`OscillatorModel::step`], after which the span loads the new
    /// region's propagator. The other drivers take that RK4 step every
    /// time. The model cannot change during a span, so the start state is
    /// the only one classified from scratch.
    #[inline(always)]
    pub(crate) fn span(
        &mut self,
        state: &mut OscillatorState,
        t: &mut f64,
        t_end: f64,
        dt: f64,
        steps: usize,
        mut visit: impl FnMut(&OscillatorState),
    ) {
        let ready = match self.path {
            Path::Exact(pieces) => pieces.dt == dt,
            Path::Rk4 => true,
            Path::Unprepared => false,
        };
        if !ready {
            self.prepare(dt);
        }
        let (mut x, mut clock, mut n) = (*state, *t, 0usize);
        match self.path {
            Path::Exact(pieces) => {
                let mut region = pieces.region(&x);
                let mut map = self.propagator(pieces, region);
                while n < steps && clock < t_end {
                    let y = map.apply(&x);
                    if pieces.region(&y) == region {
                        // A rung-down coil current decays geometrically
                        // towards zero; in the subnormal range every
                        // multiply by it takes an x86 microcode assist,
                        // several times the whole step. Flush it.
                        x = OscillatorState {
                            il: if y.il.abs() < f64::MIN_POSITIVE {
                                0.0
                            } else {
                                y.il
                            },
                            ..y
                        };
                    } else {
                        x = self.rk4(x, dt);
                        region = pieces.region(&x);
                        map = self.propagator(pieces, region);
                    }
                    clock += dt;
                    n += 1;
                    visit(&x);
                }
            }
            _ => {
                while n < steps && clock < t_end {
                    x = self.rk4(x, dt);
                    clock += dt;
                    n += 1;
                    visit(&x);
                }
            }
        }
        *state = x;
        *t = clock;
    }

    /// One [`OscillatorModel::step`] from `x`, taken on a copy so that a
    /// span's state never has its address taken and can stay in registers.
    #[inline(always)]
    fn rk4(&self, x: OscillatorState, dt: f64) -> OscillatorState {
        let mut y = x;
        self.model.step(&mut y, dt);
        y
    }

    /// Picks the path for the model at step `dt` and empties the table.
    #[cold]
    #[inline(never)]
    fn prepare(&mut self, dt: f64) {
        let model = &self.model;
        self.filled = 0;
        self.path = match model.driver().shape() {
            DriverShape::LinearSaturate { gm } => Path::Exact(Pieces {
                dt,
                gm,
                i_max: model.driver().i_max(),
                vref: model.vref(),
                driven: model.driver_enabled,
                vdd: model.rails_vdd,
            }),
            DriverShape::Tanh { .. } | DriverShape::HardLimit => Path::Rk4,
        };
    }

    /// Region `region`'s propagator, built on the region's first visit.
    #[inline(always)]
    fn propagator(&mut self, pieces: Pieces, region: usize) -> Affine {
        if self.filled & (1u128 << region) == 0 {
            self.fill(pieces, region);
        }
        self.table[region]
    }

    /// Builds region `region`'s propagator.
    #[cold]
    #[inline(never)]
    fn fill(&mut self, pieces: Pieces, region: usize) {
        let (a, b) = pieces.system(&self.model, region);
        let (phi, gamma) = affine_propagator(&a, &b, pieces.dt);
        self.table[region] = Affine { phi, gamma };
        self.filled |= 1u128 << region;
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
        assert!((0.5 * (last.v1 + last.v2) - 1.65).abs() < 0.2);
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

    /// Runs `steps` steps of `dt` from `start` as one span, handing each
    /// end state and its step number (from 1) to `visit`; returns the last
    /// state. The span must visit every step it takes.
    fn span_of(
        stepper: &mut CycleStepper,
        start: OscillatorState,
        dt: f64,
        steps: usize,
        mut visit: impl FnMut(usize, &OscillatorState),
    ) -> OscillatorState {
        let (mut x, mut t, mut k) = (start, 0.0, 0);
        stepper.span(&mut x, &mut t, f64::INFINITY, dt, steps, |s| {
            k += 1;
            visit(k, s);
        });
        assert_eq!(k, steps, "visited steps");
        x
    }

    /// Oracle (a): with the driver off and no leak or rails, Fig 1 is a
    /// series RLC (C1 and C2 in series with L and Rs), whose ring-down is
    /// closed form. The stepper must follow it over 1000 periods to within
    /// 1e-8 of the initial swing; RK4 at the same step misses by its
    /// truncation error.
    #[test]
    fn stepper_follows_the_closed_form_series_rlc_ring_down() {
        let (l, c1, c2): (f64, f64, f64) = (25e-6, 2e-9, 3e-9);
        let cs = c1 * c2 / (c1 + c2);
        let omega0 = 1.0 / (l * cs).sqrt();
        let rs = omega0 * l / 2000.0; // Q = 2000: 1000 periods decay to e^{−π/2}
        let alpha = rs / (2.0 * l);
        let omega_d = (omega0 * omega0 - alpha * alpha).sqrt();
        let tank = LcTank::new(
            lcosc_num::units::Henries(l),
            lcosc_num::units::Farads(c1),
            lcosc_num::units::Farads(c2),
            lcosc_num::units::Ohms(rs),
        )
        .unwrap();
        let mut model = OscillatorModel::new(tank, test_driver(1e-3), 1.65);
        model.set_driver_enabled(false);
        let (v10, v20, vd0) = (2.05, 1.25, 0.8);
        let start = OscillatorState {
            v1: v10,
            v2: v20,
            il: 0.0,
        };
        // vd'' + 2α·vd' + ω0²·vd = 0 with vd(0) = vd0, vd'(0) = −iL(0)/Cs = 0;
        // the charge Cs·(vd0 − vd) has left C1 and reached C2.
        let exact = |t: f64| {
            let (s, c) = (omega_d * t).sin_cos();
            let decay = (-alpha * t).exp();
            let vd = vd0 * decay * (c + alpha / omega_d * s);
            let q = cs * (vd0 - vd);
            [v10 - q / c1, v20 + q / c2, vd0 / (l * omega_d) * decay * s]
        };
        let period = 2.0 * std::f64::consts::PI / omega0;
        let dt = period / 60.0;
        let steps = 60_000;
        // Current error is weighed at the characteristic impedance √(L/Cs).
        let z0 = (l / cs).sqrt();
        let error = |x: &OscillatorState, t: f64| {
            let want = exact(t);
            let e = [x.v1 - want[0], x.v2 - want[1], (x.il - want[2]) * z0];
            e.iter().fold(0.0f64, |m, v| m.max(v.abs())) / vd0
        };
        let mut stepper_err = 0.0f64;
        span_of(
            &mut CycleStepper::new(model.clone()),
            start,
            dt,
            steps,
            |k, x| stepper_err = stepper_err.max(error(x, k as f64 * dt)),
        );
        let mut rk4 = start;
        let mut rk4_err = 0.0f64;
        for k in 1..=steps {
            model.step(&mut rk4, dt);
            rk4_err = rk4_err.max(error(&rk4, k as f64 * dt));
        }
        assert!(stepper_err < 1e-8, "stepper error {stepper_err:e}");
        assert!(
            rk4_err > 1e-4,
            "RK4 error {rk4_err:e} below its truncation error"
        );
    }

    /// With the driver off, no leak and the pins inside the rails, the pins
    /// only trade charge through the coil, so `C1·v1 + C2·v2` is conserved
    /// while the swing rings down. Over 200 000 steps, most of them in the
    /// rung-down state, any bias in the propagator's unit eigenvalue drifts
    /// the common mode linearly; the step must hold it to 1e-11 V. The
    /// rung-down coil current must also stay off the subnormal range,
    /// where each x86 step costs several times more.
    #[test]
    fn stepper_conserves_charge_with_the_driver_off() {
        let (l, c1, c2): (f64, f64, f64) = (25e-6, 2e-9, 3e-9);
        let tank = LcTank::new(
            lcosc_num::units::Henries(l),
            lcosc_num::units::Farads(c1),
            lcosc_num::units::Farads(c2),
            lcosc_num::units::Ohms(10.0),
        )
        .unwrap();
        let dt = dt_for(&tank);
        let mut model = OscillatorModel::new(tank, test_driver(1e-3), 1.65).with_rails(3.3);
        model.set_driver_enabled(false);
        let state = OscillatorState {
            v1: 2.05,
            v2: 1.25,
            il: 0.0,
        };
        let common_mode = |s: &OscillatorState| (c1 * s.v1 + c2 * s.v2) / (c1 + c2);
        let start = common_mode(&state);
        let mut drift = 0.0f64;
        let mut subnormal_steps = 0;
        let end = span_of(&mut CycleStepper::new(model), state, dt, 200_000, |_, x| {
            drift = drift.max((common_mode(x) - start).abs());
            subnormal_steps += usize::from(x.il != 0.0 && !x.il.is_normal());
        });
        assert!(drift < 1e-11, "common-mode drift {drift:e} V");
        assert_eq!(subnormal_steps, 0, "coil current settled at {:e}", end.il);
    }

    /// Oracle (b): from a state well inside each reachable region, one
    /// stepper step equals 64 RK4 steps of dt/64 over the model's
    /// derivative. The stepper's region matrices come from the circuit
    /// equations, so this also checks `rates`.
    #[test]
    fn stepper_matches_fine_rk4_in_every_region() {
        let tank = test_tank();
        let dt = dt_for(&tank);
        let (vref, vdd) = (1.65, 3.3);
        // Per pin: (piece name, voltage). With 2 mA at 10 mS the stages are
        // linear within 0.2 V of vref; the clamp acts beyond 0..3.3 V, where
        // the stage fed by that pin is clipped the same way.
        let driven = [
            ("linear", 1.68),
            ("clipped high", 2.6),
            ("clipped low", 0.7),
            ("clamped high", 3.6),
            ("clamped low", -0.3),
        ];
        let undriven = [
            ("unclamped", 1.68),
            ("clamped high", 3.6),
            ("clamped low", -0.3),
        ];
        let mut rows = Vec::new();
        for (n1, v1) in driven {
            for (n2, v2) in driven {
                rows.push((true, n1, v1, n2, v2));
            }
        }
        for (n1, v1) in undriven {
            for (n2, v2) in undriven {
                rows.push((false, n1, v1, n2, v2));
            }
        }
        let mut regions = Vec::new();
        for (enabled, n1, v1, n2, v2) in rows {
            let mut model = OscillatorModel::new(tank, test_driver(2e-3), vref).with_rails(vdd);
            model.set_driver_enabled(enabled);
            model.set_pin_leak(0, 1e-3);
            model.set_pin_leak(1, 3e-3);
            let start = OscillatorState { v1, v2, il: 0.5e-3 };
            let mut stepper = CycleStepper::new(model.clone());
            let exact = span_of(&mut stepper, start, dt, 1, |_, _| {});
            let Path::Exact(pieces) = stepper.path else {
                panic!("LinearSaturate must take the exact path");
            };
            let region = pieces.region(&start);
            let label = format!("driver {enabled}, LC1 {n1}, LC2 {n2}");
            assert_eq!(
                pieces.region(&exact),
                region,
                "{label}: the step left its region"
            );
            assert_ne!(stepper.filled & (1u128 << region), 0, "{label}");
            // A disabled driver is one piece, indexed like the linear one.
            regions.push((enabled, region));
            let mut fine = start;
            for _ in 0..64 {
                model.step(&mut fine, dt / 64.0);
            }
            assert!(
                (exact.v1 - fine.v1).abs() < 1e-9
                    && (exact.v2 - fine.v2).abs() < 1e-9
                    && (exact.il - fine.il).abs() < 1e-12,
                "{label}: exact {exact:?} vs RK4 at dt/64 {fine:?}"
            );
        }
        regions.sort_unstable();
        regions.dedup();
        assert_eq!(regions.len(), 34, "every row is its own region");
    }

    #[test]
    fn stepper_takes_rk4_for_the_smooth_and_hard_drivers() {
        let tank = test_tank();
        let dt = dt_for(&tank);
        for shape in [DriverShape::HardLimit, DriverShape::Tanh { gm: 10e-3 }] {
            let model =
                OscillatorModel::new(tank, GmDriver::new(shape, 2e-3), 1.65).with_rails(3.3);
            let mut stepper = CycleStepper::new(model.clone());
            let start = OscillatorState::at_rest(1.65);
            let mut b = start;
            span_of(&mut stepper, start, dt, 1000, |k, a| {
                model.step(&mut b, dt);
                assert_eq!(*a, b, "{shape:?}: step {k}");
            });
            assert_eq!(stepper.path, Path::Rk4);
        }
    }

    #[test]
    fn changing_the_model_empties_the_table() {
        let tank = test_tank();
        let dt = dt_for(&tank);
        let mut stepper = CycleStepper::new(OscillatorModel::new(tank, test_driver(1e-3), 1.65));
        // About 50 periods: the swing has grown into the clipped regions,
        // and this step ends where the stages clip at 1 mA but not at 2 mA.
        let state = span_of(
            &mut stepper,
            OscillatorState::at_rest(1.65),
            dt,
            4032,
            |_, _| {},
        );
        let Path::Exact(before) = stepper.path else {
            panic!("LinearSaturate must take the exact path");
        };
        // A leak changes every region's `A`, a new limit the clipped `b`.
        stepper.model_mut().set_i_max(2e-3);
        stepper.model_mut().set_pin_leak(0, 1e-3);
        let mut fresh = CycleStepper::new(stepper.model().clone());
        let again = span_of(&mut fresh, state, dt, 500, |_, _| {});
        let Path::Exact(after) = fresh.path else {
            panic!("LinearSaturate must take the exact path");
        };
        // The new limit also moves the state to another region, so a span
        // that kept the last span's region would show here.
        assert_ne!(before.region(&state), after.region(&state));
        assert_eq!(span_of(&mut stepper, state, dt, 500, |_, _| {}), again);
        // A new step size alone re-prepares the table.
        let halved = span_of(&mut fresh, again, dt / 2.0, 1, |_, _| {});
        let reference = span_of(
            &mut CycleStepper::new(fresh.model().clone()),
            again,
            dt / 2.0,
            1,
            |_, _| {},
        );
        assert_eq!(halved, reference);
    }

    #[test]
    #[should_panic(expected = "pin must be")]
    fn set_pin_leak_rejects_bad_pin() {
        let mut m = OscillatorModel::new(test_tank(), test_driver(1e-3), 1.65);
        m.set_pin_leak(2, 1e-3);
    }
}
