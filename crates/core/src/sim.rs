//! The closed regulation loop: oscillator + detector + FSM + startup,
//! stepped together (paper Fig 16's startup and Fig 15's steady-state
//! regulation come from this module).

use crate::config::{Fidelity, OscillatorConfig};
use crate::detector::{AmplitudeDetector, RECTIFIER_GAIN};
use crate::envelope::EnvelopeModel;
use crate::gm_driver::GmDriver;
use crate::multirate::{ModeStats, MultiRateController, RateMode};
use crate::oscillator::{OscillatorModel, OscillatorState};
use crate::regulator::{RegulationAction, RegulationFsm};
use crate::startup::StartupSequencer;
use crate::tank::LcTank;
use crate::Result;
use lcosc_dac::Code;
use lcosc_device::comparator::WindowState;
use lcosc_trace::{PhaseId, StepAction, Trace, TraceEvent, WindowClass};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Maps the comparator state onto the trace vocabulary.
fn window_class(w: WindowState) -> WindowClass {
    match w {
        WindowState::Below => WindowClass::Below,
        WindowState::Inside => WindowClass::Inside,
        WindowState::Above => WindowClass::Above,
    }
}

/// Maps the regulation decision onto the trace vocabulary.
fn step_action(a: RegulationAction) -> StepAction {
    match a {
        RegulationAction::Increment => StepAction::Increment,
        RegulationAction::Decrement => StepAction::Decrement,
        RegulationAction::Hold => StepAction::Hold,
    }
}

/// How much static verification [`ClosedLoopSim::new_with_level`] runs
/// before the first tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CheckLevel {
    /// The concrete-value `lcosc-check` pass (what [`ClosedLoopSim::new`]
    /// runs): lints this configuration's values.
    #[default]
    Standard,
    /// The concrete pass plus the `A0xx` static prover: interval abstract
    /// interpretation over the whole DAC mismatch box and exhaustive
    /// reachability of the regulation/safety automaton. Slower, but the
    /// verdict covers every die and input sequence, not just this one.
    Prove,
}

/// Events logged by the simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimEvent {
    /// NVM code applied (end of the POR-preset phase).
    NvmLoaded {
        /// Event time, seconds.
        t: f64,
        /// Loaded code.
        code: Code,
    },
    /// The regulation loop changed the code.
    CodeChanged {
        /// Event time, seconds.
        t: f64,
        /// Previous code.
        from: Code,
        /// New code.
        to: Code,
    },
    /// The loop hit the top code while still below the window (possible
    /// component failure; feeds the low-amplitude safety detector).
    SaturatedHigh {
        /// Event time, seconds.
        t: f64,
    },
    /// A fault was injected by the caller.
    FaultInjected {
        /// Event time, seconds.
        t: f64,
    },
}

/// Recorded per-tick history of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimTrace {
    /// Tick timestamps, seconds.
    pub tick_times: Vec<f64>,
    /// Code at the end of each tick.
    pub codes: Vec<u8>,
    /// Detector output `VDC1` at each tick.
    pub vdc1: Vec<f64>,
    /// Per-pin peak amplitude estimate at each tick.
    pub amplitudes: Vec<f64>,
    /// Logged events.
    pub events: Vec<SimEvent>,
    /// Cycle mode only: time step between decimated waveform samples.
    /// Kept in lock-step with the ODE step (a function of the tank) and
    /// the record stride — refreshed by [`ClosedLoopSim::inject_tank`] and
    /// [`ClosedLoopSim::set_record_stride`], so samples recorded after a
    /// mid-run change carry the correct timestamps.
    pub waveform_dt: f64,
    /// Cycle mode only: decimated `v1 − v2` samples.
    pub waveform_vdiff: Vec<f64>,
}

/// Result of [`ClosedLoopSim::run_until_settled`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SettleReport {
    /// Whether the code settled (stayed within ±1 for several ticks).
    pub settled: bool,
    /// Ticks executed.
    pub ticks: usize,
    /// Final regulation code.
    pub final_code: Code,
    /// Final differential peak-to-peak amplitude, volts.
    pub final_vpp: f64,
    /// Estimated supply current at the final code, amperes.
    pub supply_current: f64,
}

/// The closed amplitude-regulation loop.
#[derive(Debug, Clone)]
pub struct ClosedLoopSim {
    cfg: OscillatorConfig,
    model: OscillatorModel,
    envelope: EnvelopeModel,
    detector: AmplitudeDetector,
    fsm: RegulationFsm,
    startup: StartupSequencer,
    t: f64,
    state: OscillatorState,
    amp: f64,
    nvm_applied: bool,
    driver_dead: bool,
    trace: SimTrace,
    /// Cycle mode: record every n-th ODE sample into the waveform.
    record_stride: usize,
    noise_rng: StdRng,
    tracer: Trace,
    regulating_logged: bool,
    /// Multi-rate fidelity hand-off state machine.
    rate: MultiRateController,
    /// Multi-rate: which representation currently owns the dynamic state.
    /// Trails [`MultiRateController::mode`] by at most the gap between an
    /// externally armed event (fault injection between ticks) and the next
    /// tick's hand-off.
    live: RateMode,
    /// Multi-rate: whether the previous tick stepped the code (the loop is
    /// actively ramping, so threshold approaches get a cycle guard).
    code_stepped_last_tick: bool,
}

impl ClosedLoopSim {
    /// Builds the loop from a configuration, running the full static
    /// verification pass first.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::CheckFailed`] with the complete
    /// diagnostic report when the `lcosc-check` pass finds errors, or
    /// [`crate::CoreError::InvalidConfig`] when plain validation fails.
    pub fn new(cfg: OscillatorConfig) -> Result<Self> {
        Self::new_with_level(cfg, CheckLevel::Standard)
    }

    /// Builds the loop with an explicit verification level: `Standard` is
    /// [`ClosedLoopSim::new`]; `Prove` additionally discharges the `A0xx`
    /// proof obligations and refuses to construct when any is refuted.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::CheckFailed`] carrying the combined
    /// diagnostic report when the static pass (or, at `Prove` level, the
    /// prover) finds errors, or [`crate::CoreError::InvalidConfig`] when
    /// plain validation fails.
    pub fn new_with_level(cfg: OscillatorConfig, level: CheckLevel) -> Result<Self> {
        let mut report = cfg.check();
        if level == CheckLevel::Prove {
            report.merge(cfg.prove().report);
        }
        if report.has_errors() {
            return Err(crate::CoreError::CheckFailed(report));
        }
        Self::new_unchecked(cfg)
    }

    /// Builds the loop without the static verification pass (escape hatch
    /// for fault-injection studies that construct deliberately out-of-spec
    /// configurations). Basic validation still applies.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::InvalidConfig`] when the configuration
    /// fails validation.
    pub fn new_unchecked(cfg: OscillatorConfig) -> Result<Self> {
        cfg.validate()?;
        let driver = GmDriver::new(cfg.driver_shape, 0.0);
        let model = OscillatorModel::new(cfg.tank, driver, cfg.vref).with_rails(cfg.vdd);
        let envelope = EnvelopeModel::new(cfg.tank, driver).with_clamp(cfg.rail_clamp());
        let det_dt = match cfg.fidelity {
            Fidelity::Cycle => cfg.dt(),
            // Multi-rate starts (and mostly lives) on the envelope grid.
            Fidelity::Envelope | Fidelity::MultiRate => {
                cfg.tick_period / cfg.envelope_substeps as f64
            }
        };
        let detector = AmplitudeDetector::new(
            cfg.target_peak(),
            cfg.window_rel_width,
            cfg.detector_tau,
            det_dt,
            cfg.vref,
        );
        let fsm = RegulationFsm::new(Code::POR_PRESET, cfg.tick_period);
        let startup = StartupSequencer::new(cfg.nvm_code, cfg.nvm_delay, cfg.tick_period);
        let mut sim = ClosedLoopSim {
            model,
            envelope,
            detector,
            fsm,
            startup,
            t: 0.0,
            state: OscillatorState::at_rest(cfg.vref),
            amp: 0.5e-3,
            nvm_applied: false,
            driver_dead: false,
            trace: SimTrace::default(),
            record_stride: (cfg.steps_per_period / 8).max(1),
            noise_rng: StdRng::seed_from_u64(cfg.noise_seed),
            tracer: Trace::off(),
            regulating_logged: false,
            rate: MultiRateController::new(cfg.multirate),
            live: RateMode::Envelope,
            code_stepped_last_tick: false,
            cfg,
        };
        sim.refresh_waveform_dt();
        sim.apply_code(Code::POR_PRESET);
        Ok(sim)
    }

    /// Attaches a structured-event trace; pass [`Trace::off`] to detach.
    /// When attached before the first tick, the POR-preset startup phase
    /// is logged retroactively so the stream starts at phase zero.
    pub fn set_trace(&mut self, tracer: Trace) {
        self.tracer = tracer;
        if self.trace.tick_times.is_empty() && !self.nvm_applied {
            self.tracer.emit(|| TraceEvent::StartupPhase {
                tick: 0,
                phase: PhaseId::PorPreset,
                code: Code::POR_PRESET.value(),
            });
        }
    }

    /// Builder-style [`ClosedLoopSim::set_trace`].
    #[must_use]
    pub fn with_trace(mut self, tracer: Trace) -> Self {
        self.set_trace(tracer);
        self
    }

    /// Keeps the waveform decimation metadata in lock-step with the ODE
    /// step and the record stride. The ODE step is a function of the tank
    /// (`f0`), so a mid-run tank swap changes it too.
    fn refresh_waveform_dt(&mut self) {
        self.trace.waveform_dt = self.cfg.dt() * self.record_stride as f64;
    }

    /// Sets the cycle-mode waveform decimation (record every `stride`-th
    /// ODE sample) and updates the trace's `waveform_dt` to match.
    ///
    /// # Panics
    ///
    /// Panics when `stride` is zero.
    pub fn set_record_stride(&mut self, stride: usize) {
        assert!(stride > 0, "record stride must be positive");
        self.record_stride = stride;
        self.refresh_waveform_dt();
    }

    /// Cycle-mode waveform decimation stride.
    pub fn record_stride(&self) -> usize {
        self.record_stride
    }

    /// The configuration.
    pub fn config(&self) -> &OscillatorConfig {
        &self.cfg
    }

    /// Current simulation time, seconds.
    pub fn time(&self) -> f64 {
        self.t
    }

    /// Current regulation code.
    pub fn code(&self) -> Code {
        self.fsm.code()
    }

    /// Number of regulation ticks executed — the discrete clock trace
    /// events are stamped with.
    pub fn ticks(&self) -> u64 {
        self.fsm.ticks()
    }

    /// Whether the regulation loop is (latched) saturated at the top code
    /// while still below the window — the condition the low-amplitude
    /// safety detector samples. See [`RegulationFsm::saturated_high`].
    pub fn saturated_high(&self) -> bool {
        self.fsm.saturated_high()
    }

    /// Whether the regulation loop is (latched) saturated at the bottom
    /// code while still above the window.
    pub fn saturated_low(&self) -> bool {
        self.fsm.saturated_low()
    }

    /// Current per-pin peak amplitude estimate.
    pub fn amplitude_peak(&self) -> f64 {
        match self.cfg.fidelity {
            Fidelity::Envelope => self.amp,
            Fidelity::Cycle => self.detector.vdc1() / RECTIFIER_GAIN,
            Fidelity::MultiRate => match self.live {
                RateMode::Envelope => self.amp,
                RateMode::Cycle => self.detector.vdc1() / RECTIFIER_GAIN,
            },
        }
    }

    /// Multi-rate per-mode work statistics (all-zero in the single-fidelity
    /// modes — no hand-offs ever happen there).
    pub fn mode_stats(&self) -> ModeStats {
        self.rate.stats()
    }

    /// Current differential peak-to-peak amplitude estimate.
    pub fn amplitude_vpp(&self) -> f64 {
        4.0 * self.amplitude_peak()
    }

    /// Detector output `VDC1`.
    pub fn vdc1(&self) -> f64 {
        self.detector.vdc1()
    }

    /// Recorded history.
    pub fn trace(&self) -> &SimTrace {
        &self.trace
    }

    /// Replaces the tank mid-run (component drift / fault injection).
    /// Any previously injected pin leaks are reset.
    pub fn inject_tank(&mut self, tank: LcTank) {
        let driver = *self.model.driver();
        self.model = OscillatorModel::new(tank, driver, self.cfg.vref).with_rails(self.cfg.vdd);
        self.envelope = EnvelopeModel::new(tank, driver).with_clamp(self.cfg.rail_clamp());
        self.cfg.tank = tank;
        // The ODE step follows the tank's resonance frequency; the
        // decimation metadata must follow or cycle-mode waveform
        // timestamps recorded after the swap are wrong.
        self.refresh_waveform_dt();
        self.trace
            .events
            .push(SimEvent::FaultInjected { t: self.t });
        self.emit_fault_injected();
    }

    /// Overrides the regulation code immediately (safe-state reaction or
    /// test stimulus); the loop keeps regulating from there.
    pub fn force_code(&mut self, code: Code) {
        self.fsm.set_code(code);
        self.apply_code(code);
        self.arm_guard();
    }

    /// Multi-rate only: reports a guard event to the hand-off controller.
    /// The actual envelope→cycle hand-off is deferred to the next fidelity
    /// decision point (tick start), so external events between ticks —
    /// fault injections, forced codes — are safe to report from anywhere.
    fn arm_guard(&mut self) {
        if self.cfg.fidelity == Fidelity::MultiRate {
            self.rate.arm();
        }
    }

    /// Kills both driver stages (hard internal failure).
    pub fn inject_driver_failure(&mut self) {
        self.driver_dead = true;
        self.model.set_driver_enabled(false);
        self.envelope.set_i_max(0.0);
        self.trace
            .events
            .push(SimEvent::FaultInjected { t: self.t });
        self.emit_fault_injected();
    }

    fn emit_fault_injected(&mut self) {
        let tick = self.fsm.ticks();
        self.tracer.emit(|| TraceEvent::FaultInjected { tick });
        self.arm_guard();
    }

    /// Adds a leak conductance at a pin (0 = LC1, 1 = LC2); cycle mode only
    /// affects the waveform, envelope mode folds it into extra loss.
    ///
    /// A leak approaching `ω₀·C` overdamps the pin node entirely — the
    /// resonant mode disappears and no driver transconductance can sustain
    /// it; the envelope equivalent is made correspondingly extreme.
    pub fn inject_pin_leak(&mut self, pin: usize, siemens: f64) {
        self.model.set_pin_leak(pin, siemens);
        // Envelope equivalent: a small pin leak g appears as g/2 of extra
        // differential loss; fold into Rs via the critical-gm relation.
        let tank = self.cfg.tank;
        let quench = 0.5 * tank.omega0() * tank.c_avg().value();
        let extra_gm = if siemens >= quench {
            // Overdamped: no oscillation regardless of drive.
            1e6
        } else {
            siemens / 2.0
        };
        let gm0 = tank.rs().value() * tank.c_avg().value() / tank.l().value();
        let scale = (gm0 + extra_gm) / gm0;
        let faulted = tank.with_rs(lcosc_num::units::Ohms(tank.rs().value() * scale));
        let driver = *self.model.driver();
        self.envelope = EnvelopeModel::new(faulted, driver).with_clamp(self.cfg.rail_clamp());
        self.trace
            .events
            .push(SimEvent::FaultInjected { t: self.t });
        self.emit_fault_injected();
    }

    fn apply_code(&mut self, code: Code) {
        let i_max = if self.driver_dead {
            0.0
        } else {
            self.cfg.dac.current(code).value()
        };
        self.model.set_i_max(i_max);
        self.envelope.set_i_max(i_max);
        // The OscE bus also enables more parallel Gm stages at higher codes
        // (Table 1's "Active Gm stages" column): the small-signal
        // transconductance scales with the stage weight.
        let weight = lcosc_dac::ControlWord::encode(code).gm_weight() as f64;
        if let crate::gm_driver::DriverShape::LinearSaturate { gm }
        | crate::gm_driver::DriverShape::Tanh { gm } = self.cfg.driver_shape
        {
            self.model.set_gm(gm * weight);
            self.envelope.set_gm(gm * weight);
        }
    }

    /// Runs one regulation tick (1 ms of simulated time); returns the
    /// window state the FSM acted on.
    pub fn tick(&mut self) -> WindowState {
        let tick_end = self.t + self.cfg.tick_period;
        let mut window = WindowState::Below;
        match self.cfg.fidelity {
            Fidelity::Envelope => {
                let h = self.cfg.tick_period / self.cfg.envelope_substeps as f64;
                for _ in 0..self.cfg.envelope_substeps {
                    self.advance_startup(self.t + h);
                    self.amp = self.envelope.step(self.amp, h);
                    window = self.detector.update_from_amplitude(self.amp);
                    self.t += h;
                }
            }
            Fidelity::Cycle => {
                window = self.cycle_steps(tick_end, true).0;
            }
            Fidelity::MultiRate => {
                window = self.multirate_dynamics(tick_end);
            }
        }

        // Measurement noise perturbs the comparator decision (comparator
        // offset drift, coupled interference); the window must absorb it.
        if self.cfg.detector_noise_rms > 0.0 {
            let u1: f64 = 1.0 - self.noise_rng.gen::<f64>();
            let u2: f64 = self.noise_rng.gen();
            let gauss = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let noisy = self.detector.vdc1() + self.cfg.detector_noise_rms * gauss;
            window = self.detector.window().classify(noisy);
        }

        // Regulation acts from the first tick boundary onwards.
        let before = self.fsm.code();
        let sat_before = (self.fsm.saturated_low(), self.fsm.saturated_high());
        let action = self.fsm.tick(window);
        let after = self.fsm.code();
        let tick = self.fsm.ticks();
        if !self.regulating_logged {
            self.regulating_logged = true;
            self.tracer.emit(|| TraceEvent::StartupPhase {
                tick,
                phase: PhaseId::Regulating,
                code: before.value(),
            });
        }
        self.tracer.emit(|| TraceEvent::CodeStep {
            tick,
            old: before.value(),
            new: after.value(),
            action: step_action(action),
            window: window_class(window),
        });
        if after != before {
            self.trace.events.push(SimEvent::CodeChanged {
                t: self.t,
                from: before,
                to: after,
            });
            self.apply_code(after);
            if self.cfg.fidelity == Fidelity::MultiRate {
                self.rate.on_code_step(before, after);
            }
        }
        self.code_stepped_last_tick = after != before;
        // The SimEvent stream keeps its historical cadence (one event per
        // tick actively pinned at the top stop); the latched FSM flag is
        // what the safety path samples.
        if window == WindowState::Below && after == Code::MAX {
            self.trace
                .events
                .push(SimEvent::SaturatedHigh { t: self.t });
        }
        if self.fsm.saturated_high() && !sat_before.1 {
            self.tracer
                .emit(|| TraceEvent::Saturated { tick, high: true });
            self.arm_guard();
        }
        if self.fsm.saturated_low() && !sat_before.0 {
            self.tracer
                .emit(|| TraceEvent::Saturated { tick, high: false });
            self.arm_guard();
        }
        if self.cfg.fidelity == Fidelity::MultiRate {
            self.close_multirate_tick();
        }

        self.trace.tick_times.push(self.t);
        self.trace.codes.push(self.fsm.code().value());
        self.trace.vdc1.push(self.detector.vdc1());
        self.trace.amplitudes.push(self.amplitude_peak());
        window
    }

    /// Applies startup-forced codes when crossing the NVM-load instant.
    fn advance_startup(&mut self, t_next: f64) {
        if !self.nvm_applied {
            if let Some(forced) = self.startup.forced_code(t_next) {
                if forced != self.fsm.code() {
                    self.fsm.set_code(forced);
                    self.apply_code(forced);
                    if forced == self.startup.nvm_code() {
                        self.nvm_applied = true;
                        self.trace.events.push(SimEvent::NvmLoaded {
                            t: t_next,
                            code: forced,
                        });
                        let tick = self.fsm.ticks();
                        self.tracer.emit(|| TraceEvent::StartupPhase {
                            tick,
                            phase: PhaseId::NvmLoaded,
                            code: forced.value(),
                        });
                    }
                }
            }
        }
    }

    /// Multi-rate: runs one tick's dynamics, handing fidelity back and
    /// forth around events. Envelope substeps by default; a window-state
    /// crossing is localized by bisection inside its substep and the rest
    /// of the tick runs cycle-accurately; a tick entered with the guard
    /// armed runs cycle-accurately throughout.
    fn multirate_dynamics(&mut self, tick_end: f64) -> WindowState {
        // Perform a hand-off decided since the last fidelity decision
        // point (fault injection between ticks, a segment-boundary code
        // step at the previous tick boundary).
        if self.rate.mode() == RateMode::Cycle && self.live == RateMode::Envelope {
            self.enter_cycle_from_envelope();
        }
        // While the loop is actively ramping, don't let the envelope model
        // decide a tick that starts close to a comparator threshold.
        if self.live == RateMode::Envelope && self.code_stepped_last_tick && self.near_threshold() {
            self.rate.arm();
            self.enter_cycle_from_envelope();
        }
        if self.live == RateMode::Cycle {
            let (window, class_changed) = self.run_cycle_span(tick_end);
            if class_changed {
                self.rate.arm();
            }
            return window;
        }
        // Envelope substeps with mid-tick event localization.
        let substeps = self.cfg.envelope_substeps;
        let h = self.cfg.tick_period / substeps as f64;
        let mut window = self.detector.state();
        for _ in 0..substeps {
            let class_before = self.detector.state();
            let a_before = self.amp;
            let det_before = self.detector.clone();
            self.advance_startup(self.t + h);
            self.amp = self.envelope.step(self.amp, h);
            window = self.detector.update_from_amplitude(self.amp);
            self.t += h;
            if window != class_before {
                // The crossing is somewhere inside this substep: rewind,
                // localize it by bisection, commit the partial substep and
                // hand the rest of the tick to cycle fidelity.
                self.amp = a_before;
                self.detector = det_before;
                self.t -= h;
                let s = self.bisect_crossing(a_before, h, class_before);
                self.detector.retime(s);
                self.amp = self.envelope.step(a_before, s);
                // Advance the filter over the partial substep; the tick's
                // classification comes from the cycle span that follows.
                self.detector.update_from_amplitude(self.amp);
                self.t += s;
                self.rate.note_bisection();
                self.rate.arm();
                self.enter_cycle_from_envelope();
                let (w, _) = self.run_cycle_span(tick_end);
                return w;
            }
        }
        window
    }

    /// Whether the detector output starts this tick within the boundary
    /// margin of either comparator threshold.
    fn near_threshold(&self) -> bool {
        let margin = self.cfg.multirate.boundary_margin;
        if margin <= 0.0 {
            return false;
        }
        let vdc1 = self.detector.vdc1();
        let w = self.detector.window();
        let band = margin * 0.5 * (w.low() + w.high());
        (vdc1 - w.low()).abs() <= band || (vdc1 - w.high()).abs() <= band
    }

    /// Finds where inside an envelope substep of width `h` the window
    /// classification first leaves `class0`, by bisection on the substep
    /// fraction (`VDC1` moves one way through a substep, so 20 halvings
    /// localize the crossing to h/10⁶). Returns the partial-step size to
    /// commit — the earliest fraction known to have crossed.
    fn bisect_crossing(&self, a0: f64, h: f64, class0: WindowState) -> f64 {
        let mut lo = 0.0_f64;
        let mut hi = h;
        for _ in 0..20 {
            let mid = 0.5 * (lo + hi);
            if !(mid > lo && mid < hi) {
                break;
            }
            let mut det = self.detector.clone();
            det.retime(mid);
            let class = det.update_from_amplitude(self.envelope.step(a0, mid));
            if class == class0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }

    /// Runs cycle-accurate dynamics up to `t_end`; returns the final window
    /// classification and whether it changed inside the span. The envelope
    /// amplitude keeps shadowing the span — envelope re-entry compares it
    /// against the cycle-measured amplitude.
    fn run_cycle_span(&mut self, t_end: f64) -> (WindowState, bool) {
        let span = t_end - self.t;
        if span <= 0.0 {
            return (self.detector.state(), false);
        }
        let outcome = self.cycle_steps(t_end, false);
        self.amp = self.envelope.step(self.amp, span);
        outcome
    }

    /// The cycle-fidelity hot loop: steps the oscillator ODE and the
    /// detector on the ODE grid up to `t_end`. Returns the last window
    /// classification (the entry class if no step runs) and whether any
    /// step left the entry class. With `record`, every `record_stride`-th
    /// `v1 − v2` sample is appended to the waveform.
    fn cycle_steps(&mut self, t_end: f64, record: bool) -> (WindowState, bool) {
        let dt = self.cfg.dt();
        if record {
            // Reserve the recorded samples up front so the push below never
            // reallocates mid-loop (the transient stepping machinery is
            // allocation-free after warm-up; keep the waveform recording
            // that way too).
            let steps = ((t_end - self.t) / dt).ceil().max(0.0) as usize;
            self.trace
                .waveform_vdiff
                .reserve(steps / self.record_stride + 1);
        }
        let entry_class = self.detector.state();
        let mut window = entry_class;
        let mut changed = false;
        let mut k = 0usize;
        while self.t < t_end {
            self.advance_startup(self.t + dt);
            self.model.step(&mut self.state, dt);
            window = self.detector.update(self.state.v1, self.state.v2);
            self.t += dt;
            changed |= window != entry_class;
            if record && k.is_multiple_of(self.record_stride) {
                self.trace.waveform_vdiff.push(self.state.v_diff());
            }
            k += 1;
        }
        (window, changed)
    }

    /// Envelope→cycle hand-off: seeds the oscillator at the peak of the
    /// differential swing implied by the envelope amplitude (each pin's
    /// share is inverse to its capacitance — the same series current flows
    /// through both), and re-discretizes the detector onto the ODE grid.
    fn enter_cycle_from_envelope(&mut self) {
        let c1 = self.cfg.tank.c1().value();
        let c2 = self.cfg.tank.c2().value();
        let a = self.amp;
        self.state = OscillatorState {
            v1: self.cfg.vref + 2.0 * a * c2 / (c1 + c2),
            v2: self.cfg.vref - 2.0 * a * c1 / (c1 + c2),
            il: 0.0,
        };
        self.detector.retime(self.cfg.dt());
        self.live = RateMode::Cycle;
    }

    /// Cycle→envelope hand-off: adopts the cycle-measured amplitude as the
    /// envelope state (re-calibrating away any envelope model drift) and
    /// re-discretizes the detector onto the envelope substep grid.
    fn enter_envelope_from_cycle(&mut self) {
        self.amp = (self.detector.vdc1() / RECTIFIER_GAIN).max(0.0);
        self.detector
            .retime(self.cfg.tick_period / self.cfg.envelope_substeps as f64);
        self.live = RateMode::Envelope;
    }

    /// Multi-rate tick epilogue: computes the envelope-shadow agreement and
    /// lets the controller decide envelope re-entry. The absolute floor on
    /// the comparison scale keeps a dead oscillator (both amplitudes ≈ 0)
    /// from failing a relative test against noise-level values.
    fn close_multirate_tick(&mut self) {
        let agree = if self.rate.mode() == RateMode::Cycle {
            let meas = (self.detector.vdc1() / RECTIFIER_GAIN).max(0.0);
            let floor = 0.02 * self.cfg.target_peak();
            (self.amp - meas).abs() <= self.cfg.multirate.handoff_rel_tol * meas.max(floor)
        } else {
            true
        };
        if self.rate.finish_tick(agree) {
            self.enter_envelope_from_cycle();
        }
    }

    /// Runs `n` ticks.
    pub fn run_ticks(&mut self, n: usize) {
        for _ in 0..n {
            self.tick();
        }
    }

    /// Runs until the code settles (stays within a ±1 band for 6 ticks) or
    /// 300 ticks elapse.
    ///
    /// # Errors
    ///
    /// Currently infallible beyond construction; returns `Ok` with
    /// `settled = false` when the loop never stabilizes (e.g. under an
    /// injected fault).
    pub fn run_until_settled(&mut self) -> Result<SettleReport> {
        const HOLD: usize = 6;
        const MAX_TICKS: usize = 300;
        let mut executed = 0usize;
        let mut settled = false;
        while executed < MAX_TICKS {
            self.tick();
            executed += 1;
            let codes = &self.trace.codes;
            if codes.len() >= HOLD + 2 {
                let tail = &codes[codes.len() - HOLD..];
                if let (Some(&lo), Some(&hi)) = (tail.iter().min(), tail.iter().max()) {
                    if hi - lo <= 1 {
                        settled = true;
                        break;
                    }
                }
            }
        }
        let cond = crate::condition::OscillationCondition::new(self.cfg.tank);
        let i_max = self.cfg.dac.current(self.fsm.code()).value();
        Ok(SettleReport {
            settled,
            ticks: executed,
            final_code: self.fsm.code(),
            final_vpp: self.amplitude_vpp(),
            supply_current: cond.supply_current(lcosc_num::units::Amps(i_max)).value(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_loop_settles_near_recommended_code() {
        let cfg = OscillatorConfig::fast_test();
        let expected = cfg.recommended_nvm_code();
        let mut sim = ClosedLoopSim::new(cfg).unwrap();
        let report = sim.run_until_settled().unwrap();
        assert!(report.settled, "did not settle: {report:?}");
        let d = (report.final_code.value() as i32 - expected.value() as i32).abs();
        assert!(
            d <= 2,
            "settled at {} vs expected {}",
            report.final_code,
            expected
        );
    }

    #[test]
    fn settled_amplitude_is_within_window() {
        let cfg = OscillatorConfig::fast_test();
        let target = cfg.target_vpp;
        let width = cfg.window_rel_width;
        let mut sim = ClosedLoopSim::new(cfg).unwrap();
        let report = sim.run_until_settled().unwrap();
        assert!(
            (report.final_vpp / target - 1.0).abs() < width,
            "vpp {} vs target {target}",
            report.final_vpp
        );
    }

    #[test]
    fn startup_sequence_events_in_order() {
        let cfg = OscillatorConfig::fast_test();
        let mut sim = ClosedLoopSim::new(cfg).unwrap();
        sim.run_ticks(3);
        let events = &sim.trace().events;
        let nvm = events.iter().find_map(|e| match e {
            SimEvent::NvmLoaded { t, code } => Some((*t, *code)),
            _ => None,
        });
        let (t_nvm, code_nvm) = nvm.expect("nvm event logged");
        assert!(t_nvm <= 10e-6, "nvm at {t_nvm}");
        assert_eq!(code_nvm, sim.config().nvm_code);
    }

    #[test]
    fn steady_state_hunting_is_bounded_by_one_code() {
        let cfg = OscillatorConfig::fast_test();
        let mut sim = ClosedLoopSim::new(cfg).unwrap();
        sim.run_ticks(60);
        let codes = &sim.trace().codes[30..];
        let lo = *codes.iter().min().unwrap();
        let hi = *codes.iter().max().unwrap();
        assert!(hi - lo <= 1, "hunting range {lo}..{hi}");
    }

    #[test]
    fn driver_failure_kills_amplitude_and_saturates_code() {
        let cfg = OscillatorConfig::fast_test();
        let mut sim = ClosedLoopSim::new(cfg).unwrap();
        sim.run_until_settled().unwrap();
        sim.inject_driver_failure();
        sim.run_ticks(150);
        assert!(
            sim.amplitude_vpp() < 0.05,
            "amplitude {}",
            sim.amplitude_vpp()
        );
        // The loop keeps asking for more current until it saturates high.
        assert_eq!(sim.code(), Code::MAX);
        assert!(sim
            .trace()
            .events
            .iter()
            .any(|e| matches!(e, SimEvent::SaturatedHigh { .. })));
    }

    #[test]
    fn rs_drift_raises_regulated_code() {
        let cfg = OscillatorConfig::fast_test();
        let tank = cfg.tank;
        let mut sim = ClosedLoopSim::new(cfg).unwrap();
        let before = sim.run_until_settled().unwrap().final_code.value();
        // Double the losses: the loop must roughly double the current.
        sim.inject_tank(tank.with_rs(lcosc_num::units::Ohms(tank.rs().value() * 2.0)));
        sim.run_ticks(120);
        let after = sim.code().value();
        assert!(after > before + 5, "code {before} -> {after}");
    }

    #[test]
    fn cycle_fidelity_settles_too() {
        let mut cfg = OscillatorConfig::fast_test();
        cfg.fidelity = Fidelity::Cycle;
        cfg.tick_period = 0.2e-3; // keep the debug-build test quick
        cfg.detector_tau = 15e-6;
        let expected = cfg.recommended_nvm_code();
        let mut sim = ClosedLoopSim::new(cfg).unwrap();
        sim.run_ticks(12);
        let d = (sim.code().value() as i32 - expected.value() as i32).abs();
        assert!(d <= 3, "cycle mode at {} vs {}", sim.code(), expected);
        assert!(!sim.trace().waveform_vdiff.is_empty());
    }

    #[test]
    fn cycle_and_envelope_agree_on_final_amplitude() {
        let mut cyc_cfg = OscillatorConfig::fast_test();
        cyc_cfg.fidelity = Fidelity::Cycle;
        cyc_cfg.tick_period = 0.2e-3;
        cyc_cfg.detector_tau = 15e-6;
        let mut env_cfg = OscillatorConfig::fast_test();
        env_cfg.tick_period = 0.2e-3;
        env_cfg.detector_tau = 15e-6;
        let mut cyc = ClosedLoopSim::new(cyc_cfg).unwrap();
        let mut env = ClosedLoopSim::new(env_cfg).unwrap();
        cyc.run_ticks(12);
        env.run_ticks(12);
        let (a, b) = (cyc.amplitude_vpp(), env.amplitude_vpp());
        assert!((a / b - 1.0).abs() < 0.1, "cycle {a} vs envelope {b}");
    }

    #[test]
    fn trace_records_every_tick() {
        let mut sim = ClosedLoopSim::new(OscillatorConfig::fast_test()).unwrap();
        sim.run_ticks(10);
        let tr = sim.trace();
        assert_eq!(tr.tick_times.len(), 10);
        assert_eq!(tr.codes.len(), 10);
        assert_eq!(tr.vdc1.len(), 10);
        assert_eq!(tr.amplitudes.len(), 10);
        // Tick times are uniform.
        let dt = tr.tick_times[1] - tr.tick_times[0];
        for w in tr.tick_times.windows(2) {
            assert!((w[1] - w[0] - dt).abs() < 1e-12);
        }
    }

    #[test]
    fn noise_below_window_margin_does_not_destabilize() {
        // Window half-width = 7.5 % of VDC1 target; noise at 1/5 of that
        // must leave the loop settled with bounded hunting.
        let mut cfg = OscillatorConfig::fast_test();
        let vdc_target = crate::detector::RECTIFIER_GAIN * cfg.target_peak();
        cfg.detector_noise_rms = 0.015 * vdc_target;
        cfg.noise_seed = 42;
        let mut sim = ClosedLoopSim::new(cfg).unwrap();
        sim.run_ticks(120);
        let codes = &sim.trace().codes[60..];
        let lo = *codes.iter().min().unwrap();
        let hi = *codes.iter().max().unwrap();
        assert!(hi - lo <= 2, "noisy hunting range {lo}..{hi}");
    }

    #[test]
    fn noise_wider_than_window_causes_hunting() {
        let mut cfg = OscillatorConfig::fast_test();
        let vdc_target = crate::detector::RECTIFIER_GAIN * cfg.target_peak();
        cfg.detector_noise_rms = 0.25 * vdc_target; // swamps the ±7.5 % window
        cfg.noise_seed = 42;
        let mut sim = ClosedLoopSim::new(cfg).unwrap();
        sim.run_ticks(200);
        let activity = crate::measure::steady_state_activity(&sim.trace().codes);
        assert!(activity > 0.3, "activity {activity}");
    }

    #[test]
    fn noise_runs_are_reproducible() {
        let mut cfg = OscillatorConfig::fast_test();
        cfg.detector_noise_rms = 0.01;
        cfg.noise_seed = 7;
        let mut a = ClosedLoopSim::new(cfg.clone()).unwrap();
        let mut b = ClosedLoopSim::new(cfg).unwrap();
        a.run_ticks(50);
        b.run_ticks(50);
        assert_eq!(a.trace().codes, b.trace().codes);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = OscillatorConfig::fast_test();
        cfg.window_rel_width = 0.01;
        assert!(ClosedLoopSim::new(cfg).is_err());
    }

    #[test]
    fn check_failure_carries_the_full_report() {
        let mut cfg = OscillatorConfig::fast_test();
        cfg.window_rel_width = 0.01;
        match ClosedLoopSim::new(cfg.clone()) {
            Err(crate::CoreError::CheckFailed(report)) => {
                assert!(report.contains("S001"), "{}", report.render_human());
            }
            other => panic!("expected CheckFailed, got {other:?}"),
        }
        // The escape hatch skips the static pass but still validates.
        assert!(matches!(
            ClosedLoopSim::new_unchecked(cfg),
            Err(crate::CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn unchecked_constructor_accepts_valid_configs() {
        assert!(ClosedLoopSim::new_unchecked(OscillatorConfig::fast_test()).is_ok());
    }

    #[test]
    fn prove_level_accepts_the_presets() {
        for cfg in [
            OscillatorConfig::datasheet_3mhz(),
            OscillatorConfig::low_q(),
            OscillatorConfig::fast_test(),
        ] {
            let sim = ClosedLoopSim::new_with_level(cfg, CheckLevel::Prove);
            assert!(sim.is_ok(), "{:?}", sim.err());
        }
    }

    #[test]
    fn prove_level_rejects_an_unprovable_window() {
        // 8 % clears plain validation (> 6.25 % ideal max step) and the
        // concrete S001 check, but is narrower than the ≈11 % worst-case
        // step over the mismatch box — only the prover catches it.
        let mut cfg = OscillatorConfig::fast_test();
        cfg.window_rel_width = 0.08;
        assert!(ClosedLoopSim::new(cfg.clone()).is_ok());
        match ClosedLoopSim::new_with_level(cfg, CheckLevel::Prove) {
            Err(crate::CoreError::CheckFailed(report)) => {
                assert!(report.contains("A001"), "{}", report.render_human());
            }
            other => panic!("expected CheckFailed, got {other:?}"),
        }
    }

    fn cycle_cfg() -> OscillatorConfig {
        let mut cfg = OscillatorConfig::fast_test();
        cfg.fidelity = Fidelity::Cycle;
        cfg.tick_period = 0.2e-3;
        cfg.detector_tau = 15e-6;
        cfg
    }

    #[test]
    fn waveform_dt_follows_tank_swap() {
        // Regression: waveform_dt used to be computed once at construction;
        // a mid-run tank swap changes the ODE step (dt tracks f0) and left
        // the decimation metadata stale.
        let mut sim = ClosedLoopSim::new(cycle_cfg()).unwrap();
        let stride = sim.record_stride() as f64;
        assert!((sim.trace().waveform_dt / (sim.config().dt() * stride) - 1.0).abs() < 1e-12);
        // 4x the inductance halves f0 and doubles dt.
        let tank = LcTank::with_q(
            lcosc_num::units::Henries::from_micro(100.0),
            lcosc_num::units::Farads::from_nano(2.0),
            10.0,
        )
        .unwrap();
        sim.inject_tank(tank);
        assert!(
            (sim.trace().waveform_dt / (sim.config().dt() * stride) - 1.0).abs() < 1e-12,
            "stale waveform_dt {} vs dt*stride {}",
            sim.trace().waveform_dt,
            sim.config().dt() * stride
        );
    }

    #[test]
    fn waveform_dt_follows_stride_change() {
        let mut sim = ClosedLoopSim::new(cycle_cfg()).unwrap();
        let dt = sim.config().dt();
        sim.set_record_stride(3);
        assert_eq!(sim.record_stride(), 3);
        assert!((sim.trace().waveform_dt / (dt * 3.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_stride_is_rejected() {
        let mut sim = ClosedLoopSim::new(cycle_cfg()).unwrap();
        sim.set_record_stride(0);
    }

    fn multirate_cfg() -> OscillatorConfig {
        let mut cfg = cycle_cfg();
        cfg.fidelity = Fidelity::MultiRate;
        cfg
    }

    #[test]
    fn multirate_reproduces_the_cycle_code_trajectory() {
        // The whole point of the multi-rate engine: the discrete outcomes
        // (per-tick codes) match a full cycle-fidelity run exactly.
        let mut mr = ClosedLoopSim::new(multirate_cfg()).unwrap();
        let mut cyc = ClosedLoopSim::new(cycle_cfg()).unwrap();
        mr.run_ticks(40);
        cyc.run_ticks(40);
        assert_eq!(mr.trace().codes, cyc.trace().codes);
    }

    #[test]
    fn multirate_spends_most_ticks_in_envelope_mode() {
        let mut sim = ClosedLoopSim::new(multirate_cfg()).unwrap();
        sim.run_ticks(60);
        let stats = sim.mode_stats();
        assert!(stats.mode_switches >= 2, "{stats:?}");
        assert!(stats.envelope_permille() >= 600, "{stats:?}");
        assert_eq!(stats.envelope_ticks + stats.cycle_ticks, 60);
    }

    #[test]
    fn multirate_fault_collapse_matches_cycle_saturation_tick() {
        let mut mr = ClosedLoopSim::new(multirate_cfg()).unwrap();
        let mut cyc = ClosedLoopSim::new(cycle_cfg()).unwrap();
        // 120 post-fault ticks: enough to ramp from the settled code
        // (≈36 on the fast-test tank) all the way to the top stop.
        for sim in [&mut mr, &mut cyc] {
            sim.run_until_settled().unwrap();
            sim.inject_driver_failure();
            sim.run_ticks(120);
        }
        assert_eq!(mr.code(), Code::MAX);
        assert_eq!(mr.code(), cyc.code());
        assert_eq!(mr.saturated_high(), cyc.saturated_high());
        // A fault run still spends the quiet saturated tail in envelope
        // mode — that's where the long-horizon speedup comes from.
        let stats = mr.mode_stats();
        assert!(stats.envelope_permille() >= 500, "{stats:?}");
    }

    #[test]
    fn single_fidelity_modes_report_zero_mode_stats() {
        let mut sim = ClosedLoopSim::new(OscillatorConfig::fast_test()).unwrap();
        sim.run_ticks(20);
        assert_eq!(sim.mode_stats(), crate::multirate::ModeStats::default());
    }

    #[test]
    fn trace_stream_has_one_code_step_per_tick_and_ordered_phases() {
        use lcosc_trace::{MemorySink, PhaseId, TraceEvent};
        use std::sync::Arc;

        let sink = Arc::new(MemorySink::new());
        let mut sim = ClosedLoopSim::new(OscillatorConfig::fast_test())
            .unwrap()
            .with_trace(lcosc_trace::Trace::new(sink.clone()));
        sim.run_ticks(10);
        let events = sink.snapshot();
        let steps: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::CodeStep { .. }))
            .collect();
        assert_eq!(steps.len(), 10, "one CodeStep per tick, holds included");
        let phases: Vec<PhaseId> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::StartupPhase { phase, .. } => Some(*phase),
                _ => None,
            })
            .collect();
        assert_eq!(
            phases,
            vec![PhaseId::PorPreset, PhaseId::NvmLoaded, PhaseId::Regulating]
        );
        // The stream mirrors the recorded per-tick code history.
        let final_code = events
            .iter()
            .rev()
            .find_map(|e| match e {
                TraceEvent::CodeStep { new, .. } => Some(*new),
                _ => None,
            })
            .unwrap();
        assert_eq!(final_code, sim.code().value());
    }

    #[test]
    fn disabled_trace_changes_nothing() {
        let cfg = OscillatorConfig::fast_test();
        let mut plain = ClosedLoopSim::new(cfg.clone()).unwrap();
        let sink = std::sync::Arc::new(lcosc_trace::MemorySink::new());
        let mut traced = ClosedLoopSim::new(cfg)
            .unwrap()
            .with_trace(lcosc_trace::Trace::new(sink));
        plain.run_ticks(40);
        traced.run_ticks(40);
        assert_eq!(plain.trace().codes, traced.trace().codes);
        assert_eq!(plain.trace().vdc1, traced.trace().vdc1);
    }
}
