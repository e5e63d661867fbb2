//! Multi-rate fidelity hand-off (envelope ↔ cycle co-simulation).
//!
//! Long mission profiles spend almost all of their time in quiet
//! regulation holds where the averaged envelope model is faithful; the
//! discrete outcomes (window classifications, DAC code steps, detector
//! trips) are only ever decided in short windows around *events*. The
//! controller in this module is the hand-off state machine: it runs the
//! closed loop in envelope fidelity by default, drops to full cycle
//! fidelity for a guard window around each event the trace stream
//! identifies — fault injections, DAC code steps near segment
//! boundaries, detector window-state changes — and re-enters envelope
//! fidelity once the envelope shadow and the cycle-measured amplitude
//! agree within tolerance.
//!
//! Everything here is deterministic: transitions are pure functions of
//! the simulation state, so multi-rate runs are byte-stable and the
//! differential harness can compare them 1:1 against full-fidelity runs.

use lcosc_dac::Code;

/// Maximum relative disagreement between the envelope shadow and the
/// cycle-measured amplitude at which envelope re-entry is allowed.
pub(crate) const HANDOFF_REL_TOL: f64 = 0.05;

/// While the code is actively ramping, a tick that starts with the
/// detector output within this fraction of the window center of a
/// threshold runs in cycle fidelity: the envelope model's small amplitude
/// error must not decide which side of the threshold a ramp crosses on.
/// Quiet holds are exempt — a settled operating point parks close to the
/// lower threshold by design, and guarding it would forfeit the
/// multi-rate speedup.
pub(crate) const BOUNDARY_MARGIN: f64 = 0.04;

/// Which fidelity the multi-rate engine is currently running.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum RateMode {
    /// Averaged envelope dynamics (the fast default between events).
    #[default]
    Envelope,
    /// Cycle-accurate dynamics (guard windows around events).
    Cycle,
}

/// Per-mode work statistics of one multi-rate run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModeStats {
    /// Envelope↔cycle fidelity hand-offs performed (either direction).
    pub mode_switches: u64,
    /// Regulation ticks that ran entirely in envelope fidelity.
    pub envelope_ticks: u64,
    /// Regulation ticks with at least one cycle-fidelity span (split
    /// ticks count as cycle ticks — they paid the cycle cost).
    pub cycle_ticks: u64,
    /// Mid-tick event localizations performed by bisection.
    pub bisections: u64,
}

/// Whether a code step needs a cycle-fidelity guard window: steps that
/// cross a DAC segment edge (prescaler/Gm-weight reconfiguration — the
/// output staircase is locally non-uniform there) and steps that land on
/// a range stop (saturation is a latched safety condition).
pub(crate) fn code_step_needs_guard(old: Code, new: Code) -> bool {
    old.segment_index() != new.segment_index()
        || new.value() == 0
        || new.value() == Code::MAX.value()
}

/// The envelope↔cycle hand-off state machine.
///
/// One controller instance lives inside a multi-rate
/// [`crate::sim::ClosedLoopSim`]; the simulation reports events via
/// [`MultiRateController::arm`] / [`MultiRateController::on_code_step`]
/// and closes every regulation tick with
/// [`MultiRateController::finish_tick`], which decides re-entry. The
/// guard window is the tick an event arms: that tick is never quiet, so
/// re-entry is first considered at the close of the tick after it.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct MultiRateController {
    mode: RateMode,
    armed_this_tick: bool,
    stats: ModeStats,
}

impl MultiRateController {
    /// The current fidelity.
    pub(crate) fn mode(&self) -> RateMode {
        self.mode
    }

    /// Accumulated per-mode statistics.
    pub(crate) fn stats(&self) -> ModeStats {
        self.stats
    }

    /// Reports a guard event (fault injection, detector window-state
    /// change, forced code): switches to cycle fidelity — the hand-off
    /// itself is performed by the simulation — and marks the tick as not
    /// quiet.
    pub(crate) fn arm(&mut self) {
        self.armed_this_tick = true;
        if self.mode == RateMode::Envelope {
            self.mode = RateMode::Cycle;
            self.stats.mode_switches += 1;
        }
    }

    /// Reports a regulation code step; arms the guard when the step needs
    /// one (see [`code_step_needs_guard`]).
    pub(crate) fn on_code_step(&mut self, old: Code, new: Code) {
        if old != new && code_step_needs_guard(old, new) {
            self.arm();
        }
    }

    /// Records one mid-tick event localization.
    pub(crate) fn note_bisection(&mut self) {
        self.stats.bisections += 1;
    }

    /// Closes a regulation tick. `agree` is the envelope-shadow /
    /// cycle-amplitude agreement test (only meaningful in cycle mode).
    /// Returns `true` when the controller re-entered envelope fidelity —
    /// the simulation must then perform the cycle→envelope hand-off
    /// (adopt the measured amplitude, retime the detector).
    pub(crate) fn finish_tick(&mut self, agree: bool) -> bool {
        let quiet = !std::mem::take(&mut self.armed_this_tick);
        match self.mode {
            RateMode::Envelope => {
                self.stats.envelope_ticks += 1;
                false
            }
            RateMode::Cycle => {
                self.stats.cycle_ticks += 1;
                if quiet && agree {
                    self.mode = RateMode::Envelope;
                    self.stats.mode_switches += 1;
                    true
                } else {
                    false
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code(v: u32) -> Code {
        Code::new(v).unwrap()
    }

    #[test]
    fn segment_interior_steps_need_no_guard() {
        // 40 → 42 stays inside segment 2: quiet ramping.
        assert!(!code_step_needs_guard(code(40), code(42)));
        // 20 → 21 stays inside segment 1.
        assert!(!code_step_needs_guard(code(20), code(21)));
    }

    #[test]
    fn segment_crossings_and_range_stops_need_guards() {
        assert!(code_step_needs_guard(code(31), code(32)));
        assert!(code_step_needs_guard(code(63), code(64)));
        assert!(code_step_needs_guard(code(15), code(16)));
        assert!(code_step_needs_guard(code(126), code(127)));
        assert!(code_step_needs_guard(code(1), code(0)));
    }

    #[test]
    fn guard_holds_cycle_mode_for_its_window() {
        let mut c = MultiRateController::default();
        assert_eq!(c.mode(), RateMode::Envelope);
        c.arm();
        assert_eq!(c.mode(), RateMode::Cycle);
        // The arming tick: stays in cycle even with agreement.
        assert!(!c.finish_tick(true));
        assert_eq!(c.mode(), RateMode::Cycle);
        // The next tick: quiet and agreeing → re-entry.
        assert!(c.finish_tick(true));
        assert_eq!(c.mode(), RateMode::Envelope);
        assert_eq!(c.stats().mode_switches, 2);
        assert_eq!(c.stats().cycle_ticks, 2);
    }

    #[test]
    fn disagreement_blocks_reentry_until_it_clears() {
        let mut c = MultiRateController::default();
        c.arm();
        assert!(!c.finish_tick(false));
        assert_eq!(c.mode(), RateMode::Cycle);
        assert!(!c.finish_tick(false));
        assert!(c.finish_tick(true));
        assert_eq!(c.mode(), RateMode::Envelope);
    }

    #[test]
    fn event_during_guard_rearms_the_window() {
        let mut c = MultiRateController::default();
        c.arm();
        assert!(!c.finish_tick(true));
        // A new event in the tick after the arming one: that tick is not
        // quiet either, so re-entry takes one more cycle tick than an
        // undisturbed guard would have taken.
        c.arm();
        assert!(!c.finish_tick(true));
        assert!(c.finish_tick(true));
        assert_eq!(c.stats().cycle_ticks, 3);
    }

    #[test]
    fn interior_code_steps_keep_envelope_mode() {
        let mut c = MultiRateController::default();
        c.on_code_step(code(40), code(41));
        assert_eq!(c.mode(), RateMode::Envelope);
        c.on_code_step(code(63), code(64));
        assert_eq!(c.mode(), RateMode::Cycle);
    }
}
