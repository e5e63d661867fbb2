//! The safe-state reaction (paper §9: "If low amplitude or missing
//! oscillations are detected, the oscillator driver is set to maximum
//! output current and outputs of the complete system are set to safe
//! values").

use crate::detectors::DetectorKind;
use crate::scenario::detector_id;
use lcosc_core::sim::ClosedLoopSim;
use lcosc_dac::Code;
use lcosc_trace::{Trace, TraceEvent};

/// System-level outputs after the reaction policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemOutputs {
    /// Whether the system is in its safe mode (position output replaced by
    /// the safe value).
    pub safe_mode: bool,
    /// Whether the position measurement is valid.
    pub position_valid: bool,
}

impl SystemOutputs {
    /// Normal operation.
    pub fn normal() -> Self {
        SystemOutputs {
            safe_mode: false,
            position_valid: true,
        }
    }

    /// Safe mode: position invalid, outputs at the safe value.
    pub fn safe() -> Self {
        SystemOutputs {
            safe_mode: true,
            position_valid: false,
        }
    }
}

/// Latching safe-state controller.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SafeStateController {
    latched: Option<DetectorKind>,
}

impl SafeStateController {
    /// Creates a controller in normal mode.
    pub fn new() -> Self {
        SafeStateController::default()
    }

    /// Applies the reaction policy: on any detection, force the driver to
    /// maximum output current (a last-ditch attempt to keep/restart the
    /// oscillation for diagnosis) and put the outputs in safe mode. The
    /// state latches for the rest of the run.
    pub fn react(&mut self, triggered: &[DetectorKind], sim: &mut ClosedLoopSim) -> SystemOutputs {
        self.react_traced(triggered, sim, &Trace::off())
    }

    /// [`SafeStateController::react`] with observability: the tick the
    /// latch closes emits one [`TraceEvent::SafeStateEntry`] naming the
    /// winning detector. Repeated calls while latched emit nothing — the
    /// event marks the entry edge, mirroring the latch semantics.
    pub fn react_traced(
        &mut self,
        triggered: &[DetectorKind],
        sim: &mut ClosedLoopSim,
        tracer: &Trace,
    ) -> SystemOutputs {
        if self.latched.is_none() {
            if let Some(&first) = triggered.first() {
                self.latched = Some(first);
                sim.force_code(Code::MAX);
                let tick = sim.ticks();
                tracer.emit(|| TraceEvent::SafeStateEntry {
                    tick,
                    detector: detector_id(first),
                });
            }
        }
        if self.latched.is_some() {
            SystemOutputs::safe()
        } else {
            SystemOutputs::normal()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcosc_core::config::OscillatorConfig;

    fn sim() -> ClosedLoopSim {
        ClosedLoopSim::new(OscillatorConfig::fast_test()).unwrap()
    }

    #[test]
    fn no_detection_keeps_normal_outputs() {
        let mut ctl = SafeStateController::new();
        let mut s = sim();
        let out = ctl.react(&[], &mut s);
        assert_eq!(out, SystemOutputs::normal());
        assert!(ctl.latched.is_none());
    }

    #[test]
    fn detection_forces_max_code_and_safe_outputs() {
        let mut ctl = SafeStateController::new();
        let mut s = sim();
        s.run_until_settled().unwrap();
        assert_ne!(s.code(), Code::MAX);
        let out = ctl.react(&[DetectorKind::LowAmplitude], &mut s);
        assert_eq!(out, SystemOutputs::safe());
        assert_eq!(s.code(), Code::MAX);
        assert_eq!(ctl.latched, Some(DetectorKind::LowAmplitude));
    }

    #[test]
    fn latch_holds_after_trigger_clears() {
        let mut ctl = SafeStateController::new();
        let mut s = sim();
        ctl.react(&[DetectorKind::MissingOscillation], &mut s);
        let out = ctl.react(&[], &mut s);
        assert_eq!(out, SystemOutputs::safe(), "safe state must latch");
    }

    #[test]
    fn first_detector_wins_the_latch() {
        let mut ctl = SafeStateController::new();
        let mut s = sim();
        ctl.react(
            &[DetectorKind::Asymmetry, DetectorKind::LowAmplitude],
            &mut s,
        );
        assert_eq!(ctl.latched, Some(DetectorKind::Asymmetry));
        ctl.react(&[DetectorKind::MissingOscillation], &mut s);
        assert_eq!(ctl.latched, Some(DetectorKind::Asymmetry));
    }

    #[test]
    fn traced_reaction_emits_entry_edge_once() {
        use lcosc_trace::{MemorySink, TraceEvent};
        use std::sync::Arc;
        let sink = Arc::new(MemorySink::new());
        let tracer = Trace::new(sink.clone());
        let mut ctl = SafeStateController::new();
        let mut s = sim();
        ctl.react_traced(&[DetectorKind::LowAmplitude], &mut s, &tracer);
        ctl.react_traced(&[DetectorKind::LowAmplitude], &mut s, &tracer);
        ctl.react_traced(&[], &mut s, &tracer);
        let entries: Vec<_> = sink
            .snapshot()
            .into_iter()
            .filter(|e| matches!(e, TraceEvent::SafeStateEntry { .. }))
            .collect();
        assert_eq!(entries.len(), 1, "entry edge, not level: {entries:?}");
        assert!(matches!(
            entries[0],
            TraceEvent::SafeStateEntry {
                detector: lcosc_trace::DetectorId::LowAmplitude,
                ..
            }
        ));
    }
}
