//! Typed structured trace events and their byte-stable JSONL rendering.
//!
//! Every event is a plain value of integers and closed enums — no floats,
//! no strings built at runtime — so a rendered stream is a pure function
//! of the event sequence. The only machine-dependent payload is
//! [`TraceEvent::CampaignJobTiming`], which is excluded from the *golden*
//! stream (see [`TraceEvent::is_golden`]) and quarantined in a separate
//! timing stream, the same split `repro`'s `campaigns.json` already uses
//! for wall-clock statistics.

use std::fmt::Write as _;

/// One regulation decision, as recorded in a [`TraceEvent::CodeStep`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepAction {
    /// Code incremented by one.
    Increment,
    /// Code decremented by one.
    Decrement,
    /// Code held.
    Hold,
}

impl StepAction {
    /// Stable lower-case label used in the JSONL stream.
    pub fn label(self) -> &'static str {
        match self {
            StepAction::Increment => "increment",
            StepAction::Decrement => "decrement",
            StepAction::Hold => "hold",
        }
    }
}

/// Window-comparator classification the decision acted on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowClass {
    /// Amplitude below the window.
    Below,
    /// Amplitude inside the window.
    Inside,
    /// Amplitude above the window.
    Above,
}

impl WindowClass {
    /// Stable lower-case label used in the JSONL stream.
    pub fn label(self) -> &'static str {
        match self {
            WindowClass::Below => "below",
            WindowClass::Inside => "inside",
            WindowClass::Above => "above",
        }
    }
}

/// Which on-chip failure detector an event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectorId {
    /// Missing-oscillation time-out.
    MissingOscillation,
    /// Low-amplitude threshold (or regulation-code saturation).
    LowAmplitude,
    /// LC1/LC2 asymmetry by synchronous rectification.
    Asymmetry,
}

impl DetectorId {
    /// Stable lower-case label used in the JSONL stream.
    pub fn label(self) -> &'static str {
        match self {
            DetectorId::MissingOscillation => "missing_oscillation",
            DetectorId::LowAmplitude => "low_amplitude",
            DetectorId::Asymmetry => "asymmetry",
        }
    }
}

/// Startup-sequencer phase a [`TraceEvent::StartupPhase`] entered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseId {
    /// POR released; code forced to the preset.
    PorPreset,
    /// NVM value loaded; code forced to the stored value.
    NvmLoaded,
    /// Regulation loop owns the code.
    Regulating,
}

impl PhaseId {
    /// Stable lower-case label used in the JSONL stream.
    pub fn label(self) -> &'static str {
        match self {
            PhaseId::PorPreset => "por_preset",
            PhaseId::NvmLoaded => "nvm_loaded",
            PhaseId::Regulating => "regulating",
        }
    }
}

/// Request kind handled by the batch simulation service (`lcosc-serve`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServeKind {
    /// Circuit-deck transient analysis.
    Transient,
    /// Fault-injection scenario.
    Scenario,
    /// FMEA / yield campaign.
    Campaign,
    /// Static safety proof (`A0xx` obligations) of a preset.
    Prove,
    /// Server counter dump.
    Stats,
    /// Graceful-drain trigger.
    Shutdown,
    /// Unparseable or unrecognized request.
    Invalid,
}

impl ServeKind {
    /// Stable lower-case label used in the JSONL stream.
    pub fn label(self) -> &'static str {
        match self {
            ServeKind::Transient => "transient",
            ServeKind::Scenario => "scenario",
            ServeKind::Campaign => "campaign",
            ServeKind::Prove => "prove",
            ServeKind::Stats => "stats",
            ServeKind::Shutdown => "shutdown",
            ServeKind::Invalid => "invalid",
        }
    }
}

/// Terminal status of one served request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServeStatus {
    /// Request completed and a result was returned.
    Ok,
    /// The request line was malformed or semantically invalid.
    BadRequest,
    /// The request exceeded its compute deadline.
    Timeout,
    /// The bounded queue was full; the request was not admitted.
    Overloaded,
    /// The server was draining and refused the request.
    ShuttingDown,
    /// The simulation itself returned an error.
    Error,
}

impl ServeStatus {
    /// Stable lower-case label used in the JSONL stream (and as the
    /// `"status"` field of protocol responses).
    pub fn label(self) -> &'static str {
        match self {
            ServeStatus::Ok => "ok",
            ServeStatus::BadRequest => "bad_request",
            ServeStatus::Timeout => "timeout",
            ServeStatus::Overloaded => "overloaded",
            ServeStatus::ShuttingDown => "shutting_down",
            ServeStatus::Error => "error",
        }
    }
}

/// A structured trace event.
///
/// `tick` is the regulation-tick counter of the emitting simulation (0
/// before the first tick completes), so event ordering is expressed in the
/// loop's own discrete time rather than in floating-point seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceEvent {
    /// One regulation-FSM decision (§4): emitted every tick, including
    /// holds, so window-dwell statistics can be derived from the stream.
    CodeStep {
        /// Tick index the decision completed on (1-based, `fsm.ticks()`).
        tick: u64,
        /// Code before the decision.
        old: u8,
        /// Code after the decision.
        new: u8,
        /// Decision taken.
        action: StepAction,
        /// Window state the decision acted on.
        window: WindowClass,
    },
    /// The loop hit a code-range stop while still being pushed past it.
    Saturated {
        /// Tick index.
        tick: u64,
        /// `true` = stuck at the top code, `false` = at the bottom.
        high: bool,
    },
    /// Startup sequencing entered a new phase with a forced code.
    StartupPhase {
        /// Tick index (0 during the first tick).
        tick: u64,
        /// Phase entered.
        phase: PhaseId,
        /// Code forced by the phase.
        code: u8,
    },
    /// A fault was injected into the simulation.
    FaultInjected {
        /// Tick index.
        tick: u64,
    },
    /// A §5 failure detector fired.
    DetectorTrip {
        /// Tick index at evaluation time.
        tick: u64,
        /// Which detector.
        detector: DetectorId,
        /// Ticks elapsed between the fault injection and the detection.
        latency_ticks: u64,
    },
    /// The safe-state controller latched its reaction.
    SafeStateEntry {
        /// Tick index.
        tick: u64,
        /// Detector that won the latch.
        detector: DetectorId,
    },
    /// A campaign job completed (deterministic part: index and seed only).
    CampaignJob {
        /// Job index in the campaign's job list.
        index: u64,
        /// Deterministic per-job RNG seed.
        seed: u64,
    },
    /// Wall-clock of a campaign job. **Machine-dependent** — never part of
    /// the golden stream.
    CampaignJobTiming {
        /// Job index in the campaign's job list.
        index: u64,
        /// Wall-clock duration of the job, nanoseconds.
        wall_ns: u128,
    },
    /// One request served by the batch simulation service, recorded in
    /// completion-index order. Deterministic: the payload is the request's
    /// content digest and its terminal status, never wall-clock data.
    ServeRequest {
        /// Completion index (0-based order in which responses finished).
        index: u64,
        /// Request kind.
        kind: ServeKind,
        /// Content digest of the canonical request (cache key).
        digest: u64,
        /// Terminal status.
        status: ServeStatus,
    },
    /// Wall-clock and load data of one served request.
    /// **Machine-dependent** — never part of the golden stream.
    ServeRequestTiming {
        /// Completion index (matches the paired [`TraceEvent::ServeRequest`]).
        index: u64,
        /// End-to-end wall-clock latency of the request, nanoseconds.
        wall_ns: u128,
        /// Queue depth observed at admission time.
        queue_depth: u64,
    },
}

impl TraceEvent {
    /// Whether the event is deterministic (bit-identical for every thread
    /// count and machine) and therefore belongs in the golden stream.
    /// Only [`TraceEvent::CampaignJobTiming`] and
    /// [`TraceEvent::ServeRequestTiming`] carry wall-clock data.
    pub fn is_golden(&self) -> bool {
        !matches!(
            self,
            TraceEvent::CampaignJobTiming { .. } | TraceEvent::ServeRequestTiming { .. }
        )
    }

    /// Renders the event as one byte-stable JSON line (no trailing
    /// newline). Keys are emitted in a fixed order and all payloads are
    /// integers or closed-enum labels, so the output is a pure function of
    /// the event value.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(96);
        match self {
            TraceEvent::CodeStep {
                tick,
                old,
                new,
                action,
                window,
            } => {
                let _ = write!(
                    s,
                    r#"{{"ev":"code_step","tick":{tick},"old":{old},"new":{new},"action":"{}","window":"{}"}}"#,
                    action.label(),
                    window.label()
                );
            }
            TraceEvent::Saturated { tick, high } => {
                let _ = write!(s, r#"{{"ev":"saturated","tick":{tick},"high":{high}}}"#);
            }
            TraceEvent::StartupPhase { tick, phase, code } => {
                let _ = write!(
                    s,
                    r#"{{"ev":"startup_phase","tick":{tick},"phase":"{}","code":{code}}}"#,
                    phase.label()
                );
            }
            TraceEvent::FaultInjected { tick } => {
                let _ = write!(s, r#"{{"ev":"fault_injected","tick":{tick}}}"#);
            }
            TraceEvent::DetectorTrip {
                tick,
                detector,
                latency_ticks,
            } => {
                let _ = write!(
                    s,
                    r#"{{"ev":"detector_trip","tick":{tick},"detector":"{}","latency_ticks":{latency_ticks}}}"#,
                    detector.label()
                );
            }
            TraceEvent::SafeStateEntry { tick, detector } => {
                let _ = write!(
                    s,
                    r#"{{"ev":"safe_state_entry","tick":{tick},"detector":"{}"}}"#,
                    detector.label()
                );
            }
            TraceEvent::CampaignJob { index, seed } => {
                let _ = write!(
                    s,
                    r#"{{"ev":"campaign_job","index":{index},"seed":{seed}}}"#
                );
            }
            TraceEvent::CampaignJobTiming { index, wall_ns } => {
                let _ = write!(
                    s,
                    r#"{{"ev":"campaign_job_timing","index":{index},"wall_ns":{wall_ns}}}"#
                );
            }
            TraceEvent::ServeRequest {
                index,
                kind,
                digest,
                status,
            } => {
                let _ = write!(
                    s,
                    r#"{{"ev":"serve_request","index":{index},"kind":"{}","digest":{digest},"status":"{}"}}"#,
                    kind.label(),
                    status.label()
                );
            }
            TraceEvent::ServeRequestTiming {
                index,
                wall_ns,
                queue_depth,
            } => {
                let _ = write!(
                    s,
                    r#"{{"ev":"serve_request_timing","index":{index},"wall_ns":{wall_ns},"queue_depth":{queue_depth}}}"#
                );
            }
        }
        s
    }
}

/// Renders a slice of events as a JSONL document (one event per line,
/// trailing newline), keeping only events matching `filter`.
pub fn render_jsonl(events: &[TraceEvent], filter: impl Fn(&TraceEvent) -> bool) -> String {
    let mut out = String::new();
    for ev in events.iter().filter(|e| filter(e)) {
        out.push_str(&ev.to_jsonl());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_step_renders_fixed_key_order() {
        let ev = TraceEvent::CodeStep {
            tick: 7,
            old: 60,
            new: 61,
            action: StepAction::Increment,
            window: WindowClass::Below,
        };
        assert_eq!(
            ev.to_jsonl(),
            r#"{"ev":"code_step","tick":7,"old":60,"new":61,"action":"increment","window":"below"}"#
        );
    }

    #[test]
    fn timing_is_the_only_non_golden_event() {
        let golden = [
            TraceEvent::CodeStep {
                tick: 1,
                old: 0,
                new: 1,
                action: StepAction::Increment,
                window: WindowClass::Below,
            },
            TraceEvent::Saturated {
                tick: 1,
                high: true,
            },
            TraceEvent::StartupPhase {
                tick: 0,
                phase: PhaseId::PorPreset,
                code: 105,
            },
            TraceEvent::FaultInjected { tick: 3 },
            TraceEvent::DetectorTrip {
                tick: 5,
                detector: DetectorId::LowAmplitude,
                latency_ticks: 2,
            },
            TraceEvent::SafeStateEntry {
                tick: 5,
                detector: DetectorId::Asymmetry,
            },
            TraceEvent::CampaignJob { index: 0, seed: 9 },
            TraceEvent::ServeRequest {
                index: 0,
                kind: ServeKind::Scenario,
                digest: 0xdead_beef,
                status: ServeStatus::Ok,
            },
        ];
        for ev in golden {
            assert!(ev.is_golden(), "{ev:?}");
        }
        assert!(!TraceEvent::CampaignJobTiming {
            index: 0,
            wall_ns: 1
        }
        .is_golden());
        assert!(!TraceEvent::ServeRequestTiming {
            index: 0,
            wall_ns: 1,
            queue_depth: 3
        }
        .is_golden());
    }

    #[test]
    fn serve_request_renders_fixed_key_order() {
        let ev = TraceEvent::ServeRequest {
            index: 4,
            kind: ServeKind::Transient,
            digest: 1234567,
            status: ServeStatus::Timeout,
        };
        assert_eq!(
            ev.to_jsonl(),
            r#"{"ev":"serve_request","index":4,"kind":"transient","digest":1234567,"status":"timeout"}"#
        );
        let timing = TraceEvent::ServeRequestTiming {
            index: 4,
            wall_ns: 987,
            queue_depth: 2,
        };
        assert_eq!(
            timing.to_jsonl(),
            r#"{"ev":"serve_request_timing","index":4,"wall_ns":987,"queue_depth":2}"#
        );
    }

    #[test]
    fn rendering_is_reproducible() {
        let ev = TraceEvent::DetectorTrip {
            tick: 150,
            detector: DetectorId::MissingOscillation,
            latency_ticks: 150,
        };
        assert_eq!(ev.to_jsonl(), ev.to_jsonl());
        assert_eq!(
            ev.to_jsonl(),
            r#"{"ev":"detector_trip","tick":150,"detector":"missing_oscillation","latency_ticks":150}"#
        );
    }

    #[test]
    fn render_jsonl_filters_and_terminates_lines() {
        let evs = [
            TraceEvent::CampaignJob { index: 0, seed: 1 },
            TraceEvent::CampaignJobTiming {
                index: 0,
                wall_ns: 42,
            },
        ];
        let golden = render_jsonl(&evs, TraceEvent::is_golden);
        assert_eq!(golden, "{\"ev\":\"campaign_job\",\"index\":0,\"seed\":1}\n");
        let timing = render_jsonl(&evs, |e| !e.is_golden());
        assert!(timing.contains("wall_ns"));
        assert!(timing.ends_with('\n'));
    }

    #[test]
    fn labels_are_lower_snake_case() {
        for l in [
            StepAction::Increment.label(),
            WindowClass::Inside.label(),
            DetectorId::MissingOscillation.label(),
            PhaseId::NvmLoaded.label(),
            ServeKind::Transient.label(),
            ServeKind::Prove.label(),
            ServeStatus::BadRequest.label(),
        ] {
            assert!(l.chars().all(|c| c.is_ascii_lowercase() || c == '_'), "{l}");
        }
    }
}
