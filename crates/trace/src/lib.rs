//! # lcosc-trace — deterministic observability for the lcosc workspace
//!
//! The paper's amplitude-regulation loop (§4) and failure detectors (§5)
//! are temporal state machines: every reproduced claim — "the code never
//! jumps across the window", "missing oscillation trips within the
//! time-out" — is an assertion about *event ordering over time*. This
//! crate gives the workspace structured visibility into those events
//! without giving up the determinism the campaign/golden layers depend
//! on:
//!
//! - [`TraceEvent`] — typed structured events ([`TraceEvent::CodeStep`],
//!   [`TraceEvent::DetectorTrip`], [`TraceEvent::SafeStateEntry`],
//!   [`TraceEvent::StartupPhase`], [`TraceEvent::CampaignJob`], ...),
//!   all integers and closed enums, no runtime-built strings;
//! - [`Trace`] — the cheap cloneable handle instrumented components carry.
//!   The disabled default makes every [`Trace::emit`] a single branch and
//!   never constructs the event;
//! - sinks — unbounded [`MemorySink`], broadcasting [`FanoutSink`], and
//!   the aggregate-only [`MetricsSink`] (counters + power-of-two
//!   [`Histogram`]s);
//! - byte-stable JSONL rendering with a hard golden/timing split:
//!   [`TraceEvent::is_golden`] partitions the stream so wall-clock data
//!   ([`TraceEvent::CampaignJobTiming`]) never contaminates the stream
//!   that is byte-compared across thread counts — the same quarantine
//!   `repro` already applies to `campaigns.json`.
//!
//! The crate is dependency-free (`std` only) and sits below every other
//! workspace crate; `lcosc-core`, `lcosc-safety` and `lcosc-campaign` map
//! their domain types onto the closed enums here.
//!
//! ```
//! use lcosc_trace::{MemorySink, StepAction, Trace, TraceEvent, WindowClass};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(MemorySink::new());
//! let trace = Trace::new(sink.clone());
//! trace.emit(|| TraceEvent::CodeStep {
//!     tick: 1,
//!     old: 60,
//!     new: 61,
//!     action: StepAction::Increment,
//!     window: WindowClass::Below,
//! });
//! assert_eq!(sink.snapshot().len(), 1);
//! // Disabled tracing costs one branch and never builds the event:
//! Trace::off().emit(|| unreachable!());
//! ```

#![warn(missing_docs)]

mod event;
mod metrics;
mod sink;

pub use event::{
    render_jsonl, DetectorId, PhaseId, ServeKind, ServeStatus, StepAction, TraceEvent, WindowClass,
};
pub use metrics::{Histogram, MetricsSink, TraceMetrics};
pub use sink::{FanoutSink, MemorySink, Trace, TraceLevel, TraceSink};
