//! Sinks and the cheap shareable [`Trace`] handle the instrumented crates
//! carry.
//!
//! Instrumentation sites hold a [`Trace`]; the default ([`Trace::off`]) is
//! a `None` handle whose [`Trace::emit`] is a single branch — the event
//! constructor closure is never called, so disabled tracing costs nothing
//! beyond that null check and adds no heap traffic.

use crate::event::TraceEvent;
use std::sync::{Arc, Mutex, MutexGuard};

/// How much a sink wants to see.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum TraceLevel {
    /// Record nothing.
    Off,
    /// Aggregate counters/histograms only (events are folded, not kept).
    Metrics,
    /// Record the full structured event stream.
    #[default]
    Events,
}

impl TraceLevel {
    /// Parses the CLI spelling used by `repro --trace-level`.
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s {
            "off" => Some(TraceLevel::Off),
            "metrics" => Some(TraceLevel::Metrics),
            "events" => Some(TraceLevel::Events),
            _ => None,
        }
    }
}

/// A consumer of trace events.
///
/// Sinks take `&self` and must be internally synchronized (the provided
/// sinks use a `Mutex`), so one sink can be shared by several
/// instrumented components through the cloneable [`Trace`] handle.
pub trait TraceSink: Send + Sync + std::fmt::Debug {
    /// Consumes one event.
    fn record(&self, event: &TraceEvent);
}

/// The shareable tracing handle instrumented components store.
///
/// Cloning is cheap (an `Option<Arc>`); the disabled default makes every
/// `emit` a single branch.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    sink: Option<Arc<dyn TraceSink>>,
}

impl Trace {
    /// A disabled handle: `emit` never constructs events.
    pub fn off() -> Self {
        Trace::default()
    }

    /// A handle feeding `sink`.
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        Trace { sink: Some(sink) }
    }

    /// Whether events are being consumed.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits the event built by `make` — which is only invoked when a sink
    /// is attached, so instrumentation sites pay one branch when disabled.
    pub fn emit(&self, make: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.record(&make());
        }
    }
}

/// Locks a mutex, recovering the data on poisoning (a panicking tracer
/// must not take the instrumented simulation down with it).
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Unbounded in-memory sink; the backing store for tests, invariant
/// checking, and `repro`'s end-of-run JSONL rendering.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<TraceEvent>>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// Copies out the events recorded so far.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        lock_unpoisoned(&self.events).clone()
    }

    /// Removes and returns the events recorded so far.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *lock_unpoisoned(&self.events))
    }
}

impl TraceSink for MemorySink {
    fn record(&self, event: &TraceEvent) {
        lock_unpoisoned(&self.events).push(*event);
    }
}

/// Broadcasts every event to several sinks (e.g. memory + metrics).
#[derive(Debug, Clone, Default)]
pub struct FanoutSink {
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl FanoutSink {
    /// Creates a fanout over `sinks`.
    pub fn new(sinks: Vec<Arc<dyn TraceSink>>) -> Self {
        FanoutSink { sinks }
    }
}

impl TraceSink for FanoutSink {
    fn record(&self, event: &TraceEvent) {
        for sink in &self.sinks {
            sink.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{StepAction, WindowClass};

    fn step(tick: u64) -> TraceEvent {
        TraceEvent::CodeStep {
            tick,
            old: 1,
            new: 2,
            action: StepAction::Increment,
            window: WindowClass::Below,
        }
    }

    #[test]
    fn disabled_trace_never_builds_events() {
        let t = Trace::off();
        assert!(!t.is_enabled());
        t.emit(|| unreachable!("disabled trace must not construct events"));
    }

    #[test]
    fn memory_sink_records_in_order() {
        let mem = Arc::new(MemorySink::new());
        let t = Trace::new(mem.clone());
        assert!(t.is_enabled());
        for k in 0..5 {
            t.emit(|| step(k));
        }
        let evs = mem.snapshot();
        assert_eq!(evs.len(), 5);
        assert_eq!(evs[3], step(3));
        assert_eq!(mem.take().len(), 5);
        assert!(mem.snapshot().is_empty());
    }

    #[test]
    fn fanout_reaches_every_sink() {
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(MemorySink::new());
        let t = Trace::new(Arc::new(FanoutSink::new(vec![a.clone(), b.clone()])));
        t.emit(|| step(1));
        assert_eq!(a.snapshot().len(), 1);
        assert_eq!(b.snapshot().len(), 1);
    }

    #[test]
    fn trace_levels_parse_and_order() {
        assert_eq!(TraceLevel::parse("off"), Some(TraceLevel::Off));
        assert_eq!(TraceLevel::parse("metrics"), Some(TraceLevel::Metrics));
        assert_eq!(TraceLevel::parse("events"), Some(TraceLevel::Events));
        assert_eq!(TraceLevel::parse("verbose"), None);
        assert!(TraceLevel::Off < TraceLevel::Metrics);
        assert!(TraceLevel::Metrics < TraceLevel::Events);
    }
}
