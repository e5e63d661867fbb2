//! Cheap counters and histograms derived from the event stream.
//!
//! [`MetricsSink`] folds events into a [`TraceMetrics`] aggregate instead
//! of storing them, so the `metrics` trace level costs O(1) memory no
//! matter how long the run. Every aggregate except the job wall-clock
//! histogram is a pure function of the (deterministic) event stream, and
//! the renderer splits the two accordingly: [`TraceMetrics::render_json`]
//! is golden-safe, [`TraceMetrics::render_timing_json`] is not.

use crate::event::{ServeStatus, TraceEvent, WindowClass};
use crate::sink::TraceSink;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Power-of-two bucketed histogram for non-negative integer samples.
///
/// Bucket `k` counts samples `v` with `floor(log2(v)) == k - 1`, i.e.
/// bucket 0 holds `v == 0`, bucket 1 holds `v == 1`, bucket 2 holds
/// `2..=3`, and so on — 65 buckets cover the whole `u64`/truncated `u128`
/// range with a fixed footprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let bucket = (64 - v.leading_zeros()) as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Renders as a compact JSON object with only the non-empty buckets
    /// (`"b<k>"` keys in ascending k), plus count/sum/max — all integers,
    /// so the output is byte-stable.
    pub fn render_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(
            s,
            r#""count":{},"sum":{},"max":{}"#,
            self.count, self.sum, self.max
        );
        for (k, n) in self.buckets.iter().enumerate().filter(|(_, n)| **n > 0) {
            let _ = write!(s, r#","b{k}":{n}"#);
        }
        s.push('}');
        s
    }
}

/// The aggregate the metrics sink maintains.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceMetrics {
    /// Regulation decisions that incremented the code.
    pub code_increments: u64,
    /// Regulation decisions that decremented the code.
    pub code_decrements: u64,
    /// Regulation decisions that held the code.
    pub code_holds: u64,
    /// Ticks spent in each window class (below, inside, above).
    pub window_ticks: [u64; 3],
    /// Completed dwell intervals per window class: lengths (in ticks) of
    /// maximal runs of consecutive ticks in the same window class.
    pub window_dwell: [Histogram; 3],
    /// Saturation events (code pinned at a range stop).
    pub saturations: u64,
    /// Detector trips observed.
    pub detector_trips: u64,
    /// Detector latencies, in ticks from fault injection to trip.
    pub detector_latency: Histogram,
    /// Safe-state latches observed.
    pub safe_state_entries: u64,
    /// Startup-phase transitions observed.
    pub startup_phases: u64,
    /// Faults injected.
    pub faults_injected: u64,
    /// Campaign jobs completed.
    pub campaign_jobs: u64,
    /// Requests served by the batch service, by terminal status: ok,
    /// bad_request, timeout, overloaded, shutting_down, error (in the
    /// order of [`crate::event::ServeStatus`]).
    pub serve_requests: [u64; 6],
    /// Per-job wall-clock, nanoseconds (**machine-dependent** — reported
    /// by [`TraceMetrics::render_timing_json`], never the golden stream).
    pub job_wall_ns: Histogram,
    /// Per-request serve latency, nanoseconds (**machine-dependent**).
    pub serve_wall_ns: Histogram,
    /// Queue depth observed at request admission (**machine-dependent**:
    /// depends on arrival timing, so quarantined with the wall-clocks).
    pub serve_queue_depth: Histogram,
    dwell_state: Option<(WindowClass, u64)>,
}

fn window_index(w: WindowClass) -> usize {
    match w {
        WindowClass::Below => 0,
        WindowClass::Inside => 1,
        WindowClass::Above => 2,
    }
}

fn serve_status_index(s: ServeStatus) -> usize {
    match s {
        ServeStatus::Ok => 0,
        ServeStatus::BadRequest => 1,
        ServeStatus::Timeout => 2,
        ServeStatus::Overloaded => 3,
        ServeStatus::ShuttingDown => 4,
        ServeStatus::Error => 5,
    }
}

impl TraceMetrics {
    /// Folds one event into the aggregate.
    pub fn fold(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::CodeStep { action, window, .. } => {
                match action {
                    crate::event::StepAction::Increment => self.code_increments += 1,
                    crate::event::StepAction::Decrement => self.code_decrements += 1,
                    crate::event::StepAction::Hold => self.code_holds += 1,
                }
                self.window_ticks[window_index(*window)] += 1;
                match &mut self.dwell_state {
                    Some((w, run)) if *w == *window => *run += 1,
                    other => {
                        if let Some((w, run)) = other.take() {
                            self.window_dwell[window_index(w)].record(run);
                        }
                        *other = Some((*window, 1));
                    }
                }
            }
            TraceEvent::Saturated { .. } => self.saturations += 1,
            TraceEvent::StartupPhase { .. } => self.startup_phases += 1,
            TraceEvent::FaultInjected { .. } => self.faults_injected += 1,
            TraceEvent::DetectorTrip { latency_ticks, .. } => {
                self.detector_trips += 1;
                self.detector_latency.record(*latency_ticks);
            }
            TraceEvent::SafeStateEntry { .. } => self.safe_state_entries += 1,
            TraceEvent::CampaignJob { .. } => self.campaign_jobs += 1,
            TraceEvent::CampaignJobTiming { wall_ns, .. } => {
                self.job_wall_ns
                    .record(u64::try_from(*wall_ns).unwrap_or(u64::MAX));
            }
            TraceEvent::ServeRequest { status, .. } => {
                self.serve_requests[serve_status_index(*status)] += 1;
            }
            TraceEvent::ServeRequestTiming {
                wall_ns,
                queue_depth,
                ..
            } => {
                self.serve_wall_ns
                    .record(u64::try_from(*wall_ns).unwrap_or(u64::MAX));
                self.serve_queue_depth.record(*queue_depth);
            }
        }
    }

    /// Flushes the open window-dwell run (call once at end of run so the
    /// final dwell interval is counted).
    pub fn finish(&mut self) {
        if let Some((w, run)) = self.dwell_state.take() {
            self.window_dwell[window_index(w)].record(run);
        }
    }

    /// Renders the deterministic aggregates as one byte-stable JSON object
    /// (fixed key order, integer payloads). Excludes the job wall-clock
    /// histogram — see [`TraceMetrics::render_timing_json`].
    pub fn render_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(
            s,
            r#""code_increments":{},"code_decrements":{},"code_holds":{}"#,
            self.code_increments, self.code_decrements, self.code_holds
        );
        let _ = write!(
            s,
            r#","window_ticks":{{"below":{},"inside":{},"above":{}}}"#,
            self.window_ticks[0], self.window_ticks[1], self.window_ticks[2]
        );
        let _ = write!(
            s,
            r#","window_dwell":{{"below":{},"inside":{},"above":{}}}"#,
            self.window_dwell[0].render_json(),
            self.window_dwell[1].render_json(),
            self.window_dwell[2].render_json()
        );
        let _ = write!(
            s,
            r#","saturations":{},"detector_trips":{},"detector_latency_ticks":{},"safe_state_entries":{},"startup_phases":{},"faults_injected":{},"campaign_jobs":{}"#,
            self.saturations,
            self.detector_trips,
            self.detector_latency.render_json(),
            self.safe_state_entries,
            self.startup_phases,
            self.faults_injected,
            self.campaign_jobs
        );
        let _ = write!(
            s,
            r#","serve_requests":{{"ok":{},"bad_request":{},"timeout":{},"overloaded":{},"shutting_down":{},"error":{}}}"#,
            self.serve_requests[0],
            self.serve_requests[1],
            self.serve_requests[2],
            self.serve_requests[3],
            self.serve_requests[4],
            self.serve_requests[5]
        );
        s.push('}');
        s
    }

    /// Renders the machine-dependent timing aggregates (per-job and
    /// per-request wall-clock buckets, observed queue depths) as a JSON
    /// object for the quarantined timing stream.
    pub fn render_timing_json(&self) -> String {
        format!(
            r#"{{"job_wall_ns":{},"serve_wall_ns":{},"serve_queue_depth":{}}}"#,
            self.job_wall_ns.render_json(),
            self.serve_wall_ns.render_json(),
            self.serve_queue_depth.render_json()
        )
    }
}

/// A sink folding every event into a shared [`TraceMetrics`].
#[derive(Debug, Default)]
pub struct MetricsSink {
    metrics: Mutex<TraceMetrics>,
}

impl MetricsSink {
    /// Creates an empty metrics sink.
    pub fn new() -> Self {
        MetricsSink::default()
    }

    /// Copies out the aggregate, with the open dwell run flushed.
    pub fn snapshot(&self) -> TraceMetrics {
        let mut m = self
            .metrics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        m.finish();
        m
    }
}

impl TraceSink for MetricsSink {
    fn record(&self, event: &TraceEvent) {
        self.metrics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .fold(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DetectorId, StepAction};

    fn step(tick: u64, action: StepAction, window: WindowClass) -> TraceEvent {
        TraceEvent::CodeStep {
            tick,
            old: 10,
            new: 10,
            action,
            window,
        }
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1023] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.max(), 1023);
        let json = h.render_json();
        // v=0 -> b0, v=1 -> b1, v=2,3 -> b2, v=4,7 -> b3, v=8 -> b4,
        // v=1023 -> b10.
        assert_eq!(
            json,
            r#"{"count":8,"sum":1048,"max":1023,"b0":1,"b1":1,"b2":2,"b3":2,"b4":1,"b10":1}"#
        );
        assert!((h.mean().unwrap() - 131.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_renders_and_has_no_mean() {
        let h = Histogram::new();
        assert_eq!(h.render_json(), r#"{"count":0,"sum":0,"max":0}"#);
        assert!(h.mean().is_none());
    }

    #[test]
    fn dwell_runs_are_flushed_on_transition_and_finish() {
        let mut m = TraceMetrics::default();
        for t in 0..3 {
            m.fold(&step(t, StepAction::Increment, WindowClass::Below));
        }
        for t in 3..8 {
            m.fold(&step(t, StepAction::Hold, WindowClass::Inside));
        }
        // The Below run (3 ticks) is complete; the Inside run is open.
        assert_eq!(m.window_dwell[0].count(), 1);
        assert_eq!(m.window_dwell[0].max(), 3);
        assert_eq!(m.window_dwell[1].count(), 0);
        m.finish();
        assert_eq!(m.window_dwell[1].count(), 1);
        assert_eq!(m.window_dwell[1].max(), 5);
        assert_eq!(m.code_increments, 3);
        assert_eq!(m.code_holds, 5);
        assert_eq!(m.window_ticks, [3, 5, 0]);
    }

    #[test]
    fn metrics_sink_aggregates_and_renders_deterministically() {
        let sink = MetricsSink::new();
        sink.record(&step(1, StepAction::Increment, WindowClass::Below));
        sink.record(&TraceEvent::DetectorTrip {
            tick: 9,
            detector: DetectorId::MissingOscillation,
            latency_ticks: 4,
        });
        sink.record(&TraceEvent::CampaignJob { index: 0, seed: 7 });
        sink.record(&TraceEvent::CampaignJobTiming {
            index: 0,
            wall_ns: 1000,
        });
        let m = sink.snapshot();
        assert_eq!(m.detector_trips, 1);
        assert_eq!(m.campaign_jobs, 1);
        assert_eq!(m.render_json(), sink.snapshot().render_json());
        // Wall-clock data only appears in the timing rendering.
        assert!(!m.render_json().contains("wall"));
        assert!(m.render_timing_json().contains("job_wall_ns"));
        assert_eq!(m.job_wall_ns.count(), 1);
    }

    #[test]
    fn serve_events_fold_into_status_counters_and_timing_histograms() {
        use crate::event::ServeKind;
        let mut m = TraceMetrics::default();
        for (i, status) in [ServeStatus::Ok, ServeStatus::Ok, ServeStatus::Timeout]
            .into_iter()
            .enumerate()
        {
            m.fold(&TraceEvent::ServeRequest {
                index: i as u64,
                kind: ServeKind::Scenario,
                digest: 42,
                status,
            });
        }
        m.fold(&TraceEvent::ServeRequestTiming {
            index: 0,
            wall_ns: 1500,
            queue_depth: 3,
        });
        assert_eq!(m.serve_requests, [2, 0, 1, 0, 0, 0]);
        assert!(m.render_json().contains(
            r#""serve_requests":{"ok":2,"bad_request":0,"timeout":1,"overloaded":0,"shutting_down":0,"error":0}"#
        ));
        // Latency and queue depth are quarantined in the timing stream.
        assert!(!m.render_json().contains("serve_wall_ns"));
        let timing = m.render_timing_json();
        assert!(timing.contains("serve_wall_ns"));
        assert!(timing.contains("serve_queue_depth"));
        assert_eq!(m.serve_wall_ns.count(), 1);
        assert_eq!(m.serve_queue_depth.max(), 3);
    }
}
