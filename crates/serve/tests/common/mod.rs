//! The byte compares shared by the serve determinism targets.

use lcosc_serve::{ServeConfig, ServeEngine};
use lcosc_trace::Trace;
use std::sync::Arc;
use std::time::Duration;

pub fn engine(threads: usize, cache_entries: usize) -> Arc<ServeEngine> {
    ServeEngine::start(&ServeConfig {
        threads,
        queue_depth: 64,
        cache_entries,
        deadline: Duration::from_secs(60),
        max_line_bytes: 1 << 20,
        trace: Trace::off(),
    })
}

pub fn run_batch(engine: &Arc<ServeEngine>, lines: &[String]) -> Vec<String> {
    // Submit everything first (pipelined across the pool), then resolve.
    let handles: Vec<_> = lines.iter().map(|l| engine.submit_line(l)).collect();
    handles
        .into_iter()
        .map(lcosc_serve::Response::wait)
        .collect()
}

/// Answers `lines` on a 1-thread and a 4-thread engine: every reply must be
/// ok and byte-identical between the two. Returns the replies.
pub fn assert_thread_count_invariant(lines: &[String]) -> Vec<String> {
    let serial = engine(1, 256);
    let parallel = engine(4, 256);
    let a = run_batch(&serial, lines);
    let b = run_batch(&parallel, lines);
    for (line, (ra, rb)) in lines.iter().zip(a.iter().zip(&b)) {
        assert_eq!(ra, rb, "thread-count divergence for {line}");
        assert!(ra.contains("\"status\":\"ok\""), "{ra}");
    }
    serial.shutdown();
    parallel.shutdown();
    a
}

/// Answers `lines` cold, again from the warmed cache (all hits), and on an
/// engine with the cache disabled: the three reply sets must be identical.
pub fn assert_cache_state_invariant(lines: &[String]) {
    let warm = engine(2, 256);
    let cold = engine(2, 0); // cache disabled: every request computes
    let first = run_batch(&warm, lines);
    let replay = run_batch(&warm, lines); // all hits
    let uncached = run_batch(&cold, lines);
    assert_eq!(first, replay, "cache replay changed bytes");
    assert_eq!(first, uncached, "cache path changed bytes");
    assert_eq!(warm.counters().cache_hits, lines.len() as u64);
    assert_eq!(cold.counters().cache_hits, 0);
    warm.shutdown();
    cold.shutdown();
}
