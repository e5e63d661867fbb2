//! The service's determinism contract: response payloads are
//! byte-identical across worker thread counts, cache states and
//! submission orders. `transient_determinism.rs` holds the transient
//! part of the contract on its own, for the `LCOSC_SOLVER` hatch runs.

mod common;

use lcosc_serve::{ServeConfig, ServeEngine};
use lcosc_trace::{MemorySink, Trace, TraceEvent};
use std::sync::Arc;
use std::time::Duration;

/// A mixed request batch covering every cacheable kind.
fn request_batch() -> Vec<String> {
    let mut lines: Vec<String> = [
        r#"{"id":0,"kind":"scenario","fault":"open_coil"}"#,
        r#"{"id":1,"kind":"scenario","fault":"coil_short"}"#,
        r#"{"id":2,"kind":"scenario","fault":"pin_short_gnd","pin":0}"#,
        r#"{"id":3,"kind":"scenario","fault":"pin_short_vdd","pin":1}"#,
        r#"{"id":4,"kind":"scenario","fault":"missing_cap","pin":0}"#,
        r#"{"id":5,"kind":"scenario","fault":"rs_drift","factor":4.0}"#,
        r#"{"id":6,"kind":"scenario","fault":"supply_loss"}"#,
        r#"{"id":7,"kind":"scenario","fault":"driver_dead"}"#,
        r#"{"id":8,"kind":"campaign","campaign":"yield","dies":32,"seed":11,"window":0.1}"#,
        r#"{"id":9,"kind":"campaign","campaign":"yield","dies":32,"seed":12,"window":0.1}"#,
    ]
    .iter()
    .map(|s| (*s).to_string())
    .collect();
    lines.push(
        r#"{"id":10,"kind":"transient","deck":{"elements":[
            {"kind":"vsource","p":"in","n":"gnd","wave":{"type":"dc","value":1.0}},
            {"kind":"resistor","a":"in","b":"out","ohms":1000.0},
            {"kind":"capacitor","a":"out","b":"gnd","farads":1e-6}
        ]},"dt":1e-5,"t_end":5e-3}"#
            .replace('\n', ""),
    );
    lines
}

#[test]
fn responses_are_byte_identical_across_thread_counts() {
    common::assert_thread_count_invariant(&request_batch());
}

#[test]
fn cold_and_warmed_cache_produce_identical_bytes() {
    common::assert_cache_state_invariant(&request_batch());
}

/// A request with a duplicate key is answered for the member its cache key
/// keeps (the last), so it cannot store one answer under another request's
/// slot: a plain request that follows it on the same engine gets the
/// bytes a fresh engine computes.
#[test]
fn duplicate_keys_cannot_poison_the_cache() {
    let duplicate = r#"{"id":1,"kind":"prove","preset":"fast_test","preset":"low_q"}"#;
    let plain = r#"{"id":2,"kind":"prove","preset":"low_q"}"#;
    let shared = common::engine(1, 256);
    let first = shared.submit_line(duplicate).wait();
    let replayed = shared.submit_line(plain).wait();
    assert_eq!(
        shared.counters().cache_hits,
        1,
        "both spellings share a slot"
    );
    let fresh = common::engine(1, 256);
    let computed = fresh.submit_line(plain).wait();
    assert!(computed.contains("\"preset\":\"low_q\""), "{computed}");
    assert_eq!(replayed, computed, "the cache answered another request");
    assert_eq!(first.replace("\"id\":1", "\"id\":2"), computed);
    shared.shutdown();
    fresh.shutdown();
}

#[test]
fn submission_order_does_not_change_any_response() {
    let lines = request_batch();
    let reversed: Vec<String> = lines.iter().rev().cloned().collect();
    let forward = common::engine(3, 256);
    let backward = common::engine(3, 256);
    let mut a = common::run_batch(&forward, &lines);
    let mut b = common::run_batch(&backward, &reversed);
    a.sort();
    b.sort();
    assert_eq!(a, b, "arrival order changed a response");
    forward.shutdown();
    backward.shutdown();
}

#[test]
fn golden_trace_events_carry_completion_indices_in_stream_order() {
    let sink = Arc::new(MemorySink::new());
    let engine = ServeEngine::start(&ServeConfig {
        threads: 1,
        queue_depth: 16,
        cache_entries: 16,
        deadline: Duration::from_secs(60),
        max_line_bytes: 1 << 20,
        trace: Trace::new(sink.clone()),
    });
    let lines = [
        r#"{"id":0,"kind":"scenario","fault":"open_coil"}"#,
        r#"{"id":1,"kind":"scenario","fault":"open_coil"}"#,
        r#"{"id":2,"kind":"stats"}"#,
    ];
    for line in lines {
        let response = engine.submit_line(line).wait();
        assert!(response.contains("\"status\":\"ok\""), "{response}");
    }
    let events = sink.snapshot();
    let golden: Vec<&TraceEvent> = events.iter().filter(|e| e.is_golden()).collect();
    let timing: Vec<&TraceEvent> = events.iter().filter(|e| !e.is_golden()).collect();
    assert_eq!(golden.len(), 3);
    assert_eq!(timing.len(), 3);
    let mut digests = Vec::new();
    for (expect, ev) in golden.iter().enumerate() {
        let TraceEvent::ServeRequest { index, digest, .. } = ev else {
            panic!("unexpected golden event {ev:?}");
        };
        assert_eq!(*index, expect as u64, "completion indices in stream order");
        digests.push(*digest);
    }
    // Requests 0 and 1 differ only in id: same content digest (the second
    // was the cache hit); the stats request digests as 0 (not cacheable).
    assert_eq!(digests[0], digests[1]);
    assert_eq!(digests[2], 0);
    assert_eq!(engine.counters().cache_hits, 1);
    engine.shutdown();
}
