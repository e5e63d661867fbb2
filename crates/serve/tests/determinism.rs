//! The service's determinism contract: response payloads are
//! byte-identical across worker thread counts, cache states and
//! submission orders, and a repeat solve renders the same bytes.

use lcosc_serve::{ServeConfig, ServeEngine};
use lcosc_trace::{MemorySink, Trace, TraceEvent};
use std::sync::Arc;
use std::time::Duration;

fn engine(threads: usize, cache_entries: usize) -> Arc<ServeEngine> {
    ServeEngine::start(&ServeConfig {
        threads,
        queue_depth: 64,
        cache_entries,
        deadline: Duration::from_secs(60),
        max_line_bytes: 1 << 20,
        trace: Trace::off(),
    })
}

/// An RC ladder deck: a DC source into `sections` series-R, shunt-C stages.
fn rc_ladder_elements(sections: usize) -> String {
    let mut elements = vec![
        r#"{"kind":"vsource","p":"n0","n":"gnd","wave":{"type":"dc","value":1.0}}"#.to_string(),
    ];
    for k in 1..=sections {
        elements.push(format!(
            r#"{{"kind":"resistor","a":"n{}","b":"n{k}","ohms":100.0}}"#,
            k - 1
        ));
        elements.push(format!(
            r#"{{"kind":"capacitor","a":"n{k}","b":"gnd","farads":1e-10}}"#
        ));
    }
    elements.join(",")
}

/// The first transient request's id in [`request_batch`].
const FIRST_TRANSIENT: usize = 10;

/// A mixed request batch covering every cacheable kind. Its transient
/// requests, from `FIRST_TRANSIENT` on, cover each solver path `Auto`
/// picks: dense linear (an RC stage), dense Newton (a diode clamp) and
/// sparse linear (a 70-section ladder, 72 MNA unknowns).
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
    lines.push(
        r#"{"id":11,"kind":"transient","deck":{"elements":[
            {"kind":"vsource","p":"in","n":"gnd","wave":{"type":"sine","amplitude":1.5,"frequency":5e5}},
            {"kind":"resistor","a":"in","b":"out","ohms":1000.0},
            {"kind":"diode","anode":"out","cathode":"gnd"},
            {"kind":"capacitor","a":"out","b":"gnd","farads":1e-9}
        ]},"dt":1e-8,"t_end":4e-6}"#
            .replace('\n', ""),
    );
    lines.push(format!(
        r#"{{"id":12,"kind":"transient","deck":{{"elements":[{}]}},"dt":1e-9,"t_end":2e-8}}"#,
        rc_ladder_elements(70)
    ));
    lines
}

fn run_batch(engine: &Arc<ServeEngine>, lines: &[String]) -> Vec<String> {
    // Submit everything first (pipelined across the pool), then resolve.
    let handles: Vec<_> = lines.iter().map(|l| engine.submit_line(l)).collect();
    handles
        .into_iter()
        .map(lcosc_serve::Response::wait)
        .collect()
}

#[test]
fn responses_are_byte_identical_across_thread_counts() {
    let lines = request_batch();
    let serial = engine(1, 256);
    let parallel = engine(4, 256);
    let a = run_batch(&serial, &lines);
    let b = run_batch(&parallel, &lines);
    for (line, (ra, rb)) in lines.iter().zip(a.iter().zip(&b)) {
        assert_eq!(ra, rb, "thread-count divergence for {line}");
        assert!(ra.contains("\"status\":\"ok\""), "{ra}");
    }
    // Only the ladder crosses `Auto`'s sparse threshold.
    for (reply, sparse) in a[FIRST_TRANSIENT..].iter().zip([false, false, true]) {
        assert!(
            reply.contains(&format!("\"used_sparse_path\":{sparse}")),
            "{reply}"
        );
    }
    serial.shutdown();
    parallel.shutdown();
}

#[test]
fn cold_and_warmed_cache_produce_identical_bytes() {
    let lines = request_batch();
    let warm = engine(2, 256);
    let cold = engine(2, 0); // cache disabled: every request computes
    let first = run_batch(&warm, &lines);
    let replay = run_batch(&warm, &lines); // all hits
    let uncached = run_batch(&cold, &lines);
    assert_eq!(first, replay, "cache replay changed bytes");
    assert_eq!(first, uncached, "cache path changed bytes");
    assert_eq!(warm.counters().cache_hits, lines.len() as u64);
    assert_eq!(cold.counters().cache_hits, 0);
    warm.shutdown();
    cold.shutdown();
}

#[test]
fn execute_renders_the_same_bytes_on_a_repeat_sparse_solve() {
    // A 97-section RC ladder: 99 MNA unknowns, so `Auto` takes the sparse
    // path, and no other test in this binary solves this structure. The
    // first solve computes the symbolic analysis and the second reuses it
    // from the process-wide cache; the rendered payload must not tell the
    // two apart, or the result cache could hold bytes a later identical
    // computation does not reproduce.
    let line = format!(
        r#"{{"id":1,"kind":"transient","deck":{{"elements":[{}]}},"dt":1e-9,"t_end":2e-8}}"#,
        rc_ladder_elements(97)
    );
    let request = lcosc_serve::parse_request(&lcosc_campaign::Json::parse(&line).expect("json"))
        .expect("valid request");
    let first = lcosc_serve::execute(&request).expect("solves").render();
    let second = lcosc_serve::execute(&request).expect("solves").render();
    assert!(first.contains("\"used_sparse_path\":true"), "{first}");
    assert_eq!(first, second, "a repeat solve rendered different bytes");
}

/// A request with a duplicate key is answered for the member its cache key
/// keeps (the last), so it cannot store one answer under another request's
/// slot: a plain request that follows it on the same engine gets the
/// bytes a fresh engine computes.
#[test]
fn duplicate_keys_cannot_poison_the_cache() {
    let duplicate = r#"{"id":1,"kind":"prove","preset":"fast_test","preset":"low_q"}"#;
    let plain = r#"{"id":2,"kind":"prove","preset":"low_q"}"#;
    let shared = engine(1, 256);
    let first = shared.submit_line(duplicate).wait();
    let replayed = shared.submit_line(plain).wait();
    assert_eq!(
        shared.counters().cache_hits,
        1,
        "both spellings share a slot"
    );
    let fresh = engine(1, 256);
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
    let forward = engine(3, 256);
    let backward = engine(3, 256);
    let mut a = run_batch(&forward, &lines);
    let mut b = run_batch(&backward, &reversed);
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
