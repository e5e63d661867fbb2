//! Edge-path behavior of the service: deadline overruns, malformed input,
//! admission-control rejections and graceful shutdown.

use lcosc_serve::{serve_tcp, ServeConfig, ServeEngine};
use lcosc_trace::{MemorySink, Trace, TraceEvent};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn engine_with(threads: usize, queue_depth: usize, deadline: Duration) -> Arc<ServeEngine> {
    ServeEngine::start(&ServeConfig {
        threads,
        queue_depth,
        cache_entries: 64,
        deadline,
        max_line_bytes: 1 << 20,
        trace: Trace::off(),
    })
}

/// A transient request that needs far more compute than any test deadline:
/// two million nonlinear (diode) time steps.
fn slow_request(id: u32) -> String {
    format!(
        r#"{{"id":{id},"kind":"transient","deck":{{"elements":[
            {{"kind":"vsource","p":"in","n":"gnd","wave":{{"type":"sine","amplitude":1.0,"frequency":1e6}}}},
            {{"kind":"resistor","a":"in","b":"out","ohms":100.0}},
            {{"kind":"diode","anode":"out","cathode":"gnd"}}
        ]}},"dt":1e-9,"t_end":2e-3,"record_stride":1000000}}"#
    )
    .replace('\n', "")
}

#[test]
fn deadline_overrun_times_out_and_frees_the_worker_slot() {
    let engine = engine_with(1, 8, Duration::from_millis(50));
    let slow = engine.submit_line(&slow_request(1)).wait();
    assert!(slow.contains("\"status\":\"timeout\""), "{slow}");
    assert!(slow.contains("deadline exceeded"), "{slow}");
    // The single worker slot must be free again: a quick request
    // completes. A 10-step linear transient stays far under the 50 ms
    // deadline (a fault scenario no longer does: multi-rate guard
    // windows around the injection pay real cycle-fidelity work).
    let quick = engine
        .submit_line(
            r#"{"id":2,"kind":"transient","deck":{"elements":[{"kind":"vsource","p":"in","n":"gnd","wave":{"type":"dc","value":1.0}},{"kind":"resistor","a":"in","b":"gnd","ohms":50.0}]},"dt":1e-6,"t_end":1e-5}"#,
        )
        .wait();
    assert!(quick.contains("\"status\":\"ok\""), "{quick}");
    let counters = engine.counters();
    assert_eq!(counters.by_status[0], 1, "ok count");
    assert_eq!(counters.by_status[2], 1, "timeout count");
    engine.begin_drain();
}

#[test]
fn full_queue_rejects_with_overloaded_instead_of_buffering() {
    // One worker stuck on a slow job (generous deadline so it stays put),
    // a queue of depth 1: the first extra request queues, further ones
    // must be rejected immediately.
    let engine = engine_with(1, 1, Duration::from_secs(60));
    let _stuck = engine.submit_line(&slow_request(1));
    // Wait until the worker has dequeued the slow job, so queue occupancy
    // is deterministic for the assertions below.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let queued = engine.submit_line(&slow_request(2));
        let probe = engine.submit_line(&slow_request(3)).wait();
        if probe.contains("\"status\":\"overloaded\"") {
            assert!(probe.contains("\"id\":3"), "{probe}");
            drop(queued);
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "queue never saturated: {probe}"
        );
    }
    assert!(engine.counters().by_status[3] >= 1, "overloaded count");
    // Don't wait for the 60 s job: begin_drain refuses new work but the
    // abandoned compute threads die with the process.
    engine.begin_drain();
}

#[test]
fn malformed_line_answers_bad_request_and_keeps_the_connection_alive() {
    let engine = engine_with(2, 8, Duration::from_secs(30));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let accept_engine = Arc::clone(&engine);
    let accept = std::thread::spawn(move || serve_tcp(&accept_engine, &listener));

    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();

    // Garbage first: the server must answer and keep reading.
    writer.write_all(b"this is not json\n").expect("write");
    reader.read_line(&mut line).expect("read");
    assert!(line.contains("\"status\":\"bad_request\""), "{line}");
    assert!(line.contains("invalid JSON"), "{line}");

    // Same connection still works for a valid request.
    line.clear();
    writer
        .write_all(b"{\"id\":7,\"kind\":\"scenario\",\"fault\":\"driver_dead\"}\n")
        .expect("write");
    reader.read_line(&mut line).expect("read");
    assert!(line.starts_with("{\"id\":7,\"status\":\"ok\""), "{line}");

    // Shutdown via protocol stops the accept loop and drains the engine.
    line.clear();
    writer
        .write_all(b"{\"id\":8,\"kind\":\"shutdown\"}\n")
        .expect("write");
    reader.read_line(&mut line).expect("read");
    assert!(line.contains("\"draining\":true"), "{line}");
    drop(writer);
    accept.join().expect("accept loop").expect("clean exit");
    engine.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_work_and_refuses_new_requests() {
    let engine = engine_with(2, 8, Duration::from_secs(30));
    // Admit a batch of real jobs, then immediately begin draining.
    let in_flight: Vec<_> = [
        r#"{"id":0,"kind":"scenario","fault":"open_coil"}"#,
        r#"{"id":1,"kind":"scenario","fault":"coil_short"}"#,
        r#"{"id":2,"kind":"scenario","fault":"supply_loss"}"#,
    ]
    .iter()
    .map(|line| engine.submit_line(line))
    .collect();
    engine.begin_drain();

    let refused = engine
        .submit_line(r#"{"id":9,"kind":"scenario","fault":"driver_dead"}"#)
        .wait();
    assert!(
        refused.contains("\"status\":\"shutting_down\""),
        "{refused}"
    );

    // Every admitted job still delivers a real result.
    for (i, handle) in in_flight.into_iter().enumerate() {
        let response = handle.wait();
        assert!(
            response.starts_with(&format!("{{\"id\":{i},\"status\":\"ok\"")),
            "{response}"
        );
    }
    engine.shutdown();
    // Shutdown is idempotent; post-shutdown submissions are refused unless
    // they can be replayed from the cache (replay needs no worker).
    engine.shutdown();
    let uncached = engine
        .submit_line(r#"{"kind":"scenario","fault":"rs_drift","factor":2.0}"#)
        .wait();
    assert!(
        uncached.contains("\"status\":\"shutting_down\""),
        "{uncached}"
    );
    let replayed = engine
        .submit_line(r#"{"kind":"scenario","fault":"open_coil"}"#)
        .wait();
    assert!(replayed.contains("\"status\":\"ok\""), "{replayed}");
}

#[test]
fn oversized_line_answers_line_too_long_and_keeps_the_connection_alive() {
    let engine = ServeEngine::start(&ServeConfig {
        threads: 1,
        queue_depth: 8,
        cache_entries: 16,
        deadline: Duration::from_secs(30),
        max_line_bytes: 256,
        trace: Trace::off(),
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let accept_engine = Arc::clone(&engine);
    let accept = std::thread::spawn(move || serve_tcp(&accept_engine, &listener));

    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();

    // A line well past the cap: the reader must not buffer it, must answer
    // with the typed error, and must stay in sync with the stream.
    let mut oversized = vec![b'x'; 4096];
    oversized.push(b'\n');
    writer.write_all(&oversized).expect("write oversized");
    reader.read_line(&mut line).expect("read");
    assert!(line.contains("\"status\":\"bad_request\""), "{line}");
    assert!(line.contains("line_too_long"), "{line}");
    assert!(line.contains("256"), "{line}");

    // The same connection still serves a normal request afterwards.
    line.clear();
    writer
        .write_all(b"{\"id\":1,\"kind\":\"stats\"}\n")
        .expect("write");
    reader.read_line(&mut line).expect("read");
    assert!(line.starts_with("{\"id\":1,\"status\":\"ok\""), "{line}");
    // The rejection went through the normal counter path.
    assert!(line.contains("\"bad_request\":1"), "{line}");

    line.clear();
    writer
        .write_all(b"{\"id\":2,\"kind\":\"shutdown\"}\n")
        .expect("write");
    reader.read_line(&mut line).expect("read");
    assert!(line.contains("\"draining\":true"), "{line}");
    drop(writer);
    accept.join().expect("accept loop").expect("clean exit");
    engine.shutdown();
}

#[test]
fn recorded_queue_depth_stays_within_queue_plus_clients() {
    // Clients racing a single worker: every admission and every worker
    // dequeue touches the queue counter, so a decrement that overtakes its
    // increment would record a wrapped depth of 2^64 - 1.
    const CLIENTS: usize = 4;
    const REQUESTS: usize = 500;
    const QUEUE_DEPTH: usize = 2;
    let sink = Arc::new(MemorySink::new());
    let engine = ServeEngine::start(&ServeConfig {
        threads: 1,
        queue_depth: QUEUE_DEPTH,
        cache_entries: 16,
        deadline: Duration::from_secs(30),
        max_line_bytes: 1 << 20,
        trace: Trace::new(sink.clone()),
    });
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let engine = &engine;
            scope.spawn(move || {
                for k in 0..REQUESTS {
                    // Distinct resistances: every request misses the cache
                    // and goes through the queue.
                    let ohms = 50 + client * REQUESTS + k;
                    let line = format!(
                        r#"{{"id":{k},"kind":"transient","deck":{{"elements":[{{"kind":"vsource","p":"in","n":"gnd","wave":{{"type":"dc","value":1.0}}}},{{"kind":"resistor","a":"in","b":"gnd","ohms":{ohms}.0}}]}},"dt":1e-6,"t_end":2e-6}}"#
                    );
                    let response = engine.submit_line(&line).wait();
                    assert!(
                        response.contains("\"status\":\"ok\"")
                            || response.contains("\"status\":\"overloaded\""),
                        "{response}"
                    );
                }
            });
        }
    });
    engine.shutdown();
    let depths: Vec<u64> = sink
        .snapshot()
        .iter()
        .filter_map(|event| match event {
            TraceEvent::ServeRequestTiming { queue_depth, .. } => Some(*queue_depth),
            _ => None,
        })
        .collect();
    assert_eq!(depths.len(), CLIENTS * REQUESTS);
    let worst = depths.iter().copied().max().unwrap_or(0);
    assert!(
        worst <= (QUEUE_DEPTH + CLIENTS) as u64,
        "recorded queue depth {worst} exceeds queue {QUEUE_DEPTH} + {CLIENTS} clients"
    );
}

#[test]
fn unallocatable_transient_answers_a_typed_error_and_the_engine_lives_on() {
    // 1e15 steps: its recorded output cannot be allocated. The request is
    // well-formed, so only the solver can refuse it, and it must do so
    // with an error response, not by aborting the process.
    let engine = engine_with(1, 8, Duration::from_secs(30));
    let huge = engine
        .submit_line(
            r#"{"id":1,"kind":"transient","deck":{"elements":[{"kind":"vsource","p":"in","n":"gnd","wave":{"type":"dc","value":1.0}},{"kind":"resistor","a":"in","b":"gnd","ohms":50.0}]},"dt":1e-12,"t_end":1000.0}"#,
        )
        .wait();
    assert!(huge.contains("\"status\":\"error\""), "{huge}");
    assert!(huge.contains("too large to allocate"), "{huge}");
    let stats = engine.submit_line(r#"{"id":2,"kind":"stats"}"#).wait();
    assert!(stats.contains("\"status\":\"ok\""), "{stats}");
    assert_eq!(engine.counters().by_status[5], 1, "error count");
    engine.shutdown();
}
