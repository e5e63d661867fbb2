//! The serve workloads: an in-process `ServeEngine` with
//! `ServeConfig::default()` behind the real `serve_tcp`, driven by one
//! closed-loop client over one connection.
//!
//! `serve_cold` sends only distinct requests after filling the cache to
//! capacity, so every measured request takes the miss path and evicts one
//! entry. `serve_hot` replays a hot set computed during set-up, so every
//! measured request is a cache hit.
//!
//! One client, not two: with two clients both cores stay busy, and in
//! back-to-back probes on a shared 2-core host the same run moved 12-25 %
//! in throughput and median latency; with one client it moved 2-5 %.

use crate::layers::{replay, Layers};
use crate::report::Outcome;
use crate::stats::{median, nearest_rank};
use crate::{reference, stream};
use lcosc_campaign::digest_bytes;
use lcosc_serve::{serve_tcp, ResultCache, ServeConfig, ServeCounters, ServeEngine};
use lcosc_trace::Trace;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Distinct requests only: every measured request misses the cache.
    Cold,
    /// Replays of the hot set: every measured request hits the cache.
    Hot,
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Equal slices of the measured phase's server time. The traffic is
/// stationary, so every window measures the same thing, and load from
/// outside the benchmark can only slow a window down: throughput and both
/// percentiles are taken from the best window, and a burst of outside
/// load moves them only if it spans every window.
const WINDOWS: usize = 5;

/// One client connection, used strictly closed loop.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    reply: String,
}

impl Conn {
    /// Opens a connection with Nagle off (a line protocol is latency
    /// bound; Nagle plus delayed ACK would add ~40 ms per round trip).
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            reply: String::new(),
        })
    }

    /// Sends one newline-terminated request and waits for its reply
    /// (returned without the newline).
    pub fn round_trip(&mut self, framed: &str) -> io::Result<&str> {
        self.writer.write_all(framed.as_bytes())?;
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.reply.trim_end_matches('\n'))
    }
}

/// A running server with its load connection.
pub struct Session {
    /// The engine behind the listener.
    pub engine: Arc<ServeEngine>,
    /// Listener address, for probe connections.
    pub addr: SocketAddr,
    /// The load connection.
    pub conn: Conn,
    /// Every set-up line (without newline) with the reply it got: the
    /// warm-up requests (cold) or the hot set (hot), in request order.
    pub setup: Vec<(String, String)>,
    accept: JoinHandle<io::Result<()>>,
}

impl Session {
    /// Closes the connection, drains the engine, and joins the accept
    /// loop and the workers.
    pub fn stop(self) -> Result<(), String> {
        drop(self.conn);
        self.engine.begin_drain();
        let accepted = self
            .accept
            .join()
            .map_err(|_| "accept loop panicked".to_string())?;
        self.engine.shutdown();
        accepted.map_err(|e| format!("accept loop: {e}"))
    }
}

/// Starts the server and prepares it for measuring.
///
/// The client connects *before* `serve_tcp` starts: the accept loop
/// sleeps 10 ms whenever it finds no pending connection, and with the
/// connection already queued its first poll takes it at once. Then come
/// the [`reference`] checks; `serve_cold` fills the cache with
/// [`stream::WARMUP`] distinct requests, and `serve_hot` computes the hot
/// set once.
pub fn set_up(traffic: Traffic, seed: u64, trace: Trace) -> Result<Session, String> {
    let engine = ServeEngine::start(&ServeConfig {
        trace,
        ..ServeConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("addr: {e}"))?;
    let conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let accept_engine = Arc::clone(&engine);
    let accept = thread::spawn(move || serve_tcp(&accept_engine, &listener));
    let mut session = Session {
        engine,
        addr,
        conn,
        setup: Vec::new(),
        accept,
    };
    match session.prepare(traffic, seed) {
        Ok(()) => Ok(session),
        Err(e) => {
            let _ = session.stop();
            Err(e)
        }
    }
}

impl Session {
    fn prepare(&mut self, traffic: Traffic, seed: u64) -> Result<(), String> {
        for r in reference::requests() {
            r.check(self.request(&r.line)?)?;
        }
        reference::check_spice_decks()?;
        let lines: Vec<String> = match traffic {
            Traffic::Cold => (0..stream::WARMUP)
                .map(|u| stream::warmup_line(seed, u))
                .collect(),
            Traffic::Hot => stream::hot_set(seed),
        };
        for line in lines {
            let reply = self.request(&line)?.to_string();
            self.setup.push((line, reply));
        }
        Ok(())
    }

    /// Sends one set-up request; its reply must carry status `ok`.
    fn request(&mut self, line: &str) -> Result<&str, String> {
        match self.conn.round_trip(&format!("{line}\n")) {
            Ok(reply) if is_ok(reply) => Ok(reply),
            Ok(reply) => Err(format!("set-up request failed: {reply}")),
            Err(e) => Err(format!("set-up request: {e}")),
        }
    }
}

/// What follows the `"id"` of every `ok` reply line.
const OK_MARK: &str = ",\"status\":\"ok\",\"result\":";

/// Whether a reply line carries status `ok`.
fn is_ok(reply: &str) -> bool {
    reply.contains(OK_MARK)
}

/// The result payload of an `ok` reply line.
pub fn payload(reply: &str) -> Option<&str> {
    let start = reply.find(OK_MARK)? + OK_MARK.len();
    reply.get(start..reply.len().checked_sub(1)?)
}

/// When the client stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// Send while the clock is before this instant (untraced runs).
    Deadline(Instant),
    /// Send exactly this many requests (traced runs: a fixed prefix of
    /// the stream, so counts repeat exactly).
    Count(u64),
}

impl Until {
    fn done(self, sent: u64) -> bool {
        match self {
            Until::Deadline(t) => Instant::now() >= t,
            Until::Count(n) => sent >= n,
        }
    }
}

/// What the client saw.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Requests sent, answered or not.
    pub sent: u64,
    /// Round-trip time of each answered request, milliseconds, in
    /// request order.
    pub latencies_ms: Vec<f64>,
    /// `serve_cold`: digest of each reply line, checked afterwards.
    pub digests: Vec<u64>,
    /// Failed requests: transport errors and wrong replies.
    pub failures: Vec<String>,
}

/// The `k`-th measured request line (newline-terminated) and, for
/// `serve_hot`, the set-up reply it must get.
pub fn measured_line(
    traffic: Traffic,
    seed: u64,
    k: u64,
    setup: &[(String, String)],
) -> (String, Option<&str>) {
    match traffic {
        Traffic::Cold => (stream::cold_line(seed, k) + "\n", None),
        Traffic::Hot => {
            let len = setup.len() as u64;
            let j = stream::hot_order(seed, k / len, setup.len())[(k % len) as usize];
            let (line, reply) = &setup[j];
            (format!("{line}\n"), Some(reply.as_str()))
        }
    }
}

/// Sends requests closed loop until `until`.
pub fn drive(session: &mut Session, traffic: Traffic, seed: u64, until: Until) -> ClientLog {
    let mut log = ClientLog::default();
    while !until.done(log.sent) {
        let k = log.sent;
        log.sent += 1;
        let (framed, want) = measured_line(traffic, seed, k, &session.setup);
        let t = Instant::now();
        let reply = session.conn.round_trip(&framed);
        let latency = t.elapsed();
        match reply {
            Ok(reply) => {
                log.latencies_ms.push(latency.as_secs_f64() * 1e3);
                match want {
                    None => log.digests.push(digest_bytes(reply.as_bytes())),
                    Some(want) if reply == want => {}
                    Some(_) => log
                        .failures
                        .push(format!("request {k}: reply differs from set-up")),
                }
            }
            Err(e) => {
                log.failures.push(format!("request {k}: {e}"));
                break;
            }
        }
    }
    log
}

impl ClientLog {
    /// Server time of the phase in seconds: the sum of the round trips.
    /// The client's own work between requests (building the next line,
    /// checking a reply) is left out, so it never counts as the program's.
    pub fn server_secs(&self) -> f64 {
        self.latencies_ms.iter().sum::<f64>() / 1e3
    }
}

/// Replays `count` request lines outside the server, on two threads, with
/// a cache that holds nothing, so `execute` computes every reply.
/// `case(k)` gives line `k` and the digest of the reply the server gave it;
/// `what` names a line in failure messages.
fn verify(what: &str, count: usize, case: impl Fn(usize) -> (String, u64) + Sync) -> Vec<String> {
    let case = &case;
    thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|half| {
                s.spawn(move || {
                    let mut bad = Vec::new();
                    let mut nothing = ResultCache::new(0);
                    for k in (half..count).step_by(2) {
                        let (line, digest) = case(k);
                        match replay(&line, &mut nothing, &mut Layers::default()) {
                            Ok(r) if digest_bytes(r.reply.as_bytes()) == digest => {}
                            Ok(_) => bad.push(format!("{what} {k}: wrong reply")),
                            Err(e) => bad.push(format!("{what} {k}: {e}")),
                        }
                    }
                    bad
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|_| vec!["verifier panicked".to_string()])
            })
            .collect()
    })
}

/// How a transient payload reports a sparse structure's first solve in the
/// process, which makes its symbolic analysis, and every later solve,
/// which reuses it. A set-up reply may come from a first solve; a replay
/// after the measured phase never does.
const FIRST_SOLVE: &str = "\"symbolic_analyses\":1,\"symbolic_reuses\":0";
const LATER_SOLVE: &str = "\"symbolic_analyses\":0,\"symbolic_reuses\":1";

/// Checks the engine's counters over the measured phase: every request
/// answered `ok`, and all of them cache misses (cold) or hits (hot).
fn check_counters(
    traffic: Traffic,
    before: &ServeCounters,
    after: &ServeCounters,
    sent: u64,
) -> Option<String> {
    let ok = after.by_status[0] - before.by_status[0];
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    let (want_hits, want_misses) = match traffic {
        Traffic::Cold => (0, sent),
        Traffic::Hot => (sent, 0),
    };
    (ok != sent || hits != want_hits || misses != want_misses).then(|| {
        format!("engine counted {ok} ok, {hits} hits, {misses} misses for {sent} requests")
    })
}

/// Throughput and latency percentiles of the requests completed in one
/// window.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Window {
    rate: f64,
    p50: f64,
    p99: f64,
}

/// Splits the phase's server time into [`WINDOWS`] equal windows; each
/// request belongs to the window its round trip starts in.
fn windows(log: &ClientLog) -> Result<Vec<Window>, String> {
    let len_ms = log.latencies_ms.iter().sum::<f64>() / WINDOWS as f64;
    let mut latencies = vec![Vec::new(); WINDOWS];
    let mut start_ms = 0.0;
    for &latency in &log.latencies_ms {
        let w = ((start_ms / len_ms) as usize).min(WINDOWS - 1);
        latencies[w].push(latency);
        start_ms += latency;
    }
    latencies
        .into_iter()
        .enumerate()
        .map(|(w, mut l)| {
            if l.is_empty() {
                return Err(format!("no request completed in window {w}"));
            }
            l.sort_by(f64::total_cmp);
            Ok(Window {
                rate: l.len() as f64 * 1e3 / len_ms,
                p50: nearest_rank(&l, 50),
                p99: nearest_rank(&l, 99),
            })
        })
        .collect()
}

/// The best throughput and the best of each percentile over the windows.
fn best(windows: &[Window]) -> Window {
    let worst = Window {
        rate: 0.0,
        p50: f64::INFINITY,
        p99: f64::INFINITY,
    };
    windows.iter().fold(worst, |b, w| Window {
        rate: b.rate.max(w.rate),
        p50: b.p50.min(w.p50),
        p99: b.p99.min(w.p99),
    })
}

/// The untraced run.
///
/// The first set-up serves the measured phase; the other set-ups of the
/// `setup_s` median run after it, so the memory they free and glibc keeps
/// does not count in `peak_rss_mb` (set-ups before the phase made it vary
/// by ±15 % between identical runs).
pub fn run(traffic: Traffic, seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let t = Instant::now();
    let first = set_up(traffic, seed, Trace::off());
    let mut setups = vec![t.elapsed().as_secs_f64()];
    let mut session = match first {
        Ok(s) => s,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };

    let before = session.engine.counters();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let log = drive(&mut session, traffic, seed, Until::Deadline(deadline));
    let after = session.engine.counters();
    let rss = crate::peak_rss_mb();
    let setup = std::mem::take(&mut session.setup);
    if let Err(e) = session.stop() {
        out.fail(e);
    }
    for _ in 1..SETUP_REPEATS {
        let t = Instant::now();
        let next = set_up(traffic, seed, Trace::off());
        setups.push(t.elapsed().as_secs_f64());
        if let Err(e) = next.and_then(Session::stop) {
            out.fail(e);
        }
    }

    out.attempted = log.sent;
    for failure in &log.failures {
        out.fail(failure.clone());
    }
    let answered = log.latencies_ms.len();
    if let Some(e) = check_counters(traffic, &before, &after, answered as u64) {
        out.fail(e);
    }
    // Every reply the client compared against nothing but the server
    // itself is computed again: each `serve_cold` reply, and each set-up
    // reply that the `serve_hot` replays had to equal.
    let wrong = match traffic {
        Traffic::Cold => verify("request", log.digests.len(), |k| {
            (stream::cold_line(seed, k as u64), log.digests[k])
        }),
        Traffic::Hot => verify("hot-set entry", setup.len(), |k| {
            let (line, reply) = &setup[k];
            let later = reply.replacen(FIRST_SOLVE, LATER_SOLVE, 1);
            (line.clone(), digest_bytes(later.as_bytes()))
        }),
    };
    for e in wrong {
        out.fail(e);
    }
    let windows = match windows(&log) {
        Ok(w) => w,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    for w in &windows {
        println!(
            "# window {:.1} 1/s p50 {:.4} ms p99 {:.3} ms",
            w.rate, w.p50, w.p99
        );
    }
    let best = best(&windows);
    out.metric("setup_s", median(&setups), "s", setups.len());
    out.metric("ops_per_s", best.rate, "1/s", answered);
    out.metric("latency_p50_ms", best.p50, "ms", answered);
    out.metric("latency_p99_ms", best.p99, "ms", answered);
    match rss {
        Ok(mb) => out.metric("peak_rss_mb", mb, "MB", 1),
        Err(e) => out.fail(e),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcosc_campaign::Json;
    use lcosc_serve::{response_line, Body};
    use lcosc_trace::ServeStatus;

    #[test]
    fn payload_is_the_result_member_of_an_ok_line() {
        let line = response_line(
            &Json::Int(7),
            ServeStatus::Ok,
            &Body::Payload("{\"x\":[1,2]}".to_string()),
        );
        assert!(is_ok(&line));
        assert_eq!(payload(&line), Some("{\"x\":[1,2]}"));
        let error = response_line(&Json::Int(7), ServeStatus::Error, &Body::Error("no".into()));
        assert!(!is_ok(&error));
        assert_eq!(payload(&error), None);
    }

    #[test]
    fn window_metrics_are_the_best_of_equal_slices_of_server_time() {
        // 80 ms of round trips, 16 ms windows; window w holds 16 / d
        // requests of d ms each, and window 2 one slow request.
        let mut log = ClientLog::default();
        for d in [1.0, 2.0, 16.0, 4.0, 8.0] {
            for _ in 0..(16.0 / d) as usize {
                log.latencies_ms.push(d);
            }
        }
        assert_eq!(log.server_secs(), 0.08);
        let split = windows(&log).expect("every window has requests");
        let rates: Vec<f64> = split.iter().map(|w| w.rate).collect();
        assert_eq!(rates, [1000.0, 500.0, 62.5, 250.0, 125.0]);
        let p99s: Vec<f64> = split.iter().map(|w| w.p99).collect();
        assert_eq!(p99s, [1.0, 2.0, 16.0, 4.0, 8.0]);
        let want = Window {
            rate: 1000.0,
            p50: 1.0,
            p99: 1.0,
        };
        assert_eq!(best(&split), want);
        assert!(windows(&ClientLog::default()).is_err());
    }
}
