//! The bounded worker pool behind the service.
//!
//! The engine owns the admission path (parse → cache probe → bounded
//! queue), the worker threads that execute simulation requests under a
//! per-request deadline, the content-addressed result cache, and the
//! server-level counters the `stats` request reports.
//!
//! Determinism contract: the response **line** for a request is a pure
//! function of the request object. Cache hits replay the stored payload
//! bytes, misses recompute them through the same renderer, and the
//! `"id"` is re-attached at assembly time — so cold/warm and 1-thread/
//! N-thread runs produce byte-identical payloads. Only the *order* in
//! which concurrent responses complete (and therefore the trace
//! completion indices) is scheduling-dependent.

use crate::cache::ResultCache;
use crate::protocol::{
    canonical_key, desugar_spice, request_id, response_line, result_line, validate_request, Body,
    Request,
};
use crate::work::execute;
use lcosc_campaign::{digest_bytes, Json};
use lcosc_trace::{ServeKind, ServeStatus, Trace, TraceEvent};
use std::borrow::Cow;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing simulation requests.
    pub threads: usize,
    /// Bounded queue depth; a full queue rejects with `overloaded`.
    pub queue_depth: usize,
    /// Content-addressed cache capacity in entries (0 disables).
    pub cache_entries: usize,
    /// Per-request compute deadline.
    pub deadline: Duration,
    /// Maximum accepted request-line length in bytes; longer lines are
    /// answered with a typed `line_too_long` error without buffering the
    /// excess, and the connection stays alive.
    pub max_line_bytes: usize,
    /// Trace handle receiving per-request events.
    pub trace: Trace,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 2,
            queue_depth: 64,
            cache_entries: 256,
            deadline: Duration::from_secs(30),
            max_line_bytes: 1 << 20,
            trace: Trace::off(),
        }
    }
}

/// Per-status request counters plus cache statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeCounters {
    /// Completed requests by [`ServeStatus`] index (ok, bad_request,
    /// timeout, overloaded, shutting_down, error).
    pub by_status: [u64; 6],
    /// Requests answered from the result cache.
    pub cache_hits: u64,
    /// Cacheable requests that had to compute.
    pub cache_misses: u64,
}

fn status_index(s: ServeStatus) -> usize {
    match s {
        ServeStatus::Ok => 0,
        ServeStatus::BadRequest => 1,
        ServeStatus::Timeout => 2,
        ServeStatus::Overloaded => 3,
        ServeStatus::ShuttingDown => 4,
        ServeStatus::Error => 5,
    }
}

struct Shared {
    cache: Mutex<ResultCache>,
    counters: Mutex<ServeCounters>,
    completion_index: AtomicU64,
    queued: AtomicU64,
    draining: AtomicBool,
    deadline: Duration,
    trace: Trace,
    threads: usize,
    queue_depth: usize,
    max_line_bytes: usize,
}

impl Shared {
    /// Records a finished request: bumps counters, assigns the completion
    /// index, and emits the golden + timing trace events. The counter
    /// lock spans the emission so the golden stream's event order matches
    /// its completion indices.
    fn finish(
        &self,
        kind: ServeKind,
        digest: u64,
        status: ServeStatus,
        wall: Duration,
        queue_depth: u64,
    ) {
        let mut c = self
            .counters
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        c.by_status[status_index(status)] += 1;
        let index = self.completion_index.fetch_add(1, Ordering::Relaxed);
        self.trace.emit(|| TraceEvent::ServeRequest {
            index,
            kind,
            digest,
            status,
        });
        self.trace.emit(|| TraceEvent::ServeRequestTiming {
            index,
            wall_ns: wall.as_nanos(),
            queue_depth,
        });
    }

    fn count_cache(&self, hit: bool) {
        let mut c = self
            .counters
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if hit {
            c.cache_hits += 1;
        } else {
            c.cache_misses += 1;
        }
    }
}

struct Job {
    request: Request,
    id: Json,
    digest: u64,
    canonical: String,
    queue_depth: u64,
    admitted: Instant,
    reply: SyncSender<String>,
}

/// A response that is either already available or still computing.
///
/// [`Response::wait`] resolves it; for pending responses this blocks until
/// the worker delivers the line.
#[derive(Debug)]
pub enum Response {
    /// Answered at admission time (cache hit, rejection, stats, ...).
    Immediate(String),
    /// In flight on the worker pool.
    Pending(Receiver<String>),
}

impl Response {
    /// Blocks until the response line is available.
    pub fn wait(self) -> String {
        match self {
            Response::Immediate(line) => line,
            Response::Pending(rx) => rx.recv().unwrap_or_else(|_| {
                // The worker pool died before replying; report it as a
                // server-side error rather than panicking the connection.
                response_line(
                    &Json::Null,
                    ServeStatus::Error,
                    &Body::Error("worker pool terminated".to_string()),
                )
            }),
        }
    }
}

/// The batch simulation service engine.
pub struct ServeEngine {
    shared: Arc<Shared>,
    tx: Mutex<Option<SyncSender<Job>>>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl ServeEngine {
    /// Starts the worker pool.
    pub fn start(config: &ServeConfig) -> Arc<ServeEngine> {
        let threads = config.threads.max(1);
        let queue_depth = config.queue_depth.max(1);
        let shared = Arc::new(Shared {
            cache: Mutex::new(ResultCache::new(config.cache_entries)),
            counters: Mutex::new(ServeCounters::default()),
            completion_index: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            deadline: config.deadline,
            trace: config.trace.clone(),
            threads,
            queue_depth,
            max_line_bytes: config.max_line_bytes.max(1),
        });
        let (tx, rx) = mpsc::sync_channel::<Job>(queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::with_capacity(threads);
        for worker in 0..threads {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&shared);
            let handle = thread::Builder::new()
                .name(format!("lcosc-serve-{worker}"))
                .spawn(move || worker_loop(&rx, &shared));
            match handle {
                Ok(h) => workers.push(h),
                Err(e) => {
                    // Degraded but functional: the pool runs with the
                    // workers that did spawn (at least attempt 0 usually
                    // succeeds; if none did, submissions time out at the
                    // queue and the caller sees overloaded).
                    eprintln!("lcosc-serve: failed to spawn worker {worker}: {e}");
                }
            }
        }
        Arc::new(ServeEngine {
            shared,
            tx: Mutex::new(Some(tx)),
            workers: Mutex::new(workers),
        })
    }

    /// The configured request-line length cap in bytes.
    pub fn max_line_bytes(&self) -> usize {
        self.shared.max_line_bytes
    }

    /// Answers an over-long request line with the typed `line_too_long`
    /// error, keeping the engine counters and trace stream consistent
    /// with every other rejection path.
    pub fn reject_oversized_line(&self) -> Response {
        self.reject(
            &Json::Null,
            ServeKind::Invalid,
            0,
            ServeStatus::BadRequest,
            &format!(
                "line_too_long: request line exceeds {} bytes",
                self.shared.max_line_bytes
            ),
            Instant::now(),
        )
    }

    /// Whether the engine is draining (refusing new simulation work).
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Snapshot of the request/cache counters.
    pub fn counters(&self) -> ServeCounters {
        *self
            .shared
            .counters
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Begins a graceful drain: already-admitted jobs keep running, every
    /// subsequent simulation request is refused with `shutting_down`.
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        // Dropping the sender lets workers exit once the queue empties.
        let mut tx = self
            .tx
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *tx = None;
    }

    /// Drains and joins the worker pool, blocking until every in-flight
    /// job has delivered its response.
    pub fn shutdown(&self) {
        self.begin_drain();
        let handles: Vec<_> = {
            let mut workers = self
                .workers
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            workers.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }

    /// Submits one raw request line. Always returns a [`Response`] — the
    /// protocol maps every failure (parse error, overload, drain) to a
    /// response line rather than dropping the request.
    pub fn submit_line(&self, line: &str) -> Response {
        let started = Instant::now();
        let decoded = match Json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                return self.reject(
                    &Json::Null,
                    ServeKind::Invalid,
                    0,
                    ServeStatus::BadRequest,
                    &format!("invalid JSON: {e}"),
                    started,
                );
            }
        };
        let id = request_id(&decoded);
        // `"spice"` bodies desugar to their JSON-deck equivalent *before*
        // request parsing and canonicalization, so both spellings of a
        // circuit share one cache digest and one response byte stream.
        // Every other request keeps the tree it was parsed into: from here
        // on nothing copies it.
        let desugared = match desugar_spice(&decoded) {
            Ok(Cow::Owned(v)) => Some(v),
            Ok(Cow::Borrowed(_)) => None,
            Err(e) => {
                return self.reject(
                    &id,
                    ServeKind::Invalid,
                    0,
                    ServeStatus::BadRequest,
                    &e,
                    started,
                );
            }
        };
        let decoded = desugared.unwrap_or(decoded);
        let request = match validate_request(&decoded) {
            Ok(r) => r,
            Err(e) => {
                return self.reject(
                    &id,
                    ServeKind::Invalid,
                    0,
                    ServeStatus::BadRequest,
                    &e,
                    started,
                );
            }
        };
        let kind = request.kind();
        match request {
            Request::Shutdown => {
                self.begin_drain();
                let line = response_line(
                    &id,
                    ServeStatus::Ok,
                    &Body::Payload("{\"draining\":true}".to_string()),
                );
                self.shared
                    .finish(kind, 0, ServeStatus::Ok, started.elapsed(), self.depth());
                Response::Immediate(line)
            }
            Request::Stats => {
                let line =
                    response_line(&id, ServeStatus::Ok, &Body::Payload(self.stats_payload()));
                self.shared
                    .finish(kind, 0, ServeStatus::Ok, started.elapsed(), self.depth());
                Response::Immediate(line)
            }
            simulation => self.submit_simulation(simulation, decoded, id, started),
        }
    }

    /// Admits a validated simulation request; `decoded` is the request
    /// object it was validated from, which still holds a transient's deck.
    fn submit_simulation(
        &self,
        mut request: Request,
        mut decoded: Json,
        id: Json,
        started: Instant,
    ) -> Response {
        let kind = request.kind();
        let canonical = canonical_key(&decoded);
        let digest = digest_bytes(canonical.as_bytes());
        // Cache probe happens at admission, before the queue: replayed
        // responses never occupy a worker slot, which is what makes the
        // warmed-cache throughput independent of simulation cost. A hit
        // copies the stored payload once, into its reply line.
        let hit = {
            let cache = self
                .shared
                .cache
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            cache
                .get(digest, &canonical)
                .map(|payload| result_line(&id, payload))
        };
        if let Some(line) = hit {
            self.shared.count_cache(true);
            self.shared.finish(
                kind,
                digest,
                ServeStatus::Ok,
                started.elapsed(),
                self.depth(),
            );
            return Response::Immediate(line);
        }
        if self.is_draining() {
            return self.reject(
                &id,
                kind,
                digest,
                ServeStatus::ShuttingDown,
                "server is draining",
                started,
            );
        }
        self.shared.count_cache(false);
        // Only a miss needs the deck: move it out of the tree the key was
        // rendered from.
        if let (Request::Transient { deck, .. }, Some(member)) =
            (&mut request, decoded.get_mut("deck"))
        {
            *deck = std::mem::replace(member, Json::Null);
        }
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        let job = Job {
            request,
            id,
            digest,
            canonical,
            queue_depth: self.depth(),
            admitted: started,
            reply: reply_tx,
        };
        let tx = self
            .tx
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let Some(sender) = tx.as_ref() else {
            let id = job.id.clone();
            return self.reject(
                &id,
                kind,
                digest,
                ServeStatus::ShuttingDown,
                "server is draining",
                started,
            );
        };
        // Count the job before a worker can see it: incrementing after a
        // successful send would let the worker's decrement land first and
        // wrap the counter below zero.
        self.shared.queued.fetch_add(1, Ordering::SeqCst);
        let sent = sender.try_send(job);
        if sent.is_err() {
            self.shared.queued.fetch_sub(1, Ordering::SeqCst);
        }
        match sent {
            Ok(()) => Response::Pending(reply_rx),
            Err(TrySendError::Full(job)) => {
                let id = job.id.clone();
                self.reject(
                    &id,
                    kind,
                    digest,
                    ServeStatus::Overloaded,
                    "queue full",
                    started,
                )
            }
            Err(TrySendError::Disconnected(job)) => {
                let id = job.id.clone();
                self.reject(
                    &id,
                    kind,
                    digest,
                    ServeStatus::ShuttingDown,
                    "server is draining",
                    started,
                )
            }
        }
    }

    fn reject(
        &self,
        id: &Json,
        kind: ServeKind,
        digest: u64,
        status: ServeStatus,
        message: &str,
        started: Instant,
    ) -> Response {
        let line = response_line(id, status, &Body::Error(message.to_string()));
        self.shared
            .finish(kind, digest, status, started.elapsed(), self.depth());
        Response::Immediate(line)
    }

    fn depth(&self) -> u64 {
        self.shared.queued.load(Ordering::SeqCst)
    }

    /// The `stats` result payload: counters and fixed configuration, as a
    /// compact JSON document with a fixed key order.
    fn stats_payload(&self) -> String {
        let c = self.counters();
        let cache_len = self
            .shared
            .cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len();
        Json::obj([
            (
                "requests",
                Json::obj([
                    ("ok", Json::from(c.by_status[0] as i64)),
                    ("bad_request", Json::from(c.by_status[1] as i64)),
                    ("timeout", Json::from(c.by_status[2] as i64)),
                    ("overloaded", Json::from(c.by_status[3] as i64)),
                    ("shutting_down", Json::from(c.by_status[4] as i64)),
                    ("error", Json::from(c.by_status[5] as i64)),
                ]),
            ),
            (
                "cache",
                Json::obj([
                    ("hits", Json::from(c.cache_hits as i64)),
                    ("misses", Json::from(c.cache_misses as i64)),
                    ("entries", Json::from(cache_len)),
                    (
                        "capacity",
                        Json::from(
                            self.shared
                                .cache
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .capacity(),
                        ),
                    ),
                ]),
            ),
            (
                "config",
                Json::obj([
                    ("threads", Json::from(self.shared.threads)),
                    ("queue_depth", Json::from(self.shared.queue_depth)),
                    (
                        "deadline_ms",
                        Json::from(self.shared.deadline.as_millis() as i64),
                    ),
                    ("draining", Json::from(self.is_draining())),
                ]),
            ),
        ])
        .render()
    }
}

/// One worker: pull a job, execute it under the deadline, reply, repeat
/// until the queue closes.
fn worker_loop(rx: &Arc<Mutex<mpsc::Receiver<Job>>>, shared: &Arc<Shared>) {
    loop {
        let job = {
            let guard = rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            guard.recv()
        };
        let Ok(job) = job else {
            return;
        };
        shared.queued.fetch_sub(1, Ordering::SeqCst);
        run_job(job, shared);
    }
}

fn run_job(job: Job, shared: &Arc<Shared>) {
    let kind = job.request.kind();
    let request = job.request;
    let (status, line) = match run_compute(move || execute(&request), shared.deadline) {
        Ok(payload) => {
            let rendered = payload.render();
            let line = result_line(&job.id, &rendered);
            let mut cache = shared
                .cache
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            cache.insert(job.digest, &job.canonical, rendered);
            (ServeStatus::Ok, line)
        }
        Err((status, message)) => (
            status,
            response_line(&job.id, status, &Body::Error(message)),
        ),
    };
    shared.finish(
        kind,
        job.digest,
        status,
        job.admitted.elapsed(),
        job.queue_depth,
    );
    // The client may have hung up; a dead reply channel is not an error.
    let _ = job.reply.send(line);
}

/// Runs `compute` on a disposable thread and waits for it up to
/// `deadline`, so an overrun frees the calling worker slot at once; the
/// abandoned thread's late result is sent into a dropped receiver and
/// discarded. A compute that returns an error, or panics, answers
/// [`ServeStatus::Error`] with its message; only a compute still running
/// at the deadline answers [`ServeStatus::Timeout`].
fn run_compute<F>(compute: F, deadline: Duration) -> Result<Json, (ServeStatus, String)>
where
    F: FnOnce() -> Result<Json, String> + Send + 'static,
{
    let (done_tx, done_rx) = mpsc::sync_channel(1);
    let spawned = thread::Builder::new()
        .name("lcosc-serve-job".to_string())
        .spawn(move || {
            let result = panic::catch_unwind(AssertUnwindSafe(compute)).unwrap_or_else(|payload| {
                Err(format!("compute panicked: {}", panic_message(&*payload)))
            });
            let _ = done_tx.send(result);
        });
    if let Err(e) = spawned {
        return Err((
            ServeStatus::Error,
            format!("failed to spawn compute thread: {e}"),
        ));
    }
    match done_rx.recv_timeout(deadline) {
        Ok(result) => result.map_err(|message| (ServeStatus::Error, message)),
        Err(RecvTimeoutError::Timeout) => {
            Err((ServeStatus::Timeout, "deadline exceeded".to_string()))
        }
        Err(RecvTimeoutError::Disconnected) => Err((
            ServeStatus::Error,
            "compute thread ended without a result".to_string(),
        )),
    }
}

/// The message a panic was raised with (`panic!` carries a `&str` or a
/// `String`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(threads: usize) -> Arc<ServeEngine> {
        ServeEngine::start(&ServeConfig {
            threads,
            queue_depth: 8,
            cache_entries: 32,
            deadline: Duration::from_secs(10),
            max_line_bytes: 1 << 20,
            trace: Trace::off(),
        })
    }

    #[test]
    fn scenario_round_trip_hits_cache_on_repeat() {
        let e = engine(2);
        let line = r#"{"id":1,"kind":"scenario","fault":"open_coil","preset":"fast_test"}"#;
        let cold = e.submit_line(line).wait();
        assert!(cold.contains("\"status\":\"ok\""), "{cold}");
        let warm = e.submit_line(line).wait();
        assert_eq!(cold, warm);
        let c = e.counters();
        assert_eq!(c.cache_hits, 1);
        assert_eq!(c.cache_misses, 1);
        e.shutdown();
    }

    #[test]
    fn responses_differing_only_in_id_share_the_cache_slot() {
        let e = engine(1);
        let a = e
            .submit_line(r#"{"id":"a","kind":"scenario","fault":"driver_dead"}"#)
            .wait();
        let b = e
            .submit_line(r#"{"id":"b","kind":"scenario","fault":"driver_dead"}"#)
            .wait();
        assert_eq!(e.counters().cache_hits, 1);
        // Identical apart from the echoed id.
        assert_eq!(a.replace("\"id\":\"a\"", "\"id\":\"b\""), b);
        e.shutdown();
    }

    #[test]
    fn bad_lines_answer_immediately_without_touching_workers() {
        let e = engine(1);
        let garbage = e.submit_line("{not json").wait();
        assert!(garbage.contains("\"status\":\"bad_request\""), "{garbage}");
        let unknown = e.submit_line(r#"{"id":9,"kind":"warp"}"#).wait();
        assert!(unknown.contains("\"id\":9"), "{unknown}");
        assert!(unknown.contains("\"status\":\"bad_request\""), "{unknown}");
        assert_eq!(e.counters().by_status[1], 2);
        e.shutdown();
    }

    #[test]
    fn stats_reports_counters_and_config() {
        let e = engine(1);
        let _ = e
            .submit_line(r#"{"kind":"scenario","fault":"open_coil"}"#)
            .wait();
        let stats = e.submit_line(r#"{"id":0,"kind":"stats"}"#).wait();
        assert!(stats.contains("\"requests\":{\"ok\":1"), "{stats}");
        assert!(
            stats.contains("\"cache\":{\"hits\":0,\"misses\":1,\"entries\":1"),
            "{stats}"
        );
        assert!(stats.contains("\"threads\":1"), "{stats}");
        e.shutdown();
    }

    #[test]
    fn drain_refuses_new_work_but_finishes_nothing_in_flight_breaks() {
        let e = engine(1);
        let ok = e.submit_line(r#"{"kind":"scenario","fault":"open_coil"}"#);
        e.begin_drain();
        let refused = e
            .submit_line(r#"{"kind":"scenario","fault":"coil_short"}"#)
            .wait();
        assert!(
            refused.contains("\"status\":\"shutting_down\""),
            "{refused}"
        );
        // The job admitted before the drain still completes.
        assert!(ok.wait().contains("\"status\":\"ok\""));
        e.shutdown();
    }

    #[test]
    fn a_panicked_compute_answers_error_not_timeout() {
        let deadline = Duration::from_secs(10);
        let outcome = run_compute(|| panic!("amplitude must be positive"), deadline);
        assert_eq!(
            outcome,
            Err((
                ServeStatus::Error,
                "compute panicked: amplitude must be positive".to_string()
            ))
        );
        let formatted = run_compute(|| panic!("code {} out of range", 64), deadline);
        assert_eq!(
            formatted,
            Err((
                ServeStatus::Error,
                "compute panicked: code 64 out of range".to_string()
            ))
        );
        // Only a compute still running at the deadline is a timeout.
        let slow = run_compute(
            || {
                thread::sleep(Duration::from_millis(200));
                Ok(Json::Null)
            },
            Duration::from_millis(10),
        );
        assert_eq!(
            slow,
            Err((ServeStatus::Timeout, "deadline exceeded".to_string()))
        );
        assert_eq!(
            run_compute(|| Ok(Json::from(true)), deadline),
            Ok(Json::from(true))
        );
    }

    #[test]
    fn shutdown_request_drains_via_protocol() {
        let e = engine(1);
        let resp = e.submit_line(r#"{"id":5,"kind":"shutdown"}"#).wait();
        assert_eq!(resp, r#"{"id":5,"status":"ok","result":{"draining":true}}"#);
        assert!(e.is_draining());
        e.shutdown();
    }
}
