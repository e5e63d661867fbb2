//! The traced run of the serve workloads.
//!
//! The live phase sends a fixed prefix of the seed's stream through the
//! real server with a trace sink on the engine, so the counts below repeat
//! exactly. The benchmark then replays the same lines through each layer's
//! public functions, timing every call from outside; nothing inside the
//! program is instrumented. Times are means per call of that layer.

use crate::report::Outcome;
use crate::serve::{drive, measured_line, set_up, ClientLog, Conn, Traffic, Until};
use crate::stats::mean;
use crate::stream::{self, Class, ROUND};
use lcosc_campaign::{digest_bytes, Json};
use lcosc_circuit::{netlist_from_json, run_transient, Netlist, SolverStats, TransientOptions};
use lcosc_dac::{yield_analysis_campaign, DacMismatchParams};
use lcosc_serve::{canonical_key, desugar_spice, execute, parse_request, response_line};
use lcosc_serve::{Body, CampaignSpec, Request, ResultCache, ServeConfig};
use lcosc_spice::parse_spice;
use lcosc_trace::{MemorySink, ServeKind, ServeStatus, Trace, TraceEvent};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// Rounds of the stream the client sends in the traced live phase: 960
/// cold requests, or 40 replays of each hot-set entry.
const COLD_TRACE_ROUNDS: u64 = 40;
const HOT_TRACE_ROUNDS: u64 = 40;

/// Connections opened while `serve_tcp` is idle, for `server.accept_wait_ms`.
const ACCEPT_PROBES: usize = 8;

const STATS_LINE: &str = "{\"id\":\"stats\",\"kind\":\"stats\"}\n";

const STATUSES: [ServeStatus; 6] = [
    ServeStatus::Ok,
    ServeStatus::BadRequest,
    ServeStatus::Timeout,
    ServeStatus::Overloaded,
    ServeStatus::ShuttingDown,
    ServeStatus::Error,
];

/// Time spent in one layer function and how often it was called.
#[derive(Debug, Default, Clone, Copy)]
struct Layer {
    secs: f64,
    calls: usize,
}

impl Layer {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let r = f();
        self.secs += t.elapsed().as_secs_f64();
        self.calls += 1;
        r
    }

    /// Mean per call, in `unit` seconds (1e3 for ms, 1e6 for µs).
    fn mean(self, unit: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.secs * unit / self.calls as f64
        }
    }
}

/// Solver families a transient request lands on.
const SOLVE_KINDS: [&str; 3] = ["dense_linear", "dense_newton", "sparse_linear"];

/// Time per layer of the requests replayed so far. Callers that only need
/// a replay's result pass a fresh one and drop it.
#[derive(Debug, Default)]
pub struct Layers {
    parse: Layer,
    spice_parse: Layer,
    lint: Layer,
    desugar: Layer,
    request: Layer,
    canonicalize: Layer,
    get: Layer,
    insert: Layer,
    compute: Layer,
    render: Layer,
    respond: Layer,
    from_json: Layer,
    solve: [Layer; 3],
    dac_yield: Layer,
    steps: u64,
    newton_iterations: u64,
    factorizations: u64,
    factor_reuses: u64,
    symbolic_analyses: u64,
    symbolic_reuses: u64,
}

/// Cache counters from the `stats` request.
struct CacheStats {
    hits: i64,
    misses: i64,
    entries: i64,
}

fn cache_stats(conn: &mut Conn) -> Result<CacheStats, String> {
    let reply = conn
        .round_trip(STATS_LINE)
        .map_err(|e| format!("stats: {e}"))?;
    let v = Json::parse(reply).map_err(|e| format!("stats reply: {e}"))?;
    let cache = v
        .get("result")
        .and_then(|r| r.get("cache"))
        .ok_or("stats reply lacks cache counters")?;
    let field = |key: &str| {
        cache
            .get(key)
            .and_then(Json::as_int)
            .ok_or(format!("stats reply lacks cache.{key}"))
    };
    Ok(CacheStats {
        hits: field("hits")?,
        misses: field("misses")?,
        entries: field("entries")?,
    })
}

/// Time to the first reply on a connection opened while the accept loop
/// is idle (sleeping between polls).
fn accept_probe(addr: SocketAddr) -> Result<f64, String> {
    let t = Instant::now();
    let mut conn = Conn::connect(addr).map_err(|e| format!("probe connect: {e}"))?;
    conn.round_trip(STATS_LINE)
        .map_err(|e| format!("probe: {e}"))?;
    Ok(t.elapsed().as_secs_f64() * 1e3)
}

/// One request line after the engine's front end.
pub struct Front {
    /// The `"id"` the reply echoes.
    id: Json,
    /// Canonical cache key: the desugared request without its `"id"`.
    pub key: String,
    /// `digest_bytes` of the key, the cache slot.
    pub digest: u64,
    /// The parsed request.
    pub request: Request,
}

/// The engine's front end, called directly: `Json::parse`,
/// `desugar_spice` (whose `parse_spice` and `SpiceDeck::check` are also
/// timed on their own), `parse_request`, then `canonical_key` and
/// `digest_bytes`.
pub fn front(line: &str, layers: &mut Layers) -> Result<Front, String> {
    let v = layers
        .parse
        .time(|| Json::parse(line))
        .map_err(|e| e.to_string())?;
    if let Some(text) = v.get("spice").and_then(Json::as_str) {
        let deck = layers
            .spice_parse
            .time(|| parse_spice(text))
            .map_err(|e| e.to_string())?;
        layers.lint.time(|| deck.check());
    }
    let desugared = layers.desugar.time(|| desugar_spice(&v))?;
    let request = layers.request.time(|| parse_request(&desugared))?;
    let (key, digest) = layers.canonicalize.time(|| {
        let key = canonical_key(&desugared);
        let digest = digest_bytes(key.as_bytes());
        (key, digest)
    });
    Ok(Front {
        id: v.get("id").cloned().unwrap_or(Json::Null),
        key,
        digest,
        request,
    })
}

/// What the engine answers to one request line.
pub struct Replayed {
    /// The line after the front end.
    pub front: Front,
    /// Whether the payload came from the cache.
    pub hit: bool,
    /// The reply line, without newline.
    pub reply: String,
}

/// The engine's whole path for one line, outside the server: the front
/// end, the cache lookup, on a miss `execute`, render and insert, then the
/// reply line.
pub fn replay(
    line: &str,
    cache: &mut ResultCache,
    layers: &mut Layers,
) -> Result<Replayed, String> {
    let front = front(line, layers)?;
    let cached = layers
        .get
        .time(|| cache.get(front.digest, &front.key).map(str::to_string));
    let hit = cached.is_some();
    let payload = match cached {
        Some(payload) => payload,
        None => {
            let payload = layers.compute.time(|| execute(&front.request))?;
            let rendered = layers.render.time(|| payload.render());
            layers
                .insert
                .time(|| cache.insert(front.digest, &front.key, rendered.clone()));
            rendered
        }
    };
    let reply = layers
        .respond
        .time(|| response_line(&front.id, ServeStatus::Ok, &Body::Payload(payload)));
    Ok(Replayed { front, hit, reply })
}

/// A cache with the server's capacity holding what the server's cache
/// held when the live phase began: every set-up line replayed, each reply
/// checked against the one the server gave.
fn replica(setup: &[(String, String)]) -> Result<ResultCache, String> {
    let mut cache = ResultCache::new(ServeConfig::default().cache_entries);
    for (line, reply) in setup {
        if replay(line, &mut cache, &mut Layers::default())?.reply != *reply {
            return Err("a set-up reply differs from its replay".to_string());
        }
    }
    Ok(cache)
}

/// Replays one live request through the layer functions and checks the
/// reply the client got: its digest (cold) or the set-up reply (hot).
fn replay_one(
    layers: &mut Layers,
    cache: &mut ResultCache,
    line: &str,
    live_digest: u64,
    hot_reply: Option<&str>,
) -> Result<u64, String> {
    let r = replay(line, cache, layers)?;
    let problem = match hot_reply {
        Some(_) if !r.hit => Some("a hot request missed the cache replica"),
        Some(want) if r.reply != want => Some("replayed hot reply differs from set-up"),
        None if r.hit => Some("a cold request hit the cache replica"),
        None if digest_bytes(r.reply.as_bytes()) != live_digest => {
            Some("live reply differs from the replayed execute output")
        }
        _ => None,
    };
    if let Some(problem) = problem {
        return Err(problem.to_string());
    }
    if hot_reply.is_none() {
        replay_compute(layers, &r.front.request)?;
    }
    Ok(r.front.digest)
}

/// The netlist and options `execute` builds for a transient request.
fn transient_input(
    request: &Request,
    from_json: &mut Layer,
) -> Result<Option<(Netlist, TransientOptions)>, String> {
    let Request::Transient {
        deck,
        dt,
        t_end,
        record_stride,
    } = request
    else {
        return Ok(None);
    };
    let nl = from_json
        .time(|| netlist_from_json(deck))
        .map_err(|e| e.to_string())?;
    let mut opts = TransientOptions::new(*dt, *t_end);
    opts.record_stride = *record_stride;
    Ok(Some((nl, opts)))
}

/// One `run_transient` call: its wall time in seconds and its counters.
fn solve(nl: &Netlist, opts: &TransientOptions) -> Result<(f64, SolverStats), String> {
    let t = Instant::now();
    let result = run_transient(nl, opts).map_err(|e| e.to_string())?;
    Ok((t.elapsed().as_secs_f64(), result.stats()))
}

/// The circuit and dac layers under `execute`, called directly.
fn replay_compute(layers: &mut Layers, request: &Request) -> Result<(), String> {
    if let Request::Campaign(CampaignSpec::Yield { dies, seed, window }) = request {
        layers.dac_yield.time(|| {
            yield_analysis_campaign(&DacMismatchParams::default(), *dies, *seed, *window, 1)
        });
    }
    let Some((nl, opts)) = transient_input(request, &mut layers.from_json)? else {
        return Ok(());
    };
    let (secs, s) = solve(&nl, &opts)?;
    let kind = match (s.used_sparse_path, nl.is_linear()) {
        (true, _) => 2,
        (false, true) => 0,
        (false, false) => 1,
    };
    layers.solve[kind].secs += secs;
    layers.solve[kind].calls += 1;
    layers.steps += s.steps;
    layers.newton_iterations += s.newton_iterations;
    layers.factorizations += s.factorizations;
    layers.factor_reuses += s.factor_reuses;
    layers.symbolic_analyses += s.symbolic_analyses;
    layers.symbolic_reuses += s.symbolic_reuses;
    Ok(())
}

/// The sparse structures of the request mix.
const SPARSE: [Class; 4] = [
    Class::Tanks48,
    Class::Tanks128,
    Class::Ladder400,
    Class::Ladder1000,
];

/// The work `setup_s` leaves out: symbolic analyses are cached for the
/// whole process, so only a run's first set-up makes them, and the median
/// of five set-ups, four of them warm, leaves them out. Called before
/// anything else in the process, this solves one request of each sparse
/// structure twice and returns the summed excess of the first solve
/// (which analyzes) over the second (which reuses the analysis), in
/// milliseconds.
fn symbolic_setup_ms(seed: u64) -> Result<f64, String> {
    let mut excess = 0.0;
    for class in SPARSE {
        let front = front(&stream::line(seed, class, 0, 0), &mut Layers::default())?;
        let (nl, opts) = transient_input(&front.request, &mut Layer::default())?
            .ok_or("a sparse class is not a transient request")?;
        let (first, analyzed) = solve(&nl, &opts)?;
        let (again, reused) = solve(&nl, &opts)?;
        if analyzed.symbolic_analyses != 1 || reused.symbolic_reuses != 1 {
            return Err(format!(
                "{class:?}: symbolic analysis not made once and then reused"
            ));
        }
        excess += first - again;
    }
    Ok(excess * 1e3)
}

/// Engine-side view of the live phase, from the trace sink.
#[derive(Debug, Default)]
struct EngineView {
    walls_ms: Vec<f64>,
    queue_depths: Vec<f64>,
    digests: Vec<u64>,
    statuses: BTreeMap<&'static str, u64>,
}

/// Pairs each `ServeRequest` with its `ServeRequestTiming` by completion
/// index.
fn engine_view(events: &[TraceEvent]) -> Result<EngineView, String> {
    let mut requests = BTreeMap::new();
    let mut timings = BTreeMap::new();
    for e in events {
        match e {
            TraceEvent::ServeRequest {
                index,
                kind,
                digest,
                status,
            } => {
                requests.insert(*index, (*kind, *digest, *status));
            }
            TraceEvent::ServeRequestTiming {
                index,
                wall_ns,
                queue_depth,
            } => {
                timings.insert(*index, (*wall_ns, *queue_depth));
            }
            _ => {}
        }
    }
    let mut view = EngineView::default();
    for (index, (kind, digest, status)) in requests {
        if kind == ServeKind::Stats {
            continue;
        }
        let (wall_ns, depth) = timings
            .get(&index)
            .ok_or(format!("request {index} has no timing event"))?;
        view.walls_ms.push(*wall_ns as f64 / 1e6);
        // The engine's `queued` counter can read u64::MAX when a worker's
        // decrement overtakes the admission increment; read it signed.
        view.queue_depths.push(*depth as i64 as f64);
        view.digests.push(digest);
        *view.statuses.entry(status.label()).or_default() += 1;
    }
    Ok(view)
}

/// The traced run of `serve_cold` or `serve_hot`.
pub fn run_traced(traffic: Traffic, seed: u64) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = traced(traffic, seed, &mut out) {
        out.fail(e);
    }
    out
}

fn traced(traffic: Traffic, seed: u64, out: &mut Outcome) -> Result<(), String> {
    let symbolic_ms = symbolic_setup_ms(seed)?;
    let sink = Arc::new(MemorySink::new());
    let mut session = set_up(traffic, seed, Trace::new(sink.clone()))?;
    let before = cache_stats(&mut session.conn)?;
    sink.take();
    let requests = match traffic {
        Traffic::Cold => COLD_TRACE_ROUNDS * ROUND.len() as u64,
        Traffic::Hot => HOT_TRACE_ROUNDS * session.setup.len() as u64,
    };
    let log = drive(&mut session, traffic, seed, Until::Count(requests));
    let events = sink.take();
    let after = cache_stats(&mut session.conn)?;
    let probes = (0..ACCEPT_PROBES)
        .map(|_| accept_probe(session.addr))
        .collect::<Result<Vec<f64>, String>>()?;
    let setup = std::mem::take(&mut session.setup);
    session.stop()?;

    out.attempted = log.sent;
    for failure in &log.failures {
        out.fail(failure.clone());
    }
    let view = engine_view(&events)?;
    let answered = log.latencies_ms.len();

    let mut cache = replica(&setup)?;
    let mut layers = Layers::default();
    let mut digests = Vec::with_capacity(answered);
    for k in 0..answered {
        let (framed, hot_reply) = measured_line(traffic, seed, k as u64, &setup);
        let live_digest = log.digests.get(k).copied().unwrap_or_default();
        match replay_one(
            &mut layers,
            &mut cache,
            framed.trim_end(),
            live_digest,
            hot_reply,
        ) {
            Ok(digest) => digests.push(digest),
            Err(e) => out.fail(format!("request {k}: {e}")),
        }
    }
    let mut engine_digests = view.digests.clone();
    engine_digests.sort_unstable();
    digests.sort_unstable();
    if engine_digests != digests {
        out.fail("the engine served a different request set than the client sent");
    }

    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    let want = match traffic {
        Traffic::Cold => 0.0,
        Traffic::Hot => 1.0,
    };
    if hit_ratio != want || (hits + misses) as usize != answered {
        out.fail(format!(
            "cache hit ratio {hit_ratio} over {answered} requests, want {want}"
        ));
    }

    report(out, traffic, &log, &view, &layers, &probes);
    out.metric(
        "transient.symbolic_setup_ms",
        symbolic_ms,
        "ms",
        SPARSE.len(),
    );
    out.metric("cache.hit_ratio", hit_ratio, "ratio", answered);
    out.metric("cache.entries", after.entries as f64, "count", 1);
    Ok(())
}

fn report(
    out: &mut Outcome,
    traffic: Traffic,
    log: &ClientLog,
    view: &EngineView,
    l: &Layers,
    probes: &[f64],
) {
    let n = log.latencies_ms.len();
    let engine_ms = mean(&view.walls_ms);
    out.metric("traced.ops_per_s", n as f64 / log.server_secs(), "1/s", n);
    out.metric(
        "server.transport_ms",
        mean(&log.latencies_ms) - engine_ms,
        "ms",
        n,
    );
    out.metric("server.accept_wait_ms", mean(probes), "ms", probes.len());
    let wall_metric = match traffic {
        Traffic::Cold => "engine.miss_ms",
        Traffic::Hot => "engine.hit_ms",
    };
    out.metric(wall_metric, engine_ms, "ms", view.walls_ms.len());
    out.metric(
        "engine.queue_depth_mean",
        mean(&view.queue_depths),
        "count",
        n,
    );
    for status in STATUSES {
        let count = view.statuses.get(status.label()).copied().unwrap_or(0);
        out.metric(
            &format!("engine.status.{}", status.label()),
            count as f64,
            "count",
            n,
        );
    }
    if traffic == Traffic::Cold {
        let admission_compute_render = l.parse.mean(1e3)
            + l.desugar.mean(1e3)
            + l.request.mean(1e3)
            + l.canonicalize.mean(1e3)
            + l.get.mean(1e3)
            + l.compute.mean(1e3)
            + l.render.mean(1e3);
        out.metric(
            "engine.dispatch_ms",
            engine_ms - admission_compute_render,
            "ms",
            n,
        );
    }

    let us = |layer: Layer| layer.mean(1e6);
    out.metric("protocol.parse_us", us(l.parse), "us", l.parse.calls);
    out.metric("protocol.desugar_us", us(l.desugar), "us", l.desugar.calls);
    out.metric("protocol.request_us", us(l.request), "us", l.request.calls);
    out.metric(
        "protocol.canonicalize_us",
        us(l.canonicalize),
        "us",
        l.canonicalize.calls,
    );
    out.metric("protocol.respond_us", us(l.respond), "us", l.respond.calls);
    out.metric(
        "spice.parse_us",
        us(l.spice_parse),
        "us",
        l.spice_parse.calls,
    );
    out.metric("check.lint_us", us(l.lint), "us", l.lint.calls);
    out.metric("cache.get_us", us(l.get), "us", l.get.calls);
    if traffic == Traffic::Hot {
        return;
    }
    out.metric("cache.insert_us", us(l.insert), "us", l.insert.calls);
    out.metric(
        "work.compute_ms",
        l.compute.mean(1e3),
        "ms",
        l.compute.calls,
    );
    out.metric("work.render_us", us(l.render), "us", l.render.calls);
    out.metric(
        "deck.from_json_us",
        us(l.from_json),
        "us",
        l.from_json.calls,
    );
    for (kind, solve) in SOLVE_KINDS.iter().zip(l.solve) {
        out.metric(
            &format!("transient.solve_ms.{kind}"),
            solve.mean(1e3),
            "ms",
            solve.calls,
        );
    }
    let solve_secs: f64 = l.solve.iter().map(|s| s.secs).sum();
    let steps = l.steps as usize;
    out.metric(
        "transient.step_us",
        solve_secs * 1e6 / l.steps.max(1) as f64,
        "us",
        steps,
    );
    let factor_events = l.factorizations + l.factor_reuses;
    let reuse_ratio = l.factor_reuses as f64 / factor_events.max(1) as f64;
    out.metric(
        "transient.factor_reuse_ratio",
        reuse_ratio,
        "ratio",
        factor_events as usize,
    );
    let solves = l.from_json.calls;
    for (name, count) in [
        ("transient.steps", l.steps),
        ("transient.newton_iterations", l.newton_iterations),
        ("transient.factorizations", l.factorizations),
        ("transient.factor_reuses", l.factor_reuses),
        ("transient.symbolic_analyses", l.symbolic_analyses),
        ("transient.symbolic_reuses", l.symbolic_reuses),
    ] {
        out.metric(name, count as f64, "count", solves);
    }
    out.metric(
        "dac.yield_ms",
        l.dac_yield.mean(1e3),
        "ms",
        l.dac_yield.calls,
    );
}
