//! `repro` — regenerates every table and figure of the paper in one run
//! and writes the series as CSV files under `target/repro/`, plus the
//! campaign JSON reports the regression harness tracks.
//!
//! ```text
//! cargo run --release -p lcosc-bench --bin repro -- [--threads N] \
//!     [--campaigns-only] [--results-out PATH] [--unchecked] \
//!     [--trace-out PATH] [--trace-level off|metrics|events] \
//!     [--bench-out PATH] [--serve-bench] [--serve-bench-out PATH]
//! ```
//!
//! Run `repro --help` for the full flag reference (parsing lives in
//! [`lcosc_bench::cli`] where it is unit-tested).
//!
//! - `--threads N` fans the FMEA / Monte-Carlo / sweep campaigns out over
//!   `N` worker threads (`0` = all cores, default `1` = serial). Campaign
//!   *results* are bit-identical for every `N`; only wall-clock changes.
//! - `--campaigns-only` skips the figure CSVs and runs just the campaigns
//!   (the CI equivalence smoke test uses this).
//! - `--results-out PATH` writes the deterministic campaign results JSON
//!   (no timing) to `PATH`, default `target/repro/campaign_results.json`.
//!   Timing statistics go to `target/repro/campaigns.json` separately, so
//!   the results file can be byte-compared across thread counts.
//! - `--trace-out PATH` records a structured trace of a fully-instrumented
//!   demonstration scenario (regulation per-tick stream, fault injection,
//!   detector trips, safe-state reaction) plus the FMEA campaign's job
//!   events. At `--trace-level events` (the default) `PATH` receives the
//!   **golden** JSONL event stream — byte-identical for every `--threads`
//!   value — with machine-dependent job timing quarantined in
//!   `PATH.timing.jsonl` and aggregate metrics in `PATH.metrics.json`. At
//!   `--trace-level metrics` `PATH` receives only the (golden) metrics
//!   JSON, timing in `PATH.timing.json`.
//! - `--bench-out PATH` runs the deterministic transient-solver benchmark
//!   (fast path vs. `LCOSC_SOLVER=reference` path, bit-identity enforced)
//!   and writes the wall-clock/speedup/solver-counter report to `PATH`
//!   (e.g. `BENCH_PR4.json` — the perf regression trajectory).
//! - `--serve-bench` runs the `lcosc-serve` loopback load driver (64 mixed
//!   requests, 1-thread vs 4-thread servers byte-compared, cold vs warmed
//!   cache) and writes the report to `--serve-bench-out` (default
//!   `BENCH_PR5.json`).

use lcosc_bench::cli::{parse_args, render_bench_list, Args, Cli, HELP};
use lcosc_bench::csv::write_csv;
use lcosc_bench::{
    ablation, figures, multirate_bench, prove_bench, serve_bench, sparse_bench, spice_smoke,
};
use lcosc_campaign::{CampaignStats, Json};
use lcosc_core::{ClosedLoopSim, OscillatorConfig};
use lcosc_dac::{multiplication_factor, relative_step, Code, DacMismatchParams};
use lcosc_pad::topology::PadTopology;
use lcosc_safety::scenario::check_scenario;
use lcosc_safety::{run_scenario_with_trace, Fault, SafeStateController};
use lcosc_trace::{
    render_jsonl, FanoutSink, MemorySink, MetricsSink, Trace, TraceEvent, TraceLevel,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Monte-Carlo population tracked by the yield campaign report.
const YIELD_DIES: u32 = 200;
/// Seed base of the tracked yield campaign (same as the unit tests).
const YIELD_SEED: u64 = 1;
/// Regulation window of the tracked yield campaign.
const YIELD_WINDOW: f64 = 0.15;

/// The recording half of the trace plumbing: the sinks we need to read
/// back at end of run, behind one fanned-out [`Trace`] handle.
struct TraceCapture {
    events: Arc<MemorySink>,
    metrics: Arc<MetricsSink>,
    tracer: Trace,
}

impl TraceCapture {
    /// Builds the capture for the requested level; `None` when tracing is
    /// disabled (no `--trace-out`, or `--trace-level off`).
    fn from_args(args: &Args) -> Option<TraceCapture> {
        if args.trace_out.is_none() || args.trace_level == TraceLevel::Off {
            return None;
        }
        let events = Arc::new(MemorySink::new());
        let metrics = Arc::new(MetricsSink::new());
        let tracer = Trace::new(Arc::new(FanoutSink::new(vec![
            events.clone() as Arc<dyn lcosc_trace::TraceSink>,
            metrics.clone(),
        ])));
        Some(TraceCapture {
            events,
            metrics,
            tracer,
        })
    }

    /// Writes the recorded streams. The file at `path` is a pure function
    /// of the event sequence (golden); wall-clock data goes to sibling
    /// files only.
    fn write(&self, path: &Path, level: TraceLevel) -> std::io::Result<()> {
        let events = self.events.snapshot();
        let metrics = self.metrics.snapshot();
        match level {
            TraceLevel::Off => {}
            TraceLevel::Events => {
                write_text(path, &render_jsonl(&events, TraceEvent::is_golden))?;
                write_text(
                    &sibling(path, ".timing.jsonl"),
                    &render_jsonl(&events, |e| !e.is_golden()),
                )?;
                write_text(&sibling(path, ".metrics.json"), &metrics.render_json())?;
            }
            TraceLevel::Metrics => {
                write_text(path, &metrics.render_json())?;
                write_text(
                    &sibling(path, ".timing.json"),
                    &metrics.render_timing_json(),
                )?;
            }
        }
        println!(
            "trace -> {} ({} events recorded, golden stream is thread-count invariant)",
            path.display(),
            events.len()
        );
        Ok(())
    }
}

/// `path` with `suffix` appended to its file name (`trace.jsonl` +
/// `.timing.jsonl` → `trace.jsonl.timing.jsonl`).
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(suffix);
    path.with_file_name(name)
}

/// The fully-instrumented serial demonstration the trace file captures:
/// one hard-fault scenario (per-tick regulation stream, fault injection,
/// detector trips) and the safe-state reaction to its detections. Serial
/// by construction, so the emitted events are deterministic.
fn traced_demo(tracer: &Trace) -> Result<(), Box<dyn std::error::Error>> {
    let base = OscillatorConfig::fast_test();
    let outcome = run_scenario_with_trace(Fault::DriverDead, &base, tracer)?;
    let mut sim = ClosedLoopSim::new(base)?.with_trace(tracer.clone());
    sim.run_until_settled()?;
    SafeStateController::new().react_traced(&outcome.triggered, &mut sim, tracer);
    Ok(())
}

/// One tracked campaign: its timing stats and, when the run was parallel,
/// the serial wall-clock measured for the speedup figure.
struct TrackedCampaign {
    stats: CampaignStats,
    serial_wall: Option<Duration>,
}

impl TrackedCampaign {
    fn to_json(&self) -> Json {
        let speedup = self.serial_wall.map(|serial| {
            let par = self.stats.wall.as_secs_f64();
            if par > 0.0 {
                serial.as_secs_f64() / par
            } else {
                1.0
            }
        });
        Json::obj([
            ("name", Json::from(self.stats.name.clone())),
            ("jobs", Json::from(self.stats.jobs)),
            ("threads", Json::from(self.stats.threads)),
            ("wall_s", Json::from(self.stats.wall.as_secs_f64())),
            (
                "serial_wall_s",
                self.serial_wall
                    .map_or(Json::Null, |w| Json::from(w.as_secs_f64())),
            ),
            ("speedup_vs_serial", speedup.map_or(Json::Null, Json::from)),
        ])
    }
}

/// Runs the tracked campaigns (FMEA matrix + DAC yield): deterministic
/// results plus timing. With `threads > 1` each campaign is first run
/// serially to measure the speedup the JSON report tracks (that
/// measurement run is never traced — its job events would duplicate the
/// tracked run's).
fn run_campaigns(threads: usize, tracer: &Trace) -> (Json, Vec<TrackedCampaign>) {
    let mut tracked = Vec::new();

    // §7 FMEA fault×detector matrix.
    let fmea_serial_wall = (threads > 1).then(|| figures::fmea_matrix_threads(1).stats.wall);
    let fmea = figures::fmea_matrix_threads_traced(threads, tracer);
    tracked.push(TrackedCampaign {
        stats: fmea.stats.clone(),
        serial_wall: fmea_serial_wall,
    });

    // §3/Fig 8 Monte-Carlo DAC yield.
    let params = DacMismatchParams::default();
    let yield_serial_wall = (threads > 1).then(|| {
        lcosc_dac::yield_analysis_campaign(&params, YIELD_DIES, YIELD_SEED, YIELD_WINDOW, 1)
            .stats
            .wall
    });
    let yld =
        lcosc_dac::yield_analysis_campaign(&params, YIELD_DIES, YIELD_SEED, YIELD_WINDOW, threads);
    tracked.push(TrackedCampaign {
        stats: yld.stats.clone(),
        serial_wall: yield_serial_wall,
    });

    // Fig 3/Fig 4 + Table 1 DAC transfer, serialized with the campaign
    // results so the golden layer can track the full staircase.
    let transfer: Vec<Json> = Code::all()
        .map(|c| {
            Json::obj([
                ("code", Json::from(c.value())),
                ("units", Json::from(multiplication_factor(c))),
                ("relative_step", Json::from(relative_step(c))),
            ])
        })
        .collect();

    let results = Json::obj([
        ("fmea", fmea.report.to_json()),
        ("dac_yield", yld.report.to_json()),
        ("dac_transfer", Json::Array(transfer)),
    ]);
    (results, tracked)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cli = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        // Display, not the Debug form Box<dyn Error> would print.
        eprintln!("repro: {e}");
        std::process::exit(2);
    });
    let args = match cli {
        Cli::Help => {
            print!("{HELP}");
            return Ok(());
        }
        Cli::BenchList => {
            print!("{}", render_bench_list());
            return Ok(());
        }
        Cli::Run(args) => *args,
    };
    // The `.sp` early-exit modes run before any campaign machinery: they
    // answer one focused question (does this deck lint? do the fixtures
    // agree? does the fuzzer find anything?) and stop.
    if args.deck.is_some() || args.spice_smoke.is_some() || args.fuzz_smoke {
        return run_spice_modes(&args);
    }

    let capture = TraceCapture::from_args(&args);
    let tracer = capture
        .as_ref()
        .map_or_else(Trace::off, |c| c.tracer.clone());

    // Lint every preset the figures are built on before spending minutes
    // computing them (skippable with --unchecked for fault studies).
    if !args.unchecked {
        for (name, cfg) in [
            ("datasheet_3mhz", OscillatorConfig::datasheet_3mhz()),
            ("low_q", OscillatorConfig::low_q()),
            ("fast_test", OscillatorConfig::fast_test()),
        ] {
            let report = check_scenario(&cfg);
            if report.has_errors() {
                eprintln!(
                    "preset {name} fails the static check:\n{}",
                    report.render_human()
                );
                std::process::exit(1);
            }
        }
        println!("static check: all presets clean");
    }

    let out = PathBuf::from("target/repro");
    std::fs::create_dir_all(&out)?;

    // The instrumented demonstration scenario runs first (serially) so the
    // trace leads with the per-tick regulation story before the campaign
    // job events.
    if tracer.is_enabled() {
        traced_demo(&tracer)?;
    }

    // The tracked campaigns always run: their JSON reports are the
    // regression surface BENCH_*.json tracks.
    let (results, tracked) = run_campaigns(args.threads, &tracer);
    write_text(&args.results_out, &results.render_pretty(2))?;
    let stats = Json::obj([
        ("threads_requested", Json::from(args.threads)),
        (
            "campaigns",
            Json::Array(tracked.iter().map(TrackedCampaign::to_json).collect()),
        ),
    ]);
    write_text(&out.join("campaigns.json"), &stats.render_pretty(2))?;
    println!(
        "campaign results -> {} (deterministic), stats -> {}",
        args.results_out.display(),
        out.join("campaigns.json").display()
    );
    for t in &tracked {
        let speedup = t
            .serial_wall
            .map(|s| {
                format!(
                    ", speedup {:.2}x",
                    s.as_secs_f64() / t.stats.wall.as_secs_f64()
                )
            })
            .unwrap_or_default();
        println!(
            "campaign {}: {} jobs on {} thread(s) in {:.1} ms{speedup}",
            t.stats.name,
            t.stats.jobs,
            t.stats.threads,
            t.stats.wall.as_secs_f64() * 1e3,
        );
    }
    // Solver benchmark: fast vs. reference path, bit-identity enforced.
    if let Some(bench_out) = &args.bench_out {
        let report = lcosc_bench::solver_bench::run_solver_bench(&tracer)?;
        let campaigns: Vec<(String, Option<f64>)> = tracked
            .iter()
            .map(|t| {
                let speedup = t.serial_wall.map(|serial| {
                    let par = t.stats.wall.as_secs_f64();
                    if par > 0.0 {
                        serial.as_secs_f64() / par
                    } else {
                        1.0
                    }
                });
                (t.stats.name.clone(), speedup)
            })
            .collect();
        write_text(bench_out, &report.to_json(&campaigns).render_pretty(2))?;
        println!("solver bench -> {}", bench_out.display());
        for c in &report.cases {
            println!(
                "bench {}: {:.1} ms fast vs {:.1} ms reference ({:.2}x, {} unknowns, {} factorization(s), {} reuse(s)){}",
                c.name,
                c.fast_wall.as_secs_f64() * 1e3,
                c.reference_wall.as_secs_f64() * 1e3,
                c.speedup(),
                c.unknowns,
                c.fast_stats.factorizations,
                c.fast_stats.factor_reuses,
                if c.headline { "  [headline]" } else { "" },
            );
        }
        println!(
            "cycle-fidelity speedup: {:.2}x",
            report.cycle_fidelity_speedup()
        );
    }

    // Serving-layer load driver: loopback servers at 1 and 4 worker
    // threads, byte-compared; cold vs warmed-cache throughput tracked.
    if args.serve_bench {
        let report = serve_bench::run_serve_bench()?;
        write_text(&args.serve_bench_out, &report.to_json().render_pretty(2))?;
        println!("serve bench -> {}", args.serve_bench_out.display());
        for s in &report.servers {
            println!(
                "serve {} thread(s): cold {:.0} req/s (p50 {:.2} ms, p99 {:.2} ms), cached {:.0} req/s ({:.1}x, hit rate {:.0} %)",
                s.threads,
                s.cold.rps,
                s.cold.p50.as_secs_f64() * 1e3,
                s.cold.p99.as_secs_f64() * 1e3,
                s.warm.rps,
                s.warm_speedup(),
                100.0 * s.cache_hit_rate,
            );
        }
    }

    // Static safety prover: min-of-3 wall-clock per preset with the
    // verdict byte-compared across laps.
    if args.prove_bench {
        let report = prove_bench::run_prove_bench()?;
        write_text(&args.prove_bench_out, &report.to_json().render_pretty(2))?;
        println!("prove bench -> {}", args.prove_bench_out.display());
        for l in &report.laps {
            println!(
                "prove {}: {:.1} ms, {} obligations proved, {} reachable states / {} transitions",
                l.preset,
                l.wall.as_secs_f64() * 1e3,
                l.obligations,
                l.reach_states,
                l.reach_transitions,
            );
        }
    }

    // Sparse MNA solver: 1000-node ladder dense-vs-sparse gate, crossover
    // table with the Auto-policy proof, 1-vs-4-thread sparse campaign
    // byte-compare and the dense/sparse differential.
    if args.sparse_bench {
        let report = sparse_bench::run_sparse_bench(&tracer)?;
        write_text(&args.sparse_bench_out, &report.to_json().render_pretty(2))?;
        println!("sparse bench -> {}", args.sparse_bench_out.display());
        for p in &report.crossover {
            println!(
                "sparse crossover {} unknowns: dense {:.2} ms vs sparse {:.2} ms ({:.2}x, auto picked {})",
                p.unknowns,
                p.dense_wall.as_secs_f64() * 1e3,
                p.sparse_wall.as_secs_f64() * 1e3,
                p.speedup(),
                if p.auto_used_sparse { "sparse" } else { "dense" },
            );
        }
        println!(
            "sparse fleet: {} jobs, {} unknowns, {} symbolic analysis(es) + {} reuse(s), bit-identical across 1 and 4 threads",
            report.fleet.jobs,
            report.fleet.unknowns,
            report.fleet.symbolic_analyses,
            report.fleet.symbolic_reuses,
        );
        if report.solver_hatch {
            println!("sparse bench: LCOSC_SOLVER hatch active, gate skipped");
        } else if report.gate_met() {
            println!(
                "sparse bench: ladder speedup {:.2}x ({} unknowns), gate >= {:.0}x met, auto policy proven",
                report.ladder.speedup(),
                report.ladder.unknowns,
                sparse_bench::GATE_MIN_SPEEDUP,
            );
        } else {
            return Err(format!(
                "sparse bench: ladder speedup {:.2}x (policy ok: {}, cache ok: {}) misses the {:.0}x gate",
                report.ladder.speedup(),
                report.auto_policy_ok,
                report.fleet.cache_effective(),
                sparse_bench::GATE_MIN_SPEEDUP,
            )
            .into());
        }
    }

    // Multi-rate engine: the 11-fault mission catalog at cycle vs
    // multi-rate fidelity, outcome identity enforced per fault, with the
    // >= 10x mission-profile speedup gate (unless the fidelity hatch
    // pinned both arms to one engine).
    if args.multirate_bench {
        let report = multirate_bench::run_multirate_bench(&tracer)?;
        write_text(
            &args.multirate_bench_out,
            &report.to_json().render_pretty(2),
        )?;
        println!("multirate bench -> {}", args.multirate_bench_out.display());
        for m in &report.missions {
            println!(
                "multirate {}: cycle {:.1} ms vs multi-rate {:.1} ms ({:.2}x), final code {}, {}",
                m.name,
                m.cycle_wall.as_secs_f64() * 1e3,
                m.multirate_wall.as_secs_f64() * 1e3,
                m.speedup(),
                m.outcome.final_code,
                if m.outcome.detected {
                    "detected"
                } else {
                    "regulated"
                },
            );
        }
        println!(
            "multirate hand-off: {} switches, {} envelope / {} cycle ticks ({:.1} % envelope), {} bisection(s)",
            report.mode_stats.mode_switches,
            report.mode_stats.envelope_ticks,
            report.mode_stats.cycle_ticks,
            report.mode_stats.envelope_permille() as f64 / 10.0,
            report.mode_stats.bisections,
        );
        println!(
            "multirate catalog: cycle {:.2} s vs multi-rate {:.2} s ({:.2}x, informational)",
            report.cycle_total().as_secs_f64(),
            report.multirate_total().as_secs_f64(),
            report.catalog_speedup(),
        );
        if report.fidelity_hatch {
            println!("multirate bench: LCOSC_FIDELITY hatch active, gate skipped");
        } else if report.gate_met() {
            println!(
                "multirate bench: headline ({}) speedup {:.2}x, gate >= {:.0}x met, outcomes identical",
                multirate_bench::HEADLINE_FAULT,
                report.speedup(),
                multirate_bench::GATE_MIN_SPEEDUP,
            );
        } else {
            return Err(format!(
                "multirate bench: headline ({}) speedup {:.2}x misses the {:.0}x gate",
                multirate_bench::HEADLINE_FAULT,
                report.speedup(),
                multirate_bench::GATE_MIN_SPEEDUP,
            )
            .into());
        }
    }

    if let (Some(capture), Some(path)) = (&capture, &args.trace_out) {
        capture.write(path, args.trace_level)?;
    }

    if args.campaigns_only {
        return Ok(());
    }

    println!("writing figure data to {}", out.display());

    // Fig 2.
    let fig02 = figures::fig02_driver_iv();
    write_csv(
        &out.join("fig02_driver_iv.csv"),
        &["v", "i"],
        fig02.iter().map(|(v, i)| vec![*v, *i]),
    )?;

    // Fig 3 / Fig 4.
    let fig03 = figures::fig03_transfer();
    write_csv(
        &out.join("fig03_transfer.csv"),
        &["code", "units"],
        fig03.iter().map(|(c, m)| vec![*c as f64, *m as f64]),
    )?;
    let fig04 = figures::fig04_relative_step();
    write_csv(
        &out.join("fig04_relative_step.csv"),
        &["code", "step"],
        fig04
            .iter()
            .filter_map(|(c, s)| s.map(|s| vec![*c as f64, s])),
    )?;

    // Table 1.
    println!("\n{}", figures::table1());
    figures::table1_verify();

    // Fig 13 / Fig 14.
    let fig13 = figures::fig13_measured_current();
    write_csv(
        &out.join("fig13_measured_current.csv"),
        &["code", "amps"],
        fig13.iter().map(|(c, i)| vec![*c as f64, *i]),
    )?;
    let fig14 = figures::fig14_measured_step();
    write_csv(
        &out.join("fig14_measured_step.csv"),
        &["code", "step"],
        fig14
            .iter()
            .filter_map(|(c, s)| s.map(|s| vec![*c as f64, s])),
    )?;

    // Fig 15 / Fig 16.
    let fig15 = figures::fig15_regulation_steps();
    write_csv(
        &out.join("fig15_regulation_steps.csv"),
        &["t", "code", "vpp"],
        fig15.iter().map(|(t, c, v)| vec![*t, *c as f64, *v]),
    )?;
    let fig16 = figures::fig16_startup();
    write_csv(
        &out.join("fig16_startup.csv"),
        &["t", "code", "vpp"],
        fig16.iter().map(|(t, c, v)| vec![*t, *c as f64, *v]),
    )?;

    // Fig 17 / Fig 18, all topologies.
    for topology in PadTopology::ALL {
        let pts = figures::fig17_18_unsupplied(topology);
        let name = match topology {
            PadTopology::PlainCmos => "plain_cmos",
            PadTopology::SeriesPmos => "series_pmos",
            PadTopology::BulkSwitched => "bulk_switched",
        };
        write_csv(
            &out.join(format!("fig17_18_{name}.csv")),
            &["v_diff", "i_loop", "v_lc1", "v_lc2", "v_vdd"],
            pts.iter()
                .map(|p| vec![p.v_diff, p.i_loop, p.v_lc1, p.v_lc2, p.v_vdd]),
        )?;
    }

    // §9 consumption, §7 FMEA, §8 dual.
    let consumption = figures::consumption_vs_q_threads(args.threads);
    write_csv(
        &out.join("consumption_vs_q.csv"),
        &["q", "supply_a", "code"],
        consumption.iter().map(|(q, i, c)| vec![*q, *i, *c as f64]),
    )?;
    println!("{}", figures::fmea_matrix_threads(args.threads).report);
    let dual = figures::dual_redundancy_threads(args.threads);
    for o in &dual {
        println!(
            "dual {}: vpp {:.3} -> {:.3} (influence {:.2} %)",
            o.partner_topology,
            o.vpp_before,
            o.vpp_after,
            100.0 * o.influence()
        );
    }

    // Ablations.
    let window =
        ablation::window_width_sweep_threads(&[0.03, 0.05, 0.07, 0.10, 0.15, 0.25], args.threads);
    write_csv(
        &out.join("ablation_window.csv"),
        &["window", "activity", "amp_error"],
        window
            .iter()
            .map(|r| vec![r.window, r.activity, r.amplitude_error]),
    )?;
    for r in ablation::dac_law_comparison() {
        println!(
            "dac law {}: operating code {}, step there {:.2} %",
            r.law,
            r.operating_code,
            100.0 * r.worst_step_near_operating
        );
    }

    println!("\nall figures regenerated; see EXPERIMENTS.md for paper-vs-measured notes");
    Ok(())
}

/// The `.sp` early-exit modes: `--deck`, `--spice-smoke`, `--fuzz-smoke`.
/// Any combination runs in that order; the first failure is fatal.
fn run_spice_modes(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(path) = &args.deck {
        let outcome = spice_smoke::run_deck_file(path)?;
        print!("{}", outcome.report.render_human());
        if let Some(summary) = &outcome.transient {
            println!("{summary}");
        }
        if outcome.report.has_errors() {
            return Err(format!(
                "{}: {} error(s) from lcosc-check",
                path.display(),
                outcome.report.error_count()
            )
            .into());
        }
    }
    if let Some(dir) = &args.spice_smoke {
        let cases = spice_smoke::run_spice_smoke(dir)?;
        for case in &cases {
            println!(
                "spice smoke {}: {}",
                case.name,
                if case.identical {
                    "spice and deck spellings byte-identical"
                } else {
                    "DIVERGED"
                }
            );
        }
        if let Some(bad) = cases.iter().find(|c| !c.identical) {
            return Err(format!("spice smoke: {} responses diverged", bad.name).into());
        }
    }
    if args.fuzz_smoke {
        let cfg = lcosc_spice::FuzzConfig {
            seed: args.fuzz_seed,
            cases_per_surface: args.fuzz_cases,
            step_budget: lcosc_spice::FuzzConfig::default().step_budget,
        };
        let report = spice_smoke::run_fuzz_smoke(&cfg);
        write_text(&args.fuzz_out, &report.to_json(&cfg).render_pretty(2))?;
        println!(
            "fuzz smoke: {} cases ({} per surface), {} accepted, {} typed errors, digest {:016x} -> {}",
            report.cases,
            cfg.cases_per_surface,
            report.accepted,
            report.typed_errors,
            report.digest,
            args.fuzz_out.display(),
        );
        if report.panics > 0 || !report.failures.is_empty() {
            for f in &report.failures {
                eprintln!(
                    "fuzz failure [{} case {}] {}: minimized repro: {:?}",
                    f.surface, f.case, f.what, f.minimized
                );
            }
            return Err(format!(
                "fuzz smoke: {} panic(s), {} failure(s)",
                report.panics,
                report.failures.len()
            )
            .into());
        }
    }
    Ok(())
}

fn write_text(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, text)
}
