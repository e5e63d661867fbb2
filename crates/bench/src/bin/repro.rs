//! `repro` — regenerates every table and figure of the paper, the
//! ablations and the extension studies in one run: each series is written
//! as a CSV file under `target/repro/` or printed, next to the
//! deterministic campaign results that CI byte-compares across thread
//! counts.
//!
//! ```text
//! cargo run --release -p lcosc-bench --bin repro -- [--threads N] \
//!     [--campaigns-only] [--results-out PATH] [--unchecked] \
//!     [--trace-out PATH] [--trace-level off|metrics|events]
//! cargo run --release -p lcosc-bench --bin repro -- --deck PATH
//! cargo run --release -p lcosc-bench --bin repro -- --spice-smoke DIR
//! cargo run --release -p lcosc-bench --bin repro -- --fuzz-smoke \
//!     [--fuzz-seed S] [--fuzz-cases N] [--fuzz-out PATH]
//! ```
//!
//! Run `repro --help` for the full flag reference (parsing lives in
//! [`lcosc_bench::cli`] where it is unit-tested).
//!
//! - `--threads N` fans the FMEA / Monte-Carlo / sweep campaigns out over
//!   `N` worker threads (`0` = all cores, default `1` = serial). Campaign
//!   *results* are bit-identical for every `N`; only wall-clock changes.
//! - `--campaigns-only` skips the figure pass and runs just the campaigns.
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
//! - `--deck`, `--spice-smoke` and `--fuzz-smoke` answer one question
//!   about `.sp` input (does this deck lint and simulate? do the fixtures
//!   answer the same through both request spellings? does the fuzzer find
//!   a panic?) and exit before any campaign runs.
//!
//! `repro` prints campaign wall-clock but gates on no timing. The
//! repository benchmark is `perfbench/` (declared in `BENCHMARK.json`).

use lcosc_bench::cli::{parse_args, Args, Cli, HELP};
use lcosc_bench::csv::write_csv;
use lcosc_bench::{ablation, figures, spice_smoke};
use lcosc_campaign::{CampaignStats, Json};
use lcosc_core::{analyze_emissions, ClosedLoopSim, GmDriver, OscillatorConfig};
use lcosc_dac::{multiplication_factor, relative_step, Code, DacMismatchParams};
use lcosc_pad::corners::qualify;
use lcosc_pad::topology::PadTopology;
use lcosc_safety::scenario::check_scenario;
use lcosc_safety::{run_scenario_with_trace, Fault, FmeaReport, SafeStateController};
use lcosc_trace::{
    render_jsonl, FanoutSink, MemorySink, MetricsSink, Trace, TraceEvent, TraceLevel,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

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

/// One tracked campaign's timing stats as a `campaigns.json` entry.
fn campaign_json(stats: &CampaignStats) -> Json {
    Json::obj([
        ("name", Json::from(stats.name.clone())),
        ("jobs", Json::from(stats.jobs)),
        ("threads", Json::from(stats.threads)),
        ("wall_s", Json::from(stats.wall.as_secs_f64())),
    ])
}

/// Runs the tracked campaigns (FMEA matrix + DAC yield) once each:
/// deterministic results plus timing, and the FMEA matrix itself for the
/// figure pass to print.
fn run_campaigns(threads: usize, tracer: &Trace) -> (Json, Vec<CampaignStats>, FmeaReport) {
    // §7 FMEA fault×detector matrix.
    let fmea = figures::fmea_matrix(threads, tracer);

    // §3/Fig 8 Monte-Carlo DAC yield.
    let params = DacMismatchParams::default();
    let yld =
        lcosc_dac::yield_analysis_campaign(&params, YIELD_DIES, YIELD_SEED, YIELD_WINDOW, threads);
    let tracked = vec![fmea.stats, yld.stats];

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
    (results, tracked, fmea.report)
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

    // The tracked campaigns always run: their results file is the surface
    // CI byte-compares across thread counts.
    let (results, tracked, fmea) = run_campaigns(args.threads, &tracer);
    write_text(&args.results_out, &results.render_pretty(2))?;
    let stats = Json::obj([
        ("threads_requested", Json::from(args.threads)),
        (
            "campaigns",
            Json::Array(tracked.iter().map(campaign_json).collect()),
        ),
    ]);
    write_text(&out.join("campaigns.json"), &stats.render_pretty(2))?;
    println!(
        "campaign results -> {} (deterministic), stats -> {}",
        args.results_out.display(),
        out.join("campaigns.json").display()
    );
    for t in &tracked {
        println!(
            "campaign {}: {} jobs on {} thread(s) in {:.1} ms",
            t.name,
            t.jobs,
            t.threads,
            t.wall.as_secs_f64() * 1e3,
        );
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

    // §9 consumption, §7 FMEA (the tracked campaign's matrix), §8 dual.
    let consumption = figures::consumption_vs_q(args.threads);
    write_csv(
        &out.join("consumption_vs_q.csv"),
        &["q", "supply_a", "code"],
        consumption.iter().map(|(q, i, c)| vec![*q, *i, *c as f64]),
    )?;
    println!("{fmea}");
    for o in figures::dual_redundancy(args.threads) {
        println!(
            "dual {}: vpp {:.3} -> {:.3} (influence {:.2} %)",
            o.partner_topology,
            o.vpp_before,
            o.vpp_after,
            100.0 * o.influence()
        );
        println!(
            "dual {}: reflected conductance {:.2e} S",
            o.partner_topology, o.reflected_conductance
        );
    }

    // Ablations.
    let window = ablation::window_width_sweep(&[0.03, 0.05, 0.07, 0.10, 0.15, 0.25], args.threads);
    write_csv(
        &out.join("ablation_window.csv"),
        &["window", "activity", "amp_error"],
        window
            .iter()
            .map(|r| vec![r.window, r.activity, r.amplitude_error]),
    )?;
    for r in &window {
        println!(
            "window {:.0} %: settling tick {}, activity {:.2} codes/tick",
            100.0 * r.window,
            tick_or_never(r.settling_tick),
            r.activity
        );
    }
    for r in ablation::dac_law_comparison() {
        println!(
            "dac law {}: operating code {}, step there {:.2} %",
            r.law,
            r.operating_code,
            100.0 * r.worst_step_near_operating
        );
        println!(
            "dac law {}: settling tick {} from code 127, {} from code 1",
            r.law,
            tick_or_never(r.settle_from_top),
            tick_or_never(r.settle_from_bottom)
        );
    }
    for r in ablation::start_code_sweep(&[64, 80, 90, 105, 120, 127], args.threads) {
        println!(
            "por preset {}: inrush {:.2} mA, starts worst tank {}, settling tick {}",
            r.preset,
            r.inrush * 1e3,
            r.starts_worst_case_tank,
            tick_or_never(r.settling_tick)
        );
    }
    for r in ablation::driver_shape_comparison() {
        println!(
            "driver shape {}: k {:.3}, {:.3} Vpp at 1 mA",
            r.shape, r.k_factor, r.amplitude_vpp
        );
    }

    // Extensions: DAC yield vs mismatch, pad corners, EMC per driver shape.
    let sigmas = [(0.01, 0.008, 0.01), (0.03, 0.025, 0.03), (0.06, 0.05, 0.06)];
    let yields = sigmas.map(|(sigma_prescale, sigma_fixed, sigma_unit)| {
        let params = DacMismatchParams {
            sigma_prescale,
            sigma_fixed,
            sigma_unit,
            ..DacMismatchParams::default()
        };
        let run = lcosc_dac::yield_analysis_campaign(
            &params,
            YIELD_DIES,
            YIELD_SEED,
            YIELD_WINDOW,
            args.threads,
        );
        (params, run.report)
    });
    write_csv(
        &out.join("dac_yield_vs_sigma.csv"),
        &[
            "sigma_prescale",
            "sigma_fixed",
            "sigma_unit",
            "monotonic_yield",
            "regulation_yield",
            "worst_inl",
        ],
        yields.iter().map(|(p, r)| {
            vec![
                p.sigma_prescale,
                p.sigma_fixed,
                p.sigma_unit,
                r.monotonic_yield,
                r.regulation_yield,
                r.worst_inl,
            ]
        }),
    )?;
    for r in qualify(PadTopology::BulkSwitched)? {
        println!(
            "corner {} {:.0} K: bulk-switched peak |I| {:.3} mA",
            r.corner,
            r.temp_k,
            r.peak_current * 1e3
        );
    }
    let cfg = OscillatorConfig::datasheet_3mhz();
    for (name, shape) in ablation::DRIVER_SHAPES {
        let r = analyze_emissions(cfg.tank, GmDriver::new(shape, 0.5e-3), cfg.vref);
        println!(
            "emc {name}: current THD {:.1} %, voltage THD {:.2} %, cleanup {:.1}x",
            100.0 * r.current_thd,
            100.0 * r.voltage_thd,
            r.filtering_gain
        );
    }

    println!("\nall figures regenerated; see EXPERIMENTS.md for paper-vs-measured notes");
    Ok(())
}

/// A settling tick, or `never` for a code that never comes to rest within
/// ±1 of its final value (±1 hunting counts as settled).
fn tick_or_never(tick: Option<usize>) -> String {
    tick.map_or_else(|| "never".to_owned(), |t| t.to_string())
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
