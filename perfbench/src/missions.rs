//! The `missions` workload: serial fault missions on the `fast_test`
//! preset, through the production engine (`Fidelity::MultiRate`, the
//! production horizon of `SCENARIO_POST_FAULT_TICKS` ticks).
//!
//! The untraced run times whole passes of [`MISSIONS`] through
//! `run_scenario_mission` and checks every result against its row of
//! `tests/golden/fmea_fast_test.json` bit for bit. Its latency samples are
//! pass wall times. The traced run replays
//! each mission through `ClosedLoopSim` one `tick()` at a time, so the
//! mission splits into settling, cycle-fidelity ticks and envelope ticks.

use crate::report::Outcome;
use crate::stats::{mean, median, nearest_rank};
use crate::stream::permutation;
use lcosc_campaign::{job_seed, Json};
use lcosc_core::config::{Fidelity, OscillatorConfig};
use lcosc_core::sim::ClosedLoopSim;
use lcosc_safety::scenario::{
    check_scenario, run_scenario_mission, ScenarioResult, SCENARIO_POST_FAULT_TICKS,
};
use lcosc_safety::Fault;
use lcosc_serve::protocol::fault_token;
use lcosc_trace::Trace;
use std::time::{Duration, Instant};

/// One mission per fault class of the catalog; the pin-mirror duplicates
/// are dropped.
pub const MISSIONS: [Fault; 8] = [
    Fault::OpenCoil,
    Fault::CoilShort,
    Fault::PinShortToGround { pin: 0 },
    Fault::PinShortToSupply { pin: 1 },
    Fault::MissingCapacitor { pin: 0 },
    Fault::RsDrift { factor: 4.0 },
    Fault::SupplyLoss,
    Fault::DriverDead,
];

/// Wall time of one pass on a 2-core x86-64 host: a run covers
/// `round(seconds / NOMINAL_PASS_S)` passes (at least one), a fixed
/// amount of work for a given `--seconds`.
const NOMINAL_PASS_S: u64 = 15;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

/// Pin-short conductance injected by `run_scenario_mission` (a 50 Ω
/// solder bridge); the replay must inject the same value.
const SHORT_CONDUCTANCE: f64 = 0.02;

/// The golden FMEA matrix of the `fast_test` preset.
const GOLDEN: &str = include_str!("../../tests/golden/fmea_fast_test.json");

/// Golden rows keyed by the fault's display name.
pub struct Golden {
    rows: Vec<Json>,
}

impl Golden {
    /// Parses the compiled-in golden matrix.
    pub fn load() -> Golden {
        let doc = Json::parse(GOLDEN).expect("golden FMEA matrix is valid JSON");
        let Some(Json::Array(rows)) = doc.get("entries") else {
            panic!("golden FMEA matrix lacks entries");
        };
        Golden { rows: rows.clone() }
    }

    fn row(&self, fault: Fault) -> Result<&Json, String> {
        let name = fault.to_string();
        self.rows
            .iter()
            .find(|r| r.get("fault").and_then(Json::as_str) == Some(name.as_str()))
            .ok_or_else(|| format!("no golden row for {name}"))
    }

    /// The golden pre-fault amplitude (shared by every row).
    pub fn vpp_before(&self) -> Result<f64, String> {
        self.row(Fault::OpenCoil)?
            .get("vpp_before")
            .and_then(Json::as_f64)
            .ok_or_else(|| "golden row lacks vpp_before".to_string())
    }

    /// Checks a mission result against its golden row, floats bit for bit.
    pub fn check(&self, r: &ScenarioResult) -> Result<(), String> {
        let row = self.row(r.fault)?;
        let detectors: Vec<Json> = r
            .triggered
            .iter()
            .map(|k| Json::from(k.to_string()))
            .collect();
        let float_matches = |key: &str, got: f64| {
            row.get(key)
                .and_then(Json::as_f64)
                .is_some_and(|want| want.to_bits() == got.to_bits())
        };
        let fields = [
            (
                "detectors",
                row.get("detectors") == Some(&Json::Array(detectors)),
            ),
            (
                "detected",
                row.get("detected") == Some(&Json::Bool(r.detected)),
            ),
            (
                "code_saturated",
                row.get("code_saturated") == Some(&Json::Bool(r.code_saturated)),
            ),
            ("safe", row.get("safe") == Some(&Json::Bool(r.is_safe()))),
            ("vpp_before", float_matches("vpp_before", r.vpp_before)),
            ("final_vpp", float_matches("final_vpp", r.final_vpp)),
        ];
        match fields.iter().find(|(_, ok)| !ok) {
            None => Ok(()),
            Some((field, _)) => Err(format!(
                "{}: {field} differs from the golden row ({r:?})",
                fault_token(r.fault)
            )),
        }
    }
}

fn base_config() -> OscillatorConfig {
    let mut cfg = OscillatorConfig::fast_test();
    cfg.fidelity = Fidelity::MultiRate;
    cfg
}

/// Passes per run for a given `--seconds`.
pub fn passes_for(seconds: u64) -> u64 {
    ((seconds + NOMINAL_PASS_S / 2) / NOMINAL_PASS_S).max(1)
}

/// Mission order of one pass: a seeded permutation of [`MISSIONS`].
pub fn pass_order(seed: u64, pass: u64) -> Vec<Fault> {
    permutation(MISSIONS.len(), job_seed(seed, pass))
        .into_iter()
        .map(|i| MISSIONS[i])
        .collect()
}

fn run_mission(fault: Fault) -> lcosc_core::Result<ScenarioResult> {
    run_scenario_mission(
        fault,
        &base_config(),
        &Trace::off(),
        Fidelity::MultiRate,
        SCENARIO_POST_FAULT_TICKS,
    )
}

/// Set-up: the static pre-check of the preset, then settling the nominal
/// loop once and checking its amplitude against the golden value.
fn set_up(golden: &Golden, out: &mut Outcome) -> Duration {
    let start = Instant::now();
    let report = check_scenario(&base_config());
    let settled =
        ClosedLoopSim::new_unchecked(base_config()).and_then(|mut s| s.run_until_settled());
    let elapsed = start.elapsed();
    if report.has_errors() {
        out.fail(format!(
            "static pre-check failed: {}",
            report.render_human()
        ));
    }
    match (settled, golden.vpp_before()) {
        (Ok(s), Ok(want)) if s.final_vpp.to_bits() == want.to_bits() => {}
        (Ok(s), Ok(want)) => out.fail(format!("settled vpp {} != golden {want}", s.final_vpp)),
        (Err(e), _) => out.fail(format!("settling failed: {e}")),
        (_, Err(e)) => out.fail(e),
    }
    elapsed
}

/// The untraced run.
pub fn run(seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let golden = Golden::load();
    let setups: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| set_up(&golden, &mut out).as_secs_f64())
        .collect();

    // A pass (the fault list a user's FMEA runs) is the unit of latency:
    // per-mission times span 0.1 s to 10 s across the eight classes, so
    // their percentiles would hinge on single samples.
    let passes = passes_for(seconds);
    let mut pass_ms = Vec::new();
    let start = Instant::now();
    for pass in 0..passes {
        let pass_start = Instant::now();
        for fault in pass_order(seed, pass) {
            let result = run_mission(fault);
            out.attempted += 1;
            match result {
                Ok(r) => {
                    if let Err(e) = golden.check(&r) {
                        out.fail(e);
                    }
                }
                Err(e) => out.fail(format!("{}: {e}", fault_token(fault))),
            }
        }
        pass_ms.push(pass_start.elapsed().as_secs_f64() * 1e3);
    }
    let wall = start.elapsed().as_secs_f64();
    let rss = crate::peak_rss_mb();

    let missions = out.attempted as usize;
    pass_ms.sort_by(f64::total_cmp);
    out.metric("setup_s", median(&setups), "s", setups.len());
    out.metric("ops_per_s", missions as f64 / wall, "1/s", missions);
    out.metric(
        "latency_p50_ms",
        nearest_rank(&pass_ms, 50),
        "ms",
        pass_ms.len(),
    );
    out.metric(
        "latency_p99_ms",
        nearest_rank(&pass_ms, 99),
        "ms",
        pass_ms.len(),
    );
    match rss {
        Ok(mb) => out.metric("peak_rss_mb", mb, "MB", 1),
        Err(e) => out.fail(e),
    }
    out
}

/// Per-tick split of one replayed mission.
#[derive(Debug, Default)]
struct Replay {
    settle: f64,
    cycle_time: f64,
    envelope_time: f64,
    cycle_ticks: u64,
    envelope_ticks: u64,
    mode_switches: u64,
    bisections: u64,
    wall: f64,
    final_vpp: f64,
}

/// Replays `run_scenario_mission` step by step: construction, settling,
/// the same injection, then each post-fault `tick()` timed on its own and
/// classified by the change in `mode_stats()`.
fn replay(fault: Fault) -> Result<Replay, String> {
    let cfg = base_config();
    let start = Instant::now();
    let mut sim = ClosedLoopSim::new_unchecked(cfg.clone()).map_err(|e| e.to_string())?;
    let t = Instant::now();
    sim.run_until_settled().map_err(|e| e.to_string())?;
    let mut r = Replay {
        settle: t.elapsed().as_secs_f64(),
        ..Replay::default()
    };
    match fault {
        Fault::OpenCoil | Fault::SupplyLoss | Fault::DriverDead => sim.inject_driver_failure(),
        Fault::PinShortToGround { pin } | Fault::PinShortToSupply { pin } => {
            sim.inject_pin_leak(pin, SHORT_CONDUCTANCE);
        }
        Fault::CoilShort | Fault::MissingCapacitor { .. } | Fault::RsDrift { .. } => {
            let tank = fault
                .faulted_tank(&cfg.tank)
                .ok_or("tank fault without a faulted tank")?;
            sim.inject_tank(tank);
        }
    }
    for _ in 0..SCENARIO_POST_FAULT_TICKS {
        let before = sim.mode_stats();
        let t = Instant::now();
        sim.tick();
        let dt = t.elapsed().as_secs_f64();
        let after = sim.mode_stats();
        if after.cycle_ticks > before.cycle_ticks {
            r.cycle_ticks += 1;
            r.cycle_time += dt;
        } else if after.envelope_ticks > before.envelope_ticks {
            r.envelope_ticks += 1;
            r.envelope_time += dt;
        } else {
            return Err("a tick advanced neither fidelity".to_string());
        }
        r.mode_switches += after.mode_switches - before.mode_switches;
        r.bisections += after.bisections - before.bisections;
    }
    r.final_vpp = sim.amplitude_vpp();
    r.wall = start.elapsed().as_secs_f64();
    Ok(r)
}

/// The traced run: one pass of untraced missions (their wall times are
/// the `scenario` layer) and the same pass replayed tick by tick.
pub fn run_traced(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let golden = Golden::load();
    let order = pass_order(seed, 0);

    let mut mission_ms = Vec::new();
    let mut untraced = Vec::new();
    for &fault in &order {
        let t = Instant::now();
        let result = run_mission(fault);
        mission_ms.push((fault, t.elapsed().as_secs_f64() * 1e3));
        out.attempted += 1;
        match result {
            Ok(r) => {
                if let Err(e) = golden.check(&r) {
                    out.fail(e);
                }
                untraced.push((fault, r.final_vpp));
            }
            Err(e) => out.fail(format!("{}: {e}", fault_token(fault))),
        }
    }

    let mut replays = Vec::new();
    let start = Instant::now();
    for &fault in &order {
        match replay(fault) {
            Ok(r) => replays.push((fault, r)),
            Err(e) => out.fail(format!("{} replay: {e}", fault_token(fault))),
        }
    }
    let replay_wall = start.elapsed().as_secs_f64();

    let mut coverage = Vec::new();
    for (fault, r) in &replays {
        let covered = (r.settle + r.cycle_time + r.envelope_time) / r.wall;
        coverage.push(covered);
        if !(0.95..=1.0).contains(&covered) {
            out.fail(format!(
                "{}: settle + ticks cover {covered} of the replay wall time",
                fault_token(*fault)
            ));
        }
        match untraced.iter().find(|(f, _)| f == fault) {
            Some((_, vpp)) if vpp.to_bits() == r.final_vpp.to_bits() => {}
            Some((_, vpp)) => out.fail(format!(
                "{}: replay final_vpp {} != mission final_vpp {vpp}",
                fault_token(*fault),
                r.final_vpp
            )),
            None => {}
        }
    }

    for (fault, ms) in &mission_ms {
        let name = format!("scenario.mission_ms.{}", fault_token(*fault));
        out.metric(&name, *ms, "ms", 1);
    }
    let sum = |f: fn(&Replay) -> f64| replays.iter().map(|(_, r)| f(r)).sum::<f64>();
    let count = |f: fn(&Replay) -> u64| replays.iter().map(|(_, r)| f(r)).sum::<u64>();
    let cycle_ticks = count(|r| r.cycle_ticks);
    let envelope_ticks = count(|r| r.envelope_ticks);
    let total = sum(|r| r.wall);
    let settles: Vec<f64> = replays.iter().map(|(_, r)| r.settle * 1e3).collect();
    out.metric("sim.settle_ms", mean(&settles), "ms", settles.len());
    out.metric(
        "sim.cycle_tick_ms",
        sum(|r| r.cycle_time) * 1e3 / cycle_ticks.max(1) as f64,
        "ms",
        cycle_ticks as usize,
    );
    out.metric(
        "sim.envelope_tick_us",
        sum(|r| r.envelope_time) * 1e6 / envelope_ticks.max(1) as f64,
        "us",
        envelope_ticks as usize,
    );
    out.metric(
        "sim.cycle_time_share",
        sum(|r| r.cycle_time) / total,
        "ratio",
        replays.len(),
    );
    let min_coverage = coverage.iter().copied().fold(f64::INFINITY, f64::min);
    out.metric("sim.layer_coverage", min_coverage, "ratio", coverage.len());
    out.metric(
        "sim.cycle_ticks",
        cycle_ticks as f64,
        "count",
        replays.len(),
    );
    out.metric(
        "sim.envelope_ticks",
        envelope_ticks as f64,
        "count",
        replays.len(),
    );
    let switches = count(|r| r.mode_switches);
    out.metric("sim.mode_switches", switches as f64, "count", replays.len());
    let bisections = count(|r| r.bisections);
    out.metric("sim.bisections", bisections as f64, "count", replays.len());
    out.metric(
        "traced.ops_per_s",
        replays.len() as f64 / replay_wall,
        "1/s",
        replays.len(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_follow_seconds_and_never_drop_to_zero() {
        assert_eq!(passes_for(1), 1);
        assert_eq!(passes_for(15), 1);
        assert_eq!(passes_for(25), 2);
        assert_eq!(passes_for(30), 2);
        assert_eq!(passes_for(45), 3);
    }

    #[test]
    fn every_pass_runs_each_fault_class_once() {
        for pass in 0..4 {
            let order = pass_order(9, pass);
            assert_eq!(order.len(), MISSIONS.len());
            for fault in MISSIONS {
                assert_eq!(order.iter().filter(|&&f| f == fault).count(), 1);
            }
        }
        assert_eq!(pass_order(9, 2), pass_order(9, 2));
    }

    #[test]
    fn golden_check_rejects_a_one_ulp_change() {
        let golden = Golden::load();
        let vpp = golden.vpp_before().expect("golden vpp_before");
        let row = golden.row(Fault::RsDrift { factor: 4.0 }).expect("row");
        let final_vpp = row
            .get("final_vpp")
            .and_then(Json::as_f64)
            .expect("final_vpp");
        let good = ScenarioResult {
            fault: Fault::RsDrift { factor: 4.0 },
            triggered: Vec::new(),
            detected: false,
            code_saturated: false,
            final_vpp,
            vpp_before: vpp,
        };
        assert_eq!(golden.check(&good), Ok(()));
        let bad = ScenarioResult {
            final_vpp: f64::from_bits(final_vpp.to_bits() + 1),
            ..good.clone()
        };
        assert!(golden.check(&bad).is_err());
        let undetected = ScenarioResult {
            fault: Fault::OpenCoil,
            ..good
        };
        assert!(golden.check(&undetected).is_err());
    }
}
