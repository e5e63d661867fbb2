//! Golden-file regression harness: key reports are rendered to byte-stable
//! JSON and compared against fixtures under `tests/golden/`. Regenerate a
//! fixture after an intentional model change with
//!
//! ```text
//! LCOSC_BLESS=1 cargo test -q --test golden_regression
//! ```
//!
//! and review the fixture diff like any other code change. Byte stability
//! comes from the [`lcosc::campaign::Json`] renderer: ordered keys and
//! shortest-roundtrip float formatting, so any byte difference is a real
//! behavioural difference.

use lcosc::campaign::{digest_bytes, Json};
use lcosc::circuit::{
    run_transient, workloads, Integrator, Netlist, SolverPath, TransientOptions, Waveform,
};
use lcosc::core::config::{Fidelity, OscillatorConfig};
use lcosc::core::{ClosedLoopSim, DriverShape, GmDriver, OscillatorModel, OscillatorState};
use lcosc::dac::{multiplication_factor, relative_step, Code, DacMismatchParams};
use lcosc::safety::FmeaReport;
use std::path::PathBuf;

/// Compares `rendered` against `tests/golden/<name>`, or rewrites the
/// fixture when `LCOSC_BLESS=1` is set.
fn golden(name: &str, rendered: &str) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", name]
        .iter()
        .collect();
    if std::env::var_os("LCOSC_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir golden");
        std::fs::write(&path, rendered).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read fixture {}: {e}\n(regenerate with LCOSC_BLESS=1 cargo test --test golden_regression)",
            path.display()
        )
    });
    if expected != rendered {
        // Point at the first differing line to keep the failure readable.
        let diff_line = expected
            .lines()
            .zip(rendered.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| expected.lines().count().min(rendered.lines().count()));
        panic!(
            "golden mismatch for {name} at line {}:\n  expected: {}\n  actual:   {}\n\
             (regenerate with LCOSC_BLESS=1 if the change is intentional)",
            diff_line + 1,
            expected.lines().nth(diff_line).unwrap_or("<eof>"),
            rendered.lines().nth(diff_line).unwrap_or("<eof>"),
        );
    }
}

#[test]
fn fmea_fast_test_matrix_is_stable() {
    let report =
        FmeaReport::run(&OscillatorConfig::fast_test()).expect("fast_test preset is valid");
    golden("fmea_fast_test.json", &report.to_json().render_pretty(2));
}

#[test]
fn yield_analysis_summary_is_stable() {
    // Same campaign the repro binary tracks: 200 dies, seed 1, ±15 % window.
    let run = lcosc::dac::yield_analysis_campaign(&DacMismatchParams::default(), 200, 1, 0.15, 1);
    golden("yield_default.json", &run.report.to_json().render_pretty(2));
}

#[test]
fn tank_ring_down_waveform_is_stable() {
    // Cycle-fidelity fixture for the paper's series tank (L = 25 µH,
    // C1 = C2 = 2 nF, Rs = 15 Ω, f0 ≈ 1.007 MHz): ten ring-down cycles at
    // 64 points/cycle, sampled every 8th step. The waveform is pinned
    // bit-for-bit, so it holds under both `SolverPath`s (which are
    // required to be bit-identical) and trips on any arithmetic change
    // in stamping, integration, or the linear solver.
    let mut nl = Netlist::new();
    let lc1 = nl.node("lc1");
    let lc2 = nl.node("lc2");
    let mid = nl.node("mid");
    nl.capacitor_ic(lc1, Netlist::GROUND, 2e-9, 1.0);
    nl.capacitor_ic(lc2, Netlist::GROUND, 2e-9, -1.0);
    nl.inductor(lc1, mid, 25e-6);
    nl.resistor(mid, lc2, 15.0);

    let f0 = 1.0 / (2.0 * std::f64::consts::PI * (25e-6_f64 * 1e-9).sqrt());
    let mut opts = TransientOptions::new(1.0 / (f0 * 64.0), 10.0 / f0);
    opts.record_stride = 8;
    let res = run_transient(&nl, &opts).expect("ring-down converges");

    let vdiff: Vec<Json> = (0..res.len())
        .map(|k| {
            let v = res.voltages_at(k);
            Json::from(v[lc1.index() - 1] - v[lc2.index() - 1])
        })
        .collect();
    let times: Vec<Json> = res.times().iter().map(|&t| Json::from(t)).collect();
    golden(
        "tank_ring_down.json",
        &Json::obj([
            ("f0_hz", Json::from(f0)),
            ("samples", Json::from(res.len())),
            ("times", Json::Array(times)),
            ("vdiff", Json::Array(vdiff)),
        ])
        .render_pretty(2),
    );
}

/// Diode-clamped divider driven by a 500 kHz sine: the nonlinear deck of
/// `crates/circuit/tests/solver_differential.rs`.
fn diode_divider() -> Netlist {
    let mut nl = Netlist::new();
    let vin = nl.node("vin");
    let out = nl.node("out");
    nl.voltage_source(
        vin,
        Netlist::GROUND,
        Waveform::Sine {
            offset: 0.0,
            amplitude: 1.5,
            frequency: 5e5,
            phase: 0.0,
        },
    );
    nl.resistor(vin, out, 1e3);
    nl.diode(
        out,
        Netlist::GROUND,
        lcosc::device::diode::DiodeModel::default(),
    );
    nl.capacitor(out, Netlist::GROUND, 1e-9);
    nl
}

/// A float's bit pattern, so the fixture pins bits rather than a rounding.
fn bits(v: f64) -> Json {
    Json::from(format!("{:016x}", v.to_bits()))
}

/// Digest of every bit of the given series, in order.
fn series_digest(series: &[&[f64]]) -> Json {
    let bytes: Vec<u8> = series
        .iter()
        .flat_map(|s| s.iter())
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    Json::from(format!("{:016x}", digest_bytes(&bytes)))
}

/// Pins the transient solver paths no other oracle covers bit for bit:
/// dense Newton and dense linear (two `.sp` fixtures run with their own
/// `.tran` cards), sparse linear (two large linear workloads under
/// `Auto`), sparse Newton (a diode deck forced to `Sparse`) and the
/// `Reference` oracle, each under both integrators. Every recorded time,
/// voltage and current bit enters the digest; the work counters are
/// pinned too, except the symbolic-analysis counters, which depend on
/// what the process solved before.
#[test]
fn solver_paths_are_stable() {
    let spice = |name: &str| {
        let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", "spice", name]
            .iter()
            .collect();
        let text = std::fs::read_to_string(&path).expect("read spice fixture");
        let deck = lcosc::spice::parse_spice(&text).expect("spice fixture parses");
        let opts = deck.tran_options().expect("fixture has a .tran card");
        (deck.netlist, opts)
    };
    let with_solver = |nl: Netlist, dt: f64, t_end: f64, solver: SolverPath| {
        let mut opts = TransientOptions::new(dt, t_end);
        opts.solver = solver;
        (nl, opts)
    };
    let cases = [
        ("antiparallel_diodes.sp", spice("antiparallel_diodes.sp")),
        ("pulse_switch.sp", spice("pulse_switch.sp")),
        (
            "coupled_tank_network(128)/auto",
            with_solver(
                workloads::coupled_tank_network(128),
                5e-9,
                2e-6,
                SolverPath::Auto,
            ),
        ),
        (
            "rc_ladder(400)/auto",
            with_solver(workloads::rc_ladder(400), 1e-9, 4e-7, SolverPath::Auto),
        ),
        (
            "diode_divider/sparse",
            with_solver(diode_divider(), 1e-8, 4e-6, SolverPath::Sparse),
        ),
        (
            "diode_divider/reference",
            with_solver(diode_divider(), 1e-8, 4e-6, SolverPath::Reference),
        ),
    ];
    let mut runs = Vec::new();
    for (label, (nl, opts)) in &cases {
        for integrator in [Integrator::BackwardEuler, Integrator::Trapezoidal] {
            let opts = TransientOptions {
                integrator,
                ..*opts
            };
            let res = run_transient(nl, &opts).expect("transient converges");
            let s = res.stats();
            let last = res.len() - 1;
            runs.push(Json::obj([
                ("case", Json::from(*label)),
                ("integrator", Json::from(format!("{integrator:?}"))),
                ("used_sparse_path", Json::from(s.used_sparse_path)),
                ("used_linear_fast_path", Json::from(s.used_linear_fast_path)),
                ("samples", Json::from(res.len())),
                ("final_time", Json::from(res.times()[last])),
                (
                    "final_v",
                    Json::Array(
                        res.voltages_at(last)
                            .iter()
                            .map(|&v| Json::from(v))
                            .collect(),
                    ),
                ),
                (
                    "digest",
                    series_digest(&[res.times(), res.voltages_flat(), res.currents_flat()]),
                ),
                ("steps", Json::from(s.steps as i64)),
                ("newton_iterations", Json::from(s.newton_iterations as i64)),
                ("factorizations", Json::from(s.factorizations as i64)),
                ("factor_reuses", Json::from(s.factor_reuses as i64)),
            ]));
        }
    }
    golden(
        "solver_paths.json",
        &Json::obj([("runs", Json::Array(runs))]).render_pretty(2),
    );
}

/// Pins the cycle-fidelity ODE step bit for bit on every branch of its
/// derivative: each driver shape with and without the rail clamp, a leak on
/// either pin, a disabled driver and a zero-limit `Tanh` (open loop, through
/// `OscillatorModel::run`), and a 12-tick `Fidelity::Cycle` loop per shape,
/// through its per-tick record. `fmea_fast_test.json` pins only
/// `LinearSaturate` with rails, under multi-rate.
#[test]
fn cycle_step_paths_are_stable() {
    let cfg = OscillatorConfig::fast_test();
    let linear = DriverShape::LinearSaturate { gm: 10e-3 };
    let tanh = DriverShape::Tanh { gm: 10e-3 };
    let shapes = [
        ("hard_limit", DriverShape::HardLimit),
        ("linear_saturate", linear),
        ("tanh", tanh),
    ];
    // 2 mA swings the fast_test pins past both rails, so the clamp engages.
    let i_max = 2e-3;
    let model = |shape, i_max, rails: bool| {
        let m = OscillatorModel::new(cfg.tank, GmDriver::new(shape, i_max), cfg.vref);
        if rails {
            m.with_rails(cfg.vdd)
        } else {
            m
        }
    };
    let rest = OscillatorState::at_rest(cfg.vref);
    let kick = OscillatorState {
        v1: cfg.vref + 0.5,
        v2: cfg.vref - 0.5,
        il: 0.0,
    };
    let mut open = Vec::new();
    for (name, shape) in shapes {
        open.push((format!("{name}/free"), model(shape, i_max, false), rest));
        open.push((format!("{name}/rails"), model(shape, i_max, true), rest));
    }
    for pin in [0, 1] {
        let mut m = model(linear, i_max, true);
        m.set_pin_leak(pin, 2e-3);
        open.push((format!("linear_saturate/leak_pin{pin}"), m, rest));
    }
    let mut dead = model(linear, i_max, true);
    dead.set_driver_enabled(false);
    open.push(("driver_disabled/kick".into(), dead, kick));
    open.push(("tanh/i_max_0/kick".into(), model(tanh, 0.0, true), kick));

    let mut runs = Vec::new();
    for (label, m, start) in open {
        let wf = m.run(start, 200.0 / cfg.tank.f0().value(), cfg.dt(), 8);
        let last = wf.last_state();
        runs.push(Json::obj([
            ("case", Json::from(label)),
            ("samples", Json::from(wf.len())),
            (
                "final_state",
                Json::Array(vec![bits(last.v1), bits(last.v2), bits(last.il)]),
            ),
            ("digest", series_digest(&[&wf.v1, &wf.v2, &wf.il])),
        ]));
    }
    for (name, shape) in shapes {
        // `sim.rs`'s `cycle_cfg()`: a 0.2 ms tick and a 15 µs detector τ.
        let mut loop_cfg = cfg.clone();
        loop_cfg.fidelity = Fidelity::Cycle;
        loop_cfg.tick_period = 0.2e-3;
        loop_cfg.detector_tau = 15e-6;
        loop_cfg.driver_shape = shape;
        let mut sim = ClosedLoopSim::new(loop_cfg).expect("cycle loop config is valid");
        sim.run_ticks(12);
        let tr = sim.trace();
        runs.push(Json::obj([
            ("case", Json::from(format!("{name}/cycle_loop"))),
            (
                "final_state",
                Json::Array(vec![
                    bits(sim.time()),
                    bits(sim.vdc1()),
                    bits(sim.amplitude_peak()),
                ]),
            ),
            (
                "codes",
                Json::Array(tr.codes.iter().map(|&c| Json::from(c)).collect()),
            ),
            (
                "digest",
                series_digest(&[&tr.tick_times, &tr.vdc1, &tr.amplitudes]),
            ),
        ]));
    }
    golden(
        "cycle_step.json",
        &Json::obj([("runs", Json::Array(runs))]).render_pretty(2),
    );
}

#[test]
fn dac_transfer_staircase_is_stable() {
    // Fig 3/Fig 4 + Table 1: the full 128-code staircase with relative
    // steps (null where the step is undefined).
    let rows: Vec<Json> = Code::all()
        .map(|c| {
            Json::obj([
                ("code", Json::from(c.value())),
                ("units", Json::from(multiplication_factor(c))),
                ("relative_step", Json::from(relative_step(c))),
            ])
        })
        .collect();
    golden(
        "dac_transfer.json",
        &Json::obj([("codes", Json::Array(rows))]).render_pretty(2),
    );
}

/// The prover fixtures hold exactly what `lcosc-check --json --prove
/// config <preset>` prints (compact JSON plus trailing newline), so the
/// CI smoke job can `cmp` the CLI output against them directly.
#[test]
fn prover_verdicts_are_stable_for_every_preset() {
    for (name, cfg) in [
        ("prove_fast_test.json", OscillatorConfig::fast_test()),
        (
            "prove_datasheet_3mhz.json",
            OscillatorConfig::datasheet_3mhz(),
        ),
        ("prove_low_q.json", OscillatorConfig::low_q()),
    ] {
        let outcome = lcosc::proving::prove_config(&cfg);
        assert!(outcome.proved(), "{name}:\n{}", outcome.render_human());
        golden(name, &format!("{}\n", outcome.render_json()));
    }
}

/// Mirrors `lcosc-check --json prove-faults fast_test`: the 11-fault
/// fitment proof document, byte-compared.
#[test]
fn fault_fitment_proofs_are_stable() {
    let proofs = lcosc::proving::prove_fault_responses(&OscillatorConfig::fast_test());
    let doc = lcosc::proving::fault_responses_to_json("fast_test", &proofs);
    golden(
        "prove_faults_fast_test.json",
        &format!("{}\n", doc.render()),
    );
}

/// A seeded failing configuration: the pre-quirk-fix regulation FSM
/// cleared the saturation latches on an in-window hold, which silently
/// disarms the low-amplitude detector. The prover refutes A007 and
/// renders the offending tick sequence as an `lcosc-trace` event stream.
#[test]
fn legacy_hold_quirk_is_refuted_with_a_counterexample_trace() {
    let mut facts = OscillatorConfig::fast_test().prove_facts();
    facts.legacy_hold_clears_saturation = true;
    let outcome = lcosc::check::prove(&facts);
    assert!(!outcome.proved());
    assert!(
        outcome.report.contains("A007"),
        "{}",
        outcome.render_human()
    );
    let cex = outcome
        .counterexamples
        .iter()
        .find(|c| c.obligation == "A007")
        .expect("A007 carries a counterexample");
    assert!(!cex.events.is_empty());
    // The counterexample is a valid trace stream: every event renders to
    // one parseable JSONL line.
    for ev in &cex.events {
        let line = ev.to_jsonl();
        Json::parse(line.trim_end()).expect("counterexample event is valid JSON");
    }
    golden(
        "prove_refuted_legacy_hold.json",
        &format!("{}\n", outcome.render_json()),
    );
}

/// Pins the satellite render-order contract: diagnostics render sorted
/// by (code, location) regardless of emission order.
#[test]
fn report_rendering_orders_by_code_and_location() {
    use lcosc::check::{Provenance, Report};
    let mut report = Report::new();
    // Emit deliberately out of order.
    report.warning(
        "S001",
        "window vs step (emitted first)".to_string(),
        Some(Provenance::Field("window_rel_width")),
    );
    report.error(
        "A001",
        "abstract step exceeds window".to_string(),
        Some(Provenance::Field("window_rel_width")),
    );
    report.error(
        "C001",
        "bad supply rail".to_string(),
        Some(Provenance::Field("vdd")),
    );
    golden("report_render_order.json", &report.render_json());
    let human = report.render_human();
    let a = human.find("A001").expect("A001 rendered");
    let c = human.find("C001").expect("C001 rendered");
    let s = human.find("S001").expect("S001 rendered");
    assert!(a < c && c < s, "{human}");
}
