//! Substrate performance benches: how fast the simulators themselves are
//! (cycle-accurate ODE stepping, MNA DC solves, envelope ticks, DAC
//! encoding). These guard against performance regressions in the layers
//! every figure depends on.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use lcosc_core::config::OscillatorConfig;
use lcosc_core::envelope::EnvelopeModel;
use lcosc_core::gm_driver::{DriverShape, GmDriver};
use lcosc_core::oscillator::{OscillatorModel, OscillatorState};
use lcosc_dac::{Code, ControlWord};

fn bench_ode_throughput(c: &mut Criterion) {
    let cfg = OscillatorConfig::datasheet_3mhz();
    let driver = GmDriver::new(DriverShape::LinearSaturate { gm: 10e-3 }, 1e-3);
    let model = OscillatorModel::new(cfg.tank, driver, cfg.vref).with_rails(cfg.vdd);
    let dt = cfg.dt();
    let mut g = c.benchmark_group("substrate");
    g.throughput(Throughput::Elements(1000));
    g.bench_function("oscillator_ode_1k_steps", |b| {
        b.iter(|| {
            let mut state = OscillatorState::at_rest(cfg.vref);
            for _ in 0..1000 {
                model.step(&mut state, dt);
            }
            black_box(state.v_diff())
        });
    });
    g.finish();
}

fn bench_dc_solve(c: &mut Criterion) {
    use lcosc_circuit::analysis::dc::solve_dc;
    use lcosc_circuit::netlist::{Netlist, Waveform};
    use lcosc_pad::topology::{PadDriver, PadTopology};

    c.bench_function("pad_dc_operating_point", |b| {
        b.iter(|| {
            let mut nl = Netlist::new();
            let lcx = nl.node("lcx");
            let vdd = nl.node("vdd");
            let force = nl.node("force");
            nl.voltage_source(force, Netlist::GROUND, Waveform::Dc(2.0));
            nl.resistor(force, lcx, 50.0);
            nl.resistor(vdd, Netlist::GROUND, 2.2e3);
            PadDriver::build_unpowered(&mut nl, "p", lcx, vdd, PadTopology::BulkSwitched);
            black_box(solve_dc(&nl).expect("converges"))
        });
    });
}

fn bench_envelope_tick(c: &mut Criterion) {
    let cfg = OscillatorConfig::datasheet_3mhz();
    let driver = GmDriver::new(DriverShape::LinearSaturate { gm: 10e-3 }, 1e-3);
    let model = EnvelopeModel::new(cfg.tank, driver).with_clamp(cfg.rail_clamp());
    c.bench_function("envelope_1ms_tick", |b| {
        b.iter(|| black_box(model.step(black_box(0.1), 1e-3)));
    });
}

fn bench_dac_encode(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate");
    g.throughput(Throughput::Elements(128));
    g.bench_function("dac_encode_all_codes", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for code in Code::all() {
                acc += ControlWord::encode(code).output_units();
            }
            black_box(acc)
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_ode_throughput,
    bench_dc_solve,
    bench_envelope_tick,
    bench_dac_encode
);
criterion_main!(benches);
