//! Ablation studies for the design choices the paper motivates:
//!
//! - window width vs the maximum DAC step (§4's anti-hunting rule),
//! - exponential-PWL vs linear DAC law (§3's reason for the exponential),
//! - POR preset code (§4's startup consumption/reliability trade),
//! - driver I–V shape (the k factor of eq 3).

use lcosc_core::config::OscillatorConfig;
use lcosc_core::envelope::EnvelopeModel;
use lcosc_core::gm_driver::{DriverShape, GmDriver};
use lcosc_core::measure::{settling_tick, steady_state_activity};
use lcosc_core::regulator::RegulationFsm;
use lcosc_core::sim::ClosedLoopSim;
use lcosc_dac::Code;
use lcosc_device::comparator::WindowComparator;

/// Outcome of one window-width run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowAblation {
    /// Total relative window width.
    pub window: f64,
    /// First tick after which the code stays within ±1 of its final value
    /// ([`settling_tick`]'s rule), so ±1 hunting counts as settled: read
    /// `activity` to tell a quiet loop from a hunting one. `None` = the code
    /// never comes to rest within ±1.
    pub settling_tick: Option<usize>,
    /// Mean absolute code activity per tick in steady state.
    pub activity: f64,
    /// Final amplitude error relative to target.
    pub amplitude_error: f64,
}

/// Sweeps the regulation window width. Widths below the maximum DAC step
/// (6.25 %) violate the paper's design rule; the sweep shows the stepping
/// activity exploding there.
///
/// Narrow windows are run through a *raw* loop (FSM + envelope + exact
/// comparator) because [`OscillatorConfig::validate`] rightly refuses them.
///
/// The sweep fans out over `threads` campaign workers (`1` = serial, `0` =
/// all cores); sweep points are independent jobs and the result order is
/// the input order regardless of scheduling.
pub fn window_width_sweep(widths: &[f64], threads: usize) -> Vec<WindowAblation> {
    lcosc_campaign::Campaign::new("ablation-window", widths.to_vec())
        .threads(threads)
        .run(|_ctx, &window| {
            let cfg = OscillatorConfig::datasheet_3mhz();
            let target_peak = cfg.target_peak();
            let comparator = WindowComparator::centered(target_peak, window);
            let mut envelope = EnvelopeModel::new(cfg.tank, GmDriver::new(cfg.driver_shape, 0.0))
                .with_clamp(cfg.rail_clamp());
            let mut fsm = RegulationFsm::new(cfg.nvm_code, cfg.tick_period);
            let mut amp = 1e-3;
            let mut codes = Vec::with_capacity(160);
            for _ in 0..160 {
                let i_max = cfg.dac.current(fsm.code()).value();
                envelope.set_i_max(i_max);
                let weight = lcosc_dac::ControlWord::encode(fsm.code()).gm_weight() as f64;
                if let DriverShape::LinearSaturate { gm } | DriverShape::Tanh { gm } =
                    cfg.driver_shape
                {
                    envelope.set_gm(gm * weight);
                }
                amp = envelope.step(amp, cfg.tick_period);
                fsm.tick(comparator.classify(amp));
                codes.push(fsm.code().value());
            }
            WindowAblation {
                window,
                settling_tick: settling_tick(&codes),
                activity: steady_state_activity(&codes),
                amplitude_error: (amp / target_peak - 1.0).abs(),
            }
        })
        .results
}

/// Outcome of one DAC-law run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DacLawAblation {
    /// Human-readable law name.
    pub law: &'static str,
    /// Code the loop must regulate at on the high-Q datasheet tank.
    pub operating_code: u8,
    /// Worst relative step within ±2 codes of the operating point — the
    /// step the regulation window has to absorb.
    pub worst_step_near_operating: f64,
    /// Ticks to settle from the worst-case start (code 127 on a high-Q
    /// tank that wants a low code); `None` = the loop hunts forever.
    pub settle_from_top: Option<usize>,
    /// Ticks to settle from the bottom (code 1); `None` = hunts forever.
    pub settle_from_bottom: Option<usize>,
}

/// Compares the exponential-PWL law against a plain linear DAC with the
/// same full scale. The linear law's relative step explodes at low codes
/// (where high-Q tanks operate), forcing either hunting or a huge window.
pub fn dac_law_comparison() -> [DacLawAblation; 2] {
    let exponential = |code: Code| lcosc_dac::multiplication_factor(code) as f64;
    let linear = |code: Code| code.value() as f64 * (1984.0 / 127.0);
    [
        run_dac_law("exponential-pwl", exponential),
        run_dac_law("linear", linear),
    ]
}

fn run_dac_law(law: &'static str, units_of: impl Fn(Code) -> f64) -> DacLawAblation {
    use lcosc_core::condition::OscillationCondition;
    use lcosc_num::units::Volts;

    let cfg = OscillatorConfig::datasheet_3mhz();
    let target_peak = cfg.target_peak();
    let comparator = WindowComparator::centered(target_peak, cfg.window_rel_width);

    // Code the loop regulates at on the high-Q tank under this law.
    let needed_units = OscillationCondition::new(cfg.tank)
        .i_max_for_amplitude(Volts(cfg.target_vpp))
        .value()
        / 12.5e-6;
    let operating_code = Code::all()
        .find(|&c| units_of(c) >= needed_units)
        .unwrap_or(Code::MAX);

    // Worst relative step within ±2 codes of the operating point: this is
    // what the window must absorb. The exponential law keeps it below
    // 6.25 % everywhere above code 16 by construction; the linear law's
    // step explodes at the low codes high-Q tanks need.
    let lo = operating_code.value().saturating_sub(2).max(1);
    let hi = (operating_code.value() + 2).min(126);
    let worst_step_near_operating = (lo..=hi)
        .map(|n| {
            let a = units_of(Code::new(n as u32).expect("in range"));
            let b = units_of(Code::new(n as u32 + 1).expect("in range"));
            if a > 0.0 {
                (b - a) / a
            } else {
                f64::INFINITY
            }
        })
        .fold(0.0f64, f64::max);

    let settle_from = |start: Code| {
        let mut envelope = EnvelopeModel::new(cfg.tank, GmDriver::new(cfg.driver_shape, 0.0))
            .with_clamp(cfg.rail_clamp());
        let mut fsm = RegulationFsm::new(start, cfg.tick_period);
        let mut amp = 1e-3;
        let mut codes = Vec::with_capacity(200);
        for _ in 0..200 {
            envelope.set_i_max(units_of(fsm.code()) * 12.5e-6);
            envelope.set_gm(90e-3); // all stages: isolate the DAC-law effect
            amp = envelope.step(amp, cfg.tick_period);
            fsm.tick(comparator.classify(amp));
            codes.push(fsm.code().value());
        }
        settling_tick(&codes)
    };

    DacLawAblation {
        law,
        operating_code: operating_code.value(),
        worst_step_near_operating,
        settle_from_top: settle_from(Code::MAX),
        settle_from_bottom: settle_from(Code::new(1).expect("in range")),
    }
}

/// Outcome of one POR-preset run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StartCodeAblation {
    /// POR preset code under test.
    pub preset: u8,
    /// Startup (inrush) current at the preset, amps.
    pub inrush: f64,
    /// Whether a worst-case (low-Q) tank still starts at this preset.
    pub starts_worst_case_tank: bool,
    /// Ticks to settle on the nominal tank.
    pub settling_tick: Option<usize>,
}

/// Sweeps the POR preset. The paper's 105 is the sweet spot: ≈40 % of the
/// maximum consumption, yet enough drive (5 Gm stages, 800 units) to start
/// the poorest supported tank. The presets fan out over `threads` campaign
/// workers (`1` = serial, `0` = all cores).
pub fn start_code_sweep(presets: &[u8], threads: usize) -> Vec<StartCodeAblation> {
    use lcosc_core::condition::OscillationCondition;
    let worst_tank = OscillatorConfig::low_q().tank;
    let worst_crit = OscillationCondition::new(worst_tank).critical_gm();

    lcosc_campaign::Campaign::new("ablation-start-code", presets.to_vec())
        .threads(threads)
        .run(|_ctx, &preset| {
            let code = Code::new(preset as u32).expect("preset in range");
            let inrush = lcosc_dac::multiplication_factor(code) as f64 * 12.5e-6;
            let gm = 10e-3 * lcosc_dac::ControlWord::encode(code).gm_weight() as f64;
            let starts = gm > worst_crit;

            let mut cfg = OscillatorConfig::datasheet_3mhz();
            // Startup entirely on the preset (NVM keeps the same value) to
            // isolate the preset's effect.
            cfg.nvm_code = code;
            let mut sim = ClosedLoopSim::new(cfg).expect("config is valid");
            sim.run_ticks(160);
            StartCodeAblation {
                preset,
                inrush,
                starts_worst_case_tank: starts,
                settling_tick: settling_tick(&sim.trace().codes),
            }
        })
        .results
}

/// Outcome of one driver-shape run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriverShapeAblation {
    /// Shape label.
    pub shape: &'static str,
    /// Power factor k at deep limiting (paper eq 3: ≈0.9 for Fig 2).
    pub k_factor: f64,
    /// Steady amplitude for 1 mA limit on the datasheet tank, Vpp.
    pub amplitude_vpp: f64,
}

/// The three driver I–V shapes the ablation (and `repro`'s EMC study)
/// compare, with their labels.
pub const DRIVER_SHAPES: [(&str, DriverShape); 3] = [
    ("hard-limit", DriverShape::HardLimit),
    ("linear-saturate", DriverShape::LinearSaturate { gm: 10e-3 }),
    ("tanh", DriverShape::Tanh { gm: 10e-3 }),
];

/// Compares the three driver I–V shapes.
pub fn driver_shape_comparison() -> [DriverShapeAblation; 3] {
    let tank = OscillatorConfig::datasheet_3mhz().tank;
    DRIVER_SHAPES.map(|(name, shape)| {
        let driver = GmDriver::new(shape, 1e-3);
        let model = EnvelopeModel::new(tank, driver);
        DriverShapeAblation {
            shape: name,
            k_factor: driver.power_factor(2.0),
            amplitude_vpp: 4.0 * model.steady_amplitude(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrow_window_hunts_wide_window_settles() {
        let runs = window_width_sweep(&[0.03, 0.15], 1);
        let narrow = &runs[0];
        let wide = &runs[1];
        // Paper §4: a window narrower than the max step causes regulation
        // oscillations — visible as sustained code activity.
        assert!(
            narrow.activity > 0.5,
            "narrow window should hunt: activity {}",
            narrow.activity
        );
        assert!(
            wide.activity < 0.2,
            "wide window should be quiet: activity {}",
            wide.activity
        );
        assert!(wide.settling_tick.is_some());
    }

    #[test]
    fn exponential_law_has_bounded_relative_step() {
        let [expo, linear] = dac_law_comparison();
        // The PWL-exponential keeps the step at the operating point inside
        // the window; the linear law's step there blows past it (the paper's
        // eq 5/6 argument for an exponential current control).
        assert!(
            expo.worst_step_near_operating <= 0.0625 + 1e-9,
            "{}",
            expo.worst_step_near_operating
        );
        assert!(
            linear.worst_step_near_operating > 0.15,
            "{}",
            linear.worst_step_near_operating
        );
        // The exponential loop settles from the worst-case start; the
        // linear one needs a code so low its steps jump the window.
        assert!(expo.settle_from_top.is_some());
        assert!(expo.settle_from_bottom.is_some());
        assert!(expo.operating_code > 16);
        assert!(linear.operating_code < 5, "{}", linear.operating_code);
    }

    #[test]
    fn paper_preset_is_the_sweet_spot() {
        let runs = start_code_sweep(&[64, 90, 105, 127], 1);
        let at = |p: u8| runs.iter().find(|r| r.preset == p).expect("preset present");
        // 105 starts the worst tank at ~40 % of max inrush.
        assert!(at(105).starts_worst_case_tank);
        assert!(at(105).inrush < 0.45 * at(127).inrush / 0.98);
        // A low preset saves current but cannot start the worst tank.
        assert!(!at(64).starts_worst_case_tank);
        // Everything settles on the nominal tank.
        for r in &runs {
            assert!(
                r.settling_tick.is_some(),
                "preset {} never settled",
                r.preset
            );
        }
    }

    #[test]
    fn k_factor_near_0_9_for_limited_shapes() {
        let shapes = driver_shape_comparison();
        for s in &shapes {
            assert!(
                (s.k_factor - 0.9).abs() < 0.05,
                "{}: k = {}",
                s.shape,
                s.k_factor
            );
            assert!(s.amplitude_vpp > 0.0);
        }
        // Hard limiter delivers the most fundamental current -> largest
        // amplitude at the same I_M.
        assert!(shapes[0].amplitude_vpp >= shapes[2].amplitude_vpp);
    }
}
