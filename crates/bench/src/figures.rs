//! Generators for the paper's figures and tables.

use lcosc_core::config::{Fidelity, OscillatorConfig};
use lcosc_core::gm_driver::{DriverShape, GmDriver};
use lcosc_core::sim::ClosedLoopSim;
use lcosc_dac::{multiplication_factor, relative_step, Code, ControlWord, MismatchedDac, SEGMENTS};
use lcosc_pad::topology::PadTopology;
use lcosc_pad::unsupplied::{UnsuppliedBench, UnsuppliedPoint};
use lcosc_safety::{DualOutcome, DualSystem, FmeaReport};

/// Fig 2 — static driver I–V (linear-saturate shape, I_M = 1 mA).
pub fn fig02_driver_iv() -> Vec<(f64, f64)> {
    let drv = GmDriver::new(DriverShape::LinearSaturate { gm: 10e-3 }, 1e-3);
    (-60..=60)
        .map(|k| {
            let v = k as f64 * 0.01;
            (v, drv.current(v))
        })
        .collect()
}

/// Fig 3 — multiplication factor `Mₙ` for every code.
pub fn fig03_transfer() -> Vec<(u8, u32)> {
    Code::all()
        .map(|c| (c.value(), multiplication_factor(c)))
        .collect()
}

/// Fig 4 — relative voltage step per code (`None` where undefined).
pub fn fig04_relative_step() -> Vec<(u8, Option<f64>)> {
    Code::all().map(|c| (c.value(), relative_step(c))).collect()
}

/// Table 1 — one row per segment (the control coding), formatted.
pub fn table1() -> String {
    let mut out = String::from(
        "segment  prescale  gm  step  range_min  range_max  OscD  OscE   OscF placement\n",
    );
    for s in &SEGMENTS {
        out.push_str(&format!(
            "{:>7}  {:>8}  {:>2}  {:>4}  {:>9}  {:>9}  {:>4}  {:>4}   B<<{}\n",
            s.index,
            s.prescale,
            s.gm_weight,
            s.step,
            s.range_min,
            s.range_max,
            format!("{:03b}", s.osc_d),
            format!("{:04b}", s.osc_e),
            s.oscf_shift
        ));
    }
    out
}

/// Verifies the Table 1 encoder against the closed-form staircase for all
/// codes; returns the number of checked codes (128). `repro` runs it after
/// printing the table, so an encoder that disagrees fails the run.
pub fn table1_verify() -> usize {
    Code::all()
        .map(|c| {
            assert_eq!(
                ControlWord::encode(c).output_units(),
                multiplication_factor(c)
            );
            1
        })
        .sum()
}

/// Fig 13 — measured-style current limitation of the reference die, amps.
pub fn fig13_measured_current() -> Vec<(u8, f64)> {
    let die = MismatchedDac::reference_die();
    Code::all()
        .map(|c| (c.value(), die.current(c).value()))
        .collect()
}

/// Fig 14 — measured-style relative step of the reference die.
pub fn fig14_measured_step() -> Vec<(u8, Option<f64>)> {
    let die = MismatchedDac::reference_die();
    Code::all()
        .map(|c| (c.value(), die.relative_step(c)))
        .collect()
}

/// Fig 15 — regulation steps detail: per-tick (time, code, amplitude Vpp)
/// around steady state, with a loss disturbance in the middle so the ±1
/// stepping is visible.
pub fn fig15_regulation_steps() -> Vec<(f64, u8, f64)> {
    let cfg = OscillatorConfig::datasheet_3mhz();
    let tank = cfg.tank;
    let mut sim = ClosedLoopSim::new(cfg).expect("datasheet config is valid");
    sim.run_until_settled().expect("settles");
    // Disturb the losses by 20 % — the loop steps the code a few counts.
    sim.inject_tank(tank.with_rs(lcosc_num::units::Ohms(tank.rs().value() * 1.2)));
    sim.run_ticks(30);
    let tr = sim.trace();
    tr.tick_times
        .iter()
        .zip(&tr.codes)
        .zip(&tr.amplitudes)
        .map(|((t, c), a)| (*t, *c, 4.0 * a))
        .collect()
}

/// Fig 16 — oscillator startup: amplitude envelope (Vpp) and code vs time
/// over the first few regulation ticks, at sub-tick resolution.
pub fn fig16_startup() -> Vec<(f64, u8, f64)> {
    // Startup on this tank resolves in microseconds (the slew-limited
    // growth rate is 2·I_M/(π·C) ≈ 1e8 V/s), so the figure needs µs-scale
    // resolution; the chip sequence (POR 105 → NVM → regulation) is
    // preserved with all delays scaled together.
    let mut cfg = OscillatorConfig::datasheet_3mhz();
    cfg.fidelity = Fidelity::Envelope;
    cfg.tick_period = 5e-6;
    cfg.detector_tau = 0.4e-6;
    cfg.nvm_delay = 2e-6;
    let mut sim = ClosedLoopSim::new(cfg).expect("config is valid");
    sim.run_ticks(200); // 1 ms
    let tr = sim.trace();
    tr.tick_times
        .iter()
        .zip(&tr.codes)
        .zip(&tr.amplitudes)
        .map(|((t, c), a)| (*t, *c, 4.0 * a))
        .collect()
}

/// Fig 17/18 — unsupplied-driver DC sweep for a pad topology.
pub fn fig17_18_unsupplied(topology: PadTopology) -> Vec<UnsuppliedPoint> {
    UnsuppliedBench::new(topology)
        .sweep_paper_range(61)
        .expect("sweep converges")
}

/// §9 — supply current vs tank quality factor at the 2.7 Vpp operating
/// amplitude (the paper's 250 µA … 30 mA consumption claim), fanned out
/// over `threads` campaign workers (`1` = serial, `0` = all cores); each
/// Q point is one independent job.
pub fn consumption_vs_q(threads: usize) -> Vec<(f64, f64, u8)> {
    use lcosc_core::tank::LcTank;
    use lcosc_num::units::{Farads, Henries};
    // The supported two-decade band for the datasheet coil (see
    // tests/paper_claims.rs for the derivation).
    let qs = vec![0.65, 1.5, 3.0, 6.5, 15.0, 30.0, 65.0];
    lcosc_campaign::Campaign::new("consumption-vs-q", qs)
        .threads(threads)
        .run(|_ctx, &q| {
            let tank = LcTank::with_q(Henries::from_micro(4.7), Farads::from_nano(1.5), q)
                .expect("tank is valid");
            let mut cfg = OscillatorConfig::for_tank(tank);
            cfg.target_vpp = 2.7;
            cfg.nvm_code = cfg.recommended_nvm_code();
            let mut sim = ClosedLoopSim::new(cfg).expect("config is valid");
            let r = sim.run_until_settled().expect("infallible");
            (q, r.supply_current, r.final_code.value())
        })
        .results
}

/// §7 — the FMEA matrix on the datasheet operating point, as a campaign
/// over `threads` workers: returns the matrix plus the campaign's
/// wall-clock/job-count statistics, and emits campaign-level trace events
/// (job index, seed, wall-clock) into `tracer` in catalog order.
pub fn fmea_matrix(threads: usize, tracer: &lcosc_trace::Trace) -> lcosc_safety::FmeaRun {
    FmeaReport::run_with_threads_traced(&OscillatorConfig::datasheet_3mhz(), threads, tracer)
        .expect("config is valid")
}

/// §8 — dual-system supply-loss outcomes for all three pad topologies,
/// fanned out over `threads` campaign workers; one job per topology.
pub fn dual_redundancy(threads: usize) -> Vec<DualOutcome> {
    let mut cfg = OscillatorConfig::datasheet_3mhz();
    cfg.target_vpp = 2.7;
    cfg.nvm_code = cfg.recommended_nvm_code();
    lcosc_campaign::Campaign::new("dual-redundancy", PadTopology::ALL.to_vec())
        .threads(threads)
        .run(|_ctx, &topology| {
            DualSystem::new(cfg.clone(), topology, 0.8)
                .expect("coupling is valid")
                .run_supply_loss()
                .expect("analysis converges")
        })
        .results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig02_is_odd_and_saturates() {
        let pts = fig02_driver_iv();
        assert_eq!(pts.len(), 121);
        assert_eq!(pts[0].1, -1e-3);
        assert_eq!(pts[120].1, 1e-3);
        let mid = pts[60];
        assert_eq!(mid.1, 0.0);
    }

    #[test]
    fn fig03_covers_paper_range() {
        let pts = fig03_transfer();
        assert_eq!(pts.len(), 128);
        assert_eq!(pts[127].1, 1984);
    }

    #[test]
    fn fig04_band_above_16() {
        for (code, step) in fig04_relative_step() {
            if (16..127).contains(&code) {
                let s = step.expect("defined above 16");
                assert!((0.0322..=0.0626).contains(&s), "code {code}: {s}");
            }
        }
    }

    #[test]
    fn table1_verifies_and_formats() {
        assert_eq!(table1_verify(), 128);
        let t = table1();
        assert!(t.contains("1024"));
        assert_eq!(t.lines().count(), 9);
    }

    #[test]
    fn fig13_full_scale_near_25_ma() {
        let pts = fig13_measured_current();
        let fs = pts[127].1;
        assert!((fs - 24.8e-3).abs() < 1.5e-3, "{fs}");
    }

    #[test]
    fn fig14_has_negative_step_at_code_96_boundary() {
        let pts = fig14_measured_step();
        let neg: Vec<u8> = pts
            .iter()
            .filter_map(|(c, s)| s.filter(|s| *s < 0.0).map(|_| *c))
            .collect();
        assert_eq!(neg, vec![95], "negative step into code 96");
    }

    #[test]
    fn fig16_startup_reaches_target() {
        let pts = fig16_startup();
        let last = pts.last().expect("non-empty");
        assert!((last.2 - 2.7).abs() < 0.3, "final vpp {}", last.2);
        // The first recorded tick already runs on the NVM code (the POR
        // preset only lasts the first 5 µs); regulation converges from it.
        let nvm = OscillatorConfig::datasheet_3mhz().nvm_code.value();
        assert!(
            (pts[0].1 as i32 - nvm as i32).abs() <= 1,
            "first code {}",
            pts[0].1
        );
    }

    #[test]
    fn consumption_span_matches_paper() {
        let pts = consumption_vs_q(1);
        let lo = pts.last().expect("non-empty").1; // highest Q
        let hi = pts[0].1; // lowest Q
        assert!(lo < 400e-6, "best-case consumption {lo}");
        assert!(hi > 5e-3, "worst-case consumption {hi}");
        // Monotone: poorer tanks burn more.
        for w in pts.windows(2) {
            assert!(w[0].1 >= w[1].1, "{:?}", w);
        }
    }
}
