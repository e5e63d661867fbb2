//! Analytic oscillation condition and steady-state amplitude (paper §2).
//!
//! The paper's scanned equations are typographically corrupted, so the
//! constants are re-derived in `DESIGN.md` §16 for the classical two-stage
//! cross-coupled topology of Fig 1 (each stage senses the opposite pin):
//!
//! - resonance: `ω₀² = 2/(L·C) − Rs²/L² ≈ 2/(L·C)` (symmetric C),
//! - critical per-stage transconductance: `Gm₀ = Rs·C/L` — oscillations
//!   grow while the small-signal (or describing-function) gm exceeds it
//!   (eq 1 up to the paper's Gm definition),
//! - steady-state amplitude, from the describing function of the hard
//!   limiter: per-pin peak `a* = 4·I_M/(π·Gm₀)`, i.e. differential
//!   peak-to-peak `V_pp = 16·L·I_M/(π·Rs·C)`, the paper's eq 4 linear
//!   `V ∝ I_M` law with k = 2√2/π ≈ 0.9.

use crate::tank::LcTank;
use lcosc_num::units::{Amps, Volts};

/// Analytic relations between tank, driver limit and amplitude.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OscillationCondition {
    tank: LcTank,
}

impl OscillationCondition {
    /// Wraps a tank.
    pub fn new(tank: LcTank) -> Self {
        OscillationCondition { tank }
    }

    /// Critical per-stage transconductance `Gm₀ = Rs·C_avg/L` (eq 1): the
    /// loop has net gain while each cross-coupled stage provides more than
    /// this.
    pub fn critical_gm(&self) -> f64 {
        self.tank.rs().value() * self.tank.c_avg().value() / self.tank.l().value()
    }

    /// Steady-state per-pin peak amplitude for a deeply limited driver:
    /// `a* = 4·I_M/(π·Gm₀)` (describing-function balance).
    pub fn steady_amplitude_peak(&self, i_max: Amps) -> Volts {
        Volts(4.0 * i_max.value() / (std::f64::consts::PI * self.critical_gm()))
    }

    /// Steady-state differential peak-to-peak amplitude between LC1 and
    /// LC2: `V_pp = 4·a* = 16·L·I_M/(π·Rs·C)` (eq 4, with amplitude strictly
    /// proportional to the current limit).
    pub fn steady_amplitude_pp(&self, i_max: Amps) -> Volts {
        Volts(4.0 * self.steady_amplitude_peak(i_max).value())
    }

    /// Current limit needed for a target differential peak-to-peak
    /// amplitude (inverse of [`OscillationCondition::steady_amplitude_pp`]).
    ///
    /// # Panics
    ///
    /// Panics if `v_pp` is not positive.
    pub fn i_max_for_amplitude(&self, v_pp: Volts) -> Amps {
        assert!(v_pp.value() > 0.0, "target amplitude must be positive");
        Amps(v_pp.value() * std::f64::consts::PI * self.critical_gm() / 16.0)
    }

    /// Power dissipated in the tank at a differential RMS voltage `v_rms`
    /// (paper eq 2: `P = Gm₀·V²`, with both stages replacing the losses).
    pub fn tank_power(&self, v_rms: Volts) -> f64 {
        // Per-pin rms is v_rms/2 (differential); each stage sees Gm0 at its
        // pin: P = 2 · Gm0 · (v_rms/2)² · 2 — equivalently Rs·I_L².
        let omega_l = self.tank.omega0() * self.tank.l().value();
        let i_l_rms = v_rms.value() / omega_l;
        self.tank.rs().value() * i_l_rms * i_l_rms
    }

    /// Estimated supply current of the driver at a given limit: the top and
    /// bottom mirrors carry I_M between the pins (Fig 5's Itop is shared),
    /// plus the quiescent consumption of the support circuits (§6 mentions
    /// 120 µA for the Vref buffer alone).
    pub fn supply_current(&self, i_max: Amps) -> Amps {
        const I_QUIESCENT: f64 = 130e-6;
        Amps(i_max.value() + I_QUIESCENT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcosc_num::units::{Farads, Henries, Ohms};

    fn datasheet() -> OscillationCondition {
        OscillationCondition::new(LcTank::datasheet_3mhz())
    }

    #[test]
    fn critical_gm_scales_with_loss() {
        let hi_q = datasheet();
        let lo_q = OscillationCondition::new(LcTank::poor_q());
        // Two decades of Q -> two decades of critical gm.
        assert!((lo_q.critical_gm() / hi_q.critical_gm() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn poor_q_critical_gm_below_chip_capability() {
        // At high codes the chip enables up to 9 parallel Gm stages
        // (Table 1), so its startup capability is ~9× the per-stage 10 mS;
        // even the poorest tank must be startable with margin.
        let lo_q = OscillationCondition::new(LcTank::poor_q());
        assert!(
            lo_q.critical_gm() < 9.0 * 10e-3,
            "critical gm {} exceeds chip capability",
            lo_q.critical_gm()
        );
        // But it genuinely needs multiple stages: a single 10 mS stage is
        // not enough — the reason the OscE bus exists.
        assert!(lo_q.critical_gm() > 10e-3);
    }

    #[test]
    fn amplitude_is_linear_in_current_limit() {
        let c = datasheet();
        let v1 = c.steady_amplitude_pp(Amps(1e-3)).value();
        let v2 = c.steady_amplitude_pp(Amps(2e-3)).value();
        assert!((v2 / v1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn paper_operating_point_is_consistent() {
        // 2.7 Vpp max operating amplitude on the datasheet tank needs a few
        // hundred µA — matching the paper's 250 µA minimum consumption for
        // high-quality networks.
        let c = datasheet();
        let i = c.i_max_for_amplitude(Volts(2.7));
        assert!(
            (1e-4..1e-3).contains(&i.value()),
            "i_max {} out of expected range",
            i.value()
        );
        // Round trip.
        let v = c.steady_amplitude_pp(i);
        assert!((v.value() - 2.7).abs() < 1e-9);
    }

    #[test]
    fn poor_q_needs_two_decades_more_current() {
        let hi = datasheet().i_max_for_amplitude(Volts(2.7)).value();
        let lo = OscillationCondition::new(LcTank::poor_q())
            .i_max_for_amplitude(Volts(2.7))
            .value();
        assert!((lo / hi - 100.0).abs() < 1e-6);
        // Poor-quality tank at full amplitude ~ tens of mA — the paper's
        // 30 mA maximum consumption.
        assert!((10e-3..40e-3).contains(&lo), "lo {lo}");
    }

    #[test]
    fn supply_current_range_matches_paper() {
        // Paper §9: consumption varies from 250 µA to 30 mA.
        let hi_q = datasheet();
        let lo_q = OscillationCondition::new(LcTank::poor_q());
        let i_min = hi_q
            .supply_current(hi_q.i_max_for_amplitude(Volts(2.7)))
            .value();
        let i_max = lo_q
            .supply_current(lo_q.i_max_for_amplitude(Volts(2.7)))
            .value();
        assert!((150e-6..500e-6).contains(&i_min), "min {i_min}");
        assert!((20e-3..40e-3).contains(&i_max), "max {i_max}");
    }

    #[test]
    fn tank_power_matches_loss_formula() {
        // At resonance the inductor current is V_diff/(ω L); power = Rs I².
        let c = datasheet();
        let p = c.tank_power(Volts(1.0));
        let t = c.tank;
        let il = 1.0 / (t.omega0() * t.l().value());
        assert!((p - t.rs().value() * il * il).abs() < 1e-15);
        assert!(p > 0.0);
    }

    #[test]
    fn power_balance_ties_eq2_to_eq4() {
        // At the steady-state amplitude, driver power k·V_rms·I_M·(both
        // stages fold into the differential V) equals tank loss power.
        let c = datasheet();
        let i_m = 1e-3;
        let v_pp = c.steady_amplitude_pp(Amps(i_m)).value();
        let v_rms = v_pp / 2.0 / std::f64::consts::SQRT_2; // differential rms
        let k = 2.0 * std::f64::consts::SQRT_2 / std::f64::consts::PI;
        let p_drv = k * v_rms * i_m;
        let p_tank = c.tank_power(Volts(v_rms));
        assert!((p_drv / p_tank - 1.0).abs() < 0.02, "{p_drv} vs {p_tank}");
    }

    #[test]
    fn asymmetric_tank_uses_average_capacitance() {
        let t = LcTank::new(
            Henries::from_micro(4.7),
            Farads::from_nano(1.0),
            Farads::from_nano(2.0),
            Ohms(1.6),
        )
        .unwrap();
        let c = OscillationCondition::new(t);
        let expect = 1.6 * 1.5e-9 / 4.7e-6;
        assert!((c.critical_gm() - expect).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn i_max_for_amplitude_rejects_zero() {
        let _ = datasheet().i_max_for_amplitude(Volts(0.0));
    }
}
