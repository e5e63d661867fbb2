//! Smooth EKV-style behavioral MOSFET.
//!
//! The model interpolates continuously between subthreshold (exponential)
//! and strong inversion (square law) and is symmetric in drain/source, which
//! keeps Newton iterations stable in the pad-driver netlists where terminals
//! swap roles as the pin swings around a floating supply (paper §8).
//!
//! Bulk is an explicit reference: all terminal voltages passed to
//! [`MosModel::evaluate_4t`] are *relative to bulk*, so the bulk-switched
//! output stage of Fig 11 (node `Nbulk`) can be modeled directly. Body
//! diodes are *not* included here — netlists add them explicitly with
//! [`crate::diode::DiodeModel`] so their placement is visible in the
//! topology, exactly where Fig 10 draws them.

use crate::thermal_voltage;

/// MOS channel polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Polarity {
    /// N-channel device.
    N,
    /// P-channel device.
    P,
}

impl std::fmt::Display for Polarity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Polarity::N => write!(f, "nmos"),
            Polarity::P => write!(f, "pmos"),
        }
    }
}

/// Operating point returned by the model: drain current and the small-signal
/// conductances needed for MNA stamping.
///
/// Sign convention: `id` is the current flowing **into the drain and out of
/// the source** (negative for a conducting PMOS). The conductances are the
/// partial derivatives of `id` with respect to the gate, drain and source
/// voltages (bulk held fixed).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MosOperatingPoint {
    /// Drain current in amperes.
    pub id: f64,
    /// ∂id/∂vg in siemens.
    pub gm: f64,
    /// ∂id/∂vd in siemens.
    pub gds: f64,
    /// ∂id/∂vs in siemens.
    pub gms: f64,
}

/// EKV-style large-signal MOSFET model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosModel {
    polarity: Polarity,
    /// Transconductance factor µCox·W/L in A/V².
    kp: f64,
    /// Threshold voltage magnitude in volts.
    vth: f64,
    /// Subthreshold slope factor (typically 1.2–1.6).
    n: f64,
    /// Channel-length modulation in 1/V.
    lambda: f64,
    temp_k: f64,
}

impl MosModel {
    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics unless `kp > 0`, `vth >= 0`, `n >= 1` and `lambda >= 0`.
    pub fn new(polarity: Polarity, kp: f64, vth: f64, n: f64, lambda: f64) -> Self {
        assert!(kp > 0.0, "kp must be positive");
        assert!(vth >= 0.0, "vth must be non-negative");
        assert!(n >= 1.0, "slope factor must be >= 1");
        assert!(lambda >= 0.0, "lambda must be non-negative");
        MosModel {
            polarity,
            kp,
            vth,
            n,
            lambda,
            temp_k: 300.0,
        }
    }

    /// Typical NMOS of the paper's 0.35 µm process, W/L = 10.
    pub fn nmos_035um() -> Self {
        MosModel::new(Polarity::N, 1.7e-3, 0.60, 1.35, 0.03)
    }

    /// Typical PMOS of the paper's 0.35 µm process, W/L = 10.
    pub fn pmos_035um() -> Self {
        MosModel::new(Polarity::P, 5.8e-4, 0.65, 1.40, 0.04)
    }

    /// Returns a copy scaled to a different W/L multiple of the base device.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        self.kp *= factor;
        self
    }

    /// Returns a copy with a different channel-length modulation.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative.
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        assert!(lambda >= 0.0, "lambda must be non-negative");
        self.lambda = lambda;
        self
    }

    /// Channel polarity.
    pub fn polarity(&self) -> Polarity {
        self.polarity
    }

    /// Threshold voltage magnitude in volts.
    pub fn vth(&self) -> f64 {
        self.vth
    }

    /// Transconductance factor in A/V².
    pub fn kp(&self) -> f64 {
        self.kp
    }

    /// Subthreshold slope factor.
    pub fn slope_factor(&self) -> f64 {
        self.n
    }

    /// Channel-length modulation in 1/V.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Specific current `2 n kp Vt²` of the EKV formulation.
    pub(crate) fn i_spec(&self) -> f64 {
        let vt = thermal_voltage(self.temp_k);
        2.0 * self.n * self.kp * vt * vt
    }

    /// Evaluates the device with source tied to bulk (3-terminal use):
    /// `vgs` and `vds` are gate and drain voltages relative to source/bulk.
    pub fn evaluate(&self, vgs: f64, vds: f64) -> MosOperatingPoint {
        self.evaluate_4t(vgs, vds, 0.0)
    }

    /// Evaluates the device with all terminal voltages relative to **bulk**:
    /// `vg`, `vd`, `vs` are gate, drain and source potentials minus the bulk
    /// potential.
    pub fn evaluate_4t(&self, vg: f64, vd: f64, vs: f64) -> MosOperatingPoint {
        match self.polarity {
            Polarity::N => self.evaluate_n(vg, vd, vs),
            Polarity::P => {
                // A PMOS is the N-equation with all voltages mirrored; the
                // resulting current flows the other way.
                let op = self.evaluate_n(-vg, -vd, -vs);
                MosOperatingPoint {
                    id: -op.id,
                    // d(-id')/dvg = -d id'/d vg' · (-1) = +d id'/d vg'
                    gm: op.gm,
                    gds: op.gds,
                    gms: op.gms,
                }
            }
        }
    }

    fn evaluate_n(&self, vg: f64, vd: f64, vs: f64) -> MosOperatingPoint {
        let vt = thermal_voltage(self.temp_k);
        let ispec = self.i_spec();
        let vp = (vg - self.vth) / self.n;
        let us = (vp - vs) / vt;
        let ud = (vp - vd) / vt;

        let (f_s, fp_s) = ekv_f(us);
        let (f_d, fp_d) = ekv_f(ud);

        let id0 = ispec * (f_s - f_d);
        let vds = vd - vs;
        let m = 1.0 + self.lambda * vds.abs();
        let id = id0 * m;

        // Partials of id0.
        let di0_dvg = ispec * (fp_s - fp_d) / (self.n * vt);
        let di0_dvd = ispec * fp_d / vt;
        let di0_dvs = -ispec * fp_s / vt;
        // Partials of m (sign of vds; flat at exactly zero).
        let dm = self.lambda
            * if vds > 0.0 {
                1.0
            } else if vds < 0.0 {
                -1.0
            } else {
                0.0
            };

        MosOperatingPoint {
            id,
            gm: di0_dvg * m,
            gds: di0_dvd * m + id0 * dm,
            gms: di0_dvs * m - id0 * dm,
        }
    }
}

/// EKV interpolation function `F(x) = ln²(1 + e^(x/2))` and its derivative,
/// computed overflow-safely.
fn ekv_f(x: f64) -> (f64, f64) {
    let half = 0.5 * x;
    // softplus(half) = ln(1 + e^half)
    let sp = if half > 40.0 {
        half
    } else if half < -40.0 {
        half.exp()
    } else {
        half.exp().ln_1p()
    };
    // sigmoid(half) = 1 / (1 + e^-half)
    let sg = if half > 40.0 {
        1.0
    } else if half < -40.0 {
        half.exp()
    } else {
        1.0 / (1.0 + (-half).exp())
    };
    (sp * sp, sp * sg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_device_leaks_subthreshold_only() {
        let m = MosModel::nmos_035um();
        let op = m.evaluate(0.0, 3.0);
        assert!(op.id > 0.0, "subthreshold current must be positive");
        assert!(op.id < 1e-8, "off leakage too large: {}", op.id);
    }

    #[test]
    fn strong_inversion_follows_square_law_shape() {
        let m = MosModel::nmos_035um().with_lambda(0.0);
        // In saturation, Id ~ (Vgs - Vth)²: quadrupling the overdrive should
        // roughly 4x... doubling overdrive -> ~4x current.
        let i1 = m.evaluate(1.1, 3.0).id; // overdrive 0.5
        let i2 = m.evaluate(1.6, 3.0).id; // overdrive 1.0
        let ratio = i2 / i1;
        assert!((3.2..4.6).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn triode_current_grows_with_vds() {
        let m = MosModel::nmos_035um();
        let lo = m.evaluate(2.0, 0.1).id;
        let hi = m.evaluate(2.0, 0.3).id;
        assert!(hi > lo * 2.0, "triode region should be ohmic-ish");
    }

    #[test]
    fn saturation_current_nearly_flat_without_lambda() {
        let m = MosModel::nmos_035um().with_lambda(0.0);
        let a = m.evaluate(1.5, 2.0).id;
        let b = m.evaluate(1.5, 3.0).id;
        assert!((b / a - 1.0).abs() < 1e-3, "{a} vs {b}");
    }

    #[test]
    fn lambda_gives_finite_output_conductance() {
        let m = MosModel::nmos_035um();
        let op = m.evaluate(1.5, 2.5);
        assert!(op.gds > 0.0);
    }

    #[test]
    fn source_drain_symmetry() {
        let m = MosModel::nmos_035um().with_lambda(0.0);
        // Swapping drain and source negates the current.
        let fwd = m.evaluate_4t(2.0, 1.0, 0.2).id;
        let rev = m.evaluate_4t(2.0, 0.2, 1.0).id;
        assert!(
            (fwd + rev).abs() < 1e-15 * fwd.abs().max(1.0),
            "{fwd} vs {rev}"
        );
    }

    #[test]
    fn pmos_conducts_with_negative_vgs() {
        let m = MosModel::pmos_035um();
        // Source at bulk (= Vdd in a real circuit), gate pulled low.
        let op = m.evaluate_4t(-1.5, -1.0, 0.0);
        assert!(
            op.id < -1e-5,
            "pmos drain current should be negative: {}",
            op.id
        );
    }

    #[test]
    fn pmos_off_when_gate_at_source() {
        let m = MosModel::pmos_035um();
        let op = m.evaluate_4t(0.0, -2.0, 0.0);
        assert!(op.id.abs() < 1e-8);
    }

    #[test]
    fn gm_matches_numeric_derivative() {
        let m = MosModel::nmos_035um();
        let h = 1e-6;
        for (vg, vd, vs) in [(1.2, 2.0, 0.0), (0.7, 0.2, 0.0), (1.8, 0.5, 0.3)] {
            let op = m.evaluate_4t(vg, vd, vs);
            let num =
                (m.evaluate_4t(vg + h, vd, vs).id - m.evaluate_4t(vg - h, vd, vs).id) / (2.0 * h);
            assert!(
                (op.gm - num).abs() <= 1e-5 * num.abs().max(1e-12),
                "gm {} vs {num} at ({vg},{vd},{vs})",
                op.gm
            );
        }
    }

    #[test]
    fn gds_matches_numeric_derivative() {
        let m = MosModel::nmos_035um();
        let h = 1e-6;
        for (vg, vd, vs) in [(1.2, 2.0, 0.0), (1.8, 0.5, 0.3)] {
            let op = m.evaluate_4t(vg, vd, vs);
            let num =
                (m.evaluate_4t(vg, vd + h, vs).id - m.evaluate_4t(vg, vd - h, vs).id) / (2.0 * h);
            assert!(
                (op.gds - num).abs() <= 1e-4 * num.abs().max(1e-12),
                "gds {} vs {num}",
                op.gds
            );
        }
    }

    #[test]
    fn gms_matches_numeric_derivative() {
        let m = MosModel::nmos_035um();
        let h = 1e-6;
        let (vg, vd, vs) = (1.5, 2.0, 0.4);
        let op = m.evaluate_4t(vg, vd, vs);
        let num = (m.evaluate_4t(vg, vd, vs + h).id - m.evaluate_4t(vg, vd, vs - h).id) / (2.0 * h);
        assert!((op.gms - num).abs() <= 1e-4 * num.abs().max(1e-12));
    }

    #[test]
    fn pmos_derivatives_match_numeric() {
        let m = MosModel::pmos_035um();
        let h = 1e-6;
        let (vg, vd, vs) = (-1.5, -2.0, 0.0);
        let op = m.evaluate_4t(vg, vd, vs);
        let gm_num =
            (m.evaluate_4t(vg + h, vd, vs).id - m.evaluate_4t(vg - h, vd, vs).id) / (2.0 * h);
        let gds_num =
            (m.evaluate_4t(vg, vd + h, vs).id - m.evaluate_4t(vg, vd - h, vs).id) / (2.0 * h);
        assert!((op.gm - gm_num).abs() <= 1e-4 * gm_num.abs().max(1e-12));
        assert!((op.gds - gds_num).abs() <= 1e-4 * gds_num.abs().max(1e-12));
    }

    #[test]
    fn scaled_device_scales_current() {
        let m = MosModel::nmos_035um().with_lambda(0.0);
        let big = m.scaled(4.0);
        let i1 = m.evaluate(1.5, 2.0).id;
        let i4 = big.evaluate(1.5, 2.0).id;
        assert!((i4 / i1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn no_overflow_at_extreme_bias() {
        let m = MosModel::nmos_035um();
        let op = m.evaluate_4t(100.0, 100.0, -100.0);
        assert!(op.id.is_finite() && op.gm.is_finite());
        let op2 = m.evaluate_4t(-100.0, 100.0, 0.0);
        assert!(op2.id.is_finite());
    }

    #[test]
    fn ekv_f_limits() {
        // Large x: F -> (x/2)², strong inversion.
        let (f, _) = ekv_f(100.0);
        assert!((f - 2500.0).abs() / 2500.0 < 1e-9);
        // Very negative x: F -> e^(x/2) (vanishing), weak inversion.
        let (f, fp) = ekv_f(-100.0);
        assert!((0.0..1e-21).contains(&f));
        assert!(fp >= 0.0);
    }

    #[test]
    fn polarity_display() {
        assert_eq!(Polarity::N.to_string(), "nmos");
        assert_eq!(Polarity::P.to_string(), "pmos");
    }

    #[test]
    #[should_panic(expected = "kp must be positive")]
    fn new_rejects_bad_kp() {
        let _ = MosModel::new(Polarity::N, 0.0, 0.5, 1.3, 0.0);
    }
}
