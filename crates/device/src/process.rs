//! Process corners and temperature scaling.
//!
//! A DATE'05-era automotive part is verified across process corners and
//! −40…125 °C. [`ProcessParams`] produces consistently skewed device
//! parameters so the same netlists can be re-run per corner (used by the
//! FMEA and ablation benches).

use crate::mos::{MosModel, Polarity};

/// Classic five process corners (NMOS/PMOS speed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Corner {
    /// Typical/typical.
    Tt,
    /// Fast NMOS, fast PMOS.
    Ff,
    /// Slow NMOS, slow PMOS.
    Ss,
    /// Fast NMOS, slow PMOS.
    Fs,
    /// Slow NMOS, fast PMOS.
    Sf,
}

impl Corner {
    /// All five corners, for exhaustive sweeps.
    pub const ALL: [Corner; 5] = [Corner::Tt, Corner::Ff, Corner::Ss, Corner::Fs, Corner::Sf];

    /// Mobility / threshold skew factors `(n_fast, p_fast)` for this corner;
    /// `+1.0` means fast, `-1.0` slow, `0.0` typical.
    fn skews(self) -> (f64, f64) {
        match self {
            Corner::Tt => (0.0, 0.0),
            Corner::Ff => (1.0, 1.0),
            Corner::Ss => (-1.0, -1.0),
            Corner::Fs => (1.0, -1.0),
            Corner::Sf => (-1.0, 1.0),
        }
    }
}

impl std::fmt::Display for Corner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Corner::Tt => "TT",
            Corner::Ff => "FF",
            Corner::Ss => "SS",
            Corner::Fs => "FS",
            Corner::Sf => "SF",
        };
        write!(f, "{s}")
    }
}

/// A process/temperature operating condition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessParams {
    corner: Corner,
    temp_k: f64,
    /// ±3σ kp spread at a fast/slow corner (relative).
    kp_spread: f64,
    /// ±3σ vth spread at a fast/slow corner (volts).
    vth_spread: f64,
}

impl ProcessParams {
    /// Creates a condition at the given corner and temperature (kelvin) with
    /// default 0.35 µm spreads (±12 % kp, ±60 mV vth at the corners).
    ///
    /// # Panics
    ///
    /// Panics if `temp_k` is not positive.
    pub fn new(corner: Corner, temp_k: f64) -> Self {
        assert!(temp_k > 0.0, "temperature must be positive kelvin");
        ProcessParams {
            corner,
            temp_k,
            kp_spread: 0.12,
            vth_spread: 0.06,
        }
    }

    /// Typical condition: TT corner at 300 K.
    pub fn nominal() -> Self {
        ProcessParams::new(Corner::Tt, 300.0)
    }

    /// Applies this condition to a base (TT, 300 K) MOS model.
    ///
    /// Fast devices get more `kp` and less `vth`; temperature degrades
    /// mobility as `(T/300)^-1.5` and reduces `vth` by ~1 mV/K.
    pub fn apply(&self, base: &MosModel) -> MosModel {
        let (n_fast, p_fast) = self.corner.skews();
        let skew = match base.polarity() {
            Polarity::N => n_fast,
            Polarity::P => p_fast,
        };
        let t_ratio = self.temp_k / 300.0;
        let kp = base.kp() * (1.0 + skew * self.kp_spread) * t_ratio.powf(-1.5);
        let vth = (base.vth() - skew * self.vth_spread - 1.0e-3 * (self.temp_k - 300.0)).max(0.0);
        MosModel::new(base.polarity(), kp, vth, 1.35, 0.03)
    }
}

impl Default for ProcessParams {
    fn default() -> Self {
        ProcessParams::nominal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_is_identity_on_kp_and_vth() {
        let base = MosModel::nmos_035um();
        let m = ProcessParams::nominal().apply(&base);
        assert!((m.kp() / base.kp() - 1.0).abs() < 1e-12);
        assert!((m.vth() - base.vth()).abs() < 1e-12);
    }

    #[test]
    fn ff_corner_is_faster_than_ss() {
        let base = MosModel::nmos_035um();
        let ff = ProcessParams::new(Corner::Ff, 300.0).apply(&base);
        let ss = ProcessParams::new(Corner::Ss, 300.0).apply(&base);
        assert!(ff.kp() > ss.kp());
        assert!(ff.vth() < ss.vth());
        // Drive current ordering at a fixed bias.
        let iff = ff.evaluate(1.5, 2.0).id;
        let iss = ss.evaluate(1.5, 2.0).id;
        assert!(iff > iss);
    }

    #[test]
    fn fs_skews_devices_oppositely() {
        let cond = ProcessParams::new(Corner::Fs, 300.0);
        let n = cond.apply(&MosModel::nmos_035um());
        let p = cond.apply(&MosModel::pmos_035um());
        assert!(n.kp() > MosModel::nmos_035um().kp());
        assert!(p.kp() < MosModel::pmos_035um().kp());
    }

    #[test]
    fn hot_device_is_weaker() {
        let base = MosModel::nmos_035um();
        let hot = ProcessParams::new(Corner::Tt, 398.15).apply(&base); // 125 C
        assert!(hot.kp() < base.kp());
        assert!(hot.vth() < base.vth());
    }

    #[test]
    fn all_corners_iterates_five() {
        assert_eq!(Corner::ALL.len(), 5);
        let labels: Vec<String> = Corner::ALL.iter().map(Corner::to_string).collect();
        assert_eq!(labels, ["TT", "FF", "SS", "FS", "SF"]);
    }

    #[test]
    fn vth_never_negative() {
        let cond = ProcessParams::new(Corner::Ff, 500.0);
        // The 0.35 µm NMOS with a 0.1 V threshold: FF at 500 K would push
        // it below zero without the clamp.
        let m = cond.apply(&MosModel::new(Polarity::N, 1.7e-3, 0.1, 1.35, 0.03));
        assert!(m.vth() >= 0.0);
    }
}
