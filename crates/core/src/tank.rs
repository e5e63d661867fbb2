//! The external LC resonance network (paper Fig 1).
//!
//! The sensor's excitation coil `Losc` sits between the LC1 and LC2 pins
//! with all network losses lumped into the series resistance `Rs`; each pin
//! carries a capacitor (`Cosc1`, `Cosc2`) to ground. The driver only has to
//! replace the losses, which is why consumption tracks the quality factor.

use crate::{CoreError, Result};
use lcosc_num::units::{Farads, Henries, Hertz, Ohms};

/// External LC resonance network parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LcTank {
    l: f64,
    c1: f64,
    c2: f64,
    rs: f64,
}

impl LcTank {
    /// Creates a tank from component values.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] unless every value is positive
    /// and finite, and so is every rate the Fig 1 ODE runs on: `1/L`,
    /// `1/C1`, `1/C2` and `Rs/L`.
    pub fn new(l: Henries, c1: Farads, c2: Farads, rs: Ohms) -> Result<Self> {
        let (l, c1, c2, rs) = (l.value(), c1.value(), c2.value(), rs.value());
        if !(l > 0.0 && l.is_finite()) {
            return Err(CoreError::InvalidConfig("inductance must be positive"));
        }
        if !(c1 > 0.0 && c1.is_finite() && c2 > 0.0 && c2.is_finite()) {
            return Err(CoreError::InvalidConfig("capacitances must be positive"));
        }
        if !(rs > 0.0 && rs.is_finite()) {
            return Err(CoreError::InvalidConfig(
                "series resistance must be positive",
            ));
        }
        if !((1.0 / l).is_finite() && (1.0 / c1).is_finite() && (1.0 / c2).is_finite()) {
            return Err(CoreError::InvalidConfig(
                "component value too small: its reciprocal overflows",
            ));
        }
        if !(rs / l).is_finite() {
            return Err(CoreError::InvalidConfig(
                "series resistance over inductance (Rs/L) overflows",
            ));
        }
        Ok(LcTank { l, c1, c2, rs })
    }

    /// Creates a symmetric tank (`Cosc1 = Cosc2 = c`) with the series
    /// resistance chosen to hit a target quality factor.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for non-positive values.
    pub fn with_q(l: Henries, c: Farads, q: f64) -> Result<Self> {
        if !(q > 0.0 && q.is_finite()) {
            return Err(CoreError::InvalidConfig("quality factor must be positive"));
        }
        // Q = ω₀ L / Rs with ω₀² = 2 / (L C).
        let omega0 = (2.0 / (l.value() * c.value())).sqrt();
        let rs = omega0 * l.value() / q;
        LcTank::new(l, c, c, Ohms(rs))
    }

    /// The paper's nominal sensor network: ≈3 MHz, Q = 50
    /// (L = 4.7 µH, C = 1.5 nF ⇒ f₀ ≈ 2.68 MHz, Rs ≈ 1.6 Ω).
    pub fn datasheet_3mhz() -> Self {
        LcTank::with_q(Henries::from_micro(4.7), Farads::from_nano(1.5), 50.0)
            .expect("datasheet constants are valid")
    }

    /// Inductance.
    pub fn l(&self) -> Henries {
        Henries(self.l)
    }

    /// Capacitor on the LC1 pin.
    pub fn c1(&self) -> Farads {
        Farads(self.c1)
    }

    /// Capacitor on the LC2 pin.
    pub fn c2(&self) -> Farads {
        Farads(self.c2)
    }

    /// Series loss resistance.
    pub fn rs(&self) -> Ohms {
        Ohms(self.rs)
    }

    /// Returns a copy with a different series resistance (loss drift
    /// studies with known-good values; [`LcTank::new`] is the validating
    /// constructor for untrusted ones).
    ///
    /// # Panics
    ///
    /// Panics if `rs` is not positive or `Rs/L` is not finite.
    pub fn with_rs(mut self, rs: Ohms) -> Self {
        assert!(
            rs.value() > 0.0 && (rs.value() / self.l).is_finite(),
            "series resistance must be positive with a finite Rs/L"
        );
        self.rs = rs.value();
        self
    }

    /// Effective series capacitance seen by the inductor
    /// (`C1·C2 / (C1 + C2)`; `C/2` for a symmetric tank).
    pub(crate) fn c_series(&self) -> Farads {
        Farads(self.c1 * self.c2 / (self.c1 + self.c2))
    }

    /// Average pin capacitance `(C1 + C2) / 2`.
    pub fn c_avg(&self) -> Farads {
        Farads(0.5 * (self.c1 + self.c2))
    }

    /// Resonant angular frequency `ω₀ = 1/√(L·Cs)` in rad/s.
    pub fn omega0(&self) -> f64 {
        1.0 / (self.l * self.c_series().value()).sqrt()
    }

    /// Resonant frequency.
    pub fn f0(&self) -> Hertz {
        Hertz(self.omega0() / (2.0 * std::f64::consts::PI))
    }

    /// Quality factor `Q = ω₀·L / Rs`.
    pub fn q(&self) -> f64 {
        self.omega0() * self.l / self.rs
    }

    /// Whether the two pin capacitors match within `tol` (relative).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        (self.c1 / self.c2 - 1.0).abs() <= tol
    }
}

impl std::fmt::Display for LcTank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LcTank(L={}, C1={}, C2={}, Rs={}, f0={}, Q={:.1})",
            self.l(),
            self.c1(),
            self.c2(),
            self.rs(),
            self.f0(),
            self.q()
        )
    }
}

/// Test fixture: a poor-quality network two decades below the datasheet Q
/// (paper §1: "quality factor of the external LC network can vary two
/// decades").
#[cfg(test)]
impl LcTank {
    pub(crate) fn poor_q() -> Self {
        LcTank::with_q(Henries::from_micro(4.7), Farads::from_nano(1.5), 0.5)
            .expect("constants are valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasheet_frequency_in_paper_band() {
        let t = LcTank::datasheet_3mhz();
        let f = t.f0().value();
        // Paper: oscillation frequency 2–5 MHz.
        assert!((2e6..5e6).contains(&f), "f0 {f}");
        assert!((t.q() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn symmetric_omega0_is_sqrt_2_over_lc() {
        let t = LcTank::new(
            Henries::from_micro(100.0),
            Farads::from_nano(10.0),
            Farads::from_nano(10.0),
            Ohms(1.0),
        )
        .unwrap();
        let expect = (2.0f64 / (100e-6 * 10e-9)).sqrt();
        assert!((t.omega0() / expect - 1.0).abs() < 1e-12);
    }

    #[test]
    fn with_q_round_trips_q() {
        for q in [0.5, 5.0, 50.0] {
            let t = LcTank::with_q(Henries::from_micro(10.0), Farads::from_nano(2.2), q).unwrap();
            assert!((t.q() / q - 1.0).abs() < 1e-12, "q {q}");
        }
    }

    #[test]
    fn two_decades_of_q_map_to_two_decades_of_rs() {
        let hi = LcTank::datasheet_3mhz();
        let lo = LcTank::poor_q();
        assert!((hi.q() / lo.q() - 100.0).abs() < 1e-9);
        assert!((lo.rs().value() / hi.rs().value() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn asymmetric_series_capacitance() {
        let t = LcTank::new(
            Henries::from_micro(10.0),
            Farads::from_nano(2.0),
            Farads::from_nano(6.0),
            Ohms(1.0),
        )
        .unwrap();
        assert!((t.c_series().value() - 1.5e-9).abs() < 1e-18);
        assert!((t.c_avg().value() - 4e-9).abs() < 1e-18);
        assert!(!t.is_symmetric(0.01));
        assert!(t.is_symmetric(5.0));
    }

    #[test]
    fn missing_cap_shifts_frequency_up() {
        // A missing Cosc2 is modeled as a tiny residual capacitance: the
        // series capacitance collapses toward it and f0 rises.
        let good = LcTank::datasheet_3mhz();
        let bad = LcTank::new(good.l(), good.c1(), Farads::from_pico(20.0), good.rs()).unwrap();
        assert!(bad.f0().value() > 3.0 * good.f0().value());
    }

    #[test]
    fn validation_rejects_bad_values() {
        let l = Henries::from_micro(4.7);
        let c = Farads::from_nano(1.5);
        assert!(LcTank::new(Henries(0.0), c, c, Ohms(1.0)).is_err());
        assert!(LcTank::new(l, Farads(0.0), c, Ohms(1.0)).is_err());
        assert!(LcTank::new(l, c, c, Ohms(-1.0)).is_err());
        assert!(LcTank::with_q(l, c, 0.0).is_err());
        assert!(LcTank::new(l, c, c, Ohms(f64::NAN)).is_err());
        // Finite values whose rates overflow: 1/C and Rs/L.
        assert!(LcTank::new(l, Farads(1e-310), c, Ohms(1.0)).is_err());
        assert_eq!(
            LcTank::new(l, c, c, Ohms(1e305)),
            Err(CoreError::InvalidConfig(
                "series resistance over inductance (Rs/L) overflows"
            ))
        );
    }

    #[test]
    fn display_mentions_f0_and_q() {
        let s = LcTank::datasheet_3mhz().to_string();
        assert!(s.contains("f0=") && s.contains("Q=50.0"), "{s}");
    }
}
