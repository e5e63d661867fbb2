//! Fault taxonomy for the FMEA (paper §7).

use lcosc_core::tank::LcTank;
use lcosc_core::CoreError;
use lcosc_num::units::{Farads, Ohms};

/// Residual capacitance left on a pin when its external capacitor is
/// missing (bond pad + trace parasitics).
pub const PARASITIC_CAP: f64 = 20e-12;

/// External and internal failure modes covered by the paper's FMEA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Open connection to the excitation coil: no resonance path at all.
    OpenCoil,
    /// Shorted turns in the coil: inductance collapses, losses rise.
    CoilShort,
    /// LCx pin shorted to ground through a low resistance.
    PinShortToGround {
        /// 0 = LC1, 1 = LC2.
        pin: usize,
    },
    /// LCx pin shorted to the supply through a low resistance.
    PinShortToSupply {
        /// 0 = LC1, 1 = LC2.
        pin: usize,
    },
    /// External capacitor missing or broken: only parasitics remain.
    MissingCapacitor {
        /// 0 = Cosc1, 1 = Cosc2.
        pin: usize,
    },
    /// Series loss resistance drifted by a factor (corrosion, bad solder).
    RsDrift {
        /// Multiplier on the nominal Rs (> 1 = more loss).
        factor: f64,
    },
    /// Chip supply lost (the dual-system scenario of §8).
    SupplyLoss,
    /// Hard internal failure of both driver stages.
    DriverDead,
}

impl Fault {
    /// Every fault, for exhaustive FMEA sweeps.
    pub fn catalog() -> Vec<Fault> {
        vec![
            Fault::OpenCoil,
            Fault::CoilShort,
            Fault::PinShortToGround { pin: 0 },
            Fault::PinShortToGround { pin: 1 },
            Fault::PinShortToSupply { pin: 0 },
            Fault::PinShortToSupply { pin: 1 },
            Fault::MissingCapacitor { pin: 0 },
            Fault::MissingCapacitor { pin: 1 },
            Fault::RsDrift { factor: 4.0 },
            Fault::SupplyLoss,
            Fault::DriverDead,
        ]
    }

    /// The faulted tank, when the fault acts on the external network.
    /// Returns `None` for faults that do not modify the tank itself, and
    /// for a fault whose tank is not valid (see
    /// [`Fault::try_faulted_tank`], which says why).
    pub fn faulted_tank(&self, nominal: &LcTank) -> Option<LcTank> {
        self.try_faulted_tank(nominal).ok().flatten()
    }

    /// The faulted tank, built through the validating [`LcTank::new`]:
    /// `Ok(None)` for faults that do not modify the tank itself.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the faulted values are not
    /// a valid tank — an Rs drift whose product overflows to infinity
    /// names the series resistance.
    pub fn try_faulted_tank(&self, nominal: &LcTank) -> Result<Option<LcTank>, CoreError> {
        let (l, c1, c2, rs) = (nominal.l(), nominal.c1(), nominal.c2(), nominal.rs());
        let faulted = match self {
            // A hard turn-to-turn short collapses the inductance and the
            // shorted loop dissipates heavily: the critical transconductance
            // rises ~100×, beyond what even all nine Gm stages can deliver
            // on a good tank — the loop saturates and amplitude collapses.
            Fault::CoilShort => LcTank::new(l * 0.1, c1, c2, rs * 10.0),
            Fault::MissingCapacitor { pin } => {
                let (c1, c2) = if *pin == 0 {
                    (Farads(PARASITIC_CAP), c2)
                } else {
                    (c1, Farads(PARASITIC_CAP))
                };
                LcTank::new(l, c1, c2, rs)
            }
            Fault::RsDrift { factor } => LcTank::new(l, c1, c2, Ohms(rs.value() * factor)),
            _ => return Ok(None),
        };
        faulted.map(Some)
    }
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::OpenCoil => write!(f, "open coil connection"),
            Fault::CoilShort => write!(f, "shorted coil turns"),
            Fault::PinShortToGround { pin } => write!(f, "LC{} short to ground", pin + 1),
            Fault::PinShortToSupply { pin } => write!(f, "LC{} short to supply", pin + 1),
            Fault::MissingCapacitor { pin } => write!(f, "missing Cosc{}", pin + 1),
            Fault::RsDrift { factor } => write!(f, "series loss drift x{factor}"),
            Fault::SupplyLoss => write!(f, "supply voltage lost"),
            Fault::DriverDead => write!(f, "internal driver failure"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_eleven_faults() {
        assert_eq!(Fault::catalog().len(), 11);
    }

    #[test]
    fn coil_short_raises_losses_and_frequency() {
        let nominal = LcTank::datasheet_3mhz();
        let faulted = Fault::CoilShort.faulted_tank(&nominal).unwrap();
        assert!(faulted.rs().value() > nominal.rs().value());
        assert!(faulted.f0().value() > nominal.f0().value());
        assert!(faulted.q() < nominal.q());
    }

    #[test]
    fn missing_cap_destroys_symmetry() {
        let nominal = LcTank::datasheet_3mhz();
        let faulted = Fault::MissingCapacitor { pin: 1 }
            .faulted_tank(&nominal)
            .unwrap();
        assert!(!faulted.is_symmetric(0.5));
        assert!(faulted.f0().value() > 2.0 * nominal.f0().value());
    }

    #[test]
    fn rs_drift_scales_rs_only() {
        let nominal = LcTank::datasheet_3mhz();
        let faulted = Fault::RsDrift { factor: 4.0 }
            .faulted_tank(&nominal)
            .unwrap();
        assert!((faulted.rs().value() / nominal.rs().value() - 4.0).abs() < 1e-12);
        assert_eq!(faulted.l(), nominal.l());
    }

    #[test]
    fn overflowing_rs_drift_is_a_typed_error() {
        let nominal = LcTank::datasheet_3mhz();
        let fault = Fault::RsDrift { factor: f64::MAX };
        assert_eq!(
            fault.try_faulted_tank(&nominal),
            Err(CoreError::InvalidConfig(
                "series resistance must be positive"
            ))
        );
        assert!(fault.faulted_tank(&nominal).is_none());
    }

    #[test]
    fn non_tank_faults_return_none() {
        let nominal = LcTank::datasheet_3mhz();
        for fault in [
            Fault::OpenCoil,
            Fault::PinShortToGround { pin: 0 },
            Fault::SupplyLoss,
            Fault::DriverDead,
        ] {
            assert!(fault.faulted_tank(&nominal).is_none(), "{fault}");
        }
    }

    #[test]
    fn display_names_are_distinct() {
        let names: Vec<String> = Fault::catalog().iter().map(Fault::to_string).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
