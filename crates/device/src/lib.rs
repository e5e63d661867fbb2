//! # lcosc-device — behavioral device models
//!
//! Device-level building blocks for the `lcosc` reproduction of the DATE'05
//! LC oscillator driver: a smooth EKV-style MOSFET, a Shockley diode with
//! junction limiting, ratioed current mirrors with mismatch, and the
//! window comparator the paper's regulation loop relies on.
//!
//! The models are *behavioral*: first-order physics chosen so the circuit
//! simulator reproduces the qualitative shapes the paper measures (diode
//! knees, subthreshold leakage, mirror ratio errors) without a full BSIM
//! parameter set, which would add nothing at this abstraction level.
//!
//! ## Example
//!
//! ```
//! use lcosc_device::mos::{MosModel, Polarity};
//!
//! let nmos = MosModel::nmos_035um();
//! let op = nmos.evaluate(1.5, 1.8); // vgs = 1.5 V, vds = 1.8 V
//! assert!(op.id > 0.0);
//! assert!(op.gm > 0.0);
//! assert_eq!(nmos.polarity(), Polarity::N);
//! ```

#![warn(missing_docs)]

pub mod comparator;
pub mod diode;
pub mod mirror;
pub mod mismatch;
pub mod mos;
pub mod process;

pub use comparator::{WindowComparator, WindowState};
pub use diode::DiodeModel;
pub use mirror::CurrentMirror;
pub use mismatch::MismatchModel;
pub use mos::{MosModel, MosOperatingPoint, Polarity};
pub use process::{Corner, ProcessParams};

/// Thermal voltage kT/q at 300 K in volts.
pub const VT_300K: f64 = 0.025852;

/// Thermal voltage kT/q at the given temperature in kelvin.
///
/// # Panics
///
/// Panics if `temp_k` is not positive.
pub fn thermal_voltage(temp_k: f64) -> f64 {
    assert!(temp_k > 0.0, "temperature must be positive kelvin");
    const K_OVER_Q: f64 = 8.617_333e-5; // V / K
    K_OVER_Q * temp_k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thermal_voltage_at_room_temperature() {
        assert!((thermal_voltage(300.0) - VT_300K).abs() < 1e-4);
    }

    #[test]
    fn thermal_voltage_scales_linearly() {
        assert!((thermal_voltage(600.0) - 2.0 * thermal_voltage(300.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn thermal_voltage_rejects_zero() {
        let _ = thermal_voltage(0.0);
    }
}
