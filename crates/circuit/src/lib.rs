//! # lcosc-circuit — a small MNA circuit simulator
//!
//! Modified nodal analysis over a netlist of linear elements, independent
//! sources and the behavioral nonlinear devices from [`lcosc_device`]
//! (diode, EKV MOSFET). Three analyses are provided:
//!
//! - [`analysis::dc::solve_dc`] — Newton–Raphson operating point with gmin
//!   stepping and per-iteration voltage limiting,
//! - [`analysis::sweep::dc_sweep`] — a swept DC source with solution
//!   continuation (used for the paper's Fig 17/18 unsupplied-pad curves),
//! - [`analysis::transient::run_transient`] — backward-Euler or trapezoidal
//!   time stepping with Newton at every step.
//!
//! The simulator exists because the paper's §8 output-driver study is a
//! transistor-level DC problem that the behavioral oscillator model cannot
//! answer; see `DESIGN.md` for the substitution rationale.
//!
//! ## Example
//!
//! ```
//! use lcosc_circuit::netlist::{Netlist, Waveform};
//! use lcosc_circuit::analysis::dc::solve_dc;
//!
//! # fn main() -> Result<(), lcosc_circuit::CircuitError> {
//! let mut nl = Netlist::new();
//! let vin = nl.node("vin");
//! let out = nl.node("out");
//! nl.voltage_source(vin, Netlist::GROUND, Waveform::Dc(10.0));
//! nl.resistor(vin, out, 1_000.0);
//! nl.resistor(out, Netlist::GROUND, 1_000.0);
//! let sol = solve_dc(&nl)?;
//! assert!((sol.voltage(out) - 5.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod deck;
pub mod netlist;
pub mod stamp;
pub mod workloads;

pub use analysis::ac::{ac_sweep, logspace, AcPoint};
pub use analysis::dc::{solve_dc, solve_dc_with, DcOptions, DcSolution};
pub use analysis::sweep::{dc_sweep, SweepPoint};
pub use analysis::transient::{
    run_transient, Integrator, SolverPath, SolverStats, TransientOptions, TransientResult,
    SPARSE_MIN_UNKNOWNS,
};
pub use deck::{netlist_from_json, netlist_to_json, DeckError};
pub use netlist::{
    element_terminals, Element, ElementId, Netlist, NodeId, Waveform, WaveformError,
};
pub use stamp::{dc_stamp_pattern, StampPattern};

/// Errors produced by the circuit simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitError {
    /// Newton iteration failed to converge even with gmin/source stepping.
    NoConvergence {
        /// Analysis that failed ("dc", "sweep", "transient").
        analysis: &'static str,
        /// Detail such as the sweep value or time point.
        at: f64,
    },
    /// The MNA matrix was singular (floating subcircuit without gmin, ...).
    Singular {
        /// Detail such as the time point.
        at: f64,
    },
    /// The netlist or analysis options were invalid.
    InvalidInput(&'static str),
}

impl std::fmt::Display for CircuitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CircuitError::NoConvergence { analysis, at } => {
                write!(f, "{analysis} analysis failed to converge at {at:.6e}")
            }
            CircuitError::Singular { at } => write!(f, "singular mna matrix at {at:.6e}"),
            CircuitError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
        }
    }
}

impl std::error::Error for CircuitError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, CircuitError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = CircuitError::NoConvergence {
            analysis: "dc",
            at: 0.0,
        };
        assert!(e.to_string().contains("dc"));
        let e = CircuitError::Singular { at: 1.0 };
        assert!(e.to_string().contains("singular"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CircuitError>();
    }
}
