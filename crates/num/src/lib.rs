//! # lcosc-num — numerical substrate for the `lcosc` workspace
//!
//! Self-contained numerical routines used by the circuit simulator and the
//! behavioral oscillator models: dense linear algebra, ODE integration,
//! discrete-time filters, FFT-based spectral analysis, scalar root finding,
//! piece-wise-linear interpolation, descriptive statistics and SI unit
//! newtypes.
//!
//! Everything here is deterministic and allocation-conscious; no external
//! numerical dependencies are used so that the whole reproduction builds
//! offline.
//!
//! ## Example
//!
//! ```
//! use lcosc_num::ode::{rk4_step, OdeSystem};
//!
//! /// Exponential decay x' = -x.
//! struct Decay;
//! impl OdeSystem for Decay {
//!     fn dim(&self) -> usize { 1 }
//!     fn derivatives(&self, _t: f64, x: &[f64], dx: &mut [f64]) {
//!         dx[0] = -x[0];
//!     }
//! }
//!
//! let mut x = [1.0];
//! let mut scratch = vec![0.0; 5 * 1];
//! rk4_step(&Decay, 0.0, 1e-3, &mut x, &mut scratch);
//! assert!((x[0] - (-1e-3f64).exp()).abs() < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod fft;
pub mod filter;
pub mod interp;
pub mod linalg;
pub mod ode;
pub mod roots;
pub mod sparse;
pub mod stats;
pub mod units;

pub use fft::{dominant_frequency, power_spectrum, Complex};
pub use filter::{EnvelopeFollower, MovingRms, OnePoleLowPass};
pub use interp::PwlTable;
pub use linalg::{pivot_is_singular, Matrix, SINGULAR_PIVOT_THRESHOLD};
pub use ode::{rk4_step, OdeSystem};
pub use roots::{bisect, brent, newton};
pub use sparse::{SparseLu, SparseMatrix, SparseSymbolic};
pub use units::{Amps, Farads, Henries, Hertz, Ohms, Seconds, Volts};

/// Errors produced by numerical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum NumError {
    /// A matrix was singular (or numerically singular) during factorization.
    SingularMatrix {
        /// Pivot column at which factorization broke down.
        pivot: usize,
    },
    /// An iterative method failed to converge within its iteration budget.
    NoConvergence {
        /// Number of iterations performed before giving up.
        iterations: usize,
        /// Residual (method-specific norm) at the last iterate.
        residual: f64,
    },
    /// Input arguments were invalid (empty slice, inverted bracket, NaN, ...).
    InvalidInput(&'static str),
}

impl std::fmt::Display for NumError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NumError::SingularMatrix { pivot } => {
                write!(f, "matrix is singular at pivot column {pivot}")
            }
            NumError::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "no convergence after {iterations} iterations (residual {residual:.3e})"
            ),
            NumError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
        }
    }
}

impl std::error::Error for NumError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, NumError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty_and_lowercase() {
        let errs = [
            NumError::SingularMatrix { pivot: 3 },
            NumError::NoConvergence {
                iterations: 10,
                residual: 1e-3,
            },
            NumError::InvalidInput("empty slice"),
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
            assert!(!s.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NumError>();
    }
}
