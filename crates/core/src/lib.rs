//! # lcosc-core — the LC oscillator driver and its amplitude regulation
//!
//! Behavioral model of the DATE'05 oscillator driver (paper §2–§4, §6):
//!
//! - [`tank::LcTank`] — the external resonance network (Losc, Cosc1, Cosc2,
//!   series loss Rs) whose quality factor may span two decades,
//! - [`gm_driver::GmDriver`] — the current-limited transconductance stage
//!   (Fig 2's static I–V), with the limit set by the DAC code,
//! - [`condition`] — the analytic oscillation condition (eq 1) and
//!   steady-state amplitude (eq 4),
//! - [`oscillator::OscillatorModel`] — the cycle-accurate 3-state ODE,
//! - [`envelope::EnvelopeModel`] — the averaged (describing-function)
//!   amplitude dynamics for millisecond-scale sweeps,
//! - [`detector::AmplitudeDetector`] — full-wave rectifier, low-pass filter
//!   and window comparator (Fig 8),
//! - [`multirate::MultiRateController`] — the envelope↔cycle fidelity
//!   hand-off state machine for long-horizon multi-rate runs,
//! - [`regulator::RegulationFsm`] — the 1 ms ±1/hold digital loop (§4),
//! - [`startup::StartupSequencer`] — POR preset (code 105) and NVM hand-over,
//! - [`sim::ClosedLoopSim`] — everything wired together.
//!
//! ## Example
//!
//! ```
//! use lcosc_core::{ClosedLoopSim, OscillatorConfig};
//!
//! # fn main() -> Result<(), lcosc_core::CoreError> {
//! let mut sim = ClosedLoopSim::new(OscillatorConfig::fast_test())?;
//! let report = sim.run_until_settled()?;
//! assert!(report.settled);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod condition;
pub mod config;
pub mod detector;
pub mod emc;
pub mod envelope;
pub mod gm_driver;
pub mod measure;
pub mod multirate;
pub mod oscillator;
pub mod regulator;
pub mod sim;
pub mod startup;
pub mod tank;

pub use condition::OscillationCondition;
pub use config::{Fidelity, OscillatorConfig};
pub use detector::AmplitudeDetector;
pub use emc::{analyze_emissions, EmissionReport};
pub use envelope::EnvelopeModel;
pub use gm_driver::{DriverShape, GmDriver};
pub use measure::{amplitude_pp, frequency_of, settling_tick};
pub use multirate::{
    code_step_needs_guard, ModeStats, MultiRateController, MultiRateOptions, RateMode,
};
pub use oscillator::{OscillatorModel, OscillatorState, OscillatorWaveform};
pub use regulator::RegulationFsm;
pub use sim::{CheckLevel, ClosedLoopSim, SettleReport, SimEvent, SimTrace};
pub use startup::StartupSequencer;
pub use tank::LcTank;

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A configuration value failed validation.
    InvalidConfig(&'static str),
    /// The static verification pass (`lcosc-check`) found errors.
    CheckFailed(lcosc_check::Report),
    /// The oscillator never started within the allotted simulation time.
    NoOscillation {
        /// Time simulated before giving up, seconds.
        simulated: f64,
    },
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::CheckFailed(report) => {
                write!(f, "static check failed:\n{}", report.render_human())
            }
            CoreError::NoOscillation { simulated } => {
                write!(f, "no oscillation detected after {simulated:.3e} s")
            }
        }
    }
}

impl std::error::Error for CoreError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(CoreError::InvalidConfig("bad q")
            .to_string()
            .contains("bad q"));
        assert!(CoreError::NoOscillation { simulated: 1e-3 }
            .to_string()
            .contains("no oscillation"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
