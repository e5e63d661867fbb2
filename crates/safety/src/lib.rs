//! # lcosc-safety — safety-critical failure analysis (paper §7, §8)
//!
//! The oscillator driver ships in automotive products with hard safety
//! requirements: *for every external error condition the application must
//! remain safe* — the system has to detect the failure and set its outputs
//! accordingly, and in redundant dual systems the failure of one oscillator
//! must not disturb the other.
//!
//! This crate provides:
//!
//! - [`fault::Fault`] — the external/internal fault taxonomy the paper's
//!   FMEA covers (open coil, coil short, pin shorts, missing capacitors,
//!   loss drift, supply loss, dead driver),
//! - [`detectors`] — behavioral models of the three on-chip detectors:
//!   missing-oscillation time-out, low amplitude, and LC1/LC2 asymmetry by
//!   synchronous rectification of the mid-point,
//! - [`scenario`] — fault injection into a [`lcosc_core::ClosedLoopSim`]
//!   and evaluation of which detectors fire,
//! - [`fmea::FmeaReport`] — the full fault × detector matrix with coverage
//!   accounting,
//! - [`dual::DualSystem`] — two coupled oscillators, one losing its supply,
//!   with the partner loading computed from the pad topology
//!   ([`lcosc_pad::UnsuppliedBench`]),
//! - [`safe_state::SafeStateController`] — the reaction policy (maximum
//!   output current, outputs to safe values).

#![warn(missing_docs)]

pub mod coupled;
pub mod detectors;
pub mod dual;
pub mod fault;
pub mod fmea;
pub mod safe_state;
pub mod scenario;

pub use coupled::{CoupledOscillators, UnsuppliedLoad};
pub use detectors::{AsymmetryDetector, DetectorKind, LowAmplitudeDetector, MissingClockDetector};
pub use dual::{DualOutcome, DualSystem};
pub use fault::Fault;
pub use fmea::{FmeaEntry, FmeaReport, FmeaRun};
pub use safe_state::{SafeStateController, SystemOutputs};
pub use scenario::{
    check_scenario, detector_id, run_scenario, run_scenario_mission, run_scenario_with_trace,
    safety_facts, ScenarioResult, SCENARIO_POST_FAULT_TICKS,
};

/// Errors produced by this crate — wraps the oscillator-core and
/// circuit-simulator errors the analyses are built on.
#[derive(Debug, Clone, PartialEq)]
pub enum SafetyError {
    /// Invalid analysis input (coupling factor, thresholds, ...).
    InvalidInput(&'static str),
    /// Error from the closed-loop oscillator simulation.
    Core(lcosc_core::CoreError),
    /// Error from the pad-level circuit analysis.
    Circuit(lcosc_circuit::CircuitError),
}

impl std::fmt::Display for SafetyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SafetyError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            SafetyError::Core(e) => write!(f, "oscillator simulation failed: {e}"),
            SafetyError::Circuit(e) => write!(f, "circuit analysis failed: {e}"),
        }
    }
}

impl std::error::Error for SafetyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SafetyError::InvalidInput(_) => None,
            SafetyError::Core(e) => Some(e),
            SafetyError::Circuit(e) => Some(e),
        }
    }
}

impl From<lcosc_core::CoreError> for SafetyError {
    fn from(e: lcosc_core::CoreError) -> Self {
        SafetyError::Core(e)
    }
}

impl From<lcosc_circuit::CircuitError> for SafetyError {
    fn from(e: lcosc_circuit::CircuitError) -> Self {
        SafetyError::Circuit(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        use std::error::Error;
        let e = SafetyError::from(lcosc_core::CoreError::InvalidConfig("bad"));
        assert!(e.to_string().contains("bad"));
        assert!(e.source().is_some());
        assert!(SafetyError::InvalidInput("x").source().is_none());
    }
}
