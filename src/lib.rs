//! # lcosc — LC oscillator driver for safety-critical applications
//!
//! Facade crate for the `lcosc` workspace, a from-scratch Rust reproduction
//! of *P. Horsky, "LC Oscillator Driver for Safety Critical Applications",
//! DATE 2005*.
//!
//! The workspace models a CMOS harmonic LC oscillator driver for automotive
//! inductive position sensors: an exponential piece-wise-linear DAC limits
//! the driver current, a 1 ms digital loop regulates oscillation amplitude
//! through a window comparator, and dedicated detectors cover the paper's
//! safety-critical failure modes (missing oscillation, low amplitude, pin
//! asymmetry, partner-supply loss in redundant dual systems).
//!
//! This crate simply re-exports each member crate under a stable path:
//!
//! - [`num`] — numerical substrate (linear algebra, ODE, filters, FFT).
//! - [`trace`] — deterministic observability layer (typed events,
//!   counters/histograms, memory and metrics sinks, byte-stable JSONL).
//! - [`campaign`] — deterministic parallel campaign engine (seeded job
//!   fan-out, order-stable reduction, byte-stable JSON reports).
//! - [`circuit`] — netlist MNA simulator (DC, sweep, transient).
//! - [`check`] — static ERC/DRC verification pass (netlist, config and
//!   safety-invariant lints with stable diagnostic codes).
//! - [`device`] — behavioral device models (MOSFET, diode, mirrors, ...).
//! - [`dac`] — the exponential PWL current-limitation DAC (Table 1).
//! - [`core`] — LC tank, limited Gm driver, amplitude regulation loop.
//! - [`pad`] — output pad driver topologies and unsupplied-pin analysis.
//! - [`safety`] — fault injection, FMEA matrix, redundant dual system.
//! - [`sensor`] — the inductive position sensor application layer.
//! - [`spice`] — `.sp` netlist front end (lexer, parser, renderer) and
//!   the deterministic input-surface fuzzing harness.
//! - [`serve`] — the deterministic batch simulation service.
//!
//! On top of the re-exports, [`proving`] composes `check`'s static
//! safety prover with the chip's presets and fault catalog (the
//! `lcosc-check --prove` and `prove-faults` CLI paths).
//!
//! ## Quickstart
//!
//! ```
//! use lcosc::core::{ClosedLoopSim, OscillatorConfig};
//!
//! # fn main() -> Result<(), lcosc::core::CoreError> {
//! let config = OscillatorConfig::datasheet_3mhz();
//! let mut sim = ClosedLoopSim::new(config)?;
//! let report = sim.run_until_settled()?;
//! assert!(report.settled);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod proving;

pub use lcosc_campaign as campaign;
pub use lcosc_check as check;
pub use lcosc_circuit as circuit;
pub use lcosc_core as core;
pub use lcosc_dac as dac;
pub use lcosc_device as device;
pub use lcosc_num as num;
pub use lcosc_pad as pad;
pub use lcosc_safety as safety;
pub use lcosc_sensor as sensor;
pub use lcosc_serve as serve;
pub use lcosc_spice as spice;
pub use lcosc_trace as trace;
