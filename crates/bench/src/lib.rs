//! # lcosc-bench — figure/table reproduction harness
//!
//! Data generators for every table and figure of the paper's evaluation,
//! shared between the Criterion benches (`benches/`) and the `repro`
//! binary (`src/bin/repro.rs`). Each generator returns plain data so the
//! benches can both *print* the series (the reproduction) and *time* the
//! computation (the benchmark).

pub mod ablation;
pub mod cli;
pub mod csv;
pub mod figures;
pub mod spice_smoke;

pub use figures::*;
