//! # lcosc-bench — figure/table reproduction harness
//!
//! Data generators for every table and figure of the paper's evaluation
//! ([`figures`]) and for the design ablations ([`ablation`]), one per
//! series, each returning plain data that the `repro` binary
//! (`src/bin/repro.rs`) writes as CSV or prints. Timing lives in the
//! repository benchmark, `perfbench/`, not here.

pub mod ablation;
pub mod cli;
pub mod csv;
pub mod figures;
pub mod spice_smoke;

pub use figures::*;
