//! `lcosc-check` — static ERC/DRC verification pass for the lcosc
//! workspace.
//!
//! The crate lints the three artifact classes the simulator consumes
//! *before* any matrix is factored or any transient step is taken, in the
//! spirit of a SPICE electrical-rule check:
//!
//! - **Netlists** ([`check_netlist`], codes `E0xx`): floating and dangling
//!   nodes, nodes with no DC conduction path to ground, voltage-source and
//!   inductor loops, zero/negative/non-finite/implausible element values,
//!   self-loops, and structural singularity of the MNA matrix (a
//!   bipartite-matching test on the DC stamp pattern, deliberately
//!   excluding the solver's `gmin` crutches).
//! - **Configurations** ([`check_config_facts`], codes `C0xx`): the
//!   oscillator-driver configuration invariants, the Table 1 control-bus
//!   encodings ([`check_control_word`]), the 8-segment PWL DAC table
//!   ([`check_segment_table`]) and transfer monotonicity
//!   ([`check_dac_monotonicity`]).
//! - **Safety parameters** ([`check_safety_facts`], codes `S0xx`): the
//!   paper's window-wider-than-DAC-step invariant (§3/§4), window
//!   threshold ordering, missing-clock timeout versus the LC period, and
//!   detector threshold sanity.
//!
//! On top of the concrete-value rules sits the **static prover** (codes
//! `A0xx`, [`prove()`]): sound outward-rounded interval arithmetic
//! ([`interval`]) abstractly interprets the Table 1 DAC over its entire
//! mismatch box ([`abstract_dac`]) to prove the window-vs-step and
//! oscillation-condition properties for *every* die, and exhaustive
//! reachability over the regulation × detector × safe-state product
//! automaton ([`reach`]) proves safe-state reachability, livelock
//! freedom, bounded trip latency and saturation-latch preservation —
//! with `lcosc-trace`-compatible counterexample streams on refutation.
//!
//! Findings come back as a [`Report`] of [`Diagnostic`]s with stable codes
//! (registered append-only in [`ALL_CODES`]), a [`Severity`], provenance
//! down to the element/field, and both human-readable and JSON rendering.
//! The crate sits at the bottom of the workspace dependency graph —
//! `lcosc-core` and `lcosc-safety` call into it at their entry points and
//! surface failures as typed errors, and the `lcosc-check` CLI binary
//! lints `.sp` decks (read by `lcosc-spice`) and presets from the command
//! line.

pub mod abstract_dac;
pub mod config;
pub mod diag;
pub mod interval;
pub mod netlist;
pub mod prove;
pub mod reach;

pub use abstract_dac::{AbstractDacParams, ConcreteDie, StepBound};
pub use config::{
    check_config_facts, check_control_word, check_dac_monotonicity, check_safety_facts,
    check_segment_table, ideal_max_rel_step_above_16, ConfigFacts, SafetyFacts,
};
pub use diag::{describe, Diagnostic, Provenance, Report, Severity, ALL_CODES};
pub use interval::Interval;
pub use netlist::check_netlist;
pub use prove::{prove, Counterexample, Obligation, ProveFacts, ProveOutcome};
pub use reach::{analyze, ModelInput, ModelState, ReachFacts, ReachReport};
