//! SPICE `.sp` netlist front end for the lcosc workspace.
//!
//! The workspace's native circuit interchange is the deck JSON of
//! `lcosc_circuit::deck`; this crate adds the classic line-oriented
//! SPICE form on top of it:
//!
//! - [`lex()`] folds `.sp` text into position-tracked cards (comments,
//!   `+` continuations, `(`/`)`/`,` separators, case folding);
//! - [`parse_spice`] builds a [`lcosc_circuit::Netlist`] plus analysis
//!   plan from the cards, rejecting bad input with stable, positioned
//!   `P0xx` diagnostics (registered in `lcosc_check::ALL_CODES`);
//! - [`render_netlist`] writes a netlist back out as `.sp` text, the
//!   inverse of the parser up to node/element naming;
//! - [`fuzz`] drives deterministic grammar/mutation fuzzing over all
//!   three input surfaces (`.sp` text, deck JSON, serve protocol
//!   lines) with a seed-reproducible digest.
//!
//! The dialect is documented card by card in `DESIGN.md` §17. It is a
//! deliberate subset: element cards `R C L V I G D M S`, source
//! waveforms `DC SIN PULSE PWL`, dot-cards `.title .param .model .tran
//! .dc .end`, engineering suffixes `f p n u m k meg g t`, node `0`/`gnd`
//! as ground. Everything else is a positioned `P001`.

pub mod fuzz;
pub mod lex;
pub mod parse;
pub mod render;

pub use fuzz::{run_fuzz, stub_protocol, FuzzConfig, FuzzFailure, FuzzReport};
pub use lex::{lex, Card, Token};
pub use parse::{parse_spice, Analysis, SpiceDeck, SpiceError};
pub use render::render_netlist;

#[cfg(test)]
mod tests {
    /// Every `P0xx` code this crate can emit must be registered in the
    /// stable diagnostic registry, so `describe()` and the README code
    /// table cover SPICE parse errors exactly like netlist ERC codes.
    #[test]
    fn every_emitted_p_code_is_registered() {
        let source = concat!(include_str!("parse.rs"), include_str!("lex.rs"));
        let mut emitted: Vec<&str> = Vec::new();
        let mut rest = source;
        while let Some(i) = rest.find("\"P0") {
            let code = &rest[i + 1..i + 5];
            if code.len() == 4 && code[1..].chars().all(|c| c.is_ascii_digit()) {
                emitted.push(code);
            }
            rest = &rest[i + 5..];
        }
        assert!(!emitted.is_empty(), "parser emits no P codes?");
        for code in &emitted {
            assert!(
                lcosc_check::ALL_CODES.iter().any(|(c, _)| c == code),
                "{code} is emitted by the parser but not registered in ALL_CODES"
            );
        }
        // And the reverse: every registered P code is actually emitted.
        for (code, _) in lcosc_check::ALL_CODES
            .iter()
            .filter(|(c, _)| c.starts_with('P'))
        {
            assert!(
                emitted.contains(code),
                "{code} is registered but never emitted by the parser"
            );
        }
    }
}
