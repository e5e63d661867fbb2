//! `lcosc-check` — command-line linter for netlists and oscillator
//! configurations.
//!
//! ```text
//! lcosc-check [--json] netlist <deck.sp>         lint a SPICE deck
//! lcosc-check [--json] [--prove] config <preset> lint (and prove) a preset
//! lcosc-check [--json] prove-faults <preset>     prove the 11-fault fitments
//! lcosc-check list-codes                         print the diagnostic registry
//! lcosc-check explain <CODE>                     describe one diagnostic code
//! ```
//!
//! Every deck, whatever its file name, goes through the `lcosc-spice`
//! front end: `P0xx` parse diagnostics plus the netlist lint. A deck that
//! fails to parse exits 2; under `--json` its one `P0xx` error is still
//! printed as a report.
//!
//! `--prove` runs the `A0xx` static safety prover on top of the concrete
//! lint: interval abstract interpretation of the DAC over its whole
//! mismatch box plus exhaustive reachability of the regulation/safety
//! automaton. `prove-faults` re-proves safe-state reachability once per
//! catalog fault with only that fault's fitted detectors enabled.
//!
//! Exit status: 0 when clean (warnings allowed), 1 when any error-severity
//! diagnostic was found or a proof obligation was refuted, 2 on usage or
//! parse failures.

use lcosc::check::{describe, Report, ALL_CODES};
use lcosc::core::OscillatorConfig;
use lcosc::proving;
use lcosc::safety::scenario::check_scenario;
use std::process::ExitCode;

const USAGE: &str = "\
usage: lcosc-check [--json] netlist <deck.sp>
       lcosc-check [--json] [--prove] config <datasheet_3mhz|low_q|fast_test>
       lcosc-check [--json] prove-faults <datasheet_3mhz|low_q|fast_test>
       lcosc-check list-codes
       lcosc-check explain <CODE>";

fn preset_config(preset: &str) -> Option<OscillatorConfig> {
    match preset {
        "datasheet_3mhz" | "datasheet" => Some(OscillatorConfig::datasheet_3mhz()),
        "low_q" => Some(OscillatorConfig::low_q()),
        "fast_test" => Some(OscillatorConfig::fast_test()),
        _ => None,
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = if let Some(pos) = args.iter().position(|a| a == "--json") {
        args.remove(pos);
        true
    } else {
        false
    };
    let prove = if let Some(pos) = args.iter().position(|a| a == "--prove") {
        args.remove(pos);
        true
    } else {
        false
    };

    match args.first().map(String::as_str) {
        Some("list-codes") => {
            for (code, text) in ALL_CODES {
                println!("{code}  {text}");
            }
            ExitCode::SUCCESS
        }
        Some("explain") => match args.get(1).map(|c| (c, describe(c))) {
            Some((code, Some(text))) => {
                println!("{code}: {text}");
                ExitCode::SUCCESS
            }
            Some((code, None)) => {
                eprintln!("unknown diagnostic code {code:?} (see lcosc-check list-codes)");
                ExitCode::from(2)
            }
            None => usage(),
        },
        Some("netlist") => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            // The deck's check() folds the parser's P0xx warnings into the
            // netlist lint; a fatal parse error exits 2, and under --json it
            // is still a report, worded as check() words those warnings.
            match lcosc::spice::parse_spice(&text) {
                Ok(deck) => finish(&deck.check(), json),
                Err(e) => {
                    eprintln!("{path}: {e}");
                    if json {
                        let mut report = Report::new();
                        let message = format!("line {}, col {}: {}", e.line, e.col, e.message);
                        report.error(e.code, message, None);
                        println!("{}", report.render_json());
                    }
                    ExitCode::from(2)
                }
            }
        }
        Some("config") => {
            let Some(preset) = args.get(1) else {
                return usage();
            };
            let Some(cfg) = preset_config(preset) else {
                eprintln!("unknown preset {preset:?} (datasheet_3mhz, low_q, fast_test)");
                return ExitCode::from(2);
            };
            if prove {
                let outcome = proving::prove_config(&cfg);
                if json {
                    println!("{}", outcome.render_json());
                } else {
                    let concrete = check_scenario(&cfg);
                    print!("{}", concrete.render_human());
                    print!("{}", outcome.render_human());
                }
                if outcome.proved() && !check_scenario(&cfg).has_errors() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            } else {
                finish(&check_scenario(&cfg), json)
            }
        }
        Some("prove-faults") => {
            let Some(preset) = args.get(1) else {
                return usage();
            };
            let Some(cfg) = preset_config(preset) else {
                eprintln!("unknown preset {preset:?} (datasheet_3mhz, low_q, fast_test)");
                return ExitCode::from(2);
            };
            let proofs = proving::prove_fault_responses(&cfg);
            if json {
                println!(
                    "{}",
                    proving::fault_responses_to_json(preset, &proofs).render()
                );
            } else {
                print!("{}", proving::fault_responses_to_human(preset, &proofs));
            }
            if proofs.iter().all(|p| p.outcome.proved()) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => usage(),
    }
}

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn finish(report: &Report, json: bool) -> ExitCode {
    if json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    if report.has_errors() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
