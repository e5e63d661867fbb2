//! Command-line parsing for the `repro` binary.
//!
//! Pure: [`parse_args`] consumes any `String` iterator, so the whole flag
//! surface is unit-testable without spawning the binary, and failures are
//! a typed [`CliError`] rather than a stringly error.

use lcosc_trace::TraceLevel;
use std::fmt;
use std::path::PathBuf;

/// The `repro --help` text. Every accepted flag is listed here; the unit
/// tests enforce that parser and help stay in sync.
pub const HELP: &str = "repro: regenerate the paper's tables, figures and tracked campaign reports

USAGE:
    repro [OPTIONS]

OPTIONS:
    --threads N          fan campaigns out over N worker threads
                         (0 = all cores; default 1 = serial; results are
                         bit-identical for every N)
    --campaigns-only     run only the tracked campaigns, skip figure CSVs
    --unchecked          skip the static preset checks (fault studies)
    --results-out PATH   deterministic campaign results JSON
                         (default target/repro/campaign_results.json)
    --trace-out PATH     record the instrumented demo + campaign trace here
    --trace-level LEVEL  off | metrics | events (default events)
    --fuzz-smoke         run the deterministic three-surface fuzz campaign
                         (.sp text, deck JSON, serve protocol lines)
                         against a live engine, then exit; any panic,
                         hang or unminimized failure is fatal
    --fuzz-seed S        fuzz campaign seed (default 470139102); one seed
                         => one bit-identical report
    --fuzz-cases N       fuzz cases per surface (default 3500, so the
                         default campaign is 10500 cases)
    --fuzz-out PATH      fuzz report JSON path
                         (default target/repro/fuzz_report.json)
    --deck PATH          parse PATH (.sp netlist or JSON deck), run
                         lcosc-check and, when a .tran plan is present
                         and the lint is clean, a transient; then exit
    --spice-smoke DIR    run every .sp fixture in DIR through lcosc-serve
                         as both the spice and the JSON-deck spelling,
                         byte-compare the responses, then exit
    --help               print this help
";

/// Parsed `repro` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Campaign worker threads (0 = all cores).
    pub threads: usize,
    /// Skip figure CSVs, run only the tracked campaigns.
    pub campaigns_only: bool,
    /// Skip the static preset checks.
    pub unchecked: bool,
    /// Deterministic campaign results JSON path.
    pub results_out: PathBuf,
    /// Structured trace output path, when tracing is requested.
    pub trace_out: Option<PathBuf>,
    /// Trace verbosity.
    pub trace_level: TraceLevel,
    /// Run the deterministic fuzz campaign and exit.
    pub fuzz_smoke: bool,
    /// Fuzz campaign seed.
    pub fuzz_seed: u64,
    /// Fuzz cases per input surface.
    pub fuzz_cases: usize,
    /// Fuzz report JSON path.
    pub fuzz_out: PathBuf,
    /// Lint (and simulate) one deck file, then exit.
    pub deck: Option<PathBuf>,
    /// Run the `.sp`-vs-deck serve smoke over a fixture directory, then
    /// exit.
    pub spice_smoke: Option<PathBuf>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            threads: 1,
            campaigns_only: false,
            unchecked: false,
            results_out: PathBuf::from("target/repro/campaign_results.json"),
            trace_out: None,
            trace_level: TraceLevel::Events,
            fuzz_smoke: false,
            fuzz_seed: 0x1c05_c0de,
            fuzz_cases: 3500,
            fuzz_out: PathBuf::from("target/repro/fuzz_report.json"),
            deck: None,
            spice_smoke: None,
        }
    }
}

/// Parse outcome: either run with [`Args`] or print help and exit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cli {
    /// `--help` was requested.
    Help,
    /// Normal run.
    Run(Box<Args>),
}

/// A typed command-line error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A flag the parser does not know.
    UnknownFlag(String),
    /// A flag that takes a value appeared last.
    MissingValue(&'static str),
    /// A flag value that failed to parse.
    BadValue {
        /// The flag the value belonged to.
        flag: &'static str,
        /// What was wrong with it.
        message: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownFlag(flag) => {
                write!(
                    f,
                    "unknown flag {flag:?} (run with --help for the flag list)"
                )
            }
            CliError::MissingValue(flag) => write!(f, "{flag} requires a value"),
            CliError::BadValue { flag, message } => write!(f, "{flag}: {message}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Parses the argument list (without the program name).
///
/// # Errors
///
/// Returns a [`CliError`] naming the offending flag or value.
pub fn parse_args(args: impl Iterator<Item = String>) -> Result<Cli, CliError> {
    let mut parsed = Args::default();
    let mut args = args;
    fn next_value(
        args: &mut dyn Iterator<Item = String>,
        flag: &'static str,
    ) -> Result<String, CliError> {
        args.next().ok_or(CliError::MissingValue(flag))
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(Cli::Help),
            "--campaigns-only" => parsed.campaigns_only = true,
            "--unchecked" => parsed.unchecked = true,
            "--threads" => {
                let v = next_value(&mut args, "--threads")?;
                parsed.threads = v.parse().map_err(|_| CliError::BadValue {
                    flag: "--threads",
                    message: format!("bad thread count {v:?}"),
                })?;
            }
            "--results-out" => {
                parsed.results_out = PathBuf::from(next_value(&mut args, "--results-out")?);
            }
            "--trace-out" => {
                parsed.trace_out = Some(PathBuf::from(next_value(&mut args, "--trace-out")?));
            }
            "--trace-level" => {
                let v = next_value(&mut args, "--trace-level")?;
                parsed.trace_level = TraceLevel::parse(&v).ok_or(CliError::BadValue {
                    flag: "--trace-level",
                    message: format!("bad trace level {v:?} (off|metrics|events)"),
                })?;
            }
            "--fuzz-smoke" => parsed.fuzz_smoke = true,
            "--fuzz-seed" => {
                let v = next_value(&mut args, "--fuzz-seed")?;
                parsed.fuzz_seed = v.parse().map_err(|_| CliError::BadValue {
                    flag: "--fuzz-seed",
                    message: format!("bad seed {v:?}"),
                })?;
            }
            "--fuzz-cases" => {
                let v = next_value(&mut args, "--fuzz-cases")?;
                parsed.fuzz_cases = v.parse().map_err(|_| CliError::BadValue {
                    flag: "--fuzz-cases",
                    message: format!("bad case count {v:?}"),
                })?;
            }
            "--fuzz-out" => {
                parsed.fuzz_out = PathBuf::from(next_value(&mut args, "--fuzz-out")?);
            }
            "--deck" => {
                parsed.deck = Some(PathBuf::from(next_value(&mut args, "--deck")?));
            }
            "--spice-smoke" => {
                parsed.spice_smoke = Some(PathBuf::from(next_value(&mut args, "--spice-smoke")?));
            }
            other => return Err(CliError::UnknownFlag(other.to_string())),
        }
    }
    Ok(Cli::Run(Box::new(parsed)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, CliError> {
        parse_args(args.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn empty_argv_yields_defaults() {
        assert_eq!(parse(&[]), Ok(Cli::Run(Box::default())));
    }

    #[test]
    fn unknown_flag_is_a_typed_error() {
        assert_eq!(
            parse(&["--warp-speed"]),
            Err(CliError::UnknownFlag("--warp-speed".to_string()))
        );
        let rendered = CliError::UnknownFlag("--warp-speed".to_string()).to_string();
        assert!(rendered.contains("--warp-speed"), "{rendered}");
        assert!(rendered.contains("--help"), "{rendered}");
    }

    #[test]
    fn missing_and_malformed_values_are_typed_errors() {
        assert_eq!(
            parse(&["--threads"]),
            Err(CliError::MissingValue("--threads"))
        );
        assert!(matches!(
            parse(&["--threads", "many"]),
            Err(CliError::BadValue {
                flag: "--threads",
                ..
            })
        ));
        assert!(matches!(
            parse(&["--trace-level", "loud"]),
            Err(CliError::BadValue {
                flag: "--trace-level",
                ..
            })
        ));
    }

    #[test]
    fn all_flags_parse_together() {
        let cli = parse(&[
            "--threads",
            "4",
            "--campaigns-only",
            "--unchecked",
            "--results-out",
            "r.json",
            "--trace-out",
            "t.jsonl",
            "--trace-level",
            "metrics",
            "--fuzz-smoke",
            "--fuzz-seed",
            "42",
            "--fuzz-cases",
            "100",
            "--fuzz-out",
            "f.json",
            "--deck",
            "tank.sp",
            "--spice-smoke",
            "fixtures",
        ])
        .expect("all flags are valid");
        let Cli::Run(args) = cli else {
            panic!("expected a run, got {cli:?}");
        };
        assert_eq!(args.threads, 4);
        assert!(args.campaigns_only && args.unchecked);
        assert_eq!(args.results_out, PathBuf::from("r.json"));
        assert_eq!(args.trace_out, Some(PathBuf::from("t.jsonl")));
        assert_eq!(args.trace_level, TraceLevel::Metrics);
        assert!(args.fuzz_smoke);
        assert_eq!(args.fuzz_seed, 42);
        assert_eq!(args.fuzz_cases, 100);
        assert_eq!(args.fuzz_out, PathBuf::from("f.json"));
        assert_eq!(args.deck, Some(PathBuf::from("tank.sp")));
        assert_eq!(args.spice_smoke, Some(PathBuf::from("fixtures")));
    }

    #[test]
    fn help_flag_short_circuits() {
        assert_eq!(parse(&["--help"]), Ok(Cli::Help));
        assert_eq!(parse(&["-h", "--warp-speed"]), Ok(Cli::Help));
    }

    #[test]
    fn help_text_names_every_accepted_flag() {
        // Parser and help text must not drift apart: every value-less and
        // valued flag the parser matches appears in HELP.
        for flag in [
            "--threads",
            "--campaigns-only",
            "--unchecked",
            "--results-out",
            "--trace-out",
            "--trace-level",
            "--fuzz-smoke",
            "--fuzz-seed",
            "--fuzz-cases",
            "--fuzz-out",
            "--deck",
            "--spice-smoke",
            "--help",
        ] {
            assert!(HELP.contains(flag), "help text is missing {flag}");
        }
    }
}
