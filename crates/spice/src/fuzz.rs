//! Deterministic grammar/mutation fuzzing of every input surface.
//!
//! Three surfaces, one seed, bit-reproducible results:
//!
//! 1. **`.sp` text** — a grammar-directed generator emits plausible decks
//!    (elements, `.param`/`.model`/`.tran` cards, comments, continuation
//!    lines), then byte-level mutations corrupt them. Each case must
//!    either parse (and survive `lcosc-check` plus a step-budgeted
//!    transient) or fail with a typed, positioned
//!    [`SpiceError`](crate::SpiceError).
//! 2. **deck JSON** — the same decks round-tripped through
//!    `netlist_to_json`, mutated as JSON text, then fed to
//!    `netlist_from_json`. Typed `JsonParseError`/`DeckError` only.
//! 3. **serve protocol lines** — NDJSON request lines (including the
//!    `"spice"` alternative body) handed to a caller-supplied executor;
//!    `lcosc-bench` passes the real serve engine, unit tests a stub.
//!
//! Every case's (surface, input, outcome) triple folds into one running
//! digest, so two runs with the same seed can be byte-compared in CI. A
//! panic anywhere is caught, minimized with a bounded ddmin pass, and
//! reported as a self-contained repro string — never swallowed.

use crate::parse::parse_spice;
use lcosc_campaign::{digest_bytes, job_seed, Json};
use lcosc_circuit::analysis::transient::run_transient;
use lcosc_circuit::deck::{netlist_from_json, netlist_to_json};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Fuzzing configuration. All fields feed the digest: two runs agree
/// byte-for-byte iff their configs agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Master seed; every case derives its own stream from it.
    pub seed: u64,
    /// Cases generated per surface (three surfaces total).
    pub cases_per_surface: usize,
    /// Transient step budget per parse-clean deck (hang bound).
    pub step_budget: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0x1c05_c0de,
            cases_per_surface: 3500,
            step_budget: 512,
        }
    }
}

/// One caught failure (a panic — typed errors are expected outcomes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzFailure {
    /// Which surface the case exercised (`sp`, `deck-json`, `protocol`).
    pub surface: &'static str,
    /// Case index within the surface.
    pub case: usize,
    /// The full failing input.
    pub input: String,
    /// ddmin-reduced input that still fails.
    pub minimized: String,
    /// The panic payload.
    pub what: String,
}

/// Aggregate result of a fuzz run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzReport {
    /// Total cases executed across all surfaces.
    pub cases: usize,
    /// Cases whose input was accepted end to end.
    pub accepted: usize,
    /// Cases rejected with a typed error (the other expected outcome).
    pub typed_errors: usize,
    /// Caught panics — must be zero for a healthy tree.
    pub panics: usize,
    /// Order-sensitive digest over every (surface, input, outcome).
    pub digest: u64,
    /// Details of every caught panic.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// Renders the report as the JSON object `repro --fuzz-smoke` prints.
    pub fn to_json(&self, cfg: &FuzzConfig) -> Json {
        Json::obj([
            (
                "seed",
                Json::Int(i64::from_ne_bytes(cfg.seed.to_ne_bytes())),
            ),
            ("cases", Json::Int(self.cases as i64)),
            ("accepted", Json::Int(self.accepted as i64)),
            ("typed_errors", Json::Int(self.typed_errors as i64)),
            ("panics", Json::Int(self.panics as i64)),
            ("digest", Json::Str(format!("{:016x}", self.digest))),
            (
                "failures",
                Json::Array(
                    self.failures
                        .iter()
                        .map(|f| {
                            Json::obj([
                                ("surface", Json::Str(f.surface.to_string())),
                                ("case", Json::Int(f.case as i64)),
                                ("what", Json::Str(f.what.clone())),
                                ("minimized", Json::Str(f.minimized.clone())),
                                ("input", Json::Str(f.input.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// SplitMix64-derived stream: cheap, portable, and reproducible.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Self {
        Rng(job_seed(seed, stream))
    }

    fn next(&mut self) -> u64 {
        self.0 = job_seed(self.0, 0x9e37);
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    fn pick_str(&mut self, items: &[&'static str]) -> &'static str {
        items[self.below(items.len())]
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

const NODES: &[&str] = &["0", "gnd", "a", "b", "c", "out", "tank"];
const VALUES: &[&str] = &[
    "1k", "10", "2.2u", "100n", "47p", "3meg", "1e-9", "0.5", "1f", "5t", "3g", "1m", "{w}", "w",
    "10pf", "1e3", "-1", "0", "1e308", "nan", "9x", "..", "1k5",
];
const WAVES: &[&str] = &[
    "dc 3.3",
    "5",
    "sin(0 1 1meg)",
    "sin(0 1 1meg 0 0 90)",
    "pulse(0 3.3 1u 10n 10n 0.5u 1u)",
    "pulse(0 3.3)",
    "pwl(0 0 1u 3.3)",
    "pwl(0 0 1u 3.3 1u 0)",
    "pwl(0 0 1u)",
    "sin(0 1)",
    "dc",
    "exp(0 1)",
];
const DOTS: &[&str] = &[
    ".param w=1u l=2",
    ".model dd d is=1e-14 n=1.05",
    ".model mm nmos kp=100u vto=0.5",
    ".model bad q x=1",
    ".tran 1n 1u",
    ".tran 1n 1u uic",
    ".tran 0 0",
    ".dc v1 0 3.3 0.1",
    ".title fuzz deck",
    ".opts reltol=1e-3",
    ".end",
];

/// Grammar-directed `.sp` deck generator: mostly well-formed, with
/// deliberate rough edges drawn from the pools above.
fn gen_sp(rng: &mut Rng) -> String {
    let mut deck = String::from("* fuzz deck\n");
    let cards = 1 + rng.below(7);
    for k in 0..cards {
        if rng.chance(25) {
            deck.push_str(rng.pick_str(DOTS));
            deck.push('\n');
            continue;
        }
        let letter = rng.pick_str(&["r", "c", "l", "v", "i", "d", "m", "s", "g", "q", "x"]);
        let a = rng.pick_str(NODES);
        let b = rng.pick_str(NODES);
        let card = match letter {
            "v" | "i" => format!("{letter}{k} {a} {b} {}", rng.pick_str(WAVES)),
            "d" => format!("d{k} {a} {b} dd"),
            "m" => format!("m{k} {a} {b} {} 0 nmos", rng.pick_str(NODES)),
            "s" => format!("s{k} {a} {b} on ron=1 roff=1g"),
            "g" => format!("g{k} {a} {b} {} 0 1m", rng.pick_str(NODES)),
            _ => format!("{letter}{k} {a} {b} {}", rng.pick_str(VALUES)),
        };
        deck.push_str(&card);
        if rng.chance(15) {
            deck.push_str(" ; trailing\n+ ");
            deck.push_str(rng.pick_str(VALUES));
        }
        deck.push('\n');
    }
    if rng.chance(60) {
        deck.push_str(".tran 10n 1u uic\n");
    }
    if rng.chance(70) {
        deck.push_str(".end\n");
    }
    deck
}

/// Byte-level mutation: flips, inserts, deletes and duplications.
fn mutate(rng: &mut Rng, input: &str) -> String {
    let mut bytes: Vec<u8> = input.bytes().collect();
    let rounds = 1 + rng.below(4);
    for _ in 0..rounds {
        if bytes.is_empty() {
            break;
        }
        match rng.below(5) {
            0 => {
                let i = rng.below(bytes.len());
                bytes[i] = (rng.next() % 128) as u8;
            }
            1 => {
                let i = rng.below(bytes.len());
                bytes.insert(i, *rng.pick(b"(){}=+*;.,e- \n\t0123456789knpu"));
            }
            2 => {
                let i = rng.below(bytes.len());
                bytes.remove(i);
            }
            3 => {
                let i = rng.below(bytes.len());
                let j = rng.below(bytes.len());
                bytes.swap(i, j);
            }
            _ => {
                let i = rng.below(bytes.len());
                let chunk: Vec<u8> = bytes[i..bytes.len().min(i + 8)].to_vec();
                bytes.extend_from_slice(&chunk);
            }
        }
    }
    // Keep inputs valid UTF-8 so every layer sees a &str, as in prod.
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Executes one `.sp` case: parse, check, and a step-budgeted transient
/// when the deck comes with a `.tran` card. Returns an outcome tag.
fn run_sp_case(input: &str, step_budget: usize) -> Result<&'static str, String> {
    let deck = match parse_spice(input) {
        Ok(deck) => deck,
        Err(e) => return Err(format!("{e}")),
    };
    let report = deck.check();
    if report.error_count() > 0 {
        return Err(format!("check: {} errors", report.error_count()));
    }
    if let Some(mut opts) = deck.tran_options() {
        // Hang bound: clamp the run to the per-case step budget and skip
        // pathological matrices the generator cannot meaningfully solve.
        if deck.netlist.node_count() <= 64 && step_budget > 0 {
            let max_end = opts.dt * step_budget as f64;
            if opts.t_end > max_end {
                opts.t_end = max_end.max(opts.dt * 2.0);
            }
            opts.max_iter = opts.max_iter.min(50);
            if let Err(e) = run_transient(&deck.netlist, &opts) {
                return Err(format!("transient: {e}"));
            }
        }
    }
    Ok("accepted")
}

/// Executes one deck-JSON case: JSON parse, netlist decode, check.
fn run_deck_case(input: &str) -> Result<&'static str, String> {
    let json = Json::parse(input).map_err(|e| format!("{e}"))?;
    let nl = netlist_from_json(&json).map_err(|e| format!("{e}"))?;
    let report = lcosc_check::check_netlist(&nl);
    if report.error_count() > 0 {
        return Err(format!("check: {} errors", report.error_count()));
    }
    Ok("accepted")
}

/// Builds a protocol request line for the protocol surface: JSON-deck
/// transient requests, `"spice"` requests, and junk.
fn gen_protocol_line(rng: &mut Rng) -> String {
    match rng.below(4) {
        0 => {
            let sp = gen_sp(rng);
            Json::obj([
                ("id", Json::Str(format!("f{}", rng.below(1000)))),
                ("kind", Json::Str("transient".to_string())),
                ("spice", Json::Str(sp)),
            ])
            .render()
        }
        1 => {
            let sp = gen_sp(rng);
            match parse_spice(&sp) {
                Ok(deck) => Json::obj([
                    ("id", Json::Str("j".to_string())),
                    ("kind", Json::Str("transient".to_string())),
                    ("deck", netlist_to_json(&deck.netlist)),
                    ("dt", Json::Float(1e-8)),
                    ("t_end", Json::Float(1e-7)),
                ])
                .render(),
                Err(_) => "{\"kind\":\"ping\"}".to_string(),
            }
        }
        2 => "{\"kind\":\"ping\",\"id\":\"p\"}".to_string(),
        _ => mutate(rng, "{\"id\":\"x\",\"kind\":\"transient\",\"deck\":{}}"),
    }
}

/// Bounded ddmin: repeatedly drops line and byte chunks while the
/// predicate still fails, within a fixed attempt budget.
fn minimize(input: &str, still_fails: &dyn Fn(&str) -> bool) -> String {
    let mut best = input.to_string();
    let mut attempts = 0usize;
    // Line-level pass.
    loop {
        let lines: Vec<&str> = best.lines().collect();
        if lines.len() <= 1 {
            break;
        }
        let mut shrunk = false;
        for skip in 0..lines.len() {
            attempts += 1;
            if attempts > 200 {
                return best;
            }
            let candidate: String = lines
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, l)| format!("{l}\n"))
                .collect();
            if still_fails(&candidate) {
                best = candidate;
                shrunk = true;
                break;
            }
        }
        if !shrunk {
            break;
        }
    }
    // Byte-chunk pass: halve chunks from the ends.
    let mut chunk = best.len() / 2;
    while chunk >= 1 && attempts < 400 {
        let mut shrunk = false;
        for start in [0usize, best.len().saturating_sub(chunk)] {
            if best.len() <= chunk {
                break;
            }
            attempts += 1;
            let mut candidate = String::new();
            for (i, c) in best.char_indices() {
                if i < start || i >= start + chunk {
                    candidate.push(c);
                }
            }
            if still_fails(&candidate) {
                best = candidate;
                shrunk = true;
                break;
            }
        }
        if !shrunk {
            chunk /= 2;
        }
    }
    best
}

fn outcome_of(result: &std::thread::Result<Result<&'static str, String>>) -> (String, bool) {
    match result {
        Ok(Ok(tag)) => ((*tag).to_string(), false),
        Ok(Err(msg)) => (format!("typed: {msg}"), false),
        Err(payload) => {
            let what = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            (format!("panic: {what}"), true)
        }
    }
}

/// Runs the full three-surface fuzz campaign.
///
/// `protocol` executes one raw request line and returns the response
/// line; pass the serve engine's `submit_line` (via `lcosc-bench`) or a
/// stub. The returned report is a pure function of `cfg` and the
/// protocol executor's behaviour.
pub fn run_fuzz(cfg: &FuzzConfig, protocol: &dyn Fn(&str) -> String) -> FuzzReport {
    let mut report = FuzzReport {
        cases: 0,
        accepted: 0,
        typed_errors: 0,
        panics: 0,
        digest: digest_bytes(&cfg.seed.to_le_bytes()),
        failures: Vec::new(),
    };
    let surfaces: [(&'static str, u64); 3] = [("sp", 1), ("deck-json", 2), ("protocol", 3)];
    for (surface, stream) in surfaces {
        for case in 0..cfg.cases_per_surface {
            let mut rng = Rng::new(cfg.seed, stream * 0x1_0000_0000 + case as u64);
            let input = match surface {
                "sp" => {
                    let base = gen_sp(&mut rng);
                    if rng.chance(50) {
                        mutate(&mut rng, &base)
                    } else {
                        base
                    }
                }
                "deck-json" => {
                    let base = match parse_spice(&gen_sp(&mut rng)) {
                        Ok(deck) => netlist_to_json(&deck.netlist).render(),
                        Err(_) => "{\"nodes\":[],\"elements\":[]}".to_string(),
                    };
                    if rng.chance(60) {
                        mutate(&mut rng, &base)
                    } else {
                        base
                    }
                }
                _ => gen_protocol_line(&mut rng),
            };
            let exec = |text: &str| -> std::thread::Result<Result<&'static str, String>> {
                catch_unwind(AssertUnwindSafe(|| match surface {
                    "sp" => run_sp_case(text, cfg.step_budget),
                    "deck-json" => run_deck_case(text),
                    _ => {
                        let response = protocol(text);
                        if response.contains("\"error\"") {
                            Err(response)
                        } else {
                            Ok("accepted")
                        }
                    }
                }))
            };
            let result = exec(&input);
            let (outcome, panicked) = outcome_of(&result);
            report.cases += 1;
            if panicked {
                report.panics += 1;
                let still_fails =
                    |candidate: &str| matches!(outcome_of(&exec(candidate)), (_, true));
                let minimized = minimize(&input, &still_fails);
                report.failures.push(FuzzFailure {
                    surface,
                    case,
                    input: input.clone(),
                    minimized,
                    what: outcome.clone(),
                });
            } else if outcome.starts_with("typed") {
                report.typed_errors += 1;
            } else {
                report.accepted += 1;
            }
            let mut record = Vec::new();
            record.extend_from_slice(&report.digest.to_le_bytes());
            record.extend_from_slice(surface.as_bytes());
            record.extend_from_slice(&(case as u64).to_le_bytes());
            record.extend_from_slice(input.as_bytes());
            record.extend_from_slice(outcome.as_bytes());
            report.digest = digest_bytes(&record);
        }
    }
    report
}

/// A protocol stub for tests and standalone runs: accepts `ping`,
/// answers everything else with a typed error line.
pub fn stub_protocol(line: &str) -> String {
    match Json::parse(line) {
        Ok(Json::Object(fields)) => {
            let kind = fields.iter().find(|(k, _)| k == "kind");
            match kind {
                Some((_, Json::Str(k))) if k == "ping" => "{\"status\":\"ok\"}".to_string(),
                _ => "{\"status\":\"error\",\"error\":\"unsupported\"}".to_string(),
            }
        }
        Ok(_) => "{\"status\":\"error\",\"error\":\"not an object\"}".to_string(),
        Err(e) => format!(
            "{{\"status\":\"error\",\"error\":{}}}",
            Json::Str(e.to_string()).render()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_is_deterministic_for_a_fixed_seed() {
        let cfg = FuzzConfig {
            seed: 7,
            cases_per_surface: 60,
            step_budget: 64,
        };
        let a = run_fuzz(&cfg, &stub_protocol);
        let b = run_fuzz(&cfg, &stub_protocol);
        assert_eq!(a, b);
        assert_eq!(a.cases, 180);
    }

    #[test]
    fn fuzz_finds_no_panics_in_the_front_end() {
        let cfg = FuzzConfig {
            seed: 42,
            cases_per_surface: 200,
            step_budget: 64,
        };
        let report = run_fuzz(&cfg, &stub_protocol);
        assert_eq!(report.panics, 0, "failures: {:?}", report.failures);
        assert!(
            report.typed_errors > 0,
            "mutations never produced an error?"
        );
        assert!(
            report.accepted > 0,
            "generator never produced a clean deck?"
        );
    }

    #[test]
    fn different_seeds_diverge() {
        let cfg_a = FuzzConfig {
            seed: 1,
            cases_per_surface: 30,
            step_budget: 16,
        };
        let cfg_b = FuzzConfig { seed: 2, ..cfg_a };
        let a = run_fuzz(&cfg_a, &stub_protocol);
        let b = run_fuzz(&cfg_b, &stub_protocol);
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn minimizer_shrinks_while_preserving_failure() {
        let fails = |s: &str| s.contains("boom");
        let shrunk = minimize("good line\nhas boom inside\nmore noise\n", &fails);
        assert!(shrunk.contains("boom"));
        assert!(shrunk.len() < "good line\nhas boom inside\nmore noise\n".len());
    }

    #[test]
    fn report_json_is_stable() {
        let cfg = FuzzConfig {
            seed: 7,
            cases_per_surface: 5,
            step_budget: 8,
        };
        let report = run_fuzz(&cfg, &stub_protocol);
        let rendered = report.to_json(&cfg).render();
        assert!(rendered.contains("\"digest\":\""));
        assert!(rendered.contains("\"panics\":0"));
    }
}
