//! The diagnostics engine: severities, stable codes, provenance and the
//! [`Report`] collection with human-readable and JSON rendering.

use lcosc_campaign::Json;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational note; never fails a check.
    Info,
    /// Suspicious but not necessarily wrong; does not fail a check.
    Warning,
    /// A rule violation; the checked artifact must be rejected.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Where a diagnostic points: the netlist element, node or configuration
/// field that violated the rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Provenance {
    /// A netlist element, by insertion index and kind (`"resistor"`, ...),
    /// optionally narrowing to one field (`"ohms"`, ...).
    Element {
        /// Element index in insertion order.
        index: usize,
        /// Element kind name.
        kind: &'static str,
        /// Offending field, empty when the whole element is meant.
        field: &'static str,
    },
    /// A netlist node, by index and name.
    Node {
        /// Node index (0 is ground).
        index: usize,
        /// Node name.
        name: String,
    },
    /// A configuration field, by name.
    Field(&'static str),
}

impl std::fmt::Display for Provenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Provenance::Element { index, kind, field } => {
                if field.is_empty() {
                    write!(f, "element #{index} ({kind})")
                } else {
                    write!(f, "element #{index} ({kind}.{field})")
                }
            }
            Provenance::Node { index, name } => write!(f, "node #{index} ({name})"),
            Provenance::Field(name) => write!(f, "config field {name}"),
        }
    }
}

/// One finding of the static verification pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code (`E0xx` netlist, `C0xx` config, `S0xx` safety).
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Human-readable description of the violation.
    pub message: String,
    /// What the diagnostic points at, when known.
    pub provenance: Option<Provenance>,
}

/// The collected outcome of a verification pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    diags: Vec<Diagnostic>,
}

impl Report {
    /// An empty (clean) report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Appends a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// Appends an error with provenance.
    pub fn error(&mut self, code: &'static str, message: String, provenance: Option<Provenance>) {
        self.push(Diagnostic {
            code,
            severity: Severity::Error,
            message,
            provenance,
        });
    }

    /// Appends a warning with provenance.
    pub fn warning(&mut self, code: &'static str, message: String, provenance: Option<Provenance>) {
        self.push(Diagnostic {
            code,
            severity: Severity::Warning,
            message,
            provenance,
        });
    }

    /// Appends an informational note.
    pub fn info(&mut self, code: &'static str, message: String, provenance: Option<Provenance>) {
        self.push(Diagnostic {
            code,
            severity: Severity::Info,
            message,
            provenance,
        });
    }

    /// Moves every diagnostic of `other` into this report.
    pub fn merge(&mut self, other: Report) {
        self.diags.extend(other.diags);
    }

    /// All diagnostics in emission order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Whether any error-severity diagnostic was emitted.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Whether the report is entirely empty.
    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// Whether a diagnostic with the given code is present.
    pub fn contains(&self, code: &str) -> bool {
        self.diags.iter().any(|d| d.code == code)
    }

    /// Diagnostics in rendering order: sorted by (code, provenance,
    /// severity, message) so output is byte-stable regardless of the
    /// order the rules happened to run in. Emission order (which
    /// [`Report::diagnostics`] preserves) is an evaluation detail;
    /// rendered reports are part of the golden surface.
    fn render_order(&self) -> Vec<&Diagnostic> {
        let mut sorted: Vec<&Diagnostic> = self.diags.iter().collect();
        sorted.sort_by(|a, b| {
            let loc_a = a.provenance.as_ref().map(ToString::to_string);
            let loc_b = b.provenance.as_ref().map(ToString::to_string);
            a.code
                .cmp(b.code)
                .then_with(|| loc_a.cmp(&loc_b))
                .then_with(|| a.severity.cmp(&b.severity))
                .then_with(|| a.message.cmp(&b.message))
        });
        sorted
    }

    /// Renders the report for terminals: one `severity[code] message @
    /// provenance` line per diagnostic plus a summary line. Lines are
    /// sorted by (code, provenance) for byte-stable output.
    pub fn render_human(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in self.render_order() {
            let _ = write!(out, "{}[{}] {}", d.severity, d.code, d.message);
            if let Some(p) = &d.provenance {
                let _ = write!(out, " @ {p}");
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "check: {} error(s), {} warning(s), {} diagnostic(s)",
            self.error_count(),
            self.warning_count(),
            self.diags.len()
        );
        out
    }

    /// Renders the report as a JSON object
    /// `{"errors": N, "warnings": N, "diagnostics": [...]}`. Diagnostics
    /// are sorted by (code, provenance) for byte-stable output.
    pub fn render_json(&self) -> String {
        let diagnostics = self
            .render_order()
            .into_iter()
            .map(|d| {
                let mut pairs = vec![
                    ("code", Json::from(d.code)),
                    ("severity", Json::from(d.severity.to_string())),
                    ("message", Json::from(d.message.as_str())),
                ];
                if let Some(p) = &d.provenance {
                    pairs.push(("provenance", Json::from(p.to_string())));
                }
                Json::obj(pairs)
            })
            .collect();
        Json::obj([
            ("errors", Json::from(self.error_count())),
            ("warnings", Json::from(self.warning_count())),
            ("diagnostics", Json::Array(diagnostics)),
        ])
        .render()
    }
}

/// The full diagnostic-code registry: `(code, one-line description)`.
///
/// Codes are stable: tests, documentation and downstream tooling key on
/// them, so entries are append-only.
pub const ALL_CODES: &[(&str, &str)] = &[
    ("E001", "node is not connected to any element"),
    ("E002", "node dangles from a single element terminal"),
    ("E003", "node has no DC conduction path to ground"),
    ("E004", "loop of voltage sources and/or inductors"),
    ("E005", "element value is zero or negative"),
    ("E006", "element value is not a finite number"),
    (
        "E007",
        "element value is outside the physically plausible range",
    ),
    ("E008", "element connects both terminals to the same node"),
    ("E009", "MNA matrix is structurally singular without gmin"),
    ("E010", "netlist contains no elements"),
    (
        "E011",
        "source waveform violates a structural invariant (unsorted PWL, negative timing)",
    ),
    ("C001", "target amplitude must be positive and finite"),
    ("C002", "vref must sit strictly between the supply rails"),
    ("C003", "target amplitude exceeds what the rails can swing"),
    ("C004", "detector time constant must be positive"),
    (
        "C005",
        "tick period must dominate the detector time constant",
    ),
    ("C006", "NVM load delay must fall within the first tick"),
    (
        "C007",
        "cycle fidelity needs at least 20 ODE steps per period",
    ),
    (
        "C008",
        "envelope fidelity needs at least one substep per tick",
    ),
    ("C009", "detector noise RMS must be finite and non-negative"),
    ("C010", "NVM code is outside the 7-bit DAC range"),
    ("C011", "control-bus encoding is not a Table 1 row"),
    (
        "C012",
        "DAC segment table violates its structural invariants",
    ),
    (
        "C013",
        "DAC transfer is not monotonic above the first segments",
    ),
    (
        "S001",
        "comparator window is narrower than the maximum DAC step",
    ),
    ("S002", "window thresholds are not ordered (low < high)"),
    (
        "S003",
        "missing-clock timeout is shorter than a few LC periods",
    ),
    (
        "S004",
        "missing-clock timeout is excessively long for detection",
    ),
    ("S005", "low-amplitude threshold fraction must be in (0, 1)"),
    (
        "S006",
        "asymmetry detector threshold must be positive and finite",
    ),
    (
        "S007",
        "detector noise is large compared to the window width",
    ),
    (
        "A001",
        "window not provably wider than the worst-case DAC step",
    ),
    (
        "A002",
        "non-monotonic DAC excursion not provably inside the window",
    ),
    (
        "A003",
        "oscillation condition not provable over the Q/tolerance box",
    ),
    ("A004", "safe state not reachable through a fitted detector"),
    (
        "A005",
        "regulation automaton can livelock under a constant input",
    ),
    (
        "A006",
        "detector-trip latency exceeds its documented tick bound",
    ),
    ("A007", "an in-window hold can clear a saturation latch"),
    ("P001", "unknown element or dot-card in a SPICE deck"),
    ("P002", "SPICE card has the wrong number of fields"),
    (
        "P003",
        "malformed number or unknown engineering unit suffix",
    ),
    ("P004", "unknown or malformed SPICE source waveform"),
    ("P005", "element references an undefined .model"),
    ("P006", "unknown .model kind or model parameter"),
    ("P007", "value references an undefined .param"),
    ("P008", "duplicate element name in a SPICE deck"),
    ("P009", "malformed .tran or .dc analysis card"),
    ("P010", "SPICE deck never references the ground node"),
    ("P011", "SPICE node appears on only one element terminal"),
    ("P012", "SPICE element value is out of range for its card"),
];

/// One-line description of a diagnostic code, if registered.
pub fn describe(code: &str) -> Option<&'static str> {
    ALL_CODES.iter().find(|(c, _)| *c == code).map(|(_, d)| *d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new();
        r.error(
            "E005",
            "resistance is -1".into(),
            Some(Provenance::Element {
                index: 3,
                kind: "resistor",
                field: "ohms",
            }),
        );
        r.warning(
            "E002",
            "dangling \"node\"".into(),
            Some(Provenance::Node {
                index: 2,
                name: "out".into(),
            }),
        );
        r.info("E010", "empty".into(), None);
        r
    }

    #[test]
    fn counting_and_queries() {
        let r = sample();
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(r.has_errors());
        assert!(!r.is_clean());
        assert!(r.contains("E005"));
        assert!(!r.contains("E001"));
    }

    #[test]
    fn merge_concatenates() {
        let mut a = sample();
        a.merge(sample());
        assert_eq!(a.diagnostics().len(), 6);
        assert_eq!(a.error_count(), 2);
    }

    #[test]
    fn human_rendering_lists_every_line() {
        let text = sample().render_human();
        assert!(text.contains("error[E005] resistance is -1 @ element #3 (resistor.ohms)"));
        assert!(text.contains("warning[E002]"));
        assert!(text.contains("node #2 (out)"));
        assert!(text.contains("1 error(s), 1 warning(s), 3 diagnostic(s)"));
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let json = sample().render_json();
        assert!(json.starts_with("{\"errors\":1,\"warnings\":1,"));
        assert!(json.contains("\\\"node\\\""), "quotes escaped: {json}");
        assert!(json.ends_with("]}"));
        // Balanced braces/brackets (cheap structural sanity check).
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn json_escapes_control_characters() {
        let mut r = Report::new();
        r.error("E005", "a\tb\nc\"d\\e\r\u{1}".into(), None);
        assert_eq!(
            r.render_json(),
            r#"{"errors":1,"warnings":0,"diagnostics":[{"code":"E005","severity":"error","message":"a\tb\nc\"d\\e\r\u0001"}]}"#
        );
    }

    #[test]
    fn registry_is_unique_and_described() {
        let mut codes: Vec<&str> = ALL_CODES.iter().map(|(c, _)| *c).collect();
        let n = codes.len();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), n, "duplicate code in registry");
        assert_eq!(
            describe("E003"),
            Some("node has no DC conduction path to ground")
        );
        assert_eq!(describe("Z999"), None);
    }

    #[test]
    fn severity_ordering_puts_error_on_top() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    /// Two reports with the same findings emitted in different rule
    /// orders must render identically (human and JSON) — the byte
    /// stability the golden fixtures pin.
    #[test]
    fn rendering_is_independent_of_emission_order() {
        let forward = sample();
        let mut reverse = Report::new();
        for d in forward.diagnostics().iter().rev().cloned() {
            reverse.push(d);
        }
        assert_ne!(
            forward.diagnostics().first(),
            reverse.diagnostics().first(),
            "emission orders really differ"
        );
        assert_eq!(forward.render_human(), reverse.render_human());
        assert_eq!(forward.render_json(), reverse.render_json());
    }

    #[test]
    fn rendering_sorts_by_code_then_location() {
        let text = sample().render_human();
        let e002 = text.find("E002").expect("E002 rendered");
        let e005 = text.find("E005").expect("E005 rendered");
        let e010 = text.find("E010").expect("E010 rendered");
        assert!(e002 < e005 && e005 < e010, "{text}");
    }
}
