//! The NDJSON request/response protocol and its canonical cache-key form.
//!
//! One request per line, one response per line, both JSON objects. The
//! grammar is documented in `DESIGN.md` §10; this module owns the three
//! protocol-level transformations:
//!
//! - **parse**: request line → [`Request`] (typed, validated);
//! - **canonicalize**: request object minus `"id"` → sorted-key compact
//!   rendering, the preimage of the content-addressed cache key;
//! - **assemble**: `(id, status, body)` → the byte-exact response line.
//!
//! The response for a given request is a pure function of the request
//! object, which is what makes responses byte-identical across worker
//! thread counts and cache states.

use lcosc_campaign::Json;
use lcosc_safety::Fault;
use lcosc_trace::{ServeKind, ServeStatus};
use std::borrow::Cow;

/// Oscillator configuration preset a scenario or FMEA request runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Scaled-down tank for fast tests (`OscillatorConfig::fast_test`).
    FastTest,
    /// The paper's 3 MHz datasheet tank.
    Datasheet3MHz,
    /// Degraded low-Q tank.
    LowQ,
}

impl Preset {
    /// Stable protocol token.
    pub fn token(self) -> &'static str {
        match self {
            Preset::FastTest => "fast_test",
            Preset::Datasheet3MHz => "datasheet_3mhz",
            Preset::LowQ => "low_q",
        }
    }

    /// Parses a protocol token.
    ///
    /// # Errors
    ///
    /// Returns the offending token when it names no preset.
    pub fn parse(token: &str) -> Result<Preset, String> {
        match token {
            "fast_test" => Ok(Preset::FastTest),
            "datasheet_3mhz" => Ok(Preset::Datasheet3MHz),
            "low_q" => Ok(Preset::LowQ),
            other => Err(format!("unknown preset {other:?}")),
        }
    }

    /// Builds the corresponding oscillator configuration.
    pub fn config(self) -> lcosc_core::config::OscillatorConfig {
        use lcosc_core::config::OscillatorConfig;
        match self {
            Preset::FastTest => OscillatorConfig::fast_test(),
            Preset::Datasheet3MHz => OscillatorConfig::datasheet_3mhz(),
            Preset::LowQ => OscillatorConfig::low_q(),
        }
    }
}

/// Stable protocol token for a fault (the inverse of `parse_fault`;
/// pin / factor payloads travel in separate request fields).
pub fn fault_token(fault: Fault) -> &'static str {
    match fault {
        Fault::OpenCoil => "open_coil",
        Fault::CoilShort => "coil_short",
        Fault::PinShortToGround { .. } => "pin_short_gnd",
        Fault::PinShortToSupply { .. } => "pin_short_vdd",
        Fault::MissingCapacitor { .. } => "missing_cap",
        Fault::RsDrift { .. } => "rs_drift",
        Fault::SupplyLoss => "supply_loss",
        Fault::DriverDead => "driver_dead",
    }
}

/// Parses a fault from its protocol token plus the optional `pin` /
/// `factor` payload fields.
///
/// # Errors
///
/// Returns a message naming the missing or out-of-range field.
pub(crate) fn parse_fault(
    token: &str,
    pin: Option<i64>,
    factor: Option<f64>,
) -> Result<Fault, String> {
    let need_pin = || -> Result<usize, String> {
        match pin {
            Some(0) => Ok(0),
            Some(1) => Ok(1),
            Some(p) => Err(format!("fault {token:?}: pin must be 0 or 1, got {p}")),
            None => Err(format!("fault {token:?} requires a \"pin\" field")),
        }
    };
    match token {
        "open_coil" => Ok(Fault::OpenCoil),
        "coil_short" => Ok(Fault::CoilShort),
        "pin_short_gnd" => Ok(Fault::PinShortToGround { pin: need_pin()? }),
        "pin_short_vdd" => Ok(Fault::PinShortToSupply { pin: need_pin()? }),
        "missing_cap" => Ok(Fault::MissingCapacitor { pin: need_pin()? }),
        "rs_drift" => match factor {
            Some(f) if f.is_finite() && f > 0.0 => Ok(Fault::RsDrift { factor: f }),
            Some(f) => Err(format!(
                "fault \"rs_drift\": factor must be finite and positive, got {f}"
            )),
            None => Err("fault \"rs_drift\" requires a \"factor\" field".to_string()),
        },
        "supply_loss" => Ok(Fault::SupplyLoss),
        "driver_dead" => Ok(Fault::DriverDead),
        other => Err(format!("unknown fault {other:?}")),
    }
}

/// Largest yield campaign a request may ask for. The campaign holds one
/// job index per die before it runs any (17 GB at `u32::MAX` dies). At
/// about 26 µs per die, serial on a 2-core x86-64 host, the largest
/// accepted campaign runs in about 2.6 s, well inside the default 30 s
/// deadline.
const MAX_YIELD_DIES: u32 = 100_000;

/// A campaign sub-request.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignSpec {
    /// Full FMEA sweep over the fault catalog.
    Fmea {
        /// Configuration preset the sweep runs on.
        preset: Preset,
    },
    /// Monte-Carlo DAC yield sweep.
    Yield {
        /// Dies to sample (1 to 100 000).
        dies: u32,
        /// Base RNG seed.
        seed: u64,
        /// Relative regulation-window width (must be positive).
        window: f64,
    },
}

/// A parsed, validated protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Circuit-deck transient analysis.
    Transient {
        /// The circuit deck (see `lcosc_circuit::netlist_from_json`).
        deck: Json,
        /// Time step, seconds.
        dt: f64,
        /// End time, seconds.
        t_end: f64,
        /// Record every n-th step.
        record_stride: usize,
    },
    /// Single fault-injection scenario.
    Scenario {
        /// The injected fault.
        fault: Fault,
        /// Configuration preset.
        preset: Preset,
    },
    /// FMEA or yield campaign (runs serially inside one worker slot).
    Campaign(CampaignSpec),
    /// Static safety proof (`A0xx` obligations) of a preset.
    Prove {
        /// Configuration preset whose facts are proved.
        preset: Preset,
    },
    /// Server counter dump (never cached).
    Stats,
    /// Graceful-drain trigger (never cached).
    Shutdown,
}

impl Request {
    /// The trace-layer kind label of this request.
    pub fn kind(&self) -> ServeKind {
        match self {
            Request::Transient { .. } => ServeKind::Transient,
            Request::Scenario { .. } => ServeKind::Scenario,
            Request::Campaign(_) => ServeKind::Campaign,
            Request::Prove { .. } => ServeKind::Prove,
            Request::Stats => ServeKind::Stats,
            Request::Shutdown => ServeKind::Shutdown,
        }
    }
}

/// Desugars a `"spice"` request body into its `"deck"` equivalent.
///
/// A transient request may carry `"spice": "<.sp text>"` instead of a
/// `"deck"` object. This rewrites the request *before* parsing and
/// canonicalization: the `.sp` text is parsed ([`lcosc_spice::parse_spice`]),
/// gated through `lcosc-check`, and replaced by the JSON deck it denotes;
/// `dt` / `t_end` fall back to the deck's `.tran` card when absent. A
/// request without a `"spice"` string member is handed back borrowed, not
/// copied.
///
/// Because the rewrite happens ahead of [`canonical_key`], a spice request
/// and its JSON-deck equivalent share one cache digest and one response
/// byte stream — the protocol's determinism contract extends to `.sp`
/// input verbatim.
///
/// # Errors
///
/// Returns a `bad_request` message for `.sp` parse failures (with the
/// `P0xx` code and position), `lcosc-check` rejections (`E0xx` codes),
/// a missing analysis plan, or a request carrying both bodies.
pub fn desugar_spice(v: &Json) -> Result<Cow<'_, Json>, String> {
    let Json::Object(pairs) = v else {
        return Ok(Cow::Borrowed(v));
    };
    let Some(Json::Str(text)) = v.get("spice") else {
        return Ok(Cow::Borrowed(v));
    };
    if v.get("deck").is_some() {
        return Err("request carries both \"spice\" and \"deck\" bodies".to_string());
    }
    let deck = lcosc_spice::parse_spice(text).map_err(|e| format!("spice: {e}"))?;
    let report = deck.check();
    if report.error_count() > 0 {
        let first = report
            .diagnostics()
            .iter()
            .find(|d| d.severity == lcosc_check::Severity::Error)
            .map(|d| format!("{} {}", d.code, d.message))
            .unwrap_or_default();
        return Err(format!(
            "spice deck rejected by lcosc-check ({} errors; first: {first})",
            report.error_count()
        ));
    }
    let tran = deck.tran_options();
    let mut rewritten: Vec<(String, Json)> = Vec::with_capacity(pairs.len() + 1);
    for (k, val) in pairs {
        if k == "spice" {
            rewritten.push((
                "deck".to_string(),
                lcosc_circuit::netlist_to_json(&deck.netlist),
            ));
        } else {
            rewritten.push((k.clone(), val.clone()));
        }
    }
    if v.get("dt").is_none() {
        match &tran {
            Some(opts) => rewritten.push(("dt".to_string(), Json::Float(opts.dt))),
            None => {
                return Err(
                    "spice request needs a .tran card or explicit \"dt\"/\"t_end\"".to_string(),
                )
            }
        }
    }
    if v.get("t_end").is_none() {
        match &tran {
            Some(opts) => rewritten.push(("t_end".to_string(), Json::Float(opts.t_end))),
            None => {
                return Err(
                    "spice request needs a .tran card or explicit \"dt\"/\"t_end\"".to_string(),
                )
            }
        }
    }
    Ok(Cow::Owned(Json::Object(rewritten)))
}

fn f64_field(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-numeric \"{key}\" field"))
}

/// Parses a decoded request object into a typed [`Request`].
///
/// # Errors
///
/// Returns a human-readable message for the `"error"` field of a
/// `bad_request` response.
pub fn parse_request(v: &Json) -> Result<Request, String> {
    let mut request = validate_request(v)?;
    if let (Request::Transient { deck, .. }, Some(member)) = (&mut request, v.get("deck")) {
        *deck = member.clone();
    }
    Ok(request)
}

/// The validation behind [`parse_request`], without copying the request
/// tree: a transient's deck stays in `v`, and the returned request holds
/// `Json::Null` in its place. [`parse_request`] copies the deck in; the
/// engine moves it in, and only on a cache miss.
pub(crate) fn validate_request(v: &Json) -> Result<Request, String> {
    if !matches!(v, Json::Object(_)) {
        return Err("request must be a JSON object".to_string());
    }
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing or non-string \"kind\" field".to_string())?;
    match kind {
        "transient" => {
            if v.get("deck").is_none() {
                return Err("transient request requires a \"deck\" field".to_string());
            }
            let dt = f64_field(v, "dt")?;
            let t_end = f64_field(v, "t_end")?;
            if !(dt > 0.0) || !(t_end > dt) || !t_end.is_finite() {
                return Err(format!(
                    "need 0 < dt < t_end (finite), got dt={dt}, t_end={t_end}"
                ));
            }
            let record_stride = match v.get("record_stride") {
                None => 1,
                Some(j) => match j.as_int() {
                    Some(s) if s > 0 => s as usize,
                    _ => return Err("\"record_stride\" must be a positive integer".to_string()),
                },
            };
            Ok(Request::Transient {
                deck: Json::Null,
                dt,
                t_end,
                record_stride,
            })
        }
        "scenario" => {
            let token = v
                .get("fault")
                .and_then(Json::as_str)
                .ok_or_else(|| "scenario request requires a string \"fault\" field".to_string())?;
            let pin = v.get("pin").and_then(Json::as_int);
            let factor = v.get("factor").and_then(Json::as_f64);
            let fault = parse_fault(token, pin, factor)?;
            let preset = match v.get("preset") {
                None => Preset::FastTest,
                Some(p) => Preset::parse(
                    p.as_str()
                        .ok_or_else(|| "\"preset\" must be a string".to_string())?,
                )?,
            };
            Ok(Request::Scenario { fault, preset })
        }
        "campaign" => {
            let name = v.get("campaign").and_then(Json::as_str).ok_or_else(|| {
                "campaign request requires a string \"campaign\" field".to_string()
            })?;
            match name {
                "fmea" => {
                    let preset = match v.get("preset") {
                        None => Preset::FastTest,
                        Some(p) => Preset::parse(
                            p.as_str()
                                .ok_or_else(|| "\"preset\" must be a string".to_string())?,
                        )?,
                    };
                    Ok(Request::Campaign(CampaignSpec::Fmea { preset }))
                }
                "yield" => {
                    let dies = match v.get("dies").and_then(Json::as_int) {
                        Some(d) if d > 0 => d,
                        _ => return Err("\"dies\" must be a positive integer".to_string()),
                    };
                    if dies > i64::from(MAX_YIELD_DIES) {
                        return Err(format!("\"dies\" must be at most {MAX_YIELD_DIES}"));
                    }
                    let dies = dies as u32;
                    let seed = match v.get("seed") {
                        None => 0,
                        Some(j) => match j.as_int() {
                            Some(s) if s >= 0 => s as u64,
                            _ => return Err("\"seed\" must be a non-negative integer".to_string()),
                        },
                    };
                    let window = match v.get("window") {
                        None => 0.1,
                        Some(j) => match j.as_f64() {
                            Some(w) if w.is_finite() && w > 0.0 => w,
                            _ => return Err("\"window\" must be a positive number".to_string()),
                        },
                    };
                    Ok(Request::Campaign(CampaignSpec::Yield {
                        dies,
                        seed,
                        window,
                    }))
                }
                other => Err(format!("unknown campaign {other:?}")),
            }
        }
        "prove" => {
            let preset = match v.get("preset") {
                None => Preset::FastTest,
                Some(p) => Preset::parse(
                    p.as_str()
                        .ok_or_else(|| "\"preset\" must be a string".to_string())?,
                )?,
            };
            Ok(Request::Prove { preset })
        }
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown request kind {other:?}")),
    }
}

/// The `"id"` field of a request object (`null` when absent or when the
/// line was not an object). Echoed verbatim into the response.
pub fn request_id(v: &Json) -> Json {
    v.get("id").cloned().unwrap_or(Json::Null)
}

/// The canonical cache-key preimage of a request object: the object with
/// its `"id"` members removed, keys sorted recursively (the last duplicate
/// wins), rendered compactly. It is rendered in one pass from the borrowed
/// tree ([`Json::render_canonical`]), with no copy of the request.
///
/// Two requests that differ only in `"id"` (or in member order) map to the
/// same preimage and therefore the same cache slot.
pub fn canonical_key(v: &Json) -> String {
    v.render_canonical(Some("id"))
}

/// Response payload: either a pre-rendered JSON result document or an
/// error message (escaped at assembly time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Body {
    /// Rendered JSON of the `"result"` field (already byte-stable).
    Payload(String),
    /// Human-readable message for the `"error"` field.
    Error(String),
}

/// Assembles the byte-exact response line (no trailing newline):
/// `{"id":<id>,"status":"<status>","result":<payload>}` on success,
/// `{"id":<id>,"status":"<status>","error":"<message>"}` otherwise.
pub fn response_line(id: &Json, status: ServeStatus, body: &Body) -> String {
    match body {
        Body::Payload(payload) => assemble(id, status, "result", payload),
        Body::Error(message) => {
            assemble(id, status, "error", &Json::from(message.as_str()).render())
        }
    }
}

/// The `ok` response line around a borrowed result payload, which is
/// copied once, straight into the line: how a cache hit replays.
pub(crate) fn result_line(id: &Json, payload: &str) -> String {
    assemble(id, ServeStatus::Ok, "result", payload)
}

fn assemble(id: &Json, status: ServeStatus, member: &str, value: &str) -> String {
    let id = id.render();
    let mut s = String::with_capacity(id.len() + value.len() + 40);
    s.push_str("{\"id\":");
    s.push_str(&id);
    s.push_str(",\"status\":\"");
    s.push_str(status.label());
    s.push_str("\",\"");
    s.push_str(member);
    s.push_str("\":");
    s.push_str(value);
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Json {
        Json::parse(line).expect("test line must be valid JSON")
    }

    #[test]
    fn canonical_key_ignores_id_and_member_order() {
        let a = parse_line(r#"{"id":1,"kind":"stats"}"#);
        let b = parse_line(r#"{"kind":"stats","id":"different"}"#);
        assert_eq!(canonical_key(&a), canonical_key(&b));
        assert_eq!(canonical_key(&a), r#"{"kind":"stats"}"#);
        let c = parse_line(r#"{"kind":"scenario","fault":"open_coil"}"#);
        let d = parse_line(r#"{"fault":"open_coil","kind":"scenario"}"#);
        assert_eq!(canonical_key(&c), canonical_key(&d));
    }

    #[test]
    fn duplicate_keys_resolve_last_wins_in_request_key_and_id() {
        let v =
            parse_line(r#"{"id":1,"kind":"prove","preset":"fast_test","preset":"low_q","id":2}"#);
        assert_eq!(
            parse_request(&v),
            Ok(Request::Prove {
                preset: Preset::LowQ
            })
        );
        assert_eq!(canonical_key(&v), r#"{"kind":"prove","preset":"low_q"}"#);
        assert_eq!(request_id(&v), Json::Int(2));
    }

    #[test]
    fn requests_without_spice_pass_through_desugar_uncopied() {
        let v = parse_line(r#"{"kind":"scenario","fault":"open_coil"}"#);
        assert!(matches!(desugar_spice(&v), Ok(Cow::Borrowed(b)) if std::ptr::eq(b, &v)));
    }

    #[test]
    fn transient_validation_leaves_the_deck_to_the_caller() {
        let v = parse_line(r#"{"kind":"transient","deck":{"elements":[]},"dt":1e-6,"t_end":1e-3}"#);
        let shell = validate_request(&v).expect("valid");
        assert!(matches!(
            shell,
            Request::Transient {
                deck: Json::Null,
                ..
            }
        ));
        let Ok(Request::Transient { deck, .. }) = parse_request(&v) else {
            panic!("transient request parses");
        };
        assert_eq!(Some(&deck), v.get("deck"));
    }

    #[test]
    fn parse_covers_every_kind() {
        let cases = [
            (r#"{"kind":"stats"}"#, ServeKind::Stats),
            (r#"{"kind":"shutdown"}"#, ServeKind::Shutdown),
            (
                r#"{"kind":"scenario","fault":"pin_short_gnd","pin":1,"preset":"low_q"}"#,
                ServeKind::Scenario,
            ),
            (
                r#"{"kind":"campaign","campaign":"yield","dies":8,"seed":3,"window":0.1}"#,
                ServeKind::Campaign,
            ),
            (
                r#"{"kind":"transient","deck":{"elements":[]},"dt":1e-6,"t_end":1e-3}"#,
                ServeKind::Transient,
            ),
            (
                r#"{"kind":"prove","preset":"datasheet_3mhz"}"#,
                ServeKind::Prove,
            ),
        ];
        for (line, kind) in cases {
            let req = parse_request(&parse_line(line)).expect(line);
            assert_eq!(req.kind(), kind, "{line}");
        }
    }

    #[test]
    fn parse_rejects_bad_requests_with_field_naming_messages() {
        let cases = [
            (r#"[1,2]"#, "object"),
            (r#"{"id":4}"#, "kind"),
            (r#"{"kind":"warp"}"#, "warp"),
            (r#"{"kind":"scenario","fault":"rs_drift"}"#, "factor"),
            (
                r#"{"kind":"scenario","fault":"missing_cap","pin":7}"#,
                "pin",
            ),
            (r#"{"kind":"scenario","fault":"flux"}"#, "flux"),
            (
                r#"{"kind":"transient","deck":{},"dt":0.0,"t_end":1.0}"#,
                "dt",
            ),
            (r#"{"kind":"campaign","campaign":"yield","dies":0}"#, "dies"),
            (
                r#"{"kind":"campaign","campaign":"yield","dies":100001}"#,
                "\"dies\" must be at most 100000",
            ),
            (r#"{"kind":"campaign","campaign":"sweep"}"#, "sweep"),
            (r#"{"kind":"prove","preset":"warp_tank"}"#, "warp_tank"),
        ];
        for (line, needle) in cases {
            let err = parse_request(&parse_line(line)).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn fault_tokens_round_trip_the_catalog() {
        for fault in Fault::catalog() {
            let token = fault_token(fault);
            let (pin, factor) = match fault {
                Fault::PinShortToGround { pin }
                | Fault::PinShortToSupply { pin }
                | Fault::MissingCapacitor { pin } => (Some(pin as i64), None),
                Fault::RsDrift { factor } => (None, Some(factor)),
                _ => (None, None),
            };
            assert_eq!(parse_fault(token, pin, factor), Ok(fault), "{token}");
        }
    }

    #[test]
    fn response_lines_are_byte_exact() {
        assert_eq!(
            response_line(
                &Json::Int(7),
                ServeStatus::Ok,
                &Body::Payload("{\"x\":1}".to_string())
            ),
            r#"{"id":7,"status":"ok","result":{"x":1}}"#
        );
        assert_eq!(
            response_line(
                &Json::Null,
                ServeStatus::BadRequest,
                &Body::Error("broken \"line\"".to_string())
            ),
            r#"{"id":null,"status":"bad_request","error":"broken \"line\""}"#
        );
    }
}
