//! Deck construction from a structured JSON description.
//!
//! The serving layer submits circuit decks as JSON documents (one request
//! per line), so the [`Netlist`] needs a constructor from the workspace's
//! [`Json`] value tree. The format is symmetric: [`netlist_to_json`]
//! renders a netlist back into the same shape, and
//! `netlist_from_json(netlist_to_json(nl)) == nl` for every netlist the
//! format covers (pinned by the tests below).
//!
//! ```json
//! {
//!   "nodes": ["a", "b"],
//!   "elements": [
//!     {"kind": "resistor", "a": "a", "b": "gnd", "ohms": 1000.0},
//!     {"kind": "vsource", "p": "a", "n": "gnd",
//!      "wave": {"type": "dc", "value": 3.3}}
//!   ]
//! }
//! ```
//!
//! Nodes may be declared up front in `"nodes"` (fixing their index order)
//! or created implicitly on first reference; `"gnd"` and `"0"` name the
//! ground node. Component values are validated here with typed errors —
//! unlike the panicking builder methods, a malformed deck from the wire
//! must never abort the process.

use crate::netlist::{Element, Netlist, NodeId, Waveform};
use lcosc_campaign::Json;
use lcosc_device::diode::DiodeModel;
use lcosc_device::mos::{MosModel, Polarity};

/// A structural error in a JSON deck description.
#[derive(Debug, Clone, PartialEq)]
pub struct DeckError {
    /// Index of the offending element in the `"elements"` array, when the
    /// error is element-local.
    pub element: Option<usize>,
    /// What went wrong.
    pub message: String,
}

impl DeckError {
    fn new(message: impl Into<String>) -> Self {
        DeckError {
            element: None,
            message: message.into(),
        }
    }

    fn at(element: usize, message: impl Into<String>) -> Self {
        DeckError {
            element: Some(element),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for DeckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.element {
            Some(i) => write!(f, "deck element {i}: {}", self.message),
            None => write!(f, "deck: {}", self.message),
        }
    }
}

impl std::error::Error for DeckError {}

/// Reads a finite number field from an element object.
fn num(obj: &Json, key: &str, idx: usize) -> Result<f64, DeckError> {
    let v = obj
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| DeckError::at(idx, format!("missing or non-numeric field {key:?}")))?;
    if v.is_finite() {
        Ok(v)
    } else {
        Err(DeckError::at(idx, format!("field {key:?} must be finite")))
    }
}

/// Reads an optional finite number field, with a default.
fn num_or(obj: &Json, key: &str, idx: usize, default: f64) -> Result<f64, DeckError> {
    if obj.get(key).is_none() {
        return Ok(default);
    }
    num(obj, key, idx)
}

/// Reads a positive finite number field.
fn positive(obj: &Json, key: &str, idx: usize) -> Result<f64, DeckError> {
    let v = num(obj, key, idx)?;
    if v > 0.0 {
        Ok(v)
    } else {
        Err(DeckError::at(
            idx,
            format!("field {key:?} must be positive"),
        ))
    }
}

/// Reads an optional positive finite number field, with a default.
fn positive_or(obj: &Json, key: &str, idx: usize, default: f64) -> Result<f64, DeckError> {
    if obj.get(key).is_none() {
        return Ok(default);
    }
    positive(obj, key, idx)
}

/// Node-name interning shared by every element of one deck.
struct NodeTable<'nl> {
    nl: &'nl mut Netlist,
    names: std::collections::HashMap<String, NodeId>,
}

impl NodeTable<'_> {
    fn resolve(&mut self, obj: &Json, key: &str, idx: usize) -> Result<NodeId, DeckError> {
        let name = obj.get(key).and_then(Json::as_str).ok_or_else(|| {
            DeckError::at(idx, format!("missing or non-string node field {key:?}"))
        })?;
        if name.eq_ignore_ascii_case("gnd") || name == "0" {
            return Ok(Netlist::GROUND);
        }
        if let Some(&id) = self.names.get(name) {
            return Ok(id);
        }
        let id = self.nl.node(name);
        self.names.insert(name.to_string(), id);
        Ok(id)
    }
}

/// Parses a waveform description (`{"type": "dc" | "sine" | "step" |
/// "pwl" | "pulse", ...}`). Every parsed waveform passes
/// [`Waveform::validate`] before it is returned, so unsorted PWL times
/// and negative pulse timings are typed [`DeckError`]s here rather than
/// misevaluations later.
fn waveform_from_json(wave: &Json, idx: usize) -> Result<Waveform, DeckError> {
    let ty = wave
        .get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| DeckError::at(idx, "waveform needs a \"type\" field"))?;
    let parsed = match ty {
        "dc" => Ok(Waveform::Dc(num(wave, "value", idx)?)),
        "sine" => Ok(Waveform::Sine {
            offset: num_or(wave, "offset", idx, 0.0)?,
            amplitude: num(wave, "amplitude", idx)?,
            frequency: positive(wave, "frequency", idx)?,
            phase: num_or(wave, "phase", idx, 0.0)?,
        }),
        "step" => Ok(Waveform::Step {
            v0: num(wave, "v0", idx)?,
            v1: num(wave, "v1", idx)?,
            t_step: num(wave, "t_step", idx)?,
            t_rise: num_or(wave, "t_rise", idx, 0.0)?,
        }),
        "pwl" => {
            let Some(Json::Array(raw)) = wave.get("points") else {
                return Err(DeckError::at(idx, "pwl waveform needs a \"points\" array"));
            };
            let mut points = Vec::with_capacity(raw.len());
            for p in raw {
                let Json::Array(tv) = p else {
                    return Err(DeckError::at(idx, "pwl point must be a [t, v] pair"));
                };
                let (Some(t), Some(v)) = (
                    tv.first().and_then(Json::as_f64),
                    tv.get(1).and_then(Json::as_f64),
                ) else {
                    return Err(DeckError::at(idx, "pwl point must be a [t, v] pair"));
                };
                if !t.is_finite() || !v.is_finite() {
                    return Err(DeckError::at(idx, "pwl points must be finite"));
                }
                points.push((t, v));
            }
            Ok(Waveform::Pwl(points))
        }
        "pulse" => Ok(Waveform::Pulse {
            v1: num(wave, "v1", idx)?,
            v2: num(wave, "v2", idx)?,
            td: num_or(wave, "td", idx, 0.0)?,
            tr: num_or(wave, "tr", idx, 0.0)?,
            tf: num_or(wave, "tf", idx, 0.0)?,
            pw: num(wave, "pw", idx)?,
            per: num_or(wave, "per", idx, 0.0)?,
        }),
        other => Err(DeckError::at(
            idx,
            format!("unknown waveform type {other:?}"),
        )),
    };
    let wave = parsed?;
    wave.validate()
        .map_err(|e| DeckError::at(idx, e.to_string()))?;
    Ok(wave)
}

fn waveform_to_json(w: &Waveform) -> Json {
    match w {
        Waveform::Dc(v) => Json::obj([("type", Json::from("dc")), ("value", Json::from(*v))]),
        Waveform::Sine {
            offset,
            amplitude,
            frequency,
            phase,
        } => Json::obj([
            ("type", Json::from("sine")),
            ("offset", Json::from(*offset)),
            ("amplitude", Json::from(*amplitude)),
            ("frequency", Json::from(*frequency)),
            ("phase", Json::from(*phase)),
        ]),
        Waveform::Step {
            v0,
            v1,
            t_step,
            t_rise,
        } => Json::obj([
            ("type", Json::from("step")),
            ("v0", Json::from(*v0)),
            ("v1", Json::from(*v1)),
            ("t_step", Json::from(*t_step)),
            ("t_rise", Json::from(*t_rise)),
        ]),
        Waveform::Pwl(points) => Json::obj([
            ("type", Json::from("pwl")),
            (
                "points",
                Json::Array(
                    points
                        .iter()
                        .map(|(t, v)| Json::Array(vec![Json::from(*t), Json::from(*v)]))
                        .collect(),
                ),
            ),
        ]),
        Waveform::Pulse {
            v1,
            v2,
            td,
            tr,
            tf,
            pw,
            per,
        } => Json::obj([
            ("type", Json::from("pulse")),
            ("v1", Json::from(*v1)),
            ("v2", Json::from(*v2)),
            ("td", Json::from(*td)),
            ("tr", Json::from(*tr)),
            ("tf", Json::from(*tf)),
            ("pw", Json::from(*pw)),
            ("per", Json::from(*per)),
        ]),
    }
}

/// Builds a [`Netlist`] from a structured JSON deck description.
///
/// # Errors
///
/// Returns a [`DeckError`] naming the offending element for unknown
/// element kinds, missing or mistyped fields, non-finite numbers, and
/// non-positive resistances / capacitances / inductances. Never panics on
/// any input tree — this is the wire-facing constructor.
pub fn netlist_from_json(deck: &Json) -> Result<Netlist, DeckError> {
    if !matches!(deck, Json::Object(_)) {
        return Err(DeckError::new("deck must be a JSON object"));
    }
    let mut nl = Netlist::new();
    let mut table = NodeTable {
        nl: &mut nl,
        names: std::collections::HashMap::new(),
    };
    if let Some(nodes) = deck.get("nodes") {
        let Json::Array(items) = nodes else {
            return Err(DeckError::new("\"nodes\" must be an array of names"));
        };
        for n in items {
            let Some(name) = n.as_str() else {
                return Err(DeckError::new("\"nodes\" entries must be strings"));
            };
            if name.eq_ignore_ascii_case("gnd") || name == "0" {
                continue;
            }
            if !table.names.contains_key(name) {
                let id = table.nl.node(name);
                table.names.insert(name.to_string(), id);
            }
        }
    }
    let Some(Json::Array(elements)) = deck.get("elements") else {
        return Err(DeckError::new("deck needs an \"elements\" array"));
    };
    for (idx, e) in elements.iter().enumerate() {
        let kind = e
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| DeckError::at(idx, "element needs a \"kind\" field"))?;
        let element = match kind {
            "resistor" => Element::Resistor {
                a: table.resolve(e, "a", idx)?,
                b: table.resolve(e, "b", idx)?,
                ohms: positive(e, "ohms", idx)?,
            },
            "capacitor" => Element::Capacitor {
                a: table.resolve(e, "a", idx)?,
                b: table.resolve(e, "b", idx)?,
                farads: positive(e, "farads", idx)?,
                v0: num_or(e, "v0", idx, 0.0)?,
            },
            "inductor" => Element::Inductor {
                a: table.resolve(e, "a", idx)?,
                b: table.resolve(e, "b", idx)?,
                henries: positive(e, "henries", idx)?,
                i0: num_or(e, "i0", idx, 0.0)?,
            },
            "vsource" => Element::VoltageSource {
                p: table.resolve(e, "p", idx)?,
                n: table.resolve(e, "n", idx)?,
                wave: waveform_from_json(
                    e.get("wave")
                        .ok_or_else(|| DeckError::at(idx, "vsource needs a \"wave\" object"))?,
                    idx,
                )?,
            },
            "isource" => Element::CurrentSource {
                p: table.resolve(e, "p", idx)?,
                n: table.resolve(e, "n", idx)?,
                wave: waveform_from_json(
                    e.get("wave")
                        .ok_or_else(|| DeckError::at(idx, "isource needs a \"wave\" object"))?,
                    idx,
                )?,
            },
            "vccs" => Element::Vccs {
                out_p: table.resolve(e, "out_p", idx)?,
                out_n: table.resolve(e, "out_n", idx)?,
                in_p: table.resolve(e, "in_p", idx)?,
                in_n: table.resolve(e, "in_n", idx)?,
                gm: num(e, "gm", idx)?,
            },
            "diode" => {
                let defaults = DiodeModel::default();
                Element::Diode {
                    anode: table.resolve(e, "anode", idx)?,
                    cathode: table.resolve(e, "cathode", idx)?,
                    model: DiodeModel {
                        is: positive_or(e, "is", idx, defaults.is)?,
                        n: positive_or(e, "n", idx, defaults.n)?,
                        temp_k: positive_or(e, "temp_k", idx, defaults.temp_k)?,
                    },
                }
            }
            "mosfet" => {
                let polarity = e.get("polarity").and_then(Json::as_str).unwrap_or("nmos");
                let builtin = match polarity {
                    "nmos" => MosModel::nmos_035um(),
                    "pmos" => MosModel::pmos_035um(),
                    other => {
                        return Err(DeckError::at(
                            idx,
                            format!("unknown mosfet polarity {other:?}"),
                        ))
                    }
                };
                let kp = positive_or(e, "kp", idx, builtin.kp())?;
                let vth = num_or(e, "vth", idx, builtin.vth())?;
                let n = num_or(e, "n", idx, builtin.slope_factor())?;
                let lambda = num_or(e, "lambda", idx, builtin.lambda())?;
                if vth < 0.0 {
                    return Err(DeckError::at(idx, "field \"vth\" must be non-negative"));
                }
                if n < 1.0 {
                    return Err(DeckError::at(idx, "field \"n\" must be at least 1"));
                }
                if lambda < 0.0 {
                    return Err(DeckError::at(idx, "field \"lambda\" must be non-negative"));
                }
                Element::Mosfet {
                    d: table.resolve(e, "d", idx)?,
                    g: table.resolve(e, "g", idx)?,
                    s: table.resolve(e, "s", idx)?,
                    b: table.resolve(e, "b", idx)?,
                    model: MosModel::new(builtin.polarity(), kp, vth, n, lambda),
                }
            }
            "switch" => Element::Switch {
                a: table.resolve(e, "a", idx)?,
                b: table.resolve(e, "b", idx)?,
                closed: matches!(e.get("closed"), Some(Json::Bool(true))),
                r_on: {
                    let v = num_or(e, "r_on", idx, 1.0)?;
                    if v > 0.0 {
                        v
                    } else {
                        return Err(DeckError::at(idx, "field \"r_on\" must be positive"));
                    }
                },
                r_off: {
                    let v = num_or(e, "r_off", idx, 1e9)?;
                    if v > 0.0 {
                        v
                    } else {
                        return Err(DeckError::at(idx, "field \"r_off\" must be positive"));
                    }
                },
            },
            other => {
                return Err(DeckError::at(
                    idx,
                    format!("unknown element kind {other:?}"),
                ))
            }
        };
        table.nl.push_element(element);
    }
    Ok(nl)
}

/// Renders a netlist back into the JSON deck shape [`netlist_from_json`]
/// reads. Diode and MOSFET model parameters are emitted only when they
/// differ from the defaults for the element's polarity, so decks built
/// from builtin models keep their historical byte shape (and cache
/// digest) while custom `.model` cards survive the round trip.
pub fn netlist_to_json(nl: &Netlist) -> Json {
    let name = |n: NodeId| Json::from(nl.node_name(n));
    let nodes: Vec<Json> = nl
        .nodes()
        .filter(|n| !n.is_ground())
        .map(|n| Json::from(nl.node_name(n)))
        .collect();
    let elements: Vec<Json> = nl
        .elements()
        .iter()
        .map(|e| match e {
            Element::Resistor { a, b, ohms } => Json::obj([
                ("kind", Json::from("resistor")),
                ("a", name(*a)),
                ("b", name(*b)),
                ("ohms", Json::from(*ohms)),
            ]),
            Element::Capacitor { a, b, farads, v0 } => Json::obj([
                ("kind", Json::from("capacitor")),
                ("a", name(*a)),
                ("b", name(*b)),
                ("farads", Json::from(*farads)),
                ("v0", Json::from(*v0)),
            ]),
            Element::Inductor { a, b, henries, i0 } => Json::obj([
                ("kind", Json::from("inductor")),
                ("a", name(*a)),
                ("b", name(*b)),
                ("henries", Json::from(*henries)),
                ("i0", Json::from(*i0)),
            ]),
            Element::VoltageSource { p, n, wave } => Json::obj([
                ("kind", Json::from("vsource")),
                ("p", name(*p)),
                ("n", name(*n)),
                ("wave", waveform_to_json(wave)),
            ]),
            Element::CurrentSource { p, n, wave } => Json::obj([
                ("kind", Json::from("isource")),
                ("p", name(*p)),
                ("n", name(*n)),
                ("wave", waveform_to_json(wave)),
            ]),
            Element::Vccs {
                out_p,
                out_n,
                in_p,
                in_n,
                gm,
            } => Json::obj([
                ("kind", Json::from("vccs")),
                ("out_p", name(*out_p)),
                ("out_n", name(*out_n)),
                ("in_p", name(*in_p)),
                ("in_n", name(*in_n)),
                ("gm", Json::from(*gm)),
            ]),
            Element::Diode {
                anode,
                cathode,
                model,
            } => {
                let mut fields = vec![
                    ("kind", Json::from("diode")),
                    ("anode", name(*anode)),
                    ("cathode", name(*cathode)),
                ];
                if *model != DiodeModel::default() {
                    fields.push(("is", Json::from(model.is)));
                    fields.push(("n", Json::from(model.n)));
                    fields.push(("temp_k", Json::from(model.temp_k)));
                }
                Json::obj(fields)
            }
            Element::Mosfet { d, g, s, b, model } => {
                let (polarity, builtin) = match model.polarity() {
                    Polarity::N => ("nmos", MosModel::nmos_035um()),
                    Polarity::P => ("pmos", MosModel::pmos_035um()),
                };
                let mut fields = vec![
                    ("kind", Json::from("mosfet")),
                    ("d", name(*d)),
                    ("g", name(*g)),
                    ("s", name(*s)),
                    ("b", name(*b)),
                    ("polarity", Json::from(polarity)),
                ];
                if *model != builtin {
                    fields.push(("kp", Json::from(model.kp())));
                    fields.push(("vth", Json::from(model.vth())));
                    fields.push(("n", Json::from(model.slope_factor())));
                    fields.push(("lambda", Json::from(model.lambda())));
                }
                Json::obj(fields)
            }
            Element::Switch {
                a,
                b,
                closed,
                r_on,
                r_off,
            } => Json::obj([
                ("kind", Json::from("switch")),
                ("a", name(*a)),
                ("b", name(*b)),
                ("closed", Json::from(*closed)),
                ("r_on", Json::from(*r_on)),
                ("r_off", Json::from(*r_off)),
            ]),
        })
        .collect();
    Json::obj([
        ("nodes", Json::Array(nodes)),
        ("elements", Json::Array(elements)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rc_deck_json() -> Json {
        Json::parse(
            r#"{
              "elements": [
                {"kind": "vsource", "p": "in", "n": "gnd",
                 "wave": {"type": "step", "v0": 0.0, "v1": 1.0,
                          "t_step": 0.0, "t_rise": 1e-6}},
                {"kind": "resistor", "a": "in", "b": "out", "ohms": 1000.0},
                {"kind": "capacitor", "a": "out", "b": "gnd",
                 "farads": 1e-9, "v0": 0.0}
              ]
            }"#,
        )
        .expect("deck literal parses")
    }

    #[test]
    fn rc_deck_builds_and_simulates() {
        let nl = netlist_from_json(&rc_deck_json()).unwrap();
        assert_eq!(nl.node_count(), 3);
        assert_eq!(nl.elements().len(), 3);
        assert!(nl.is_linear());
        let opts = crate::TransientOptions::new(1e-7, 2e-5);
        let res = crate::run_transient(&nl, &opts).unwrap();
        let out = nl.nodes().nth(2).unwrap();
        let v_end = *res.voltage_trace(out).last().unwrap();
        assert!(v_end > 0.99, "RC settles to the source value, got {v_end}");
    }

    #[test]
    fn explicit_node_order_is_respected() {
        let deck = Json::parse(
            r#"{"nodes": ["b", "a", "gnd"],
                "elements": [{"kind": "resistor", "a": "a", "b": "b", "ohms": 1.0}]}"#,
        )
        .unwrap();
        let nl = netlist_from_json(&deck).unwrap();
        assert_eq!(nl.node_name(nl.nodes().nth(1).unwrap()), "b");
        assert_eq!(nl.node_name(nl.nodes().nth(2).unwrap()), "a");
    }

    #[test]
    fn round_trips_through_json() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.resistor(a, b, 1e3);
        nl.capacitor_ic(a, Netlist::GROUND, 1e-9, 0.25);
        nl.inductor_ic(a, b, 1e-6, 1e-3);
        nl.voltage_source(
            a,
            Netlist::GROUND,
            Waveform::Sine {
                offset: 0.0,
                amplitude: 1.0,
                frequency: 1e6,
                phase: 0.5,
            },
        );
        nl.current_source(
            b,
            Netlist::GROUND,
            Waveform::Pwl(vec![(0.0, 0.0), (1e-6, 1e-3)]),
        );
        nl.voltage_source(
            b,
            Netlist::GROUND,
            Waveform::Pulse {
                v1: 0.0,
                v2: 3.3,
                td: 1e-6,
                tr: 1e-8,
                tf: 2e-8,
                pw: 5e-7,
                per: 2e-6,
            },
        );
        nl.vccs(a, Netlist::GROUND, b, Netlist::GROUND, 1e-3);
        nl.diode(a, b, DiodeModel::default());
        nl.mosfet(
            a,
            b,
            Netlist::GROUND,
            Netlist::GROUND,
            MosModel::pmos_035um(),
        );
        nl.switch(a, b, true);
        let round = netlist_from_json(&netlist_to_json(&nl)).unwrap();
        assert_eq!(round, nl);
        // And the JSON itself is byte-stable through a parse cycle.
        let rendered = netlist_to_json(&nl).render();
        assert_eq!(Json::parse(&rendered).unwrap().render(), rendered);
    }

    #[test]
    fn typed_errors_instead_of_panics() {
        for (deck, needle) in [
            (r#"[]"#, "must be a JSON object"),
            (r#"{}"#, "elements"),
            (r#"{"elements": [{"a": "x"}]}"#, "kind"),
            (
                r#"{"elements": [{"kind": "warp_core"}]}"#,
                "unknown element kind",
            ),
            (
                r#"{"elements": [{"kind": "resistor", "a": "x", "b": "y", "ohms": -1.0}]}"#,
                "positive",
            ),
            (
                r#"{"elements": [{"kind": "resistor", "a": "x", "b": "y", "ohms": "big"}]}"#,
                "non-numeric",
            ),
            (
                r#"{"elements": [{"kind": "resistor", "a": 7, "b": "y", "ohms": 1.0}]}"#,
                "node field",
            ),
            (
                r#"{"elements": [{"kind": "vsource", "p": "x", "n": "y"}]}"#,
                "wave",
            ),
            (
                r#"{"elements": [{"kind": "vsource", "p": "x", "n": "y",
                    "wave": {"type": "warble"}}]}"#,
                "unknown waveform",
            ),
            (
                r#"{"elements": [{"kind": "mosfet", "d": "x", "g": "y", "s": "z",
                    "b": "w", "polarity": "cmos"}]}"#,
                "polarity",
            ),
            (
                r#"{"elements": [{"kind": "vsource", "p": "x", "n": "y",
                    "wave": {"type": "pwl", "points": [[1.0, 0.0], [0.0, 1.0]]}}]}"#,
                "non-decreasing",
            ),
            (
                r#"{"elements": [{"kind": "vsource", "p": "x", "n": "y",
                    "wave": {"type": "pulse", "v1": 0.0, "v2": 1.0, "pw": 1e-6,
                             "tr": -1e-9}}]}"#,
                "negative",
            ),
            (r#"{"nodes": "a", "elements": []}"#, "array of names"),
        ] {
            let parsed = Json::parse(deck).expect("test decks are valid JSON");
            let err = netlist_from_json(&parsed).expect_err(deck);
            assert!(err.to_string().contains(needle), "{deck} -> {err}");
        }
    }

    #[test]
    fn pwl_duplicate_times_are_accepted_and_unsorted_rejected() {
        // Equal adjacent times are a legal step discontinuity.
        let step = Json::parse(
            r#"{"elements": [{"kind": "vsource", "p": "x", "n": "gnd",
                "wave": {"type": "pwl",
                         "points": [[0.0, 0.0], [1e-6, 0.0], [1e-6, 1.0]]}}]}"#,
        )
        .unwrap();
        let nl = netlist_from_json(&step).expect("duplicate-time pwl is legal");
        match &nl.elements()[0] {
            Element::VoltageSource { wave, .. } => {
                assert_eq!(wave.eval(1e-6), 1.0);
                assert_eq!(wave.eval(0.5e-6), 0.0);
            }
            other => panic!("unexpected element {other:?}"),
        }
        // Strictly decreasing times are a typed error, never a silent
        // misevaluation.
        let unsorted = Json::parse(
            r#"{"elements": [{"kind": "isource", "p": "x", "n": "gnd",
                "wave": {"type": "pwl",
                         "points": [[0.0, 0.0], [2e-6, 1.0], [1e-6, 0.5]]}}]}"#,
        )
        .unwrap();
        let err = netlist_from_json(&unsorted).unwrap_err();
        assert!(err.to_string().contains("non-decreasing"), "{err}");
        assert_eq!(err.element, Some(0));
    }

    #[test]
    fn pulse_round_trips_and_defaults_apply() {
        let deck = Json::parse(
            r#"{"elements": [{"kind": "vsource", "p": "x", "n": "gnd",
                "wave": {"type": "pulse", "v1": 0.0, "v2": 5.0, "pw": 1e-6}}]}"#,
        )
        .unwrap();
        let nl = netlist_from_json(&deck).unwrap();
        match &nl.elements()[0] {
            Element::VoltageSource { wave, .. } => {
                assert_eq!(
                    wave,
                    &Waveform::Pulse {
                        v1: 0.0,
                        v2: 5.0,
                        td: 0.0,
                        tr: 0.0,
                        tf: 0.0,
                        pw: 1e-6,
                        per: 0.0,
                    }
                );
            }
            other => panic!("unexpected element {other:?}"),
        }
        let round = netlist_from_json(&netlist_to_json(&nl)).unwrap();
        assert_eq!(round, nl);
    }

    #[test]
    fn error_display_carries_element_index() {
        let deck = Json::parse(
            r#"{"elements": [
                {"kind": "resistor", "a": "x", "b": "y", "ohms": 1.0},
                {"kind": "resistor", "a": "x", "b": "y", "ohms": 0.0}
            ]}"#,
        )
        .unwrap();
        let err = netlist_from_json(&deck).unwrap_err();
        assert_eq!(err.element, Some(1));
        assert!(err.to_string().starts_with("deck element 1:"));
    }
}
