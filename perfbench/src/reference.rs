//! Requests whose answers the repository pins in `tests/golden/`.
//!
//! Every serve set-up sends [`requests`] through the live server before
//! its warm-up or hot set and checks each reply against its fixture, so a
//! build whose prover, yield campaign or dense linear transient solver
//! returns wrong but deterministic output fails both serve workloads. The
//! `.sp` request classes are checked where they enter the engine:
//! [`check_spice_decks`] desugars the fixture of each class and compares
//! the deck with its committed JSON twin.
//!
//! Dense Newton and sparse transient outputs have no reference here; their
//! replies are checked only against the same build's `execute`.

use crate::serve::payload;
use lcosc_campaign::Json;
use lcosc_circuit::{netlist_to_json, Netlist};
use lcosc_serve::desugar_spice;

/// What `lcosc-check --json --prove config <preset>` prints per preset.
const PROVE: [(&str, &str); 3] = [
    (
        "fast_test",
        include_str!("../../tests/golden/prove_fast_test.json"),
    ),
    (
        "datasheet_3mhz",
        include_str!("../../tests/golden/prove_datasheet_3mhz.json"),
    ),
    ("low_q", include_str!("../../tests/golden/prove_low_q.json")),
];

/// Yield summary of 200 dies, seed 1, ±15 % window, pretty-printed.
const YIELD: &str = include_str!("../../tests/golden/yield_default.json");

/// Ring-down of the paper's series tank: ten cycles at 64 points a cycle,
/// every 8th step recorded.
const RING_DOWN: &str = include_str!("../../tests/golden/tank_ring_down.json");

/// A `.sp` fixture and its deck JSON twin for each `.sp` request class.
const SPICE: [(&str, &str, &str); 3] = [
    (
        "rc_ladder",
        include_str!("../../tests/golden/spice/rc_ladder.sp"),
        include_str!("../../tests/golden/spice/rc_ladder.deck.json"),
    ),
    (
        "antiparallel_diodes",
        include_str!("../../tests/golden/spice/antiparallel_diodes.sp"),
        include_str!("../../tests/golden/spice/antiparallel_diodes.deck.json"),
    ),
    (
        "pulse_switch",
        include_str!("../../tests/golden/spice/pulse_switch.sp"),
        include_str!("../../tests/golden/spice/pulse_switch.deck.json"),
    ),
];

/// The fixture a reference reply is checked against.
#[derive(Debug, Clone, Copy)]
enum Fixture {
    /// The `prove` member of the payload must equal the fixture's text.
    Prove {
        preset: &'static str,
        golden: &'static str,
    },
    /// The payload, pretty-printed, must equal [`YIELD`].
    Yield,
    /// The last recorded sample must equal the last of [`RING_DOWN`].
    RingDown,
}

/// One request with a fixture-backed answer.
#[derive(Debug)]
pub struct Reference {
    /// The request's `"id"`, which names it in failure messages.
    id: String,
    /// The request line, without newline.
    pub line: String,
    fixture: Fixture,
}

/// The reference requests, in the order a set-up sends them.
pub fn requests() -> Vec<Reference> {
    let mut list: Vec<Reference> = PROVE
        .iter()
        .map(|&(preset, golden)| {
            Reference::new(
                format!("prove_{preset}"),
                vec![
                    ("kind", Json::from("prove")),
                    ("preset", Json::from(preset)),
                ],
                Fixture::Prove { preset, golden },
            )
        })
        .collect();
    list.push(Reference::new(
        "yield_default".to_string(),
        vec![
            ("kind", Json::from("campaign")),
            ("campaign", Json::from("yield")),
            ("dies", Json::Int(200)),
            ("seed", Json::Int(1)),
            ("window", Json::Float(0.15)),
        ],
        Fixture::Yield,
    ));
    let f0 = 1.0 / (2.0 * std::f64::consts::PI * (25e-6_f64 * 1e-9).sqrt());
    list.push(Reference::new(
        "tank_ring_down".to_string(),
        vec![
            ("kind", Json::from("transient")),
            ("deck", netlist_to_json(&series_tank())),
            ("dt", Json::Float(1.0 / (f0 * 64.0))),
            ("t_end", Json::Float(10.0 / f0)),
            ("record_stride", Json::Int(8)),
        ],
        Fixture::RingDown,
    ));
    list
}

/// The paper's series tank (L = 25 µH, C1 = C2 = 2 nF, Rs = 15 Ω) with
/// the capacitors charged to ±1 V. Its nodes `lc1` and `lc2` come first,
/// so their voltages are `final_v[0]` and `final_v[1]`.
fn series_tank() -> Netlist {
    let mut nl = Netlist::new();
    let lc1 = nl.node("lc1");
    let lc2 = nl.node("lc2");
    let mid = nl.node("mid");
    nl.capacitor_ic(lc1, Netlist::GROUND, 2e-9, 1.0);
    nl.capacitor_ic(lc2, Netlist::GROUND, 2e-9, -1.0);
    nl.inductor(lc1, mid, 25e-6);
    nl.resistor(mid, lc2, 15.0);
    nl
}

impl Reference {
    fn new(id: String, members: Vec<(&'static str, Json)>, fixture: Fixture) -> Reference {
        let mut pairs = vec![("id", Json::from(id.as_str()))];
        pairs.extend(members);
        Reference {
            line: Json::obj(pairs).render(),
            id,
            fixture,
        }
    }

    /// Checks the server's reply line against the fixture.
    pub fn check(&self, reply: &str) -> Result<(), String> {
        let payload = payload(reply)
            .ok_or_else(|| format!("reference request {} failed: {reply}", self.id))?;
        let parse = || Json::parse(payload).map_err(|e| format!("reference reply: {e}"));
        let matches = match self.fixture {
            Fixture::Prove { preset, golden } => payload == prove_payload(preset, golden),
            Fixture::Yield => parse()?.render_pretty(2) == YIELD,
            Fixture::RingDown => last_sample_matches(&parse()?),
        };
        if matches {
            Ok(())
        } else {
            Err(format!(
                "reply to reference request {} differs from its fixture in tests/golden",
                self.id
            ))
        }
    }
}

/// The `prove` payload `execute` renders around a fixture's verdict.
fn prove_payload(preset: &str, golden: &str) -> String {
    format!(
        "{{\"preset\":\"{preset}\",\"prove\":{}}}",
        golden.trim_end()
    )
}

/// Whether a transient payload's sample count, final time and final
/// `v(lc1) - v(lc2)` equal the ring-down fixture's, floats bit for bit.
fn last_sample_matches(payload: &Json) -> bool {
    let Ok(golden) = Json::parse(RING_DOWN) else {
        return false;
    };
    let last = |doc: &Json, key: &str| match doc.get(key) {
        Some(Json::Array(v)) => v.last().and_then(Json::as_f64),
        _ => None,
    };
    let node = |i: usize| match payload.get("final_v") {
        Some(Json::Array(v)) => v.get(i).and_then(Json::as_f64),
        _ => None,
    };
    let same =
        |a: Option<f64>, b: Option<f64>| a.zip(b).is_some_and(|(a, b)| a.to_bits() == b.to_bits());
    let samples = |doc: &Json| doc.get("samples").and_then(Json::as_int);
    samples(payload).is_some()
        && samples(payload) == samples(&golden)
        && same(
            payload.get("final_time").and_then(Json::as_f64),
            last(&golden, "times"),
        )
        && same(
            node(0).zip(node(1)).map(|(a, b)| a - b),
            last(&golden, "vdiff"),
        )
}

/// Desugars the fixture of each `.sp` request class as the engine does
/// and compares the deck with its committed JSON twin.
pub fn check_spice_decks() -> Result<(), String> {
    for (stem, sp, twin) in SPICE {
        let request = Json::obj([("kind", Json::from("transient")), ("spice", Json::from(sp))]);
        let desugared = desugar_spice(&request).map_err(|e| format!("{stem}.sp: {e}"))?;
        let want = Json::parse(twin).map_err(|e| format!("{stem}.deck.json: {e}"))?;
        if desugared.get("deck").is_none() || desugared.get("deck") != want.get("deck") {
            return Err(format!(
                "desugared {stem}.sp differs from tests/golden/spice/{stem}.deck.json"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcosc_serve::{response_line, Body};
    use lcosc_trace::ServeStatus;

    fn reply(payload: String) -> String {
        response_line(&Json::Int(0), ServeStatus::Ok, &Body::Payload(payload))
    }

    #[test]
    fn prove_check_takes_the_fixture_text_and_nothing_else() {
        let list = requests();
        let (preset, golden) = PROVE[0];
        let good = prove_payload(preset, golden);
        assert_eq!(list[0].check(&reply(good.clone())), Ok(()));
        let bad = good.replacen("true", "false", 1);
        assert!(list[0].check(&reply(bad)).is_err());
        assert!(list[1].check(&reply(good)).is_err());
    }

    #[test]
    fn yield_check_rejects_a_changed_digit() {
        let list = requests();
        let compact = Json::parse(YIELD).expect("fixture is JSON").render();
        assert_eq!(list[3].check(&reply(compact.clone())), Ok(()));
        assert!(list[3]
            .check(&reply(compact.replace("0.985", "0.98")))
            .is_err());
    }

    #[test]
    fn ring_down_check_accepts_the_solver_and_rejects_one_ulp() {
        let list = requests();
        let v = Json::parse(&list[4].line).expect("line is JSON");
        let request = lcosc_serve::parse_request(&v).expect("valid request");
        let payload = lcosc_serve::execute(&request).expect("ring-down runs");
        assert_eq!(list[4].check(&reply(payload.render())), Ok(()));
        let Json::Object(mut pairs) = payload else {
            panic!("payload is an object");
        };
        for (key, value) in &mut pairs {
            if let (true, Json::Float(t)) = (key == "final_time", &value) {
                *value = Json::Float(f64::from_bits(t.to_bits() + 1));
            }
        }
        assert!(list[4].check(&reply(Json::Object(pairs).render())).is_err());
    }

    #[test]
    fn spice_fixtures_desugar_to_their_twins() {
        assert_eq!(check_spice_decks(), Ok(()));
    }
}
