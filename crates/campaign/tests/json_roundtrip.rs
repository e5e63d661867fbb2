//! Round-trip property tests for the JSON parser against the byte-stable
//! renderer: `parse(render(v)) == v` for every tree with finite floats,
//! including the RFC 8259 escape corpus the renderer's unit tests pin.
//! The one-pass canonical render is pinned against its reference,
//! `canonicalize().render()`, on generated trees and on every JSON
//! fixture under `tests/golden/`.

use lcosc_campaign::Json;
use proptest::prelude::*;
use std::path::Path;

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Builds a deterministic pseudo-random `Json` tree from an integer seed.
///
/// The vendored proptest stub has no recursive strategy combinators, so
/// the tree shape is derived from a SplitMix-style walk over the seed —
/// still a pure function of the generated input, so failures reproduce.
fn tree_from_seed(seed: u64, depth: usize) -> Json {
    let z = mix(seed);
    let pick = if depth == 0 { z % 6 } else { z % 8 };
    match pick {
        0 => Json::Null,
        1 => Json::Bool(z & 1 == 0),
        2 => Json::Int(z as i64),
        3 => {
            // A finite float with a wide dynamic range (mantissa / 2^k).
            let mantissa = (mix(z) >> 11) as i64 - (1 << 52);
            let scale = (z % 64) as i32 - 32;
            Json::Float((mantissa as f64) * 2f64.powi(scale))
        }
        4 => Json::Str(string_from_seed(z)),
        5 => Json::Str(String::new()),
        6 => Json::Array(
            (0..(z % 4))
                .map(|i| tree_from_seed(mix(z ^ i), depth - 1))
                .collect(),
        ),
        _ => Json::Object(
            (0..(z % 4))
                .map(|i| {
                    (
                        string_from_seed(mix(z ^ (i << 8))),
                        tree_from_seed(mix(z ^ i ^ 0xff), depth - 1),
                    )
                })
                .collect(),
        ),
    }
}

/// Strings exercising the full escape surface: control chars, quotes,
/// backslashes, multi-byte UTF-8 and astral-plane scalars.
fn string_from_seed(z: u64) -> String {
    const ALPHABET: &[char] = &[
        'a',
        'Z',
        '0',
        ' ',
        '"',
        '\\',
        '/',
        '\n',
        '\r',
        '\t',
        '\u{1}',
        '\u{8}',
        '\u{c}',
        '\u{1f}',
        'é',
        'λ',
        '\u{2028}',
        '\u{1f600}',
        '中',
        '\u{7f}',
    ];
    let mut s = String::new();
    let mut state = z;
    for _ in 0..(z % 12) {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        s.push(ALPHABET[(state >> 33) as usize % ALPHABET.len()]);
    }
    s
}

/// A tree built to stress the canonical render: object keys come from a
/// small pool, so duplicate keys are common and `"id"` turns up at every
/// depth; strings carry escapes and control characters; floats include
/// `-0.0` and the non-finite values, which render as `null`.
fn keyed_tree_from_seed(seed: u64, depth: usize) -> Json {
    const FLOATS: &[f64] = &[
        -0.0,
        0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e-9,
        -2.5,
    ];
    let z = mix(seed);
    let pick = if depth == 0 { z % 4 } else { z % 6 };
    match pick {
        0 => Json::Float(FLOATS[(z >> 8) as usize % FLOATS.len()]),
        1 => Json::Int(z as i64 >> 40),
        2 => Json::Str(string_from_seed(z)),
        3 => Json::Null,
        4 => Json::Array(
            (0..(z % 4))
                .map(|i| keyed_tree_from_seed(mix(z ^ i), depth - 1))
                .collect(),
        ),
        _ => keyed_object_from_seed(z, depth, 7),
    }
}

/// An object of fewer than `max_members` members whose keys come from a
/// pool of ten.
fn keyed_object_from_seed(z: u64, depth: usize, max_members: u64) -> Json {
    const KEYS: &[&str] = &["id", "a", "b", "ab", "B", "q\"", "t\t", "\u{1}", "é", ""];
    Json::Object(
        (0..(z % max_members))
            .map(|i| {
                let key = KEYS[mix(z ^ (i << 8)) as usize % KEYS.len()];
                (
                    key.to_string(),
                    keyed_tree_from_seed(mix(z ^ i ^ 0xff), depth.saturating_sub(1)),
                )
            })
            .collect(),
    )
}

/// The reference the one-pass render must match: the tree without its
/// top-level `"id"` members, canonicalized, then rendered.
fn reference_key(v: &Json) -> String {
    let stripped = match v {
        Json::Object(pairs) => {
            Json::Object(pairs.iter().filter(|(k, _)| k != "id").cloned().collect())
        }
        other => other.clone(),
    };
    stripped.canonicalize().render()
}

proptest! {
    #[test]
    fn one_pass_canonical_render_matches_the_reference(seed in 0u64..u64::MAX) {
        // Objects past 20 members leave the sort's small-slice path, where
        // an unstable sort would still happen to keep duplicates in order.
        for v in [keyed_object_from_seed(mix(seed), 3, 40), keyed_tree_from_seed(seed, 3)] {
            prop_assert_eq!(v.render_canonical(Some("id")), reference_key(&v));
            prop_assert_eq!(v.render_canonical(None), v.canonicalize().render());
        }
    }

    #[test]
    fn parse_inverts_render(seed in 0u64..u64::MAX) {
        let v = tree_from_seed(seed, 3);
        let compact = v.render();
        prop_assert_eq!(Json::parse(&compact).unwrap(), v.clone());
        // Pretty rendering parses back to the same tree too.
        prop_assert_eq!(Json::parse(&v.render_pretty(2)).unwrap(), v);
    }

    #[test]
    fn render_parse_render_is_a_fixpoint(seed in 0u64..u64::MAX) {
        // Byte-level idempotence: render(parse(render(v))) == render(v),
        // the property the content-addressed cache keys rely on.
        let v = tree_from_seed(seed, 3);
        let first = v.render();
        let reparsed = Json::parse(&first).unwrap();
        prop_assert_eq!(reparsed.render(), first);
    }

    #[test]
    fn canonicalize_is_stable_under_round_trip(seed in 0u64..u64::MAX) {
        let v = tree_from_seed(seed, 3);
        let canon = v.canonicalize();
        let round = Json::parse(&canon.render()).unwrap();
        prop_assert_eq!(round.canonicalize().render(), canon.render());
    }

    #[test]
    fn escape_corpus_strings_round_trip(seed in 0u64..u64::MAX) {
        let s = string_from_seed(seed);
        let v = Json::Str(s);
        prop_assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }
}

#[test]
fn renderer_unit_corpus_round_trips() {
    // The exact documents the renderer's unit tests pin, read back.
    for (text, expect) in [
        (
            r#"{"a":1,"b":[0.5,null],"c":"x\"y"}"#,
            Json::obj([
                ("a", Json::Int(1)),
                ("b", Json::Array(vec![Json::Float(0.5), Json::Null])),
                ("c", Json::from("x\"y")),
            ]),
        ),
        (r#""a\u0001b\tc""#, Json::from("a\u{1}b\tc")),
        (
            r#"{"z":1,"a":2}"#,
            Json::obj([("z", Json::Int(1)), ("a", Json::Int(2))]),
        ),
    ] {
        let parsed = Json::parse(text).unwrap();
        assert_eq!(parsed, expect);
        assert_eq!(parsed.render(), text);
    }
}

#[test]
fn one_pass_canonical_render_matches_the_reference_on_every_golden_fixture() {
    fn visit(dir: &Path, seen: &mut usize) {
        let mut entries: Vec<_> = std::fs::read_dir(dir)
            .expect("golden directory is readable")
            .map(|e| e.expect("directory entry").path())
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                visit(&path, seen);
            } else if path.extension().is_some_and(|x| x == "json") {
                let text = std::fs::read_to_string(&path).expect("fixture is readable");
                let v = Json::parse(&text).expect("fixture is JSON");
                assert_eq!(
                    v.render_canonical(Some("id")),
                    reference_key(&v),
                    "{}",
                    path.display()
                );
                assert_eq!(
                    v.render_canonical(None),
                    v.canonicalize().render(),
                    "{}",
                    path.display()
                );
                *seen += 1;
            }
        }
    }
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let mut seen = 0;
    visit(&golden, &mut seen);
    assert!(seen >= 16, "only {seen} JSON fixtures under tests/golden");
}
