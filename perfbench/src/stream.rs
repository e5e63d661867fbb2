//! Seeded request streams for the two serve workloads.
//!
//! Every request line is a pure function of `(seed, u)`, where `u` is a
//! request number that no other request of the run shares. Each line
//! carries a value perturbation drawn from a Weyl sequence in `u`, so two
//! different numbers can never produce the same canonical key. Lines are
//! built one at a time while the client runs: nothing holds the whole
//! stream in memory.
//!
//! Both workloads draw from one fixed list of request classes, [`ROUND`].
//! The client sends whole rounds, each a seeded permutation of that list,
//! so every stretch of traffic repeats the same mix.

use lcosc_campaign::{job_seed, Json};
use lcosc_circuit::workloads::coupled_tank_network_scaled;
use lcosc_circuit::{netlist_to_json, Netlist, Waveform};

/// One fixed circuit structure or campaign kind; the seed perturbs its
/// values, never its shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `.sp` RC ladder of the given number of stages (dense, linear).
    SpLadder(usize),
    /// `.sp` LC tank clamped by anti-parallel diodes (dense, Newton).
    SpDiodeTank,
    /// `.sp` PULSE-driven switch charging an LC tank (dense, linear).
    SpPulseSwitch,
    /// JSON deck: 8 coupled sensor tanks (dense).
    Tanks8,
    /// JSON deck: 48 coupled sensor tanks (sparse).
    Tanks48,
    /// JSON deck: 128 coupled sensor tanks (sparse).
    Tanks128,
    /// JSON deck: 400-stage RC ladder (sparse).
    Ladder400,
    /// JSON deck: 1000-stage RC ladder (sparse).
    Ladder1000,
    /// DAC yield campaign over 16 to 64 dies with a fresh seed.
    Yield,
}

/// One round of traffic. Small decks dominate the count, so the median
/// latency shows per-request serve overhead; the large sparse decks and
/// the yield campaigns dominate the time, so throughput shows the solvers.
/// Every shape is fixed here, never drawn from the seed, so the hot set
/// holds the same bodies, up to their values, whatever the seed.
pub const ROUND: [Class; 24] = [
    Class::SpLadder(8),
    Class::SpLadder(12),
    Class::SpLadder(16),
    Class::SpLadder(20),
    Class::SpLadder(24),
    Class::SpLadder(32),
    Class::SpDiodeTank,
    Class::SpDiodeTank,
    Class::SpDiodeTank,
    Class::SpPulseSwitch,
    Class::SpPulseSwitch,
    Class::SpPulseSwitch,
    Class::Tanks8,
    Class::Tanks8,
    Class::Tanks8,
    Class::Tanks8,
    Class::Tanks48,
    Class::Tanks48,
    Class::Tanks128,
    Class::Ladder400,
    Class::Ladder1000,
    Class::Yield,
    Class::Yield,
    Class::Yield,
];

/// Distinct requests that fill the server cache during `serve_cold`
/// set-up; equal to `ServeConfig::default().cache_entries`, so every
/// measured insert evicts.
pub const WARMUP: u64 = 256;

/// Rounds of [`ROUND`] in the hot set, which also holds one `prove`
/// request per preset.
pub const HOT_ROUNDS: usize = 4;

/// Request numbers at and above this value belong to the hot set, far
/// from any number the cold stream reaches in one run and below the
/// `2^24` limit of [`scale`].
const HOT_BASE: u64 = 1 << 22;

/// Separates the independent draws made from one seed.
#[derive(Clone, Copy)]
enum Draw {
    Offset = 1,
    Choice = 2,
    Order = 3,
}

fn draw(seed: u64, kind: Draw, index: u64) -> u64 {
    job_seed(job_seed(seed, kind as u64), index)
}

/// Uniform in `[0, 1)` from the top 53 bits.
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// The value perturbation of request `u`: `0.9 + 0.2·frac(φ⁻¹·u + c)`
/// with a seeded offset `c`. For `u < 2^24` any two fractions differ by
/// more than `1e-8`, so distinct numbers give distinct element values.
pub fn scale(seed: u64, u: u64) -> f64 {
    const INV_PHI: f64 = 0.618_033_988_749_894_9;
    let offset = unit(draw(seed, Draw::Offset, 0));
    let frac = (offset + (u as f64) * INV_PHI).fract();
    0.9 + 0.2 * frac
}

/// Seeded permutation of `0..n` (Fisher-Yates).
pub fn permutation(n: usize, key: u64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (job_seed(key, i as u64) % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

/// The class at position `k` of a stream: whole rounds, each a seeded
/// permutation of [`ROUND`]. `stream` keeps the cold, the warm-up and the
/// hot orders independent.
fn class_at(seed: u64, stream: u64, k: u64) -> Class {
    let len = ROUND.len() as u64;
    let key = draw(seed, Draw::Order, (stream << 56) | (k / len));
    ROUND[permutation(ROUND.len(), key)[(k % len) as usize]]
}

/// The `k`-th measured `serve_cold` request line. Its request number,
/// also its `"id"`, follows the warm-up numbers.
pub fn cold_line(seed: u64, k: u64) -> String {
    let u = WARMUP + k;
    line(seed, class_at(seed, 0, k), u, u)
}

/// Warm-up request `u` (`0..WARMUP`); rounds make it cover every deck
/// structure, so each sparse structure's symbolic analysis is cached
/// before measuring starts.
pub fn warmup_line(seed: u64, u: u64) -> String {
    line(seed, class_at(seed, 1, u), u, u)
}

/// The hot set: [`HOT_ROUNDS`] rounds of distinct requests plus `prove`
/// for every preset. Entry `j` carries `"id": j`, so a replayed reply
/// must equal the set-up reply byte for byte.
pub fn hot_set(seed: u64) -> Vec<String> {
    let mut set = Vec::new();
    for j in 0..(HOT_ROUNDS * ROUND.len()) as u64 {
        set.push(line(seed, class_at(seed, 2, j), HOT_BASE + j, j));
    }
    for preset in ["fast_test", "datasheet_3mhz", "low_q"] {
        let req = Json::obj([
            ("id", Json::from(set.len())),
            ("kind", Json::from("prove")),
            ("preset", Json::from(preset)),
        ]);
        set.push(req.render());
    }
    set
}

/// The order in which the hot set is replayed during round `round`.
pub fn hot_order(seed: u64, round: u64, len: usize) -> Vec<usize> {
    permutation(len, draw(seed, Draw::Order, (3 << 56) | round))
}

/// Renders request `u` of `class` with the given `"id"`.
pub fn line(seed: u64, class: Class, u: u64, id: u64) -> String {
    let s = scale(seed, u);
    let choice = draw(seed, Draw::Choice, u);
    let id = Json::Int(id as i64);
    let transient = |deck: Netlist, dt: f64, t_end: f64, stride: i64| {
        Json::obj([
            ("id", id.clone()),
            ("kind", Json::from("transient")),
            ("deck", netlist_to_json(&deck)),
            ("dt", Json::Float(dt)),
            ("t_end", Json::Float(t_end)),
            ("record_stride", Json::Int(stride)),
        ])
    };
    let spice = |text: String, stride: i64| {
        Json::obj([
            ("id", id.clone()),
            ("kind", Json::from("transient")),
            ("spice", Json::Str(text)),
            ("record_stride", Json::Int(stride)),
        ])
    };
    let req = match class {
        Class::SpLadder(stages) => spice(sp_ladder(stages, s), 100),
        Class::SpDiodeTank => spice(sp_diode_tank(s), 50),
        Class::SpPulseSwitch => spice(sp_pulse_switch(s), 100),
        Class::Tanks8 => transient(coupled_tank_network_scaled(8, s), 20e-9, 20e-6, 100),
        Class::Tanks48 => transient(coupled_tank_network_scaled(48, s), 20e-9, 10e-6, 100),
        Class::Tanks128 => transient(coupled_tank_network_scaled(128, s), 20e-9, 10e-6, 100),
        Class::Ladder400 => transient(rc_ladder(400, s), 10e-9, 2e-6, 50),
        Class::Ladder1000 => transient(rc_ladder(1000, s), 10e-9, 2e-6, 50),
        Class::Yield => Json::obj([
            ("id", id.clone()),
            ("kind", Json::from("campaign")),
            ("campaign", Json::from("yield")),
            ("dies", Json::Int(16 + (choice % 49) as i64)),
            ("seed", Json::Int((choice >> 1) as i64)),
            ("window", Json::Float(0.1 * s)),
        ]),
    };
    req.render()
}

/// RC ladder driven by a 1 MHz sine, every value scaled by `s`.
fn rc_ladder(sections: usize, s: f64) -> Netlist {
    let mut nl = Netlist::new();
    let vin = nl.node("vin");
    nl.voltage_source(
        vin,
        Netlist::GROUND,
        Waveform::Sine {
            offset: 0.0,
            amplitude: 1.0,
            frequency: 1e6,
            phase: 0.0,
        },
    );
    let mut prev = vin;
    for k in 0..sections {
        let n = nl.node(&format!("n{k}"));
        nl.resistor(prev, n, 100.0 * s);
        nl.capacitor(n, Netlist::GROUND, 100e-12 * s);
        prev = n;
    }
    nl
}

fn sp_ladder(stages: usize, s: f64) -> String {
    let mut text = format!("* rc ladder, {stages} stages\nV1 in 0 dc 3.3\n");
    let mut prev = "in".to_string();
    for k in 1..=stages {
        let node = format!("n{k}");
        text.push_str(&format!("R{k} {prev} {node} {:e}\n", 4.7e3 * s));
        text.push_str(&format!("C{k} {node} 0 {:e}\n", 100e-9 * s));
        prev = node;
    }
    text.push_str(".tran 1u 2m\n.end\n");
    text
}

fn sp_diode_tank(s: f64) -> String {
    format!(
        "* anti-parallel diode clamp across the tank\n\
         .model clamp d is=5e-15 n=1.05\n\
         L1 tank 0 {:e} ic=1m\n\
         C1 tank 0 {:e}\n\
         D1 tank 0 clamp\n\
         D2 0 tank clamp\n\
         R1 tank 0 {:e}\n\
         .tran 1e-7 1e-4 uic\n\
         .end\n",
        10e-6 * s,
        2.2e-9 / s,
        2.2e3 * s
    )
}

fn sp_pulse_switch(s: f64) -> String {
    format!(
        "* PULSE-driven gate charging a tank through a switch\n\
         V1 drive 0 pulse(0 3.3 1u 10n 10n 4u 10u)\n\
         S1 drive tank on ron={:e} roff=1e9\n\
         L1 tank 0 {:e}\n\
         C1 tank 0 {:e}\n\
         R1 tank 0 10k\n\
         .tran 1e-8 2e-5 uic\n\
         .end\n",
        2.0 * s,
        10e-6 * s,
        2.2e-9 * s
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{front, Layers};
    use crate::reference;
    use lcosc_serve::ServeConfig;
    use std::collections::HashSet;

    /// The canonical cache key the server forms for a valid request line.
    fn key(line: &str) -> String {
        front(line, &mut Layers::default())
            .expect("generated line is a valid request")
            .key
    }

    #[test]
    fn streams_are_deterministic_for_a_seed() {
        for k in [0, 7, 23, 24, 500] {
            assert_eq!(cold_line(5, k), cold_line(5, k));
            assert_ne!(cold_line(5, k), cold_line(6, k));
        }
        assert_eq!(warmup_line(5, 17), warmup_line(5, 17));
        assert_eq!(hot_set(5), hot_set(5));
        assert_eq!(hot_order(5, 3, 99), hot_order(5, 3, 99));
        assert_ne!(hot_order(5, 3, 99), hot_order(5, 4, 99));
    }

    #[test]
    fn every_round_sends_the_whole_mix() {
        let names = |classes: &mut dyn Iterator<Item = Class>| {
            let mut v: Vec<String> = classes.map(|c| format!("{c:?}")).collect();
            v.sort();
            v
        };
        let want = names(&mut ROUND.into_iter());
        for stream in 0..3 {
            assert_eq!(names(&mut (48..72).map(|k| class_at(3, stream, k))), want);
        }
    }

    #[test]
    fn cold_keys_are_pairwise_distinct_and_disjoint_from_set_up() {
        let mut keys = HashSet::new();
        for r in reference::requests() {
            assert!(keys.insert(key(&r.line)), "{} repeats a key", r.line);
        }
        for u in 0..WARMUP {
            assert!(
                keys.insert(key(&warmup_line(11, u))),
                "warm-up {u} repeats a key"
            );
        }
        for k in 0..12 * ROUND.len() as u64 {
            assert!(
                keys.insert(key(&cold_line(11, k))),
                "request {k} repeats a key"
            );
        }
    }

    #[test]
    fn hot_set_is_distinct_and_fits_the_cache_with_the_references() {
        let set = hot_set(11);
        let keys: HashSet<String> = set.iter().map(|line| key(line)).collect();
        assert_eq!(keys.len(), set.len());
        let references: HashSet<String> =
            reference::requests().iter().map(|r| key(&r.line)).collect();
        assert!(keys.union(&references).count() <= ServeConfig::default().cache_entries);
        let mut order = hot_order(11, 0, set.len());
        order.sort_unstable();
        assert_eq!(order, (0..set.len()).collect::<Vec<_>>());
    }

    #[test]
    fn warmup_covers_every_class() {
        for class in ROUND {
            assert!(
                (0..WARMUP).any(|u| class_at(11, 1, u) == class),
                "{class:?}"
            );
        }
    }
}
