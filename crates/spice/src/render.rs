//! Rendering a [`Netlist`] back to `.sp` text.
//!
//! The renderer is the inverse of [`crate::parse_spice`]. Ground renders
//! as `0`. Every other node renders by its own name when each such name
//! reads back as itself: the names are distinct, each is a lowercase ASCII
//! letter followed by lowercase letters, digits and `_`, and none is `gnd`
//! (which the parser reads as ground). Otherwise every node renders by
//! index (`n3` for node 3). Elements render by kind letter plus element
//! index, so `render → parse → render` is a fixed point whenever the
//! original netlist wires nodes in first-reference order. Values render
//! with `{:e}` — Rust's shortest round-trip exponent form — so numeric
//! fidelity is bit-exact.

use lcosc_circuit::{Element, Netlist, NodeId, TransientOptions, Waveform};
use lcosc_device::mos::Polarity;
use std::collections::HashSet;
use std::fmt::Write as _;

/// Each node's text, indexed by node: the netlist's own names when every
/// non-ground name reads back as itself, `n<index>` otherwise.
fn node_labels(nl: &Netlist) -> Vec<String> {
    let readable = |name: &str| {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_lowercase())
            && chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
            && name != "gnd"
    };
    let mut seen = HashSet::new();
    let named = nl
        .nodes()
        .skip(1)
        .map(|n| nl.node_name(n))
        .all(|name| readable(name) && seen.insert(name));
    nl.nodes()
        .map(|n| match n.index() {
            0 => "0".to_string(),
            _ if named => nl.node_name(n).to_string(),
            i => format!("n{i}"),
        })
        .collect()
}

fn waveform(wave: &Waveform) -> String {
    match wave {
        Waveform::Dc(v) => format!("dc {v:e}"),
        Waveform::Sine {
            offset,
            amplitude,
            frequency,
            phase,
        } => {
            if *phase == 0.0 {
                format!("sin({offset:e} {amplitude:e} {frequency:e})")
            } else {
                format!(
                    "sin({offset:e} {amplitude:e} {frequency:e} 0 0 {:e})",
                    phase.to_degrees()
                )
            }
        }
        // The dialect has no STEP card; a step is its 3-point PWL
        // equivalent (clamped outside the range, exactly like eval()).
        Waveform::Step {
            v0,
            v1,
            t_step,
            t_rise,
        } => format!("pwl({t_step:e} {v0:e} {:e} {v1:e})", t_step + t_rise),
        Waveform::Pwl(points) => {
            let mut s = String::from("pwl(");
            for (i, (t, v)) in points.iter().enumerate() {
                if i > 0 {
                    s.push(' ');
                }
                let _ = write!(s, "{t:e} {v:e}");
            }
            s.push(')');
            s
        }
        Waveform::Pulse {
            v1,
            v2,
            td,
            tr,
            tf,
            pw,
            per,
        } => format!("pulse({v1:e} {v2:e} {td:e} {tr:e} {tf:e} {pw:e} {per:e})"),
    }
}

/// Renders a netlist (plus an optional `.tran` plan) as `.sp` text.
///
/// Non-default diode and MOS models are emitted as numbered `.model`
/// cards ahead of the element cards that reference them.
pub fn render_netlist(nl: &Netlist, title: &str, tran: Option<&TransientOptions>) -> String {
    let labels = node_labels(nl);
    let node = |n: NodeId| labels[n.index()].as_str();
    let mut out = String::new();
    let _ = writeln!(out, ".title {title}");
    // Model cards first, one per element that needs a non-builtin model.
    for (k, e) in nl.elements().iter().enumerate() {
        match e {
            Element::Diode { model, .. }
                if *model != lcosc_device::diode::DiodeModel::default() =>
            {
                let _ = writeln!(
                    out,
                    ".model dmod{k} d is={:e} n={:e} temp={:e}",
                    model.is, model.n, model.temp_k
                );
            }
            Element::Mosfet { model, .. }
                if *model != lcosc_device::mos::MosModel::nmos_035um()
                    && *model != lcosc_device::mos::MosModel::pmos_035um() =>
            {
                let kind = match model.polarity() {
                    Polarity::N => "nmos",
                    Polarity::P => "pmos",
                };
                let _ = writeln!(
                    out,
                    ".model mmod{k} {kind} kp={:e} vto={:e} n={:e} lambda={:e}",
                    model.kp(),
                    model.vth(),
                    model.slope_factor(),
                    model.lambda()
                );
            }
            _ => {}
        }
    }
    for (k, e) in nl.elements().iter().enumerate() {
        match e {
            Element::Resistor { a, b, ohms } => {
                let _ = writeln!(out, "r{k} {} {} {ohms:e}", node(*a), node(*b));
            }
            Element::Capacitor { a, b, farads, v0 } => {
                let _ = write!(out, "c{k} {} {} {farads:e}", node(*a), node(*b));
                if *v0 != 0.0 {
                    let _ = write!(out, " ic={v0:e}");
                }
                out.push('\n');
            }
            Element::Inductor { a, b, henries, i0 } => {
                let _ = write!(out, "l{k} {} {} {henries:e}", node(*a), node(*b));
                if *i0 != 0.0 {
                    let _ = write!(out, " ic={i0:e}");
                }
                out.push('\n');
            }
            Element::VoltageSource { p, n, wave } => {
                let _ = writeln!(out, "v{k} {} {} {}", node(*p), node(*n), waveform(wave));
            }
            Element::CurrentSource { p, n, wave } => {
                let _ = writeln!(out, "i{k} {} {} {}", node(*p), node(*n), waveform(wave));
            }
            Element::Vccs {
                out_p,
                out_n,
                in_p,
                in_n,
                gm,
            } => {
                let _ = writeln!(
                    out,
                    "g{k} {} {} {} {} {gm:e}",
                    node(*out_p),
                    node(*out_n),
                    node(*in_p),
                    node(*in_n)
                );
            }
            Element::Diode {
                anode,
                cathode,
                model,
            } => {
                let _ = write!(out, "d{k} {} {}", node(*anode), node(*cathode));
                if *model != lcosc_device::diode::DiodeModel::default() {
                    let _ = write!(out, " dmod{k}");
                }
                out.push('\n');
            }
            Element::Mosfet { d, g, s, b, model } => {
                let name = if *model == lcosc_device::mos::MosModel::nmos_035um() {
                    "nmos".to_string()
                } else if *model == lcosc_device::mos::MosModel::pmos_035um() {
                    "pmos".to_string()
                } else {
                    format!("mmod{k}")
                };
                let _ = writeln!(
                    out,
                    "m{k} {} {} {} {} {name}",
                    node(*d),
                    node(*g),
                    node(*s),
                    node(*b)
                );
            }
            Element::Switch {
                a,
                b,
                closed,
                r_on,
                r_off,
            } => {
                let state = if *closed { "on" } else { "off" };
                let _ = writeln!(
                    out,
                    "s{k} {} {} {state} ron={r_on:e} roff={r_off:e}",
                    node(*a),
                    node(*b)
                );
            }
        }
    }
    if let Some(opts) = tran {
        let _ = write!(out, ".tran {:e} {:e}", opts.dt, opts.t_end);
        if opts.use_initial_conditions {
            out.push_str(" uic");
        }
        out.push('\n');
    }
    out.push_str(".end\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_spice;

    /// A chain with nodes named `names`, wired in first-reference order.
    fn chain(names: &[&str]) -> Netlist {
        let mut nl = Netlist::new();
        let nodes: Vec<NodeId> = names.iter().map(|name| nl.node(name)).collect();
        nl.voltage_source(nodes[0], Netlist::GROUND, Waveform::Dc(1.0));
        for pair in nodes.windows(2) {
            nl.resistor(pair[0], pair[1], 1e3);
        }
        nl.capacitor(nodes[nodes.len() - 1], Netlist::GROUND, 1e-9);
        nl
    }

    #[test]
    fn named_nodes_render_by_name_and_round_trip() {
        let nl = chain(&["drv", "lc1", "tap_2"]);
        let sp = render_netlist(&nl, "named", None);
        for line in ["v0 drv 0 dc 1e0", "r1 drv lc1 1e3", "r2 lc1 tap_2 1e3"] {
            assert!(sp.lines().any(|l| l == line), "{line:?} missing:\n{sp}");
        }
        let deck = parse_spice(&sp).unwrap();
        assert_eq!(deck.netlist.elements(), nl.elements());
        let names = |nl: &Netlist| -> Vec<String> {
            nl.nodes()
                .skip(1)
                .map(|n| nl.node_name(n).to_string())
                .collect()
        };
        assert_eq!(names(&deck.netlist), names(&nl));
        assert_eq!(render_netlist(&deck.netlist, "named", None), sp);
    }

    #[test]
    fn unreadable_names_fall_back_to_indices() {
        for names in [["lc1", "lc1"], ["lc1", "Lc2"], ["gnd", "lc2"]] {
            let sp = render_netlist(&chain(&names), "fallback", None);
            assert!(sp.lines().any(|l| l == "r1 n1 n2 1e3"), "{names:?}:\n{sp}");
            assert!(!sp.contains("lc"), "{names:?}:\n{sp}");
        }
    }
}
