//! Netlist construction: nodes, elements and source waveforms.

use lcosc_device::diode::DiodeModel;
use lcosc_device::mos::MosModel;

/// A circuit node. [`Netlist::GROUND`] is the reference node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Raw index (0 is ground).
    pub fn index(self) -> usize {
        self.0
    }

    /// Whether this is the ground/reference node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_ground() {
            write!(f, "gnd")
        } else {
            write!(f, "n{}", self.0)
        }
    }
}

/// Handle to an element added to a [`Netlist`], used to query branch
/// currents from solutions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ElementId(pub(crate) usize);

impl ElementId {
    /// Raw element index in insertion order.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Independent-source waveform.
#[derive(Debug, Clone, PartialEq)]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// `offset + amplitude · sin(2π f t + phase)`.
    Sine {
        /// DC offset.
        offset: f64,
        /// Peak amplitude.
        amplitude: f64,
        /// Frequency in hertz.
        frequency: f64,
        /// Phase in radians.
        phase: f64,
    },
    /// Single step from `v0` to `v1` at `t_step` with linear `t_rise`.
    Step {
        /// Initial value.
        v0: f64,
        /// Final value.
        v1: f64,
        /// Step start time in seconds.
        t_step: f64,
        /// Rise time in seconds.
        t_rise: f64,
    },
    /// Piece-wise-linear `(time, value)` points; clamped outside the range.
    Pwl(Vec<(f64, f64)>),
    /// Standard SPICE `PULSE(V1 V2 TD TR TF PW PER)` train: `v1` until
    /// `td`, linear rise to `v2` over `tr`, flat for `pw`, linear fall
    /// back over `tf`, then `v1` until the period `per` repeats the
    /// cycle. `per = 0` means a single, non-repeating pulse.
    Pulse {
        /// Initial (and between-pulse) value.
        v1: f64,
        /// Pulsed value.
        v2: f64,
        /// Delay before the first rise, in seconds.
        td: f64,
        /// Rise time in seconds.
        tr: f64,
        /// Fall time in seconds.
        tf: f64,
        /// Pulse width (time at `v2`) in seconds.
        pw: f64,
        /// Period in seconds (0 = no repetition).
        per: f64,
    },
}

/// A structurally invalid [`Waveform`], reported by [`Waveform::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum WaveformError {
    /// A parameter is NaN or infinite.
    NonFinite {
        /// Which parameter.
        what: &'static str,
    },
    /// PWL point times decrease at `points[index]`; `eval` requires
    /// monotonically non-decreasing times (equal adjacent times encode a
    /// step discontinuity and are allowed).
    PwlUnsorted {
        /// Index of the first out-of-order point.
        index: usize,
    },
    /// A duration parameter (rise/fall/width/period/delay) is negative.
    NegativeTiming {
        /// Which parameter.
        what: &'static str,
    },
}

impl std::fmt::Display for WaveformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaveformError::NonFinite { what } => {
                write!(f, "waveform parameter {what} is not finite")
            }
            WaveformError::PwlUnsorted { index } => write!(
                f,
                "pwl times must be non-decreasing (point {index} goes backwards)"
            ),
            WaveformError::NegativeTiming { what } => {
                write!(f, "waveform timing parameter {what} is negative")
            }
        }
    }
}

impl std::error::Error for WaveformError {}

impl Waveform {
    /// Evaluates the waveform at time `t`.
    pub fn eval(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Sine {
                offset,
                amplitude,
                frequency,
                phase,
            } => offset + amplitude * (2.0 * std::f64::consts::PI * frequency * t + phase).sin(),
            Waveform::Step {
                v0,
                v1,
                t_step,
                t_rise,
            } => {
                if t <= *t_step {
                    *v0
                } else if *t_rise > 0.0 && t < t_step + t_rise {
                    v0 + (v1 - v0) * (t - t_step) / t_rise
                } else {
                    *v1
                }
            }
            Waveform::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                if t >= points[points.len() - 1].0 {
                    return points[points.len() - 1].1;
                }
                let idx = points.partition_point(|p| p.0 <= t);
                let (t0, v0) = points[idx - 1];
                let (t1, v1) = points[idx];
                v0 + (v1 - v0) * (t - t0) / (t1 - t0)
            }
            Waveform::Pulse {
                v1,
                v2,
                td,
                tr,
                tf,
                pw,
                per,
            } => {
                if t < *td {
                    return *v1;
                }
                let tau = if *per > 0.0 { (t - td) % per } else { t - td };
                if tau < *tr {
                    v1 + (v2 - v1) * tau / tr
                } else if tau < tr + pw {
                    *v2
                } else if tau < tr + pw + tf {
                    v2 + (v1 - v2) * (tau - tr - pw) / tf
                } else {
                    *v1
                }
            }
        }
    }

    /// Value used for DC operating-point analysis (the t = 0 value).
    pub fn dc_value(&self) -> f64 {
        self.eval(0.0)
    }

    /// Checks the waveform's structural invariants: every parameter
    /// finite, PWL times monotonically non-decreasing (equal adjacent
    /// times are a step discontinuity and are legal), pulse/step timing
    /// parameters non-negative. [`Waveform::eval`] assumes these hold;
    /// the deck and SPICE parsers reject violations with this typed
    /// error before a waveform can reach the solver.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`WaveformError`].
    pub fn validate(&self) -> Result<(), WaveformError> {
        let finite = |v: f64, what: &'static str| {
            if v.is_finite() {
                Ok(())
            } else {
                Err(WaveformError::NonFinite { what })
            }
        };
        let duration = |v: f64, what: &'static str| {
            finite(v, what)?;
            if v < 0.0 {
                Err(WaveformError::NegativeTiming { what })
            } else {
                Ok(())
            }
        };
        match self {
            Waveform::Dc(v) => finite(*v, "value"),
            Waveform::Sine {
                offset,
                amplitude,
                frequency,
                phase,
            } => {
                finite(*offset, "offset")?;
                finite(*amplitude, "amplitude")?;
                finite(*frequency, "frequency")?;
                finite(*phase, "phase")
            }
            Waveform::Step {
                v0,
                v1,
                t_step,
                t_rise,
            } => {
                finite(*v0, "v0")?;
                finite(*v1, "v1")?;
                finite(*t_step, "t_step")?;
                duration(*t_rise, "t_rise")
            }
            Waveform::Pwl(points) => {
                for (i, (t, v)) in points.iter().enumerate() {
                    finite(*t, "pwl time")?;
                    finite(*v, "pwl value")?;
                    if i > 0 && *t < points[i - 1].0 {
                        return Err(WaveformError::PwlUnsorted { index: i });
                    }
                }
                Ok(())
            }
            Waveform::Pulse {
                v1,
                v2,
                td,
                tr,
                tf,
                pw,
                per,
            } => {
                finite(*v1, "v1")?;
                finite(*v2, "v2")?;
                duration(*td, "td")?;
                duration(*tr, "tr")?;
                duration(*tf, "tf")?;
                duration(*pw, "pw")?;
                duration(*per, "per")
            }
        }
    }
}

/// One netlist element.
#[derive(Debug, Clone, PartialEq)]
pub enum Element {
    /// Linear resistor between `a` and `b`.
    Resistor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance in ohms.
        ohms: f64,
    },
    /// Linear capacitor between `a` and `b`.
    Capacitor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance in farads.
        farads: f64,
        /// Initial voltage `v(a) − v(b)` at t = 0.
        v0: f64,
    },
    /// Linear inductor between `a` and `b` (adds a branch-current unknown).
    Inductor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Inductance in henries.
        henries: f64,
        /// Initial current from `a` to `b` at t = 0.
        i0: f64,
    },
    /// Independent voltage source from `p` (+) to `n` (−); adds a
    /// branch-current unknown (current flows from `p` through the source to
    /// `n`, i.e. a positive branch current means the source *sinks* current
    /// at its positive terminal).
    VoltageSource {
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// Source value over time.
        wave: Waveform,
    },
    /// Independent current source injecting its value *into* `p` and out of
    /// `n`.
    CurrentSource {
        /// Terminal receiving the current.
        p: NodeId,
        /// Terminal sourcing the current.
        n: NodeId,
        /// Source value over time.
        wave: Waveform,
    },
    /// Voltage-controlled current source:
    /// `i(out_p → out_n) = gm · (v(in_p) − v(in_n))`.
    Vccs {
        /// Output current leaves this terminal.
        out_p: NodeId,
        /// Output current enters this terminal.
        out_n: NodeId,
        /// Positive sense input.
        in_p: NodeId,
        /// Negative sense input.
        in_n: NodeId,
        /// Transconductance in siemens.
        gm: f64,
    },
    /// Junction diode from `anode` to `cathode`.
    Diode {
        /// Anode.
        anode: NodeId,
        /// Cathode.
        cathode: NodeId,
        /// Device model.
        model: DiodeModel,
    },
    /// Four-terminal MOSFET (drain, gate, source, bulk). Body diodes are
    /// *not* implicit; add [`Element::Diode`]s explicitly where the topology
    /// has them.
    Mosfet {
        /// Drain.
        d: NodeId,
        /// Gate.
        g: NodeId,
        /// Source.
        s: NodeId,
        /// Bulk (model voltages are referenced to this terminal).
        b: NodeId,
        /// Device model.
        model: MosModel,
    },
    /// Ideal switch: `r_on` when closed, `r_off` when open.
    Switch {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Whether the switch is conducting.
        closed: bool,
        /// On resistance in ohms.
        r_on: f64,
        /// Off resistance in ohms.
        r_off: f64,
    },
}

/// A circuit under construction.
///
/// Nodes are created with [`Netlist::node`]; elements with the dedicated
/// add methods, each returning an [`ElementId`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Netlist {
    node_names: Vec<String>,
    elements: Vec<Element>,
}

impl Netlist {
    /// The ground/reference node.
    pub const GROUND: NodeId = NodeId(0);

    /// Creates an empty netlist containing only the ground node.
    pub fn new() -> Self {
        Netlist {
            node_names: vec!["gnd".to_string()],
            elements: Vec::new(),
        }
    }

    /// Creates a named node and returns its id.
    pub fn node(&mut self, name: &str) -> NodeId {
        self.node_names.push(name.to_string());
        NodeId(self.node_names.len() - 1)
    }

    /// Number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Iterator over every node id including ground, in index order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_names.len()).map(NodeId)
    }

    /// Name of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to this netlist.
    pub fn node_name(&self, n: NodeId) -> &str {
        &self.node_names[n.0]
    }

    /// All elements in insertion order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Element behind an id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this netlist.
    pub fn element(&self, id: ElementId) -> &Element {
        &self.elements[id.0]
    }

    /// Mutable element access (e.g. toggling a [`Element::Switch`] or
    /// re-pointing a source between analyses).
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this netlist.
    pub fn element_mut(&mut self, id: ElementId) -> &mut Element {
        &mut self.elements[id.0]
    }

    fn check_node(&self, n: NodeId) {
        assert!(n.0 < self.node_names.len(), "node {n} not in this netlist");
    }

    fn push(&mut self, e: Element) -> ElementId {
        self.elements.push(e);
        ElementId(self.elements.len() - 1)
    }

    /// Adds a resistor.
    ///
    /// # Panics
    ///
    /// Panics if `ohms` is not positive or a node is foreign.
    pub fn resistor(&mut self, a: NodeId, b: NodeId, ohms: f64) -> ElementId {
        assert!(ohms > 0.0, "resistance must be positive");
        self.check_node(a);
        self.check_node(b);
        self.push(Element::Resistor { a, b, ohms })
    }

    /// Adds a capacitor with zero initial voltage.
    ///
    /// # Panics
    ///
    /// Panics if `farads` is not positive or a node is foreign.
    pub fn capacitor(&mut self, a: NodeId, b: NodeId, farads: f64) -> ElementId {
        self.capacitor_ic(a, b, farads, 0.0)
    }

    /// Adds a capacitor with an initial voltage `v0 = v(a) − v(b)`.
    ///
    /// # Panics
    ///
    /// Panics if `farads` is not positive or a node is foreign.
    pub fn capacitor_ic(&mut self, a: NodeId, b: NodeId, farads: f64, v0: f64) -> ElementId {
        assert!(farads > 0.0, "capacitance must be positive");
        self.check_node(a);
        self.check_node(b);
        self.push(Element::Capacitor { a, b, farads, v0 })
    }

    /// Adds an inductor with zero initial current.
    ///
    /// # Panics
    ///
    /// Panics if `henries` is not positive or a node is foreign.
    pub fn inductor(&mut self, a: NodeId, b: NodeId, henries: f64) -> ElementId {
        self.inductor_ic(a, b, henries, 0.0)
    }

    /// Adds an inductor with an initial current `i0` flowing `a → b`.
    ///
    /// # Panics
    ///
    /// Panics if `henries` is not positive or a node is foreign.
    pub fn inductor_ic(&mut self, a: NodeId, b: NodeId, henries: f64, i0: f64) -> ElementId {
        assert!(henries > 0.0, "inductance must be positive");
        self.check_node(a);
        self.check_node(b);
        self.push(Element::Inductor { a, b, henries, i0 })
    }

    /// Adds an independent voltage source.
    ///
    /// # Panics
    ///
    /// Panics if a node is foreign or the waveform fails
    /// [`Waveform::validate`] (e.g. unsorted PWL times).
    pub fn voltage_source(&mut self, p: NodeId, n: NodeId, wave: Waveform) -> ElementId {
        self.check_node(p);
        self.check_node(n);
        if let Err(e) = wave.validate() {
            panic!("invalid source waveform: {e}");
        }
        self.push(Element::VoltageSource { p, n, wave })
    }

    /// Adds an independent current source injecting into `p`.
    ///
    /// # Panics
    ///
    /// Panics if a node is foreign or the waveform fails
    /// [`Waveform::validate`] (e.g. unsorted PWL times).
    pub fn current_source(&mut self, p: NodeId, n: NodeId, wave: Waveform) -> ElementId {
        self.check_node(p);
        self.check_node(n);
        if let Err(e) = wave.validate() {
            panic!("invalid source waveform: {e}");
        }
        self.push(Element::CurrentSource { p, n, wave })
    }

    /// Adds a voltage-controlled current source.
    ///
    /// # Panics
    ///
    /// Panics if a node is foreign or `gm` is not finite.
    pub fn vccs(
        &mut self,
        out_p: NodeId,
        out_n: NodeId,
        in_p: NodeId,
        in_n: NodeId,
        gm: f64,
    ) -> ElementId {
        assert!(gm.is_finite(), "gm must be finite");
        for n in [out_p, out_n, in_p, in_n] {
            self.check_node(n);
        }
        self.push(Element::Vccs {
            out_p,
            out_n,
            in_p,
            in_n,
            gm,
        })
    }

    /// Adds a diode.
    ///
    /// # Panics
    ///
    /// Panics if a node is foreign.
    pub fn diode(&mut self, anode: NodeId, cathode: NodeId, model: DiodeModel) -> ElementId {
        self.check_node(anode);
        self.check_node(cathode);
        self.push(Element::Diode {
            anode,
            cathode,
            model,
        })
    }

    /// Adds a four-terminal MOSFET.
    ///
    /// # Panics
    ///
    /// Panics if a node is foreign.
    pub fn mosfet(
        &mut self,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        b: NodeId,
        model: MosModel,
    ) -> ElementId {
        for n in [d, g, s, b] {
            self.check_node(n);
        }
        self.push(Element::Mosfet { d, g, s, b, model })
    }

    /// Adds a switch (1 Ω on, 1 GΩ off by default).
    ///
    /// # Panics
    ///
    /// Panics if a node is foreign.
    pub fn switch(&mut self, a: NodeId, b: NodeId, closed: bool) -> ElementId {
        self.check_node(a);
        self.check_node(b);
        self.push(Element::Switch {
            a,
            b,
            closed,
            r_on: 1.0,
            r_off: 1e9,
        })
    }

    /// Adds an element without validating its component values (only node
    /// membership is checked).
    ///
    /// The dedicated builders reject non-positive resistances, capacitances
    /// and inductances at construction time. Deck loaders and static-analysis
    /// tests need to represent such malformed elements so that
    /// `lcosc-check` can diagnose them with a proper error code instead of a
    /// panic; this is the entry point for those paths.
    ///
    /// # Panics
    ///
    /// Panics if any terminal node does not belong to this netlist.
    pub fn push_element(&mut self, e: Element) -> ElementId {
        for n in element_terminals(&e) {
            self.check_node(n);
        }
        self.push(e)
    }

    /// Whether every element is linear — no diode and no MOSFET.
    ///
    /// Switches count as linear: their conductance depends on the stored
    /// state, not on the solution, so at a fixed netlist the stamped system
    /// is linear in the unknowns. A linear deck's transient Jacobian is
    /// constant at fixed `dt`, which is what lets the transient solver
    /// factor the MNA matrix once and reuse it for every time step.
    pub fn is_linear(&self) -> bool {
        !self
            .elements
            .iter()
            .any(|e| matches!(e, Element::Diode { .. } | Element::Mosfet { .. }))
    }

    /// Number of extra branch-current unknowns (voltage sources and
    /// inductors), in element order.
    pub(crate) fn branch_count(&self) -> usize {
        self.elements
            .iter()
            .filter(|e| matches!(e, Element::VoltageSource { .. } | Element::Inductor { .. }))
            .count()
    }

    /// Maps each element to its branch-unknown index (if it has one).
    pub(crate) fn branch_indices(&self) -> Vec<Option<usize>> {
        let mut next = 0usize;
        self.elements
            .iter()
            .map(|e| {
                if matches!(e, Element::VoltageSource { .. } | Element::Inductor { .. }) {
                    let idx = next;
                    next += 1;
                    Some(idx)
                } else {
                    None
                }
            })
            .collect()
    }

    /// Total number of MNA unknowns: non-ground nodes plus branch currents.
    pub fn unknown_count(&self) -> usize {
        (self.node_count() - 1) + self.branch_count()
    }

    /// A 64-bit digest of the netlist *structure*: the node count plus each
    /// element's kind and terminal wiring, in element order.
    ///
    /// Element **values** (resistance, capacitance, waveform parameters,
    /// initial conditions, switch state, ...) are deliberately excluded:
    /// two decks with equal digests stamp the same MNA sparsity pattern in
    /// the same element order, so they can share one sparse symbolic
    /// analysis — the transient engine's symbolic cache is keyed by this
    /// digest. FNV-1a over the structural bytes, finished with a
    /// SplitMix64-style avalanche so near-identical decks spread across
    /// the digest space.
    pub fn structural_digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        fn eat(h: &mut u64, byte: u8) {
            *h ^= u64::from(byte);
            *h = h.wrapping_mul(FNV_PRIME);
        }
        fn eat_u64(h: &mut u64, v: u64) {
            for byte in v.to_le_bytes() {
                eat(h, byte);
            }
        }
        let mut h = FNV_OFFSET;
        eat_u64(&mut h, self.node_count() as u64);
        for e in &self.elements {
            let kind: u8 = match e {
                Element::Resistor { .. } => 1,
                Element::Capacitor { .. } => 2,
                Element::Inductor { .. } => 3,
                Element::Switch { .. } => 4,
                Element::VoltageSource { .. } => 5,
                Element::CurrentSource { .. } => 6,
                Element::Vccs { .. } => 7,
                Element::Diode { .. } => 8,
                Element::Mosfet { .. } => 9,
            };
            eat(&mut h, kind);
            for node in element_terminals(e) {
                eat_u64(&mut h, node.index() as u64);
            }
        }
        // SplitMix64 finalizer (same mixing constants the campaign seed
        // schedule uses; reimplemented locally so `circuit` stays free of a
        // `campaign` dependency).
        let mut z = h;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Terminal nodes of an element, in declaration order.
///
/// MOSFETs list drain, gate, source, bulk; VCCS lists the output pair then
/// the sense pair. Used by connectivity rules (and [`Netlist::push_element`])
/// that must treat every attachment point uniformly.
pub fn element_terminals(e: &Element) -> Vec<NodeId> {
    match e {
        Element::Resistor { a, b, .. }
        | Element::Capacitor { a, b, .. }
        | Element::Inductor { a, b, .. }
        | Element::Switch { a, b, .. } => vec![*a, *b],
        Element::VoltageSource { p, n, .. } | Element::CurrentSource { p, n, .. } => vec![*p, *n],
        Element::Vccs {
            out_p,
            out_n,
            in_p,
            in_n,
            ..
        } => vec![*out_p, *out_n, *in_p, *in_n],
        Element::Diode { anode, cathode, .. } => vec![*anode, *cathode],
        Element::Mosfet { d, g, s, b, .. } => vec![*d, *g, *s, *b],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_are_sequential_and_named() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        assert_eq!(a.index(), 1);
        assert_eq!(b.index(), 2);
        assert_eq!(nl.node_name(a), "a");
        assert!(Netlist::GROUND.is_ground());
        assert!(!a.is_ground());
        assert_eq!(nl.node_count(), 3);
    }

    #[test]
    fn node_display() {
        assert_eq!(Netlist::GROUND.to_string(), "gnd");
        assert_eq!(NodeId(3).to_string(), "n3");
    }

    #[test]
    fn waveform_dc() {
        assert_eq!(Waveform::Dc(2.5).eval(1.0), 2.5);
        assert_eq!(Waveform::Dc(2.5).dc_value(), 2.5);
    }

    #[test]
    fn waveform_sine() {
        let w = Waveform::Sine {
            offset: 1.0,
            amplitude: 2.0,
            frequency: 1.0,
            phase: 0.0,
        };
        assert!((w.eval(0.25) - 3.0).abs() < 1e-12);
        assert!((w.eval(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn waveform_step() {
        let w = Waveform::Step {
            v0: 0.0,
            v1: 3.3,
            t_step: 1e-6,
            t_rise: 1e-6,
        };
        assert_eq!(w.eval(0.0), 0.0);
        assert!((w.eval(1.5e-6) - 1.65).abs() < 1e-9);
        assert_eq!(w.eval(3e-6), 3.3);
    }

    #[test]
    fn waveform_pwl_clamps() {
        let w = Waveform::Pwl(vec![(0.0, 0.0), (1.0, 1.0)]);
        assert_eq!(w.eval(-1.0), 0.0);
        assert_eq!(w.eval(0.5), 0.5);
        assert_eq!(w.eval(2.0), 1.0);
        assert_eq!(Waveform::Pwl(vec![]).eval(0.0), 0.0);
    }

    #[test]
    fn waveform_pulse_boundaries() {
        let w = Waveform::Pulse {
            v1: 0.0,
            v2: 3.3,
            td: 1e-6,
            tr: 1e-7,
            tf: 2e-7,
            pw: 4e-7,
            per: 1e-6,
        };
        // Before the delay and exactly at it: initial value.
        assert_eq!(w.eval(0.0), 0.0);
        assert_eq!(w.eval(1e-6), 0.0);
        // Mid-rise, top, flat width, mid-fall, back down.
        assert!((w.eval(1.05e-6) - 1.65).abs() < 1e-9);
        assert_eq!(w.eval(1.3e-6), 3.3);
        assert_eq!(w.eval(1.4e-6), 3.3);
        assert!((w.eval(1.6e-6) - 1.65).abs() < 1e-9);
        assert_eq!(w.eval(1.8e-6), 0.0);
        // One period later the train repeats.
        assert!((w.eval(2.05e-6) - 1.65).abs() < 1e-7);
        assert_eq!(w.eval(2.3e-6), 3.3);
    }

    #[test]
    fn waveform_pulse_degenerate_edges_and_single_shot() {
        // Zero rise/fall: instant transitions, no division by zero.
        let w = Waveform::Pulse {
            v1: 1.0,
            v2: 2.0,
            td: 0.0,
            tr: 0.0,
            tf: 0.0,
            pw: 1.0,
            per: 0.0,
        };
        assert_eq!(w.eval(0.0), 2.0);
        assert_eq!(w.eval(0.5), 2.0);
        assert_eq!(w.eval(1.0), 1.0);
        // per = 0: never repeats.
        assert_eq!(w.eval(100.0), 1.0);
        assert_eq!(w.dc_value(), 2.0);
    }

    #[test]
    fn waveform_validate_accepts_the_good_and_rejects_the_bad() {
        assert_eq!(Waveform::Dc(1.0).validate(), Ok(()));
        assert_eq!(
            Waveform::Dc(f64::NAN).validate(),
            Err(WaveformError::NonFinite { what: "value" })
        );
        assert_eq!(
            Waveform::Pwl(vec![(0.0, 0.0), (1.0, 1.0), (1.0, 5.0)]).validate(),
            Ok(()),
            "duplicate times are a legal step discontinuity"
        );
        assert_eq!(
            Waveform::Pwl(vec![(0.0, 0.0), (2.0, 1.0), (1.0, 5.0)]).validate(),
            Err(WaveformError::PwlUnsorted { index: 2 })
        );
        assert_eq!(
            Waveform::Pulse {
                v1: 0.0,
                v2: 1.0,
                td: 0.0,
                tr: -1.0,
                tf: 0.0,
                pw: 1.0,
                per: 0.0,
            }
            .validate(),
            Err(WaveformError::NegativeTiming { what: "tr" })
        );
        let msg = WaveformError::PwlUnsorted { index: 2 }.to_string();
        assert!(msg.contains("non-decreasing"), "{msg}");
    }

    #[test]
    fn waveform_pwl_duplicate_time_is_a_step() {
        // Equal adjacent times encode a discontinuity: just before the
        // step the pre-value wins, at and after it the post-value wins.
        let w = Waveform::Pwl(vec![(0.0, 0.0), (1.0, 1.0), (1.0, 5.0), (2.0, 5.0)]);
        assert!((w.eval(0.999_999) - 0.999_999).abs() < 1e-9);
        assert_eq!(w.eval(1.0), 5.0);
        assert_eq!(w.eval(1.5), 5.0);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn unsorted_pwl_panics_at_netlist_build() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.voltage_source(
            a,
            Netlist::GROUND,
            Waveform::Pwl(vec![(1.0, 1.0), (0.0, 0.0)]),
        );
    }

    #[test]
    fn branch_indices_cover_sources_and_inductors() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.resistor(a, b, 1.0);
        nl.voltage_source(a, Netlist::GROUND, Waveform::Dc(1.0));
        nl.inductor(a, b, 1e-6);
        nl.capacitor(b, Netlist::GROUND, 1e-9);
        let idx = nl.branch_indices();
        assert_eq!(idx, vec![None, Some(0), Some(1), None]);
        assert_eq!(nl.branch_count(), 2);
        assert_eq!(nl.unknown_count(), 2 + 2);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn resistor_rejects_zero() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.resistor(a, Netlist::GROUND, 0.0);
    }

    #[test]
    #[should_panic(expected = "not in this netlist")]
    fn foreign_node_rejected() {
        let mut nl = Netlist::new();
        nl.resistor(NodeId(5), Netlist::GROUND, 1.0);
    }

    #[test]
    fn push_element_accepts_invalid_values() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let id = nl.push_element(Element::Resistor {
            a,
            b: Netlist::GROUND,
            ohms: -1.0,
        });
        assert!(matches!(nl.element(id), Element::Resistor { ohms, .. } if *ohms == -1.0));
    }

    #[test]
    #[should_panic(expected = "not in this netlist")]
    fn push_element_still_rejects_foreign_nodes() {
        let mut nl = Netlist::new();
        nl.push_element(Element::Resistor {
            a: NodeId(9),
            b: Netlist::GROUND,
            ohms: 1.0,
        });
    }

    #[test]
    fn element_terminals_cover_every_kind() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.resistor(a, b, 1.0);
        nl.capacitor(a, b, 1e-9);
        nl.inductor(a, b, 1e-6);
        nl.voltage_source(a, Netlist::GROUND, Waveform::Dc(1.0));
        nl.current_source(a, Netlist::GROUND, Waveform::Dc(1.0));
        nl.vccs(a, b, b, Netlist::GROUND, 1e-3);
        nl.switch(a, b, true);
        for e in nl.elements() {
            let t = element_terminals(e);
            assert!(t.len() == 2 || t.len() == 4, "{e:?} -> {t:?}");
        }
    }
}
