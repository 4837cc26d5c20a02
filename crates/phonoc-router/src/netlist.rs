//! Optical router netlists: directed waveguide segments, photonic
//! elements, and validated port-to-port traversals.
//!
//! A [`RouterModel`] describes the *internal* structure of an optical
//! router as a directed netlist:
//!
//! * **Segments** are directed stretches of waveguide between two
//!   elements (or between a boundary port and an element). A signal on a
//!   segment always travels in the segment's direction.
//! * **Elements** sit between segments: plain waveguide
//!   [crossings](ElementConn::Crossing), parallel PSEs
//!   ([`ElementConn::Ppse`]) and crossing PSEs ([`ElementConn::Cpse`]).
//! * **Routes** — one per supported (input port, output port) pair — are
//!   ordered element traversals. The builder *walks* each declared route
//!   through the netlist and rejects any step that is not physically
//!   connected, so a `RouterModel` that builds successfully is guaranteed
//!   internally consistent.
//!
//! The same netlist also fixes the **first-order crosstalk topology**:
//! each element pass leaks power into exactly one segment (Eqs.
//! 1b/1d/1f/1h/1j of the paper), and the leak disturbs every connection
//! whose traversal carries that segment. [`RouterModel::interaction_matrix`]
//! derives the whole 25×25 victim/aggressor coupling matrix from these
//! leaks in one walk over the aggressor traversals, so "which aggressor
//! disturbs which victim" is derived, never hand-maintained.
//!
//! New routers are added by writing a new builder function — nothing in
//! the analysis core changes, which is the extensibility requirement of
//! the paper's Section II.

use crate::port::{Port, PortPair};
use phonoc_phys::{Db, ElementTransfer, LinearGain, PhysicalParameters, PseKind, ResonanceState};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a directed waveguide segment inside a router netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegmentId(pub(crate) u32);

/// Identifier of a photonic element inside a router netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ElementId(pub(crate) u32);

/// Directed connectivity of one photonic element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElementConn {
    /// A plain waveguide crossing: arm *a* (`a_in → a_out`) crosses arm
    /// *b* (`b_in → b_out`) perpendicularly.
    Crossing {
        /// Input of the first arm.
        a_in: SegmentId,
        /// Straight-through output of the first arm.
        a_out: SegmentId,
        /// Input of the second arm.
        b_in: SegmentId,
        /// Straight-through output of the second arm.
        b_out: SegmentId,
    },
    /// A parallel PSE (Fig. 2a–b): a microring between two parallel
    /// waveguides. OFF: `input → through`. ON: `input → drop` (the drop
    /// waveguide propagates away from the ring).
    Ppse {
        /// Input segment on the first waveguide.
        input: SegmentId,
        /// Through (OFF-state) continuation on the first waveguide.
        through: SegmentId,
        /// Drop (ON-state) output on the second waveguide.
        drop: SegmentId,
    },
    /// A crossing PSE (Fig. 2c–d): a microring at a waveguide crossing.
    /// OFF: `input → through`. ON: `input → cross_out` (the signal turns
    /// onto the perpendicular waveguide). Traffic already travelling on
    /// the perpendicular waveguide passes `cross_in → cross_out`.
    Cpse {
        /// Input segment on the ring's own waveguide.
        input: SegmentId,
        /// Through (OFF-state) continuation of the input waveguide.
        through: SegmentId,
        /// Perpendicular waveguide input (pass-through traffic).
        cross_in: SegmentId,
        /// Perpendicular waveguide output; also the ON-state drop target.
        cross_out: SegmentId,
    },
}

impl ElementConn {
    /// The element's arms as `(inputs, outputs)`: the segments it
    /// consumes and the segments it produces. The one table of each
    /// element kind's arms that the netlist validators read.
    fn arms(&self) -> (Vec<SegmentId>, Vec<SegmentId>) {
        match *self {
            ElementConn::Crossing {
                a_in,
                a_out,
                b_in,
                b_out,
            } => (vec![a_in, b_in], vec![a_out, b_out]),
            ElementConn::Ppse {
                input,
                through,
                drop,
            } => (vec![input], vec![through, drop]),
            ElementConn::Cpse {
                input,
                through,
                cross_in,
                cross_out,
            } => (vec![input, cross_in], vec![through, cross_out]),
        }
    }
}

/// A named element instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element {
    /// Human-readable name used in validation errors and reports.
    pub name: String,
    /// Directed connectivity.
    pub conn: ElementConn,
}

impl Element {
    /// Whether this element contains a microring resonator.
    #[must_use]
    pub fn has_microring(&self) -> bool {
        !matches!(self.conn, ElementConn::Crossing { .. })
    }
}

/// How a signal passes one element of its traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PassMode {
    /// PSE in OFF resonance: `input → through` (Eqs. 1a / 1e).
    Off,
    /// PSE in ON resonance: `input → drop` / `input → cross_out`
    /// (Eqs. 1c / 1g).
    On,
    /// Straight across the perpendicular arm of a [`ElementConn::Crossing`]
    /// or [`ElementConn::Cpse`] (Eq. 1i).
    Cross,
}

impl fmt::Display for PassMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PassMode::Off => "off",
            PassMode::On => "on",
            PassMode::Cross => "cross",
        };
        write!(f, "{s}")
    }
}

/// One validated step of a traversal: which element is passed and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// The element being traversed.
    pub element: ElementId,
    /// The traversal mode.
    pub mode: PassMode,
}

/// A validated port-to-port traversal: the ordered steps plus the set of
/// segments the signal occupies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Traversal {
    /// Ordered element passes from input port to output port.
    pub steps: Vec<Step>,
    /// Every segment the signal occupies, in traversal order, starting
    /// with the input port's boundary segment: step `i` enters its
    /// element on `segments[i]` and leaves it on `segments[i + 1]`.
    pub segments: Vec<SegmentId>,
}

/// Errors produced while building or validating a router netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A route step referenced an element that does not exist.
    UnknownElement {
        /// Name used in the route declaration.
        name: String,
    },
    /// A named port boundary segment was declared twice.
    DuplicatePortBinding {
        /// The port bound twice.
        port: Port,
    },
    /// A route was declared for a pair that already has one.
    DuplicateRoute {
        /// The duplicated pair.
        pair: PortPair,
    },
    /// The route's next element cannot be entered from the current
    /// segment with the declared mode.
    Discontinuity {
        /// The pair whose route is broken.
        pair: PortPair,
        /// Index of the offending step.
        step: usize,
        /// Element name.
        element: String,
        /// Mode requested.
        mode: PassMode,
    },
    /// After the last step the signal is not on the output port's
    /// boundary segment.
    WrongTerminal {
        /// The pair whose route is broken.
        pair: PortPair,
    },
    /// The input or output port of a route has no bound boundary segment.
    UnboundPort {
        /// The port missing a binding.
        port: Port,
    },
    /// An element reuses one segment for two of its arms.
    ArmAliasing {
        /// Element name.
        element: String,
    },
    /// A segment is produced (written) by more than one source.
    MultipleProducers {
        /// Segment name.
        segment: String,
    },
    /// A segment is consumed (read) by more than one sink.
    MultipleConsumers {
        /// Segment name.
        segment: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::UnknownElement { name } => write!(f, "unknown element `{name}`"),
            NetlistError::DuplicatePortBinding { port } => {
                write!(f, "port {port} bound to a boundary segment twice")
            }
            NetlistError::DuplicateRoute { pair } => {
                write!(f, "route {pair} declared twice")
            }
            NetlistError::Discontinuity {
                pair,
                step,
                element,
                mode,
            } => write!(
                f,
                "route {pair} step {step}: element `{element}` cannot be entered in mode {mode} from the current segment"
            ),
            NetlistError::WrongTerminal { pair } => write!(
                f,
                "route {pair} does not terminate on the output port's boundary segment"
            ),
            NetlistError::UnboundPort { port } => {
                write!(f, "port {port} has no boundary segment binding")
            }
            NetlistError::ArmAliasing { element } => {
                write!(f, "element `{element}` reuses a segment for two arms")
            }
            NetlistError::MultipleProducers { segment } => {
                write!(f, "segment `{segment}` has multiple producers")
            }
            NetlistError::MultipleConsumers { segment } => {
                write!(f, "segment `{segment}` has multiple consumers")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

/// A fully validated optical router model.
///
/// Obtain one from a builder function such as
/// [`crate::crux::crux_router`], or build your own with
/// [`NetlistBuilder`]. All queries are total: unsupported port pairs
/// return `None` (or zero rows and columns of
/// [`interaction_matrix`](Self::interaction_matrix)). What an evaluator
/// reads from a router is each supported pair's
/// [`traversal_loss`](Self::traversal_loss) and the coupling matrix.
#[derive(Debug, Clone)]
pub struct RouterModel {
    name: String,
    elements: Vec<Element>,
    traversals: HashMap<PortPair, Traversal>,
}

impl RouterModel {
    /// The router's name (e.g. `"crux"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of microring resonators in the netlist.
    #[must_use]
    pub fn microring_count(&self) -> usize {
        self.elements.iter().filter(|e| e.has_microring()).count()
    }

    /// Number of plain waveguide crossings in the netlist (CPSEs also
    /// contain a physical crossing but are counted as rings).
    #[must_use]
    pub fn plain_crossing_count(&self) -> usize {
        self.elements.iter().filter(|e| !e.has_microring()).count()
    }

    /// Whether the router can connect `input` to `output`.
    #[must_use]
    pub fn supports(&self, pair: PortPair) -> bool {
        self.traversals.contains_key(&pair)
    }

    /// All supported pairs, in dense-index order.
    #[must_use]
    pub fn supported_pairs(&self) -> Vec<PortPair> {
        let mut pairs: Vec<PortPair> = self.traversals.keys().copied().collect();
        pairs.sort_by_key(|p| p.index());
        pairs
    }

    /// The validated traversal for `pair`, if supported.
    #[must_use]
    pub fn traversal(&self, pair: PortPair) -> Option<&Traversal> {
        self.traversals.get(&pair)
    }

    /// The element table.
    #[must_use]
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Insertion loss of the `pair` traversal under `params`
    /// (element losses only; waveguide propagation inside the router is
    /// neglected, consistent with the paper's hop-based model).
    #[must_use]
    pub fn traversal_loss(&self, pair: PortPair, params: &PhysicalParameters) -> Option<Db> {
        let t = self.traversals.get(&pair)?;
        let xfer = ElementTransfer::new(params);
        Some(
            t.steps
                .iter()
                .map(|s| step_loss(&self.elements[s.element.0 as usize], s.mode, &xfer))
                .sum(),
        )
    }

    /// The first-order crosstalk coupling matrix under `params`:
    /// `m[victim.index()][aggressor.index()]` is the total linear gain
    /// coupled from the `aggressor` traversal into the `victim` traversal
    /// when both are simultaneously active in this router. Entries are
    /// `LinearGain::ZERO` when either pair is unsupported, when victim
    /// equals aggressor, or when no leak lands on the victim's path.
    ///
    /// One walk over each supported aggressor traversal: every step
    /// leaks into exactly one segment, and that leak is added into every
    /// victim whose traversal carries the segment, in the aggressor's
    /// step order.
    ///
    /// Two modeling rules, both consistent with the paper's
    /// victim-centric first-order analysis (Section II-C, following
    /// Xie et al.):
    ///
    /// * **Shared-element semantics.** A leak counts only if its target
    ///   segment lies directly on the victim's path — i.e. the aggressor
    ///   passes an element the victim also occupies. Residual light that
    ///   would reach the victim only after propagating through further
    ///   elements is a higher-order term and is dropped, exactly like the
    ///   `K_i·K_j = 0` and `K_i·L_i = K_i` simplifications drop
    ///   second-order products.
    /// * **Same-input exclusion.** A victim and an aggressor entering the
    ///   router through the *same input port* share the physical input
    ///   waveguide; in a single-wavelength network they can only be
    ///   time-multiplexed, never simultaneous, so they contribute no
    ///   mutual crosstalk.
    ///
    /// Consistent with the paper's simplifications, no intra-router loss
    /// is applied to the noise inside the router where it is generated.
    #[must_use]
    pub fn interaction_matrix(&self, params: &PhysicalParameters) -> [[LinearGain; 25]; 25] {
        let xfer = ElementTransfer::new(params);
        let mut m = [[LinearGain::ZERO; 25]; 25];
        for (aggressor, t) in &self.traversals {
            for (step, &enters_on) in t.steps.iter().zip(&t.segments) {
                let elem = &self.elements[step.element.0 as usize];
                let (target, gain) = step_leak(elem, step.mode, enters_on, &xfer);
                for (victim, v) in &self.traversals {
                    if victim.input != aggressor.input && v.segments.contains(&target) {
                        let cell = &mut m[victim.index()][aggressor.index()];
                        *cell = *cell + gain;
                    }
                }
            }
        }
        m
    }
}

fn step_loss(elem: &Element, mode: PassMode, xfer: &ElementTransfer<'_>) -> Db {
    match (&elem.conn, mode) {
        (ElementConn::Crossing { .. }, PassMode::Cross) => xfer.crossing_loss(),
        (ElementConn::Ppse { .. }, PassMode::Off) => {
            xfer.pse_main_loss(PseKind::Parallel, ResonanceState::Off)
        }
        (ElementConn::Ppse { .. }, PassMode::On) => {
            xfer.pse_main_loss(PseKind::Parallel, ResonanceState::On)
        }
        (ElementConn::Cpse { .. }, PassMode::Off) => {
            xfer.pse_main_loss(PseKind::Crossing, ResonanceState::Off)
        }
        (ElementConn::Cpse { .. }, PassMode::On) => {
            xfer.pse_main_loss(PseKind::Crossing, ResonanceState::On)
        }
        // Passing the perpendicular arm of a CPSE is a plain crossing
        // traversal (the ring is on the other waveguide).
        (ElementConn::Cpse { .. }, PassMode::Cross) => xfer.crossing_loss(),
        // Unreachable after validation.
        (conn, mode) => unreachable!("invalid mode {mode} for element {conn:?}"),
    }
}

/// The one segment a `mode` pass of `elem`, entered on `enters_on`,
/// leaks into, and the leak's linear gain.
fn step_leak(
    elem: &Element,
    mode: PassMode,
    enters_on: SegmentId,
    xfer: &ElementTransfer<'_>,
) -> (SegmentId, LinearGain) {
    match (&elem.conn, mode) {
        // Eq. (1j): a crossing pass leaks Kc into the perpendicular
        // forward direction (the backward direction is back-reflection,
        // neglected by the paper). The signal's own arm is identified by
        // the segment it entered on.
        (
            ElementConn::Crossing {
                a_in, a_out, b_out, ..
            },
            PassMode::Cross,
        ) => {
            let target = if enters_on == *a_in { *b_out } else { *a_out };
            (target, xfer.crossing_leak_gain())
        }
        // Eq. (1b): Kp,off into the drop port.
        (ElementConn::Ppse { drop, .. }, PassMode::Off) => (
            *drop,
            xfer.pse_leak_gain(PseKind::Parallel, ResonanceState::Off),
        ),
        // Eq. (1d): Kp,on into the through port.
        (ElementConn::Ppse { through, .. }, PassMode::On) => (
            *through,
            xfer.pse_leak_gain(PseKind::Parallel, ResonanceState::On),
        ),
        // Eq. (1f): (Kp,off + Kc) into the drop (perpendicular) output.
        (ElementConn::Cpse { cross_out, .. }, PassMode::Off) => (
            *cross_out,
            xfer.pse_leak_gain(PseKind::Crossing, ResonanceState::Off),
        ),
        // Eq. (1h): Kp,on into the through port.
        (ElementConn::Cpse { through, .. }, PassMode::On) => (
            *through,
            xfer.pse_leak_gain(PseKind::Crossing, ResonanceState::On),
        ),
        // Eq. (1j) applied to the CPSE's physical crossing.
        (ElementConn::Cpse { through, .. }, PassMode::Cross) => {
            (*through, xfer.crossing_leak_gain())
        }
        (conn, mode) => unreachable!("invalid mode {mode} for element {conn:?}"),
    }
}

/// Builder for [`RouterModel`] ([C-BUILDER]).
///
/// Segments are referred to by string names; they are interned on first
/// use. Declare elements, bind boundary ports, declare one route per
/// supported port pair, then call [`build`](Self::build), which walks and
/// validates every route.
///
/// # Examples
///
/// A trivial "router" that connects West to East across one crossing:
///
/// ```
/// use phonoc_router::netlist::{NetlistBuilder, PassMode};
/// use phonoc_router::port::{Port, PortPair};
///
/// let mut b = NetlistBuilder::new("demo");
/// b.crossing("x0", "w_in", "w_out", "n_in", "n_out");
/// b.bind_input(Port::West, "w_in");
/// b.bind_output(Port::East, "w_out");
/// b.bind_input(Port::North, "n_in");
/// b.bind_output(Port::South, "n_out");
/// b.route(Port::West, Port::East, &[("x0", PassMode::Cross)]);
/// b.route(Port::North, Port::South, &[("x0", PassMode::Cross)]);
/// let model = b.build().unwrap();
/// assert!(model.supports(PortPair::new(Port::West, Port::East)));
/// assert_eq!(model.microring_count(), 0);
/// ```
#[derive(Debug)]
pub struct NetlistBuilder {
    name: String,
    segment_ids: HashMap<String, SegmentId>,
    segment_names: Vec<String>,
    elements: Vec<Element>,
    element_ids: HashMap<String, ElementId>,
    port_inputs: HashMap<Port, SegmentId>,
    port_outputs: HashMap<Port, Vec<SegmentId>>,
    routes: Vec<(PortPair, Vec<(String, PassMode)>)>,
    errors: Vec<NetlistError>,
}

impl NetlistBuilder {
    /// Starts an empty netlist with the given router name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            segment_ids: HashMap::new(),
            segment_names: Vec::new(),
            elements: Vec::new(),
            element_ids: HashMap::new(),
            port_inputs: HashMap::new(),
            port_outputs: HashMap::new(),
            routes: Vec::new(),
            errors: Vec::new(),
        }
    }

    fn seg(&mut self, name: &str) -> SegmentId {
        if let Some(&id) = self.segment_ids.get(name) {
            return id;
        }
        let id = SegmentId(self.segment_names.len() as u32);
        self.segment_names.push(name.to_owned());
        self.segment_ids.insert(name.to_owned(), id);
        id
    }

    fn add_element(&mut self, name: &str, conn: ElementConn) -> ElementId {
        let id = ElementId(self.elements.len() as u32);
        self.elements.push(Element {
            name: name.to_owned(),
            conn,
        });
        self.element_ids.insert(name.to_owned(), id);
        id
    }

    /// Adds a plain waveguide crossing: arm `a_in → a_out` crosses arm
    /// `b_in → b_out`.
    pub fn crossing(
        &mut self,
        name: &str,
        a_in: &str,
        a_out: &str,
        b_in: &str,
        b_out: &str,
    ) -> &mut Self {
        let conn = ElementConn::Crossing {
            a_in: self.seg(a_in),
            a_out: self.seg(a_out),
            b_in: self.seg(b_in),
            b_out: self.seg(b_out),
        };
        self.add_element(name, conn);
        self
    }

    /// Adds a parallel PSE: OFF passes `input → through`, ON drops
    /// `input → drop`.
    pub fn ppse(&mut self, name: &str, input: &str, through: &str, drop: &str) -> &mut Self {
        let conn = ElementConn::Ppse {
            input: self.seg(input),
            through: self.seg(through),
            drop: self.seg(drop),
        };
        self.add_element(name, conn);
        self
    }

    /// Adds a crossing PSE: OFF passes `input → through`, ON turns
    /// `input → cross_out`; perpendicular traffic passes
    /// `cross_in → cross_out`.
    pub fn cpse(
        &mut self,
        name: &str,
        input: &str,
        through: &str,
        cross_in: &str,
        cross_out: &str,
    ) -> &mut Self {
        let conn = ElementConn::Cpse {
            input: self.seg(input),
            through: self.seg(through),
            cross_in: self.seg(cross_in),
            cross_out: self.seg(cross_out),
        };
        self.add_element(name, conn);
        self
    }

    /// Binds `port`'s input side to a boundary segment.
    pub fn bind_input(&mut self, port: Port, segment: &str) -> &mut Self {
        let id = self.seg(segment);
        if self.port_inputs.insert(port, id).is_some() {
            self.errors
                .push(NetlistError::DuplicatePortBinding { port });
        }
        self
    }

    /// Binds `port`'s output side to a boundary segment.
    pub fn bind_output(&mut self, port: Port, segment: &str) -> &mut Self {
        let id = self.seg(segment);
        if self.port_outputs.insert(port, vec![id]).is_some() {
            self.errors
                .push(NetlistError::DuplicatePortBinding { port });
        }
        self
    }

    /// Binds `port`'s output side to *several* boundary segments, e.g.
    /// the per-tap photodetector stubs of a multi-detector Local port.
    /// A route may terminate on any of them.
    pub fn bind_output_set(&mut self, port: Port, segments: &[&str]) -> &mut Self {
        let ids: Vec<SegmentId> = segments.iter().map(|s| self.seg(s)).collect();
        if self.port_outputs.insert(port, ids).is_some() {
            self.errors
                .push(NetlistError::DuplicatePortBinding { port });
        }
        self
    }

    /// Declares the route from `input` to `output` as an ordered list of
    /// `(element name, pass mode)` steps.
    pub fn route(&mut self, input: Port, output: Port, steps: &[(&str, PassMode)]) -> &mut Self {
        let pair = PortPair::new(input, output);
        if self.routes.iter().any(|(p, _)| *p == pair) {
            self.errors.push(NetlistError::DuplicateRoute { pair });
        }
        self.routes.push((
            pair,
            steps.iter().map(|(n, m)| ((*n).to_owned(), *m)).collect(),
        ));
        self
    }

    /// Validates the netlist and every declared route.
    ///
    /// # Errors
    ///
    /// Returns the first [`NetlistError`] found: unknown elements, broken
    /// continuity, wrong terminals, arm aliasing, or segments with
    /// multiple producers/consumers.
    pub fn build(&self) -> Result<RouterModel, NetlistError> {
        if let Some(e) = self.errors.first() {
            return Err(e.clone());
        }
        self.check_arm_aliasing()?;
        self.check_segment_usage()?;

        let mut traversals: HashMap<PortPair, Traversal> = HashMap::new();
        for (pair, steps) in &self.routes {
            let t = self.walk_route(*pair, steps)?;
            traversals.insert(*pair, t);
        }

        Ok(RouterModel {
            name: self.name.clone(),
            elements: self.elements.clone(),
            traversals,
        })
    }

    fn check_arm_aliasing(&self) -> Result<(), NetlistError> {
        for elem in &self.elements {
            let (inputs, outputs) = elem.conn.arms();
            let mut arms = [inputs, outputs].concat();
            let count = arms.len();
            arms.sort_unstable();
            arms.dedup();
            if arms.len() != count {
                return Err(NetlistError::ArmAliasing {
                    element: elem.name.clone(),
                });
            }
        }
        Ok(())
    }

    /// Each segment must have at most one producer (element output arm or
    /// port input binding) and at most one consumer (element input arm or
    /// port output binding). Dead-end segments (leak sinks) are fine.
    fn check_segment_usage(&self) -> Result<(), NetlistError> {
        let n = self.segment_names.len();
        let mut producers = vec![0usize; n];
        let mut consumers = vec![0usize; n];
        for elem in &self.elements {
            let (inputs, outputs) = elem.conn.arms();
            for seg in inputs {
                consumers[seg.0 as usize] += 1;
            }
            for seg in outputs {
                producers[seg.0 as usize] += 1;
            }
        }
        for seg in self.port_inputs.values() {
            producers[seg.0 as usize] += 1;
        }
        for seg in self.port_outputs.values().flatten() {
            consumers[seg.0 as usize] += 1;
        }
        for i in 0..n {
            if producers[i] > 1 {
                return Err(NetlistError::MultipleProducers {
                    segment: self.segment_names[i].clone(),
                });
            }
            if consumers[i] > 1 {
                return Err(NetlistError::MultipleConsumers {
                    segment: self.segment_names[i].clone(),
                });
            }
        }
        Ok(())
    }

    fn walk_route(
        &self,
        pair: PortPair,
        steps: &[(String, PassMode)],
    ) -> Result<Traversal, NetlistError> {
        let start = *self
            .port_inputs
            .get(&pair.input)
            .ok_or(NetlistError::UnboundPort { port: pair.input })?;
        let ends = self
            .port_outputs
            .get(&pair.output)
            .filter(|v| !v.is_empty())
            .ok_or(NetlistError::UnboundPort { port: pair.output })?;

        let mut current = start;
        let mut segments = vec![start];
        let mut walked = Vec::with_capacity(steps.len());
        for (i, (name, mode)) in steps.iter().enumerate() {
            let &eid = self
                .element_ids
                .get(name)
                .ok_or_else(|| NetlistError::UnknownElement { name: name.clone() })?;
            let elem = &self.elements[eid.0 as usize];
            let next = transition(&elem.conn, *mode, current).ok_or_else(|| {
                NetlistError::Discontinuity {
                    pair,
                    step: i,
                    element: name.clone(),
                    mode: *mode,
                }
            })?;
            walked.push(Step {
                element: eid,
                mode: *mode,
            });
            current = next;
            segments.push(current);
        }
        if !ends.contains(&current) {
            return Err(NetlistError::WrongTerminal { pair });
        }
        Ok(Traversal {
            steps: walked,
            segments,
        })
    }
}

/// The segment a signal moves to when entering `conn` on `current` with
/// `mode`, or `None` if that transition is physically impossible.
fn transition(conn: &ElementConn, mode: PassMode, current: SegmentId) -> Option<SegmentId> {
    match (conn, mode) {
        (
            ElementConn::Crossing {
                a_in,
                a_out,
                b_in,
                b_out,
            },
            PassMode::Cross,
        ) => {
            if current == *a_in {
                Some(*a_out)
            } else if current == *b_in {
                Some(*b_out)
            } else {
                None
            }
        }
        (ElementConn::Ppse { input, through, .. }, PassMode::Off) => {
            (current == *input).then_some(*through)
        }
        (ElementConn::Ppse { input, drop, .. }, PassMode::On) => {
            (current == *input).then_some(*drop)
        }
        (ElementConn::Cpse { input, through, .. }, PassMode::Off) => {
            (current == *input).then_some(*through)
        }
        (
            ElementConn::Cpse {
                input, cross_out, ..
            },
            PassMode::On,
        ) => (current == *input).then_some(*cross_out),
        (
            ElementConn::Cpse {
                cross_in,
                cross_out,
                ..
            },
            PassMode::Cross,
        ) => (current == *cross_in).then_some(*cross_out),
        _ => None,
    }
}

/// `victim`'s coupling from `aggressor` under `params`, read off the
/// router's interaction matrix.
#[cfg(test)]
pub(crate) fn coupling(
    router: &RouterModel,
    victim: PortPair,
    aggressor: PortPair,
    params: &PhysicalParameters,
) -> LinearGain {
    router.interaction_matrix(params)[victim.index()][aggressor.index()]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two perpendicular waveguides through one crossing, plus a CPSE
    /// that lets West traffic turn onto the vertical waveguide.
    fn tiny_router() -> RouterModel {
        let mut b = NetlistBuilder::new("tiny");
        // West→East waveguide: w_in --[turn]-- w_mid --> East.
        // North→South waveguide: n_in --[turn (cross arm)]-- n_mid --> South.
        b.cpse("turn", "w_in", "w_mid", "n_in", "n_mid");
        b.bind_input(Port::West, "w_in");
        b.bind_output(Port::East, "w_mid");
        b.bind_input(Port::North, "n_in");
        b.bind_output(Port::South, "n_mid");
        b.route(Port::West, Port::East, &[("turn", PassMode::Off)]);
        b.route(Port::West, Port::South, &[("turn", PassMode::On)]);
        b.route(Port::North, Port::South, &[("turn", PassMode::Cross)]);
        b.build().unwrap()
    }

    #[test]
    fn tiny_router_builds_and_reports_structure() {
        let r = tiny_router();
        assert_eq!(r.name(), "tiny");
        assert_eq!(r.microring_count(), 1);
        assert_eq!(r.plain_crossing_count(), 0);
        assert_eq!(r.supported_pairs().len(), 3);
        assert!(r.supports(PortPair::new(Port::West, Port::South)));
        assert!(!r.supports(PortPair::new(Port::South, Port::West)));
    }

    #[test]
    fn traversal_losses_match_table_coefficients() {
        let r = tiny_router();
        let p = PhysicalParameters::default();
        let off = r
            .traversal_loss(PortPair::new(Port::West, Port::East), &p)
            .unwrap();
        assert!((off.0 - -0.045).abs() < 1e-12, "CPSE OFF pass");
        let on = r
            .traversal_loss(PortPair::new(Port::West, Port::South), &p)
            .unwrap();
        assert!((on.0 - -0.5).abs() < 1e-12, "CPSE ON drop");
        let cross = r
            .traversal_loss(PortPair::new(Port::North, Port::South), &p)
            .unwrap();
        assert!((cross.0 - -0.04).abs() < 1e-12, "crossing pass");
        assert!(r
            .traversal_loss(PortPair::new(Port::East, Port::West), &p)
            .is_none());
    }

    #[test]
    fn off_pass_leaks_into_perpendicular_path() {
        // Eq. (1f): West→East traffic (CPSE OFF) leaks Kp,off+Kc into the
        // cross output used by North→South traffic.
        let r = tiny_router();
        let p = PhysicalParameters::default();
        let gain = coupling(
            &r,
            PortPair::new(Port::North, Port::South),
            PortPair::new(Port::West, Port::East),
            &p,
        );
        let expected = 10f64.powf(-20.0 / 10.0) + 10f64.powf(-40.0 / 10.0);
        assert!((gain.0 - expected).abs() < 1e-12);
    }

    #[test]
    fn cross_pass_leaks_into_through_path() {
        // North→South traffic passing the CPSE leaks Kc into the through
        // segment used by West→East traffic.
        let r = tiny_router();
        let p = PhysicalParameters::default();
        let gain = coupling(
            &r,
            PortPair::new(Port::West, Port::East),
            PortPair::new(Port::North, Port::South),
            &p,
        );
        assert!((gain.0 - 10f64.powf(-40.0 / 10.0)).abs() < 1e-12);
    }

    #[test]
    fn same_input_aggressors_are_excluded() {
        // West→South (ON) would leak Kp,on into the through segment used
        // by West→East — but the two signals share the West input
        // waveguide and can only be time-multiplexed, so the model
        // reports no interaction (single-wavelength exclusion rule).
        let r = tiny_router();
        let p = PhysicalParameters::default();
        let gain = coupling(
            &r,
            PortPair::new(Port::West, Port::East),
            PortPair::new(Port::West, Port::South),
            &p,
        );
        assert_eq!(gain, LinearGain::ZERO);
    }

    #[test]
    fn self_interaction_is_zero() {
        let r = tiny_router();
        let p = PhysicalParameters::default();
        let g = coupling(
            &r,
            PortPair::new(Port::West, Port::East),
            PortPair::new(Port::West, Port::East),
            &p,
        );
        assert_eq!(g, LinearGain::ZERO);
    }

    #[test]
    fn unsupported_pairs_have_zero_interaction() {
        let r = tiny_router();
        let p = PhysicalParameters::default();
        let g = coupling(
            &r,
            PortPair::new(Port::East, Port::West),
            PortPair::new(Port::West, Port::East),
            &p,
        );
        assert_eq!(g, LinearGain::ZERO);
    }

    #[test]
    fn discontinuous_route_is_rejected() {
        let mut b = NetlistBuilder::new("broken");
        b.cpse("turn", "w_in", "w_mid", "n_in", "n_mid");
        b.bind_input(Port::West, "w_in");
        b.bind_output(Port::East, "w_mid");
        // North is bound to a segment that never reaches the element in
        // Off mode.
        b.bind_input(Port::North, "n_in");
        b.bind_output(Port::South, "n_mid");
        b.route(Port::North, Port::South, &[("turn", PassMode::Off)]);
        let err = b.build().unwrap_err();
        assert!(matches!(err, NetlistError::Discontinuity { .. }), "{err}");
    }

    #[test]
    fn wrong_terminal_is_rejected() {
        let mut b = NetlistBuilder::new("broken");
        b.cpse("turn", "w_in", "w_mid", "n_in", "n_mid");
        b.bind_input(Port::West, "w_in");
        b.bind_output(Port::East, "n_mid"); // wrong: Off pass ends on w_mid
        b.route(Port::West, Port::East, &[("turn", PassMode::Off)]);
        let err = b.build().unwrap_err();
        assert!(matches!(err, NetlistError::WrongTerminal { .. }), "{err}");
    }

    #[test]
    fn unknown_element_is_rejected() {
        let mut b = NetlistBuilder::new("broken");
        b.bind_input(Port::West, "w_in");
        b.bind_output(Port::East, "w_in");
        b.route(Port::West, Port::East, &[("ghost", PassMode::Off)]);
        let err = b.build().unwrap_err();
        assert!(matches!(err, NetlistError::UnknownElement { .. }), "{err}");
    }

    #[test]
    fn unbound_port_is_rejected() {
        let mut b = NetlistBuilder::new("broken");
        b.cpse("turn", "w_in", "w_mid", "n_in", "n_mid");
        b.bind_input(Port::West, "w_in");
        b.route(Port::West, Port::East, &[("turn", PassMode::Off)]);
        let err = b.build().unwrap_err();
        assert!(matches!(err, NetlistError::UnboundPort { .. }), "{err}");
    }

    #[test]
    fn arm_aliasing_is_rejected() {
        let mut b = NetlistBuilder::new("broken");
        b.cpse("bad", "s", "s", "a", "b");
        let err = b.build().unwrap_err();
        assert!(matches!(err, NetlistError::ArmAliasing { .. }), "{err}");
    }

    #[test]
    fn multiple_producers_are_rejected() {
        let mut b = NetlistBuilder::new("broken");
        b.cpse("e1", "a", "shared", "c", "d");
        b.cpse("e2", "x", "shared", "z", "w");
        let err = b.build().unwrap_err();
        assert!(
            matches!(err, NetlistError::MultipleProducers { .. }),
            "{err}"
        );
    }

    #[test]
    fn multiple_consumers_are_rejected() {
        let mut b = NetlistBuilder::new("broken");
        b.cpse("e1", "shared", "b", "c", "d");
        b.cpse("e2", "shared2", "y", "z", "w");
        b.bind_output(Port::East, "shared2");
        // "shared2" consumed by both e2's input arm and the East output.
        let err = b.build().unwrap_err();
        assert!(
            matches!(err, NetlistError::MultipleConsumers { .. }),
            "{err}"
        );
    }

    #[test]
    fn duplicate_route_is_rejected() {
        let mut b = NetlistBuilder::new("broken");
        b.cpse("turn", "w_in", "w_mid", "n_in", "n_mid");
        b.bind_input(Port::West, "w_in");
        b.bind_output(Port::East, "w_mid");
        b.route(Port::West, Port::East, &[("turn", PassMode::Off)]);
        b.route(Port::West, Port::East, &[("turn", PassMode::Off)]);
        let err = b.build().unwrap_err();
        assert!(matches!(err, NetlistError::DuplicateRoute { .. }), "{err}");
    }

    #[test]
    fn error_displays_are_informative() {
        let e = NetlistError::UnknownElement {
            name: "ghost".into(),
        };
        assert!(e.to_string().contains("ghost"));
        let e = NetlistError::WrongTerminal {
            pair: PortPair::new(Port::West, Port::East),
        };
        assert!(e.to_string().contains("W→E"));
    }
}
