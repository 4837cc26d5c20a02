//! NoC topologies (paper Definition 2) with physical layout geometry.
//!
//! A [`Topology`] `X(T, L)` says how tiles are connected: each tile hosts
//! one optical router and (optionally) one task; each directed link is a
//! waveguide with a physical length (for propagation loss `Lp·length`)
//! and a count of inter-router waveguide crossings (zero for the planar
//! mesh and folded-torus layouts built here, but available for custom
//! layouts).
//!
//! Built-in constructors:
//!
//! * [`Topology::mesh`] — W×H grid, link length = tile pitch.
//! * [`Topology::torus`] — W×H folded torus: every link (including the
//!   wrap-around ones) spans two tile pitches, the standard layout trick
//!   that equalizes link lengths and avoids chip-long return wires.
//! * [`Topology::ring`] — N-tile bidirectional ring (extension).
//!
//! # Examples
//!
//! ```
//! use phonoc_topo::Topology;
//! use phonoc_phys::Length;
//! use phonoc_router::Port;
//!
//! let mesh = Topology::mesh(4, 4, Length::from_mm(2.5));
//! assert_eq!(mesh.tile_count(), 16);
//! let t0 = mesh.tile_at(0, 0).unwrap();
//! assert!(mesh.neighbor(t0, Port::West).is_none()); // chip edge
//! assert!(mesh.neighbor(t0, Port::East).is_some());
//! ```

#![warn(missing_docs)]

use phonoc_phys::Length;
use phonoc_router::Port;
use std::fmt;

/// Index of a tile (and its router) within a topology.
///
/// Tiles are numbered row-major: `id = y * width + x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TileId(pub usize);

impl fmt::Display for TileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Grid coordinate of a tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Column, increasing eastward.
    pub x: usize,
    /// Row, increasing northward.
    pub y: usize,
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// A directed physical link between two routers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Source tile.
    pub from: TileId,
    /// Destination tile.
    pub to: TileId,
    /// Port on the source router the link leaves from.
    pub from_port: Port,
    /// Port on the destination router the link arrives at.
    pub to_port: Port,
    /// Physical waveguide length (drives propagation loss).
    pub length: Length,
    /// Number of inter-router waveguide crossings along the link.
    pub crossings: usize,
}

/// The flavour of a topology, for reporting and for routing algorithms
/// that need wrap-around awareness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// Planar W×H mesh.
    Mesh,
    /// W×H torus (folded layout).
    Torus,
    /// N-tile bidirectional ring.
    Ring,
    /// User-defined link structure over a W×H tile grid (see
    /// [`TopologyBuilder`]).
    Custom,
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyKind::Mesh => write!(f, "mesh"),
            TopologyKind::Torus => write!(f, "torus"),
            TopologyKind::Ring => write!(f, "ring"),
            TopologyKind::Custom => write!(f, "custom"),
        }
    }
}

/// A tile-and-link graph with physical geometry (paper Definition 2).
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    kind: TopologyKind,
    width: usize,
    height: usize,
    coords: Vec<Coord>,
    links: Vec<Link>,
    /// `adjacency[tile][port.index()]` = index into `links` of the
    /// outgoing link leaving `tile` through `port`.
    adjacency: Vec<[Option<usize>; 5]>,
}

impl Topology {
    /// Builds a planar W×H mesh with orthogonal neighbour links of
    /// length `tile_pitch`.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero, or if `tile_pitch` is NaN,
    /// infinite or negative.
    #[must_use]
    pub fn mesh(width: usize, height: usize, tile_pitch: Length) -> Topology {
        assert!(width > 0 && height > 0, "mesh dimensions must be nonzero");
        assert_physical(tile_pitch);
        let mut topo = Topology::empty(TopologyKind::Mesh, width, height);
        for y in 0..height {
            for x in 0..width {
                if x + 1 < width {
                    topo.add_bidirectional(
                        Coord { x, y },
                        Coord { x: x + 1, y },
                        Port::East,
                        tile_pitch,
                        0,
                    );
                }
                if y + 1 < height {
                    topo.add_bidirectional(
                        Coord { x, y },
                        Coord { x, y: y + 1 },
                        Port::North,
                        tile_pitch,
                        0,
                    );
                }
            }
        }
        topo
    }

    /// Builds a W×H folded torus. All links — neighbour and wrap-around
    /// alike — have length `2 × tile_pitch`, the classic folded-torus
    /// equalization; no link crosses another, so `crossings` is 0.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero, or exactly 2 (a 2-wide
    /// torus needs duplicate links between the same tile pair, which the
    /// single-link-per-port router model cannot express), or if
    /// `tile_pitch` is NaN, infinite or negative.
    #[must_use]
    pub fn torus(width: usize, height: usize, tile_pitch: Length) -> Topology {
        assert!(width > 0 && height > 0, "torus dimensions must be nonzero");
        assert_physical(tile_pitch);
        assert!(
            width != 2 && height != 2,
            "2-wide tori create duplicate links between tile pairs; use a mesh instead"
        );
        let mut topo = Topology::empty(TopologyKind::Torus, width, height);
        let link_len = tile_pitch * 2.0;
        for y in 0..height {
            for x in 0..width {
                if width > 1 {
                    topo.add_bidirectional(
                        Coord { x, y },
                        Coord {
                            x: (x + 1) % width,
                            y,
                        },
                        Port::East,
                        link_len,
                        0,
                    );
                }
                if height > 1 {
                    topo.add_bidirectional(
                        Coord { x, y },
                        Coord {
                            x,
                            y: (y + 1) % height,
                        },
                        Port::North,
                        link_len,
                        0,
                    );
                }
            }
        }
        topo
    }

    /// Builds an N-tile bidirectional ring laid out folded on a line,
    /// with all links of length `2 × tile_pitch`. Rings use only the
    /// East/West ports.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`, or if `tile_pitch` is NaN, infinite or
    /// negative.
    #[must_use]
    pub fn ring(n: usize, tile_pitch: Length) -> Topology {
        assert!(n >= 3, "a ring needs at least 3 tiles");
        assert_physical(tile_pitch);
        let mut topo = Topology::empty(TopologyKind::Ring, n, 1);
        let link_len = tile_pitch * 2.0;
        for x in 0..n {
            topo.add_bidirectional(
                Coord { x, y: 0 },
                Coord {
                    x: (x + 1) % n,
                    y: 0,
                },
                Port::East,
                link_len,
                0,
            );
        }
        topo
    }

    fn empty(kind: TopologyKind, width: usize, height: usize) -> Topology {
        let mut coords = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                coords.push(Coord { x, y });
            }
        }
        let n = coords.len();
        Topology {
            kind,
            width,
            height,
            coords,
            links: Vec::new(),
            adjacency: vec![[None; 5]; n],
        }
    }

    /// Adds the `a → b` link through `a_port` and its reverse.
    fn add_bidirectional(
        &mut self,
        a: Coord,
        b: Coord,
        a_port: Port,
        length: Length,
        crossings: usize,
    ) {
        let ta = self.tile_at(a.x, a.y).expect("coordinate in range");
        let tb = self.tile_at(b.x, b.y).expect("coordinate in range");
        self.add_link(Link {
            from: ta,
            to: tb,
            from_port: a_port,
            to_port: a_port.opposite(),
            length,
            crossings,
        });
        self.add_link(Link {
            from: tb,
            to: ta,
            from_port: a_port.opposite(),
            to_port: a_port,
            length,
            crossings,
        });
    }

    fn add_link(&mut self, link: Link) {
        let idx = self.links.len();
        let slot = &mut self.adjacency[link.from.0][link.from_port.index()];
        assert!(
            slot.is_none(),
            "duplicate link: tile {} already has an outgoing link on port {}",
            link.from,
            link.from_port
        );
        *slot = Some(idx);
        self.links.push(link);
    }

    /// The topology flavour.
    #[must_use]
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Grid width (columns). For rings this is the tile count.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height (rows). 1 for rings.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of tiles.
    #[must_use]
    pub fn tile_count(&self) -> usize {
        self.coords.len()
    }

    /// Iterator over all tile ids.
    pub fn tiles(&self) -> impl Iterator<Item = TileId> {
        (0..self.coords.len()).map(TileId)
    }

    /// The coordinate of `tile`.
    ///
    /// # Panics
    ///
    /// Panics if `tile` is out of range.
    #[must_use]
    pub fn coord(&self, tile: TileId) -> Coord {
        self.coords[tile.0]
    }

    /// The tile at `(x, y)`, if within the grid.
    #[must_use]
    pub fn tile_at(&self, x: usize, y: usize) -> Option<TileId> {
        (x < self.width && y < self.height).then(|| TileId(y * self.width + x))
    }

    /// The outgoing link from `tile` through `port`, if present.
    #[must_use]
    pub fn link_from(&self, tile: TileId, port: Port) -> Option<&Link> {
        self.adjacency[tile.0][port.index()].map(|i| &self.links[i])
    }

    /// The neighbouring tile reached from `tile` through `port`.
    #[must_use]
    pub fn neighbor(&self, tile: TileId, port: Port) -> Option<TileId> {
        self.link_from(tile, port).map(|l| l.to)
    }

    /// All directed links.
    #[must_use]
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Whether coordinates wrap around (torus / ring).
    #[must_use]
    pub fn wraps(&self) -> bool {
        matches!(self.kind, TopologyKind::Torus | TopologyKind::Ring)
    }

    /// A short human-readable description such as `"4×4 mesh"`.
    #[must_use]
    pub fn describe(&self) -> String {
        match self.kind {
            TopologyKind::Ring => format!("{}-tile ring", self.width),
            k => format!("{}×{} {k}", self.width, self.height),
        }
    }
}

/// The smallest (width, height) grid that can host `tasks` tiles, chosen
/// as square as possible — the rule the paper uses to pick each
/// application's topology (e.g. the 8-task PIP runs on 3×3).
///
/// # Panics
///
/// Panics if `tasks` is zero.
#[must_use]
pub fn fit_grid(tasks: usize) -> (usize, usize) {
    assert!(tasks > 0, "cannot fit zero tasks");
    let w = (tasks as f64).sqrt().ceil() as usize;
    let h = tasks.div_ceil(w);
    (w, h)
}

/// Panics unless `pitch` is a length a waveguide can have.
fn assert_physical(pitch: Length) {
    assert!(
        pitch.is_physical(),
        "tile pitch must be finite and non-negative, got {} mm",
        pitch.as_mm()
    );
}

/// Errors from [`TopologyBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A referenced coordinate is outside the grid.
    OutOfRange {
        /// The offending coordinate.
        x: usize,
        /// The offending coordinate.
        y: usize,
    },
    /// A link connects a tile to itself.
    SelfLink {
        /// The offending tile.
        tile: TileId,
    },
    /// Two links claim the same (tile, port) slot.
    PortBusy {
        /// The tile whose port is contested.
        tile: TileId,
        /// The contested port.
        port: Port,
    },
    /// A link was declared through the Local port, which connects a
    /// router to its own tile, never to another router.
    LocalPort,
    /// A link's length is NaN, infinite or negative, which would give
    /// every path over it a meaningless loss.
    BadLength {
        /// The tile the link was declared from.
        tile: TileId,
        /// The port it leaves that tile through.
        port: Port,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::OutOfRange { x, y } => {
                write!(f, "coordinate ({x}, {y}) outside the grid")
            }
            TopologyError::SelfLink { tile } => write!(f, "self-link on tile {tile}"),
            TopologyError::PortBusy { tile, port } => {
                write!(f, "port {port} of tile {tile} is already linked")
            }
            TopologyError::LocalPort => {
                write!(f, "links cannot use the Local port")
            }
            TopologyError::BadLength { tile, port } => write!(
                f,
                "the link from tile {tile} through port {port} must have a finite, non-negative length"
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Builder for irregular topologies over a W×H tile grid: express links,
/// concentrated meshes, partially connected floorplans ([C-BUILDER]).
/// Every declared connection is bidirectional — the reverse link enters
/// on the opposite port, as on a physical waveguide pair.
///
/// # Examples
///
/// A 3×1 chain with an express link skipping the middle tile:
///
/// ```
/// use phonoc_topo::{Topology, TopologyBuilder, TopologyKind};
/// use phonoc_phys::Length;
/// use phonoc_router::Port;
///
/// let pitch = Length::from_mm(2.5);
/// let topo = TopologyBuilder::new(3, 2)
///     .connect((0, 0), (1, 0), Port::East, pitch, 0)
///     .connect((1, 0), (2, 0), Port::East, pitch, 0)
///     // Express channel on the second row, double length, one crossing:
///     .connect((0, 1), (2, 1), Port::East, pitch * 2.0, 1)
///     .build()
///     .unwrap();
/// assert_eq!(topo.kind(), TopologyKind::Custom);
/// assert_eq!(topo.links().len(), 6);
/// ```
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    width: usize,
    height: usize,
    connections: Vec<(Coord, Coord, Port, Length, usize)>,
}

impl TopologyBuilder {
    /// Starts a custom topology over a `width × height` tile grid with
    /// no links.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(width: usize, height: usize) -> TopologyBuilder {
        assert!(width > 0 && height > 0, "grid dimensions must be nonzero");
        TopologyBuilder {
            width,
            height,
            connections: Vec::new(),
        }
    }

    /// Declares a bidirectional link: `from` connects through
    /// `from_port` to `to` (which receives it on the opposite port),
    /// with the given physical length and inter-router crossing count.
    #[must_use]
    pub fn connect(
        mut self,
        from: (usize, usize),
        to: (usize, usize),
        from_port: Port,
        length: Length,
        crossings: usize,
    ) -> TopologyBuilder {
        self.connections.push((
            Coord {
                x: from.0,
                y: from.1,
            },
            Coord { x: to.0, y: to.1 },
            from_port,
            length,
            crossings,
        ));
        self
    }

    /// Validates and builds the topology.
    ///
    /// # Errors
    ///
    /// Returns the first [`TopologyError`]: out-of-range coordinates,
    /// self-links, Local-port links, port conflicts, or lengths that are
    /// NaN, infinite or negative.
    pub fn build(self) -> Result<Topology, TopologyError> {
        let mut topo = Topology::empty(TopologyKind::Custom, self.width, self.height);
        for (a, b, port, length, crossings) in self.connections {
            if port == Port::Local {
                return Err(TopologyError::LocalPort);
            }
            let ta = topo
                .tile_at(a.x, a.y)
                .ok_or(TopologyError::OutOfRange { x: a.x, y: a.y })?;
            let tb = topo
                .tile_at(b.x, b.y)
                .ok_or(TopologyError::OutOfRange { x: b.x, y: b.y })?;
            if ta == tb {
                return Err(TopologyError::SelfLink { tile: ta });
            }
            if !length.is_physical() {
                return Err(TopologyError::BadLength { tile: ta, port });
            }
            if topo.link_from(ta, port).is_some() {
                return Err(TopologyError::PortBusy { tile: ta, port });
            }
            if topo.link_from(tb, port.opposite()).is_some() {
                return Err(TopologyError::PortBusy {
                    tile: tb,
                    port: port.opposite(),
                });
            }
            topo.add_bidirectional(a, b, port, length, crossings);
        }
        Ok(topo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pitch() -> Length {
        Length::from_mm(2.5)
    }

    #[test]
    fn mesh_structure() {
        let m = Topology::mesh(4, 3, pitch());
        assert_eq!(m.tile_count(), 12);
        assert_eq!(m.width(), 4);
        assert_eq!(m.height(), 3);
        // Undirected grid links: horizontal 3·3, vertical 4·2 → 17·2
        // directed.
        assert_eq!(m.links().len(), 34);
        assert_eq!(m.kind(), TopologyKind::Mesh);
        assert!(!m.wraps());
        assert_eq!(m.describe(), "4×3 mesh");
    }

    #[test]
    fn mesh_corner_and_center_degrees() {
        let m = Topology::mesh(3, 3, pitch());
        let corner = m.tile_at(0, 0).unwrap();
        let edge = m.tile_at(1, 0).unwrap();
        let center = m.tile_at(1, 1).unwrap();
        let degree = |t: TileId| {
            [Port::North, Port::East, Port::South, Port::West]
                .into_iter()
                .filter(|&p| m.neighbor(t, p).is_some())
                .count()
        };
        assert_eq!(degree(corner), 2);
        assert_eq!(degree(edge), 3);
        assert_eq!(degree(center), 4);
    }

    #[test]
    fn mesh_neighbors_are_consistent() {
        let m = Topology::mesh(4, 4, pitch());
        for t in m.tiles() {
            for p in [Port::North, Port::East, Port::South, Port::West] {
                if let Some(n) = m.neighbor(t, p) {
                    assert_eq!(
                        m.neighbor(n, p.opposite()),
                        Some(t),
                        "reverse link of {t}→{n} via {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn tile_ids_are_row_major() {
        let m = Topology::mesh(4, 4, pitch());
        assert_eq!(m.tile_at(2, 1), Some(TileId(6)));
        assert_eq!(m.coord(TileId(6)), Coord { x: 2, y: 1 });
        assert_eq!(m.tile_at(4, 0), None);
        assert_eq!(m.tile_at(0, 4), None);
    }

    #[test]
    fn mesh_link_geometry() {
        let m = Topology::mesh(3, 3, pitch());
        for l in m.links() {
            assert_eq!(l.length, pitch());
            assert_eq!(l.crossings, 0);
        }
    }

    #[test]
    fn link_ports_match_direction() {
        let m = Topology::mesh(3, 3, pitch());
        let t = m.tile_at(1, 1).unwrap();
        let east = m.link_from(t, Port::East).unwrap();
        assert_eq!(east.from_port, Port::East);
        assert_eq!(east.to_port, Port::West);
        assert_eq!(m.coord(east.to), Coord { x: 2, y: 1 });
    }

    #[test]
    fn torus_wraps_and_doubles_link_length() {
        let t = Topology::torus(4, 4, pitch());
        assert_eq!(t.tile_count(), 16);
        assert!(t.wraps());
        for tile in t.tiles() {
            for p in [Port::North, Port::East, Port::South, Port::West] {
                assert!(t.neighbor(tile, p).is_some());
            }
        }
        // Wrap-around: east of (3, 0) is (0, 0).
        let east_edge = t.tile_at(3, 0).unwrap();
        assert_eq!(t.neighbor(east_edge, Port::East), t.tile_at(0, 0));
        for l in t.links() {
            assert_eq!(l.length, Length::from_mm(5.0), "folded torus 2×pitch");
        }
        assert_eq!(t.links().len(), 16 * 4);
    }

    #[test]
    #[should_panic(expected = "duplicate links")]
    fn two_wide_torus_is_rejected() {
        let _ = Topology::torus(2, 4, pitch());
    }

    #[test]
    fn ring_structure() {
        let r = Topology::ring(5, pitch());
        assert_eq!(r.tile_count(), 5);
        assert_eq!(r.describe(), "5-tile ring");
        let t0 = TileId(0);
        assert_eq!(r.neighbor(t0, Port::East), Some(TileId(1)));
        assert_eq!(r.neighbor(t0, Port::West), Some(TileId(4)));
        assert_eq!(r.neighbor(t0, Port::North), None);
        assert!(r.wraps());
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_ring_is_rejected() {
        let _ = Topology::ring(2, pitch());
    }

    #[test]
    fn fit_grid_matches_paper_choices() {
        assert_eq!(fit_grid(8), (3, 3)); // PIP on 3×3 (paper §III)
        assert_eq!(fit_grid(12), (4, 3)); // MPEG-4, MWD, 263enc
        assert_eq!(fit_grid(14), (4, 4)); // 263dec mp3dec
        assert_eq!(fit_grid(16), (4, 4)); // VOPD
        assert_eq!(fit_grid(22), (5, 5)); // Wavelet
        assert_eq!(fit_grid(32), (6, 6)); // DVOPD — "the bigger topology"
        assert_eq!(fit_grid(1), (1, 1));
    }

    #[test]
    fn single_tile_mesh_is_degenerate_but_valid() {
        let m = Topology::mesh(1, 1, pitch());
        assert_eq!(m.tile_count(), 1);
        assert!(m.links().is_empty());
    }

    #[test]
    fn builder_constructs_custom_topologies() {
        let t = TopologyBuilder::new(3, 1)
            .connect((0, 0), (1, 0), Port::East, pitch(), 0)
            .connect((1, 0), (2, 0), Port::East, pitch(), 0)
            .build()
            .unwrap();
        assert_eq!(t.kind(), TopologyKind::Custom);
        assert!(!t.wraps());
        assert_eq!(t.describe(), "3×1 custom");
        assert_eq!(t.neighbor(TileId(0), Port::East), Some(TileId(1)));
        assert_eq!(t.neighbor(TileId(1), Port::West), Some(TileId(0)));
    }

    #[test]
    fn builder_supports_express_links_with_crossings() {
        let t = TopologyBuilder::new(3, 1)
            .connect((0, 0), (2, 0), Port::East, pitch() * 2.0, 3)
            .build()
            .unwrap();
        let link = t.link_from(TileId(0), Port::East).unwrap();
        assert_eq!(link.to, TileId(2));
        assert_eq!(link.crossings, 3);
        assert_eq!(link.length, Length::from_mm(5.0));
    }

    #[test]
    fn builder_rejects_out_of_range() {
        let err = TopologyBuilder::new(2, 2)
            .connect((0, 0), (5, 0), Port::East, pitch(), 0)
            .build()
            .unwrap_err();
        assert!(matches!(err, TopologyError::OutOfRange { x: 5, y: 0 }));
    }

    #[test]
    fn builder_rejects_self_links() {
        let err = TopologyBuilder::new(2, 2)
            .connect((1, 1), (1, 1), Port::East, pitch(), 0)
            .build()
            .unwrap_err();
        assert!(matches!(err, TopologyError::SelfLink { .. }));
    }

    #[test]
    fn builder_rejects_port_conflicts() {
        let err = TopologyBuilder::new(3, 1)
            .connect((0, 0), (1, 0), Port::East, pitch(), 0)
            .connect((0, 0), (2, 0), Port::East, pitch(), 0)
            .build()
            .unwrap_err();
        assert!(
            matches!(
                err,
                TopologyError::PortBusy {
                    tile: TileId(0),
                    port: Port::East
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn builder_rejects_local_port_links() {
        let err = TopologyBuilder::new(2, 1)
            .connect((0, 0), (1, 0), Port::Local, pitch(), 0)
            .build()
            .unwrap_err();
        assert_eq!(err, TopologyError::LocalPort);
    }

    #[test]
    fn builder_rejects_lengths_no_waveguide_has() {
        let chain = |first: Length| {
            TopologyBuilder::new(3, 1)
                .connect((0, 0), (1, 0), Port::East, pitch(), 0)
                .connect((1, 0), (2, 0), Port::East, first, 0)
                .build()
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -5.0] {
            let err = chain(Length::from_mm(bad)).unwrap_err();
            assert_eq!(
                err,
                TopologyError::BadLength {
                    tile: TileId(1),
                    port: Port::East
                },
                "{bad} mm"
            );
            assert!(err.to_string().contains("t1"), "{err}");
        }
        let zero = chain(Length::from_mm(0.0)).expect("a zero-length link is allowed");
        assert_eq!(
            zero.link_from(TileId(1), Port::East).unwrap().length,
            Length::ZERO
        );
    }

    #[test]
    fn builtin_layouts_accept_only_physical_pitches() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -5.0] {
            let pitch = Length::from_mm(bad);
            let layouts: [fn(Length) -> Topology; 3] = [
                |p| Topology::mesh(3, 3, p),
                |p| Topology::torus(3, 3, p),
                |p| Topology::ring(4, p),
            ];
            for layout in layouts {
                let panic = std::panic::catch_unwind(|| layout(pitch)).unwrap_err();
                let msg = panic.downcast_ref::<String>().expect("formatted message");
                assert!(msg.contains("tile pitch must be finite"), "{bad} mm: {msg}");
            }
        }
        assert_eq!(Topology::mesh(2, 1, Length::ZERO).links().len(), 2);
    }

    #[test]
    fn error_display() {
        let e = TopologyError::PortBusy {
            tile: TileId(3),
            port: Port::East,
        };
        assert!(e.to_string().contains("t3"));
    }
}
