//! Routing algorithms for photonic NoCs.
//!
//! A routing algorithm turns a (source tile, destination tile) pair into
//! a [`NetworkPath`]: the ordered routers traversed, with the input and
//! output port used at each one, plus the physical link geometry between
//! them. The mapping evaluator combines the per-hop port pairs with a
//! router netlist to obtain element-level losses and crosstalk.
//!
//! Built-in algorithms:
//!
//! * [`XyRouting`] — dimension-order routing: resolve X first
//!   (East/West), then Y (North/South). On wrapping topologies it takes
//!   the shorter way around each dimension (classic torus DOR). This is
//!   the algorithm the paper's case studies use.
//! * [`YxRouting`] — Y-before-X variant (extension). Note that YX takes
//!   Y→X turns, which the Crux router does not implement: pairing them
//!   fails loudly in the evaluator, demonstrating the compatibility
//!   validation.
//! * [`RingRouting`] — shortest-way-around routing for ring topologies.
//!
//! # Examples
//!
//! ```
//! use phonoc_route::{RoutingAlgorithm, XyRouting};
//! use phonoc_topo::Topology;
//! use phonoc_phys::Length;
//!
//! let mesh = Topology::mesh(4, 4, Length::from_mm(2.5));
//! let xy = XyRouting;
//! let path = xy
//!     .route(&mesh, mesh.tile_at(0, 0).unwrap(), mesh.tile_at(2, 3).unwrap())
//!     .unwrap();
//! // 2 hops east + 3 hops north → 6 routers traversed.
//! assert_eq!(path.hops.len(), 6);
//! ```

#![warn(missing_docs)]

use phonoc_phys::Length;
use phonoc_router::Port;
use phonoc_topo::{TileId, Topology, TopologyKind};
use std::fmt;

/// One router traversal along a network path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// The tile whose router is traversed.
    pub tile: TileId,
    /// Port the signal enters on ([`Port::Local`] at the source).
    pub input: Port,
    /// Port the signal leaves on ([`Port::Local`] at the destination).
    pub output: Port,
}

/// Geometry of the link between two consecutive hops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSegment {
    /// Physical waveguide length.
    pub length: Length,
    /// Inter-router waveguide crossings along the link.
    pub crossings: usize,
}

/// A source-to-destination route: routers traversed plus the links
/// between them (`links.len() == hops.len() - 1`).
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkPath {
    /// Source tile (signal injected at its Local port).
    pub src: TileId,
    /// Destination tile (signal ejected at its Local port).
    pub dst: TileId,
    /// Ordered router traversals.
    pub hops: Vec<Hop>,
    /// Link geometry between consecutive hops.
    pub links: Vec<LinkSegment>,
}

impl NetworkPath {
    /// Total inter-router waveguide length.
    #[must_use]
    pub fn total_link_length(&self) -> Length {
        self.links.iter().map(|l| l.length).sum()
    }

    /// Total inter-router crossings.
    #[must_use]
    pub fn total_link_crossings(&self) -> usize {
        self.links.iter().map(|l| l.crossings).sum()
    }

    /// Number of routers traversed.
    #[must_use]
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }
}

/// Routing failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoutingError {
    /// Source equals destination; a CG must not contain self-loops.
    SelfRoute {
        /// The offending tile.
        tile: TileId,
    },
    /// The algorithm needed a link that the topology does not provide
    /// (e.g. XY routing on a ring's missing North port).
    MissingLink {
        /// Tile where routing got stuck.
        tile: TileId,
        /// Port it tried to leave through.
        port: Port,
    },
    /// The algorithm does not apply to this topology kind.
    UnsupportedTopology {
        /// Algorithm name.
        algorithm: &'static str,
        /// The offending topology kind.
        kind: TopologyKind,
    },
}

impl fmt::Display for RoutingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingError::SelfRoute { tile } => {
                write!(f, "cannot route from tile {tile} to itself")
            }
            RoutingError::MissingLink { tile, port } => {
                write!(f, "no link out of tile {tile} through port {port}")
            }
            RoutingError::UnsupportedTopology { algorithm, kind } => {
                write!(
                    f,
                    "routing algorithm {algorithm} does not support {kind} topologies"
                )
            }
        }
    }
}

impl std::error::Error for RoutingError {}

/// A deterministic routing function over a topology ([C-OBJECT]: the
/// trait is object-safe so registries can hold `Box<dyn RoutingAlgorithm>`).
pub trait RoutingAlgorithm: fmt::Debug + Send + Sync {
    /// A short identifier such as `"xy"`.
    fn name(&self) -> &'static str;

    /// Computes the route from `src` to `dst`.
    ///
    /// # Errors
    ///
    /// Returns a [`RoutingError`] if `src == dst`, if the topology lacks
    /// a required link, or if the algorithm does not apply to the
    /// topology at all.
    fn route(&self, topo: &Topology, src: TileId, dst: TileId)
        -> Result<NetworkPath, RoutingError>;
}

/// Shared walk: turn a list of outgoing ports into a validated
/// [`NetworkPath`], reading link geometry from the topology.
fn walk(
    topo: &Topology,
    src: TileId,
    dst: TileId,
    ports: &[Port],
) -> Result<NetworkPath, RoutingError> {
    let mut hops = Vec::with_capacity(ports.len() + 1);
    let mut links = Vec::with_capacity(ports.len());
    let mut tile = src;
    let mut input = Port::Local;
    for &port in ports {
        let link = topo
            .link_from(tile, port)
            .ok_or(RoutingError::MissingLink { tile, port })?;
        hops.push(Hop {
            tile,
            input,
            output: port,
        });
        links.push(LinkSegment {
            length: link.length,
            crossings: link.crossings,
        });
        input = link.to_port;
        tile = link.to;
    }
    debug_assert_eq!(tile, dst, "port walk must end at the destination");
    hops.push(Hop {
        tile,
        input,
        output: Port::Local,
    });
    Ok(NetworkPath {
        src,
        dst,
        hops,
        links,
    })
}

/// Steps along one dimension: `(port, count)` choosing the shorter way
/// around when `wrap` is true; ties broken toward the positive direction.
fn dimension_steps(
    from: usize,
    to: usize,
    extent: usize,
    wrap: bool,
    pos: Port,
    neg: Port,
) -> (Port, usize) {
    if to >= from {
        let fwd = to - from;
        if wrap {
            let bwd = from + extent - to;
            if bwd < fwd {
                return (neg, bwd);
            }
        }
        (pos, fwd)
    } else {
        let bwd = from - to;
        if wrap {
            let fwd = to + extent - from;
            if fwd <= bwd {
                return (pos, fwd);
            }
        }
        (neg, bwd)
    }
}

/// XY dimension-order routing (X first, then Y); torus-aware.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XyRouting;

impl RoutingAlgorithm for XyRouting {
    fn name(&self) -> &'static str {
        "xy"
    }

    fn route(
        &self,
        topo: &Topology,
        src: TileId,
        dst: TileId,
    ) -> Result<NetworkPath, RoutingError> {
        if src == dst {
            return Err(RoutingError::SelfRoute { tile: src });
        }
        if topo.kind() == TopologyKind::Ring {
            return Err(RoutingError::UnsupportedTopology {
                algorithm: self.name(),
                kind: topo.kind(),
            });
        }
        let (a, b) = (topo.coord(src), topo.coord(dst));
        let wrap = topo.wraps();
        let (xp, xn) = dimension_steps(a.x, b.x, topo.width(), wrap, Port::East, Port::West);
        let (yp, yn) = dimension_steps(a.y, b.y, topo.height(), wrap, Port::North, Port::South);
        let mut ports = Vec::with_capacity(xn + yn);
        ports.extend(std::iter::repeat_n(xp, xn));
        ports.extend(std::iter::repeat_n(yp, yn));
        walk(topo, src, dst, &ports)
    }
}

/// YX dimension-order routing (Y first, then X); torus-aware. Extension
/// algorithm: requires a router that implements Y→X turns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct YxRouting;

impl RoutingAlgorithm for YxRouting {
    fn name(&self) -> &'static str {
        "yx"
    }

    fn route(
        &self,
        topo: &Topology,
        src: TileId,
        dst: TileId,
    ) -> Result<NetworkPath, RoutingError> {
        if src == dst {
            return Err(RoutingError::SelfRoute { tile: src });
        }
        if topo.kind() == TopologyKind::Ring {
            return Err(RoutingError::UnsupportedTopology {
                algorithm: self.name(),
                kind: topo.kind(),
            });
        }
        let (a, b) = (topo.coord(src), topo.coord(dst));
        let wrap = topo.wraps();
        let (xp, xn) = dimension_steps(a.x, b.x, topo.width(), wrap, Port::East, Port::West);
        let (yp, yn) = dimension_steps(a.y, b.y, topo.height(), wrap, Port::North, Port::South);
        let mut ports = Vec::with_capacity(xn + yn);
        ports.extend(std::iter::repeat_n(yp, yn));
        ports.extend(std::iter::repeat_n(xp, xn));
        walk(topo, src, dst, &ports)
    }
}

/// Shortest-way-around routing for [`TopologyKind::Ring`] topologies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingRouting;

impl RoutingAlgorithm for RingRouting {
    fn name(&self) -> &'static str {
        "ring"
    }

    fn route(
        &self,
        topo: &Topology,
        src: TileId,
        dst: TileId,
    ) -> Result<NetworkPath, RoutingError> {
        if src == dst {
            return Err(RoutingError::SelfRoute { tile: src });
        }
        if topo.kind() != TopologyKind::Ring {
            return Err(RoutingError::UnsupportedTopology {
                algorithm: self.name(),
                kind: topo.kind(),
            });
        }
        let (a, b) = (topo.coord(src), topo.coord(dst));
        let (port, n) = dimension_steps(a.x, b.x, topo.width(), true, Port::East, Port::West);
        let ports = vec![port; n];
        walk(topo, src, dst, &ports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pitch() -> Length {
        Length::from_mm(2.5)
    }

    fn mesh4() -> Topology {
        Topology::mesh(4, 4, pitch())
    }

    /// Structural validity: hops/links alternate correctly and every
    /// transition uses a real topology link with matching ports.
    fn assert_valid(topo: &Topology, p: &NetworkPath) {
        assert_eq!(p.links.len() + 1, p.hops.len());
        assert_eq!(p.hops.first().unwrap().tile, p.src);
        assert_eq!(p.hops.last().unwrap().tile, p.dst);
        assert_eq!(p.hops.first().unwrap().input, Port::Local);
        assert_eq!(p.hops.last().unwrap().output, Port::Local);
        for w in p.hops.windows(2) {
            let (h1, h2) = (w[0], w[1]);
            let link = topo.link_from(h1.tile, h1.output).expect("link exists");
            assert_eq!(link.to, h2.tile);
            assert_eq!(link.to_port, h2.input);
        }
    }

    #[test]
    fn xy_straight_line_east() {
        let m = mesh4();
        let p = XyRouting
            .route(&m, m.tile_at(0, 1).unwrap(), m.tile_at(3, 1).unwrap())
            .unwrap();
        assert_valid(&m, &p);
        assert_eq!(p.hop_count(), 4);
        assert!(p.hops[1..3]
            .iter()
            .all(|h| h.input == Port::West && h.output == Port::East));
    }

    #[test]
    fn xy_goes_x_first() {
        let m = mesh4();
        let p = XyRouting
            .route(&m, m.tile_at(0, 0).unwrap(), m.tile_at(2, 2).unwrap())
            .unwrap();
        assert_valid(&m, &p);
        // Outgoing ports: E, E, N, N, then eject.
        let ports: Vec<Port> = p.hops.iter().map(|h| h.output).collect();
        assert_eq!(
            ports,
            vec![
                Port::East,
                Port::East,
                Port::North,
                Port::North,
                Port::Local
            ]
        );
    }

    #[test]
    fn yx_goes_y_first() {
        let m = mesh4();
        let p = YxRouting
            .route(&m, m.tile_at(0, 0).unwrap(), m.tile_at(2, 2).unwrap())
            .unwrap();
        assert_valid(&m, &p);
        let ports: Vec<Port> = p.hops.iter().map(|h| h.output).collect();
        assert_eq!(
            ports,
            vec![
                Port::North,
                Port::North,
                Port::East,
                Port::East,
                Port::Local
            ]
        );
    }

    #[test]
    fn xy_is_minimal_on_mesh() {
        let m = mesh4();
        for s in m.tiles() {
            for d in m.tiles() {
                if s == d {
                    continue;
                }
                let p = XyRouting.route(&m, s, d).unwrap();
                assert_valid(&m, &p);
                let (cs, cd) = (m.coord(s), m.coord(d));
                let manhattan = cs.x.abs_diff(cd.x) + cs.y.abs_diff(cd.y);
                assert_eq!(p.hop_count(), manhattan + 1);
            }
        }
    }

    #[test]
    fn self_route_is_rejected() {
        let m = mesh4();
        let t = m.tile_at(1, 1).unwrap();
        let err = XyRouting.route(&m, t, t).unwrap_err();
        assert!(matches!(err, RoutingError::SelfRoute { .. }));
    }

    #[test]
    fn torus_takes_the_short_way_around() {
        let t = Topology::torus(5, 5, pitch());
        // From (0,0) to (4,0): wrap west (1 hop) beats east (4 hops).
        let p = XyRouting
            .route(&t, t.tile_at(0, 0).unwrap(), t.tile_at(4, 0).unwrap())
            .unwrap();
        assert_valid(&t, &p);
        assert_eq!(p.hop_count(), 2);
        assert_eq!(p.hops[0].output, Port::West);
    }

    #[test]
    fn torus_tie_prefers_positive_direction() {
        let t = Topology::torus(4, 4, pitch());
        // (0,0) → (2,0): distance 2 both ways; prefer East.
        let p = XyRouting
            .route(&t, t.tile_at(0, 0).unwrap(), t.tile_at(2, 0).unwrap())
            .unwrap();
        assert_eq!(p.hops[0].output, Port::East);
        assert_eq!(p.hop_count(), 3);
    }

    #[test]
    fn torus_paths_never_exceed_half_extent() {
        let t = Topology::torus(6, 6, pitch());
        for s in t.tiles() {
            for d in t.tiles() {
                if s == d {
                    continue;
                }
                let p = XyRouting.route(&t, s, d).unwrap();
                assert_valid(&t, &p);
                assert!(p.hop_count() <= 3 + 3 + 1, "path too long: {p:?}");
            }
        }
    }

    #[test]
    fn ring_routing_picks_shorter_arc() {
        let r = Topology::ring(6, pitch());
        let p = RingRouting.route(&r, TileId(0), TileId(4)).unwrap();
        assert_valid(&r, &p);
        assert_eq!(p.hop_count(), 3); // west 2 hops beats east 4 hops
        assert_eq!(p.hops[0].output, Port::West);
    }

    #[test]
    fn ring_rejects_grids_and_xy_rejects_rings() {
        let r = Topology::ring(5, pitch());
        let m = mesh4();
        assert!(matches!(
            XyRouting.route(&r, TileId(0), TileId(2)),
            Err(RoutingError::UnsupportedTopology { .. })
        ));
        assert!(matches!(
            RingRouting.route(&m, TileId(0), TileId(2)),
            Err(RoutingError::UnsupportedTopology { .. })
        ));
    }

    #[test]
    fn path_geometry_accumulates() {
        let m = mesh4();
        let p = XyRouting
            .route(&m, m.tile_at(0, 0).unwrap(), m.tile_at(3, 2).unwrap())
            .unwrap();
        assert_eq!(p.links.len(), 5);
        assert!((p.total_link_length().as_mm() - 12.5).abs() < 1e-9);
        assert_eq!(p.total_link_crossings(), 0);
    }

    #[test]
    fn error_display() {
        let e = RoutingError::MissingLink {
            tile: TileId(3),
            port: Port::North,
        };
        assert!(e.to_string().contains("t3"));
        assert!(e.to_string().contains('N'));
    }
}
