//! Crossbar-style 5×5 optical routers: the full matrix crossbar and the
//! XY-reduced variant.
//!
//! The **full crossbar** is the canonical baseline in the optical-router
//! literature: five horizontal input waveguides (rows) cross five
//! vertical output waveguides (columns) with a crossing-PSE at every
//! intersection — 25 microrings. Any input can reach any output (except
//! U-turns, which no NoC routing function uses), so it pairs with
//! arbitrary routing algorithms, at the price of more rings and more
//! crossings on every path.
//!
//! The **XY crossbar** keeps the same matrix floorplan but only places
//! rings at the 16 intersections XY dimension-order routing can use; the
//! remaining 9 intersections degrade to plain waveguide crossings. With
//! 16 rings it sits between the full crossbar (25) and Crux (12), which
//! makes the trio a natural router-microarchitecture ablation.
//!
//! ```text
//!            col L   col N   col E   col S   col W
//! row L  ──── ╬ ───── ╬ ───── ╬ ───── ╬ ───── ╬ ──→ (dead end)
//! row N  ──── ╬ ───── ┼ ───── ╬ ───── ╬ ───── ╬ ──→
//! row E  ──── ╬ ───── ╬ ───── ┼ ───── ╬ ───── ╬ ──→
//! row S  ──── ╬ ───── ╬ ───── ╬ ───── ┼ ───── ╬ ──→
//! row W  ──── ╬ ───── ╬ ───── ╬ ───── ╬ ───── ┼ ──→
//!             │       │       │       │       │
//!             ↓       ↓       ↓       ↓       ↓
//!           L out   N out   E out   S out   W out
//! ```
//!
//! (`╬` = CPSE, `┼` = plain crossing; the diagram shows the full
//! crossbar, where only the unusable diagonal is passive.)

use crate::netlist::{NetlistBuilder, PassMode, RouterModel};
use crate::port::{Port, PortPair};

/// Row/column order used by both crossbar variants.
const ORDER: [Port; 5] = [
    Port::Local,
    Port::North,
    Port::East,
    Port::South,
    Port::West,
];

/// XY dimension-order legal connections for a 5-port router.
#[must_use]
pub fn xy_legal_pairs() -> Vec<PortPair> {
    use Port::{East, Local, North, South, West};
    vec![
        PortPair::new(Local, North),
        PortPair::new(Local, East),
        PortPair::new(Local, South),
        PortPair::new(Local, West),
        PortPair::new(North, Local),
        PortPair::new(East, Local),
        PortPair::new(South, Local),
        PortPair::new(West, Local),
        PortPair::new(West, East),
        PortPair::new(West, North),
        PortPair::new(West, South),
        PortPair::new(East, West),
        PortPair::new(East, North),
        PortPair::new(East, South),
        PortPair::new(North, South),
        PortPair::new(South, North),
    ]
}

/// All 20 non-U-turn connections.
#[must_use]
pub fn all_pairs() -> Vec<PortPair> {
    let mut v = Vec::with_capacity(20);
    for i in ORDER {
        for o in ORDER {
            if i != o {
                v.push(PortPair::new(i, o));
            }
        }
    }
    v
}

/// Builds the full 25-ring crossbar router.
///
/// # Examples
///
/// ```
/// use phonoc_router::crossbar::crossbar_router;
/// use phonoc_router::port::{Port, PortPair};
///
/// let xbar = crossbar_router();
/// assert_eq!(xbar.microring_count(), 25);
/// // Unlike Crux, Y→X turns are available:
/// assert!(xbar.supports(PortPair::new(Port::North, Port::East)));
/// ```
#[must_use]
pub fn crossbar_router() -> RouterModel {
    build_matrix("crossbar", &all_pairs(), |_, _| true)
}

/// Builds the 16-ring XY-reduced crossbar router.
///
/// # Examples
///
/// ```
/// use phonoc_router::crossbar::xy_crossbar_router;
/// use phonoc_router::port::{Port, PortPair};
///
/// let r = xy_crossbar_router();
/// assert_eq!(r.microring_count(), 16);
/// assert!(!r.supports(PortPair::new(Port::North, Port::East)));
/// ```
#[must_use]
pub fn xy_crossbar_router() -> RouterModel {
    let legal = xy_legal_pairs();
    build_matrix("xy-crossbar", &legal.clone(), move |i, o| {
        legal.contains(&PortPair::new(i, o))
    })
}

/// Shared matrix-floorplan generator.
///
/// `supported` lists the port pairs to route; `has_ring(row, col)`
/// decides whether the intersection carries a CPSE or a plain crossing.
/// Positions on a supported route's turn point must have a ring — the
/// netlist walk would fail otherwise, so misconfiguration cannot slip
/// through silently.
fn build_matrix(
    name: &str,
    supported: &[PortPair],
    has_ring: impl Fn(Port, Port) -> bool,
) -> RouterModel {
    let mut b = NetlistBuilder::new(name);

    let row_seg = |i: usize, j: usize| format!("r{i}_{j}");
    let col_seg = |j: usize, i: usize| format!("c{j}_{i}");
    let elem_name = |i: usize, j: usize| format!("x{i}{j}");

    for (i, &in_port) in ORDER.iter().enumerate() {
        for (j, &out_port) in ORDER.iter().enumerate() {
            let name = elem_name(i, j);
            let (ri, ro) = (row_seg(i, j), row_seg(i, j + 1));
            let (ci, co) = (col_seg(j, i), col_seg(j, i + 1));
            if has_ring(in_port, out_port) {
                b.cpse(&name, &ri, &ro, &ci, &co);
            } else {
                b.crossing(&name, &ri, &ro, &ci, &co);
            }
        }
    }
    for (i, &p) in ORDER.iter().enumerate() {
        b.bind_input(p, &row_seg(i, 0));
        b.bind_output(p, &col_seg(i, 5));
    }

    for pair in supported {
        let i = ORDER.iter().position(|&p| p == pair.input).unwrap();
        let j = ORDER.iter().position(|&p| p == pair.output).unwrap();
        let mut steps: Vec<(String, PassMode)> = Vec::new();
        // Along row i up to column j: pass OFF (ring) or Cross (plain).
        for (k, &col_port) in ORDER.iter().enumerate().take(j) {
            let mode = if has_ring(pair.input, col_port) {
                PassMode::Off
            } else {
                PassMode::Cross
            };
            steps.push((elem_name(i, k), mode));
        }
        // Turn at (i, j).
        steps.push((elem_name(i, j), PassMode::On));
        // Down column j through the remaining rows.
        for r in (i + 1)..5 {
            steps.push((elem_name(r, j), PassMode::Cross));
        }
        let borrowed: Vec<(&str, PassMode)> = steps.iter().map(|(n, m)| (n.as_str(), *m)).collect();
        b.route(pair.input, pair.output, &borrowed);
    }

    b.build()
        .expect("the built-in crossbar netlists must always validate")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::coupling;
    use phonoc_phys::PhysicalParameters;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn full_crossbar_structure() {
        let r = crossbar_router();
        assert_eq!(r.microring_count(), 25);
        assert_eq!(r.plain_crossing_count(), 0);
        assert_eq!(r.supported_pairs().len(), 20);
    }

    #[test]
    fn xy_crossbar_structure() {
        let r = xy_crossbar_router();
        assert_eq!(r.microring_count(), 16);
        assert_eq!(r.plain_crossing_count(), 9);
        assert_eq!(r.supported_pairs().len(), 16);
    }

    #[test]
    fn every_crossbar_route_uses_exactly_one_on_ring() {
        for r in [crossbar_router(), xy_crossbar_router()] {
            for pair in r.supported_pairs() {
                let t = r.traversal(pair).unwrap();
                let on = t.steps.iter().filter(|s| s.mode == PassMode::On).count();
                assert_eq!(on, 1, "{pair} in {} uses {on} ON rings", r.name());
            }
        }
    }

    #[test]
    fn crossbar_loss_example_matches_hand_computation() {
        // W→E in the full crossbar: row W (index 4) passes columns L and
        // N in OFF mode (−0.045 each), turns ON at column E (−0.5); no
        // rows below row 4, so the total is −0.59 dB.
        let r = crossbar_router();
        let p = PhysicalParameters::default();
        let loss = r
            .traversal_loss(PortPair::new(Port::West, Port::East), &p)
            .unwrap();
        assert!(close(loss.0, -0.59), "got {loss}");
    }

    #[test]
    fn xy_crossbar_replaces_unused_rings_with_cheaper_crossings() {
        // N→S in the XY crossbar passes the plain (N,N) diagonal
        // crossing (−0.04) instead of an OFF ring (−0.045).
        let full = crossbar_router();
        let xy = xy_crossbar_router();
        let p = PhysicalParameters::default();
        let pair = PortPair::new(Port::North, Port::South);
        let lf = full.traversal_loss(pair, &p).unwrap();
        let lx = xy.traversal_loss(pair, &p).unwrap();
        assert!(lx > lf, "XY variant should lose less: {lx} vs {lf}");
    }

    #[test]
    fn crux_beats_crossbar_on_straight_passes() {
        let crux = crate::crux::crux_router();
        let xbar = crossbar_router();
        let p = PhysicalParameters::default();
        for pair in [
            PortPair::new(Port::West, Port::East),
            PortPair::new(Port::North, Port::South),
        ] {
            let lc = crux.traversal_loss(pair, &p).unwrap();
            let lx = xbar.traversal_loss(pair, &p).unwrap();
            assert!(lc > lx, "crux {lc} should beat crossbar {lx} on {pair}");
        }
    }

    #[test]
    fn crossbar_off_passes_leak_into_crossed_columns() {
        // The aggressor W→E OFF-passes element (W, L) and leaks
        // (Kp,off + Kc) into column L, which the victim N→L rides to the
        // local detector. Streams merely sharing a column co-propagate
        // and do NOT add a first-order term.
        let r = crossbar_router();
        let p = PhysicalParameters::default();
        let g = coupling(
            &r,
            PortPair::new(Port::North, Port::Local),
            PortPair::new(Port::West, Port::East),
            &p,
        );
        let expected = 10f64.powf(-20.0 / 10.0) + 10f64.powf(-40.0 / 10.0);
        assert!(close(g.0, expected), "got {}", g.0);

        // Column co-travellers: no first-order interaction.
        let g2 = coupling(
            &r,
            PortPair::new(Port::West, Port::Local),
            PortPair::new(Port::North, Port::Local),
            &p,
        );
        assert_eq!(g2.0, 0.0);
    }

    #[test]
    fn all_pairs_has_no_uturns() {
        let pairs = all_pairs();
        assert_eq!(pairs.len(), 20);
        assert!(pairs.iter().all(|p| p.input != p.output));
    }

    #[test]
    fn xy_legal_pairs_is_consistent_with_crux() {
        let crux = crate::crux::crux_router();
        for pair in xy_legal_pairs() {
            assert!(crux.supports(pair), "crux must support {pair}");
        }
    }
}
