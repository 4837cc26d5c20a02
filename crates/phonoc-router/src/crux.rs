//! Crux-like 5×5 optical router (reconstruction).
//!
//! The paper's case studies use the **Crux** optical router
//! (Xie et al., DAC 2010): a 5-port router optimized for XY
//! dimension-order routing — it omits the Y→X turns that XY routing never
//! takes, bringing the microring count down to 12 (versus 25 for a full
//! crossbar). The original mask-level figure is not reproduced in the
//! PhoNoCMap paper, so this module *reconstructs* a Crux-class netlist
//! with the same port capabilities, the same 12-ring budget, and the same
//! qualitative loss/crosstalk behaviour, calibrated against the paper's
//! observable results (straight passes ≈ −0.17 dB, turns/injection/
//! ejection dominated by one ON resonance, best-case SNR limited by
//! waveguide-crossing crosstalk at ≈ −40 dB).
//!
//! # Reconstructed layout
//!
//! Four through-waveguides (one per direction) and one injection
//! waveguide; `╬` marks a crossing-PSE. Ejection uses one dedicated
//! drop tap per input port (`ej_*`), each feeding its own photodetector
//! stub (`l_w`, `l_e`, `l_n`, `l_s`) — multi-detector ejection is a
//! standard trick to keep tap leakage out of the other receive paths,
//! and it is what the paper's best-case SNR values imply.
//!
//! ```text
//!                         N-out         N-in
//!                           ↑             │
//!   inj ────────────────[inj_n]        [ej_n]→ l_n
//!                           │             │
//!   inj ─────[inj_s]────────┼──────────┐  │
//!   E-in →[ej_e]→[turn_en]──┼──[turn_es]┼──┼──[inj_w]→ W-out     (wg2)
//!     └→ l_e                │           │  │
//!   W-in →[ej_w]→[inj_e]──[turn_ws]──[turn_wn]─────────→ E-out   (wg1)
//!     └→ l_w                │           │  │
//!                           ↓           ↑  ↓
//!                         S-out        S-in (wg4: [ej_s]→ l_s)
//!                        (wg3)
//! ```
//!
//! Microrings (12): four ejection taps (`ej_w/e/n/s`), four injection
//! rings (`inj_e/w/s/n`), four XY-turn rings (`turn_ws/wn/es/en`).
//!
//! # Supported connections (16)
//!
//! All XY-legal pairs: `L→{N,E,S,W}`, `{N,E,S,W}→L`, `W→{E,N,S}`,
//! `E→{W,N,S}`, `N→S`, `S→N`. Y→X turns (`N→E` etc.) are rejected, so
//! pairing this router with a YX routing algorithm fails loudly at
//! path-construction time.

use crate::netlist::{NetlistBuilder, PassMode, RouterModel};
use crate::port::Port;

/// Builds the Crux-like router netlist.
///
/// # Examples
///
/// ```
/// use phonoc_router::crux::crux_router;
/// use phonoc_router::port::{Port, PortPair};
///
/// let crux = crux_router();
/// assert_eq!(crux.microring_count(), 12);
/// assert!(crux.supports(PortPair::new(Port::West, Port::North)));
/// assert!(!crux.supports(PortPair::new(Port::North, Port::East))); // Y→X
/// ```
#[must_use]
pub fn crux_router() -> RouterModel {
    use PassMode::{Cross, Off, On};
    let mut b = NetlistBuilder::new("crux");

    // wg1 (W→E): w_in →[ej_w]→ w1 →[inj_e ×]→ w2 →[turn_ws]→ w3
    //            →[turn_wn]→ w_out
    // wg2 (E→W): e_in →[ej_e]→ e1 →[turn_en]→ e2 →[turn_es]→ e3
    //            →[inj_w ×]→ e_out
    // wg3 (N→S): n_in →[ej_n]→ n1 →[inj_s ×]→ n2 →[turn_es ×]→ n3
    //            →[turn_ws ×]→ n_out
    // wg4 (S→N): s_in →[ej_s]→ s1 →[turn_wn ×]→ s2 →[turn_en ×]→ s3
    //            →[inj_n ×]→ s_out
    // injection: l_in →[inj_e]→ inj1 →[inj_w]→ inj2 →[inj_s]→ inj3
    //            →[inj_n]→ inj4 (dead end)
    // ejection:  dedicated drop stubs l_w / l_e / l_n / l_s, one per tap.
    b.cpse("ej_w", "w_in", "w1", "ejw_stub", "lw0");
    b.cpse("ej_e", "e_in", "e1", "eje_stub", "le0");
    b.cpse("ej_n", "n_in", "n1", "ejn_stub", "ln0");
    b.cpse("ej_s", "s_in", "s1", "ejs_stub", "ls0");
    // The injection trunk physically crosses the four detector drop
    // stubs on its way out of the tile: one plain crossing each. These
    // are the residual-noise floor of the router — a tile that both
    // sends and receives sees exactly one Kc (−40 dB) event, which is
    // the ≈38–40 dB best-case SNR plateau of the paper's Table II.
    b.crossing("x_w", "l_in", "li1", "lw0", "l_w");
    b.crossing("x_e", "li1", "li2", "le0", "l_e");
    b.crossing("x_n", "li2", "li3", "ln0", "l_n");
    b.crossing("x_s", "li3", "li4", "ls0", "l_s");
    b.cpse("inj_e", "li4", "inj1", "w1", "w2");
    b.cpse("inj_w", "inj1", "inj2", "e3", "e_out");
    b.cpse("inj_s", "inj2", "inj3", "n1", "n2");
    b.cpse("inj_n", "inj3", "inj4", "s3", "s_out");
    b.cpse("turn_ws", "w2", "w3", "n3", "n_out");
    b.cpse("turn_wn", "w3", "w_out", "s1", "s2");
    b.cpse("turn_es", "e2", "e3", "n2", "n3");
    b.cpse("turn_en", "e1", "e2", "s2", "s3");

    b.bind_input(Port::West, "w_in");
    b.bind_output(Port::East, "w_out");
    b.bind_input(Port::East, "e_in");
    b.bind_output(Port::West, "e_out");
    b.bind_input(Port::North, "n_in");
    b.bind_output(Port::South, "n_out");
    b.bind_input(Port::South, "s_in");
    b.bind_output(Port::North, "s_out");
    b.bind_input(Port::Local, "l_in");
    // The four detector stubs are electrically one Local port; the walk
    // accepts any of them as the Local terminal.
    b.bind_output_set(Port::Local, &["l_w", "l_e", "l_n", "l_s"]);

    // X-dimension straights.
    b.route(
        Port::West,
        Port::East,
        &[
            ("ej_w", Off),
            ("inj_e", Cross),
            ("turn_ws", Off),
            ("turn_wn", Off),
        ],
    );
    b.route(
        Port::East,
        Port::West,
        &[
            ("ej_e", Off),
            ("turn_en", Off),
            ("turn_es", Off),
            ("inj_w", Cross),
        ],
    );
    // Y-dimension straights.
    b.route(
        Port::North,
        Port::South,
        &[
            ("ej_n", Off),
            ("inj_s", Cross),
            ("turn_es", Cross),
            ("turn_ws", Cross),
        ],
    );
    b.route(
        Port::South,
        Port::North,
        &[
            ("ej_s", Off),
            ("turn_wn", Cross),
            ("turn_en", Cross),
            ("inj_n", Cross),
        ],
    );
    // X→Y turns.
    b.route(
        Port::West,
        Port::North,
        &[
            ("ej_w", Off),
            ("inj_e", Cross),
            ("turn_ws", Off),
            ("turn_wn", On),
            ("turn_en", Cross),
            ("inj_n", Cross),
        ],
    );
    b.route(
        Port::West,
        Port::South,
        &[("ej_w", Off), ("inj_e", Cross), ("turn_ws", On)],
    );
    b.route(
        Port::East,
        Port::North,
        &[("ej_e", Off), ("turn_en", On), ("inj_n", Cross)],
    );
    b.route(
        Port::East,
        Port::South,
        &[
            ("ej_e", Off),
            ("turn_en", Off),
            ("turn_es", On),
            ("turn_ws", Cross),
        ],
    );
    // Injection: out through the drop-stub crossings, then the ring
    // chain.
    b.route(
        Port::Local,
        Port::East,
        &[
            ("x_w", Cross),
            ("x_e", Cross),
            ("x_n", Cross),
            ("x_s", Cross),
            ("inj_e", On),
            ("turn_ws", Off),
            ("turn_wn", Off),
        ],
    );
    b.route(
        Port::Local,
        Port::West,
        &[
            ("x_w", Cross),
            ("x_e", Cross),
            ("x_n", Cross),
            ("x_s", Cross),
            ("inj_e", Off),
            ("inj_w", On),
        ],
    );
    b.route(
        Port::Local,
        Port::South,
        &[
            ("x_w", Cross),
            ("x_e", Cross),
            ("x_n", Cross),
            ("x_s", Cross),
            ("inj_e", Off),
            ("inj_w", Off),
            ("inj_s", On),
            ("turn_es", Cross),
            ("turn_ws", Cross),
        ],
    );
    b.route(
        Port::Local,
        Port::North,
        &[
            ("x_w", Cross),
            ("x_e", Cross),
            ("x_n", Cross),
            ("x_s", Cross),
            ("inj_e", Off),
            ("inj_w", Off),
            ("inj_s", Off),
            ("inj_n", On),
        ],
    );
    // Ejection: one ON tap, then across the injection trunk to the
    // dedicated detector.
    b.route(Port::West, Port::Local, &[("ej_w", On), ("x_w", Cross)]);
    b.route(Port::East, Port::Local, &[("ej_e", On), ("x_e", Cross)]);
    b.route(Port::North, Port::Local, &[("ej_n", On), ("x_n", Cross)]);
    b.route(Port::South, Port::Local, &[("ej_s", On), ("x_s", Cross)]);

    b.build()
        .expect("the built-in Crux netlist must always validate")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::coupling;
    use crate::port::PortPair;
    use phonoc_phys::PhysicalParameters;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn crux_structure() {
        let r = crux_router();
        assert_eq!(r.microring_count(), 12, "Crux uses 12 microrings");
        assert_eq!(
            r.plain_crossing_count(),
            4,
            "injection × drop-stub crossings"
        );
        assert_eq!(r.supported_pairs().len(), 16);
    }

    #[test]
    fn crux_supports_exactly_the_xy_legal_pairs() {
        let r = crux_router();
        use Port::{East, Local, North, South, West};
        let legal = [
            (Local, North),
            (Local, East),
            (Local, South),
            (Local, West),
            (North, Local),
            (East, Local),
            (South, Local),
            (West, Local),
            (West, East),
            (West, North),
            (West, South),
            (East, West),
            (East, North),
            (East, South),
            (North, South),
            (South, North),
        ];
        for (i, o) in legal {
            assert!(r.supports(PortPair::new(i, o)), "missing {i}→{o}");
        }
        for (i, o) in [
            (North, East),
            (North, West),
            (South, East),
            (South, West),
            (North, North),
            (Local, Local),
        ] {
            assert!(!r.supports(PortPair::new(i, o)), "unexpected {i}→{o}");
        }
    }

    #[test]
    fn straight_passes_are_cheap_turns_are_expensive() {
        let r = crux_router();
        let p = PhysicalParameters::default();
        let loss = |i, o| r.traversal_loss(PortPair::new(i, o), &p).unwrap().0;
        use Port::{East, North, South, West};
        // Hand-computed from the layout (see module docs).
        assert!(close(loss(West, East), -0.175));
        assert!(close(loss(East, West), -0.175));
        assert!(close(loss(North, South), -0.165));
        assert!(close(loss(South, North), -0.165));
        assert!(close(loss(West, North), -0.71));
        assert!(close(loss(West, South), -0.585));
        assert!(close(loss(East, North), -0.585));
        assert!(close(loss(East, South), -0.63));
        for (i, o) in [(West, East), (East, West), (North, South), (South, North)] {
            for (ti, to) in [(West, North), (West, South), (East, North), (East, South)] {
                assert!(
                    loss(i, o) > loss(ti, to),
                    "straight {i}→{o} must lose less than turn {ti}→{to}"
                );
            }
        }
    }

    #[test]
    fn injection_ejection_losses() {
        let r = crux_router();
        let p = PhysicalParameters::default();
        let loss = |i, o| r.traversal_loss(PortPair::new(i, o), &p).unwrap().0;
        use Port::{East, Local, North, South, West};
        assert!(close(loss(Local, East), -0.75));
        assert!(close(loss(Local, West), -0.705));
        assert!(close(loss(Local, South), -0.83));
        assert!(close(loss(Local, North), -0.795));
        // Dedicated drops: one ON resonance plus the injection-trunk
        // crossing.
        for port in [West, East, North, South] {
            assert!(close(loss(port, Local), -0.54));
        }
    }

    #[test]
    fn perpendicular_streams_interact_via_crossing_leak() {
        // N→S traffic cross-passes turn_ws and leaks Kc onto wg1, which
        // W→E traffic occupies.
        let r = crux_router();
        let p = PhysicalParameters::default();
        let g = coupling(
            &r,
            PortPair::new(Port::West, Port::East),
            PortPair::new(Port::North, Port::South),
            &p,
        );
        assert!(close(g.0, 10f64.powf(-40.0 / 10.0)), "got {}", g.0);
    }

    #[test]
    fn through_traffic_off_leak_hits_crossing_victims() {
        // W→E OFF-passes turn_ws, whose drop output is the S exit used
        // by N→S traffic: a (Kp,off + Kc) event — the dominant noise
        // term for dense mappings (paper's DVOPD row).
        let r = crux_router();
        let p = PhysicalParameters::default();
        let g = coupling(
            &r,
            PortPair::new(Port::North, Port::South),
            PortPair::new(Port::West, Port::East),
            &p,
        );
        let expected = 10f64.powf(-20.0 / 10.0) + 10f64.powf(-40.0 / 10.0);
        assert!(close(g.0, expected), "got {}", g.0);
    }

    #[test]
    fn parallel_streams_do_not_interact() {
        let r = crux_router();
        let p = PhysicalParameters::default();
        let g = coupling(
            &r,
            PortPair::new(Port::West, Port::East),
            PortPair::new(Port::East, Port::West),
            &p,
        );
        assert_eq!(g.0, 0.0);
    }

    #[test]
    fn dedicated_drops_isolate_the_local_detectors() {
        // E→W through traffic OFF-passes the ej_e tap; the leak falls on
        // the l_e detector stub. A victim being received from the West
        // (W→L, detector l_w) is unaffected — the multi-detector
        // ejection keeps receive paths clean, which is what lets
        // optimized mappings reach the ≈38–40 dB SNR plateau of the
        // paper's Table II.
        let r = crux_router();
        let p = PhysicalParameters::default();
        let g = coupling(
            &r,
            PortPair::new(Port::West, Port::Local),
            PortPair::new(Port::East, Port::West),
            &p,
        );
        assert_eq!(g.0, 0.0);
        // Same-input exclusion covers the tap's own through traffic.
        let g2 = coupling(
            &r,
            PortPair::new(Port::East, Port::Local),
            PortPair::new(Port::East, Port::West),
            &p,
        );
        assert_eq!(g2.0, 0.0);
    }

    #[test]
    fn injection_residue_terminates_in_the_dead_end() {
        // L→E turns onto wg1 at inj_e; its Kp,on residue stays on the
        // injection waveguide, which dead-ends after inj_n — no
        // supported connection traverses those segments, so nobody can
        // collect a −25 dB event from an injection. What other flows may
        // hear from L→E are only the OFF-pass leaks of the wg1 turn
        // rings it passes (−20 dB class, into the S exit via turn_ws and
        // into wg4 via turn_wn).
        let r = crux_router();
        let p = PhysicalParameters::default();
        let kpon = 10f64.powf(-25.0 / 10.0);
        let aggressor = PortPair::new(Port::Local, Port::East);
        for victim in r.supported_pairs() {
            let g = coupling(&r, victim, aggressor, &p);
            assert!(
                (g.0 - kpon).abs() > 1e-6,
                "{victim} collects a bare Kp,on residue from L→E"
            );
        }
        // Disjoint-waveguide victim: completely clean.
        let g = coupling(&r, PortPair::new(Port::East, Port::West), aggressor, &p);
        assert_eq!(g.0, 0.0);
        // Victim exiting South picks up the documented turn_ws OFF leak.
        let g = coupling(&r, PortPair::new(Port::North, Port::South), aggressor, &p);
        let expected = 10f64.powf(-20.0 / 10.0) + 10f64.powf(-40.0 / 10.0);
        assert!((g.0 - expected).abs() < 1e-9, "got {}", g.0);
    }
}
