//! Interned score tables: one table per architecture per process.
//!
//! [`Evaluator::new`](phonoc_core::Evaluator::new) shares the live
//! [`ScoreTables`] built from the same routed dB image, so:
//!
//! * problems with different CGs on one architecture hold one table,
//!   and it scores every mapping bit for bit as a fresh build does;
//! * anything that changes a table bit (topology kind, router, a
//!   routing that routes differently under the builtin's name, a loss
//!   coefficient, one link's length) keeps tables apart, while
//!   parameters no score reads (laser power) do not;
//! * concurrent builds of one architecture end with one table, and a
//!   table dies with the last problem holding it.
//!
//! The interner is process-wide, so every test serializes on one mutex
//! and drops its problems before releasing it.

use phonoc_apps::{CgBuilder, CommunicationGraph};
use phonoc_core::{EvalScratch, Mapping, MappingProblem, Objective, ScoreTables};
use phonoc_phys::{Db, Dbm, Length, PhysicalParameters};
use phonoc_route::{
    Hop, LinkSegment, NetworkPath, RoutingAlgorithm, RoutingError, XyRouting, YxRouting,
};
use phonoc_router::crossbar::crossbar_router;
use phonoc_router::crux::crux_router;
use phonoc_router::{Port, RouterModel};
use phonoc_topo::{TileId, Topology, TopologyBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Barrier, Mutex, MutexGuard};

static INTERNER_LOCK: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    INTERNER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn pitch() -> Length {
    Length::from_mm(2.5)
}

/// A three-task chain `a → b → c`, plus `c → a` when `closed`.
fn cg(closed: bool) -> CommunicationGraph {
    let mut b = CgBuilder::new(if closed { "ring" } else { "chain" })
        .tasks(["a", "b", "c"])
        .edge("a", "b", 100.0)
        .edge("b", "c", 200.0);
    if closed {
        b = b.edge("c", "a", 50.0);
    }
    b.build().unwrap()
}

fn problem(
    cg: CommunicationGraph,
    topo: Topology,
    router: RouterModel,
    routing: Box<dyn RoutingAlgorithm>,
    params: PhysicalParameters,
    objective: Objective,
) -> MappingProblem {
    MappingProblem::new(cg, topo, router, routing, params, objective).unwrap()
}

/// The open chain on a crux 3×3 mesh under XY and Table I.
fn on_mesh(cg: CommunicationGraph, objective: Objective) -> MappingProblem {
    problem(
        cg,
        Topology::mesh(3, 3, pitch()),
        crux_router(),
        Box::new(XyRouting),
        PhysicalParameters::default(),
        objective,
    )
}

fn tables(p: &MappingProblem) -> &ScoreTables {
    p.evaluator().tables()
}

#[test]
fn problems_on_one_architecture_share_one_table() {
    let _lock = serialize();
    let chain = on_mesh(cg(false), Objective::MaximizeWorstCaseSnr);
    let ring = on_mesh(cg(true), Objective::MinimizeWorstCaseLoss);
    assert_ne!(chain.cg().edges().len(), ring.cg().edges().len());
    assert!(tables(&chain) == tables(&ring));
    assert_eq!(tables(&chain).fingerprint(), tables(&ring).fingerprint());
    assert_eq!(ScoreTables::live(), 1);
}

/// Per mapping: `problem.evaluate`'s score and every metric bit, then
/// the evaluator's summary and scratch metrics.
fn score_bits(p: &MappingProblem, mappings: &[Mapping]) -> Vec<Vec<u64>> {
    let mut scratch = EvalScratch::default();
    mappings
        .iter()
        .map(|m| {
            let (metrics, score) = p.evaluate(m);
            let summary = p.evaluator().evaluate_into(m, None, &mut scratch);
            let mut bits = vec![
                score.to_bits(),
                summary.worst_case_il.0.to_bits(),
                summary.worst_case_snr.0.to_bits(),
            ];
            for metrics in [metrics, scratch.to_metrics()] {
                bits.push(metrics.worst_case_il.0.to_bits());
                bits.push(metrics.worst_case_snr.0.to_bits());
                for e in &metrics.edges {
                    bits.push(e.edge as u64);
                    bits.push(e.insertion_loss.0.to_bits());
                    bits.push(e.snr.0.to_bits());
                }
            }
            bits
        })
        .collect()
}

#[test]
fn an_interned_table_scores_like_a_fresh_one() {
    let _lock = serialize();
    let mut rng = StdRng::seed_from_u64(0x1A7E);
    let mappings: Vec<Mapping> = (0..200).map(|_| Mapping::random(3, 9, &mut rng)).collect();
    for objective in [
        Objective::MaximizeWorstCaseSnr,
        Objective::MinimizeWorstCaseLoss,
    ] {
        // The ring's problem shares the table the chain's built.
        let chain = on_mesh(cg(false), objective);
        let interned = on_mesh(cg(true), objective);
        assert!(tables(&chain) == tables(&interned));
        let shared = score_bits(&interned, &mappings);
        drop((chain, interned));
        assert_eq!(ScoreTables::live(), 0);

        // With every handle gone, the same problem builds afresh.
        let fresh = on_mesh(cg(true), objective);
        assert_eq!(ScoreTables::live(), 1);
        assert_eq!(score_bits(&fresh, &mappings), shared, "{objective:?}");
    }
}

/// YX routing under the builtin XY's name.
#[derive(Debug)]
struct CallsItselfXy;

impl RoutingAlgorithm for CallsItselfXy {
    fn name(&self) -> &'static str {
        "xy"
    }

    fn route(
        &self,
        topo: &Topology,
        src: TileId,
        dst: TileId,
    ) -> Result<NetworkPath, RoutingError> {
        YxRouting.route(topo, src, dst)
    }
}

/// XY routing, except that `0 → 2` on a 4-wide torus goes round the
/// other way: as many hops and links of the same length, through the
/// mirrored ports, but across tile 3 instead of tile 1 (or the reverse).
#[derive(Debug)]
struct OtherWayRound;

impl RoutingAlgorithm for OtherWayRound {
    fn name(&self) -> &'static str {
        "xy"
    }

    fn route(
        &self,
        topo: &Topology,
        src: TileId,
        dst: TileId,
    ) -> Result<NetworkPath, RoutingError> {
        let xy = XyRouting.route(topo, src, dst)?;
        if (src, dst) != (TileId(0), TileId(2)) {
            return Ok(xy);
        }
        let out = if xy.hops[0].output == Port::East {
            Port::West
        } else {
            Port::East
        };
        let (mut hops, mut links) = (Vec::new(), Vec::new());
        let (mut tile, mut input) = (src, Port::Local);
        for _ in 0..2 {
            let link = topo.link_from(tile, out).expect("torus link");
            hops.push(Hop {
                tile,
                input,
                output: out,
            });
            links.push(LinkSegment {
                length: link.length,
                crossings: link.crossings,
            });
            (tile, input) = (link.to, link.to_port);
        }
        assert_eq!(tile, dst);
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
}

/// A 3×1 chain laid link by link: the 3×1 mesh when `second` is the
/// pitch.
fn chain_topology(second: Length) -> Topology {
    TopologyBuilder::new(3, 1)
        .connect((0, 0), (1, 0), Port::East, pitch(), 0)
        .connect((1, 0), (2, 0), Port::East, second, 0)
        .build()
        .unwrap()
}

#[test]
fn only_equal_images_share() {
    let _lock = serialize();
    let table1 = PhysicalParameters::default;
    let snr = Objective::MaximizeWorstCaseSnr;
    let build = |topo: Topology,
                 router: RouterModel,
                 routing: Box<dyn RoutingAlgorithm>,
                 params: PhysicalParameters| {
        problem(cg(false), topo, router, routing, params, snr)
    };
    let xy = || Box::new(XyRouting) as Box<dyn RoutingAlgorithm>;
    let mesh3 = || Topology::mesh(3, 3, pitch());
    let pairs = [
        (
            "mesh vs torus",
            build(mesh3(), crux_router(), xy(), table1()),
            build(
                Topology::torus(3, 3, pitch()),
                crux_router(),
                xy(),
                table1(),
            ),
        ),
        (
            "crux vs crossbar",
            build(mesh3(), crux_router(), xy(), table1()),
            build(mesh3(), crossbar_router(), xy(), table1()),
        ),
        (
            "builtin xy vs a YX routing named xy",
            build(mesh3(), crossbar_router(), xy(), table1()),
            build(
                mesh3(),
                crossbar_router(),
                Box::new(CallsItselfXy),
                table1(),
            ),
        ),
        (
            "crossing loss",
            build(mesh3(), crux_router(), xy(), table1()),
            build(
                mesh3(),
                crux_router(),
                xy(),
                PhysicalParameters::builder()
                    .crossing_loss(Db(-0.05))
                    .build(),
            ),
        ),
        (
            "one link length",
            build(chain_topology(pitch()), crux_router(), xy(), table1()),
            build(chain_topology(pitch() * 2.0), crux_router(), xy(), table1()),
        ),
    ];
    for (what, a, b) in &pairs {
        assert!(tables(a) != tables(b), "{what}");
    }

    // Routes that differ only in the tiles they cross: with every loss
    // coefficient at 0 dB, every path loss and prefix is 0 dB, so only
    // the hops tell the tables apart.
    let lossless = || {
        PhysicalParameters::builder()
            .crossing_loss(Db(0.0))
            .propagation_loss_per_cm(Db(0.0))
            .ppse_off_loss(Db(0.0))
            .ppse_on_loss(Db(0.0))
            .cpse_off_loss(Db(0.0))
            .cpse_on_loss(Db(0.0))
            .build()
    };
    let torus4 = || Topology::torus(4, 4, pitch());
    let xy_round = build(torus4(), crossbar_router(), xy(), lossless());
    let other_round = build(
        torus4(),
        crossbar_router(),
        Box::new(OtherWayRound),
        lossless(),
    );
    let (a, b) = (xy_round.evaluator(), other_round.evaluator());
    for s in 0..16 {
        for d in 0..16 {
            assert_eq!(a.path_loss(s, d), b.path_loss(s, d), "{s} -> {d}");
            assert_eq!(a.path_hops(s, d), b.path_hops(s, d), "{s} -> {d}");
        }
    }
    assert!(
        tables(&xy_round) != tables(&other_round),
        "the tiles crossed"
    );

    // A laser power no score reads shares; so does the 3×1 mesh with
    // the chain that lays its links.
    let louder = build(
        mesh3(),
        crux_router(),
        xy(),
        PhysicalParameters::builder().laser_power(Dbm(3.0)).build(),
    );
    assert!(tables(&louder) == tables(&pairs[0].1), "laser power");
    let mesh31 = build(Topology::mesh(3, 1, pitch()), crux_router(), xy(), table1());
    assert!(tables(&mesh31) == tables(&pairs[4].1), "3×1 mesh vs chain");
}

#[test]
fn concurrent_builds_end_with_one_table() {
    let _lock = serialize();
    // An 8×8 build takes long enough that threads released together
    // all miss and build; the check before registering must still
    // leave one table.
    let on_8x8 = |closed: bool| {
        problem(
            cg(closed),
            Topology::mesh(8, 8, pitch()),
            crux_router(),
            Box::new(XyRouting),
            PhysicalParameters::default(),
            Objective::MaximizeWorstCaseSnr,
        )
    };
    for _ in 0..8 {
        let start = Barrier::new(4);
        let problems: Vec<MappingProblem> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let (start, on_8x8) = (&start, &on_8x8);
                    s.spawn(move || {
                        start.wait();
                        on_8x8(i % 2 == 1)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for p in &problems[1..] {
            assert!(tables(p) == tables(&problems[0]));
        }
        assert_eq!(ScoreTables::live(), 1);
        drop(problems);
        assert_eq!(ScoreTables::live(), 0);
    }
}

#[test]
fn tables_die_with_their_last_problem() {
    let _lock = serialize();
    let snr = Objective::MaximizeWorstCaseSnr;
    let mesh = on_mesh(cg(false), snr);
    let torus = problem(
        cg(true),
        Topology::torus(3, 3, pitch()),
        crux_router(),
        Box::new(XyRouting),
        PhysicalParameters::default(),
        snr,
    );
    let kept = tables(&mesh).clone();
    assert_eq!(ScoreTables::live(), 2);
    drop((mesh, torus));
    // A handle alone keeps its table alive.
    assert_eq!(ScoreTables::live(), 1);
    drop(kept);
    assert_eq!(ScoreTables::live(), 0);
}
