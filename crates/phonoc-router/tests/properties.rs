//! Property-style invariants over the built-in router models: every
//! validated traversal must be internally consistent, and the derived
//! interaction structure must respect the modeling rules.

use phonoc_phys::{Db, PhysicalParameters, PhysicalParametersBuilder};
use phonoc_router::crossbar::{crossbar_router, xy_crossbar_router};
use phonoc_router::crux::crux_router;
use phonoc_router::RouterModel;
use proptest::prelude::*;

fn builtins() -> Vec<RouterModel> {
    vec![crux_router(), crossbar_router(), xy_crossbar_router()]
}

#[test]
fn losses_are_negative_and_finite_for_all_builtins() {
    let params = PhysicalParameters::default();
    for r in builtins() {
        for pair in r.supported_pairs() {
            let loss = r.traversal_loss(pair, &params).expect("supported");
            assert!(
                loss.0 < 0.0 && loss.0.is_finite(),
                "{}/{pair}: {loss}",
                r.name()
            );
        }
    }
}

#[test]
fn coupling_counts_are_pinned_under_table_i() {
    // The coupling lines `describe-router` prints for each builtin.
    let params = PhysicalParameters::default();
    for (r, expected) in builtins().into_iter().zip([84, 100, 58]) {
        let m = r.interaction_matrix(&params);
        let nonzero = m.iter().flatten().filter(|g| g.0 > 0.0).count();
        assert_eq!(nonzero, expected, "{}", r.name());
    }
}

#[test]
fn same_input_pairs_never_interact() {
    let params = PhysicalParameters::default();
    for r in builtins() {
        let m = r.interaction_matrix(&params);
        for v in r.supported_pairs() {
            for a in r.supported_pairs() {
                if v.input == a.input {
                    assert_eq!(m[v.index()][a.index()].0, 0.0, "{}: {v} vs {a}", r.name());
                }
            }
        }
    }
}

#[test]
fn interactions_are_bounded_by_physical_coefficients() {
    // No single-router coupling can exceed the strongest per-element
    // coefficient times the number of elements on the longest traversal.
    let params = PhysicalParameters::default();
    let strongest = 10f64.powf(-20.0 / 10.0) + 10f64.powf(-40.0 / 10.0);
    for r in builtins() {
        let max_steps = r
            .supported_pairs()
            .iter()
            .map(|p| r.traversal(*p).unwrap().steps.len())
            .max()
            .unwrap();
        let m = r.interaction_matrix(&params);
        for v in r.supported_pairs() {
            for a in r.supported_pairs() {
                let g = m[v.index()][a.index()].0;
                assert!(
                    g <= strongest * max_steps as f64 + 1e-12,
                    "{}: {v}<-{a} = {g}",
                    r.name()
                );
            }
        }
    }
}

proptest! {
    /// Scaling the crosstalk coefficients scales every interaction
    /// monotonically: with weaker coefficients no coupling grows.
    #[test]
    fn interactions_shrink_with_weaker_coefficients(delta in 0.0f64..20.0) {
        let base = PhysicalParameters::default();
        let weaker = PhysicalParametersBuilder::from_defaults_with(|b| {
            b.crossing_crosstalk(Db(-40.0 - delta));
            b.pse_off_crosstalk(Db(-20.0 - delta));
            b.pse_on_crosstalk(Db(-25.0 - delta));
        });
        let crux = crux_router();
        let (m0, m1) = (crux.interaction_matrix(&base), crux.interaction_matrix(&weaker));
        for v in crux.supported_pairs() {
            for a in crux.supported_pairs() {
                let g0 = m0[v.index()][a.index()].0;
                let g1 = m1[v.index()][a.index()].0;
                prop_assert!(g1 <= g0 + 1e-15, "{v}<-{a}: {g1} > {g0}");
            }
        }
    }

    /// Loss tables respond linearly to the ON-state coefficient: making
    /// rings lossier can only make traversals lossier.
    #[test]
    fn losses_monotone_in_ring_loss(extra in 0.0f64..2.0) {
        let base = PhysicalParameters::default();
        let lossier = PhysicalParametersBuilder::from_defaults_with(|b| {
            b.cpse_on_loss(Db(-0.5 - extra));
        });
        let crux = crux_router();
        for pair in crux.supported_pairs() {
            let l0 = crux.traversal_loss(pair, &base).unwrap();
            let l1 = crux.traversal_loss(pair, &lossier).unwrap();
            prop_assert!(l1 <= l0, "{pair}: {l1} > {l0}");
        }
    }
}

/// Helper used by the proptests above: build a parameter set from the
/// defaults with a mutation closure.
trait BuilderExt {
    fn from_defaults_with(f: impl FnOnce(&mut PhysicalParametersBuilder)) -> PhysicalParameters;
}

impl BuilderExt for PhysicalParametersBuilder {
    fn from_defaults_with(f: impl FnOnce(&mut PhysicalParametersBuilder)) -> PhysicalParameters {
        let mut b = PhysicalParameters::builder();
        f(&mut b);
        b.build()
    }
}
