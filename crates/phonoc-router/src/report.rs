//! Human-readable router "datasheets": per-connection insertion losses
//! and the nonzero entries of the crosstalk coupling matrix, rendered as
//! text. Used by the command-line tool (`phonocmap describe-router`) and
//! handy while designing custom netlists.

use crate::netlist::RouterModel;
use phonoc_phys::PhysicalParameters;
use std::fmt::Write as _;

/// Renders a datasheet for `router` under `params`: structure summary,
/// per-connection loss table, and the nonzero entries of the
/// victim/aggressor interaction matrix (in dB).
#[must_use]
pub fn datasheet(router: &RouterModel, params: &PhysicalParameters) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "router `{}`", router.name());
    let _ = writeln!(
        out,
        "  microrings: {}   plain crossings: {}   connections: {}",
        router.microring_count(),
        router.plain_crossing_count(),
        router.supported_pairs().len()
    );
    let _ = writeln!(out, "\nconnection losses:");
    let mut pairs = router.supported_pairs();
    pairs.sort_by(|a, b| {
        router
            .traversal_loss(*b, params)
            .partial_cmp(&router.traversal_loss(*a, params))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    for pair in &pairs {
        let loss = router
            .traversal_loss(*pair, params)
            .expect("supported pair has a loss");
        let steps = router
            .traversal(*pair)
            .expect("supported pair has a traversal")
            .steps
            .len();
        let _ = writeln!(out, "  {pair}:  {:>7.3} dB  ({steps} elements)", loss.0);
    }

    let _ = writeln!(
        out,
        "\nfirst-order crosstalk couplings (victim <- aggressor):"
    );
    let matrix = router.interaction_matrix(params);
    let mut any = false;
    for v in router.supported_pairs() {
        for a in router.supported_pairs() {
            let gain = matrix[v.index()][a.index()];
            if gain.0 > 0.0 {
                any = true;
                let _ = writeln!(out, "  {v}  <-  {a}:  {:>7.2} dB", gain.to_db().0);
            }
        }
    }
    if !any {
        let _ = writeln!(out, "  (none)");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crux::crux_router;

    #[test]
    fn datasheet_mentions_structure_and_losses() {
        let crux = crux_router();
        let sheet = datasheet(&crux, &PhysicalParameters::default());
        assert!(sheet.contains("router `crux`"));
        assert!(sheet.contains("microrings: 12"));
        assert!(sheet.contains("W→E"));
        assert!(sheet.contains("crosstalk couplings"));
    }
}
