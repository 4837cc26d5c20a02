//! Wavelet — two-level 2D discrete wavelet transform, 22 tasks.
//!
//! The paper lists "Wavelet, a wavelet transform application (22 tasks)"
//! without a public edge list, so this is a documented reconstruction:
//! a standard two-level separable 2D DWT filter bank —
//! row low/high-pass filtering, column filtering into the LL/LH/HL/HH
//! subbands, recursion on LL, per-subband quantizers and an output
//! collector.

use crate::cg::{CgBuilder, CommunicationGraph};

/// Builds the 22-task wavelet-transform communication graph.
///
/// # Examples
///
/// ```
/// let cg = phonoc_apps::benchmarks::wavelet();
/// assert_eq!(cg.task_count(), 22);
/// ```
#[must_use]
pub fn wavelet() -> CommunicationGraph {
    CgBuilder::new("Wavelet")
        .tasks([
            "src", "split", // front-end
            "row_lp1", "row_hp1", // level-1 row filters
            "col_ll1", "col_lh1", "col_hl1", "col_hh1", // level-1 column filters
            "row_lp2", "row_hp2", // level-2 row filters
            "col_ll2", "col_lh2", "col_hl2", "col_hh2", // level-2 column filters
            "q_lh1", "q_hl1", "q_hh1", // level-1 quantizers
            "q_ll2", "q_lh2", "q_hl2", "q_hh2", // level-2 quantizers
            "out",   // collector
        ])
        .edge("src", "split", 128.0)
        .edge("split", "row_lp1", 64.0)
        .edge("split", "row_hp1", 64.0)
        .edge("row_lp1", "col_ll1", 32.0)
        .edge("row_lp1", "col_lh1", 32.0)
        .edge("row_hp1", "col_hl1", 32.0)
        .edge("row_hp1", "col_hh1", 32.0)
        .edge("col_ll1", "row_lp2", 16.0)
        .edge("col_ll1", "row_hp2", 16.0)
        .edge("col_lh1", "q_lh1", 16.0)
        .edge("col_hl1", "q_hl1", 16.0)
        .edge("col_hh1", "q_hh1", 16.0)
        .edge("row_lp2", "col_ll2", 8.0)
        .edge("row_lp2", "col_lh2", 8.0)
        .edge("row_hp2", "col_hl2", 8.0)
        .edge("row_hp2", "col_hh2", 8.0)
        .edge("col_ll2", "q_ll2", 4.0)
        .edge("col_lh2", "q_lh2", 4.0)
        .edge("col_hl2", "q_hl2", 4.0)
        .edge("col_hh2", "q_hh2", 4.0)
        .edge("q_lh1", "out", 8.0)
        .edge("q_hl1", "out", 8.0)
        .edge("q_hh1", "out", 8.0)
        .edge("q_ll2", "out", 2.0)
        .edge("q_lh2", "out", 2.0)
        .edge("q_hl2", "out", 2.0)
        .edge("q_hh2", "out", 2.0)
        .build()
        .expect("the Wavelet benchmark graph must validate")
}

#[cfg(test)]
mod tests {
    #[test]
    fn wavelet_shape() {
        let cg = super::wavelet();
        assert_eq!(cg.task_count(), 22, "paper: Wavelet has 22 tasks");
        assert_eq!(cg.edge_count(), 27);
        assert!(cg.is_weakly_connected());
    }

    #[test]
    fn out_collects_all_subbands() {
        let cg = super::wavelet();
        let out = cg.task_id("out").unwrap();
        assert_eq!(cg.in_degree(out), 7);
        assert_eq!(cg.out_degree(out), 0);
    }
}
