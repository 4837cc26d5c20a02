//! The eight real streaming-video / image-processing applications of the
//! paper's case studies (Section III), with the task counts quoted there:
//!
//! | Application | Tasks | Notes |
//! |-------------|-------|-------|
//! | `263dec_mp3dec` | 14 | H.263 video decoder + MP3 audio decoder |
//! | `263enc_mp3enc` | 12 | H.263 video encoder + MP3 audio encoder (12 edges) |
//! | `DVOPD` | 32 | dual video object plane decoder |
//! | `MPEG-4` | 12 | MPEG-4 decoder (26 edges) |
//! | `MWD` | 12 | multi-window display (12 edges) |
//! | `PIP` | 8 | picture-in-picture |
//! | `VOPD` | 16 | video object plane decoder |
//! | `Wavelet` | 22 | wavelet transform |
//!
//! Edge lists follow the standard versions circulating in the NoC
//! mapping literature where one exists, and documented reconstructions
//! otherwise, since the paper gives task counts but no edge lists.
//! Bandwidth annotations do not affect the paper's worst-case IL/SNR
//! objectives.

mod dvopd;
mod h263;
mod mpeg4;
mod mwd;
mod pip;
mod vopd;
mod wavelet;

pub use dvopd::dvopd;
pub use h263::{h263dec_mp3dec, h263enc_mp3enc};
pub use mpeg4::mpeg4;
pub use mwd::mwd;
pub use pip::pip;
pub use vopd::vopd;
pub use wavelet::wavelet;

use crate::cg::CommunicationGraph;

/// All eight benchmarks, in the alphabetical order the paper's tables
/// use.
#[must_use]
pub fn all_benchmarks() -> Vec<CommunicationGraph> {
    vec![
        h263dec_mp3dec(),
        h263enc_mp3enc(),
        dvopd(),
        mpeg4(),
        mwd(),
        pip(),
        vopd(),
        wavelet(),
    ]
}

/// Looks a benchmark up by its (case-insensitive) name as printed in the
/// paper, e.g. `"VOPD"` or `"263dec_mp3dec"`.
#[must_use]
pub fn benchmark(name: &str) -> Option<CommunicationGraph> {
    let lower = name.to_lowercase();
    let key = lower.as_str();
    match key {
        "263dec_mp3dec" => Some(h263dec_mp3dec()),
        "263enc_mp3enc" => Some(h263enc_mp3enc()),
        "dvopd" => Some(dvopd()),
        "mpeg-4" | "mpeg4" => Some(mpeg4()),
        "mwd" => Some(mwd()),
        "pip" => Some(pip()),
        "vopd" => Some(vopd()),
        "wavelet" => Some(wavelet()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_counts_match_paper_section_three() {
        let expected = [
            ("263dec_mp3dec", 14),
            ("263enc_mp3enc", 12),
            ("DVOPD", 32),
            ("MPEG-4", 12),
            ("MWD", 12),
            ("PIP", 8),
            ("VOPD", 16),
            ("Wavelet", 22),
        ];
        let all = all_benchmarks();
        assert_eq!(all.len(), 8);
        for ((name, tasks), cg) in expected.into_iter().zip(&all) {
            assert_eq!(cg.name(), name);
            assert_eq!(cg.task_count(), tasks, "{name}");
        }
    }

    #[test]
    fn every_benchmark_is_connected_and_loop_free() {
        for cg in all_benchmarks() {
            assert!(cg.is_weakly_connected(), "{} disconnected", cg.name());
            for e in cg.edges() {
                assert_ne!(e.src, e.dst, "{} has a self loop", cg.name());
                assert!(e.bandwidth > 0.0);
            }
        }
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(benchmark("VOPD").unwrap().task_count(), 16);
        assert_eq!(benchmark("mpeg-4").unwrap().task_count(), 12);
        assert_eq!(benchmark("MPEG4").unwrap().task_count(), 12);
        assert!(benchmark("doom").is_none());
    }

    #[test]
    fn edge_counts_quoted_by_the_paper() {
        assert_eq!(benchmark("MPEG-4").unwrap().edge_count(), 26);
        assert_eq!(benchmark("MWD").unwrap().edge_count(), 12);
        assert_eq!(benchmark("263enc_mp3enc").unwrap().edge_count(), 12);
    }
}
