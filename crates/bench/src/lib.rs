//! Benchmark and figure-regeneration harness for the dReDBox reproduction.
//!
//! * The `figures` binary prints every paper table and figure
//!   (`cargo run -p dredbox-bench --bin figures -- all`).
//! * The Criterion benches (`cargo bench`) measure the hot paths of the
//!   simulation substrate itself: the BER model, the remote-access latency
//!   model, SDM scale-up handling, TCO packing and the memory-pool / RMST
//!   data structures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The artifacts the `figures` binary can regenerate.
pub const ARTIFACTS: &[&str] = &[
    "table1",
    "fig7",
    "fig8",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "tco-summary",
    "ablation-path",
    "ablation-fec",
];

/// Renders one artifact by name. Returns `None` for unknown names.
pub fn render(artifact: &str, seed: u64) -> Option<String> {
    use dredbox::experiments as exp;
    let out = match artifact {
        "table1" => exp::table1().to_string(),
        "fig7" => exp::fig7(seed).to_string(),
        "fig8" => exp::fig8().to_string(),
        "fig10" => exp::fig10(seed).to_string(),
        "fig11" => exp::fig11().to_string(),
        "fig12" => exp::fig12(seed).to_string(),
        "fig13" => exp::fig13(seed).to_string(),
        "tco-summary" => exp::tco_summary(seed).to_string(),
        "ablation-path" => exp::ablation_path().to_string(),
        "ablation-fec" => exp::ablation_fec().to_string(),
        _ => return None,
    };
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_artifact_renders() {
        for artifact in ARTIFACTS {
            let rendered = render(artifact, 2018).expect("known artifact renders");
            assert!(!rendered.is_empty());
        }
        assert!(render("fig99", 1).is_none());
    }

    /// Every artifact at seed 2018, rendered as `figures all` prints it,
    /// matches `tests/fixtures/figures-2018.txt` byte for byte.
    #[test]
    fn seed_2018_artifacts_match_the_pinned_rendering() {
        let rendered: String = ARTIFACTS
            .iter()
            .map(|artifact| render(artifact, 2018).expect("known artifact renders") + "\n")
            .collect();
        let pinned = include_str!("../../../tests/fixtures/figures-2018.txt");
        assert!(
            rendered == pinned,
            "`figures all` at seed 2018 no longer matches tests/fixtures/figures-2018.txt"
        );
    }
}
