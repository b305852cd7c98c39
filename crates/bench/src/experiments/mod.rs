//! The paper's evaluation as a table of experiment functions.
//!
//! Each experiment is `fn(&mut Run)`: it reads its size from
//! [`Run::scale`], writes its TSV into [`Run::out`] and its deterministic
//! fields into [`Run::meter`]. Seeds are constants inside each experiment,
//! so a run is a pure function of its scale. The `reproduce` binary runs
//! the table and writes the artifacts; the experiments themselves only
//! write `TRACE_*` files, from inside their parallel work items.

use crate::Run;

/// One experiment: its name (the stem of its `results/` artifacts) and
/// the function that runs it.
pub type Experiment = (&'static str, fn(&mut Run));

/// Declares one module per experiment and lists them, under the module's
/// name, in [`EXPERIMENTS`].
macro_rules! experiments {
    ($($name:ident),* $(,)?) => {
        $(mod $name;)*

        /// Every experiment, in the order the README lists them.
        pub const EXPERIMENTS: &[Experiment] = &[$((stringify!($name), $name::run)),*];
    };
}

experiments! {
    fig1, fig2, fig3, fig5, fig6, fig7, fig8, fig9, fig10, fig11, fig12, table1,
    interference, reliability, applicability, mlc_future, ablation_vth,
    longevity, snapshots, forensics, chaos, crashpoints,
}

#[cfg(test)]
mod tests {
    use super::EXPERIMENTS;
    use std::collections::BTreeSet;
    use std::path::Path;

    /// Stems of the committed `results/` files that start with `prefix`
    /// and end with `suffix`.
    fn stems(prefix: &str, suffix: &str) -> BTreeSet<String> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
            .filter_map(|entry| {
                let name = entry.expect("dir entry").file_name().into_string().ok()?;
                Some(name.strip_prefix(prefix)?.strip_suffix(suffix)?.to_owned())
            })
            .collect()
    }

    #[test]
    fn table_names_are_unique_and_match_the_committed_results() {
        let names: BTreeSet<String> = EXPERIMENTS.iter().map(|(n, _)| (*n).to_owned()).collect();
        assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");
        assert_eq!(names, stems("", ".txt"), "experiments vs results/*.txt");
        // The smoke binaries' BENCH artifacts are never committed, so
        // every committed one comes from an experiment.
        assert_eq!(names, stems("BENCH_", ".json"), "experiments vs results/BENCH_*.json");
    }
}
