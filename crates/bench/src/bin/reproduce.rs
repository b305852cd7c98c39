//! Regenerates the paper's tables and figures into `results/`.
//!
//! ```text
//! reproduce [--smoke] [NAME...]
//! ```
//!
//! With no names it runs every experiment of
//! [`stash_bench::experiments::EXPERIMENTS`], in table order. Each one
//! writes `results/<name>.txt` (its TSV), `results/BENCH_<name>.json` and
//! one `results/HISTORY.jsonl` line, under the current directory.
//! `--smoke` runs the scaled sizes of [`Scale::Smoke`]. An unknown name or
//! option fails before any experiment runs and writes nothing.

use stash_bench::experiments::{Experiment, EXPERIMENTS};
use stash_bench::{Run, Scale};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut scale = Scale::Full;
    let mut chosen: Vec<Experiment> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            scale = Scale::Smoke;
        } else if let Some(&experiment) = EXPERIMENTS.iter().find(|(name, _)| *name == arg) {
            chosen.push(experiment);
        } else {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
            eprintln!("reproduce: unknown experiment or option {arg:?}");
            eprintln!("usage: reproduce [--smoke] [NAME...]\nexperiments: {}", names.join(" "));
            return ExitCode::FAILURE;
        }
    }
    if chosen.is_empty() {
        chosen = EXPERIMENTS.to_vec();
    }

    let dir = std::path::Path::new("results");
    for (name, experiment) in chosen {
        let mut run = Run::new(name, scale);
        experiment(&mut run);
        let txt = dir.join(format!("{name}.txt"));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&txt, &run.out)) {
            eprintln!("reproduce: write {}: {e}", txt.display());
            return ExitCode::FAILURE;
        }
        run.meter.finish();
        eprintln!("reproduce: {name} -> {}", txt.display());
    }
    ExitCode::SUCCESS
}
