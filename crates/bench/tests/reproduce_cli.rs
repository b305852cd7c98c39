//! `reproduce` rejects bad input before it runs anything: an unknown
//! experiment name or option exits non-zero, lists the valid names, and
//! writes no artifact — even when a valid name precedes the bad one.

use stash_bench::experiments::EXPERIMENTS;
use std::process::Command;

fn assert_rejected(args: &[&str]) {
    let dir = std::env::temp_dir().join(format!(
        "stash-reproduce-cli-{}-{}",
        args.join("_"),
        std::process::id()
    ));
    let results = dir.join("results");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&results).expect("scratch results dir");

    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("reproduce runs");
    assert!(!out.status.success(), "{args:?} was accepted");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for (name, _) in EXPERIMENTS {
        assert!(stderr.contains(name), "{args:?}: usage does not list {name}:\n{stderr}");
    }
    let written: Vec<_> = std::fs::read_dir(&results).expect("results dir").collect();
    assert!(written.is_empty(), "{args:?} wrote {} files into results/", written.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_experiment_is_rejected_before_anything_runs() {
    assert_rejected(&["bogus"]);
    assert_rejected(&["fig1", "bogus"]);
}

#[test]
fn unknown_option_is_rejected_before_anything_runs() {
    assert_rejected(&["--smoke", "--seed", "fig1"]);
}
