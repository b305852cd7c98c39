//! The parallel-execution determinism contract, enforced end to end:
//! running an experiment through `reproduce` with `STASH_THREADS=1` and
//! `STASH_THREADS=8` must write a byte-identical `results/<name>.txt` and
//! a byte-identical `BENCH_<name>.json` (after stripping the two
//! run-descriptive fields, `wall` and `threads`) for a fixed seed. When
//! the experiment also emits a `TRACE_<name>.jsonl` artifact, the rendered
//! trace *analysis* (critical path + top spans) must be byte-identical
//! too — the analysis engine is a pure function of the trace, and the
//! trace is part of the determinism contract.
//!
//! The experiments run at `--smoke` scale so the test stays in CI budget;
//! determinism is a structural property of the work-item seeding, not of
//! the geometry.

use stash_obs::json::{self, JsonValue};
use std::path::Path;
use std::process::Command;

/// Runs one experiment at smoke scale in its own scratch dir with the
/// given thread count, returning (its TSV, normalized BENCH json, rendered
/// trace analysis if the experiment emitted a trace).
fn run_bench(bench: &str, threads: u32, dir: &Path) -> (String, String, Option<String>) {
    std::fs::create_dir_all(dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["--smoke", bench])
        .current_dir(dir)
        .env("STASH_THREADS", threads.to_string())
        .output()
        .expect("reproduce runs");
    assert!(
        out.status.success(),
        "{bench} failed at {threads} threads: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let txt_path = dir.join("results").join(format!("{bench}.txt"));
    let tsv = std::fs::read_to_string(&txt_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", txt_path.display()));
    let json_path = dir.join("results").join(format!("BENCH_{bench}.json"));
    let raw = std::fs::read_to_string(&json_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", json_path.display()));
    let analysis =
        std::fs::read_to_string(dir.join("results").join(format!("TRACE_{bench}.jsonl"))).ok().map(
            |trace| {
                let stats = stash_obs::analyze::parse_trace(&trace)
                    .unwrap_or_else(|e| panic!("{bench} trace invalid at {threads} threads: {e}"));
                stash_obs::analyze::render_analysis(&stats, 10)
            },
        );
    (tsv, normalize(&raw, bench), analysis)
}

/// Parses the bench JSON and re-renders it with the run-descriptive fields
/// (the `wall` object, `threads`) dropped — everything that remains must
/// be byte-identical across thread counts.
fn normalize(raw: &str, bench: &str) -> String {
    let parsed = json::parse(raw).unwrap_or_else(|e| panic!("BENCH_{bench}.json invalid: {e}"));
    let JsonValue::Obj(fields) = parsed else { panic!("BENCH_{bench}.json is not an object") };
    let mut out = String::new();
    for (k, v) in &fields {
        if k == "wall" || k == "threads" {
            continue;
        }
        out.push_str(k);
        out.push('=');
        render(&mut out, v);
        out.push('\n');
    }
    out
}

fn render(out: &mut String, v: &JsonValue) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Num(n) => json::write_num(out, *n),
        JsonValue::Str(s) => json::write_escaped(out, s),
        JsonValue::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(out, item);
            }
            out.push(']');
        }
        JsonValue::Obj(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_escaped(out, k);
                out.push(':');
                render(out, val);
            }
            out.push('}');
        }
    }
}

fn assert_thread_count_invariant(bench: &str) {
    let base =
        std::env::temp_dir().join(format!("stash-determinism-{bench}-{}", std::process::id()));
    let (tsv_1, json_1, analysis_1) = run_bench(bench, 1, &base.join("t1"));
    let (tsv_8, json_8, analysis_8) = run_bench(bench, 8, &base.join("t8"));
    assert!(
        tsv_1 == tsv_8,
        "{bench}: results/{bench}.txt differs between STASH_THREADS=1 and 8\n--- 1 thread ---\n{tsv_1}\n--- 8 threads ---\n{tsv_8}"
    );
    assert!(
        json_1 == json_8,
        "{bench}: deterministic JSON fields differ between STASH_THREADS=1 and 8\n--- 1 thread ---\n{json_1}\n--- 8 threads ---\n{json_8}"
    );
    assert_eq!(
        analysis_1.is_some(),
        analysis_8.is_some(),
        "{bench}: trace artifact emitted at one thread count but not the other"
    );
    if let (Some(a1), Some(a8)) = (&analysis_1, &analysis_8) {
        assert!(
            a1 == a8,
            "{bench}: trace analysis differs between STASH_THREADS=1 and 8\n--- 1 thread ---\n{a1}\n--- 8 threads ---\n{a8}"
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn table1_is_thread_count_invariant() {
    assert_thread_count_invariant("table1");
}

#[test]
fn fig7_is_thread_count_invariant() {
    assert_thread_count_invariant("fig7");
}
