# Developer shortcuts. Run with `just <recipe>` (or copy the commands).

# Build, test, and lint the whole workspace — the pre-commit gate.
# `--locked`: the committed Cargo.lock must already describe the build.
# The root package is non-virtual, so `--workspace` is what makes the test
# and clippy steps cover the member crates (the noise kernels' unit tests
# among them) rather than the root package alone.
verify:
    cargo build --release --locked
    cargo test -q --workspace --locked
    cargo clippy --workspace --all-targets --locked -- -D warnings

# The CI gate: no registry package in either lockfile (every crates.io name
# resolves to an in-tree stand-in), formatting, workspace-wide lints, the
# full workspace test suite, the flash model's tests again in an optimized
# build (the chunk kernels' bit-exactness across vector levels and the
# digests must hold where the optimizer rewrites them), once more with every
# kernel capped at the portable level (`STASH_ISA`), so the digests also
# check the chip end to end on the bodies a CPU without AVX2 runs, the
# benchmark's own
# unit tests (they pin
# BENCHMARK.json's metric list against the code), every crate's docs,
# private items included, with warnings denied, the crash, array and
# postmortem smokes, the regression sentinel, and the committed results/
# against a fresh run of the fast experiments.
ci:
    if grep -n '^source = ' Cargo.lock perfbench/Cargo.lock; then echo "a lockfile names a registry package" >&2; exit 1; fi
    cargo fmt --all --check
    cargo clippy --workspace --all-targets --locked -- -D warnings
    cargo test -q --workspace --locked
    cargo test -q --release -p stash-flash --locked
    STASH_ISA=portable cargo test -q --release -p stash-flash --locked
    cargo test -q --offline --locked --manifest-path perfbench/Cargo.toml
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --document-private-items --workspace --locked
    just crash-smoke
    just array-smoke
    just postmortem-smoke
    just bench-compare
    just reproduce-check

# Regenerate every committed artifact in results/ at full scale: each
# experiment's TSV, BENCH_*.json and TRACE_* files, plus one HISTORY.jsonl
# line each (~9 min at one thread on a 2-vCPU VM).
reproduce:
    cargo build --release -p stash-bench --bin reproduce
    ./target/release/reproduce

# The committed results/ must match the code: re-run the fast experiments
# at full scale into a scratch dir and diff their TSVs and traces against
# results/ (~30 s).
reproduce-check:
    cargo build --release -p stash-bench --bin reproduce
    rm -rf target/reproduce-check && mkdir -p target/reproduce-check
    cd target/reproduce-check && ../release/reproduce fig1 fig2 fig3 fig5 fig9 applicability snapshots mlc_future chaos crashpoints table1
    for f in fig1 fig2 fig3 fig5 fig9 applicability snapshots mlc_future chaos crashpoints table1; do diff -u results/$f.txt target/reproduce-check/results/$f.txt || exit 1; done
    for f in chaos crashpoints table1; do for ext in jsonl folded; do diff -q results/TRACE_$f.$ext target/reproduce-check/results/TRACE_$f.$ext || exit 1; done; done

# Crash-consistency smoke: a scaled crash-point matrix (64 cuts under
# --smoke; the full 200+-point matrix runs in `cargo test` via
# tests/crash_matrix.rs). The experiment itself asserts zero invariant
# violations; bench_check then validates the emitted BENCH artifact.
crash-smoke:
    cargo build --release -p stash-bench --bins
    rm -rf target/crash-smoke && mkdir -p target/crash-smoke
    cd target/crash-smoke && ../release/reproduce --smoke crashpoints
    ./target/release/bench_check target/crash-smoke/results/BENCH_crashpoints.json

# Array-shard smoke: a 4-chip chaos run in which one whole chip dies and
# every hidden byte must come back through cross-chip parity striping.
# The binary asserts 100% recovery itself; bench_check then validates the
# emitted BENCH artifact.
array-smoke:
    cargo build --release -p stash-bench --bins
    rm -rf target/array-smoke && mkdir -p target/array-smoke
    cd target/array-smoke && ../release/array_smoke > /dev/null
    ./target/release/bench_check target/array-smoke/results/BENCH_array_smoke.json target/array-smoke/results/HISTORY.jsonl

# Postmortem smoke: crash a golden run mid-pulse through the flight
# recorder and validate the auto-dumped stash-postmortem/1 artifact. The
# binary asserts validity and byte-reproducibility itself; bench_check
# then re-validates both artifacts.
postmortem-smoke:
    cargo build --release -p stash-bench --bins
    rm -rf target/postmortem-smoke && mkdir -p target/postmortem-smoke
    cd target/postmortem-smoke && ../release/postmortem_smoke > /dev/null
    ./target/release/bench_check target/postmortem-smoke/results/BENCH_postmortem_smoke.json target/postmortem-smoke/results/POSTMORTEM_smoke_power-loss.jsonl

# Regression sentinel: re-run the deterministic trio (table1 + fig6 at
# --smoke scale, chaos at full size) into a scratch dir, validate the
# artifacts (table1's trace included) and the run history, then diff
# every deterministic metric against the committed baseline within its
# tolerance band. Exits non-zero on any drift — this is the CI gate
# against silent metric regressions.
bench-compare:
    cargo build --release -p stash-bench --bins
    rm -rf target/bench-compare && mkdir -p target/bench-compare
    cd target/bench-compare && ../release/reproduce --smoke table1 fig6
    cd target/bench-compare && ../release/reproduce chaos
    ./target/release/bench_check target/bench-compare/results/BENCH_table1.json target/bench-compare/results/BENCH_fig6.json target/bench-compare/results/BENCH_chaos.json target/bench-compare/results/HISTORY.jsonl target/bench-compare/results/TRACE_table1.jsonl target/bench-compare/results/TRACE_table1.folded
    ./target/release/bench_compare results/BASELINE.json target/bench-compare/results/BENCH_table1.json target/bench-compare/results/BENCH_fig6.json target/bench-compare/results/BENCH_chaos.json

# Refresh the committed baseline from a fresh run of the same trio. Run
# this (and commit results/BASELINE.json) after an intentional metric
# change; `just bench-compare` then gates against the new values.
baseline:
    cargo build --release -p stash-bench --bins
    rm -rf target/bench-compare && mkdir -p target/bench-compare
    cd target/bench-compare && ../release/reproduce --smoke table1 fig6
    cd target/bench-compare && ../release/reproduce chaos
    ./target/release/bench_compare --write-baseline results/BASELINE.json target/bench-compare/results/BENCH_table1.json target/bench-compare/results/BENCH_fig6.json target/bench-compare/results/BENCH_chaos.json

# In-process cost of each chunk kernel (uniform pairs, serial and through
# the generator's lanes, pair evaluation, bracket map, threshold decisions,
# coupling fill, candidate gather and scatter) at every vector level this
# CPU offers: median ns per pair, draw or cell over 9 rounds of 3000 chunk
# calls.
kernel-times:
    cargo test --release -p stash-flash --lib kernel_timings -- --ignored --nocapture

# Fast edit loop: tier-1 integration suites only (root package).
test:
    cargo test -q

# Full workspace suite, all crates.
test-all:
    cargo test -q --workspace

# The chaos sweep: hidden-byte survival under injected faults.
chaos:
    cargo run --release -p stash-bench --bin reproduce -- chaos

# The repository benchmark (`perfbench/`, its own offline cargo workspace;
# see perfbench/README.md and BENCHMARK.json): one workload, one seed.
perfbench workload="hide_reveal" seed="1" seconds="20" trace="0":
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --workload {{workload}} --seed {{seed}} --seconds {{seconds}} --trace {{trace}}

# The benchmark's deterministic outputs: every workload on seeds 1-3,
# untraced, printing only the `# deterministic` lines. A change that keeps
# outputs bit-identical diffs this against the same recipe on its parent.
perfbench-det:
    cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
    for w in hide_reveal volume detect; do for s in 1 2 3; do echo "$w seed $s"; cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --workload $w --seed $s --seconds 1 --trace 0 | grep '^# deterministic'; done; done

# Deterministic-output parity against another revision: checks `rev` out
# in a git worktree under target/, runs the perfbench-det commands on
# that tree and on this one, and fails on any difference. Use it on a
# change that must keep outputs bit-identical (e.g. `rev=HEAD~1` after
# committing it).
perfbench-det-diff rev="HEAD":
    #!/usr/bin/env bash
    set -euo pipefail
    out=target/perfbench-det-diff
    base="$out/base"
    git worktree remove --force "$base" 2>/dev/null || true
    rm -rf "$out" && mkdir -p "$out"
    git worktree prune
    git worktree add --detach --quiet "$base" "{{rev}}"
    trap 'git worktree remove --force "$base"' EXIT
    det() {
        cargo build --release --offline --quiet --manifest-path "$1/perfbench/Cargo.toml" --target-dir "$2"
        for w in hide_reveal volume detect; do for s in 1 2 3; do
            echo "$w seed $s"
            "$2/release/stash-perfbench" --workload $w --seed $s --seconds 1 --trace 0 | grep '^# deterministic'
        done; done
    }
    det "$base" "$out/base-target" > "$out/base.txt"
    det . perfbench/target > "$out/tree.txt"
    diff "$out/base.txt" "$out/tree.txt"
    echo "perfbench-det: identical to {{rev}}"
