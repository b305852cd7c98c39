//! Crash-point sweep: power-loss atomicity across the golden e2e workload.
//!
//! Enumerates a deterministic matrix of power-cut points (before-op cuts
//! over the whole device-op stream, mid-operation cuts on every PP pulse
//! and on page programs), runs one full crash-and-recover experiment per
//! cut on the `stash-par` pool, and asserts zero invariant violations:
//! acked public writes durable, unacked writes cleanly absent, acked
//! hidden payloads byte-identical after remount recovery, FTL mapping
//! consistent.
//!
//! Two extra series ride along:
//!
//! - **SVM detectability**: a linear SVM trained to separate voltage
//!   histograms of hidden-bearing pages on never-crashed devices from the
//!   same pages on crashed-then-recovered devices. Held-out accuracy at a
//!   coin flip means recovery leaves no forensic tell — "no worse than the
//!   no-crash baseline".
//! - **Recovery metrics** (via `stash-obs` counters from a traced
//!   representative run): pages journal-replayed, torn pages discarded,
//!   hidden slots re-encoded, remount wall/device time.
//!
//! The matrix aims for [`Scale::crash_target`](crate::Scale::crash_target)
//! cut points: 200 at full scale, 64 under `--smoke` (`just crash-smoke`).

use crate::crash::{enumerate_cuts, run_cut, run_cut_traced, run_matrix, SLOTS};
use crate::{f, outln, write_trace_artifacts, Run};
use stash_flash::OpKind;
use stash_obs::Tracer;
use stash_svm::{Dataset, Kernel, StandardScaler, Svm, SvmParams};

const SEED: u64 = 0xC0FFEE;
/// Seeds for the detectability experiment: one device per seed, crashed
/// and uncrashed variants of each.
const SVM_SEEDS: [u64; 6] = [101, 102, 103, 104, 105, 106];
/// Seeds held out of SVM training and used only for accuracy.
const SVM_TEST_SEEDS: usize = 2;

/// Trains crash-vs-baseline and baseline-vs-baseline linear SVMs on slot
/// page voltage histograms; returns (crash_acc, control_acc) on held-out
/// seeds.
fn svm_detectability() -> (f64, f64) {
    // Per-seed: an uncut run and a run cut mid-way through a late PP pulse
    // (so recovery has real work: the torn embed must be rebuilt).
    let runs = stash_par::par_map(SVM_SEEDS.to_vec(), |_, seed| {
        let base = run_cut(seed, None, true);
        let pp: Vec<u64> = (0..base.op_log.len() as u64)
            .filter(|&i| base.op_log[i as usize] == OpKind::PartialProgram)
            .collect();
        let cut = stash_flash::PowerCut { at_op: pp[pp.len() * 3 / 4], fraction: 0.5 };
        let crashed = run_cut(seed, Some(cut), false);
        assert!(crashed.violations.is_empty(), "seed {seed}: {:?}", crashed.violations);
        (base, crashed)
    });

    let split = SVM_SEEDS.len() - SVM_TEST_SEEDS;
    let (mut train, mut test) = (Dataset::new(), Dataset::new());
    let (mut ctrain, mut ctest) = (Dataset::new(), Dataset::new());
    for (i, (base, crashed)) in runs.iter().enumerate() {
        let (d, c) = if i < split { (&mut train, &mut ctrain) } else { (&mut test, &mut ctest) };
        for h in &base.slot_page_hists {
            d.push(h.clone(), -1);
            // Control: baselines split by seed parity — same-distribution
            // classes, so its accuracy measures the coin-flip floor.
            c.push(h.clone(), if i % 2 == 0 { -1 } else { 1 });
        }
        for h in &crashed.slot_page_hists {
            d.push(h.clone(), 1);
        }
    }
    let params = SvmParams { kernel: Kernel::Linear, c: 1.0, ..Default::default() };
    let scaler = StandardScaler::fit(&train);
    let crash_acc = Svm::train(&scaler.transform_dataset(&train), &params)
        .accuracy(&scaler.transform_dataset(&test));
    let cscaler = StandardScaler::fit(&ctrain);
    let control_acc = Svm::train(&cscaler.transform_dataset(&ctrain), &params)
        .accuracy(&cscaler.transform_dataset(&ctest));
    (crash_acc, control_acc)
}

pub fn run(r: &mut Run) {
    let target = r.scale.crash_target();
    r.header(
        "Crash-point matrix: power-loss atomicity over the golden workload",
        &format!(
            "{SLOTS} hidden slots; one power cut per run; target {target} cut points \
             (--smoke scales)"
        ),
    );

    let baseline = run_cut(SEED, None, true);
    assert!(baseline.violations.is_empty(), "uncut baseline violated invariants");
    let cuts = enumerate_cuts(&baseline.op_log, target);
    let runs = run_matrix(SEED, &cuts, stash_par::thread_count());

    // Aggregate by cut shape.
    r.row(
        ["cut_kind", "cuts", "torn_pages", "tag_failures", "reencoded", "violations"]
            .map(String::from),
    );
    let mut json_kinds = Vec::new();
    let mut violations_total = 0usize;
    let (mut torn_total, mut tag_total, mut reenc_total) = (0u64, 0usize, 0usize);
    let (mut replayed_total, mut device_us_total, mut wall_us_total) = (0u64, 0.0f64, 0.0f64);
    let kind = |c: &stash_flash::PowerCut| {
        if c.fraction == 0.0 {
            return Some("before_op");
        }
        match baseline.op_log[c.at_op as usize] {
            OpKind::PartialProgram => Some("mid_pp"),
            OpKind::Program => Some("mid_program"),
            _ => None,
        }
    };
    for label in ["before_op", "mid_pp", "mid_program"] {
        let group: Vec<_> =
            runs.iter().filter(|run| run.cut.as_ref().and_then(kind) == Some(label)).collect();
        let torn: u64 = group.iter().map(|run| run.mount.torn_pages).sum();
        let tags: usize = group.iter().map(|run| run.recovery.tag_failures).sum();
        let reenc: usize = group.iter().map(|run| run.recovery.reconstructed).sum();
        let viol: usize = group.iter().map(|run| run.violations.len()).sum();
        r.row([
            label.to_string(),
            group.len().to_string(),
            torn.to_string(),
            tags.to_string(),
            reenc.to_string(),
            viol.to_string(),
        ]);
        json_kinds.push(format!(
            "      {{\"kind\":\"{label}\",\"cuts\":{},\"torn_pages\":{torn},\
             \"tag_failures\":{tags},\"reencoded\":{reenc},\"violations\":{viol}}}",
            group.len(),
        ));
    }
    for run in &runs {
        violations_total += run.violations.len();
        torn_total += run.mount.torn_pages;
        tag_total += run.recovery.tag_failures;
        reenc_total += run.recovery.reconstructed;
        replayed_total += run.mount.live_pages;
        device_us_total += run.remount_device_us;
        wall_us_total += run.remount_wall_us;
    }
    assert_eq!(violations_total, 0, "crash matrix found invariant violations");
    assert!(torn_total > 0, "matrix never tore a public page");
    assert!(tag_total > 0, "matrix never tore a hidden embed");

    // Detectability: does recovery leave a forensic tell?
    let (crash_acc, control_acc) = svm_detectability();
    outln!(r);
    outln!(
        r,
        "# SVM on recovered hidden-bearing pages: crash-vs-baseline {:.1}%, \
         control (baseline-vs-baseline) {:.1}%",
        crash_acc * 100.0,
        control_acc * 100.0
    );
    assert!(
        crash_acc <= control_acc + 0.25,
        "crash recovery is detectable: {crash_acc} vs control {control_acc}"
    );

    // Traced representative run: recovery metrics through stash-obs.
    let tracer = Tracer::shared();
    let mid_pp = cuts
        .iter()
        .find(|c| c.fraction > 0.0 && baseline.op_log[c.at_op as usize] == OpKind::PartialProgram)
        .copied();
    let traced = run_cut_traced(SEED, mid_pp, false, Some(&tracer));
    let report = tracer.report();
    write_trace_artifacts("crashpoints", &report);
    let counter = |name: &str| -> u64 {
        report.counters.iter().find(|(n, _, _)| n == name).map_or(0, |c| c.2)
    };

    let n = runs.len() as f64;
    r.meter.record_wall("mean_remount_wall_us", (wall_us_total / n * 10.0).round() / 10.0);
    r.meter.record("cut_points", runs.len() as f64);
    r.meter.record("violations", violations_total as f64);
    r.meter.record("torn_pages", torn_total as f64);
    r.meter.record("tag_failures", tag_total as f64);
    r.meter.record("hidden_reencoded", reenc_total as f64);
    r.meter.record("journal_replayed", replayed_total as f64);
    r.meter.record("mean_remount_device_us", (device_us_total / n * 1e3).round() / 1e3);
    r.meter.record_json(
        "svm",
        &format!("{{\"crash_accuracy\": {crash_acc}, \"control_accuracy\": {control_acc}}}"),
    );
    let traced_run = format!(
        "{{\"journal_replayed\": {}, \"torn_discarded\": {}, \
         \"remount_recovered\": {}, \"remount_reconstructed\": {}, \
         \"remount_tag_failures\": {}, \"remount_device_us\": {:.3}}}",
        counter("mount_journal_replayed"),
        counter("mount_torn_discarded"),
        counter("remount_recovered"),
        counter("remount_reconstructed"),
        counter("remount_tag_failures"),
        traced.remount_device_us,
    );
    r.meter.record_json("traced_run", &traced_run);
    r.meter.record_rows("by_kind", &json_kinds);

    outln!(r);
    outln!(
        r,
        "ok: {} cut points, zero invariant violations ({} torn pages, {} torn embeds recovered)",
        runs.len(),
        torn_total,
        tag_total
    );
    outln!(r, "# machine-readable series: results/BENCH_crashpoints.json");
    outln!(
        r,
        "# trace artifacts: results/TRACE_crashpoints.jsonl, results/TRACE_crashpoints.folded"
    );
    outln!(
        r,
        "# detectability: crash {}%, control {}%",
        f(crash_acc * 100.0, 1),
        f(control_acc * 100.0, 1)
    );
}
