//! Postmortem smoke: crash a golden run mid-pulse and validate the flight
//! recorder's black-box dump.
//!
//! The run drives the canonical observed stack
//! (`PowerCutDevice<FlightDevice<TraceDevice<Chip>>>`) through a
//! deterministic erase/program/read workload with a power cut scheduled
//! mid-way through a page program. The binary asserts that the power loss
//! auto-dumped a `stash-postmortem/1` artifact, that the artifact's final
//! captured op is the torn program at the cut position with live span
//! context, and that a second identical run reproduces the artifact
//! byte-for-byte. `just postmortem-smoke` runs it in CI; `bench_check`
//! then re-validates the emitted artifacts.

use rand::{rngs::SmallRng, SeedableRng};
use stash_bench::{Run, Scale};
use stash_flash::{
    BitPattern, BlockId, Chip, ChipProfile, FlightDevice, NandDevice, PageId, PowerCut,
    PowerCutDevice, TraceDevice,
};
use stash_obs::json::{self, JsonValue};
use stash_obs::{FlightRecorder, Tracer, POSTMORTEM_SCHEMA};
use std::sync::Arc;

const SEED: u64 = 0xD0D0;
/// Op index of the cut: op 0 is the erase, ops 1.. are page programs, so
/// op 5 tears the fifth program mid-pulse.
const CUT_AT: u64 = 5;

/// One full crash run; returns the dumped artifact's bytes plus the
/// recorder's captured/total counters.
fn crash_run() -> (String, usize, u64) {
    let recorder = FlightRecorder::shared();
    recorder.set_dump_dir("results");
    recorder.set_label("smoke");
    let tracer = Tracer::shared();
    recorder.set_tracer(Some(Arc::clone(&tracer)));

    let mut dev = PowerCutDevice::with_cuts(
        FlightDevice::new(TraceDevice::new(Chip::new(ChipProfile::vendor_a_scaled(), SEED))),
        vec![PowerCut { at_op: CUT_AT, fraction: 0.5 }],
    );
    dev.install_recorder(Some(tracer.clone()));
    dev.install_flight_sink(Some(recorder.clone()));

    let cpp = dev.geometry().cells_per_page();
    let mut rng = SmallRng::seed_from_u64(SEED);
    {
        let _s = tracer.span("setup");
        dev.erase_block(BlockId(0)).expect("erase");
    }
    {
        let _s = tracer.span("host_write");
        for p in 0..8u32 {
            let data = BitPattern::random_half(&mut rng, cpp);
            if dev.program_page(PageId::new(BlockId(0), p), &data).is_err() {
                break; // the cut landed
            }
        }
    }
    assert!(dev.is_off(), "the scheduled cut never fired");

    let artifact = recorder.last_dump().expect("power loss must auto-dump");
    let raw = std::fs::read_to_string(&artifact).expect("read postmortem artifact");
    (raw, recorder.len(), recorder.seq())
}

fn main() {
    let mut run = Run::new("postmortem_smoke", Scale::Full);
    run.header(
        "Postmortem smoke: mid-pulse power cut through the flight recorder",
        &format!("cut at op {CUT_AT} (a page program, fraction 0.5), seed {SEED:#x}"),
    );
    print!("{}", run.out);

    let (raw, captured, total_ops) = crash_run();

    // The artifact is a valid stash-postmortem/1 document whose header
    // matches the recorder and whose final entry is the torn program.
    let mut lines = raw.lines();
    let head = json::parse(lines.next().expect("header line")).expect("header parses");
    assert_eq!(head.get("schema").and_then(JsonValue::as_str), Some(POSTMORTEM_SCHEMA));
    assert_eq!(head.get("type").and_then(JsonValue::as_str), Some("postmortem_summary"));
    assert_eq!(head.get("trigger").and_then(JsonValue::as_str), Some("power-loss"));
    assert_eq!(head.get("captured").and_then(JsonValue::as_f64), Some(captured as f64));
    assert_eq!(head.get("faults").and_then(JsonValue::as_f64), Some(1.0));
    let entries: Vec<JsonValue> = lines.map(|l| json::parse(l).expect("entry parses")).collect();
    assert_eq!(entries.len(), captured, "header captured count matches entry lines");
    let last = entries.last().expect("at least one entry");
    assert_eq!(last.get("torn").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(last.get("op").and_then(JsonValue::as_str), Some("program"));
    assert_eq!(last.get("seq").and_then(JsonValue::as_f64), Some(CUT_AT as f64));
    let span = last.get("span").and_then(JsonValue::as_str).unwrap_or("");
    assert!(span.contains("host_write"), "torn op lost its span context: {span:?}");

    // A second identical run reproduces the artifact byte-for-byte.
    let (raw2, captured2, total2) = crash_run();
    assert_eq!(raw, raw2, "postmortem artifact is not reproducible");
    assert_eq!((captured, total_ops), (captured2, total2));

    println!("captured\t{captured}");
    println!("total_ops\t{total_ops}");
    println!("artifact_bytes\t{}", raw.len());
    run.meter.record("captured", captured as f64);
    run.meter.record("total_ops", total_ops as f64);
    run.meter.record("artifact_bytes", raw.len() as f64);
    run.meter.record("cut_at", CUT_AT as f64);
    run.meter.finish();
    println!("# OK: postmortem artifact valid and reproducible");
}
