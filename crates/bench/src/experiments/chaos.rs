//! Chaos sweep: hidden-data survival under injected flash faults.
//!
//! Runs the full stack (chip → FTL → hidden volume) against a deterministic
//! [`FaultPlan`] at increasing transient-fault rates, with one block
//! scheduled to go grown bad mid-run and a retention pause before recovery.
//! The recovery pipeline — bounded retries with backoff, the `Vth` read
//! sweep, the scrubber's refresh/migrate passes and FTL block retirement —
//! must hold byte survival at ≥ 99.9% through the 1% fault point.
//!
//! Each fault rate is one `stash-par` work item (own chip, FTL, volume and
//! tracer, all derived from the rate's seed); TSV and JSON rows are
//! collected in rate order, so output is byte-identical for any
//! `STASH_THREADS`. Wall time, thread count and the mean remount wall time
//! live under the JSON's `wall` object, outside the `deterministic` object
//! that holds the `rates` series `bench_compare` gates on.

use crate::{f, outln, rng, write_trace_artifacts, Run};
use rand::Rng;
use stash_flash::{
    BitPattern, BlockId, Chip, ChipProfile, FaultDevice, FaultPlan, Geometry, NandDevice,
    TraceDevice,
};
use stash_ftl::{Ftl, FtlConfig};
use stash_obs::json::write_num;
use stash_obs::Tracer;
use stash_stego::{HiddenVolume, StegoConfig};

const RATES: [f64; 4] = [0.0, 0.001, 0.01, 0.05];
const SLOTS: usize = 6;
const GROWN_BAD_AT_OP: u64 = 400;
/// The fault rate whose trace is exported as the flamegraph/JSONL artifact.
const TRACED_RATE: f64 = 0.01;

fn volume_profile() -> ChipProfile {
    let mut p = ChipProfile::vendor_a();
    p.geometry = Geometry { blocks_per_chip: 12, pages_per_block: 8, page_bytes: 1024 };
    p
}

fn key() -> stash_crypto::HidingKey {
    stash_crypto::HidingKey::from_passphrase("chaos sweep")
}

/// One full chaos run at a single fault rate: returns the TSV cells, the
/// JSON row for that rate and the (nondeterministic) remount wall time.
fn run_rate(i: usize, rate: f64) -> (Vec<String>, String, f64) {
    let seed = 9000 + i as u64;
    let plan = FaultPlan::new(seed)
        .with_program_fail(rate)
        .with_partial_program_fail(rate)
        .with_erase_fail(rate)
        .schedule_grown_bad(BlockId(5), GROWN_BAD_AT_OP);
    let chip = FaultDevice::with_plan(TraceDevice::new(Chip::new(volume_profile(), seed)), plan);
    let ftl = Ftl::new(chip, FtlConfig { reserve_blocks: 4, gc_low_water: 2 }).unwrap();
    let cfg = StegoConfig::for_geometry(ftl.chip().geometry());
    let mut vol = HiddenVolume::format(ftl, key(), cfg.clone(), SLOTS).unwrap();
    let tracer = Tracer::shared();
    vol.attach_tracer(Some(tracer.clone()));

    // Public fill, hidden payloads, then GC churn — all under faults.
    let cap = vol.ftl().capacity_pages();
    let cpp = vol.ftl().chip().geometry().cells_per_page();
    let mut rng = rng(seed);
    {
        let _s = tracer.span("fill_public");
        for lpn in 0..cap {
            let data = BitPattern::random_half(&mut rng, cpp);
            vol.write_public(lpn, &data).expect("public write");
        }
    }
    let payloads: Vec<Vec<u8>> =
        (0..SLOTS).map(|s| (0..cfg.slot_bytes()).map(|b| (s * 37 + b) as u8).collect()).collect();
    {
        let _s = tracer.span("write_hidden");
        for (s, p) in payloads.iter().enumerate() {
            vol.write_hidden(s, p).expect("hidden write");
        }
    }
    {
        let _s = tracer.span("churn");
        for _ in 0..cap {
            let lpn = rng.gen_range(0..cap);
            let data = BitPattern::random_half(&mut rng, cpp);
            vol.write_public(lpn, &data).expect("churn write");
        }
    }

    // A month on the shelf, then the maintenance pass.
    {
        let _s = tracer.span("retention_wait");
        vol.ftl_mut().chip_mut().age_days(30.0);
    }
    let scrub = vol.scrub(8).expect("scrub");

    // Cold mount: power-cycle the device and rebuild the whole stack from
    // the medium — FTL journal replay first, then hidden-slot recovery.
    let dev = vol.unmount().into_chip();
    let device_us_before = dev.meter().device_time_us;
    let remount_wall = std::time::Instant::now();
    let (mut ftl_back, mount) = {
        let _s = tracer.span("cold_mount");
        Ftl::mount(dev, FtlConfig { reserve_blocks: 4, gc_low_water: 2 }).expect("mount")
    };
    ftl_back.attach_tracer(Some(tracer.clone()));
    let (mut vol2, remount) =
        HiddenVolume::remount(ftl_back, key(), cfg.clone(), SLOTS).expect("remount");
    let remount_wall_us = remount_wall.elapsed().as_secs_f64() * 1e6;
    let remount_device_us = vol2.ftl().chip().meter().device_time_us - device_us_before;
    tracer.counter_add("mount_journal_replayed", "", mount.live_pages);
    tracer.counter_add("mount_torn_discarded", "", mount.torn_pages);
    tracer.gauge_set("remount_device_us", "", remount_device_us);
    let mut survived = 0usize;
    let total = SLOTS * cfg.slot_bytes();
    {
        let _s = tracer.span("readback");
        for (s, expect) in payloads.iter().enumerate() {
            if let Ok(Some(got)) = vol2.read_hidden(s) {
                survived += got.iter().zip(expect).filter(|(a, b)| a == b).count();
            }
        }
    }
    let survival = survived as f64 / total as f64;
    let meter = vol2.ftl().chip().meter();
    let tsv = vec![
        f(rate, 3),
        f(survival, 4),
        meter.total_faults().to_string(),
        vol2.ftl().stats().retirements.to_string(),
        scrub.migrated.to_string(),
        scrub.refreshed.to_string(),
        (scrub.lost + remount.lost).to_string(),
    ];

    let report = tracer.report();
    let retries =
        report.counters.iter().find(|(n, _, _)| n == "transient_retries").map_or(0, |c| c.2);
    let fields = [
        ("fault_rate", rate),
        ("survival", survival),
        ("faults", meter.total_faults() as f64),
        ("retired_blocks", vol2.ftl().stats().retirements as f64),
        ("scrub_migrated", scrub.migrated as f64),
        ("scrub_refreshed", scrub.refreshed as f64),
        ("lost", (scrub.lost + remount.lost) as f64),
        ("retries", retries as f64),
        ("ops", meter.total_ops() as f64),
        ("journal_replayed", mount.live_pages as f64),
        ("torn_pages", mount.torn_pages as f64),
        ("hidden_reencoded", remount.reconstructed as f64),
        ("remount_device_us", remount_device_us),
        ("device_time_us", meter.device_time_us),
        ("energy_uj", meter.energy_uj),
    ];
    let mut json_row = String::from("    {");
    for (i, (key, v)) in fields.into_iter().enumerate() {
        json_row.push_str(if i == 0 { "\"" } else { ",\"" });
        json_row.push_str(key);
        json_row.push_str("\":");
        write_num(&mut json_row, v);
    }
    json_row.push('}');

    if rate == TRACED_RATE {
        write_trace_artifacts("chaos", &report);
    }
    if rate <= 0.01 {
        assert!(survival >= 0.999, "survival {survival} below 99.9% at fault rate {rate}");
    }
    (tsv, json_row, remount_wall_us)
}

pub fn run(r: &mut Run) {
    r.header(
        "Chaos sweep: hidden-byte survival vs injected fault rate",
        &format!(
            "{SLOTS} slots; transient program/partial-program/erase faults at the listed rate, \
             one grown-bad block scheduled at op {GROWN_BAD_AT_OP}, 30-day retention pause, \
             then scrub + remount"
        ),
    );
    r.row(
        ["fault_rate", "survival", "faults", "retired", "migrated", "refreshed", "lost"]
            .map(String::from),
    );

    let results = stash_par::par_map(RATES.to_vec(), run_rate);

    let mut json_rows = Vec::new();
    let mut remount_wall_us_total = 0.0;
    for (tsv, json_row, remount_wall_us) in results {
        r.row(tsv);
        json_rows.push(json_row);
        remount_wall_us_total += remount_wall_us;
    }

    r.meter.record_wall(
        "mean_remount_wall_us",
        (remount_wall_us_total / RATES.len() as f64 * 1e3).round() / 1e3,
    );
    r.meter.record("slots", SLOTS as f64);
    r.meter.record("grown_bad_at_op", GROWN_BAD_AT_OP as f64);
    r.meter.record_rows("rates", &json_rows);
    outln!(r, "ok: >=99.9% of hidden payload bytes survive through the 1% fault point");
    outln!(r, "# machine-readable series: results/BENCH_chaos.json");
    outln!(r, "# trace artifacts (rate {TRACED_RATE}): results/TRACE_chaos.jsonl, results/TRACE_chaos.folded");
}
