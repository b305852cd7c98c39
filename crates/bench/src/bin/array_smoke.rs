//! Array-shard smoke: a 4-chip chaos run that kills an entire chip and
//! asserts full hidden recovery.
//!
//! The hidden volume stripes every parity group across distinct chips of
//! an [`ArrayDevice`], so a whole-chip loss costs each group at most one
//! member — which the group's parity slot rebuilds at remount. This smoke
//! drives the full stack (array → FTL → hidden volume) under transient
//! faults, grows every block of one chip bad, cold-mounts, and requires
//! 100% of hidden payload bytes back. `just array-smoke` runs it in CI;
//! the binary itself asserts, and `bench_check` validates the artifact.

use rand::Rng;
use stash_bench::{f, rng, Run, Scale};
use stash_flash::{
    ArrayDevice, BitPattern, BlockId, ChipProfile, FaultDevice, FaultPlan, Geometry, NandDevice,
    TraceDevice,
};
use stash_ftl::{Ftl, FtlConfig};
use stash_stego::{HiddenVolume, StegoConfig};

const CHIPS: u32 = 4;
const SLOTS: usize = 9; // 3 parity groups of 3 data slots each
const PARITY_GROUP: usize = 3;
const FAULT_RATE: f64 = 0.005;
const DEAD_CHIP: u32 = 1;
const SEED: u64 = 0xA44A;

fn chip_profile() -> ChipProfile {
    let mut p = ChipProfile::vendor_a();
    p.geometry = Geometry { blocks_per_chip: 12, pages_per_block: 8, page_bytes: 1024 };
    p
}

fn key() -> stash_crypto::HidingKey {
    stash_crypto::HidingKey::from_passphrase("array smoke")
}

fn main() {
    let mut run = Run::new("array_smoke", Scale::Full);
    run.header(
        "Array-shard smoke: whole-chip loss on a 4-chip array",
        &format!(
            "{SLOTS} hidden slots striped in groups of {PARITY_GROUP} over {CHIPS} chips under \
             {FAULT_RATE} transient faults; chip {DEAD_CHIP} then dies wholesale and every \
             hidden byte must come back through cross-chip parity"
        ),
    );

    let plan = FaultPlan::new(SEED)
        .with_program_fail(FAULT_RATE)
        .with_partial_program_fail(FAULT_RATE)
        .with_erase_fail(FAULT_RATE);
    let array = ArrayDevice::homogeneous(chip_profile(), CHIPS, SEED);
    let dev = FaultDevice::with_plan(TraceDevice::new(array), plan);
    let ftl = Ftl::new(dev, FtlConfig { reserve_blocks: 4, gc_low_water: 2 }).unwrap();
    let mut cfg = StegoConfig::for_geometry(ftl.chip().geometry());
    cfg.parity_group = PARITY_GROUP;
    let mut vol = HiddenVolume::format(ftl, key(), cfg.clone(), SLOTS).unwrap();

    // Public fill, hidden payloads, a round of GC churn — all under faults.
    let cap = vol.ftl().capacity_pages();
    let cpp = vol.ftl().chip().geometry().cells_per_page();
    let mut r = rng(SEED);
    for lpn in 0..cap {
        vol.write_public(lpn, &BitPattern::random_half(&mut r, cpp)).expect("public write");
    }
    let payloads: Vec<Vec<u8>> =
        (0..SLOTS).map(|s| (0..cfg.slot_bytes()).map(|b| (s * 41 + b) as u8).collect()).collect();
    for (s, p) in payloads.iter().enumerate() {
        vol.write_hidden(s, p).expect("hidden write");
    }
    for _ in 0..cap / 2 {
        let lpn = r.gen_range(0..cap);
        vol.write_public(lpn, &BitPattern::random_half(&mut r, cpp)).expect("churn write");
    }

    // Kill chip DEAD_CHIP wholesale at the device level, then rebuild the
    // whole stack from the medium.
    let mut dev = vol.unmount().into_chip();
    // The array exposes the widened geometry; per-chip span is the total
    // block count over the chip count.
    let local = dev.geometry().blocks_per_chip / dev.chip_count();
    for b in DEAD_CHIP * local..(DEAD_CHIP + 1) * local {
        dev.grow_bad_block(BlockId(b)).expect("grow bad");
    }
    let (ftl_back, mount) =
        Ftl::mount(dev, FtlConfig { reserve_blocks: 4, gc_low_water: 2 }).expect("mount");
    let (mut vol2, remount) =
        HiddenVolume::remount(ftl_back, key(), cfg.clone(), SLOTS).expect("remount");

    let mut survived = 0usize;
    let total = SLOTS * cfg.slot_bytes();
    for (s, expect) in payloads.iter().enumerate() {
        if let Ok(Some(got)) = vol2.read_hidden(s) {
            survived += got.iter().zip(expect).filter(|(a, b)| a == b).count();
        }
    }
    let survival = survived as f64 / total as f64;
    let retired_on_dead =
        vol2.ftl().retired_blocks().iter().filter(|b| b.0 / local == DEAD_CHIP).count();

    run.row(
        ["chips", "dead_chip", "survival", "reconstructed", "lost", "retired_on_dead"]
            .map(String::from),
    );
    run.row([
        CHIPS.to_string(),
        DEAD_CHIP.to_string(),
        f(survival, 4),
        remount.reconstructed.to_string(),
        remount.lost.to_string(),
        retired_on_dead.to_string(),
    ]);
    print!("{}", run.out);

    assert_eq!(remount.lost, 0, "whole-chip loss must be fully recoverable: {remount:?}");
    assert!(
        (survival - 1.0).abs() < f64::EPSILON,
        "only {survival} of hidden bytes survived chip {DEAD_CHIP} dying"
    );
    assert_eq!(
        retired_on_dead, local as usize,
        "every block of the dead chip must be retired at mount"
    );

    run.meter.record("chips", f64::from(CHIPS));
    run.meter.record("dead_chip", f64::from(DEAD_CHIP));
    run.meter.record("survival", survival);
    run.meter.record("reconstructed", remount.reconstructed as f64);
    run.meter.record("lost", remount.lost as f64);
    run.meter.record("retired_on_dead", retired_on_dead as f64);
    run.meter.record("journal_replayed", mount.live_pages as f64);
    run.meter.finish();
    println!("ok: 100% of hidden payload bytes survive a whole-chip loss on a {CHIPS}-chip array");
    println!("# machine-readable record: results/BENCH_array_smoke.json");
}
