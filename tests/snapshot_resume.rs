//! Checkpoint resume: checkpoint a longevity-style run mid-flight,
//! restore the checkpoint onto a *different* device, replay the tail of the
//! workload, and everything observable — hidden-payload decode and per-block
//! PEC counters — lands bit-identical to the uninterrupted run.

use rand::{rngs::SmallRng, SeedableRng};
use stash::crypto::HidingKey;
use stash::flash::snapshot::{self, checkpoint_bytes};
use stash::flash::{BitPattern, BlockId, Chip, ChipProfile, Geometry, NandDevice};
use stash::ftl::{AccessPattern, Ftl, FtlConfig, WorkloadGen};
use stash::stego::{HiddenVolume, StegoConfig};

const SLOTS: usize = 4;
const PREFIX_GENS: u64 = 2;
const TAIL_GENS: u64 = 2;

fn small_profile() -> ChipProfile {
    let mut p = ChipProfile::vendor_a();
    p.geometry = Geometry { blocks_per_chip: 12, pages_per_block: 8, page_bytes: 1024 };
    p
}

fn key() -> HidingKey {
    HidingKey::from_passphrase("snapshot resume")
}

/// What the end of a run looks like to an observer: the decoded hidden
/// payloads and the wear state of every block.
struct RunEnd {
    decodes: Vec<Option<Vec<u8>>>,
    pecs: Vec<u32>,
    checkpoint: Vec<u8>,
}

/// One longevity-style run: format, fill public, store hidden payloads,
/// churn `PREFIX_GENS` full-device generations of Zipfian writes, then
/// either checkpoint (baseline) or restore a baseline checkpoint (resumed
/// run), churn `TAIL_GENS` more generations, and read everything back.
///
/// A snapshot only restores into an identically-configured device (same
/// profile and construction seed), so the resumed run replays the same
/// prefix, is then knocked off course (retention aging, clock drift), and
/// must be pulled back to the baseline's exact mid-run state by the
/// checkpoint file.
fn run(restore_from: Option<&std::path::Path>) -> RunEnd {
    let device = Chip::new(small_profile(), 0x5EED);
    let ftl = Ftl::new(device, FtlConfig { reserve_blocks: 4, gc_low_water: 2 }).unwrap();
    let cfg = StegoConfig::for_geometry(ftl.chip().geometry());
    let mut vol = HiddenVolume::format(ftl, key(), cfg, SLOTS).unwrap();
    let cap = vol.ftl().capacity_pages();
    let cpp = vol.ftl().chip().geometry().cells_per_page();

    let mut fill = SmallRng::seed_from_u64(7);
    for lpn in 0..cap {
        vol.write_public(lpn, &BitPattern::random_half(&mut fill, cpp)).unwrap();
    }
    let payloads: Vec<Vec<u8>> =
        (0..SLOTS).map(|s| vec![0xC0 + s as u8; vol.slot_bytes()]).collect();
    for (s, p) in payloads.iter().enumerate() {
        vol.write_hidden(s, p).unwrap();
    }

    let mut zipf = WorkloadGen::new(AccessPattern::Zipfian { theta: 0.99 }, cap, 3);
    let mut data = SmallRng::seed_from_u64(11);
    for _ in 0..PREFIX_GENS * cap {
        vol.write_public(zipf.next_lpn(), &BitPattern::random_half(&mut data, cpp)).unwrap();
    }

    if let Some(path) = restore_from {
        // Knock the resumed device off course — four months of retention
        // decay and a clock skew, none of which touches the FTL map — and
        // prove the restore actually replaces state rather than finding it
        // already equal.
        vol.ftl_mut().chip_mut().age_days(120.0);
        vol.ftl_mut().chip_mut().advance_time_us(1e6);
        let before = checkpoint_bytes(vol.ftl().chip());
        let baseline = std::fs::read(path).unwrap();
        assert_ne!(before, baseline, "perturbed device should differ before restore");
        snapshot::restore_from(vol.ftl_mut().chip_mut(), path).unwrap();
    }
    let checkpoint = checkpoint_bytes(vol.ftl().chip());

    for _ in 0..TAIL_GENS * cap {
        vol.write_public(zipf.next_lpn(), &BitPattern::random_half(&mut data, cpp)).unwrap();
    }

    let decodes = (0..SLOTS).map(|s| vol.read_hidden(s).unwrap()).collect();
    let blocks = vol.ftl().chip().geometry().blocks_per_chip;
    let pecs = (0..blocks).map(|b| vol.ftl().chip().block_pec(BlockId(b)).unwrap()).collect();
    RunEnd { decodes, pecs, checkpoint }
}

#[test]
fn restored_checkpoint_resumes_bit_identically() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("stash-snapshot-resume-{}.bin", std::process::id()));

    // Baseline: uninterrupted run, checkpointing to disk mid-flight.
    let baseline = run(None);
    std::fs::write(&path, &baseline.checkpoint).unwrap();

    // Resumed: a twin device replays the same host workload, drifts off
    // course, then adopts the baseline's mid-run state from the checkpoint.
    let resumed = run(Some(&path));
    let _ = std::fs::remove_file(&path);

    assert_eq!(resumed.checkpoint, baseline.checkpoint, "restore must round-trip exactly");
    assert_eq!(resumed.pecs, baseline.pecs, "PEC counters diverged after resume");
    assert_eq!(resumed.decodes, baseline.decodes, "hidden decode diverged after resume");
    // And the payloads are not just identical but *correct*.
    for (s, got) in baseline.decodes.iter().enumerate() {
        let want = vec![0xC0 + s as u8; got.as_ref().map_or(0, Vec::len)];
        assert_eq!(got.as_deref(), Some(&want[..]), "slot {s} lost its payload");
    }
}
