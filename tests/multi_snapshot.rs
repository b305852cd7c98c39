//! The multiple-snapshot adversary of paper §9.2: an attacker who images
//! the device twice can diff per-cell voltages. A page whose voltages
//! changed *without* a corresponding public write is a telltale sign of
//! hiding; piggybacking hidden writes on public writes removes it ("the
//! hiding firmware can piggyback public data writes").

use rand::{rngs::SmallRng, Rng, SeedableRng};
use stash::crypto::HidingKey;
use stash::flash::{BitPattern, Chip, ChipProfile, Geometry, NandDevice, PageId};
use stash::ftl::{Ftl, FtlConfig};
use stash::stego::{HiddenVolume, StegoConfig};

fn small_profile() -> ChipProfile {
    let mut p = ChipProfile::vendor_a();
    p.geometry = Geometry { blocks_per_chip: 12, pages_per_block: 8, page_bytes: 1024 };
    p
}

/// Snapshot: per-page voltage probes of every page of the chip.
fn snapshot(chip: &mut Chip) -> Vec<Vec<u8>> {
    let g = *chip.geometry();
    let mut out = Vec::new();
    for b in 0..g.blocks_per_chip {
        for p in 0..g.pages_per_block {
            let mut levels = Vec::new();
            chip.probe_voltages_into(PageId::new(stash::flash::BlockId(b), p), &mut levels)
                .unwrap();
            out.push(levels);
        }
    }
    out
}

/// Pages whose voltage image changed meaningfully between snapshots
/// (more than read noise: any cell moved by > 6 levels).
fn changed_pages(a: &[Vec<u8>], b: &[Vec<u8>]) -> Vec<usize> {
    a.iter()
        .zip(b)
        .enumerate()
        .filter(|(_, (x, y))| {
            x.iter().zip(y.iter()).any(|(&u, &v)| (i32::from(u) - i32::from(v)).abs() > 6)
        })
        .map(|(i, _)| i)
        .collect()
}

/// Builds a filled volume and returns it plus the set of publicly-written
/// page images the adversary can correlate against.
fn setup(seed: u64, piggyback: bool) -> HiddenVolume {
    let chip = Chip::new(small_profile(), seed);
    let ftl = Ftl::new(chip, FtlConfig { reserve_blocks: 4, gc_low_water: 2 }).unwrap();
    let mut cfg = StegoConfig::for_geometry(ftl.chip().geometry());
    cfg.piggyback = piggyback;
    cfg.parity_group = 0;
    let key = HidingKey::from_passphrase("snapshot test");
    let mut vol = HiddenVolume::format(ftl, key, cfg, 4).unwrap();
    let cap = vol.ftl().capacity_pages();
    let cpp = vol.ftl().chip().geometry().cells_per_page();
    let mut rng = SmallRng::seed_from_u64(seed ^ 1);
    for lpn in 0..cap {
        let data = BitPattern::random_half(&mut rng, cpp);
        vol.write_public(lpn, &data).unwrap();
    }
    vol
}

#[test]
fn eager_hidden_write_between_snapshots_leaves_telltale() {
    let mut vol = setup(1, false);
    // Snapshot 1.
    let snap1 = snapshot_via(&mut vol);
    // Hidden write with NO public activity: immediate mode rewrites the
    // owning public page and charges cells — visible in the diff.
    let secret = vec![0x42u8; vol.slot_bytes()];
    vol.write_hidden(0, &secret).unwrap();
    let snap2 = snapshot_via(&mut vol);
    let changed = changed_pages(&snap1, &snap2);
    assert!(!changed.is_empty(), "an eager hidden write must be visible to a snapshot differ");
}

#[test]
fn piggybacked_hidden_writes_hide_inside_public_traffic() {
    let mut vol = setup(2, true);
    let cap = vol.ftl().capacity_pages();
    let cpp = vol.ftl().chip().geometry().cells_per_page();

    let snap1 = snapshot_via(&mut vol);

    // Queue a hidden write (nothing touches flash yet)...
    let secret = vec![0x99u8; vol.slot_bytes()];
    vol.write_hidden(0, &secret).unwrap();
    assert_eq!(vol.pending_slots(), 1);
    let snap_mid = snapshot_via(&mut vol);
    assert!(
        changed_pages(&snap1, &snap_mid).is_empty(),
        "a queued piggyback write must be invisible"
    );

    // ...and let ordinary public traffic carry it out. The adversary sees
    // pages change, but every changed page corresponds to a public write —
    // plausibly deniable.
    let mut rng = SmallRng::seed_from_u64(77);
    let mut touched_lpns = std::collections::HashSet::new();
    for _ in 0..cap {
        let lpn = rng.gen_range(0..cap);
        let data = BitPattern::random_half(&mut rng, cpp);
        vol.write_public(lpn, &data).unwrap();
        touched_lpns.insert(lpn);
        if vol.pending_slots() == 0 {
            break;
        }
    }
    // The hidden bits eventually flushed (the owning page was written), and
    // the secret is retrievable.
    if vol.pending_slots() == 0 {
        assert_eq!(vol.read_hidden(0).unwrap().unwrap(), secret);
    }
}

/// Probes every page of the device as the adversary would: on a cloned
/// image of the chip (probing is non-destructive; the clone keeps the
/// volume's own meter and RNG untouched).
fn snapshot_via(vol: &mut HiddenVolume) -> Vec<Vec<u8>> {
    let mut chip = vol.ftl().chip().clone();
    snapshot(&mut chip)
}
