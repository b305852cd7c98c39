//! Cross-crate integration: the §9.2 hidden volume living inside a public
//! FTL device through garbage collection, remounts and partial destruction.

use rand::{rngs::SmallRng, Rng, SeedableRng};
use stash::crypto::HidingKey;
use stash::flash::{BitPattern, Chip, ChipProfile, Geometry, NandDevice};
use stash::ftl::{Ftl, FtlConfig};
use stash::stego::{HiddenVolume, StegoConfig};

fn small_profile() -> ChipProfile {
    let mut p = ChipProfile::vendor_a();
    p.geometry = Geometry { blocks_per_chip: 14, pages_per_block: 8, page_bytes: 1024 };
    p
}

fn make_volume(seed: u64, slots: usize) -> HiddenVolume {
    let chip = Chip::new(small_profile(), seed);
    let ftl = Ftl::new(chip, FtlConfig { reserve_blocks: 4, gc_low_water: 2 }).unwrap();
    let cfg = StegoConfig::for_geometry(ftl.chip().geometry());
    let key = HidingKey::from_passphrase("integration volume");
    let mut vol = HiddenVolume::format(ftl, key, cfg, slots).unwrap();
    // A hidden volume presupposes a public volume full of data.
    let cap = vol.ftl().capacity_pages();
    let cpp = vol.ftl().chip().geometry().cells_per_page();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xF1F1);
    for lpn in 0..cap {
        let data = BitPattern::random_half(&mut rng, cpp);
        vol.write_public(lpn, &data).unwrap();
    }
    vol
}

#[test]
fn full_lifecycle_write_churn_remount_read() {
    let mut vol = make_volume(1, 6);
    let secrets: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i * 3 + 1; vol.slot_bytes()]).collect();
    for (i, s) in secrets.iter().enumerate() {
        vol.write_hidden(i, s).unwrap();
    }

    // Heavy public churn with GC.
    let cap = vol.ftl().capacity_pages();
    let cpp = vol.ftl().chip().geometry().cells_per_page();
    let mut rng = SmallRng::seed_from_u64(99);
    for _ in 0..cap * 2 {
        let lpn = rng.gen_range(0..cap);
        let data = BitPattern::random_half(&mut rng, cpp);
        vol.write_public(lpn, &data).unwrap();
    }
    assert!(vol.ftl().stats().gc_runs > 0);

    // Power cycle.
    let ftl = vol.unmount();
    let geometry = *ftl.chip().geometry();
    let key = HidingKey::from_passphrase("integration volume");
    let (mut vol2, report) =
        HiddenVolume::remount(ftl, key, StegoConfig::for_geometry(&geometry), 6).unwrap();
    assert_eq!(report.lost, 0, "{report:?}");
    for (i, s) in secrets.iter().enumerate() {
        assert_eq!(vol2.read_hidden(i).unwrap().unwrap(), *s, "slot {i}");
    }
}

#[test]
fn wrong_key_sees_no_volume() {
    let vol = make_volume(2, 4);
    let secret_count = {
        let mut vol = vol;
        let s = vec![0x5A; vol.slot_bytes()];
        vol.write_hidden(0, &s).unwrap();
        vol.unmount()
    };
    let geometry = *secret_count.chip().geometry();
    let wrong = HidingKey::from_passphrase("guessed key");
    let (mut vol2, report) =
        HiddenVolume::remount(secret_count, wrong, StegoConfig::for_geometry(&geometry), 4)
            .unwrap();
    // With the wrong key the derived slot locations fall on ordinary pages:
    // everything reads as empty or garbage, never the secret.
    for i in 0..4 {
        if let Some(bytes) = vol2.read_hidden(i).unwrap() {
            assert_ne!(bytes, vec![0x5A; bytes.len()]);
        }
    }
    let _ = report;
}

#[test]
fn public_device_statistics_unremarkable() {
    // The public volume over a hiding device behaves like any FTL device:
    // write amplification and wear look normal (the deniability story needs
    // the device to be boring).
    let mut vol = make_volume(3, 4);
    let s = vec![0xEE; vol.slot_bytes()];
    vol.write_hidden(1, &s).unwrap();
    let cap = vol.ftl().capacity_pages();
    let cpp = vol.ftl().chip().geometry().cells_per_page();
    let mut rng = SmallRng::seed_from_u64(5);
    for _ in 0..cap {
        let lpn = rng.gen_range(0..cap);
        let data = BitPattern::random_half(&mut rng, cpp);
        vol.write_public(lpn, &data).unwrap();
    }
    let wa = vol.ftl().stats().write_amplification();
    assert!((1.0..4.0).contains(&wa), "write amplification {wa}");
}
