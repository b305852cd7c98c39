//! A deniable hidden volume inside a normal-looking flash drive
//! (paper §9.2), running over the FTL with garbage collection churn.
//!
//! ```sh
//! cargo run --example hidden_volume
//! ```

use rand::{rngs::SmallRng, Rng, SeedableRng};
use stash::crypto::HidingKey;
use stash::flash::{BitPattern, Chip, ChipProfile, NandDevice};
use stash::ftl::{Ftl, FtlConfig};
use stash::stego::{HiddenVolume, StegoConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A pocket-size device keeps the demo fast; the physics are identical.
    let mut profile = ChipProfile::vendor_a();
    profile.geometry =
        stash::flash::Geometry { blocks_per_chip: 16, pages_per_block: 8, page_bytes: 2048 };
    let chip = Chip::new(profile, 0xCAFE);
    let ftl = Ftl::new(chip, FtlConfig { reserve_blocks: 5, gc_low_water: 2 })?;
    let cfg = StegoConfig::for_geometry(ftl.chip().geometry());
    let key = HidingKey::from_passphrase("the volume that is not there");

    println!(
        "public volume: {} pages; hidden slots hold {} bytes each",
        ftl.capacity_pages(),
        cfg.slot_bytes()
    );

    // Format the hidden volume and fill the public volume (the hidden
    // volume lives *inside* pages the public volume owns).
    let mut vol = HiddenVolume::format(ftl, key.clone(), cfg.clone(), 8)?;
    let lpns = vol.ftl().capacity_pages();
    let cpp = vol.ftl().chip().geometry().cells_per_page();
    let mut rng = SmallRng::seed_from_u64(1);
    for lpn in 0..lpns {
        let data = BitPattern::random_half(&mut rng, cpp);
        vol.write_public(lpn, &data)?;
    }

    // The hiding user stores secrets.
    let secrets: Vec<Vec<u8>> = (0..4u8)
        .map(|i| {
            let mut s = format!("dissident draft #{i}: ").into_bytes();
            s.resize(vol.slot_bytes(), b'.');
            s
        })
        .collect();
    for (i, s) in secrets.iter().enumerate() {
        vol.write_hidden(i, s)?;
    }
    println!("hidden: {} slots written (each write doubles as cover traffic)", secrets.len());

    // Months of ordinary use: overwrites, garbage collection, wear.
    for _ in 0..lpns * 2 {
        let lpn = rng.gen_range(0..lpns);
        let data = BitPattern::random_half(&mut rng, cpp);
        vol.write_public(lpn, &data)?;
    }
    let stats = vol.ftl().stats();
    println!(
        "public churn: {} host writes, {} GC runs, {} migrations, WA {:.2}",
        stats.host_writes,
        stats.gc_runs,
        stats.gc_moves,
        stats.write_amplification()
    );

    // Power-cycle: unmount (cache gone) and remount from the key alone.
    let ftl = vol.unmount();
    let (mut vol, report) = HiddenVolume::remount(ftl, key, cfg, 8)?;
    println!(
        "remount: {} recovered, {} rebuilt from parity, {} lost, {} empty",
        report.recovered, report.reconstructed, report.lost, report.empty
    );

    for (i, expected) in secrets.iter().enumerate() {
        let got = vol.read_hidden(i)?.expect("slot written");
        assert_eq!(&got, expected, "slot {i}");
    }
    println!("all {} secrets intact after churn + remount", secrets.len());
    Ok(())
}
