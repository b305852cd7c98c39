//! Quickstart: hide a secret inside public data on a simulated flash chip,
//! read the public data back normally, recover the secret with the key, and
//! finally destroy it with a single block erase.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use rand::{rngs::SmallRng, SeedableRng};
use stash::crypto::HidingKey;
use stash::flash::{BitPattern, BlockId, Chip, ChipProfile, Geometry, NandDevice, PageId};
use stash::vthi::{Hider, VthiConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A simulated sample of the paper's vendor-A chip model: full-size
    // 18048-byte pages (256 hidden bits each), a handful of blocks so the
    // demo runs instantly.
    let mut profile = ChipProfile::vendor_a();
    profile.geometry = Geometry { blocks_per_chip: 4, pages_per_block: 8, page_bytes: 18048 };
    let mut chip = Chip::new(profile, 0x5EED);
    let cfg = VthiConfig::paper_default();
    let key = HidingKey::from_passphrase("a perfectly ordinary day planner");

    println!("chip:   {}", chip.profile().name);
    println!(
        "config: Vth={} max_pp_steps={} hidden_bits/page={} payload={} B/page",
        cfg.vth,
        cfg.max_pp_steps,
        cfg.hidden_bits_per_page,
        cfg.payload_bytes_per_page()
    );

    // The normal user's public data (encrypted in practice — random here).
    let cpp = chip.geometry().cells_per_page();
    let mut rng = SmallRng::seed_from_u64(7);
    let public = BitPattern::random_half(&mut rng, cpp);

    // The hiding user's secret.
    let mut secret = b"meet at the old pier, 06:00".to_vec();
    secret.resize(cfg.payload_bytes_per_page(), 0);

    let block = BlockId(0);
    let page = PageId::new(block, 0);
    let mut hider = Hider::new(&mut chip, key, cfg);
    hider.chip_mut().erase_block(block)?;

    // One call: program the public page, then nudge key-selected cells.
    let report = hider.hide_on_fresh_page(page, &public, &secret)?;
    println!(
        "hidden: {} cells, {} partial-program steps, {} stragglers",
        report.cells.len(),
        report.pp_steps,
        report.stragglers
    );

    // The normal user reads the page with a standard read — intact.
    let read = hider.chip_mut().read_page(page)?;
    println!(
        "public: {} bit errors in {} bits (standard read, no key needed)",
        read.hamming_distance(&public),
        public.len()
    );

    // The hiding user recovers the secret with ONE shifted read.
    hider.chip_mut().reset_meter();
    let recovered = hider.reveal_page(page, Some(&public))?;
    let m = hider.chip().meter();
    println!(
        "secret: {:?} (decode cost: {} ops, {:.0} us simulated)",
        String::from_utf8_lossy(&recovered[..27.min(recovered.len())]),
        m.total_ops(),
        m.device_time_us
    );
    assert_eq!(recovered, secret);

    // Deniable destruction: one erase and the hidden payload is gone.
    hider.destroy_block(block)?;
    match hider.reveal_page(page, Some(&public)) {
        Err(e) => println!("after erase: unrecoverable ({e})"),
        Ok(bytes) => println!("after erase: garbage ({} bytes of noise)", bytes.len()),
    }
    Ok(())
}
