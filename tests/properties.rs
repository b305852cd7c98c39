//! Cross-crate property tests: VT-HI invariants under arbitrary payloads,
//! keys and configurations. Each property runs 24 seeded cases; a failing
//! case names its seed.

use rand::{rngs::SmallRng, Rng, SeedableRng};
use stash::crypto::HidingKey;
use stash::flash::{BitPattern, BlockId, Chip, ChipProfile, Geometry, NandDevice, PageId};
use stash::vthi::{EccChoice, Hider, SelectionMode, VthiConfig};

/// A quick chip: vendor-A physics, small pages.
fn small_chip(seed: u64) -> Chip {
    let mut profile = ChipProfile::vendor_a();
    profile.geometry = Geometry { blocks_per_chip: 4, pages_per_block: 8, page_bytes: 1024 };
    Chip::new(profile, seed)
}

/// Runs `case` on 24 seeded random streams; a failing case names its seed
/// before the failure propagates.
fn for_cases(case: impl Fn(&mut SmallRng) + std::panic::RefUnwindSafe) {
    for seed in 0..24u64 {
        let run = || case(&mut SmallRng::seed_from_u64(seed));
        if let Err(panic) = std::panic::catch_unwind(run) {
            eprintln!("case with seed {seed} failed");
            std::panic::resume_unwind(panic);
        }
    }
}

fn small_cfg() -> VthiConfig {
    let mut cfg = VthiConfig::paper_default();
    cfg.hidden_bits_per_page = 64;
    cfg.ecc = EccChoice::Bch { t: 3, segment_bits: 0 };
    cfg
}

/// Any payload hidden under any key round-trips, regardless of the
/// public pattern (as long as it has enough erased cells).
#[test]
fn prop_hide_reveal_roundtrip() {
    for_cases(|rng| {
        let mut chip = small_chip(rng.gen());
        let cfg = small_cfg();
        let key = HidingKey::new([rng.gen(); 32]);
        let page = PageId::new(BlockId(0), rng.gen_range(0u32..8));
        let public = BitPattern::random_half(rng, chip.geometry().cells_per_page());
        let payload: Vec<u8> = (0..cfg.payload_bytes_per_page()).map(|_| rng.gen()).collect();

        chip.erase_block(BlockId(0)).unwrap();
        let mut hider = Hider::new(&mut chip, key, cfg);
        hider.hide_on_fresh_page(page, &public, &payload).unwrap();
        assert_eq!(hider.reveal_page(page, Some(&public)).unwrap(), payload);
    });
}

/// Hiding never changes what the public read returns (beyond the
/// device's own noise floor).
#[test]
fn prop_public_data_invariant() {
    for_cases(|rng| {
        let chip_seed = rng.gen();
        let cfg = small_cfg();
        let key = HidingKey::new([1u8; 32]);

        // Reference: program only, no hiding.
        let mut plain = small_chip(chip_seed);
        let public = BitPattern::random_half(rng, plain.geometry().cells_per_page());
        plain.erase_block(BlockId(0)).unwrap();
        plain.program_page(PageId::new(BlockId(0), 0), &public).unwrap();
        let baseline = plain.read_page(PageId::new(BlockId(0), 0)).unwrap();

        // Same chip sample, with hiding.
        let mut hidden_chip = small_chip(chip_seed);
        let payload: Vec<u8> = (0..cfg.payload_bytes_per_page()).map(|_| rng.gen()).collect();
        hidden_chip.erase_block(BlockId(0)).unwrap();
        let mut hider = Hider::new(&mut hidden_chip, key, cfg);
        hider.hide_on_fresh_page(PageId::new(BlockId(0), 0), &public, &payload).unwrap();
        let with_hiding = hider.chip_mut().read_page(PageId::new(BlockId(0), 0)).unwrap();

        // The invariant is that hiding adds (essentially) nothing on top of
        // the device's own noise — weak pages with low voltage offsets may
        // legitimately carry a few raw errors either way.
        let b = baseline.hamming_distance(&public) as i64;
        let h = with_hiding.hamming_distance(&public) as i64;
        assert!(b <= 16, "baseline noise implausibly high: {b}");
        assert!(h <= 16, "noise with hiding implausibly high: {h}");
        assert!((h - b).abs() <= 6, "hiding changed public errors: {b} -> {h}");
    });
}

/// The two selection modes both produce distinct, erased-cell-only
/// selections of the right size.
#[test]
fn prop_selection_sound() {
    for_cases(|rng| {
        let geometry = Geometry { blocks_per_chip: 4, pages_per_block: 8, page_bytes: 1024 };
        let key = HidingKey::new([rng.gen(); 32]);
        let page = PageId::new(BlockId(0), rng.gen_range(0u32..8));
        let mode = if rng.gen() { SelectionMode::Absolute } else { SelectionMode::OnesIndexed };
        let public = BitPattern::random_half(rng, geometry.cells_per_page());
        let cells =
            stash::vthi::select_hidden_cells(&key, &geometry, page, &public, 64, mode).unwrap();
        assert_eq!(cells.len(), 64);
        let unique: std::collections::HashSet<_> = cells.iter().collect();
        assert_eq!(unique.len(), 64);
        assert!(cells.iter().all(|&c| public.get(c)));
    });
}

/// Voltage monotonicity: partial programming can only raise measured
/// levels (within read noise), never lower them.
#[test]
fn prop_pp_monotone() {
    for_cases(|rng| {
        let mut chip = small_chip(rng.gen());
        let steps = rng.gen_range(1u8..6);
        let cpp = chip.geometry().cells_per_page();
        let public = BitPattern::random_half(rng, cpp);
        chip.erase_block(BlockId(0)).unwrap();
        let page = PageId::new(BlockId(0), 0);
        chip.program_page(page, &public).unwrap();

        let mut mask = BitPattern::zeros(cpp);
        for i in (0..cpp).filter(|&i| public.get(i)).take(32) {
            mask.set(i, true);
        }
        let mut before = Vec::new();
        chip.probe_voltages_into(page, &mut before).unwrap();
        for _ in 0..steps {
            chip.partial_program(page, &mask).unwrap();
        }
        let mut after = Vec::new();
        chip.probe_voltages_into(page, &mut after).unwrap();
        for i in 0..cpp {
            if mask.get(i) {
                // Allow a few levels of read noise; charge itself only goes up.
                assert!(
                    i32::from(after[i]) >= i32::from(before[i]) - 3,
                    "cell {i} dropped: {} -> {}",
                    before[i],
                    after[i]
                );
            }
        }
    });
}
