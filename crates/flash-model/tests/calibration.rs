//! Calibration tests: pin the simulator's statistics to what the paper
//! measured on real silicon (§4, §6, Figures 2, 3, 5).
//!
//! These are the contract between the substrate and every experiment built
//! on top of it. If a profile constant changes, these tests say whether the
//! simulator still "is" the paper's chip.

use rand::{rngs::SmallRng, SeedableRng};
use stash_flash::{
    BitPattern, BlockId, Chip, ChipProfile, Histogram, NandDevice, PageId, SLC_READ_REF,
};

/// The paper's default hidden-data threshold (§6.1).
const VTH: u8 = 34;

/// Programs every page of a block with fresh pseudorandom data, returning
/// the per-page data patterns.
fn program_block(chip: &mut Chip, b: BlockId, rng: &mut SmallRng) -> Vec<BitPattern> {
    let cpp = chip.geometry().cells_per_page();
    let pages = chip.geometry().pages_per_block;
    chip.erase_block(b).unwrap();
    (0..pages)
        .map(|p| {
            let data = BitPattern::random_half(rng, cpp);
            chip.program_page(PageId::new(b, p), &data).unwrap();
            data
        })
        .collect()
}

/// Splits a programmed block's probed levels into (erased-cell histogram,
/// programmed-cell histogram).
fn split_histograms(chip: &mut Chip, b: BlockId, data: &[BitPattern]) -> (Histogram, Histogram) {
    let mut erased = Histogram::new();
    let mut programmed = Histogram::new();
    let mut levels = Vec::new();
    for (p, pattern) in data.iter().enumerate() {
        chip.probe_voltages_into(PageId::new(b, p as u32), &mut levels).unwrap();
        for (i, &level) in levels.iter().enumerate() {
            if pattern.get(i) {
                erased.add_levels(&[level]);
            } else {
                programmed.add_levels(&[level]);
            }
        }
    }
    (erased, programmed)
}

fn scaled_chip(seed: u64) -> Chip {
    Chip::new(ChipProfile::vendor_a_scaled(), seed)
}

#[test]
fn erased_state_statistics_match_paper() {
    let mut chip = scaled_chip(11);
    let mut rng = SmallRng::seed_from_u64(99);
    let data = program_block(&mut chip, BlockId(0), &mut rng);
    let (erased, _) = split_histograms(&mut chip, BlockId(0), &data);

    // Paper §6.3: ~700 of ~72k erased cells per page naturally sit above
    // Vth=34 — about 1%. Give the model a generous band.
    let above_vth = erased.fraction_at_or_above(VTH);
    assert!(
        (0.004..0.025).contains(&above_vth),
        "fraction of erased cells above Vth={VTH}: {above_vth:.4}"
    );

    // Paper §4: 99.99% of erased cells measured within [0, 70].
    let above70 = erased.fraction_at_or_above(70);
    assert!(above70 < 0.001, "erased cells above level 70: {above70:.5}");

    // Essentially no erased cell may cross the SLC read reference.
    assert!(erased.fraction_at_or_above(SLC_READ_REF) < 1e-4);

    // Most erased cells are negatively charged and measure as level 0
    // (paper §4 footnote: negative voltages are not measurable).
    let at_zero = erased.fraction_in(0, 0);
    assert!(at_zero > 0.5, "only {at_zero:.3} of erased cells measured at 0");

    // The positive tail is a real, visible population (Fig. 2a plots it).
    let visible = erased.fraction_in(5, 70);
    assert!(visible > 0.02, "visible erased tail too thin: {visible:.4}");
}

#[test]
fn programmed_state_statistics_match_paper() {
    let mut chip = scaled_chip(12);
    let mut rng = SmallRng::seed_from_u64(7);
    let data = program_block(&mut chip, BlockId(0), &mut rng);
    let (_, programmed) = split_histograms(&mut chip, BlockId(0), &data);

    // Paper §4: 99.99% of programmed cells within [120, 210].
    let inside = programmed.fraction_in(120, 210);
    assert!(inside > 0.9985, "programmed cells in [120,210]: {inside:.5}");
    let mean = programmed.mean();
    assert!((150.0..185.0).contains(&mean), "programmed mean {mean:.1}");
    let sd = programmed.std_dev();
    assert!((6.0..15.0).contains(&sd), "programmed sd {sd:.1}");
}

#[test]
fn public_ber_is_low_and_grows_with_wear() {
    let mut fresh = scaled_chip(13);
    let mut worn = scaled_chip(13);
    let mut rng = SmallRng::seed_from_u64(5);

    // Fresh block.
    let data = program_block(&mut fresh, BlockId(0), &mut rng);
    let mut fresh_errs = 0u64;
    let mut bits = 0u64;
    for (p, pattern) in data.iter().enumerate() {
        let back = fresh.read_page(PageId::new(BlockId(0), p as u32)).unwrap();
        fresh_errs += pattern.hamming_distance(&back) as u64;
        bits += pattern.len() as u64;
    }
    let fresh_ber = fresh_errs as f64 / bits as f64;
    // Paper §8: normal-data BER is on the order of 3e-5.
    assert!(fresh_ber < 3e-4, "fresh public BER {fresh_ber:.2e}");

    // Worn block (rated endurance).
    worn.cycle_block(BlockId(0), 3000).unwrap();
    let mut rng2 = SmallRng::seed_from_u64(6);
    let data = program_block(&mut worn, BlockId(0), &mut rng2);
    let mut worn_errs = 0u64;
    for (p, pattern) in data.iter().enumerate() {
        let back = worn.read_page(PageId::new(BlockId(0), p as u32)).unwrap();
        worn_errs += pattern.hamming_distance(&back) as u64;
    }
    assert!(
        worn_errs > fresh_errs,
        "wear should raise BER: fresh {fresh_errs} vs worn {worn_errs} errors"
    );
}

#[test]
fn distributions_shift_right_with_wear() {
    // Paper Fig. 3: higher PEC ⇒ distributions move right.
    // One physical block cycled progressively, as on a real tester (using
    // different blocks would confound drift with manufacturing offsets).
    let mut rng = SmallRng::seed_from_u64(17);
    let mut chip = scaled_chip(14);
    let b = BlockId(0);
    let mut means = Vec::new();
    let mut tails = Vec::new();
    let mut last_pec = 0u32;
    for pec in [0u32, 1000, 2000, 3000] {
        chip.cycle_block(b, pec - last_pec).unwrap();
        last_pec = pec;
        let data = program_block(&mut chip, b, &mut rng);
        let (erased, programmed) = split_histograms(&mut chip, b, &data);
        means.push(programmed.mean());
        tails.push(erased.fraction_at_or_above(VTH));
    }
    assert!(
        means.windows(2).all(|w| w[1] > w[0]),
        "programmed means must increase with PEC: {means:?}"
    );
    // Total shift over 3000 PEC is several levels (Fig. 3b).
    let shift = means[3] - means[0];
    assert!((4.0..16.0).contains(&shift), "programmed shift over 3000 PEC: {shift:.2}");
    // The erased positive tail thickens with wear (Fig. 3a).
    assert!(tails[3] > tails[0] * 1.2, "erased tail should grow with wear: {tails:?}");
}

#[test]
fn samples_of_same_model_differ_visibly() {
    // Paper Fig. 2: four samples of the same model have noticeably
    // different distributions.
    let mut rng = SmallRng::seed_from_u64(3);
    let mut means = Vec::new();
    for seed in [1u64, 2, 3, 4] {
        let mut chip = scaled_chip(seed);
        let data = program_block(&mut chip, BlockId(0), &mut rng);
        let (_, programmed) = split_histograms(&mut chip, BlockId(0), &data);
        means.push(programmed.mean());
    }
    let max = means.iter().cloned().fold(f64::MIN, f64::max);
    let min = means.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        max - min > 0.5,
        "chip samples should differ by a visible fraction of a level: {means:?}"
    );
    assert!(max - min < 15.0, "samples should still be the same model: {means:?}");
}

#[test]
fn page_level_noisier_than_block_level() {
    // Paper Fig. 2c/d: page histograms vary more than block histograms.
    let mut chip = scaled_chip(15);
    let mut rng = SmallRng::seed_from_u64(21);
    let data = program_block(&mut chip, BlockId(0), &mut rng);

    let mut page_means = Vec::new();
    let mut levels = Vec::new();
    for (p, pattern) in data.iter().enumerate() {
        chip.probe_voltages_into(PageId::new(BlockId(0), p as u32), &mut levels).unwrap();
        let mut h = Histogram::new();
        for (i, &l) in levels.iter().enumerate() {
            if !pattern.get(i) {
                h.add_levels(&[l]);
            }
        }
        page_means.push(h.mean());
    }
    let mean = page_means.iter().sum::<f64>() / page_means.len() as f64;
    let var = page_means.iter().map(|m| (m - mean).powi(2)).sum::<f64>() / page_means.len() as f64;
    let page_sd = var.sqrt();
    // Per-page means must wander by a meaningful fraction of a level.
    assert!(page_sd > 0.5, "page-to-page sd {page_sd:.3}");
    assert!(page_sd < 6.0, "page-to-page sd implausibly large {page_sd:.3}");
}

#[test]
fn vendor_b_has_same_shape_different_numbers() {
    let mut chip = Chip::new(ChipProfile::vendor_b(), 30);
    // Use one page only: vendor-B pages are full 18 KB.
    let b = BlockId(0);
    chip.erase_block(b).unwrap();
    let mut rng = SmallRng::seed_from_u64(40);
    let cpp = chip.geometry().cells_per_page();
    assert_eq!(cpp, 18256 * 8);
    let data = BitPattern::random_half(&mut rng, cpp);
    let page = PageId::new(b, 0);
    chip.program_page(page, &data).unwrap();
    let mut levels = Vec::new();
    chip.probe_voltages_into(page, &mut levels).unwrap();
    let mut programmed = Histogram::new();
    for (i, &l) in levels.iter().enumerate() {
        if !data.get(i) {
            programmed.add_levels(&[l]);
        }
    }
    let mean = programmed.mean();
    assert!((150.0..190.0).contains(&mean), "vendor-B programmed mean {mean:.1}");
    let back = chip.read_page(page).unwrap();
    let errs = back.hamming_distance(&data);
    assert!(errs < 30, "vendor-B raw page errors {errs}");
}
