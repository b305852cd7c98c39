//! Figure 10: SVM classification accuracy for block-level voltage
//! distributions — hidden blocks at PEC {0, 1000, 2000} against normal
//! blocks across the full wear range (paper §7).
//!
//! Expected shape: ≈50% (coin flip) wherever the hidden and normal PEC are
//! within a few hundred cycles of each other, rising toward 90–100% as the
//! wear mismatch grows — i.e. the SVM detects *wear*, never *hiding*.
//!
//! Runtime: a few minutes at the paper's 31 blocks per class.

use crate::detect::{WearGrid, BLOCKS_PER_CLASS, HIDDEN_PECS, NORMAL_PECS};
use crate::{experiment_key, outln, Run};
use stash_flash::ChipProfile;
use vthi::{EccChoice, VthiConfig};

/// The three chip samples; fill seeds start at 10,000,000.
const CHIP_SEEDS: [u64; 3] = [11, 22, 33];

pub fn run(r: &mut Run) {
    let profile = ChipProfile::vendor_a_scaled();
    let key = experiment_key();
    let mut cfg = VthiConfig::scaled_for(&profile.geometry);
    cfg.ecc = EccChoice::None;
    let blocks = BLOCKS_PER_CLASS;

    r.header(
        "Figure 10: SVM accuracy vs normal PEC, per hidden-data PEC",
        &format!(
            "{blocks} blocks/class/chip, 3 chips (train 2, test 1), grid search + 3-fold CV; \
             scaled geometry, {} hidden bits/page",
            cfg.hidden_bits_per_page
        ),
    );

    WearGrid::new(&profile, (&key, &cfg), CHIP_SEEDS, 10_000_000).write(r);

    outln!(r);
    outln!(r, "# paper: ~50% at matched PEC; accuracy rises with |normal - hidden| wear gap");

    r.meter.record("blocks_per_class", f64::from(blocks));
    r.meter.record("grid_points", (NORMAL_PECS.len() * HIDDEN_PECS.len()) as f64);
}
