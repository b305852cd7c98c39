//! The forensic adversary of paper §7, in miniature: probe every cell of a
//! set of blocks, train an SVM on voltage histograms, and try to tell which
//! blocks hide data.
//!
//! Expected outcome (the paper's core security claim): at *matched* wear the
//! classifier hovers near a coin flip; a wear mismatch of 1000+ cycles is
//! what actually gives blocks away.
//!
//! ```sh
//! cargo run --release --example adversary
//! ```

use rand::{rngs::SmallRng, Rng, SeedableRng};
use stash::crypto::HidingKey;
use stash::flash::{BitPattern, BlockId, Chip, ChipProfile, Histogram, NandDevice, PageId};
use stash::svm::{grid_search, Dataset};
use stash::vthi::{Hider, VthiConfig};

/// Programs a block full of random public data, hiding a payload in every
/// other page when `hide` is set; returns the block's voltage histogram.
fn prepare_block(
    chip: &mut Chip,
    block: BlockId,
    pec: u32,
    hide: bool,
    key: &HidingKey,
    rng: &mut SmallRng,
) -> Histogram {
    let cfg = VthiConfig::scaled_for(chip.geometry());
    let cpp = chip.geometry().cells_per_page();
    let pages = chip.geometry().pages_per_block;
    chip.cycle_block(block, pec).unwrap();
    chip.erase_block(block).unwrap();

    let stride = cfg.page_stride();
    let mut hider = Hider::new(chip, key.clone(), cfg.clone());
    for p in 0..pages {
        let data = BitPattern::random_half(rng, cpp);
        let page = PageId::new(block, p);
        if hide && p % stride == 0 {
            let payload: Vec<u8> = (0..cfg.payload_bytes_per_page()).map(|_| rng.gen()).collect();
            hider.hide_on_fresh_page(page, &data, &payload).unwrap();
        } else {
            hider.chip_mut().program_page(page, &data).unwrap();
        }
    }

    let mut h = Histogram::new();
    let mut levels = Vec::new();
    for p in 0..pages {
        chip.probe_voltages_into(PageId::new(block, p), &mut levels).unwrap();
        h.add_levels(&levels);
    }
    h
}

fn experiment(normal_pec: u32, hidden_pec: u32, blocks: u32) -> f64 {
    let key = HidingKey::from_passphrase("suspect key");
    let mut rng = SmallRng::seed_from_u64(99);
    let mut data = Dataset::new();
    // Two chip samples' worth of blocks per class.
    for (seed, label_hide) in [(1u64, false), (1, true), (2, false), (2, true)] {
        let mut chip = Chip::new(ChipProfile::vendor_a_scaled(), seed);
        for b in 0..blocks {
            let block = BlockId(b + if label_hide { blocks } else { 0 });
            let pec = if label_hide { hidden_pec } else { normal_pec };
            let h = prepare_block(&mut chip, block, pec, label_hide, &key, &mut rng);
            data.push(h.to_feature_vector(), if label_hide { 1 } else { -1 });
            chip.discard_block_state(block).unwrap();
        }
    }
    let result = grid_search(&data, &[0.5, 2.0], &[0.05, 0.2], 3, 7);
    result.accuracy
}

fn main() {
    let blocks = 10;
    println!("SVM adversary vs VT-HI ({blocks} blocks/class/chip, 3-fold CV, grid search)\n");
    let same = experiment(1000, 1000, blocks);
    println!(
        "matched wear   (normal PEC 1000 vs hidden PEC 1000): {:>5.1}% accuracy",
        same * 100.0
    );
    let close = experiment(1000, 1200, blocks);
    println!(
        "±200 cycles    (normal PEC 1000 vs hidden PEC 1200): {:>5.1}% accuracy",
        close * 100.0
    );
    let far = experiment(0, 2000, blocks);
    println!("gross mismatch (normal PEC    0 vs hidden PEC 2000): {:>5.1}% accuracy", far * 100.0);
    println!(
        "\nconclusion: hiding is invisible at matched wear ({:.0}% ≈ coin flip);\n\
         only a wear mismatch of many hundreds of cycles is detectable — and that\n\
         detects *wear*, not hidden data (paper Fig. 10).",
        same * 100.0
    );
}
