//! Cross-crate smoke test of the paper's central security claim (§7):
//! an SVM given per-block voltage histograms cannot reliably separate
//! hidden from normal blocks at matched wear, while a large wear gap is
//! trivially separable. (The full experiment is `reproduce fig10`;
//! this keeps a fast regression guard in the test suite.)

use rand::{rngs::SmallRng, Rng, SeedableRng};
use stash::crypto::HidingKey;
use stash::flash::{BitPattern, BlockId, Chip, ChipProfile, Histogram, NandDevice, PageId};
use stash::svm::{k_fold_accuracy, Dataset, Kernel, SvmParams};
use stash::vthi::{EccChoice, Hider, VthiConfig};

fn block_features(
    chip: &mut Chip,
    block: BlockId,
    pec: u32,
    hide: bool,
    key: &HidingKey,
    rng: &mut SmallRng,
) -> Vec<f64> {
    let mut cfg = VthiConfig::scaled_for(chip.geometry());
    cfg.ecc = EccChoice::None;
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
    h.to_feature_vector()
}

fn dataset(normal_pec: u32, hidden_pec: u32, blocks: u32) -> Dataset {
    let key = HidingKey::from_passphrase("smoke adversary");
    let mut rng = SmallRng::seed_from_u64(7);
    let mut data = Dataset::new();
    for seed in [100u64, 200] {
        let mut chip = Chip::new(ChipProfile::vendor_a_scaled(), seed);
        for b in 0..blocks {
            let f = block_features(&mut chip, BlockId(b), normal_pec, false, &key, &mut rng);
            data.push(f, -1);
            chip.discard_block_state(BlockId(b)).unwrap();
            let f =
                block_features(&mut chip, BlockId(b + blocks), hidden_pec, true, &key, &mut rng);
            data.push(f, 1);
            chip.discard_block_state(BlockId(b + blocks)).unwrap();
        }
    }
    data
}

#[test]
fn matched_wear_is_near_coin_flip_and_wear_gap_is_not() {
    let params = SvmParams { kernel: Kernel::Linear, c: 1.0, ..Default::default() };

    let matched = dataset(1000, 1000, 8);
    let acc_matched = k_fold_accuracy(&matched, 3, &params, 3);

    let gap = dataset(0, 2000, 8);
    let acc_gap = k_fold_accuracy(&gap, 3, &params, 3);

    assert!(
        acc_matched < 0.75,
        "adversary should not beat 75% at matched wear, got {acc_matched:.2}"
    );
    assert!(acc_gap > 0.85, "a 2000-cycle wear gap must be obvious, got {acc_gap:.2}");
    assert!(acc_gap > acc_matched, "wear must dominate hiding");
}
