//! Shared plumbing for the SVM detectability experiments (Figures 10 & 12).
//!
//! Methodology follows paper §7: voltage-level features per block, training
//! on two chip samples and classifying blocks of a third, with grid search
//! and three-fold cross-validation on the training set. 50% accuracy means
//! the adversary learned nothing.

use crate::{f, fill_block, fill_block_hiding, Run};
use stash_crypto::HidingKey;
use stash_flash::{BlockId, Chip, ChipProfile, Histogram, NandDevice, PageId};
use stash_svm::{grid_search, Dataset, StandardScaler, Svm};
use std::collections::HashMap;
use vthi::VthiConfig;

/// How many blocks per class per chip (paper: representativeness converged
/// after analyzing 31 blocks).
pub const BLOCKS_PER_CLASS: u32 = 31;

/// Wear levels of the hidden blocks in the Fig. 10/12 grid (its columns).
pub(crate) const HIDDEN_PECS: [u32; 3] = [0, 1000, 2000];
/// Wear levels of the normal blocks in the Fig. 10/12 grid (its rows).
pub(crate) const NORMAL_PECS: [u32; 7] = [0, 500, 1000, 1500, 2000, 2500, 3000];

/// The block-level feature vector: the normalized 256-bin voltage
/// histogram of every cell in the block. The probe buffer is reused across
/// pages.
pub fn block_features(chip: &mut Chip, block: BlockId) -> Vec<f64> {
    let mut h = Histogram::new();
    let mut levels = Vec::new();
    for p in 0..chip.geometry().pages_per_block {
        chip.probe_voltages_into(PageId::new(block, p), &mut levels).expect("probe");
        h.add_levels(&levels);
    }
    h.to_feature_vector()
}

/// Prepares `count` blocks at the given wear, with or without hidden data,
/// and returns their feature vectors in block order.
///
/// Blocks are independent work items on the `stash-par` pool: each derives
/// its own chip (same `chip_seed` — same physical sample, per-block latents
/// come from the seed + block index) and its own fill RNG from
/// `rng_seed + block`, so the dataset is byte-identical for any
/// `STASH_THREADS`. Block state is discarded as soon as its features are
/// extracted.
pub fn prepare_features(
    profile: &ChipProfile,
    chip_seed: u64,
    pec: u32,
    hide: Option<(&HidingKey, &VthiConfig)>,
    count: u32,
    rng_seed: u64,
) -> Vec<Vec<f64>> {
    stash_par::par_trials(count as usize, |b| {
        let mut chip = Chip::new(profile.clone(), chip_seed);
        let mut rng = crate::rng(rng_seed.wrapping_add(b as u64));
        let block = BlockId(b as u32);
        chip.cycle_block(block, pec).expect("cycle");
        match hide {
            None => {
                let _ = fill_block(&mut chip, block, &mut rng);
            }
            Some((key, cfg)) => {
                let _ = fill_block_hiding(&mut chip, block, key, cfg, &mut rng, false);
            }
        }
        let features = block_features(&mut chip, block);
        chip.discard_block_state(block).expect("discard");
        features
    })
}

/// [`prepare_features`] for the three chips of the train-two-test-one
/// protocol, [`BLOCKS_PER_CLASS`] blocks each: chip `i` is
/// `chip_seeds[i]` and fills from `rng_seed + 100 * i` (the 100-wide slot
/// keeps block streams disjoint).
pub(crate) fn prepare_three(
    profile: &ChipProfile,
    chip_seeds: [u64; 3],
    pec: u32,
    hide: Option<(&HidingKey, &VthiConfig)>,
    rng_seed: u64,
) -> [Vec<Vec<f64>>; 3] {
    [0u64, 1, 2].map(|i| {
        prepare_features(
            profile,
            chip_seeds[i as usize],
            pec,
            hide,
            BLOCKS_PER_CLASS,
            rng_seed + 100 * i,
        )
    })
}

/// The Fig. 10/12 wear grid: per-chip feature sets of every (PEC, hidden?)
/// class, prepared once and reused across the grid's cells.
pub(crate) struct WearGrid<'a> {
    profile: &'a ChipProfile,
    hide: (&'a HidingKey, &'a VthiConfig),
    chip_seeds: [u64; 3],
    seed_base: u64,
    cache: HashMap<(u32, bool), [Vec<Vec<f64>>; 3]>,
}

impl<'a> WearGrid<'a> {
    /// A grid hiding with `hide` on chips `chip_seeds`; class (pec, hidden)
    /// fills from `seed_base + pec * 10_000 + hidden * 1_000`.
    #[must_use]
    pub(crate) fn new(
        profile: &'a ChipProfile,
        hide: (&'a HidingKey, &'a VthiConfig),
        chip_seeds: [u64; 3],
        seed_base: u64,
    ) -> Self {
        WearGrid { profile, hide, chip_seeds, seed_base, cache: HashMap::new() }
    }

    /// The three chips' feature sets for one class.
    pub(crate) fn features(&mut self, pec: u32, hidden: bool) -> &[Vec<Vec<f64>>; 3] {
        let rng_seed = self.seed_base + u64::from(pec) * 10_000 + u64::from(hidden) * 1_000;
        let (profile, hide, chip_seeds) = (self.profile, self.hide, self.chip_seeds);
        self.cache.entry((pec, hidden)).or_insert_with(|| {
            prepare_three(profile, chip_seeds, pec, hidden.then_some(hide), rng_seed)
        })
    }

    /// Writes the grid: a header row, then one row per normal PEC with the
    /// held-out accuracy (%) against each hidden PEC.
    pub(crate) fn write(&mut self, r: &mut Run) {
        r.row(
            std::iter::once("normal_pec".to_owned())
                .chain(HIDDEN_PECS.iter().map(|p| format!("hidden_pec_{p}"))),
        );
        for &normal_pec in &NORMAL_PECS {
            let normal = self.features(normal_pec, false).clone();
            let mut cells = vec![normal_pec.to_string()];
            for &hidden_pec in &HIDDEN_PECS {
                let (acc, _cv) = train_two_test_one(&normal, self.features(hidden_pec, true));
                cells.push(f(acc * 100.0, 1));
            }
            r.row(cells);
        }
    }
}

/// The paper's train-on-two-chips / classify-the-third protocol: grid
/// search with 3-fold CV on the training chips, then report accuracy on the
/// held-out chip's blocks. Returns `(held_out_accuracy, cv_accuracy)`.
pub fn train_two_test_one(normal: &[Vec<Vec<f64>>; 3], hidden: &[Vec<Vec<f64>>; 3]) -> (f64, f64) {
    let mut train = Dataset::new();
    for chip in 0..2 {
        for f in &normal[chip] {
            train.push(f.clone(), -1);
        }
        for f in &hidden[chip] {
            train.push(f.clone(), 1);
        }
    }
    let mut test = Dataset::new();
    for f in &normal[2] {
        test.push(f.clone(), -1);
    }
    for f in &hidden[2] {
        test.push(f.clone(), 1);
    }

    let grid = grid_search(&train, &[0.3, 1.0, 10.0], &[0.02, 0.1, 0.5], 3, 17);
    let scaler = StandardScaler::fit(&train);
    let model = Svm::train(&scaler.transform_dataset(&train), &grid.params);
    let acc = model.accuracy(&scaler.transform_dataset(&test));
    (acc, grid.accuracy)
}
