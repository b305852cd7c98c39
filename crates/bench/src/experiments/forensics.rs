//! Forensics: *where* does the adversary look? Trains a linear SVM on
//! matched-wear and wear-mismatched block pairs and prints the
//! highest-leverage voltage levels of its weight vector.
//!
//! Expected story: against a wear gap the weights concentrate on the
//! programmed lobe (whose mean drifts with PEC); against matched-wear
//! hiding the weights scatter across the erased tail without finding a
//! consistent lever — the visual of why Fig. 10's diagonal should sit at
//! a coin flip. The printed reading follows the measurement: each
//! held-out accuracy is placed against the 95% band of a fair coin on the
//! held-out chip's blocks.

use crate::detect::prepare_features;
use crate::{experiment_key, f, outln, Run};
use stash_flash::ChipProfile;
use stash_svm::{Dataset, Kernel, StandardScaler, Svm, SvmParams};
use vthi::{EccChoice, VthiConfig};

const BLOCKS: u32 = 16;

fn weights_for(normal_pec: u32, hidden_pec: u32) -> (Vec<f64>, f64, f64) {
    let profile = ChipProfile::vendor_a_scaled();
    let key = experiment_key();
    let mut cfg = VthiConfig::scaled_for(&profile.geometry);
    cfg.ecc = EccChoice::None;
    // Per-(pair, chip, class) fill-RNG base seeds; prepare_features adds
    // the block index within each 100-wide slot and fans the blocks out on
    // the worker pool.
    let fill_seed = |chip: u64, hidden: bool| {
        777_000_000 + u64::from(normal_pec) * 100_000 + chip * 1_000 + u64::from(hidden) * 100
    };

    let mut train = Dataset::new();
    for seed in [1u64, 2] {
        for feat in
            prepare_features(&profile, seed, normal_pec, None, BLOCKS, fill_seed(seed, false))
        {
            train.push(feat, -1);
        }
        for feat in prepare_features(
            &profile,
            seed,
            hidden_pec,
            Some((&key, &cfg)),
            BLOCKS,
            fill_seed(seed, true),
        ) {
            train.push(feat, 1);
        }
    }
    // Held-out chip: the number that actually matters.
    let mut test = Dataset::new();
    for feat in prepare_features(&profile, 3, normal_pec, None, BLOCKS, fill_seed(3, false)) {
        test.push(feat, -1);
    }
    for feat in
        prepare_features(&profile, 3, hidden_pec, Some((&key, &cfg)), BLOCKS, fill_seed(3, true))
    {
        test.push(feat, 1);
    }
    let scaler = StandardScaler::fit(&train);
    let model = Svm::train(
        &scaler.transform_dataset(&train),
        &SvmParams { kernel: Kernel::Linear, c: 1.0, ..Default::default() },
    );
    let train_acc = model.accuracy(&scaler.transform_dataset(&train));
    let test_acc = model.accuracy(&scaler.transform_dataset(&test));
    (model.linear_weights().expect("linear"), train_acc, test_acc)
}

fn top_levels(w: &[f64], k: usize) -> Vec<(usize, f64)> {
    let mut idx: Vec<usize> = (0..w.len()).collect();
    idx.sort_by(|&a, &b| w[b].abs().partial_cmp(&w[a].abs()).expect("finite"));
    idx.into_iter().take(k).map(|i| (i, w[i])).collect()
}

/// Where a held-out accuracy falls against the 95% band of a fair coin on
/// `n` blocks, `50 ± 1.96·√(0.25/n)` %.
fn coin_flip_side(acc: f64, n: u32) -> (f64, f64, &'static str) {
    let half = 1.96 * (0.25 / f64::from(n)).sqrt();
    let side = if acc > 0.5 + half {
        "above"
    } else if acc < 0.5 - half {
        "below"
    } else {
        "inside"
    };
    (50.0 - 100.0 * half, 50.0 + 100.0 * half, side)
}

pub fn run(r: &mut Run) {
    r.header(
        "Forensics: the linear adversary's highest-leverage voltage levels",
        &format!("{BLOCKS} blocks/class/chip, 2 chips, training-set weights"),
    );

    // The held-out chip contributes BLOCKS normal and BLOCKS hidden blocks.
    let heldout = 2 * BLOCKS;
    let mut sides = Vec::new();
    let mut accuracies = Vec::new();
    for (label, normal_pec, hidden_pec) in
        [("matched wear (hiding only)", 1000u32, 1000u32), ("wear gap (PEC 0 vs 2000)", 0, 2000)]
    {
        let (w, train_acc, test_acc) = weights_for(normal_pec, hidden_pec);
        let (lo, hi, side) = coin_flip_side(test_acc, heldout);
        outln!(r);
        outln!(
            r,
            "# {label}: train accuracy {:.1}%, held-out chip {:.1}%",
            train_acc * 100.0,
            test_acc * 100.0
        );
        outln!(
            r,
            "# 95% coin-flip band for {heldout} held-out blocks: [{lo:.1}, {hi:.1}]%; \
             the held-out accuracy lies {side} it"
        );
        r.row(["rank", "voltage_level", "weight", "region"].map(String::from));
        for (rank, (level, weight)) in top_levels(&w, 10).into_iter().enumerate() {
            let region = match level {
                0 => "measurement floor",
                1..=33 => "erased body",
                34..=70 => "erased tail (hidden region)",
                71..=126 => "guard band",
                _ => "programmed lobe",
            };
            r.row([(rank + 1).to_string(), level.to_string(), f(weight, 3), region.to_owned()]);
        }
        sides.push(side);
        accuracies.push((train_acc, test_acc));
    }
    outln!(r);
    if sides[0] == "inside" {
        outln!(r, "# reading: at matched wear the held-out accuracy is inside the coin-flip");
        outln!(r, "# band: the classifier memorized sampling noise that does not carry to a");
        outln!(r, "# new chip.");
    } else {
        outln!(
            r,
            "# reading: at matched wear the held-out accuracy lies {} the coin-flip",
            sides[0]
        );
        outln!(r, "# band, so this draw does not show a coin flip: what the classifier");
        outln!(r, "# learned on two chips carries to the held-out one.");
    }
    if sides[1] == "above" {
        outln!(r, "# Against a wear gap the held-out accuracy lies above the band: drift");
        outln!(r, "# moves whole populated regions, and that leverage generalizes.");
    } else {
        outln!(r, "# Against a wear gap the held-out accuracy lies {} the band.", sides[1]);
    }
    if sides == ["inside", "above"] {
        outln!(r, "# The SVM detects wear, not hiding.");
    }

    r.meter.record("blocks_per_class", f64::from(BLOCKS));
    r.meter.record("pairs", 2.0);
    for (pair, (train_acc, test_acc)) in ["matched", "gap"].into_iter().zip(accuracies) {
        r.meter.record(&format!("{pair}_train_accuracy"), train_acc);
        r.meter.record(&format!("{pair}_heldout_accuracy"), test_acc);
    }
}
