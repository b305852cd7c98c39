//! Figure 12: SVM accuracy against the *enhanced* VT-HI configuration
//! (§8 "Improved Capacity"): vendor-support fine programming, a single PP
//! step, threshold level 15, and as many hidden bits as the §6.3 capacity
//! planner admits at that threshold.
//!
//! Calibration note: the paper hides 10× the default density at `Vth = 15`,
//! which requires the natural above-15 population of their chips (≈5% of
//! erased cells per page). This simulator's calibrated tail is thinner at
//! low thresholds, so the §6.3 planner (stay under ~73% of the natural
//! population) admits a smaller multiplier; the harness measures the budget
//! per chip and hides exactly that. The detectability *mechanism* is
//! unchanged: accuracy slightly above Fig. 10 in the matched-wear band,
//! dominated by the wear gap everywhere else. The paper's 9×-capacity
//! arithmetic itself (2% BER → 14% ECC → 2197 bits/page) is reproduced
//! analytically by `table1`.

use crate::detect::{prepare_three, train_two_test_one, WearGrid, BLOCKS_PER_CLASS};
use crate::{experiment_key, f, fill_block, outln, rng, Run};
use stash_flash::{BlockId, Chip, ChipProfile, PageId};
use vthi::capacity::PageCapacity;
use vthi::{EccChoice, VthiConfig};

const CHIP_SEEDS: [u64; 3] = [44, 55, 66];
const VTH_ENHANCED: u8 = 15;

/// Measures the per-page hidden-bit budget at Vth=15 the way a hiding user
/// would (§6.3): probe sample pages, count the natural above-threshold
/// population, stay under the occupancy budget.
fn planner_budget(profile: &ChipProfile) -> usize {
    let mut chip = Chip::new(profile.clone(), 999);
    let mut rng = rng(991);
    let publics = fill_block(&mut chip, BlockId(0), &mut rng);
    let mut budget = usize::MAX;
    for p in [4u32, 12, 20] {
        let cap = PageCapacity::assess(
            &mut chip,
            PageId::new(BlockId(0), p),
            &publics[p as usize],
            VTH_ENHANCED,
        )
        .expect("assess");
        budget = budget.min(cap.recommended_max_bits);
    }
    // Hidden '0's are what add charge; with scrambled payloads half the
    // bits charge cells, so the bit budget is twice the cell budget.
    (budget * 2).max(32)
}

/// The enhanced configuration at `bits` hidden bits per page: Vth 15, a
/// single fine PP step, raw (ECC-free) bits.
fn enhanced(base: &VthiConfig, bits: usize) -> VthiConfig {
    let mut cfg = base.clone();
    cfg.hidden_bits_per_page = bits;
    cfg.vth = VTH_ENHANCED;
    cfg.max_pp_steps = 1;
    cfg.use_fine_pp = true;
    cfg.ecc = EccChoice::None;
    cfg
}

pub fn run(r: &mut Run) {
    let profile = ChipProfile::vendor_a_scaled();
    let key = experiment_key();
    let base = VthiConfig::scaled_for(&profile.geometry);

    let budget = planner_budget(&profile);
    let cfg = enhanced(&base, budget);
    let blocks = BLOCKS_PER_CLASS;

    r.header(
        "Figure 12: SVM accuracy vs the enhanced (high-capacity) configuration",
        &format!(
            "{blocks} blocks/class/chip; Vth={VTH_ENHANCED}, fine PP, {} hidden bits/page \
             ({}x the default; planner-limited — see header note)",
            cfg.hidden_bits_per_page,
            cfg.hidden_bits_per_page / base.hidden_bits_per_page
        ),
    );

    // Fill seeds start at 12,000,000, clear of fig10's streams.
    let mut grid = WearGrid::new(&profile, (&key, &cfg), CHIP_SEEDS, 12_000_000);
    grid.write(r);

    outln!(r);
    outln!(r, "# paper: matched-wear accuracy 50-60% (slightly above Fig. 10's 50-53%),");
    outln!(r, "# still dominated by the wear gap rather than the hidden data");

    // Part B: where is the stealth/capacity frontier in THIS simulator?
    // Matched wear (PEC 1000 vs 1000), density multipliers over the scaled
    // default, fine PP at Vth 15 — the adversary's accuracy per density.
    outln!(r);
    r.header(
        "Part B: matched-wear detectability vs hidden density (Vth=15, fine PP)",
        "multiplier is over the scaled default density (0.18% of cells)",
    );
    r.row(["multiplier", "hidden_bits_per_page", "svm_accuracy_pct"].map(String::from));
    let normal = grid.features(1000, false);
    for mult in [1usize, 2, 4] {
        let dcfg = enhanced(&base, base.hidden_bits_per_page * mult);
        let seed = 5_000_000 + mult as u64 * 1_000;
        let hidden = prepare_three(&profile, CHIP_SEEDS, 1000, Some((&key, &dcfg)), seed);
        let (acc, _) = train_two_test_one(normal, &hidden);
        r.row([format!("{mult}x"), dcfg.hidden_bits_per_page.to_string(), f(acc * 100.0, 1)]);
    }
    outln!(r);
    outln!(r, "# simulator-vs-silicon note: our calibrated natural variability at low");
    outln!(r, "# thresholds is thinner than the paper's chips exhibited, so high-capacity");
    outln!(r, "# hiding is easier to detect here; at the default density the Vth=15 path");
    outln!(r, "# approaches the Fig. 10 coin-flip regime.");

    r.meter.record("blocks_per_class", f64::from(blocks));
    r.meter.record("planner_budget_bits", budget as f64);
}
