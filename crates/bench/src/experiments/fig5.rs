//! Figure 5: where hidden data lives. The measured distribution of
//! non-programmed (public `1`) cells, with the hidden threshold `Vth = 34`
//! splitting it into the hidden-`1` region (below) and the hidden-`0`
//! region (above), inside which VT-HI parks its charged cells.
//!
//! Output: TSV of level vs % of erased cells, before and after hiding,
//! plus the region boundaries.

use crate::{
    block_histograms, experiment_key, f, fill_block, fill_block_hiding, outln, raw_paper_config,
    rng, short_block_profile, Run,
};
use stash_flash::{BlockId, Chip};

pub fn run(r: &mut Run) {
    let profile = short_block_profile(r.scale);
    let key = experiment_key();
    let cfg = raw_paper_config(256, 1);

    // Normal block.
    let mut chip = Chip::new(profile.clone(), 21);
    let mut rng = rng(5);
    let publics = fill_block(&mut chip, BlockId(0), &mut rng);
    let (normal, _) = block_histograms(&mut chip, BlockId(0), &publics);

    // Block with hidden data.
    let mut chip2 = Chip::new(profile, 21);
    let (publics2, _) = fill_block_hiding(&mut chip2, BlockId(0), &key, &cfg, &mut rng, false);
    let (hidden, _) = block_histograms(&mut chip2, BlockId(0), &publics2);

    r.header(
        "Figure 5: VT-HI hides data inside the non-programmed distribution",
        &format!("Vth = {} | below: hidden '1' | [Vth, ~70]: hidden '0'", cfg.vth),
    );
    r.row(["level", "normal_pct", "with_hidden_pct", "region"].map(String::from));
    for level in 1u8..=75 {
        let region = if level < cfg.vth { "hidden-1" } else { "hidden-0" };
        r.row([
            level.to_string(),
            f(normal.pct(level), 4),
            f(hidden.pct(level), 4),
            region.to_string(),
        ]);
    }
    outln!(r);
    outln!(
        r,
        "# erased cells naturally at/above Vth: {:.3}% (paper: ~1%, ≥700 of 72k per page)",
        normal.fraction_at_or_above(cfg.vth) * 100.0
    );
    outln!(
        r,
        "# erased cells at/above Vth after hiding 256 bits/page: {:.3}%",
        hidden.fraction_at_or_above(cfg.vth) * 100.0
    );
    let pct = |v: f64| (v * 100.0 * 1e3).round() / 1e3;
    r.meter.record("natural_above_vth_pct", pct(normal.fraction_at_or_above(cfg.vth)));
    r.meter.record("hidden_above_vth_pct", pct(hidden.fraction_at_or_above(cfg.vth)));
}
