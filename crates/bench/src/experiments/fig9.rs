//! Figure 9: can the eye tell? Voltage distributions of blocks from three
//! different chip samples, normally programmed vs after applying VT-HI —
//! interleaved so a reader can try to spot which is which.
//!
//! Output: (a) erased cells, (b) programmed cells; columns alternate
//! normal/hidden per chip.

use crate::{
    block_histograms, experiment_key, f, fill_block, fill_block_hiding, outln, raw_paper_config,
    rng, short_block_profile, Run,
};
use stash_flash::{BlockId, Chip, Histogram};

pub fn run(r: &mut Run) {
    let key = experiment_key();
    let profile = short_block_profile(r.scale);
    let cfg = raw_paper_config(256, 1);
    let mut rng = rng(9);

    let mut names = Vec::new();
    let mut erased: Vec<Histogram> = Vec::new();
    let mut programmed: Vec<Histogram> = Vec::new();
    for chip_idx in 0..3u64 {
        let mut chip = Chip::new(profile.clone(), 4000 + chip_idx);
        // Normal block.
        let publics = fill_block(&mut chip, BlockId(0), &mut rng);
        let (e, p) = block_histograms(&mut chip, BlockId(0), &publics);
        names.push(format!("chip{chip_idx}_normal"));
        erased.push(e);
        programmed.push(p);
        // Hidden block on the same chip.
        let (publics, _) = fill_block_hiding(&mut chip, BlockId(1), &key, &cfg, &mut rng, false);
        let (e, p) = block_histograms(&mut chip, BlockId(1), &publics);
        names.push(format!("chip{chip_idx}_hidden"));
        erased.push(e);
        programmed.push(p);
    }

    r.header(
        "Figure 9: normal vs VT-HI blocks across three chips (visual test)",
        "256 hidden bits/page where hidden; same wear everywhere",
    );
    for (title, lo, hi, hists) in [
        ("(a) non-programmed cells", 10, 70, &erased),
        ("(b) programmed cells", 120, 210, &programmed),
    ] {
        r.header(title, "");
        r.row(std::iter::once("level".to_owned()).chain(names.iter().cloned()));
        r.level_rows(lo, hi, hists);
        outln!(r);
    }

    // Chip-to-chip spread vs hiding-induced shift, quantified.
    let above: Vec<f64> = erased.iter().map(|h| h.fraction_at_or_above(34) * 100.0).collect();
    outln!(
        r,
        "# erased cells >= Vth per block (%): {:?}",
        above.iter().map(|v| format!("{v:.3}")).collect::<Vec<_>>()
    );
    let rendered: Vec<String> = above.iter().map(|v| f(*v, 3)).collect();
    r.meter.record_json("above_vth_pct_per_block", &format!("[{}]", rendered.join(", ")));
    r.meter.record("blocks", above.len() as f64);
    outln!(r, "# the hiding shift hides inside the chip-to-chip spread (paper: 'the human");
    outln!(r, "# eye has difficulty distinguishing which distributions come from blocks");
    outln!(r, "# with hidden data')");
}
