//! Figure 9: can the eye tell? Voltage distributions of blocks from three
//! different chip samples, normally programmed vs after applying VT-HI —
//! interleaved so a reader can try to spot which is which.
//!
//! Each chip sample is built twice from its seed, so the normal and the
//! hidden column of a chip show the same physical block: one instance is
//! filled normally, the other hides data.
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
        let seed = 4000 + chip_idx;
        // Normal block.
        let mut chip = Chip::new(profile.clone(), seed);
        let publics = fill_block(&mut chip, BlockId(0), &mut rng);
        let (e, p) = block_histograms(&mut chip, BlockId(0), &publics);
        names.push(format!("chip{chip_idx}_normal"));
        erased.push(e);
        programmed.push(p);
        // The same block of the same chip sample, hiding data.
        let mut chip = Chip::new(profile.clone(), seed);
        let (publics, _) = fill_block_hiding(&mut chip, BlockId(0), &key, &cfg, &mut rng, false);
        let (e, p) = block_histograms(&mut chip, BlockId(0), &publics);
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
    // Each chip's hiding shift against the spread between the chips'
    // normal blocks.
    let shifts: Vec<f64> = above.chunks(2).map(|pair| pair[1] - pair[0]).collect();
    let normals: Vec<f64> = above.iter().step_by(2).copied().collect();
    let spread = normals.iter().fold(f64::MIN, |a, &b| a.max(b))
        - normals.iter().fold(f64::MAX, |a, &b| a.min(b));
    let largest = shifts.iter().fold(0.0f64, |a, s| a.max(s.abs()));
    let rendered: Vec<String> = shifts.iter().map(|v| f(*v, 3)).collect();
    r.meter.record_json("hiding_shift_pts_per_chip", &format!("[{}]", rendered.join(", ")));
    r.meter.record_json("normal_spread_pts", &f(spread, 3));
    outln!(r, "# hiding shift per chip (points, hidden - normal): {}", rendered.join(" "));
    outln!(r, "# spread between the chips' normal blocks (points): {spread:.3}");
    let verdict = if largest < spread {
        "smaller than that spread: the shift hides inside the chip-to-chip spread"
    } else {
        "at least that spread: the hidden blocks stand out from the normal ones"
    };
    outln!(r, "# largest |shift| ({largest:.3}) is {verdict}");
    outln!(r, "# (paper: 'the human eye has difficulty distinguishing which distributions");
    outln!(r, "# come from blocks with hidden data')");
}
