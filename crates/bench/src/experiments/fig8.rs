//! Figure 8: average block-level voltage distribution of non-programmed
//! cells after hiding 32 / 64 / 128 / 256 bits per page, against a normal
//! block. Hiding more bits shifts a (tiny) bit more mass to the right of
//! `Vth`; the shift stays inside natural variability.

use crate::{
    block_histograms, experiment_key, f, fill_block, fill_block_hiding, outln, raw_paper_config,
    rng, short_block_profile, Run,
};
use stash_flash::{BlockId, Chip, Histogram};

const BLOCKS: u32 = 3;
const BITS: [usize; 4] = [32, 64, 128, 256];

pub fn run(r: &mut Run) {
    let key = experiment_key();
    let profile = short_block_profile(r.scale);
    let mut rng = rng(8);

    // Normal baseline.
    let mut normal = Histogram::new();
    {
        let mut chip = Chip::new(profile.clone(), 3000);
        for b in 0..BLOCKS {
            let publics = fill_block(&mut chip, BlockId(b), &mut rng);
            let (e, _) = block_histograms(&mut chip, BlockId(b), &publics);
            normal.merge(&e);
            chip.discard_block_state(BlockId(b)).expect("discard");
        }
    }

    // One averaged histogram per hidden-bit count.
    let mut hidden: Vec<Histogram> = Vec::new();
    for &bits in &BITS {
        let cfg = raw_paper_config(bits, 1);
        let mut chip = Chip::new(profile.clone(), 3000);
        let mut h = Histogram::new();
        for b in 0..BLOCKS {
            let (publics, _) =
                fill_block_hiding(&mut chip, BlockId(b), &key, &cfg, &mut rng, false);
            let (e, _) = block_histograms(&mut chip, BlockId(b), &publics);
            h.merge(&e);
            chip.discard_block_state(BlockId(b)).expect("discard");
        }
        hidden.push(h);
    }

    r.header(
        "Figure 8: average erased-cell distributions after VT-HI",
        "level, normal, then one column per hidden-bit count (% of erased cells)",
    );
    r.row(["level", "normal", "bits32", "bits64", "bits128", "bits256"].map(String::from));
    let columns: Vec<&Histogram> = std::iter::once(&normal).chain(&hidden).collect();
    r.level_rows(1, 75, &columns);

    outln!(r);
    outln!(r, "# fraction of erased cells at/above Vth=34 (the hiding-induced shift):");
    outln!(r, "#   normal: {:.4}%", normal.fraction_at_or_above(34) * 100.0);
    let mut json_rows = Vec::new();
    for (h, bits) in hidden.iter().zip(BITS) {
        outln!(r, "#   {bits:>3} bits/page: {:.4}%", h.fraction_at_or_above(34) * 100.0);
        json_rows.push(format!(
            "      {{\"bits\":{bits},\"above_vth_pct\":{}}}",
            f(h.fraction_at_or_above(34) * 100.0, 4),
        ));
    }
    outln!(r, "# paper: 'only a tiny shift to the right', growing with bit count");
    r.meter.record(
        "normal_above_vth_pct",
        (normal.fraction_at_or_above(34) * 100.0 * 1e4).round() / 1e4,
    );
    r.meter.record_rows("shift_by_bits", &json_rows);
}
