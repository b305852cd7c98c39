//! Figure 3: voltage distributions shift right as program/erase cycles
//! accumulate. One physical block is cycled to PEC 0 / 1000 / 2000 / 3000
//! and re-measured after each preconditioning step.
//!
//! Output: two TSV sections — (a) erased cells over levels 10–70,
//! (b) programmed cells over 120–210. Columns: level, PEC0..PEC3000.

use crate::{block_histograms, fill_block, outln, rng, short_block_profile, Run};
use stash_flash::{BlockId, Chip, Histogram, NandDevice};

pub fn run(r: &mut Run) {
    let profile = short_block_profile(r.scale);
    let mut chip = Chip::new(profile, 7);
    let mut rng = rng(3);

    let pecs = [0u32, 1000, 2000, 3000];
    let mut erased_h: Vec<Histogram> = Vec::new();
    let mut programmed_h: Vec<Histogram> = Vec::new();
    let mut last = 0u32;
    for &pec in &pecs {
        chip.cycle_block(BlockId(0), pec - last).expect("cycle");
        last = pec;
        let publics = fill_block(&mut chip, BlockId(0), &mut rng);
        let (e, p) = block_histograms(&mut chip, BlockId(0), &publics);
        erased_h.push(e);
        programmed_h.push(p);
    }

    let page_bytes = r.scale.page_bytes();
    r.header(
        "Figure 3: distributions shift right with wear (same physical block)",
        &format!("geometry: {page_bytes}-byte pages, 16-page blocks"),
    );
    outln!(r);
    for (title, lo, hi, hists) in
        [("(a) erased cells", 10, 70, &erased_h), ("(b) programmed cells", 120, 210, &programmed_h)]
    {
        r.header(title, "level\tPEC0\tPEC1000\tPEC2000\tPEC3000 (% of cells)");
        r.level_rows(lo, hi, hists);
        outln!(r);
    }

    outln!(r, "# programmed-state means by PEC (paper: monotone rightward shift):");
    for (h, pec) in programmed_h.iter().zip(pecs) {
        outln!(r, "#   PEC {:>4}: mean level {:.2}", pec, h.mean());
        r.meter.record(&format!("programmed_mean_pec{pec}"), (h.mean() * 100.0).round() / 100.0);
    }
}
