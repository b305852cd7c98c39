//! Figure 2: voltage-level distributions of four chip samples of the same
//! model, at block level and page level, for erased and programmed cells.
//!
//! Output: four TSV sections matching the paper's four panels —
//! (a) block/erased over levels 10–70, (b) block/programmed over 120–210,
//! (c) page/erased, (d) page/programmed. Columns: level, sample1..sample4.

use crate::{block_histograms, page_histograms, fill_block, outln, rng, short_block_profile, Run};
use stash_flash::{BlockId, Chip, PageId};

pub fn run(r: &mut Run) {
    let mut block_erased = Vec::new();
    let mut block_programmed = Vec::new();
    let mut page_erased = Vec::new();
    let mut page_programmed = Vec::new();

    let mut rng = rng(42);
    for sample in 0..4u64 {
        let profile = short_block_profile(r.scale);
        let mut chip = Chip::new(profile, 100 + sample);
        let publics = fill_block(&mut chip, BlockId(0), &mut rng);
        let (erased, programmed) = block_histograms(&mut chip, BlockId(0), &publics);
        block_erased.push(erased);
        block_programmed.push(programmed);

        // Page-level: one mid-block page.
        let (pe, pp) = page_histograms(&mut chip, [(PageId::new(BlockId(0), 8), &publics[8])]);
        page_erased.push(pe);
        page_programmed.push(pp);
    }

    let page_bytes = r.scale.page_bytes();
    r.header(
        "Figure 2: voltage distributions of four samples of the same chip model",
        &format!("geometry: {page_bytes}-byte pages, 16-page blocks; pseudorandom data at PEC 1"),
    );
    outln!(r);
    for (title, lo, hi, hists) in [
        ("(a) block level, erased cells", 10, 70, &block_erased),
        ("(b) block level, programmed cells", 120, 210, &block_programmed),
        ("(c) page level, erased cells", 10, 70, &page_erased),
        ("(d) page level, programmed cells", 120, 210, &page_programmed),
    ] {
        r.header(title, "level\tsample1\tsample2\tsample3\tsample4 (% of cells)");
        r.level_rows(lo, hi, hists);
        outln!(r);
    }

    // Sanity line mirroring §4: 99.99% of cells within the stated ranges.
    let in_range: f64 = block_erased
        .iter()
        .map(|h| h.fraction_in(0, 70))
        .chain(block_programmed.iter().map(|h| h.fraction_in(120, 210)))
        .sum::<f64>()
        / 8.0;
    outln!(r, "# mean fraction inside paper ranges [0,70]/[120,210]: {:.5}", in_range);
    r.meter.record("mean_fraction_in_paper_ranges", (in_range * 1e5).round() / 1e5);
    r.meter.record("samples", 4.0);
}
