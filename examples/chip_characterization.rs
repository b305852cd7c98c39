//! Chip characterization, as a flash vendor's tester script would do it
//! (paper §4): program pseudorandom data, probe per-cell voltages, and
//! print the distribution statistics that make voltage-level data hiding
//! possible — natural variability, wear drift, and the erased tail.
//!
//! ```sh
//! cargo run --release --example chip_characterization
//! ```

use rand::{rngs::SmallRng, SeedableRng};
use stash::flash::{
    BitPattern, BlockId, Chip, ChipProfile, Geometry, Histogram, NandDevice, PageId,
};

fn characterize(chip: &mut Chip, block: BlockId, rng: &mut SmallRng) -> (Histogram, Histogram) {
    let cpp = chip.geometry().cells_per_page();
    chip.erase_block(block).unwrap();
    let mut erased = Histogram::new();
    let mut programmed = Histogram::new();
    let patterns: Vec<BitPattern> = (0..chip.geometry().pages_per_block)
        .map(|p| {
            let data = BitPattern::random_half(rng, cpp);
            chip.program_page(PageId::new(block, p), &data).unwrap();
            data
        })
        .collect();
    let mut levels = Vec::new();
    for (p, data) in patterns.iter().enumerate() {
        chip.probe_voltages_into(PageId::new(block, p as u32), &mut levels).unwrap();
        for (i, &l) in levels.iter().enumerate() {
            if data.get(i) {
                erased.add_levels(&[l]);
            } else {
                programmed.add_levels(&[l]);
            }
        }
    }
    (erased, programmed)
}

fn main() {
    let mut profile = ChipProfile::vendor_a();
    profile.geometry = Geometry { blocks_per_chip: 8, pages_per_block: 16, page_bytes: 18048 };
    let mut rng = SmallRng::seed_from_u64(4);

    println!("=== chip model: {} ===\n", profile.name);
    println!("four samples of the same model (paper Fig. 2 methodology):");
    println!("sample  prog.mean  prog.sd  erased>=34  erased>=70");
    for seed in 0..4u64 {
        let mut chip = Chip::new(profile.clone(), 0xC0DE + seed);
        let (erased, programmed) = characterize(&mut chip, BlockId(0), &mut rng);
        println!(
            "   #{seed}    {:7.2}  {:7.2}     {:.3}%     {:.4}%",
            programmed.mean(),
            programmed.std_dev(),
            erased.fraction_at_or_above(34) * 100.0,
            erased.fraction_at_or_above(70) * 100.0,
        );
    }

    println!("\nwear drift on one physical block (paper Fig. 3 methodology):");
    println!("  PEC   prog.mean  erased>=34");
    let mut chip = Chip::new(profile.clone(), 0xBEEF);
    let mut last = 0u32;
    for pec in [0u32, 1000, 2000, 3000] {
        chip.cycle_block(BlockId(0), pec - last).unwrap();
        last = pec;
        let (erased, programmed) = characterize(&mut chip, BlockId(0), &mut rng);
        println!(
            " {pec:>4}   {:8.2}     {:.3}%",
            programmed.mean(),
            erased.fraction_at_or_above(34) * 100.0
        );
    }

    println!("\nthe punchline (paper §4): roughly 1% of erased cells naturally sit");
    println!("above level 34 — wide enough to park hidden charge in, noisy enough");
    println!("that a few hundred extra cells per page change nothing detectable.");
}
