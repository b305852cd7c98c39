//! Figure 7: hidden BER after ten PP steps as a function of the page
//! interval, for 32 / 128 / 512 hidden cells per page (paper §6.3).
//!
//! Expected shape: BER in the 0.4%–1% band, largely insensitive to both
//! knobs, with small irregularity from BER variance and program
//! interference.
//!
//! Each (interval, bits) point runs on the `stash-par` pool with its own
//! chip and RNG derived from the pair — byte-identical TSV for any
//! `STASH_THREADS`.

use crate::{
    experiment_key, f, fill_block_hiding, measure_hidden_ber, outln, raw_paper_config, rng,
    short_block_profile, Run,
};
use stash_flash::{BitErrorStats, BlockId, Chip, MeterSnapshot};

const BLOCKS: u32 = 5;
const INTERVALS: [u32; 4] = [0, 1, 2, 4];
const BITS: [usize; 3] = [32, 128, 512];

pub fn run(r: &mut Run) {
    let key = experiment_key();
    let profile = short_block_profile(r.scale);

    let page_bytes = r.scale.page_bytes();
    r.header(
        "Figure 7: hidden BER at 10 PP steps vs page interval",
        &format!("{BLOCKS} blocks per point; {page_bytes}-byte pages"),
    );
    r.row(["page_interval", "bits32", "bits128", "bits512"].map(String::from));

    let points: Vec<(u32, usize)> =
        INTERVALS.iter().flat_map(|&i| BITS.iter().map(move |&b| (i, b))).collect();
    let results = stash_par::par_map(points, |_, (interval, bits)| {
        let cfg = raw_paper_config(bits, interval);
        let mut chip = Chip::new(profile.clone(), 2000 + u64::from(interval) * 10 + bits as u64);
        let mut rng = rng(7000 + u64::from(interval) * 10 + bits as u64);
        let mut total = BitErrorStats::default();
        for b in 0..BLOCKS {
            let (_publics, reports) =
                fill_block_hiding(&mut chip, BlockId(b), &key, &cfg, &mut rng, false);
            total.absorb(measure_hidden_ber(&mut chip, &key, &cfg, &reports));
            chip.discard_block_state(BlockId(b)).expect("discard");
        }
        (total, chip.meter())
    });

    for (ii, &interval) in INTERVALS.iter().enumerate() {
        let mut cells = vec![interval.to_string()];
        cells.extend(
            results[ii * BITS.len()..(ii + 1) * BITS.len()].iter().map(|(t, _)| f(t.ber(), 5)),
        );
        r.row(cells);
    }
    outln!(r);
    outln!(r, "# paper band: 0.004-0.010 with irregular variation across intervals");

    let mut device = MeterSnapshot::default();
    for (_, meter) in &results {
        device.absorb(meter);
    }
    r.meter.record("points", results.len() as f64);
    r.meter.record_snapshot(&device);
}
