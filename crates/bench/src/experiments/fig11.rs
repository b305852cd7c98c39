//! Figure 11: normalized retention BER — hidden (VT-HI) vs normal data
//! after 1 day / 1 month / 4 months, for blocks at PEC 0 / 1000 / 2000.
//! Each bar is the BER after the retention period divided by the BER at
//! "zero" time (paper §8 "Reliability").
//!
//! Expected shape: flat (≈1×) at PEC 0 for both; at PEC 2000 / 4 months
//! hidden data degrades ≈6.3× while normal data degrades ≈2.3×.
//!
//! Each wear level runs on its own chip (aging clocks stay independent)
//! with an RNG derived from its PEC — one `stash-par` work item per level,
//! byte-identical TSV for any `STASH_THREADS`.

use crate::{
    experiment_key, f, fill_block_hiding, measure_hidden_ber, measure_public_ber, outln,
    raw_paper_config, rng, short_block_profile, Run,
};
use stash_flash::{BitErrorStats, BlockId, Chip, MeterSnapshot, NandDevice};

const BLOCKS: u32 = 4;
const PECS: [u32; 3] = [0, 1000, 2000];
/// Retention checkpoints in days (1 day, 1 month, 4 months).
const CHECKPOINTS: [f64; 3] = [1.0, 30.0, 120.0];

/// One wear level's BERs at zero time, then at each checkpoint.
struct Line {
    pec: u32,
    hidden: Vec<f64>,
    public: Vec<f64>,
    device: MeterSnapshot,
}

pub fn run(r: &mut Run) {
    let key = experiment_key();
    let profile = short_block_profile(r.scale);
    let cfg = raw_paper_config(256, 1);

    let lines = stash_par::par_map(PECS.to_vec(), |i, pec| {
        // One chip per wear level so aging clocks stay independent.
        let mut chip = Chip::new(profile.clone(), 5000 + i as u64);
        let mut rng = rng(11000 + u64::from(pec));
        let mut stored = Vec::new();
        for b in 0..BLOCKS {
            let block = BlockId(b);
            chip.cycle_block(block, pec).expect("cycle");
            let (publics, reports) =
                fill_block_hiding(&mut chip, block, &key, &cfg, &mut rng, false);
            stored.push((block, publics, reports));
        }

        let mut line = Line { pec, hidden: vec![], public: vec![], device: MeterSnapshot::default() };
        let mut aged = 0.0;
        for t in std::iter::once(0.0).chain(CHECKPOINTS) {
            if t > aged {
                chip.age_days(t - aged);
                aged = t;
            }
            let mut hid = BitErrorStats::default();
            let mut pubs = BitErrorStats::default();
            for (block, publics, reports) in &stored {
                hid.absorb(measure_hidden_ber(&mut chip, &key, &cfg, reports));
                pubs.absorb(measure_public_ber(&mut chip, *block, publics));
            }
            line.hidden.push(hid.ber());
            line.public.push(pubs.ber());
        }
        line.device = chip.meter();
        line
    });

    let page_bytes = r.scale.page_bytes();
    r.header(
        "Figure 11: normalized retention BER (vs zero time)",
        &format!("{BLOCKS} blocks per wear level; 256 hidden bits/page; {page_bytes}-byte pages"),
    );
    r.row(["period", "kind", "PEC0", "PEC1000", "PEC2000"].map(String::from));
    let labels = ["1day", "1month", "4month"];
    for (ci, label) in labels.iter().enumerate() {
        for kind in ["vthi", "normal"] {
            let mut cells = vec![(*label).to_owned(), kind.to_owned()];
            for line in &lines {
                let bers = if kind == "vthi" { &line.hidden } else { &line.public };
                let (t0, t) = (bers[0], bers[ci + 1]);
                cells.push(if t0 > 0.0 { f(t / t0, 2) } else { "n/a".into() });
            }
            r.row(cells);
        }
    }

    outln!(r);
    for line in &lines {
        outln!(
            r,
            "# PEC {:>4}: hidden BER {:.4} -> {:.4} after 4 months; normal {:.2e} -> {:.2e}",
            line.pec,
            line.hidden[0],
            line.hidden[3],
            line.public[0],
            line.public[3]
        );
    }
    outln!(r, "# paper anchors: hidden x6.3 and normal x2.3 at PEC 2000 / 4 months;");
    outln!(r, "# both ~flat at PEC 0");

    let mut device = MeterSnapshot::default();
    for line in &lines {
        device.absorb(&line.device);
    }
    r.meter.record("wear_levels", lines.len() as f64);
    r.meter.record_snapshot(&device);
}
