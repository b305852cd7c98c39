//! §6.3 public-data interference: partial programming disturbs neighboring
//! wordlines, raising the *public* BER. The paper measured +20% with no
//! physical space between hidden pages (interval 0) and an acceptable +10%
//! at one page interval, which became the default.

use crate::{
    experiment_key, f, fill_block, fill_block_hiding, measure_public_ber, outln, raw_paper_config,
    rng, short_block_profile, Run,
};
use stash_flash::{BitErrorStats, BlockId, Chip, NandDevice};

const BLOCKS: u32 = 48;

pub fn run(r: &mut Run) {
    let key = experiment_key();
    let profile = short_block_profile(r.scale);
    let mut rng = rng(63);

    let page_bytes = r.scale.page_bytes();
    r.header(
        "§6.3: public-data BER vs page interval",
        &format!("{BLOCKS} blocks per point; {page_bytes}-byte pages; 256 hidden bits/page"),
    );

    // Baseline: no hiding at all.
    let mut baseline = BitErrorStats::default();
    {
        let mut chip = Chip::new(profile.clone(), 600);
        for b in 0..BLOCKS {
            let publics = fill_block(&mut chip, BlockId(b), &mut rng);
            baseline.absorb(measure_public_ber(&mut chip, BlockId(b), &publics));
            chip.discard_block_state(BlockId(b)).expect("discard");
        }
    }

    r.row(["page_interval", "public_ber", "increase_vs_baseline"].map(String::from));
    r.row(["none".into(), format!("{:.3e}", baseline.ber()), "-".into()]);
    let mut json_rows = Vec::new();
    for interval in [0u32, 1, 2, 4] {
        let cfg = raw_paper_config(256, interval);
        let mut chip = Chip::new(profile.clone(), 600);
        let mut total = BitErrorStats::default();
        for b in 0..BLOCKS {
            let (publics, _) =
                fill_block_hiding(&mut chip, BlockId(b), &key, &cfg, &mut rng, false);
            total.absorb(measure_public_ber(&mut chip, BlockId(b), &publics));
            chip.discard_block_state(BlockId(b)).expect("discard");
        }
        let increase = (total.ber() / baseline.ber() - 1.0) * 100.0;
        r.row([
            interval.to_string(),
            format!("{:.3e}", total.ber()),
            format!("{}{}%", if increase >= 0.0 { "+" } else { "" }, f(increase, 1)),
        ]);
        json_rows.push(format!(
            "      {{\"interval\":{interval},\"public_ber\":{},\"increase_pct\":{}}}",
            f(total.ber(), 9),
            f(increase, 1),
        ));
    }
    r.meter.record("baseline_public_ber", (baseline.ber() * 1e9).round() / 1e9);
    r.meter.record_rows("by_interval", &json_rows);
    outln!(r);
    outln!(r, "# paper: interval 0 -> +20%, interval 1 -> +10% (chosen as default)");
}
