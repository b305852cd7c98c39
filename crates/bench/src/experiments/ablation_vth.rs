//! Ablation (DESIGN.md §5.2): where should `Vth` sit?
//!
//! Lower thresholds buy capacity (more natural cells above them ⇒ a larger
//! §6.3 stealth budget) but raise the hidden-`1` collision rate (natural
//! cells above the threshold read as `0`). Higher thresholds shrink both.
//! The paper picked 34 empirically; this harness shows the whole trade-off.

use crate::{block_histograms, 
    experiment_key, f, fill_block, fill_block_hiding, measure_hidden_ber, outln, raw_paper_config,
    rng, short_block_profile, Run,
};
use stash_flash::{BitErrorStats, BlockId, Chip, Histogram, NandDevice};

const BLOCKS: u32 = 3;
const VTHS: [u8; 6] = [20, 27, 34, 42, 50, 60];

pub fn run(r: &mut Run) {
    let key = experiment_key();
    let profile = short_block_profile(r.scale);

    let page_bytes = r.scale.page_bytes();
    r.header(
        "Ablation: hidden threshold Vth — capacity vs reliability",
        &format!("{BLOCKS} blocks per point; 256 hidden bits/page; {page_bytes}-byte pages"),
    );
    r.row(
        ["vth", "natural_above_pct", "stealth_budget_bits_per_page", "hidden_ber_at_10_steps"]
            .map(String::from),
    );

    let mut rng = rng(340);

    // One fixed natural baseline: probe erased cells of plain blocks once,
    // then read every threshold's occupancy off the same histogram (so the
    // capacity column is monotone by construction).
    let mut natural = Histogram::new();
    {
        let mut chip = Chip::new(profile.clone(), 4000);
        for b in 0..BLOCKS {
            let publics = fill_block(&mut chip, BlockId(b), &mut rng);
            natural.merge(&block_histograms(&mut chip, BlockId(b), &publics).0);
            chip.discard_block_state(BlockId(b)).expect("discard");
        }
    }

    let mut json_rows = Vec::new();
    for &vth in &VTHS {
        let mut cfg = raw_paper_config(256, 1);
        cfg.vth = vth;

        let mut chip = Chip::new(profile.clone(), 4000 + u64::from(vth));
        let mut total = BitErrorStats::default();
        for b in 0..BLOCKS {
            let (_publics, reports) =
                fill_block_hiding(&mut chip, BlockId(b), &key, &cfg, &mut rng, false);
            total.absorb(measure_hidden_ber(&mut chip, &key, &cfg, &reports));
            chip.discard_block_state(BlockId(b)).expect("discard");
        }
        let above = natural.fraction_at_or_above(vth);
        // §6.3 budget: ~73% of the natural population, in cells ⇒ ×2 bits.
        let erased_per_page = 144_384 / 2;
        let budget = (above * erased_per_page as f64 * 0.73 * 2.0) as usize;
        r.row([vth.to_string(), f(above * 100.0, 3), budget.to_string(), f(total.ber(), 5)]);
        json_rows.push(format!(
            "      {{\"vth\":{vth},\"natural_above_pct\":{},\"stealth_budget_bits\":{budget},\
             \"hidden_ber\":{}}}",
            f(above * 100.0, 3),
            f(total.ber(), 5),
        ));
    }
    r.meter.record_rows("vth_tradeoff", &json_rows);
    outln!(r);
    outln!(r, "# the paper's Vth=34 sits where the natural population still covers the");
    outln!(r, "# 256-bit default (budget >= hidden bits) while the hidden-'1' collision");
    outln!(r, "# floor stays under ~1%");
}
