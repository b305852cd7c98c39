//! §8 "Reliability" (wear sweep): hidden-data BER is low and essentially
//! flat across block wear — the paper reports 0.013 at PEC 0 and roughly
//! 0.011 at higher wear, letting users hide data even in well-worn cells
//! (unlike PT-HI, whose channel collapses after a few hundred PEC — shown
//! here side by side).

use crate::{
    experiment_key, f, fill_block_hiding, measure_hidden_ber, outln, raw_paper_config, rng,
    short_block_profile, Run,
};
use pthi::{PthiConfig, PthiHider};
use stash_flash::{BitErrorStats, BlockId, Chip, NandDevice, PageId};

const BLOCKS: u32 = 4;
const PECS: [u32; 4] = [0, 1000, 2000, 3000];

pub fn run(r: &mut Run) {
    let key = experiment_key();
    let profile = short_block_profile(r.scale);
    let cfg = raw_paper_config(256, 1);
    let mut rng = rng(80);

    r.header(
        "§8 Reliability: hidden BER vs wear — VT-HI stays flat, PT-HI collapses",
        &format!("{BLOCKS} blocks per point; raw (pre-ECC) BER"),
    );
    r.row(["pec", "vthi_ber", "pthi_ber"].map(String::from));
    let mut json_rows = Vec::new();
    for (i, &pec) in PECS.iter().enumerate() {
        // VT-HI.
        let mut chip = Chip::new(profile.clone(), 700 + i as u64);
        let mut vthi_total = BitErrorStats::default();
        for b in 0..BLOCKS {
            chip.cycle_block(BlockId(b), pec).expect("cycle");
            let (_p, reports) =
                fill_block_hiding(&mut chip, BlockId(b), &key, &cfg, &mut rng, false);
            vthi_total.absorb(measure_hidden_ber(&mut chip, &key, &cfg, &reports));
            chip.discard_block_state(BlockId(b)).expect("discard");
        }

        // PT-HI: encode fresh, then cycle to the target wear, then decode.
        let mut chip2 = Chip::new(profile.clone(), 800 + i as u64);
        let pcfg = PthiConfig::paper_default(chip2.geometry());
        let mut errs = 0u64;
        let mut bits_total = 0u64;
        {
            let block = BlockId(0);
            chip2.erase_block(block).expect("erase");
            let pages = chip2.geometry().pages_per_block;
            let truth: Vec<Vec<bool>> = (0..pages)
                .map(|p| (0..pcfg.bits_per_page).map(|i| (i * 31 + p as usize).is_multiple_of(2)).collect())
                .collect();
            let mut ph = PthiHider::new(&mut chip2, key.clone(), pcfg.clone());
            for p in 0..pages {
                ph.encode_page(PageId::new(block, p), &truth[p as usize]).expect("encode");
            }
            ph.chip_mut().cycle_block(block, pec).expect("cycle");
            for p in 0..pages {
                let got = ph.decode_page(PageId::new(block, p)).expect("decode");
                errs += got.iter().zip(&truth[p as usize]).filter(|(a, b)| a != b).count() as u64;
                bits_total += got.len() as u64;
            }
        }
        let pthi_ber = errs as f64 / bits_total as f64;

        r.row([pec.to_string(), f(vthi_total.ber(), 4), f(pthi_ber, 4)]);
        json_rows.push(format!(
            "      {{\"pec\":{pec},\"vthi_ber\":{},\"pthi_ber\":{}}}",
            f(vthi_total.ber(), 4),
            f(pthi_ber, 4),
        ));
    }
    r.meter.record_rows("wear_sweep", &json_rows);
    outln!(r);
    outln!(r, "# paper: VT-HI 0.013 at PEC 0, ~0.011 at other PEC (flat);");
    outln!(r, "# PT-HI 'error rate significantly increases after only a few hundred PEC'");
}
