//! §8 "Applicability": the same VT-HI code against a chip model from a
//! second major vendor (16 GB, 2096 blocks, 18256-byte pages). The paper
//! hides a 256-bit payload per relevant page on a fresh chip and measures a
//! BER of ≈1%, similar to vendor A.

use crate::rng;
use crate::{
    experiment_key, f, fill_block_hiding, measure_hidden_ber, outln, raw_paper_config, Run,
};
use stash_flash::{BlockId, Chip, ChipProfile, Geometry, NandDevice};

pub fn run(r: &mut Run) {
    let key = experiment_key();
    let cfg = raw_paper_config(256, 1);

    r.header(
        "§8 Applicability: VT-HI on a second vendor's chip model",
        "256-bit payloads, fresh chips (PEC 0), raw (pre-ECC) hidden BER",
    );
    r.row(["chip_model", "page_bytes", "hidden_ber"].map(String::from));

    let mut rng = rng(88);
    for (name, mut profile) in
        [("vendor-A", ChipProfile::vendor_a()), ("vendor-B", ChipProfile::vendor_b())]
    {
        // Short blocks, full-size pages of the respective vendor.
        profile.geometry = Geometry {
            blocks_per_chip: 16,
            pages_per_block: 16,
            page_bytes: profile.geometry.page_bytes,
        };
        let mut chip = Chip::new(profile.clone(), 90);
        let mut total = stash_flash::BitErrorStats::default();
        for b in 0..3 {
            let (_publics, reports) =
                fill_block_hiding(&mut chip, BlockId(b), &key, &cfg, &mut rng, false);
            total.absorb(measure_hidden_ber(&mut chip, &key, &cfg, &reports));
            chip.discard_block_state(BlockId(b)).expect("discard");
        }
        r.row([name.to_owned(), profile.geometry.page_bytes.to_string(), f(total.ber(), 4)]);
        let metric = if name == "vendor-A" { "vendor_a_hidden_ber" } else { "vendor_b_hidden_ber" };
        r.meter.record(metric, (total.ber() * 1e6).round() / 1e6);
    }
    outln!(r);
    outln!(r, "# paper: vendor-B BER ~1%, 'similar to the one in the first model'");
}
