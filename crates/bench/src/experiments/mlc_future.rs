//! Future work made executable (paper §6.2/§9.2): hiding inside an MLC
//! lobe with controller-grade fine programming — "with more precise
//! programming steps ... our approach should extend to MLC or TLC", "hide
//! data as TLC in MLC cells".
//!
//! The harness hides payloads in the L1 lobe of MLC wordlines and reports
//! post-ECC hidden BER, public-data BER for both logical pages, and the
//! payload and public capacity per wordline. Its reading says the
//! construction works only when every payload decoded.

use crate::{experiment_key, f, outln, rng, Run};
use rand::Rng;
use stash_flash::{BitErrorStats, BitPattern, BlockId, Chip, ChipProfile, PageId};
use vthi::{MlcHideConfig, MlcHider};

const WORDLINES: u32 = 24;

pub fn run(r: &mut Run) {
    let profile = ChipProfile::vendor_a_scaled();
    let key = experiment_key();
    let cfg = MlcHideConfig::default();
    let mut rng = rng(260);

    let mut chip = Chip::new(profile, 61);
    let sub_vth = cfg.sub_vth(&chip);
    r.header(
        "§6.2 future work: VT-HI inside the MLC L1 lobe (fine PP)",
        &format!(
            "{WORDLINES} wordlines; {} hidden bits each; sub-threshold level {}",
            cfg.hidden_bits_per_page, sub_vth
        ),
    );

    let cpp = chip.geometry().cells_per_page();
    let mut hidden_errs = BitErrorStats::default();
    let mut public_errs = BitErrorStats::default();
    let mut lost = 0u32;
    let payload_bytes = cfg.payload_bytes(&chip);
    let mut hider = MlcHider::new(&mut chip, key, cfg.clone());

    for w in 0..WORDLINES {
        let block = BlockId(w / 8);
        let page = PageId::new(block, w % 8);
        if w % 8 == 0 {
            hider.chip_mut().erase_block(block).expect("erase");
        }
        let lower = BitPattern::random_half(&mut rng, cpp);
        let upper = BitPattern::random_half(&mut rng, cpp);
        let payload: Vec<u8> = (0..payload_bytes).map(|_| rng.gen()).collect();
        hider.hide_on_fresh_wordline(page, &lower, &upper, &payload).expect("hide");

        // Hidden-path integrity.
        match hider.reveal_wordline(page, Some((&lower, &upper))) {
            Ok(got) => {
                let errors = got
                    .iter()
                    .zip(&payload)
                    .map(|(a, b)| u64::from((a ^ b).count_ones()))
                    .sum::<u64>();
                lost += u32::from(errors > 0);
                hidden_errs.absorb(BitErrorStats::from_counts(errors, payload.len() as u64 * 8));
            }
            Err(_) => {
                lost += 1;
                hidden_errs.absorb(BitErrorStats::from_counts(
                    payload.len() as u64 * 8,
                    payload.len() as u64 * 8,
                ));
            }
        }

        // Public-path integrity (both logical pages).
        let (l, u) = hider.chip_mut().read_page_mlc(page).expect("mlc read");
        public_errs.absorb(BitErrorStats::compare(&lower, &l));
        public_errs.absorb(BitErrorStats::compare(&upper, &u));
    }

    r.row(["metric", "value"].map(String::from));
    r.row(["post-ECC hidden payload BER".into(), f(hidden_errs.ber(), 6)]);
    r.row(["public MLC data BER".into(), format!("{:.3e}", public_errs.ber())]);
    r.row(["hidden payload bytes per wordline".into(), payload_bytes.to_string()]);
    r.row([
        "MLC public capacity per wordline".into(),
        format!("{} bytes (2 logical pages)", cpp / 8 * 2),
    ]);
    r.meter.record("hidden_payload_ber", (hidden_errs.ber() * 1e6).round() / 1e6);
    r.meter.record("public_mlc_ber", (public_errs.ber() * 1e9).round() / 1e9);
    r.meter.record("payload_bytes_per_wordline", payload_bytes as f64);
    r.meter.record("wordlines", f64::from(WORDLINES));

    outln!(r);
    if lost == 0 {
        outln!(r, "# interpretation: the same keyed-selection + sub-threshold construction");
        outln!(r, "# works inside an MLC lobe once fine programming is available, at the cost");
        outln!(r, "# VT-HI already pays in SLC mode — supporting the paper's conjecture that");
        outln!(r, "# vendor support extends hiding to MLC/TLC densities.");
    } else {
        outln!(r, "# interpretation: ECC lost {lost} of the {WORDLINES} wordline payloads,");
        outln!(r, "# so this run does not show the construction working inside an MLC lobe;");
        outln!(r, "# the paper's conjecture that vendor support extends hiding to MLC/TLC");
        outln!(r, "# densities stays open here.");
    }
}
