//! Figure 1 (illustrative in the paper): typical cell-voltage distributions
//! of SLC vs MLC flash. The paper's Fig. 1 is a textbook sketch; this
//! harness renders the equivalent from the simulator's calibrated SLC-mode
//! distributions and a narrowed four-level MLC-style rendering, so the
//! repository regenerates *every* figure from executable code.

use crate::{f, outln, Run};
use stash_flash::latent::inverse_normal_cdf;

/// Renders a gaussian mixture as a 256-level percentage histogram.
fn mixture(components: &[(f64, f64, f64)]) -> Vec<f64> {
    let mut out = vec![0.0f64; 256];
    for &(weight, mean, sigma) in components {
        for (level, o) in out.iter_mut().enumerate() {
            let z = (level as f64 - mean) / sigma;
            *o += weight * (-0.5 * z * z).exp() / (sigma * (2.0 * std::f64::consts::PI).sqrt());
        }
    }
    out.iter().map(|v| v * 100.0).collect()
}

pub fn run(r: &mut Run) {
    r.header(
        "Figure 1: SLC vs MLC voltage-level distributions (illustrative)",
        "rendered from the calibrated simulator parameters; erased lobes clipped at 0",
    );

    // SLC: erased lobe (negative mean; only the positive tail is
    // measurable) and one programmed lobe — the simulator's vendor-A
    // parameters.
    let slc = mixture(&[(0.5, -1.8, 14.0), (0.5, 165.0, 9.0)]);
    // MLC: four narrower lobes in the same range (paper: "MLC distributions
    // are typically narrower").
    let mlc =
        mixture(&[(0.25, -1.8, 9.0), (0.25, 85.0, 6.0), (0.25, 145.0, 6.0), (0.25, 200.0, 6.0)]);

    r.row(["level", "slc_pct", "mlc_pct"].map(String::from));
    for level in 0..=255usize {
        r.row([level.to_string(), f(slc[level], 4), f(mlc[level], 4)]);
    }
    outln!(r);
    outln!(
        r,
        "# note: SLC stores 1 bit across 2 wide lobes; MLC stores 2 bits across 4 \
         narrow lobes"
    );
    outln!(
        r,
        "# sanity: z-score of SLC read reference inside programmed lobe: {:.1} sigma",
        (165.0 - 127.0) / 9.0
    );
    let _ = inverse_normal_cdf(0.5); // keep the latent module linked in

    r.meter.record("slc_pct_sum", (slc.iter().sum::<f64>() * 1e4).round() / 1e4);
    r.meter.record("mlc_pct_sum", (mlc.iter().sum::<f64>() * 1e4).round() / 1e4);
    r.meter.record("slc_read_ref_z_sigma", (165.0 - 127.0) / 9.0);
}
