//! Capacity planning (paper §6.3).
//!
//! How many bits can a page hide without telltale distribution changes?
//! The paper's rule: count the non-programmed cells that are *naturally*
//! charged above the hiding threshold (they measured ≥700 per page) and
//! stay well below that count (they chose 512 as the upper bound and 256 as
//! the conservative default).

use crate::config::VthiConfig;
use stash_flash::{BitPattern, Level, NandDevice, PageId};

/// The fraction of naturally-above-threshold cells the planner is willing
/// to add as hidden charge (the paper's 512-of-700 bound, ≈0.73).
pub const NATURAL_OCCUPANCY_BUDGET: f64 = 0.73;

/// Capacity assessment of one programmed page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageCapacity {
    /// Non-programmed (public `1`) cells in the page.
    pub erased_cells: usize,
    /// Of those, cells naturally measured at or above `Vth`.
    pub naturally_above: usize,
    /// Maximum hidden bits this page should carry without leaving telltale
    /// changes to the voltage distribution (§6.3).
    pub recommended_max_bits: usize,
}

impl PageCapacity {
    /// Assesses a programmed page by probing its voltage levels.
    ///
    /// # Errors
    ///
    /// Propagates flash errors from the probe.
    pub fn assess<D: NandDevice + ?Sized>(
        chip: &mut D,
        page: PageId,
        public: &BitPattern,
        vth: Level,
    ) -> stash_flash::Result<PageCapacity> {
        let mut levels = Vec::new();
        chip.probe_voltages_into(page, &mut levels)?;
        let mut erased_cells = 0usize;
        let mut naturally_above = 0usize;
        for (i, &level) in levels.iter().enumerate() {
            if public.get(i) {
                erased_cells += 1;
                if level >= vth {
                    naturally_above += 1;
                }
            }
        }
        let recommended_max_bits = (naturally_above as f64 * NATURAL_OCCUPANCY_BUDGET) as usize;
        Ok(PageCapacity { erased_cells, naturally_above, recommended_max_bits })
    }

    /// Whether a configuration fits inside this page's stealth budget.
    pub fn admits(&self, cfg: &VthiConfig) -> bool {
        // Only hidden '0' cells add charge; with encrypted payloads that is
        // half the hidden bits on average, but plan for the worst case.
        cfg.used_bits_per_page() <= self.recommended_max_bits
    }
}

/// Shannon-bound usable bits for `n` cells at raw bit-error rate `ber` —
/// the arithmetic behind the paper's "243.6 bits of data per page" (0.5%
/// BER) and "14% are used for ECC" (2% BER) figures.
pub fn shannon_capacity_bits(n: usize, ber: f64) -> f64 {
    assert!((0.0..0.5).contains(&ber), "ber out of range: {ber}");
    if ber == 0.0 {
        return n as f64;
    }
    let h = -ber * ber.log2() - (1.0 - ber) * (1.0 - ber).log2();
    n as f64 * (1.0 - h)
}

/// Verifies that the cells VT-HI would select stay within the natural
/// above-threshold population of a *block* ("we also verified that the
/// total number of cells in the range is larger than the total number of
/// hidden bits", §6.1) — a preflight the hiding user can run per block.
///
/// # Errors
///
/// Propagates flash errors.
pub fn block_admits<D: NandDevice + ?Sized>(
    chip: &mut D,
    block: stash_flash::BlockId,
    publics: &[BitPattern],
    cfg: &VthiConfig,
) -> stash_flash::Result<bool> {
    let mut above_total = 0usize;
    let stride = cfg.page_stride();
    for (i, public) in publics.iter().enumerate() {
        let page = PageId::new(block, i as u32 * stride);
        let cap = PageCapacity::assess(chip, page, public, cfg.vth)?;
        above_total += cap.naturally_above;
    }
    let hidden_total = cfg.used_bits_per_page() * publics.len();
    Ok(above_total >= hidden_total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};
    use stash_flash::{BlockId, Chip, ChipProfile};

    #[test]
    fn shannon_matches_paper_figures() {
        // §8: 0.5% BER over 256 cells -> ≈243.6 usable bits.
        let c = shannon_capacity_bits(256, 0.005);
        assert!((242.0..245.0).contains(&c), "capacity {c}");
        // §8 enhanced: 2% BER -> ≈14% overhead.
        let overhead = 1.0 - shannon_capacity_bits(2560, 0.02) / 2560.0;
        assert!((0.13..0.15).contains(&overhead), "overhead {overhead}");
        assert_eq!(shannon_capacity_bits(100, 0.0), 100.0);
    }

    /// Programs every page of a block with random public data (the natural
    /// above-threshold population is created by neighbor interference, so a
    /// lone page in an empty block has none — blocks in the paper's
    /// experiments are always full).
    fn fill_block(chip: &mut Chip, block: BlockId, seed: u64) -> Vec<BitPattern> {
        let cpp = chip.geometry().cells_per_page();
        let mut rng = SmallRng::seed_from_u64(seed);
        chip.erase_block(block).unwrap();
        (0..chip.geometry().pages_per_block)
            .map(|p| {
                let data = BitPattern::random_half(&mut rng, cpp);
                chip.program_page(PageId::new(block, p), &data).unwrap();
                data
            })
            .collect()
    }

    #[test]
    fn assess_counts_natural_population() {
        let mut chip = Chip::new(ChipProfile::vendor_a_scaled(), 4);
        let publics = fill_block(&mut chip, BlockId(0), 2);
        let cpp = chip.geometry().cells_per_page();
        let page = PageId::new(BlockId(0), 3);
        let public = &publics[3];
        let cap = PageCapacity::assess(&mut chip, page, public, 34).unwrap();
        assert!(cap.erased_cells > cpp / 3);
        // Scaled page (16384 cells): ~1% of ~8k erased cells above Vth.
        let frac = cap.naturally_above as f64 / cap.erased_cells as f64;
        assert!((0.003..0.03).contains(&frac), "natural fraction {frac}");
        assert!(cap.recommended_max_bits < cap.naturally_above);
    }

    #[test]
    fn default_config_is_admitted_by_typical_pages() {
        // Tail mass varies block-to-block (that variation is the cover
        // noise hiding depends on), so individual thin-tail pages may
        // refuse the budget — the planner exists for exactly that. The
        // *typical* page must admit the scaled default.
        let mut chip = Chip::new(ChipProfile::vendor_a_scaled(), 5);
        let cfg = VthiConfig::scaled_for(chip.geometry());
        let mut admitted = 0usize;
        let mut total = 0usize;
        for b in [0u32, 1, 2] {
            let publics = fill_block(&mut chip, BlockId(b), 3 + u64::from(b));
            for p in (0..chip.geometry().pages_per_block).step_by(4) {
                let cap = PageCapacity::assess(
                    &mut chip,
                    PageId::new(BlockId(b), p),
                    &publics[p as usize],
                    cfg.vth,
                )
                .unwrap();
                total += 1;
                if cap.admits(&cfg) {
                    admitted += 1;
                }
            }
        }
        assert!(
            admitted * 3 >= total * 2,
            "only {admitted}/{total} pages admit the scaled default"
        );
    }

    #[test]
    fn block_admittance_preflight() {
        let mut chip = Chip::new(ChipProfile::vendor_a_scaled(), 6);
        let all = fill_block(&mut chip, BlockId(0), 4);
        let cfg = VthiConfig::scaled_for(chip.geometry());
        // Hidden pages sit at the configured stride; their publics are the
        // patterns already programmed there.
        let publics: Vec<BitPattern> =
            (0..4).map(|i| all[(i * cfg.page_stride()) as usize].clone()).collect();
        assert!(block_admits(&mut chip, BlockId(0), &publics, &cfg).unwrap());
    }

    #[test]
    #[should_panic(expected = "ber out of range")]
    fn shannon_rejects_bad_ber() {
        let _ = shannon_capacity_bits(10, 0.6);
    }
}
