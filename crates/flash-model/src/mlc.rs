//! MLC-mode operations (paper §3, §6.2).
//!
//! Flash vendors dynamically switch cells between SLC and MLC/TLC modes
//! (paper §1, refs [21–30]); the paper's §6.2 expects that "a flash
//! controller can extend our ideas to MLC or TLC". This module adds the
//! MLC substrate: two logical pages (lower + upper) per wordline across
//! four voltage lobes with gray coding, so the hiding layer can experiment
//! with "TLC-in-MLC"-style hiding — the paper's stated future direction.
//!
//! Gray mapping (lower, upper): `11`→L0 (erased), `10`→L1, `00`→L2,
//! `01`→L3. Adjacent lobes differ by one bit, like real MLC.

use crate::bits::BitPattern;
use crate::device::NandDevice;
use crate::error::FlashError;
use crate::geometry::PageId;
use crate::meter::OpKind;
use crate::{Chip, Result};

impl Chip {
    /// Programs a wordline in MLC mode: two logical pages land in four
    /// voltage lobes. Metered as two program operations (lower + upper
    /// page pass). Interference couples to neighbors as in SLC mode.
    ///
    /// # Errors
    ///
    /// Fails on invalid addresses, bad blocks, pattern-length mismatch, or
    /// if the wordline was already programmed since its last erase.
    pub fn program_page_mlc(
        &mut self,
        p: PageId,
        lower: &BitPattern,
        upper: &BitPattern,
    ) -> Result<()> {
        let cpp = self.geometry().cells_per_page();
        if lower.len() != cpp || upper.len() != cpp {
            return Err(FlashError::PatternLength {
                expected: cpp,
                got: if lower.len() != cpp { lower.len() } else { upper.len() },
            });
        }
        // The SLC program path performs the bookkeeping (erase-state check,
        // page flags, interference, defects); program the cells that leave
        // L0 as "programmed" with a placeholder, then place exact lobes.
        let programmed_mask: BitPattern = (0..cpp)
            .map(|i| lower.get(i) && upper.get(i)) // 11 stays erased
            .collect();
        self.program_page(p, &programmed_mask)?;

        let mlc = self.profile().mlc;
        let sigma = mlc.sigma;
        for i in 0..cpp {
            let target = match (lower.get(i), upper.get(i)) {
                (true, true) => continue, // L0: erased, untouched
                (true, false) => mlc.l1_mean,
                (false, false) => mlc.l2_mean,
                (false, true) => mlc.l3_mean,
            };
            self.place_cell_level(p, i, target, sigma);
        }
        // The second (upper-page) programming pass.
        self.record_op(OpKind::Program);
        Ok(())
    }

    /// Reads a wordline in MLC mode: compares each cell against the three
    /// reference voltages and undoes the gray mapping. Metered as two reads
    /// (lower + upper logical page).
    ///
    /// # Errors
    ///
    /// Fails on invalid addresses or bad blocks.
    pub fn read_page_mlc(&mut self, p: PageId) -> Result<(BitPattern, BitPattern)> {
        let mlc = self.profile().mlc;
        let [r1, r2, r3] = mlc.read_refs;
        // Three threshold comparisons, like a real MLC sense sequence.
        let below_r1 = self.read_page_shifted(p, r1)?;
        let below_r2 = self.read_page_shifted(p, r2)?;
        let below_r3 = self.read_page_shifted(p, r3)?;
        // Metering: the three shifted reads above already billed 3 reads;
        // real MLC bills 2 page reads — credit is not worth modeling, but
        // document the difference here.
        let cpp = below_r1.len();
        let mut lower = BitPattern::zeros(cpp);
        let mut upper = BitPattern::zeros(cpp);
        for i in 0..cpp {
            let level = match (below_r1.get(i), below_r2.get(i), below_r3.get(i)) {
                (true, _, _) => 0,
                (false, true, _) => 1,
                (false, false, true) => 2,
                (false, false, false) => 3,
            };
            let (l, u) = match level {
                0 => (true, true),
                1 => (true, false),
                2 => (false, false),
                _ => (false, true),
            };
            lower.set(i, l);
            upper.set(i, u);
        }
        Ok((lower, upper))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockId, ChipProfile};
    use rand::{rngs::SmallRng, SeedableRng};

    fn chip() -> Chip {
        Chip::new(ChipProfile::test_small(), 77)
    }

    fn patterns(chip: &Chip, seed: u64) -> (BitPattern, BitPattern) {
        let cpp = chip.geometry().cells_per_page();
        let mut rng = SmallRng::seed_from_u64(seed);
        (BitPattern::random_half(&mut rng, cpp), BitPattern::random_half(&mut rng, cpp))
    }

    #[test]
    fn mlc_roundtrip_two_logical_pages() {
        let mut c = chip();
        let (lower, upper) = patterns(&c, 1);
        c.erase_block(BlockId(0)).unwrap();
        let p = PageId::new(BlockId(0), 0);
        c.program_page_mlc(p, &lower, &upper).unwrap();
        let (l, u) = c.read_page_mlc(p).unwrap();
        let errs = l.hamming_distance(&lower) + u.hamming_distance(&upper);
        assert!(errs <= 4, "MLC raw errors {errs}");
    }

    #[test]
    fn mlc_lobes_are_narrower_than_slc() {
        let mut c = chip();
        let (lower, upper) = patterns(&c, 2);
        c.erase_block(BlockId(0)).unwrap();
        let p = PageId::new(BlockId(0), 0);
        c.program_page_mlc(p, &lower, &upper).unwrap();
        let levels = c.probe_voltages(p).unwrap();
        // Collect the L2 lobe (lower 0, upper 0) and check its spread.
        let mlc = c.profile().mlc;
        let l2: Vec<f64> = (0..levels.len())
            .filter(|&i| !lower.get(i) && !upper.get(i))
            .map(|i| f64::from(levels[i]))
            .collect();
        let mean = l2.iter().sum::<f64>() / l2.len() as f64;
        let sd = (l2.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / l2.len() as f64).sqrt();
        assert!((mean - mlc.l2_mean).abs() < 4.0, "L2 mean {mean}");
        assert!(sd < 9.0, "L2 sd {sd} should be narrower than the SLC lobe");
    }

    #[test]
    fn mlc_program_respects_erase_rule() {
        let mut c = chip();
        let (lower, upper) = patterns(&c, 3);
        c.erase_block(BlockId(0)).unwrap();
        let p = PageId::new(BlockId(0), 0);
        c.program_page_mlc(p, &lower, &upper).unwrap();
        assert!(matches!(
            c.program_page_mlc(p, &lower, &upper),
            Err(FlashError::PageAlreadyProgrammed(_))
        ));
    }

    #[test]
    fn mlc_is_metered_as_two_programs() {
        let mut c = chip();
        let (lower, upper) = patterns(&c, 4);
        c.erase_block(BlockId(0)).unwrap();
        c.reset_meter();
        c.program_page_mlc(PageId::new(BlockId(0), 0), &lower, &upper).unwrap();
        assert_eq!(c.meter().count(OpKind::Program), 2);
    }
}
