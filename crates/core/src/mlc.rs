//! Experimental: hiding inside MLC lobes ("TLC-in-MLC", paper §6.2/§9.2).
//!
//! The paper expects that with controller support, VT-HI extends beyond the
//! erased state: "our approach should extend to MLC or TLC" (§6.2) and
//! "hide data as TLC in MLC cells" (§9.2). The construction is identical in
//! spirit to SLC-mode VT-HI — pick a lobe, place a secret sub-threshold
//! inside its natural spread, and nudge key-selected cells past it with
//! fine partial programming:
//!
//! ```text
//!        L1 lobe                    sub-threshold
//!   ────/‾‾‾\────────   ⇒    ────/‾‾|‾\∿───────
//!       hidden '1'                   hidden '0' (nudged)
//! ```
//!
//! Cells stay well below the next read reference, so both MLC logical
//! pages read back unchanged for the normal user. This module requires the
//! vendor-support fine PP (`Chip::fine_partial_program`), exactly as the
//! paper anticipates.

use crate::config::{EccChoice, VthiConfig};
use crate::error::HideError;
use crate::payload::PayloadCodec;
use crate::select::page_stream_id;
use stash_crypto::{HidingKey, SelectionPrng};
use stash_flash::{BitPattern, Chip, Level, NandDevice, PageId};

/// Configuration for MLC-lobe hiding.
#[derive(Debug, Clone, PartialEq)]
pub struct MlcHideConfig {
    /// Hidden cells per wordline (code bits).
    pub hidden_bits_per_page: usize,
    /// Sub-threshold offset above the L1 lobe mean (level units).
    pub sub_offset: u8,
    /// Error correction (same choices as SLC-mode VT-HI).
    pub ecc: EccChoice,
}

impl Default for MlcHideConfig {
    fn default() -> Self {
        MlcHideConfig {
            hidden_bits_per_page: 64,
            sub_offset: 13,
            ecc: EccChoice::Bch { t: 3, segment_bits: 0 },
        }
    }
}

impl MlcHideConfig {
    /// The internal SLC-machinery view of this configuration: the hidden
    /// read threshold is `L1 mean + sub_offset`.
    fn as_vthi(&self, chip: &Chip) -> VthiConfig {
        let mut cfg = VthiConfig::paper_default();
        cfg.vth = self.sub_vth(chip);
        cfg.hidden_bits_per_page = self.hidden_bits_per_page;
        cfg.use_fine_pp = true;
        cfg.max_pp_steps = 1;
        cfg.ecc = self.ecc;
        cfg
    }

    /// The absolute hidden threshold level.
    pub fn sub_vth(&self, chip: &Chip) -> Level {
        (chip.profile().mlc.l1_mean as u8).saturating_add(self.sub_offset)
    }

    /// Payload bytes stored per wordline.
    pub fn payload_bytes(&self, chip: &Chip) -> usize {
        self.as_vthi(chip).payload_bytes_per_page()
    }
}

/// Hiding in the L1 lobe of MLC wordlines.
#[derive(Debug)]
pub struct MlcHider<'c> {
    chip: &'c mut Chip,
    key: HidingKey,
    cfg: MlcHideConfig,
}

impl<'c> MlcHider<'c> {
    /// Creates an MLC hider.
    pub fn new(chip: &'c mut Chip, key: HidingKey, cfg: MlcHideConfig) -> Self {
        MlcHider { chip, key, cfg }
    }

    /// Shared chip access.
    pub fn chip(&self) -> &Chip {
        self.chip
    }

    /// Exclusive chip access.
    pub fn chip_mut(&mut self) -> &mut Chip {
        self.chip
    }

    /// Cells of a wordline holding MLC L1 (lower `1`, upper `0`), the lobe
    /// that hosts hidden bits, selected by the keyed PRNG.
    fn select_cells(
        &mut self,
        page: PageId,
        lower: &BitPattern,
        upper: &BitPattern,
    ) -> crate::Result<Vec<usize>> {
        let l1: Vec<usize> = (0..lower.len()).filter(|&i| lower.get(i) && !upper.get(i)).collect();
        let need = self.cfg.hidden_bits_per_page;
        if l1.len() < need {
            return Err(HideError::InsufficientOnes { needed: need, available: l1.len() });
        }
        let geometry = *self.chip.geometry();
        let stream = page_stream_id(&geometry, page) ^ 0x4D4C_4331; // MLC namespace
        let mut prng = SelectionPrng::new(&self.key, stream);
        let picks = prng.choose_distinct(need, l1.len());
        Ok(picks.into_iter().map(|i| l1[i]).collect())
    }

    /// Programs an MLC wordline with public data and hides `payload` in its
    /// L1 cells with one fine PP pass.
    ///
    /// # Errors
    ///
    /// Fails on flash errors, undersized L1 population, or payload size
    /// mismatch.
    pub fn hide_on_fresh_wordline(
        &mut self,
        page: PageId,
        lower: &BitPattern,
        upper: &BitPattern,
        payload: &[u8],
    ) -> crate::Result<()> {
        let vcfg = self.cfg.as_vthi(self.chip);
        let codec = PayloadCodec::new(&vcfg)?;
        let expected = codec.payload_bytes();
        if payload.len() != expected {
            return Err(HideError::PayloadLength { expected, got: payload.len() });
        }
        self.chip.program_page_mlc(page, lower, upper)?;
        let cells = self.select_cells(page, lower, upper)?;

        let geometry = *self.chip.geometry();
        let stream = page_stream_id(&geometry, page) ^ 0x4D4C_4331;
        let bits = codec.encode(&self.key, stream, payload)?;

        let cpp = geometry.cells_per_page();
        let mut mask = BitPattern::zeros(cpp);
        for (&c, &bit) in cells.iter().zip(&bits) {
            if !bit {
                mask.set(c, true);
            }
        }
        self.chip.fine_partial_program(page, &mask, vcfg.vth)?;
        Ok(())
    }

    /// Recovers a hidden payload from an MLC wordline; needs the public
    /// MLC data (or reads it back) to re-derive the L1 cell set.
    ///
    /// # Errors
    ///
    /// Fails on flash errors or unrecoverable corruption.
    pub fn reveal_wordline(
        &mut self,
        page: PageId,
        public: Option<(&BitPattern, &BitPattern)>,
    ) -> crate::Result<Vec<u8>> {
        let vcfg = self.cfg.as_vthi(self.chip);
        let owned;
        let (lower, upper) = match public {
            Some((l, u)) => (l, u),
            None => {
                owned = self.chip.read_page_mlc(page)?;
                (&owned.0, &owned.1)
            }
        };
        let cells = self.select_cells(page, lower, upper)?;
        let shifted = self.chip.read_page_shifted(page, vcfg.vth)?;
        let bits: Vec<bool> = cells.iter().map(|&c| shifted.get(c)).collect();
        let geometry = *self.chip.geometry();
        let stream = page_stream_id(&geometry, page) ^ 0x4D4C_4331;
        PayloadCodec::new(&vcfg)?.decode(&self.key, stream, &bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use stash_flash::{BlockId, ChipProfile};

    fn setup() -> (Chip, HidingKey, MlcHideConfig) {
        let chip = Chip::new(ChipProfile::vendor_a_scaled(), 99);
        let key = HidingKey::from_passphrase("tlc in mlc");
        (chip, key, MlcHideConfig::default())
    }

    fn mlc_patterns(chip: &Chip, seed: u64) -> (BitPattern, BitPattern) {
        let cpp = chip.geometry().cells_per_page();
        let mut rng = SmallRng::seed_from_u64(seed);
        (BitPattern::random_half(&mut rng, cpp), BitPattern::random_half(&mut rng, cpp))
    }

    #[test]
    fn mlc_hide_reveal_roundtrip() {
        let (mut chip, key, cfg) = setup();
        let (lower, upper) = mlc_patterns(&chip, 1);
        chip.erase_block(BlockId(0)).unwrap();
        let page = PageId::new(BlockId(0), 0);
        let payload: Vec<u8> = {
            let mut rng = SmallRng::seed_from_u64(2);
            let n = cfg.payload_bytes(&chip);
            (0..n).map(|_| rng.gen()).collect()
        };
        let mut hider = MlcHider::new(&mut chip, key, cfg);
        hider.hide_on_fresh_wordline(page, &lower, &upper, &payload).unwrap();
        assert_eq!(hider.reveal_wordline(page, Some((&lower, &upper))).unwrap(), payload);
        // Self-deriving the public data also works.
        assert_eq!(hider.reveal_wordline(page, None).unwrap(), payload);
    }

    #[test]
    fn both_mlc_logical_pages_unharmed() {
        let (mut chip, key, cfg) = setup();
        let (lower, upper) = mlc_patterns(&chip, 3);
        chip.erase_block(BlockId(0)).unwrap();
        let page = PageId::new(BlockId(0), 0);
        let payload = vec![0xEE; cfg.payload_bytes(&chip)];
        let mut hider = MlcHider::new(&mut chip, key, cfg);
        hider.hide_on_fresh_wordline(page, &lower, &upper, &payload).unwrap();
        let (l, u) = hider.chip_mut().read_page_mlc(page).unwrap();
        let errs = l.hamming_distance(&lower) + u.hamming_distance(&upper);
        assert!(errs <= lower.len() / 1000, "MLC public data disturbed by hiding: {errs} errors");
    }

    #[test]
    fn wrong_key_fails_or_garbles() {
        let (mut chip, key, cfg) = setup();
        let (lower, upper) = mlc_patterns(&chip, 4);
        chip.erase_block(BlockId(0)).unwrap();
        let page = PageId::new(BlockId(0), 0);
        let payload = vec![0x3C; cfg.payload_bytes(&chip)];
        {
            let mut hider = MlcHider::new(&mut chip, key, cfg.clone());
            hider.hide_on_fresh_wordline(page, &lower, &upper, &payload).unwrap();
        }
        let wrong = HidingKey::from_passphrase("guess");
        let mut hider = MlcHider::new(&mut chip, wrong, cfg);
        if let Ok(got) = hider.reveal_wordline(page, Some((&lower, &upper))) {
            assert_ne!(got, payload);
        }
    }

    #[test]
    fn insufficient_l1_population_reported() {
        let (mut chip, key, cfg) = setup();
        let cpp = chip.geometry().cells_per_page();
        // All cells L3 (lower 0, upper 1): no L1 lobe at all.
        let lower = BitPattern::zeros(cpp);
        let upper = BitPattern::ones(cpp);
        chip.erase_block(BlockId(0)).unwrap();
        let page = PageId::new(BlockId(0), 0);
        let payload = vec![0u8; cfg.payload_bytes(&chip)];
        let mut hider = MlcHider::new(&mut chip, key, cfg);
        let err = hider.hide_on_fresh_wordline(page, &lower, &upper, &payload).unwrap_err();
        assert!(matches!(err, HideError::InsufficientOnes { available: 0, .. }));
    }
}
