//! # pthi — the PT-HI baseline (Wang et al., IEEE S&P 2013)
//!
//! *Stash in a Flash* compares VT-HI against **PT-HI**, the closest prior
//! work: a covert channel in the *programming time* of flash cells. PT-HI
//! applies hundreds of stress-programming cycles to key-selected groups of
//! cells; stressed cells program measurably faster ever after. A hidden bit
//! is encoded per group (stressed ⇒ `1`), and decoded by incrementally
//! programming the page while timing when each cell crosses into the
//! programmed state — which *destroys* any public data stored there.
//!
//! The paper's Table 1 and §8 attribute to PT-HI (optimal setup):
//! 625 program cycles per page to encode, ~30 program+read steps per page
//! to decode, destructive decoding, rapid BER growth once the device has a
//! few hundred public P/E cycles, and ~72 Kb of hidden bits per block.
//! This implementation reproduces those operation counts against the same
//! simulated chip and timing model as VT-HI, so every comparison in the
//! benchmarks runs both schemes on identical silicon.
//!
//! ```
//! use stash_flash::{Chip, ChipProfile, BitPattern, BlockId, NandDevice, PageId};
//! use stash_crypto::HidingKey;
//! use pthi::{PthiConfig, PthiHider};
//!
//! # fn main() -> Result<(), pthi::PthiError> {
//! let mut chip = Chip::new(ChipProfile::vendor_a_scaled(), 3);
//! let key = HidingKey::from_passphrase("prior work");
//! let cfg = PthiConfig::scaled_for(chip.geometry());
//! let mut hider = PthiHider::new(&mut chip, key, cfg.clone());
//!
//! let block = BlockId(0);
//! let page = PageId::new(block, 0);
//! let bits: Vec<bool> = (0..cfg.bits_per_page).map(|i| i % 3 == 0).collect();
//!
//! hider.chip_mut().erase_block(block)?;
//! hider.encode_page(page, &bits)?;             // 625 stress cycles
//! hider.chip_mut().erase_block(block)?;        // stress survives erase
//! // ... the normal user stores public data, uses the drive, ...
//! let decoded = hider.decode_page(page)?;      // destructive!
//! let errors = decoded.iter().zip(&bits).filter(|(a, b)| a != b).count();
//! assert!(errors <= 2);
//! # Ok(())
//! # }
//! ```

use stash_crypto::{HidingKey, SelectionPrng};
use stash_flash::{BitPattern, Chip, FlashError, Geometry, NandDevice, PageId};
use std::fmt;

/// Errors returned by the PT-HI layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PthiError {
    /// An underlying flash operation failed.
    Flash(FlashError),
    /// The page cannot carry the configured number of groups.
    InsufficientCells {
        /// Cells required (`groups × group_size`).
        needed: usize,
        /// Cells in a page.
        available: usize,
    },
    /// Bit count does not match the configuration.
    PayloadLength {
        /// Bits per page configured.
        expected: usize,
        /// Bits supplied.
        got: usize,
    },
}

impl fmt::Display for PthiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PthiError::Flash(e) => write!(f, "flash operation failed: {e}"),
            PthiError::InsufficientCells { needed, available } => {
                write!(f, "page has {available} cells, groups need {needed}")
            }
            PthiError::PayloadLength { expected, got } => {
                write!(f, "payload is {got} bits, configuration stores {expected}")
            }
        }
    }
}

impl std::error::Error for PthiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PthiError::Flash(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FlashError> for PthiError {
    fn from(e: FlashError) -> Self {
        PthiError::Flash(e)
    }
}

/// PT-HI configuration (the "optimal setup" of \[38\] as §8 describes it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PthiConfig {
    /// Cells per hidden-bit group (timing is averaged over the group).
    pub group_size: usize,
    /// Hidden bits per page.
    pub bits_per_page: usize,
    /// Stress-programming cycles applied to encode a `1` group.
    pub stress_cycles: u32,
    /// Incremental program+read steps used to decode a page.
    pub decode_steps: u16,
}

impl PthiConfig {
    /// The paper's §8 setup on full-size pages: 625 stress cycles, 30
    /// decode steps, one bit per 128 cells (72 Kb per 64-page block).
    pub fn paper_default(geometry: &Geometry) -> Self {
        PthiConfig {
            group_size: 16,
            bits_per_page: geometry.cells_per_page() / 128,
            stress_cycles: 625,
            decode_steps: 30,
        }
    }

    /// Same densities on a scaled simulation geometry.
    pub fn scaled_for(geometry: &Geometry) -> Self {
        PthiConfig::paper_default(geometry)
    }

    /// Cells consumed per page.
    pub fn cells_needed(&self) -> usize {
        self.group_size * self.bits_per_page
    }
}

/// The PT-HI hiding user's handle on a device.
///
/// Generic over the [`NandDevice`] backend, defaulting to a bare [`Chip`].
#[derive(Debug)]
pub struct PthiHider<'c, D: NandDevice = Chip> {
    chip: &'c mut D,
    key: HidingKey,
    cfg: PthiConfig,
}

impl<'c, D: NandDevice> PthiHider<'c, D> {
    /// Creates a PT-HI hider.
    pub fn new(chip: &'c mut D, key: HidingKey, cfg: PthiConfig) -> Self {
        PthiHider { chip, key, cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PthiConfig {
        &self.cfg
    }

    /// Shared access to the device.
    pub fn chip(&self) -> &D {
        self.chip
    }

    /// Exclusive access to the device.
    pub fn chip_mut(&mut self) -> &mut D {
        self.chip
    }

    /// The group cell offsets for a page, in bit order (keyed, like VT-HI's
    /// selection, so an adversary cannot enumerate groups).
    fn groups(&self, page: PageId) -> Result<Vec<Vec<usize>>, PthiError> {
        let cpp = self.chip.geometry().cells_per_page();
        let needed = self.cfg.cells_needed();
        if needed > cpp {
            return Err(PthiError::InsufficientCells { needed, available: cpp });
        }
        let stream = u64::from(page.block.0) * u64::from(self.chip.geometry().pages_per_block)
            + u64::from(page.page);
        let mut prng = SelectionPrng::new(&self.key, stream);
        let cells = prng.choose_distinct(needed, cpp);
        Ok(cells.chunks(self.cfg.group_size).map(<[usize]>::to_vec).collect())
    }

    /// Encodes hidden bits into a page by stressing the groups whose bit is
    /// `1` with the configured number of program cycles. The page contents
    /// are destroyed; erase the block before storing public data.
    ///
    /// # Errors
    ///
    /// Fails on flash errors or size mismatches.
    pub fn encode_page(&mut self, page: PageId, bits: &[bool]) -> Result<(), PthiError> {
        if bits.len() != self.cfg.bits_per_page {
            return Err(PthiError::PayloadLength {
                expected: self.cfg.bits_per_page,
                got: bits.len(),
            });
        }
        let groups = self.groups(page)?;
        let cpp = self.chip.geometry().cells_per_page();
        let mut mask = BitPattern::zeros(cpp);
        for (group, &bit) in groups.iter().zip(bits) {
            if bit {
                for &c in group {
                    mask.set(c, true);
                }
            }
        }
        self.chip.stress_cells(page, &mask, self.cfg.stress_cycles)?;
        Ok(())
    }

    /// Decodes the hidden bits of a page by incrementally programming it
    /// and timing each cell's crossing (destroys public data in the page —
    /// the defining drawback the paper's Table 1 records).
    ///
    /// # Errors
    ///
    /// Fails on flash errors or size mismatches.
    pub fn decode_page(&mut self, page: PageId) -> Result<Vec<bool>, PthiError> {
        let groups = self.groups(page)?;
        let steps = self.chip.program_time_probe(page, self.cfg.decode_steps)?;

        // Group-average crossing step; stressed groups cross earlier.
        let means: Vec<f64> = groups
            .iter()
            .map(|g| g.iter().map(|&c| f64::from(steps[c])).sum::<f64>() / g.len() as f64)
            .collect();
        // Split the group means into fast/slow clusters (1-D two-means):
        // robust to unbalanced payloads, unlike a median threshold.
        let mut lo = means.iter().cloned().fold(f64::MAX, f64::min);
        let mut hi = means.iter().cloned().fold(f64::MIN, f64::max);
        if (hi - lo).abs() < 1e-9 {
            // Degenerate page (no contrast at all): everything reads as 0.
            return Ok(vec![false; means.len()]);
        }
        for _ in 0..16 {
            let mid = (lo + hi) / 2.0;
            let (mut sl, mut nl, mut sh, mut nh) = (0.0, 0usize, 0.0, 0usize);
            for &m in &means {
                if m < mid {
                    sl += m;
                    nl += 1;
                } else {
                    sh += m;
                    nh += 1;
                }
            }
            if nl == 0 || nh == 0 {
                break;
            }
            lo = sl / nl as f64;
            hi = sh / nh as f64;
        }
        let threshold = (lo + hi) / 2.0;
        Ok(means.iter().map(|&m| m < threshold).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stash_flash::{BlockId, ChipProfile, OpKind};

    fn setup() -> (Chip, PthiConfig) {
        let chip = Chip::new(ChipProfile::vendor_a_scaled(), 11);
        let cfg = PthiConfig::scaled_for(chip.geometry());
        (chip, cfg)
    }

    fn key() -> HidingKey {
        HidingKey::new([6u8; 32])
    }

    fn ber(a: &[bool], b: &[bool]) -> f64 {
        a.iter().zip(b).filter(|(x, y)| x != y).count() as f64 / a.len() as f64
    }

    #[test]
    fn fresh_chip_roundtrip_is_reliable() {
        let (mut chip, cfg) = setup();
        let bits: Vec<bool> = (0..cfg.bits_per_page).map(|i| i % 2 == 0).collect();
        let page = PageId::new(BlockId(0), 0);
        let mut h = PthiHider::new(&mut chip, key(), cfg);
        h.chip_mut().erase_block(BlockId(0)).unwrap();
        h.encode_page(page, &bits).unwrap();
        h.chip_mut().erase_block(BlockId(0)).unwrap();
        let decoded = h.decode_page(page).unwrap();
        let e = ber(&decoded, &bits);
        assert!(e < 0.02, "fresh PT-HI BER {e}");
    }

    #[test]
    fn stress_survives_public_use() {
        let (mut chip, cfg) = setup();
        let bits: Vec<bool> = (0..cfg.bits_per_page).map(|i| (i / 3) % 2 == 0).collect();
        let page = PageId::new(BlockId(0), 0);
        let mut h = PthiHider::new(&mut chip, key(), cfg);
        h.chip_mut().erase_block(BlockId(0)).unwrap();
        h.encode_page(page, &bits).unwrap();
        // The normal user cycles the block a few times with public data.
        for s in 0..3u64 {
            h.chip_mut().erase_block(BlockId(0)).unwrap();
            let cpp = h.chip().geometry().cells_per_page();
            let data = BitPattern::random_half(
                &mut <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(s),
                cpp,
            );
            h.chip_mut().program_page(page, &data).unwrap();
        }
        let decoded = h.decode_page(page).unwrap();
        let e = ber(&decoded, &bits);
        assert!(e < 0.05, "PT-HI BER after light use {e}");
    }

    #[test]
    fn reliability_collapses_with_wear() {
        // Paper §2: "the error rate of the hidden payload significantly
        // increases after only a few hundred public PEC".
        let (mut chip, cfg) = setup();
        let bits: Vec<bool> = (0..cfg.bits_per_page).map(|i| i % 2 == 1).collect();
        let page = PageId::new(BlockId(0), 0);
        let mut h = PthiHider::new(&mut chip, key(), cfg);
        h.chip_mut().erase_block(BlockId(0)).unwrap();
        h.encode_page(page, &bits).unwrap();
        h.chip_mut().cycle_block(BlockId(0), 1500).unwrap();
        let decoded = h.decode_page(page).unwrap();
        let e = ber(&decoded, &bits);
        assert!(e > 0.2, "PT-HI should be unusable at 1500 PEC, BER {e}");
    }

    #[test]
    fn decode_destroys_public_data() {
        let (mut chip, cfg) = setup();
        let cpp = chip.geometry().cells_per_page();
        let page = PageId::new(BlockId(1), 0);
        chip.erase_block(BlockId(1)).unwrap();
        let public = BitPattern::random_half(
            &mut <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(9),
            cpp,
        );
        chip.program_page(page, &public).unwrap();
        let mut h = PthiHider::new(&mut chip, key(), cfg);
        let _ = h.decode_page(page).unwrap();
        let after = h.chip_mut().read_page(page).unwrap();
        let distance = after.hamming_distance(&public);
        assert!(
            distance > public.len() / 4,
            "public data should be destroyed, distance {distance}"
        );
    }

    #[test]
    fn operation_counts_match_paper_model() {
        let (mut chip, cfg) = setup();
        let bits: Vec<bool> = vec![true; cfg.bits_per_page];
        let page = PageId::new(BlockId(0), 0);
        let mut h = PthiHider::new(&mut chip, key(), cfg.clone());
        h.chip_mut().erase_block(BlockId(0)).unwrap();
        h.chip_mut().reset_meter();
        h.encode_page(page, &bits).unwrap();
        let m = h.chip().meter();
        assert_eq!(m.count(OpKind::Program), u64::from(cfg.stress_cycles));

        h.chip_mut().reset_meter();
        let _ = h.decode_page(page).unwrap();
        let m = h.chip().meter();
        assert_eq!(m.count(OpKind::PartialProgram), u64::from(cfg.decode_steps));
        assert_eq!(m.count(OpKind::Read), u64::from(cfg.decode_steps));
    }

    #[test]
    fn wrong_key_reads_noise() {
        let (mut chip, cfg) = setup();
        let bits: Vec<bool> = (0..cfg.bits_per_page).map(|i| i % 4 == 0).collect();
        let page = PageId::new(BlockId(0), 0);
        {
            let mut h = PthiHider::new(&mut chip, key(), cfg.clone());
            h.chip_mut().erase_block(BlockId(0)).unwrap();
            h.encode_page(page, &bits).unwrap();
        }
        let mut h2 = PthiHider::new(&mut chip, HidingKey::new([7u8; 32]), cfg);
        let decoded = h2.decode_page(page).unwrap();
        let e = ber(&decoded, &bits);
        assert!(e > 0.2, "wrong key should read ~noise, BER {e}");
    }

    #[test]
    fn config_validation_errors() {
        let (mut chip, mut cfg) = setup();
        cfg.bits_per_page = 1 << 20;
        let mut h = PthiHider::new(&mut chip, key(), cfg);
        let bits = vec![true; 1 << 20];
        let err = h.encode_page(PageId::new(BlockId(0), 0), &bits).unwrap_err();
        assert!(matches!(err, PthiError::InsufficientCells { .. }));
        let err2 = h.encode_page(PageId::new(BlockId(0), 0), &[true]).unwrap_err();
        assert!(matches!(err2, PthiError::PayloadLength { .. }));
    }
}
