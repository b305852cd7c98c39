//! VT-HI configuration (the paper's tuning knobs from §6).

use crate::error::HideError;
use crate::payload::PayloadCodec;
use stash_ecc::bch::Bch;
use stash_ecc::DecodeError;
use stash_flash::{Geometry, Level};

/// Error-correction choice for the hidden payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EccChoice {
    /// No protection (raw hidden bits) — used by BER-measurement
    /// experiments that want the uncoded error rate.
    None,
    /// Shortened binary BCH codewords of `segment_bits` code bits each,
    /// correcting `t` errors per codeword.
    Bch {
        /// Errors corrected per codeword.
        t: usize,
        /// Code bits per codeword (the hidden-cell budget is split into
        /// segments of this size; 0 means one codeword spanning the page).
        segment_bits: usize,
    },
}

/// The per-page code built from [`EccChoice::Bch`]: whole segments of one
/// shortened BCH code, laid end to end.
#[derive(Debug)]
pub struct PageCode {
    /// The per-segment code.
    code: Bch,
    /// Whole segments per page.
    segments: usize,
}

impl PageCode {
    /// Usable data bits per page.
    pub fn data_bits(&self) -> usize {
        self.code.data_len() * self.segments
    }

    /// Code bits actually placed in cells per page.
    pub fn code_bits(&self) -> usize {
        self.code.code_len() * self.segments
    }

    /// Encodes exactly [`data_bits`](Self::data_bits) bits.
    ///
    /// # Panics
    ///
    /// Panics on a length mismatch.
    pub fn encode(&self, data: &[bool]) -> Vec<bool> {
        assert_eq!(data.len(), self.data_bits(), "data length mismatch");
        let mut out = Vec::with_capacity(self.code_bits());
        for seg in data.chunks(self.code.data_len()) {
            out.extend(self.code.encode(seg));
        }
        out
    }

    /// Decodes [`code_bits`](Self::code_bits) cell bits back to data bits.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on uncorrectable corruption.
    ///
    /// # Panics
    ///
    /// Panics on a length mismatch.
    pub fn decode(&self, bits: &[bool]) -> Result<Vec<bool>, DecodeError> {
        assert_eq!(bits.len(), self.code_bits(), "codeword length mismatch");
        let mut out = Vec::with_capacity(self.data_bits());
        for seg in bits.chunks(self.code.code_len()) {
            out.extend(self.code.decode(seg)?);
        }
        Ok(out)
    }
}

/// Complete configuration of the hiding scheme for one chip.
#[derive(Debug, Clone, PartialEq)]
pub struct VthiConfig {
    /// The hidden-data threshold voltage (paper default: level 34; enhanced
    /// configuration: level 15).
    pub vth: Level,
    /// Maximum partial-program steps per page (paper: BER converges after
    /// ~10; enhanced configuration uses 1 fine step).
    pub max_pp_steps: u8,
    /// Hidden cells per hidden page (code bits, including ECC).
    pub hidden_bits_per_page: usize,
    /// Physical pages left between consecutive hidden pages (paper settles
    /// on 1 after measuring public-BER interference, §6.3).
    pub page_interval: u32,
    /// Use the controller-grade fine partial program (vendor support,
    /// §6.2/§8 "Improved Capacity") instead of iterated coarse PP.
    pub use_fine_pp: bool,
    /// Error correction for the hidden payload.
    pub ecc: EccChoice,
}

impl VthiConfig {
    /// The paper's default configuration (§6.3/§7): threshold 34, ten PP
    /// steps, 256 hidden bits per page, one page interval. BCH t=4 absorbs
    /// the ~0.5–1.3% raw hidden BER.
    pub fn paper_default() -> Self {
        VthiConfig {
            vth: 34,
            max_pp_steps: 10,
            hidden_bits_per_page: 256,
            page_interval: 1,
            use_fine_pp: false,
            ecc: EccChoice::Bch { t: 4, segment_bits: 0 },
        }
    }

    /// The enhanced configuration of §8 "Improved Capacity": vendor-support
    /// fine programming, one PP step, threshold level 15, 10× the hidden
    /// bits. Raw BER rises to ≈2%, so each 512-bit BCH segment corrects 12
    /// errors (≈21% overhead; the paper's 14% figure is the Shannon bound
    /// for 2% BER).
    pub fn enhanced() -> Self {
        VthiConfig {
            vth: 15,
            max_pp_steps: 1,
            hidden_bits_per_page: 2560,
            page_interval: 1,
            use_fine_pp: true,
            ecc: EccChoice::Bch { t: 12, segment_bits: 512 },
        }
    }

    /// The paper's configuration re-scaled to a smaller simulated geometry:
    /// keeps the hidden-cell *density* (256 per 144 384-cell page) so
    /// detectability statistics carry over.
    pub fn scaled_for(geometry: &Geometry) -> Self {
        let mut cfg = VthiConfig::paper_default();
        let cells = geometry.cells_per_page();
        let scaled = (cells * 256 + 144_384 / 2) / 144_384;
        cfg.hidden_bits_per_page = scaled.max(32);
        if cfg.hidden_bits_per_page < 256 {
            // Small budgets need a lighter code to keep a useful data rate.
            cfg.ecc = EccChoice::Bch { t: 2, segment_bits: 0 };
        }
        cfg
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`HideError::InvalidConfig`] describing the first problem.
    pub fn validate(&self) -> crate::Result<()> {
        self.validated_codec().map(drop)
    }

    /// [`validate`](Self::validate), keeping the payload codec the check
    /// builds: a [`Hider`](crate::Hider) derives its code here once.
    pub(crate) fn validated_codec(&self) -> crate::Result<PayloadCodec> {
        if self.hidden_bits_per_page == 0 {
            return Err(HideError::InvalidConfig("hidden_bits_per_page is zero".into()));
        }
        if self.max_pp_steps == 0 {
            return Err(HideError::InvalidConfig("max_pp_steps is zero".into()));
        }
        if self.vth >= stash_flash::SLC_READ_REF {
            return Err(HideError::InvalidConfig(format!(
                "vth {} must sit below the SLC read reference",
                self.vth
            )));
        }
        PayloadCodec::new(self)
    }

    /// Code bits per ECC segment.
    pub fn segment_bits(&self) -> usize {
        match self.ecc {
            EccChoice::None | EccChoice::Bch { segment_bits: 0, .. } => self.hidden_bits_per_page,
            EccChoice::Bch { segment_bits, .. } => segment_bits.min(self.hidden_bits_per_page),
        }
    }

    /// Number of ECC segments per page (the last may be truncated away; only
    /// whole segments are used).
    pub fn segments_per_page(&self) -> usize {
        (self.hidden_bits_per_page / self.segment_bits()).max(1)
    }

    /// Upper bound on correctable bit errors per page under this
    /// configuration: `t` errors per BCH segment times whole segments, and
    /// 0 in raw mode. The health monitor compares observed per-slot
    /// corrections against this ceiling to compute the live BER margin.
    pub fn correctable_bits_per_page(&self) -> usize {
        match self.ecc {
            EccChoice::None => 0,
            EccChoice::Bch { t, .. } => t * self.segments_per_page(),
        }
    }

    /// Builds the per-page code, or `None` for raw mode.
    ///
    /// # Errors
    ///
    /// Returns [`HideError::InvalidConfig`] when the parity cannot fit the
    /// segment or a supported field cannot host it.
    pub fn segment_code(&self) -> crate::Result<Option<PageCode>> {
        let EccChoice::Bch { t, .. } = self.ecc else {
            return Ok(None);
        };
        let n = self.segment_bits();
        let m = (5..=13u32).find(|&m| (1usize << m) > n).ok_or_else(|| {
            HideError::InvalidConfig(format!("segment of {n} bits exceeds GF(2^13)"))
        })?;
        let code = Bch::new(m, t, n).ok_or_else(|| {
            HideError::InvalidConfig(format!(
                "BCH t={t} over GF(2^{m}) leaves no data bits in a {n}-bit segment"
            ))
        })?;
        Ok(Some(PageCode { code, segments: self.segments_per_page() }))
    }

    /// This configuration's payload codec.
    ///
    /// # Panics
    ///
    /// Panics on an ECC choice [`segment_code`](Self::segment_code)
    /// rejects; validated flows never reach the panic.
    fn codec(&self) -> PayloadCodec {
        PayloadCodec::new(self).expect("invalid ECC configuration")
    }

    /// Usable data bits per hidden page after ECC.
    pub fn data_bits_per_page(&self) -> usize {
        self.codec().data_bits()
    }

    /// Hidden cells actually used per page (whole segments only).
    pub fn used_bits_per_page(&self) -> usize {
        self.codec().used_bits()
    }

    /// Whole bytes of payload stored per hidden page.
    pub fn payload_bytes_per_page(&self) -> usize {
        self.codec().payload_bytes()
    }

    /// Stride between consecutive hidden pages.
    pub fn page_stride(&self) -> u32 {
        self.page_interval + 1
    }

    /// Hidden pages available in one block under the configured interval.
    pub fn hidden_pages_per_block(&self, geometry: &Geometry) -> u32 {
        geometry.pages_per_block.div_ceil(self.page_stride())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_shapes() {
        let c = VthiConfig::paper_default();
        c.validate().unwrap();
        assert_eq!(c.vth, 34);
        assert_eq!(c.max_pp_steps, 10);
        assert_eq!(c.hidden_bits_per_page, 256);
        // BCH over GF(2^9), t=4: 36 parity bits -> 220 data bits.
        assert_eq!(c.data_bits_per_page(), 220);
        assert_eq!(c.payload_bytes_per_page(), 27);
        assert_eq!(c.page_stride(), 2);
    }

    #[test]
    fn correctable_bits_track_the_code() {
        // paper_default: BCH t=4, one 256-bit segment per page.
        assert_eq!(VthiConfig::paper_default().correctable_bits_per_page(), 4);
        // enhanced: BCH t=12 over five 512-bit segments.
        assert_eq!(VthiConfig::enhanced().correctable_bits_per_page(), 60);
        let mut raw = VthiConfig::paper_default();
        raw.ecc = EccChoice::None;
        assert_eq!(raw.correctable_bits_per_page(), 0);
    }

    #[test]
    fn enhanced_is_roughly_9x_default() {
        let d = VthiConfig::paper_default();
        let e = VthiConfig::enhanced();
        e.validate().unwrap();
        let ratio = e.data_bits_per_page() as f64 / d.data_bits_per_page() as f64;
        assert!((8.0..10.5).contains(&ratio), "capacity ratio {ratio}");
        assert!(e.use_fine_pp);
        assert_eq!(e.segments_per_page(), 5);
    }

    #[test]
    fn scaled_config_keeps_density() {
        let g = Geometry::scaled_svm();
        let c = VthiConfig::scaled_for(&g);
        c.validate().unwrap();
        let density = c.hidden_bits_per_page as f64 / g.cells_per_page() as f64;
        let paper_density = 256.0 / 144_384.0;
        assert!((density / paper_density - 1.0).abs() < 0.35, "density {density}");
    }

    #[test]
    fn validation_catches_nonsense() {
        let mut c = VthiConfig::paper_default();
        c.hidden_bits_per_page = 0;
        assert!(matches!(c.validate(), Err(HideError::InvalidConfig(_))));
        let mut c = VthiConfig::paper_default();
        c.vth = 200;
        assert!(c.validate().is_err());
        let mut c = VthiConfig::paper_default();
        c.max_pp_steps = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn raw_mode_has_no_overhead() {
        let mut c = VthiConfig::paper_default();
        c.ecc = EccChoice::None;
        assert_eq!(c.data_bits_per_page(), 256);
        assert!(c.segment_code().unwrap().is_none());
    }

    #[test]
    fn hidden_pages_per_block_respects_interval() {
        let g = Geometry::tiny(); // 8 pages per block
        let mut c = VthiConfig::paper_default();
        c.page_interval = 1;
        assert_eq!(c.hidden_pages_per_block(&g), 4);
        c.page_interval = 0;
        assert_eq!(c.hidden_pages_per_block(&g), 8);
        c.page_interval = 3;
        assert_eq!(c.hidden_pages_per_block(&g), 2);
    }
}
