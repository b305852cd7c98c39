//! The VT-HI encoder/decoder (paper Algorithm 1 and §5.3).

use crate::config::VthiConfig;
use crate::error::HideError;
use crate::payload::PayloadCodec;
use crate::recovery::{offset_level, RetryPolicy};
use crate::select::{page_stream_id, select_hidden_cells, SelectionMode};
use stash_crypto::HidingKey;
use stash_flash::{BitErrorStats, BitPattern, BlockId, Chip, Level, NandDevice, PageId};
use stash_obs::{span, Tracer};
use std::sync::Arc;

/// Outcome of hiding a payload in one page.
#[derive(Debug, Clone)]
pub struct PageEncodeReport {
    /// Page that was encoded.
    pub page: PageId,
    /// Partial-program steps actually issued.
    pub pp_steps: u8,
    /// Hidden-`0` cells that never crossed `Vth` (left for ECC to absorb).
    pub stragglers: usize,
    /// Hidden BER measured right after each PP step, when tracking was
    /// requested (drives the paper's Fig. 6).
    pub step_ber: Vec<BitErrorStats>,
    /// The exact cell bits stored (post-encryption, post-ECC), kept so
    /// experiments can measure raw BER on later reads.
    pub stored_bits: Vec<bool>,
    /// Absolute cell offsets carrying those bits.
    pub cells: Vec<usize>,
}

/// The hiding user's handle on a device: owns the key and configuration and
/// exposes hide/reveal operations (paper Fig. 4's "hiding encoder/decoder").
///
/// Generic over the [`NandDevice`] backend, defaulting to a bare [`Chip`];
/// wrap the chip in middleware (`FaultDevice`, `TraceDevice`, …) to add
/// fault injection or tracing underneath the hider.
#[derive(Debug)]
pub struct Hider<'c, D: NandDevice = Chip> {
    chip: &'c mut D,
    key: HidingKey,
    cfg: VthiConfig,
    /// `cfg`'s payload codec, built once in [`new`](Self::new); an invalid
    /// `cfg` is held as its error and returned by every hide and reveal.
    codec: crate::Result<PayloadCodec>,
    mode: SelectionMode,
    retry: RetryPolicy,
    tracer: Option<Arc<Tracer>>,
    /// Reusable buffer for verify/BER reads: the PP loop reads the same
    /// page dozens of times, so steady-state encode allocates nothing.
    read_scratch: BitPattern,
    /// Reusable PP-mask buffer, same lifecycle as `read_scratch`.
    mask_scratch: BitPattern,
}

impl<'c, D: NandDevice> Hider<'c, D> {
    /// Creates a hider, validating `cfg` and building its payload code
    /// once. An invalid `cfg` does not panic: every hide and reveal returns
    /// its [`HideError::InvalidConfig`] instead.
    pub fn new(chip: &'c mut D, key: HidingKey, cfg: VthiConfig) -> Self {
        Hider {
            chip,
            key,
            codec: cfg.validated_codec(),
            cfg,
            mode: SelectionMode::OnesIndexed,
            retry: RetryPolicy::none(),
            tracer: None,
            read_scratch: BitPattern::zeros(0),
            mask_scratch: BitPattern::zeros(0),
        }
    }

    /// Attaches a tracer: encode/decode phases open spans on it and feed
    /// the PP-step and retry histograms. `None` (the default) keeps every
    /// instrumentation point a no-op. The tracer is *not* installed as the
    /// device's recorder here — callers that want device ops attributed
    /// should also `device.install_recorder(Some(tracer))` (the FTL and
    /// hidden-volume layers do this in their `attach_tracer`).
    pub fn with_tracer(mut self, tracer: Option<Arc<Tracer>>) -> Self {
        self.tracer = tracer;
        self
    }

    /// Switches the cell-selection strategy (see [`SelectionMode`]).
    pub fn with_selection_mode(mut self, mode: SelectionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Installs a fault-recovery policy (default: [`RetryPolicy::none`],
    /// which keeps behavior bit-identical to a policy-free hider).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Runs one flash operation under the retry policy: transient failures
    /// are retried up to `max_retries` times with exponential backoff
    /// charged to simulated time.
    fn with_retries<T>(
        &mut self,
        mut op: impl FnMut(&mut D) -> stash_flash::Result<T>,
    ) -> crate::Result<T> {
        let mut attempt = 0u32;
        let result = loop {
            match op(self.chip) {
                Ok(v) => break Ok(v),
                Err(e) if RetryPolicy::is_transient(&e) && attempt < self.retry.max_retries => {
                    let _backoff = span!(self.tracer, "retry_backoff", "attempt={attempt}");
                    self.chip.advance_time_us(self.retry.backoff_us(attempt));
                    attempt += 1;
                }
                Err(e) => break Err(e.into()),
            }
        };
        if attempt > 0 {
            if let Some(t) = &self.tracer {
                t.observe("retries_per_op", "", u64::from(attempt));
                t.counter_add("transient_retries", "", u64::from(attempt));
            }
        }
        result
    }

    /// The configuration in use.
    pub fn config(&self) -> &VthiConfig {
        &self.cfg
    }

    /// The payload codec, or the error that rejected the configuration.
    fn codec(&self) -> crate::Result<&PayloadCodec> {
        self.codec.as_ref().map_err(Clone::clone)
    }

    /// Shared access to the underlying device.
    pub fn chip(&self) -> &D {
        self.chip
    }

    /// Exclusive access to the underlying device (e.g. for erases and reads
    /// around hiding operations).
    pub fn chip_mut(&mut self) -> &mut D {
        self.chip
    }

    /// Programs `public` to a freshly erased page and hides `payload` in it
    /// (Algorithm 1 end-to-end: program public data, select cells, encrypt +
    /// ECC, iterate partial programming).
    ///
    /// # Errors
    ///
    /// Fails on flash errors, undersized pages, or payload size mismatch.
    pub fn hide_on_fresh_page(
        &mut self,
        page: PageId,
        public: &BitPattern,
        payload: &[u8],
    ) -> crate::Result<PageEncodeReport> {
        // Validate before the public program so a bad payload leaves the
        // page untouched.
        let expected = self.codec()?.payload_bytes();
        if payload.len() != expected {
            return Err(HideError::PayloadLength { expected, got: payload.len() });
        }
        self.with_retries(|chip| chip.program_page(page, public))?;
        self.hide_in_programmed_page(page, public, payload, false)
    }

    /// Hides `payload` in a page that already holds `public`.
    /// `track_steps` additionally measures hidden BER after every PP step
    /// (one extra shifted read per step at the end of the loop).
    ///
    /// # Errors
    ///
    /// Fails on flash errors, undersized pages, or payload size mismatch.
    pub fn hide_in_programmed_page(
        &mut self,
        page: PageId,
        public: &BitPattern,
        payload: &[u8],
        track_steps: bool,
    ) -> crate::Result<PageEncodeReport> {
        let codec = self.codec()?;
        let _encode = span!(self.tracer, "encode_page", "page={page}");
        let geometry = *self.chip.geometry();
        let cpp = geometry.cells_per_page();
        let stream = page_stream_id(&geometry, page);

        let cells = self.select_cells(page, public, codec.used_bits())?;
        let stored_bits = codec.encode(&self.key, stream, payload)?;
        debug_assert_eq!(stored_bits.len(), cells.len());

        // Cells destined to hold hidden '0' must be pushed above Vth.
        let zero_cells: Vec<usize> =
            cells.iter().zip(&stored_bits).filter_map(|(&c, &bit)| (!bit).then_some(c)).collect();

        let mut report = PageEncodeReport {
            page,
            pp_steps: 0,
            stragglers: 0,
            step_ber: Vec::new(),
            stored_bits,
            cells,
        };

        // The PP mask lives outside `self` for the duration of the loop so
        // `with_retries` (which borrows the whole hider) can run while the
        // mask is borrowed; it returns to the scratch slot on the way out.
        let mut mask = std::mem::replace(&mut self.mask_scratch, BitPattern::zeros(0));

        if self.cfg.use_fine_pp {
            // Vendor-support path (§6.2): one controller-grade fine step.
            mask.reset_zeros(cpp);
            for &c in &zero_cells {
                mask.set(c, true);
            }
            let vth = self.cfg.vth;
            {
                let _pp = span!(self.tracer, "pp_step", "fine");
                self.with_retries(|chip| chip.fine_partial_program(page, &mask, vth))?;
            }
            self.mask_scratch = mask;
            report.pp_steps = 1;
            if track_steps {
                let ber = self.measure_raw_ber(page, &report)?;
                report.step_ber.push(ber);
            }
            self.note_encode_metrics(&report);
            return Ok(report);
        }

        // Algorithm 1 main loop: read voltage levels, partially program all
        // hidden '0' cells still below Vth, repeat.
        let mut below: Vec<usize> = zero_cells;
        for _ in 0..self.cfg.max_pp_steps {
            {
                let _verify = span!(self.tracer, "verify_read");
                self.chip.read_page_shifted_into(page, self.cfg.vth, &mut self.read_scratch)?;
            }
            let shifted = &self.read_scratch;
            below.retain(|&c| shifted.get(c)); // bit 1 ⇒ still below Vth
            if below.is_empty() && !track_steps {
                break;
            }
            if !below.is_empty() {
                mask.reset_zeros(cpp);
                for &c in &below {
                    mask.set(c, true);
                }
                let _pp = span!(self.tracer, "pp_step", "below={}", below.len());
                self.with_retries(|chip| chip.partial_program(page, &mask))?;
                report.pp_steps += 1;
            }
            if track_steps {
                let ber = self.measure_raw_ber(page, &report)?;
                report.step_ber.push(ber);
                if below.is_empty() {
                    break;
                }
            }
        }
        self.mask_scratch = mask;
        // Final accounting read for stragglers.
        {
            let _verify = span!(self.tracer, "verify_read");
            self.chip.read_page_shifted_into(page, self.cfg.vth, &mut self.read_scratch)?;
        }
        let shifted = &self.read_scratch;
        report.stragglers = report
            .cells
            .iter()
            .zip(&report.stored_bits)
            .filter(|&(&c, &bit)| !bit && shifted.get(c))
            .count();
        self.note_encode_metrics(&report);
        Ok(report)
    }

    /// Feeds one finished page encode into the tracer's metrics.
    fn note_encode_metrics(&self, report: &PageEncodeReport) {
        if let Some(t) = &self.tracer {
            t.observe("pp_steps_per_page", "", u64::from(report.pp_steps));
            t.counter_add("pages_encoded", "", 1);
            if report.stragglers > 0 {
                t.counter_add("stragglers", "", report.stragglers as u64);
            }
        }
    }

    /// Recovers the hidden payload from one page with a single shifted read
    /// (plus a standard read for the public pattern when the caller does not
    /// supply it).
    ///
    /// # Errors
    ///
    /// Fails on flash errors or unrecoverable ECC corruption.
    pub fn reveal_page(
        &mut self,
        page: PageId,
        public: Option<&BitPattern>,
    ) -> crate::Result<Vec<u8>> {
        if self.retry.vth_sweep.is_empty() {
            let _decode = span!(self.tracer, "decode_page", "page={page}");
            let geometry = *self.chip.geometry();
            let stream = page_stream_id(&geometry, page);
            let bits = self.read_hidden_bits(page, public)?;
            return self.codec()?.decode(&self.key, stream, &bits);
        }
        self.reveal_page_recovered(page, public).map(|(payload, _)| payload)
    }

    /// Recovers a page's hidden payload under the retry policy's read
    /// sweep, also reporting how many stored bits the winning read got
    /// wrong (the ECC correction count — a health signal scrubbers use to
    /// decide when data needs a refresh).
    ///
    /// The decode first runs at the configured `Vth`. If it fails, or
    /// succeeds only by correcting more bits than the policy's
    /// `ecc_watermark`, the page is re-read at each sweep offset and the
    /// cleanest successful decode wins.
    ///
    /// # Errors
    ///
    /// Fails on flash errors, or with the original decode error when no
    /// sweep offset recovers the payload either.
    pub fn reveal_page_recovered(
        &mut self,
        page: PageId,
        public: Option<&BitPattern>,
    ) -> crate::Result<(Vec<u8>, usize)> {
        let _decode = span!(self.tracer, "decode_page", "page={page}");
        let geometry = *self.chip.geometry();
        let stream = page_stream_id(&geometry, page);

        let mut best: Option<(Vec<u8>, usize)> = None;
        let mut first_err: Option<HideError> = None;
        let mut consider = |this: &mut Self, vref: Level| -> crate::Result<bool> {
            let bits = this.read_hidden_bits_at(page, public, vref)?;
            match this.codec()?.decode(&this.key, stream, &bits) {
                Ok(payload) => {
                    let corrected = this.corrected_bits(stream, &payload, &bits)?;
                    let done = match this.retry.ecc_watermark {
                        Some(w) => corrected <= w,
                        None => true,
                    };
                    let improves = match &best {
                        Some((_, c)) => corrected < *c,
                        None => true,
                    };
                    if improves {
                        best = Some((payload, corrected));
                    }
                    Ok(done)
                }
                Err(e @ HideError::Unrecoverable { .. }) => {
                    first_err.get_or_insert(e);
                    Ok(false)
                }
                Err(e) => Err(e),
            }
        };

        let vth = self.cfg.vth;
        if !consider(self, vth)? {
            let sweep = self.retry.vth_sweep.clone();
            let mut sweeps = 0u64;
            for off in sweep {
                let _sweep = span!(self.tracer, "vth_sweep", "offset={off}");
                sweeps += 1;
                if consider(self, offset_level(vth, off))? {
                    break;
                }
            }
            if let Some(t) = &self.tracer {
                t.observe("sweep_reads_per_recovery", "", sweeps);
                t.counter_add("recovery_sweeps", "", 1);
            }
        }
        match best {
            Some(win) => Ok(win),
            None => Err(first_err.unwrap_or(HideError::Unrecoverable { detected_errors: 0 })),
        }
    }

    /// Counts how many of a page's read cell bits disagree with what the
    /// decoded payload re-encodes to — the number of bits the ECC corrected.
    fn corrected_bits(
        &self,
        stream: u64,
        payload: &[u8],
        read_bits: &[bool],
    ) -> crate::Result<usize> {
        let expected = self.codec()?.encode(&self.key, stream, payload)?;
        Ok(expected.iter().zip(read_bits).filter(|(a, b)| a != b).count())
    }

    /// Reads the raw hidden cell bits of a page (no ECC/decryption) — the
    /// primitive behind every BER experiment.
    ///
    /// # Errors
    ///
    /// Fails on flash errors or when the page's public pattern cannot carry
    /// the configured hidden bits.
    pub fn read_hidden_bits(
        &mut self,
        page: PageId,
        public: Option<&BitPattern>,
    ) -> crate::Result<Vec<bool>> {
        let vth = self.cfg.vth;
        self.read_hidden_bits_at(page, public, vth)
    }

    /// [`read_hidden_bits`](Self::read_hidden_bits) at an explicit read
    /// reference (the recovery sweep reads at `Vth + offset`).
    fn read_hidden_bits_at(
        &mut self,
        page: PageId,
        public: Option<&BitPattern>,
        vref: Level,
    ) -> crate::Result<Vec<bool>> {
        let needed = self.codec()?.used_bits();
        let (cells, shifted) = match public {
            Some(public) => {
                // The single decode read (paper: "Decoding hidden data ...
                // requires only a single read operation following a voltage
                // reference shift command").
                let shifted = self.chip.read_page_shifted(page, vref)?;
                (self.select_cells(page, public, needed)?, shifted)
            }
            None => {
                let public = self.chip.read_page(page)?;
                let shifted = self.chip.read_page_shifted(page, vref)?;
                (self.select_cells(page, &public, needed)?, shifted)
            }
        };
        Ok(cells.iter().map(|&c| shifted.get(c)).collect())
    }

    /// The `needed` hidden cells of a page, re-derived from its public
    /// pattern by the keyed selection.
    fn select_cells(
        &self,
        page: PageId,
        public: &BitPattern,
        needed: usize,
    ) -> crate::Result<Vec<usize>> {
        let geometry = *self.chip.geometry();
        select_hidden_cells(&self.key, &geometry, page, public, needed, self.mode)
            .ok_or_else(|| HideError::InsufficientOnes { needed, available: public.count_ones() })
    }

    /// Measures the raw hidden BER of a page against what an encode stored.
    ///
    /// # Errors
    ///
    /// Fails on flash errors.
    pub fn measure_raw_ber(
        &mut self,
        page: PageId,
        report: &PageEncodeReport,
    ) -> crate::Result<BitErrorStats> {
        let _probe = span!(self.tracer, "ber_probe");
        self.chip.read_page_shifted_into(page, self.cfg.vth, &mut self.read_scratch)?;
        let shifted = &self.read_scratch;
        let mut errors = 0u64;
        for (&c, &bit) in report.cells.iter().zip(&report.stored_bits) {
            if shifted.get(c) != bit {
                errors += 1;
            }
        }
        Ok(BitErrorStats::from_counts(errors, report.cells.len() as u64))
    }

    /// Refreshes a page's hidden data (paper §8: "Re-writing (refreshing)
    /// hidden data every several months, even only after the device reaches
    /// 1K PEC, can also significantly improve retention"): decodes the
    /// payload while the ECC still can and re-runs the partial-programming
    /// pass so every hidden `0` again sits comfortably above `Vth`. Voltage
    /// only rises, so no erase is needed and public data is untouched.
    ///
    /// # Errors
    ///
    /// Fails if the payload is already unrecoverable or flash errors occur.
    pub fn refresh_page(
        &mut self,
        page: PageId,
        public: Option<&BitPattern>,
    ) -> crate::Result<PageEncodeReport> {
        let _refresh = span!(self.tracer, "refresh_page", "page={page}");
        let geometry = *self.chip.geometry();
        let stream = page_stream_id(&geometry, page);
        let bits = self.read_hidden_bits(page, public)?;
        let payload = self.codec()?.decode(&self.key, stream, &bits)?;

        let public = match public {
            Some(p) => p.clone(),
            None => self.chip.read_page(page)?,
        };
        self.hide_in_programmed_page(page, &public, &payload, false)
    }

    /// Deniable destruction: erasing the block de-charges every cell, taking
    /// the hidden payload with it — "erasing hidden data (e.g., when in fear
    /// of device confiscation) is almost instantaneous" (§1). Costs one
    /// erase operation (5 ms on the paper's chip).
    ///
    /// # Errors
    ///
    /// Fails on flash errors.
    pub fn destroy_block(&mut self, block: BlockId) -> crate::Result<()> {
        self.chip.erase_block(block)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use stash_flash::ChipProfile;

    fn chip() -> Chip {
        Chip::new(ChipProfile::vendor_a_scaled(), 77)
    }

    fn key() -> HidingKey {
        HidingKey::new([0x21; 32])
    }

    fn cfg(chip: &Chip) -> VthiConfig {
        VthiConfig::scaled_for(chip.geometry())
    }

    fn random_public(chip: &Chip, seed: u64) -> BitPattern {
        BitPattern::random_half(
            &mut SmallRng::seed_from_u64(seed),
            chip.geometry().cells_per_page(),
        )
    }

    #[test]
    fn hide_and_reveal_roundtrip() {
        let mut c = chip();
        let cfg = cfg(&c);
        let payload: Vec<u8> = (0..cfg.payload_bytes_per_page() as u8).collect();
        let public = random_public(&c, 1);
        let mut h = Hider::new(&mut c, key(), cfg);
        h.chip_mut().erase_block(BlockId(0)).unwrap();
        let page = PageId::new(BlockId(0), 0);
        let rep = h.hide_on_fresh_page(page, &public, &payload).unwrap();
        assert!(rep.pp_steps >= 1);
        assert_eq!(h.reveal_page(page, Some(&public)).unwrap(), payload);
        // Decoding without the known public pattern also works (public read
        // is essentially error-free at low wear).
        assert_eq!(h.reveal_page(page, None).unwrap(), payload);
    }

    #[test]
    fn public_data_unharmed_by_hiding() {
        let mut c = chip();
        let cfg = cfg(&c);
        let payload = vec![0xFFu8; cfg.payload_bytes_per_page()];
        let public = random_public(&c, 2);
        let mut h = Hider::new(&mut c, key(), cfg);
        h.chip_mut().erase_block(BlockId(0)).unwrap();
        let page = PageId::new(BlockId(0), 0);
        h.hide_on_fresh_page(page, &public, &payload).unwrap();
        let read = h.chip_mut().read_page(page).unwrap();
        let errs = read.hamming_distance(&public);
        assert!(
            errs <= public.len() / 2000,
            "public data corrupted: {errs} errors in {} bits",
            public.len()
        );
    }

    #[test]
    fn wrong_key_cannot_recover() {
        let mut c = chip();
        let cfg = cfg(&c);
        let payload = vec![0xABu8; cfg.payload_bytes_per_page()];
        let public = random_public(&c, 3);
        let page = PageId::new(BlockId(0), 0);
        {
            let mut h = Hider::new(&mut c, key(), cfg.clone());
            h.chip_mut().erase_block(BlockId(0)).unwrap();
            h.hide_on_fresh_page(page, &public, &payload).unwrap();
        }
        let wrong = HidingKey::new([0x22; 32]);
        let mut h2 = Hider::new(&mut c, wrong, cfg);
        // An ECC failure is equally acceptable here — only a clean decode of
        // the true payload under the wrong key would be a break.
        if let Ok(got) = h2.reveal_page(page, Some(&public)) {
            assert_ne!(got, payload, "wrong key must not reveal the secret");
        }
    }

    #[test]
    fn erase_destroys_hidden_data() {
        let mut c = chip();
        let cfg = cfg(&c);
        let payload = vec![0x77u8; cfg.payload_bytes_per_page()];
        let public = random_public(&c, 4);
        let page = PageId::new(BlockId(0), 0);
        let mut h = Hider::new(&mut c, key(), cfg);
        h.chip_mut().erase_block(BlockId(0)).unwrap();
        h.hide_on_fresh_page(page, &public, &payload).unwrap();
        h.destroy_block(BlockId(0)).unwrap();
        if let Ok(got) = h.reveal_page(page, Some(&public)) {
            assert_ne!(got, payload);
        }
    }

    #[test]
    fn raw_ber_is_within_paper_band() {
        // Paper §8: hidden BER ~0.5%–1.3% at the default configuration.
        let mut c = chip();
        let cfg = cfg(&c);
        let mut h = Hider::new(&mut c, key(), cfg.clone());
        h.chip_mut().erase_block(BlockId(0)).unwrap();
        let cpp = h.chip().geometry().cells_per_page();
        let pages = h.chip().geometry().pages_per_block;
        let mut rng = SmallRng::seed_from_u64(5);
        // Fill the non-hidden pages first: a block full of public data is
        // what creates the natural above-threshold population whose
        // hidden-'1' collisions dominate the raw BER.
        for p in 0..pages {
            if p % cfg.page_stride() != 0 {
                let filler = BitPattern::random_half(&mut rng, cpp);
                h.chip_mut().program_page(PageId::new(BlockId(0), p), &filler).unwrap();
            }
        }
        let mut total = stash_flash::BitErrorStats::default();
        for p in 0..8u32 {
            let page = PageId::new(BlockId(0), p * cfg.page_stride());
            let public = BitPattern::random_half(&mut rng, cpp);
            let payload: Vec<u8> = (0..cfg.payload_bytes_per_page()).map(|_| rng.gen()).collect();
            let rep = h.hide_on_fresh_page(page, &public, &payload).unwrap();
            total.absorb(h.measure_raw_ber(page, &rep).unwrap());
        }
        let ber = total.ber();
        // Low, but not zero-forced: with only ~hundreds of hidden bits the
        // natural-collision count can legitimately be 0. The tight band
        // check lives in the fig7 harness, which samples millions of cells.
        assert!(ber < 0.035, "raw hidden BER {ber:.4}");
    }

    #[test]
    fn step_tracking_shows_convergence() {
        // Fig. 6 shape: BER decreasing (roughly) monotonically with steps.
        let mut c = chip();
        let cfg = cfg(&c);
        let mut h = Hider::new(&mut c, key(), cfg.clone());
        h.chip_mut().erase_block(BlockId(0)).unwrap();
        let page = PageId::new(BlockId(0), 0);
        let public = random_public(&c_seedless(&h), 6);
        h.chip_mut().program_page(page, &public).unwrap();
        let payload = vec![0x10u8; cfg.payload_bytes_per_page()];
        let rep = h.hide_in_programmed_page(page, &public, &payload, true).unwrap();
        assert!(!rep.step_ber.is_empty());
        let first = rep.step_ber.first().unwrap().ber();
        let last = rep.step_ber.last().unwrap().ber();
        assert!(last <= first, "BER should not grow with steps: {first} -> {last}");
        assert!(last < 0.05, "converged BER {last}");
    }

    // Helper: the public pattern must not depend on hider RNG state.
    fn c_seedless(h: &Hider<'_>) -> Chip {
        Chip::new(h.chip().profile().clone(), h.chip().seed())
    }

    #[test]
    fn insufficient_ones_is_reported() {
        let mut c = chip();
        let cfg = cfg(&c);
        // A nearly all-programmed public pattern starves the selector.
        let mut public = BitPattern::zeros(c.geometry().cells_per_page());
        for i in 0..8 {
            public.set(i, true);
        }
        let payload = vec![0u8; cfg.payload_bytes_per_page()];
        let mut h = Hider::new(&mut c, key(), cfg);
        h.chip_mut().erase_block(BlockId(0)).unwrap();
        let err = h.hide_on_fresh_page(PageId::new(BlockId(0), 0), &public, &payload).unwrap_err();
        assert!(matches!(err, HideError::InsufficientOnes { .. }));
    }

    #[test]
    fn decode_costs_single_shifted_read() {
        let mut c = chip();
        let cfg = cfg(&c);
        let payload = vec![9u8; cfg.payload_bytes_per_page()];
        let public = random_public(&c, 8);
        let page = PageId::new(BlockId(0), 0);
        let mut h = Hider::new(&mut c, key(), cfg);
        h.chip_mut().erase_block(BlockId(0)).unwrap();
        h.hide_on_fresh_page(page, &public, &payload).unwrap();
        h.chip_mut().reset_meter();
        let _ = h.reveal_page(page, Some(&public)).unwrap();
        let m = h.chip().meter();
        assert_eq!(m.count(stash_flash::OpKind::Read), 1, "decode must be one read");
        assert_eq!(m.total_ops(), 1);
    }

    #[test]
    fn enhanced_config_roundtrip_on_chip() {
        let mut c = chip();
        let mut cfg = VthiConfig::enhanced();
        // Scale the enhanced density to the scaled geometry (10x default).
        cfg.hidden_bits_per_page = 320;
        cfg.ecc = crate::config::EccChoice::Bch { t: 12, segment_bits: 320 };
        cfg.validate().unwrap();
        let payload: Vec<u8> = (0..cfg.payload_bytes_per_page() as u8).collect();
        let public = random_public(&c, 9);
        let page = PageId::new(BlockId(2), 0);
        let mut h = Hider::new(&mut c, key(), cfg);
        h.chip_mut().erase_block(BlockId(2)).unwrap();
        let rep = h.hide_on_fresh_page(page, &public, &payload).unwrap();
        assert_eq!(rep.pp_steps, 1, "enhanced mode uses a single fine step");
        assert_eq!(h.reveal_page(page, Some(&public)).unwrap(), payload);
    }

    #[test]
    fn refresh_restores_retention_margin() {
        // Two identically hidden pages on a worn block; after aging, one is
        // refreshed. Aging further, the refreshed page must carry fewer raw
        // errors than the untouched control (paper §8's refresh advice).
        let mut c = chip();
        let mut cfg = cfg(&c);
        // Refresh is an ECC-assisted operation: give it the margin the
        // paper assumes (stronger code than the minimal scaled default).
        cfg.hidden_bits_per_page = 64;
        cfg.ecc = crate::config::EccChoice::Bch { t: 4, segment_bits: 0 };
        let mut rng = SmallRng::seed_from_u64(31);
        c.cycle_block(BlockId(0), 1500).unwrap();
        c.erase_block(BlockId(0)).unwrap();
        let cpp = c.geometry().cells_per_page();
        let mut h = Hider::new(&mut c, key(), cfg.clone());
        let mut pages = Vec::new();
        for i in 0..8u32 {
            let page = PageId::new(BlockId(0), i * cfg.page_stride());
            let public = BitPattern::random_half(&mut rng, cpp);
            let payload: Vec<u8> = (0..cfg.payload_bytes_per_page()).map(|_| rng.gen()).collect();
            let rep = h.hide_on_fresh_page(page, &public, &payload).unwrap();
            pages.push((page, public, rep));
        }

        h.chip_mut().age_days(60.0);
        // Refresh the even pages; odd pages are the aging control.
        let mut refreshed_reps = Vec::new();
        for (i, (page, public, _)) in pages.iter().enumerate() {
            if i % 2 == 0 {
                let rep = h.refresh_page(*page, Some(public)).unwrap();
                refreshed_reps.push((i, rep));
            }
        }
        h.chip_mut().age_days(120.0);

        let mut refreshed = stash_flash::BitErrorStats::default();
        let mut control = stash_flash::BitErrorStats::default();
        for (i, (page, _public, rep)) in pages.iter().enumerate() {
            if i % 2 == 0 {
                let rep = &refreshed_reps.iter().find(|(j, _)| *j == i).unwrap().1;
                refreshed.absorb(h.measure_raw_ber(*page, rep).unwrap());
            } else {
                control.absorb(h.measure_raw_ber(*page, rep).unwrap());
            }
        }
        assert!(
            refreshed.errors < control.errors,
            "refresh must reduce decay errors: refreshed {refreshed} vs control {control}"
        );
    }

    #[test]
    fn retry_policy_rides_out_transient_program_faults() {
        // One in four programs and PP steps fails transiently.
        let mut c = stash_flash::FaultDevice::with_plan(
            chip(),
            stash_flash::FaultPlan::new(8).with_program_fail(0.25).with_partial_program_fail(0.25),
        );
        let cfg = cfg(c.inner());
        let payload: Vec<u8> = (0..cfg.payload_bytes_per_page() as u8).collect();
        let public = random_public(c.inner(), 13);
        let page = PageId::new(BlockId(0), 0);
        let mut h = Hider::new(&mut c, key(), cfg).with_retry_policy(RetryPolicy::standard());
        h.chip_mut().erase_block(BlockId(0)).unwrap();
        h.hide_on_fresh_page(page, &public, &payload).unwrap();
        assert_eq!(h.reveal_page(page, Some(&public)).unwrap(), payload);
        let m = h.chip().meter();
        assert!(
            m.fault_count(stash_flash::FaultKind::TransientProgram) > 0,
            "the plan should have fired at least once at 25%"
        );
        assert!(m.wait_time_us > 0.0, "retries must charge simulated backoff");
    }

    #[test]
    fn retry_policy_gives_up_after_max_retries() {
        let mut c = stash_flash::FaultDevice::with_plan(
            chip(),
            stash_flash::FaultPlan::new(8).with_program_fail(1.0),
        );
        let cfg = cfg(c.inner());
        let payload = vec![0u8; cfg.payload_bytes_per_page()];
        let public = random_public(c.inner(), 14);
        let page = PageId::new(BlockId(0), 0);
        let mut h = Hider::new(&mut c, key(), cfg).with_retry_policy(RetryPolicy::standard());
        h.chip_mut().erase_block(BlockId(0)).unwrap();
        let err = h.hide_on_fresh_page(page, &public, &payload).unwrap_err();
        assert!(matches!(err, HideError::Flash(stash_flash::FlashError::TransientProgramFail(_))));
        // max_retries=4 means 5 metered attempts, each also counted a fault.
        let m = h.chip().meter();
        assert_eq!(m.fault_count(stash_flash::FaultKind::TransientProgram), 5);
    }

    #[test]
    fn vth_sweep_recovers_heavily_aged_page() {
        // Age hidden data until the straight decode struggles; a downward
        // read-reference sweep must recover it (retention only drains
        // charge, so the data is still there, just below Vth).
        let run = |sweep: bool| {
            let mut c = chip();
            let mut cfg = cfg(&c);
            cfg.hidden_bits_per_page = 64;
            cfg.ecc = crate::config::EccChoice::Bch { t: 3, segment_bits: 0 };
            let mut rng = SmallRng::seed_from_u64(15);
            c.cycle_block(BlockId(0), 2500).unwrap();
            c.erase_block(BlockId(0)).unwrap();
            let public = BitPattern::random_half(&mut rng, c.geometry().cells_per_page());
            let payload: Vec<u8> = (0..cfg.payload_bytes_per_page()).map(|_| rng.gen()).collect();
            let page = PageId::new(BlockId(0), 0);
            let policy = if sweep {
                RetryPolicy {
                    vth_sweep: vec![-3, -6, -9, -12],
                    ecc_watermark: Some(2),
                    ..RetryPolicy::none()
                }
            } else {
                RetryPolicy::none()
            };
            let mut h = Hider::new(&mut c, key(), cfg).with_retry_policy(policy);
            h.hide_on_fresh_page(page, &public, &payload).unwrap();
            h.chip_mut().age_days(600.0);
            (h.reveal_page(page, Some(&public)).ok() == Some(payload), ())
        };
        // The sweep configuration must recover whenever the plain decode
        // does — and the scenario is tuned so it strictly helps.
        let (plain, _) = run(false);
        let (swept, _) = run(true);
        assert!(swept >= plain, "sweep lost data the plain decode kept");
        assert!(swept, "sweep failed to recover 600-day-old data");
    }

    #[test]
    fn reveal_recovered_reports_correction_count() {
        let mut c = chip();
        let cfg = cfg(&c);
        let payload: Vec<u8> = (0..cfg.payload_bytes_per_page() as u8).collect();
        let public = random_public(&c, 16);
        let page = PageId::new(BlockId(0), 0);
        let mut h = Hider::new(&mut c, key(), cfg).with_retry_policy(RetryPolicy::standard());
        h.chip_mut().erase_block(BlockId(0)).unwrap();
        h.hide_on_fresh_page(page, &public, &payload).unwrap();
        let (got, corrected) = h.reveal_page_recovered(page, Some(&public)).unwrap();
        assert_eq!(got, payload);
        assert!(corrected <= 4, "fresh data should need few corrections: {corrected}");
    }

    #[test]
    fn absolute_selection_mode_roundtrips() {
        let mut c = chip();
        let cfg = cfg(&c);
        let payload = vec![0x3Cu8; cfg.payload_bytes_per_page()];
        let public = random_public(&c, 10);
        let page = PageId::new(BlockId(3), 0);
        let mut h = Hider::new(&mut c, key(), cfg).with_selection_mode(SelectionMode::Absolute);
        h.chip_mut().erase_block(BlockId(3)).unwrap();
        h.hide_on_fresh_page(page, &public, &payload).unwrap();
        assert_eq!(h.reveal_page(page, Some(&public)).unwrap(), payload);
    }
}
