//! The simulated flash package and its tester-level command set.

use rand::{Rng, SeedableRng};

use crate::bits::BitPattern;
use crate::block::{BlockMeta, VoltState};
use crate::device::NandDevice;
use crate::error::FlashError;
use crate::geometry::{BlockId, Geometry, PageId};
use crate::isa::{self, Keep, LANES};
use crate::latent;
use crate::meter::{FaultKind, Meter, MeterSnapshot, OpKind};
use crate::noise::{Gaussian, CHUNK};
use crate::profile::ChipProfile;
use crate::rng::ChipRng;
use crate::snapshot::{DeviceState, SnapshotError, StateReader, StateWriter};
use crate::{Level, Result};

/// Cells at or above this true voltage are treated as programmed for
/// interference purposes (programmed cells' charge dwarfs coupling bumps,
/// so bumps are only tracked for cells below it).
const INTERFERENCE_CEILING: f32 = 100.0;

/// Nominal number of fine program steps a unit-speed cell needs to reach the
/// programmed state; the PT-HI covert channel measures deviations from it.
const NOMINAL_PROGRAM_STEPS: f64 = 20.0;

/// Cache per-cell coupling latents when a block holds at most this many
/// cells (the cache costs 4 bytes per cell; paper-geometry blocks at 37 M
/// cells compute latents on the fly instead).
const COUPLING_CACHE_MAX_CELLS: usize = 16 << 20;

/// One simulated NAND flash package.
///
/// All randomness derives from the `seed`; two chips constructed with the
/// same profile and seed behave identically, and different seeds model
/// different physical samples of the same chip model (the paper
/// characterizes four samples of the vendor-A model).
///
/// The tester commands are the chip's [`NandDevice`] implementation. See
/// the [crate docs](crate) for a usage example.
#[derive(Debug, Clone)]
pub struct Chip {
    profile: ChipProfile,
    seed: u64,
    chip_offset: f64,
    blocks: Vec<BlockMeta>,
    rng: ChipRng,
    gauss: Gaussian,
    meter: Meter,
    /// Multiplier on the profile's read-noise sigma, normally `1.0`. Fault
    /// middleware sets it around reads to model noise-spike windows; it is
    /// always applied, so the fault-free path multiplies by exactly `1.0`
    /// and stays bit-identical to a chip that never saw middleware.
    read_noise_scale: f64,
    /// Scratch buffer for the partial-program paths' bulk Gaussian draws
    /// ([`Gaussian::fill`]). They take exact variates because a PP step's
    /// per-cell `exp` is not provably monotone and a fine PP step branches
    /// on each draw; every other value-consuming path streams brackets from
    /// [`Gaussian::bracketed`]. Pure scratch: the RNG stream position is the
    /// state, so this is never serialized or compared.
    noise_scratch: Vec<f64>,
    /// Buffers of the most recently discarded block, reused by the next
    /// block that materializes.
    recycled: Recycled,
}

/// Block-sized buffers kept across
/// [`discard_block_state`](NandDevice::discard_block_state) for the next
/// block that materializes. A sweep that materializes, uses and
/// discards one block after another would otherwise free two block-sized
/// allocations per block, which the allocator may hand back to the OS and
/// then fault in again page by page. Every value is rewritten before it is
/// read, so this is scratch, not simulation state: it is never serialized,
/// and a clone starts without it.
#[derive(Default)]
struct Recycled {
    state: Option<Box<VoltState>>,
    coupling: Option<Vec<f32>>,
}

impl Clone for Recycled {
    fn clone(&self) -> Self {
        Recycled::default()
    }
}

impl std::fmt::Debug for Recycled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recycled").finish_non_exhaustive()
    }
}

/// Applies `mean + sigma·z` with exactly the arithmetic of
/// [`Gaussian::sample_with`], so the bulk kernels stay bit-identical to
/// the scalar sampling path they replace.
#[inline]
fn scaled(mean: f64, sigma: f64, z: f64) -> f64 {
    mean + sigma * z
}

/// Offsets of the set lanes of `masks` (see [`LANES`]), ascending.
fn set_lanes(masks: &[u16]) -> impl Iterator<Item = usize> + '_ {
    masks.iter().enumerate().flat_map(|(g, &m)| {
        let mut m = m;
        std::iter::from_fn(move || {
            let j = m.trailing_zeros() as usize;
            m &= m.wrapping_sub(1);
            (j < LANES).then_some(LANES * g + j)
        })
    })
}

/// Refills `scratch` with exactly `n` standard-normal draws via
/// [`Gaussian::fill`] (consuming the RNG stream in scalar order) and
/// returns it as a slice.
fn fill_scratch<'a>(
    scratch: &'a mut Vec<f64>,
    gauss: &mut Gaussian,
    rng: &mut ChipRng,
    n: usize,
) -> &'a [f64] {
    scratch.clear();
    scratch.resize(n, 0.0);
    gauss.fill(rng, scratch);
    scratch
}

/// One voltage probe of `volts` into `out`: each cell's measured level
/// `v + sigma·z`, rounded and clamped to `0..=255`, with `z` from a
/// bracketed stream (the map is monotone in `z`).
fn probe_levels(
    gauss: &mut Gaussian,
    rng: &mut ChipRng,
    volts: &[f32],
    sigma: f64,
    out: &mut Vec<Level>,
) {
    let mut draws = gauss.bracketed(rng);
    // Copied into a chunk-sized buffer, the map's input needs no bounds
    // check, so the map vectorizes.
    let (mut cells, mut levels) = ([0.0f32; CHUNK], [0.0f32; CHUNK]);
    out.reserve(volts.len());
    for volts in volts.chunks(CHUNK) {
        let n = volts.len();
        cells[..n].copy_from_slice(volts);
        draws.map(&mut levels[..n], |k, z| {
            let measured = f64::from(cells[k]) + scaled(0.0, sigma, z);
            measured.round().clamp(0.0, 255.0) as f32
        });
        out.extend(levels[..n].iter().map(|&level| level as Level));
    }
}

impl Chip {
    /// Creates a chip of the given model. `seed` selects the physical
    /// sample: manufacturing offsets, per-cell latents and all process noise
    /// derive from it.
    pub fn new(profile: ChipProfile, seed: u64) -> Self {
        let blocks = (0..profile.geometry.blocks_per_chip).map(|_| BlockMeta::new()).collect();
        let chip_offset =
            latent::std_normal(seed, 0, 0, latent::splitmix64(seed)) * profile.chip_sigma;
        Chip {
            profile,
            seed,
            chip_offset,
            blocks,
            rng: ChipRng::seed_from_u64(latent::splitmix64(seed ^ 0xA5A5_5A5A)),
            gauss: Gaussian::new(),
            meter: Meter::new(),
            read_noise_scale: 1.0,
            noise_scratch: Vec::new(),
            recycled: Recycled::default(),
        }
    }

    /// The current read-noise multiplier.
    pub fn read_noise_scale(&self) -> f64 {
        self.read_noise_scale
    }
}

impl NandDevice for Chip {
    fn geometry(&self) -> &Geometry {
        &self.profile.geometry
    }

    fn profile(&self) -> &ChipProfile {
        &self.profile
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn meter(&self) -> MeterSnapshot {
        self.meter.snapshot()
    }

    fn reset_meter(&mut self) {
        self.meter.reset();
    }

    /// Program/erase cycles endured by a block.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::BlockOutOfRange`] for an invalid block.
    fn block_pec(&self, b: BlockId) -> Result<u32> {
        self.check_block(b)?;
        Ok(self.blocks[b.0 as usize].pec)
    }

    /// Marks a block bad; subsequent operations on it fail.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::BlockOutOfRange`] for an invalid block.
    fn mark_bad(&mut self, b: BlockId) -> Result<()> {
        self.check_block(b)?;
        self.blocks[b.0 as usize].bad = true;
        Ok(())
    }

    /// Whether a block is marked bad.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::BlockOutOfRange`] for an invalid block.
    fn is_bad(&self, b: BlockId) -> Result<bool> {
        self.check_block(b)?;
        Ok(self.blocks[b.0 as usize].bad)
    }

    /// Marks a block as grown bad, as a controller would after an
    /// unrecoverable program/erase failure: subsequent program, partial
    /// program and erase operations fail with
    /// [`FlashError::GrownBadBlock`], but the block still reads so
    /// surviving data can be migrated off it.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::BlockOutOfRange`] for an invalid block.
    fn grow_bad_block(&mut self, b: BlockId) -> Result<()> {
        self.check_block(b)?;
        if !self.blocks[b.0 as usize].grown_bad {
            self.blocks[b.0 as usize].grown_bad = true;
            self.record_fault(FaultKind::GrownBad);
        }
        Ok(())
    }

    /// Whether a block has grown bad (at runtime, via the fault plan or
    /// [`grow_bad_block`](Self::grow_bad_block)).
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::BlockOutOfRange`] for an invalid block.
    fn is_grown_bad(&self, b: BlockId) -> Result<bool> {
        self.check_block(b)?;
        Ok(self.blocks[b.0 as usize].grown_bad)
    }

    fn advance_time_us(&mut self, us: f64) {
        assert!(us >= 0.0, "time cannot run backwards");
        self.meter.add_wait_us(us);
    }

    /// Scales the read-noise sigma applied by subsequent reads and probes
    /// (`1.0` = the profile's calibrated noise). Fault middleware uses this
    /// to apply noise-spike windows without owning the read path.
    fn set_read_noise_scale(&mut self, scale: f64) {
        assert!(scale >= 0.0, "noise scale cannot be negative");
        self.read_noise_scale = scale;
    }

    /// Whether a page has been programmed since its block's last erase.
    ///
    /// # Errors
    ///
    /// Returns an addressing error for an invalid page.
    fn is_page_programmed(&self, p: PageId) -> Result<bool> {
        self.check_page(p)?;
        Ok(self.blocks[p.block.0 as usize]
            .state
            .as_ref()
            .is_some_and(|s| s.page_programmed[p.page as usize]))
    }

    /// Releases the bulky per-cell voltage state of a block while keeping its
    /// physical identity (wear, manufacturing offsets, stress damage). The
    /// block reads as freshly erased afterwards. Useful when sweeping many
    /// paper-geometry blocks (37 M cells each) through an experiment. The
    /// chip keeps the last discarded block's buffers for the next block it
    /// materializes, so a sweep holds at most one block's worth of them.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::BlockOutOfRange`] for an invalid block.
    fn discard_block_state(&mut self, b: BlockId) -> Result<()> {
        self.check_block(b)?;
        let meta = &mut self.blocks[b.0 as usize];
        if let Some(state) = meta.state.take() {
            self.recycled.state = Some(state);
        }
        if let Some(cache) = meta.coupling_cache.take() {
            self.recycled.coupling = Some(cache);
        }
        Ok(())
    }

    /// Erases a block: every cell returns to the (negatively charged) erased
    /// state, the wear counter increments, and any partial-program charge
    /// bookkeeping is cleared. This is the only operation that lowers cell
    /// voltages (paper §3).
    ///
    /// # Errors
    ///
    /// Fails on invalid addresses or bad blocks.
    fn erase_block(&mut self, b: BlockId) -> Result<()> {
        self.check_usable_block(b)?;
        self.check_not_grown_bad(b)?;
        self.blocks[b.0 as usize].pec = self.blocks[b.0 as usize].pec.saturating_add(1);
        self.redraw_erased(b);
        self.record_op(OpKind::Erase);
        Ok(())
    }

    /// Fast-path preconditioning: applies `n` program/erase cycles of wear
    /// to a block without simulating each cycle, leaving it erased at the
    /// new wear level. Not metered — preconditioning happens outside the
    /// measured workload on a real tester too.
    ///
    /// # Errors
    ///
    /// Fails on invalid addresses or bad blocks.
    fn cycle_block(&mut self, b: BlockId, n: u32) -> Result<()> {
        self.check_usable_block(b)?;
        self.blocks[b.0 as usize].pec = self.blocks[b.0 as usize].pec.saturating_add(n);
        self.redraw_erased(b);
        Ok(())
    }

    /// Programs a page with a data pattern: bit `0` charges the cell to the
    /// programmed distribution, bit `1` leaves it erased. Programming
    /// couples interference onto neighboring wordlines (paper §4) and may
    /// leave a few cells erratic (defects). A page may only be programmed
    /// once per erase.
    ///
    /// # Errors
    ///
    /// Fails on invalid addresses, bad blocks, pattern-length mismatch, or
    /// if the page was already programmed since the last erase.
    fn program_page(&mut self, p: PageId, data: &BitPattern) -> Result<()> {
        self.check_usable_page(p)?;
        self.check_not_grown_bad(p.block)?;
        let cpp = self.profile.geometry.cells_per_page();
        if data.len() != cpp {
            return Err(FlashError::PatternLength { expected: cpp, got: data.len() });
        }
        self.ensure_state(p.block);

        let pec = self.blocks[p.block.0 as usize].pec;
        if self.blocks[p.block.0 as usize].state.as_ref().unwrap().page_programmed[p.page as usize]
        {
            return Err(FlashError::PageAlreadyProgrammed(p));
        }

        // Effective programmed distribution for this pass.
        let prog = &self.profile.programmed;
        let kpec = f64::from(pec) / 1000.0;
        let pass_noise =
            self.gauss.sample_with(&mut self.rng, 0.0, self.profile.program_pass_sigma);
        let mean = prog.mean
            + self.chip_offset
            + self.block_offset(p.block)
            + self.page_offset(p)
            + prog.drift_per_kpec * kpec
            + pass_noise;
        let sigma = prog.sigma + prog.widen_per_kpec * kpec;

        let base = p.page as usize * cpp;
        let programmed_cells = data.count_zeros();
        {
            let state = self.blocks[p.block.0 as usize].state.as_mut().unwrap();
            // One draw per programmed cell, in cell order (the order the
            // RNG-stream contract fixes), a chunk of cells at a time.
            let page = &mut state.voltages[base..base + cpp];
            let mut draws = self.gauss.bracketed(&mut self.rng);
            let (mut masks, mut volts) = ([0u16; CHUNK / LANES], [0.0f32; CHUNK]);
            for (chunk_no, chunk) in page.chunks_mut(CHUNK).enumerate() {
                let masks = &mut masks[..chunk.len().div_ceil(LANES)];
                let n = data.zero_lanes(chunk_no * CHUNK, masks);
                draws.map(&mut volts[..n], |_, z| scaled(mean, sigma, z) as f32);
                isa::expand(&volts[..n], masks, chunk);
            }
            state.page_programmed[p.page as usize] = true;
        }

        // Erratic cells: a handful of victims per program op, worse with wear.
        let lambda = programmed_cells as f64 * self.profile.defect_prob(pec);
        let victims = self.poisson(lambda);
        for _ in 0..victims {
            let i = self.rng.gen_range(0..cpp);
            let v = self.rng.gen_range(0.0..255.0f32);
            self.blocks[p.block.0 as usize].state.as_mut().unwrap().voltages[base + i] = v;
        }

        // Interference onto this wordline's erased cells and onto neighbors.
        self.apply_interference(p, 1.0);

        self.record_op(OpKind::Program);
        Ok(())
    }

    /// Programs a page and atomically deposits controller metadata in the
    /// page's out-of-band spare area. On real NAND the spare bytes ride the
    /// same program pulse as the data, so either both land or neither does;
    /// a torn program (power cut mid-pulse) leaves the spare absent, which
    /// is the durable-or-absent signal mount-time recovery keys on.
    ///
    /// The cell physics are identical to [`program_page`](Self::program_page)
    /// — the spare consumes no process randomness.
    ///
    /// # Errors
    ///
    /// Fails exactly like [`program_page`](Self::program_page).
    fn program_page_with_spare(
        &mut self,
        p: PageId,
        data: &BitPattern,
        spare: &[u8],
    ) -> Result<()> {
        self.program_page(p, data)?;
        let state = self.blocks[p.block.0 as usize].state.as_mut().unwrap();
        state.spares[p.page as usize] = Some(spare.to_vec());
        Ok(())
    }

    /// Reads a page's out-of-band spare area. Spare bytes are read through
    /// controller-grade ECC and are modeled noise-free; `None` means the
    /// spare was never written since the block's last erase (an unwritten
    /// page, a page programmed without a spare, or a torn program). Billed
    /// as a page read.
    ///
    /// # Errors
    ///
    /// Fails on invalid addresses or bad blocks.
    fn read_spare(&mut self, p: PageId) -> Result<Option<Vec<u8>>> {
        self.check_usable_page(p)?;
        self.ensure_state(p.block);
        let spare =
            self.blocks[p.block.0 as usize].state.as_ref().unwrap().spares[p.page as usize].clone();
        self.record_op(OpKind::Read);
        Ok(spare)
    }

    /// A block erase interrupted `fraction` of the way through its
    /// discharge pulse: every cell's voltage is blended between its old
    /// value and a fresh erased draw (`v = new·f + old·(1−f)`), wear and
    /// bookkeeping advance as for a full erase, and all pages read as
    /// unprogrammed. A controller must treat such a block as needing a
    /// clean erase before reuse.
    ///
    /// # Errors
    ///
    /// Fails like [`erase_block`](Self::erase_block).
    fn torn_erase_block(&mut self, b: BlockId, fraction: f64) -> Result<()> {
        self.check_usable_block(b)?;
        self.check_not_grown_bad(b)?;
        self.ensure_state(b);
        let old = self.blocks[b.0 as usize].state.as_ref().unwrap().voltages.clone();
        self.blocks[b.0 as usize].pec = self.blocks[b.0 as usize].pec.saturating_add(1);
        self.redraw_erased(b);
        let f = fraction.clamp(0.0, 1.0) as f32;
        let state = self.blocks[b.0 as usize].state.as_mut().unwrap();
        for (v, &o) in state.voltages.iter_mut().zip(&old) {
            *v = *v * f + o * (1.0 - f);
        }
        self.record_op(OpKind::Erase);
        Ok(())
    }

    /// Issues one partial-program (PP) step to the masked cells of a page:
    /// an aborted program operation that adds a coarse, noisy increment of
    /// charge to each masked cell (mask bit `1` = nudge that cell). This is
    /// the vendor-specific primitive VT-HI uses to place hidden bits.
    ///
    /// Voltage can only increase; the page must already hold public data.
    ///
    /// # Errors
    ///
    /// Fails on invalid addresses, bad blocks, pattern-length mismatch, or
    /// if the page has not been programmed since the last erase.
    fn partial_program(&mut self, p: PageId, mask: &BitPattern) -> Result<()> {
        self.check_usable_page(p)?;
        self.check_not_grown_bad(p.block)?;
        let cpp = self.profile.geometry.cells_per_page();
        if mask.len() != cpp {
            return Err(FlashError::PatternLength { expected: cpp, got: mask.len() });
        }
        self.ensure_state(p.block);
        if !self.blocks[p.block.0 as usize].state.as_ref().unwrap().page_programmed[p.page as usize]
        {
            return Err(FlashError::PageNotProgrammed(p));
        }

        let pp = self.profile.partial_program;
        let base = p.page as usize * cpp;
        let seed = self.seed;
        let block = p.block.0;
        {
            let state = self.blocks[p.block.0 as usize].state.as_mut().unwrap();
            let noise = fill_scratch(
                &mut self.noise_scratch,
                &mut self.gauss,
                &mut self.rng,
                mask.count_ones(),
            );
            let mut draws = noise.iter();
            for i in mask.iter_ones() {
                let eff = latent::pp_efficiency(seed, block, base + i, pp.eff_sigma_ln);
                let inc =
                    scaled(pp.step_mean, pp.step_sigma, *draws.next().unwrap()).max(0.0) * eff;
                // Charge injection saturates: v' = S - (S - v)·e^(-inc/S).
                // Cells asymptotically approach the saturation level and can
                // never reach the programmed range via partial programming.
                let v = f64::from(state.voltages[base + i]);
                let s = pp.saturation;
                if v < s {
                    state.voltages[base + i] = (s - (s - v) * (-inc / s).exp()) as f32;
                }
                state.mark_pp(base + i);
            }
        }

        // A PP step couples a small fraction of a full program's
        // interference onto neighbors, and can leave neighbor cells erratic
        // (this drives the public-BER cost of small page intervals, §6.3).
        let pp_factor = self.profile.interference.pp_factor;
        self.apply_interference(p, pp_factor);
        self.apply_pp_disturb_defects(p);

        self.record_op(OpKind::PartialProgram);
        Ok(())
    }

    /// Controller-grade fine partial programming (the vendor-support
    /// variant of §6.2: "an in-controller implementation of voltage hiding
    /// could likely program hidden data in fewer programming steps"): each
    /// masked cell below `target` is charged to `target` plus a small
    /// positive overshoot in a single metered partial-program step. Voltage
    /// never decreases.
    ///
    /// # Errors
    ///
    /// Fails on invalid addresses, bad blocks, pattern-length mismatch, or
    /// if the page has not been programmed since the last erase.
    fn fine_partial_program(&mut self, p: PageId, mask: &BitPattern, target: Level) -> Result<()> {
        self.check_usable_page(p)?;
        self.check_not_grown_bad(p.block)?;
        let cpp = self.profile.geometry.cells_per_page();
        if mask.len() != cpp {
            return Err(FlashError::PatternLength { expected: cpp, got: mask.len() });
        }
        self.ensure_state(p.block);
        if !self.blocks[p.block.0 as usize].state.as_ref().unwrap().page_programmed[p.page as usize]
        {
            return Err(FlashError::PageNotProgrammed(p));
        }

        let base = p.page as usize * cpp;
        {
            let state = self.blocks[p.block.0 as usize].state.as_mut().unwrap();
            let noise = fill_scratch(
                &mut self.noise_scratch,
                &mut self.gauss,
                &mut self.rng,
                mask.count_ones(),
            );
            let mut draws = noise.iter();
            for i in mask.iter_ones() {
                let goal = f64::from(target) + scaled(4.0, 2.5, *draws.next().unwrap()).max(0.3);
                let v = f64::from(state.voltages[base + i]);
                if v < goal {
                    state.voltages[base + i] = goal as f32;
                    state.mark_pp(base + i);
                }
            }
        }

        // Fine programming uses smaller pulses: a fraction of the coarse PP
        // interference and disturb risk.
        let pp_factor = self.profile.interference.pp_factor * 0.5;
        self.apply_interference(p, pp_factor);
        self.apply_pp_disturb_defects(p);

        self.record_op(OpKind::PartialProgram);
        Ok(())
    }

    /// Page read with a shifted reference voltage — the vendor command
    /// modern chips expose for retention management (paper §1, [32–35]);
    /// VT-HI decodes hidden data with a single such read at `Vth`. `out` is
    /// resized and refilled, so a Vth sweep or a steady-state decode loop
    /// reuses one allocation instead of paying a fresh `BitPattern` per
    /// read. The cells are read in chunks: each chunk's uniforms are drawn
    /// first, a branch-free pass then decides every cell whose noise bound
    /// cannot flip its outcome, and only the rest get their noise draw
    /// evaluated. Results and the RNG stream are byte-identical to the
    /// historical scalar path.
    ///
    /// # Errors
    ///
    /// Fails on invalid addresses or bad blocks (leaving `out` empty).
    fn read_page_shifted_into(
        &mut self,
        p: PageId,
        vref: Level,
        out: &mut BitPattern,
    ) -> Result<()> {
        out.reset_zeros(0);
        self.check_usable_page(p)?;
        self.ensure_state(p.block);
        let cpp = self.profile.geometry.cells_per_page();
        let base = p.page as usize * cpp;
        let sigma = self.profile.read_noise_sigma * self.read_noise_scale;
        out.reset_zeros(cpp);
        {
            let state = self.blocks[p.block.0 as usize].state.as_mut().unwrap();
            self.gauss.threshold_read(
                &mut self.rng,
                &state.voltages[base..base + cpp],
                sigma,
                f64::from(vref),
                out.bytes_mut(),
            );
            state.read_count += 1;
        }
        self.record_op(OpKind::Read);
        Ok(())
    }

    /// Per-cell voltage probe (the NDA characterization command, §6.2)
    /// into a caller-owned buffer: each cell's measured level, quantized to
    /// `0..=255` with negative voltages reading as 0. `out` is cleared and
    /// refilled, so a sweep over many pages reuses one allocation instead
    /// of paying a fresh `Vec<Level>` per page.
    ///
    /// # Errors
    ///
    /// Fails on invalid addresses or bad blocks (leaving `out` cleared).
    fn probe_voltages_into(&mut self, p: PageId, out: &mut Vec<Level>) -> Result<()> {
        out.clear();
        self.check_usable_page(p)?;
        self.ensure_state(p.block);
        let cpp = self.profile.geometry.cells_per_page();
        let base = p.page as usize * cpp;
        let sigma = self.profile.read_noise_sigma * self.read_noise_scale;

        {
            let state = self.blocks[p.block.0 as usize].state.as_mut().unwrap();
            let volts = &state.voltages[base..base + cpp];
            probe_levels(&mut self.gauss, &mut self.rng, volts, sigma, out);
            state.read_count += 1;
        }
        self.record_op(OpKind::Probe);
        Ok(())
    }

    /// Advances retention time for the whole chip: charge leaks from every
    /// materialized cell, faster on worn blocks and faster for charge that
    /// was deposited by partial programming (paper §8 "Reliability"; the
    /// paper emulates this by baking chips in an oven).
    fn age_days(&mut self, days: f64) {
        assert!(days >= 0.0, "retention time cannot be negative");
        if days == 0.0 {
            return;
        }
        let profile = self.profile.clone();
        let floor = (profile.erased.mean - 3.0 * profile.erased.sigma) as f32;
        let mut draws = self.gauss.bracketed(&mut self.rng);
        let mut masks = [0u16; CHUNK / LANES];
        let (mut volts, mut losses) = ([0.0f32; CHUNK], [0.0f64; CHUNK]);
        let mut aged = [0.0f32; CHUNK];
        for meta in &mut self.blocks {
            let pec = meta.pec;
            let Some(state) = meta.state.as_mut() else { continue };
            let from = state.aged_days;
            let to = from + days;
            let dt_frac = profile.retention_time_factor(to) - profile.retention_time_factor(from);
            let noise_sigma = profile.retention.noise_sigma * dt_frac.max(0.0).sqrt();
            // Only cells above 0 draw noise, in cell order (the aged voltage
            // is monotone in the draw): compact each chunk's charged cells,
            // age them, and scatter them back.
            for first in (0..state.voltages.len()).step_by(CHUNK) {
                let last = (first + CHUNK).min(state.voltages.len());
                let masks = &mut masks[..(last - first).div_ceil(LANES)];
                let chunk = &state.voltages[first..last];
                let n = isa::compact_where(chunk, Keep::Above(0.0), masks, &mut volts);
                for (k, j) in set_lanes(masks).enumerate() {
                    let mut loss = profile.retention_loss(f64::from(volts[k]), pec, from, to);
                    if state.is_pp(first + j) {
                        loss *= profile.retention.pp_penalty;
                    }
                    losses[k] = loss;
                }
                draws.map(&mut aged[..n], |k, z| {
                    let n = scaled(0.0, noise_sigma, z);
                    (f64::from(volts[k]) - losses[k] + n).max(f64::from(floor)) as f32
                });
                isa::expand(&aged[..n], masks, &mut state.voltages[first..last]);
            }
            state.aged_days = to;
        }
    }

    /// PT-HI substrate: applies `cycles` stress-programming cycles to the
    /// masked cells, permanently shifting their program speed (the covert
    /// channel of Wang et al. \[38\]). The page's contents are destroyed
    /// (stress cycles are program operations). Metered as `cycles` program
    /// operations.
    ///
    /// # Errors
    ///
    /// Fails on invalid addresses, bad blocks, or pattern-length mismatch.
    fn stress_cells(&mut self, p: PageId, mask: &BitPattern, cycles: u32) -> Result<()> {
        self.check_usable_page(p)?;
        self.check_not_grown_bad(p.block)?;
        let cpp = self.profile.geometry.cells_per_page();
        if mask.len() != cpp {
            return Err(FlashError::PatternLength { expected: cpp, got: mask.len() });
        }
        self.ensure_state(p.block);
        let base = p.page as usize * cpp;
        let per_cycle = self.profile.stress_speed_per_cycle;
        for i in 0..cpp {
            if mask.get(i) {
                let jitter = 1.0 + 0.15 * self.gauss.sample(&mut self.rng);
                let delta = (per_cycle * f64::from(cycles) * jitter) as f32;
                *self.blocks[p.block.0 as usize].stress.entry(base + i).or_insert(0.0) += delta;
            }
        }
        // Stress cycles leave the page's cells charged; contents are gone.
        {
            let prog = self.profile.programmed;
            let state = self.blocks[p.block.0 as usize].state.as_mut().unwrap();
            for i in 0..cpp {
                if mask.get(i) {
                    state.voltages[base + i] =
                        self.gauss.sample_with(&mut self.rng, prog.mean, prog.sigma) as f32;
                }
            }
            state.page_programmed[p.page as usize] = true;
        }
        for _ in 0..cycles {
            self.record_op(OpKind::Program);
        }
        Ok(())
    }

    /// PT-HI substrate: incrementally programs a page in `steps` fine steps,
    /// reading between steps, and reports for each cell the step index at
    /// which it crossed into the programmed state. Stressed cells cross
    /// earlier; the contrast decays as public wear accumulates. Destroys the
    /// page contents (this is why PT-HI decoding is destructive). Metered as
    /// `steps` partial-programs plus `steps` reads.
    ///
    /// # Errors
    ///
    /// Fails on invalid addresses or bad blocks.
    fn program_time_probe(&mut self, p: PageId, steps: u16) -> Result<Vec<u16>> {
        self.check_usable_page(p)?;
        self.check_not_grown_bad(p.block)?;
        self.ensure_state(p.block);
        let cpp = self.profile.geometry.cells_per_page();
        let base = p.page as usize * cpp;
        let pec = self.blocks[p.block.0 as usize].pec;
        let decay = (1.0 - f64::from(pec) / self.profile.stress_decay_pec).max(0.0);
        let step_noise = 0.8 + 0.0015 * f64::from(pec);

        let mut out = Vec::with_capacity(cpp);
        for i in 0..cpp {
            let mut speed =
                latent::prog_speed(self.seed, p.block.0, base + i, self.profile.prog_speed_sigma);
            if let Some(delta) = self.blocks[p.block.0 as usize].stress.get(&(base + i)) {
                speed += f64::from(*delta) * decay;
            }
            let jitter = self.gauss.sample_with(&mut self.rng, 0.0, step_noise);
            let cross = (NOMINAL_PROGRAM_STEPS / speed.max(0.05) + jitter)
                .round()
                .clamp(1.0, f64::from(steps));
            out.push(cross as u16);
        }

        // The probe programs the page: contents destroyed.
        {
            let prog = self.profile.programmed;
            let state = self.blocks[p.block.0 as usize].state.as_mut().unwrap();
            for i in 0..cpp {
                state.voltages[base + i] =
                    self.gauss.sample_with(&mut self.rng, prog.mean, prog.sigma) as f32;
            }
            state.page_programmed[p.page as usize] = true;
        }
        for _ in 0..steps {
            self.record_op(OpKind::PartialProgram);
            self.record_op(OpKind::Read);
        }
        Ok(out)
    }

    /// Bills one operation to the meter, at the profile's timing costs.
    /// Middleware uses this to account failed attempts that never reach the
    /// chip physics.
    fn record_op(&mut self, kind: OpKind) {
        self.meter.record(kind, &self.profile.timing);
    }

    fn record_fault(&mut self, kind: FaultKind) {
        self.meter.record_fault(kind);
    }
}

impl Chip {
    /// Crate-internal: places one cell of a programmed page at an exact
    /// lobe target (the MLC programming pass).
    pub(crate) fn place_cell_level(&mut self, p: PageId, cell: usize, target: f64, sigma: f64) {
        let cpp = self.profile.geometry.cells_per_page();
        let base = p.page as usize * cpp;
        let v = self.gauss.sample_with(&mut self.rng, target, sigma) as f32;
        let state = self.blocks[p.block.0 as usize].state.as_mut().unwrap();
        state.voltages[base + cell] = v;
    }

    // ---- internal helpers -------------------------------------------------

    fn check_not_grown_bad(&self, b: BlockId) -> Result<()> {
        if self.blocks[b.0 as usize].grown_bad {
            return Err(FlashError::GrownBadBlock(b));
        }
        Ok(())
    }

    fn check_block(&self, b: BlockId) -> Result<()> {
        if !self.profile.geometry.contains_block(b) {
            return Err(FlashError::BlockOutOfRange(b));
        }
        Ok(())
    }

    fn check_usable_block(&self, b: BlockId) -> Result<()> {
        self.check_block(b)?;
        if self.blocks[b.0 as usize].bad {
            return Err(FlashError::BadBlock(b));
        }
        Ok(())
    }

    fn check_page(&self, p: PageId) -> Result<()> {
        self.check_block(p.block)?;
        if !self.profile.geometry.contains_page(p) {
            return Err(FlashError::PageOutOfRange(p));
        }
        Ok(())
    }

    fn check_usable_page(&self, p: PageId) -> Result<()> {
        self.check_page(p)?;
        if self.blocks[p.block.0 as usize].bad {
            return Err(FlashError::BadBlock(p.block));
        }
        Ok(())
    }

    fn block_offset(&self, b: BlockId) -> f64 {
        latent::std_normal(self.seed, b.0, 0, latent::SALT_BLOCK_OFFSET) * self.profile.block_sigma
    }

    fn page_offset(&self, p: PageId) -> f64 {
        latent::std_normal(self.seed, p.block.0, p.page as usize, latent::SALT_PAGE_OFFSET)
            * self.profile.page_sigma
    }

    /// Materializes the voltage state of a block (freshly erased at its
    /// current wear) if absent.
    fn ensure_state(&mut self, b: BlockId) {
        if self.blocks[b.0 as usize].state.is_none() {
            self.alloc_state(b);
            self.redraw_erased(b);
        }
    }

    /// Allocates a block's voltage state, its cells not yet drawn. Both
    /// callers go on to [`redraw_erased`](Self::redraw_erased)'s fill,
    /// which rewrites every field, so a recycled state serves as well as a
    /// fresh one.
    fn alloc_state(&mut self, b: BlockId) {
        let g = self.profile.geometry;
        let state = self.recycled.state.take().unwrap_or_else(|| {
            Box::new(VoltState::new(g.cells_per_block(), g.pages_per_block as usize))
        });
        self.blocks[b.0 as usize].state = Some(state);
    }

    /// Redraws every cell of a block from the erased distribution at the
    /// block's current wear, clearing page/PP bookkeeping.
    fn redraw_erased(&mut self, b: BlockId) {
        let g = self.profile.geometry;
        if self.blocks[b.0 as usize].state.is_none() {
            // Materializing would draw the whole block once, only for the
            // redraw below to overwrite it: advance the stream past that
            // draw instead of evaluating it.
            self.alloc_state(b);
            self.gauss.skip(&mut self.rng, g.cells_per_block());
        }
        let cpp = g.cells_per_page();
        let erased = self.profile.erased;
        let kpec = f64::from(self.blocks[b.0 as usize].pec) / 1000.0;
        let chip_off = self.chip_offset;
        let block_off = self.block_offset(b);
        let sigma = erased.sigma + erased.widen_per_kpec * kpec;

        // Page means are pure latents — precompute them so the fill loop
        // below holds a single borrow of the block state.
        let means: Vec<f64> = (0..g.pages_per_block)
            .map(|page| {
                erased.mean
                    + erased.drift_per_kpec * kpec
                    + chip_off
                    + block_off
                    + self.page_offset(PageId::new(b, page))
            })
            .collect();

        let state = self.blocks[b.0 as usize].state.as_mut().unwrap();
        let mut draws = self.gauss.bracketed(&mut self.rng);
        for (page, &mean) in state.voltages.chunks_exact_mut(cpp).zip(&means) {
            for chunk in page.chunks_mut(CHUNK) {
                draws.map(chunk, |_, z| scaled(mean, sigma, z) as f32);
            }
        }
        state.page_programmed.iter_mut().for_each(|x| *x = false);
        state.pp_written = None;
        state.aged_days = 0.0;
        state.read_count = 0;
        state.spares.iter_mut().for_each(|s| *s = None);
    }

    /// Jittered per-block coupling-distribution parameters `(median,
    /// sigma_ln)`. The coupling distribution's median and log-sigma carry
    /// independent per-block manufacturing jitter: the erased tail's mass
    /// *and slope* vary naturally between blocks.
    fn coupling_params(&self, b: BlockId) -> (f64, f64) {
        let inter = &self.profile.interference;
        let median = inter.coupling_median
            * (inter.coupling_median_jitter
                * latent::std_normal(self.seed, b.0, 0, latent::SALT_COUPLING_MEDIAN))
            .exp();
        let sigma_ln = inter.coupling_sigma_ln
            + inter.coupling_sigma_jitter
                * latent::std_normal(self.seed, b.0, 0, latent::SALT_COUPLING_SIGMA);
        (median, sigma_ln)
    }

    /// Materializes the per-cell coupling cache of a block when the
    /// geometry is small enough to afford one (4 bytes per cell;
    /// paper-geometry blocks at 37 M cells derive latents on the fly).
    fn ensure_coupling_cache(&mut self, b: BlockId, median: f64, sigma_ln: f64) {
        let cells = self.profile.geometry.cells_per_block();
        if cells > COUPLING_CACHE_MAX_CELLS || self.blocks[b.0 as usize].coupling_cache.is_some() {
            return;
        }
        let cap = self.profile.interference.coupling_cap;
        let mut cache = self.recycled.coupling.take().unwrap_or_default();
        cache.resize(cells, 0.0);
        latent::fill_coupling(self.seed, b.0, 0, median, sigma_ln, cap, &mut cache);
        self.blocks[b.0 as usize].coupling_cache = Some(cache);
    }

    /// Couples interference charge from a program (factor 1.0) or PP step
    /// (factor `pp_factor`) on `source` onto low-voltage cells of the source
    /// wordline and its neighbors at distance 1 and 2.
    fn apply_interference(&mut self, source: PageId, factor: f64) {
        let g = self.profile.geometry;
        let inter = self.profile.interference;
        let cpp = g.cells_per_page();
        let pages = g.pages_per_block as i64;
        let src = i64::from(source.page);
        // Per-block coupling parameters (and, when affordable, the per-cell
        // coupling cache) are hoisted out of the per-cell loop: re-deriving
        // the jitter latents costs two SplitMix64 + inverse-CDF chains per
        // bump, and dominated this path before hoisting.
        let (median, sigma_ln) = self.coupling_params(source.block);
        self.ensure_coupling_cache(source.block, median, sigma_ln);
        let seed = self.seed;
        let block = source.block.0;
        let mut draws = self.gauss.bracketed(&mut self.rng);
        // Per chunk of a page: the candidates' lane masks, voltages and
        // couplings, and their bumped voltages.
        let mut masks = [0u16; CHUNK / LANES];
        let (mut volts, mut coupling) = ([0.0f32; CHUNK], [0.0f32; CHUNK]);
        let mut bumped = [0.0f32; CHUNK];
        // The chunk's coupling, computed when the block has no cache.
        let mut computed = [0.0f32; CHUNK];

        for (d, w) in [
            (0i64, 1.0),
            (-1, 1.0),
            (1, 1.0),
            (-2, inter.distance2_factor),
            (2, inter.distance2_factor),
        ] {
            let q = src + d;
            if q < 0 || q >= pages {
                continue;
            }
            // Independent per-block / per-page interference strength: the
            // erased tail's cover noise (not cancellable from the
            // programmed lobe).
            let scale = (inter.bump_scale_sigma_block
                * latent::std_normal(seed, block, 0, latent::SALT_BUMP_SCALE_BLOCK)
                + inter.bump_scale_sigma_page
                    * latent::std_normal(seed, block, q as usize, latent::SALT_BUMP_SCALE_PAGE))
            .exp();
            let weight = w * factor * scale;
            let bump_mean = inter.bump_mean * weight;
            let bump_sigma = inter.bump_sigma * weight;
            let base = q as usize * cpp;
            let meta = &mut self.blocks[source.block.0 as usize];
            let cache = meta.coupling_cache.as_deref();
            let state = meta.state.as_mut().unwrap();
            let page = &mut state.voltages[base..base + cpp];
            for (chunk_no, chunk) in page.chunks_mut(CHUNK).enumerate() {
                let first = base + chunk_no * CHUNK;
                // Both walks use the coupling rounded to `f32`, so a cell's
                // bump does not depend on whether its block fits the cache.
                let chunk_coupling = match cache {
                    Some(cache) => &cache[first..first + chunk.len()],
                    None => {
                        let computed = &mut computed[..chunk.len()];
                        let cap = inter.coupling_cap;
                        latent::fill_coupling(seed, block, first, median, sigma_ln, cap, computed);
                        computed
                    }
                };
                // Candidacy depends only on each cell's pre-bump voltage,
                // and about half the cells are candidates, so a per-cell
                // branch would mispredict often: compact the candidates, in
                // cell order (one draw each, the order the RNG-stream
                // contract fixes).
                let masks = &mut masks[..chunk.len().div_ceil(LANES)];
                let keep = Keep::Below(INTERFERENCE_CEILING);
                let n = isa::compact_where(chunk, keep, masks, &mut volts);
                isa::compact(chunk_coupling, masks, &mut coupling);
                draws.map(&mut bumped[..n], |k, z| {
                    let v = volts[k];
                    // Coupling saturates as stored charge approaches the
                    // interference ceiling: no erased cell drifts toward
                    // the read reference however many neighbors are
                    // programmed.
                    let damping = (1.0 - f64::from(v.max(0.0)) / inter.interference_saturation)
                        .clamp(0.0, 1.0);
                    let bump = scaled(bump_mean, bump_sigma, z).max(0.0)
                        * f64::from(coupling[k])
                        * damping;
                    v + bump as f32
                });
                isa::expand(&bumped[..n], masks, chunk);
            }
        }
    }

    /// Rare erratic flips on neighboring wordlines caused by a PP step.
    fn apply_pp_disturb_defects(&mut self, source: PageId) {
        let g = self.profile.geometry;
        let inter = self.profile.interference;
        let cpp = g.cells_per_page();
        let pages = g.pages_per_block as i64;
        let src = i64::from(source.page);

        for (d, w) in
            [(-1i64, 1.0), (1, 1.0), (-2, inter.distance2_factor), (2, inter.distance2_factor)]
        {
            let q = src + d;
            if q < 0 || q >= pages {
                continue;
            }
            let lambda = cpp as f64 * inter.pp_disturb_defect_prob * w;
            let victims = self.poisson(lambda);
            let base = q as usize * cpp;
            for _ in 0..victims {
                let i = self.rng.gen_range(0..cpp);
                let v = self.rng.gen_range(0.0..255.0f32);
                self.blocks[source.block.0 as usize].state.as_mut().unwrap().voltages[base + i] = v;
            }
        }
    }

    /// Knuth's Poisson sampler; all lambdas in this crate are tiny.
    fn poisson(&mut self, lambda: f64) -> usize {
        if lambda <= 0.0 {
            return 0;
        }
        let l = (-lambda).exp();
        let mut k = 0usize;
        let mut p = 1.0;
        loop {
            p *= self.rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
            if k > 10_000 {
                return k; // unreachable for the lambdas used here
            }
        }
    }
}

impl DeviceState for Chip {
    fn save_state(&self, w: &mut StateWriter) {
        w.put_u64(self.seed);
        let rng = self.rng.state();
        for word in rng {
            w.put_u64(word);
        }
        match self.gauss.spare() {
            Some(z) => {
                w.put_bool(true);
                w.put_f64(z);
            }
            None => w.put_bool(false),
        }
        w.put_f64(self.read_noise_scale);
        let snap = self.meter.snapshot();
        for kind in OpKind::ALL {
            w.put_u64(snap.count(kind));
        }
        for kind in FaultKind::ALL {
            w.put_u64(snap.fault_count(kind));
        }
        w.put_f64(snap.device_time_us);
        w.put_f64(snap.wait_time_us);
        w.put_f64(snap.energy_uj);

        w.put_len(self.blocks.len());
        for meta in &self.blocks {
            w.put_u32(meta.pec);
            w.put_bool(meta.bad);
            w.put_bool(meta.grown_bad);
            // HashMap iteration order is nondeterministic: sort by cell so
            // the same chip state always serializes to the same bytes.
            let mut stress: Vec<(usize, f32)> = meta.stress.iter().map(|(&c, &d)| (c, d)).collect();
            stress.sort_unstable_by_key(|&(c, _)| c);
            w.put_len(stress.len());
            for (cell, delta) in stress {
                w.put_len(cell);
                w.put_f32(delta);
            }
            // The coupling cache is a pure function of seed and geometry —
            // rebuilt lazily on demand, never serialized.
            match &meta.state {
                None => w.put_bool(false),
                Some(state) => {
                    w.put_bool(true);
                    w.put_len(state.voltages.len());
                    for &v in &state.voltages {
                        w.put_f32(v);
                    }
                    w.put_len(state.page_programmed.len());
                    for &p in &state.page_programmed {
                        w.put_bool(p);
                    }
                    match &state.pp_written {
                        None => w.put_bool(false),
                        Some(words) => {
                            w.put_bool(true);
                            w.put_len(words.len());
                            for &word in words {
                                w.put_u64(word);
                            }
                        }
                    }
                    w.put_f64(state.aged_days);
                    w.put_u64(state.read_count);
                    w.put_len(state.spares.len());
                    for spare in &state.spares {
                        match spare {
                            None => w.put_bool(false),
                            Some(bytes) => {
                                w.put_bool(true);
                                w.put_len(bytes.len());
                                w.put_bytes(bytes);
                            }
                        }
                    }
                }
            }
        }
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> std::result::Result<(), SnapshotError> {
        let seed = r.get_u64()?;
        if seed != self.seed {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot is of chip seed {seed:#x}, restoring into seed {:#x}",
                self.seed
            )));
        }
        let mut rng = [0u64; 4];
        for word in &mut rng {
            *word = r.get_u64()?;
        }
        self.rng = ChipRng::from_state(rng);
        self.gauss.set_spare(if r.get_bool()? { Some(r.get_f64()?) } else { None });
        self.read_noise_scale = r.get_f64()?;
        let mut counts = [0u64; OpKind::ALL.len()];
        for c in &mut counts {
            *c = r.get_u64()?;
        }
        let mut fault_counts = [0u64; FaultKind::ALL.len()];
        for c in &mut fault_counts {
            *c = r.get_u64()?;
        }
        let device_time_us = r.get_f64()?;
        let wait_time_us = r.get_f64()?;
        let energy_uj = r.get_f64()?;
        self.meter.restore(MeterSnapshot::from_parts(
            counts,
            fault_counts,
            device_time_us,
            wait_time_us,
            energy_uj,
        ));

        let nblocks = r.get_len()?;
        if nblocks != self.blocks.len() {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot has {nblocks} blocks, device has {}",
                self.blocks.len()
            )));
        }
        let g = self.profile.geometry;
        for meta in &mut self.blocks {
            meta.pec = r.get_u32()?;
            meta.bad = r.get_bool()?;
            meta.grown_bad = r.get_bool()?;
            meta.stress.clear();
            for _ in 0..r.get_len()? {
                let cell = r.get_len()?;
                let delta = r.get_f32()?;
                meta.stress.insert(cell, delta);
            }
            meta.coupling_cache = None;
            meta.state = if r.get_bool()? {
                let cells = r.get_len()?;
                if cells != g.cells_per_block() {
                    return Err(SnapshotError::Mismatch(format!(
                        "snapshot block holds {cells} cells, geometry says {}",
                        g.cells_per_block()
                    )));
                }
                let mut state = VoltState::new(g.cells_per_block(), g.pages_per_block as usize);
                for v in &mut state.voltages {
                    *v = r.get_f32()?;
                }
                let pages = r.get_len()?;
                if pages != state.page_programmed.len() {
                    return Err(SnapshotError::Mismatch(format!(
                        "snapshot block holds {pages} pages, geometry says {}",
                        state.page_programmed.len()
                    )));
                }
                for p in &mut state.page_programmed {
                    *p = r.get_bool()?;
                }
                state.pp_written = if r.get_bool()? {
                    let words = r.get_len()?;
                    if words != g.cells_per_block().div_ceil(64) {
                        return Err(SnapshotError::Corrupt("pp bitset length"));
                    }
                    let mut set = vec![0u64; words];
                    for word in &mut set {
                        *word = r.get_u64()?;
                    }
                    Some(set)
                } else {
                    None
                };
                state.aged_days = r.get_f64()?;
                state.read_count = r.get_u64()?;
                let nspares = r.get_len()?;
                if nspares != state.spares.len() {
                    return Err(SnapshotError::Corrupt("spare-area length"));
                }
                for spare in &mut state.spares {
                    *spare = if r.get_bool()? {
                        let n = r.get_len()?;
                        Some(r.get_bytes(n)?.to_vec())
                    } else {
                        None
                    };
                }
                Some(Box::new(state))
            } else {
                None
            };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SLC_READ_REF;

    fn chip() -> Chip {
        Chip::new(ChipProfile::test_small(), 42)
    }

    fn programmed_page(chip: &mut Chip) -> (PageId, BitPattern) {
        let p = PageId::new(BlockId(0), 2);
        chip.erase_block(p.block).unwrap();
        let data = BitPattern::random_half(
            &mut rand::rngs::SmallRng::seed_from_u64(9),
            chip.geometry().cells_per_page(),
        );
        chip.program_page(p, &data).unwrap();
        (p, data)
    }

    #[test]
    fn program_read_roundtrip_is_nearly_exact() {
        let mut c = chip();
        let (p, data) = programmed_page(&mut c);
        let back = c.read_page(p).unwrap();
        let errs = back.hamming_distance(&data);
        assert!(errs <= 2, "unexpectedly high raw BER: {errs} errors");
    }

    #[test]
    fn program_draws_land_on_the_zero_cells_in_order() {
        // 257-byte pages: a whole chunk of 2048 cells, then 8 cells, half
        // a lane group. No erratic victims, so only the draws move cells.
        let mut profile = ChipProfile::test_small();
        profile.geometry.page_bytes = 257;
        (profile.defect_prob_base, profile.defect_prob_per_kpec) = (0.0, 0.0);
        let cpp = profile.geometry.cells_per_page();
        let p = PageId::new(BlockId(0), 3);
        let mut chip = Chip::new(profile, 5);
        chip.erase_block(p.block).unwrap();
        // Every cell programmed takes the draws in cell order, so the k-th
        // zero of any pattern must get cell k's voltage.
        let mut all = chip.clone();
        all.program_page(p, &BitPattern::zeros(cpp)).unwrap();
        let mut data = BitPattern::random_half(&mut rand::rngs::SmallRng::seed_from_u64(4), cpp);
        data.set(cpp - 1, false);
        chip.program_page(p, &data).unwrap();
        let volts = |c: &Chip| c.blocks[0].state.as_ref().unwrap().voltages[3 * cpp..].to_vec();
        let (got, want) = (volts(&chip), volts(&all));
        let zeros = (0..cpp).filter(|&i| !data.get(i));
        for (k, i) in zeros.enumerate() {
            assert_eq!(got[i].to_bits(), want[k].to_bits(), "zero {k} at cell {i}");
        }
        // The erased cells, tail included, and the next page hold no draw.
        let erased = (0..cpp).filter(|&i| data.get(i)).chain(cpp..2 * cpp);
        assert!(erased.clone().all(|i| got[i] < INTERFERENCE_CEILING), "a draw past the zeros");
        assert!(erased.clone().any(|i| i >= cpp - 8 && i < cpp), "the tail holds an erased cell");
    }

    #[test]
    fn double_program_rejected_until_erase() {
        let mut c = chip();
        let (p, data) = programmed_page(&mut c);
        assert_eq!(c.program_page(p, &data), Err(FlashError::PageAlreadyProgrammed(p)));
        c.erase_block(p.block).unwrap();
        c.program_page(p, &data).unwrap();
    }

    #[test]
    fn erase_increments_pec_and_clears_data() {
        let mut c = chip();
        let (p, _) = programmed_page(&mut c);
        let pec0 = c.block_pec(p.block).unwrap();
        c.erase_block(p.block).unwrap();
        assert_eq!(c.block_pec(p.block).unwrap(), pec0 + 1);
        // After erase everything reads as 1 (erased).
        let bits = c.read_page(p).unwrap();
        assert_eq!(bits.count_zeros(), 0);
    }

    #[test]
    fn partial_program_requires_programmed_page() {
        let mut c = chip();
        let p = PageId::new(BlockId(1), 0);
        c.erase_block(p.block).unwrap();
        let mask = BitPattern::ones(c.geometry().cells_per_page());
        assert_eq!(c.partial_program(p, &mask), Err(FlashError::PageNotProgrammed(p)));
    }

    #[test]
    fn partial_program_raises_masked_cells_only() {
        let mut c = chip();
        let (p, data) = programmed_page(&mut c);
        let cpp = c.geometry().cells_per_page();
        let before = {
            // Probe twice and average to tame read noise.
            let a = c.probe_voltages(p).unwrap();
            let b = c.probe_voltages(p).unwrap();
            a.iter().zip(&b).map(|(&x, &y)| (f64::from(x) + f64::from(y)) / 2.0).collect::<Vec<_>>()
        };
        // Nudge the first 32 erased cells.
        let mut mask = BitPattern::zeros(cpp);
        let mut n = 0;
        for i in 0..cpp {
            if data.get(i) {
                mask.set(i, true);
                n += 1;
                if n == 32 {
                    break;
                }
            }
        }
        for _ in 0..6 {
            c.partial_program(p, &mask).unwrap();
        }
        let after = c.probe_voltages(p).unwrap();
        let mut rose = 0;
        for i in 0..cpp {
            if mask.get(i) && f64::from(after[i]) > before[i] + 10.0 {
                rose += 1;
            }
        }
        assert!(rose >= 28, "only {rose}/32 masked cells rose");
    }

    #[test]
    fn fine_partial_program_reaches_target_in_one_step() {
        let mut c = chip();
        let (p, data) = programmed_page(&mut c);
        let cpp = c.geometry().cells_per_page();
        let mut mask = BitPattern::zeros(cpp);
        let mut n = 0;
        for i in 0..cpp {
            if data.get(i) {
                mask.set(i, true);
                n += 1;
                if n == 64 {
                    break;
                }
            }
        }
        c.reset_meter();
        c.fine_partial_program(p, &mask, 34).unwrap();
        assert_eq!(c.meter().count(OpKind::PartialProgram), 1);
        let levels = c.probe_voltages(p).unwrap();
        let reached = (0..cpp).filter(|&i| mask.get(i) && levels[i] >= 34).count();
        assert!(reached >= 62, "only {reached}/64 cells reached the target");
    }

    #[test]
    fn fine_partial_program_never_lowers_voltage() {
        let mut c = chip();
        let (p, data) = programmed_page(&mut c);
        let cpp = c.geometry().cells_per_page();
        // Masking programmed cells (already far above target) must not
        // change them.
        let mut mask = BitPattern::zeros(cpp);
        for i in 0..cpp {
            if !data.get(i) {
                mask.set(i, true);
            }
        }
        let before = c.probe_voltages(p).unwrap();
        c.fine_partial_program(p, &mask, 34).unwrap();
        let after = c.probe_voltages(p).unwrap();
        let mut dropped = 0;
        for i in 0..cpp {
            if mask.get(i) && i32::from(after[i]) < i32::from(before[i]) - 3 {
                dropped += 1;
            }
        }
        assert!(dropped < cpp / 500, "{dropped} programmed cells dropped");
    }

    #[test]
    fn voltage_probe_matches_read_bits() {
        let mut c = chip();
        let (p, _) = programmed_page(&mut c);
        let levels = c.probe_voltages(p).unwrap();
        let bits = c.read_page(p).unwrap();
        let mut agree = 0;
        for (i, &level) in levels.iter().enumerate() {
            let by_level = level < SLC_READ_REF;
            if by_level == bits.get(i) {
                agree += 1;
            }
        }
        // Read noise can flip only cells within a few levels of the
        // reference; essentially all cells must agree.
        assert!(agree as f64 / levels.len() as f64 > 0.999);
    }

    #[test]
    fn bad_block_rejected_everywhere() {
        let mut c = chip();
        let b = BlockId(3);
        c.mark_bad(b).unwrap();
        assert!(c.is_bad(b).unwrap());
        let p = PageId::new(b, 0);
        assert_eq!(c.erase_block(b), Err(FlashError::BadBlock(b)));
        assert_eq!(c.read_page(p), Err(FlashError::BadBlock(b)));
        assert_eq!(
            c.program_page(p, &BitPattern::ones(c.geometry().cells_per_page())),
            Err(FlashError::BadBlock(b))
        );
    }

    #[test]
    fn addressing_errors() {
        let mut c = chip();
        assert!(matches!(c.erase_block(BlockId(99)), Err(FlashError::BlockOutOfRange(_))));
        assert!(matches!(
            c.read_page(PageId::new(BlockId(0), 99)),
            Err(FlashError::PageOutOfRange(_))
        ));
        let short = BitPattern::ones(3);
        let p = PageId::new(BlockId(0), 0);
        c.erase_block(BlockId(0)).unwrap();
        assert!(matches!(c.program_page(p, &short), Err(FlashError::PatternLength { .. })));
    }

    #[test]
    fn meter_accounts_operations() {
        let mut c = chip();
        let (p, _) = programmed_page(&mut c);
        c.reset_meter();
        let _ = c.read_page(p).unwrap();
        let _ = c.probe_voltages(p).unwrap();
        let s = c.meter();
        assert_eq!(s.count(OpKind::Read), 1);
        assert_eq!(s.count(OpKind::Probe), 1);
        assert!(s.device_time_us > 0.0);
    }

    #[test]
    fn cycle_block_sets_wear_without_metering() {
        let mut c = chip();
        c.cycle_block(BlockId(0), 1500).unwrap();
        assert_eq!(c.block_pec(BlockId(0)).unwrap(), 1500);
        assert_eq!(c.meter().total_ops(), 0);
    }

    #[test]
    fn wear_shifts_programmed_distribution_right() {
        let mut fresh = Chip::new(ChipProfile::test_small(), 7);
        let mut worn = Chip::new(ChipProfile::test_small(), 7);
        worn.cycle_block(BlockId(0), 3000).unwrap();
        let p = PageId::new(BlockId(0), 0);
        let data = BitPattern::zeros(fresh.geometry().cells_per_page());
        fresh.erase_block(BlockId(0)).unwrap();
        fresh.program_page(p, &data).unwrap();
        worn.erase_block(BlockId(0)).unwrap();
        worn.program_page(p, &data).unwrap();
        let mean = |v: &[Level]| v.iter().map(|&x| f64::from(x)).sum::<f64>() / v.len() as f64;
        let mf = mean(&fresh.probe_voltages(p).unwrap());
        let mw = mean(&worn.probe_voltages(p).unwrap());
        assert!(
            mw > mf + 4.0,
            "worn mean {mw:.2} should sit several levels right of fresh {mf:.2}"
        );
    }

    #[test]
    fn aging_lowers_programmed_voltages_on_worn_blocks() {
        let mut c = chip();
        c.cycle_block(BlockId(0), 2000).unwrap();
        let p = PageId::new(BlockId(0), 0);
        c.erase_block(BlockId(0)).unwrap();
        c.program_page(p, &BitPattern::zeros(c.geometry().cells_per_page())).unwrap();
        let before = c.probe_voltages(p).unwrap();
        c.age_days(120.0);
        let after = c.probe_voltages(p).unwrap();
        let mean = |v: &[Level]| v.iter().map(|&x| f64::from(x)).sum::<f64>() / v.len() as f64;
        let (mb, ma) = (mean(&before), mean(&after));
        assert!(ma < mb - 0.5, "aging should lower mean: before {mb:.2}, after {ma:.2}");
    }

    #[test]
    fn aging_composes_incrementally() {
        // Aging 30 then 90 days must equal aging 120 days in expectation.
        let run = |split: bool| {
            let mut c = Chip::new(ChipProfile::test_small(), 21);
            c.cycle_block(BlockId(0), 2000).unwrap();
            let p = PageId::new(BlockId(0), 0);
            c.erase_block(BlockId(0)).unwrap();
            c.program_page(p, &BitPattern::zeros(c.geometry().cells_per_page())).unwrap();
            if split {
                c.age_days(30.0);
                c.age_days(90.0);
            } else {
                c.age_days(120.0);
            }
            let v = c.probe_voltages(p).unwrap();
            v.iter().map(|&x| f64::from(x)).sum::<f64>() / v.len() as f64
        };
        let a = run(true);
        let b = run(false);
        assert!((a - b).abs() < 0.5, "split {a:.3} vs whole {b:.3}");
    }

    #[test]
    fn discard_keeps_wear_and_identity() {
        let mut c = chip();
        c.cycle_block(BlockId(2), 777).unwrap();
        c.discard_block_state(BlockId(2)).unwrap();
        assert_eq!(c.block_pec(BlockId(2)).unwrap(), 777);
        // Block reads as erased after re-materialization.
        let bits = c.read_page(PageId::new(BlockId(2), 0)).unwrap();
        assert_eq!(bits.count_zeros(), 0);
    }

    #[test]
    fn stress_then_probe_shows_contrast() {
        let mut c = chip();
        let p = PageId::new(BlockId(0), 0);
        c.erase_block(BlockId(0)).unwrap();
        let cpp = c.geometry().cells_per_page();
        // Stress the first half of the page heavily.
        let mut mask = BitPattern::zeros(cpp);
        for i in 0..cpp / 2 {
            mask.set(i, true);
        }
        c.stress_cells(p, &mask, 625).unwrap();
        c.erase_block(BlockId(0)).unwrap();
        c.program_page(
            p,
            &BitPattern::random_half(&mut rand::rngs::SmallRng::seed_from_u64(1), cpp),
        )
        .unwrap();
        let steps = c.program_time_probe(p, 30).unwrap();
        let mean = |s: &[u16]| s.iter().map(|&x| f64::from(x)).sum::<f64>() / s.len() as f64;
        let stressed = mean(&steps[..cpp / 2]);
        let normal = mean(&steps[cpp / 2..]);
        assert!(
            normal - stressed > 1.0,
            "stressed cells should cross earlier: {stressed:.2} vs {normal:.2}"
        );
    }

    #[test]
    fn program_time_probe_is_destructive_and_metered() {
        let mut c = chip();
        let (p, _) = programmed_page(&mut c);
        c.reset_meter();
        let _ = c.program_time_probe(p, 30).unwrap();
        let s = c.meter();
        assert_eq!(s.count(OpKind::PartialProgram), 30);
        assert_eq!(s.count(OpKind::Read), 30);
        // Page is now garbage: nearly everything reads programmed.
        let bits = c.read_page(p).unwrap();
        assert!(bits.count_zeros() > bits.len() * 9 / 10);
    }

    #[test]
    fn determinism_same_seed_same_behaviour() {
        let run = || {
            let mut c = Chip::new(ChipProfile::test_small(), 1234);
            let (p, _) = programmed_page(&mut c);
            c.probe_voltages(p).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed| {
            let mut c = Chip::new(ChipProfile::test_small(), seed);
            let (p, _) = programmed_page(&mut c);
            c.probe_voltages(p).unwrap()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn chip_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Chip>();
    }

    #[test]
    fn grown_bad_block_reads_but_rejects_writes() {
        let mut c = chip();
        let (p, data) = programmed_page(&mut c);
        let b = p.block;
        c.grow_bad_block(b).unwrap();
        assert!(c.is_grown_bad(b).unwrap());
        // Data written before the block grew bad is still readable...
        let back = c.read_page(p).unwrap();
        assert!(back.hamming_distance(&data) <= 2);
        // ...but program/PP/erase are rejected, typed.
        assert_eq!(c.erase_block(b), Err(FlashError::GrownBadBlock(b)));
        let mask = BitPattern::ones(c.geometry().cells_per_page());
        assert_eq!(c.partial_program(p, &mask), Err(FlashError::GrownBadBlock(b)));
        assert_eq!(c.program_page(PageId::new(b, 7), &mask), Err(FlashError::GrownBadBlock(b)));
    }

    #[test]
    fn read_noise_scale_default_is_exactly_one() {
        // The scale is *always* multiplied into the read path; `x * 1.0 == x`
        // in IEEE arithmetic, so the default must be bit-exactly 1.0 for the
        // no-middleware path to stay byte-identical to the pre-middleware
        // chip.
        let c = chip();
        assert_eq!(c.read_noise_scale().to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn snapshot_roundtrip_resumes_identical_streams() {
        use crate::snapshot::{DeviceState, StateReader, StateWriter};
        let mut c = chip();
        let (p, _) = programmed_page(&mut c);
        c.cycle_block(BlockId(1), 250).unwrap();
        c.age_days(3.0);

        let mut w = StateWriter::new();
        c.save_state(&mut w);
        let bytes = w.into_bytes();

        // Restore into a freshly constructed chip of the same profile/seed,
        // then drive both forward: every draw must match bit-for-bit.
        let mut restored = chip();
        restored.load_state(&mut StateReader::new(&bytes)).unwrap();
        assert_eq!(restored.meter(), c.meter());
        assert_eq!(restored.block_pec(BlockId(1)).unwrap(), 250);
        for _ in 0..3 {
            assert_eq!(c.probe_voltages(p).unwrap(), restored.probe_voltages(p).unwrap());
        }
        let mask = BitPattern::ones(c.geometry().cells_per_page());
        c.partial_program(p, &mask).unwrap();
        restored.partial_program(p, &mask).unwrap();
        assert_eq!(c.probe_voltages(p).unwrap(), restored.probe_voltages(p).unwrap());
    }

    #[test]
    fn clone_mid_stretch_continues_identically() {
        use crate::snapshot::{DeviceState, StateWriter};
        let bytes = |c: &Chip| {
            let mut w = StateWriter::new();
            c.save_state(&mut w);
            w.into_bytes()
        };
        let mut c = chip();
        let (p, _) = programmed_page(&mut c);
        // An odd number of single draws leaves the generator mid-stretch,
        // off a pair boundary.
        c.read_page(p).unwrap();
        rand::RngCore::next_u64(&mut c.rng);
        let mut twin = c.clone();
        assert_eq!(bytes(&twin), bytes(&c));
        let mask = BitPattern::ones(c.geometry().cells_per_page());
        for _ in 0..3 {
            assert_eq!(c.read_page(p).unwrap(), twin.read_page(p).unwrap());
            assert_eq!(c.probe_voltages(p).unwrap(), twin.probe_voltages(p).unwrap());
            c.partial_program(p, &mask).unwrap();
            twin.partial_program(p, &mask).unwrap();
        }
        c.erase_block(p.block).unwrap();
        twin.erase_block(p.block).unwrap();
        assert_eq!(bytes(&twin), bytes(&c));
        assert_eq!(c.rng, twin.rng);
    }

    #[test]
    fn snapshot_rejects_wrong_seed() {
        use crate::snapshot::{DeviceState, SnapshotError, StateReader, StateWriter};
        let c = Chip::new(ChipProfile::test_small(), 1);
        let mut w = StateWriter::new();
        c.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut other = Chip::new(ChipProfile::test_small(), 2);
        assert!(matches!(
            other.load_state(&mut StateReader::new(&bytes)),
            Err(SnapshotError::Mismatch(_))
        ));
    }

    #[test]
    fn advance_time_accumulates_wait() {
        let mut c = chip();
        c.advance_time_us(250.0);
        c.advance_time_us(750.0);
        assert!((c.meter().wait_time_us - 1000.0).abs() < 1e-9);
        assert_eq!(c.meter().total_ops(), 0);
    }
}
