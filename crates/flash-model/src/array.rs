//! A multi-chip NAND array behind the single-device command surface.
//!
//! [`ArrayDevice`] gangs N independent [`NandDevice`] backends into one
//! device with a widened block address space: the top block bits select the
//! chip, so global block `b` lives on chip `b / local_blocks` at local block
//! `b % local_blocks`. Every layer written against [`NandDevice`] — the
//! hider, the FTL, the hidden volume — runs unchanged on an array; a bare
//! [`Chip`] is simply the degenerate N=1 case.
//!
//! # Determinism contract
//!
//! * Each chip keeps its own RNG streams, meter and clock. A command routed
//!   to chip `c` consumes only chip `c`'s randomness, so per-chip digests
//!   are independent of what the other chips are doing.
//! * With N=1 the array is a pure pass-through: same addresses, same RNG
//!   draws, same meter — byte-identical to driving the inner chip directly
//!   (locked in by `tests/backend_parity.rs`).
//! * The array dispatches one call at a time: each method routes to the
//!   owning chip, and device-wide calls (aging, waits) go to every chip in
//!   address order. [`exec`](NandDevice::exec) is the trait's sequential
//!   loop over those methods.
//! * The aggregate meter is the per-chip sum: `device_time_us` is total
//!   chip-busy time across the array (not wall-clock makespan), and
//!   device-wide waits/aging are billed once per chip.
//!
//! Errors crossing the array boundary are rebased to global addresses, so
//! callers never observe chip-local block ids.

use crate::bits::BitPattern;
use crate::chip::Chip;
use crate::device::{NandDevice, WearSummary};
use crate::error::FlashError;
use crate::geometry::{BlockId, Geometry, PageId};
use crate::meter::{FaultKind, MeterSnapshot, OpKind};
use crate::profile::ChipProfile;
use crate::recorder::{SharedFlightSink, SharedRecorder};
use crate::{Level, Result};

/// Per-chip seed stride for [`ArrayDevice::homogeneous`]: chip `i` gets
/// `seed ^ (i * STRIDE)`, so chip 0 keeps the caller's seed (N=1 parity)
/// while later chips draw decorrelated streams.
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// An N-chip NAND array that is itself a [`NandDevice`] with a widened
/// address space. See the [module docs](self) for the addressing map and
/// determinism contract.
#[derive(Debug, Clone)]
pub struct ArrayDevice<D> {
    chips: Vec<D>,
    geometry: Geometry,
    local_blocks: u32,
}

impl<D: NandDevice> ArrayDevice<D> {
    /// Gangs `chips` into one array. All chips must share a geometry; their
    /// calibration profiles may differ (a heterogeneous array is legal, the
    /// array-level [`profile`](NandDevice::profile) reports chip 0's).
    ///
    /// # Panics
    ///
    /// Panics on an empty chip list or mismatched geometries — both are
    /// construction bugs, not runtime conditions.
    pub fn new(chips: Vec<D>) -> Self {
        assert!(!chips.is_empty(), "ArrayDevice requires at least one chip");
        let local = *chips[0].geometry();
        for (i, c) in chips.iter().enumerate() {
            assert!(
                *c.geometry() == local,
                "ArrayDevice chips must share a geometry (chip {i} differs)"
            );
        }
        let geometry = Geometry {
            blocks_per_chip: local.blocks_per_chip * chips.len() as u32,
            pages_per_block: local.pages_per_block,
            page_bytes: local.page_bytes,
        };
        Self { chips, geometry, local_blocks: local.blocks_per_chip }
    }

    /// The chips in address order.
    pub fn chips(&self) -> &[D] {
        &self.chips
    }

    /// Borrows chip `i` (panics out of range).
    pub fn chip(&self, i: usize) -> &D {
        &self.chips[i]
    }

    /// Mutably borrows chip `i` (panics out of range) — the escape hatch
    /// chaos tests use to kill or inspect one member of the array.
    pub fn chip_mut(&mut self, i: usize) -> &mut D {
        &mut self.chips[i]
    }

    /// Blocks per member chip (the widened geometry exposes
    /// `chips × local_blocks`).
    pub fn local_blocks(&self) -> u32 {
        self.local_blocks
    }

    /// The chip owning a global block, or `None` outside the array.
    pub fn chip_of_block(&self, b: BlockId) -> Option<usize> {
        self.geometry.contains_block(b).then(|| (b.0 / self.local_blocks) as usize)
    }

    /// Chip `i`'s own meter — per-chip attribution of the aggregate
    /// [`meter`](NandDevice::meter).
    pub fn chip_meter(&self, i: usize) -> MeterSnapshot {
        self.chips[i].meter()
    }

    /// Chip `i`'s own wear census — per-chip attribution of the aggregate
    /// [`wear_summary`](NandDevice::wear_summary).
    pub fn chip_wear_summary(&self, i: usize) -> WearSummary {
        self.chips[i].wear_summary()
    }

    /// `(chip, local block)` for a global block; out-of-range blocks route
    /// to chip 0 *untranslated* so the member chip rejects them with the
    /// original global address in the error.
    fn locate_block(&self, b: BlockId) -> (usize, BlockId) {
        if self.geometry.contains_block(b) {
            ((b.0 / self.local_blocks) as usize, BlockId(b.0 % self.local_blocks))
        } else {
            (0, b)
        }
    }

    /// `(chip, local page)` for a global page (block part translated as in
    /// [`locate_block`](Self::locate_block)).
    fn locate_page(&self, p: PageId) -> (usize, PageId) {
        let (c, lb) = self.locate_block(p.block);
        (c, PageId::new(lb, p.page))
    }
}

impl ArrayDevice<Chip> {
    /// An N-chip array of identically profiled [`Chip`]s. Chip `i` is
    /// seeded `seed ^ (i × stride)`, so chip 0 matches a bare
    /// `Chip::new(profile, seed)` exactly and `homogeneous(profile, 1,
    /// seed)` is byte-identical to that chip.
    pub fn homogeneous(profile: ChipProfile, n: u32, seed: u64) -> Self {
        assert!(n >= 1, "ArrayDevice requires at least one chip");
        let chips = (0..n)
            .map(|i| Chip::new(profile.clone(), seed ^ u64::from(i).wrapping_mul(SEED_STRIDE)))
            .collect();
        Self::new(chips)
    }
}

/// Rewrites chip-local addresses inside an error back into global array
/// space (`base` = the owning chip's first global block).
fn rebase_error(e: FlashError, base: u32) -> FlashError {
    if base == 0 {
        return e;
    }
    let rb = |b: BlockId| BlockId(b.0 + base);
    let rp = |p: PageId| PageId::new(BlockId(p.block.0 + base), p.page);
    match e {
        FlashError::BlockOutOfRange(b) => FlashError::BlockOutOfRange(rb(b)),
        FlashError::PageOutOfRange(p) => FlashError::PageOutOfRange(rp(p)),
        FlashError::PageAlreadyProgrammed(p) => FlashError::PageAlreadyProgrammed(rp(p)),
        FlashError::PageNotProgrammed(p) => FlashError::PageNotProgrammed(rp(p)),
        FlashError::BadBlock(b) => FlashError::BadBlock(rb(b)),
        FlashError::TransientProgramFail(p) => FlashError::TransientProgramFail(rp(p)),
        FlashError::EraseFail(b) => FlashError::EraseFail(rb(b)),
        FlashError::GrownBadBlock(b) => FlashError::GrownBadBlock(rb(b)),
        FlashError::PatternLength { .. } | FlashError::PowerLoss => e,
    }
}

impl<D: NandDevice> NandDevice for ArrayDevice<D> {
    fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    fn profile(&self) -> &ChipProfile {
        self.chips[0].profile()
    }

    fn seed(&self) -> u64 {
        self.chips[0].seed()
    }

    fn chip_count(&self) -> u32 {
        self.chips.len() as u32
    }

    /// The per-chip sum (see the [module docs](self) for the time
    /// semantics). Use [`ArrayDevice::chip_meter`] for attribution.
    fn meter(&self) -> MeterSnapshot {
        let mut total = self.chips[0].meter();
        for chip in &self.chips[1..] {
            total.absorb(&chip.meter());
        }
        total
    }

    fn reset_meter(&mut self) {
        for chip in &mut self.chips {
            chip.reset_meter();
        }
    }

    /// Array-level charges (retries billed by middleware or the FTL) land
    /// on chip 0, keeping the aggregate sum exact.
    fn record_op(&mut self, kind: OpKind) {
        self.chips[0].record_op(kind);
    }

    fn record_fault(&mut self, kind: FaultKind) {
        self.chips[0].record_fault(kind);
    }

    fn install_recorder(&mut self, recorder: Option<SharedRecorder>) {
        for chip in &mut self.chips {
            chip.install_recorder(recorder.clone());
        }
    }

    fn install_flight_sink(&mut self, sink: Option<SharedFlightSink>) {
        for chip in &mut self.chips {
            chip.install_flight_sink(sink.clone());
        }
    }

    fn advance_time_us(&mut self, us: f64) {
        for chip in &mut self.chips {
            chip.advance_time_us(us);
        }
    }

    fn set_read_noise_scale(&mut self, scale: f64) {
        for chip in &mut self.chips {
            chip.set_read_noise_scale(scale);
        }
    }

    fn block_pec(&self, b: BlockId) -> Result<u32> {
        let (c, lb) = self.locate_block(b);
        self.chips[c].block_pec(lb).map_err(|e| rebase_error(e, b.0 - lb.0))
    }

    fn mark_bad(&mut self, b: BlockId) -> Result<()> {
        let (c, lb) = self.locate_block(b);
        self.chips[c].mark_bad(lb).map_err(|e| rebase_error(e, b.0 - lb.0))
    }

    fn is_bad(&self, b: BlockId) -> Result<bool> {
        let (c, lb) = self.locate_block(b);
        self.chips[c].is_bad(lb).map_err(|e| rebase_error(e, b.0 - lb.0))
    }

    fn grow_bad_block(&mut self, b: BlockId) -> Result<()> {
        let (c, lb) = self.locate_block(b);
        self.chips[c].grow_bad_block(lb).map_err(|e| rebase_error(e, b.0 - lb.0))
    }

    fn is_grown_bad(&self, b: BlockId) -> Result<bool> {
        let (c, lb) = self.locate_block(b);
        self.chips[c].is_grown_bad(lb).map_err(|e| rebase_error(e, b.0 - lb.0))
    }

    /// Concatenates the member chips' censuses in address order — identical
    /// to the default block walk, without N × blocks trait dispatches.
    fn wear_summary(&self) -> WearSummary {
        let mut per_block_pec = Vec::with_capacity(self.geometry.blocks_per_chip as usize);
        let mut grown_bad_blocks = 0u32;
        for chip in &self.chips {
            let w = chip.wear_summary();
            per_block_pec.extend(w.per_block_pec);
            grown_bad_blocks += w.grown_bad_blocks;
        }
        WearSummary { per_block_pec, grown_bad_blocks }
    }

    fn is_page_programmed(&self, p: PageId) -> Result<bool> {
        let (c, lp) = self.locate_page(p);
        self.chips[c].is_page_programmed(lp).map_err(|e| rebase_error(e, p.block.0 - lp.block.0))
    }

    fn discard_block_state(&mut self, b: BlockId) -> Result<()> {
        let (c, lb) = self.locate_block(b);
        self.chips[c].discard_block_state(lb).map_err(|e| rebase_error(e, b.0 - lb.0))
    }

    fn erase_block(&mut self, b: BlockId) -> Result<()> {
        let (c, lb) = self.locate_block(b);
        self.chips[c].erase_block(lb).map_err(|e| rebase_error(e, b.0 - lb.0))
    }

    fn cycle_block(&mut self, b: BlockId, n: u32) -> Result<()> {
        let (c, lb) = self.locate_block(b);
        self.chips[c].cycle_block(lb, n).map_err(|e| rebase_error(e, b.0 - lb.0))
    }

    fn program_page(&mut self, p: PageId, data: &BitPattern) -> Result<()> {
        let (c, lp) = self.locate_page(p);
        self.chips[c].program_page(lp, data).map_err(|e| rebase_error(e, p.block.0 - lp.block.0))
    }

    fn program_page_with_spare(
        &mut self,
        p: PageId,
        data: &BitPattern,
        spare: &[u8],
    ) -> Result<()> {
        let (c, lp) = self.locate_page(p);
        self.chips[c]
            .program_page_with_spare(lp, data, spare)
            .map_err(|e| rebase_error(e, p.block.0 - lp.block.0))
    }

    fn read_spare(&mut self, p: PageId) -> Result<Option<Vec<u8>>> {
        let (c, lp) = self.locate_page(p);
        self.chips[c].read_spare(lp).map_err(|e| rebase_error(e, p.block.0 - lp.block.0))
    }

    fn torn_program_page(&mut self, p: PageId, data: &BitPattern, fraction: f64) -> Result<()> {
        let (c, lp) = self.locate_page(p);
        self.chips[c]
            .torn_program_page(lp, data, fraction)
            .map_err(|e| rebase_error(e, p.block.0 - lp.block.0))
    }

    fn torn_partial_program(&mut self, p: PageId, mask: &BitPattern, fraction: f64) -> Result<()> {
        let (c, lp) = self.locate_page(p);
        self.chips[c]
            .torn_partial_program(lp, mask, fraction)
            .map_err(|e| rebase_error(e, p.block.0 - lp.block.0))
    }

    fn torn_erase_block(&mut self, b: BlockId, fraction: f64) -> Result<()> {
        let (c, lb) = self.locate_block(b);
        self.chips[c].torn_erase_block(lb, fraction).map_err(|e| rebase_error(e, b.0 - lb.0))
    }

    fn partial_program(&mut self, p: PageId, mask: &BitPattern) -> Result<()> {
        let (c, lp) = self.locate_page(p);
        self.chips[c].partial_program(lp, mask).map_err(|e| rebase_error(e, p.block.0 - lp.block.0))
    }

    fn fine_partial_program(&mut self, p: PageId, mask: &BitPattern, target: Level) -> Result<()> {
        let (c, lp) = self.locate_page(p);
        self.chips[c]
            .fine_partial_program(lp, mask, target)
            .map_err(|e| rebase_error(e, p.block.0 - lp.block.0))
    }

    fn read_page_shifted_into(
        &mut self,
        p: PageId,
        vref: Level,
        out: &mut BitPattern,
    ) -> Result<()> {
        let (c, lp) = self.locate_page(p);
        self.chips[c]
            .read_page_shifted_into(lp, vref, out)
            .map_err(|e| rebase_error(e, p.block.0 - lp.block.0))
    }

    fn probe_voltages_into(&mut self, p: PageId, out: &mut Vec<Level>) -> Result<()> {
        let (c, lp) = self.locate_page(p);
        self.chips[c]
            .probe_voltages_into(lp, out)
            .map_err(|e| rebase_error(e, p.block.0 - lp.block.0))
    }

    fn age_days(&mut self, days: f64) {
        for chip in &mut self.chips {
            chip.age_days(days);
        }
    }

    fn stress_cells(&mut self, p: PageId, mask: &BitPattern, cycles: u32) -> Result<()> {
        let (c, lp) = self.locate_page(p);
        self.chips[c]
            .stress_cells(lp, mask, cycles)
            .map_err(|e| rebase_error(e, p.block.0 - lp.block.0))
    }

    fn program_time_probe(&mut self, p: PageId, steps: u16) -> Result<Vec<u16>> {
        let (c, lp) = self.locate_page(p);
        self.chips[c]
            .program_time_probe(lp, steps)
            .map_err(|e| rebase_error(e, p.block.0 - lp.block.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SLC_READ_REF;

    fn array(n: u32) -> ArrayDevice<Chip> {
        ArrayDevice::homogeneous(ChipProfile::test_small(), n, 0xA11A7)
    }

    #[test]
    fn widened_geometry_and_addressing_map() {
        let arr = array(4);
        let local = ChipProfile::test_small().geometry.blocks_per_chip;
        assert_eq!(arr.geometry().blocks_per_chip, 4 * local);
        assert_eq!(arr.chip_count(), 4);
        assert_eq!(arr.local_blocks(), local);
        assert_eq!(arr.chip_of_block(BlockId(0)), Some(0));
        assert_eq!(arr.chip_of_block(BlockId(local)), Some(1));
        assert_eq!(arr.chip_of_block(BlockId(4 * local - 1)), Some(3));
        assert_eq!(arr.chip_of_block(BlockId(4 * local)), None);
    }

    #[test]
    fn n1_array_is_byte_identical_to_the_bare_chip() {
        let mut bare = Chip::new(ChipProfile::test_small(), 0xA11A7);
        let mut arr = array(1);
        let p = PageId::new(BlockId(1), 2);
        let data = BitPattern::zeros(bare.geometry().cells_per_page());

        bare.erase_block(p.block).unwrap();
        bare.program_page(p, &data).unwrap();
        arr.erase_block(p.block).unwrap();
        arr.program_page(p, &data).unwrap();

        assert_eq!(
            bare.read_page_shifted(p, SLC_READ_REF).unwrap(),
            arr.read_page_shifted(p, SLC_READ_REF).unwrap()
        );
        assert_eq!(bare.probe_voltages(p).unwrap(), arr.probe_voltages(p).unwrap());
        assert_eq!(bare.meter(), arr.meter());
    }

    #[test]
    fn operations_route_to_the_owning_chip_only() {
        let mut arr = array(2);
        let local = arr.local_blocks();
        let global = BlockId(local + 3); // chip 1, local block 3
        arr.cycle_block(global, 17).unwrap();
        assert_eq!(arr.block_pec(global).unwrap(), 17);
        assert_eq!(arr.chip(1).block_pec(BlockId(3)).unwrap(), 17);
        assert_eq!(arr.chip(0).block_pec(BlockId(3)).unwrap(), 0);
        // Per-chip attribution: only chip 1's meter moved.
        assert_eq!(arr.chip_meter(0), MeterSnapshot::default());
    }

    #[test]
    fn errors_surface_global_addresses() {
        let mut arr = array(2);
        let local = arr.local_blocks();
        let beyond = BlockId(2 * local + 1);
        assert_eq!(arr.erase_block(beyond), Err(FlashError::BlockOutOfRange(beyond)));

        let on_chip1 = BlockId(local + 2);
        arr.grow_bad_block(on_chip1).unwrap();
        assert_eq!(arr.erase_block(on_chip1), Err(FlashError::GrownBadBlock(on_chip1)));
        let bad_page = PageId::new(on_chip1, 0);
        let data = BitPattern::zeros(arr.geometry().cells_per_page());
        assert_eq!(arr.program_page(bad_page, &data), Err(FlashError::GrownBadBlock(on_chip1)));

        // The read paths the FTL mount and hidden reveal call directly.
        let marked = BlockId(local + 3);
        arr.mark_bad(marked).unwrap();
        let page = PageId::new(marked, 1);
        let bad = Err(FlashError::BadBlock(marked));
        assert_eq!(arr.read_page(page), bad);
        assert_eq!(arr.read_page_shifted(page, SLC_READ_REF), bad);
        assert_eq!(arr.read_spare(page), Err(FlashError::BadBlock(marked)));
        let past_end = PageId::new(on_chip1, arr.geometry().pages_per_block);
        assert_eq!(arr.read_page(past_end), Err(FlashError::PageOutOfRange(past_end)));
        assert_eq!(arr.read_spare(past_end), Err(FlashError::PageOutOfRange(past_end)));
    }

    #[test]
    fn aggregate_meter_and_wear_attribute_per_chip() {
        let mut arr = array(2);
        let local = arr.local_blocks();
        arr.cycle_block(BlockId(0), 5).unwrap();
        arr.cycle_block(BlockId(local), 9).unwrap();
        arr.grow_bad_block(BlockId(local + 1)).unwrap();

        let w = arr.wear_summary();
        assert_eq!(w.per_block_pec.len(), 2 * local as usize);
        assert_eq!(w.per_block_pec[0], 5);
        assert_eq!(w.per_block_pec[local as usize], 9);
        assert_eq!(w.grown_bad_blocks, 1);
        assert_eq!(arr.chip_wear_summary(0).grown_bad_blocks, 0);
        assert_eq!(arr.chip_wear_summary(1).grown_bad_blocks, 1);

        let m0 = arr.chip_meter(0);
        let m1 = arr.chip_meter(1);
        let mut sum = m0;
        sum.absorb(&m1);
        assert_eq!(arr.meter(), sum);
    }

    #[test]
    fn device_wide_commands_hit_every_chip() {
        let mut arr = array(3);
        arr.advance_time_us(40.0);
        for i in 0..3 {
            assert!((arr.chip_meter(i).wait_time_us - 40.0).abs() < 1e-9);
        }
        // Aggregate bills the wait once per chip (documented semantics).
        assert!((arr.meter().wait_time_us - 120.0).abs() < 1e-9);
    }
}
