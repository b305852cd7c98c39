//! The NAND command surface as a trait, plus sequential command dispatch.
//!
//! [`NandDevice`] captures the tester-level command set of [`Chip`] —
//! erase/program/partial-program, plain and threshold-shifted reads, the
//! voltage probe, preconditioning and aging, bad-block management, and the
//! meter/time accessors — so the layers above (the VT-HI hider, PT-HI, the
//! FTL, the hidden volume, recovery/scrub) can be written once and run
//! against any backend: a bare [`Chip`], an [`ArrayDevice`](crate::ArrayDevice),
//! a chip wrapped in fault-injection, tracing, flight-recording or
//! power-cut middleware ([`Layer`](crate::middleware::Layer)), or a future
//! non-NAND medium.
//!
//! Every backend, arrays included, is driven one direct call at a time.
//! [`NandDevice::exec`] is a sequential loop over those calls: a slice of
//! [`NandCmd`]s dispatched in order, each outcome a [`CmdResult`]. No
//! library layer issues it; it is kept for wrappers outside the library
//! that still name the command types.
//!
//! [`Op`] is a command with borrowed operands, the unit the middleware
//! hooks see; [`Op::footprint`] is the one table of what each command
//! bills to the meter.
//!
//! Determinism contract: a device wrapper must forward commands without
//! consuming the wrapped device's RNG streams or reordering its operations;
//! decorating a chip with no-op middleware yields byte-identical voltages,
//! reads and meter snapshots (tested in `tests/backend_parity.rs`).
//!
//! [`Chip`]: crate::Chip

use crate::bits::BitPattern;
use crate::geometry::{BlockId, Geometry, PageId};
use crate::meter::{FaultKind, MeterSnapshot, OpKind};
use crate::profile::ChipProfile;
use crate::recorder::{SharedFlightSink, SharedRecorder};
use crate::{Level, Result, SLC_READ_REF};

/// One queued device command for [`NandDevice::exec`].
///
/// Each variant mirrors a [`NandDevice`] method; the batched form lets a
/// host hand a device a command queue.
#[derive(Debug, Clone, PartialEq)]
pub enum NandCmd {
    /// [`NandDevice::erase_block`].
    EraseBlock(BlockId),
    /// [`NandDevice::cycle_block`].
    CycleBlock(BlockId, u32),
    /// [`NandDevice::program_page`].
    ProgramPage(PageId, BitPattern),
    /// [`NandDevice::partial_program`].
    PartialProgram(PageId, BitPattern),
    /// [`NandDevice::fine_partial_program`].
    FinePartialProgram(PageId, BitPattern, Level),
    /// [`NandDevice::read_page`].
    ReadPage(PageId),
    /// [`NandDevice::read_page_shifted`].
    ReadPageShifted(PageId, Level),
    /// [`NandDevice::read_page_sweep`]: one read of the same page at each
    /// reference voltage, byte-identical to (and billed as) the equivalent
    /// sequence of [`NandDevice::read_page_shifted`] calls.
    ReadPageSweep(PageId, Vec<Level>),
    /// [`NandDevice::read_spare`].
    ReadSpare(PageId),
    /// [`NandDevice::probe_voltages`].
    ProbeVoltages(PageId),
    /// [`NandDevice::stress_cells`].
    StressCells(PageId, BitPattern, u32),
    /// [`NandDevice::program_time_probe`].
    ProgramTimeProbe(PageId, u16),
    /// [`NandDevice::age_days`].
    AgeDays(f64),
    /// [`NandDevice::advance_time_us`].
    AdvanceTimeUs(f64),
    /// [`NandDevice::mark_bad`].
    MarkBad(BlockId),
    /// [`NandDevice::grow_bad_block`].
    GrowBadBlock(BlockId),
    /// [`NandDevice::discard_block_state`].
    DiscardBlockState(BlockId),
}

/// The outcome of one [`NandCmd`], shaped by the command's return type.
#[derive(Debug, Clone, PartialEq)]
pub enum CmdResult {
    /// Outcome of a command returning no data.
    Unit(Result<()>),
    /// Outcome of a page read.
    Bits(Result<BitPattern>),
    /// Outcome of a multi-`vref` sweep read, one pattern per reference.
    Sweep(Result<Vec<BitPattern>>),
    /// Outcome of a spare-area read.
    Spare(Result<Option<Vec<u8>>>),
    /// Outcome of a voltage probe.
    Levels(Result<Vec<Level>>),
    /// Outcome of a program-time probe.
    Steps(Result<Vec<u16>>),
}

impl CmdResult {
    /// Whether the command succeeded.
    pub fn is_ok(&self) -> bool {
        match self {
            CmdResult::Unit(r) => r.is_ok(),
            CmdResult::Bits(r) => r.is_ok(),
            CmdResult::Sweep(r) => r.is_ok(),
            CmdResult::Spare(r) => r.is_ok(),
            CmdResult::Levels(r) => r.is_ok(),
            CmdResult::Steps(r) => r.is_ok(),
        }
    }
}

/// Dispatches one command through the trait surface — the scalar kernel
/// both the default [`NandDevice::exec`] loop and middleware that must
/// observe each command individually are built from.
pub(crate) fn dispatch_one<D: NandDevice + ?Sized>(dev: &mut D, cmd: &NandCmd) -> CmdResult {
    match cmd {
        NandCmd::EraseBlock(b) => CmdResult::Unit(dev.erase_block(*b)),
        NandCmd::CycleBlock(b, n) => CmdResult::Unit(dev.cycle_block(*b, *n)),
        NandCmd::ProgramPage(p, data) => CmdResult::Unit(dev.program_page(*p, data)),
        NandCmd::PartialProgram(p, mask) => CmdResult::Unit(dev.partial_program(*p, mask)),
        NandCmd::FinePartialProgram(p, mask, target) => {
            CmdResult::Unit(dev.fine_partial_program(*p, mask, *target))
        }
        NandCmd::ReadPage(p) => CmdResult::Bits(dev.read_page(*p)),
        NandCmd::ReadPageShifted(p, vref) => CmdResult::Bits(dev.read_page_shifted(*p, *vref)),
        NandCmd::ReadPageSweep(p, vrefs) => CmdResult::Sweep(dev.read_page_sweep(*p, vrefs)),
        NandCmd::ReadSpare(p) => CmdResult::Spare(dev.read_spare(*p)),
        NandCmd::ProbeVoltages(p) => CmdResult::Levels(dev.probe_voltages(*p)),
        NandCmd::StressCells(p, mask, cycles) => {
            CmdResult::Unit(dev.stress_cells(*p, mask, *cycles))
        }
        NandCmd::ProgramTimeProbe(p, steps) => CmdResult::Steps(dev.program_time_probe(*p, *steps)),
        NandCmd::AgeDays(days) => {
            dev.age_days(*days);
            CmdResult::Unit(Ok(()))
        }
        NandCmd::AdvanceTimeUs(us) => {
            dev.advance_time_us(*us);
            CmdResult::Unit(Ok(()))
        }
        NandCmd::MarkBad(b) => CmdResult::Unit(dev.mark_bad(*b)),
        NandCmd::GrowBadBlock(b) => CmdResult::Unit(dev.grow_bad_block(*b)),
        NandCmd::DiscardBlockState(b) => CmdResult::Unit(dev.discard_block_state(*b)),
    }
}

/// One addressed device command with borrowed operands: what a
/// middleware hook gates and observes, and the key of the billing table
/// [`Op::footprint`]. Several trait methods share a variant: the spare
/// and torn forms of a program, a fine PP and its coarse sibling, and every
/// page read at a reference voltage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op<'a> {
    /// `erase_block`, `torn_erase_block`.
    Erase(BlockId),
    /// `cycle_block`: unmetered preconditioning.
    Cycle(BlockId),
    /// `program_page[_with_spare]`, `torn_program_page`, with the data.
    Program(PageId, &'a BitPattern),
    /// `[fine_]partial_program`, `torn_partial_program`, with the mask.
    PartialProgram(PageId, &'a BitPattern),
    /// `read_page`, `read_page_shifted[_into]`, at the reference voltage.
    Read(PageId, Level),
    /// `read_page_sweep`, one read per reference voltage. Middleware sees
    /// a sweep as the `Read`s it is made of.
    Sweep(PageId, &'a [Level]),
    /// `read_spare`.
    Spare(PageId),
    /// `probe_voltages[_into]`.
    Probe(PageId),
    /// `stress_cells`, with the mask and the cycle count.
    Stress(PageId, &'a BitPattern, u32),
    /// `program_time_probe`, with the step count.
    ProgramTimeProbe(PageId, u16),
}

impl Op<'_> {
    /// The billing table: the command bills `count` repetitions of the op
    /// kinds in `step` to the meter — one program per stress cycle, one
    /// read per sweep reference, a partial program then a read per
    /// program-time-probe step. Preconditioning bills nothing. Tracing and
    /// flight recording report exactly this, and the power-cut clock gates
    /// a command under its first kind.
    pub fn footprint(&self) -> (&'static [OpKind], u64) {
        use OpKind::{Erase, PartialProgram, Probe, Program, Read};
        match *self {
            Op::Erase(_) => (&[Erase], 1),
            Op::Cycle(_) => (&[], 0),
            Op::Program(..) => (&[Program], 1),
            Op::PartialProgram(..) => (&[PartialProgram], 1),
            Op::Read(..) | Op::Spare(_) => (&[Read], 1),
            Op::Sweep(_, vrefs) => (&[Read], vrefs.len() as u64),
            Op::Probe(_) => (&[Probe], 1),
            Op::Stress(_, _, cycles) => (&[Program], u64::from(cycles)),
            Op::ProgramTimeProbe(_, steps) => (&[PartialProgram, Read], u64::from(steps)),
        }
    }

    /// The first op kind the command bills (`None` for preconditioning).
    pub fn kind(&self) -> Option<OpKind> {
        self.footprint().0.first().copied()
    }

    /// The addressed block, and the page within it (`None` for block
    /// commands).
    pub fn address(&self) -> (BlockId, Option<u32>) {
        match *self {
            Op::Erase(b) | Op::Cycle(b) => (b, None),
            Op::Program(p, _)
            | Op::PartialProgram(p, _)
            | Op::Read(p, _)
            | Op::Sweep(p, _)
            | Op::Spare(p)
            | Op::Probe(p)
            | Op::Stress(p, ..)
            | Op::ProgramTimeProbe(p, _) => (p.block, Some(p.page)),
        }
    }
}

impl NandCmd {
    /// The command as an [`Op`]; `None` for device-wide and bad-block
    /// bookkeeping commands, which bill nothing.
    pub fn op(&self) -> Option<Op<'_>> {
        Some(match self {
            NandCmd::EraseBlock(b) => Op::Erase(*b),
            NandCmd::CycleBlock(b, _) => Op::Cycle(*b),
            NandCmd::ProgramPage(p, data) => Op::Program(*p, data),
            NandCmd::PartialProgram(p, mask) | NandCmd::FinePartialProgram(p, mask, _) => {
                Op::PartialProgram(*p, mask)
            }
            NandCmd::ReadPage(p) => Op::Read(*p, SLC_READ_REF),
            NandCmd::ReadPageShifted(p, vref) => Op::Read(*p, *vref),
            NandCmd::ReadPageSweep(p, vrefs) => Op::Sweep(*p, vrefs),
            NandCmd::ReadSpare(p) => Op::Spare(*p),
            NandCmd::ProbeVoltages(p) => Op::Probe(*p),
            NandCmd::StressCells(p, mask, cycles) => Op::Stress(*p, mask, *cycles),
            NandCmd::ProgramTimeProbe(p, steps) => Op::ProgramTimeProbe(*p, *steps),
            NandCmd::AgeDays(_)
            | NandCmd::AdvanceTimeUs(_)
            | NandCmd::MarkBad(_)
            | NandCmd::GrowBadBlock(_)
            | NandCmd::DiscardBlockState(_) => return None,
        })
    }
}

/// A point-in-time wear census of every block on a device, collected by
/// [`NandDevice::wear_summary`]. Health telemetry turns this into the
/// per-block wear histogram and hottest-block gauges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WearSummary {
    /// Program/erase cycles per block, indexed by block id. Blocks whose
    /// PEC cannot be read (factory-bad) report 0.
    pub per_block_pec: Vec<u32>,
    /// Number of blocks that have grown bad at runtime.
    pub grown_bad_blocks: u32,
}

impl WearSummary {
    /// The most-worn block as `(block index, PEC)`, or `None` on an empty
    /// device. Ties resolve to the lowest block id.
    pub fn hottest(&self) -> Option<(usize, u32)> {
        self.per_block_pec
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.cmp(b).then(ib.cmp(ia)))
            .map(|(i, &p)| (i, p))
    }

    /// Mean PEC across all blocks (0 on an empty device).
    pub fn mean_pec(&self) -> f64 {
        if self.per_block_pec.is_empty() {
            return 0.0;
        }
        let sum: u64 = self.per_block_pec.iter().map(|&p| u64::from(p)).sum();
        sum as f64 / self.per_block_pec.len() as f64
    }
}

/// The chip command surface: what a tester (or controller) can ask a NAND
/// device to do. [`Chip`](crate::Chip) is the reference backend, with no
/// inherent copy of these commands; middleware wrappers implement the trait
/// by decorating another implementation.
pub trait NandDevice {
    /// The package geometry.
    fn geometry(&self) -> &Geometry;

    /// The calibration profile.
    fn profile(&self) -> &ChipProfile;

    /// The sample seed.
    fn seed(&self) -> u64;

    /// Number of independently addressed chips behind this device. A bare
    /// chip is 1 (the default); an [`ArrayDevice`](crate::ArrayDevice)
    /// reports its member count, and middleware must forward this so the
    /// layers above see the array through any wrapper stack.
    fn chip_count(&self) -> u32 {
        1
    }

    /// Cumulative operation counts, simulated device time and energy.
    fn meter(&self) -> MeterSnapshot;

    /// Zeroes the operation meter (e.g. after preconditioning).
    fn reset_meter(&mut self);

    /// Bills one operation to the device meter (and through any tracing
    /// middleware in the stack). Middleware uses this to account failed
    /// attempts that never reach the underlying physics.
    fn record_op(&mut self, kind: OpKind);

    /// Records one fault event on the device meter (and through any tracing
    /// middleware in the stack).
    fn record_fault(&mut self, kind: FaultKind);

    /// Installs (or, with `None`, removes) an event recorder somewhere in
    /// the device stack. The default is a no-op: a bare device has no
    /// tracing hook, and a [`TraceDevice`](crate::TraceDevice) anywhere in a
    /// middleware stack overrides it.
    fn install_recorder(&mut self, recorder: Option<SharedRecorder>) {
        let _ = recorder;
    }

    /// Installs (or, with `None`, removes) a flight-recorder sink somewhere
    /// in the device stack. The default is a no-op: a bare device has no
    /// flight hook, and a [`FlightDevice`](crate::FlightDevice) anywhere in
    /// a middleware stack overrides it.
    fn install_flight_sink(&mut self, sink: Option<SharedFlightSink>) {
        let _ = sink;
    }

    /// Advances simulated wall-clock time without issuing an operation
    /// (retry backoff); accounted separately in the meter's `wait_time_us`.
    fn advance_time_us(&mut self, us: f64);

    /// Scales the read-noise sigma applied by subsequent reads and probes
    /// (`1.0` = calibrated noise). This is the hook fault middleware uses to
    /// apply noise-spike windows without owning the read path.
    fn set_read_noise_scale(&mut self, scale: f64);

    /// Program/erase cycles endured by a block.
    ///
    /// # Errors
    ///
    /// Fails on an invalid block address.
    fn block_pec(&self, b: BlockId) -> Result<u32>;

    /// Marks a block factory-bad; subsequent operations on it fail.
    ///
    /// # Errors
    ///
    /// Fails on an invalid block address.
    fn mark_bad(&mut self, b: BlockId) -> Result<()>;

    /// Whether a block is marked factory-bad.
    ///
    /// # Errors
    ///
    /// Fails on an invalid block address.
    fn is_bad(&self, b: BlockId) -> Result<bool>;

    /// Marks a block as grown bad: writes fail, reads still work.
    ///
    /// # Errors
    ///
    /// Fails on an invalid block address.
    fn grow_bad_block(&mut self, b: BlockId) -> Result<()>;

    /// Whether a block has grown bad at runtime.
    ///
    /// # Errors
    ///
    /// Fails on an invalid block address.
    fn is_grown_bad(&self, b: BlockId) -> Result<bool>;

    /// Censuses wear across the whole device: per-block PEC plus the
    /// grown-bad count. The default implementation walks every block with
    /// [`block_pec`](Self::block_pec)/[`is_grown_bad`](Self::is_grown_bad),
    /// so it propagates unchanged through middleware wrappers; blocks whose
    /// PEC cannot be read (factory-bad) report 0. This is an unmetered
    /// management query, like the accessors it is built from.
    fn wear_summary(&self) -> WearSummary {
        let blocks = self.geometry().blocks_per_chip;
        let mut per_block_pec = Vec::with_capacity(blocks as usize);
        let mut grown_bad_blocks = 0u32;
        for b in 0..blocks {
            let id = BlockId(b);
            per_block_pec.push(self.block_pec(id).unwrap_or(0));
            if self.is_grown_bad(id).unwrap_or(false) {
                grown_bad_blocks += 1;
            }
        }
        WearSummary { per_block_pec, grown_bad_blocks }
    }

    /// Whether a page has been programmed since its block's last erase.
    ///
    /// # Errors
    ///
    /// Fails on an invalid page address.
    fn is_page_programmed(&self, p: PageId) -> Result<bool>;

    /// Frees the bulky per-cell state of a block, keeping wear and identity.
    ///
    /// # Errors
    ///
    /// Fails on an invalid block address.
    fn discard_block_state(&mut self, b: BlockId) -> Result<()>;

    /// Erases a block.
    ///
    /// # Errors
    ///
    /// Fails on invalid addresses, bad blocks, or injected erase faults.
    fn erase_block(&mut self, b: BlockId) -> Result<()>;

    /// Applies `n` unmetered program/erase cycles of wear (preconditioning).
    ///
    /// # Errors
    ///
    /// Fails on invalid addresses or bad blocks.
    fn cycle_block(&mut self, b: BlockId, n: u32) -> Result<()>;

    /// Programs a page with a data pattern (bit `0` charges the cell).
    ///
    /// # Errors
    ///
    /// Fails on invalid addresses, bad blocks, pattern-length mismatch, a
    /// page already programmed since its last erase, or injected faults.
    fn program_page(&mut self, p: PageId, data: &BitPattern) -> Result<()>;

    /// Programs a page and atomically deposits controller metadata in its
    /// out-of-band spare area. The default discards the spare (a device
    /// without an OOB region); a chip stores it so mount-time recovery can
    /// replay it.
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
        let _ = spare;
        self.program_page(p, data)
    }

    /// Reads a page's out-of-band spare area (`None` = never written since
    /// the last erase, or the device has no OOB region). Spare bytes travel
    /// through controller-grade ECC and are modeled noise-free.
    ///
    /// # Errors
    ///
    /// Fails on invalid addresses or bad blocks.
    fn read_spare(&mut self, p: PageId) -> Result<Option<Vec<u8>>> {
        let _ = p;
        Ok(None)
    }

    /// A page program interrupted `fraction` of the way through: only the
    /// leading cells of the pattern receive charge, the rest stay erased,
    /// and no spare metadata lands. The default models this as programming
    /// a prefix-masked pattern.
    ///
    /// # Errors
    ///
    /// Fails like [`program_page`](Self::program_page).
    fn torn_program_page(&mut self, p: PageId, data: &BitPattern, fraction: f64) -> Result<()> {
        let n = data.len();
        let keep = (fraction.clamp(0.0, 1.0) * n as f64).floor() as usize;
        let torn =
            BitPattern::from_bits(n, (0..n).map(|i| if i < keep { data.get(i) } else { true }));
        self.program_page(p, &torn)
    }

    /// A partial-program pulse train stopped early: only the leading
    /// `fraction` of the masked cells receive their nudge. The default
    /// models this as a PP step with a truncated mask.
    ///
    /// # Errors
    ///
    /// Fails like [`partial_program`](Self::partial_program).
    fn torn_partial_program(&mut self, p: PageId, mask: &BitPattern, fraction: f64) -> Result<()> {
        let total = mask.count_ones();
        let keep = (fraction.clamp(0.0, 1.0) * total as f64).floor() as usize;
        let mut kept = 0usize;
        let torn = BitPattern::from_bits(
            mask.len(),
            (0..mask.len()).map(|i| {
                let hit = mask.get(i) && kept < keep;
                if hit {
                    kept += 1;
                }
                hit
            }),
        );
        self.partial_program(p, &torn)
    }

    /// A block erase interrupted `fraction` of the way through its
    /// discharge. The default falls back to a full erase; a chip blends
    /// each cell between its old voltage and a fresh erased draw, leaving
    /// the block in a state a controller must re-erase before reuse.
    ///
    /// # Errors
    ///
    /// Fails like [`erase_block`](Self::erase_block).
    fn torn_erase_block(&mut self, b: BlockId, fraction: f64) -> Result<()> {
        let _ = fraction;
        self.erase_block(b)
    }

    /// Issues one partial-program step to the masked cells of a page.
    ///
    /// # Errors
    ///
    /// Fails on invalid addresses, bad blocks, pattern-length mismatch, a
    /// page not yet programmed, or injected faults.
    fn partial_program(&mut self, p: PageId, mask: &BitPattern) -> Result<()>;

    /// Controller-grade fine partial programming toward a voltage target.
    ///
    /// # Errors
    ///
    /// Fails on invalid addresses, bad blocks, pattern-length mismatch, a
    /// page not yet programmed, or injected faults.
    fn fine_partial_program(&mut self, p: PageId, mask: &BitPattern, target: Level) -> Result<()>;

    /// Standard page read against [`SLC_READ_REF`]: bit `1` for cells
    /// measured below it, bit `0` otherwise.
    ///
    /// # Errors
    ///
    /// Fails on invalid addresses or bad blocks.
    fn read_page(&mut self, p: PageId) -> Result<BitPattern> {
        self.read_page_shifted(p, SLC_READ_REF)
    }

    /// Page read with a shifted reference voltage (the retention-management
    /// vendor command VT-HI decodes with).
    ///
    /// Allocating convenience wrapper over
    /// [`read_page_shifted_into`](Self::read_page_shifted_into) — prefer
    /// the buffer-reuse form in loops.
    ///
    /// # Errors
    ///
    /// Fails on invalid addresses or bad blocks.
    fn read_page_shifted(&mut self, p: PageId, vref: Level) -> Result<BitPattern> {
        let mut bits = BitPattern::zeros(0);
        self.read_page_shifted_into(p, vref, &mut bits)?;
        Ok(bits)
    }

    /// [`read_page_shifted`](Self::read_page_shifted) into a caller-owned
    /// pattern; `out` is resized and refilled, so a decode loop reuses one
    /// allocation per page.
    ///
    /// # Errors
    ///
    /// Fails on invalid addresses or bad blocks (leaving `out` empty).
    fn read_page_shifted_into(
        &mut self,
        p: PageId,
        vref: Level,
        out: &mut BitPattern,
    ) -> Result<()>;

    /// Multi-`vref` read: reads the same page once per reference voltage,
    /// returning one pattern per `vref`, exactly as the equivalent sequence
    /// of [`read_page_shifted`](Self::read_page_shifted) calls (the
    /// default *is* that sequence), so middleware gates, traces and
    /// records each reference voltage as its own read.
    ///
    /// # Errors
    ///
    /// Fails on invalid addresses or bad blocks.
    fn read_page_sweep(&mut self, p: PageId, vrefs: &[Level]) -> Result<Vec<BitPattern>> {
        vrefs.iter().map(|&v| self.read_page_shifted(p, v)).collect()
    }

    /// Per-cell voltage probe (the NDA characterization command).
    ///
    /// Allocating convenience wrapper over
    /// [`probe_voltages_into`](Self::probe_voltages_into) — prefer the
    /// buffer-reuse form in loops.
    ///
    /// # Errors
    ///
    /// Fails on invalid addresses or bad blocks.
    #[doc(hidden)]
    fn probe_voltages(&mut self, p: PageId) -> Result<Vec<Level>> {
        let mut out = Vec::new();
        self.probe_voltages_into(p, &mut out)?;
        Ok(out)
    }

    /// [`probe_voltages`](Self::probe_voltages) into a caller-owned buffer;
    /// `out` is cleared and refilled.
    ///
    /// # Errors
    ///
    /// Fails on invalid addresses or bad blocks (leaving `out` cleared).
    fn probe_voltages_into(&mut self, p: PageId, out: &mut Vec<Level>) -> Result<()>;

    /// Advances retention time for the whole device.
    fn age_days(&mut self, days: f64);

    /// PT-HI substrate: stress-programs the masked cells, permanently
    /// shifting their program speed. Destroys the page contents.
    ///
    /// # Errors
    ///
    /// Fails on invalid addresses, bad blocks, or pattern-length mismatch.
    fn stress_cells(&mut self, p: PageId, mask: &BitPattern, cycles: u32) -> Result<()>;

    /// PT-HI substrate: reports, per cell, the fine-program step at which it
    /// crossed into the programmed state. Destroys the page contents.
    ///
    /// # Errors
    ///
    /// Fails on invalid addresses or bad blocks.
    fn program_time_probe(&mut self, p: PageId, steps: u16) -> Result<Vec<u16>>;

    /// Dispatches a batch of commands in order, collecting each outcome.
    /// A failed command does not stop the batch — the queue semantics a
    /// controller would implement; callers that need all-or-nothing check
    /// [`CmdResult::is_ok`] per entry.
    ///
    /// An override must keep every output, RNG draw and meter charge
    /// identical to sequential one-command-at-a-time dispatch.
    fn exec(&mut self, cmds: &[NandCmd]) -> Vec<CmdResult> {
        cmds.iter().map(|cmd| dispatch_one(self, cmd)).collect()
    }
}

/// A mutable reference to a device is itself a device, so `Hider::new(&mut
/// chip, ...)`-style borrowing call sites keep working under the generic
/// bound.
impl<D: NandDevice + ?Sized> NandDevice for &mut D {
    fn geometry(&self) -> &Geometry {
        (**self).geometry()
    }
    fn profile(&self) -> &ChipProfile {
        (**self).profile()
    }
    fn seed(&self) -> u64 {
        (**self).seed()
    }
    fn chip_count(&self) -> u32 {
        (**self).chip_count()
    }
    fn meter(&self) -> MeterSnapshot {
        (**self).meter()
    }
    fn reset_meter(&mut self) {
        (**self).reset_meter();
    }
    fn record_op(&mut self, kind: OpKind) {
        (**self).record_op(kind);
    }
    fn record_fault(&mut self, kind: FaultKind) {
        (**self).record_fault(kind);
    }
    fn install_recorder(&mut self, recorder: Option<SharedRecorder>) {
        (**self).install_recorder(recorder);
    }
    fn install_flight_sink(&mut self, sink: Option<SharedFlightSink>) {
        (**self).install_flight_sink(sink);
    }
    fn advance_time_us(&mut self, us: f64) {
        (**self).advance_time_us(us);
    }
    fn set_read_noise_scale(&mut self, scale: f64) {
        (**self).set_read_noise_scale(scale);
    }
    fn block_pec(&self, b: BlockId) -> Result<u32> {
        (**self).block_pec(b)
    }
    fn mark_bad(&mut self, b: BlockId) -> Result<()> {
        (**self).mark_bad(b)
    }
    fn is_bad(&self, b: BlockId) -> Result<bool> {
        (**self).is_bad(b)
    }
    fn grow_bad_block(&mut self, b: BlockId) -> Result<()> {
        (**self).grow_bad_block(b)
    }
    fn is_grown_bad(&self, b: BlockId) -> Result<bool> {
        (**self).is_grown_bad(b)
    }
    fn is_page_programmed(&self, p: PageId) -> Result<bool> {
        (**self).is_page_programmed(p)
    }
    fn discard_block_state(&mut self, b: BlockId) -> Result<()> {
        (**self).discard_block_state(b)
    }
    fn erase_block(&mut self, b: BlockId) -> Result<()> {
        (**self).erase_block(b)
    }
    fn cycle_block(&mut self, b: BlockId, n: u32) -> Result<()> {
        (**self).cycle_block(b, n)
    }
    fn program_page(&mut self, p: PageId, data: &BitPattern) -> Result<()> {
        (**self).program_page(p, data)
    }
    fn program_page_with_spare(
        &mut self,
        p: PageId,
        data: &BitPattern,
        spare: &[u8],
    ) -> Result<()> {
        (**self).program_page_with_spare(p, data, spare)
    }
    fn read_spare(&mut self, p: PageId) -> Result<Option<Vec<u8>>> {
        (**self).read_spare(p)
    }
    fn torn_program_page(&mut self, p: PageId, data: &BitPattern, fraction: f64) -> Result<()> {
        (**self).torn_program_page(p, data, fraction)
    }
    fn torn_partial_program(&mut self, p: PageId, mask: &BitPattern, fraction: f64) -> Result<()> {
        (**self).torn_partial_program(p, mask, fraction)
    }
    fn torn_erase_block(&mut self, b: BlockId, fraction: f64) -> Result<()> {
        (**self).torn_erase_block(b, fraction)
    }
    fn partial_program(&mut self, p: PageId, mask: &BitPattern) -> Result<()> {
        (**self).partial_program(p, mask)
    }
    fn fine_partial_program(&mut self, p: PageId, mask: &BitPattern, target: Level) -> Result<()> {
        (**self).fine_partial_program(p, mask, target)
    }
    fn read_page(&mut self, p: PageId) -> Result<BitPattern> {
        (**self).read_page(p)
    }
    fn read_page_shifted(&mut self, p: PageId, vref: Level) -> Result<BitPattern> {
        (**self).read_page_shifted(p, vref)
    }
    fn read_page_shifted_into(
        &mut self,
        p: PageId,
        vref: Level,
        out: &mut BitPattern,
    ) -> Result<()> {
        (**self).read_page_shifted_into(p, vref, out)
    }
    fn read_page_sweep(&mut self, p: PageId, vrefs: &[Level]) -> Result<Vec<BitPattern>> {
        (**self).read_page_sweep(p, vrefs)
    }
    fn probe_voltages(&mut self, p: PageId) -> Result<Vec<Level>> {
        (**self).probe_voltages(p)
    }
    fn probe_voltages_into(&mut self, p: PageId, out: &mut Vec<Level>) -> Result<()> {
        (**self).probe_voltages_into(p, out)
    }
    fn age_days(&mut self, days: f64) {
        (**self).age_days(days);
    }
    fn stress_cells(&mut self, p: PageId, mask: &BitPattern, cycles: u32) -> Result<()> {
        (**self).stress_cells(p, mask, cycles)
    }
    fn program_time_probe(&mut self, p: PageId, steps: u16) -> Result<Vec<u16>> {
        (**self).program_time_probe(p, steps)
    }
    fn exec(&mut self, cmds: &[NandCmd]) -> Vec<CmdResult> {
        (**self).exec(cmds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::Chip;
    use crate::error::FlashError;

    fn generic_roundtrip<D: NandDevice>(dev: &mut D) -> usize {
        let p = PageId::new(BlockId(0), 1);
        dev.erase_block(p.block).unwrap();
        let data = BitPattern::ones(dev.geometry().cells_per_page());
        dev.program_page(p, &data).unwrap();
        dev.read_page(p).unwrap().count_zeros()
    }

    #[test]
    fn chip_and_mut_ref_both_satisfy_the_trait() {
        let mut chip = Chip::new(ChipProfile::test_small(), 9);
        // Call through a &mut borrow first (the blanket impl), then by value.
        let via_ref = generic_roundtrip(&mut &mut chip);
        let mut chip2 = Chip::new(ChipProfile::test_small(), 9);
        let via_value = generic_roundtrip(&mut chip2);
        assert_eq!(via_ref, via_value);
    }

    #[test]
    fn wear_summary_counts_pec_and_grown_bad_through_middleware() {
        let mut chip = Chip::new(ChipProfile::test_small(), 11);
        chip.cycle_block(BlockId(2), 40).unwrap();
        chip.cycle_block(BlockId(5), 7).unwrap();
        chip.grow_bad_block(BlockId(1)).unwrap();
        let blocks = chip.geometry().blocks_per_chip as usize;

        // The default method must see the same census through a wrapper.
        let wrapped = crate::TraceDevice::new(chip);
        let w = wrapped.wear_summary();
        assert_eq!(w.per_block_pec.len(), blocks);
        assert_eq!(w.per_block_pec[2], 40);
        assert_eq!(w.per_block_pec[5], 7);
        assert_eq!(w.grown_bad_blocks, 1);
        assert_eq!(w.hottest(), Some((2, 40)));
        assert!((w.mean_pec() - 47.0 / blocks as f64).abs() < 1e-12);
    }

    #[test]
    fn wear_summary_hottest_ties_go_to_the_lowest_block() {
        let w = WearSummary { per_block_pec: vec![3, 9, 9, 1], grown_bad_blocks: 0 };
        assert_eq!(w.hottest(), Some((1, 9)));
        assert_eq!(WearSummary::default().hottest(), None);
        assert_eq!(WearSummary::default().mean_pec(), 0.0);
    }

    #[test]
    fn exec_dispatches_in_order_and_collects_per_command_results() {
        let mut chip = Chip::new(ChipProfile::test_small(), 5);
        let cpp = chip.geometry().cells_per_page();
        let p = PageId::new(BlockId(0), 0);
        let data = BitPattern::zeros(cpp);
        let results = chip.exec(&[
            NandCmd::EraseBlock(BlockId(0)),
            NandCmd::ProgramPage(p, data.clone()),
            NandCmd::ProgramPage(p, data), // double program: typed error, batch continues
            NandCmd::ReadPage(p),
            NandCmd::ProbeVoltages(p),
            NandCmd::AdvanceTimeUs(100.0),
        ]);
        assert_eq!(results.len(), 6);
        assert!(results[0].is_ok() && results[1].is_ok());
        assert_eq!(results[2], CmdResult::Unit(Err(FlashError::PageAlreadyProgrammed(p))));
        match &results[3] {
            CmdResult::Bits(Ok(bits)) => assert_eq!(bits.count_zeros(), cpp),
            other => panic!("expected bits, got {other:?}"),
        }
        assert!(matches!(&results[4], CmdResult::Levels(Ok(v)) if v.len() == cpp));
        assert!(results[5].is_ok());
        assert!((chip.meter().wait_time_us - 100.0).abs() < 1e-9);
    }

    #[test]
    fn footprint_table_matches_what_a_bare_chip_bills() {
        let mut chip = Chip::new(ChipProfile::test_small(), 13);
        let cpp = chip.geometry().cells_per_page();
        let page = |b: u32, p: u32| PageId::new(BlockId(b), p);
        let mut mask = BitPattern::zeros(cpp);
        (0..cpp).step_by(7).for_each(|i| mask.set(i, true));
        let cmds = [
            NandCmd::EraseBlock(BlockId(0)),
            NandCmd::CycleBlock(BlockId(1), 3),
            NandCmd::ProgramPage(page(0, 0), BitPattern::zeros(cpp)),
            NandCmd::PartialProgram(page(0, 0), mask.clone()),
            NandCmd::FinePartialProgram(page(0, 0), mask.clone(), 40),
            NandCmd::ReadPage(page(0, 0)),
            NandCmd::ReadPageShifted(page(0, 0), 34),
            NandCmd::ReadPageSweep(page(0, 0), vec![20, 34, 90]),
            NandCmd::ReadSpare(page(0, 0)),
            NandCmd::ProbeVoltages(page(0, 0)),
            NandCmd::StressCells(page(0, 1), mask, 3),
            NandCmd::ProgramTimeProbe(page(0, 2), 5),
            NandCmd::AgeDays(1.0),
            NandCmd::AdvanceTimeUs(5.0),
            NandCmd::MarkBad(BlockId(3)),
            NandCmd::GrowBadBlock(BlockId(2)),
            NandCmd::DiscardBlockState(BlockId(1)),
        ];
        let mut covered = [false; 17];
        for cmd in &cmds {
            covered[match cmd {
                NandCmd::EraseBlock(_) => 0,
                NandCmd::CycleBlock(..) => 1,
                NandCmd::ProgramPage(..) => 2,
                NandCmd::PartialProgram(..) => 3,
                NandCmd::FinePartialProgram(..) => 4,
                NandCmd::ReadPage(_) => 5,
                NandCmd::ReadPageShifted(..) => 6,
                NandCmd::ReadPageSweep(..) => 7,
                NandCmd::ReadSpare(_) => 8,
                NandCmd::ProbeVoltages(_) => 9,
                NandCmd::StressCells(..) => 10,
                NandCmd::ProgramTimeProbe(..) => 11,
                NandCmd::AgeDays(_) => 12,
                NandCmd::AdvanceTimeUs(_) => 13,
                NandCmd::MarkBad(_) => 14,
                NandCmd::GrowBadBlock(_) => 15,
                NandCmd::DiscardBlockState(_) => 16,
            }] = true;
            let before = chip.meter();
            assert!(dispatch_one(&mut chip, cmd).is_ok(), "{cmd:?} failed");
            let billed = chip.meter().since(&before);
            let (step, count) = cmd.op().map_or((&[][..], 0), |op| op.footprint());
            for kind in OpKind::ALL {
                let per_step = step.iter().filter(|&&k| k == kind).count() as u64;
                assert_eq!(billed.count(kind), per_step * count, "{kind:?} billed by {cmd:?}");
            }
        }
        assert!(covered.iter().all(|&c| c), "every NandCmd variant is dispatched");
    }

    #[test]
    fn exec_matches_direct_calls_byte_for_byte() {
        let p = PageId::new(BlockId(1), 0);
        let mut direct = Chip::new(ChipProfile::test_small(), 31);
        let data = BitPattern::zeros(direct.geometry().cells_per_page());
        direct.erase_block(p.block).unwrap();
        direct.program_page(p, &data).unwrap();
        let direct_levels = direct.probe_voltages(p).unwrap();

        let mut batched = Chip::new(ChipProfile::test_small(), 31);
        let results = batched.exec(&[
            NandCmd::EraseBlock(p.block),
            NandCmd::ProgramPage(p, data),
            NandCmd::ProbeVoltages(p),
        ]);
        assert_eq!(results[2], CmdResult::Levels(Ok(direct_levels)));
        assert_eq!(batched.meter(), direct.meter());
    }
}
