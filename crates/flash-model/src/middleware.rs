//! Composable device middleware: fault injection, tracing, flight
//! recording, power cuts.
//!
//! Every middleware is one generic [`Layer`] with its own [`Hook`]. The
//! layer implements [`NandDevice`] once, forwarding each method to the
//! device it wraps and calling the hook around every command ([`Op`]): a
//! before-op gate that passes, rejects or tears the command; an after-op
//! observer that sees its outcome (reads and probes writable in place);
//! and observers for billed attempts, faults, waits and newly grown bad
//! blocks.
//!
//! * [`FaultDevice`] — injects a seeded [`FaultPlan`]: transient
//!   program/erase aborts, PEC wear-out, scheduled grown-bad blocks, read
//!   noise spikes and stuck cells. Commands that fault are billed to the
//!   meter and abort *before* reaching the wrapped device, so retries
//!   observe no corruption from the failed attempt.
//! * [`TraceDevice`] — reports every billed operation, fault and wait to an
//!   installed [`SharedRecorder`], with the same costs the meter bills.
//! * [`FlightDevice`] — reports every operation *with its address, chip
//!   attribution and outcome* to an installed [`SharedFlightSink`], feeding
//!   a bounded post-mortem ring (stash-obs `FlightRecorder`).
//! * [`PowerCutDevice`] — executes a deterministic power-cut schedule: the
//!   interrupted command lands *torn* on the medium, the device latches
//!   off surfacing [`FlashError::PowerLoss`], and
//!   [`reboot`](PowerCutDevice::reboot) brings it back with the post-crash
//!   cell state intact.
//!
//! Checkpointing needs no layer: [`crate::snapshot::checkpoint_bytes`]
//! works on any stack of [`DeviceState`] layers.
//!
//! # Layer ordering
//!
//! The canonical stack is
//! `PowerCutDevice<FaultDevice<FlightDevice<TraceDevice<Chip>>>>`. Fault
//! injection sits outside the observers, so the meter/record traffic it
//! emits for *failed* attempts reaches the flight ring and the tracer
//! exactly like successful operations do. Power is physically upstream of
//! everything, so a cut gates the whole stack, and a torn command — neither
//! gated nor ticked by the layers below — is billed, traced and
//! flight-recorded like the interrupted command it is.
//!
//! # Determinism contract
//!
//! * Fault decisions draw from the plan's own RNG stream, never from the
//!   chip's process-noise RNG, and a roll consumes randomness only when its
//!   probability is non-zero: a `FaultDevice` with no plan (or
//!   [`FaultPlan::none`]) is byte-identical to the bare chip.
//! * Tracing and flight recording only observe; with no recorder or sink
//!   installed they cost one branch per command.
//! * Read-noise spikes apply through [`NandDevice::set_read_noise_scale`];
//!   the scale is `1.0` (an exact IEEE no-op) outside spike windows.
//! * `FaultDevice` rolls program/PP faults *before* the wrapped chip
//!   materializes block state. The chip's RNG stream is unaffected for any
//!   workload that erases a block before programming it, which every
//!   workload in this repo does; see DESIGN.md §11.

use crate::bits::BitPattern;
use crate::device::{NandDevice, Op};
use crate::error::FlashError;
use crate::fault::{FaultPlan, FaultState, PowerCut};
use crate::geometry::{BlockId, Geometry, PageId};
use crate::meter::{FaultKind, MeterSnapshot, OpKind};
use crate::profile::ChipProfile;
use crate::recorder::{FlightOp, SharedFlightSink, SharedRecorder};
use crate::snapshot::{DeviceState, SnapshotError, StateReader, StateWriter};
use crate::{Level, Result};

/// The writable output of a read or probe, as an after-op observer sees it.
#[derive(Debug)]
pub enum Out<'a> {
    /// The command returns no page data an observer may rewrite.
    None,
    /// The bits of a page read.
    Bits(&'a mut BitPattern),
    /// The levels of a voltage probe.
    Levels(&'a mut Vec<Level>),
}

/// What a middleware [`Layer`] does around the commands it forwards. Every
/// method defaults to doing nothing, so a hook implements only its part.
pub trait Hook {
    /// Before-op gate, called before `op` reaches the wrapped device:
    /// `Ok(None)` passes it, `Ok(Some(f))` tears it at fraction `f` (the
    /// layer runs the command's torn variant, if it has one, and reports
    /// [`FlashError::PowerLoss`]), and `Err` rejects it untouched.
    ///
    /// # Errors
    ///
    /// The rejection the command reports.
    fn gate<D: NandDevice>(&mut self, _inner: &mut D, _op: &Op<'_>) -> Result<Option<f64>> {
        Ok(None)
    }

    /// After-op observer, called once the wrapped device ran `op` (or its
    /// torn variant, with `torn` set) with the outcome. A gated-off command
    /// is not observed.
    fn after<D: NandDevice>(
        &mut self,
        _inner: &mut D,
        _op: &Op<'_>,
        _torn: bool,
        _result: std::result::Result<Out<'_>, &FlashError>,
    ) {
    }

    /// A failed attempt was billed (through [`NandDevice::record_op`]).
    fn on_record_op<D: NandDevice>(&self, _inner: &D, _kind: OpKind) {}

    /// A fault was recorded (through [`NandDevice::record_fault`]), or a
    /// block grew bad that was not grown bad before
    /// ([`FaultKind::GrownBad`]).
    fn on_fault(&self, _kind: FaultKind) {}

    /// Simulated time advanced (through [`NandDevice::advance_time_us`]).
    fn on_wait(&self, _us: f64) {}

    /// Where [`NandDevice::install_recorder`] lands, if this hook traces;
    /// otherwise the recorder is passed down the stack.
    fn recorder_slot(&mut self) -> Option<&mut Option<SharedRecorder>> {
        None
    }

    /// Where [`NandDevice::install_flight_sink`] lands, if this hook
    /// records flights; otherwise the sink is passed down the stack.
    fn sink_slot(&mut self) -> Option<&mut Option<SharedFlightSink>> {
        None
    }

    /// Appends the hook's simulation state (configuration is not state).
    fn save_state(&self, _w: &mut StateWriter) {}

    /// Restores what [`save_state`](Self::save_state) wrote.
    ///
    /// # Errors
    ///
    /// Fails on a truncated stream or a configuration mismatch.
    fn load_state(&mut self, _r: &mut StateReader<'_>) -> std::result::Result<(), SnapshotError> {
        Ok(())
    }
}

/// One middleware layer: a wrapped device plus the [`Hook`] called around
/// every command forwarded to it.
#[derive(Debug, Clone)]
pub struct Layer<D, H> {
    inner: D,
    hook: H,
}

impl<D, H: Default> Layer<D, H> {
    /// Wraps a device with the hook switched off (pure passthrough).
    pub fn new(inner: D) -> Self {
        Layer { inner, hook: H::default() }
    }
}

impl<D, H> Layer<D, H> {
    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Unwraps the middleware, returning the wrapped device.
    pub fn into_inner(self) -> D {
        self.inner
    }
}

impl<D: NandDevice, H: Hook> Layer<D, H> {
    /// Runs one command: the gate, then `call` (or `tear` on a mid-op cut),
    /// then the observer, which sees the output `view` exposes.
    fn run<T>(
        &mut self,
        op: Op<'_>,
        call: impl FnOnce(&mut D) -> Result<T>,
        tear: impl FnOnce(&mut D, f64) -> Result<()>,
        view: fn(&mut T) -> Out<'_>,
    ) -> Result<T> {
        if let Some(fraction) = self.hook.gate(&mut self.inner, &op)? {
            // The torn variant's own outcome is moot: the command reports
            // the power loss either way.
            let _ = tear(&mut self.inner, fraction);
            return Err(FlashError::PowerLoss);
        }
        let mut result = call(&mut self.inner);
        let seen = match &mut result {
            Ok(v) => Ok(view(v)),
            Err(e) => Err(&*e),
        };
        self.hook.after(&mut self.inner, &op, false, seen);
        result
    }

    /// Runs a torn variant (issued by a power cut further up): ungated,
    /// observed as torn.
    fn run_torn(&mut self, op: Op<'_>, call: impl FnOnce(&mut D) -> Result<()>) -> Result<()> {
        let result = call(&mut self.inner);
        self.hook.after(&mut self.inner, &op, true, result.as_ref().map(|()| Out::None));
        result
    }
}

fn no_out<T>(_: &mut T) -> Out<'_> {
    Out::None
}

/// Reads, probes and PT-HI commands leave nothing durable to tear: a
/// mid-op cut on one behaves like a cut before it.
fn no_tear<D>(_: &mut D, _: f64) -> Result<()> {
    Ok(())
}

impl<D: NandDevice, H: Hook> NandDevice for Layer<D, H> {
    fn geometry(&self) -> &Geometry {
        self.inner.geometry()
    }
    fn profile(&self) -> &ChipProfile {
        self.inner.profile()
    }
    fn seed(&self) -> u64 {
        self.inner.seed()
    }
    fn chip_count(&self) -> u32 {
        self.inner.chip_count()
    }
    fn meter(&self) -> MeterSnapshot {
        self.inner.meter()
    }
    fn reset_meter(&mut self) {
        self.inner.reset_meter();
    }
    fn record_op(&mut self, kind: OpKind) {
        self.inner.record_op(kind);
        self.hook.on_record_op(&self.inner, kind);
    }
    fn record_fault(&mut self, kind: FaultKind) {
        self.inner.record_fault(kind);
        self.hook.on_fault(kind);
    }
    fn install_recorder(&mut self, recorder: Option<SharedRecorder>) {
        match self.hook.recorder_slot() {
            Some(slot) => *slot = recorder,
            None => self.inner.install_recorder(recorder),
        }
    }
    fn install_flight_sink(&mut self, sink: Option<SharedFlightSink>) {
        match self.hook.sink_slot() {
            Some(slot) => *slot = sink,
            None => self.inner.install_flight_sink(sink),
        }
    }
    fn advance_time_us(&mut self, us: f64) {
        self.inner.advance_time_us(us);
        self.hook.on_wait(us);
    }
    fn set_read_noise_scale(&mut self, scale: f64) {
        self.inner.set_read_noise_scale(scale);
    }
    fn block_pec(&self, b: BlockId) -> Result<u32> {
        self.inner.block_pec(b)
    }
    fn mark_bad(&mut self, b: BlockId) -> Result<()> {
        self.inner.mark_bad(b)
    }
    fn is_bad(&self, b: BlockId) -> Result<bool> {
        self.inner.is_bad(b)
    }
    fn grow_bad_block(&mut self, b: BlockId) -> Result<()> {
        let newly = !self.inner.is_grown_bad(b)?;
        self.inner.grow_bad_block(b)?;
        if newly {
            self.hook.on_fault(FaultKind::GrownBad);
        }
        Ok(())
    }
    fn is_grown_bad(&self, b: BlockId) -> Result<bool> {
        self.inner.is_grown_bad(b)
    }
    fn wear_summary(&self) -> crate::WearSummary {
        self.inner.wear_summary()
    }
    fn is_page_programmed(&self, p: PageId) -> Result<bool> {
        self.inner.is_page_programmed(p)
    }
    fn discard_block_state(&mut self, b: BlockId) -> Result<()> {
        self.inner.discard_block_state(b)
    }
    fn erase_block(&mut self, b: BlockId) -> Result<()> {
        let tear = |d: &mut D, f| d.torn_erase_block(b, f);
        self.run(Op::Erase(b), |d| d.erase_block(b), tear, no_out)
    }
    fn cycle_block(&mut self, b: BlockId, n: u32) -> Result<()> {
        self.run(Op::Cycle(b), |d| d.cycle_block(b, n), no_tear, no_out)
    }
    fn program_page(&mut self, p: PageId, data: &BitPattern) -> Result<()> {
        let tear = |d: &mut D, f| d.torn_program_page(p, data, f);
        self.run(Op::Program(p, data), |d| d.program_page(p, data), tear, no_out)
    }
    fn program_page_with_spare(
        &mut self,
        p: PageId,
        data: &BitPattern,
        spare: &[u8],
    ) -> Result<()> {
        // A cut tears the data cells; the spare — written last, atomically
        // — never lands. That asymmetry is the journal's crash signal.
        let tear = |d: &mut D, f| d.torn_program_page(p, data, f);
        let call = |d: &mut D| d.program_page_with_spare(p, data, spare);
        self.run(Op::Program(p, data), call, tear, no_out)
    }
    fn read_spare(&mut self, p: PageId) -> Result<Option<Vec<u8>>> {
        self.run(Op::Spare(p), |d| d.read_spare(p), no_tear, no_out)
    }
    fn torn_program_page(&mut self, p: PageId, data: &BitPattern, fraction: f64) -> Result<()> {
        self.run_torn(Op::Program(p, data), |d| d.torn_program_page(p, data, fraction))
    }
    fn torn_partial_program(&mut self, p: PageId, mask: &BitPattern, fraction: f64) -> Result<()> {
        self.run_torn(Op::PartialProgram(p, mask), |d| d.torn_partial_program(p, mask, fraction))
    }
    fn torn_erase_block(&mut self, b: BlockId, fraction: f64) -> Result<()> {
        self.run_torn(Op::Erase(b), |d| d.torn_erase_block(b, fraction))
    }
    fn partial_program(&mut self, p: PageId, mask: &BitPattern) -> Result<()> {
        let tear = |d: &mut D, f| d.torn_partial_program(p, mask, f);
        self.run(Op::PartialProgram(p, mask), |d| d.partial_program(p, mask), tear, no_out)
    }
    fn fine_partial_program(&mut self, p: PageId, mask: &BitPattern, target: Level) -> Result<()> {
        // A fine PP train stopped early: the pulses that did land went
        // through the coarse path; the trim never happened.
        let tear = |d: &mut D, f| d.torn_partial_program(p, mask, f);
        let call = |d: &mut D| d.fine_partial_program(p, mask, target);
        self.run(Op::PartialProgram(p, mask), call, tear, no_out)
    }
    fn read_page_shifted_into(
        &mut self,
        p: PageId,
        vref: Level,
        out: &mut BitPattern,
    ) -> Result<()> {
        // A rejected read leaves `out` empty, like a failed read below.
        out.reset_zeros(0);
        let call = |d: &mut D| d.read_page_shifted_into(p, vref, &mut *out).map(|()| out);
        self.run(Op::Read(p, vref), call, no_tear, |bits| Out::Bits(bits)).map(|_| ())
    }
    fn probe_voltages_into(&mut self, p: PageId, out: &mut Vec<Level>) -> Result<()> {
        out.clear();
        let call = |d: &mut D| d.probe_voltages_into(p, &mut *out).map(|()| out);
        self.run(Op::Probe(p), call, no_tear, |levels| Out::Levels(levels)).map(|_| ())
    }
    fn age_days(&mut self, days: f64) {
        self.inner.age_days(days);
    }
    fn stress_cells(&mut self, p: PageId, mask: &BitPattern, cycles: u32) -> Result<()> {
        let call = |d: &mut D| d.stress_cells(p, mask, cycles);
        self.run(Op::Stress(p, mask, cycles), call, no_tear, no_out)
    }
    fn program_time_probe(&mut self, p: PageId, steps: u16) -> Result<Vec<u16>> {
        let call = |d: &mut D| d.program_time_probe(p, steps);
        self.run(Op::ProgramTimeProbe(p, steps), call, no_tear, no_out)
    }
}

impl<D: DeviceState, H: Hook> DeviceState for Layer<D, H> {
    fn save_state(&self, w: &mut StateWriter) {
        self.inner.save_state(w);
        self.hook.save_state(w);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> std::result::Result<(), SnapshotError> {
        self.inner.load_state(r)?;
        self.hook.load_state(r)
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// Fault-injection middleware: consults a seeded [`FaultPlan`] in front of
/// every command of the wrapped device.
pub type FaultDevice<D> = Layer<D, FaultHook>;

/// The [`FaultDevice`] hook: live fault bookkeeping, `None` with no plan.
#[derive(Debug, Clone, Default)]
pub struct FaultHook(Option<Box<FaultState>>);

impl<D: NandDevice> Layer<D, FaultHook> {
    /// Wraps a device with a fault schedule installed from the start.
    pub fn with_plan(inner: D, plan: FaultPlan) -> Self {
        let mut dev = FaultDevice::new(inner);
        dev.set_plan(plan);
        dev
    }

    /// Installs (or, with [`FaultPlan::none`], removes) a fault schedule.
    /// The plan's operation counter and RNG stream restart from the seed.
    pub fn set_plan(&mut self, plan: FaultPlan) {
        self.hook.0 = if plan.is_none() { None } else { Some(Box::new(FaultState::new(plan))) };
    }

    /// The installed fault plan, if any.
    pub fn plan(&self) -> Option<&FaultPlan> {
        self.hook.0.as_ref().map(|f| &f.plan)
    }
}

// Address checks replicating the chip's error precedence, so a faulted
// command reports the same typed error the bare device would — and so the
// fault op counter only advances for well-addressed commands, exactly as
// the pre-middleware chip counted.

fn check_address<D: NandDevice>(dev: &D, b: BlockId, page: Option<u32>) -> Result<()> {
    if !dev.geometry().contains_block(b) {
        return Err(FlashError::BlockOutOfRange(b));
    }
    if let Some(p) = page.map(|page| PageId::new(b, page)) {
        if !dev.geometry().contains_page(p) {
            return Err(FlashError::PageOutOfRange(p));
        }
    }
    if dev.is_bad(b)? {
        return Err(FlashError::BadBlock(b));
    }
    Ok(())
}

/// A data pattern or mask must cover the page exactly.
fn check_len<D: NandDevice>(dev: &D, bits: &BitPattern) -> Result<()> {
    let cpp = dev.geometry().cells_per_page();
    if bits.len() != cpp {
        return Err(FlashError::PatternLength { expected: cpp, got: bits.len() });
    }
    Ok(())
}

impl Hook for FaultHook {
    fn gate<D: NandDevice>(&mut self, inner: &mut D, op: &Op<'_>) -> Result<Option<f64>> {
        // Preconditioning is unmetered and never fault-ticked: faults model
        // the measured workload.
        if let Op::Cycle(_) = op {
            return Ok(None);
        }
        let (b, page) = op.address();
        check_address(inner, b, page)?;
        // Advance the plan's op counter and apply any scheduled grown-bad
        // marking for the touched block.
        let index = match self.0.as_mut() {
            Some(fs) => {
                let index = fs.tick();
                if fs.plan.grown_bad_scheduled(b, index) {
                    // Idempotent, and meters the fault only on the first
                    // marking.
                    inner.grow_bad_block(b)?;
                }
                index
            }
            None => 0,
        };
        // Reads still work on a grown-bad block; nothing else does.
        if !matches!(op, Op::Read(..) | Op::Probe(_) | Op::Spare(_)) && inner.is_grown_bad(b)? {
            return Err(FlashError::GrownBadBlock(b));
        }
        match *op {
            Op::Erase(_) => {
                let Some(fs) = self.0.as_mut() else { return Ok(None) };
                if fs.roll_pec_wearout(inner.block_pec(b)?.saturating_add(1)) {
                    inner.grow_bad_block(b)?;
                    inner.record_op(OpKind::Erase);
                    return Err(FlashError::GrownBadBlock(b));
                }
                if fs.roll_erase() {
                    inner.record_fault(FaultKind::TransientErase);
                    inner.record_op(OpKind::Erase);
                    return Err(FlashError::EraseFail(b));
                }
            }
            Op::Program(p, data) | Op::PartialProgram(p, data) => {
                check_len(inner, data)?;
                let is_program = matches!(op, Op::Program(..));
                match (is_program, inner.is_page_programmed(p)?) {
                    (true, true) => return Err(FlashError::PageAlreadyProgrammed(p)),
                    (false, false) => return Err(FlashError::PageNotProgrammed(p)),
                    _ => {}
                }
                // A transient failure aborts before the wrapped device
                // draws any process noise or charges any cell, so a retry
                // sees the page untouched. The failed attempt is billed.
                let Some(fs) = self.0.as_mut() else { return Ok(None) };
                let (failed, kind) = if is_program {
                    (fs.roll_program(), OpKind::Program)
                } else {
                    (fs.roll_partial_program(), OpKind::PartialProgram)
                };
                if failed {
                    inner.record_fault(FaultKind::TransientProgram);
                    inner.record_op(kind);
                    return Err(FlashError::TransientProgramFail(p));
                }
            }
            Op::Stress(_, mask, _) => check_len(inner, mask)?,
            // Spare reads go through controller ECC and are modeled
            // noise-free: no spike scaling, no stuck-cell overrides.
            Op::Read(..) | Op::Probe(_) => {
                if let Some(fs) = self.0.as_deref() {
                    inner.set_read_noise_scale(fs.plan.noise_factor(index));
                }
            }
            _ => {}
        }
        Ok(None)
    }

    fn after<D: NandDevice>(
        &mut self,
        inner: &mut D,
        op: &Op<'_>,
        _torn: bool,
        result: std::result::Result<Out<'_>, &FlashError>,
    ) {
        let Some(fs) = self.0.as_deref() else { return };
        let (Op::Read(p, _) | Op::Probe(p)) = *op else { return };
        inner.set_read_noise_scale(1.0);
        let Ok(mut out) = result else { return };
        let cpp = inner.geometry().cells_per_page();
        let base = p.page as usize * cpp;
        for sc in fs.plan.stuck_in(p.block) {
            if !(base..base + cpp).contains(&sc.cell) {
                continue;
            }
            match (&mut out, op) {
                (Out::Bits(bits), Op::Read(_, vref)) => {
                    bits.set(sc.cell - base, f64::from(sc.level) < f64::from(*vref));
                }
                (Out::Levels(levels), _) => levels[sc.cell - base] = sc.level,
                _ => {}
            }
        }
    }

    fn save_state(&self, w: &mut StateWriter) {
        match &self.0 {
            None => w.put_bool(false),
            Some(fs) => {
                w.put_bool(true);
                let (rng, op_index) = fs.stream_position();
                for word in rng {
                    w.put_u64(word);
                }
                w.put_u64(op_index);
            }
        }
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> std::result::Result<(), SnapshotError> {
        let had_plan = r.get_bool()?;
        match (had_plan, self.0.as_mut()) {
            (false, None) => Ok(()),
            (true, Some(fs)) => {
                let mut rng = [0u64; 4];
                for word in &mut rng {
                    *word = r.get_u64()?;
                }
                let op_index = r.get_u64()?;
                fs.restore_stream_position(rng, op_index);
                Ok(())
            }
            // The plan is configuration, not state: restoring requires the
            // target device to be constructed with the same plan presence.
            _ => Err(SnapshotError::Mismatch(
                "snapshot and device disagree on fault-plan presence".into(),
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// Tracing middleware: reports every billed operation, fault and wait of
/// the wrapped device to an installed [`SharedRecorder`], with the same
/// costs the meter bills. With no recorder installed it is byte-identical
/// passthrough at one branch per event.
pub type TraceDevice<D> = Layer<D, TraceHook>;

/// The [`TraceDevice`] hook: the installed recorder, if any.
#[derive(Debug, Clone, Default)]
pub struct TraceHook(Option<SharedRecorder>);

impl<D: NandDevice> Layer<D, TraceHook> {
    /// Wraps a device with a recorder installed from the start.
    pub fn with_recorder(inner: D, recorder: SharedRecorder) -> Self {
        Layer { inner, hook: TraceHook(Some(recorder)) }
    }

    /// Installs (or, with `None`, removes) the recorder. Cloning the
    /// wrapper shares the recorder.
    pub fn set_recorder(&mut self, recorder: Option<SharedRecorder>) {
        self.hook.0 = recorder;
    }

    /// The installed recorder, if any.
    pub fn recorder(&self) -> Option<&SharedRecorder> {
        self.hook.0.as_ref()
    }
}

impl TraceHook {
    /// Reports one billed operation at the profile's costs.
    fn emit<D: NandDevice>(r: &SharedRecorder, inner: &D, kind: OpKind) {
        let (us, uj) = inner.profile().timing.cost(kind);
        r.record_op(kind, us, uj);
    }
}

impl Hook for TraceHook {
    fn after<D: NandDevice>(
        &mut self,
        inner: &mut D,
        op: &Op<'_>,
        _torn: bool,
        result: std::result::Result<Out<'_>, &FlashError>,
    ) {
        let Some(r) = &self.0 else { return };
        if result.is_ok() {
            let (step, count) = op.footprint();
            for _ in 0..count {
                for &kind in step {
                    Self::emit(r, inner, kind);
                }
            }
        }
    }

    fn on_record_op<D: NandDevice>(&self, inner: &D, kind: OpKind) {
        if let Some(r) = &self.0 {
            Self::emit(r, inner, kind);
        }
    }

    fn on_fault(&self, kind: FaultKind) {
        if let Some(r) = &self.0 {
            r.record_fault(kind);
        }
    }

    fn on_wait(&self, us: f64) {
        if let Some(r) = &self.0 {
            r.record_wait(us);
        }
    }

    fn recorder_slot(&mut self) -> Option<&mut Option<SharedRecorder>> {
        Some(&mut self.0)
    }
}

// ---------------------------------------------------------------------------
// Flight recording
// ---------------------------------------------------------------------------

/// Flight-recorder middleware: reports every device operation — successful,
/// failed or torn — to an installed [`SharedFlightSink`] together with its
/// address, per-chip attribution and billed cost, so a bounded post-mortem
/// ring (stash-obs `FlightRecorder`) can hold the last N ops leading up to
/// a failure. With no sink installed it is byte-identical passthrough at
/// one branch per event.
///
/// Cost accounting matches the meter exactly: successful and torn ops carry
/// the profile's billed cost (one entry per billed op of
/// [`Op::footprint`]), billed-but-failed attempts carry the cost the fault
/// layer billed, and operations rejected before reaching the physics
/// (address errors, program-once violations) carry zero cost.
pub type FlightDevice<D> = Layer<D, FlightHook>;

/// The [`FlightDevice`] hook: the installed sink, if any.
#[derive(Debug, Clone, Default)]
pub struct FlightHook(Option<SharedFlightSink>);

impl<D: NandDevice> Layer<D, FlightHook> {
    /// Wraps a device with a sink installed from the start.
    pub fn with_sink(inner: D, sink: SharedFlightSink) -> Self {
        Layer { inner, hook: FlightHook(Some(sink)) }
    }

    /// The installed sink, if any.
    pub fn sink(&self) -> Option<&SharedFlightSink> {
        self.hook.0.as_ref()
    }
}

impl Hook for FlightHook {
    fn after<D: NandDevice>(
        &mut self,
        inner: &mut D,
        op: &Op<'_>,
        torn: bool,
        result: std::result::Result<Out<'_>, &FlashError>,
    ) {
        let Some(s) = &self.0 else { return };
        let (step, count) = op.footprint();
        let Some(&first) = step.first() else { return };
        let (block, page) = op.address();
        // Chip / local-block attribution, using the same address map as
        // `ArrayDevice`.
        let chips = inner.chip_count().max(1);
        let local_blocks = (inner.geometry().blocks_per_chip / chips).max(1);
        let entry = FlightOp {
            kind: first,
            block: Some(block.0),
            local_block: Some(block.0 % local_blocks),
            page,
            chip: block.0 / local_blocks,
            device_us: 0.0,
            energy_uj: 0.0,
            ok: true,
            err: None,
            torn,
        };
        match result {
            Ok(_) => {
                for _ in 0..count {
                    for &kind in step {
                        let (device_us, energy_uj) = inner.profile().timing.cost(kind);
                        s.record_flight_op(&FlightOp { kind, device_us, energy_uj, ..entry });
                    }
                }
            }
            // Rejected before reaching the physics: it cost nothing.
            Err(e) => {
                s.record_flight_op(&FlightOp {
                    ok: false,
                    err: Some(e.code()),
                    torn: false,
                    ..entry
                });
            }
        }
    }

    fn on_record_op<D: NandDevice>(&self, inner: &D, kind: OpKind) {
        // A billed attempt from the fault layer above: it consumed device
        // time but never carried its address down the stack.
        if let Some(s) = &self.0 {
            let (device_us, energy_uj) = inner.profile().timing.cost(kind);
            s.record_flight_op(&FlightOp {
                kind,
                block: None,
                local_block: None,
                page: None,
                chip: 0,
                device_us,
                energy_uj,
                ok: false,
                err: Some("faulted-attempt"),
                torn: false,
            });
        }
    }

    fn on_fault(&self, kind: FaultKind) {
        if let Some(s) = &self.0 {
            s.record_flight_fault(kind);
        }
    }

    fn on_wait(&self, us: f64) {
        if let Some(s) = &self.0 {
            s.record_flight_wait(us);
        }
    }

    fn sink_slot(&mut self) -> Option<&mut Option<SharedFlightSink>> {
        Some(&mut self.0)
    }
}

// ---------------------------------------------------------------------------
// Power cuts
// ---------------------------------------------------------------------------

/// Power-cut middleware: counts device commands against a deterministic
/// cut schedule and, when a cut fires, leaves the interrupted command
/// *torn* on the medium, latches the device off (every further command
/// fails with [`FlashError::PowerLoss`]) and bills a
/// [`FaultKind::PowerLoss`] fault. [`reboot`](Self::reboot) restores power
/// without touching cell state, so the post-crash medium is exactly what
/// the cut left behind — bit-deterministically, run after run.
///
/// Cut semantics per [`PowerCut`]: a cut scheduled at operation index `i`
/// with `fraction == 0.0` fires *before* operation `i` executes ("cut after
/// the first `i` ops"); `0 < fraction < 1` executes the torn variant of
/// operation `i` (a prefix of the page programmed with no spare landed, a
/// partially-erased block, a PP pulse train stopped early) and then latches.
/// Operations with no durable effect (reads, probes) have no torn variant:
/// a mid-cut on one behaves like a cut before it. A sweep ticks the clock
/// once per reference voltage, like the reads it is made of.
///
/// Host-side simulation controls (geometry, meters, bad-block bookkeeping,
/// retention aging — the unpowered chip still leaks charge) remain
/// available while the device is off; only commands are gated, and
/// preconditioning is rejected while off but stays off the clock.
pub type PowerCutDevice<D> = Layer<D, PowerCutHook>;

/// The [`PowerCutDevice`] hook: the cut schedule and the cut clock.
#[derive(Debug, Clone, Default)]
pub struct PowerCutHook {
    /// Remaining schedule, sorted by `at_op`.
    cuts: Vec<PowerCut>,
    /// Index of the next unconsumed cut in `cuts`.
    fired: usize,
    /// Command operations attempted so far (the cut clock).
    op_index: u64,
    /// Latched off after a cut until `reboot`.
    off: bool,
    /// Opt-in op-kind log so harnesses can map op indices to kinds.
    op_log: Option<Vec<OpKind>>,
}

impl<D: NandDevice> Layer<D, PowerCutHook> {
    /// Wraps a device with the power-cut schedule of `plan` installed.
    /// Only the plan's cuts are consumed here; its fault probabilities
    /// belong in a [`FaultDevice`] further down the stack.
    pub fn with_plan(inner: D, plan: &FaultPlan) -> Self {
        Self::with_cuts(inner, plan.power_cuts())
    }

    /// Wraps a device with an explicit cut schedule.
    pub fn with_cuts(inner: D, mut cuts: Vec<PowerCut>) -> Self {
        cuts.sort_by_key(|c| c.at_op);
        Layer { inner, hook: PowerCutHook { cuts, ..PowerCutHook::default() } }
    }

    /// Whether the device is latched off after a cut.
    pub fn is_off(&self) -> bool {
        self.hook.off
    }

    /// Command operations attempted so far.
    pub fn op_index(&self) -> u64 {
        self.hook.op_index
    }

    /// Restores power after a cut. Cell state is untouched: the medium
    /// comes back exactly as the cut left it. Already-consumed cuts stay
    /// consumed; later scheduled cuts still fire at their op index.
    pub fn reboot(&mut self) {
        self.hook.off = false;
    }

    /// Enables (or disables) logging the [`OpKind`] of every attempted
    /// command, so a harness can instrument an uncut run and aim mid-pulse
    /// cuts at specific PP operations.
    pub fn set_op_logging(&mut self, on: bool) {
        self.hook.op_log = if on { Some(Vec::new()) } else { None };
    }

    /// The logged op kinds, one per attempted command, if logging is on.
    pub fn op_log(&self) -> &[OpKind] {
        self.hook.op_log.as_deref().unwrap_or(&[])
    }
}

impl Hook for PowerCutHook {
    /// Rejects every command while off; otherwise advances the cut clock
    /// under the command's first billed kind and fires at most one
    /// scheduled cut.
    fn gate<D: NandDevice>(&mut self, inner: &mut D, op: &Op<'_>) -> Result<Option<f64>> {
        if self.off {
            return Err(FlashError::PowerLoss);
        }
        let Some(kind) = op.kind() else { return Ok(None) };
        let i = self.op_index;
        self.op_index += 1;
        if let Some(log) = self.op_log.as_mut() {
            log.push(kind);
        }
        while let Some(cut) = self.cuts.get(self.fired) {
            if cut.at_op > i {
                break;
            }
            // A stale entry (e.g. a duplicate index) is skipped.
            self.fired += 1;
            if cut.at_op == i {
                self.off = true;
                inner.record_fault(FaultKind::PowerLoss);
                if cut.fraction > 0.0 {
                    return Ok(Some(cut.fraction));
                }
                return Err(FlashError::PowerLoss);
            }
        }
        Ok(None)
    }

    fn save_state(&self, w: &mut StateWriter) {
        w.put_u64(self.op_index);
        w.put_bool(self.off);
        w.put_len(self.fired);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> std::result::Result<(), SnapshotError> {
        self.op_index = r.get_u64()?;
        self.off = r.get_bool()?;
        let fired = r.get_len()?;
        if fired > self.cuts.len() {
            return Err(SnapshotError::Mismatch(
                "snapshot fired more power cuts than this device schedules".into(),
            ));
        }
        self.fired = fired;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::Chip;
    use crate::device::{dispatch_one, CmdResult, NandCmd};
    use crate::recorder::CountingRecorder;
    use crate::snapshot::{checkpoint_bytes, checkpoint_to, restore_bytes, restore_from};
    use rand::SeedableRng;
    use std::sync::Arc;

    fn chip() -> Chip {
        Chip::new(ChipProfile::test_small(), 42)
    }

    fn programmed_page<D: NandDevice + ?Sized>(dev: &mut D) -> (PageId, BitPattern) {
        let p = PageId::new(BlockId(0), 2);
        dev.erase_block(p.block).unwrap();
        let data = BitPattern::random_half(
            &mut rand::rngs::SmallRng::seed_from_u64(9),
            dev.geometry().cells_per_page(),
        );
        dev.program_page(p, &data).unwrap();
        (p, data)
    }

    #[test]
    fn none_plan_is_bit_identical_to_no_plan() {
        let run = |plan: Option<FaultPlan>| {
            let mut c = FaultDevice::new(Chip::new(ChipProfile::test_small(), 77));
            if let Some(plan) = plan {
                c.set_plan(plan);
            }
            let (p, _) = programmed_page(&mut c);
            let mask = BitPattern::ones(c.geometry().cells_per_page());
            c.partial_program(p, &mask).unwrap();
            (c.probe_voltages(p).unwrap(), c.meter())
        };
        assert_eq!(run(None), run(Some(FaultPlan::none())));
    }

    #[test]
    fn transient_program_fault_leaves_page_untouched() {
        let mut c = FaultDevice::with_plan(chip(), FaultPlan::new(3).with_program_fail(1.0));
        let p = PageId::new(BlockId(0), 0);
        c.erase_block(p.block).unwrap();
        let data = BitPattern::zeros(c.geometry().cells_per_page());
        assert_eq!(c.program_page(p, &data), Err(FlashError::TransientProgramFail(p)));
        assert!(!c.is_page_programmed(p).unwrap(), "failed program must not mark the page");
        // The failed attempt still reads fully erased, and a fault was metered.
        let bits = c.read_page(p).unwrap();
        assert_eq!(bits.count_zeros(), 0);
        assert_eq!(c.meter().fault_count(FaultKind::TransientProgram), 1);
        // Lifting the plan lets the same program succeed.
        c.set_plan(FaultPlan::none());
        c.program_page(p, &data).unwrap();
    }

    #[test]
    fn scheduled_grown_bad_fires_at_op_index() {
        let mut c =
            FaultDevice::with_plan(chip(), FaultPlan::new(1).schedule_grown_bad(BlockId(0), 2));
        let b = BlockId(0);
        c.erase_block(b).unwrap(); // op 0
        let data = BitPattern::ones(c.geometry().cells_per_page());
        c.program_page(PageId::new(b, 0), &data).unwrap(); // op 1
                                                           // Op 2 touches the block: the schedule marks it grown bad first.
        assert_eq!(c.erase_block(b), Err(FlashError::GrownBadBlock(b)));
        assert!(c.is_grown_bad(b).unwrap());
        assert_eq!(c.meter().fault_count(FaultKind::GrownBad), 1);
    }

    #[test]
    fn pec_threshold_grows_bad_on_erase() {
        let mut c = FaultDevice::with_plan(chip(), FaultPlan::new(1).with_grown_bad_after_pec(5));
        let b = BlockId(1);
        for _ in 0..4 {
            c.erase_block(b).unwrap();
        }
        assert_eq!(c.erase_block(b), Err(FlashError::GrownBadBlock(b)));
        assert!(c.is_grown_bad(b).unwrap());
        assert_eq!(c.block_pec(b).unwrap(), 4, "the failed erase must not add wear");
    }

    #[test]
    fn noise_spike_inflates_read_errors_within_window() {
        let errors_with = |factor: f64| {
            let mut c = FaultDevice::with_plan(
                Chip::new(ChipProfile::test_small(), 11),
                FaultPlan::new(2).with_noise_spike(0, 1_000, factor),
            );
            let (p, data) = programmed_page(&mut c);
            let mut errs = 0;
            for _ in 0..10 {
                errs += c.read_page(p).unwrap().hamming_distance(&data);
            }
            errs
        };
        assert!(
            errors_with(20.0) > errors_with(1.0) + 50,
            "a 20x sigma spike must visibly corrupt reads"
        );
    }

    #[test]
    fn stuck_cell_overrides_reads_and_probes() {
        // Stick cell 5 of page 0 high and cell 7 low.
        let mut c = FaultDevice::with_plan(
            chip(),
            FaultPlan::new(4).with_stuck_cell(BlockId(0), 5, 200).with_stuck_cell(BlockId(0), 7, 0),
        );
        let cpp = c.geometry().cells_per_page();
        let p = PageId::new(BlockId(0), 0);
        c.erase_block(p.block).unwrap();
        c.program_page(p, &BitPattern::ones(cpp)).unwrap();
        let levels = c.probe_voltages(p).unwrap();
        assert_eq!(levels[5], 200);
        assert_eq!(levels[7], 0);
        let bits = c.read_page(p).unwrap();
        assert!(!bits.get(5), "stuck-high cell must read programmed");
        assert!(bits.get(7), "stuck-low cell must read erased");
    }

    #[test]
    fn counting_recorder_observes_device_ops() {
        let rec = Arc::new(CountingRecorder::new());
        let mut c = TraceDevice::new(Chip::new(ChipProfile::test_small(), 3));
        c.set_recorder(Some(rec.clone()));
        c.erase_block(BlockId(0)).unwrap();
        let _ = c.read_page(PageId::new(BlockId(0), 0)).unwrap();
        c.advance_time_us(25.0);
        assert_eq!(rec.ops(), 2);
        assert_eq!(rec.waits(), 1);
        assert_eq!(rec.faults(), 0);
        // Ops observed match the meter exactly.
        assert_eq!(rec.ops(), c.meter().total_ops());
    }

    #[test]
    fn recorder_survives_device_clone() {
        let rec = Arc::new(CountingRecorder::new());
        let mut c = TraceDevice::new(Chip::new(ChipProfile::test_small(), 3));
        c.set_recorder(Some(rec.clone()));
        let mut c2 = c.clone();
        c2.erase_block(BlockId(0)).unwrap();
        assert_eq!(rec.ops(), 1, "clone shares the recorder");
        c.set_recorder(None);
        c.erase_block(BlockId(1)).unwrap();
        assert_eq!(rec.ops(), 1, "detached device stops reporting");
    }

    #[test]
    fn trace_sees_faulted_attempts_through_the_canonical_stack() {
        // FaultDevice outermost: billing for the failed attempt flows
        // through the tracer exactly like a successful op would.
        let rec = Arc::new(CountingRecorder::new());
        let mut c = FaultDevice::with_plan(
            TraceDevice::with_recorder(chip(), rec.clone()),
            FaultPlan::new(3).with_program_fail(1.0),
        );
        let p = PageId::new(BlockId(0), 0);
        c.erase_block(p.block).unwrap();
        let data = BitPattern::zeros(c.geometry().cells_per_page());
        assert!(c.program_page(p, &data).is_err());
        assert_eq!(rec.ops(), 2, "erase + billed failed program attempt");
        assert_eq!(rec.faults(), 1);
        assert_eq!(rec.ops(), c.meter().total_ops(), "trace and meter agree");
    }

    #[test]
    fn trace_emits_multi_op_commands_like_the_meter_bills_them() {
        let rec = Arc::new(CountingRecorder::new());
        let mut c = TraceDevice::with_recorder(chip(), rec.clone());
        let p = PageId::new(BlockId(0), 0);
        c.erase_block(p.block).unwrap();
        let cpp = c.geometry().cells_per_page();
        c.stress_cells(p, &BitPattern::ones(cpp), 7).unwrap();
        let _ = c.program_time_probe(p, 30).unwrap();
        // erase(1) + stress(7 programs) + probe(30 pp + 30 reads)
        assert_eq!(rec.ops(), 1 + 7 + 60);
        assert_eq!(rec.ops(), c.meter().total_ops());
    }

    #[test]
    fn install_recorder_reaches_the_tracer_through_outer_middleware() {
        let rec = Arc::new(CountingRecorder::new());
        let mut c = FaultDevice::new(TraceDevice::new(chip()));
        c.install_recorder(Some(rec.clone() as SharedRecorder));
        c.erase_block(BlockId(0)).unwrap();
        assert_eq!(rec.ops(), 1);
    }

    #[test]
    fn wrapped_stack_matches_bare_chip_byte_for_byte() {
        // The satellite parity claim at unit scale: no-op middleware must
        // not perturb a single random draw.
        let drive = |dev: &mut dyn NandDevice| {
            let (p, _) = programmed_page(dev);
            let mask = BitPattern::ones(dev.geometry().cells_per_page());
            dev.partial_program(p, &mask).unwrap();
            dev.age_days(10.0);
            (dev.probe_voltages(p).unwrap(), dev.read_page(p).unwrap(), dev.meter())
        };
        let mut bare = chip();
        let mut stacked = FaultDevice::new(TraceDevice::new(chip()));
        assert_eq!(drive(&mut bare), drive(&mut stacked));
    }

    #[test]
    fn checkpoint_roundtrips_chip_and_fault_stream() {
        let stack = || {
            FaultDevice::with_plan(
                TraceDevice::new(chip()),
                FaultPlan::new(9).with_program_fail(0.2).with_erase_fail(0.1),
            )
        };
        let mut dev = stack();
        let p = PageId::new(BlockId(0), 2);
        let data = BitPattern::zeros(dev.geometry().cells_per_page());
        // Drive through some faults so both RNG streams move.
        for _ in 0..8 {
            let _ = dev.erase_block(p.block);
            let _ = dev.program_page(p, &data);
            let _ = dev.erase_block(p.block);
        }
        let bytes = checkpoint_bytes(&dev);

        let mut restored = stack();
        restore_bytes(&mut restored, &bytes).unwrap();
        assert_eq!(restored.meter(), dev.meter());
        // Both continue identically: same physics draws AND same fault rolls.
        for _ in 0..8 {
            assert_eq!(dev.erase_block(p.block), restored.erase_block(p.block));
            assert_eq!(dev.program_page(p, &data), restored.program_page(p, &data));
        }
        assert_eq!(dev.meter(), restored.meter());
        assert_eq!(dev.probe_voltages(p), restored.probe_voltages(p));
    }

    #[test]
    fn snapshot_rejects_plan_presence_mismatch() {
        let mut with_plan =
            FaultDevice::with_plan(chip(), FaultPlan::new(1).with_program_fail(0.5));
        let bytes = checkpoint_bytes(&with_plan);
        let mut without = FaultDevice::new(chip());
        assert!(matches!(restore_bytes(&mut without, &bytes), Err(SnapshotError::Mismatch(_))));
        // And a corrupt header is typed, not a panic.
        assert!(matches!(
            restore_bytes(&mut with_plan, b"NOTASNAP"),
            Err(SnapshotError::Corrupt(_) | SnapshotError::Truncated)
        ));
    }

    #[test]
    fn snapshot_file_roundtrip() {
        let mut dev = chip();
        let (p, _) = programmed_page(&mut dev);
        let path = std::env::temp_dir().join("stash_flash_middleware_snapshot_test.bin");
        checkpoint_to(&dev, &path).unwrap();
        let mut restored = chip();
        restore_from(&mut restored, &path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(dev.probe_voltages(p).unwrap(), restored.probe_voltages(p).unwrap());
    }

    #[test]
    fn no_cuts_is_bit_identical_passthrough() {
        let drive = |dev: &mut dyn NandDevice| {
            let (p, _) = programmed_page(dev);
            let mask = BitPattern::ones(dev.geometry().cells_per_page());
            dev.partial_program(p, &mask).unwrap();
            (dev.probe_voltages(p).unwrap(), dev.read_page(p).unwrap(), dev.meter())
        };
        let mut bare = chip();
        let mut gated = PowerCutDevice::new(chip());
        assert_eq!(drive(&mut bare), drive(&mut gated));
        assert!(!gated.is_off());
    }

    #[test]
    fn power_cut_only_plan_through_fault_device_is_passthrough() {
        // A plan carrying only a power-cut schedule installs a FaultState
        // (is_none() is false) but must not perturb a single random draw:
        // cuts are consumed by PowerCutDevice, not FaultDevice.
        let drive = |dev: &mut dyn NandDevice| {
            let (p, _) = programmed_page(dev);
            let mask = BitPattern::ones(dev.geometry().cells_per_page());
            dev.partial_program(p, &mask).unwrap();
            (dev.probe_voltages(p).unwrap(), dev.meter())
        };
        let mut bare = chip();
        let mut faulted = FaultDevice::with_plan(chip(), FaultPlan::new(5).with_power_cut(9999));
        assert!(faulted.plan().is_some());
        assert_eq!(drive(&mut bare), drive(&mut faulted));
    }

    #[test]
    fn cut_before_op_latches_without_executing() {
        // Cut at op index 1: the erase (op 0) lands, the program (op 1)
        // never reaches the medium.
        let mut dev = PowerCutDevice::with_plan(chip(), &FaultPlan::new(0).with_power_cut(1));
        let p = PageId::new(BlockId(0), 0);
        dev.erase_block(p.block).unwrap();
        let data = BitPattern::zeros(dev.geometry().cells_per_page());
        assert_eq!(dev.program_page(p, &data), Err(FlashError::PowerLoss));
        assert!(dev.is_off());
        assert_eq!(dev.meter().fault_count(FaultKind::PowerLoss), 1);
        // Every further command fails while off; metadata still works.
        assert_eq!(dev.read_page(p), Err(FlashError::PowerLoss));
        assert_eq!(dev.erase_block(p.block), Err(FlashError::PowerLoss));
        assert!(!dev.is_bad(p.block).unwrap());
        // After reboot the page is still unprogrammed: the op never ran.
        dev.reboot();
        assert!(!dev.is_page_programmed(p).unwrap());
        let bits = dev.read_page(p).unwrap();
        assert_eq!(bits.count_zeros(), 0, "page must read fully erased");
    }

    #[test]
    fn mid_cut_program_tears_data_and_never_lands_the_spare() {
        let cpp = chip().geometry().cells_per_page();
        let mut dev =
            PowerCutDevice::with_plan(chip(), &FaultPlan::new(0).with_power_cut_mid(1, 0.5));
        let p = PageId::new(BlockId(0), 0);
        dev.erase_block(p.block).unwrap();
        let data = BitPattern::zeros(cpp); // all cells programmed
        assert_eq!(dev.program_page_with_spare(p, &data, b"journal"), Err(FlashError::PowerLoss));
        dev.reboot();
        // The page is marked programmed (charge reached it) but only a
        // prefix of the cells took the pattern — and the spare is absent.
        assert!(dev.is_page_programmed(p).unwrap());
        assert_eq!(dev.read_spare(p).unwrap(), None, "torn program must not land the spare");
        let bits = dev.read_page(p).unwrap();
        let torn = bits.hamming_distance(&data);
        assert!(
            torn > cpp / 4 && torn < 3 * cpp / 4,
            "roughly half the cells must be torn, got {torn}/{cpp}"
        );
        // An intact program for comparison: spare lands atomically.
        let p2 = PageId::new(BlockId(0), 1);
        dev.program_page_with_spare(p2, &data, b"journal").unwrap();
        assert_eq!(dev.read_spare(p2).unwrap().as_deref(), Some(&b"journal"[..]));
    }

    #[test]
    fn mid_cut_erase_leaves_block_partially_erased() {
        let mut dev =
            PowerCutDevice::with_plan(chip(), &FaultPlan::new(0).with_power_cut_mid(2, 0.1));
        let cpp = dev.geometry().cells_per_page();
        let b = BlockId(0);
        let p = PageId::new(b, 0);
        dev.erase_block(b).unwrap(); // op 0
        dev.program_page(p, &BitPattern::zeros(cpp)).unwrap(); // op 1
        assert_eq!(dev.erase_block(b), Err(FlashError::PowerLoss)); // op 2, torn
        dev.reboot();
        // A 10%-complete erase leaves most of the programmed charge
        // (165 → ~146, still above the 127 read reference): the page still
        // reads mostly programmed, but wear was taken and the
        // page-programmed flags and spares were cleared by the erase pulse.
        assert!(!dev.is_page_programmed(p).unwrap());
        assert_eq!(dev.block_pec(b).unwrap(), 2, "torn erase still wears the block");
        let bits = dev.read_page(p).unwrap();
        assert!(
            bits.count_zeros() > cpp / 2,
            "a 10% erase must leave most cells reading programmed"
        );
    }

    #[test]
    fn reboot_and_rerun_is_bit_deterministic() {
        let run = || {
            let mut dev =
                PowerCutDevice::with_plan(chip(), &FaultPlan::new(0).with_power_cut_mid(3, 0.42));
            let cpp = dev.geometry().cells_per_page();
            let b = BlockId(0);
            dev.erase_block(b).unwrap();
            dev.program_page(PageId::new(b, 0), &BitPattern::zeros(cpp)).unwrap();
            dev.program_page(PageId::new(b, 1), &BitPattern::ones(cpp)).unwrap();
            let r = dev.program_page(PageId::new(b, 2), &BitPattern::zeros(cpp));
            assert_eq!(r, Err(FlashError::PowerLoss));
            dev.reboot();
            (
                dev.probe_voltages(PageId::new(b, 2)).unwrap(),
                dev.read_page(PageId::new(b, 0)).unwrap(),
                dev.meter(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn exec_cuts_at_the_same_op_as_scalar_dispatch() {
        // Sweep the cut across every op index touching a batch, including
        // exactly the first op (at_op == op_index when exec starts), the
        // last op inside the batch, and one past the end (fires only on a
        // later batch). The cut must fire at the identical op — and leave
        // the identical op log and results — as per-op scalar dispatch.
        let batch = |cpp: usize| -> Vec<NandCmd> {
            let b = BlockId(0);
            vec![
                NandCmd::EraseBlock(b),
                NandCmd::ProgramPage(PageId::new(b, 0), BitPattern::zeros(cpp)),
                NandCmd::ProgramPage(PageId::new(b, 1), BitPattern::ones(cpp)),
                NandCmd::ReadPage(PageId::new(b, 0)),
                // A sweep ticks the cut clock once per vref: the boundary
                // can land *inside* this one command's span.
                NandCmd::ReadPageSweep(PageId::new(b, 0), vec![100, 120, 140]),
                NandCmd::ReadPage(PageId::new(b, 1)),
            ]
        };
        let total_span = 8u64; // 1 erase + 2 programs + 1 read + 3 sweep ticks + 1 read
        for at_op in 0..=total_span {
            let run = |batched: bool| {
                let mut dev =
                    PowerCutDevice::with_cuts(chip(), vec![PowerCut { at_op, fraction: 0.5 }]);
                dev.set_op_logging(true);
                let cmds = batch(dev.geometry().cells_per_page());
                let results: Vec<String> = if batched {
                    dev.exec(&cmds).iter().map(|r| format!("{r:?}")).collect()
                } else {
                    cmds.iter().map(|c| format!("{:?}", dispatch_one(&mut dev, c))).collect()
                };
                (results, dev.op_index(), dev.op_log().to_vec(), dev.is_off(), dev.meter())
            };
            assert_eq!(run(true), run(false), "cut at op {at_op} fired differently in a batch");
        }
        // at_op == total_span never fires within this workload: assert the
        // whole batch survived (no off-by-one cutting the last op short).
        let mut dev =
            PowerCutDevice::with_cuts(chip(), vec![PowerCut { at_op: total_span, fraction: 0.5 }]);
        let cmds = batch(dev.geometry().cells_per_page());
        let results = dev.exec(&cmds);
        assert!(!dev.is_off(), "cut one past the batch end must not fire inside it");
        assert_eq!(dev.op_index(), total_span);
        for (i, r) in results.iter().enumerate() {
            assert!(!format!("{r:?}").contains("PowerLoss"), "cmd {i} failed: {r:?}");
        }
    }

    #[test]
    fn failing_sweep_ticks_the_cut_clock_until_its_first_failure() {
        // A sweep is its sequence of shifted reads, and it stops at the
        // first failure: the cut clock counts the reads that were issued,
        // whether or not a cut is scheduled nearby.
        let mut dev = PowerCutDevice::new(chip());
        let b = BlockId(3);
        dev.mark_bad(b).unwrap();
        let r = dev.read_page_sweep(PageId::new(b, 0), &[30, 60, 90]);
        assert_eq!(r, Err(FlashError::BadBlock(b)));
        assert_eq!(dev.op_index(), 1);
    }

    #[test]
    fn planless_fault_layer_checks_batched_commands_like_direct_ones() {
        // With or without a plan, the fault layer rejects an ill-addressed
        // or program-once-violating command before the flight ring sees
        // it, whether the command comes alone or in a batch.
        #[derive(Debug, Default)]
        struct Count(std::sync::atomic::AtomicU64);
        impl crate::recorder::FlightSink for Count {
            fn record_flight_op(&self, _: &FlightOp) {
                self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
        let sink = Arc::new(Count::default());
        let mut dev = FaultDevice::new(FlightDevice::with_sink(chip(), sink.clone()));
        let p = PageId::new(BlockId(0), 0);
        let data = BitPattern::zeros(dev.geometry().cells_per_page());
        let results = dev.exec(&[
            NandCmd::EraseBlock(p.block),
            NandCmd::ProgramPage(p, data.clone()),
            NandCmd::ProgramPage(p, data.clone()),
        ]);
        assert_eq!(results[2], CmdResult::Unit(Err(FlashError::PageAlreadyProgrammed(p))));
        assert_eq!(dev.program_page(p, &data), Err(FlashError::PageAlreadyProgrammed(p)));
        assert_eq!(sink.0.load(std::sync::atomic::Ordering::Relaxed), 2, "erase + program");
    }

    #[test]
    fn op_log_maps_indices_to_kinds() {
        let mut dev = PowerCutDevice::new(chip());
        dev.set_op_logging(true);
        let (p, _) = programmed_page(&mut dev);
        let mask = BitPattern::ones(dev.geometry().cells_per_page());
        dev.partial_program(p, &mask).unwrap();
        let _ = dev.read_page(p).unwrap();
        assert_eq!(
            dev.op_log(),
            &[OpKind::Erase, OpKind::Program, OpKind::PartialProgram, OpKind::Read]
        );
        assert_eq!(dev.op_index(), 4);
    }

    #[test]
    fn snapshot_roundtrips_power_cut_frame() {
        let stack = |cuts: Vec<PowerCut>| {
            PowerCutDevice::with_cuts(FaultDevice::new(TraceDevice::new(chip())), cuts)
        };
        let cuts = vec![PowerCut { at_op: 5, fraction: 0.0 }];
        let mut dev = stack(cuts.clone());
        let (p, _) = programmed_page(&mut dev); // ops 0..2 on the cut clock
        let bytes = checkpoint_bytes(&dev);
        let mut restored = stack(cuts);
        restore_bytes(&mut restored, &bytes).unwrap();
        assert_eq!(restored.op_index(), dev.op_index());
        assert!(!restored.is_off());
        // Both continue on the same cut clock, identically.
        let mask = BitPattern::ones(dev.geometry().cells_per_page());
        for d in [&mut dev, &mut restored] {
            d.partial_program(p, &mask).unwrap();
        }
        assert_eq!(dev.probe_voltages(p), restored.probe_voltages(p));
    }

    #[test]
    fn middleware_constructors_build_the_canonical_stack() {
        let plan = FaultPlan::new(3).with_program_fail(1.0);
        let mut faulted = FaultDevice::with_plan(
            TraceDevice::new(Chip::new(ChipProfile::test_small(), 42)),
            plan,
        );
        assert!(faulted.plan().is_some());
        let p = PageId::new(BlockId(0), 0);
        faulted.erase_block(p.block).unwrap();
        let data = BitPattern::zeros(faulted.geometry().cells_per_page());
        assert_eq!(faulted.program_page(p, &data), Err(FlashError::TransientProgramFail(p)));

        let rec = Arc::new(CountingRecorder::new());
        let mut traced = TraceDevice::new(chip());
        traced.set_recorder(Some(rec.clone() as SharedRecorder));
        traced.erase_block(BlockId(0)).unwrap();
        assert_eq!(rec.ops(), 1);
    }
}
