//! Deterministic fault injection for the simulated chip.
//!
//! Real NAND parts fail in ways the happy-path simulator never exercises:
//! program and erase operations abort transiently (status-register failures
//! the datasheet tells the controller to retry), blocks wear out and become
//! *grown* bad blocks mid-life, read-reference circuitry drifts through
//! temperature excursions, and individual cells stick at a level. A seeded
//! [`FaultPlan`] describes such a failure schedule; the
//! [`FaultDevice`](crate::FaultDevice) middleware consults it on every
//! operation.
//!
//! Determinism contract: all fault decisions derive from the plan's own
//! seed via an RNG stream *separate* from the chip's process-noise RNG, and
//! faulted operations abort **before** drawing any process noise or mutating
//! cell state. Consequences:
//!
//! * the same plan seed replays the identical fault schedule;
//! * a chip driven with [`FaultPlan::none()`] is bit-identical to one built
//!   without any plan at all;
//! * a transiently failed program/erase leaves the page or block exactly as
//!   it was — retries observe no corruption from the failed attempt.
//!
//! Grown bad blocks (triggered by a PEC threshold, an explicit schedule
//! entry, or [`grow_bad_block`](crate::NandDevice::grow_bad_block)) reject
//! program, partial-program and erase operations but **still read**: a real
//! controller migrates surviving data off a grown bad block, so the model
//! must let it.

use crate::geometry::BlockId;
use crate::latent;
use crate::rng::ChipRng;
use crate::Level;
use rand::{Rng, SeedableRng};

/// Domain separator for the fault RNG stream, so a plan seeded with the
/// chip's own seed still draws an independent sequence.
const FAULT_STREAM_SALT: u64 = 0xFA17_0B5E_C0DE_D00D;

/// A window of operations during which read noise is inflated (models a
/// temperature excursion or supply droop; paper §4 treats read noise as
/// stationary, real testers see spikes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseSpike {
    /// First global operation index (inclusive) of the window.
    pub start_op: u64,
    /// End of the window (exclusive).
    pub end_op: u64,
    /// Multiplier applied to the profile's `read_noise_sigma`.
    pub sigma_factor: f64,
}

/// A cell whose measured level is stuck regardless of stored charge
/// (shorted/open cell; reads and probes report `level`, writes succeed but
/// have no observable effect on this cell).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckCell {
    /// Block containing the cell.
    pub block: BlockId,
    /// Block-relative cell index (`page * cells_per_page + offset`).
    pub cell: usize,
    /// Level every read of this cell observes.
    pub level: Level,
}

/// A scheduled supply cut, consumed by
/// [`PowerCutDevice`](crate::PowerCutDevice) (other middleware ignores it,
/// so a power-cut-only plan routed through a
/// [`FaultDevice`](crate::FaultDevice) stays a perfect pass-through).
///
/// `fraction == 0.0` cuts *before* the operation at `at_op` executes: the
/// device latches off and the operation has no effect. `0 < fraction < 1`
/// cuts *mid-operation*: the device executes a torn variant of the
/// operation (a prefix of cells programmed, a PP pulse train stopped early,
/// a partially-discharged erase) and then latches off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerCut {
    /// Global device-operation index at which the supply drops (every
    /// command-surface operation advances the index by one).
    pub at_op: u64,
    /// How far through the operation the cut lands, in `[0, 1)`.
    pub fraction: f64,
}

/// A deterministic, seeded fault schedule for one chip.
///
/// Build with [`FaultPlan::new`] and the `with_*` methods, then wrap the
/// device in [`FaultDevice`](crate::FaultDevice) middleware:
///
/// ```
/// use stash_flash::{BlockId, Chip, ChipProfile, FaultDevice, FaultPlan};
///
/// let plan = FaultPlan::new(7)
///     .with_program_fail(0.01)
///     .with_erase_fail(0.005)
///     .with_grown_bad_after_pec(3_000)
///     .schedule_grown_bad(BlockId(2), 100);
/// let dev = FaultDevice::with_plan(Chip::new(ChipProfile::test_small(), 1), plan);
/// assert!(dev.plan().is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    program_fail_prob: f64,
    pp_fail_prob: f64,
    erase_fail_prob: f64,
    grown_bad_pec_threshold: Option<u32>,
    grown_bad_pec_prob: f64,
    grown_bad_schedule: Vec<(BlockId, u64)>,
    noise_spikes: Vec<NoiseSpike>,
    stuck_cells: Vec<StuckCell>,
    power_cuts: Vec<PowerCut>,
}

impl FaultPlan {
    /// A plan that injects nothing. A chip configured with it behaves
    /// bit-identically to a chip with no plan installed at all.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// An empty plan drawing its fault schedule from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, ..FaultPlan::default() }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Each full page program fails (typed, side-effect-free) with this
    /// probability.
    pub fn with_program_fail(mut self, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "probability out of range");
        self.program_fail_prob = prob;
        self
    }

    /// Each partial-program step fails with this probability.
    pub fn with_partial_program_fail(mut self, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "probability out of range");
        self.pp_fail_prob = prob;
        self
    }

    /// Each block erase fails transiently with this probability.
    pub fn with_erase_fail(mut self, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "probability out of range");
        self.erase_fail_prob = prob;
        self
    }

    /// Erasing a block whose PEC has reached `threshold` turns it into a
    /// grown bad block (always, unless softened with
    /// [`with_grown_bad_pec_prob`](Self::with_grown_bad_pec_prob)).
    pub fn with_grown_bad_after_pec(mut self, threshold: u32) -> Self {
        self.grown_bad_pec_threshold = Some(threshold);
        self.grown_bad_pec_prob = 1.0;
        self
    }

    /// Past the PEC threshold, each erase wears the block out with this
    /// probability instead of deterministically.
    pub fn with_grown_bad_pec_prob(mut self, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "probability out of range");
        self.grown_bad_pec_prob = prob;
        self
    }

    /// Marks `block` grown-bad at the first operation on it whose global
    /// operation index is `>= at_op` (every metered chip operation advances
    /// the index by one).
    pub fn schedule_grown_bad(mut self, block: BlockId, at_op: u64) -> Self {
        self.grown_bad_schedule.push((block, at_op));
        self
    }

    /// Multiplies read noise by `sigma_factor` for operations in
    /// `[start_op, end_op)`.
    pub fn with_noise_spike(mut self, start_op: u64, end_op: u64, sigma_factor: f64) -> Self {
        assert!(sigma_factor >= 0.0, "noise factor cannot be negative");
        self.noise_spikes.push(NoiseSpike { start_op, end_op, sigma_factor });
        self
    }

    /// Sticks one cell at a fixed measured level.
    pub fn with_stuck_cell(mut self, block: BlockId, cell: usize, level: Level) -> Self {
        self.stuck_cells.push(StuckCell { block, cell, level });
        self
    }

    /// Cuts power immediately before the operation with global index
    /// `at_op` executes (the operation has no effect; the device latches
    /// off). Equivalent to "cut after the `at_op`-th operation completes"
    /// for the preceding index.
    pub fn with_power_cut(mut self, at_op: u64) -> Self {
        self.power_cuts.push(PowerCut { at_op, fraction: 0.0 });
        self
    }

    /// Cuts power partway through the operation with global index `at_op`:
    /// the operation executes a *torn* variant covering the leading
    /// `fraction` of its effect, then the device latches off.
    pub fn with_power_cut_mid(mut self, at_op: u64, fraction: f64) -> Self {
        assert!((0.0..1.0).contains(&fraction), "cut fraction out of range");
        self.power_cuts.push(PowerCut { at_op, fraction });
        self
    }

    /// The scheduled power cuts, sorted by operation index.
    pub fn power_cuts(&self) -> Vec<PowerCut> {
        let mut cuts = self.power_cuts.clone();
        cuts.sort_by_key(|c| c.at_op);
        cuts
    }

    /// Whether the plan injects nothing (the chip then skips all fault
    /// bookkeeping entirely).
    pub fn is_none(&self) -> bool {
        self.program_fail_prob == 0.0
            && self.pp_fail_prob == 0.0
            && self.erase_fail_prob == 0.0
            && self.grown_bad_pec_threshold.is_none()
            && self.grown_bad_schedule.is_empty()
            && self.noise_spikes.is_empty()
            && self.stuck_cells.is_empty()
            && self.power_cuts.is_empty()
    }

    /// Combined read-noise multiplier for one operation index.
    pub(crate) fn noise_factor(&self, op: u64) -> f64 {
        self.noise_spikes
            .iter()
            .filter(|s| (s.start_op..s.end_op).contains(&op))
            .map(|s| s.sigma_factor)
            .product()
    }

    /// Whether a schedule entry marks `block` grown-bad at or before `op`.
    pub(crate) fn grown_bad_scheduled(&self, block: BlockId, op: u64) -> bool {
        self.grown_bad_schedule.iter().any(|&(b, at)| b == block && op >= at)
    }

    /// Stuck cells within `block`.
    pub(crate) fn stuck_in(&self, block: BlockId) -> impl Iterator<Item = &StuckCell> {
        self.stuck_cells.iter().filter(move |s| s.block == block)
    }
}

/// Live fault bookkeeping owned by fault middleware: the plan plus its
/// private RNG stream and the global operation counter.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    pub(crate) plan: FaultPlan,
    rng: ChipRng,
    pub(crate) op_index: u64,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let rng = ChipRng::seed_from_u64(latent::splitmix64(plan.seed ^ FAULT_STREAM_SALT));
        FaultState { plan, rng, op_index: 0 }
    }

    /// The RNG stream position and operation counter (snapshot support; the
    /// plan itself is configuration and is not serialized).
    pub(crate) fn stream_position(&self) -> ([u64; 4], u64) {
        (self.rng.state(), self.op_index)
    }

    /// Restores a stream position captured by
    /// [`stream_position`](Self::stream_position).
    pub(crate) fn restore_stream_position(&mut self, rng: [u64; 4], op_index: u64) {
        self.rng = ChipRng::from_state(rng);
        self.op_index = op_index;
    }

    /// Advances the global operation counter, returning this operation's
    /// index.
    pub(crate) fn tick(&mut self) -> u64 {
        let op = self.op_index;
        self.op_index += 1;
        op
    }

    fn roll(&mut self, prob: f64) -> bool {
        prob > 0.0 && self.rng.gen::<f64>() < prob
    }

    /// Whether this program operation fails transiently.
    pub(crate) fn roll_program(&mut self) -> bool {
        let p = self.plan.program_fail_prob;
        self.roll(p)
    }

    /// Whether this partial-program step fails transiently.
    pub(crate) fn roll_partial_program(&mut self) -> bool {
        let p = self.plan.pp_fail_prob;
        self.roll(p)
    }

    /// Whether this erase fails transiently.
    pub(crate) fn roll_erase(&mut self) -> bool {
        let p = self.plan.erase_fail_prob;
        self.roll(p)
    }

    /// Whether an erase bringing the block to `pec` cycles wears it out.
    pub(crate) fn roll_pec_wearout(&mut self, pec: u32) -> bool {
        match self.plan.grown_bad_pec_threshold {
            Some(t) if pec >= t => {
                let p = self.plan.grown_bad_pec_prob;
                self.roll(p)
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_none() {
        assert!(FaultPlan::none().is_none());
        assert!(FaultPlan::new(9).is_none());
        assert!(!FaultPlan::new(9).with_program_fail(0.5).is_none());
        assert!(!FaultPlan::new(9).with_stuck_cell(BlockId(0), 3, 200).is_none());
        assert!(!FaultPlan::new(9).with_power_cut(10).is_none());
    }

    #[test]
    fn empty_builders_stay_bit_identical_to_none() {
        // A plan built through the constructor with no schedules installed
        // must compare equal to `FaultPlan::none()` modulo its seed, and
        // report `is_none()` like it.
        let built = FaultPlan::new(0);
        assert_eq!(built, FaultPlan::none());
        let seeded = FaultPlan::new(77);
        assert!(seeded.is_none());
        assert!(seeded.power_cuts().is_empty());
    }

    #[test]
    fn power_cuts_sort_by_op_index() {
        let p = FaultPlan::new(1).with_power_cut(30).with_power_cut_mid(10, 0.5).with_power_cut(20);
        let cuts = p.power_cuts();
        assert_eq!(cuts.iter().map(|c| c.at_op).collect::<Vec<_>>(), vec![10, 20, 30]);
        assert_eq!(cuts[0].fraction, 0.5);
        assert_eq!(cuts[1].fraction, 0.0);
    }

    #[test]
    #[should_panic(expected = "cut fraction out of range")]
    fn mid_cut_rejects_fraction_one() {
        let _ = FaultPlan::new(1).with_power_cut_mid(0, 1.0);
    }

    #[test]
    fn noise_factor_composes_overlapping_spikes() {
        let p = FaultPlan::new(1).with_noise_spike(10, 20, 2.0).with_noise_spike(15, 25, 3.0);
        assert_eq!(p.noise_factor(5), 1.0);
        assert_eq!(p.noise_factor(12), 2.0);
        assert_eq!(p.noise_factor(17), 6.0);
        assert_eq!(p.noise_factor(20), 3.0);
        assert_eq!(p.noise_factor(25), 1.0);
    }

    #[test]
    fn schedule_fires_at_and_after_threshold() {
        let p = FaultPlan::new(1).schedule_grown_bad(BlockId(3), 7);
        assert!(!p.grown_bad_scheduled(BlockId(3), 6));
        assert!(p.grown_bad_scheduled(BlockId(3), 7));
        assert!(p.grown_bad_scheduled(BlockId(3), 99));
        assert!(!p.grown_bad_scheduled(BlockId(2), 99));
    }

    #[test]
    fn same_seed_same_rolls() {
        let plan = FaultPlan::new(42).with_program_fail(0.3).with_erase_fail(0.2);
        let rolls = |plan: &FaultPlan| {
            let mut fs = FaultState::new(plan.clone());
            (0..64).map(|_| (fs.roll_program(), fs.roll_erase())).collect::<Vec<_>>()
        };
        assert_eq!(rolls(&plan), rolls(&plan));
        let other = FaultPlan::new(43).with_program_fail(0.3).with_erase_fail(0.2);
        assert_ne!(rolls(&plan), rolls(&other));
    }

    #[test]
    fn pec_wearout_respects_threshold() {
        let plan = FaultPlan::new(5).with_grown_bad_after_pec(100);
        let mut fs = FaultState::new(plan);
        assert!(!fs.roll_pec_wearout(99));
        assert!(fs.roll_pec_wearout(100));
        assert!(fs.roll_pec_wearout(101));
    }
}
