//! # stash-flash — a voltage-level NAND flash simulator
//!
//! This crate is the hardware substrate for the *Stash in a Flash* (FAST '18)
//! reproduction. The paper's evaluation drives real 1x-nm MLC NAND packages
//! through a commercial flash tester using vendor commands that are only
//! available under NDA: per-cell voltage probing, partial programming, and
//! reference-threshold-shifted reads. This crate provides the same command
//! set against a simulated chip whose voltage statistics are calibrated to
//! the paper's measurements (Figures 2, 3, 5 and Section 4):
//!
//! * normalized voltage levels in `0..=255`, SLC read reference at level 127;
//! * erased (logical `1`) cells mostly negatively charged (measured as 0),
//!   with a positive tail created by program interference from neighboring
//!   wordlines — roughly 1% of erased cells naturally sit above the paper's
//!   hidden threshold `Vth = 34`;
//! * programmed (logical `0`) cells concentrated in `[120, 210]`;
//! * distributions shift right and widen as program/erase cycles (PEC)
//!   accumulate; bit-error rates grow with wear and with retention time;
//! * per-chip, per-block and per-page manufacturing variation, programming
//!   noise, erratic (defective) cells, and partial-program imprecision.
//!
//! The top-level type is [`Chip`]. A typical session mirrors a tester script:
//!
//! ```
//! use stash_flash::{Chip, ChipProfile, BitPattern, PageId, BlockId, NandDevice};
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! # fn main() -> Result<(), stash_flash::FlashError> {
//! let mut chip = Chip::new(ChipProfile::test_small(), 0xC0FFEE);
//! let block = BlockId(3);
//! let page = PageId::new(block, 0);
//!
//! chip.erase_block(block)?;
//! let data = BitPattern::random_half(&mut SmallRng::seed_from_u64(7),
//!                                    chip.geometry().cells_per_page());
//! chip.program_page(page, &data)?;
//!
//! // Standard read: compares each cell against the SLC reference voltage.
//! let back = chip.read_page(page)?;
//! assert!(back.hamming_distance(&data) < data.len() / 1000);
//!
//! // Vendor characterization command: probe per-cell voltage levels.
//! let mut levels = Vec::new();
//! chip.probe_voltages_into(page, &mut levels)?;
//! assert_eq!(levels.len(), chip.geometry().cells_per_page());
//! # Ok(())
//! # }
//! ```
//!
//! All randomness is deterministic given the chip seed, so experiments are
//! reproducible; distinct seeds model distinct physical chip samples.

pub mod array;
pub mod ber;
pub mod bits;
pub mod block;
pub mod chip;
pub mod crc;
pub mod device;
pub mod error;
pub mod fault;
pub mod geometry;
pub mod histogram;
mod isa;
pub mod latent;
pub mod meter;
pub mod middleware;
pub mod mlc;
pub mod noise;
pub mod profile;
pub mod recorder;
pub mod rng;
pub mod snapshot;

pub use array::ArrayDevice;
pub use ber::BitErrorStats;
pub use bits::BitPattern;
pub use chip::Chip;
pub use crc::crc32;
pub use device::{CmdResult, NandCmd, NandDevice, Op, WearSummary};
pub use error::FlashError;
pub use fault::{FaultPlan, NoiseSpike, PowerCut, StuckCell};
pub use geometry::{BlockId, Geometry, PageId};
pub use histogram::Histogram;
pub use meter::{FaultKind, Meter, MeterSnapshot, OpKind};
pub use middleware::{FaultDevice, FlightDevice, Hook, Layer, PowerCutDevice, TraceDevice};
pub use profile::{ChipProfile, TimingModel};
pub use recorder::{
    CountingRecorder, FlightOp, FlightSink, Recorder, SharedFlightSink, SharedRecorder,
};
pub use rng::ChipRng;
pub use snapshot::{DeviceState, SnapshotError, StateReader, StateWriter};

/// A measured, normalized voltage level, as reported by the vendor
/// characterization command (`0..=255`, see paper §4 footnote 1: negative
/// voltages are not measurable and read as 0).
pub type Level = u8;

/// The SLC read reference voltage: cells measured below this level read as
/// logical `1` (non-programmed), cells at or above it as logical `0`
/// (paper §5.3: "any voltage level less than about 127 is considered a
/// public '1'").
pub const SLC_READ_REF: Level = 127;

/// Result alias for fallible flash operations.
pub type Result<T> = std::result::Result<T, FlashError>;
