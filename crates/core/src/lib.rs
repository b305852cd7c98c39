//! # vthi — voltage-level data hiding in NAND flash
//!
//! This crate is the primary contribution of *Stash in a Flash* (Zuck,
//! Li, Bruck, Porter, Tsafrir — FAST 2018): **VT-HI**, a scheme that hides a
//! second, secret bit inside flash cells that already store a public bit by
//! nudging the analog voltage of key-selected non-programmed cells just past
//! a secret threshold `Vth` that lies inside the natural voltage
//! distribution of erased cells.
//!
//! * Hidden cells are selected by a keyed PRNG from the page's
//!   non-programmed (`1`) public bits — no map is ever persisted
//!   (Algorithm 1, line 2).
//! * A hidden `0` is written with repeated partial-program steps until the
//!   cell crosses `Vth`; a hidden `1` is untouched (lines 5–8).
//! * Public data reads normally with no awareness of hidden data; hidden
//!   data reads back with a *single* threshold-shifted page read.
//! * Payloads are ChaCha20-encrypted and BCH-protected, so stored hidden
//!   bits are uniform and survive the scheme's 0.5–2% raw BER.
//!
//! ```
//! use stash_flash::{Chip, ChipProfile, BitPattern, BlockId, NandDevice, PageId};
//! use stash_crypto::HidingKey;
//! use vthi::{Hider, VthiConfig};
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! # fn main() -> Result<(), vthi::HideError> {
//! let mut chip = Chip::new(ChipProfile::vendor_a_scaled(), 1);
//! let key = HidingKey::from_passphrase("day planner");
//! let cfg = VthiConfig::scaled_for(chip.geometry());
//! let mut hider = Hider::new(&mut chip, key, cfg.clone());
//!
//! let page = PageId::new(BlockId(0), 0);
//! let public = BitPattern::random_half(&mut SmallRng::seed_from_u64(7),
//!                                      hider.chip().geometry().cells_per_page());
//! let secret = vec![0xA5u8; cfg.payload_bytes_per_page()];
//!
//! hider.chip_mut().erase_block(BlockId(0))?;
//! hider.hide_on_fresh_page(page, &public, &secret)?;
//!
//! // The public bit pattern is intact for the normal user...
//! let read = hider.chip_mut().read_page(page)?;
//! assert!(read.hamming_distance(&public) < public.len() / 1000);
//!
//! // ...and the hiding user recovers the secret with one shifted read.
//! assert_eq!(hider.reveal_page(page, Some(&public))?, secret);
//! # Ok(())
//! # }
//! ```

pub mod capacity;
pub mod config;
pub mod error;
pub mod hider;
pub mod mlc;
pub mod payload;
pub mod perf;
pub mod placement;
pub mod recovery;
pub mod select;

pub use capacity::{shannon_capacity_bits, PageCapacity};
pub use config::{EccChoice, VthiConfig};
pub use error::HideError;
pub use hider::{Hider, PageEncodeReport};
pub use mlc::{MlcHideConfig, MlcHider};
pub use perf::{HidingThroughput, PAPER_PAGES_PER_BLOCK_S8};
pub use placement::WearPlan;
pub use recovery::RetryPolicy;
pub use select::{select_hidden_cells, SelectionMode};

/// Result alias for hiding operations.
pub type Result<T> = std::result::Result<T, HideError>;
