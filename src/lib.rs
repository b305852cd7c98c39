//! # stash — *Stash in a Flash* (FAST '18), reproduced in Rust
//!
//! This umbrella crate re-exports the whole system described in
//! *Stash in a Flash* (Zuck, Li, Bruck, Porter, Tsafrir — FAST 2018):
//! hiding data in the analog voltage levels of NAND flash cells.
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`flash`] | `stash-flash` | Voltage-level NAND simulator (the paper's chips + tester) |
//! | [`crypto`] | `stash-crypto` | SHA-256 / HMAC / ChaCha20 / keyed cell selection |
//! | [`ecc`] | `stash-ecc` | GF(2^m), BCH |
//! | [`vthi`] | `vthi` | **VT-HI — the paper's contribution** |
//! | [`pthi`] | `pthi` | PT-HI baseline (Wang et al., S&P '13) |
//! | [`svm`] | `stash-svm` | The SVM detectability adversary of §7 |
//! | [`ftl`] | `stash-ftl` | Page-mapped FTL with GC + wear leveling |
//! | [`stego`] | `stash-stego` | Hidden volume of §9.2 |
//! | [`fingerprint`] | `stash-fingerprint` | Device fingerprints + flash TRNG (refs \[16, 39\]) |
//! | [`obs`] | `stash-obs` | Tracing, metrics, health monitoring, flight recorder |
//!
//! ## Quick start
//!
//! ```
//! use stash::flash::{Chip, ChipProfile, BitPattern, BlockId, NandDevice, PageId};
//! use stash::crypto::HidingKey;
//! use stash::vthi::{Hider, VthiConfig};
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! # fn main() -> Result<(), stash::vthi::HideError> {
//! // A simulated chip sample and the hiding user's secret key.
//! let mut chip = Chip::new(ChipProfile::vendor_a_scaled(), 0xFEED);
//! let key = HidingKey::from_passphrase("nothing to see here");
//! let cfg = VthiConfig::scaled_for(chip.geometry());
//!
//! // Store public data and a hidden payload in the same page.
//! let page = PageId::new(BlockId(0), 0);
//! let public = BitPattern::random_half(&mut SmallRng::seed_from_u64(7),
//!                                      chip.geometry().cells_per_page());
//! let secret = vec![0x42; cfg.payload_bytes_per_page()];
//!
//! let mut hider = Hider::new(&mut chip, key, cfg);
//! hider.chip_mut().erase_block(BlockId(0))?;
//! hider.hide_on_fresh_page(page, &public, &secret)?;
//! assert_eq!(hider.reveal_page(page, Some(&public))?, secret);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for end-to-end scenarios (quickstart, watermarking,
//! hidden volume, adversary) and `crates/bench` for the harnesses that
//! regenerate every table and figure of the paper.

pub use pthi;
pub use stash_crypto as crypto;
pub use stash_ecc as ecc;
pub use stash_fingerprint as fingerprint;
pub use stash_flash as flash;
pub use stash_ftl as ftl;
pub use stash_obs as obs;
pub use stash_stego as stego;
pub use stash_svm as svm;
pub use vthi;
