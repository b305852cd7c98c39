//! # stash-ftl — a page-mapped flash translation layer
//!
//! Every flash device the paper targets sits behind an FTL (§3): logical
//! addresses are remapped onto physical pages because flash forbids
//! in-place updates; garbage collection and wear leveling migrate data
//! between blocks. The FTL matters to data hiding for two reasons the paper
//! calls out:
//!
//! 1. **Migration endangers hidden data** (§5.1): when the FTL moves or
//!    erases a page that carries hidden bits, the hiding user must re-embed
//!    them. [`WriteReport::migrations`] surfaces every move so a hiding
//!    layer (see `stash-stego`) can do exactly that.
//! 2. **Wear must stay locally uniform** (§5.2, §7): VT-HI is undetectable
//!    only among blocks of comparable PEC, and the FTL's wear-leveling
//!    policy is what delivers that.
//!
//! The design is a textbook page-mapped FTL: an active block absorbs
//! writes, greedy cost-benefit GC reclaims the block with the fewest valid
//! pages, and the free-block allocator prefers the least-worn block.

mod ftl;
pub mod workload;

pub use ftl::{Ftl, FtlConfig, FtlError, FtlStats, Migration, MountReport, WriteReport};
pub use workload::{AccessPattern, WorkloadGen};
