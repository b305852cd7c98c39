//! Package geometry: blocks, pages, cells.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies one erase block within a chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// Identifies one page (wordline in SLC mode) within a chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PageId {
    /// The block containing this page.
    pub block: BlockId,
    /// Page index within the block, `0..pages_per_block`.
    pub page: u32,
}

impl PageId {
    /// Creates a page id from a block and a page index within the block.
    pub fn new(block: BlockId, page: u32) -> Self {
        PageId { block, page }
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:P{}", self.block, self.page)
    }
}

/// The physical layout of a flash package.
///
/// The paper's vendor-A chip (§6.1) has 8 GB across 2048 blocks of 256 pages
/// (128 lower + 128 upper), with 18048-byte pages. This simulator operates
/// pages in SLC mode, one bit per cell, so a page holds
/// `page_bytes * 8` cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Geometry {
    /// Erase blocks per chip.
    pub blocks_per_chip: u32,
    /// Pages per erase block.
    pub pages_per_block: u32,
    /// Data bytes per page.
    pub page_bytes: usize,
}

impl Geometry {
    /// The paper's vendor-A 1x-nm MLC package (§6.1): 2048 blocks,
    /// 256 pages/block, 18048-byte pages.
    pub fn paper_vendor_a() -> Self {
        Geometry { blocks_per_chip: 2048, pages_per_block: 256, page_bytes: 18048 }
    }

    /// The second vendor's package used for the applicability experiment
    /// (§8): 16 GB, 2096 blocks, 18256-byte pages.
    pub fn paper_vendor_b() -> Self {
        Geometry { blocks_per_chip: 2096, pages_per_block: 256, page_bytes: 18256 }
    }

    /// A scaled-down geometry for statistical experiments (SVM detectability)
    /// where per-cell simulation of full 18 KB pages would be needlessly
    /// slow: 2048-byte pages, 32 pages per block. Distribution *shapes* are
    /// preserved; densities (e.g. hidden bits per page) are scaled by cell
    /// count.
    pub fn scaled_svm() -> Self {
        Geometry { blocks_per_chip: 256, pages_per_block: 32, page_bytes: 2048 }
    }

    /// A tiny geometry for unit tests.
    pub fn tiny() -> Self {
        Geometry { blocks_per_chip: 8, pages_per_block: 8, page_bytes: 256 }
    }

    /// Cells (bits, in SLC mode) per page.
    pub fn cells_per_page(&self) -> usize {
        self.page_bytes * 8
    }

    /// Cells per erase block.
    pub fn cells_per_block(&self) -> usize {
        self.cells_per_page() * self.pages_per_block as usize
    }

    /// Iterator over all page ids of one block.
    pub fn pages_of(&self, block: BlockId) -> impl Iterator<Item = PageId> {
        (0..self.pages_per_block).map(move |p| PageId::new(block, p))
    }

    /// Checks that a block id is within this geometry.
    pub fn contains_block(&self, b: BlockId) -> bool {
        b.0 < self.blocks_per_chip
    }

    /// Checks that a page id is within this geometry.
    pub fn contains_page(&self, p: PageId) -> bool {
        self.contains_block(p.block) && p.page < self.pages_per_block
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_vendor_a_capacity_is_8gb_class() {
        let g = Geometry::paper_vendor_a();
        let bytes = g.blocks_per_chip as u64 * g.pages_per_block as u64 * g.page_bytes as u64;
        // 2048 * 256 * 18048 B ≈ 8.8 GiB raw (data + spare area).
        assert!(bytes > 8 * (1 << 30) && bytes < 10 * (1 << 30), "raw bytes = {bytes}");
        assert_eq!(g.cells_per_page(), 144_384);
    }

    #[test]
    fn page_iteration_covers_block() {
        let g = Geometry::tiny();
        let pages: Vec<_> = g.pages_of(BlockId(2)).collect();
        assert_eq!(pages.len(), 8);
        assert_eq!(pages[0], PageId::new(BlockId(2), 0));
        assert_eq!(pages[7], PageId::new(BlockId(2), 7));
    }

    #[test]
    fn containment_checks() {
        let g = Geometry::tiny();
        assert!(g.contains_block(BlockId(7)));
        assert!(!g.contains_block(BlockId(8)));
        assert!(g.contains_page(PageId::new(BlockId(0), 7)));
        assert!(!g.contains_page(PageId::new(BlockId(0), 8)));
        assert!(!g.contains_page(PageId::new(BlockId(9), 0)));
    }

    #[test]
    fn ids_display() {
        assert_eq!(BlockId(5).to_string(), "B5");
        assert_eq!(PageId::new(BlockId(5), 3).to_string(), "B5:P3");
    }
}
