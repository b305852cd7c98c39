//! Per-block simulation state.
//!
//! A chip tracks a small permanent record per block (wear, bad-block flag,
//! PT-HI stress damage, manufacturing offsets) and materializes the bulky
//! per-cell voltage state lazily — a paper-geometry block holds 37 M cells,
//! so experiments touch a handful of blocks at a time and may
//! [`discard`](crate::NandDevice::discard_block_state) voltage state they are done
//! with while keeping the block's physical identity (wear, offsets, damage).

use std::collections::HashMap;

/// Bulky, lazily-materialized per-cell state of one erase block.
#[derive(Debug, Clone)]
pub(crate) struct VoltState {
    /// True (analog) voltage per cell; may be negative (unmeasurable).
    pub voltages: Vec<f32>,
    /// Whether each page has been programmed since the last erase.
    pub page_programmed: Vec<bool>,
    /// Bitset over cells that received partial-program charge since the
    /// last erase (leaks faster; see the retention model).
    pub pp_written: Option<Vec<u64>>,
    /// Days of retention aging accumulated since the last erase.
    pub aged_days: f64,
    /// Reads since last erase (read-disturb accounting).
    pub read_count: u64,
    /// Per-page out-of-band spare area (controller metadata such as FTL
    /// journal records), written atomically with a full page program and
    /// cleared by erase. `None` = never written since the last erase. The
    /// spare is read through controller-grade ECC, so it is modeled
    /// noise-free: a torn program that never reached the spare leaves it
    /// `None`, which is exactly the durable-or-absent signal mount-time
    /// recovery keys on.
    pub spares: Vec<Option<Vec<u8>>>,
}

impl VoltState {
    pub(crate) fn new(cells: usize, pages: usize) -> Self {
        VoltState {
            voltages: vec![0.0; cells],
            page_programmed: vec![false; pages],
            pp_written: None,
            aged_days: 0.0,
            read_count: 0,
            spares: vec![None; pages],
        }
    }

    /// Marks a cell as carrying partial-program charge.
    pub(crate) fn mark_pp(&mut self, cell: usize) {
        let words = self.voltages.len().div_ceil(64);
        let set = self.pp_written.get_or_insert_with(|| vec![0u64; words]);
        set[cell / 64] |= 1u64 << (cell % 64);
    }

    /// Whether a cell carries partial-program charge.
    pub(crate) fn is_pp(&self, cell: usize) -> bool {
        match &self.pp_written {
            Some(set) => set[cell / 64] & (1u64 << (cell % 64)) != 0,
            None => false,
        }
    }
}

/// Permanent per-block record: survives voltage-state discard and erases.
#[derive(Debug, Clone)]
pub(crate) struct BlockMeta {
    /// Program/erase cycles endured.
    pub pec: u32,
    /// Factory bad-block flag (fails every operation, reads included).
    pub bad: bool,
    /// Grown bad-block flag (wore out at runtime): rejects program and
    /// erase but still reads, so data can be migrated off the block.
    pub grown_bad: bool,
    /// PT-HI stress damage: per-cell additive program-speed delta.
    pub stress: HashMap<usize, f32>,
    /// Cached per-cell interference coupling (only for small geometries).
    pub coupling_cache: Option<Vec<f32>>,
    /// Materialized voltage state, if any.
    pub state: Option<Box<VoltState>>,
}

impl BlockMeta {
    pub(crate) fn new() -> Self {
        BlockMeta {
            pec: 0,
            bad: false,
            grown_bad: false,
            stress: HashMap::new(),
            coupling_cache: None,
            state: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pp_bitset_marks_and_reads() {
        let mut s = VoltState::new(130, 2);
        assert!(!s.is_pp(0));
        assert!(!s.is_pp(129));
        s.mark_pp(0);
        s.mark_pp(64);
        s.mark_pp(129);
        assert!(s.is_pp(0) && s.is_pp(64) && s.is_pp(129));
        assert!(!s.is_pp(1) && !s.is_pp(63) && !s.is_pp(128));
    }

    #[test]
    fn fresh_meta_is_clean() {
        let m = BlockMeta::new();
        assert_eq!(m.pec, 0);
        assert!(!m.bad);
        assert!(!m.grown_bad);
        assert!(m.state.is_none());
        assert!(m.stress.is_empty());
    }
}
