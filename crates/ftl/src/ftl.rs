//! The page-mapped FTL implementation.

use stash_flash::{crc32, BitPattern, BlockId, Chip, FlashError, NandDevice, PageId};
use stash_obs::{span, Tracer};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Logical page number.
pub type Lpn = u64;

/// Journal record magic, first bytes of every spare the FTL writes.
const JOURNAL_MAGIC: [u8; 4] = *b"SJ01";
/// Journal record format version.
const JOURNAL_VERSION: u8 = 1;
/// Encoded journal record length: magic + version + seq + lpn + crc32.
const JOURNAL_LEN: usize = 4 + 1 + 8 + 8 + 4;

/// Encodes the per-page journal record the FTL appends to every program's
/// spare area: which logical page this physical page holds, stamped with a
/// monotonically increasing sequence number so a remount scan can order
/// copies of the same LPN.
fn encode_journal(seq: u64, lpn: Lpn) -> [u8; JOURNAL_LEN] {
    let mut rec = [0u8; JOURNAL_LEN];
    rec[..4].copy_from_slice(&JOURNAL_MAGIC);
    rec[4] = JOURNAL_VERSION;
    rec[5..13].copy_from_slice(&seq.to_le_bytes());
    rec[13..21].copy_from_slice(&lpn.to_le_bytes());
    let crc = crc32(&rec[..21]);
    rec[21..25].copy_from_slice(&crc.to_le_bytes());
    rec
}

/// Decodes a journal record; `None` for anything that is not a well-formed
/// record (wrong length, magic, version, or CRC) — a remount scan treats
/// such pages as torn.
fn decode_journal(spare: &[u8]) -> Option<(u64, Lpn)> {
    if spare.len() != JOURNAL_LEN || spare[..4] != JOURNAL_MAGIC || spare[4] != JOURNAL_VERSION {
        return None;
    }
    let crc = u32::from_le_bytes(spare[21..25].try_into().ok()?);
    if crc != crc32(&spare[..21]) {
        return None;
    }
    let seq = u64::from_le_bytes(spare[5..13].try_into().ok()?);
    let lpn = u64::from_le_bytes(spare[13..21].try_into().ok()?);
    Some((seq, lpn))
}

/// FTL configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FtlConfig {
    /// Blocks withheld from logical capacity (over-provisioning); must be
    /// at least 2 so GC always has somewhere to move data.
    pub reserve_blocks: u32,
    /// GC starts when the free-block pool shrinks to this size.
    pub gc_low_water: u32,
}

impl Default for FtlConfig {
    fn default() -> Self {
        FtlConfig { reserve_blocks: 4, gc_low_water: 2 }
    }
}

/// Errors returned by the FTL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FtlError {
    /// An underlying flash operation failed.
    Flash(FlashError),
    /// The logical address is beyond the exported capacity.
    LpnOutOfRange {
        /// Requested logical page.
        lpn: Lpn,
        /// Exported logical pages.
        capacity: u64,
    },
    /// The device is full and garbage collection cannot reclaim space.
    NoSpace,
    /// Configuration is unusable for this geometry.
    InvalidConfig(String),
}

impl fmt::Display for FtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtlError::Flash(e) => write!(f, "flash operation failed: {e}"),
            FtlError::LpnOutOfRange { lpn, capacity } => {
                write!(f, "lpn {lpn} beyond logical capacity {capacity}")
            }
            FtlError::NoSpace => write!(f, "no reclaimable space left"),
            FtlError::InvalidConfig(m) => write!(f, "invalid ftl configuration: {m}"),
        }
    }
}

impl std::error::Error for FtlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FtlError::Flash(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FlashError> for FtlError {
    fn from(e: FlashError) -> Self {
        FtlError::Flash(e)
    }
}

/// One page relocation performed by garbage collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// Logical page that moved.
    pub lpn: Lpn,
    /// Previous physical location (now erased or about to be).
    pub from: PageId,
    /// New physical location.
    pub to: PageId,
}

/// Outcome of a logical write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteReport {
    /// Physical page that received the data.
    pub page: PageId,
    /// Relocations performed by GC to make room, in order. A hiding layer
    /// must re-embed hidden payloads for these pages (paper §5.1).
    pub migrations: Vec<Migration>,
    /// Blocks erased by GC during this write (hidden data there is gone).
    pub erased_blocks: Vec<BlockId>,
}

/// What a crash-recovery mount scan found on the device. Produced by
/// [`Ftl::mount`]; the counts feed the recovery metrics in the chaos and
/// crash-point benches.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MountReport {
    /// Physical pages whose spare area was scanned.
    pub scanned_pages: u64,
    /// Pages whose journal record won its LPN (now mapped).
    pub live_pages: u64,
    /// Pages holding a superseded copy of an LPN (valid journal, lost on
    /// sequence number).
    pub stale_pages: u64,
    /// Programmed pages with a missing or corrupt journal record — torn
    /// programs, discarded by the durable-or-absent rule.
    pub torn_pages: u64,
    /// Blocks sealed against further appends (any programmed page).
    pub sealed_blocks: u32,
    /// Blocks returned to the free pool (will be erased before reuse).
    pub free_blocks: u32,
    /// Blocks found grown bad and retired.
    pub retired_blocks: u32,
    /// Simulated device time the scan cost, microseconds.
    pub scan_device_us: f64,
}

/// Cumulative FTL statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FtlStats {
    /// Host page writes accepted.
    pub host_writes: u64,
    /// Physical page programs issued (host + GC).
    pub physical_writes: u64,
    /// GC invocations.
    pub gc_runs: u64,
    /// Pages relocated by GC.
    pub gc_moves: u64,
    /// Blocks erased.
    pub erases: u64,
    /// Blocks permanently retired after going grown bad.
    pub retirements: u64,
    /// Transient program/erase failures absorbed by retries.
    pub transient_retries: u64,
}

impl FtlStats {
    /// Write amplification factor (physical / host writes).
    pub fn write_amplification(&self) -> f64 {
        if self.host_writes == 0 {
            1.0
        } else {
            self.physical_writes as f64 / self.host_writes as f64
        }
    }
}

/// A page-mapped flash translation layer owning a [`NandDevice`].
///
/// Generic over the device backend, defaulting to a bare [`Chip`]; hand it
/// a middleware stack (`FaultDevice<TraceDevice<Chip>>`, …) to run the same
/// FTL against fault injection or tracing.
#[derive(Debug)]
pub struct Ftl<D: NandDevice = Chip> {
    chip: D,
    cfg: FtlConfig,
    /// lpn → physical page.
    map: HashMap<Lpn, PageId>,
    /// physical page → lpn (valid pages only).
    rmap: HashMap<PageId, Lpn>,
    /// Valid-page count per block.
    valid: Vec<u32>,
    /// Next free page index per block (pages_per_block = full).
    cursor: Vec<u32>,
    /// Fully-free blocks (erased, cursor 0), one pool per chip: allocation,
    /// GC and wear leveling are confined to the chip that owns an LPN, so
    /// cross-chip placement guarantees made above the FTL survive every
    /// relocation.
    free: Vec<Vec<BlockId>>,
    /// Block currently absorbing writes, one per chip.
    active: Vec<Option<BlockId>>,
    /// Chips behind the device ([`NandDevice::chip_count`]); 1 for a bare
    /// chip.
    chips: u32,
    /// Blocks per chip (`blocks_per_chip / chips`).
    local_blocks: u32,
    /// Blocks pulled out of rotation after going grown bad.
    retired: Vec<bool>,
    /// Blocks that must be erased before accepting writes even though they
    /// look empty — after a mount, an empty block may hide a torn erase.
    needs_erase: Vec<bool>,
    /// Sequence number stamped on the next journal record.
    next_seq: u64,
    stats: FtlStats,
    tracer: Option<Arc<Tracer>>,
}

/// Attempts after the first for transient program/erase failures.
const TRANSIENT_RETRIES: u32 = 4;
/// Simulated backoff before retry `n` is `RETRY_BACKOFF_US * 2^n`.
const RETRY_BACKOFF_US: f64 = 50.0;

impl<D: NandDevice> Ftl<D> {
    /// Creates an FTL over a device, erasing nothing up front (all blocks
    /// are treated as free).
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::InvalidConfig`] when the reserve does not leave
    /// at least one logical block or GC headroom is impossible.
    pub fn new(chip: D, cfg: FtlConfig) -> Result<Self, FtlError> {
        let blocks = chip.geometry().blocks_per_chip;
        let chips = chip.chip_count().max(1);
        if !blocks.is_multiple_of(chips) {
            return Err(FtlError::InvalidConfig(format!(
                "{blocks} blocks do not divide evenly over {chips} chips"
            )));
        }
        let local_blocks = blocks / chips;
        if cfg.reserve_blocks < 2 {
            return Err(FtlError::InvalidConfig("reserve_blocks must be at least 2".into()));
        }
        // Reserve and GC headroom are per chip: each chip runs its own
        // allocation rotation, so each needs its own over-provisioning.
        if cfg.reserve_blocks >= local_blocks {
            return Err(FtlError::InvalidConfig(format!(
                "reserve {} exceeds {} blocks per chip",
                cfg.reserve_blocks, local_blocks
            )));
        }
        if cfg.gc_low_water < 1 || cfg.gc_low_water >= cfg.reserve_blocks {
            return Err(FtlError::InvalidConfig(
                "gc_low_water must be in [1, reserve_blocks)".into(),
            ));
        }
        let free: Vec<Vec<BlockId>> = (0..chips)
            .map(|c| (c * local_blocks..(c + 1) * local_blocks).map(BlockId).collect())
            .collect();
        Ok(Ftl {
            chip,
            cfg,
            map: HashMap::new(),
            rmap: HashMap::new(),
            valid: vec![0; blocks as usize],
            cursor: vec![0; blocks as usize],
            free,
            active: vec![None; chips as usize],
            chips,
            local_blocks,
            retired: vec![false; blocks as usize],
            needs_erase: vec![false; blocks as usize],
            next_seq: 0,
            stats: FtlStats::default(),
            tracer: None,
        })
    }

    /// The chip that owns a global block id.
    fn chip_of_block(&self, b: BlockId) -> usize {
        (b.0 / self.local_blocks) as usize
    }

    /// The home chip of a logical page. LPNs stripe round-robin over chips
    /// (`lpn % chips`) and never change home: GC, wear leveling and
    /// evacuation all relocate within the owning chip, so any cross-chip
    /// placement a layer above arranged (parity groups on distinct chips)
    /// is preserved for the life of the data.
    pub fn chip_of_lpn(&self, lpn: Lpn) -> usize {
        (lpn % u64::from(self.chips)) as usize
    }

    /// Chips behind the device (1 for a bare chip).
    pub fn chip_count(&self) -> u32 {
        self.chips
    }

    /// Mounts an FTL over a device that may hold prior state — the
    /// crash-recovery path. Scans every page's spare-area journal record
    /// and rebuilds the logical map from what actually became durable:
    ///
    /// * A programmed page with a valid journal record is a candidate copy
    ///   of its LPN; the highest sequence number wins, older copies are
    ///   stale.
    /// * A programmed page with a missing or corrupt record is a **torn
    ///   program** (the power died mid-pulse, before the spare landed). It
    ///   is left unmapped — the durable-or-absent rule — and its block is
    ///   sealed so GC reclaims it.
    /// * An empty block cannot be distinguished from a partially torn
    ///   erase, so it re-enters the free pool flagged for a clean erase
    ///   before reuse.
    /// * Grown-bad blocks are retired.
    ///
    /// # Errors
    ///
    /// Fails on configuration errors or device faults during the scan.
    pub fn mount(chip: D, cfg: FtlConfig) -> Result<(Self, MountReport), FtlError> {
        let mut f = Self::new(chip, cfg)?;
        let report = f.rebuild_from_device()?;
        Ok((f, report))
    }

    /// The mount-time scan behind [`mount`](Self::mount).
    fn rebuild_from_device(&mut self) -> Result<MountReport, FtlError> {
        let blocks_per_chip = self.chip.geometry().blocks_per_chip;
        let pages_per_block = self.chip.geometry().pages_per_block;
        let device_us_before = self.chip.meter().device_time_us;
        let mut report = MountReport::default();
        // (seq, lpn, page) candidates; seq is unique, so the sort below is
        // total and the rebuild deterministic.
        let mut candidates: Vec<(u64, Lpn, PageId)> = Vec::new();

        for pool in &mut self.free {
            pool.clear();
        }
        for slot in &mut self.active {
            *slot = None;
        }
        // Two phases: find every programmed page, then read their spares in
        // address order (replay below is ordered by the global sequence
        // number anyway).
        let mut spare_pages: Vec<PageId> = Vec::new();
        for b in (0..blocks_per_chip).map(BlockId) {
            if self.chip.is_grown_bad(b)? {
                self.mark_retired(b);
                self.cursor[b.0 as usize] = pages_per_block;
                report.retired_blocks += 1;
                continue;
            }
            let mut programmed = 0u32;
            for p in 0..pages_per_block {
                let page = PageId::new(b, p);
                if !self.chip.is_page_programmed(page)? {
                    continue;
                }
                programmed += 1;
                report.scanned_pages += 1;
                spare_pages.push(page);
            }
            if programmed > 0 {
                // Seal: no appends into a block with history; GC reclaims.
                self.cursor[b.0 as usize] = pages_per_block;
                report.sealed_blocks += 1;
            } else {
                self.cursor[b.0 as usize] = 0;
                self.needs_erase[b.0 as usize] = true;
                let owner = self.chip_of_block(b);
                self.free[owner].push(b);
                report.free_blocks += 1;
            }
        }
        for page in spare_pages {
            let spare = self.chip.read_spare(page)?;
            match spare.as_deref().and_then(decode_journal) {
                Some((seq, lpn)) => candidates.push((seq, lpn, page)),
                None => report.torn_pages += 1,
            }
        }

        // Replay the journal in sequence order; the last write to an LPN
        // wins, exactly as it did before the crash.
        candidates.sort_unstable_by_key(|&(seq, _, _)| seq);
        for &(seq, lpn, page) in &candidates {
            if let Some(old) = self.map.insert(lpn, page) {
                self.rmap.remove(&old);
                self.valid[old.block.0 as usize] -= 1;
                report.stale_pages += 1;
            }
            self.rmap.insert(page, lpn);
            self.valid[page.block.0 as usize] += 1;
            self.next_seq = seq + 1;
        }
        report.live_pages = self.map.len() as u64;
        report.scan_device_us = self.chip.meter().device_time_us - device_us_before;
        Ok(report)
    }

    /// Verifies the internal mapping invariants: `map`/`rmap` are mutually
    /// consistent bijections, per-block valid counters agree with `rmap`,
    /// and no mapping points at a retired block.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_consistency(&self) -> Result<(), String> {
        for (lpn, page) in &self.map {
            if self.rmap.get(page) != Some(lpn) {
                return Err(format!("map/rmap disagree for lpn {lpn} at {page}"));
            }
            if self.retired[page.block.0 as usize] {
                return Err(format!("lpn {lpn} mapped onto retired {}", page.block));
            }
        }
        for (page, lpn) in &self.rmap {
            if self.map.get(lpn) != Some(page) {
                return Err(format!("rmap/map disagree for {page} (lpn {lpn})"));
            }
        }
        for b in 0..self.valid.len() {
            let counted = self.rmap.keys().filter(|p| p.block.0 as usize == b).count() as u32;
            if self.valid[b] != counted {
                return Err(format!(
                    "block {b} valid counter {} != counted {counted}",
                    self.valid[b]
                ));
            }
        }
        Ok(())
    }

    /// Attaches (or detaches, with `None`) a tracer: GC, wear leveling and
    /// evacuation open spans on it, and the tracer is installed as the
    /// device's [`Recorder`](stash_flash::Recorder) so every flash op
    /// attributes to the span that issued it (a no-op unless a
    /// [`TraceDevice`](stash_flash::TraceDevice) sits in the stack).
    pub fn attach_tracer(&mut self, tracer: Option<Arc<Tracer>>) {
        self.chip.install_recorder(tracer.clone().map(|t| t as stash_flash::SharedRecorder));
        self.tracer = tracer;
    }

    /// The tracer attached via [`attach_tracer`](Self::attach_tracer).
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// Logical pages exported to the host: per-chip capacity × chips (the
    /// reserve is withheld on every chip).
    pub fn capacity_pages(&self) -> u64 {
        let g = self.chip.geometry();
        u64::from(self.chips)
            * u64::from(self.local_blocks - self.cfg.reserve_blocks)
            * u64::from(g.pages_per_block)
    }

    /// Shared access to the device.
    pub fn chip(&self) -> &D {
        &self.chip
    }

    /// Exclusive access to the device — used by hiding layers to run their
    /// extra programming passes on pages the FTL just placed.
    pub fn chip_mut(&mut self) -> &mut D {
        &mut self.chip
    }

    /// Consumes the FTL, returning the device.
    pub fn into_chip(self) -> D {
        self.chip
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> FtlStats {
        self.stats
    }

    /// Physical location of a logical page, if mapped.
    pub fn physical_of(&self, lpn: Lpn) -> Option<PageId> {
        self.map.get(&lpn).copied()
    }

    /// Logical owner of a physical page, if valid.
    pub fn logical_of(&self, page: PageId) -> Option<Lpn> {
        self.rmap.get(&page).copied()
    }

    /// Writes one logical page. Any GC work needed to make room happens
    /// first and is reported.
    ///
    /// # Errors
    ///
    /// Fails when the LPN is out of range, the pattern is mis-sized, or the
    /// device cannot reclaim space.
    pub fn write(&mut self, lpn: Lpn, data: &BitPattern) -> Result<WriteReport, FtlError> {
        self.check_lpn(lpn)?;
        let _write = span!(self.tracer, "host_write", "lpn={lpn}");
        let (mut migrations, mut erased) = (Vec::new(), Vec::new());
        self.ensure_headroom(self.chip_of_lpn(lpn), &mut migrations, &mut erased)?;

        let page = self.program_on_fresh_page(lpn, data, &mut migrations, &mut erased)?;
        self.stats.host_writes += 1;

        // Invalidate the old copy, if any.
        if let Some(old) = self.map.insert(lpn, page) {
            self.rmap.remove(&old);
            self.valid[old.block.0 as usize] -= 1;
        }
        self.rmap.insert(page, lpn);
        self.valid[page.block.0 as usize] += 1;

        Ok(WriteReport { page, migrations, erased_blocks: erased })
    }

    /// Reads one logical page; `None` if never written or trimmed.
    ///
    /// # Errors
    ///
    /// Fails when the LPN is out of range or the flash read fails.
    pub fn read(&mut self, lpn: Lpn) -> Result<Option<BitPattern>, FtlError> {
        self.check_lpn(lpn)?;
        match self.map.get(&lpn) {
            None => Ok(None),
            Some(&page) => {
                let _read = span!(self.tracer, "host_read", "lpn={lpn}");
                Ok(Some(self.chip.read_page(page)?))
            }
        }
    }

    /// Discards a logical page (TRIM).
    ///
    /// # Errors
    ///
    /// Fails when the LPN is out of range.
    pub fn trim(&mut self, lpn: Lpn) -> Result<(), FtlError> {
        self.check_lpn(lpn)?;
        if let Some(old) = self.map.remove(&lpn) {
            self.rmap.remove(&old);
            self.valid[old.block.0 as usize] -= 1;
        }
        Ok(())
    }

    /// Static wear leveling (paper refs [70–72]): when the wear spread
    /// exceeds `threshold`, relocate the cold data parked on the
    /// least-worn full block so that block re-enters the allocation
    /// rotation. Returns the migrations performed (a hiding layer must
    /// re-embed for them, like any GC move). No-op when wear is even.
    ///
    /// Keeping wear locally uniform is not just an endurance concern here:
    /// the paper's detectability result (Fig. 10) holds only among blocks
    /// of comparable PEC, so a steganographic device *must* wear-level.
    ///
    /// # Errors
    ///
    /// Fails on flash errors or if space cannot be reclaimed.
    pub fn static_wear_level(&mut self, threshold: u32) -> Result<Vec<Migration>, FtlError> {
        // Wear is judged and leveled within each chip: the detectability
        // argument needs comparable PEC *among the blocks an examiner would
        // compare*, and relocations must not move an LPN off its home chip.
        let mut migrations = Vec::new();
        for c in 0..self.chips as usize {
            migrations.extend(self.wear_level_chip(c, threshold)?);
        }
        Ok(migrations)
    }

    /// One chip's static wear-leveling pass (see
    /// [`static_wear_level`](Self::static_wear_level)).
    fn wear_level_chip(&mut self, c: usize, threshold: u32) -> Result<Vec<Migration>, FtlError> {
        let pages_per_block = self.chip.geometry().pages_per_block;
        let lo = c as u32 * self.local_blocks;
        let hi = lo + self.local_blocks;
        let pecs: Vec<u32> =
            (lo..hi).map(|b| self.chip.block_pec(BlockId(b)).unwrap_or(0)).collect();
        let max_pec = *pecs.iter().max().unwrap_or(&0);
        // Coldest candidate: least-worn, fully-written, non-active block.
        let Some(cold) = (lo..hi)
            .map(BlockId)
            .filter(|b| Some(*b) != self.active[c])
            .filter(|b| !self.retired[b.0 as usize])
            .filter(|b| self.cursor[b.0 as usize] == pages_per_block)
            .filter(|b| self.valid[b.0 as usize] > 0)
            .min_by_key(|b| pecs[(b.0 - lo) as usize])
        else {
            return Ok(Vec::new());
        };
        if max_pec.saturating_sub(pecs[(cold.0 - lo) as usize]) < threshold {
            return Ok(Vec::new());
        }
        let _wl = span!(self.tracer, "static_wear_level", "cold={cold}");

        let mut migrations = Vec::new();
        let mut erased = Vec::new();
        for p in 0..pages_per_block {
            let from = PageId::new(cold, p);
            let Some(&lpn) = self.rmap.get(&from) else { continue };
            let data = self.chip.read_page(from)?;
            let to = self.program_on_fresh_page(lpn, &data, &mut migrations, &mut erased)?;
            self.stats.gc_moves += 1;
            self.rmap.remove(&from);
            self.valid[cold.0 as usize] -= 1;
            self.map.insert(lpn, to);
            self.rmap.insert(to, lpn);
            self.valid[to.block.0 as usize] += 1;
            migrations.push(Migration { lpn, from, to });
        }
        if self.erase_unless_grown_bad(cold)? {
            self.cursor[cold.0 as usize] = 0;
            self.free[c].push(cold);
        }
        Ok(migrations)
    }

    /// Blocks currently in the free pool (all chips).
    pub fn free_blocks(&self) -> usize {
        self.free.iter().map(Vec::len).sum::<usize>()
            + (0..self.chips as usize).filter(|&c| self.active_has_room(c)).count()
    }

    /// Blocks currently in chip `c`'s free pool.
    pub fn free_blocks_on_chip(&self, c: usize) -> usize {
        self.free[c].len() + usize::from(self.active_has_room(c))
    }

    /// Number of blocks permanently retired after going grown bad — the
    /// cheap census [`retired_blocks`](Self::retired_blocks) enumerates.
    pub fn retired_count(&self) -> usize {
        self.retired.iter().filter(|&&r| r).count()
    }

    /// Depth of the spare-area write journal: the next sequence number to
    /// be issued, i.e. how many journaled page writes this FTL has
    /// performed (or replayed) over its lifetime.
    pub fn journal_depth(&self) -> u64 {
        self.next_seq
    }

    /// Blocks permanently retired after going grown bad.
    pub fn retired_blocks(&self) -> Vec<BlockId> {
        self.retired
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r)
            .map(|(i, _)| BlockId(i as u32))
            .collect()
    }

    /// Moves every valid page off `block` and takes it out of rotation.
    ///
    /// This is the grown-bad remap hook for scrub/recovery layers: when the
    /// chip declares a block grown bad its pages still *read* fine but can
    /// never be erased or reprogrammed, so live data must move while it is
    /// legible. The block is erased and refreed when it is actually
    /// healthy, retired otherwise. Returns the migrations performed —
    /// hidden payloads on them must be re-embedded, like any GC move.
    ///
    /// # Errors
    ///
    /// Fails on flash errors or if space cannot be reclaimed for the moved
    /// pages.
    pub fn evacuate_block(&mut self, block: BlockId) -> Result<Vec<Migration>, FtlError> {
        let _evac = span!(self.tracer, "evacuate_block", "block={block}");
        let pages_per_block = self.chip.geometry().pages_per_block;
        let c = self.chip_of_block(block);
        if self.active[c] == Some(block) {
            self.active[c] = None;
        }
        // Never hand out pages from the block while it drains.
        self.cursor[block.0 as usize] = pages_per_block;
        if let Some(pos) = self.free[c].iter().position(|&b| b == block) {
            self.free[c].swap_remove(pos);
        }
        let mut migrations = Vec::new();
        let mut erased = Vec::new();
        for p in 0..pages_per_block {
            let from = PageId::new(block, p);
            let Some(&lpn) = self.rmap.get(&from) else { continue };
            let data = {
                let _copy = span!(self.tracer, "migrate_read");
                self.chip.read_page(from)?
            };
            let to = self.program_on_fresh_page(lpn, &data, &mut migrations, &mut erased)?;
            self.stats.gc_moves += 1;
            self.rmap.remove(&from);
            self.valid[block.0 as usize] -= 1;
            self.map.insert(lpn, to);
            self.rmap.insert(to, lpn);
            self.valid[to.block.0 as usize] += 1;
            migrations.push(Migration { lpn, from, to });
        }
        if self.chip.is_grown_bad(block)? {
            self.mark_retired(block);
        } else if self.erase_unless_grown_bad(block)? {
            self.cursor[block.0 as usize] = 0;
            self.free[c].push(block);
        }
        Ok(migrations)
    }

    /// Takes a block out of every allocation structure, permanently.
    fn mark_retired(&mut self, b: BlockId) {
        if !self.retired[b.0 as usize] {
            self.retired[b.0 as usize] = true;
            self.stats.retirements += 1;
            if let Some(t) = &self.tracer {
                t.counter_add("block_retirements", "", 1);
            }
        }
        let c = self.chip_of_block(b);
        if let Some(pos) = self.free[c].iter().position(|&x| x == b) {
            self.free[c].swap_remove(pos);
        }
        if self.active[c] == Some(b) {
            self.active[c] = None;
        }
    }

    /// Erases a block, absorbing transient failures with bounded retries.
    /// Returns `Ok(false)` — and retires the block — when the erase fails
    /// because the block went grown bad.
    fn erase_unless_grown_bad(&mut self, b: BlockId) -> Result<bool, FtlError> {
        let _erase = span!(self.tracer, "erase_block", "block={b}");
        let mut attempt = 0u32;
        loop {
            match self.chip.erase_block(b) {
                Ok(()) => {
                    self.stats.erases += 1;
                    self.needs_erase[b.0 as usize] = false;
                    return Ok(true);
                }
                Err(FlashError::GrownBadBlock(_)) => {
                    self.mark_retired(b);
                    return Ok(false);
                }
                Err(FlashError::EraseFail(_)) if attempt < TRANSIENT_RETRIES => {
                    self.stats.transient_retries += 1;
                    self.chip.advance_time_us(RETRY_BACKOFF_US * f64::from(1u32 << attempt));
                    attempt += 1;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Programs `data` on a freshly allocated page, retrying transient
    /// program failures and re-allocating elsewhere when the destination
    /// block goes grown bad mid-write. Every program carries a journal
    /// record for `lpn` in its spare area — the append-only log a
    /// crash-recovery [`mount`](Self::mount) replays. A power loss
    /// ([`FlashError::PowerLoss`]) is *not* transient and propagates
    /// immediately: the device is off and nothing can be retried.
    fn program_on_fresh_page(
        &mut self,
        lpn: Lpn,
        data: &BitPattern,
        migrations: &mut Vec<Migration>,
        erased: &mut Vec<BlockId>,
    ) -> Result<PageId, FtlError> {
        let home = self.chip_of_lpn(lpn);
        loop {
            let page = self.allocate_page(home, migrations, erased)?;
            let _prog = span!(self.tracer, "program_page");
            let mut attempt = 0u32;
            loop {
                let record = encode_journal(self.next_seq, lpn);
                match self.chip.program_page_with_spare(page, data, &record) {
                    Ok(()) => {
                        self.next_seq += 1;
                        self.stats.physical_writes += 1;
                        return Ok(page);
                    }
                    Err(FlashError::GrownBadBlock(_)) => {
                        // Valid pages already on the block stay mapped —
                        // grown-bad blocks still read — but nothing new
                        // lands there.
                        self.mark_retired(page.block);
                        break;
                    }
                    Err(FlashError::TransientProgramFail(_)) if attempt < TRANSIENT_RETRIES => {
                        self.stats.transient_retries += 1;
                        self.chip.advance_time_us(RETRY_BACKOFF_US * f64::from(1u32 << attempt));
                        attempt += 1;
                    }
                    Err(e) => return Err(e.into()),
                }
            }
        }
    }

    fn active_has_room(&self, c: usize) -> bool {
        match self.active[c] {
            Some(b) => self.cursor[b.0 as usize] < self.chip.geometry().pages_per_block,
            None => false,
        }
    }

    fn check_lpn(&self, lpn: Lpn) -> Result<(), FtlError> {
        if lpn >= self.capacity_pages() {
            return Err(FtlError::LpnOutOfRange { lpn, capacity: self.capacity_pages() });
        }
        Ok(())
    }

    /// Ensures chip `c`'s free pool stays above the GC low-water mark.
    fn ensure_headroom(
        &mut self,
        c: usize,
        migrations: &mut Vec<Migration>,
        erased: &mut Vec<BlockId>,
    ) -> Result<(), FtlError> {
        while self.free[c].len() < self.cfg.gc_low_water as usize {
            self.collect_one(c, migrations, erased)?;
        }
        Ok(())
    }

    /// Runs one GC cycle on chip `c`: picks its fullest-of-garbage block,
    /// relocates its valid pages (within the chip), erases it.
    fn collect_one(
        &mut self,
        c: usize,
        migrations: &mut Vec<Migration>,
        erased: &mut Vec<BlockId>,
    ) -> Result<(), FtlError> {
        let pages_per_block = self.chip.geometry().pages_per_block;
        let lo = c as u32 * self.local_blocks;
        let hi = lo + self.local_blocks;
        // Victim: a fully-written, non-active block with the fewest valid
        // pages (greedy); must exist with fewer valid pages than capacity.
        let victim = (lo..hi)
            .map(BlockId)
            .filter(|b| Some(*b) != self.active[c])
            .filter(|b| !self.retired[b.0 as usize])
            .filter(|b| self.cursor[b.0 as usize] == pages_per_block)
            .min_by_key(|b| self.valid[b.0 as usize])
            .ok_or(FtlError::NoSpace)?;
        if self.valid[victim.0 as usize] == pages_per_block {
            return Err(FtlError::NoSpace);
        }
        self.stats.gc_runs += 1;
        let _gc = span!(self.tracer, "gc_collect", "victim={victim}");
        let moved_before = migrations.len();

        // Relocate valid pages.
        for p in 0..pages_per_block {
            let from = PageId::new(victim, p);
            let Some(&lpn) = self.rmap.get(&from) else { continue };
            let data = {
                let _copy = span!(self.tracer, "migrate_read");
                self.chip.read_page(from)?
            };
            let to = self.program_on_fresh_page(lpn, &data, migrations, erased)?;
            self.stats.gc_moves += 1;

            self.rmap.remove(&from);
            self.valid[victim.0 as usize] -= 1;
            self.map.insert(lpn, to);
            self.rmap.insert(to, lpn);
            self.valid[to.block.0 as usize] += 1;
            migrations.push(Migration { lpn, from, to });
        }

        if self.erase_unless_grown_bad(victim)? {
            erased.push(victim);
            self.cursor[victim.0 as usize] = 0;
            self.free[c].push(victim);
        }
        if let Some(t) = &self.tracer {
            t.counter_add("gc_migrations", "", (migrations.len() - moved_before) as u64);
            t.gauge_set("free_blocks", "", self.free_blocks() as f64);
        }
        Ok(())
    }

    /// Hands out the next physical page of chip `c`'s active block, opening
    /// a new (least-worn) block on that chip when needed.
    fn allocate_page(
        &mut self,
        c: usize,
        migrations: &mut Vec<Migration>,
        erased: &mut Vec<BlockId>,
    ) -> Result<PageId, FtlError> {
        let pages_per_block = self.chip.geometry().pages_per_block;
        loop {
            if let Some(b) = self.active[c] {
                let cur = self.cursor[b.0 as usize];
                if cur < pages_per_block {
                    self.cursor[b.0 as usize] = cur + 1;
                    return Ok(PageId::new(b, cur));
                }
                self.active[c] = None;
            }
            // Drop blocks the chip has since declared grown bad.
            let bad: Vec<BlockId> = self.free[c]
                .iter()
                .copied()
                .filter(|&b| self.chip.is_grown_bad(b).unwrap_or(false))
                .collect();
            for b in bad {
                self.mark_retired(b);
            }
            if self.free[c].is_empty() {
                self.collect_one(c, migrations, erased)?;
                continue;
            }
            // Dynamic wear leveling: open the least-worn free block.
            let (idx, _) = self.free[c]
                .iter()
                .enumerate()
                .min_by_key(|(_, b)| self.chip.block_pec(**b).unwrap_or(u32::MAX))
                .ok_or(FtlError::NoSpace)?;
            let b = self.free[c].swap_remove(idx);
            // Blocks enter the pool erased except at mount time, where an
            // empty block may hide a torn erase and is flagged; an erase
            // that outs the block as grown bad sends us back for another.
            if (self.needs_erase[b.0 as usize]
                || self.cursor[b.0 as usize] != 0
                || self.chip.is_page_programmed(PageId::new(b, 0))?)
                && !self.erase_unless_grown_bad(b)?
            {
                continue;
            }
            self.cursor[b.0 as usize] = 0;
            self.active[c] = Some(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use stash_flash::ChipProfile;

    fn ftl() -> Ftl {
        let chip = Chip::new(ChipProfile::test_small(), 5);
        Ftl::new(chip, FtlConfig::default()).unwrap()
    }

    fn pattern(ftl: &Ftl, seed: u64) -> BitPattern {
        BitPattern::random_half(
            &mut SmallRng::seed_from_u64(seed),
            ftl.chip().geometry().cells_per_page(),
        )
    }

    #[test]
    fn write_read_roundtrip() {
        let mut f = ftl();
        let d = pattern(&f, 1);
        f.write(3, &d).unwrap();
        let back = f.read(3).unwrap().unwrap();
        assert!(back.hamming_distance(&d) <= 1);
        assert_eq!(f.read(4).unwrap(), None);
    }

    #[test]
    fn overwrite_remaps() {
        let mut f = ftl();
        let d1 = pattern(&f, 1);
        let d2 = pattern(&f, 2);
        let r1 = f.write(0, &d1).unwrap();
        let r2 = f.write(0, &d2).unwrap();
        assert_ne!(r1.page, r2.page, "no in-place update on flash");
        let back = f.read(0).unwrap().unwrap();
        assert!(back.hamming_distance(&d2) <= 1);
        assert_eq!(f.logical_of(r1.page), None, "old copy invalidated");
        assert_eq!(f.logical_of(r2.page), Some(0));
    }

    #[test]
    fn trim_unmaps() {
        let mut f = ftl();
        let d = pattern(&f, 3);
        f.write(7, &d).unwrap();
        f.trim(7).unwrap();
        assert_eq!(f.read(7).unwrap(), None);
        assert_eq!(f.physical_of(7), None);
    }

    #[test]
    fn lpn_bounds_enforced() {
        let mut f = ftl();
        let cap = f.capacity_pages();
        let d = pattern(&f, 4);
        assert!(matches!(f.write(cap, &d), Err(FtlError::LpnOutOfRange { .. })));
        assert!(matches!(f.read(cap), Err(FtlError::LpnOutOfRange { .. })));
    }

    #[test]
    fn sustained_overwrites_trigger_gc_and_survive() {
        // Fill logical space, then overwrite well past physical capacity:
        // GC must reclaim and data must stay correct.
        let mut f = ftl();
        let cap = f.capacity_pages();
        let mut rng = SmallRng::seed_from_u64(9);
        let mut truth: HashMap<Lpn, BitPattern> = HashMap::new();
        for round in 0..6u64 {
            for lpn in 0..cap {
                if rng.gen_bool(0.5) || round == 0 {
                    let d = BitPattern::random_half(&mut rng, f.chip().geometry().cells_per_page());
                    f.write(lpn, &d).unwrap();
                    truth.insert(lpn, d);
                }
            }
        }
        assert!(f.stats().gc_runs > 0, "GC should have run");
        assert!(f.stats().write_amplification() >= 1.0);
        for (lpn, d) in &truth {
            let back = f.read(*lpn).unwrap().expect("mapped");
            assert!(back.hamming_distance(d) <= 2, "lpn {lpn} corrupted");
        }
    }

    #[test]
    fn migrations_are_reported_accurately() {
        let mut f = ftl();
        let cap = f.capacity_pages();
        let mut rng = SmallRng::seed_from_u64(2);
        // Fill once.
        for lpn in 0..cap {
            let d = BitPattern::random_half(&mut rng, f.chip().geometry().cells_per_page());
            f.write(lpn, &d).unwrap();
        }
        // Keep overwriting random pages until GC reports migrations
        // (victim blocks then still hold live copies that must move).
        let mut seen = Vec::new();
        for i in 0..4000u64 {
            let d = BitPattern::random_half(&mut rng, f.chip().geometry().cells_per_page());
            let lpn = rng.gen_range(0..cap);
            let rep = f.write(lpn, &d).unwrap();
            if !rep.migrations.is_empty() {
                seen = rep.migrations;
                break;
            }
            assert!(i < 3999, "GC never migrated anything");
        }
        for m in &seen {
            // Every reported migration's destination must now be the live
            // mapping (unless migrated again later in the same write).
            let current = f.physical_of(m.lpn).unwrap();
            let still_there =
                current == m.to || seen.iter().any(|m2| m2.lpn == m.lpn && m2.from == m.to);
            assert!(still_there, "migration report inconsistent for lpn {}", m.lpn);
        }
    }

    #[test]
    fn wear_spreads_across_blocks() {
        let mut f = ftl();
        let cap = f.capacity_pages();
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..4 {
            for lpn in 0..cap {
                let d = BitPattern::random_half(&mut rng, f.chip().geometry().cells_per_page());
                f.write(lpn, &d).unwrap();
            }
        }
        let blocks = f.chip().geometry().blocks_per_chip;
        let pecs: Vec<u32> = (0..blocks).map(|b| f.chip().block_pec(BlockId(b)).unwrap()).collect();
        let max = *pecs.iter().max().unwrap();
        let nonzero = pecs.iter().filter(|&&p| p > 0).count() as u32;
        // Dynamic wear leveling: nearly every block participates and no
        // block runs far ahead of the pack.
        assert!(nonzero >= blocks - 1, "most blocks should participate: {pecs:?}");
        assert!(max < 60, "wear should be spread, max {max}");
    }

    #[test]
    fn mapping_invariants_hold() {
        let mut f = ftl();
        let cap = f.capacity_pages();
        let mut rng = SmallRng::seed_from_u64(4);
        for round in 0..3u64 {
            for lpn in (0..cap).step_by(2) {
                let d = BitPattern::random_half(&mut rng, f.chip().geometry().cells_per_page());
                f.write((lpn + round) % cap, &d).unwrap();
            }
        }
        // map and rmap are mutually consistent bijections.
        for (lpn, page) in &f.map {
            assert_eq!(f.rmap.get(page), Some(lpn));
        }
        for (page, lpn) in &f.rmap {
            assert_eq!(f.map.get(lpn), Some(page));
        }
        // valid counters agree with rmap.
        for b in 0..f.valid.len() {
            let counted = f.rmap.keys().filter(|p| p.block.0 as usize == b).count() as u32;
            assert_eq!(f.valid[b], counted, "block {b} valid counter");
        }
    }

    #[test]
    fn static_wear_level_rotates_cold_blocks() {
        let mut f = ftl();
        let cap = f.capacity_pages();
        let mut rng = SmallRng::seed_from_u64(11);
        // Fill everything once: this data never moves again on its own.
        for lpn in 0..cap {
            let d = BitPattern::random_half(&mut rng, f.chip().geometry().cells_per_page());
            f.write(lpn, &d).unwrap();
        }
        // Hammer a small hot set so some blocks accumulate wear while the
        // cold blocks sit still.
        for i in 0..300u64 {
            let d = BitPattern::random_half(&mut rng, f.chip().geometry().cells_per_page());
            f.write(i % 4, &d).unwrap();
        }
        let spread_before = wear_spread(&f);
        // Run static WL until quiescent.
        let mut total_moves = 0;
        for _ in 0..8 {
            let moves = f.static_wear_level(5).unwrap();
            if moves.is_empty() {
                break;
            }
            total_moves += moves.len();
            for m in &moves {
                assert_eq!(f.physical_of(m.lpn), Some(m.to));
            }
        }
        assert!(total_moves > 0, "cold data should have been rotated");
        // All data still correct.
        for lpn in 4..cap.min(20) {
            assert!(f.read(lpn).unwrap().is_some());
        }
        let _ = spread_before;
    }

    fn wear_spread(f: &Ftl) -> u32 {
        let blocks = f.chip().geometry().blocks_per_chip;
        let pecs: Vec<u32> = (0..blocks).map(|b| f.chip().block_pec(BlockId(b)).unwrap()).collect();
        pecs.iter().max().unwrap() - pecs.iter().min().unwrap()
    }

    #[test]
    fn static_wear_level_noop_when_even() {
        let mut f = ftl();
        let d = pattern(&f, 1);
        f.write(0, &d).unwrap();
        let moves = f.static_wear_level(1000).unwrap();
        assert!(moves.is_empty());
    }

    #[test]
    fn bad_config_rejected() {
        let chip = Chip::new(ChipProfile::test_small(), 5);
        assert!(Ftl::new(chip.clone(), FtlConfig { reserve_blocks: 1, gc_low_water: 1 }).is_err());
        assert!(Ftl::new(chip.clone(), FtlConfig { reserve_blocks: 99, gc_low_water: 1 }).is_err());
        assert!(Ftl::new(chip, FtlConfig { reserve_blocks: 4, gc_low_water: 4 }).is_err());
    }

    #[test]
    fn grown_bad_blocks_leave_the_allocation_rotation() {
        let mut f = ftl();
        let bad = BlockId(2);
        f.chip_mut().grow_bad_block(bad).unwrap();
        let cap = f.capacity_pages();
        let mut rng = SmallRng::seed_from_u64(21);
        for round in 0..3u64 {
            for lpn in 0..cap {
                let d = BitPattern::random_half(&mut rng, f.chip().geometry().cells_per_page());
                f.write((lpn + round) % cap, &d).unwrap();
            }
        }
        assert_eq!(f.retired_blocks(), vec![bad]);
        assert!(f.stats().retirements >= 1);
        for page in f.map.values() {
            assert_ne!(page.block, bad, "write landed on a grown-bad block");
        }
    }

    #[test]
    fn evacuate_block_moves_data_and_retires_grown_bad() {
        let mut f = ftl();
        let cap = f.capacity_pages();
        let mut rng = SmallRng::seed_from_u64(31);
        let mut truth = HashMap::new();
        for lpn in 0..cap {
            let d = BitPattern::random_half(&mut rng, f.chip().geometry().cells_per_page());
            f.write(lpn, &d).unwrap();
            truth.insert(lpn, d);
        }
        let victim_block = f.physical_of(0).unwrap().block;
        f.chip_mut().grow_bad_block(victim_block).unwrap();
        let moves = f.evacuate_block(victim_block).unwrap();
        assert!(!moves.is_empty(), "live pages should have moved");
        for m in &moves {
            assert_eq!(m.from.block, victim_block);
            assert_ne!(m.to.block, victim_block);
        }
        assert!(f.retired_blocks().contains(&victim_block));
        // Every logical page, including the moved ones, still reads back.
        for (lpn, d) in &truth {
            let back = f.read(*lpn).unwrap().expect("mapped");
            assert!(back.hamming_distance(d) <= 2, "lpn {lpn} corrupted");
        }
    }

    #[test]
    fn evacuate_healthy_block_refrees_it() {
        let mut f = ftl();
        let d = pattern(&f, 41);
        f.write(0, &d).unwrap();
        let b = f.physical_of(0).unwrap().block;
        let before = f.free_blocks();
        f.evacuate_block(b).unwrap();
        assert!(f.retired_blocks().is_empty());
        assert!(f.free_blocks() >= before, "healthy block should re-enter the pool");
        assert!(f.read(0).unwrap().is_some());
    }

    #[test]
    fn transient_program_faults_are_absorbed_by_retries() {
        use stash_flash::{ChipProfile, FaultDevice, FaultPlan};
        let plan = FaultPlan::new(7).with_program_fail(0.05).with_erase_fail(0.05);
        let chip = FaultDevice::with_plan(Chip::new(ChipProfile::test_small(), 5), plan);
        let mut f = Ftl::new(chip, FtlConfig::default()).unwrap();
        let cap = f.capacity_pages();
        let mut rng = SmallRng::seed_from_u64(51);
        let mut truth = HashMap::new();
        for round in 0..4u64 {
            for lpn in 0..cap {
                let d = BitPattern::random_half(&mut rng, f.chip().geometry().cells_per_page());
                f.write((lpn * 7 + round) % cap, &d).unwrap();
                truth.insert((lpn * 7 + round) % cap, d);
            }
        }
        assert!(f.stats().transient_retries > 0, "faults should have fired");
        assert!(f.chip().meter().total_faults() > 0);
        for (lpn, d) in &truth {
            let back = f.read(*lpn).unwrap().expect("mapped");
            assert!(back.hamming_distance(d) <= 2, "lpn {lpn} corrupted");
        }
    }

    #[test]
    fn journal_records_roundtrip_and_reject_corruption() {
        let rec = encode_journal(42, 7);
        assert_eq!(decode_journal(&rec), Some((42, 7)));
        // Any single corrupt byte kills the record.
        for i in 0..rec.len() {
            let mut bad = rec;
            bad[i] ^= 0x01;
            assert_eq!(decode_journal(&bad), None, "byte {i} corruption accepted");
        }
        assert_eq!(decode_journal(&rec[..24]), None, "truncated record accepted");
        assert_eq!(decode_journal(b""), None);
    }

    #[test]
    fn mount_rebuilds_map_from_journal() {
        let mut f = ftl();
        let cap = f.capacity_pages();
        let mut rng = SmallRng::seed_from_u64(61);
        let mut truth = HashMap::new();
        for round in 0..2u64 {
            for lpn in 0..cap / 2 {
                let d = BitPattern::random_half(&mut rng, f.chip().geometry().cells_per_page());
                f.write((lpn + round * 3) % cap, &d).unwrap();
                truth.insert((lpn + round * 3) % cap, d);
            }
        }
        let expected: HashMap<Lpn, PageId> = f.map.clone();
        let chip = f.into_chip();

        let (mut m, report) = Ftl::mount(chip, FtlConfig::default()).unwrap();
        assert_eq!(m.map, expected, "mount must rebuild the exact pre-crash map");
        m.check_consistency().unwrap();
        assert_eq!(report.live_pages, expected.len() as u64);
        assert!(report.stale_pages > 0, "overwrites must surface as stale copies");
        assert_eq!(report.torn_pages, 0);
        assert!(report.scan_device_us > 0.0);
        // The remounted FTL keeps serving reads and accepts new writes.
        for (lpn, d) in &truth {
            let back = m.read(*lpn).unwrap().expect("mapped after mount");
            assert!(back.hamming_distance(d) <= 2, "lpn {lpn} corrupted across mount");
        }
        let d = BitPattern::random_half(&mut rng, m.chip().geometry().cells_per_page());
        m.write(0, &d).unwrap();
        m.check_consistency().unwrap();
    }

    #[test]
    fn mount_discards_torn_page_and_keeps_acked_writes() {
        let mut f = ftl();
        let d1 = pattern(&f, 71);
        let d2 = pattern(&f, 72);
        f.write(1, &d1).unwrap();
        let r2 = f.write(2, &d2).unwrap();
        let mut chip = f.into_chip();
        // Simulate a torn program on the page right after the last acked
        // write: data cells half-land, the spare never does.
        let torn = PageId::new(r2.page.block, r2.page.page + 1);
        let cpp = chip.geometry().cells_per_page();
        chip.torn_program_page(torn, &BitPattern::ones(cpp), 0.5).unwrap();

        let (mut m, report) = Ftl::mount(chip, FtlConfig::default()).unwrap();
        assert_eq!(report.torn_pages, 1, "the torn program must be detected");
        assert_eq!(report.live_pages, 2);
        assert_eq!(m.logical_of(torn), None, "torn page must stay unmapped");
        assert!(m.read(1).unwrap().is_some());
        assert!(m.read(2).unwrap().is_some());
        m.check_consistency().unwrap();
    }

    #[test]
    fn mount_seals_written_blocks_and_erases_empty_ones_before_reuse() {
        let mut f = ftl();
        let d = pattern(&f, 81);
        let r = f.write(0, &d).unwrap();
        let written_block = r.page.block;
        let chip = f.into_chip();
        let (mut m, report) = Ftl::mount(chip, FtlConfig::default()).unwrap();
        assert!(report.sealed_blocks >= 1);
        assert_eq!(
            report.sealed_blocks + report.free_blocks + report.retired_blocks,
            m.chip().geometry().blocks_per_chip
        );
        // New writes never append into the sealed block.
        for i in 0..4u64 {
            let d = pattern(&m, 90 + i);
            let rep = m.write(1 + i, &d).unwrap();
            assert_ne!(rep.page.block, written_block, "append into a sealed block");
        }
        // Reused empty blocks were erased first (needs_erase drained).
        assert!(m.stats().erases >= 1, "empty block must be erased before reuse");
    }

    #[test]
    fn multi_chip_lpns_pin_to_home_chips_and_survive_mount() {
        use stash_flash::ArrayDevice;
        let arr = ArrayDevice::homogeneous(ChipProfile::test_small(), 2, 5);
        let local = arr.local_blocks();
        let mut f = Ftl::new(arr, FtlConfig::default()).unwrap();
        assert_eq!(f.chip_count(), 2);
        let g = *f.chip().geometry();
        let cap = f.capacity_pages();
        assert_eq!(cap, 2 * u64::from(local - 4) * u64::from(g.pages_per_block));

        // Write everything twice so GC and block turnover happen.
        let mut rng = SmallRng::seed_from_u64(77);
        let mut truth = HashMap::new();
        for _ in 0..3 {
            for lpn in 0..cap {
                let d = BitPattern::random_half(&mut rng, g.cells_per_page());
                f.write(lpn, &d).unwrap();
                truth.insert(lpn, d);
            }
        }
        // Home pinning: an LPN's physical page always sits on lpn % chips,
        // through every GC relocation.
        for (lpn, page) in &f.map {
            assert_eq!(
                u64::from(page.block.0 / local),
                lpn % 2,
                "lpn {lpn} strayed off its home chip"
            );
        }
        f.check_consistency().unwrap();

        // Global journal sequencing makes the per-chip replay exact.
        let expected = f.map.clone();
        let (m, report) = Ftl::mount(f.into_chip(), FtlConfig::default()).unwrap();
        assert_eq!(m.map, expected, "mount must rebuild the exact multi-chip map");
        assert_eq!(report.live_pages, expected.len() as u64);
        m.check_consistency().unwrap();
    }

    #[test]
    fn stats_track_activity() {
        let mut f = ftl();
        let d = pattern(&f, 8);
        f.write(0, &d).unwrap();
        f.write(1, &d).unwrap();
        let s = f.stats();
        assert_eq!(s.host_writes, 2);
        assert!(s.physical_writes >= 2);
        assert!((s.write_amplification() - 1.0).abs() < 1e-9);
    }
}
