//! The hidden-volume implementation.

use stash_crypto::{HidingKey, SelectionPrng};
use stash_flash::{BitPattern, BlockId, Chip, NandDevice};
use stash_ftl::{Ftl, FtlError, Migration};
use stash_obs::{span, Tracer};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use vthi::{HideError, Hider, RetryPolicy, SelectionMode, VthiConfig};

/// Stream id (PRNG namespace) for the slot → LPN placement permutation.
const PLACEMENT_STREAM: u64 = 0x5157_4F4C_5F4D_4150;

/// Widest integrity tag carved from a slot's VT-HI page payload. The tag
/// is a (truncated) CRC-32 over the slot payload and the slot's identity;
/// it catches half-encoded pages (a power cut partway through the PP
/// train decodes cleanly through the ECC often enough that ECC success
/// alone cannot be trusted) and cross-slot decode mixups. Small geometries
/// carry only a couple of payload bytes per page, so the width adapts —
/// see [`StegoConfig::tag_bytes`].
const MAX_TAG_BYTES: usize = 4;

/// The integrity tag stored alongside a slot's payload, `n` bytes wide.
fn slot_tag(payload: &[u8], slot: usize, n: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(payload.len() + 8);
    buf.extend_from_slice(payload);
    buf.extend_from_slice(&(slot as u64).to_le_bytes());
    stash_flash::crc32(&buf).to_le_bytes()[..n].to_vec()
}

/// Hidden-volume configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct StegoConfig {
    /// The underlying VT-HI configuration.
    pub vthi: VthiConfig,
    /// Data slots per parity group; 0 disables parity. Each group carries
    /// one extra parity slot that can reconstruct a single lost member.
    ///
    /// On a multi-chip array the volume stripes every group's slots across
    /// distinct chips, so one lost *chip* costs each group at most one slot
    /// — a whole-chip failure is fully recoverable when
    /// `parity_group + 1 <= chips`.
    pub parity_group: usize,
    /// Defer hidden embedding until the owning public page is rewritten
    /// anyway (multiple-snapshot hardening, §9.2).
    pub piggyback: bool,
}

impl StegoConfig {
    /// A sensible default for a given chip geometry: scaled VT-HI, parity
    /// groups of 4, immediate embedding.
    pub fn for_geometry(geometry: &stash_flash::Geometry) -> Self {
        StegoConfig { vthi: VthiConfig::scaled_for(geometry), parity_group: 4, piggyback: false }
    }

    /// Hidden bytes per slot: the VT-HI page payload minus the integrity
    /// tag every slot carries.
    pub fn slot_bytes(&self) -> usize {
        self.vthi.payload_bytes_per_page().saturating_sub(self.tag_bytes())
    }

    /// Width of the per-slot integrity tag: a quarter of the page payload,
    /// clamped to `[1, 4]` bytes, so tiny geometries still keep most of
    /// their capacity while large ones get the full CRC-32.
    pub fn tag_bytes(&self) -> usize {
        (self.vthi.payload_bytes_per_page() / 4).clamp(1, MAX_TAG_BYTES)
    }
}

/// Errors from the hidden volume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StegoError {
    /// FTL failure.
    Ftl(FtlError),
    /// Hiding-layer failure.
    Hide(HideError),
    /// Slot index out of range.
    SlotOutOfRange {
        /// Requested slot.
        slot: usize,
        /// Slots in the volume.
        count: usize,
    },
    /// The slot's public page has never been written, so there is nothing
    /// to hide inside yet.
    UnbackedSlot {
        /// The public logical page that must be written first.
        lpn: u64,
    },
    /// Payload does not match the slot size.
    PayloadLength {
        /// Bytes per slot.
        expected: usize,
        /// Bytes supplied.
        got: usize,
    },
}

impl fmt::Display for StegoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StegoError::Ftl(e) => write!(f, "ftl failure: {e}"),
            StegoError::Hide(e) => write!(f, "hiding failure: {e}"),
            StegoError::SlotOutOfRange { slot, count } => {
                write!(f, "slot {slot} out of range (volume has {count})")
            }
            StegoError::UnbackedSlot { lpn } => {
                write!(f, "slot's public page {lpn} has no data yet")
            }
            StegoError::PayloadLength { expected, got } => {
                write!(f, "slot payload is {got} bytes, slots hold {expected}")
            }
        }
    }
}

impl std::error::Error for StegoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StegoError::Ftl(e) => Some(e),
            StegoError::Hide(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FtlError> for StegoError {
    fn from(e: FtlError) -> Self {
        StegoError::Ftl(e)
    }
}

impl From<HideError> for StegoError {
    fn from(e: HideError) -> Self {
        StegoError::Hide(e)
    }
}

/// What a remount or scrub managed to recover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Slots decoded directly.
    pub recovered: usize,
    /// Slots rebuilt from parity (or, during a scrub, re-written from the
    /// mounted cache after their flash copy stopped decoding).
    pub reconstructed: usize,
    /// Slots lost for good.
    pub lost: usize,
    /// Slots that were never written.
    pub empty: usize,
    /// Slots rewritten onto fresh cells because their winning read still
    /// needed too many ECC corrections (scrub only).
    pub refreshed: usize,
    /// Slots moved off grown-bad blocks (scrub only).
    pub migrated: usize,
    /// Slots whose decode failed the per-slot integrity tag — half-encoded
    /// pages from a power cut mid-embed (subset of the failures routed into
    /// reconstruction or loss above).
    pub tag_failures: usize,
    /// Data slots written off as unrecoverable — the advertised hidden
    /// capacity shrank by this many slots (scrub only).
    pub capacity_lost: usize,
}

/// A read-only health census of the hidden slot space, produced by
/// [`HiddenVolume::health_probe`]. Everything a health monitor needs to
/// compute the live BER margin and capacity-reserve gauges without
/// mutating the volume (no refresh, no parity rebuild, no write-off).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HiddenHealth {
    /// Slots whose hidden payload decoded (directly, tags intact).
    pub slots_present: usize,
    /// Slots never written (no hidden payload).
    pub slots_empty: usize,
    /// Slots that failed to decode on this probe (tag failure or beyond
    /// ECC) — scrub, not the probe, decides their fate.
    pub slots_failed: usize,
    /// ECC corrections summed over all decoded slots.
    pub corrected_bits_total: usize,
    /// Worst single-slot ECC correction count — the live BER headroom is
    /// `correctable_bits_per_slot - corrected_bits_max`.
    pub corrected_bits_max: usize,
    /// Correction ceiling per slot under the volume's ECC configuration
    /// (0 in raw mode).
    pub correctable_bits_per_slot: usize,
    /// Data slots the volume was formatted with.
    pub data_slots: usize,
    /// Data slots still advertised (formatted minus written off).
    pub advertised_slots: usize,
    /// Data slots written off by scrub so far.
    pub lost_capacity_slots: usize,
    /// Parity slots backing the data slots.
    pub parity_slots: usize,
}

/// A mounted hidden volume: the public block device plus the keyed hidden
/// slot space inside it.
///
/// Generic over the [`NandDevice`] backend, defaulting to a bare [`Chip`].
#[derive(Debug)]
pub struct HiddenVolume<D: NandDevice = Chip> {
    ftl: Ftl<D>,
    key: HidingKey,
    cfg: StegoConfig,
    /// Data slots exposed to the user (parity slots live after them).
    data_slots: usize,
    /// Slot → owning public LPN (keyed permutation, derived at mount).
    slot_lpn: Vec<u64>,
    /// Reverse: LPN → slot.
    lpn_slot: HashMap<u64, usize>,
    /// In-memory slot contents while mounted.
    cache: Vec<Option<Vec<u8>>>,
    /// Slots whose on-flash embedding is stale (piggyback mode).
    dirty: Vec<bool>,
    /// Data slots scrubbed off as unrecoverable.
    lost_capacity: usize,
    /// Per-slot write-off flags, so capacity shrinks once per slot.
    written_off: Vec<bool>,
    tracer: Option<Arc<Tracer>>,
}

impl<D: NandDevice> HiddenVolume<D> {
    /// Creates (formats) a hidden volume of `slots` data slots over an FTL.
    /// Parity slots are added on top of `slots` when parity is enabled.
    ///
    /// # Errors
    ///
    /// Fails if the FTL cannot host that many slots.
    pub fn format(
        ftl: Ftl<D>,
        key: HidingKey,
        cfg: StegoConfig,
        slots: usize,
    ) -> Result<Self, StegoError> {
        let total = Self::total_slots(&cfg, slots);
        let capacity = ftl.capacity_pages();
        if total as u64 > capacity / 2 {
            return Err(StegoError::SlotOutOfRange { slot: total, count: capacity as usize / 2 });
        }
        let chips = ftl.chip_count() as usize;
        let slot_lpn = if chips > 1 {
            // The half-capacity bound above is global; striping also needs
            // headroom on every individual chip.
            let per_chip = (capacity / chips as u64) as usize;
            let mut counts = vec![0usize; chips];
            for slot in 0..total {
                counts[Self::striped_chip_of_slot(&cfg, slots, slot, chips)] += 1;
            }
            if counts.iter().any(|&c| c > per_chip / 2) {
                return Err(StegoError::SlotOutOfRange {
                    slot: total,
                    count: chips * (per_chip / 2),
                });
            }
            Self::derive_placement_striped(&key, capacity, &cfg, slots, total, chips)
        } else {
            Self::derive_placement(&key, capacity, total)
        };
        let lpn_slot = slot_lpn.iter().enumerate().map(|(s, &l)| (l, s)).collect();
        // Inherit a tracer already attached to the FTL, so a remount over
        // a traced FTL is traced from the first decode.
        let tracer = ftl.tracer().cloned();
        Ok(HiddenVolume {
            ftl,
            key,
            cfg,
            data_slots: slots,
            slot_lpn,
            lpn_slot,
            cache: vec![None; total],
            dirty: vec![false; total],
            lost_capacity: 0,
            written_off: vec![false; total],
            tracer,
        })
    }

    /// Attaches (or detaches, with `None`) a tracer to the whole stack:
    /// the volume's scrub/embed/decode phases, the FTL's GC phases and the
    /// chip's per-op recorder all report to it.
    pub fn attach_tracer(&mut self, tracer: Option<Arc<Tracer>>) {
        self.ftl.attach_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// The tracer attached via [`attach_tracer`](Self::attach_tracer).
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// Re-mounts an existing volume: re-derives slot placement from the key
    /// and decodes every slot from flash, using parity to rebuild single
    /// losses per group.
    ///
    /// # Errors
    ///
    /// Fails only on flash/FTL errors; unrecoverable slots are reported,
    /// not fatal.
    pub fn remount(
        ftl: Ftl<D>,
        key: HidingKey,
        cfg: StegoConfig,
        slots: usize,
    ) -> Result<(Self, RecoveryReport), StegoError> {
        let mut vol = Self::format(ftl, key, cfg, slots)?;
        let _mount = span!(vol.tracer, "remount");
        let mut report = RecoveryReport::default();
        let total = vol.cache.len();
        let mut failed: Vec<usize> = Vec::new();
        // One hider serves the whole scan: slots decode in exactly the
        // order (and noise-draw order) of per-slot `try_decode_slot` calls,
        // but share one derived key and one set of read buffers instead of
        // rebuilding both for every slot.
        let pages: Vec<Option<stash_flash::PageId>> =
            (0..total).map(|slot| vol.ftl.physical_of(vol.slot_lpn[slot])).collect();
        let tag_bytes = vol.cfg.tag_bytes();
        let key = vol.key.clone();
        let vthi_cfg = vol.cfg.vthi.clone();
        let tracer = vol.tracer.clone();
        let mut outcomes = Vec::with_capacity(total);
        {
            let mut hider = Hider::new(vol.ftl.chip_mut(), key, vthi_cfg)
                .with_selection_mode(SelectionMode::Absolute)
                .with_retry_policy(RetryPolicy::standard())
                .with_tracer(tracer.clone());
            for (slot, page) in pages.iter().enumerate() {
                outcomes.push(match page {
                    Some(page) => {
                        Self::decode_slot_via(&mut hider, &tracer, tag_bytes, slot, *page)
                    }
                    None => Ok(None),
                });
            }
        }
        for (slot, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Ok(Some((bytes, _))) => {
                    vol.cache[slot] = Some(bytes);
                    report.recovered += 1;
                }
                Ok(None) => report.empty += 1,
                Err(StegoError::Hide(HideError::NeedsRecovery)) => {
                    report.tag_failures += 1;
                    failed.push(slot);
                }
                Err(_) => failed.push(slot),
            }
        }
        // Parity reconstruction: one loss per group is recoverable. Groups
        // are initialized as a unit, so any non-present slot (failed decode
        // OR read-as-empty) inside a group with present members is a loss.
        if vol.cfg.parity_group > 0 {
            let groups = vol.data_slots.div_ceil(vol.cfg.parity_group);
            for group in 0..groups {
                let mut members = vol.group_members(group);
                members.push(vol.parity_slot_of_group(group));
                let present = members.iter().filter(|m| vol.cache[**m].is_some()).count();
                if present == 0 || present == members.len() {
                    continue;
                }
                for &m in &members {
                    if vol.cache[m].is_none() && !failed.contains(&m) {
                        failed.push(m);
                        report.empty = report.empty.saturating_sub(1);
                    }
                }
            }
        }
        // Each loss is the only missing member of its group (rebuilt) or
        // not (lost); without parity every loss is lost.
        for slot in failed {
            if vol.rebuild_from_parity(slot) {
                // Re-embed the rebuilt slot so flash is healthy again.
                vol.dirty[slot] = true;
                report.reconstructed += 1;
            } else {
                report.lost += 1;
            }
        }
        // Recovered-but-empty parity slots of never-written groups read as
        // empty; counted under `empty` above.
        if !vol.cfg.piggyback {
            vol.flush_lenient()?;
        }
        if let Some(t) = &vol.tracer {
            t.counter_add("remount_recovered", "", report.recovered as u64);
            t.counter_add("remount_reconstructed", "", report.reconstructed as u64);
            t.counter_add("remount_tag_failures", "", report.tag_failures as u64);
            t.counter_add("remount_lost", "", report.lost as u64);
        }
        Ok((vol, report))
    }

    fn total_slots(cfg: &StegoConfig, data_slots: usize) -> usize {
        if cfg.parity_group == 0 {
            data_slots
        } else {
            // One parity slot per (possibly partial) group.
            data_slots + data_slots.div_ceil(cfg.parity_group)
        }
    }

    /// The internal parity-slot index of a group (a data slot's internal
    /// index is its own; parity slots are appended after them).
    fn parity_slot_of_group(&self, group: usize) -> usize {
        self.data_slots + group
    }

    /// The data members (internal indices) of a parity group.
    fn group_members(&self, group: usize) -> Vec<usize> {
        let g = self.cfg.parity_group;
        (group * g..((group + 1) * g).min(self.data_slots)).collect()
    }

    /// The parity group an internal slot belongs to.
    fn group_of(&self, slot: usize) -> usize {
        if slot < self.data_slots {
            slot / self.cfg.parity_group.max(1)
        } else {
            slot - self.data_slots
        }
    }

    fn derive_placement(key: &HidingKey, capacity: u64, total: usize) -> Vec<u64> {
        let mut prng = SelectionPrng::new(key, PLACEMENT_STREAM);
        prng.choose_distinct(total, capacity as usize).into_iter().map(|v| v as u64).collect()
    }

    /// The chip hosting an internal slot under cross-chip striping: slot
    /// `k` of parity group `G` (the group's parity slot being position
    /// `parity_group`) lands on chip `(G + k) % chips`. Every slot of a
    /// group therefore lives on a distinct chip whenever
    /// `parity_group + 1 <= chips`, and the group starting-chip rotation
    /// spreads load evenly. With parity off, slots simply round-robin.
    fn striped_chip_of_slot(
        cfg: &StegoConfig,
        data_slots: usize,
        slot: usize,
        chips: usize,
    ) -> usize {
        if cfg.parity_group == 0 {
            return slot % chips;
        }
        let (group, pos) = if slot < data_slots {
            (slot / cfg.parity_group, slot % cfg.parity_group)
        } else {
            (slot - data_slots, cfg.parity_group)
        };
        (group + pos) % chips
    }

    /// Striped placement over a multi-chip array. Each slot's LPN is drawn
    /// from its assigned chip's residue class (`lpn % chips == chip`,
    /// matching the FTL's home-chip pinning, which GC and wear-leveling
    /// preserve — so a slot placed on a chip *stays* on it for life). The
    /// per-chip index is chosen by one shared keyed partial Fisher–Yates
    /// per chip, all fed from the single placement stream in slot order.
    ///
    /// Single-chip volumes use [`derive_placement`](Self::derive_placement)
    /// instead: its draw sequence predates striping and stays byte-stable.
    fn derive_placement_striped(
        key: &HidingKey,
        capacity: u64,
        cfg: &StegoConfig,
        data_slots: usize,
        total: usize,
        chips: usize,
    ) -> Vec<u64> {
        let per_chip = (capacity / chips as u64) as usize;
        let mut prng = SelectionPrng::new(key, PLACEMENT_STREAM);
        let mut pools: Vec<Vec<usize>> = (0..chips).map(|_| (0..per_chip).collect()).collect();
        let mut taken = vec![0usize; chips];
        let mut out = Vec::with_capacity(total);
        for slot in 0..total {
            let c = Self::striped_chip_of_slot(cfg, data_slots, slot, chips);
            let i = taken[c];
            let j = i + prng.prng_mut().next_below((per_chip - i) as u64) as usize;
            pools[c].swap(i, j);
            out.push(c as u64 + chips as u64 * pools[c][i] as u64);
            taken[c] += 1;
        }
        out
    }

    /// Data slots visible to the user.
    pub fn data_slot_count(&self) -> usize {
        self.data_slots
    }

    /// Data slots still advertised: formatted slots minus those the
    /// scrubber wrote off as unrecoverable.
    pub fn advertised_slot_count(&self) -> usize {
        self.data_slots - self.lost_capacity
    }

    /// Hidden bytes the volume still promises to hold.
    pub fn advertised_capacity_bytes(&self) -> usize {
        self.advertised_slot_count() * self.slot_bytes()
    }

    /// Bytes per slot.
    pub fn slot_bytes(&self) -> usize {
        self.cfg.slot_bytes()
    }

    /// The underlying FTL (public volume view).
    pub fn ftl(&self) -> &Ftl<D> {
        &self.ftl
    }

    /// Exclusive access to the underlying FTL — fault-injection and
    /// maintenance harnesses use this to reach the device.
    pub fn ftl_mut(&mut self) -> &mut Ftl<D> {
        &mut self.ftl
    }

    /// Physical page currently backing a data slot, if its public page has
    /// been written (maintenance tooling uses this to target scrub tests).
    ///
    /// # Errors
    ///
    /// Returns [`StegoError::SlotOutOfRange`] for an invalid slot index.
    pub fn slot_location(
        &self,
        data_slot: usize,
    ) -> Result<Option<stash_flash::PageId>, StegoError> {
        if data_slot >= self.data_slot_count() {
            return Err(StegoError::SlotOutOfRange {
                slot: data_slot,
                count: self.data_slot_count(),
            });
        }
        Ok(self.ftl.physical_of(self.slot_lpn[data_slot]))
    }

    /// The public LPN owning each internal slot (data slots first, then
    /// parity slots). Crash harnesses use this to tell hidden-bearing pages
    /// apart from plain public pages when choosing cut points.
    pub fn slot_lpns(&self) -> &[u64] {
        &self.slot_lpn
    }

    /// Unmounts, returning the FTL. Pending piggyback embeddings are NOT
    /// flushed — exactly the situation where parity earns its keep.
    pub fn unmount(self) -> Ftl<D> {
        self.ftl
    }

    /// Public-volume write. Re-embeds any hidden slots disturbed by GC, and
    /// (in piggyback mode) flushes a pending hidden write for this page.
    ///
    /// # Errors
    ///
    /// Fails on FTL or hiding errors.
    pub fn write_public(&mut self, lpn: u64, data: &BitPattern) -> Result<(), StegoError> {
        let report = self.ftl.write(lpn, data)?;
        self.reembed_after_migrations(&report.migrations)?;
        if let Some(&slot) = self.lpn_slot.get(&lpn) {
            // The slot's backing page moved to fresh cells: embed its
            // payload (if any) into the new physical page.
            if self.cache[slot].is_some() {
                self.embed_slot(slot)?;
                self.dirty[slot] = false;
            }
        }
        Ok(())
    }

    /// Public-volume read.
    ///
    /// # Errors
    ///
    /// Fails on FTL errors.
    pub fn read_public(&mut self, lpn: u64) -> Result<Option<BitPattern>, StegoError> {
        Ok(self.ftl.read(lpn)?)
    }

    /// Writes a hidden slot. In immediate mode the owning public page is
    /// rewritten at once (cover traffic); in piggyback mode the payload
    /// waits in memory until that page is next written publicly.
    ///
    /// # Errors
    ///
    /// Fails on range/size errors, an unbacked public page (immediate
    /// mode), or FTL/hiding errors.
    pub fn write_hidden(&mut self, data_slot: usize, payload: &[u8]) -> Result<(), StegoError> {
        if data_slot >= self.data_slot_count() {
            return Err(StegoError::SlotOutOfRange {
                slot: data_slot,
                count: self.data_slot_count(),
            });
        }
        if payload.len() != self.slot_bytes() {
            return Err(StegoError::PayloadLength {
                expected: self.slot_bytes(),
                got: payload.len(),
            });
        }
        self.cache[data_slot] = Some(payload.to_vec());
        self.dirty[data_slot] = true;
        // Maintain the group parity in cache. The whole group is
        // initialized as a unit (unwritten siblings become zero-filled), so
        // that at remount an *empty* slot inside a live group is provably a
        // destroyed slot and parity knows to rebuild it.
        if let Some(group) = data_slot.checked_div(self.cfg.parity_group) {
            for member in self.group_members(group) {
                if self.cache[member].is_none() {
                    self.cache[member] = Some(vec![0u8; self.slot_bytes()]);
                    self.dirty[member] = true;
                }
            }
            self.recompute_parity(group);
        }
        if !self.cfg.piggyback {
            self.flush()?;
        }
        Ok(())
    }

    /// Reads a hidden slot (from the mounted cache; `None` if never
    /// written).
    ///
    /// # Errors
    ///
    /// Returns range errors only — a mounted volume serves from cache.
    pub fn read_hidden(&mut self, data_slot: usize) -> Result<Option<Vec<u8>>, StegoError> {
        if data_slot >= self.data_slot_count() {
            return Err(StegoError::SlotOutOfRange {
                slot: data_slot,
                count: self.data_slot_count(),
            });
        }
        Ok(self.cache[data_slot].clone())
    }

    /// Embeds every dirty slot, rewriting its public page as cover traffic.
    ///
    /// # Errors
    ///
    /// Fails on FTL or hiding errors; [`StegoError::UnbackedSlot`] if a
    /// slot's public page was never written.
    pub fn flush(&mut self) -> Result<(), StegoError> {
        for slot in 0..self.cache.len() {
            if !self.dirty[slot] || self.cache[slot].is_none() {
                continue;
            }
            self.refresh_slot(slot)?;
        }
        Ok(())
    }

    /// Like [`flush`](Self::flush), but slots with no backing public page
    /// stay cached and dirty instead of failing the whole pass. Remount
    /// reconstruction uses this: a slot rebuilt from parity after its
    /// owning chip died has no page to re-embed into until the public
    /// volume writes its LPN again, and that must not abort recovery.
    fn flush_lenient(&mut self) -> Result<(), StegoError> {
        for slot in 0..self.cache.len() {
            if !self.dirty[slot] || self.cache[slot].is_none() {
                continue;
            }
            match self.refresh_slot(slot) {
                Ok(()) | Err(StegoError::UnbackedSlot { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Slots with pending (unflushed) hidden writes.
    pub fn pending_slots(&self) -> usize {
        self.dirty.iter().filter(|&&d| d).count()
    }

    /// Preventive-maintenance walk over every hidden slot — the online half
    /// of the recovery pipeline (remount reconstruction is the offline
    /// half).
    ///
    /// 1. Slots sitting on grown-bad blocks are migrated off via the FTL's
    ///    evacuation hook and re-embedded on their new pages (grown-bad
    ///    blocks still *read*, so this must happen before they degrade
    ///    further).
    /// 2. Every backed slot is re-read with the standard recovery sweep;
    ///    slots whose winning read still needed at least
    ///    `refresh_threshold` bit corrections are rewritten onto fresh
    ///    cells before retention finishes the job.
    /// 3. Slots that no longer decode are rebuilt from the mounted cache or
    ///    group parity when possible; otherwise they are written off and
    ///    the advertised hidden capacity shrinks
    ///    ([`advertised_slot_count`](Self::advertised_slot_count)).
    ///
    /// # Errors
    ///
    /// Fails on FTL/flash errors only; per-slot decode failures are
    /// accounted in the report, not fatal.
    pub fn scrub(&mut self, refresh_threshold: usize) -> Result<RecoveryReport, StegoError> {
        let _scrub = span!(self.tracer, "scrub");
        let mut report = RecoveryReport::default();

        // Pass 1: get hidden data off grown-bad blocks while it still reads.
        let _evac_pass = span!(self.tracer, "scrub_evacuate");
        let mut bad_blocks: Vec<BlockId> = Vec::new();
        for slot in 0..self.cache.len() {
            if let Some(page) = self.ftl.physical_of(self.slot_lpn[slot]) {
                let grown = self.ftl.chip().is_grown_bad(page.block).map_err(HideError::from)?;
                if grown && !bad_blocks.contains(&page.block) {
                    bad_blocks.push(page.block);
                }
            }
        }
        for block in bad_blocks {
            let moves = self.ftl.evacuate_block(block)?;
            report.migrated += moves.iter().filter(|m| self.lpn_slot.contains_key(&m.lpn)).count();
            self.reembed_after_migrations(&moves)?;
        }
        drop(_evac_pass);

        // Pass 2: health-read every slot; refresh the ones going stale.
        let _health_pass = span!(self.tracer, "scrub_health");
        for slot in 0..self.cache.len() {
            if self.ftl.physical_of(self.slot_lpn[slot]).is_none() {
                // No backing page to health-read. If the payload survives
                // in the mounted cache (or still XORs out of its parity
                // group — e.g. the owning chip died wholesale and mount
                // retired its blocks), keep serving it and leave it flagged
                // for re-embedding by the next public write to its LPN.
                if self.cache[slot].is_some() || self.rebuild_from_parity(slot) {
                    self.dirty[slot] = true;
                    report.reconstructed += 1;
                } else {
                    report.empty += 1;
                }
                continue;
            }
            match self.try_decode_slot_counting(slot) {
                Ok(None) => report.empty += 1,
                Ok(Some((bytes, corrected))) => {
                    self.cache[slot] = Some(bytes);
                    report.recovered += 1;
                    if corrected >= refresh_threshold {
                        self.refresh_slot(slot)?;
                        report.refreshed += 1;
                    }
                }
                Err(StegoError::Hide(
                    err @ (HideError::Unrecoverable { .. } | HideError::NeedsRecovery),
                )) => {
                    if matches!(err, HideError::NeedsRecovery) {
                        report.tag_failures += 1;
                    }
                    if self.cache[slot].is_some() || self.rebuild_from_parity(slot) {
                        // The mounted cache (or parity) still holds the
                        // payload: rewrite it onto fresh cells.
                        self.refresh_slot(slot)?;
                        report.reconstructed += 1;
                    } else {
                        report.lost += 1;
                        if slot < self.data_slots && !self.written_off[slot] {
                            self.written_off[slot] = true;
                            self.lost_capacity += 1;
                            report.capacity_lost += 1;
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
        drop(_health_pass);
        if let Some(t) = &self.tracer {
            t.counter_add("scrub_runs", "", 1);
            t.counter_add("scrub_migrations", "", report.migrated as u64);
            t.counter_add("scrub_refreshes", "", report.refreshed as u64);
            t.counter_add("scrub_reconstructed", "", report.reconstructed as u64);
            t.counter_add("scrub_lost", "", report.lost as u64);
            t.gauge_set("lost_capacity_slots", "", self.lost_capacity as f64);
        }
        Ok(report)
    }

    /// Health-reads every slot without repairing anything: counts decoded /
    /// empty / failing slots and the ECC corrections the decodes needed.
    /// Unlike [`scrub`](Self::scrub) this never refreshes, rebuilds or
    /// writes off capacity, so it is safe to run on any cadence — the
    /// telemetry layer samples it for the live BER-margin and
    /// capacity-reserve gauges.
    ///
    /// # Errors
    ///
    /// Fails on FTL/flash errors only; per-slot decode failures are
    /// tallied in [`HiddenHealth::slots_failed`], not fatal.
    pub fn health_probe(&mut self) -> Result<HiddenHealth, StegoError> {
        let _probe = span!(self.tracer, "health_probe");
        let mut h = HiddenHealth {
            correctable_bits_per_slot: self.cfg.vthi.correctable_bits_per_page(),
            data_slots: self.data_slots,
            advertised_slots: self.advertised_slot_count(),
            lost_capacity_slots: self.lost_capacity,
            parity_slots: self.cache.len() - self.data_slots,
            ..HiddenHealth::default()
        };
        for slot in 0..self.cache.len() {
            if self.ftl.physical_of(self.slot_lpn[slot]).is_none() {
                h.slots_empty += 1;
                continue;
            }
            match self.try_decode_slot_counting(slot) {
                Ok(None) => h.slots_empty += 1,
                Ok(Some((_, corrected))) => {
                    h.slots_present += 1;
                    h.corrected_bits_total += corrected;
                    h.corrected_bits_max = h.corrected_bits_max.max(corrected);
                }
                Err(StegoError::Hide(
                    HideError::Unrecoverable { .. } | HideError::NeedsRecovery,
                )) => h.slots_failed += 1,
                Err(e) => return Err(e),
            }
        }
        if let Some(t) = &self.tracer {
            t.counter_add("health_probes", "", 1);
            t.gauge_set("health_slot_corrected_max", "", h.corrected_bits_max as f64);
        }
        Ok(h)
    }

    // ---- internals --------------------------------------------------------

    /// Rewrites a slot's public page (getting fresh cells to charge) and
    /// re-embeds its cached payload.
    fn refresh_slot(&mut self, slot: usize) -> Result<(), StegoError> {
        let _refresh = span!(self.tracer, "refresh_slot", "slot={slot}");
        let lpn = self.slot_lpn[slot];
        let public = self.ftl.read(lpn)?.ok_or(StegoError::UnbackedSlot { lpn })?;
        let report = self.ftl.write(lpn, &public)?;
        self.reembed_after_migrations(&report.migrations)?;
        self.embed_slot(slot)?;
        self.dirty[slot] = false;
        Ok(())
    }

    /// Rebuilds a slot's cache entry by XOR-ing the rest of its parity
    /// group; `true` on success.
    fn rebuild_from_parity(&mut self, slot: usize) -> bool {
        if self.cfg.parity_group == 0 {
            return false;
        }
        let group = self.group_of(slot);
        let mut members = self.group_members(group);
        members.push(self.parity_slot_of_group(group));
        let mut acc = vec![0u8; self.slot_bytes()];
        for &m in &members {
            if m == slot {
                continue;
            }
            match &self.cache[m] {
                Some(data) => {
                    for (a, b) in acc.iter_mut().zip(data) {
                        *a ^= b;
                    }
                }
                None => return false,
            }
        }
        self.cache[slot] = Some(acc);
        true
    }

    fn recompute_parity(&mut self, group: usize) {
        let parity_slot = self.parity_slot_of_group(group);
        if parity_slot >= self.cache.len() {
            return;
        }
        let mut acc = vec![0u8; self.slot_bytes()];
        let mut any = false;
        for s in self.group_members(group) {
            if let Some(data) = &self.cache[s] {
                any = true;
                for (a, b) in acc.iter_mut().zip(data) {
                    *a ^= b;
                }
            }
        }
        if any {
            self.cache[parity_slot] = Some(acc);
            self.dirty[parity_slot] = true;
        }
    }

    /// Re-embeds cached slots whose backing pages were migrated by GC.
    fn reembed_after_migrations(&mut self, migrations: &[Migration]) -> Result<(), StegoError> {
        let mut affected: Vec<usize> =
            migrations.iter().filter_map(|m| self.lpn_slot.get(&m.lpn).copied()).collect();
        affected.sort_unstable();
        affected.dedup();
        for slot in affected {
            if self.cache[slot].is_some() {
                self.embed_slot(slot)?;
            }
        }
        Ok(())
    }

    /// Charges one slot's payload into its current physical page.
    fn embed_slot(&mut self, slot: usize) -> Result<(), StegoError> {
        let _embed = span!(self.tracer, "embed_slot", "slot={slot}");
        let lpn = self.slot_lpn[slot];
        let Some(page) = self.ftl.physical_of(lpn) else {
            return Err(StegoError::UnbackedSlot { lpn });
        };
        let payload = self.cache[slot].clone().expect("caller checked");
        // Tag + payload fill the full VT-HI page payload; the tag travels
        // through the same PP train, so a torn embed tears it too.
        let mut encoded = payload;
        encoded.extend_from_slice(&slot_tag(&encoded, slot, self.cfg.tag_bytes()));
        let public = {
            let _cover = span!(self.tracer, "cover_read");
            self.ftl.chip_mut().read_page(page).map_err(HideError::from)?
        };
        let key = self.key.clone();
        let cfg = self.cfg.vthi.clone();
        let tracer = self.tracer.clone();
        // Absolute selection: the volume has no ECC-exact copy of the
        // public bits (the paper assumes the public path is ECC-protected),
        // so it uses the read-error-tolerant selection variant.
        // The standard retry policy rides out transient partial-program
        // faults during the charge passes.
        let mut hider = Hider::new(self.ftl.chip_mut(), key, cfg)
            .with_selection_mode(SelectionMode::Absolute)
            .with_retry_policy(RetryPolicy::standard())
            .with_tracer(tracer);
        hider.hide_in_programmed_page(page, &public, &encoded, false)?;
        Ok(())
    }

    /// Attempts to decode one slot from flash, also reporting the winning
    /// read's ECC correction count (the scrubber's health signal). Decodes
    /// run under the standard recovery sweep.
    fn try_decode_slot_counting(
        &mut self,
        slot: usize,
    ) -> Result<Option<(Vec<u8>, usize)>, StegoError> {
        let lpn = self.slot_lpn[slot];
        let Some(page) = self.ftl.physical_of(lpn) else {
            return Ok(None);
        };
        let key = self.key.clone();
        let cfg = self.cfg.vthi.clone();
        let tracer = self.tracer.clone();
        let tag_bytes = self.cfg.tag_bytes();
        let mut hider = Hider::new(self.ftl.chip_mut(), key, cfg)
            .with_selection_mode(SelectionMode::Absolute)
            .with_retry_policy(RetryPolicy::standard())
            .with_tracer(tracer.clone());
        Self::decode_slot_via(&mut hider, &tracer, tag_bytes, slot, page)
    }

    /// Decodes one slot through a caller-supplied [`Hider`], so scans over
    /// many slots (remount's parity-group decode in particular) share one
    /// hider — one derived key and one set of reusable read buffers —
    /// instead of rebuilding them per slot.
    fn decode_slot_via(
        hider: &mut Hider<'_, D>,
        tracer: &Option<Arc<Tracer>>,
        tag_bytes: usize,
        slot: usize,
        page: stash_flash::PageId,
    ) -> Result<Option<(Vec<u8>, usize)>, StegoError> {
        let _decode = span!(tracer, "decode_slot", "slot={slot}");
        // The shifted read serves the emptiness heuristic first. A written
        // slot has ≈half its hidden cells charged above Vth; an untouched
        // page has only the natural ~1-2% there.
        let bits = {
            let _probe = span!(tracer, "probe_read");
            hider.read_hidden_bits(page, None)?
        };
        let above = bits.iter().filter(|&&b| !b).count();
        if above * 10 < bits.len() {
            return Ok(None);
        }
        let (bytes, corrected) = hider.reveal_page_recovered(page, None)?;
        // Integrity gate: a decode that passes the ECC but fails the tag is
        // a half-encoded page (or a misplaced payload) and must be rebuilt,
        // not returned.
        let split = bytes.len().saturating_sub(tag_bytes);
        let (payload, tag) = bytes.split_at(split);
        if tag != slot_tag(payload, slot, tag_bytes) {
            return Err(StegoError::Hide(HideError::NeedsRecovery));
        }
        Ok(Some((payload.to_vec(), corrected)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use stash_flash::{Chip, ChipProfile};
    use stash_ftl::FtlConfig;

    /// A small-volume profile: vendor-A physics, few blocks, 1 KB pages —
    /// functional tests do not need statistical scale.
    fn small_profile() -> ChipProfile {
        let mut p = ChipProfile::vendor_a();
        p.geometry =
            stash_flash::Geometry { blocks_per_chip: 12, pages_per_block: 8, page_bytes: 1024 };
        p
    }

    fn make_ftl(seed: u64) -> Ftl {
        let chip = Chip::new(small_profile(), seed);
        Ftl::new(chip, FtlConfig { reserve_blocks: 4, gc_low_water: 2 }).unwrap()
    }

    fn key() -> HidingKey {
        HidingKey::from_passphrase("hidden volume")
    }

    fn fill_public<D: NandDevice>(vol: &mut HiddenVolume<D>, lpns: u64, seed: u64) {
        let cpp = vol.ftl().chip().geometry().cells_per_page();
        let mut rng = SmallRng::seed_from_u64(seed);
        for lpn in 0..lpns {
            let data = BitPattern::random_half(&mut rng, cpp);
            vol.write_public(lpn, &data).unwrap();
        }
    }

    #[test]
    fn hidden_roundtrip_through_volume() {
        let ftl = make_ftl(1);
        let cfg = StegoConfig::for_geometry(ftl.chip().geometry());
        let mut vol = HiddenVolume::format(ftl, key(), cfg, 8).unwrap();
        let cap = vol.ftl().capacity_pages();
        fill_public(&mut vol, cap, 10);

        let secret: Vec<u8> = (0..vol.slot_bytes() as u8).collect();
        vol.write_hidden(0, &secret).unwrap();
        assert_eq!(vol.read_hidden(0).unwrap().unwrap(), secret);
        // Slot 1 shares slot 0's parity group: initialized to zeros.
        assert_eq!(vol.read_hidden(1).unwrap(), Some(vec![0u8; vol.slot_bytes()]));
    }

    #[test]
    fn health_probe_counts_without_repairing() {
        let ftl = make_ftl(7);
        let cfg = StegoConfig::for_geometry(ftl.chip().geometry());
        let mut vol = HiddenVolume::format(ftl, key(), cfg, 6).unwrap();
        let cap = vol.ftl().capacity_pages();
        fill_public(&mut vol, cap, 12);
        for i in 0..3usize {
            vol.write_hidden(i, &vec![i as u8 + 1; vol.slot_bytes()]).unwrap();
        }

        let h = vol.health_probe().unwrap();
        assert_eq!(h.data_slots, 6);
        assert_eq!(h.advertised_slots, 6);
        assert_eq!(h.lost_capacity_slots, 0);
        // Writing slots 0..3 also materialized their groups' parity slots
        // and zero-initialized their groupmates; nothing should fail.
        assert_eq!(h.slots_failed, 0);
        assert!(h.slots_present >= 3, "at least the written slots decode: {h:?}");
        assert_eq!(
            h.slots_present + h.slots_empty,
            6 + h.parity_slots,
            "every slot is accounted: {h:?}"
        );
        assert_eq!(h.correctable_bits_per_slot, vol.cfg.vthi.correctable_bits_per_page());
        assert!(h.corrected_bits_max <= h.correctable_bits_per_slot, "{h:?}");
        assert!(h.corrected_bits_total >= h.corrected_bits_max);

        // Probing is read-only: a second probe sees the same census and the
        // payloads still read back.
        assert_eq!(vol.health_probe().unwrap(), h);
        for i in 0..3usize {
            assert_eq!(vol.read_hidden(i).unwrap().unwrap(), vec![i as u8 + 1; vol.slot_bytes()]);
        }
    }

    #[test]
    fn survives_remount() {
        let ftl = make_ftl(2);
        let cfg = StegoConfig::for_geometry(ftl.chip().geometry());
        let secrets: Vec<Vec<u8>>;
        let ftl_back;
        {
            let mut vol = HiddenVolume::format(ftl, key(), cfg.clone(), 6).unwrap();
            let cap = vol.ftl().capacity_pages();
            fill_public(&mut vol, cap, 11);
            secrets = (0..4u8).map(|i| vec![i.wrapping_mul(17); vol.slot_bytes()]).collect();
            for (i, s) in secrets.iter().enumerate() {
                vol.write_hidden(i, s).unwrap();
            }
            ftl_back = vol.unmount();
        }
        let (mut vol, report) = HiddenVolume::remount(ftl_back, key(), cfg, 6).unwrap();
        assert_eq!(report.lost, 0, "nothing should be lost: {report:?}");
        assert!(report.recovered >= 4);
        for (i, s) in secrets.iter().enumerate() {
            assert_eq!(vol.read_hidden(i).unwrap().as_ref(), Some(s), "slot {i}");
        }
    }

    #[test]
    fn hidden_data_survives_gc_churn() {
        let ftl = make_ftl(3);
        let cfg = StegoConfig::for_geometry(ftl.chip().geometry());
        let mut vol = HiddenVolume::format(ftl, key(), cfg, 4).unwrap();
        let lpns = vol.ftl().capacity_pages();
        fill_public(&mut vol, lpns, 12);
        let secret = vec![0xC3u8; vol.slot_bytes()];
        vol.write_hidden(2, &secret).unwrap();

        // Grind the public volume until GC has run repeatedly.
        let cpp = vol.ftl().chip().geometry().cells_per_page();
        let mut rng = SmallRng::seed_from_u64(13);
        for _ in 0..(lpns * 2) {
            let lpn = rng.gen_range(0..lpns);
            let data = BitPattern::random_half(&mut rng, cpp);
            vol.write_public(lpn, &data).unwrap();
        }
        assert!(vol.ftl().stats().gc_runs > 0, "GC must have churned");
        assert_eq!(vol.read_hidden(2).unwrap().unwrap(), secret);

        // And the on-flash copy (not just the cache) survived: remount.
        let ftl_back = vol.unmount();
        let geometry = *ftl_back.chip().geometry();
        let (mut vol2, report) =
            HiddenVolume::remount(ftl_back, key(), StegoConfig::for_geometry(&geometry), 4)
                .unwrap();
        assert_eq!(report.lost, 0, "{report:?}");
        assert_eq!(vol2.read_hidden(2).unwrap().unwrap(), secret);
    }

    #[test]
    fn parity_reconstructs_slot_lost_while_unmounted() {
        let ftl = make_ftl(4);
        let mut cfg = StegoConfig::for_geometry(ftl.chip().geometry());
        cfg.parity_group = 3;
        let mut vol = HiddenVolume::format(ftl, key(), cfg.clone(), 3).unwrap();
        let cap = vol.ftl().capacity_pages();
        fill_public(&mut vol, cap, 14);
        let secrets: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i + 1; vol.slot_bytes()]).collect();
        for (i, s) in secrets.iter().enumerate() {
            vol.write_hidden(i, s).unwrap();
        }
        // Unmounted: the normal user overwrites one slot's public page,
        // destroying its hidden payload (fresh physical page, no hiding).
        let victim_lpn = vol.slot_lpn[1];
        let mut ftl_back = vol.unmount();
        let cpp = ftl_back.chip().geometry().cells_per_page();
        let noise = BitPattern::random_half(&mut SmallRng::seed_from_u64(15), cpp);
        ftl_back.write(victim_lpn, &noise).unwrap();

        let (mut vol2, report) = HiddenVolume::remount(ftl_back, key(), cfg, 3).unwrap();
        assert_eq!(report.reconstructed, 1, "{report:?}");
        assert_eq!(report.lost, 0, "{report:?}");
        assert_eq!(vol2.read_hidden(1).unwrap().unwrap(), secrets[1]);
    }

    #[test]
    fn piggyback_defers_until_public_write() {
        let ftl = make_ftl(5);
        let mut cfg = StegoConfig::for_geometry(ftl.chip().geometry());
        cfg.piggyback = true;
        cfg.parity_group = 0;
        let mut vol = HiddenVolume::format(ftl, key(), cfg, 4).unwrap();
        let cap = vol.ftl().capacity_pages();
        fill_public(&mut vol, cap, 16);

        let secret = vec![0x42u8; vol.slot_bytes()];
        vol.write_hidden(0, &secret).unwrap();
        assert_eq!(vol.pending_slots(), 1, "embedding must be deferred");

        // A public write to the owning page flushes the hidden bits.
        let lpn = vol.slot_lpn[0];
        let cpp = vol.ftl().chip().geometry().cells_per_page();
        let data = BitPattern::random_half(&mut SmallRng::seed_from_u64(17), cpp);
        vol.write_public(lpn, &data).unwrap();
        assert_eq!(vol.pending_slots(), 0);
        assert_eq!(vol.read_hidden(0).unwrap().unwrap(), secret);
    }

    #[test]
    fn errors_are_typed() {
        let ftl = make_ftl(6);
        let cfg = StegoConfig::for_geometry(ftl.chip().geometry());
        let mut vol = HiddenVolume::format(ftl, key(), cfg, 2).unwrap();
        assert!(matches!(vol.write_hidden(5, &[]), Err(StegoError::SlotOutOfRange { .. })));
        let wrong = vec![0u8; vol.slot_bytes() + 1];
        assert!(matches!(vol.write_hidden(0, &wrong), Err(StegoError::PayloadLength { .. })));
        // Unbacked public page.
        let secret = vec![0u8; vol.slot_bytes()];
        assert!(matches!(vol.write_hidden(0, &secret), Err(StegoError::UnbackedSlot { .. })));
    }

    #[test]
    fn scrub_migrates_slots_off_grown_bad_blocks() {
        let ftl = make_ftl(7);
        let cfg = StegoConfig::for_geometry(ftl.chip().geometry());
        let mut vol = HiddenVolume::format(ftl, key(), cfg, 4).unwrap();
        let cap = vol.ftl().capacity_pages();
        fill_public(&mut vol, cap, 18);
        let secret = vec![0x5Au8; vol.slot_bytes()];
        vol.write_hidden(0, &secret).unwrap();

        let block = vol.ftl.physical_of(vol.slot_lpn[0]).unwrap().block;
        vol.ftl.chip_mut().grow_bad_block(block).unwrap();

        let report = vol.scrub(usize::MAX).unwrap();
        assert!(report.migrated >= 1, "{report:?}");
        assert_eq!(report.lost, 0, "{report:?}");
        assert_ne!(
            vol.ftl.physical_of(vol.slot_lpn[0]).unwrap().block,
            block,
            "slot must have moved off the grown-bad block"
        );
        assert_eq!(vol.read_hidden(0).unwrap().unwrap(), secret);

        // The migrated on-flash copy (not just the cache) decodes: remount.
        let ftl_back = vol.unmount();
        let geometry = *ftl_back.chip().geometry();
        let (mut vol2, rep) =
            HiddenVolume::remount(ftl_back, key(), StegoConfig::for_geometry(&geometry), 4)
                .unwrap();
        assert_eq!(rep.lost, 0, "{rep:?}");
        assert_eq!(vol2.read_hidden(0).unwrap().unwrap(), secret);
    }

    #[test]
    fn scrub_refreshes_slots_over_the_watermark() {
        let ftl = make_ftl(8);
        let cfg = StegoConfig::for_geometry(ftl.chip().geometry());
        let mut vol = HiddenVolume::format(ftl, key(), cfg, 4).unwrap();
        let cap = vol.ftl().capacity_pages();
        fill_public(&mut vol, cap, 19);
        let secret = vec![0x77u8; vol.slot_bytes()];
        vol.write_hidden(0, &secret).unwrap();

        // Threshold 0 forces a refresh of every live slot; the payload must
        // survive the rewrite cycle.
        let report = vol.scrub(0).unwrap();
        assert!(report.refreshed >= 1, "{report:?}");
        assert_eq!(report.lost, 0, "{report:?}");
        assert_eq!(vol.read_hidden(0).unwrap().unwrap(), secret);

        // An impossible threshold refreshes nothing.
        let report = vol.scrub(usize::MAX).unwrap();
        assert_eq!(report.refreshed, 0, "{report:?}");
        assert_eq!(vol.read_hidden(0).unwrap().unwrap(), secret);
    }

    #[test]
    fn scrub_writes_off_destroyed_slots_and_shrinks_capacity() {
        use stash_flash::{FaultDevice, FaultPlan};
        // A fault-capable backend from the start, so the stuck-cell plan
        // can be installed mid-test; no plan means exact passthrough.
        let chip = FaultDevice::new(Chip::new(small_profile(), 9));
        let ftl = Ftl::new(chip, FtlConfig { reserve_blocks: 4, gc_low_water: 2 }).unwrap();
        let mut cfg = StegoConfig::for_geometry(ftl.chip().geometry());
        cfg.parity_group = 0; // no parity: destruction is permanent
        let mut vol = HiddenVolume::format(ftl, key(), cfg.clone(), 3).unwrap();
        let cap = vol.ftl().capacity_pages();
        fill_public(&mut vol, cap, 20);
        for i in 0..3 {
            vol.write_hidden(i, &vec![i as u8 + 1; vol.slot_bytes()]).unwrap();
        }
        assert_eq!(vol.advertised_slot_count(), 3);

        // Slot 1's page dies hard while the volume is unmounted: every cell
        // reads a stuck alternating pattern, so the slot still *looks*
        // written (≈half its hidden cells read charged) but no sweep offset
        // decodes it, and with the cache gone there is nothing to rebuild
        // from (parity is off).
        let victim = vol.ftl.physical_of(vol.slot_lpn[1]).unwrap();
        let mut ftl_back = vol.unmount();
        let cpp = ftl_back.chip().geometry().cells_per_page();
        let base = victim.page as usize * cpp;
        let mut plan = FaultPlan::new(1);
        for i in 0..cpp {
            let level = if i % 2 == 0 { 5 } else { 120 };
            plan = plan.with_stuck_cell(victim.block, base + i, level);
        }
        ftl_back.chip_mut().set_plan(plan);

        let (mut vol2, remount_report) = HiddenVolume::remount(ftl_back, key(), cfg, 3).unwrap();
        assert_eq!(remount_report.lost, 1, "{remount_report:?}");
        let report = vol2.scrub(usize::MAX).unwrap();
        assert_eq!(report.capacity_lost, 1, "{report:?}");
        assert_eq!(report.lost, 1, "{report:?}");
        assert_eq!(vol2.advertised_slot_count(), 2);
        assert_eq!(vol2.advertised_capacity_bytes(), 2 * vol2.slot_bytes());
        // The surviving slots still read.
        assert_eq!(vol2.read_hidden(0).unwrap().unwrap(), vec![1u8; vol2.slot_bytes()]);
        assert_eq!(vol2.read_hidden(2).unwrap().unwrap(), vec![3u8; vol2.slot_bytes()]);
        // A second scrub does not write the same slot off twice.
        let report = vol2.scrub(usize::MAX).unwrap();
        assert_eq!(report.capacity_lost, 0, "{report:?}");
        assert_eq!(vol2.advertised_slot_count(), 2);
    }

    #[test]
    fn two_losses_in_one_parity_group_are_lost_not_rebuilt() {
        use stash_flash::{FaultDevice, FaultPlan};
        let chip = FaultDevice::new(Chip::new(small_profile(), 9));
        let ftl = Ftl::new(chip, FtlConfig { reserve_blocks: 4, gc_low_water: 2 }).unwrap();
        let mut cfg = StegoConfig::for_geometry(ftl.chip().geometry());
        cfg.parity_group = 3; // groups {0, 1, 2} and {3, 4, 5}
        let mut vol = HiddenVolume::format(ftl, key(), cfg.clone(), 6).unwrap();
        let cap = vol.ftl().capacity_pages();
        fill_public(&mut vol, cap, 20);
        let secrets: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i + 1; vol.slot_bytes()]).collect();
        for (i, s) in secrets.iter().enumerate() {
            vol.write_hidden(i, s).unwrap();
        }

        // Slots 0 and 1 die hard while the volume is unmounted (the stuck
        // alternating pattern of the scrub test above). Their group keeps
        // slot 2 and its parity slot: one member short of an XOR rebuild.
        let victims: Vec<_> =
            [0, 1].iter().map(|&s| vol.ftl.physical_of(vol.slot_lpn[s]).unwrap()).collect();
        let mut ftl_back = vol.unmount();
        let cpp = ftl_back.chip().geometry().cells_per_page();
        let mut plan = FaultPlan::new(1);
        for victim in &victims {
            let base = victim.page as usize * cpp;
            for i in 0..cpp {
                let level = if i % 2 == 0 { 5 } else { 120 };
                plan = plan.with_stuck_cell(victim.block, base + i, level);
            }
        }
        ftl_back.chip_mut().set_plan(plan);

        let (mut vol2, report) = HiddenVolume::remount(ftl_back, key(), cfg, 6).unwrap();
        assert_eq!(report.lost, 2, "{report:?}");
        assert_eq!(report.reconstructed, 0, "{report:?}");
        assert_eq!(vol2.read_hidden(0).unwrap(), None);
        assert_eq!(vol2.read_hidden(1).unwrap(), None);
        for (s, secret) in secrets.iter().enumerate().skip(2) {
            assert_eq!(vol2.read_hidden(s).unwrap().as_ref(), Some(secret), "slot {s}");
        }
    }

    #[test]
    fn integrity_tag_rejects_mis_tagged_payload_and_parity_rebuilds() {
        let ftl = make_ftl(10);
        let mut cfg = StegoConfig::for_geometry(ftl.chip().geometry());
        cfg.parity_group = 3;
        let mut vol = HiddenVolume::format(ftl, key(), cfg.clone(), 3).unwrap();
        let cap = vol.ftl().capacity_pages();
        fill_public(&mut vol, cap, 22);
        let secrets: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i + 9; vol.slot_bytes()]).collect();
        for (i, s) in secrets.iter().enumerate() {
            vol.write_hidden(i, s).unwrap();
        }

        // While unmounted, slot 1's public page is rewritten and a payload
        // carrying the WRONG slot identity is embedded on the fresh page —
        // the ECC will decode it cleanly, so only the tag can notice.
        let victim_lpn = vol.slot_lpn[1];
        let mut ftl_back = vol.unmount();
        let cpp = ftl_back.chip().geometry().cells_per_page();
        let noise = BitPattern::random_half(&mut SmallRng::seed_from_u64(23), cpp);
        ftl_back.write(victim_lpn, &noise).unwrap();
        let page = ftl_back.physical_of(victim_lpn).unwrap();
        let public = ftl_back.chip_mut().read_page(page).unwrap();
        let mut encoded = vec![0xEEu8; cfg.slot_bytes()];
        let bad_tag = slot_tag(&encoded, 999, cfg.tag_bytes());
        encoded.extend_from_slice(&bad_tag);
        let mut hider = Hider::new(ftl_back.chip_mut(), key(), cfg.vthi.clone())
            .with_selection_mode(SelectionMode::Absolute)
            .with_retry_policy(RetryPolicy::standard());
        hider.hide_in_programmed_page(page, &public, &encoded, false).unwrap();

        let (mut vol2, report) = HiddenVolume::remount(ftl_back, key(), cfg, 3).unwrap();
        assert_eq!(report.tag_failures, 1, "{report:?}");
        assert_eq!(report.reconstructed, 1, "{report:?}");
        assert_eq!(report.lost, 0, "{report:?}");
        assert_eq!(vol2.read_hidden(1).unwrap().unwrap(), secrets[1]);
    }

    #[test]
    fn striped_placement_spans_distinct_chips_per_group() {
        use stash_flash::ArrayDevice;
        let array = ArrayDevice::homogeneous(small_profile(), 4, 11);
        let ftl = Ftl::new(array, FtlConfig { reserve_blocks: 4, gc_low_water: 2 }).unwrap();
        let mut cfg = StegoConfig::for_geometry(ftl.chip().geometry());
        cfg.parity_group = 3;
        let vol = HiddenVolume::format(ftl, key(), cfg, 9).unwrap();
        let lpns = vol.slot_lpns();
        assert_eq!(lpns.len(), 9 + 3, "9 data slots + one parity slot per group");
        let mut sorted = lpns.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), lpns.len(), "slot LPNs are distinct");
        // Every group's 3 data slots + parity slot sit on 4 distinct chips,
        // so losing any single chip costs each group at most one member.
        for group in 0..3usize {
            let mut chips_used: Vec<u64> =
                (group * 3..group * 3 + 3).map(|s| lpns[s] % 4).collect();
            chips_used.push(lpns[9 + group] % 4);
            chips_used.sort_unstable();
            chips_used.dedup();
            assert_eq!(chips_used.len(), 4, "group {group} must span all 4 chips");
        }
        // And the placement is key-dependent on arrays too.
        let array2 = ArrayDevice::homogeneous(small_profile(), 4, 11);
        let ftl2 = Ftl::new(array2, FtlConfig { reserve_blocks: 4, gc_low_water: 2 }).unwrap();
        let mut cfg2 = StegoConfig::for_geometry(ftl2.chip().geometry());
        cfg2.parity_group = 3;
        let vol2 =
            HiddenVolume::format(ftl2, HidingKey::from_passphrase("other"), cfg2, 9).unwrap();
        assert_ne!(vol.slot_lpns(), vol2.slot_lpns());
    }

    #[test]
    fn placement_is_key_dependent() {
        let a = HiddenVolume::<Chip>::derive_placement(&key(), 1024, 16);
        let b = HiddenVolume::<Chip>::derive_placement(&key(), 1024, 16);
        let c =
            HiddenVolume::<Chip>::derive_placement(&HidingKey::from_passphrase("other"), 1024, 16);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
