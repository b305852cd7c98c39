//! # stash-bench — experiment harnesses for every table and figure
//!
//! Every table and figure of the paper's evaluation is one experiment
//! function in [`experiments`], listed in [`experiments::EXPERIMENTS`].
//! The `reproduce` binary runs them
//! (`cargo run --release -p stash-bench --bin reproduce -- fig6`): each
//! experiment writes its TSV into a [`Run`], and the driver stores it as
//! `results/<name>.txt` next to `results/BENCH_<name>.json`. This library
//! also holds the shared plumbing: block preparation, histogram
//! collection, dataset assembly for the SVM experiments, and tab-separated
//! output helpers.
//!
//! Scale note: experiments that only need distribution *shapes* run on the
//! paper's full 18 KB pages but shorter blocks, or on the scaled SVM
//! geometry — each experiment states its geometry in its header line. The
//! simulator preserves densities and noise statistics across geometries
//! (see `stash-flash` calibration tests), so shapes and ratios carry over.

pub mod compare;
pub mod crash;
pub mod detect;
pub mod experiments;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use stash_crypto::HidingKey;
use stash_flash::{
    BitErrorStats, BitPattern, BlockId, ChipProfile, Geometry, Histogram, NandDevice, PageId,
};
use stash_obs::{span, TraceReport, Tracer};
use std::borrow::Borrow;
use std::sync::Arc;
use vthi::{Hider, PageEncodeReport, VthiConfig};

/// Appends one formatted line to a [`Run`]'s output, like `println!`
/// does to stdout (`outln!(r)` appends an empty line).
macro_rules! outln {
    ($run:expr) => {
        $run.out.push('\n')
    };
    ($run:expr, $($arg:tt)*) => {{
        use ::std::fmt::Write as _;
        let _ = writeln!($run.out, $($arg)*);
    }};
}
pub(crate) use outln;

/// How large a run is: the paper's sizes, or the scaled-down sizes of the
/// smoke recipes and the determinism test (`reproduce --smoke`). Shapes
/// survive scaling (see `stash-flash` calibration tests), absolute values
/// do not, so smoke artifacts are never committed to `results/`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The committed `results/` sizes.
    Full,
    /// Small pages, few samples, a short crash matrix.
    Smoke,
}

impl Scale {
    fn pick(self, full: usize, smoke: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }

    /// Page size of the short-block profile: 18048 bytes, 1024 smoke.
    #[must_use]
    pub fn page_bytes(self) -> usize {
        self.pick(18048, 1024)
    }

    /// Table 1's metered chip samples per scheme: 8, 2 smoke.
    #[must_use]
    pub fn samples(self) -> usize {
        self.pick(8, 2)
    }

    /// How many power-cut points the crash matrix aims for: 200, 64 smoke.
    #[must_use]
    pub fn crash_target(self) -> usize {
        self.pick(200, 64)
    }
}

/// One experiment in progress: its scale, the TSV text it produces (what
/// the driver stores as `results/<name>.txt`), and its bench record.
pub struct Run {
    /// How large the run is.
    pub scale: Scale,
    /// The experiment's TSV output.
    pub out: String,
    /// Wall clock and deterministic fields for `BENCH_<name>.json`.
    pub meter: BenchMeter,
}

impl Run {
    /// Starts the named experiment's run (and its wall clock).
    #[must_use]
    pub fn new(name: &str, scale: Scale) -> Self {
        Run { scale, out: String::new(), meter: BenchMeter::start(name) }
    }

    /// Writes a header comment line (`# ...`), plus a detail line when
    /// `detail` is not empty.
    pub fn header(&mut self, title: &str, detail: &str) {
        outln!(self, "# {title}");
        if !detail.is_empty() {
            outln!(self, "# {detail}");
        }
    }

    /// Writes one TSV row.
    pub fn row<I: IntoIterator<Item = String>>(&mut self, cells: I) {
        outln!(self, "{}", cells.into_iter().collect::<Vec<_>>().join("\t"));
    }

    /// Writes one TSV row per voltage level in `lo..=hi`: the level, then
    /// each histogram's percentage of cells at that level.
    pub(crate) fn level_rows<H: Borrow<Histogram>>(&mut self, lo: u8, hi: u8, hists: &[H]) {
        for level in lo..=hi {
            let mut cells = vec![level.to_string()];
            cells.extend(hists.iter().map(|h| f(h.borrow().pct(level), 4)));
            self.row(cells);
        }
    }
}

/// The vendor-A chip with the paper's full 18048-byte pages but short
/// (16-page) blocks: full-size per-page statistics at a fraction of the
/// cost. Used by the BER-oriented figures (6, 7, 8, 11) and Table 1.
/// [`Scale::Smoke`] shrinks the page to 1024 bytes.
#[must_use]
pub(crate) fn short_block_profile(scale: Scale) -> ChipProfile {
    let mut profile = ChipProfile::vendor_a();
    profile.geometry =
        Geometry { blocks_per_chip: 64, pages_per_block: 16, page_bytes: scale.page_bytes() };
    profile
}

/// The paper's default hiding configuration on full-size pages, with raw
/// (ECC-free) hidden bits so experiments observe the uncoded BER, as the
/// paper's Figures 6/7/11 do.
pub fn raw_paper_config(hidden_bits: usize, page_interval: u32) -> VthiConfig {
    let mut cfg = VthiConfig::paper_default();
    cfg.hidden_bits_per_page = hidden_bits;
    cfg.page_interval = page_interval;
    cfg.ecc = vthi::EccChoice::None;
    cfg
}

/// Fills every page of a block with fresh pseudorandom public data,
/// returning the patterns (paper §4 methodology).
pub fn fill_block<D: NandDevice>(
    chip: &mut D,
    block: BlockId,
    rng: &mut SmallRng,
) -> Vec<BitPattern> {
    let cpp = chip.geometry().cells_per_page();
    let pages = chip.geometry().pages_per_block;
    chip.erase_block(block).expect("erase");
    (0..pages)
        .map(|p| {
            let data = BitPattern::random_half(rng, cpp);
            chip.program_page(PageId::new(block, p), &data).expect("program");
            data
        })
        .collect()
}

/// Fills a block while hiding payloads on the pages selected by the config's
/// page interval. Returns the public patterns and per-page encode reports.
pub fn fill_block_hiding<D: NandDevice>(
    chip: &mut D,
    block: BlockId,
    key: &HidingKey,
    cfg: &VthiConfig,
    rng: &mut SmallRng,
    track_steps: bool,
) -> (Vec<BitPattern>, Vec<PageEncodeReport>) {
    fill_block_hiding_traced(chip, block, key, cfg, rng, track_steps, None)
}

/// [`fill_block_hiding`] with an optional tracer: phases open spans on it
/// and the hider reports its PP-step/retry metrics (identical behavior when
/// `None`).
#[allow(clippy::too_many_arguments)]
pub fn fill_block_hiding_traced<D: NandDevice>(
    chip: &mut D,
    block: BlockId,
    key: &HidingKey,
    cfg: &VthiConfig,
    rng: &mut SmallRng,
    track_steps: bool,
    tracer: Option<Arc<Tracer>>,
) -> (Vec<BitPattern>, Vec<PageEncodeReport>) {
    let cpp = chip.geometry().cells_per_page();
    let pages = chip.geometry().pages_per_block;
    let stride = cfg.page_stride();
    {
        let _erase = span!(tracer, "erase_block", "block={block}");
        chip.erase_block(block).expect("erase");
    }

    // First pass: program all non-hidden pages (the normal user's data).
    let publics: Vec<BitPattern> = (0..pages).map(|_| BitPattern::random_half(rng, cpp)).collect();
    {
        let _public = span!(tracer, "program_public", "block={block}");
        for p in 0..pages {
            if p % stride != 0 {
                chip.program_page(PageId::new(block, p), &publics[p as usize]).expect("program");
            }
        }
    }
    // Second pass: hide on the strided pages.
    let mut reports = Vec::new();
    let mut hider = Hider::new(chip, key.clone(), cfg.clone()).with_tracer(tracer.clone());
    for p in (0..pages).step_by(stride as usize) {
        let payload: Vec<u8> = (0..cfg.payload_bytes_per_page()).map(|_| rng.gen()).collect();
        let page = PageId::new(block, p);
        {
            let _public = span!(tracer, "program_public", "block={block}");
            hider.chip_mut().program_page(page, &publics[p as usize]).expect("program");
        }
        let rep = hider
            .hide_in_programmed_page(page, &publics[p as usize], &payload, track_steps)
            .expect("hide");
        reports.push(rep);
    }
    (publics, reports)
}

/// Writes a trace's JSONL event stream (`TRACE_<name>.jsonl`) and
/// collapsed-stack flamegraph (`TRACE_<name>.folded`) into `results/`,
/// next to the bench's TSV output. Both are deterministic for a fixed
/// seed, like every other artifact.
pub fn write_trace_artifacts(name: &str, report: &TraceReport) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let _ = std::fs::write(
        dir.join(format!("TRACE_{name}.jsonl")),
        stash_obs::export::export_jsonl(report),
    );
    let _ = std::fs::write(
        dir.join(format!("TRACE_{name}.folded")),
        stash_obs::export::export_collapsed(report),
    );
}

/// Probes a whole block and splits the histogram by cell state.
pub fn block_histograms<D: NandDevice>(
    chip: &mut D,
    block: BlockId,
    publics: &[BitPattern],
) -> (Histogram, Histogram) {
    let pages =
        publics.iter().enumerate().map(|(p, public)| (PageId::new(block, p as u32), public));
    page_histograms(chip, pages)
}

/// Probes pages and splits their cells' levels by the public bit stored in
/// each: `(erased, programmed)`. One probe buffer is reused across pages —
/// no per-page `Vec<Level>` allocation.
pub(crate) fn page_histograms<'a, D: NandDevice>(
    chip: &mut D,
    pages: impl IntoIterator<Item = (PageId, &'a BitPattern)>,
) -> (Histogram, Histogram) {
    let mut erased = Histogram::new();
    let mut programmed = Histogram::new();
    let mut levels = Vec::new();
    for (page, public) in pages {
        chip.probe_voltages_into(page, &mut levels).expect("probe");
        for (bit, &level) in public.iter().zip(levels.iter()) {
            if bit {
                erased.add_level(level);
            } else {
                programmed.add_level(level);
            }
        }
    }
    (erased, programmed)
}

/// Measures the raw hidden BER of previously hidden pages right now.
pub fn measure_hidden_ber<D: NandDevice>(
    chip: &mut D,
    key: &HidingKey,
    cfg: &VthiConfig,
    reports: &[PageEncodeReport],
) -> BitErrorStats {
    let mut hider = Hider::new(chip, key.clone(), cfg.clone());
    reports.iter().map(|rep| hider.measure_raw_ber(rep.page, rep).expect("measure")).sum()
}

/// Measures the public-data BER of a block against the stored patterns.
pub fn measure_public_ber<D: NandDevice>(
    chip: &mut D,
    block: BlockId,
    publics: &[BitPattern],
) -> BitErrorStats {
    let mut total = BitErrorStats::default();
    for (p, public) in publics.iter().enumerate() {
        let read = chip.read_page(PageId::new(block, p as u32)).expect("read");
        total.absorb(BitErrorStats::compare(public, &read));
    }
    total
}

/// Schema tag stamped into every `BENCH_<name>.json` artifact;
/// `bench_check` requires it.
pub const BENCH_SCHEMA: &str = "stash-bench/1";

/// Schema tag stamped into every `results/HISTORY.jsonl` run record.
pub const HISTORY_SCHEMA: &str = "stash-history/1";

/// Wall-clock and simulated-work accounting for one bench run, emitted as
/// `results/BENCH_<name>.json` so the perf trajectory has machine-readable
/// data, and appended to `results/HISTORY.jsonl` so the trajectory
/// *accumulates* across runs instead of being overwritten.
///
/// The JSON has two kinds of fields. `threads` and everything under
/// `"wall"` describe *this run* of the harness and legitimately vary
/// between machines and `STASH_THREADS` settings. Everything under
/// `"deterministic"` describes the *simulated experiment* — device time,
/// op counts, custom totals — and must be byte-identical across thread
/// counts for a fixed seed; the determinism test enforces exactly that
/// split, and `bench_compare` gates CI on only the deterministic block.
pub struct BenchMeter {
    name: String,
    start: std::time::Instant,
    /// Deterministic fields, pre-rendered as JSON (insertion order kept).
    det: Vec<(String, String)>,
    /// Extra wall-clock figures beyond the always-present `ms`.
    wall: Vec<(String, f64)>,
}

impl BenchMeter {
    /// Starts the wall clock for the named bench.
    #[must_use]
    pub fn start(name: &str) -> Self {
        BenchMeter {
            name: name.to_string(),
            start: std::time::Instant::now(),
            det: Vec::new(),
            wall: Vec::new(),
        }
    }

    /// Records one deterministic field (insertion order is emission order).
    pub fn record(&mut self, key: &str, v: f64) {
        let mut rendered = String::new();
        stash_obs::json::write_num(&mut rendered, v);
        self.det.push((key.to_string(), rendered));
    }

    /// Records one deterministic field whose value is pre-rendered JSON
    /// (an array or object, e.g. a per-rate series) — the caller promises
    /// it is valid JSON and byte-identical across thread counts.
    pub fn record_json(&mut self, key: &str, rendered_json: &str) {
        self.det.push((key.to_string(), rendered_json.to_string()));
    }

    /// Records one deterministic array field, one pre-rendered JSON row per
    /// line (same promise as [`record_json`](Self::record_json)).
    pub(crate) fn record_rows(&mut self, key: &str, rows: &[String]) {
        self.record_json(key, &format!("[\n{}\n    ]", rows.join(",\n")));
    }

    /// Records one wall-clock figure (nondeterministic, never gated) under
    /// the `"wall"` sub-object, e.g. a mean remount latency.
    pub fn record_wall(&mut self, key: &str, v: f64) {
        self.wall.push((key.to_string(), v));
    }

    /// Records the standard fields of an aggregated meter snapshot:
    /// simulated device/wait time, energy, and total op/fault counts.
    pub fn record_snapshot(&mut self, snap: &stash_flash::MeterSnapshot) {
        self.record("device_time_us", snap.device_time_us);
        self.record("wait_time_us", snap.wait_time_us);
        self.record("energy_uj", snap.energy_uj);
        self.record("ops", snap.total_ops() as f64);
        self.record("faults", snap.total_faults() as f64);
    }

    fn write_wall_object(&self, out: &mut String, indent: &str) {
        use std::fmt::Write as _;
        let wall_ms = self.start.elapsed().as_secs_f64() * 1e3;
        let _ = write!(out, "{{{indent}\"ms\": ");
        stash_obs::json::write_num(out, (wall_ms * 1e3).round() / 1e3);
        for (k, v) in &self.wall {
            let _ = write!(out, ",{indent}");
            stash_obs::json::write_escaped(out, k);
            out.push_str(": ");
            stash_obs::json::write_num(out, *v);
        }
    }

    fn write_det_fields(&self, out: &mut String, indent: &str) {
        for (i, (k, v)) in self.det.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(indent);
            stash_obs::json::write_escaped(out, k);
            out.push_str(": ");
            out.push_str(v);
        }
    }

    /// Serializes the bench record (without writing it anywhere).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\n  \"schema\": ");
        stash_obs::json::write_escaped(&mut out, BENCH_SCHEMA);
        out.push_str(",\n  \"bench\": ");
        stash_obs::json::write_escaped(&mut out, &self.name);
        let _ = write!(out, ",\n  \"threads\": {}", stash_par::thread_count());
        out.push_str(",\n  \"wall\": ");
        self.write_wall_object(&mut out, "\n    ");
        out.push_str("\n  }");
        out.push_str(",\n  \"deterministic\": {");
        self.write_det_fields(&mut out, "\n    ");
        out.push_str("\n  }\n}\n");
        out
    }

    /// The single-line `HISTORY.jsonl` run record: same data as
    /// [`to_json`](Self::to_json) but schema-tagged `stash-history/1` and
    /// newline-free, ready to append to the trajectory log.
    #[must_use]
    pub fn history_line(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\"schema\": ");
        stash_obs::json::write_escaped(&mut out, HISTORY_SCHEMA);
        out.push_str(", \"bench\": ");
        stash_obs::json::write_escaped(&mut out, &self.name);
        let _ = write!(out, ", \"threads\": {}", stash_par::thread_count());
        out.push_str(", \"wall\": ");
        self.write_wall_object(&mut out, "");
        out.push_str("}, \"deterministic\": {");
        self.write_det_fields(&mut out, "");
        out.push_str("}}");
        // Pre-rendered nested values may be pretty-printed; raw newlines
        // cannot occur inside JSON strings, so flattening them is safe.
        if out.contains('\n') {
            out = out.replace('\n', " ");
        }
        out
    }

    /// Stops the clock, writes `results/BENCH_<name>.json`, and appends
    /// this run's record to `results/HISTORY.jsonl`, rotating the log
    /// first when it has grown to [`HISTORY_MAX`] records (see
    /// [`rotate_history`]).
    pub fn finish(self) {
        use std::io::Write as _;
        let dir = std::path::Path::new("results");
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let _ = std::fs::write(dir.join(format!("BENCH_{}.json", self.name)), self.to_json());
        let history = dir.join("HISTORY.jsonl");
        rotate_history(&history, HISTORY_MAX);
        if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(&history) {
            let _ = writeln!(f, "{}", self.history_line());
        }
    }
}

/// The `HISTORY.jsonl` rotation cap in lines — generous; a full
/// `reproduce` run appends 22.
pub const HISTORY_MAX: usize = 4096;

/// Rotates `HISTORY.jsonl` to `HISTORY.1.jsonl` (replacing any previous
/// rotation) once it holds at least `max` records, so the trajectory log
/// is bounded at roughly `2 * max` lines across the live + rotated pair
/// while every record survives one full rotation cycle. Best-effort:
/// rotation failures never block recording the current run.
pub fn rotate_history(history: &std::path::Path, max: usize) {
    let Ok(raw) = std::fs::read_to_string(history) else { return };
    if raw.lines().count() < max {
        return;
    }
    let rotated = history.with_file_name("HISTORY.1.jsonl");
    let _ = std::fs::rename(history, rotated);
}

/// A deterministic experiment RNG.
pub fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// The experiments' shared hiding key (any key works; fixed for
/// reproducibility).
pub fn experiment_key() -> HidingKey {
    HidingKey::from_passphrase("stash-bench reproduction key")
}

/// Formats a float with fixed precision for TSV output.
pub fn f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use stash_flash::Chip;

    #[test]
    fn short_block_profile_has_paper_pages() {
        let g = short_block_profile(Scale::Full).geometry;
        assert_eq!(g.page_bytes, 18048);
        assert_eq!(g.cells_per_page(), 144_384);
        assert!(g.pages_per_block < 64);
    }

    #[test]
    fn bench_meter_json_and_history_parse_and_split_wall_from_deterministic() {
        use stash_obs::json::{self, JsonValue};
        let mut m = BenchMeter::start("demo");
        m.record("ops", 42.0);
        m.record_wall("mean_remount_wall_us", 311.25);
        m.record_json("rates", "[{\"rate\": 0.01, \"survival\": 1}]");

        for (what, raw) in [("artifact", m.to_json()), ("history", m.history_line())] {
            let parsed = json::parse(&raw).unwrap_or_else(|e| panic!("{what} invalid: {e}\n{raw}"));
            let schema = if what == "history" { HISTORY_SCHEMA } else { BENCH_SCHEMA };
            assert_eq!(parsed.get("schema").and_then(JsonValue::as_str), Some(schema), "{what}");
            assert_eq!(parsed.get("bench").and_then(JsonValue::as_str), Some("demo"));
            let wall = parsed.get("wall").expect("wall object");
            assert!(wall.get("ms").and_then(JsonValue::as_f64).is_some_and(|ms| ms >= 0.0));
            assert_eq!(wall.get("mean_remount_wall_us").and_then(JsonValue::as_f64), Some(311.25));
            let det = parsed.get("deterministic").expect("deterministic object");
            assert_eq!(det.get("ops").and_then(JsonValue::as_f64), Some(42.0));
            assert!(det.get("mean_remount_wall_us").is_none(), "wall leaked into deterministic");
            let Some(JsonValue::Arr(rates)) = det.get("rates") else {
                panic!("{what}: nested rates array survives");
            };
            assert_eq!(rates[0].get("survival").and_then(JsonValue::as_f64), Some(1.0));
        }
        // History lines must be JSONL-safe.
        assert!(!m.history_line().contains('\n'));
    }

    #[test]
    fn fill_and_histogram_pipeline() {
        let mut chip = Chip::new(stash_flash::ChipProfile::test_small(), 3);
        let mut r = rng(1);
        let publics = fill_block(&mut chip, BlockId(0), &mut r);
        let (erased, programmed) = block_histograms(&mut chip, BlockId(0), &publics);
        assert!(erased.total() > 0 && programmed.total() > 0);
        assert!(programmed.mean() > erased.mean());
        let ber = measure_public_ber(&mut chip, BlockId(0), &publics);
        assert!(ber.ber() < 1e-3);
    }

    #[test]
    fn hiding_pipeline_reports() {
        let mut chip = Chip::new(stash_flash::ChipProfile::vendor_a_scaled(), 4);
        let key = experiment_key();
        let mut cfg = VthiConfig::scaled_for(chip.geometry());
        cfg.ecc = vthi::EccChoice::None;
        let mut r = rng(2);
        let (_publics, reports) =
            fill_block_hiding(&mut chip, BlockId(0), &key, &cfg, &mut r, false);
        assert_eq!(reports.len(), 16); // 32 pages at stride 2
        let ber = measure_hidden_ber(&mut chip, &key, &cfg, &reports);
        assert!(ber.bits > 0);
        assert!(ber.ber() < 0.05, "hidden BER {}", ber.ber());
    }

    #[test]
    fn history_rotation_bounds_the_live_log() {
        let dir = std::env::temp_dir().join("stash_bench_history_rotation_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let history = dir.join("HISTORY.jsonl");
        let rotated = dir.join("HISTORY.1.jsonl");

        // Under the cap: nothing moves.
        std::fs::write(&history, "{\"schema\": \"stash-history/1\"}\n".repeat(2)).unwrap();
        rotate_history(&history, 3);
        assert!(history.exists() && !rotated.exists(), "under cap must not rotate");

        // At the cap: the live log rotates out whole.
        std::fs::write(&history, "{\"schema\": \"stash-history/1\"}\n".repeat(3)).unwrap();
        rotate_history(&history, 3);
        assert!(!history.exists(), "live log should have rotated away");
        let kept = std::fs::read_to_string(&rotated).unwrap();
        assert_eq!(kept.lines().count(), 3, "rotation keeps every record");

        // The next rotation replaces the old generation rather than growing.
        std::fs::write(&history, "{\"schema\": \"stash-history/1\"}\n".repeat(4)).unwrap();
        rotate_history(&history, 3);
        assert_eq!(std::fs::read_to_string(&rotated).unwrap().lines().count(), 4);

        // Missing file is a no-op, not an error.
        rotate_history(&dir.join("HISTORY_ABSENT.jsonl"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
