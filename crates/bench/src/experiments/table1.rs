//! Table 1 + §8: VT-HI vs PT-HI on reliability, performance, power, public
//! data integrity, repeated reads, wear, and capacity.
//!
//! Two methods, cross-checked:
//!  1. the paper's closed-form §8 arithmetic over operation counts and the
//!     §6.1 device latencies/energies, and
//!  2. metered measurements from actually running both schemes on
//!     independently seeded simulated chips (the paper characterizes four
//!     samples of the vendor-A chip; we meter
//!     [`Scale::samples`](crate::Scale::samples) of each scheme, 8 at full
//!     scale, and aggregate).
//!
//! Samples are independent work items on the `stash-par` pool: each derives
//! its own chip and RNG from its sample index, so the TSV is byte-identical
//! for any `STASH_THREADS`. Sample 0 of VT-HI carries the tracer.
//!
//! Headline targets: 24× encode, 50× decode, 37× energy, 10-vs-625 wear,
//! ~2× capacity (enhanced configuration vs PT-HI).

use crate::{
    experiment_key, f, fill_block_hiding_traced, outln, raw_paper_config, rng,
    short_block_profile, write_trace_artifacts, Run,
};
use pthi::{PthiConfig, PthiHider};
use stash_flash::{BitPattern, BlockId, Chip, ChipProfile, MeterSnapshot, NandDevice, PageId};
use stash_obs::Tracer;
use vthi::{shannon_capacity_bits, Hider, HidingThroughput, PAPER_PAGES_PER_BLOCK_S8};

/// One metered scheme run: encode-phase meter, decode-phase meter, and the
/// number of hidden (VT-HI) or carrier (PT-HI) pages it processed.
#[derive(Default)]
struct SampleMeters {
    encode: MeterSnapshot,
    decode: MeterSnapshot,
    pages: u32,
}

/// VT-HI on one freshly seeded chip: hide across one block, then decode it.
/// The encode account excludes public program ops (the normal user pays
/// those anyway; the §8 model charges VT-HI only the PP+read iterations).
fn vthi_sample(profile: &ChipProfile, sample: usize, traced: bool) -> SampleMeters {
    let timing = stash_flash::TimingModel::paper_vendor_a();
    let key = experiment_key();
    let cfg = raw_paper_config(256, 1);
    let mut chip =
        stash_flash::TraceDevice::new(Chip::new(profile.clone(), 71 + 100 * sample as u64));
    let mut rng = rng(42 + sample as u64);
    chip.reset_meter();
    let tracer = traced.then(Tracer::shared);
    chip.set_recorder(tracer.clone().map(|t| t as stash_flash::SharedRecorder));
    let before = chip.meter();
    let (publics, reports) = fill_block_hiding_traced(
        &mut chip,
        BlockId(0),
        &key,
        &cfg,
        &mut rng,
        false,
        tracer.clone(),
    );
    let after_encode = chip.meter();
    let hidden_pages = reports.len() as u32;
    {
        let _decode = tracer.as_ref().map(|t| t.span("decode_block"));
        let mut hider = Hider::new(&mut chip, key, cfg.clone()).with_tracer(tracer.clone());
        for (i, _rep) in reports.iter().enumerate() {
            let page = PageId::new(BlockId(0), i as u32 * cfg.page_stride());
            let _ = hider
                .read_hidden_bits(page, Some(&publics[(i as u32 * cfg.page_stride()) as usize]))
                .expect("decode");
        }
    }
    let after_decode = chip.meter();
    chip.set_recorder(None);
    if let Some(tracer) = tracer {
        write_trace_artifacts("table1", &tracer.report());
    }

    let mut encode = after_encode.since(&before);
    let program_us = encode.count(stash_flash::OpKind::Program) as f64 * timing.program_us;
    let program_uj = encode.count(stash_flash::OpKind::Program) as f64 * timing.program_uj;
    encode.device_time_us -= program_us;
    encode.energy_uj -= program_uj;
    SampleMeters { encode, decode: after_decode.since(&after_encode), pages: hidden_pages }
}

/// PT-HI on one freshly seeded chip: encode + (destructive) decode per page
/// over a whole block, with public data programmed in between.
fn pthi_sample(profile: &ChipProfile, sample: usize) -> SampleMeters {
    let key = experiment_key();
    let pages = profile.geometry.pages_per_block;
    let mut chip = Chip::new(profile.clone(), 72 + 100 * sample as u64);
    let mut rng = rng(1042 + sample as u64);
    let pcfg = PthiConfig::paper_default(chip.geometry());
    chip.erase_block(BlockId(0)).expect("erase");
    chip.reset_meter();
    let b0 = chip.meter();
    {
        let mut ph = PthiHider::new(&mut chip, key.clone(), pcfg.clone());
        for p in 0..pages {
            let bits: Vec<bool> =
                (0..pcfg.bits_per_page).map(|i| (i + p as usize) % 2 == 0).collect();
            ph.encode_page(PageId::new(BlockId(0), p), &bits).expect("encode");
        }
    }
    let b1 = chip.meter();
    chip.erase_block(BlockId(0)).expect("erase");
    {
        // Public data in between.
        let cpp = chip.geometry().cells_per_page();
        for p in 0..pages {
            let data = BitPattern::random_half(&mut rng, cpp);
            chip.program_page(PageId::new(BlockId(0), p), &data).expect("program");
        }
    }
    let b2 = chip.meter();
    {
        let mut ph = PthiHider::new(&mut chip, key, pcfg);
        for p in 0..pages {
            let _ = ph.decode_page(PageId::new(BlockId(0), p)).expect("decode");
        }
    }
    let b3 = chip.meter();
    SampleMeters { encode: b1.since(&b0), decode: b3.since(&b2), pages }
}

/// Sums per-sample meters into one device-total account, in sample order.
fn aggregate(samples: &[SampleMeters]) -> SampleMeters {
    let mut total = SampleMeters::default();
    for s in samples {
        total.encode.absorb(&s.encode);
        total.decode.absorb(&s.decode);
        total.pages += s.pages;
    }
    total
}

pub fn run(r: &mut Run) {
    let timing = stash_flash::TimingModel::paper_vendor_a();

    // ---- method 1: the paper's closed-form model --------------------------
    let vthi_model = HidingThroughput::vthi_model(&timing, 10, PAPER_PAGES_PER_BLOCK_S8, 243.6);
    let pthi_model = HidingThroughput::pthi_model(&timing, PAPER_PAGES_PER_BLOCK_S8);

    // ---- method 2: metered execution on the simulator ---------------------
    let samples = r.scale.samples();
    let profile = short_block_profile(r.scale);

    // One pool pass over all 2×S independent samples: VT-HI first, PT-HI
    // after, split back apart below.
    let metered = stash_par::par_trials(2 * samples, |i| {
        if i < samples {
            vthi_sample(&profile, i, i == 0)
        } else {
            pthi_sample(&profile, i - samples)
        }
    });
    let vthi_total = aggregate(&metered[..samples]);
    let pthi_total = aggregate(&metered[samples..]);

    let vthi_measured = HidingThroughput::from_meter(
        &vthi_total.encode,
        &vthi_total.decode,
        vthi_total.pages,
        shannon_capacity_bits(256, 0.005) / 1.0,
        false,
    );
    let pthi_measured = HidingThroughput::from_meter(
        &pthi_total.encode,
        &pthi_total.decode,
        pthi_total.pages,
        PthiConfig::paper_default(&profile.geometry).bits_per_page as f64,
        true,
    );

    // ---- print -------------------------------------------------------------
    r.header(
        "Table 1 / §8: VT-HI vs PT-HI",
        &format!("model = paper closed-form; measured = simulator meter over {samples} chip samples/scheme"),
    );
    r.row(
        ["metric", "vthi_model", "pthi_model", "vthi_measured", "pthi_measured", "paper"]
            .map(String::from),
    );
    let schemes = [&vthi_model, &pthi_model, &vthi_measured, &pthi_measured];
    let metric = |name: &str, value: fn(&HidingThroughput) -> f64, prec: [usize; 4], paper: &str| {
        let mut cells = vec![name.to_owned()];
        cells.extend(schemes.iter().zip(prec).map(|(t, p)| f(value(t), p)));
        cells.push(paper.to_owned());
        cells
    };
    r.row(metric("encode Kb/s", HidingThroughput::encode_kbps, [1, 2, 1, 2], "35 vs 1.4"));
    r.row(metric("decode Kb/s", HidingThroughput::decode_kbps, [0; 4], "2700 vs 54"));
    r.row(metric("encode mJ/page", |t| t.encode_mj_per_page, [2, 1, 2, 1], "1.1 vs 43"));
    r.row(metric("wear ops/page", |t| t.wear_ops_per_page, [0, 0, 1, 0], "10 vs 625"));
    r.row(["destructive decode", "no", "yes", "no", "yes", "Table 1"].map(String::from));

    let (enc, dec, energy) = vthi_model.speedup_over(&pthi_model);
    let (enc_m, dec_m, energy_m) = vthi_measured.speedup_over(&pthi_measured);
    outln!(r);
    outln!(
        r,
        "# headline ratios  (model):    encode {enc:.1}x, decode {dec:.1}x, energy {energy:.1}x"
    );
    outln!(r, "# headline ratios  (measured): encode {enc_m:.1}x, decode {dec_m:.1}x, energy {energy_m:.1}x");
    outln!(r, "# paper:                       encode 24x,   decode 50x,   energy 37x");

    // Capacity row (§8 Improved Capacity): enhanced VT-HI vs PT-HI.
    let enhanced_bits = shannon_capacity_bits(2560, 0.02); // ≈ 2197/page
    let pthi_bits_per_page = 72_000.0 / f64::from(PAPER_PAGES_PER_BLOCK_S8); // 1125
    outln!(r);
    outln!(
        r,
        "# capacity: enhanced VT-HI {:.0} usable bits/page vs PT-HI {:.0} -> {:.1}x (paper: ~2x)",
        enhanced_bits,
        pthi_bits_per_page,
        enhanced_bits / pthi_bits_per_page
    );
    outln!(
        r,
        "# default VT-HI capacity {:.1} usable bits/page (paper: 243.6)",
        shannon_capacity_bits(256, 0.005)
    );
    outln!(r, "# trace artifacts (VT-HI measured run): results/TRACE_table1.jsonl, results/TRACE_table1.folded");

    let mut device = MeterSnapshot::default();
    device.absorb(&vthi_total.encode);
    device.absorb(&vthi_total.decode);
    device.absorb(&pthi_total.encode);
    device.absorb(&pthi_total.decode);
    r.meter.record("samples_per_scheme", samples as f64);
    r.meter.record("hidden_pages", f64::from(vthi_total.pages));
    r.meter.record_snapshot(&device);
}
