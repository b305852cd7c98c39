//! Figure 6: hidden-data BER after each partial-program step, for every
//! combination of page interval ∈ {0, 1, 2, 4} and hidden bits per page
//! ∈ {32, 128, 512}, averaged over 5 blocks per combination (paper §6.3).
//!
//! Expected shape: BER starts high (~0.2) after one step and converges
//! below 1% within ~10 steps, for every combination.
//!
//! Each combination is an independent work item on the `stash-par` pool:
//! its chip seed and RNG derive from the (interval, bits) pair, so the TSV
//! is byte-identical for any `STASH_THREADS`. Combination 0 carries the
//! tracer (a shared tracer across parallel combos would interleave
//! nondeterministically).
//!
//! Output: TSV with one column per `interval+bits` combination, one row per
//! PP step.

use crate::{
    experiment_key, f, fill_block_hiding_traced, outln, raw_paper_config, rng,
    short_block_profile, write_trace_artifacts, Run,
};
use stash_flash::{
    BitErrorStats, BlockId, Chip, MeterSnapshot, NandDevice, TraceDevice,
};
use stash_obs::Tracer;

const STEPS: u8 = 15;
const BLOCKS: u32 = 5;
const INTERVALS: [u32; 4] = [0, 1, 2, 4];
const BITS: [usize; 3] = [32, 128, 512];

pub fn run(r: &mut Run) {
    let key = experiment_key();
    let profile = short_block_profile(r.scale);

    let page_bytes = r.scale.page_bytes();
    r.header(
        "Figure 6: hidden BER vs partial-program steps",
        &format!(
            "combinations: intervals {INTERVALS:?} x hidden bits {BITS:?}; \
             {BLOCKS} blocks each; {page_bytes}-byte pages"
        ),
    );

    let combos: Vec<(u32, usize)> =
        INTERVALS.iter().flat_map(|&i| BITS.iter().map(move |&b| (i, b))).collect();

    // One pool item per combination; the tracer rides on combination 0 and
    // its flamegraph shows how encode time splits between PP iterations and
    // verify reads.
    let results = stash_par::par_map(combos, |ci, (interval, bits)| {
        let mut cfg = raw_paper_config(bits, interval);
        cfg.max_pp_steps = STEPS;
        let mut acc = vec![BitErrorStats::default(); STEPS as usize];
        let mut rng = rng(6000 + u64::from(interval) * 10 + bits as u64);
        let tracer = (ci == 0).then(Tracer::shared);

        let mut chip = TraceDevice::new(Chip::new(
            profile.clone(),
            1000 + u64::from(interval) * 10 + bits as u64,
        ));
        chip.set_recorder(tracer.clone().map(|t| t as stash_flash::SharedRecorder));
        {
            let _combo = tracer
                .as_ref()
                .map(|t| t.span_labeled("combo", format!("interval={interval} bits={bits}")));
            for b in 0..BLOCKS {
                let (_publics, reports) = fill_block_hiding_traced(
                    &mut chip,
                    BlockId(b),
                    &key,
                    &cfg,
                    &mut rng,
                    true,
                    tracer.clone(),
                );
                for rep in &reports {
                    for (s, ber) in rep.step_ber.iter().enumerate() {
                        acc[s.min(STEPS as usize - 1)].absorb(*ber);
                    }
                    // Pages that converged early keep their final BER for
                    // the remaining steps (the paper plots flat tails).
                    if let Some(last) = rep.step_ber.last() {
                        for a in acc.iter_mut().take(STEPS as usize).skip(rep.step_ber.len()) {
                            a.absorb(*last);
                        }
                    }
                }
                chip.discard_block_state(BlockId(b)).expect("discard");
            }
        }
        chip.set_recorder(None);
        if let Some(tracer) = tracer {
            write_trace_artifacts("fig6", &tracer.report());
        }
        (format!("{interval}+{bits}"), acc, chip.meter())
    });

    let mut head = vec!["pp_step".to_owned()];
    head.extend(results.iter().map(|(label, _, _)| label.clone()));
    r.row(head);
    for s in 0..STEPS as usize {
        let mut cells = vec![(s + 1).to_string()];
        cells.extend(results.iter().map(|(_, acc, _)| f(acc[s].ber(), 5)));
        r.row(cells);
    }

    outln!(r);
    outln!(r, "# paper: BER converges to <1% after ~10 steps for all combinations");
    let converged = results.iter().filter(|(_, acc, _)| acc[9].ber() < 0.01).count();
    outln!(r, "# measured: {}/{} combinations below 1% at step 10", converged, results.len());
    outln!(
        r,
        "# trace artifacts (combination 0): results/TRACE_fig6.jsonl, results/TRACE_fig6.folded"
    );

    let mut device = MeterSnapshot::default();
    for (_, _, meter) in &results {
        device.absorb(meter);
    }
    r.meter.record("combinations", results.len() as f64);
    r.meter.record("converged_at_step10", converged as f64);
    r.meter.record_snapshot(&device);
}
