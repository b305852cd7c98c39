//! Byte-level regression digest of the chip's noise-consuming paths.
//!
//! A fixed operation mix runs on a tiny and on a full-width (144,384-cell
//! page) geometry, and a shorter one on a block too large for the coupling
//! cache. Every output (probe levels, read bits, sweep and batched
//! results) and the final `save_state` bytes, which hold every cell voltage,
//! the RNG words, the cached Gaussian spare and the meter, are folded into
//! CRC-32 digests. The expected constants were captured before the bracketed
//! value fills landed (the large block's before the chunked coupling fill),
//! so any change to a voltage, an output, the stream position or a meter
//! field fails here. The large block's state digest was recaptured once,
//! when its uncached walk began rounding each coupling to `f32` as the
//! cached walk does; its outputs digest did not move.

use rand::{rngs::SmallRng, Rng, SeedableRng};
use stash_flash::{
    crc32, BitPattern, BlockId, Chip, ChipProfile, CmdResult, DeviceState, Geometry, NandCmd,
    NandDevice, OpKind, PageId, StateWriter,
};

/// The digests of one run: outputs, final state, and op count.
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    outputs: u32,
    state: u32,
    ops: u64,
}

/// A sparse random mask of about `n` cells.
fn sparse_mask(rng: &mut SmallRng, cells: usize, n: usize) -> BitPattern {
    let mut mask = BitPattern::zeros(cells);
    for _ in 0..n {
        mask.set(rng.gen_range(0..cells), true);
    }
    mask
}

fn run(geometry: Geometry, seed: u64) -> Digest {
    let mut profile = ChipProfile::vendor_a();
    profile.geometry = geometry;
    let cells = geometry.cells_per_page();
    let mut chip = Chip::new(profile, seed);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
    let mut out: Vec<u8> = Vec::new();
    let mut levels = Vec::new();
    let page = |b: u32, p: u32| PageId::new(BlockId(b), p);

    // Stateless erase, stateless cycle, torn erase of a stateless block.
    chip.cycle_block(BlockId(0), 1500).unwrap();
    chip.erase_block(BlockId(1)).unwrap();
    chip.torn_erase_block(BlockId(2), 0.4).unwrap();

    // Program with all-0, all-1 and random patterns.
    chip.program_page(page(1, 0), &BitPattern::zeros(cells)).unwrap();
    chip.program_page(page(1, 1), &BitPattern::ones(cells)).unwrap();
    let random = BitPattern::random_half(&mut rng, cells);
    chip.program_page(page(1, 2), &random).unwrap();
    chip.program_page(page(0, 1), &BitPattern::random_half(&mut rng, cells)).unwrap();
    chip.program_page(page(2, 0), &BitPattern::random_half(&mut rng, cells)).unwrap();

    // PP and fine PP, then a program next to the nudged cells.
    let mask = sparse_mask(&mut rng, cells, 257);
    for _ in 0..3 {
        chip.partial_program(page(1, 2), &mask).unwrap();
    }
    chip.fine_partial_program(page(1, 1), &sparse_mask(&mut rng, cells, 131), 34).unwrap();
    chip.fine_partial_program(page(1, 2), &mask, 40).unwrap();
    chip.program_page(page(1, 3), &BitPattern::random_half(&mut rng, cells)).unwrap();

    // Reads and probes at the calibrated noise and at noise scale 4.
    for scale in [1.0, 4.0] {
        chip.set_read_noise_scale(scale);
        for p in [page(1, 0), page(1, 1), page(1, 2), page(0, 0)] {
            chip.probe_voltages_into(p, &mut levels).unwrap();
            out.extend_from_slice(&levels);
            out.extend_from_slice(chip.read_page_shifted(p, 34).unwrap().as_bytes());
        }
        for bits in chip.read_page_sweep(page(1, 2), &[20, 34, 90]).unwrap() {
            out.extend_from_slice(bits.as_bytes());
        }
    }
    chip.set_read_noise_scale(1.0);

    // A batched read run with probes between reads.
    let batch = [
        NandCmd::ProbeVoltages(page(1, 2)),
        NandCmd::ReadPage(page(1, 2)),
        NandCmd::ProbeVoltages(page(1, 2)),
        NandCmd::ReadPageSweep(page(1, 2), vec![34, 60]),
        NandCmd::ProbeVoltages(page(1, 2)),
    ];
    for result in chip.exec(&batch) {
        match result {
            CmdResult::Levels(Ok(l)) => out.extend_from_slice(&l),
            CmdResult::Bits(Ok(b)) => out.extend_from_slice(b.as_bytes()),
            CmdResult::Sweep(Ok(s)) => s.iter().for_each(|b| out.extend_from_slice(b.as_bytes())),
            other => panic!("unexpected batch result {other:?}"),
        }
    }

    // Retention aging, then probes of aged pages.
    chip.age_days(30.0);
    chip.age_days(0.5);
    for p in [page(1, 2), page(0, 1)] {
        chip.probe_voltages_into(p, &mut levels).unwrap();
        out.extend_from_slice(&levels);
    }

    // Erase of a programmed block, and erase after a discard.
    chip.erase_block(BlockId(1)).unwrap();
    chip.discard_block_state(BlockId(2)).unwrap();
    chip.erase_block(BlockId(2)).unwrap();
    chip.program_page(page(2, 1), &random).unwrap();
    chip.probe_voltages_into(page(2, 1), &mut levels).unwrap();
    out.extend_from_slice(&levels);

    let mut w = StateWriter::new();
    chip.save_state(&mut w);
    let state = w.into_bytes();
    let meter = chip.meter();
    assert_eq!(meter.count(OpKind::Probe), 14);
    Digest { outputs: crc32(&out), state: crc32(&state), ops: meter.total_ops() }
}

#[test]
fn tiny_geometry_digest_is_unchanged() {
    let g = Geometry { blocks_per_chip: 4, pages_per_block: 6, page_bytes: 256 };
    assert_eq!(run(g, 7), Digest { outputs: 0xE11B_FEFF, state: 0x3D50_0046, ops: 47 });
}

#[test]
fn full_width_geometry_digest_is_unchanged() {
    let g = Geometry { blocks_per_chip: 3, pages_per_block: 4, page_bytes: 18048 };
    assert_eq!(run(g, 11), Digest { outputs: 0x949D_34D6, state: 0x797F_EC88, ops: 47 });
}

/// Outputs and final `save_state` bytes of a block's worth of work: erase,
/// programs (each coupling onto its neighbours), PP, probes and reads.
fn work_on_block(chip: &mut Chip, b: u32, seed: u64) -> (Vec<u8>, Vec<u8>) {
    let cells = chip.geometry().cells_per_page();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut levels = Vec::new();
    let page = |p: u32| PageId::new(BlockId(b), p);
    chip.erase_block(BlockId(b)).unwrap();
    for p in 0..chip.geometry().pages_per_block {
        chip.program_page(page(p), &BitPattern::random_half(&mut rng, cells)).unwrap();
    }
    chip.partial_program(page(1), &sparse_mask(&mut rng, cells, 97)).unwrap();
    for p in 0..chip.geometry().pages_per_block {
        chip.probe_voltages_into(page(p), &mut levels).unwrap();
        out.extend_from_slice(&levels);
        out.extend_from_slice(chip.read_page(page(p)).unwrap().as_bytes());
    }
    let mut w = StateWriter::new();
    chip.save_state(&mut w);
    (out, w.into_bytes())
}

#[test]
fn recycled_block_buffers_match_fresh_ones() {
    for page_bytes in [256, 18048] {
        let mut profile = ChipProfile::vendor_a();
        profile.geometry = Geometry { blocks_per_chip: 3, pages_per_block: 4, page_bytes };
        let mut recycling = Chip::new(profile, 5);
        // Materialize block 0 with its coupling cache, then discard it: the
        // chip keeps both buffers for the next block. A clone starts
        // without them, so it allocates fresh ones.
        work_on_block(&mut recycling, 0, 1);
        recycling.discard_block_state(BlockId(0)).unwrap();
        let mut fresh = recycling.clone();
        for (b, seed) in [(2, 2), (1, 3)] {
            let got = work_on_block(&mut recycling, b, seed);
            assert!(got == work_on_block(&mut fresh, b, seed), "page_bytes {page_bytes} block {b}");
            recycling.discard_block_state(BlockId(b)).unwrap();
            fresh.discard_block_state(BlockId(b)).unwrap();
        }
    }
}

#[test]
fn uncached_coupling_digest_is_unchanged() {
    // 117 full-width pages put the block over the coupling cache's size
    // limit, so every interference bump derives its cell's coupling latent
    // on the fly. A handful of programs, a PP step, probes and reads on
    // the touched wordlines cover that walk.
    let mut profile = ChipProfile::vendor_a();
    profile.geometry = Geometry { blocks_per_chip: 1, pages_per_block: 117, page_bytes: 18048 };
    let cells = profile.geometry.cells_per_page();
    let mut chip = Chip::new(profile, 13);
    let mut rng = SmallRng::seed_from_u64(13);
    let mut out = Vec::new();
    let mut levels = Vec::new();
    let page = |p: u32| PageId::new(BlockId(0), p);
    chip.erase_block(BlockId(0)).unwrap();
    for p in [0, 1, 3, 116] {
        chip.program_page(page(p), &BitPattern::random_half(&mut rng, cells)).unwrap();
    }
    chip.partial_program(page(1), &sparse_mask(&mut rng, cells, 97)).unwrap();
    for p in [0, 1, 2, 3, 4, 5, 114, 116] {
        chip.probe_voltages_into(page(p), &mut levels).unwrap();
        out.extend_from_slice(&levels);
        out.extend_from_slice(chip.read_page(page(p)).unwrap().as_bytes());
    }
    let mut w = StateWriter::new();
    chip.save_state(&mut w);
    let digest = Digest {
        outputs: crc32(&out),
        state: crc32(&w.into_bytes()),
        ops: chip.meter().total_ops(),
    };
    assert_eq!(digest, Digest { outputs: 0x1C13_BC41, state: 0xED6D_8C06, ops: 22 });
}
