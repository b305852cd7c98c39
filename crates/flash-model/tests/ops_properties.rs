//! Property tests over the tester command set: invariants that must hold
//! for every pattern, page and seed. Each property runs 32 seeded cases;
//! a failing case names its seed.

use rand::{rngs::SmallRng, Rng, SeedableRng};
use stash_flash::{BitPattern, BlockId, Chip, ChipProfile, Geometry, NandDevice, OpKind, PageId};

/// Runs `case` on 32 seeded random streams; a failing case names its seed
/// before the failure propagates.
fn for_cases(case: impl Fn(&mut SmallRng) + std::panic::RefUnwindSafe) {
    for seed in 0..32u64 {
        let run = || case(&mut SmallRng::seed_from_u64(seed));
        if let Err(panic) = std::panic::catch_unwind(run) {
            eprintln!("case with seed {seed} failed");
            std::panic::resume_unwind(panic);
        }
    }
}

fn tiny_chip(seed: u64) -> Chip {
    let mut profile = ChipProfile::vendor_a();
    profile.geometry = Geometry { blocks_per_chip: 4, pages_per_block: 4, page_bytes: 256 };
    Chip::new(profile, seed)
}

/// Whatever is programmed reads back (modulo the noise floor) for any
/// pattern, not just balanced random ones.
#[test]
fn prop_program_read_roundtrip() {
    for_cases(|rng| {
        let mut chip = tiny_chip(rng.gen());
        let cpp = chip.geometry().cells_per_page();
        let density = rng.gen_range(0.0f64..=1.0);
        let data: BitPattern = (0..cpp).map(|_| rng.gen_bool(density)).collect();
        chip.erase_block(BlockId(0)).unwrap();
        let page = PageId::new(BlockId(0), 0);
        chip.program_page(page, &data).unwrap();
        let back = chip.read_page(page).unwrap();
        // Weak pages (3-sigma-low voltage offsets) may carry a few raw
        // errors — that's what the public ECC path absorbs on real drives.
        assert!(back.hamming_distance(&data) <= 8);
    });
}

/// Erase always returns every cell to logical 1, from any prior state.
#[test]
fn prop_erase_clears() {
    for_cases(|rng| {
        let mut chip = tiny_chip(rng.gen());
        let pec = rng.gen_range(0u32..3000);
        let cpp = chip.geometry().cells_per_page();
        chip.cycle_block(BlockId(1), pec).unwrap();
        chip.erase_block(BlockId(1)).unwrap();
        let page = PageId::new(BlockId(1), 2);
        chip.program_page(page, &BitPattern::zeros(cpp)).unwrap();
        chip.erase_block(BlockId(1)).unwrap();
        let bits = chip.read_page(page).unwrap();
        assert_eq!(bits.count_zeros(), 0);
    });
}

/// The meter is exact: op counts reflect issued commands one-for-one.
#[test]
fn prop_meter_counts_exact() {
    for_cases(|rng| {
        let mut chip = tiny_chip(rng.gen());
        let reads = rng.gen_range(0u8..8);
        let pps = rng.gen_range(0u8..8);
        let cpp = chip.geometry().cells_per_page();
        chip.erase_block(BlockId(0)).unwrap();
        let page = PageId::new(BlockId(0), 0);
        chip.program_page(page, &BitPattern::zeros(cpp)).unwrap();
        chip.reset_meter();
        for _ in 0..reads {
            let _ = chip.read_page(page).unwrap();
        }
        let mask = BitPattern::ones(cpp);
        for _ in 0..pps {
            chip.partial_program(page, &mask).unwrap();
        }
        let m = chip.meter();
        assert_eq!(m.count(OpKind::Read), u64::from(reads));
        assert_eq!(m.count(OpKind::PartialProgram), u64::from(pps));
        assert_eq!(m.total_ops(), u64::from(reads) + u64::from(pps));
    });
}

/// Shifted reads are consistent: lowering the reference can only turn
/// 1s into 0s (monotone thresholding), up to read noise on boundary
/// cells.
#[test]
fn prop_shifted_reads_monotone() {
    for_cases(|rng| {
        let seed = rng.gen::<u64>();
        let mut chip = tiny_chip(seed);
        let cpp = chip.geometry().cells_per_page();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xA5);
        let data = BitPattern::random_half(&mut rng, cpp);
        chip.erase_block(BlockId(0)).unwrap();
        let page = PageId::new(BlockId(0), 0);
        chip.program_page(page, &data).unwrap();
        let mut low = BitPattern::zeros(0);
        chip.read_page_shifted_into(page, 30, &mut low).unwrap();
        let mut high = BitPattern::zeros(0);
        chip.read_page_shifted_into(page, 200, &mut high).unwrap();
        // A cell reading 1 at vref=30 (v < 30) must read 1 at vref=200
        // unless read noise crosses it — allow a tiny violation count.
        let violations = (0..cpp).filter(|&i| low.get(i) && !high.get(i)).count();
        assert!(violations <= 2, "{violations} monotonicity violations");
    });
}

/// Probing never changes what a subsequent read returns (beyond noise):
/// characterization is non-destructive.
#[test]
fn prop_probe_nondestructive() {
    for_cases(|rng| {
        let seed = rng.gen::<u64>();
        let mut chip = tiny_chip(seed);
        let cpp = chip.geometry().cells_per_page();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x77);
        let data = BitPattern::random_half(&mut rng, cpp);
        chip.erase_block(BlockId(0)).unwrap();
        let page = PageId::new(BlockId(0), 0);
        chip.program_page(page, &data).unwrap();
        let mut levels = Vec::new();
        for _ in 0..5 {
            chip.probe_voltages_into(page, &mut levels).unwrap();
        }
        let back = chip.read_page(page).unwrap();
        assert!(back.hamming_distance(&data) <= 8);
    });
}

/// Two chips with the same seed are indistinguishable; different seeds
/// are different silicon.
#[test]
fn prop_seed_determinism() {
    for_cases(|rng| {
        let seed = rng.gen::<u64>();
        let levels = |s: u64| {
            let mut chip = tiny_chip(s);
            let cpp = chip.geometry().cells_per_page();
            chip.erase_block(BlockId(0)).unwrap();
            let page = PageId::new(BlockId(0), 0);
            chip.program_page(page, &BitPattern::zeros(cpp)).unwrap();
            let mut levels = Vec::new();
            chip.probe_voltages_into(page, &mut levels).unwrap();
            levels
        };
        assert_eq!(levels(seed), levels(seed));
    });
}
