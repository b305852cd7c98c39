//! Failure injection: bad blocks, worn-out devices, saturated pages,
//! hostile inputs — the hiding stack must fail loudly and typed, never
//! silently corrupt.

use rand::{rngs::SmallRng, Rng, SeedableRng};
use stash::crypto::HidingKey;
use stash::flash::{
    BitPattern, BlockId, Chip, ChipProfile, FaultDevice, FaultPlan, FlashError, Geometry,
    NandDevice, PageId,
};
use stash::vthi::{EccChoice, HideError, Hider, RetryPolicy, VthiConfig};

fn small_chip(seed: u64) -> Chip {
    let mut profile = ChipProfile::vendor_a();
    profile.geometry = Geometry { blocks_per_chip: 4, pages_per_block: 8, page_bytes: 1024 };
    Chip::new(profile, seed)
}

fn small_faulty_chip(seed: u64, plan: FaultPlan) -> FaultDevice<Chip> {
    FaultDevice::with_plan(small_chip(seed), plan)
}

fn small_cfg() -> VthiConfig {
    let mut cfg = VthiConfig::paper_default();
    cfg.hidden_bits_per_page = 64;
    cfg.ecc = EccChoice::Bch { t: 3, segment_bits: 0 };
    cfg
}

#[test]
fn hiding_on_bad_block_fails_typed() {
    let mut chip = small_chip(1);
    chip.mark_bad(BlockId(0)).unwrap();
    let cfg = small_cfg();
    let key = HidingKey::new([1; 32]);
    let public = BitPattern::ones(chip.geometry().cells_per_page());
    let payload = vec![0u8; cfg.payload_bytes_per_page()];
    let mut hider = Hider::new(&mut chip, key, cfg);
    let err = hider.hide_on_fresh_page(PageId::new(BlockId(0), 0), &public, &payload).unwrap_err();
    assert_eq!(err, HideError::Flash(FlashError::BadBlock(BlockId(0))));
}

#[test]
fn saturated_public_page_rejects_hiding() {
    // A page whose public data is almost all zeros (programmed) cannot
    // host hidden bits; the error must carry the actual budget.
    let mut chip = small_chip(2);
    let cfg = small_cfg();
    let key = HidingKey::new([2; 32]);
    let cpp = chip.geometry().cells_per_page();
    let mut public = BitPattern::zeros(cpp);
    for i in 0..10 {
        public.set(i, true);
    }
    chip.erase_block(BlockId(0)).unwrap();
    let payload = vec![0u8; cfg.payload_bytes_per_page()];
    let mut hider = Hider::new(&mut chip, key, cfg);
    match hider.hide_on_fresh_page(PageId::new(BlockId(0), 0), &public, &payload) {
        Err(HideError::InsufficientOnes { needed, available }) => {
            assert_eq!(available, 10);
            assert!(needed > available);
        }
        other => panic!("expected InsufficientOnes, got {other:?}"),
    }
}

#[test]
fn retention_apocalypse_fails_loudly_not_silently() {
    // Hide on a worn block, then age far beyond the paper's four months.
    // Either the ECC still wins, or decoding reports Unrecoverable — but a
    // silent wrong answer is a test failure.
    let mut chip = small_chip(3);
    let cfg = small_cfg();
    let key = HidingKey::new([3; 32]);
    let mut rng = SmallRng::seed_from_u64(1);
    chip.cycle_block(BlockId(0), 3000).unwrap();
    chip.erase_block(BlockId(0)).unwrap();
    let public = BitPattern::random_half(&mut rng, chip.geometry().cells_per_page());
    let payload: Vec<u8> = (0..cfg.payload_bytes_per_page()).map(|_| rng.gen()).collect();
    let page = PageId::new(BlockId(0), 0);
    let mut hider = Hider::new(&mut chip, key, cfg);
    hider.hide_on_fresh_page(page, &public, &payload).unwrap();
    hider.chip_mut().age_days(3650.0); // a decade in a drawer

    match hider.reveal_page(page, Some(&public)) {
        Ok(got) => assert_eq!(got, payload, "silent corruption after extreme retention"),
        Err(HideError::Unrecoverable { .. }) => {} // honest failure
        Err(other) => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn truncated_and_oversized_payloads_rejected() {
    let mut chip = small_chip(4);
    let cfg = small_cfg();
    let key = HidingKey::new([4; 32]);
    let public = BitPattern::ones(chip.geometry().cells_per_page());
    chip.erase_block(BlockId(0)).unwrap();
    let mut hider = Hider::new(&mut chip, key, cfg.clone());
    for bad_len in [0usize, 1, cfg.payload_bytes_per_page() + 1] {
        let payload = vec![0u8; bad_len];
        let err =
            hider.hide_on_fresh_page(PageId::new(BlockId(0), 0), &public, &payload).unwrap_err();
        assert!(matches!(err, HideError::PayloadLength { .. }), "len {bad_len}: got {err:?}");
    }
}

#[test]
fn zero_capacity_config_rejected_before_touching_flash() {
    let mut chip = small_chip(5);
    let mut cfg = small_cfg();
    // Parity eats the whole budget: t too large for the segment.
    cfg.hidden_bits_per_page = 64;
    cfg.ecc = EccChoice::Bch { t: 18, segment_bits: 0 };
    assert!(cfg.validate().is_err());
    let key = HidingKey::new([5; 32]);
    let public = BitPattern::ones(chip.geometry().cells_per_page());
    chip.erase_block(BlockId(0)).unwrap();
    chip.program_page(PageId::new(BlockId(0), 0), &public).unwrap();
    let mut hider = Hider::new(&mut chip, key, cfg);
    let page = PageId::new(BlockId(0), 0);
    let err = hider.hide_in_programmed_page(page, &public, &[], false).unwrap_err();
    assert!(matches!(err, HideError::InvalidConfig(_)));
    // Reveals on the same config are typed errors too, not panics, and
    // read nothing.
    hider.chip_mut().reset_meter();
    let err = hider.reveal_page(page, Some(&public)).unwrap_err();
    assert!(matches!(err, HideError::InvalidConfig(_)), "reveal_page: {err:?}");
    let err = hider.reveal_page_recovered(page, None).unwrap_err();
    assert!(matches!(err, HideError::InvalidConfig(_)), "reveal_page_recovered: {err:?}");
    let err = hider.read_hidden_bits(page, None).unwrap_err();
    assert!(matches!(err, HideError::InvalidConfig(_)), "read_hidden_bits: {err:?}");
    assert_eq!(hider.chip().meter().total_ops(), 0);
}

#[test]
fn transient_program_fault_is_typed_and_side_effect_free() {
    let mut chip = small_faulty_chip(7, FaultPlan::new(7).with_program_fail(1.0));
    chip.erase_block(BlockId(0)).unwrap();
    let public = BitPattern::ones(chip.geometry().cells_per_page());
    let page = PageId::new(BlockId(0), 0);
    let err = chip.program_page(page, &public).unwrap_err();
    assert_eq!(err, FlashError::TransientProgramFail(page));
    // The failed attempt left no state behind: with the fault cleared, the
    // identical operation succeeds.
    chip.set_plan(FaultPlan::none());
    chip.program_page(page, &public).unwrap();
}

#[test]
fn erase_and_grown_bad_failures_are_typed_through_the_stack() {
    let mut chip = small_faulty_chip(8, FaultPlan::new(8).with_erase_fail(1.0));
    assert_eq!(chip.erase_block(BlockId(1)).unwrap_err(), FlashError::EraseFail(BlockId(1)));
    chip.set_plan(FaultPlan::none());
    chip.grow_bad_block(BlockId(1)).unwrap();
    assert_eq!(chip.erase_block(BlockId(1)).unwrap_err(), FlashError::GrownBadBlock(BlockId(1)));
    // Through the hiding layer the same failure arrives typed, not mangled.
    let cfg = small_cfg();
    let key = HidingKey::new([8; 32]);
    let public = BitPattern::ones(chip.geometry().cells_per_page());
    let payload = vec![0u8; cfg.payload_bytes_per_page()];
    let mut hider = Hider::new(&mut chip, key, cfg);
    let err = hider.hide_on_fresh_page(PageId::new(BlockId(1), 0), &public, &payload).unwrap_err();
    assert_eq!(err, HideError::Flash(FlashError::GrownBadBlock(BlockId(1))));
}

#[test]
fn transient_faults_do_not_corrupt_public_data() {
    // Hide under heavy transient faulting (with retries); the public page
    // must read back exactly as clean as on a fault-free chip, and the
    // hidden payload must decode.
    let plan = FaultPlan::new(9).with_program_fail(0.5).with_partial_program_fail(0.2);
    let mut chip = small_faulty_chip(9, plan);
    let cfg = small_cfg();
    let key = HidingKey::new([9; 32]);
    let mut rng = SmallRng::seed_from_u64(3);
    chip.erase_block(BlockId(0)).unwrap();
    let public = BitPattern::random_half(&mut rng, chip.geometry().cells_per_page());
    let payload: Vec<u8> = (0..cfg.payload_bytes_per_page()).map(|_| rng.gen()).collect();
    let page = PageId::new(BlockId(0), 0);
    let mut hider = Hider::new(&mut chip, key, cfg).with_retry_policy(RetryPolicy::standard());
    hider.hide_on_fresh_page(page, &public, &payload).unwrap();
    assert!(hider.chip().meter().total_faults() > 0, "faults should have fired");

    let read = hider.chip_mut().read_page(page).unwrap();
    assert!(
        read.hamming_distance(&public) < public.len() / 1000,
        "transient faults corrupted public data"
    );
    assert_eq!(hider.reveal_page(page, Some(&public)).unwrap(), payload);
}

#[test]
fn worn_out_device_still_operates_with_degradation() {
    // Past rated endurance the chip keeps working (like real flash), just
    // noisier — the stack must not panic anywhere.
    let mut chip = small_chip(6);
    chip.cycle_block(BlockId(0), 10_000).unwrap();
    let cfg = small_cfg();
    let key = HidingKey::new([6; 32]);
    let mut rng = SmallRng::seed_from_u64(2);
    chip.erase_block(BlockId(0)).unwrap();
    let public = BitPattern::random_half(&mut rng, chip.geometry().cells_per_page());
    let payload: Vec<u8> = (0..cfg.payload_bytes_per_page()).map(|_| rng.gen()).collect();
    let page = PageId::new(BlockId(0), 0);
    let mut hider = Hider::new(&mut chip, key, cfg);
    hider.hide_on_fresh_page(page, &public, &payload).unwrap();
    // Recovery may or may not succeed at 10k PEC; it must not panic.
    let _ = hider.reveal_page(page, Some(&public));
}
