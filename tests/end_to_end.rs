//! Cross-crate integration: the complete hiding user's journey on one chip —
//! hide with ECC, survive retention, recover; plus cross-vendor operation
//! and deniable destruction.

use rand::{rngs::SmallRng, Rng, SeedableRng};
use stash::crypto::HidingKey;
use stash::flash::{BitPattern, BlockId, Chip, ChipProfile, Geometry, NandDevice, PageId};
use stash::vthi::{Hider, VthiConfig};

fn fill_other_pages(chip: &mut Chip, block: BlockId, stride: u32, rng: &mut SmallRng) {
    let cpp = chip.geometry().cells_per_page();
    for p in 0..chip.geometry().pages_per_block {
        if p % stride != 0 {
            let filler = BitPattern::random_half(rng, cpp);
            chip.program_page(PageId::new(block, p), &filler).unwrap();
        }
    }
}

#[test]
fn hide_age_recover_with_ecc() {
    let mut chip = Chip::new(ChipProfile::vendor_a_scaled(), 0xE2E);
    let key = HidingKey::from_passphrase("four months in a drawer");
    let cfg = VthiConfig::scaled_for(chip.geometry());
    let mut rng = SmallRng::seed_from_u64(1);

    let block = BlockId(0);
    chip.erase_block(block).unwrap();
    let mut hider = Hider::new(&mut chip, key, cfg.clone());
    fill_other_pages(hider.chip_mut(), block, cfg.page_stride(), &mut rng);

    // Hide payloads on 8 strided pages.
    let mut stored = Vec::new();
    for i in 0..8u32 {
        let page = PageId::new(block, i * cfg.page_stride());
        let public = BitPattern::random_half(&mut rng, hider.chip().geometry().cells_per_page());
        let payload: Vec<u8> = (0..cfg.payload_bytes_per_page()).map(|_| rng.gen()).collect();
        hider.hide_on_fresh_page(page, &public, &payload).unwrap();
        stored.push((page, public, payload));
    }

    // Four months pass on a fresh chip: BCH must absorb the decay.
    hider.chip_mut().age_days(120.0);

    for (page, public, payload) in &stored {
        let got = hider.reveal_page(*page, Some(public)).unwrap();
        assert_eq!(&got, payload, "page {page} corrupted after retention");
    }
}

#[test]
fn works_on_both_vendors() {
    for (name, mut profile) in
        [("vendor-A", ChipProfile::vendor_a()), ("vendor-B", ChipProfile::vendor_b())]
    {
        profile.geometry = Geometry {
            blocks_per_chip: 4,
            pages_per_block: 8,
            page_bytes: profile.geometry.page_bytes,
        };
        let mut chip = Chip::new(profile, 0xAB);
        let key = HidingKey::from_passphrase("portable");
        let cfg = VthiConfig::paper_default();
        let mut rng = SmallRng::seed_from_u64(2);

        let block = BlockId(0);
        chip.erase_block(block).unwrap();
        let mut hider = Hider::new(&mut chip, key, cfg.clone());
        fill_other_pages(hider.chip_mut(), block, cfg.page_stride(), &mut rng);

        let page = PageId::new(block, 0);
        let public = BitPattern::random_half(&mut rng, hider.chip().geometry().cells_per_page());
        let payload: Vec<u8> = (0..cfg.payload_bytes_per_page()).map(|_| rng.gen()).collect();
        hider.hide_on_fresh_page(page, &public, &payload).unwrap();
        assert_eq!(hider.reveal_page(page, Some(&public)).unwrap(), payload, "{name}");
    }
}

#[test]
fn public_path_needs_no_key_and_stays_clean() {
    let mut chip = Chip::new(ChipProfile::vendor_a_scaled(), 0xF00);
    let key = HidingKey::from_passphrase("invisible");
    let cfg = VthiConfig::scaled_for(chip.geometry());
    let mut rng = SmallRng::seed_from_u64(3);

    let block = BlockId(0);
    let page = PageId::new(block, 0);
    let public = BitPattern::random_half(&mut rng, chip.geometry().cells_per_page());
    let payload = vec![0x99u8; cfg.payload_bytes_per_page()];
    {
        let mut hider = Hider::new(&mut chip, key, cfg);
        hider.chip_mut().erase_block(block).unwrap();
        hider.hide_on_fresh_page(page, &public, &payload).unwrap();
    }
    // The normal user — no key anywhere in scope — reads the page.
    let read = chip.read_page(page).unwrap();
    let errors = read.hamming_distance(&public);
    assert!(errors <= public.len() / 2000, "{errors} public bit errors in {} bits", public.len());
}

#[test]
fn erase_is_instant_deniability() {
    let mut chip = Chip::new(ChipProfile::vendor_a_scaled(), 0xDEAD);
    let key = HidingKey::from_passphrase("knock at the door");
    let cfg = VthiConfig::scaled_for(chip.geometry());
    let mut rng = SmallRng::seed_from_u64(4);

    let block = BlockId(0);
    let page = PageId::new(block, 0);
    let public = BitPattern::random_half(&mut rng, chip.geometry().cells_per_page());
    let payload = vec![0x77u8; cfg.payload_bytes_per_page()];

    let mut hider = Hider::new(&mut chip, key, cfg);
    hider.chip_mut().erase_block(block).unwrap();
    hider.hide_on_fresh_page(page, &public, &payload).unwrap();

    hider.chip_mut().reset_meter();
    hider.destroy_block(block).unwrap();
    let m = hider.chip().meter();
    assert_eq!(m.count(stash::flash::OpKind::Erase), 1, "destruction is one erase");
    // 5 ms on the paper's chip.
    assert!(m.device_time_us <= 5000.0 + 1e-9);

    if let Ok(bytes) = hider.reveal_page(page, Some(&public)) {
        assert_ne!(bytes, payload);
    }
}

#[test]
fn hidden_reads_are_repeatable_nondestructively() {
    // Table 1's "Repeated Reads" row: unlike PT-HI, VT-HI decodes any
    // number of times without touching public data.
    let mut chip = Chip::new(ChipProfile::vendor_a_scaled(), 0x3E4D);
    let key = HidingKey::from_passphrase("read me twice");
    let cfg = VthiConfig::scaled_for(chip.geometry());
    let mut rng = SmallRng::seed_from_u64(5);

    let block = BlockId(0);
    let page = PageId::new(block, 0);
    let public = BitPattern::random_half(&mut rng, chip.geometry().cells_per_page());
    let payload = vec![0x10u8; cfg.payload_bytes_per_page()];

    let mut hider = Hider::new(&mut chip, key, cfg);
    hider.chip_mut().erase_block(block).unwrap();
    hider.hide_on_fresh_page(page, &public, &payload).unwrap();

    for _ in 0..50 {
        assert_eq!(hider.reveal_page(page, Some(&public)).unwrap(), payload);
    }
    let read = hider.chip_mut().read_page(page).unwrap();
    assert!(read.hamming_distance(&public) <= public.len() / 2000);
}
