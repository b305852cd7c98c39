//! Authentication & provenance watermarking (paper §9.1).
//!
//! A trusted application stores a document on flash and embeds a hidden
//! HMAC-based watermark in the very pages holding the document. Anyone with
//! the watermark key can later verify that (a) the document is authentic
//! and (b) it was written by the trusted application — while the document
//! itself reads back through the normal public path. Rewriting the
//! document without the key (a counterfeiter) silently loses the watermark.
//!
//! ```sh
//! cargo run --example watermark
//! ```

use stash::crypto::{hmac_sha256, HidingKey};
use stash::flash::{BitPattern, BlockId, Chip, ChipProfile, NandDevice, PageId};
use stash::vthi::{Hider, VthiConfig};

/// Splits a document into page-sized public bit patterns (padded).
fn paginate(document: &[u8], cells_per_page: usize) -> Vec<BitPattern> {
    let bytes_per_page = cells_per_page / 8;
    document
        .chunks(bytes_per_page)
        .map(|chunk| {
            let mut buf = chunk.to_vec();
            buf.resize(bytes_per_page, 0);
            BitPattern::from_bytes(&buf, cells_per_page)
        })
        .collect()
}

/// The watermark for page `i` of a document: HMAC(key, page-index ‖ content)
/// truncated to the hidden payload size.
fn watermark(key: &HidingKey, index: u64, public: &BitPattern, len: usize) -> Vec<u8> {
    let mut msg = index.to_le_bytes().to_vec();
    msg.extend_from_slice(public.as_bytes());
    let mac = hmac_sha256(&key.subkey("watermark"), &msg);
    mac.iter().cycle().take(len).copied().collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Full-size pages: each watermark is a 27-byte keyed MAC.
    let mut profile = ChipProfile::vendor_a();
    profile.geometry =
        stash::flash::Geometry { blocks_per_chip: 8, pages_per_block: 8, page_bytes: 18048 };
    let mut chip = Chip::new(profile, 0xD0C);
    let cfg = VthiConfig::paper_default();
    let key = HidingKey::from_passphrase("manufacturer provenance key");
    let cpp = chip.geometry().cells_per_page();
    let payload_len = cfg.payload_bytes_per_page();

    let document = b"FIRMWARE IMAGE v2.4.1 -- certified build -- \
do not distribute outside the release channel. "
        .repeat(500);
    let pages = paginate(&document, cpp);
    println!("document: {} bytes across {} pages", document.len(), pages.len());

    // The trusted writer stores the document and embeds watermarks.
    let block = BlockId(0);
    let stride = cfg.page_stride();
    {
        let mut hider = Hider::new(&mut chip, key.clone(), cfg.clone());
        hider.chip_mut().erase_block(block)?;
        for (i, public) in pages.iter().enumerate() {
            let page = PageId::new(block, i as u32 * stride);
            let mark = watermark(&key, i as u64, public, payload_len);
            hider.hide_on_fresh_page(page, public, &mark)?;
        }
    }
    println!("watermarks embedded ({payload_len} hidden bytes per page)");

    // A verifier with the key checks authenticity page by page.
    let mut hider = Hider::new(&mut chip, key.clone(), cfg.clone());
    let mut verified = 0usize;
    for (i, public) in pages.iter().enumerate() {
        let page = PageId::new(block, i as u32 * stride);
        let expected = watermark(&key, i as u64, public, payload_len);
        match hider.reveal_page(page, Some(public)) {
            Ok(found) if found == expected => verified += 1,
            _ => println!("page {i}: WATERMARK MISMATCH"),
        }
    }
    println!("verified: {verified}/{} pages authentic", pages.len());
    assert_eq!(verified, pages.len());

    // A counterfeiter copies the document byte-for-byte to another block —
    // without the key, the hidden provenance does not come along.
    let forged_block = BlockId(4);
    hider.chip_mut().erase_block(forged_block)?;
    for (i, public) in pages.iter().enumerate() {
        let page = PageId::new(forged_block, i as u32 * stride);
        hider.chip_mut().program_page(page, public)?;
    }
    let mut forged_ok = 0usize;
    for (i, public) in pages.iter().enumerate() {
        let page = PageId::new(forged_block, i as u32 * stride);
        let expected = watermark(&key, i as u64, public, payload_len);
        if let Ok(found) = hider.reveal_page(page, Some(public)) {
            if found == expected {
                forged_ok += 1;
            }
        }
    }
    println!("counterfeit copy: {forged_ok}/{} pages carry a valid watermark", pages.len());
    assert_eq!(forged_ok, 0, "a copy must not inherit provenance");
    println!("counterfeit detected: identical public bytes, no watermark");
    Ok(())
}
