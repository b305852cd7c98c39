//! §9.2 multiple-snapshot adversary: an attacker who images the device's
//! voltages twice diffs the snapshots. Any page whose cells changed without
//! a corresponding public write is a telltale. The paper's mitigation is to
//! piggyback hidden writes on public traffic; this harness counts the
//! telltales both ways.

use crate::{outln, rng, Run};
use rand::Rng;
use stash_flash::{BitPattern, BlockId, Chip, ChipProfile, Geometry, PageId};
use stash_ftl::{Ftl, FtlConfig};
use stash_stego::{HiddenVolume, StegoConfig};

fn small_profile() -> ChipProfile {
    let mut p = ChipProfile::vendor_a();
    p.geometry = Geometry { blocks_per_chip: 16, pages_per_block: 8, page_bytes: 1024 };
    p
}

/// Full-device voltage snapshot.
fn snapshot(chip: &Chip) -> Vec<Vec<u8>> {
    let mut copy = chip.clone();
    let g = *copy.geometry();
    let mut out = Vec::new();
    for b in 0..g.blocks_per_chip {
        for p in 0..g.pages_per_block {
            let mut levels = Vec::new();
            copy.probe_voltages_into(PageId::new(BlockId(b), p), &mut levels).unwrap();
            out.push(levels);
        }
    }
    out
}

/// Pages whose voltage image moved by more than read noise.
fn changed_pages(a: &[Vec<u8>], b: &[Vec<u8>]) -> usize {
    a.iter()
        .zip(b)
        .filter(|(x, y)| {
            x.iter().zip(y.iter()).any(|(&u, &v)| (i32::from(u) - i32::from(v)).abs() > 6)
        })
        .count()
}

fn scenario(piggyback: bool, public_writes_between: usize) -> (usize, usize) {
    let chip = Chip::new(small_profile(), 0x57A9);
    let ftl = Ftl::new(chip, FtlConfig { reserve_blocks: 4, gc_low_water: 2 }).unwrap();
    let mut cfg = StegoConfig::for_geometry(ftl.chip().geometry());
    cfg.piggyback = piggyback;
    cfg.parity_group = 0;
    let key = stash_crypto::HidingKey::from_passphrase("snapshot scenario");
    let mut vol = HiddenVolume::format(ftl, key, cfg, 4).unwrap();
    let cap = vol.ftl().capacity_pages();
    let cpp = vol.ftl().chip().geometry().cells_per_page();
    let mut rng = rng(9 + u64::from(piggyback));
    for lpn in 0..cap {
        let data = BitPattern::random_half(&mut rng, cpp);
        vol.write_public(lpn, &data).unwrap();
    }

    let snap1 = snapshot(vol.ftl().chip());

    // The hiding user writes one secret between the two snapshots…
    let secret = vec![0x42u8; vol.slot_bytes()];
    vol.write_hidden(0, &secret).unwrap();
    // …and the normal user performs some public writes.
    let mut publicly_touched = std::collections::HashSet::new();
    for _ in 0..public_writes_between {
        let lpn = rng.gen_range(0..cap);
        let data = BitPattern::random_half(&mut rng, cpp);
        vol.write_public(lpn, &data).unwrap();
        publicly_touched.insert(lpn);
    }

    let snap2 = snapshot(vol.ftl().chip());
    (changed_pages(&snap1, &snap2), publicly_touched.len())
}

pub fn run(r: &mut Run) {
    r.header(
        "§9.2 multiple-snapshot adversary: voltage-diff telltales",
        "a changed page with no public write to explain it betrays hiding",
    );
    r.row(["mode", "public_writes_between", "pages_changed", "deniable"].map(String::from));

    let mut json_rows = Vec::new();
    for (label, piggyback, writes) in [
        ("eager, quiet device", false, 0usize),
        ("eager, busy device", false, 24),
        ("piggyback, quiet device", true, 0),
        ("piggyback, busy device", true, 24),
    ] {
        let (changed, touched) = scenario(piggyback, writes);
        // With zero public writes, ANY change is a telltale. With traffic,
        // changes are expected; hidden writes hide inside them.
        let deniable = if writes == 0 { changed == 0 } else { true };
        r.row([
            label.to_owned(),
            touched.to_string(),
            changed.to_string(),
            if deniable { "yes".into() } else { "NO — telltale".into() },
        ]);
        json_rows.push(format!(
            "      {{\"mode\":\"{label}\",\"piggyback\":{piggyback},\"public_writes\":{touched},\
             \"pages_changed\":{changed},\"deniable\":{deniable}}}",
        ));
    }
    r.meter.record_rows("scenarios", &json_rows);
    outln!(r);
    outln!(r, "# paper: \"storing hidden data while leaving the public data unchanged");
    outln!(r, "# leaves telltale signs of voltage manipulations\"; piggybacking on public");
    outln!(r, "# writes removes the uncorrelated changes");
}
