//! Deterministic per-cell latent variables.
//!
//! Some physical characteristics are fixed properties of an individual cell:
//! how strongly it couples to program interference from neighboring
//! wordlines, and how efficiently a partial-program pulse moves its charge.
//! Each latent is derived by hashing `(chip_seed, block, cell, salt)` with
//! SplitMix64 and mapping the result through the desired distribution. The
//! derivation is deterministic, so a cell keeps its identity across erase
//! cycles and voltage-state discards, exactly like real silicon.
//!
//! The one latent that is stored is coupling: the chip caches it as an
//! `f32` per cell for every block of at most 16 M cells, because the
//! interference walk reads it several times per cell and block. Bigger
//! blocks (a paper-geometry block holds 37 M cells) derive it per bump with
//! [`coupling`]. The cache is filled by `fill_coupling`, a chunked,
//! branch-free kernel whose every stored value has the bits of
//! `coupling(..) as f32`:
//!
//! - the hash prefix of `(seed, block)` is computed once, so each cell costs
//!   one SplitMix64 round;
//! - Acklam's central rational runs on every cell without a branch, with
//!   the IEEE operations of [`inverse_normal_cdf`] in the same order, so its
//!   `z` is bit-exact; the ~4.9 % tail cells are compacted and sent through
//!   [`inverse_normal_cdf`] itself;
//! - `exp` is `fast_exp`, within `EXP_REL_ERR / 100` of libm. The map
//!   `t ↦ (median·t).min(cap) as f32` is monotone, so when it gives equal
//!   bits at both ends of `e·(1 ∓ EXP_REL_ERR)` those bits are the exact
//!   result; on a tie the cell is recomputed by [`coupling`].

/// Salt distinguishing the interference-coupling latent.
pub const SALT_COUPLING: u64 = 0x9E37_79B9_7F4A_7C15;
/// Salt distinguishing the partial-program efficiency latent.
pub const SALT_PP_EFF: u64 = 0xD1B5_4A32_D192_ED03;
/// Salt distinguishing the program-speed latent used by the PT-HI baseline.
pub const SALT_PROG_SPEED: u64 = 0x8CB9_2BA7_2F3D_8DD7;
/// Salt for per-block manufacturing voltage offsets.
pub const SALT_BLOCK_OFFSET: u64 = 0x2545_F491_4F6C_DD1D;
/// Salt for per-page manufacturing voltage offsets.
pub const SALT_PAGE_OFFSET: u64 = 0x6C62_272E_07BB_0142;
/// Salt for per-block interference-strength scale.
pub const SALT_BUMP_SCALE_BLOCK: u64 = 0x14C1_9BBA_41B5_7B21;
/// Salt for per-page interference-strength scale.
pub const SALT_BUMP_SCALE_PAGE: u64 = 0x7F39_83D5_13C8_A94E;
/// Salt for per-block coupling-median jitter.
pub const SALT_COUPLING_MEDIAN: u64 = 0x4528_21E6_38D0_1377;
/// Salt for per-block coupling-sigma jitter.
pub const SALT_COUPLING_SIGMA: u64 = 0xBE54_66CF_34E9_0C6C;

/// SplitMix64 finalizer: a fast, well-distributed 64-bit mixer.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hashes a `(seed, block, cell, salt)` tuple to one u64.
#[inline]
fn cell_hash(seed: u64, block: u32, cell: usize, salt: u64) -> u64 {
    let mut h = splitmix64(seed ^ salt);
    h = splitmix64(h ^ u64::from(block));
    splitmix64(h ^ cell as u64)
}

/// Maps a hash to a uniform in `(0, 1)` (never exactly 0 or 1).
#[inline]
fn to_unit(h: u64) -> f64 {
    ((h >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

/// A standard-normal variate derived from the hash via the inverse-CDF
/// (Acklam's rational approximation; |error| < 1.15e-9 — far below the
/// voltage quantization step).
#[inline]
fn to_normal(h: u64) -> f64 {
    inverse_normal_cdf(to_unit(h))
}

/// Per-cell interference coupling: lognormal, median `median`, log-sigma
/// `sigma_ln`, capped at `cap`. Cells with large coupling form the positive
/// measured-voltage tail of the erased distribution (paper Fig. 2a).
#[inline]
pub fn coupling(seed: u64, block: u32, cell: usize, median: f64, sigma_ln: f64, cap: f64) -> f64 {
    let z = to_normal(cell_hash(seed, block, cell, SALT_COUPLING));
    (median * (sigma_ln * z).exp()).min(cap)
}

/// Per-cell partial-program efficiency: lognormal with median 1. Slow cells
/// stretch the BER-vs-PP-steps convergence (paper Fig. 6 needs ~10 steps).
#[inline]
pub fn pp_efficiency(seed: u64, block: u32, cell: usize, sigma_ln: f64) -> f64 {
    let z = to_normal(cell_hash(seed, block, cell, SALT_PP_EFF));
    (sigma_ln * z).exp()
}

/// Per-cell intrinsic program speed for the PT-HI covert channel:
/// normal(1, sigma).
#[inline]
pub fn prog_speed(seed: u64, block: u32, cell: usize, sigma: f64) -> f64 {
    1.0 + sigma * to_normal(cell_hash(seed, block, cell, SALT_PROG_SPEED))
}

/// A standard-normal latent derived from `(seed, a, b, salt)` — used for
/// fixed manufacturing offsets (per block, per page) that must survive
/// voltage-state discard and re-materialization.
#[inline]
pub fn std_normal(seed: u64, a: u32, b: usize, salt: u64) -> f64 {
    to_normal(cell_hash(seed, a, b, salt))
}

/// Cells per chunk of [`fill_coupling`]. Fixed buffers keep the kernel's
/// stack use flat whatever the block size; offsets fit a `u16`.
const CHUNK: usize = 1024;

/// Relative error bound of [`fast_exp`] against libm, with a wide margin:
/// over 200 K points in every binary-exponent bin of `|x|` up to
/// [`EXP_LIMIT`], and five ulps around every rounding point of its
/// reduction, the worst relative error measured was 4.7e-16. The tests pin
/// the kernel below a hundredth of this bound.
const EXP_REL_ERR: f64 = 1e-12;

/// [`fast_exp`] is used for `|x|` up to this; beyond it the bracket is
/// skipped and the cell takes the libm path.
const EXP_LIMIT: f64 = 700.0;

/// Fills `out[c]` with `coupling(seed, block, c, median, sigma_ln, cap) as
/// f32` for every cell `c` of `out`, bit for bit (see the module docs for
/// why the result is exact). On x86-64 CPUs with AVX2 it runs a 4-lane
/// copy of the same loops; every width performs the same IEEE operations.
pub(crate) fn fill_coupling(
    seed: u64,
    block: u32,
    median: f64,
    sigma_ln: f64,
    cap: f64,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, as just checked.
        unsafe { fill_coupling_avx2(seed, block, median, sigma_ln, cap, EXP_REL_ERR, out) };
        return;
    }
    fill_coupling_with(seed, block, median, sigma_ln, cap, EXP_REL_ERR, out);
}

/// [`fill_coupling`] compiled for AVX2 (4 lanes instead of SSE2's 2).
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fill_coupling_avx2(
    seed: u64,
    block: u32,
    median: f64,
    sigma_ln: f64,
    cap: f64,
    rel_err: f64,
    out: &mut [f32],
) -> usize {
    fill_coupling_with(seed, block, median, sigma_ln, cap, rel_err, out)
}

/// The body of [`fill_coupling`], inlined into each target-feature
/// variant. `rel_err` bounds [`fast_exp`]'s relative error; the tests
/// raise it to force every cell onto the tie path. Returns the number of
/// ties.
#[inline(always)]
fn fill_coupling_with(
    seed: u64,
    block: u32,
    median: f64,
    sigma_ln: f64,
    cap: f64,
    rel_err: f64,
    out: &mut [f32],
) -> usize {
    let prefix = splitmix64(splitmix64(seed ^ SALT_COUPLING) ^ u64::from(block));
    let (below, above) = (1.0 - rel_err, 1.0 + rel_err);
    let mut p = [0.0; CHUNK];
    let mut z = [0.0; CHUNK];
    let mut tails = [0u16; CHUNK];
    let mut tie = [false; CHUNK];
    let mut ties = 0;
    for (k, out) in out.chunks_mut(CHUNK).enumerate() {
        let first = k * CHUNK;
        let (p, z, tie) = (&mut p[..out.len()], &mut z[..out.len()], &mut tie[..out.len()]);
        for (j, p) in p.iter_mut().enumerate() {
            *p = to_unit(splitmix64(prefix ^ (first + j) as u64));
        }
        normals(p, z, &mut tails);
        let mut chunk_ties = 0;
        for ((out, tie), &z) in out.iter_mut().zip(tie.iter_mut()).zip(z.iter()) {
            let x = sigma_ln * z;
            let e = fast_exp(x);
            let lo = (median * (e * below)).min(cap) as f32;
            let hi = (median * (e * above)).min(cap) as f32;
            // A NaN `x` is out of range too.
            let in_range = x.abs() <= EXP_LIMIT;
            *out = lo;
            *tie = lo.to_bits() != hi.to_bits() || !in_range;
            chunk_ties += usize::from(*tie);
        }
        // Ties are rare (about one cell in 40 000), so most chunks skip
        // the scan.
        if chunk_ties > 0 {
            for (j, out) in out.iter_mut().enumerate().filter(|&(j, _)| tie[j]) {
                *out = coupling(seed, block, first + j, median, sigma_ln, cap) as f32;
            }
        }
        ties += chunk_ties;
    }
    ties
}

/// `z[j] = inverse_normal_cdf(p[j])` for every `j`, bit for bit: the
/// central rational runs branch-free on every cell, then the tail cells
/// are compacted branch-free into `tails` and re-evaluated exactly.
#[inline(always)]
fn normals(p: &[f64], z: &mut [f64], tails: &mut [u16; CHUNK]) {
    for (z, &p) in z.iter_mut().zip(p) {
        *z = central(p);
    }
    let mut n = 0;
    for (j, &p) in p.iter().enumerate() {
        tails[n] = j as u16;
        n += usize::from(!(P_LOW..=1.0 - P_LOW).contains(&p));
    }
    for &j in &tails[..n] {
        let j = usize::from(j);
        z[j] = inverse_normal_cdf(p[j]);
    }
}

/// `e^x` for `|x| ≤` [`EXP_LIMIT`], branchless: Cody–Waite reduction by
/// `ln 2` with magic-number rounding (`round()` is a libm call on baseline
/// x86-64, and an `as i64` cast does not vectorize), the degree-12 Taylor
/// polynomial on `|r| ≤ ln(2)/2`, and the power of two built from the
/// rounded integer's bits. Within [`EXP_REL_ERR`]`/100` relative of libm
/// (pinned by the tests); outside the range the value is meaningless.
#[inline(always)]
fn fast_exp(x: f64) -> f64 {
    /// `1.5·2^52`: adding it rounds to an integer held in the low bits.
    const ROUND: f64 = 6_755_399_441_055_744.0;
    /// fdlibm's split of `ln 2`: `n·LN2_HI` is exact for `|n| < 2^20`.
    const LN2_HI: f64 = 0.693_147_180_369_123_8;
    const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
    /// `1/k!` for `k = 2..=12`.
    const INV_FACT: [f64; 11] = [
        0.5,
        0.166_666_666_666_666_66,
        0.041_666_666_666_666_664,
        0.008_333_333_333_333_333,
        0.001_388_888_888_888_889,
        0.000_198_412_698_412_698_4,
        2.480_158_730_158_73e-5,
        2.755_731_922_398_589_3e-6,
        2.755_731_922_398_589e-7,
        2.505_210_838_544_172e-8,
        2.087_675_698_786_81e-9,
    ];
    let shifted = x * std::f64::consts::LOG2_E + ROUND;
    let n = shifted - ROUND;
    // `x − n·LN2_HI` is exact (Sterbenz), so only LN2_LO's rounding adds
    // to the reduced argument's error.
    let r = (x - n * LN2_HI) - n * LN2_LO;
    let mut poly = INV_FACT[10];
    for &c in INV_FACT[..10].iter().rev() {
        poly = poly * r + c;
    }
    let poly = (poly * r + 1.0) * r + 1.0;
    // The low bits of `shifted` hold `n` in two's complement; shifted into
    // the exponent field with the bias they give `2^n` (`|n| ≤ 1010`).
    let scale = f64::from_bits(shifted.to_bits().wrapping_add(1023) << 52);
    poly * scale
}

/// Acklam's coefficients of the central rational: numerator (`A`) and
/// denominator (`B`).
const A: [f64; 6] = [
    -3.969683028665376e+01,
    2.209460984245205e+02,
    -2.759285104469687e+02,
    1.38357751867269e+02,
    -3.066479806614716e+01,
    2.506628277459239e+00,
];
const B: [f64; 5] = [
    -5.447609879822406e+01,
    1.615858368580409e+02,
    -1.556989798598866e+02,
    6.680131188771972e+01,
    -1.328068155288572e+01,
];
/// Below `P_LOW` and above `1 − P_LOW` the tail formula applies.
const P_LOW: f64 = 0.02425;

/// Acklam's central rational, for `P_LOW ≤ p ≤ 1 − P_LOW`; shared by
/// [`inverse_normal_cdf`] and [`normals`] so both round identically.
#[inline(always)]
fn central(p: f64) -> f64 {
    let q = p - 0.5;
    let r = q * q;
    (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
        / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
}

/// Inverse of the standard normal CDF (Acklam's algorithm).
pub fn inverse_normal_cdf(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        central(p)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_stable_and_mixing() {
        // Fixed outputs guard against accidental algorithm changes, which
        // would silently re-randomize every "physical" cell in every test.
        // Reference value from the canonical splitmix64 implementation.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_ne!(splitmix64(1), splitmix64(2));
        let a = splitmix64(0xDEAD_BEEF);
        let b = splitmix64(0xDEAD_BEF0);
        assert!((a ^ b).count_ones() > 10, "poor avalanche");
    }

    #[test]
    fn inverse_cdf_matches_known_quantiles() {
        assert!(inverse_normal_cdf(0.5).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.975) - 1.959_964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.841_344_7) - 1.0).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.001) + 3.090_232).abs() < 1e-4);
    }

    #[test]
    fn inverse_cdf_roundtrips_with_cdf() {
        for &p in &[0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999] {
            let z = inverse_normal_cdf(p);
            let back = crate::noise::normal_cdf(z);
            assert!((back - p).abs() < 1e-5, "p={p} back={back}");
        }
    }

    #[test]
    fn latents_are_deterministic_and_distinct() {
        let a = coupling(7, 3, 100, 0.5, 1.0, 6.0);
        let b = coupling(7, 3, 100, 0.5, 1.0, 6.0);
        assert_eq!(a, b);
        assert_ne!(coupling(7, 3, 100, 0.5, 1.0, 6.0), coupling(7, 3, 101, 0.5, 1.0, 6.0));
        assert_ne!(coupling(7, 3, 100, 0.5, 1.0, 6.0), coupling(8, 3, 100, 0.5, 1.0, 6.0));
        // Different salts give independent latents for the same cell.
        assert_ne!(pp_efficiency(7, 3, 100, 0.4), coupling(7, 3, 100, 1.0, 0.4, 100.0));
    }

    /// A body of the fill kernel: the generic one, or the AVX2 one.
    type Body = fn(u64, u32, f64, f64, f64, f64, &mut [f32]) -> usize;

    /// Every body this CPU can run.
    fn bodies() -> Vec<(&'static str, Body)> {
        let mut bodies: Vec<(&'static str, Body)> = vec![("generic", fill_coupling_with)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, as just checked.
            bodies.push(("avx2", |s, b, m, sg, c, e, out| unsafe {
                fill_coupling_avx2(s, b, m, sg, c, e, out)
            }));
        }
        bodies
    }

    /// Runs every body over `len` cells, asserts each matches
    /// `coupling(..) as f32` bit for bit, and returns each body's ties.
    fn assert_fill_matches(
        (seed, block, len): (u64, u32, usize),
        (median, sigma_ln, cap): (f64, f64, f64),
        rel_err: f64,
    ) -> Vec<usize> {
        let expected: Vec<u32> = (0..len)
            .map(|c| (coupling(seed, block, c, median, sigma_ln, cap) as f32).to_bits())
            .collect();
        bodies()
            .into_iter()
            .map(|(name, body)| {
                let mut out = vec![f32::NAN; len];
                let ties = body(seed, block, median, sigma_ln, cap, rel_err, &mut out);
                let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                let case = format!(
                    "{name}: seed {seed} block {block} len {len} median {median} sigma {sigma_ln}"
                );
                if let Some(c) = (0..len).find(|&c| got[c] != expected[c]) {
                    panic!(
                        "{case}: cell {c} got {} expected {}",
                        out[c],
                        f32::from_bits(expected[c])
                    );
                }
                ties
            })
            .collect()
    }

    #[test]
    fn fill_matches_the_scalar_map_across_chunk_boundaries() {
        let lens = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 100_003];
        for (i, len) in lens.into_iter().enumerate() {
            let (seed, block) = (i as u64 * 977 + 3, i as u32 * 31);
            for params in [(0.1, 0.9, 6.0), (0.37, 1.25, 6.0), (1.0, 0.0, 6.0), (50.0, 1.0, 6.0)] {
                let ties = assert_fill_matches((seed, block, len), params, EXP_REL_ERR);
                // A bracket of relative width 2e-12 straddles an f32
                // rounding point for about one cell in 40 000.
                assert!(ties.iter().all(|&t| t <= 10 + len / 2000), "{params:?}: {ties:?}");
            }
        }
    }

    #[test]
    fn fill_covers_capped_and_degenerate_parameters() {
        // Most cells capped, no spread at all, a spread wide enough to
        // leave fast_exp's range, and a cap below every value.
        let len = 3 * CHUNK + 17;
        for params in [(500.0, 0.5, 6.0), (0.5, 0.0, 6.0), (0.5, 120.0, 6.0), (0.5, 1.0, 1e-30)] {
            assert_fill_matches((11, 5, len), params, EXP_REL_ERR);
        }
        // Wide sigma sends most cells past EXP_LIMIT onto the libm path.
        let ties = assert_fill_matches((11, 5, len), (0.5, 2000.0, f64::INFINITY), EXP_REL_ERR);
        assert!(ties.iter().all(|&t| t > len / 2), "{ties:?}");
    }

    #[test]
    fn forced_ties_fall_back_to_the_scalar_map() {
        // With a relative error bound of 1 the bracket's low end is 0, so
        // every uncapped cell straddles and takes the libm path.
        let len = 2 * CHUNK + 1;
        let ties = assert_fill_matches((21, 2, len), (0.5, 1.0, f64::INFINITY), 1.0);
        assert!(ties.iter().all(|&t| t == len), "{ties:?}");
    }

    #[test]
    fn normals_match_inverse_normal_cdf_at_the_branch_points() {
        let ulps =
            |x: f64| (-1..=1).map(move |d| f64::from_bits(x.to_bits().wrapping_add_signed(d)));
        let mut p: Vec<f64> = ulps(P_LOW).chain(ulps(1.0 - P_LOW)).collect();
        // The extreme outputs of `to_unit` short of 1.0, and the centre.
        p.extend([to_unit(0), to_unit(1 << 11), to_unit(u64::MAX << 12), 0.5]);
        p.extend(ulps(0.5));
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(41);
        while p.len() < CHUNK {
            p.push(to_unit(rand::Rng::gen(&mut rng)));
        }
        let expected: Vec<u64> = p.iter().map(|&p| inverse_normal_cdf(p).to_bits()).collect();
        let mut tails = [0u16; CHUNK];
        let mut z = vec![f64::NAN; CHUNK];
        normals(&p, &mut z, &mut tails);
        assert_eq!(z.iter().map(|z| z.to_bits()).collect::<Vec<_>>(), expected, "generic");
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            #[target_feature(enable = "avx2")]
            unsafe fn normals_avx2(p: &[f64], z: &mut [f64], tails: &mut [u16; CHUNK]) {
                normals(p, z, tails);
            }
            z.fill(f64::NAN);
            // SAFETY: the CPU supports AVX2, as just checked.
            unsafe { normals_avx2(&p, &mut z, &mut tails) };
            assert_eq!(z.iter().map(|z| z.to_bits()).collect::<Vec<_>>(), expected, "avx2");
        }
    }

    #[test]
    fn fast_exp_is_within_a_hundredth_of_the_bound() {
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(42);
        let mut xs = vec![0.0, EXP_LIMIT, -EXP_LIMIT];
        // Every binary-exponent bin of |x| up to EXP_LIMIT: its ends and
        // random interior points, both signs.
        for k in -1074..=9 {
            let lowest = 2f64.powi(k);
            for x in [lowest, 2.0 * lowest * (1.0 - f64::EPSILON)]
                .into_iter()
                .chain((0..500).map(|_| lowest * (1.0 + rand::Rng::gen::<f64>(&mut rng))))
                .filter(|x| *x <= EXP_LIMIT)
            {
                xs.extend([x, -x]);
            }
        }
        // Multiples of ln(2)/2; the odd ones are the reduction's rounding
        // points.
        for j in -2019..=2019 {
            let t = j as f64 * std::f64::consts::LN_2 / 2.0;
            xs.extend((-2..=2).map(|d| f64::from_bits(t.to_bits().wrapping_add_signed(d))));
        }
        for x in xs.into_iter().filter(|x| x.abs() <= EXP_LIMIT) {
            let (fast, libm) = (fast_exp(x), x.exp());
            assert!((fast - libm).abs() <= libm * EXP_REL_ERR / 100.0, "x {x:e}: {fast} vs {libm}");
        }
    }

    #[test]
    fn coupling_distribution_shape() {
        let n = 100_000;
        let vals: Vec<f64> = (0..n).map(|c| coupling(1, 0, c, 0.5, 1.0, 6.0)).collect();
        let median_ish = {
            let mut v = vals.clone();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[n / 2]
        };
        assert!((0.45..0.55).contains(&median_ish), "median {median_ish}");
        let capped = vals.iter().filter(|&&v| v == 6.0).count() as f64 / n as f64;
        assert!(capped < 0.02, "too many capped: {capped}");
    }

    #[test]
    fn pp_efficiency_median_one() {
        let n = 50_000;
        let below = (0..n).filter(|&c| pp_efficiency(2, 1, c, 0.4) < 1.0).count() as f64 / n as f64;
        assert!((0.48..0.52).contains(&below), "median split {below}");
    }

    #[test]
    fn prog_speed_centered_at_one() {
        let n = 50_000;
        let mean: f64 = (0..n).map(|c| prog_speed(3, 0, c, 0.06)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.002, "mean {mean}");
    }
}
