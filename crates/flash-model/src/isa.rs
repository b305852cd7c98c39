//! The vector levels the chunk kernels run at, and the branchless math
//! they share.
//!
//! The exact chunk kernels (`noise`'s pair evaluation, bracket map and
//! threshold decisions, `latent`'s coupling fill) are branch-free loops
//! whose every level performs the same IEEE operations, so a wider vector
//! unit only makes them faster. [`kernel!`] stamps each kernel from one
//! `#[inline(always)]` body: `name(args)` runs the body at
//! [`Isa::detected`], and `name_at(isa, args)` at a given level. On
//! x86-64 the levels form one ladder, portable (SSE2) → AVX2 → AVX-512F,
//! and the macro holds one `#[target_feature]` wrapper per level above
//! portable; every other target runs the portable body.
//!
//! The gather and scatter of a chunk's candidate cells
//! ([`compact_where`], [`compact`], [`expand`]) cannot share one body:
//! where each kept cell lands depends on every lane before it, so a
//! compiler keeps the loop scalar at any width. Their AVX-512F bodies call
//! `vcmpps`, `vcompressps` and `vexpandps` on 16-lane mask registers
//! instead; the portable and AVX2 levels run the same branch-free loops.
//! Every level writes the same values in the same cell order.
//!
//! `fast_ln`, `fast_sin_cos` and `fast_exp` are branchless stand-ins for
//! libm (which does not vectorize) with pinned error bounds; the kernels
//! bracket their results by those bounds and fall back to libm on a tie.

/// A vector level this CPU offers. Values are built only by
/// [`detected`](Self::detected), so running a kernel body compiled for one
/// is sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Isa(Level);

/// The rungs of the ladder, lowest first; each includes the ones below.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Level {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Isa {
    /// The widest level this CPU offers. AVX-512F counts only beside AVX2,
    /// so every level includes the ones below it, and beside POPCNT (which
    /// every AVX-512 CPU has), which the gather and scatter kernels count
    /// their lanes with.
    pub(crate) fn detected() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            let avx512 = std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("popcnt");
            return Isa(if avx512 { Level::Avx512 } else { Level::Avx2 });
        }
        Isa(Level::Portable)
    }

    /// The level, for [`kernel!`]'s dispatch.
    pub(crate) fn level(self) -> Level {
        self.0
    }
}

/// Stamps a chunk kernel from its body, which the macro marks
/// `#[inline(always)]`:
///
/// ```ignore
/// kernel! {
///     /// Docs of `name`.
///     pub(crate) fn name / name_at(a: &[f64], f: &impl Fn(f64) -> f32) -> bool { body }
/// }
/// ```
///
/// gives `name(a, f)`, which runs the body at [`Isa::detected`], and
/// `name_at(isa, a, f)`, which runs it at `isa`. Each level above portable
/// gets a `#[target_feature]` copy of the body, so the body is compiled
/// for that level's vector width; its arguments must be plain names.
macro_rules! kernel {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident / $name_at:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?
        $body:block
    ) => {
        $(#[$attr])*
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            $name_at($crate::isa::Isa::detected(), $($arg),*)
        }

        #[doc = concat!("[`", stringify!($name), "`] at the vector level `isa`.")]
        $vis fn $name_at(isa: $crate::isa::Isa, $($arg: $ty),*) $(-> $ret)? {
            #[inline(always)]
            fn body($($arg: $ty),*) $(-> $ret)? $body
            match isa.level() {
                $crate::isa::Level::Portable => body($($arg),*),
                #[cfg(target_arch = "x86_64")]
                $crate::isa::Level::Avx2 => {
                    #[target_feature(enable = "avx2")]
                    fn avx2($($arg: $ty),*) $(-> $ret)? {
                        body($($arg),*)
                    }
                    // SAFETY: an `Isa` is only built by detection, so the
                    // CPU offers AVX2.
                    unsafe { avx2($($arg),*) }
                }
                #[cfg(target_arch = "x86_64")]
                $crate::isa::Level::Avx512 => {
                    #[target_feature(enable = "avx512f")]
                    fn avx512($($arg: $ty),*) $(-> $ret)? {
                        body($($arg),*)
                    }
                    // SAFETY: an `Isa` is only built by detection, which
                    // gives this level only when the CPU offers AVX-512F
                    // and AVX2.
                    unsafe { avx512($($arg),*) }
                }
            }
        }
    };
}
pub(crate) use kernel;

/// Cells per lane mask: one bit per `f32` lane of an AVX-512 register. Bit
/// `j` of `masks[g]` stands for cell `LANES·g + j` of a chunk.
pub(crate) const LANES: usize = 16;

/// The lanes of a group of `len` cells (all of them from `LANES` up).
#[inline(always)]
pub(crate) fn lanes(len: usize) -> u16 {
    ((1u32 << len.min(LANES)) - 1) as u16
}

/// The cells [`compact_where`] keeps: those strictly below, or strictly
/// above, a bound (IEEE comparisons, so a NaN is never kept).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Keep {
    Below(f32),
    Above(f32),
}

/// Gathers the cells of `src` that `keep` keeps into the front of `out`,
/// in cell order, sets `masks[g]` to the lanes it kept of each group, and
/// returns how many there are; the slots after them are scratch. `out`
/// must hold `src.len()` rounded up to [`LANES`]. A group's lanes past the
/// end of `src` stay clear.
pub(crate) fn compact_where(src: &[f32], keep: Keep, masks: &mut [u16], out: &mut [f32]) -> usize {
    compact_where_at(Isa::detected(), src, keep, masks, out)
}

/// [`compact_where`] at the vector level `isa`.
pub(crate) fn compact_where_at(
    isa: Isa,
    src: &[f32],
    keep: Keep,
    masks: &mut [u16],
    out: &mut [f32],
) -> usize {
    assert!(masks.len() >= src.len().div_ceil(LANES), "a mask per group of cells");
    assert!(out.len() >= src.len().next_multiple_of(LANES), "room for whole groups");
    match isa.level() {
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => {
            // SAFETY: an `Isa` is only built by detection, which gives this
            // level only when the CPU offers AVX-512F and POPCNT.
            unsafe { compact_where_avx512(src, keep, masks, out) }
        }
        _ => {
            // One loop per bound: a compare chosen per cell costs both.
            match keep {
                Keep::Below(bound) => masks_where(src, |v| v < bound, masks),
                Keep::Above(bound) => masks_where(src, |v| v > bound, masks),
            }
            compact_portable(src, masks, out)
        }
    }
}

/// Sets `masks[g]` to the lanes of group `g` of `src` that `keep` keeps.
#[inline(always)]
fn masks_where(src: &[f32], keep: impl Fn(f32) -> bool, masks: &mut [u16]) {
    let mask =
        |group: &[f32]| group.iter().enumerate().fold(0, |m, (j, &v)| m | u16::from(keep(v)) << j);
    // Whole groups have a fixed length, so their loops unroll.
    let (groups, rest) = src.as_chunks::<LANES>();
    for (m, group) in masks.iter_mut().zip(groups) {
        *m = mask(group);
    }
    if !rest.is_empty() {
        masks[groups.len()] = mask(rest);
    }
}

/// [`compact_where`]'s AVX-512F body: a `vcmpps` into a mask register
/// picks each group's kept lanes, `vcompressps` packs them to the front of
/// a register, and the whole register is stored at the next free slot.
///
/// # Safety
///
/// The CPU must offer AVX-512F and POPCNT, `masks` must hold a mask per
/// group of `src`, and `out` must hold `src.len()` rounded up to [`LANES`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,popcnt")]
unsafe fn compact_where_avx512(
    src: &[f32],
    keep: Keep,
    masks: &mut [u16],
    out: &mut [f32],
) -> usize {
    use std::arch::x86_64::{
        _mm512_mask_cmp_ps_mask, _mm512_maskz_compress_ps, _mm512_maskz_loadu_ps, _mm512_set1_ps,
        _mm512_storeu_ps, _CMP_GT_OQ, _CMP_LT_OQ,
    };
    let mut n = 0;
    for (mask, group) in masks.iter_mut().zip(src.chunks(LANES)) {
        let valid = lanes(group.len());
        // SAFETY: the load reads only the group's lanes; `n` is at most the
        // group's first cell, so the store stays within the group's slots.
        unsafe {
            let v = _mm512_maskz_loadu_ps(valid, group.as_ptr());
            // Ordered, quiet compares: Rust's `<` and `>`.
            *mask = match keep {
                Keep::Below(b) => {
                    _mm512_mask_cmp_ps_mask::<_CMP_LT_OQ>(valid, v, _mm512_set1_ps(b))
                }
                Keep::Above(b) => {
                    _mm512_mask_cmp_ps_mask::<_CMP_GT_OQ>(valid, v, _mm512_set1_ps(b))
                }
            };
            _mm512_storeu_ps(out.as_mut_ptr().add(n), _mm512_maskz_compress_ps(*mask, v));
        }
        n += mask.count_ones() as usize;
    }
    n
}

/// Gathers the cells of `src` whose lanes are set in `masks` into the
/// front of `out`, in cell order, and returns how many there are; the
/// slots after them are scratch. `out` must hold `src.len()` rounded up to
/// [`LANES`].
pub(crate) fn compact(src: &[f32], masks: &[u16], out: &mut [f32]) -> usize {
    compact_at(Isa::detected(), src, masks, out)
}

/// [`compact`] at the vector level `isa`.
pub(crate) fn compact_at(isa: Isa, src: &[f32], masks: &[u16], out: &mut [f32]) -> usize {
    assert!(masks.len() >= src.len().div_ceil(LANES), "a mask per group of cells");
    assert!(out.len() >= src.len().next_multiple_of(LANES), "room for whole groups");
    match isa.level() {
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => {
            // SAFETY: an `Isa` is only built by detection, which gives this
            // level only when the CPU offers AVX-512F and POPCNT.
            unsafe { compact_avx512(src, masks, out) }
        }
        _ => compact_portable(src, masks, out),
    }
}

/// [`compact`]'s portable body, branch-free: every cell of a group is
/// written to the group's next free slot, which only a kept cell advances.
#[inline(always)]
fn compact_portable(src: &[f32], masks: &[u16], out: &mut [f32]) -> usize {
    let gather = |group: &[f32], m: u16, slots: &mut [f32; LANES]| {
        let mut k = 0;
        for (j, &v) in group.iter().enumerate() {
            // `k ≤ j < LANES`; the remainder only spares a bounds check.
            slots[k % LANES] = v;
            k += usize::from(m >> j & 1 != 0);
        }
        k
    };
    // Whole groups have a fixed length, so their loops unroll. A group's
    // slots start at most at its first cell, so they lie within `out`.
    let (groups, rest) = src.as_chunks::<LANES>();
    let mut n = 0;
    for (group, &m) in groups.iter().zip(masks) {
        n += gather(group, m, out[n..].first_chunk_mut().unwrap());
    }
    if !rest.is_empty() {
        n += gather(rest, masks[groups.len()], out[n..].first_chunk_mut().unwrap());
    }
    n
}

/// [`compact`]'s AVX-512F body: `vcompressps` packs each group's kept
/// lanes to the front of a register, and the whole register is stored at
/// the next free slot.
///
/// # Safety
///
/// The CPU must offer AVX-512F and POPCNT, `masks` must hold a mask per
/// group of `src`, and `out` must hold `src.len()` rounded up to [`LANES`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,popcnt")]
unsafe fn compact_avx512(src: &[f32], masks: &[u16], out: &mut [f32]) -> usize {
    use std::arch::x86_64::{_mm512_maskz_compress_ps, _mm512_maskz_loadu_ps, _mm512_storeu_ps};
    let mut n = 0;
    for (group, &m) in src.chunks(LANES).zip(masks) {
        let valid = lanes(group.len());
        // SAFETY: the load reads only the group's lanes; `n` is at most the
        // group's first cell, so the store stays within the group's slots.
        unsafe {
            let v = _mm512_maskz_loadu_ps(valid, group.as_ptr());
            _mm512_storeu_ps(out.as_mut_ptr().add(n), _mm512_maskz_compress_ps(m & valid, v));
        }
        n += (m & valid).count_ones() as usize;
    }
    n
}

/// Scatters `dense` to the cells of `dst` whose lanes are set in `masks`,
/// in cell order: the inverse of [`compact`]. The other cells keep their
/// bits. `dense` must hold a value per set lane.
pub(crate) fn expand(dense: &[f32], masks: &[u16], dst: &mut [f32]) {
    expand_at(Isa::detected(), dense, masks, dst);
}

/// [`expand`] at the vector level `isa`.
pub(crate) fn expand_at(isa: Isa, dense: &[f32], masks: &[u16], dst: &mut [f32]) {
    assert!(masks.len() >= dst.len().div_ceil(LANES), "a mask per group of cells");
    match isa.level() {
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => {
            // SAFETY: an `Isa` is only built by detection, which gives this
            // level only when the CPU offers AVX-512F and POPCNT.
            unsafe { expand_avx512(dense, masks, dst) }
        }
        _ => {
            // The set lanes of four groups at a time, lowest first.
            let mut values = dense.iter();
            let groups = &masks[..dst.len().div_ceil(LANES)];
            for (w, quad) in groups.chunks(4).enumerate() {
                let mut bits = 0u64;
                for (i, &m) in quad.iter().enumerate() {
                    let first = LANES * (4 * w + i);
                    bits |= u64::from(m & lanes(dst.len() - first)) << (LANES * i);
                }
                while bits != 0 {
                    let cell = 4 * LANES * w + bits.trailing_zeros() as usize;
                    dst[cell] = *values.next().expect("a value per set lane");
                    bits &= bits - 1;
                }
            }
        }
    }
}

/// [`expand`]'s AVX-512F body: a masked `vexpandps` load spreads the next
/// values over each group's set lanes, and a masked store writes only
/// those lanes.
///
/// # Safety
///
/// The CPU must offer AVX-512F and POPCNT, and `masks` must hold a mask per
/// group of `dst`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,popcnt")]
unsafe fn expand_avx512(dense: &[f32], masks: &[u16], dst: &mut [f32]) {
    use std::arch::x86_64::{_mm512_mask_storeu_ps, _mm512_maskz_expandloadu_ps};
    let mut k = 0;
    for (group, &m) in dst.chunks_mut(LANES).zip(masks) {
        let m = m & lanes(group.len());
        let set = m.count_ones() as usize;
        assert!(k + set <= dense.len(), "a value per set lane");
        // SAFETY: the load reads the next `set` values, all within
        // `dense`; the store writes only the group's set lanes.
        unsafe {
            let v = _mm512_maskz_expandloadu_ps(m, dense.as_ptr().add(k));
            _mm512_mask_storeu_ps(group.as_mut_ptr(), m, v);
        }
        k += set;
    }
}

/// `1.5·2^52`: adding it rounds to an integer held in the low bits
/// (`round()` is a libm call on baseline x86-64).
const ROUND: f64 = 6_755_399_441_055_744.0;
/// fdlibm's split of `ln 2`: `n·LN2_HI` is exact for `|n| < 2^20`.
const LN2_HI: f64 = 0.693_147_180_369_123_8;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;

/// Relative error bound of [`fast_ln`] and absolute error bound of
/// [`fast_sin_cos`] against libm, with a wide margin: over 1e8 random
/// pairs the worst errors were 2.2e-16 for `ln`, 1.1e-16 for `sin` and
/// `cos`, and `4.4e-16·r` for a variate `r·cos θ` or `r·sin θ`, which
/// therefore lies well within `r·FAST_REL_ERR` of the libm value. The
/// tests pin the kernels below a hundredth of this bound.
pub(crate) const FAST_REL_ERR: f64 = 2e-13;

/// Relative error bound of [`fast_exp`] against libm, with a wide margin:
/// over 200 K points in every binary-exponent bin of `|x|` up to
/// [`EXP_LIMIT`], and five ulps around every rounding point of its
/// reduction, the worst relative error measured was 4.7e-16. The tests pin
/// the kernel below a hundredth of this bound.
pub(crate) const EXP_REL_ERR: f64 = 1e-12;

/// [`fast_exp`] is used for `|x|` up to this; beyond it the bracket is
/// skipped and the cell takes the libm path.
pub(crate) const EXP_LIMIT: f64 = 700.0;

/// Natural logarithm of a positive normal `x`, branchless: fdlibm's
/// `__ieee754_log` reduction to `[sqrt(2)/2, sqrt(2))` and its degree-14
/// `log1p` polynomial in `s = f/(2+f)`. Within `FAST_REL_ERR/100` relative
/// of libm (pinned by the tests).
#[inline(always)]
pub(crate) fn fast_ln(x: f64) -> f64 {
    const LG1: f64 = 0.666_666_666_666_673_5;
    const LG2: f64 = 0.399_999_999_994_094_2;
    const LG3: f64 = 0.285_714_287_436_623_9;
    const LG4: f64 = 0.222_221_984_321_497_84;
    const LG5: f64 = 0.181_835_721_616_180_5;
    const LG6: f64 = 0.153_138_376_992_093_73;
    const LG7: f64 = 0.147_981_986_051_165_86;
    let bits = x.to_bits();
    // Offset the high word so that the exponent steps at sqrt(2)/2 rather
    // than at 1, then rebuild the mantissa in [sqrt(2)/2, sqrt(2)).
    let hx = (bits >> 32) as u32 + (0x3ff0_0000 - 0x3fe6_a09e);
    let k = (hx >> 20) as i32 - 0x3ff;
    let hx = (hx & 0x000f_ffff) + 0x3fe6_a09e;
    let f = f64::from_bits((u64::from(hx) << 32) | (bits & 0xffff_ffff)) - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    let dk = f64::from(k);
    s * (hfsq + r) + dk * LN2_LO - hfsq + f + dk * LN2_HI
}

/// `(sin θ, cos θ)` for `θ` in `[0, 2π]`, branchless: Cody–Waite reduction
/// by `π/2` with [`ROUND`], fdlibm's `__kernel_sin`/`__kernel_cos`
/// polynomials on `[-π/4, π/4]`, and a bit-select for the quadrant. Within
/// `FAST_REL_ERR/100` absolute of libm (pinned by the tests).
#[inline(always)]
pub(crate) fn fast_sin_cos(theta: f64) -> (f64, f64) {
    /// The first 33 bits of `π/2` (so `n·PIO2_HI` is exact) and the rest.
    const PIO2_HI: f64 = 1.570_796_326_734_125_6;
    const PIO2_LO: f64 = 6.077_100_506_506_192e-11;
    const S1: f64 = -0.166_666_666_666_666_32;
    const S2: f64 = 0.008_333_333_333_322_49;
    const S3: f64 = -0.000_198_412_698_298_579_5;
    const S4: f64 = 2.755_731_370_707_006_8e-6;
    const S5: f64 = -2.505_076_025_340_686_3e-8;
    const S6: f64 = 1.589_690_995_211_55e-10;
    const C1: f64 = 0.041_666_666_666_666_6;
    const C2: f64 = -0.001_388_888_888_887_411;
    const C3: f64 = 2.480_158_728_947_673e-5;
    const C4: f64 = -2.755_731_435_139_066_3e-7;
    const C5: f64 = 2.087_572_321_298_175e-9;
    const C6: f64 = -1.135_964_755_778_819_5e-11;
    let shifted = theta * std::f64::consts::FRAC_2_PI + ROUND;
    let quadrant = shifted.to_bits();
    let n = shifted - ROUND;
    // `θ − n·PIO2_HI` is exact (Sterbenz), so only PIO2_LO's rounding and
    // the ~1e-21 left of π/2 add to the reduced argument's error.
    let x = (theta - n * PIO2_HI) - n * PIO2_LO;
    let z = x * x;
    let w = z * z;
    let r = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    let sin = x + z * x * (S1 + z * r);
    let r = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let one_minus_hz = 1.0 - hz;
    let cos = one_minus_hz + (((1.0 - one_minus_hz) - hz) + z * r);
    // Quadrant q: (sin, cos) of θ is (s, c), (c, −s), (−s, −c), (−c, s).
    let swap = 0u64.wrapping_sub(quadrant & 1);
    let (s, c) = (sin.to_bits(), cos.to_bits());
    let sin_bits = ((s & !swap) | (c & swap)) ^ ((quadrant & 2) << 62);
    let cos_bits = ((c & !swap) | (s & swap)) ^ (((quadrant + 1) & 2) << 62);
    (f64::from_bits(sin_bits), f64::from_bits(cos_bits))
}

/// `e^x` for `|x| ≤` [`EXP_LIMIT`], branchless: Cody–Waite reduction by
/// `ln 2` with [`ROUND`] (an `as i64` cast does not vectorize), the
/// degree-12 Taylor polynomial on `|r| ≤ ln(2)/2`, and the power of two
/// built from the rounded integer's bits. Within [`EXP_REL_ERR`]`/100`
/// relative of libm (pinned by the tests); outside the range the value is
/// meaningless.
#[inline(always)]
pub(crate) fn fast_exp(x: f64) -> f64 {
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

#[cfg(test)]
impl Isa {
    /// Every level this CPU offers, portable first.
    pub(crate) fn available() -> Vec<Isa> {
        let ladder = [
            Level::Portable,
            #[cfg(target_arch = "x86_64")]
            Level::Avx2,
            #[cfg(target_arch = "x86_64")]
            Level::Avx512,
        ];
        let detected = Isa::detected();
        ladder.into_iter().map(Isa).filter(|&isa| isa <= detected).collect()
    }

    /// The level's name, for test messages and timings.
    pub(crate) fn name(self) -> &'static str {
        match self.0 {
            Level::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Level::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Level::Avx512 => "avx512",
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::noise::CHUNK;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    /// Runs `run` at every level in [`Isa::available`] and asserts that
    /// each gives the portable level's result (compare bits, not floats);
    /// returns that result.
    pub(crate) fn assert_levels_agree<T: PartialEq>(case: &str, run: impl Fn(Isa) -> T) -> T {
        let mut levels = Isa::available().into_iter();
        let portable = run(levels.next().expect("the portable level"));
        for isa in levels {
            assert!(run(isa) == portable, "{} differs from portable: {case}", isa.name());
        }
        portable
    }

    #[test]
    fn available_levels_run_from_portable_to_the_detected_one() {
        let levels = Isa::available();
        assert_eq!(levels.first().map(|isa| isa.name()), Some("portable"));
        assert_eq!(levels.last(), Some(&Isa::detected()));
        let names: Vec<_> = levels.iter().map(|isa| isa.name()).collect();
        eprintln!("note: kernel bodies are checked at {names:?}; higher levels go unchecked");
    }

    /// Chunk lengths around a group's and a chunk's ends.
    const GATHER_LENGTHS: [usize; 7] = [0, 1, 15, 16, 17, CHUNK - 1, CHUNK];

    /// Runs `compact_where`, `compact` and `expand` at every level on
    /// `cells` with `keep`, checks each against a plain filter, and returns
    /// how many cells were kept.
    fn check_gather_scatter(case: &str, cells: &[f32], keep: Keep) -> usize {
        let keeps = |v: f32| match keep {
            Keep::Below(bound) => v < bound,
            Keep::Above(bound) => v > bound,
        };
        let kept: Vec<usize> = (0..cells.len()).filter(|&j| keeps(cells[j])).collect();
        let want: Vec<u32> = kept.iter().map(|&j| cells[j].to_bits()).collect();
        let groups = cells.len().div_ceil(LANES);
        let (gathered, mut masks) = assert_levels_agree(case, |isa| {
            let mut masks = vec![0xFFFFu16; groups];
            let mut out = vec![f32::NAN; cells.len().next_multiple_of(LANES)];
            let n = compact_where_at(isa, cells, keep, &mut masks, &mut out);
            (out[..n].iter().map(|v| v.to_bits()).collect::<Vec<_>>(), masks)
        });
        assert_eq!(gathered, want, "{case}: compact_where");
        let set = (0..cells.len()).filter(|&j| masks[j / LANES] >> (j % LANES) & 1 != 0);
        assert!(set.eq(kept.iter().copied()), "{case}: masks");
        // Stray lanes past the end are ignored.
        if let Some(last) = masks.last_mut() {
            *last |= !lanes(cells.len() - LANES * (groups - 1));
        }
        let gathered = assert_levels_agree(case, |isa| {
            let mut out = vec![f32::NAN; cells.len().next_multiple_of(LANES)];
            let n = compact_at(isa, cells, &masks, &mut out);
            out[..n].iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        });
        assert_eq!(gathered, want, "{case}: compact");
        let n = kept.len();
        // Scatter fresh values (exactly as many as kept) over cells whose
        // bits differ from them.
        let dense: Vec<f32> = (0..n).map(|k| -1.5 - k as f32).collect();
        let scattered = assert_levels_agree(case, |isa| {
            let mut dst = cells.to_vec();
            expand_at(isa, &dense, &masks, &mut dst);
            dst.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        });
        let mut want: Vec<u32> = cells.iter().map(|v| v.to_bits()).collect();
        for (&j, v) in kept.iter().zip(&dense) {
            want[j] = v.to_bits();
        }
        assert_eq!(scattered, want, "{case}: expand");
        n
    }

    #[test]
    fn compact_and_expand_levels_agree() {
        let mut rng = SmallRng::seed_from_u64(17);
        let (below, above) = (Keep::Below(100.0), Keep::Above(0.0));
        for len in GATHER_LENGTHS {
            let case = |what: &str| format!("{what}, {len} cells");
            // No candidates, then all of them, under each predicate.
            let high: Vec<f32> = (0..len).map(|_| rng.gen_range(100.0..200.0)).collect();
            assert_eq!(check_gather_scatter(&case("none below"), &high, below), 0);
            assert_eq!(check_gather_scatter(&case("all above"), &high, above), len);
            let low: Vec<f32> = (0..len).map(|_| rng.gen_range(-40.0..0.0)).collect();
            assert_eq!(check_gather_scatter(&case("all below"), &low, below), len);
            assert_eq!(check_gather_scatter(&case("none above"), &low, above), 0);
            // Exactly at the ceiling, and both zeros, are not candidates.
            let edges: Vec<f32> = (0..len).map(|j| [100.0, 0.0, -0.0][j % 3]).collect();
            let ceiling = edges.iter().filter(|&&v| v == 100.0).count();
            assert_eq!(check_gather_scatter(&case("edges below"), &edges, below), len - ceiling);
            assert_eq!(check_gather_scatter(&case("edges above"), &edges, above), ceiling);
            // A page-like mix with the edge values sprinkled in.
            let mixed: Vec<f32> = (0..len)
                .map(|_| match rng.gen_range(0..8) {
                    0 => 100.0,
                    1 => 0.0,
                    2 => -0.0,
                    _ => rng.gen_range(-40.0..200.0),
                })
                .collect();
            check_gather_scatter(&case("mixed below"), &mixed, below);
            check_gather_scatter(&case("mixed above"), &mixed, above);
        }
    }

    /// Uniforms covering every binary-exponent bin of `u1` (each bin's
    /// ends plus random interior points) and the neighbourhood of 1.
    pub(crate) fn u1_samples(rng: &mut SmallRng) -> Vec<f64> {
        let mut out = Vec::new();
        for k in 1..=53 {
            let lowest = 2f64.powi(-k);
            out.extend([
                lowest,
                lowest * (1.0 + f64::EPSILON),
                2.0 * lowest * (1.0 - f64::EPSILON),
            ]);
            out.extend((0..2000).map(|_| lowest * (1.0 + rng.gen::<f64>())));
        }
        out.extend((1..2000).map(|j| 1.0 - j as f64 * 2f64.powi(-53)));
        out.extend((0..100_000).map(|_| rng.gen::<f64>()).filter(|&u| u > f64::MIN_POSITIVE));
        out
    }

    #[test]
    fn fast_ln_is_within_a_hundredth_of_the_bound() {
        let mut rng = SmallRng::seed_from_u64(31);
        for u1 in u1_samples(&mut rng) {
            let (fast, libm) = (fast_ln(u1), u1.ln());
            assert!((fast - libm).abs() <= libm.abs() * FAST_REL_ERR / 100.0, "u1 {u1:e}");
        }
    }

    #[test]
    fn fast_sin_cos_is_within_a_hundredth_of_the_bound() {
        let mut rng = SmallRng::seed_from_u64(32);
        let tau = std::f64::consts::TAU;
        let mut thetas: Vec<f64> = (0..200_000).map(|_| tau * rng.gen::<f64>()).collect();
        // Multiples of π/4 are the reduction's quadrant boundaries; the
        // exact eighths of a turn are what `u2 = j/8` produces.
        for j in 0..=8 {
            let t = j as f64 * std::f64::consts::FRAC_PI_4;
            let ulps = (-3..=3).map(|d| f64::from_bits(t.to_bits().saturating_add_signed(d)));
            thetas.extend(ulps);
            thetas.push(tau * (j as f64 / 8.0));
        }
        thetas.push(tau * (1.0 - 2f64.powi(-53)));
        for theta in thetas {
            let (sin, cos) = fast_sin_cos(theta);
            let (libm_sin, libm_cos) = theta.sin_cos();
            assert!((sin - libm_sin).abs() <= FAST_REL_ERR / 100.0, "sin at {theta}");
            assert!((cos - libm_cos).abs() <= FAST_REL_ERR / 100.0, "cos at {theta}");
        }
    }

    #[test]
    fn fast_exp_is_within_a_hundredth_of_the_bound() {
        let mut rng = SmallRng::seed_from_u64(42);
        let mut xs = vec![0.0, EXP_LIMIT, -EXP_LIMIT];
        // Every binary-exponent bin of |x| up to EXP_LIMIT: its ends and
        // random interior points, both signs.
        for k in -1074..=9 {
            let lowest = 2f64.powi(k);
            for x in [lowest, 2.0 * lowest * (1.0 - f64::EPSILON)]
                .into_iter()
                .chain((0..500).map(|_| lowest * (1.0 + rng.gen::<f64>())))
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

    /// Median ns per item of `run` (which handles `items` items per call)
    /// over 9 rounds of 3000 calls.
    fn ns_per_item(items: usize, mut run: impl FnMut()) -> f64 {
        let mut rounds: Vec<f64> = (0..9)
            .map(|_| {
                let start = std::time::Instant::now();
                for _ in 0..3000 {
                    run();
                }
                start.elapsed().as_nanos() as f64 / (3000 * items) as f64
            })
            .collect();
        rounds.sort_by(f64::total_cmp);
        rounds[4]
    }

    /// Prints each chunk kernel's cost at every level this CPU offers, on
    /// chunks of [`CHUNK`](crate::noise::CHUNK) draws or cells (`just kernel-times` runs it in
    /// release mode).
    #[test]
    #[ignore = "a timing report, not a check"]
    fn kernel_timings() {
        use crate::latent::fill_bracketed_at;
        use crate::noise::{decide_pairs_at, evaluate_pairs_at, map_ends_at};
        use std::hint::black_box;
        let mut rng = SmallRng::seed_from_u64(7);
        let u1: Vec<f64> = (0..CHUNK / 2).map(|_| rng.gen_range(f64::MIN_POSITIVE..1.0)).collect();
        let u2: Vec<f64> = (0..CHUNK / 2).map(|_| rng.gen()).collect();
        let (mut lo, mut hi) = (vec![[0.0; 2]; CHUNK / 2], vec![[0.0; 2]; CHUNK / 2]);
        // Page-like cells: an erased lobe around 0, a programmed one at 150.
        let volts: Vec<f32> =
            (0..CHUNK).map(|i| (150 * (i % 2)) as f32 + rng.gen_range(-40.0..40.0)).collect();
        let (mut out, mut tie) = (vec![0.0f32; CHUNK], vec![false; CHUNK]);
        let (mut outcomes, mut open) = (vec![0u8; CHUNK], vec![false; CHUNK / 2]);
        let mut masks = [0u16; CHUNK / LANES];
        // The same lobes in random order, for the gather and scatter.
        let page: Vec<f32> = (0..CHUNK)
            .map(|_| (150 * rng.gen_range(0..2)) as f32 + rng.gen_range(-40.0..40.0))
            .collect();
        let program = |_: usize, z: f64| (165.0 + 9.0 * z) as f32;
        let probe = |k: usize, z: f64| {
            (f64::from(volts[k]) + (0.0 + 0.6 * z)).round().clamp(0.0, 255.0) as f32
        };
        for isa in Isa::available() {
            let level = isa.name();
            let ns = ns_per_item(CHUNK, || evaluate_pairs_at(isa, &u1, &u2, &mut lo, &mut hi));
            println!("evaluate_pairs   {level:8} {ns:5.2} ns/draw");
            let (lo, hi) = (lo.as_flattened(), hi.as_flattened());
            let ns = ns_per_item(CHUNK, || {
                black_box(map_ends_at(isa, lo, hi, &mut out, &mut tie, &program));
            });
            println!("map_ends/program {level:8} {ns:5.2} ns/draw");
            let ns = ns_per_item(CHUNK, || {
                black_box(map_ends_at(isa, lo, hi, &mut out, &mut tie, &probe));
            });
            println!("map_ends/probe   {level:8} {ns:5.2} ns/draw");
            let ns = ns_per_item(CHUNK, || {
                decide_pairs_at(isa, &u1, &volts, 0.6, 34.0, &mut outcomes, &mut open);
            });
            println!("decide_pairs     {level:8} {ns:5.2} ns/cell");
            let ns = ns_per_item(CHUNK, || {
                let (latent, lognormal) = ((0x5EED, 3, 0), (0.37, 1.25, 6.0));
                black_box(fill_bracketed_at(isa, latent, lognormal, EXP_REL_ERR, &mut out));
            });
            println!("fill_coupling    {level:8} {ns:5.2} ns/cell");
            let below = Keep::Below(100.0);
            let ns = ns_per_item(CHUNK, || {
                black_box(compact_where_at(isa, &page, below, &mut masks, &mut out));
            });
            println!("compact_where    {level:8} {ns:5.2} ns/cell");
            let ns = ns_per_item(CHUNK, || {
                black_box(compact_at(isa, &page, &masks, &mut out));
            });
            println!("compact          {level:8} {ns:5.2} ns/cell");
            let kept = compact_at(isa, &page, &masks, &mut out);
            let mut cells = page.clone();
            let ns = ns_per_item(CHUNK, || expand_at(isa, &out[..kept], &masks, &mut cells));
            println!("expand           {level:8} {ns:5.2} ns/cell");
            black_box((lo, hi, &out, &outcomes, &open, &cells));
        }
    }
}
