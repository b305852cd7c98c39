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
//! and the macro holds the only `#[target_feature]` wrappers, one per
//! level above portable; every other target runs the portable body.
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
    /// so every level includes the ones below it.
    pub(crate) fn detected() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            let avx512 = std::arch::is_x86_feature_detected!("avx512f");
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
        use crate::noise::{decide_pairs_at, evaluate_pairs_at, map_ends_at, CHUNK};
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
            black_box((lo, hi, &out, &outcomes, &open));
        }
    }
}
