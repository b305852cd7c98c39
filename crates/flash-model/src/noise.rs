//! Gaussian and mixture sampling for the voltage model.
//!
//! `rand_distr` is deliberately not a dependency (the approved dependency
//! list is minimal). The Box–Muller transform below is all the simulator
//! needs; caching the second variate of each pair keeps one sequential
//! stream of standard normals. Three bulk kernels sit on that stream:
//!
//! - `Gaussian::fill` materializes every variate through libm. It is the
//!   reference the other two are pinned against, and the chip's partial-
//!   program paths still use it: a PP step's masked cells (a few hundred)
//!   go through `exp`, which is not provably monotone, and a fine PP step
//!   decides per draw whether a cell counts as partial-programmed.
//! - `Gaussian::bracketed` serves consumers that map each variate to a
//!   stored `f32` through monotone roundings (program, erase, interference,
//!   probe, retention). The consumer asks for one chunk of draws at a time,
//!   with no count up front. Each chunk's pairs are evaluated with a
//!   branchless polynomial `ln`/`sin`/`cos` into brackets whose width is
//!   ~450× the measured worst error, and the consumer's map runs at both
//!   ends of every bracket in one branch-free loop. When both ends give the
//!   same bits, that is the exact result; only on a tie (about two per
//!   million draws) is the pair re-evaluated through libm. Outputs and the
//!   stream position are bit-identical to `fill` followed by the consumer.
//! - `Gaussian::threshold_read` only needs each cell's read outcome. It
//!   works on chunks of 512 pairs in two phases. It first draws the
//!   chunk's uniforms in stream order. A branch-free pass then bounds each
//!   pair's radius from its first uniform's binary exponent and decides
//!   both cells at the ends of that bound. `ln`/`sqrt`/`sin`/`cos` run only
//!   for the pairs whose outcome the bound leaves open, and the outcomes
//!   are packed eight to a byte. Outputs and the stream position are
//!   bit-identical to `fill` followed by a scalar compare; most full-page
//!   cells sit many sigma from the reference, so most pairs never reach
//!   the transcendental functions.
//!
//! `Gaussian::skip` advances the stream past draws whose values would be
//! overwritten unread.

use rand::Rng;

/// A Box–Muller standard-normal sampler that caches the spare variate.
#[derive(Debug, Clone, Default)]
pub struct Gaussian {
    spare: Option<f64>,
}

impl Gaussian {
    /// Creates a sampler with an empty cache.
    pub fn new() -> Self {
        Gaussian { spare: None }
    }

    /// Draws one standard-normal variate using `rng` for uniforms.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        let (first, second) = Self::pair(rng);
        self.spare = Some(second);
        first
    }

    /// One Box–Muller pair: two uniforms -> two independent normals.
    #[inline]
    fn pair<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
        let (u1, u2) = Self::uniforms(rng);
        box_muller(u1, u2)
    }

    /// The two uniforms behind one pair, drawn in stream order. `u1` is
    /// redrawn until positive so its logarithm is finite.
    #[inline]
    fn uniforms<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
        let u1: f64 = loop {
            let u = rng.gen::<f64>();
            if u > f64::MIN_POSITIVE {
                break u;
            }
        };
        (u1, rng.gen())
    }

    /// Draws a normal variate with the given mean and standard deviation.
    #[inline]
    pub fn sample_with<R: Rng + ?Sized>(&mut self, rng: &mut R, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.sample(rng)
    }

    /// Fills `out` with standard-normal variates, drawing them in exactly
    /// the order a loop of [`sample`](Self::sample) calls would: a cached
    /// spare goes first, pairs follow, and an unconsumed second variate is
    /// cached for the next draw. This is the reference evaluation the
    /// other bulk kernels are pinned against, and the kernel behind the
    /// chip's partial-program paths, whose consumers are not provably
    /// monotone (see the module docs).
    pub fn fill<R: Rng + ?Sized>(&mut self, rng: &mut R, out: &mut [f64]) {
        let mut i = 0usize;
        if i < out.len() {
            if let Some(z) = self.spare.take() {
                out[i] = z;
                i += 1;
            }
        }
        while i < out.len() {
            let (first, second) = Self::pair(rng);
            out[i] = first;
            i += 1;
            if i < out.len() {
                out[i] = second;
                i += 1;
            } else {
                self.spare = Some(second);
            }
        }
    }

    /// Advances the stream exactly as [`fill`](Self::fill) of `n` variates
    /// would, for draws whose values would be overwritten unread. Only an
    /// odd trailing pair is evaluated, because its second variate becomes
    /// the cached spare.
    pub(crate) fn skip<R: Rng + ?Sized>(&mut self, rng: &mut R, n: usize) {
        let mut n = n;
        if n > 0 && self.spare.take().is_some() {
            n -= 1;
        }
        for _ in 0..n / 2 {
            Self::uniforms(rng);
        }
        if n % 2 == 1 {
            self.spare = Some(Self::pair(rng).1);
        }
    }

    /// A chunked stream of standard-normal draws for consumers that map
    /// each variate monotonically to an `f32`; see [`BracketedNormals`].
    /// The stream is not sized up front: whatever chunks are requested,
    /// dropping the stream leaves the RNG and the cached spare exactly
    /// where [`fill`](Self::fill) of their total leaves them.
    pub(crate) fn bracketed<'a, R: Rng + ?Sized>(
        &'a mut self,
        rng: &'a mut R,
    ) -> BracketedNormals<'a, R> {
        BracketedNormals {
            gauss: self,
            rng,
            pending: None,
            u1: [0.0; CHUNK / 2 + 1],
            u2: [0.0; CHUNK / 2 + 1],
            lo: [[0.0; 2]; CHUNK / 2 + 1],
            hi: [[0.0; 2]; CHUNK / 2 + 1],
            tie: [false; CHUNK],
        }
    }

    /// Threshold-reads `volts` through one fresh noise draw per cell and
    /// packs the outcomes MSB-first into `bytes`, eight cells per byte:
    /// a cell reads `1` when its measured voltage `v + sigma·z`, floored
    /// at 0, lies below `vref`. Outcomes, the tail byte's zero padding and
    /// the stream position afterwards are bit-identical to
    /// [`fill`](Self::fill) followed by that compare.
    ///
    /// Only the outcomes are needed, so a pair is evaluated only when its
    /// noise could decide one of its two cells. The whole pairs run in
    /// chunks of [`READ_PAIRS`], in two phases: draw the chunk's uniforms
    /// in stream order, then decide every pair branch-free at the ends of
    /// its noise bound ([`decide_pairs`]). Only the pairs this pass leaves
    /// open go through [`box_muller_out_of_line`]. The outcomes are 0/1
    /// bytes until they are packed eight to a byte; a leading cached spare
    /// shifts every later cell by one bit, which is carried from chunk to
    /// chunk. An odd trailing pair is evaluated in full, since its
    /// second variate becomes the cached spare.
    pub(crate) fn threshold_read<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        volts: &[f32],
        sigma: f64,
        vref: f64,
        bytes: &mut [u8],
    ) {
        debug_assert_eq!(bytes.len(), volts.len().div_ceil(8));
        // The compare the decided outcomes stand in for (`0.0 + sigma·z` is
        // the sampler's `mean + std_dev·z` at mean 0).
        let read = |v: f32, z: f64| (f64::from(v) + (0.0 + sigma * z)).max(0.0) < vref;
        // Outcomes not yet packed: fewer than eight carried over, then the
        // current chunk's.
        let mut bits = [0u8; 2 * READ_PAIRS + 8];
        let mut carried = 0;
        let mut packed = 0;
        let (mut u1, mut u2) = ([0.0; READ_PAIRS], [0.0; READ_PAIRS]);
        let mut open = [false; READ_PAIRS];
        let mut rest = volts;
        if let (Some((&v, tail)), Some(z)) = (rest.split_first(), self.spare) {
            self.spare = None;
            bits[0] = u8::from(read(v, z));
            carried = 1;
            rest = tail;
        }
        let (paired, odd) = rest.split_at(rest.len() & !1);
        for cells in paired.chunks(2 * READ_PAIRS) {
            let n = cells.len() / 2;
            for (u1, u2) in u1[..n].iter_mut().zip(&mut u2[..n]) {
                (*u1, *u2) = Self::uniforms(rng);
            }
            let filled = carried + 2 * n;
            let outcomes = &mut bits[carried..filled];
            decide_pairs(&u1[..n], cells, sigma, vref, outcomes, &mut open[..n]);
            for p in (0..n).filter(|&p| open[p]) {
                let (za, zb) = box_muller_out_of_line(u1[p], u2[p]);
                outcomes[2 * p] = u8::from(read(cells[2 * p], za));
                outcomes[2 * p + 1] = u8::from(read(cells[2 * p + 1], zb));
            }
            let whole = filled / 8;
            pack_bits(&bits[..8 * whole], &mut bytes[packed..packed + whole]);
            packed += whole;
            bits.copy_within(8 * whole..filled, 0);
            carried = filled % 8;
        }
        if let [v] = *odd {
            let (first, second) = Self::pair(rng);
            bits[carried] = u8::from(read(v, first));
            carried += 1;
            self.spare = Some(second);
        }
        if carried > 0 {
            bits[carried..8].fill(0);
            pack_bits(&bits[..8], &mut bytes[packed..packed + 1]);
        }
    }

    /// The cached spare variate, if any (snapshot support: the cache is part
    /// of the sampler's stream position).
    pub(crate) fn spare(&self) -> Option<f64> {
        self.spare
    }

    /// Restores a cached spare variate captured by [`spare`](Self::spare).
    pub(crate) fn set_spare(&mut self, spare: Option<f64>) {
        self.spare = spare;
    }
}

/// The Box–Muller transform of one pair of uniforms. `sin_cos` evaluates
/// the same libm kernels as separate `sin`/`cos` calls, so the pair is
/// bit-identical to the historical two-call form (pinned by
/// `fill_matches_sequential_samples`).
#[inline]
fn box_muller(u1: f64, u2: f64) -> (f64, f64) {
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = std::f64::consts::TAU * u2;
    let (sin, cos) = theta.sin_cos();
    (r * cos, r * sin)
}

/// [`box_muller`] kept out of line for the rare undecided pairs of
/// [`Gaussian::threshold_read`] and [`BracketedNormals`]. This must stay
/// `#[inline(never)]`: LLVM treats `sin` and `cos` as speculatable, and an
/// inlined copy can be hoisted above the branch into the fast path, which
/// then costs as much as a full fill.
#[inline(never)]
fn box_muller_out_of_line(u1: f64, u2: f64) -> (f64, f64) {
    box_muller(u1, u2)
}

/// Draws one pair's uniforms per slot of `u1`/`u2`, in stream order (see
/// [`Gaussian::uniforms`]). The generator and the buffers are separate
/// arguments, so the compiler may keep the generator's state in registers
/// for the whole loop instead of storing it after every draw.
fn draw_uniforms<R: Rng + ?Sized>(rng: &mut R, u1: &mut [f64], u2: &mut [f64]) {
    for (u1, u2) in u1.iter_mut().zip(u2) {
        (*u1, *u2) = Gaussian::uniforms(rng);
    }
}

/// The most draws one [`BracketedNormals::map`] request may take. Fixed
/// buffers keep peak memory flat whatever the page size.
pub(crate) const CHUNK: usize = 2048;

/// Relative error bound of [`fast_ln`] and absolute error bound of
/// [`fast_sin_cos`] against libm, with a wide margin: over 1e8 random
/// pairs the worst errors were 2.2e-16 for `ln`, 1.1e-16 for `sin` and
/// `cos`, and `4.4e-16·r` for a variate `r·cos θ` or `r·sin θ`, which
/// therefore lies well within `r·FAST_REL_ERR` of the libm value. The
/// tests pin the kernels below a hundredth of this bound.
const FAST_REL_ERR: f64 = 2e-13;

/// A stream of standard-normal draws from a [`Gaussian`], handed out in
/// chunks to monotone consumers (built by [`Gaussian::bracketed`]).
///
/// Each [`map`](Self::map) request draws exactly the uniforms its chunk
/// needs, retry included, as [`Gaussian::uniforms`] draws them, and
/// evaluates each pair with [`fast_ln`] and [`fast_sin_cos`] into a
/// bracket `lo ≤ z ≤ hi` around the value `z` that [`Gaussian::fill`]
/// would give: `fl(z_a ∓ E)` for an approximation `z_a` within
/// `E = r·`[`FAST_REL_ERR`] of `z`. The consumer's map `f` runs at both
/// ends. When `f` is monotone and both ends give the same bits, `f(z)` has
/// those bits too; on a tie the pair is re-evaluated by
/// [`box_muller_out_of_line`] and `f` takes the exact variate.
///
/// A leading cached spare is handed out first, exactly. A request of odd
/// length leaves its last pair's second variate pending for the next
/// request; dropping the stream caches a pending variate as the spare,
/// evaluated exactly, as `fill` caches its odd trailing pair's.
///
/// Every consumer in the chip is a chain of steps that are each monotone
/// in their input whatever the fixed operands: `a + b·z`, `max` against a
/// constant, products with fixed factors, adding a fixed voltage, and
/// `round`/`clamp`/`as f32`. IEEE rounding keeps each step monotone, so
/// the chain is monotone. Equal values at both ends could still differ
/// from `f(z)` in the sign of a zero, but a sum is `−0.0` only when both
/// addends are, and no consumer adds a `−0.0` offset (a probe's level
/// maps both zeros to 0 anyway).
pub(crate) struct BracketedNormals<'a, R: ?Sized> {
    gauss: &'a mut Gaussian,
    rng: &'a mut R,
    /// The uniforms of the pair whose second variate the last request left
    /// over.
    pending: Option<(f64, f64)>,
    /// Per pair of the current chunk: the uniforms. A pending variate's
    /// pair is pair 0.
    u1: [f64; CHUNK / 2 + 1],
    u2: [f64; CHUNK / 2 + 1],
    /// Per pair: the low and high ends of both variates' brackets. A
    /// leading spare or pending variate is pair 0's second variate.
    lo: [[f64; 2]; CHUNK / 2 + 1],
    hi: [[f64; 2]; CHUNK / 2 + 1],
    /// Per draw of the current chunk: whether its bracket ends map apart.
    tie: [bool; CHUNK],
}

impl<R: Rng + ?Sized> BracketedNormals<'_, R> {
    /// Sets `out[k] = f(k, z)` for the stream's next `out.len()` draws
    /// `z` (at most [`CHUNK`]), bit-identical to applying `f` to the
    /// matching variates of [`Gaussian::fill`]. `f` must be monotone in
    /// `z` (either direction) for each `k`.
    pub(crate) fn map(&mut self, out: &mut [f32], f: impl Fn(usize, f64) -> f32) {
        let n = out.len();
        assert!(n <= CHUNK, "a request of {n} draws exceeds the chunk");
        if n == 0 {
            return;
        }
        // The draws fill slots `start..start + n` of the pair-major
        // buffers: a leading spare or pending variate takes slot 1.
        let spare = self.gauss.spare.take();
        let pending = self.pending.take();
        let start = usize::from(spare.is_some() || pending.is_some());
        let pairs = (start + n).div_ceil(2);
        draw_uniforms(self.rng, &mut self.u1[start..pairs], &mut self.u2[start..pairs]);
        if let Some((u1, u2)) = pending {
            (self.u1[0], self.u2[0]) = (u1, u2);
        }
        let first = usize::from(spare.is_some());
        evaluate_pairs(
            &self.u1[first..pairs],
            &self.u2[first..pairs],
            &mut self.lo[first..pairs],
            &mut self.hi[first..pairs],
        );
        if let Some(z) = spare {
            (self.lo[0][1], self.hi[0][1]) = (z, z);
        }
        if (start + n) % 2 == 1 {
            self.pending = Some((self.u1[pairs - 1], self.u2[pairs - 1]));
        }
        let slots = start..start + n;
        let (lo, hi) = (&self.lo.as_flattened()[slots.clone()], &self.hi.as_flattened()[slots]);
        let tie = &mut self.tie[..n];
        if map_ends(lo, hi, out, tie, &f) {
            for k in (0..n).filter(|&k| tie[k]) {
                let slot = start + k;
                let z = match spare {
                    // Both ends of an exact draw are the draw itself.
                    Some(z) if slot == 1 => z,
                    _ => {
                        let (first, second) =
                            box_muller_out_of_line(self.u1[slot / 2], self.u2[slot / 2]);
                        if slot % 2 == 0 {
                            first
                        } else {
                            second
                        }
                    }
                };
                out[k] = f(k, z);
            }
        }
    }
}

impl<R: ?Sized> Drop for BracketedNormals<'_, R> {
    /// Caches a pending variate as the spare, exactly as `fill` caches the
    /// second variate of its odd trailing pair. A leading spare that no
    /// request took is still in place.
    fn drop(&mut self) {
        if let Some((u1, u2)) = self.pending.take() {
            self.gauss.spare = Some(box_muller_out_of_line(u1, u2).1);
        }
    }
}

/// Evaluates each pair `(u1[p], u2[p])` with [`fast_ln`] and
/// [`fast_sin_cos`] into the bracket ends `lo[p]`, `hi[p]` of its two
/// variates `(r·cos, r·sin)`. The loop is branch-free, so it vectorizes; on
/// x86-64 it runs at the widest vector width the CPU offers. Every width
/// performs the same IEEE operations, and the bracket makes the consumers'
/// results exact either way.
fn evaluate_pairs(u1: &[f64], u2: &[f64], lo: &mut [[f64; 2]], hi: &mut [[f64; 2]]) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the CPU supports AVX-512F, as just checked.
            return unsafe { evaluate_pairs_avx512(u1, u2, lo, hi) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, as just checked.
            return unsafe { evaluate_pairs_avx2(u1, u2, lo, hi) };
        }
    }
    evaluate_pairs_with(u1, u2, lo, hi);
}

/// [`evaluate_pairs`] compiled for AVX-512 (8 lanes).
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn evaluate_pairs_avx512(u1: &[f64], u2: &[f64], lo: &mut [[f64; 2]], hi: &mut [[f64; 2]]) {
    evaluate_pairs_with(u1, u2, lo, hi);
}

/// [`evaluate_pairs`] compiled for AVX2 (4 lanes instead of SSE2's 2).
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn evaluate_pairs_avx2(u1: &[f64], u2: &[f64], lo: &mut [[f64; 2]], hi: &mut [[f64; 2]]) {
    evaluate_pairs_with(u1, u2, lo, hi);
}

/// The body of [`evaluate_pairs`], inlined into each target-feature
/// variant.
#[inline(always)]
fn evaluate_pairs_with(u1: &[f64], u2: &[f64], lo: &mut [[f64; 2]], hi: &mut [[f64; 2]]) {
    for (((&u1, &u2), lo), hi) in u1.iter().zip(u2).zip(lo).zip(hi) {
        let r = (-2.0 * fast_ln(u1)).sqrt();
        let (sin, cos) = fast_sin_cos(std::f64::consts::TAU * u2);
        let (za, zb, err) = (r * cos, r * sin, r * FAST_REL_ERR);
        *lo = [za - err, zb - err];
        *hi = [za + err, zb + err];
    }
}

/// Runs `f` at both bracket ends of every draw: `out[k] = f(k, lo[k])`,
/// and `tie[k]` says whether `f(k, hi[k])` has other bits. Returns whether
/// any draw tied. The loop is branch-free, so it vectorizes; on x86-64 it
/// runs at the widest vector width the CPU offers, with the same IEEE
/// operations at every width (there `f64::round`, a libm call on baseline
/// x86-64, compiles to an instruction).
fn map_ends<F: Fn(usize, f64) -> f32>(
    lo: &[f64],
    hi: &[f64],
    out: &mut [f32],
    tie: &mut [bool],
    f: &F,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the CPU supports AVX-512F, as just checked.
            return unsafe { map_ends_avx512(lo, hi, out, tie, f) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, as just checked.
            return unsafe { map_ends_avx2(lo, hi, out, tie, f) };
        }
    }
    map_ends_with(lo, hi, out, tie, f)
}

/// [`map_ends`] compiled for AVX-512 (8 or 16 lanes).
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn map_ends_avx512<F: Fn(usize, f64) -> f32>(
    lo: &[f64],
    hi: &[f64],
    out: &mut [f32],
    tie: &mut [bool],
    f: &F,
) -> bool {
    map_ends_with(lo, hi, out, tie, f)
}

/// [`map_ends`] compiled for AVX2 (4 or 8 lanes).
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn map_ends_avx2<F: Fn(usize, f64) -> f32>(
    lo: &[f64],
    hi: &[f64],
    out: &mut [f32],
    tie: &mut [bool],
    f: &F,
) -> bool {
    map_ends_with(lo, hi, out, tie, f)
}

/// The body of [`map_ends`], inlined into each target-feature variant.
/// Requests hold at most [`CHUNK`] draws, so consumers that index
/// `CHUNK`-sized buffers by `k` need no bounds checks.
#[inline(always)]
fn map_ends_with<F: Fn(usize, f64) -> f32>(
    lo: &[f64],
    hi: &[f64],
    out: &mut [f32],
    tie: &mut [bool],
    f: &F,
) -> bool {
    let n = out.len().min(CHUNK);
    let out = &mut out[..n];
    let mut any = false;
    for (k, (((out, tie), &lo), &hi)) in out.iter_mut().zip(tie).zip(lo).zip(hi).enumerate() {
        let low = f(k, lo);
        *out = low;
        *tie = low.to_bits() != f(k, hi).to_bits();
        any |= *tie;
    }
    any
}

/// Natural logarithm of a positive normal `x`, branchless: fdlibm's
/// `__ieee754_log` reduction to `[sqrt(2)/2, sqrt(2))` and its degree-14
/// `log1p` polynomial in `s = f/(2+f)`. Within `FAST_REL_ERR/100` relative
/// of libm (pinned by the tests).
#[inline]
fn fast_ln(x: f64) -> f64 {
    const LN2_HI: f64 = 0.693_147_180_369_123_8;
    const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
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
/// by `π/2` with magic-number rounding (`round()` is a libm call on
/// baseline x86-64), fdlibm's `__kernel_sin`/`__kernel_cos` polynomials on
/// `[-π/4, π/4]`, and a bit-select for the quadrant. Within
/// `FAST_REL_ERR/100` absolute of libm (pinned by the tests).
#[inline]
fn fast_sin_cos(theta: f64) -> (f64, f64) {
    /// `1.5·2^52`: adding it rounds to an integer held in the low bits.
    const ROUND: f64 = 6_755_399_441_055_744.0;
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

/// Whole pairs per chunk of [`Gaussian::threshold_read`]. Its buffers
/// (~10 KB) live on the stack, so peak memory stays flat whatever the
/// page size. A multiple of four, so a chunk's outcomes fill whole bytes.
const READ_PAIRS: usize = 512;

/// An upper bound on `|sigma·z|` for both variates of a pair whose first
/// uniform is `u1`, a positive normal number. Both variates share the
/// radius `r = sqrt(-2 ln u1)`, and `|r·cos|, |r·sin| ≤ r`. With `u1` in
/// `[2^-k, 2^(1-k))`, `r ≤ sqrt(2k ln 2)`. The relative margin of 1e-9
/// covers the rounding of the variate's computed `ln`, `sqrt` and products
/// and of the bound's own (a few ulps, ~1e-15) many times over.
#[inline(always)]
fn noise_bound(u1: f64, sigma: f64) -> f64 {
    /// `2^52`: the low bits of its mantissa hold a small integer exactly.
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    // The biased exponent as an exact f64, taken through `TWO_52`'s
    // mantissa: AVX2 has no 64-bit integer-to-float conversion.
    let exponent = f64::from_bits(TWO_52.to_bits() | (u1.to_bits() >> 52)) - TWO_52;
    let k = 1023.0 - exponent;
    sigma * (2.0 * k * std::f64::consts::LN_2).sqrt() * (1.0 + 1e-9)
}

/// Decides both cells of each pair of a [`Gaussian::threshold_read`]
/// chunk from the pair's [`noise_bound`]. `outcomes` gets each cell's
/// outcome at `t = -bound`, and `open[p]` says whether either cell of pair
/// `p` reads differently at `t = +bound`. The rounded sum `v + t` is
/// monotone in `t`, and `max(m, 0) < vref` is monotone in `m`, so the
/// outcome of a pair that is not open holds for every noise the pair can
/// carry. The loop is branch-free, so it vectorizes; on x86-64 it runs at
/// the widest vector width the CPU offers, with the same IEEE operations
/// at every width.
fn decide_pairs(
    u1: &[f64],
    cells: &[f32],
    sigma: f64,
    vref: f64,
    outcomes: &mut [u8],
    open: &mut [bool],
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, as just checked.
        return unsafe { decide_pairs_avx2(u1, cells, sigma, vref, outcomes, open) };
    }
    decide_pairs_with(u1, cells, sigma, vref, outcomes, open);
}

/// [`decide_pairs`] compiled for AVX2 (4 lanes instead of SSE2's 2).
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn decide_pairs_avx2(
    u1: &[f64],
    cells: &[f32],
    sigma: f64,
    vref: f64,
    outcomes: &mut [u8],
    open: &mut [bool],
) {
    decide_pairs_with(u1, cells, sigma, vref, outcomes, open);
}

/// The body of [`decide_pairs`], inlined into each target-feature
/// variant.
#[inline(always)]
fn decide_pairs_with(
    u1: &[f64],
    cells: &[f32],
    sigma: f64,
    vref: f64,
    outcomes: &mut [u8],
    open: &mut [bool],
) {
    let read = |v: f32, t: f64| (f64::from(v) + t).max(0.0) < vref;
    let pairs = u1.iter().zip(cells.chunks_exact(2)).zip(outcomes.chunks_exact_mut(2));
    for (((&u1, cells), outcomes), open) in pairs.zip(open) {
        let bound = noise_bound(u1, sigma);
        let (a, b) = (cells[0], cells[1]);
        let (lo_a, lo_b) = (read(a, -bound), read(b, -bound));
        outcomes[0] = u8::from(lo_a);
        outcomes[1] = u8::from(lo_b);
        *open = (lo_a != read(a, bound)) | (lo_b != read(b, bound));
    }
}

/// Packs 0/1 bytes MSB-first into `out`, eight to a byte
/// (`bits.len() == 8 * out.len()`).
fn pack_bits(bits: &[u8], out: &mut [u8]) {
    debug_assert_eq!(bits.len(), 8 * out.len());
    for (byte, eight) in out.iter_mut().zip(bits.chunks_exact(8)) {
        // Read as a little-endian word, bit 0 of byte `j` sits at bit
        // `8j`; the multiplier moves it to bit `63 - j`. Every product
        // term lands on a distinct bit, so nothing carries.
        let word = u64::from_le_bytes(eight.try_into().expect("eight bytes"));
        *byte = (word.wrapping_mul(0x8040_2010_0804_0201) >> 56) as u8;
    }
}

/// Standard normal cumulative distribution function (Abramowitz–Stegun
/// 7.1.26-based erf approximation, max error ≈ 1.5e-7). Used by calibration
/// tests and the analytic throughput model, not in the sampling hot path.
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - y * (-x * x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn gaussian_mean_and_variance() {
        let mut rng = SmallRng::seed_from_u64(42);
        let mut g = Gaussian::new();
        let n = 200_000;
        let (mut sum, mut sumsq) = (0.0, 0.0);
        for _ in 0..n {
            let z = g.sample(&mut rng);
            sum += z;
            sumsq += z * z;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn gaussian_tail_fractions() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut g = Gaussian::new();
        let n = 400_000;
        let above2 = (0..n).filter(|_| g.sample(&mut rng) > 2.0).count() as f64 / n as f64;
        // P(Z > 2) = 2.275%
        assert!((0.019..0.027).contains(&above2), "tail {above2}");
    }

    #[test]
    fn sample_with_scales() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut g = Gaussian::new();
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| g.sample_with(&mut rng, 10.0, 2.0)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn fill_matches_sequential_samples() {
        // Every chunking of the stream must reproduce the scalar draw
        // order bit-for-bit, including the spare cache carried across
        // chunk boundaries (odd lengths leave a spare behind).
        for chunks in [vec![1usize; 9], vec![2, 3, 4], vec![7, 1, 5], vec![9], vec![0, 3, 0, 6]] {
            let total: usize = chunks.iter().sum();
            let mut rng_a = SmallRng::seed_from_u64(99);
            let mut a = Gaussian::new();
            let scalar: Vec<f64> = (0..total).map(|_| a.sample(&mut rng_a)).collect();

            let mut rng_b = SmallRng::seed_from_u64(99);
            let mut b = Gaussian::new();
            let mut bulk = Vec::new();
            for n in chunks {
                let mut buf = vec![0.0; n];
                b.fill(&mut rng_b, &mut buf);
                bulk.extend(buf);
            }
            assert_eq!(
                scalar.iter().map(|z| z.to_bits()).collect::<Vec<_>>(),
                bulk.iter().map(|z| z.to_bits()).collect::<Vec<_>>()
            );
            // The stream positions agree too: the next draw matches.
            assert_eq!(a.sample(&mut rng_a).to_bits(), b.sample(&mut rng_b).to_bits());
        }
    }

    /// The path [`Gaussian::threshold_read`] replaces: a full fill, then
    /// the scalar compare, packed MSB-first.
    fn reference_read(
        g: &mut Gaussian,
        rng: &mut SmallRng,
        volts: &[f32],
        sigma: f64,
        vref: f64,
    ) -> Vec<u8> {
        let mut noise = vec![0.0; volts.len()];
        g.fill(rng, &mut noise);
        let mut bytes = vec![0u8; volts.len().div_ceil(8)];
        for (i, (&v, &z)) in volts.iter().zip(&noise).enumerate() {
            let measured = f64::from(v) + (0.0 + sigma * z);
            if measured.max(0.0) < vref {
                bytes[i / 8] |= 0x80 >> (i % 8);
            }
        }
        bytes
    }

    /// Asserts that two back-to-back `threshold_read`s give the reference
    /// outcomes, the tail byte's zero padding included, and leave the
    /// sampler (spare and RNG) where the reference leaves it. The second
    /// read starts from the spare the first leaves behind, so an odd
    /// length also covers the one-bit offset a leading spare creates.
    fn assert_read_matches(volts: &[f32], sigma: f64, vref: f64, seed: u64, spare_in: bool) {
        let mut rng_a = SmallRng::seed_from_u64(seed);
        let mut rng_b = SmallRng::seed_from_u64(seed);
        let (mut a, mut b) = (Gaussian::new(), Gaussian::new());
        if spare_in {
            a.sample(&mut rng_a);
            b.sample(&mut rng_b);
        }
        let case = format!("len {} sigma {sigma} vref {vref} spare {spare_in}", volts.len());
        for read in 0..2 {
            let expected = reference_read(&mut a, &mut rng_a, volts, sigma, vref);
            // Every bit starts set, so unwritten padding would show.
            let mut got = vec![0xFF; volts.len().div_ceil(8)];
            b.threshold_read(&mut rng_b, volts, sigma, vref, &mut got);
            assert_eq!(got, expected, "{case} read {read}");
            assert_eq!(a.spare().map(f64::to_bits), b.spare().map(f64::to_bits), "{case}");
        }
        for _ in 0..3 {
            assert_eq!(a.sample(&mut rng_a).to_bits(), b.sample(&mut rng_b).to_bits(), "{case}");
        }
    }

    #[test]
    fn threshold_read_matches_fill_and_compare() {
        let mut rng = SmallRng::seed_from_u64(5);
        // Erased and programmed lobes plus stray cells, as on a real page.
        let page: Vec<f32> = (0..144_384)
            .map(|i| match i % 5 {
                0 | 1 => rng.gen_range(-20.0..40.0f32),
                2 | 3 => rng.gen_range(110.0..200.0f32),
                _ => rng.gen_range(-5.0..260.0f32),
            })
            .collect();
        // A chunk holds `2 * READ_PAIRS` cells; a leading spare moves its
        // boundaries one cell later.
        let chunk = 2 * READ_PAIRS;
        let lens = [0, 1, 2, 3, 7, 8, 9, 15, 17, 1001, chunk - 1, chunk, chunk + 1, chunk + 2];
        // Sigma 0 decides every pair; sigma 1e3 leaves every pair open.
        let settings =
            [(0.6, 34.0), (0.6, 0.0), (0.6, 255.0), (0.0, 34.0), (2.4, 34.0), (1e3, 34.0)];
        for len in lens.into_iter().chain([3 * chunk + 5, 144_384]) {
            for (sigma, vref) in settings {
                for spare_in in [false, true] {
                    assert_read_matches(&page[..len], sigma, vref, len as u64, spare_in);
                }
            }
        }
    }

    #[test]
    fn threshold_read_matches_on_cells_near_the_reference() {
        // Cells within ±3 sigma, or within one level, of `vref` leave most
        // pairs open, so the exact path carries the read.
        let mut rng = SmallRng::seed_from_u64(6);
        let near = [(0.6, 34.0, 1.8), (2.4, 34.0, 7.2), (0.6, 1.0, 1.8), (0.6, 255.0, 1.8)];
        let within_a_level = [(0.6, 34.0, 1.0), (0.6, 127.0, 1.0), (0.6, 255.0, 1.0)];
        for (sigma, vref, spread) in near.into_iter().chain(within_a_level) {
            let volts: Vec<f32> =
                (0..4099).map(|_| (vref + rng.gen_range(-spread..=spread)) as f32).collect();
            for spare_in in [false, true] {
                assert_read_matches(&volts, sigma, vref, 17, spare_in);
            }
        }
    }

    #[test]
    fn noise_bounds_cover_every_radius() {
        // The largest radius in each exponent bin comes from its smallest
        // `u1`, 2^-k; every angle keeps `|sigma·z|` under the bound. The
        // last bin, 2^-60, is finer than any 53-bit uniform.
        for sigma in [0.6, 2.4, 1e-3] {
            for k in (1..54).chain([60]) {
                let lowest = 2f64.powi(-k);
                for u1 in
                    [lowest, lowest * (1.0 + f64::EPSILON), 2.0 * lowest * (1.0 - f64::EPSILON)]
                {
                    let bound = noise_bound(u1, sigma);
                    for u2 in [0.0, 0.125, 0.25, 0.3, 0.5, 0.75, 0.999] {
                        let (za, zb) = box_muller(u1, u2);
                        assert!((0.0 + sigma * za).abs() <= bound, "k {k} u1 {u1} u2 {u2}");
                        assert!((0.0 + sigma * zb).abs() <= bound, "k {k} u1 {u1} u2 {u2}");
                    }
                }
            }
        }
    }

    #[test]
    fn skip_advances_like_fill() {
        for n in [0usize, 1, 2, 3, 10, 11, 144_384] {
            for spare_in in [false, true] {
                let mut rng_a = SmallRng::seed_from_u64(n as u64);
                let mut rng_b = SmallRng::seed_from_u64(n as u64);
                let (mut a, mut b) = (Gaussian::new(), Gaussian::new());
                if spare_in {
                    a.sample(&mut rng_a);
                    b.sample(&mut rng_b);
                }
                a.fill(&mut rng_a, &mut vec![0.0; n]);
                b.skip(&mut rng_b, n);
                assert_eq!(a.spare().map(f64::to_bits), b.spare().map(f64::to_bits), "n {n}");
                for _ in 0..3 {
                    assert_eq!(a.sample(&mut rng_a).to_bits(), b.sample(&mut rng_b).to_bits());
                }
            }
        }
    }

    /// Uniforms covering every binary-exponent bin of `u1` (each bin's
    /// ends plus random interior points) and the neighbourhood of 1.
    fn u1_samples(rng: &mut SmallRng) -> Vec<f64> {
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

    /// A body of [`evaluate_pairs`]: the portable one, the AVX2 one or the
    /// AVX-512 one.
    type EvaluateBody = fn(&[f64], &[f64], &mut [[f64; 2]], &mut [[f64; 2]]);

    /// Every body of [`evaluate_pairs`] this CPU can run; prints a note
    /// for each one it cannot.
    fn evaluate_bodies() -> Vec<(&'static str, EvaluateBody)> {
        let mut bodies: Vec<(&'static str, EvaluateBody)> = vec![("portable", evaluate_pairs_with)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the CPU supports AVX2, as just checked.
                bodies.push(("avx2", |u1, u2, lo, hi| unsafe {
                    evaluate_pairs_avx2(u1, u2, lo, hi)
                }));
            } else {
                eprintln!("note: this CPU lacks AVX2; its evaluate_pairs body is not checked");
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: the CPU supports AVX-512F, as just checked.
                bodies.push(("avx512", |u1, u2, lo, hi| unsafe {
                    evaluate_pairs_avx512(u1, u2, lo, hi)
                }));
            } else {
                eprintln!("note: this CPU lacks AVX-512F; its evaluate_pairs body is not checked");
            }
        }
        bodies
    }

    /// What one body of [`map_ends`] gave: its name, its outputs as bits,
    /// its tie flags and its result.
    type MapOutput = (&'static str, Vec<u32>, Vec<bool>, bool);

    /// Runs `f` through every body of [`map_ends`] this CPU can run; prints
    /// a note for each body it cannot run.
    fn map_ends_bodies<F: Fn(usize, f64) -> f32>(lo: &[f64], hi: &[f64], f: &F) -> Vec<MapOutput> {
        let run = |body: &dyn Fn(&mut [f32], &mut [bool]) -> bool| {
            let (mut out, mut tie) = (vec![f32::NAN; lo.len()], vec![true; lo.len()]);
            let any = body(&mut out, &mut tie);
            (out.iter().map(|v| v.to_bits()).collect(), tie, any)
        };
        let mut outputs = Vec::new();
        let (out, tie, any) = run(&|out, tie| map_ends_with(lo, hi, out, tie, f));
        outputs.push(("portable", out, tie, any));
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the CPU supports AVX2, as just checked.
                let (out, tie, any) =
                    run(&|out, tie| unsafe { map_ends_avx2(lo, hi, out, tie, f) });
                outputs.push(("avx2", out, tie, any));
            } else {
                eprintln!("note: this CPU lacks AVX2; its map_ends body is not checked");
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: the CPU supports AVX-512F, as just checked.
                let (out, tie, any) =
                    run(&|out, tie| unsafe { map_ends_avx512(lo, hi, out, tie, f) });
                outputs.push(("avx512", out, tie, any));
            } else {
                eprintln!("note: this CPU lacks AVX-512F; its map_ends body is not checked");
            }
        }
        outputs
    }

    /// A body of [`decide_pairs`]: the portable one, or the AVX2 one.
    type DecideBody = fn(&[f64], &[f32], f64, f64, &mut [u8], &mut [bool]);

    /// Every body of [`decide_pairs`] this CPU can run.
    fn decide_bodies() -> Vec<(&'static str, DecideBody)> {
        let mut bodies: Vec<(&'static str, DecideBody)> = vec![("portable", decide_pairs_with)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, as just checked.
            bodies.push(("avx2", |u1, cells, sigma, vref, outcomes, open| unsafe {
                decide_pairs_avx2(u1, cells, sigma, vref, outcomes, open)
            }));
        }
        bodies
    }

    #[test]
    fn evaluate_pairs_bodies_agree() {
        let mut rng = SmallRng::seed_from_u64(34);
        let u1s = u1_samples(&mut rng);
        for (batch, u1) in u1s.chunks(CHUNK / 2).enumerate() {
            let u2: Vec<f64> = (0..u1.len())
                .map(|j| if j % 2 == 0 { rng.gen::<f64>() } else { (j % 9) as f64 / 8.0 })
                .collect();
            let outputs: Vec<_> = evaluate_bodies()
                .into_iter()
                .map(|(name, body)| {
                    let (mut lo, mut hi) =
                        (vec![[f64::NAN; 2]; u1.len()], vec![[0.0; 2]; u1.len()]);
                    body(u1, &u2, &mut lo, &mut hi);
                    let ends = lo.iter().chain(&hi).flatten();
                    (name, ends.map(|x| x.to_bits()).collect::<Vec<_>>())
                })
                .collect();
            for (name, bits) in &outputs[1..] {
                assert!(*bits == outputs[0].1, "{name} differs in batch {batch}");
            }
        }
    }

    #[test]
    fn map_ends_bodies_agree() {
        // Brackets from real pairs, widened on every seventh draw so that
        // some ends map apart, over every consumer's map.
        let mut rng = SmallRng::seed_from_u64(37);
        let n = CHUNK;
        let (u1, u2): (Vec<f64>, Vec<f64>) =
            (0..n / 2).map(|_| Gaussian::uniforms(&mut rng)).unzip();
        let (mut lo, mut hi) = (vec![[0.0; 2]; n / 2], vec![[0.0; 2]; n / 2]);
        evaluate_pairs_with(&u1, &u2, &mut lo, &mut hi);
        let (mut lo, mut hi) = (lo.as_flattened().to_vec(), hi.as_flattened().to_vec());
        for k in (0..n).step_by(7) {
            lo[k] -= 0.3;
            hi[k] += 0.3;
        }
        let volts: [f32; CHUNK] = page_volts(CHUNK, 38).try_into().expect("a chunk of cells");
        let coupling: [f32; CHUNK] = std::array::from_fn(|_| rng.gen_range(0.0..4.0));
        let check = |case: &str, outputs: Vec<MapOutput>| {
            let (_, out, tie, any) = &outputs[0];
            assert!(*any && tie.iter().any(|&t| !t), "{case}: ties and clean draws both occur");
            for (name, other_out, other_tie, other_any) in &outputs[1..] {
                assert!(other_out == out && other_tie == tie && other_any == any, "{name}: {case}");
            }
        };
        check("program", map_ends_bodies(&lo, &hi, &|_, z| (165.0 + 9.0 * z) as f32));
        let interference = |k: usize, z: f64| {
            let v = volts[k];
            let damping = (1.0 - f64::from(v.max(0.0)) / 110.0).clamp(0.0, 1.0);
            v + ((4.2 + 1.8 * z).max(0.0) * f64::from(coupling[k]) * damping) as f32
        };
        check("interference", map_ends_bodies(&lo, &hi, &interference));
        for sigma in [0.6, 2.4, 40.0] {
            let probe = |k: usize, z: f64| {
                let measured = f64::from(volts[k]) + (0.0 + sigma * z);
                measured.round().clamp(0.0, 255.0) as f32
            };
            check(&format!("probe sigma {sigma}"), map_ends_bodies(&lo, &hi, &probe));
        }
        let retention = |k: usize, z: f64| {
            let v = f64::from(volts[k]);
            (v - 0.01 * v.abs() + (0.0 + 0.05 * z)).max(-61.0) as f32
        };
        check("retention", map_ends_bodies(&lo, &hi, &retention));
    }

    #[test]
    fn decide_pairs_bodies_agree() {
        let mut rng = SmallRng::seed_from_u64(35);
        let u1s = u1_samples(&mut rng);
        let far = page_volts(2 * u1s.len(), 36);
        for vref in [0.0, 1.0, 34.0, 127.0, 255.0] {
            // Cells within a few levels of `vref`, interleaved with a page.
            let cells: Vec<f32> = far
                .iter()
                .enumerate()
                .map(
                    |(i, &v)| if i % 3 == 0 { v } else { (vref + rng.gen_range(-3.0..3.0)) as f32 },
                )
                .collect();
            for sigma in [0.0, 0.6, 2.4, 1e3] {
                let outputs: Vec<_> = decide_bodies()
                    .into_iter()
                    .map(|(name, body)| {
                        let mut outcomes = vec![7u8; cells.len()];
                        let mut open = vec![false; u1s.len()];
                        body(&u1s, &cells, sigma, vref, &mut outcomes, &mut open);
                        (name, outcomes, open)
                    })
                    .collect();
                let (_, outcomes, open) = &outputs[0];
                let case = format!("sigma {sigma} vref {vref}");
                for (name, other_outcomes, other_open) in &outputs[1..] {
                    assert!(other_outcomes == outcomes && other_open == open, "{name}: {case}");
                }
                assert!(outcomes.iter().all(|&b| b <= 1), "{case}");
                let opened = open.iter().filter(|&&o| o).count();
                if sigma == 0.0 {
                    // No noise decides every pair.
                    assert_eq!(opened, 0, "{case}");
                } else if sigma == 1e3 && vref > 0.0 {
                    // A bound over 1e3 levels floors every cell's low end
                    // and lifts its high end past 255.
                    assert_eq!(opened, open.len(), "{case}");
                }
            }
        }
    }

    #[test]
    fn bracketed_pairs_cover_the_libm_pair() {
        // End to end over one pair: `|z_a − z| ≤ r·FAST_REL_ERR / 100`.
        let mut rng = SmallRng::seed_from_u64(33);
        let u1s = u1_samples(&mut rng);
        for (n, &u1) in u1s.iter().enumerate() {
            let u2 = if n % 2 == 0 { rng.gen::<f64>() } else { (n % 9) as f64 / 8.0 };
            let r = (-2.0 * fast_ln(u1)).sqrt();
            let (sin, cos) = fast_sin_cos(std::f64::consts::TAU * u2);
            let (za, zb) = box_muller(u1, u2);
            assert!((r * cos - za).abs() <= r * FAST_REL_ERR / 100.0, "u1 {u1:e} u2 {u2}");
            assert!((r * sin - zb).abs() <= r * FAST_REL_ERR / 100.0, "u1 {u1:e} u2 {u2}");
        }
    }

    /// Asserts that a bracketed stream that maps `requests` chunks in
    /// turn through `f` (indexed across the whole stream) is bit-identical
    /// to `fill` of their total followed by `f`, leaves the same spare and
    /// the same next three draws, and returns how many draws fell back to
    /// the exact evaluation.
    fn assert_bracketed_matches(
        requests: &[usize],
        seed: u64,
        spare_in: bool,
        f: impl Fn(usize, f64) -> f32,
    ) -> usize {
        let mut rng_a = SmallRng::seed_from_u64(seed);
        let mut rng_b = SmallRng::seed_from_u64(seed);
        let (mut a, mut b) = (Gaussian::new(), Gaussian::new());
        if spare_in {
            a.sample(&mut rng_a);
            b.sample(&mut rng_b);
        }
        let n = requests.iter().sum();
        let mut noise = vec![0.0; n];
        a.fill(&mut rng_a, &mut noise);
        let expected: Vec<u32> =
            noise.iter().enumerate().map(|(i, &z)| f(i, z).to_bits()).collect();
        let calls = std::cell::Cell::new(0usize);
        let mut got = Vec::with_capacity(n);
        let mut draws = b.bracketed(&mut rng_b);
        for &len in requests {
            let (taken, mut out) = (got.len(), vec![f32::NAN; len]);
            draws.map(&mut out, |k, z| {
                calls.set(calls.get() + 1);
                f(taken + k, z)
            });
            got.extend(out.iter().map(|v| v.to_bits()));
        }
        drop(draws);
        let case = format!("requests {requests:?} seed {seed} spare {spare_in}");
        assert_eq!(got, expected, "{case}");
        assert_eq!(a.spare().map(f64::to_bits), b.spare().map(f64::to_bits), "{case}");
        for _ in 0..3 {
            assert_eq!(a.sample(&mut rng_a).to_bits(), b.sample(&mut rng_b).to_bits(), "{case}");
        }
        // Two calls per draw, a third on a fallback.
        calls.get() - 2 * n
    }

    /// `len` draws requested as the chip's consumers request them: whole
    /// chunks, then the rest.
    fn chunked(len: usize) -> Vec<usize> {
        let mut requests = vec![CHUNK; len / CHUNK];
        requests.push(len % CHUNK);
        requests
    }

    /// Request sequences of every shape: none at all, empty requests, single
    /// draws, odd lengths that leave a variate pending, and chunk-sized
    /// requests around a total of `CHUNK + 1`.
    fn request_sequences() -> Vec<Vec<usize>> {
        let c = CHUNK;
        let mut sequences = vec![
            vec![],
            vec![0],
            vec![0, 0],
            vec![1],
            vec![1, 1, 1],
            vec![0, 1, 0, 2],
            vec![7, 0, 3, 5],
            vec![2, 4, 1],
            vec![c - 1],
            vec![c - 1, 2],
            vec![c - 1, c - 1, 3],
            vec![c, 1],
            vec![1, c],
            vec![c, c, 1],
            vec![3, c - 1, 0, c - 2, 7],
        ];
        sequences.extend([0, 1, 2, 3, 7, c - 1, c, c + 1, 2 * c + 1, 144_384].map(chunked));
        sequences
    }

    /// Voltages as on a real page: erased and programmed lobes plus strays.
    fn page_volts(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..len)
            .map(|i| match i % 5 {
                0 | 1 => rng.gen_range(-40.0..40.0f32),
                2 | 3 => rng.gen_range(110.0..200.0f32),
                _ => rng.gen_range(-5.0..260.0f32),
            })
            .collect()
    }

    #[test]
    fn bracketed_consumers_match_fill() {
        let volts = page_volts(144_384, 8);
        let mut rng = SmallRng::seed_from_u64(9);
        let coupling: Vec<f64> = (0..144_384).map(|_| rng.gen_range(0.0..4.0)).collect();
        for requests in request_sequences() {
            for spare_in in [false, true] {
                let seed = requests.iter().sum::<usize>() as u64 + 100 + requests.len() as u64;
                let check = |f: &dyn Fn(usize, f64) -> f32| {
                    assert_bracketed_matches(&requests, seed, spare_in, f);
                };
                for (mean, sigma) in [(165.0, 9.0), (-25.0, 12.5), (-25.0, 0.0)] {
                    // Program and erase: `(mean + σ·z) as f32`.
                    check(&|_, z| (mean + sigma * z) as f32);
                }
                for (m, s) in [(4.2, 1.8), (0.084, 0.036), (4.2, 0.0)] {
                    // Interference: `v + ((m + s·z).max(0)·c·d) as f32`.
                    check(&|i, z| {
                        let v = volts[i];
                        let damping = (1.0 - f64::from(v.max(0.0)) / 110.0).clamp(0.0, 1.0);
                        v + ((m + s * z).max(0.0) * coupling[i] * damping) as f32
                    });
                }
                for sigma in [0.6, 2.4, 0.0] {
                    // Probe: `(v + σ·z).round().clamp(0, 255)`.
                    check(&|i, z| {
                        let measured = f64::from(volts[i]) + (0.0 + sigma * z);
                        measured.round().clamp(0.0, 255.0) as f32
                    });
                }
                // Retention: `(v − loss + σ·z).max(floor) as f32`.
                check(&|i, z| {
                    let v = f64::from(volts[i]);
                    (v - 0.01 * v.abs() + (0.0 + 0.05 * z)).max(-61.0) as f32
                });
            }
        }
    }

    #[test]
    fn bracketed_ties_fall_back_to_the_exact_draw() {
        // Place each consumer's result on an f32 rounding midpoint for the
        // exact draw, so the bracket straddles it and the exact path runs.
        let c = CHUNK;
        let sequences = [vec![1], vec![2], vec![5], vec![1, 1, 3], vec![3, 0, 2], vec![c, 3]];
        for requests in sequences.into_iter().chain([vec![c - 1, 4], vec![7, c - 2, 1]]) {
            for spare_in in [false, true] {
                let len: usize = requests.iter().sum();
                let mut rng = SmallRng::seed_from_u64(len as u64);
                let mut g = Gaussian::new();
                if spare_in {
                    g.sample(&mut rng);
                }
                let mut z = vec![0.0; len];
                g.fill(&mut rng, &mut z);
                let midpoint = |i: usize| {
                    let low = 1.0f32 + i as f32 * f32::EPSILON;
                    f64::from(low) + f64::from(f32::EPSILON) / 2.0
                };
                let means: Vec<f64> = (0..len).map(|i| midpoint(i) - z[i]).collect();
                let fallbacks =
                    assert_bracketed_matches(&requests, len as u64, spare_in, |i, z| {
                        (means[i] + 1.0 * z) as f32
                    });
                // Every bracketed draw with a non-tiny radius straddles;
                // only a leading spare is exact.
                let exact = usize::from(spare_in);
                let case = format!("requests {requests:?} spare {spare_in}");
                assert!(fallbacks + exact >= len * 9 / 10, "{case}: {fallbacks} fallbacks");
                let bumps: Vec<f64> = (0..len).map(|i| midpoint(i) - 0.5 * z[i]).collect();
                assert_bracketed_matches(&requests, len as u64, spare_in, |i, z| {
                    -3.0f32 + (bumps[i] + 0.5 * z).max(0.0) as f32
                });
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the chunk")]
    fn bracketed_requests_are_at_most_a_chunk() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut g = Gaussian::new();
        g.bracketed(&mut rng).map(&mut [0.0; CHUNK + 1], |_, z| z as f32);
    }

    #[test]
    fn normal_cdf_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-6);
        assert!((normal_cdf(1.0) - 0.841_344_7).abs() < 1e-5);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 3e-4);
        assert!((normal_cdf(4.0) - 0.999_968_3).abs() < 1e-5);
        assert!(normal_cdf(-8.0) < 1e-10);
    }
}
