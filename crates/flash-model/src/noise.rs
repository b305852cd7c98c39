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
//! overwritten unread. All three bulk paths take their uniforms through one
//! entry, `uniform_pairs`, which hands over the chip generator's buffered
//! words a stretch at a time (see [`ChipRng`]) and keeps
//! `Gaussian::uniforms`'s retry rule; `draw_uniforms` converts them. The
//! branch-free chunk loops (`clean_pairs`, `to_uniforms`, `evaluate_pairs`,
//! `map_ends`, `decide_pairs`) are stamped by `isa::kernel!` and run at the
//! vector level the CPU offers.

use crate::isa::{fast_ln, fast_sin_cos, kernel, FAST_REL_ERR};
use crate::rng::ChipRng;
use rand::{Rng, RngCore};

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
    pub(crate) fn uniforms<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
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
    pub(crate) fn skip(&mut self, rng: &mut ChipRng, n: usize) {
        let mut n = n;
        if n > 0 && self.spare.take().is_some() {
            n -= 1;
        }
        uniform_pairs(rng, n / 2, clean_pairs);
        if n % 2 == 1 {
            self.spare = Some(Self::pair(rng).1);
        }
    }

    /// A chunked stream of standard-normal draws for consumers that map
    /// each variate monotonically to an `f32`; see [`BracketedNormals`].
    /// The stream is not sized up front: whatever chunks are requested,
    /// dropping the stream leaves the RNG and the cached spare exactly
    /// where [`fill`](Self::fill) of their total leaves them.
    pub(crate) fn bracketed<'a>(&'a mut self, rng: &'a mut ChipRng) -> BracketedNormals<'a> {
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
    pub(crate) fn threshold_read(
        &mut self,
        rng: &mut ChipRng,
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
            draw_uniforms(rng, &mut u1[..n], &mut u2[..n]);
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

/// Draws one pair's uniforms per slot of `u1`/`u2`, in stream order,
/// bit-identical to [`Gaussian::uniforms`] (its retry included): the
/// words come from [`uniform_pairs`] and are converted in bulk by
/// [`to_uniforms`].
pub(crate) fn draw_uniforms(rng: &mut ChipRng, u1: &mut [f64], u2: &mut [f64]) {
    assert_eq!(u1.len(), u2.len(), "a slot of each uniform per pair");
    let mut p = 0;
    uniform_pairs(rng, u1.len(), |words| {
        let n = words.len() / 2;
        let taken = to_uniforms(words, &mut u1[p..p + n], &mut u2[p..p + n]);
        p += taken;
        taken
    });
}

/// Hands the words behind the stream's next `pairs` Box–Muller pairs to
/// `take`, in stream order and in runs of whole pairs (`u1`'s word, then
/// `u2`'s), as [`Gaussian::uniforms`] draws them. The generator's buffered
/// words go in bulk, and `take` returns how many leading pairs of a run it
/// took: those before the first whose `u1` word is not [`positive`], which
/// `uniforms` redraws ([`clean_pairs`] counts them). That word shifts every
/// later pair by one, so the pair it would start is drawn by scalar pops
/// from the word after it, as is a pair that straddles two stretches, and
/// handed to `take` as a run of its own.
fn uniform_pairs(rng: &mut ChipRng, pairs: usize, mut take: impl FnMut(&[u64]) -> usize) {
    let mut left = pairs;
    while left > 0 {
        let words = rng.buffered();
        let run = (words.len() / 2).min(left);
        let taken = take(&words[..2 * run]);
        debug_assert_eq!(taken, clean_pairs(&words[..2 * run]), "a take stops at a zero u1");
        rng.advance(2 * taken);
        left -= taken;
        if taken < run || run == 0 {
            let u1 = std::iter::repeat_with(|| rng.next_u64()).find(|&w| positive(w));
            take(&[u1.expect("an endless stream"), rng.next_u64()]);
            left -= 1;
        }
    }
}

/// Whether `rng.gen::<f64>()` of the word `w` is positive (its top 53
/// bits are not all zero), which [`Gaussian::uniforms`] requires of `u1`.
#[inline(always)]
fn positive(w: u64) -> bool {
    w >> 11 != 0
}

/// `rng.gen::<f64>()` of the word `w`: its top 53 bits times `2^-53`,
/// converted exactly without a 64-bit integer conversion (only AVX-512DQ
/// has one). The top 52 bits become a mantissa under `1.0`'s exponent,
/// and subtracting 1.0 leaves them times `2^-52` (exact, by Sterbenz); the
/// 53rd bit adds `2^-53` or zero, and the sum of a multiple of `2^-53`
/// below 1 is exact too.
#[inline(always)]
fn uniform(w: u64) -> f64 {
    let top = f64::from_bits(1f64.to_bits() | (w >> 12)) - 1.0;
    let last = f64::from_bits(0u64.wrapping_sub(w >> 11 & 1) & 2f64.powi(-53).to_bits());
    top + last
}

kernel! {
    /// The whole pairs of `words` (`u1`'s word, then `u2`'s) before the
    /// first whose `u1` word is not [`positive`]. The scan is branch-free,
    /// so it vectorizes; the position is looked for only when there is one
    /// (one pair in `2^53`).
    pub(crate) fn clean_pairs / clean_pairs_at(words: &[u64]) -> usize {
        let (pairs, _) = words.as_chunks::<2>();
        // `w >> 11` is below `2^53`, so `(w >> 11) − 1` has its top bit set
        // only when it wraps, at zero.
        let wrapped = pairs.iter().fold(0, |any, pair| any | (pair[0] >> 11).wrapping_sub(1));
        if wrapped >> 63 != 0 {
            pairs.iter().position(|pair| !positive(pair[0])).expect("a zero u1 word")
        } else {
            pairs.len()
        }
    }
}

kernel! {
    /// Converts each pair of `words` (`u1`'s word, then `u2`'s) into
    /// `u1[p]`, `u2[p]`, bit-identical to `rng.gen::<f64>()` ([`uniform`]),
    /// and returns how many leading pairs have a positive `u1`: the
    /// [`clean_pairs`] of `words`, found from the converted values. The
    /// loop is branch-free, so it vectorizes.
    pub(crate) fn to_uniforms / to_uniforms_at(words: &[u64], u1: &mut [f64], u2: &mut [f64]) -> usize {
        let (pairs, _) = words.as_chunks::<2>();
        assert!(u1.len() >= pairs.len() && u2.len() >= pairs.len(), "a slot per pair");
        let mut zero = false;
        for ((pair, u1), u2) in pairs.iter().zip(&mut *u1).zip(&mut *u2) {
            *u1 = uniform(pair[0]);
            *u2 = uniform(pair[1]);
            zero |= *u1 == 0.0;
        }
        if zero {
            u1.iter().position(|&u| u == 0.0).expect("a zero u1")
        } else {
            pairs.len()
        }
    }
}

/// The most draws one [`BracketedNormals::map`] request may take. Fixed
/// buffers keep peak memory flat whatever the page size.
pub(crate) const CHUNK: usize = 2048;

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
pub(crate) struct BracketedNormals<'a> {
    gauss: &'a mut Gaussian,
    rng: &'a mut ChipRng,
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

impl BracketedNormals<'_> {
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

impl Drop for BracketedNormals<'_> {
    /// Caches a pending variate as the spare, exactly as `fill` caches the
    /// second variate of its odd trailing pair. A leading spare that no
    /// request took is still in place.
    fn drop(&mut self) {
        if let Some((u1, u2)) = self.pending.take() {
            self.gauss.spare = Some(box_muller_out_of_line(u1, u2).1);
        }
    }
}

kernel! {
    /// Evaluates each pair `(u1[p], u2[p])` with [`fast_ln`] and
    /// [`fast_sin_cos`] into the bracket ends `lo[p]`, `hi[p]` of its two
    /// variates `(r·cos, r·sin)`. The loop is branch-free, so it vectorizes;
    /// every level performs the same IEEE operations, and the bracket makes
    /// the consumers' results exact either way.
    pub(crate) fn evaluate_pairs / evaluate_pairs_at(
        u1: &[f64],
        u2: &[f64],
        lo: &mut [[f64; 2]],
        hi: &mut [[f64; 2]],
    ) {
        for (((&u1, &u2), lo), hi) in u1.iter().zip(u2).zip(lo).zip(hi) {
            let r = (-2.0 * fast_ln(u1)).sqrt();
            let (sin, cos) = fast_sin_cos(std::f64::consts::TAU * u2);
            let (za, zb, err) = (r * cos, r * sin, r * FAST_REL_ERR);
            *lo = [za - err, zb - err];
            *hi = [za + err, zb + err];
        }
    }
}

kernel! {
    /// Runs `f` at both bracket ends of every draw: `out[k] = f(k, lo[k])`,
    /// and `tie[k]` says whether `f(k, hi[k])` has other bits. Returns
    /// whether any draw tied. The loop is branch-free, so it vectorizes,
    /// with the same IEEE operations at every level (`f64::round`, a libm
    /// call on baseline x86-64, compiles to an instruction from AVX2 up).
    /// Requests hold at most [`CHUNK`] draws, so consumers that index
    /// `CHUNK`-sized buffers by `k` need no bounds checks.
    pub(crate) fn map_ends / map_ends_at(
        lo: &[f64],
        hi: &[f64],
        out: &mut [f32],
        tie: &mut [bool],
        f: &impl Fn(usize, f64) -> f32,
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

kernel! {
    /// Decides both cells of each pair of a [`Gaussian::threshold_read`]
    /// chunk from the pair's [`noise_bound`]. `outcomes` gets each cell's
    /// outcome at `t = -bound`, and `open[p]` says whether either cell of
    /// pair `p` reads differently at `t = +bound`. The rounded sum `v + t`
    /// is monotone in `t`, and `max(m, 0) < vref` is monotone in `m`, so the
    /// outcome of a pair that is not open holds for every noise the pair can
    /// carry. The loop is branch-free, so it vectorizes, with the same IEEE
    /// operations at every level.
    pub(crate) fn decide_pairs / decide_pairs_at(
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
    use crate::isa::tests::{assert_levels_agree, u1_samples};
    use crate::rng::{tests::step_back, SEGMENT, STRETCH};
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
        let mut rng_b = ChipRng::seed_from_u64(seed);
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
                let mut rng_b = ChipRng::seed_from_u64(n as u64);
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

    #[test]
    fn evaluate_pairs_bodies_agree() {
        let mut rng = SmallRng::seed_from_u64(34);
        let u1s = u1_samples(&mut rng);
        for (batch, u1) in u1s.chunks(CHUNK / 2).enumerate() {
            let u2: Vec<f64> = (0..u1.len())
                .map(|j| if j % 2 == 0 { rng.gen::<f64>() } else { (j % 9) as f64 / 8.0 })
                .collect();
            assert_levels_agree(&format!("batch {batch}"), |isa| {
                let (mut lo, mut hi) = (vec![[f64::NAN; 2]; u1.len()], vec![[0.0; 2]; u1.len()]);
                evaluate_pairs_at(isa, u1, &u2, &mut lo, &mut hi);
                lo.iter().chain(&hi).flatten().map(|x| x.to_bits()).collect::<Vec<_>>()
            });
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
        evaluate_pairs(&u1, &u2, &mut lo, &mut hi);
        let (mut lo, mut hi) = (lo.as_flattened().to_vec(), hi.as_flattened().to_vec());
        for k in (0..n).step_by(7) {
            lo[k] -= 0.3;
            hi[k] += 0.3;
        }
        let volts: [f32; CHUNK] = page_volts(CHUNK, 38).try_into().expect("a chunk of cells");
        let coupling: [f32; CHUNK] = std::array::from_fn(|_| rng.gen_range(0.0..4.0));
        fn check(case: &str, lo: &[f64], hi: &[f64], f: impl Fn(usize, f64) -> f32) {
            let (_, tie, any) = assert_levels_agree(case, |isa| {
                let (mut out, mut tie) = (vec![f32::NAN; lo.len()], vec![true; lo.len()]);
                let any = map_ends_at(isa, lo, hi, &mut out, &mut tie, &f);
                (out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), tie, any)
            });
            assert!(any && tie.iter().any(|&t| !t), "{case}: ties and clean draws both occur");
        }
        check("program", &lo, &hi, |_, z| (165.0 + 9.0 * z) as f32);
        check("interference", &lo, &hi, |k, z| {
            let v = volts[k];
            let damping = (1.0 - f64::from(v.max(0.0)) / 110.0).clamp(0.0, 1.0);
            v + ((4.2 + 1.8 * z).max(0.0) * f64::from(coupling[k]) * damping) as f32
        });
        for sigma in [0.6, 2.4, 40.0] {
            check(&format!("probe sigma {sigma}"), &lo, &hi, |k, z| {
                let measured = f64::from(volts[k]) + (0.0 + sigma * z);
                measured.round().clamp(0.0, 255.0) as f32
            });
        }
        check("retention", &lo, &hi, |k, z| {
            let v = f64::from(volts[k]);
            (v - 0.01 * v.abs() + (0.0 + 0.05 * z)).max(-61.0) as f32
        });
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
                let case = format!("sigma {sigma} vref {vref}");
                let (outcomes, open) = assert_levels_agree(&case, |isa| {
                    let mut outcomes = vec![7u8; cells.len()];
                    let mut open = vec![false; u1s.len()];
                    decide_pairs_at(isa, &u1s, &cells, sigma, vref, &mut outcomes, &mut open);
                    (outcomes, open)
                });
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
        let mut rng_b = ChipRng::seed_from_u64(seed);
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
        let mut rng = ChipRng::seed_from_u64(1);
        let mut g = Gaussian::new();
        g.bracketed(&mut rng).map(&mut [0.0; CHUNK + 1], |_, z| z as f32);
    }

    /// A generator and its serial reference at the raw state `s`.
    fn pair_at(s: [u64; 4]) -> (ChipRng, SmallRng) {
        let mut seed = [0u8; 32];
        for (chunk, word) in seed.chunks_exact_mut(8).zip(s) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        (ChipRng::from_state(s), SmallRng::from_seed(seed))
    }

    /// Asserts that pops of `pops` single words, then `draw_uniforms` of
    /// each request in turn, give what scalar pops and `Gaussian::uniforms`
    /// give on the serial generator, the stream position after each
    /// included, and that `skip` over the same pairs leaves the same
    /// position.
    fn assert_pairs_match(s: [u64; 4], pops: usize, requests: &[usize]) {
        let (mut ours, mut theirs) = pair_at(s);
        let (mut skipping, _) = pair_at(s);
        for _ in 0..pops {
            assert_eq!(ours.next_u64(), theirs.next_u64());
            skipping.next_u64();
        }
        for (r, &n) in requests.iter().enumerate() {
            let case = format!("pops {pops} requests {requests:?} request {r}");
            let (mut u1, mut u2) = (vec![f64::NAN; n], vec![f64::NAN; n]);
            draw_uniforms(&mut ours, &mut u1, &mut u2);
            for (p, (u1, u2)) in u1.iter().zip(&u2).enumerate() {
                let (v1, v2) = Gaussian::uniforms(&mut theirs);
                assert_eq!(
                    (u1.to_bits(), u2.to_bits()),
                    (v1.to_bits(), v2.to_bits()),
                    "{case} pair {p}"
                );
            }
            // `skip` of an even count draws exactly its pairs' uniforms.
            Gaussian::new().skip(&mut skipping, 2 * n);
            assert_eq!(skipping, ours, "{case}: skip");
        }
        assert_eq!(ours.next_u64(), theirs.next_u64(), "pops {pops} requests {requests:?}");
    }

    #[test]
    fn bulk_pairs_match_serial_uniforms_across_lanes_and_stretches() {
        let (l, w) = (SEGMENT / 2, STRETCH / 2);
        let s = ChipRng::seed_from_u64(41).state();
        // Pair requests that end just before, at and after a lane boundary
        // and a refill, after an even and an odd number of single words
        // (the odd one leaves one word of a pair at the end of a stretch).
        for pops in [0, 1, 2, 3] {
            for requests in [
                vec![l - 1, 1, 1, w - l - 2, 1, 2, 1],
                vec![w, w, 1],
                vec![w - 1, 2, w + 3, 0, 5],
                vec![3 * w + l + 1],
                vec![1; 9],
            ] {
                assert_pairs_match(s, pops, &requests);
            }
        }
    }

    #[test]
    fn zero_u1_words_take_the_serial_retry() {
        // A state whose first word is 5: its uniform is 0, so a `u1` there
        // is redrawn.
        let zero = [0, 0x1234_5678, 0x9ABC_DEF0, 5u64.rotate_right(23)];
        assert_eq!(ChipRng::from_state(zero).next_u64(), 5);
        let (l, w) = (SEGMENT, STRETCH);
        // The zero word first, mid-segment in the first (serially filled)
        // stretch and in a lane-stepped one, at the last word of a segment
        // and of a stretch, and two words after the last; even positions
        // are `u1` words (from the first pair on), odd ones `u2` words.
        for at in [0, 1, 6, l - 1, l + 5, w + l + 6, w + l + 7, 2 * w - 2, 2 * w - 1, 2 * w + 1] {
            let s = step_back(zero, at);
            let mut check = ChipRng::from_state(s);
            for _ in 0..at {
                check.next_u64();
            }
            assert_eq!(check.next_u64(), 5, "the zero word at {at}");
            for pops in [0, 1] {
                assert_pairs_match(s, pops, &[at / 2 + 3, 1, w]);
                assert_pairs_match(s, pops, &[w + l]);
            }
        }
    }

    #[test]
    fn to_uniforms_bodies_agree_with_gen() {
        // Words at the conversion's edges (zero, one, each part's carry,
        // all ones) and random ones.
        let mut rng = SmallRng::seed_from_u64(43);
        let mut words = vec![0, 1 << 11, (1 << 43) - 1, 1 << 43, u64::MAX, u64::MAX << 11];
        words.extend((0..4096).map(|_| rng.next_u64()));
        words.extend((0..64).map(|k| 1u64 << k));
        let n = words.len() / 2;
        let (u1, u2) = assert_levels_agree("words", |isa| {
            let (mut u1, mut u2) = (vec![f64::NAN; n], vec![f64::NAN; n]);
            to_uniforms_at(isa, &words, &mut u1, &mut u2);
            (
                u1.iter().map(|u| u.to_bits()).collect::<Vec<_>>(),
                u2.iter().map(|u| u.to_bits()).collect::<Vec<_>>(),
            )
        });
        for (p, pair) in words.chunks_exact(2).enumerate() {
            let gen = |w: u64| (1.0 / (1u64 << 53) as f64 * (w >> 11) as f64).to_bits();
            assert_eq!((u1[p], u2[p]), (gen(pair[0]), gen(pair[1])), "pair {p}");
        }
    }

    #[test]
    fn clean_pairs_bodies_stop_at_the_first_zero_u1() {
        let mut rng = SmallRng::seed_from_u64(44);
        let words: Vec<u64> = (0..2 * CHUNK).map(|_| rng.next_u64() | 1 << 63).collect();
        let n = CHUNK;
        // Zero `u2` words do not count.
        let mut clean = words.clone();
        clean[1] = 0;
        clean[2 * n - 1] = (1 << 11) - 1;
        assert_eq!(assert_levels_agree("no zero u1", |isa| clean_pairs_at(isa, &clean)), n);
        for zero in [0, 1, 7, n / 2, n - 1] {
            let mut words = clean.clone();
            words[2 * zero] = (1 << 11) - 1;
            // A later zero `u1` word too.
            words[2 * n - 2] = 0;
            let found =
                assert_levels_agree(&format!("zero at {zero}"), |isa| clean_pairs_at(isa, &words));
            assert_eq!(found, zero);
        }
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
