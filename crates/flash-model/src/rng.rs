//! The chip's deterministic RNG.
//!
//! [`ChipRng`] is an in-crate xoshiro256++ generator, stream-compatible
//! with `rand::rngs::SmallRng` on 64-bit targets (same state layout, same
//! output function, same SplitMix64 `seed_from_u64` expansion). Owning the
//! implementation buys two things `SmallRng` cannot offer: the raw state
//! words are readable and writable, so a [`Chip`](crate::Chip) can be
//! checkpointed to disk and restored mid-run by the snapshot middleware
//! without perturbing any random stream, and the stream can be generated
//! many words at a time.
//!
//! One xoshiro256++ step depends on the one before it, so a serial loop
//! runs at the latency of that chain. `ChipRng` instead produces the same
//! stream a *stretch* of `STRETCH` words at a time, in `LANES` lanes:
//! lane `j` holds the generator state at word `j·SEGMENT` of the stretch
//! and steps through its own `SEGMENT` words, so the lanes are
//! independent chains that one vector register steps together
//! (`lane_step_at`, on the `isa` ladder). The words land in stream order,
//! and scalar pops ([`RngCore::next_u64`]) and bulk takes (`buffered` and
//! `advance`, behind the noise kernels' uniform pairs) read the same
//! buffer.
//!
//! After a stretch, lane `j` stands where lane `j + 1` began, and the next
//! stretch needs it `(LANES − 1)·SEGMENT` steps further on. xoshiro's state
//! update is linear over GF(2), so that distance is one 256×256 bit
//! matrix, applied as a table of 64 nibbles × 16 entries built once per
//! process (`jump`). Lane 0's next start is where the last lane ended.
//!
//! Nothing about the stream changes: every word is the word the serial
//! generator would give at that position, and [`state`](ChipRng::state)
//! rebuilds the serial state from the current lane's start and fewer than
//! `SEGMENT` steps, so snapshots and [`from_state`](ChipRng::from_state)
//! mean what they meant. A consumer that redraws a word (the Box–Muller
//! sampler rejects a zero `u1`) shifts every later position, so a bulk take
//! that meets one draws that pair by scalar pops from that exact word.
//! The first draw fills the first stretch serially (a `ChipRng` is built
//! without touching the buffer, which a stretch allocates), and the lanes
//! take over from the second.
//!
//! The stream-equivalence tests below pin this against `SmallRng`; if the
//! `rand` crate ever changes its `SmallRng` algorithm, they fail loudly
//! rather than silently re-randomizing every simulated chip.

use crate::isa::{Isa, Level};
use rand::{RngCore, SeedableRng};
use std::sync::LazyLock;

/// Independent generator chains per stretch: one `u64` per lane of an
/// AVX-512 register.
pub(crate) const LANES: usize = 8;
/// Consecutive stream words each lane produces per stretch.
pub(crate) const SEGMENT: usize = 512;
/// Stream words per stretch (32 KB).
pub(crate) const STRETCH: usize = LANES * SEGMENT;

/// xoshiro256++ with accessible state. Drop-in for `SmallRng` in the
/// simulator; see the module docs.
#[derive(Clone)]
pub struct ChipRng {
    /// Each lane's state at the start of its segment of the current
    /// stretch.
    starts: [[u64; 4]; LANES],
    /// The state after the current stretch (before the first draw: the
    /// state of the first word).
    next: [u64; 4],
    /// The current stretch's words in stream order; empty before the first
    /// draw.
    words: Box<[u64]>,
    /// The next word of `words` to hand out; `STRETCH` once they are all
    /// out.
    pos: usize,
}

impl ChipRng {
    /// The raw state words (for snapshotting): the serial generator's state
    /// before the next word.
    pub fn state(&self) -> [u64; 4] {
        if self.pos == STRETCH {
            return self.next;
        }
        let mut s = self.starts[self.pos / SEGMENT];
        for _ in 0..self.pos % SEGMENT {
            step(&mut s);
        }
        s
    }

    /// Rebuilds a generator from raw state words (snapshot restore). The
    /// all-zero state is a fixed point of xoshiro and is nudged to the
    /// `seed_from_u64(0)` state instead.
    pub fn from_state(s: [u64; 4]) -> Self {
        if s == [0; 4] {
            return ChipRng::seed_from_u64(0);
        }
        ChipRng { starts: [[0; 4]; LANES], next: s, words: Box::default(), pos: STRETCH }
    }

    /// The current stretch's words not handed out yet, in stream order,
    /// after refilling a spent stretch, so never empty.
    /// [`advance`](Self::advance) hands out a prefix.
    pub(crate) fn buffered(&mut self) -> &[u64] {
        if self.pos == STRETCH {
            self.refill();
        }
        &self.words[self.pos..]
    }

    /// Hands out the next `n` words of [`buffered`](Self::buffered).
    pub(crate) fn advance(&mut self, n: usize) {
        assert!(n <= STRETCH - self.pos, "{n} words past the stretch");
        self.pos += n;
    }

    /// Generates the stretch after the current one.
    #[cold]
    #[inline(never)]
    fn refill(&mut self) {
        if self.words.is_empty() {
            // The first stretch: its lanes' starts come from a serial pass.
            self.words = vec![0; STRETCH].into_boxed_slice();
            let mut s = self.next;
            for (start, segment) in self.starts.iter_mut().zip(self.words.chunks_mut(SEGMENT)) {
                *start = s;
                segment.fill_with(|| step(&mut s));
            }
            self.next = s;
        } else {
            // Lane `j` ended where lane `j + 1` began; its next segment
            // starts `(LANES − 1)·SEGMENT` steps on. The last lane ended
            // where lane 0's next segment starts.
            let ended = self.starts;
            self.starts[0] = self.next;
            for j in 1..LANES {
                let end = if j + 1 < LANES { ended[j + 1] } else { self.next };
                self.starts[j] = jump(&end);
            }
            let mut lanes: [[u64; LANES]; 4] =
                std::array::from_fn(|k| std::array::from_fn(|j| self.starts[j][k]));
            let words = self.words.as_mut().try_into().expect("a stretch of words");
            lane_step_at(Isa::detected(), &mut lanes, words);
            self.next = std::array::from_fn(|k| lanes[k][LANES - 1]);
        }
        self.pos = 0;
    }
}

impl PartialEq for ChipRng {
    /// Two generators are equal when they stand at the same stream position.
    fn eq(&self, other: &Self) -> bool {
        self.state() == other.state()
    }
}

impl Eq for ChipRng {}

impl std::fmt::Debug for ChipRng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChipRng").field("s", &self.state()).finish()
    }
}

/// One serial xoshiro256++ step: the output word, and `s` advanced.
#[inline(always)]
fn step(s: &mut [u64; 4]) -> u64 {
    let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
    advance_state(s);
    result
}

/// The linear state update of one xoshiro256 step.
#[inline(always)]
fn advance_state(s: &mut [u64; 4]) {
    let t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
}

/// Steps between a lane's end and its next start.
const JUMP_STEPS: usize = (LANES - 1) * SEGMENT;

/// The `JUMP_STEPS`-step state update as a GF(2) matrix, by nibbles: entry
/// `[n][v]` is the image of the state whose nibble `n` (bits `4n..4n + 4`
/// of the 256-bit state, word `n / 16` first) is `v` and whose other bits
/// are clear. 32 KB, built on first use from the images of the 256 unit
/// states.
static JUMP: LazyLock<Box<[[[u64; 4]; 16]; 64]>> = LazyLock::new(|| {
    let image = |bit: usize| {
        let mut s = [0u64; 4];
        s[bit / 64] = 1 << (bit % 64);
        for _ in 0..JUMP_STEPS {
            advance_state(&mut s);
        }
        s
    };
    let mut table = Box::new([[[0u64; 4]; 16]; 64]);
    for (n, entries) in table.iter_mut().enumerate() {
        let columns: [[u64; 4]; 4] = std::array::from_fn(|b| image(4 * n + b));
        for (v, entry) in entries.iter_mut().enumerate() {
            for (b, column) in columns.iter().enumerate() {
                if v >> b & 1 != 0 {
                    for (e, c) in entry.iter_mut().zip(column) {
                        *e ^= c;
                    }
                }
            }
        }
    }
    table
});

/// The state `(LANES − 1)·SEGMENT` steps after `s` (see [`JUMP`]).
pub(crate) fn jump(s: &[u64; 4]) -> [u64; 4] {
    let mut out = [0u64; 4];
    for (n, entries) in JUMP.iter().enumerate() {
        let nibble = (s[n / 16] >> (4 * (n % 16))) & 15;
        for (o, e) in out.iter_mut().zip(&entries[nibble as usize]) {
            *o ^= e;
        }
    }
    out
}

/// Steps every lane through its segment: `words[j·SEGMENT + i]` gets lane
/// `j`'s `i`-th output, and `lanes` (word `k` of lane `j`'s state at
/// `lanes[k][j]`) ends at the states after the segments. Every level
/// writes the same words.
///
/// Each level steps as many lanes per register as it holds (two, four or
/// eight), and transposes each block of outputs in registers, so each
/// lane's words are stored contiguously. A shared body would not do:
/// compiled for eight lanes, it scatters every output word on its own, and
/// eight chains of scalar state spill registers.
pub(crate) fn lane_step_at(isa: Isa, lanes: &mut [[u64; LANES]; 4], words: &mut [u64; STRETCH]) {
    match isa.level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an `Isa` is only built by detection, which gives this
        // level only when the CPU offers AVX-512F.
        Level::Avx512 => unsafe { lane_step_avx512(lanes, words) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above, for AVX2.
        Level::Avx2 => unsafe { lane_step_avx2(lanes, words) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: every x86-64 CPU offers SSE2.
        Level::Portable => unsafe { lane_step_sse2(lanes, words) },
        #[cfg(not(target_arch = "x86_64"))]
        Level::Portable => {
            for (j, segment) in words.chunks_exact_mut(SEGMENT).enumerate() {
                let mut s = lanes.map(|word| word[j]);
                segment.fill_with(|| step(&mut s));
                for (word, s) in lanes.iter_mut().zip(s) {
                    word[j] = s;
                }
            }
        }
    }
}

/// [`lane_step_at`]'s portable body on x86-64, where SSE2 is baseline:
/// two lanes per register, two registers stepped together (four lanes at
/// a time), and a 2×2 transpose per two steps.
///
/// # Safety
///
/// The CPU must offer SSE2, as every x86-64 CPU does.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn lane_step_sse2(lanes: &mut [[u64; LANES]; 4], words: &mut [u64; STRETCH]) {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi64, _mm_loadu_si128, _mm_or_si128, _mm_slli_epi64, _mm_srli_epi64,
        _mm_storeu_si128, _mm_unpackhi_epi64, _mm_unpacklo_epi64, _mm_xor_si128,
    };
    macro_rules! rotl {
        ($x:expr, $k:literal) => {
            _mm_or_si128(_mm_slli_epi64::<$k>($x), _mm_srli_epi64::<{ 64 - $k }>($x))
        };
    }
    let out = words.as_mut_ptr();
    for quad in (0..LANES).step_by(4) {
        // SAFETY (loads and stores): two `u64`s from lane `quad + 2g` on.
        let mut s: [[__m128i; 4]; 2] = std::array::from_fn(|g| {
            std::array::from_fn(|k| unsafe {
                _mm_loadu_si128(lanes[k][quad + 2 * g..].as_ptr().cast())
            })
        });
        for i in (0..SEGMENT).step_by(2) {
            for (g, [s0, s1, s2, s3]) in s.iter_mut().enumerate() {
                let r: [__m128i; 2] = std::array::from_fn(|_| {
                    let r = _mm_add_epi64(rotl!(_mm_add_epi64(*s0, *s3), 23), *s0);
                    let t = _mm_slli_epi64::<17>(*s1);
                    *s2 = _mm_xor_si128(*s2, *s0);
                    *s3 = _mm_xor_si128(*s3, *s1);
                    *s1 = _mm_xor_si128(*s1, *s2);
                    *s0 = _mm_xor_si128(*s0, *s3);
                    *s2 = _mm_xor_si128(*s2, t);
                    *s3 = rotl!(*s3, 45);
                    r
                });
                let j = quad + 2 * g;
                // SAFETY: words `j·SEGMENT + i..+2` and `(j + 1)·SEGMENT +
                // i..+2` lie in the stretch.
                unsafe {
                    _mm_storeu_si128(
                        out.add(j * SEGMENT + i).cast(),
                        _mm_unpacklo_epi64(r[0], r[1]),
                    );
                    _mm_storeu_si128(
                        out.add((j + 1) * SEGMENT + i).cast(),
                        _mm_unpackhi_epi64(r[0], r[1]),
                    );
                }
            }
        }
        for (g, s) in s.iter().enumerate() {
            for (row, s) in lanes.iter_mut().zip(s) {
                unsafe { _mm_storeu_si128(row[quad + 2 * g..].as_mut_ptr().cast(), *s) };
            }
        }
    }
}

/// [`lane_step_at`]'s AVX2 body: two registers of four lanes each, and a
/// 4×4 transpose per four steps.
///
/// # Safety
///
/// The CPU must offer AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lane_step_avx2(lanes: &mut [[u64; LANES]; 4], words: &mut [u64; STRETCH]) {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_loadu_si256, _mm256_or_si256, _mm256_permute2x128_si256,
        _mm256_slli_epi64, _mm256_srli_epi64, _mm256_storeu_si256, _mm256_unpackhi_epi64,
        _mm256_unpacklo_epi64, _mm256_xor_si256,
    };
    macro_rules! rotl {
        ($x:expr, $k:literal) => {
            _mm256_or_si256(_mm256_slli_epi64::<$k>($x), _mm256_srli_epi64::<{ 64 - $k }>($x))
        };
    }
    // SAFETY (loads and stores): each half of a lane row is four `u64`s.
    let mut s: [[__m256i; 4]; 2] = std::array::from_fn(|g| {
        std::array::from_fn(|k| unsafe { _mm256_loadu_si256(lanes[k][4 * g..].as_ptr().cast()) })
    });
    let out = words.as_mut_ptr();
    for i in (0..SEGMENT).step_by(4) {
        for (g, [s0, s1, s2, s3]) in s.iter_mut().enumerate() {
            let r: [__m256i; 4] = std::array::from_fn(|_| {
                let r = _mm256_add_epi64(rotl!(_mm256_add_epi64(*s0, *s3), 23), *s0);
                let t = _mm256_slli_epi64::<17>(*s1);
                *s2 = _mm256_xor_si256(*s2, *s0);
                *s3 = _mm256_xor_si256(*s3, *s1);
                *s1 = _mm256_xor_si256(*s1, *s2);
                *s0 = _mm256_xor_si256(*s0, *s3);
                *s2 = _mm256_xor_si256(*s2, t);
                *s3 = rotl!(*s3, 45);
                r
            });
            // `r[k]` holds step `k` of four lanes; `c[j]`, lane `j`'s four
            // steps.
            let a0 = _mm256_unpacklo_epi64(r[0], r[1]);
            let a1 = _mm256_unpackhi_epi64(r[0], r[1]);
            let a2 = _mm256_unpacklo_epi64(r[2], r[3]);
            let a3 = _mm256_unpackhi_epi64(r[2], r[3]);
            let c = [
                _mm256_permute2x128_si256::<0x20>(a0, a2),
                _mm256_permute2x128_si256::<0x20>(a1, a3),
                _mm256_permute2x128_si256::<0x31>(a0, a2),
                _mm256_permute2x128_si256::<0x31>(a1, a3),
            ];
            for (j, c) in c.into_iter().enumerate() {
                // SAFETY: words `(4g + j)·SEGMENT + i..+4` lie in the
                // stretch.
                unsafe { _mm256_storeu_si256(out.add((4 * g + j) * SEGMENT + i).cast(), c) };
            }
        }
    }
    for (g, s) in s.iter().enumerate() {
        for (row, s) in lanes.iter_mut().zip(s) {
            unsafe { _mm256_storeu_si256(row[4 * g..].as_mut_ptr().cast(), *s) };
        }
    }
}

/// [`lane_step_at`]'s AVX-512F body: one register of eight lanes, `vprolq`
/// for the rotates, and an 8×8 transpose per eight steps.
///
/// # Safety
///
/// The CPU must offer AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn lane_step_avx512(lanes: &mut [[u64; LANES]; 4], words: &mut [u64; STRETCH]) {
    use std::arch::x86_64::{
        __m512i, _mm512_add_epi64, _mm512_loadu_si512, _mm512_permutex2var_epi64, _mm512_rol_epi64,
        _mm512_set_epi64, _mm512_slli_epi64, _mm512_storeu_si512, _mm512_unpackhi_epi64,
        _mm512_unpacklo_epi64, _mm512_xor_si512,
    };
    // SAFETY (loads and stores): a lane row is eight `u64`s.
    let [mut s0, mut s1, mut s2, mut s3] =
        std::array::from_fn(|k| unsafe { _mm512_loadu_si512(lanes[k].as_ptr().cast()) });
    let out = words.as_mut_ptr();
    // Index vectors of the transpose's second and third rounds (`vpermt2q`
    // picks lanes 0–7 from its first operand and 8–15 from its second).
    let (pair_lo, pair_hi) =
        (_mm512_set_epi64(13, 12, 5, 4, 9, 8, 1, 0), _mm512_set_epi64(15, 14, 7, 6, 11, 10, 3, 2));
    let (quad_lo, quad_hi) =
        (_mm512_set_epi64(11, 10, 9, 8, 3, 2, 1, 0), _mm512_set_epi64(15, 14, 13, 12, 7, 6, 5, 4));
    for i in (0..SEGMENT).step_by(8) {
        let r: [__m512i; 8] = std::array::from_fn(|_| {
            let r = _mm512_add_epi64(_mm512_rol_epi64::<23>(_mm512_add_epi64(s0, s3)), s0);
            let t = _mm512_slli_epi64::<17>(s1);
            s2 = _mm512_xor_si512(s2, s0);
            s3 = _mm512_xor_si512(s3, s1);
            s1 = _mm512_xor_si512(s1, s2);
            s0 = _mm512_xor_si512(s0, s3);
            s2 = _mm512_xor_si512(s2, t);
            s3 = _mm512_rol_epi64::<45>(s3);
            r
        });
        // `r[k]` holds step `k` of every lane. Round one interleaves step
        // pairs, round two step quads, round three the two halves, leaving
        // lane `j`'s eight steps in `c[j]`.
        let a: [__m512i; 8] = std::array::from_fn(|m| {
            let (x, y) = (r[m & !1], r[m | 1]);
            if m % 2 == 0 {
                _mm512_unpacklo_epi64(x, y)
            } else {
                _mm512_unpackhi_epi64(x, y)
            }
        });
        let b: [__m512i; 8] = std::array::from_fn(|m| {
            let (base, index) = (4 * (m / 4) + m % 2, if m % 4 < 2 { pair_lo } else { pair_hi });
            _mm512_permutex2var_epi64(a[base], index, a[base + 2])
        });
        let c: [__m512i; 8] = std::array::from_fn(|j| {
            let index = if j < 4 { quad_lo } else { quad_hi };
            _mm512_permutex2var_epi64(b[j % 4], index, b[j % 4 + 4])
        });
        for (j, c) in c.into_iter().enumerate() {
            // SAFETY: words `j·SEGMENT + i..+8` lie in the stretch.
            unsafe { _mm512_storeu_si512(out.add(j * SEGMENT + i).cast(), c) };
        }
    }
    for (row, s) in lanes.iter_mut().zip([s0, s1, s2, s3]) {
        unsafe { _mm512_storeu_si512(row.as_mut_ptr().cast(), s) };
    }
}

impl RngCore for ChipRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        if self.pos == STRETCH {
            self.refill();
        }
        let word = self.words[self.pos];
        self.pos += 1;
        word
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

impl SeedableRng for ChipRng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut s = [0u64; 4];
        for (word, chunk) in s.iter_mut().zip(seed.chunks(8)) {
            let mut b = [0u8; 8];
            b.copy_from_slice(chunk);
            *word = u64::from_le_bytes(b);
        }
        ChipRng::from_state(s)
    }

    /// SplitMix64 seed expansion, matching `SmallRng::seed_from_u64` (the
    /// xoshiro reference seeding) rather than the `SeedableRng` provided
    /// default, so the two generators stay stream-identical.
    fn seed_from_u64(mut state: u64) -> Self {
        let mut s = [0u64; 4];
        for word in &mut s {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *word = z ^ (z >> 31);
        }
        ChipRng::from_state(s)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::isa::tests::assert_levels_agree;
    use rand::{rngs::SmallRng, Rng};

    #[test]
    fn stream_matches_smallrng_u64() {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF, u64::MAX] {
            let mut ours = ChipRng::seed_from_u64(seed);
            let mut theirs = SmallRng::seed_from_u64(seed);
            for i in 0..256 {
                assert_eq!(ours.next_u64(), theirs.next_u64(), "seed {seed} word {i}");
            }
        }
    }

    #[test]
    fn stream_matches_smallrng_distributions() {
        // The chip consumes its RNG through `Rng` adapters (`gen::<f64>`,
        // `gen_range` over ints and floats); all must agree byte-for-byte.
        let mut ours = ChipRng::seed_from_u64(7);
        let mut theirs = SmallRng::seed_from_u64(7);
        for _ in 0..128 {
            assert_eq!(ours.gen::<f64>().to_bits(), theirs.gen::<f64>().to_bits());
            assert_eq!(ours.gen_range(0..1443usize), theirs.gen_range(0..1443usize));
            assert_eq!(
                ours.gen_range(0.0..255.0f32).to_bits(),
                theirs.gen_range(0.0..255.0f32).to_bits()
            );
        }
    }

    #[test]
    fn state_roundtrip_resumes_stream() {
        let mut a = ChipRng::seed_from_u64(99);
        for _ in 0..37 {
            a.next_u64();
        }
        let mut b = ChipRng::from_state(a.state());
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn zero_state_is_nudged() {
        let mut z = ChipRng::from_state([0; 4]);
        assert_ne!(z.next_u64(), 0, "all-zero xoshiro state would be a fixed point");
        assert_eq!(ChipRng::from_state([0; 4]), ChipRng::seed_from_u64(0));
    }

    #[test]
    fn fill_bytes_is_le_words() {
        let mut a = ChipRng::seed_from_u64(3);
        let mut b = ChipRng::seed_from_u64(3);
        let mut buf = [0u8; 20];
        a.fill_bytes(&mut buf);
        let w0 = b.next_u64().to_le_bytes();
        assert_eq!(&buf[..8], &w0);
    }

    /// The serial state `steps` steps before `s` (xoshiro256's update is
    /// invertible), for placing a chosen word mid-stretch.
    pub(crate) fn step_back(mut s: [u64; 4], steps: usize) -> [u64; 4] {
        /// Inverts `x ^= x << k` on a 64-bit word.
        fn unshift_left(x: u64, k: u32) -> u64 {
            let mut y = x;
            let mut shift = k;
            while shift < 64 {
                y ^= x << shift;
                shift += k;
            }
            y
        }
        for _ in 0..steps {
            // One step maps (s0, s1, s2, s3) to (s0 ^ s1 ^ s3,
            // s0 ^ s1 ^ s2, s0 ^ s2 ^ (s1 << 17), rotl(s1 ^ s3, 45)).
            let d = s[3].rotate_right(45);
            let s0 = s[0] ^ d;
            let s1 = unshift_left(s[1] ^ s[2], 17);
            let s2 = s[1] ^ s1 ^ s0;
            s = [s0, s1, s2, d ^ s1];
        }
        s
    }

    #[test]
    fn stepping_back_inverts_the_update() {
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..100 {
            let s: [u64; 4] = std::array::from_fn(|_| rng.gen());
            let mut t = step_back(s, 3);
            for _ in 0..3 {
                advance_state(&mut t);
            }
            assert_eq!(t, s);
        }
    }

    #[test]
    fn jump_table_equals_serial_steps() {
        let mut rng = SmallRng::seed_from_u64(12);
        for _ in 0..16 {
            let s: [u64; 4] = std::array::from_fn(|_| rng.gen());
            let mut serial = s;
            for _ in 0..JUMP_STEPS {
                advance_state(&mut serial);
            }
            assert_eq!(jump(&s), serial);
        }
    }

    #[test]
    fn lane_step_levels_agree_with_serial_lanes() {
        let mut rng = SmallRng::seed_from_u64(13);
        let starts: [[u64; 4]; LANES] = std::array::from_fn(|_| std::array::from_fn(|_| rng.gen()));
        let (words, ends) = assert_levels_agree("lane step", |isa| {
            let mut lanes = std::array::from_fn(|k| std::array::from_fn(|j| starts[j][k]));
            let mut words = Box::new([0u64; STRETCH]);
            lane_step_at(isa, &mut lanes, &mut words);
            (words, lanes)
        });
        for (j, segment) in words.chunks(SEGMENT).enumerate() {
            let mut s = starts[j];
            let serial: Vec<u64> = (0..SEGMENT).map(|_| step(&mut s)).collect();
            assert_eq!(segment, serial, "lane {j}");
            assert_eq!(ends.map(|word| word[j]), s, "lane {j} end");
        }
    }

    #[test]
    fn stream_matches_serial_across_stretches() {
        // Mixed scalar pops and bulk takes over several refills.
        let mut ours = ChipRng::seed_from_u64(5);
        let mut theirs = SmallRng::seed_from_u64(5);
        let mut taken = 0;
        for take in [1usize, 7, SEGMENT - 8, 1, STRETCH, 3, 2 * STRETCH + 5, 0, 100] {
            let mut left = take;
            while left > 0 {
                let words = ours.buffered();
                let n = words.len().min(left);
                let want: Vec<u64> = (0..n).map(|_| theirs.next_u64()).collect();
                assert_eq!(&words[..n], want, "after {taken} words");
                ours.advance(n);
                left -= n;
                taken += n;
            }
            assert_eq!(ours.next_u64(), theirs.next_u64(), "after {taken} words");
            taken += 1;
        }
    }

    #[test]
    fn state_and_snapshots_hold_at_every_boundary() {
        let (l, s) = (SEGMENT, STRETCH);
        for at in [0, 1, l - 1, l, l + 1, s - 1, s, s + 1, 2 * s - 1, 2 * s, 2 * s + l + 3] {
            let mut ours = ChipRng::seed_from_u64(21);
            let mut theirs = SmallRng::seed_from_u64(21);
            // Step the reference by hand to know its state.
            let mut state = ChipRng::seed_from_u64(21).state();
            for _ in 0..at {
                assert_eq!(ours.next_u64(), theirs.next_u64());
                step(&mut state);
            }
            assert_eq!(ours.state(), state, "state at {at}");
            let mut restored = ChipRng::from_state(ours.state());
            assert_eq!(restored, ours, "equality at {at}");
            let mut clone = ours.clone();
            for i in 0..s + 2 {
                let want = theirs.next_u64();
                assert_eq!(ours.next_u64(), want, "word {i} after {at}");
                assert_eq!(restored.next_u64(), want, "restored word {i} after {at}");
                assert_eq!(clone.next_u64(), want, "cloned word {i} after {at}");
            }
        }
    }

    #[test]
    fn equality_compares_stream_positions() {
        let mut a = ChipRng::seed_from_u64(8);
        let b = ChipRng::seed_from_u64(8);
        a.next_u64();
        assert_ne!(a, b);
        let mut b = b;
        b.next_u64();
        assert_eq!(a, b);
        // One generator mid-stretch, the other not yet filled.
        assert_eq!(ChipRng::from_state(a.state()), a);
    }
}
