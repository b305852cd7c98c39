//! Bit-pattern buffers exchanged with the chip.
//!
//! Flash testers move page-sized bit patterns: the data pattern handed to a
//! `PROGRAM` command, the pattern returned by a `READ`, and the cell masks
//! used by partial programming. [`BitPattern`] is a compact, byte-backed bit
//! vector with MSB-first bit order (bit 0 of the pattern is the most
//! significant bit of byte 0, matching how pages are laid out on the bus).

use serde::{Deserialize, Serialize};
use std::fmt;

use rand::Rng;

use crate::isa::{lanes, LANES};

/// A fixed-length sequence of bits backed by bytes, MSB-first.
#[derive(Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct BitPattern {
    bytes: Vec<u8>,
    len: usize,
}

impl BitPattern {
    /// All-`0` pattern of `len` bits. In flash terms: every cell programmed.
    pub fn zeros(len: usize) -> Self {
        BitPattern { bytes: vec![0u8; len.div_ceil(8)], len }
    }

    /// All-`1` pattern of `len` bits. In flash terms: every cell left erased.
    pub fn ones(len: usize) -> Self {
        let mut p = BitPattern { bytes: vec![0xFFu8; len.div_ceil(8)], len };
        p.mask_tail();
        p
    }

    /// Uniformly random pattern — the "pseudorandom data" the paper programs
    /// when characterizing chips (§4), emulating encrypted public data.
    pub fn random_half<R: Rng + ?Sized>(rng: &mut R, len: usize) -> Self {
        let mut bytes = vec![0u8; len.div_ceil(8)];
        rng.fill(&mut bytes[..]);
        let mut p = BitPattern { bytes, len };
        p.mask_tail();
        p
    }

    /// Builds a pattern from bytes, using the first `len` bits.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` holds fewer than `len` bits.
    pub fn from_bytes(bytes: &[u8], len: usize) -> Self {
        assert!(bytes.len() * 8 >= len, "need {len} bits, got {}", bytes.len() * 8);
        let mut v = bytes[..len.div_ceil(8)].to_vec();
        v.truncate(len.div_ceil(8));
        let mut p = BitPattern { bytes: v, len };
        p.mask_tail();
        p
    }

    /// Builds a pattern of `len` bits from an iterator of booleans
    /// (`true` = bit 1).
    pub fn from_bits<I: IntoIterator<Item = bool>>(len: usize, bits: I) -> Self {
        let mut p = BitPattern::zeros(len);
        let mut n = 0;
        for (i, b) in bits.into_iter().take(len).enumerate() {
            if b {
                p.set(i, true);
            }
            n = i + 1;
        }
        assert_eq!(n, len, "iterator yielded {n} bits, expected {len}");
        p
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the pattern holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing bytes (the final partial byte, if any, is zero-padded).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.bytes[i / 8] >> (7 - (i % 8))) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let mask = 1u8 << (7 - (i % 8));
        if v {
            self.bytes[i / 8] |= mask;
        } else {
            self.bytes[i / 8] &= !mask;
        }
    }

    /// Number of `1` bits (word-at-a-time popcount).
    pub fn count_ones(&self) -> usize {
        let mut chunks = self.bytes.chunks_exact(8);
        let mut ones = 0usize;
        for c in chunks.by_ref() {
            ones += u64::from_ne_bytes(c.try_into().expect("8-byte chunk")).count_ones() as usize;
        }
        ones + chunks.remainder().iter().map(|b| b.count_ones() as usize).sum::<usize>()
    }

    /// Number of `0` bits.
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// Number of differing bit positions between two equal-length patterns.
    ///
    /// BER comparisons over full 18 KB pages are hot in the experiment
    /// harnesses, so the XOR+popcount runs a 64-bit word at a time.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn hamming_distance(&self, other: &BitPattern) -> usize {
        assert_eq!(self.len, other.len, "length mismatch");
        let mut a = self.bytes.chunks_exact(8);
        let mut b = other.bytes.chunks_exact(8);
        let mut diff = 0usize;
        for (ca, cb) in a.by_ref().zip(b.by_ref()) {
            let wa = u64::from_ne_bytes(ca.try_into().expect("8-byte chunk"));
            let wb = u64::from_ne_bytes(cb.try_into().expect("8-byte chunk"));
            diff += (wa ^ wb).count_ones() as usize;
        }
        diff + a
            .remainder()
            .iter()
            .zip(b.remainder())
            .map(|(x, y)| (x ^ y).count_ones() as usize)
            .sum::<usize>()
    }

    /// Crate-internal mutable access to the backing bytes, for bulk pack
    /// kernels. Callers must keep the tail padding bits zero.
    pub(crate) fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    /// Resets to an all-zero pattern of `len` bits, reusing the existing
    /// allocation when capacity allows — the buffer-reuse hook behind
    /// `read_page_shifted_into` and mask-building loops.
    pub fn reset_zeros(&mut self, len: usize) {
        self.bytes.clear();
        self.bytes.resize(len.div_ceil(8), 0);
        self.len = len;
    }

    /// Iterator over the bits as booleans.
    pub fn iter(&self) -> Iter<'_> {
        Iter { pattern: self, idx: 0 }
    }

    /// Ascending indices of the `1` bits (in flash terms: erased cells, or
    /// the cells a mask selects), found a 64-bit word at a time.
    pub(crate) fn iter_ones(&self) -> SetBits<'_> {
        SetBits::new(self)
    }

    /// Sets `masks[g]` to the lane mask ([`LANES`] bits, bit `j` for bit
    /// `first + LANES·g + j`) of the `0` bits, in flash terms the cells a
    /// data pattern programs, from `first` on; returns how many lanes are
    /// set in all. Lanes past the pattern's end stay clear. `first` must be
    /// a multiple of [`LANES`]; groups past the end leave their mask alone.
    pub(crate) fn zero_lanes(&self, first: usize, masks: &mut [u16]) -> usize {
        assert!(first.is_multiple_of(LANES) && first <= self.len, "group start {first}");
        let groups = self.bytes[first / 8..].chunks(LANES / 8);
        let mut n = 0;
        for (g, (mask, pair)) in masks.iter_mut().zip(groups).enumerate() {
            // MSB-first bytes: the big-endian word holds bit `first +
            // LANES·g` at the top, so reversing it puts that bit at lane 0.
            let ones = u16::from_be_bytes([pair[0], pair.get(1).copied().unwrap_or(0)]);
            *mask = !ones.reverse_bits() & lanes(self.len - first - LANES * g);
            n += mask.count_ones() as usize;
        }
        n
    }

    /// Zeroes the padding bits beyond `len` in the final byte so that
    /// byte-level operations (`count_ones`, `hamming_distance`) stay exact.
    fn mask_tail(&mut self) {
        let rem = self.len % 8;
        if rem != 0 {
            if let Some(last) = self.bytes.last_mut() {
                *last &= 0xFFu8 << (8 - rem);
            }
        }
    }
}

impl fmt::Debug for BitPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitPattern({} bits, {} ones)", self.len, self.count_ones())
    }
}

/// Iterator returned by [`BitPattern::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    pattern: &'a BitPattern,
    idx: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        if self.idx < self.pattern.len {
            let b = self.pattern.get(self.idx);
            self.idx += 1;
            Some(b)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.pattern.len - self.idx;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// Iterator returned by [`BitPattern::iter_ones`]: no allocation, one
/// `trailing_zeros` per yielded index.
#[derive(Debug, Clone)]
pub(crate) struct SetBits<'a> {
    words: std::slice::Chunks<'a, u8>,
    len: usize,
    /// Index of the next word's first bit.
    next_base: usize,
    /// Index of bit 0 of `word`.
    base: usize,
    /// Unvisited bits of the current word, bit `j` = pattern bit `base + j`.
    word: u64,
}

impl<'a> SetBits<'a> {
    fn new(pattern: &'a BitPattern) -> Self {
        SetBits { words: pattern.bytes.chunks(8), len: pattern.len, next_base: 0, base: 0, word: 0 }
    }
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            let chunk = self.words.next()?;
            let mut be = [0u8; 8];
            be[..chunk.len()].copy_from_slice(chunk);
            // Big-endian puts pattern bit 0 at the top (MSB-first bytes);
            // keep only bits below `len`, then reverse so bit j is index j.
            let valid = (self.len - self.next_base).min(64);
            let word = u64::from_be_bytes(be) & (u64::MAX << (64 - valid));
            self.word = word.reverse_bits();
            self.base = self.next_base;
            self.next_base += 64;
        }
        let j = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + j)
    }
}

impl<'a> IntoIterator for &'a BitPattern {
    type Item = bool;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<bool> for BitPattern {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let bits: Vec<bool> = iter.into_iter().collect();
        BitPattern::from_bits(bits.len(), bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    #[test]
    fn zeros_and_ones() {
        let z = BitPattern::zeros(13);
        assert_eq!(z.len(), 13);
        assert_eq!(z.count_ones(), 0);
        let o = BitPattern::ones(13);
        assert_eq!(o.count_ones(), 13);
        assert_eq!(o.count_zeros(), 0);
        // Padding bits must not leak into counts.
        assert_eq!(o.as_bytes()[1] & 0b0000_0111, 0);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut p = BitPattern::zeros(20);
        p.set(0, true);
        p.set(7, true);
        p.set(8, true);
        p.set(19, true);
        assert!(p.get(0) && p.get(7) && p.get(8) && p.get(19));
        assert!(!p.get(1) && !p.get(18));
        assert_eq!(p.count_ones(), 4);
        p.set(8, false);
        assert!(!p.get(8));
        assert_eq!(p.count_ones(), 3);
    }

    #[test]
    fn msb_first_layout() {
        let mut p = BitPattern::zeros(8);
        p.set(0, true);
        assert_eq!(p.as_bytes()[0], 0b1000_0000);
        p.set(7, true);
        assert_eq!(p.as_bytes()[0], 0b1000_0001);
    }

    #[test]
    fn hamming_distance_counts_differences() {
        let a = BitPattern::from_bytes(&[0b1010_1010], 8);
        let b = BitPattern::from_bytes(&[0b0101_0101], 8);
        assert_eq!(a.hamming_distance(&b), 8);
        assert_eq!(a.hamming_distance(&a), 0);
    }

    #[test]
    fn random_half_is_roughly_balanced() {
        let mut rng = SmallRng::seed_from_u64(7);
        let p = BitPattern::random_half(&mut rng, 80_000);
        let ones = p.count_ones() as f64 / 80_000.0;
        assert!((0.48..0.52).contains(&ones), "ones fraction {ones}");
    }

    #[test]
    fn from_bits_and_iter_roundtrip() {
        let bits = [true, false, true, true, false];
        let p = BitPattern::from_bits(5, bits.iter().copied());
        let back: Vec<bool> = p.iter().collect();
        assert_eq!(back, bits);
    }

    #[test]
    fn collect_from_iterator() {
        let p: BitPattern = [true, true, false].into_iter().collect();
        assert_eq!(p.len(), 3);
        assert_eq!(p.count_ones(), 2);
    }

    #[test]
    fn set_bit_walks_match_get() {
        let mut rng = SmallRng::seed_from_u64(11);
        for len in [0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 1000, 144_384] {
            let random = BitPattern::random_half(&mut rng, len);
            for p in [BitPattern::zeros(len), BitPattern::ones(len), random] {
                let ones: Vec<usize> = (0..len).filter(|&i| p.get(i)).collect();
                assert_eq!(p.iter_ones().collect::<Vec<_>>(), ones, "len {len}");
            }
        }
        let sparse = BitPattern::from_bits(200, (0..200).map(|i| i == 0 || i == 64 || i == 199));
        assert_eq!(sparse.iter_ones().collect::<Vec<_>>(), [0, 64, 199]);
    }

    #[test]
    fn zero_lanes_match_get() {
        let mut rng = SmallRng::seed_from_u64(12);
        for len in [0, 1, 8, 15, 16, 17, 24, 2048, 2056, 144_384] {
            let random = BitPattern::random_half(&mut rng, len);
            for p in [BitPattern::zeros(len), BitPattern::ones(len), random] {
                for first in (0..=len).step_by(2048) {
                    let mut masks = vec![0xA5A5u16; (len - first).div_ceil(LANES) + 1];
                    let n = p.zero_lanes(first, &mut masks);
                    let zeros: Vec<usize> = (first..len).filter(|&i| !p.get(i)).collect();
                    let set: Vec<usize> = (0..LANES * (masks.len() - 1))
                        .filter(|&i| masks[i / LANES] >> (i % LANES) & 1 != 0)
                        .map(|i| first + i)
                        .collect();
                    assert_eq!(set, zeros, "len {len} from {first}");
                    assert_eq!(n, zeros.len());
                    assert_eq!(masks.last(), Some(&0xA5A5), "a group past the end is left alone");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitPattern::zeros(4).get(4);
    }

    #[test]
    fn debug_nonempty() {
        assert!(!format!("{:?}", BitPattern::zeros(0)).is_empty());
    }

    /// Runs `case` on 256 seeded random streams; a failing case names its
    /// seed before the failure propagates.
    fn for_cases(case: impl Fn(&mut SmallRng) + std::panic::RefUnwindSafe) {
        for seed in 0..256u64 {
            let run = || case(&mut SmallRng::seed_from_u64(seed));
            if let Err(panic) = std::panic::catch_unwind(run) {
                eprintln!("case with seed {seed} failed");
                std::panic::resume_unwind(panic);
            }
        }
    }

    #[test]
    fn prop_roundtrip_bytes() {
        for_cases(|rng| {
            let bytes: Vec<u8> = (0..rng.gen_range(1..64)).map(|_| rng.gen()).collect();
            let len = bytes.len() * 8;
            let p = BitPattern::from_bytes(&bytes, len);
            assert_eq!(p.as_bytes(), &bytes[..]);
            for i in 0..len {
                assert_eq!(p.get(i), (bytes[i / 8] >> (7 - i % 8)) & 1 == 1);
            }
        });
    }

    #[test]
    fn prop_hamming_symmetric() {
        for_cases(|rng| {
            let pa = BitPattern::from_bytes(&rng.gen::<u64>().to_be_bytes(), 64);
            let pb = BitPattern::from_bytes(&rng.gen::<u64>().to_be_bytes(), 64);
            assert_eq!(pa.hamming_distance(&pb), pb.hamming_distance(&pa));
        });
    }

    #[test]
    fn prop_ones_zeros_sum() {
        for_cases(|rng| {
            let len = rng.gen_range(1usize..200);
            let p = BitPattern::random_half(rng, len);
            assert_eq!(p.count_ones() + p.count_zeros(), len);
        });
    }
}
