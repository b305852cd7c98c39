//! # stash-ecc — error correction for hidden flash payloads
//!
//! Hidden bits written by VT-HI live deliberately close to a decision
//! threshold inside the natural noise of a flash chip, so their raw BER
//! (0.5%–2%, paper §6.3/§8) is orders of magnitude above public-data BER.
//! The paper over-provisions hidden cells with ECC (Algorithm 1, line 4).
//! This crate implements the one code every configuration uses:
//!
//! * [`gf`] — GF(2^m) arithmetic (log/antilog tables);
//! * [`bch`] — binary BCH codes with syndrome decoding (Berlekamp–Massey +
//!   Chien search), shortened to the hidden-cell budget, over bit slices.
//!
//! ```
//! use stash_ecc::bch::Bch;
//!
//! # fn main() -> Result<(), stash_ecc::DecodeError> {
//! // A BCH code over GF(2^9) correcting 4 errors, shortened to 256 code
//! // bits (the paper's per-page hidden budget): 36 parity, 220 data bits.
//! let code = Bch::new(9, 4, 256).expect("t = 4 fits 256 bits over GF(2^9)");
//! assert_eq!(code.data_len(), 220);
//!
//! let data: Vec<bool> = (0..220).map(|i| i % 3 == 0).collect();
//! let mut stored = code.encode(&data);
//! stored[5] ^= true; // flash flips some cells...
//! stored[99] ^= true;
//! stored[255] ^= true;
//! let recovered = code.decode(&stored)?;
//! assert_eq!(recovered, data);
//! # Ok(())
//! # }
//! ```

pub mod bch;
pub mod gf;

use std::fmt;

/// Decoding failed: the corruption exceeded the code's correction power in a
/// detectable way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// How many errors the decoder believed it saw before giving up.
    pub detected_errors: usize,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "uncorrectable codeword ({}+ errors detected)", self.detected_errors)
    }
}

impl std::error::Error for DecodeError {}

/// Packs bits into bytes, MSB-first (for moving payloads across byte APIs).
pub fn bits_to_bytes(bits: &[bool]) -> Vec<u8> {
    let mut out = vec![0u8; bits.len().div_ceil(8)];
    for (i, &b) in bits.iter().enumerate() {
        if b {
            out[i / 8] |= 1 << (7 - i % 8);
        }
    }
    out
}

/// Unpacks `n` bits from bytes, MSB-first.
///
/// # Panics
///
/// Panics if `bytes` holds fewer than `n` bits.
pub fn bytes_to_bits(bytes: &[u8], n: usize) -> Vec<bool> {
    assert!(bytes.len() * 8 >= n, "need {n} bits, have {}", bytes.len() * 8);
    (0..n).map(|i| bytes[i / 8] >> (7 - i % 8) & 1 == 1).collect()
}

/// Runs `case` on `cases` seeded random streams; a failing case names its
/// seed before the failure propagates.
#[cfg(test)]
fn for_cases(cases: u64, case: impl Fn(&mut rand::rngs::SmallRng) + std::panic::RefUnwindSafe) {
    use rand::SeedableRng;
    for seed in 0..cases {
        let run = || case(&mut rand::rngs::SmallRng::seed_from_u64(seed));
        if let Err(panic) = std::panic::catch_unwind(run) {
            eprintln!("case with seed {seed} failed");
            std::panic::resume_unwind(panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_byte_roundtrip() {
        let bits: Vec<bool> = vec![true, false, true, true, false, false, true, false, true];
        let bytes = bits_to_bytes(&bits);
        assert_eq!(bytes, vec![0b1011_0010, 0b1000_0000]);
        assert_eq!(bytes_to_bits(&bytes, 9), bits);
    }

    #[test]
    fn decode_error_displays() {
        let e = DecodeError { detected_errors: 5 };
        assert!(e.to_string().contains("5"));
    }
}
