//! Reed–Solomon codes over GF(2^8) — the classic flash-controller ECC
//! generation before BCH/LDPC took over. Byte-symbol codes complement the
//! bit-oriented BCH: a burst of up to 8 adjacent bit errors lands in at
//! most two symbols.
//!
//! Systematic encoding; decoding by syndromes, Berlekamp–Massey, Chien
//! search and the Forney algorithm.

use crate::gf::GaloisField;
use crate::DecodeError;
use std::fmt;

/// A shortened Reed–Solomon code RS(n, k) over GF(2^8), n ≤ 255.
pub struct ReedSolomon {
    field: GaloisField,
    n: usize,
    k: usize,
    /// Generator polynomial coefficients, ascending, degree n−k.
    generator: Vec<u16>,
}

impl fmt::Debug for ReedSolomon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ReedSolomon(n={}, k={}, t={})", self.n, self.k, self.t())
    }
}

impl ReedSolomon {
    /// Creates RS(n, k): `n` total symbols, `k` data symbols, correcting
    /// `(n-k)/2` symbol errors.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < k < n <= 255` and `n - k` is even.
    pub fn new(n: usize, k: usize) -> Self {
        assert!(k > 0 && k < n && n <= 255, "invalid RS({n},{k})");
        assert!((n - k).is_multiple_of(2), "parity symbol count must be even");
        let field = GaloisField::new(8);
        // g(x) = Π_{i=1..n-k} (x − α^i)
        let mut generator: Vec<u16> = vec![1];
        for i in 1..=(n - k) {
            let root = field.alpha_pow(i);
            let mut next = vec![0u16; generator.len() + 1];
            for (d, &c) in generator.iter().enumerate() {
                next[d + 1] ^= c;
                next[d] ^= field.mul(c, root);
            }
            generator = next;
        }
        ReedSolomon { field, n, k, generator }
    }

    /// Total symbols per codeword.
    pub fn code_symbols(&self) -> usize {
        self.n
    }

    /// Data symbols per codeword.
    pub fn data_symbols(&self) -> usize {
        self.k
    }

    /// Symbol-error correction capability.
    pub fn t(&self) -> usize {
        (self.n - self.k) / 2
    }

    /// Encodes `k` data bytes into an `n`-byte systematic codeword
    /// (parity first, data after — matching the BCH layout).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != k`.
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        assert_eq!(data.len(), self.k, "data length mismatch");
        let parity_len = self.n - self.k;
        // Remainder of data(x)·x^parity mod g(x).
        let mut rem = vec![0u16; parity_len];
        for &byte in data.iter().rev() {
            let feedback = rem[parity_len - 1] ^ u16::from(byte);
            for i in (1..parity_len).rev() {
                rem[i] = rem[i - 1] ^ self.field.mul(feedback, self.generator[i]);
            }
            rem[0] = self.field.mul(feedback, self.generator[0]);
        }
        let mut out: Vec<u8> = rem.iter().map(|&s| s as u8).collect();
        out.extend_from_slice(data);
        out
    }

    /// Decodes an `n`-byte word, correcting up to `t()` symbol errors.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] when corruption exceeds the correction power
    /// detectably.
    ///
    /// # Panics
    ///
    /// Panics if `word.len() != n`.
    pub fn decode(&self, word: &[u8]) -> Result<Vec<u8>, DecodeError> {
        assert_eq!(word.len(), self.n, "codeword length mismatch");
        let f = &self.field;
        let parity_len = self.n - self.k;

        // Syndromes S_i = r(α^i), i = 1..n-k.
        let mut syn = vec![0u16; parity_len];
        let mut all_zero = true;
        for (i, s) in syn.iter_mut().enumerate() {
            let x = f.alpha_pow(i + 1);
            let mut acc = 0u16;
            for &byte in word.iter().rev() {
                acc = f.mul(acc, x) ^ u16::from(byte);
            }
            *s = acc;
            all_zero &= acc == 0;
        }
        if all_zero {
            return Ok(word[parity_len..].to_vec());
        }

        // Berlekamp–Massey for the error-locator polynomial σ(x).
        let mut sigma: Vec<u16> = vec![1];
        let mut b: Vec<u16> = vec![1];
        let mut l = 0usize;
        let mut m = 1usize;
        let mut bb = 1u16;
        for nn in 0..parity_len {
            let mut d = syn[nn];
            for i in 1..=l.min(sigma.len() - 1) {
                d ^= f.mul(sigma[i], syn[nn - i]);
            }
            if d == 0 {
                m += 1;
            } else if 2 * l <= nn {
                let t_poly = sigma.clone();
                let scale = f.div(d, bb);
                sigma = sub_scaled_shift(f, &sigma, &b, scale, m);
                l = nn + 1 - l;
                b = t_poly;
                bb = d;
                m = 1;
            } else {
                let scale = f.div(d, bb);
                sigma = sub_scaled_shift(f, &sigma, &b, scale, m);
                m += 1;
            }
        }
        while sigma.len() > 1 && *sigma.last().expect("nonempty") == 0 {
            sigma.pop();
        }
        let errors = sigma.len() - 1;
        if errors > self.t() {
            return Err(DecodeError { detected_errors: errors });
        }

        // Chien search over codeword positions.
        let mut positions = Vec::new();
        for pos in 0..self.n {
            let x_inv = f.alpha_pow((f.order() - pos % f.order()) % f.order());
            if f.poly_eval(&sigma, x_inv) == 0 {
                positions.push(pos);
            }
        }
        if positions.len() != errors {
            return Err(DecodeError { detected_errors: errors.max(positions.len()) });
        }

        // Forney: error magnitudes from Ω(x) = [S(x)·σ(x)] mod x^{2t}.
        let mut omega = vec![0u16; parity_len];
        for (i, &s) in syn.iter().enumerate() {
            for (j, &c) in sigma.iter().enumerate() {
                if i + j < parity_len {
                    omega[i + j] ^= f.mul(s, c);
                }
            }
        }
        // σ'(x): formal derivative (odd-degree terms).
        let sigma_deriv: Vec<u16> =
            sigma.iter().enumerate().skip(1).step_by(2).map(|(_, &c)| c).collect();

        let mut fixed = word.to_vec();
        for &pos in &positions {
            let x_inv = f.alpha_pow((f.order() - pos % f.order()) % f.order());
            let num = f.poly_eval(&omega, x_inv);
            // σ'(X^{-1}) evaluated over even powers of x_inv.
            let x_inv2 = f.mul(x_inv, x_inv);
            let mut den = 0u16;
            let mut p = 1u16;
            for &c in &sigma_deriv {
                den ^= f.mul(c, p);
                p = f.mul(p, x_inv2);
            }
            if den == 0 {
                return Err(DecodeError { detected_errors: errors });
            }
            // With the first consecutive root at α^1 (b = 1), Forney's
            // X^{1-b} factor vanishes: magnitude = Ω(X^{-1}) / σ'(X^{-1}).
            let magnitude = f.div(num, den);
            fixed[pos] ^= magnitude as u8;
        }

        // Verify by re-computing syndromes.
        for i in 0..parity_len {
            let xx = f.alpha_pow(i + 1);
            let mut acc = 0u16;
            for &byte in fixed.iter().rev() {
                acc = f.mul(acc, xx) ^ u16::from(byte);
            }
            if acc != 0 {
                return Err(DecodeError { detected_errors: errors });
            }
        }
        Ok(fixed[parity_len..].to_vec())
    }
}

/// σ(x) − scale·x^shift·b(x) over the field.
fn sub_scaled_shift(
    f: &GaloisField,
    sigma: &[u16],
    b: &[u16],
    scale: u16,
    shift: usize,
) -> Vec<u16> {
    let mut out = sigma.to_vec();
    let needed = b.len() + shift;
    if out.len() < needed {
        out.resize(needed, 0);
    }
    for (i, &c) in b.iter().enumerate() {
        out[i + shift] ^= f.mul(scale, c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn clean_roundtrip() {
        let rs = ReedSolomon::new(255, 223);
        assert_eq!(rs.t(), 16);
        let data: Vec<u8> = (0..223).map(|i| (i * 7 % 251) as u8).collect();
        let code = rs.encode(&data);
        assert_eq!(code.len(), 255);
        assert_eq!(rs.decode(&code).unwrap(), data);
    }

    #[test]
    fn corrects_up_to_t_symbol_errors() {
        let rs = ReedSolomon::new(63, 55);
        let data: Vec<u8> = (0..55).map(|i| (i * 13) as u8).collect();
        let code = rs.encode(&data);
        for positions in [vec![0usize], vec![5, 60], vec![1, 20, 40, 62]] {
            let mut bad = code.clone();
            for (off, &p) in positions.iter().enumerate() {
                bad[p] ^= 0x41 + off as u8;
            }
            assert_eq!(rs.decode(&bad).unwrap(), data, "errors at {positions:?}");
        }
    }

    #[test]
    fn burst_of_bit_errors_stays_in_few_symbols() {
        // 10 consecutive corrupted BITS hit at most 3 symbols.
        let rs = ReedSolomon::new(63, 55);
        let data: Vec<u8> = (0..55).map(|i| 255 - i as u8).collect();
        let code = rs.encode(&data);
        let mut bad = code.clone();
        // Flip bits 100..110 of the codeword (inside symbols 12..14).
        for bit in 100..110 {
            bad[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(rs.decode(&bad).unwrap(), data);
    }

    #[test]
    fn overload_detected_or_wrong() {
        let rs = ReedSolomon::new(31, 27); // t = 2
        let data: Vec<u8> = (0..27).collect();
        let code = rs.encode(&data);
        let mut bad = code.clone();
        for p in [0usize, 7, 15, 23, 29] {
            bad[p] ^= 0xFF;
        }
        match rs.decode(&bad) {
            Err(_) => {}
            Ok(d) => assert_ne!(d, data, "5 errors on t=2 silently corrected to truth"),
        }
    }

    #[test]
    #[should_panic(expected = "invalid RS")]
    fn bad_parameters_panic() {
        let _ = ReedSolomon::new(256, 200);
    }

    /// Corrupts `nerr` distinct symbols of a random codeword and checks
    /// that it decodes to the data.
    fn roundtrip_with_errors(rs: &ReedSolomon, rng: &mut impl Rng, nerr: usize) {
        let data: Vec<u8> = (0..55).map(|_| rng.gen()).collect();
        let mut word = rs.encode(&data);
        let mut hit = std::collections::HashSet::new();
        while hit.len() < nerr {
            let p = rng.gen_range(0..word.len());
            if hit.insert(p) {
                word[p] ^= rng.gen_range(1..=255u8);
            }
        }
        assert_eq!(rs.decode(&word).unwrap(), data);
    }

    #[test]
    fn prop_roundtrip_with_random_errors() {
        use rand::{rngs::SmallRng, SeedableRng};
        let rs = ReedSolomon::new(63, 55);
        // A single-error case that once failed.
        roundtrip_with_errors(&rs, &mut SmallRng::seed_from_u64(5_885_711_588_486_454), 1);
        crate::for_cases(48, |rng| {
            let nerr = rng.gen_range(0usize..=4);
            roundtrip_with_errors(&rs, rng, nerr);
        });
    }
}
