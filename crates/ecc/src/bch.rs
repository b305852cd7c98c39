//! Binary BCH codes with algebraic decoding.
//!
//! Construction: the generator polynomial is the LCM of the minimal
//! polynomials of α, α², …, α^{2t} over GF(2). Decoding computes syndromes,
//! runs Berlekamp–Massey to find the error-locator polynomial, and locates
//! errors by Chien search. Codes may be shortened to any code length
//! (shortened positions are implicit zeros, as in every flash controller).

use crate::gf::GaloisField;
use crate::DecodeError;

/// A binary BCH code, shortened to its configured code length.
#[derive(Debug, Clone)]
pub struct Bch {
    field: GaloisField,
    t: usize,
    /// Code bits per codeword: the natural length 2^m − 1 minus the
    /// shortened (implicit zero) data positions.
    code_len: usize,
    /// Generator polynomial over GF(2), coefficients ascending.
    generator: Vec<u8>,
}

impl Bch {
    /// The BCH code over GF(2^m) correcting `t` errors, shortened to
    /// `code_len` code bits. Returns `None` when no such code exists: `m`
    /// outside `3..=13`, `t` zero, `code_len` beyond the natural length
    /// 2^m − 1, or a parity that leaves `code_len` no data bit.
    pub fn new(m: u32, t: usize, code_len: usize) -> Option<Self> {
        if !(3..=13).contains(&m) || t == 0 {
            return None;
        }
        let field = GaloisField::new(m);
        let n = field.order();
        // With 2t >= n the roots α^1 .. α^{2t} cover every exponent, so
        // g(x) = x^n - 1 and no data bit is left.
        if code_len > n || t > n / 2 {
            return None;
        }

        // g(x) = lcm of minimal polynomials of α^1 .. α^{2t}: multiply one
        // representative minimal polynomial per distinct cyclotomic coset.
        let mut covered = vec![false; n];
        let mut generator: Vec<u8> = vec![1];
        for i in 1..=(2 * t) {
            if covered[i] {
                continue;
            }
            for j in field.cyclotomic_coset(i) {
                covered[j] = true;
            }
            generator = poly_mul_gf2(&generator, &field.minimal_polynomial(i));
        }

        let code = Bch { field, t, code_len, generator };
        (code.parity_len() < code_len).then_some(code)
    }

    /// The error-correction capability (errors per codeword).
    pub fn t(&self) -> usize {
        self.t
    }

    /// Parity bits per codeword.
    pub fn parity_len(&self) -> usize {
        self.generator.len() - 1
    }

    /// Data bits per codeword.
    pub fn data_len(&self) -> usize {
        self.code_len - self.parity_len()
    }

    /// Code bits per codeword.
    pub fn code_len(&self) -> usize {
        self.code_len
    }

    /// Encodes exactly [`data_len`](Self::data_len) bits into a systematic
    /// [`code_len`](Self::code_len)-bit codeword: parity first, then the
    /// data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != data_len()`.
    pub fn encode(&self, data: &[bool]) -> Vec<bool> {
        assert_eq!(data.len(), self.data_len(), "data length mismatch");
        let parity = self.parity_len();

        // Systematic encoding: codeword = [parity | data·x^{n-k}] with the
        // shortened (zero) data bits implicit at the top degrees.
        // Compute remainder of data(x)·x^{parity} mod g(x) over GF(2).
        let mut rem = vec![0u8; parity];
        // Process data from the highest degree down (last data bit sits at
        // the highest natural degree below the shortened region).
        for &bit in data.iter().rev() {
            // Shift remainder up by one, inject bit at the top.
            let feedback = (rem[parity - 1] == 1) ^ bit;
            for i in (1..parity).rev() {
                rem[i] = rem[i - 1] ^ if feedback && self.generator[i] == 1 { 1 } else { 0 };
            }
            rem[0] = u8::from(feedback && self.generator[0] == 1);
        }

        let mut out: Vec<bool> = rem.iter().map(|&b| b == 1).collect();
        out.extend_from_slice(data);
        out
    }

    /// Decodes a (possibly corrupted) codeword back to its data bits.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] when more errors occurred than the code can
    /// correct *and* the failure is detectable. An undetectable overload may
    /// silently return wrong data — exactly like hardware ECC.
    ///
    /// # Panics
    ///
    /// Panics if `code.len() != code_len()`.
    pub fn decode(&self, code: &[bool]) -> Result<Vec<bool>, DecodeError> {
        assert_eq!(code.len(), self.code_len, "codeword length mismatch");
        let syn = self.syndromes(code);
        if syn.iter().all(|&s| s == 0) {
            return Ok(code[self.parity_len()..].to_vec());
        }

        let sigma = self.berlekamp_massey(&syn);
        let errors = sigma.len() - 1;
        if errors > self.t {
            return Err(DecodeError { detected_errors: errors });
        }
        let positions = self.chien_search(&sigma);
        if positions.len() != errors {
            return Err(DecodeError { detected_errors: errors.max(positions.len()) });
        }

        let mut fixed = code.to_vec();
        for &pos in &positions {
            if pos >= self.code_len {
                // Error located in a shortened (known-zero) position: the
                // corruption exceeds the code's power.
                return Err(DecodeError { detected_errors: errors });
            }
            fixed[pos] = !fixed[pos];
        }

        // Re-check: all syndromes must vanish after correction.
        if self.syndromes(&fixed).iter().any(|&s| s != 0) {
            return Err(DecodeError { detected_errors: errors });
        }
        Ok(fixed[self.parity_len()..].to_vec())
    }

    /// Syndromes S_1..S_{2t} of a received word (natural-length positions).
    fn syndromes(&self, code: &[bool]) -> Vec<u16> {
        // Received polynomial r(x) has bit j of the *natural* codeword at
        // degree j; shortened positions are zero and contribute nothing.
        let mut syn = vec![0u16; 2 * self.t];
        for (s, syn_j) in syn.iter_mut().enumerate() {
            let j = s + 1;
            let mut acc = 0u16;
            for (pos, &bit) in code.iter().enumerate() {
                if bit {
                    acc ^= self.field.alpha_pow(pos * j);
                }
            }
            *syn_j = acc;
        }
        syn
    }

    /// Berlekamp–Massey: error-locator polynomial σ(x) from syndromes.
    fn berlekamp_massey(&self, syn: &[u16]) -> Vec<u16> {
        let f = &self.field;
        let mut sigma: Vec<u16> = vec![1];
        let mut b: Vec<u16> = vec![1];
        let mut l = 0usize;
        let mut m = 1usize;
        let mut bb = 1u16;

        for n in 0..syn.len() {
            // Discrepancy d = S_n + Σ σ_i · S_{n-i}.
            let mut d = syn[n];
            for i in 1..=l {
                if i < sigma.len() {
                    d ^= f.mul(sigma[i], syn[n - i]);
                }
            }
            if d == 0 {
                m += 1;
            } else if 2 * l <= n {
                let t_poly = sigma.clone();
                let scale = f.div(d, bb);
                sigma = poly_sub_scaled_shift(f, &sigma, &b, scale, m);
                l = n + 1 - l;
                b = t_poly;
                bb = d;
                m = 1;
            } else {
                let scale = f.div(d, bb);
                sigma = poly_sub_scaled_shift(f, &sigma, &b, scale, m);
                m += 1;
            }
        }
        // Trim trailing zeros.
        while sigma.len() > 1 && *sigma.last().unwrap() == 0 {
            sigma.pop();
        }
        sigma
    }

    /// Chien search: natural codeword positions whose bits are in error.
    fn chien_search(&self, sigma: &[u16]) -> Vec<usize> {
        let f = &self.field;
        let n = f.order();
        let mut positions = Vec::new();
        // Position i corresponds to locator X = α^i; σ(α^{-i}) == 0.
        for i in 0..n {
            let x = f.alpha_pow(n - i % n);
            let x_inv = if i == 0 { 1 } else { x };
            if f.poly_eval(sigma, x_inv) == 0 {
                positions.push(i);
            }
        }
        positions
    }
}

/// GF(2) polynomial product (coefficients ascending, values 0/1).
fn poly_mul_gf2(a: &[u8], b: &[u8]) -> Vec<u8> {
    let mut out = vec![0u8; a.len() + b.len() - 1];
    for (i, &x) in a.iter().enumerate() {
        if x == 1 {
            for (j, &y) in b.iter().enumerate() {
                out[i + j] ^= y;
            }
        }
    }
    out
}

/// σ(x) − scale · x^shift · b(x) over GF(2^m) (subtraction is XOR).
fn poly_sub_scaled_shift(
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
    fn classic_15_7_2_code_dimensions() {
        // BCH(15,7) corrects 2 errors; textbook example.
        let c = Bch::new(4, 2, 15).unwrap();
        assert_eq!(c.code_len(), 15);
        assert_eq!(c.data_len(), 7);
        assert_eq!(c.parity_len(), 8);
        // g(x) = x^8 + x^7 + x^6 + x^4 + 1.
        assert_eq!(c.generator, vec![1, 0, 0, 0, 1, 0, 1, 1, 1]);
    }

    #[test]
    fn clean_roundtrip() {
        let c = Bch::new(4, 2, 15).unwrap();
        let data: Vec<bool> = vec![true, false, true, true, false, false, true];
        let code = c.encode(&data);
        assert_eq!(code.len(), 15);
        assert_eq!(c.decode(&code).unwrap(), data);
    }

    #[test]
    fn corrects_up_to_t_errors_at_all_positions() {
        let c = Bch::new(4, 2, 15).unwrap();
        let data: Vec<bool> = vec![true, false, true, true, false, false, true];
        let code = c.encode(&data);
        // Single errors, every position.
        for i in 0..15 {
            let mut bad = code.clone();
            bad[i] = !bad[i];
            assert_eq!(c.decode(&bad).unwrap(), data, "single error at {i}");
        }
        // Double errors, every pair.
        for i in 0..15 {
            for j in (i + 1)..15 {
                let mut bad = code.clone();
                bad[i] = !bad[i];
                bad[j] = !bad[j];
                assert_eq!(c.decode(&bad).unwrap(), data, "errors at {i},{j}");
            }
        }
    }

    #[test]
    fn detects_overload_mostly() {
        // 4 errors on a t=2 code must not silently return wrong data in the
        // vast majority of patterns; count miscorrections.
        let c = Bch::new(4, 2, 15).unwrap();
        let data: Vec<bool> = vec![false, true, false, false, true, true, false];
        let code = c.encode(&data);
        let mut wrong = 0;
        let mut total = 0;
        for i in 0..15 {
            for j in (i + 1)..15 {
                for k in (j + 1)..15 {
                    let mut bad = code.clone();
                    for p in [i, j, k] {
                        bad[p] = !bad[p];
                    }
                    total += 1;
                    if let Ok(d) = c.decode(&bad) {
                        if d != data {
                            wrong += 1;
                        }
                    }
                }
            }
        }
        // A t=2 code cannot promise detection of 3 errors, but most
        // 3-error patterns must be flagged or land back on the codeword.
        assert!(wrong < total / 2, "{wrong}/{total} triple-error patterns silently miscorrected");
    }

    #[test]
    fn shortened_code_roundtrip_with_errors() {
        // The paper's hidden-page budget: 256 cells; t=4 over GF(2^9).
        let c = Bch::new(9, 4, 256).unwrap();
        assert_eq!(c.code_len(), 256);
        assert_eq!(c.parity_len(), 36);
        let data: Vec<bool> = (0..220).map(|i| (i * 7) % 5 < 2).collect();
        let code = c.encode(&data);
        let mut bad = code.clone();
        for &p in &[0usize, 50, 128, 255] {
            bad[p] = !bad[p];
        }
        assert_eq!(c.decode(&bad).unwrap(), data);
    }

    #[test]
    fn five_errors_on_t4_fails_or_detected() {
        let c = Bch::new(9, 4, 256).unwrap();
        let data: Vec<bool> = (0..220).map(|i| i % 2 == 0).collect();
        let code = c.encode(&data);
        let mut bad = code.clone();
        for &p in &[3usize, 77, 130, 200, 250] {
            bad[p] = !bad[p];
        }
        match c.decode(&bad) {
            Err(_) => {}
            Ok(d) => assert_ne!(d, data, "five errors cannot be silently corrected to truth"),
        }
    }

    #[test]
    fn impossible_codes_are_none() {
        assert!(Bch::new(2, 1, 3).is_none(), "field below GF(2^3)");
        assert!(Bch::new(14, 1, 100).is_none(), "field above GF(2^13)");
        assert!(Bch::new(4, 0, 15).is_none(), "t = 0");
        assert!(Bch::new(4, 2, 16).is_none(), "longer than 2^m - 1");
        assert!(Bch::new(4, 8, 15).is_none(), "2t >= n");
        assert!(Bch::new(7, 18, 64).is_none(), "parity fills the codeword");
        assert!(Bch::new(9, 4, 36).is_none(), "36 parity bits leave no data bit");
        assert_eq!(Bch::new(9, 4, 37).unwrap().data_len(), 1);
    }

    #[test]
    fn prop_corrects_random_errors_within_t() {
        // (m, t, code bits): the paper default, then the hide_reveal
        // benchmark's, the hidden volume benchmark's and the enhanced
        // configuration's segment codes.
        for (m, t, n) in [(9, 4, 256), (9, 16, 256), (8, 8, 128), (10, 12, 512)] {
            let c = Bch::new(m, t, n).unwrap();
            crate::for_cases(64, |rng| {
                let nerr = rng.gen_range(0..=t);
                let data: Vec<bool> = (0..c.data_len()).map(|_| rng.gen()).collect();
                let mut bad = c.encode(&data);
                let mut flipped = std::collections::HashSet::new();
                while flipped.len() < nerr {
                    let p = rng.gen_range(0..bad.len());
                    if flipped.insert(p) {
                        bad[p] = !bad[p];
                    }
                }
                assert_eq!(c.decode(&bad).unwrap(), data, "m={m} t={t} n={n}, {nerr} errors");
            });
        }
    }
}
