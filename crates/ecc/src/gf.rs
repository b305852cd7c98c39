//! GF(2^m) arithmetic via log/antilog tables, 3 ≤ m ≤ 13.

/// Primitive polynomials (bit i = coefficient of x^i), indexed by m.
const PRIMITIVE_POLYS: [u32; 14] = [
    0,
    0,
    0,
    0b1011,           // m=3:  x^3 + x + 1
    0b10011,          // m=4:  x^4 + x + 1
    0b100101,         // m=5:  x^5 + x^2 + 1
    0b1000011,        // m=6:  x^6 + x + 1
    0b10001001,       // m=7:  x^7 + x^3 + 1
    0b100011101,      // m=8:  x^8 + x^4 + x^3 + x^2 + 1
    0b1000010001,     // m=9:  x^9 + x^4 + 1
    0b10000001001,    // m=10: x^10 + x^3 + 1
    0b100000000101,   // m=11: x^11 + x^2 + 1
    0b1000001010011,  // m=12: x^12 + x^6 + x^4 + x + 1
    0b10000000011011, // m=13: x^13 + x^4 + x^3 + x + 1
];

/// The field GF(2^m) with its exponent/log tables.
#[derive(Debug, Clone)]
pub struct GaloisField {
    /// Field size minus one: the multiplicative group order, 2^m - 1.
    n: usize,
    exp: Vec<u16>,
    log: Vec<u16>,
}

impl GaloisField {
    /// Constructs GF(2^m).
    ///
    /// # Panics
    ///
    /// Panics unless `3 <= m <= 13`.
    pub fn new(m: u32) -> Self {
        assert!((3..=13).contains(&m), "unsupported field degree m={m}");
        let n = (1usize << m) - 1;
        let poly = PRIMITIVE_POLYS[m as usize];
        let mut exp = vec![0u16; 2 * n];
        let mut log = vec![0u16; n + 1];
        let mut x = 1u32;
        for (i, e) in exp.iter_mut().enumerate().take(n) {
            *e = x as u16;
            log[x as usize] = i as u16;
            x <<= 1;
            if x & (1 << m) != 0 {
                x ^= poly;
            }
        }
        // Duplicate so exp[i + n] == exp[i] (avoids a mod in mul).
        for i in 0..n {
            exp[n + i] = exp[i];
        }
        GaloisField { n, exp, log }
    }

    /// Multiplicative group order (2^m − 1), which is also the natural BCH
    /// code length.
    pub fn order(&self) -> usize {
        self.n
    }

    /// α^i (i may exceed the group order; it is reduced).
    pub fn alpha_pow(&self, i: usize) -> u16 {
        self.exp[i % self.n]
    }

    /// Field multiplication.
    pub fn mul(&self, a: u16, b: u16) -> u16 {
        if a == 0 || b == 0 {
            0
        } else {
            self.exp[self.log[a as usize] as usize + self.log[b as usize] as usize]
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics on zero.
    pub fn inv(&self, a: u16) -> u16 {
        assert!(a != 0, "inverse of zero");
        self.exp[self.n - self.log[a as usize] as usize]
    }

    /// Field division a/b.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    pub fn div(&self, a: u16, b: u16) -> u16 {
        assert!(b != 0, "division by zero");
        if a == 0 {
            0
        } else {
            self.exp
                [(self.log[a as usize] as usize + self.n - self.log[b as usize] as usize) % self.n]
        }
    }

    /// Evaluates a polynomial (coefficients ascending, in GF(2^m)) at `x`.
    pub fn poly_eval(&self, coeffs: &[u16], x: u16) -> u16 {
        let mut acc = 0u16;
        for &c in coeffs.iter().rev() {
            acc = self.mul(acc, x) ^ c;
        }
        acc
    }

    /// The cyclotomic coset of `i` modulo 2^m − 1 (the exponents of the
    /// conjugates of α^i), sorted ascending.
    pub fn cyclotomic_coset(&self, i: usize) -> Vec<usize> {
        let mut coset = Vec::new();
        let mut j = i % self.n;
        loop {
            coset.push(j);
            j = (j * 2) % self.n;
            if j == i % self.n {
                break;
            }
        }
        coset.sort_unstable();
        coset
    }

    /// The minimal polynomial of α^i over GF(2): Π_{j ∈ coset(i)} (x − α^j).
    /// All coefficients land in {0, 1}; returned as GF(2) coefficients
    /// ascending.
    pub fn minimal_polynomial(&self, i: usize) -> Vec<u8> {
        let coset = self.cyclotomic_coset(i);
        // Product over GF(2^m), then project to GF(2).
        let mut poly: Vec<u16> = vec![1];
        for &j in &coset {
            let root = self.alpha_pow(j);
            // poly *= (x + root)
            let mut next = vec![0u16; poly.len() + 1];
            for (d, &c) in poly.iter().enumerate() {
                next[d + 1] ^= c; // x * c
                next[d] ^= self.mul(c, root);
            }
            poly = next;
        }
        poly.iter()
            .map(|&c| {
                debug_assert!(c <= 1, "minimal polynomial must have GF(2) coefficients");
                c as u8
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gf16_multiplication_table_spot_checks() {
        let f = GaloisField::new(4);
        // In GF(16) with x^4 + x + 1: α^4 = α + 1 = 0b0011.
        assert_eq!(f.alpha_pow(4), 0b0011);
        assert_eq!(f.mul(0b0010, 0b0010), 0b0100); // α·α = α²
        assert_eq!(f.mul(0, 7), 0);
        assert_eq!(f.mul(1, 7), 7);
    }

    #[test]
    fn inverse_and_division() {
        for m in [3u32, 4, 8, 9] {
            let f = GaloisField::new(m);
            for a in 1..=(f.order() as u16) {
                let inv = f.inv(a);
                assert_eq!(f.mul(a, inv), 1, "m={m} a={a}");
                assert_eq!(f.div(a, a), 1);
            }
        }
    }

    #[test]
    fn alpha_has_full_order() {
        for m in 3..=13u32 {
            let f = GaloisField::new(m);
            // α^n == 1 and no smaller positive power is 1 ⇒ the poly is
            // primitive and the table construction visited every element.
            assert_eq!(f.alpha_pow(f.order()), 1, "m={m}");
            let mut seen = vec![false; f.order() + 1];
            for i in 0..f.order() {
                let v = f.alpha_pow(i) as usize;
                assert!(!seen[v], "m={m}: repeated element at exponent {i}");
                seen[v] = true;
            }
        }
    }

    #[test]
    fn poly_eval_horner() {
        let f = GaloisField::new(4);
        // p(x) = 1 + x: p(α) = 1 ^ α.
        assert_eq!(f.poly_eval(&[1, 1], 0b0010), 1 ^ 0b0010);
        // Constant polynomial.
        assert_eq!(f.poly_eval(&[5], 9), 5);
        // Zero polynomial.
        assert_eq!(f.poly_eval(&[], 9), 0);
    }

    #[test]
    fn cyclotomic_cosets_partition() {
        let f = GaloisField::new(4);
        assert_eq!(f.cyclotomic_coset(1), vec![1, 2, 4, 8]);
        assert_eq!(f.cyclotomic_coset(3), vec![3, 6, 9, 12]);
        assert_eq!(f.cyclotomic_coset(5), vec![5, 10]);
    }

    #[test]
    fn minimal_polynomials_gf16() {
        let f = GaloisField::new(4);
        // Minimal polynomial of α over GF(16)/GF(2) is x^4 + x + 1.
        assert_eq!(f.minimal_polynomial(1), vec![1, 1, 0, 0, 1]);
        // Minimal polynomial of α^5 (order 3) is x^2 + x + 1.
        assert_eq!(f.minimal_polynomial(5), vec![1, 1, 1]);
    }

    #[test]
    fn minimal_polynomial_annihilates_conjugates() {
        let f = GaloisField::new(9);
        for i in [1usize, 3, 5, 7] {
            let mp = f.minimal_polynomial(i);
            let coeffs: Vec<u16> = mp.iter().map(|&c| u16::from(c)).collect();
            for &j in &f.cyclotomic_coset(i) {
                assert_eq!(f.poly_eval(&coeffs, f.alpha_pow(j)), 0, "i={i} j={j}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "unsupported field degree")]
    fn out_of_range_degree_panics() {
        let _ = GaloisField::new(2);
    }
}
