//! Repetition code — the simplest redundancy baseline, useful to sanity
//! check ECC trade-offs in the capacity planner.

use crate::{BlockCode, DecodeError};

/// Repeats each data bit an odd number of times and decodes by majority.
#[derive(Debug, Clone)]
pub struct Repetition {
    data_len: usize,
    copies: usize,
}

impl Repetition {
    /// Creates the code.
    ///
    /// # Panics
    ///
    /// Panics if `copies` is even (majority needs an odd count) or zero.
    pub fn new(data_len: usize, copies: usize) -> Self {
        assert!(copies % 2 == 1 && copies > 0, "copies must be odd, got {copies}");
        Repetition { data_len, copies }
    }

    /// Copies per bit.
    pub fn copies(&self) -> usize {
        self.copies
    }
}

impl BlockCode for Repetition {
    fn data_len(&self) -> usize {
        self.data_len
    }

    fn code_len(&self) -> usize {
        self.data_len * self.copies
    }

    fn encode(&self, data: &[bool]) -> Vec<bool> {
        assert_eq!(data.len(), self.data_len, "data length mismatch");
        let mut out = Vec::with_capacity(self.code_len());
        for &b in data {
            out.extend(std::iter::repeat_n(b, self.copies));
        }
        out
    }

    fn decode(&self, code: &[bool]) -> Result<Vec<bool>, DecodeError> {
        assert_eq!(code.len(), self.code_len(), "codeword length mismatch");
        Ok(code
            .chunks(self.copies)
            .map(|c| c.iter().filter(|&&b| b).count() * 2 > self.copies)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_majority() {
        let c = Repetition::new(4, 3);
        let data = vec![true, false, true, false];
        let mut code = c.encode(&data);
        assert_eq!(code.len(), 12);
        // One flip per group is tolerated.
        code[0] = !code[0];
        code[4] = !code[4];
        assert_eq!(c.decode(&code).unwrap(), data);
    }

    #[test]
    fn two_flips_in_group_lose() {
        let c = Repetition::new(1, 3);
        let mut code = c.encode(&[true]);
        code[0] = false;
        code[1] = false;
        assert_eq!(c.decode(&code).unwrap(), vec![false]);
    }

    #[test]
    #[should_panic(expected = "copies must be odd")]
    fn even_copies_panics() {
        let _ = Repetition::new(1, 2);
    }
}
