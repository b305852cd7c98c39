//! The hidden-payload pipeline: bytes → encrypt → ECC → cell bits, and back
//! (paper Algorithm 1, line 4: "Encrypt H using Key and apply ECC").
//!
//! Encryption runs *before* ECC so the stored bit pattern is uniformly
//! random (cells holding hidden `0`s and `1`s are statistically identical
//! populations), while the parity structure still protects the bits that
//! actually land in cells.

use crate::config::{PageCode, VthiConfig};
use crate::error::HideError;
use stash_crypto::{chacha20_xor, HidingKey};
use stash_ecc::{bits_to_bytes, bytes_to_bits};

/// Label for the payload-encryption subkey.
const PAYLOAD_LABEL: &str = "vt-hi/payload/v1";

/// Encodes `payload` (exactly [`VthiConfig::payload_bytes_per_page`] bytes)
/// into the bit values of the page's hidden cells.
///
/// # Errors
///
/// Returns [`HideError::PayloadLength`] on a size mismatch, and
/// [`HideError::InvalidConfig`] when `cfg`'s code cannot be built.
pub fn encode_payload(
    key: &HidingKey,
    cfg: &VthiConfig,
    page_stream: u64,
    payload: &[u8],
) -> crate::Result<Vec<bool>> {
    PayloadCodec::new(cfg)?.encode(key, page_stream, payload)
}

/// Decodes hidden cell bits back into payload bytes.
///
/// # Errors
///
/// Returns [`HideError::Unrecoverable`] when ECC decoding fails, and
/// [`HideError::InvalidConfig`] when `cfg`'s code cannot be built.
pub fn decode_payload(
    key: &HidingKey,
    cfg: &VthiConfig,
    page_stream: u64,
    cell_bits: &[bool],
) -> crate::Result<Vec<u8>> {
    PayloadCodec::new(cfg)?.decode(key, page_stream, cell_bits)
}

/// One configuration's payload pipeline, its code built once: the free
/// functions above build one per call, a [`Hider`](crate::Hider) one for
/// its lifetime.
#[derive(Debug)]
pub(crate) struct PayloadCodec {
    /// The page code; `None` in raw mode.
    code: Option<PageCode>,
    /// Hidden cells per page, all of them carrying data in raw mode.
    hidden_bits: usize,
}

impl PayloadCodec {
    /// Builds `cfg`'s page code.
    pub(crate) fn new(cfg: &VthiConfig) -> crate::Result<Self> {
        Ok(PayloadCodec { code: cfg.segment_code()?, hidden_bits: cfg.hidden_bits_per_page })
    }

    /// Usable data bits per page.
    pub(crate) fn data_bits(&self) -> usize {
        self.code.as_ref().map_or(self.hidden_bits, PageCode::data_bits)
    }

    /// Hidden cells carrying code bits per page.
    pub(crate) fn used_bits(&self) -> usize {
        self.code.as_ref().map_or(self.hidden_bits, PageCode::code_bits)
    }

    /// Whole payload bytes per page.
    pub(crate) fn payload_bytes(&self) -> usize {
        self.data_bits() / 8
    }

    /// [`encode_payload`] with this codec's code.
    pub(crate) fn encode(
        &self,
        key: &HidingKey,
        page_stream: u64,
        payload: &[u8],
    ) -> crate::Result<Vec<bool>> {
        let expected = self.payload_bytes();
        if payload.len() != expected {
            return Err(HideError::PayloadLength { expected, got: payload.len() });
        }

        let mut encrypted = payload.to_vec();
        chacha20_xor(&key.subkey(PAYLOAD_LABEL), page_stream, &mut encrypted);
        let mut bits = bytes_to_bits(&encrypted, payload.len() * 8);
        // Pad to the code's data width (raw mode: the whole page) with keyed
        // filler, so unused cells are still uniform.
        pad_with_keystream(key, page_stream, &mut bits, self.data_bits());
        Ok(match &self.code {
            None => bits,
            Some(code) => code.encode(&bits),
        })
    }

    /// [`decode_payload`] with this codec's code.
    pub(crate) fn decode(
        &self,
        key: &HidingKey,
        page_stream: u64,
        cell_bits: &[bool],
    ) -> crate::Result<Vec<u8>> {
        let data_bits = match &self.code {
            None => cell_bits.to_vec(),
            Some(code) => code.decode(&cell_bits[..code.code_bits()])?,
        };
        let mut bytes = bits_to_bytes(&data_bits[..self.payload_bytes() * 8]);
        chacha20_xor(&key.subkey(PAYLOAD_LABEL), page_stream, &mut bytes);
        Ok(bytes)
    }
}

/// Extends `bits` to `target` length with keystream-derived filler.
fn pad_with_keystream(key: &HidingKey, page_stream: u64, bits: &mut Vec<bool>, target: usize) {
    if bits.len() >= target {
        bits.truncate(target);
        return;
    }
    let missing = target - bits.len();
    let mut filler = vec![0u8; missing.div_ceil(8)];
    // A distinct stream id namespace for filler (top bit set).
    chacha20_xor(&key.subkey(PAYLOAD_LABEL), page_stream | 1 << 63, &mut filler);
    bits.extend(bytes_to_bits(&filler, missing));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EccChoice;

    fn key() -> HidingKey {
        HidingKey::new([9u8; 32])
    }

    #[test]
    fn roundtrip_clean() {
        let cfg = VthiConfig::paper_default();
        let payload = vec![0x5Au8; cfg.payload_bytes_per_page()];
        let bits = encode_payload(&key(), &cfg, 77, &payload).unwrap();
        assert_eq!(bits.len(), cfg.used_bits_per_page());
        let back = decode_payload(&key(), &cfg, 77, &bits).unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn roundtrip_with_correctable_errors() {
        let cfg = VthiConfig::paper_default();
        let payload: Vec<u8> = (0..cfg.payload_bytes_per_page() as u8).collect();
        let mut bits = encode_payload(&key(), &cfg, 3, &payload).unwrap();
        bits[1] = !bits[1];
        bits[100] = !bits[100];
        bits[200] = !bits[200];
        assert_eq!(decode_payload(&key(), &cfg, 3, &bits).unwrap(), payload);
    }

    #[test]
    fn too_many_errors_detected() {
        let cfg = VthiConfig::paper_default();
        let payload = vec![1u8; cfg.payload_bytes_per_page()];
        let mut bits = encode_payload(&key(), &cfg, 3, &payload).unwrap();
        for i in (0..40).map(|k| k * 6) {
            bits[i] = !bits[i];
        }
        match decode_payload(&key(), &cfg, 3, &bits) {
            Err(HideError::Unrecoverable { .. }) => {}
            Err(other) => panic!("unexpected error {other:?}"),
            Ok(got) => assert_ne!(got, payload, "40 errors silently produced truth"),
        }
    }

    #[test]
    fn stored_bits_look_uniform() {
        // An all-zero payload must still produce ~50% ones on the cells
        // (encryption-before-ECC is what makes hiding statistically safe).
        let cfg = VthiConfig::paper_default();
        let payload = vec![0u8; cfg.payload_bytes_per_page()];
        let mut ones = 0usize;
        let mut total = 0usize;
        for stream in 0..40u64 {
            let bits = encode_payload(&key(), &cfg, stream, &payload).unwrap();
            ones += bits.iter().filter(|&&b| b).count();
            total += bits.len();
        }
        let frac = ones as f64 / total as f64;
        assert!((0.47..0.53).contains(&frac), "ones fraction {frac}");
    }

    #[test]
    fn wrong_key_yields_garbage_or_failure() {
        let cfg = VthiConfig::paper_default();
        let payload = vec![0xEEu8; cfg.payload_bytes_per_page()];
        let bits = encode_payload(&key(), &cfg, 5, &payload).unwrap();
        let wrong = HidingKey::new([8u8; 32]);
        if let Ok(got) = decode_payload(&wrong, &cfg, 5, &bits) {
            assert_ne!(got, payload);
        }
    }

    #[test]
    fn wrong_length_rejected() {
        let cfg = VthiConfig::paper_default();
        let err = encode_payload(&key(), &cfg, 0, &[1, 2, 3]).unwrap_err();
        assert!(matches!(err, HideError::PayloadLength { expected: 27, got: 3 }));
    }

    #[test]
    fn enhanced_config_roundtrips_with_spread_errors() {
        let cfg = VthiConfig::enhanced();
        let payload: Vec<u8> =
            (0..cfg.payload_bytes_per_page()).map(|i| (i * 13 % 251) as u8).collect();
        let mut bits = encode_payload(&key(), &cfg, 11, &payload).unwrap();
        // 2% raw BER across the page, spread evenly (≈10 per 512-bit segment,
        // within the per-segment t=12 budget).
        let n = bits.len();
        let mut i = 7;
        while i < n {
            bits[i] = !bits[i];
            i += 50;
        }
        assert_eq!(decode_payload(&key(), &cfg, 11, &bits).unwrap(), payload);
    }

    #[test]
    fn raw_mode_roundtrip() {
        let mut cfg = VthiConfig::paper_default();
        cfg.ecc = EccChoice::None;
        let payload = vec![0x11u8; cfg.payload_bytes_per_page()];
        let bits = encode_payload(&key(), &cfg, 9, &payload).unwrap();
        assert_eq!(bits.len(), 256);
        assert_eq!(decode_payload(&key(), &cfg, 9, &bits).unwrap(), payload);
    }
}
