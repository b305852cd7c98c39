//! Retry, backoff and read-reference recovery for hiding operations.
//!
//! Real controllers never give up on the first program-status failure: they
//! retry with backoff, and when reads come back dirty they re-read at
//! shifted reference voltages before declaring data lost. This module is
//! the hiding stack's version of that machinery:
//!
//! * [`RetryPolicy`] bounds retries of *transient* flash faults
//!   ([`FlashError::TransientProgramFail`], [`FlashError::EraseFail`]) with
//!   exponential backoff charged to **simulated** time
//!   ([`advance_time_us`](stash_flash::NandDevice::advance_time_us)) — no
//!   wall-clock sleeping;
//! * a `Vth` sweep list: when a hidden-data decode fails, or succeeds only
//!   after correcting more bits than the ECC watermark, the decoder re-reads
//!   at `Vth + offset` for each sweep offset and keeps the cleanest read
//!   (retention drains charge downward, so a lowered reference often
//!   recovers margin — the same trick controllers use for retention
//!   management, paper §1 refs \[32–35\]).
//!
//! [`Hider`](crate::Hider) consults a policy on every program,
//! partial-program and decode; the default [`RetryPolicy::none`] keeps the
//! fault-free code path bit-identical to the pre-recovery behavior.

use stash_flash::FlashError;

/// Bounded-retry/backoff/read-sweep policy for hiding operations.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Extra attempts allowed after a transient failure (0 = fail fast).
    pub max_retries: u32,
    /// Backoff before retry `n` is `base_backoff_us * 2^n` simulated
    /// microseconds.
    pub base_backoff_us: f64,
    /// Signed offsets added to the configured `Vth` when a decode needs a
    /// re-read, tried in order.
    pub vth_sweep: Vec<i16>,
    /// When a decode succeeds but corrected more than this many bits, the
    /// sweep runs anyway looking for a cleaner read (`None` = only sweep on
    /// outright decode failure).
    pub ecc_watermark: Option<usize>,
}

impl RetryPolicy {
    /// No retries, no sweep: every operation behaves exactly as it did
    /// before recovery existed.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff_us: 0.0,
            vth_sweep: Vec::new(),
            ecc_watermark: None,
        }
    }

    /// A reasonable controller-style default: four retries starting at
    /// 50 µs backoff, and a ±2/±4 level read sweep once the ECC corrects
    /// more than 4 bits.
    pub fn standard() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_backoff_us: 50.0,
            vth_sweep: vec![-2, 2, -4, 4],
            ecc_watermark: Some(4),
        }
    }

    /// Whether the policy changes any behavior at all.
    pub fn is_none(&self) -> bool {
        self.max_retries == 0 && self.vth_sweep.is_empty() && self.ecc_watermark.is_none()
    }

    /// Simulated backoff before retry attempt `attempt` (0-based).
    pub fn backoff_us(&self, attempt: u32) -> f64 {
        self.base_backoff_us * f64::from(1u32 << attempt.min(16))
    }

    /// Whether a flash error is transient — i.e. the identical operation
    /// may succeed on retry because the failed attempt had no side effects.
    pub fn is_transient(e: &FlashError) -> bool {
        matches!(e, FlashError::TransientProgramFail(_) | FlashError::EraseFail(_))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// Clamped application of a signed sweep offset to a reference level.
pub(crate) fn offset_level(vth: u8, offset: i16) -> u8 {
    (i16::from(vth) + offset).clamp(1, 255) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use stash_flash::{BlockId, PageId};

    #[test]
    fn none_policy_is_inert() {
        let p = RetryPolicy::none();
        assert!(p.is_none());
        assert_eq!(p.max_retries, 0);
        assert!(!RetryPolicy::standard().is_none());
    }

    #[test]
    fn backoff_doubles() {
        let p = RetryPolicy { base_backoff_us: 50.0, ..RetryPolicy::standard() };
        assert!((p.backoff_us(0) - 50.0).abs() < 1e-9);
        assert!((p.backoff_us(1) - 100.0).abs() < 1e-9);
        assert!((p.backoff_us(3) - 400.0).abs() < 1e-9);
    }

    #[test]
    fn transient_classification() {
        let page = PageId::new(BlockId(0), 0);
        assert!(RetryPolicy::is_transient(&FlashError::TransientProgramFail(page)));
        assert!(RetryPolicy::is_transient(&FlashError::EraseFail(BlockId(0))));
        assert!(!RetryPolicy::is_transient(&FlashError::GrownBadBlock(BlockId(0))));
        assert!(!RetryPolicy::is_transient(&FlashError::BadBlock(BlockId(0))));
        assert!(!RetryPolicy::is_transient(&FlashError::PageAlreadyProgrammed(page)));
    }

    #[test]
    fn offset_level_clamps() {
        assert_eq!(offset_level(34, -2), 32);
        assert_eq!(offset_level(34, 4), 38);
        assert_eq!(offset_level(2, -10), 1);
        assert_eq!(offset_level(250, 10), 255);
    }
}
