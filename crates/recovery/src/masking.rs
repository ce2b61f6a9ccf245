//! Error-masking strategies.
//!
//! Three strategies fall out of the error–failure analysis:
//!
//! 1. **Bind wait** — wait for `T_C` (valid L2CAP handle) and `T_H`
//!    (hotplug-notified interface readiness) before binding. The
//!    campaign implements it *mechanically*: a masked bind waits until
//!    the sampled `btpan_stack::hotplug::SetupTiming::iface_up_at`; it
//!    eliminates bind failures entirely, at the cost of the residual
//!    setup wait.
//! 2. **Command retry** — "repeating the action up to 2 times (with 1
//!    second wait between a retry and the successive) is enough to let
//!    the underneath transient cause disappear" — for switch-role
//!    command failures and NAP-not-found.
//! 3. **SDP first** — 96.5 % of PAN-connect failures manifest when the
//!    SDP search is skipped; always searching first masks exactly those.

use btpan_faults::UserFailure;
use btpan_sim::prelude::*;
use btpan_sim::time::SimDuration;

/// Outcome of attempting to mask a would-be failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaskOutcome {
    /// The failure was prevented; the cycle continues after `delay`.
    Masked {
        /// Time spent waiting/retrying.
        delay: SimDuration,
        /// Retries consumed (0 for pure waits).
        retries: u8,
    },
    /// The cause was not transient; the failure manifests anyway.
    NotMasked,
}

impl MaskOutcome {
    /// True if the failure was prevented.
    pub fn is_masked(&self) -> bool {
        matches!(self, MaskOutcome::Masked { .. })
    }
}

/// The masking configuration (which strategies are active).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Masking {
    /// Strategy 1: wait for `T_C`/`T_H` before binding.
    pub bind_wait: bool,
    /// Strategy 2: ≤2 retries with 1 s spacing for transient commands.
    pub command_retry: bool,
    /// Strategy 3: always perform the SDP search before PAN connect.
    pub sdp_first: bool,
}

impl Masking {
    /// All strategies on (the paper's enhanced testbed).
    pub fn all() -> Self {
        Masking {
            bind_wait: true,
            command_retry: true,
            sdp_first: true,
        }
    }

    /// All strategies off (the measurement testbed).
    pub fn none() -> Self {
        Masking {
            bind_wait: false,
            command_retry: false,
            sdp_first: false,
        }
    }

    /// Maximum retries of strategy 2.
    pub const MAX_RETRIES: u8 = 2;
    /// Wait between retries.
    pub const RETRY_WAIT: SimDuration = SimDuration::from_secs(1);
    /// Probability the underlying cause of a retryable failure is
    /// transient (disappears within the retry budget).
    pub const TRANSIENT_PROBABILITY: f64 = 0.95;

    /// Attempts to mask a would-be `failure` under this configuration.
    ///
    /// Bind failures are *not* handled here — with `bind_wait` on, the
    /// campaign binds at the hotplug interface-up instant and the
    /// failure never reaches the masking layer; this method asserts that
    /// contract.
    pub fn try_mask(&self, failure: UserFailure, rng: &mut SimRng) -> MaskOutcome {
        match failure {
            UserFailure::NapNotFound | UserFailure::SwitchRoleCommandFailed
                if self.command_retry =>
            {
                if rng.chance(Self::TRANSIENT_PROBABILITY) {
                    // The transient clears on the 1st or 2nd retry.
                    let retries = if rng.chance(0.8) { 1 } else { 2 };
                    MaskOutcome::Masked {
                        delay: Self::RETRY_WAIT * u64::from(retries),
                        retries,
                    }
                } else {
                    MaskOutcome::NotMasked
                }
            }
            // SDP-first changes the *workflow* (the PAN connect runs in
            // the low-risk with-SDP regime); a failure that still
            // manifests there is genuinely not maskable.
            _ => MaskOutcome::NotMasked,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from(0x3A5C)
    }

    #[test]
    fn retry_masks_most_nap_not_found() {
        let m = Masking::all();
        let mut r = rng();
        let n = 30_000;
        let masked = (0..n)
            .filter(|_| m.try_mask(UserFailure::NapNotFound, &mut r).is_masked())
            .count();
        let frac = masked as f64 / n as f64;
        assert!((frac - 0.95).abs() < 0.01, "masked frac {frac}");
    }

    #[test]
    fn retry_delay_within_budget() {
        let m = Masking::all();
        let mut r = rng();
        for _ in 0..5_000 {
            if let MaskOutcome::Masked { delay, retries } =
                m.try_mask(UserFailure::SwitchRoleCommandFailed, &mut r)
            {
                assert!((1..=Masking::MAX_RETRIES).contains(&retries));
                assert!(delay <= Masking::RETRY_WAIT * 2);
            }
        }
    }

    #[test]
    fn disabled_masking_masks_nothing() {
        let m = Masking::none();
        let mut r = rng();
        for f in UserFailure::ALL {
            assert_eq!(m.try_mask(f, &mut r), MaskOutcome::NotMasked);
        }
    }

    #[test]
    fn non_retryable_failures_pass_through() {
        let m = Masking::all();
        let mut r = rng();
        for f in [
            UserFailure::ConnectFailed,
            UserFailure::PacketLoss,
            UserFailure::InquiryScanFailed,
            UserFailure::DataMismatch,
        ] {
            assert_eq!(m.try_mask(f, &mut r), MaskOutcome::NotMasked);
        }
    }

    #[test]
    fn configurations() {
        assert!(Masking::all().bind_wait);
        assert!(Masking::all().sdp_first);
        assert!(!Masking::none().command_retry);
    }
}
