//! ACL link with ARQ and retransmission limit.
//!
//! Baseband integrity works as follows (BT 1.1 §IV): every payload
//! carries a CRC; a corrupted payload is NAK'd and retransmitted.
//! "Retransmissions at the Baseband level are allowed up to a certain
//! limit at which the current payload is dropped and the next payload is
//! considered" — the mechanism the paper blames for Fig. 3a. This module
//! simulates that loop slot by slot:
//!
//! * the 18-bit header is protected by 1/3-rate repetition FEC; a header
//!   loss means no ACK and a wasted attempt;
//! * `DMx` payloads decode codeword-by-codeword through the (15,10)
//!   Hamming model; `DHx` payloads need every bit intact;
//! * a corrupted payload can *escape* the CRC (probability from
//!   [`crate::crc::undetected_probability`], burst-length dependent) and
//!   be delivered corrupt — the paper's `Data mismatch`;
//! * the ACK travels on the return slot and can itself be lost, forcing
//!   a redundant retransmission (deduplicated by the SEQN bit).
//!
//! Because a full 18-month campaign cannot run at slot fidelity, the
//! module also provides [`DropProfile`]: a per-payload drop/mismatch
//! probability table *calibrated by running this very simulation* for a
//! few hundred thousand payloads per packet type. The campaign layer
//! samples cycle outcomes from the profile; `repro_fig3a` demonstrates
//! the two agree.
//!
//! A link memoizes each slot's header/ACK and payload success factors
//! per `(packet type, BER)`: the factors are pure functions of that
//! pair, computed by the same expressions on a miss, and the payload
//! product is multiplied in the same slot order, so every probability
//! and every RNG comparison is bit-identical to computing them afresh.

use crate::channel::{ChannelModel, ChannelState};
use crate::crc;
use crate::fec;
use crate::hop::HopSequence;
use crate::packet::{PacketType, HEADER_BITS};
use btpan_sim::prelude::*;

mod metrics {
    use crate::packet::PacketType;
    use btpan_obs::{Counter, Registry};
    use std::sync::OnceLock;

    /// Per-packet-type counter families, indexed by [`PacketType::index`].
    /// Updates are flushed once per [`super::AclLink::send_payloads`] call
    /// (not per attempt) so the disabled path stays off the per-slot hot
    /// loop entirely.
    pub(super) struct LinkMetrics {
        pub attempts: [Counter; 6],
        pub retransmits: [Counter; 6],
        pub crc_failures: [Counter; 6],
        pub header_losses: [Counter; 6],
        pub delivered: [Counter; 6],
        pub dropped: [Counter; 6],
        pub undetected: [Counter; 6],
        pub slots: [Counter; 6],
    }

    fn family(registry: &Registry, name: &str) -> [Counter; 6] {
        PacketType::ALL.map(|pt| registry.counter_with(name, &[("type", pt.label())]))
    }

    pub(super) fn handles() -> &'static LinkMetrics {
        static HANDLES: OnceLock<LinkMetrics> = OnceLock::new();
        HANDLES.get_or_init(|| {
            let registry = Registry::global();
            LinkMetrics {
                attempts: family(registry, "btpan_baseband_attempts_total"),
                retransmits: family(registry, "btpan_baseband_retransmits_total"),
                crc_failures: family(registry, "btpan_baseband_crc_failures_total"),
                header_losses: family(registry, "btpan_baseband_header_losses_total"),
                delivered: family(registry, "btpan_baseband_payloads_delivered_total"),
                dropped: family(registry, "btpan_baseband_payloads_dropped_total"),
                undetected: family(registry, "btpan_baseband_undetected_total"),
                slots: family(registry, "btpan_baseband_slots_used_total"),
            }
        })
    }
}

/// Configuration of an ACL link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Baseband packet type in use.
    pub packet_type: PacketType,
    /// Attempts per payload before the payload is flushed (dropped).
    pub retry_limit: u32,
}

impl LinkConfig {
    /// A link using `packet_type` with the spec-typical flush limit.
    pub fn new(packet_type: PacketType) -> Self {
        LinkConfig {
            packet_type,
            retry_limit: 8,
        }
    }

    /// Sets the retry (flush) limit.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    pub fn retry_limit(mut self, limit: u32) -> Self {
        assert!(limit > 0, "retry limit must be positive");
        self.retry_limit = limit;
        self
    }
}

/// Outcome of one transmission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptResult {
    /// Payload delivered and ACK received.
    Delivered,
    /// Header (or access code) lost; receiver saw nothing.
    HeaderLost,
    /// Payload corrupted and caught by FEC/CRC; NAK sent.
    PayloadCorrupted,
    /// Payload corrupted but the corruption escaped the CRC; the
    /// receiver ACKs a wrong payload.
    UndetectedCorruption,
    /// Payload delivered but the ACK was lost; sender retransmits, the
    /// receiver's SEQN check deduplicates.
    AckLost,
}

/// Outcome of transferring a sequence of payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransferOutcome {
    /// Payloads the caller asked to move.
    pub payloads_requested: u64,
    /// Payloads delivered intact.
    pub payloads_delivered: u64,
    /// Index of the first payload whose retries were exhausted
    /// (the transfer aborts there), if any.
    pub dropped_at: Option<u64>,
    /// Payloads delivered with corruption that escaped the CRC.
    pub undetected: u64,
    /// Total transmission attempts.
    pub attempts: u64,
    /// Total slots consumed (each attempt's packet slots plus its
    /// return slot).
    pub slots_used: u64,
}

impl TransferOutcome {
    /// True if every payload arrived intact.
    pub fn is_clean(&self) -> bool {
        self.dropped_at.is_none() && self.undetected == 0
    }
}

/// Longest ACL packet in slots (DM5/DH5).
const MAX_PACKET_SLOTS: usize = 5;

/// Memo entries per link: a Gilbert–Elliott channel yields two BERs, a
/// composite channel with one interferer four.
const MEMO_ENTRIES: usize = 4;

/// The success factors of one slot at one BER for one packet type.
#[derive(Debug, Clone, Copy)]
struct SlotFactors {
    packet_type: PacketType,
    ber_bits: u64,
    /// P(an 18-bit header, or the ACK, survives repetition FEC).
    header_ok: f64,
    /// P(the slot's share of the payload bits arrives intact).
    payload_ok: f64,
}

impl SlotFactors {
    fn compute(packet_type: PacketType, ber: f64) -> Self {
        let hdr_bit_err = fec::repetition_error_probability(ber);
        let header_ok = (1.0 - hdr_bit_err).powi(HEADER_BITS as i32);
        let payload_bits = packet_type.payload_bits_on_air();
        let bits_per_slot = payload_bits as f64 / packet_type.slots() as f64;
        let payload_ok = if packet_type.fec_coded() {
            let codewords = bits_per_slot / fec::CODE_BITS as f64;
            fec::hamming_block_success_probability(ber).powf(codewords)
        } else {
            (1.0 - ber).powf(bits_per_slot)
        };
        SlotFactors {
            packet_type,
            ber_bits: ber.to_bits(),
            header_ok,
            payload_ok,
        }
    }
}

/// An ACL link between a master and one slave.
#[derive(Debug)]
pub struct AclLink<C> {
    cfg: LinkConfig,
    channel: C,
    hop: HopSequence,
    slot_cursor: u64,
    /// Scratch buffers reused across [`Self::transmit_bytes_once`] calls
    /// so the real-codec path allocates nothing in steady state.
    scratch_body: Vec<u8>,
    scratch_words: Vec<u16>,
    scratch_decoded: Vec<u8>,
    /// Memoized [`SlotFactors`], keyed by packet type and BER bits.
    memo: [Option<SlotFactors>; MEMO_ENTRIES],
    memo_next: usize,
}

impl<C: ChannelModel> AclLink<C> {
    /// Creates a link over `channel` within the piconet hopping on
    /// `hop`.
    pub fn new(cfg: LinkConfig, channel: C, hop: HopSequence) -> Self {
        AclLink {
            cfg,
            channel,
            hop,
            slot_cursor: 0,
            scratch_body: Vec::new(),
            scratch_words: Vec::new(),
            scratch_decoded: Vec::new(),
            memo: [None; MEMO_ENTRIES],
            memo_next: 0,
        }
    }

    /// Current link configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.cfg
    }

    /// Mutable access, e.g. to change packet type between cycles.
    pub fn config_mut(&mut self) -> &mut LinkConfig {
        &mut self.cfg
    }

    /// Absolute slot index the link has advanced to.
    pub fn slot_cursor(&self) -> u64 {
        self.slot_cursor
    }

    /// Simulates one transmission attempt of a full-size payload.
    pub fn attempt(&mut self, rng: &mut SimRng) -> AttemptResult {
        let n_slots = self.cfg.packet_type.slots();
        let ch = self.hop.channel(self.slot_cursor);

        // The packet's slots share one RF channel (multi-slot packets do
        // not re-hop). The header rides the first slot; the payload bits
        // spread evenly over all of them.
        let mut saw_bad_state = false;
        let mut p_header_ok = 1.0;
        let mut p_payload_ok = 1.0;
        for i in 0..n_slots {
            if self.channel.state() == ChannelState::Bad {
                saw_bad_state = true;
            }
            let ber = self.channel.slot_ber(self.slot_cursor + i, ch, rng);
            let factors = self.factors(ber);
            if i == 0 {
                p_header_ok = factors.header_ok;
            }
            p_payload_ok *= factors.payload_ok;
        }

        // Return (ACK) slot.
        let ack_ch = self.hop.channel(self.slot_cursor + n_slots);
        if self.channel.state() == ChannelState::Bad {
            saw_bad_state = true;
        }
        let ack_ber = self
            .channel
            .slot_ber(self.slot_cursor + n_slots, ack_ch, rng);
        let p_ack_ok = self.factors(ack_ber).header_ok;

        self.slot_cursor += n_slots + 1;

        if !rng.chance(p_header_ok) {
            return AttemptResult::HeaderLost;
        }
        if !rng.chance(p_payload_ok) {
            // Corrupted payload: does it escape the CRC? Burst state
            // means long error runs (> 17 bits); good-state residual
            // errors are short and always caught.
            let burst_bits = if saw_bad_state { 64 } else { 8 };
            if rng.chance(crc::undetected_probability(burst_bits)) {
                return AttemptResult::UndetectedCorruption;
            }
            return AttemptResult::PayloadCorrupted;
        }
        if !rng.chance(p_ack_ok) {
            return AttemptResult::AckLost;
        }
        AttemptResult::Delivered
    }

    /// The link factors of one slot at `ber` under the current packet
    /// type, from the memo or computed and stored (evicting round-robin).
    fn factors(&mut self, ber: f64) -> SlotFactors {
        let packet_type = self.cfg.packet_type;
        let ber_bits = ber.to_bits();
        if let Some(hit) = self
            .memo
            .iter()
            .flatten()
            .find(|f| f.ber_bits == ber_bits && f.packet_type == packet_type)
        {
            return *hit;
        }
        let factors = SlotFactors::compute(packet_type, ber);
        self.memo[self.memo_next] = Some(factors);
        self.memo_next = (self.memo_next + 1) % self.memo.len();
        factors
    }

    /// Transfers `payloads` full-size payloads, aborting at the first
    /// payload whose retry budget is exhausted.
    pub fn send_payloads(&mut self, payloads: u64, rng: &mut SimRng) -> TransferOutcome {
        let start_slot = self.slot_cursor;
        let mut out = TransferOutcome {
            payloads_requested: payloads,
            ..TransferOutcome::default()
        };
        let mut crc_failures = 0u64;
        let mut header_losses = 0u64;
        'payloads: for index in 0..payloads {
            let mut delivered = false;
            for _try in 0..self.cfg.retry_limit {
                out.attempts += 1;
                match self.attempt(rng) {
                    AttemptResult::Delivered => {
                        delivered = true;
                        break;
                    }
                    AttemptResult::AckLost => {
                        // Receiver has it; sender retransmits once more,
                        // receiver dedups. Treat as delivered after the
                        // redundant attempt (SEQN match).
                        delivered = true;
                        break;
                    }
                    AttemptResult::UndetectedCorruption => {
                        out.undetected += 1;
                        delivered = true;
                        break;
                    }
                    AttemptResult::HeaderLost => header_losses += 1,
                    AttemptResult::PayloadCorrupted => crc_failures += 1,
                }
            }
            if delivered {
                out.payloads_delivered += 1;
            } else {
                out.dropped_at = Some(index);
                break 'payloads;
            }
        }
        out.slots_used = self.slot_cursor - start_slot;
        let obs = metrics::handles();
        let idx = self.cfg.packet_type.index();
        let payloads_started = out.payloads_delivered + u64::from(out.dropped_at.is_some());
        obs.attempts[idx].add(out.attempts);
        obs.retransmits[idx].add(out.attempts - payloads_started);
        obs.crc_failures[idx].add(crc_failures);
        obs.header_losses[idx].add(header_losses);
        obs.delivered[idx].add(out.payloads_delivered);
        obs.dropped[idx].add(u64::from(out.dropped_at.is_some()));
        obs.undetected[idx].add(out.undetected);
        obs.slots[idx].add(out.slots_used);
        out
    }

    /// Transmits real bytes through the real codecs once (no ARQ):
    /// encodes with FEC/CRC as the packet type dictates, flips bits per
    /// the sampled slot BER, and decodes. Used by tests to validate the
    /// probabilistic fast path against the actual bit machinery.
    pub fn transmit_bytes_once(&mut self, payload: &[u8], rng: &mut SimRng) -> Option<Vec<u8>> {
        let pt = self.cfg.packet_type;
        assert!(
            payload.len() <= pt.max_payload_bytes() as usize,
            "payload exceeds packet capacity"
        );
        let ch = self.hop.channel(self.slot_cursor);
        crc::append_crc_into(payload, &mut self.scratch_body);
        let n_slots = pt.slots();
        debug_assert!(n_slots as usize <= MAX_PACKET_SLOTS);
        let mut bers = [0.0f64; MAX_PACKET_SLOTS];
        for (i, ber) in bers[..n_slots as usize].iter_mut().enumerate() {
            *ber = self.channel.slot_ber(self.slot_cursor + i as u64, ch, rng);
        }
        self.slot_cursor += n_slots + 1;
        let ber_avg = bers[..n_slots as usize].iter().sum::<f64>() / n_slots as f64;

        let received: &[u8] = if pt.fec_coded() {
            fec::encode_bytes_into(&self.scratch_body, &mut self.scratch_words);
            for w in self.scratch_words.iter_mut() {
                for bit in 0..fec::CODE_BITS {
                    if rng.chance(ber_avg) {
                        *w ^= 1 << bit;
                    }
                }
            }
            let body_len = self.scratch_body.len();
            if !fec::decode_bytes_into(&self.scratch_words, body_len, &mut self.scratch_decoded) {
                return None;
            }
            &self.scratch_decoded
        } else {
            // Corrupt the scratch body in place — no working copy needed.
            for byte in self.scratch_body.iter_mut() {
                for bit in 0..8 {
                    if rng.chance(ber_avg) {
                        *byte ^= 1 << bit;
                    }
                }
            }
            &self.scratch_body
        };
        crc::check_crc(received).map(<[u8]>::to_vec)
    }
}

/// Calibrated per-payload outcome probabilities for fast cycle sampling.
///
/// Obtained by Monte-Carlo over the slot-fidelity link; the campaign
/// layer then samples a cycle's transfer outcome as a geometric/binomial
/// draw instead of simulating billions of slots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DropProfile {
    /// Packet type the profile describes.
    pub packet_type: PacketType,
    /// Probability a payload is dropped (retries exhausted).
    pub p_drop: f64,
    /// Probability a payload is delivered corrupt (CRC escape).
    pub p_undetected: f64,
    /// Mean attempts per delivered payload.
    pub mean_attempts: f64,
    /// Mean slots consumed per payload.
    pub mean_slots: f64,
}

impl DropProfile {
    /// Calibrates a profile by pushing `n_payloads` through a
    /// slot-fidelity link.
    pub fn calibrate<C: ChannelModel>(
        cfg: LinkConfig,
        channel: C,
        hop: HopSequence,
        n_payloads: u64,
        rng: &mut SimRng,
    ) -> Self {
        let mut link = AclLink::new(cfg, channel, hop);
        let mut dropped = 0u64;
        let mut undetected = 0u64;
        let mut attempts = 0u64;
        let start = link.slot_cursor();
        let mut sent = 0u64;
        while sent < n_payloads {
            // Send in bursts of 64 to amortize; aborts mid-burst on drop.
            let burst = 64.min(n_payloads - sent);
            let out = link.send_payloads(burst, rng);
            attempts += out.attempts;
            undetected += out.undetected;
            if out.dropped_at.is_some() {
                dropped += 1;
                sent += out.payloads_delivered + 1;
            } else {
                sent += out.payloads_delivered;
            }
        }
        let slots = link.slot_cursor() - start;
        DropProfile {
            packet_type: cfg.packet_type,
            p_drop: dropped as f64 / sent as f64,
            p_undetected: undetected as f64 / sent as f64,
            mean_attempts: attempts as f64 / sent as f64,
            mean_slots: slots as f64 / sent as f64,
        }
    }

    /// Probability that a transfer of `payloads` payloads completes with
    /// no drop.
    pub fn p_transfer_clean(&self, payloads: u64) -> f64 {
        (1.0 - self.p_drop).powf(payloads as f64)
    }

    /// Samples the index of the first dropped payload in a transfer of
    /// `payloads`, or `None` if the transfer survives.
    pub fn sample_first_drop(&self, payloads: u64, rng: &mut SimRng) -> Option<u64> {
        if self.p_drop <= 0.0 {
            return None;
        }
        // Geometric draw of payloads-before-first-drop.
        let g = Geometric::new(self.p_drop).expect("p_drop in (0,1]");
        let first = g.sample(rng);
        (first < payloads).then_some(first)
    }

    /// Samples how many of `payloads` delivered payloads carry
    /// undetected corruption.
    pub fn sample_undetected(&self, payloads: u64, rng: &mut SimRng) -> u64 {
        if self.p_undetected <= 0.0 || payloads == 0 {
            return 0;
        }
        // Thin payloads with small p: Poisson-like, sample as binomial
        // via repeated Bernoulli only when expected count is small.
        let expected = self.p_undetected * payloads as f64;
        if expected < 30.0 {
            let mut hits = 0;
            // Geometric skipping for efficiency.
            let g = Geometric::new(self.p_undetected).expect("p in (0,1]");
            let mut pos = 0u64;
            loop {
                let skip = g.sample(rng);
                pos = pos.saturating_add(skip).saturating_add(1);
                if pos > payloads {
                    break;
                }
                hits += 1;
            }
            hits
        } else {
            // Normal approximation for large counts.
            let var = expected * (1.0 - self.p_undetected);
            let u1 = rng.uniform01().max(f64::MIN_POSITIVE);
            let u2 = rng.uniform01();
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            (expected + z * var.sqrt()).round().max(0.0) as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{GilbertElliott, MemorylessChannel};

    fn rng() -> SimRng {
        SimRng::seed_from(0xACE)
    }

    fn quiet_link(pt: PacketType) -> AclLink<MemorylessChannel> {
        AclLink::new(
            LinkConfig::new(pt),
            MemorylessChannel::new(0.0),
            HopSequence::new(1),
        )
    }

    #[test]
    fn clean_channel_delivers_everything() {
        let mut link = quiet_link(PacketType::Dh5);
        let out = link.send_payloads(100, &mut rng());
        assert_eq!(out.payloads_delivered, 100);
        assert!(out.is_clean());
        assert_eq!(out.attempts, 100);
        // 6 slots per attempt for DH5.
        assert_eq!(out.slots_used, 600);
    }

    #[test]
    fn hostile_channel_drops() {
        let mut link = AclLink::new(
            LinkConfig::new(PacketType::Dh5).retry_limit(3),
            MemorylessChannel::new(0.05),
            HopSequence::new(1),
        );
        let out = link.send_payloads(50, &mut rng());
        assert!(out.dropped_at.is_some());
        assert!(out.payloads_delivered < 50);
    }

    #[test]
    fn fec_helps_at_moderate_ber() {
        // At BER where DH fails, DM1's FEC should still deliver a
        // substantially larger per-attempt success rate.
        let mut r = rng();
        let n = 3000;
        let count = |pt: PacketType, r: &mut SimRng| {
            let mut link = AclLink::new(
                LinkConfig::new(pt).retry_limit(1),
                MemorylessChannel::new(2e-3),
                HopSequence::new(1),
            );
            (0..n)
                .filter(|_| matches!(link.attempt(r), AttemptResult::Delivered))
                .count()
        };
        let dm1 = count(PacketType::Dm1, &mut r);
        let dh1 = count(PacketType::Dh1, &mut r);
        assert!(
            dm1 > dh1 + n / 20,
            "FEC not helping: DM1 {dm1} vs DH1 {dh1}"
        );
    }

    #[test]
    fn attempts_use_packet_and_return_slots() {
        let cfg = LinkConfig::new(PacketType::Dh3);
        let mut link = AclLink::new(cfg, MemorylessChannel::new(0.0), HopSequence::new(1));
        let out = link.send_payloads(10, &mut rng());
        assert_eq!(out.slots_used, 40);
        assert_eq!(link.slot_cursor(), 40);
    }

    #[test]
    fn burst_channel_drops_more_single_slot_payloads_per_byte() {
        // Core Fig. 3a mechanism: for the same byte volume, 1-slot
        // packets give more payloads and retries bunch inside bursts.
        let mut r = rng();
        let bytes: u64 = 1691 * 400;
        let drop_fraction = |pt: PacketType, r: &mut SimRng| {
            let ge = GilbertElliott::new(2e-4, 0.02, 1e-6, 0.08);
            let mut link =
                AclLink::new(LinkConfig::new(pt).retry_limit(4), ge, HopSequence::new(3));
            let payloads = pt.packets_for(bytes);
            let mut dropped = 0u64;
            let mut sent = 0u64;
            while sent < payloads {
                let out = link.send_payloads(payloads - sent, r);
                sent += out.payloads_delivered;
                if out.dropped_at.is_some() {
                    dropped += 1;
                    sent += 1;
                }
            }
            dropped as f64 / payloads as f64
        };
        let dh1 = drop_fraction(PacketType::Dh1, &mut r);
        let dh5 = drop_fraction(PacketType::Dh5, &mut r);
        // Per payload the 1-slot type should drop at least as often; per
        // byte it is strictly worse because it needs ~5x the payloads.
        let per_byte_dh1 = dh1 * PacketType::Dh1.packets_for(bytes) as f64;
        let per_byte_dh5 = dh5 * PacketType::Dh5.packets_for(bytes) as f64;
        assert!(
            per_byte_dh1 > per_byte_dh5,
            "DH1 {per_byte_dh1} vs DH5 {per_byte_dh5}"
        );
    }

    #[test]
    fn real_bytes_round_trip_clean() {
        let mut link = quiet_link(PacketType::Dm1);
        let out = link.transmit_bytes_once(b"hello", &mut rng());
        assert_eq!(out.unwrap(), b"hello");
    }

    #[test]
    fn real_bytes_detect_corruption() {
        let mut link = AclLink::new(
            LinkConfig::new(PacketType::Dh1),
            MemorylessChannel::new(0.08),
            HopSequence::new(1),
        );
        let mut r = rng();
        let lost = (0..200)
            .filter(|_| {
                link.transmit_bytes_once(b"corruptible payload", &mut r)
                    .is_none()
            })
            .count();
        assert!(lost > 100, "only {lost} corrupted at BER 0.08");
    }

    #[test]
    #[should_panic(expected = "exceeds packet capacity")]
    fn oversized_payload_panics() {
        let mut link = quiet_link(PacketType::Dm1);
        let _ = link.transmit_bytes_once(&[0u8; 18], &mut rng());
    }

    #[test]
    fn drop_profile_calibration_sane() {
        let mut r = rng();
        let prof = DropProfile::calibrate(
            LinkConfig::new(PacketType::Dh1).retry_limit(4),
            GilbertElliott::new(5e-4, 0.02, 1e-6, 0.08),
            HopSequence::new(5),
            30_000,
            &mut r,
        );
        assert!(prof.p_drop > 0.0 && prof.p_drop < 0.2, "{prof:?}");
        assert!(prof.mean_attempts >= 1.0);
        assert!(prof.mean_slots >= 2.0);
        // Fast path consistency: clean-transfer probability decreases
        // with transfer length.
        assert!(prof.p_transfer_clean(10) > prof.p_transfer_clean(1000));
    }

    #[test]
    fn drop_profile_sampling_consistent() {
        let prof = DropProfile {
            packet_type: PacketType::Dh1,
            p_drop: 0.01,
            p_undetected: 0.001,
            mean_attempts: 1.1,
            mean_slots: 2.4,
        };
        let mut r = rng();
        let n = 20_000;
        let drops = (0..n)
            .filter(|_| prof.sample_first_drop(100, &mut r).is_some())
            .count();
        let expect = 1.0 - prof.p_transfer_clean(100); // ~0.634
        let freq = drops as f64 / n as f64;
        assert!((freq - expect).abs() < 0.02, "freq {freq} expect {expect}");
        // Undetected counts have roughly the right mean.
        let total: u64 = (0..n).map(|_| prof.sample_undetected(100, &mut r)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 0.1).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn zero_drop_profile_never_drops() {
        let prof = DropProfile {
            packet_type: PacketType::Dh5,
            p_drop: 0.0,
            p_undetected: 0.0,
            mean_attempts: 1.0,
            mean_slots: 6.0,
        };
        let mut r = rng();
        assert_eq!(prof.sample_first_drop(1_000_000, &mut r), None);
        assert_eq!(prof.sample_undetected(1_000_000, &mut r), 0);
        assert_eq!(prof.p_transfer_clean(1_000_000), 1.0);
    }
}
