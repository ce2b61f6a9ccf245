//! Property-based tests over the baseband codecs and piconet.

use btpan_baseband::crc::{append_crc, check_crc};
use btpan_baseband::fec::{
    decode, decode_bytes, decode_bytes_into, encode, encode_bytes, encode_bytes_into, Decoded,
};
use btpan_baseband::piconet::{Piconet, MAX_ACTIVE_SLAVES};
use proptest::prelude::*;

proptest! {
    #[test]
    fn crc_round_trips(payload in prop::collection::vec(any::<u8>(), 0..256)) {
        let body = append_crc(&payload);
        prop_assert_eq!(check_crc(&body), Some(payload.as_slice()));
    }

    #[test]
    fn fec_into_variants_equal_allocating_ones(payload in prop::collection::vec(any::<u8>(), 0..64),
                                               flips in prop::collection::vec((any::<u16>(), 0u32..15), 0..8)) {
        let words = encode_bytes(&payload);
        let mut words_into = Vec::new();
        encode_bytes_into(&payload, &mut words_into);
        prop_assert_eq!(&words, &words_into);

        // Corrupt a few codewords and compare decode paths too.
        let mut corrupted = words;
        for &(idx, bit) in &flips {
            if !corrupted.is_empty() {
                let idx = idx as usize % corrupted.len();
                corrupted[idx] ^= 1 << bit;
            }
        }
        let via_alloc = decode_bytes(&corrupted, payload.len());
        let mut buf = vec![0xAAu8; 3];
        let ok = decode_bytes_into(&corrupted, payload.len(), &mut buf);
        prop_assert_eq!(via_alloc.is_some(), ok);
        if let Some(decoded) = via_alloc {
            prop_assert_eq!(decoded, buf);
        }
    }

    #[test]
    fn crc_detects_any_single_flip(payload in prop::collection::vec(any::<u8>(), 1..128), bit in any::<u16>()) {
        let mut body = append_crc(&payload);
        let total_bits = body.len() * 8;
        let bit = (bit as usize) % total_bits;
        body[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(check_crc(&body).is_none());
    }

    #[test]
    fn crc_detects_any_short_burst(payload in prop::collection::vec(any::<u8>(), 2..64),
                                   start in any::<u16>(), pattern in 1u16..0xFFFF) {
        // A burst of <= 16 bits (pattern != 0) anywhere must be caught.
        let mut body = append_crc(&payload);
        let total_bits = body.len() * 8;
        let start = (start as usize) % (total_bits - 16);
        for i in 0..16 {
            if pattern & (1 << i) != 0 {
                let bit = start + i;
                body[bit / 8] ^= 1 << (bit % 8);
            }
        }
        prop_assert!(check_crc(&body).is_none());
    }

    #[test]
    fn fec_corrects_any_single_error(data in 0u16..1024, bit in 0u32..15) {
        let cw = encode(data);
        match decode(cw ^ (1 << bit)) {
            Decoded::Corrected(d) => prop_assert_eq!(d, data),
            other => prop_assert!(false, "unexpected {other:?}"),
        }
    }

    #[test]
    fn fec_clean_decode_is_identity(data in 0u16..1024) {
        prop_assert_eq!(decode(encode(data)), Decoded::Clean(data));
    }

    #[test]
    fn piconet_membership_invariants(ops in prop::collection::vec((0u8..3, 1u64..12), 0..64)) {
        let mut p = Piconet::new(100);
        for (op, dev) in ops {
            match op {
                0 => { let _ = p.join(dev); }
                1 => { let _ = p.leave(dev); }
                _ => { let _ = p.switch_role(dev); }
            }
            prop_assert!(p.slave_count() <= MAX_ACTIVE_SLAVES);
            // The master is never simultaneously a slave.
            prop_assert!(!p.is_slave(p.master()));
        }
    }
}

/// Golden slot-level transfers: `AclLink::send_payloads` outcomes pinned
/// exactly, so any change to the per-attempt arithmetic or the RNG draw
/// order of the link shows here.
mod golden_transfers {
    use btpan_baseband::channel::{
        ChannelModel, CompositeChannel, GilbertElliott, Interferer, PathLoss,
    };
    use btpan_baseband::hop::HopSequence;
    use btpan_baseband::link::{AclLink, LinkConfig};
    use btpan_baseband::packet::PacketType;
    use btpan_sim::prelude::*;

    /// Per packet-type segment: `(delivered, drops, undetected,
    /// attempts, slots_used)` summed over the segment's transfers.
    type Totals = (u64, u64, u64, u64, u64);

    /// For each packet type in `types`, switches the link to it with
    /// `config_mut` and sends 200 transfers of 64 payloads (each aborts
    /// at its first drop, as in calibration). Returns the per-segment
    /// totals plus the next draw of the RNG, which pins how many draws
    /// the link consumed.
    fn run<C: ChannelModel>(channel: C, types: &[PacketType], seed: u64) -> (Vec<Totals>, u64) {
        let mut link = AclLink::new(
            LinkConfig::new(types[0]).retry_limit(4),
            channel,
            HopSequence::new(0xCA11B),
        );
        let mut rng = SimRng::seed_from(seed);
        let totals = types
            .iter()
            .map(|&pt| {
                link.config_mut().packet_type = pt;
                let mut t: Totals = (0, 0, 0, 0, 0);
                for _ in 0..200 {
                    let out = link.send_payloads(64, &mut rng);
                    t.0 += out.payloads_delivered;
                    t.1 += u64::from(out.dropped_at.is_some());
                    t.2 += out.undetected;
                    t.3 += out.attempts;
                    t.4 += out.slots_used;
                }
                t
            })
            .collect();
        (totals, rng.uniform01().to_bits())
    }

    fn calibration_channel() -> GilbertElliott {
        GilbertElliott::new(1e-2, 0.08, 5e-6, 0.12)
    }

    #[test]
    fn gilbert_elliott_transfers_are_pinned() {
        let got = run(calibration_channel(), &[PacketType::Dm1; 2], 11);
        let want: (Vec<Totals>, u64) = (
            vec![(5502, 142, 0, 6263, 12526), (5736, 143, 0, 6495, 12990)],
            4606707443786824622,
        );
        assert_eq!(got, want, "{got:?}");
    }

    /// Path loss plus an interferer give BERs that are products of
    /// several sources, so this pins the arithmetic on values other than
    /// the two Gilbert–Elliott levels.
    #[test]
    fn composite_channel_transfers_are_pinned() {
        let mut channel = CompositeChannel::new(calibration_channel(), PathLoss::new(7.0));
        channel.add_interferer(Interferer::new(39, 22, 2e-2, 0.05, 0.1));
        let got = run(channel, &[PacketType::Dh3; 2], 12);
        let want: (Vec<Totals>, u64) = (
            vec![(5725, 159, 0, 7419, 29676), (6182, 155, 0, 7767, 31068)],
            4605512184314131290,
        );
        assert_eq!(got, want, "{got:?}");
    }

    /// One link whose packet type changes between transfers: the
    /// per-slot payload factor depends on the type, not only the BER.
    #[test]
    fn packet_type_switches_are_pinned() {
        let types = [
            PacketType::Dm1,
            PacketType::Dh5,
            PacketType::Dm3,
            PacketType::Dh1,
            PacketType::Dm5,
            PacketType::Dh3,
        ];
        let got = run(calibration_channel(), &types, 13);
        let want: (Vec<Totals>, u64) = (
            vec![
                (6057, 130, 0, 6747, 13494),
                (6280, 153, 0, 7604, 45624),
                (7073, 128, 0, 7998, 31992),
                (5120, 146, 0, 5861, 11722),
                (6811, 141, 0, 7976, 47856),
                (6115, 144, 0, 7095, 28380),
            ],
            4599462324278792316,
        );
        assert_eq!(got, want, "{got:?}");
    }
}
