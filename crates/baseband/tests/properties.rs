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
