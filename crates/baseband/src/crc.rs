//! CRC-16/CCITT payload check.
//!
//! The Bluetooth baseband appends a 16-bit CRC (polynomial `0x1021`,
//! initial value derived from the device's UAP; we use `0x0000` as the
//! paper's analysis is UAP-independent) to every ACL payload regardless
//! of payload length. The paper (citing Paulitsch et al., DSN'05) points
//! out the weakness exploited by correlated channel errors: a CRC-16
//! detects *all* error bursts of length ≤ 16 bits, but longer bursts
//! escape with probability ≈ 2⁻¹⁶ — the origin of the observed
//! `Data mismatch` user failures.

/// The CCITT generator polynomial x¹⁶ + x¹² + x⁵ + 1.
pub const POLY: u16 = 0x1021;

/// 256-entry table: `TABLE[b]` is the CRC register after clocking byte
/// `b` through a zero register — one table lookup then replaces eight
/// conditional shift-xor steps per input byte.
static TABLE: [u16; 256] = build_table();

const fn build_table() -> [u16; 256] {
    let mut table = [0u16; 256];
    let mut b = 0usize;
    while b < 256 {
        let mut crc = (b as u16) << 8;
        let mut i = 0;
        while i < 8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ POLY
            } else {
                crc << 1
            };
            i += 1;
        }
        table[b] = crc;
        b += 1;
    }
    table
}

/// Computes the CRC-16/CCITT over `data` (MSB-first, init 0).
///
/// ```
/// use btpan_baseband::crc::crc16;
/// assert_eq!(crc16(b"123456789"), 0x31C3);
/// ```
pub fn crc16(data: &[u8]) -> u16 {
    crc16_with(0x0000, data)
}

/// Computes the CRC-16/CCITT continuing from `init` (for incremental
/// checks over segmented payloads). Table-driven; this module's tests
/// prove it bit-for-bit equal to the bitwise shift-register reference
/// they keep.
pub fn crc16_with(init: u16, data: &[u8]) -> u16 {
    let mut crc = init;
    for &byte in data {
        crc = (crc << 8) ^ TABLE[usize::from((crc >> 8) as u8 ^ byte)];
    }
    crc
}

/// Appends the CRC to a payload, producing the on-air payload body.
pub fn append_crc(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 2);
    append_crc_into(payload, &mut out);
    out
}

/// Appends `payload ++ crc` into `out` (cleared first), reusing the
/// caller's allocation on the hot path.
pub fn append_crc_into(payload: &[u8], out: &mut Vec<u8>) {
    out.clear();
    out.reserve(payload.len() + 2);
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc16(payload).to_be_bytes());
}

/// Checks a received `payload ++ crc` body; returns the payload slice if
/// the CRC matches.
pub fn check_crc(body: &[u8]) -> Option<&[u8]> {
    if body.len() < 2 {
        return None;
    }
    let (payload, crc_bytes) = body.split_at(body.len() - 2);
    let received = u16::from_be_bytes([crc_bytes[0], crc_bytes[1]]);
    (crc16(payload) == received).then_some(payload)
}

/// Probability that a corrupted payload escapes CRC detection, given the
/// length of the error burst in bits.
///
/// Exact CRC property: bursts of length ≤ 16 are always detected; a
/// burst of exactly 17 bits escapes with probability 2⁻¹⁵; longer
/// bursts escape with probability 2⁻¹⁶. (Standard results for a degree-16
/// generator with a nonzero constant term.)
pub fn undetected_probability(burst_bits: u32) -> f64 {
    match burst_bits {
        0 => 0.0,
        1..=16 => 0.0,
        17 => 1.0 / 32_768.0,
        _ => 1.0 / 65_536.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bitwise shift-register implementation: the reference the
    /// table implementation is proved equivalent to.
    fn crc16_bitwise_with(init: u16, data: &[u8]) -> u16 {
        let mut crc = init;
        for &byte in data {
            crc ^= u16::from(byte) << 8;
            for _ in 0..8 {
                if crc & 0x8000 != 0 {
                    crc = (crc << 1) ^ POLY;
                } else {
                    crc <<= 1;
                }
            }
        }
        crc
    }

    proptest! {
        #[test]
        fn crc_table_equals_bitwise_reference(payload in prop::collection::vec(any::<u8>(), 0..512),
                                              init in any::<u16>()) {
            // The 256-entry table implementation must agree with the
            // original shift-register loop on arbitrary payloads from
            // arbitrary register states.
            prop_assert_eq!(crc16_with(init, &payload), crc16_bitwise_with(init, &payload));
        }
    }

    #[test]
    fn known_vector() {
        // CRC-16/XMODEM check value for "123456789".
        assert_eq!(crc16(b"123456789"), 0x31C3);
        assert_eq!(crc16(b""), 0x0000);
        assert_eq!(crc16(b"A"), 0x58E5);
    }

    #[test]
    fn table_matches_bitwise_reference() {
        // Every single-byte input from every byte-boundary register state
        // reachable in one step, plus a pseudo-random sweep. The full
        // arbitrary-payload proof is `crc_table_equals_bitwise_reference`.
        for b in 0..=255u8 {
            assert_eq!(crc16_with(0, &[b]), crc16_bitwise_with(0, &[b]));
        }
        let mut x = 0x243F_6A88_85A3_08D3u64;
        let mut buf = Vec::new();
        for round in 0..64 {
            buf.clear();
            for _ in 0..round * 3 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                buf.push(x as u8);
            }
            let init = (x >> 16) as u16;
            assert_eq!(crc16_with(init, &buf), crc16_bitwise_with(init, &buf));
        }
    }

    #[test]
    fn append_crc_into_reuses_buffer() {
        let mut buf = vec![0xFFu8; 64];
        append_crc_into(b"hello bluetooth", &mut buf);
        assert_eq!(buf, append_crc(b"hello bluetooth"));
        append_crc_into(b"", &mut buf);
        assert_eq!(buf, append_crc(b""));
    }

    #[test]
    fn append_then_check_round_trips() {
        let body = append_crc(b"hello bluetooth");
        assert_eq!(check_crc(&body), Some(b"hello bluetooth".as_ref()));
    }

    #[test]
    fn detects_single_bit_flips_everywhere() {
        let body = append_crc(b"payload under test");
        for byte in 0..body.len() {
            for bit in 0..8 {
                let mut corrupted = body.clone();
                corrupted[byte] ^= 1 << bit;
                assert!(
                    check_crc(&corrupted).is_none(),
                    "missed flip at byte {byte} bit {bit}"
                );
            }
        }
    }

    #[test]
    fn detects_all_short_bursts() {
        // Any burst of <= 16 bits must be detected.
        let body = append_crc(&[0u8; 32]);
        let total_bits = body.len() * 8;
        for burst_len in 1..=16usize {
            for start in 0..(total_bits - burst_len) {
                let mut corrupted = body.clone();
                // Flip the boundary bits of the burst (a burst of length L
                // has its first and last bit in error by definition).
                let mut offsets = vec![0];
                if burst_len > 1 {
                    offsets.push(burst_len - 1);
                }
                for &offset in &offsets {
                    let bit = start + offset;
                    corrupted[bit / 8] ^= 1 << (bit % 8);
                }
                assert!(
                    check_crc(&corrupted).is_none(),
                    "missed burst len {burst_len} at {start}"
                );
            }
        }
    }

    #[test]
    fn incremental_crc_matches_oneshot() {
        let data = b"segmented payload over l2cap";
        let whole = crc16(data);
        let (a, b) = data.split_at(10);
        let part = crc16_with(crc16(a), b);
        assert_eq!(whole, part);
    }

    #[test]
    fn check_rejects_truncated_body() {
        assert!(check_crc(&[]).is_none());
        assert!(check_crc(&[0x12]).is_none());
    }

    #[test]
    fn undetected_probability_profile() {
        assert_eq!(undetected_probability(0), 0.0);
        assert_eq!(undetected_probability(8), 0.0);
        assert_eq!(undetected_probability(16), 0.0);
        assert!(undetected_probability(17) > undetected_probability(18));
        assert!((undetected_probability(100) - 1.0 / 65536.0).abs() < 1e-12);
    }
}
