//! CRC-32 (IEEE 802.3, the zlib/gzip polynomial), dependency-free.
//!
//! The workspace's durable artifacts carry CRC-32s — a footer on each
//! cached print-shop quote, a field on each line of a campaign
//! checkpoint or the shop's job journal — so a torn write or a flipped
//! bit is *detected* and recovered from, never silently served.
//! JSON parsing alone cannot catch a corrupted-but-still-parsable line;
//! the checksum can.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// One 256-entry table, built at compile time so the hot path is a
/// single lookup per byte.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 of `bytes` (IEEE, reflected, init/xorout `0xFFFF_FFFF`) —
/// matches `zlib.crc32` / `cksum -o 3` output.
///
/// ```
/// // Known-answer vector from the zlib test suite.
/// assert_eq!(printed_obs::crc::crc32(b"123456789"), 0xCBF4_3926);
/// assert_eq!(printed_obs::crc::crc32(b""), 0);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Extends `crc`, the CRC-32 of some bytes, with `more`:
/// `crc32_update(crc32(a), b) == crc32(a ++ b)`, so a checksum can be
/// taken over pieces without joining them.
///
/// ```
/// use printed_obs::crc::{crc32, crc32_update};
/// assert_eq!(crc32_update(crc32(b"1234"), b"56789"), crc32(b"123456789"));
/// ```
pub fn crc32_update(crc: u32, more: &[u8]) -> u32 {
    let mut crc = !crc;
    for &b in more {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn known_answer_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
    }

    #[test]
    fn detects_single_bit_flips() {
        let payload = b"{\"type\":\"slot\",\"i\":17,\"o\":\"masked\",\"r\":0}";
        let good = crc32(payload);
        for byte in 0..payload.len() {
            for bit in 0..8 {
                let mut flipped = payload.to_vec();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), good, "flip at {byte}.{bit} undetected");
            }
        }
    }

    #[test]
    fn detects_truncation() {
        let payload = b"content-addressed quote body";
        let good = crc32(payload);
        for cut in 0..payload.len() {
            assert_ne!(crc32(&payload[..cut]), good, "truncation at {cut} undetected");
        }
    }
}
