//! FNV-1a, the workspace's one content digest.

/// FNV-1a over `bytes` — the workspace's one content digest: shop query
/// keys, lockstep memory digests, and (through [`Fnv1a`]) the campaign
/// fingerprints checkpoints and cached quotes are filed under.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::new();
    hash.write(bytes);
    hash.finish()
}

/// Streaming [`fnv1a`], for digests fed piece by piece: writing the
/// pieces in order hashes exactly their concatenation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// The empty digest (the FNV-1a offset basis).
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds `value`'s little-endian bytes into the digest.
    pub fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    /// The digest of everything written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn streaming_fnv1a_hashes_the_concatenation() {
        let mut h = Fnv1a::new();
        h.write(b"ab");
        h.write_u64(7);
        let mut whole = b"ab".to_vec();
        whole.extend_from_slice(&7u64.to_le_bytes());
        assert_eq!(h.finish(), fnv1a(&whole));
    }
}
