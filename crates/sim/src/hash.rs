//! The one stable content hash behind every persistent name and digest:
//! checkpoint and journal file names, tile-store shard selection, ledger
//! keys, job digests and backoff jitter seeds.

/// FNV-1a 64-bit over `bytes` — stable across processes and platforms
/// (unlike `DefaultHasher`, whose keys are unspecified), so file names
/// derived from it survive a restart.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable() {
        // Pinned values: file names must survive process restarts.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }
}
