//! 64-bit FNV-1a over bytes: the container checksum and the digest
//! that names each entry file. Stable across processes and platforms
//! (unlike `std::hash`), tiny, and dependency-free. Not cryptographic:
//! the container stores the full key, so a collision costs a miss,
//! never a wrong artifact.

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x00000100000001b3;

/// Hashes raw bytes.
pub(crate) fn hash_bytes(bytes: &[u8]) -> u64 {
    hash_bytes_from(FNV_OFFSET, bytes)
}

/// Continues a hash from a prior state over more bytes:
/// `hash_bytes_from(hash_bytes(a), b)` hashes `a ++ b` without
/// materializing the concatenation.
pub(crate) fn hash_bytes_from(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // FNV-1a 64 of the empty input is the offset basis; of "a" it
        // is the classic published vector.
        assert_eq!(hash_bytes(b""), 0xcbf29ce484222325);
        assert_eq!(hash_bytes(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn bytes_agree_with_str_and_concatenation() {
        // Keys are UTF-8 source text; a split inside a multi-byte
        // character still hashes like the whole text.
        let s = "λx.x";
        let (a, b) = s.as_bytes().split_at(1);
        assert_eq!(hash_bytes_from(hash_bytes(a), b), hash_bytes(s.as_bytes()));
    }
}
