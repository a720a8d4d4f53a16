//! Payload bytes are a pure function of `(seed, object, offset)`, so any
//! reply can be checked without remembering what was sent: byte `i` of an
//! object is byte `i % 8` of the little-endian word
//! `mix64(key(seed, object) + i / 8)`.

use crate::rng::mix64;

fn key(seed: u64, object: u64) -> u64 {
    mix64(seed ^ mix64(object))
}

fn word(key: u64, index: u64) -> [u8; 8] {
    mix64(key.wrapping_add(index)).to_le_bytes()
}

/// Fills `buf` with the object's bytes starting at byte `offset`.
pub fn fill(seed: u64, object: u64, offset: u64, buf: &mut [u8]) {
    let key = key(seed, object);
    let mut pos = offset;
    let mut rest = buf;
    // Unaligned head, aligned words, then the tail.
    while !pos.is_multiple_of(8) && !rest.is_empty() {
        rest[0] = word(key, pos / 8)[(pos % 8) as usize];
        rest = &mut rest[1..];
        pos += 1;
    }
    let mut words = rest.chunks_exact_mut(8);
    for chunk in &mut words {
        chunk.copy_from_slice(&word(key, pos / 8));
        pos += 8;
    }
    for (i, b) in words.into_remainder().iter_mut().enumerate() {
        *b = word(key, pos / 8)[i];
    }
}

/// The object's first `len` bytes.
pub fn generate(seed: u64, object: u64, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    fill(seed, object, 0, &mut buf);
    buf
}

/// Full compare of `data` against the object's bytes from `offset`.
pub fn verify_full(seed: u64, object: u64, offset: u64, data: &[u8]) -> bool {
    // Regenerate a block at a time (word-wise, so a 16 MiB body costs a
    // few milliseconds) instead of materialising a second copy.
    let mut expected = [0u8; 4096];
    let mut pos = offset;
    data.chunks(expected.len()).all(|chunk| {
        let want = &mut expected[..chunk.len()];
        fill(seed, object, pos, want);
        pos += chunk.len() as u64;
        chunk == want
    })
}

/// Bytes probed by [`verify_sparse`] (plus the first and last byte).
const SPARSE_PROBES: u64 = 64;

/// Cheap in-timer check: `data` has exactly `expected_len` bytes and a
/// fixed pseudo-random sample of them (always including both ends) match.
pub fn verify_sparse(seed: u64, object: u64, expected_len: usize, data: &[u8]) -> bool {
    if data.len() != expected_len {
        return false;
    }
    if data.is_empty() {
        return true;
    }
    let key = key(seed, object);
    let len = data.len() as u64;
    let ok = |pos: u64| data[pos as usize] == word(key, pos / 8)[(pos % 8) as usize];
    ok(0) && ok(len - 1) && (0..SPARSE_PROBES).all(|i| ok(mix64(key ^ i) % len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_and_verifier_round_trip() {
        let data = generate(1, 42, 100_003);
        assert!(verify_full(1, 42, 0, &data));
        assert!(verify_sparse(1, 42, data.len(), &data));
        // Another seed or another object is different content.
        assert!(!verify_full(2, 42, 0, &data));
        assert!(!verify_full(1, 43, 0, &data));
        assert!(!verify_sparse(2, 42, data.len(), &data));
    }

    #[test]
    fn any_window_of_an_object_is_addressable() {
        let whole = generate(9, 7, 4096);
        for (offset, len) in [(0u64, 8usize), (3, 5), (5, 64), (8, 8), (1001, 333)] {
            let mut part = vec![0u8; len];
            fill(9, 7, offset, &mut part);
            assert_eq!(part, whole[offset as usize..offset as usize + len]);
            assert!(verify_full(9, 7, offset, &part));
        }
    }

    #[test]
    fn a_corrupted_byte_fails_verification() {
        let mut data = generate(1, 5, 16 * 1024);
        data[9_999] ^= 0x01;
        assert!(!verify_full(1, 5, 0, &data));
        // The sparse check always covers both ends and the length.
        let mut ends = generate(1, 5, 16 * 1024);
        *ends.last_mut().unwrap() ^= 0x80;
        assert!(!verify_sparse(1, 5, ends.len(), &ends));
        let short = &generate(1, 5, 16 * 1024)[..16 * 1024 - 1];
        assert!(!verify_sparse(1, 5, 16 * 1024, short));
    }
}
