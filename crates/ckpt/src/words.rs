//! Little-endian `u64` words: the encoding the checkpoint codec, the
//! transport wire codec (`hpl_comm::transport::wire`) and the
//! [`crate::checksum()`] all read and write, defined once.

/// The little-endian word in the up to 8 `bytes`, zero-padded on the high
/// end.
#[inline]
pub fn le_word(bytes: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(w)
}

/// Appends `words` as a count-prefixed run: a `u64` count, then each word
/// little-endian, written in one pass into `out`, which grows at most once.
pub fn put_words(out: &mut Vec<u8>, words: impl ExactSizeIterator<Item = u64>) {
    out.reserve(8 + words.len() * 8);
    out.extend_from_slice(&(words.len() as u64).to_le_bytes());
    let start = out.len();
    out.resize(start + words.len() * 8, 0);
    for (dst, w) in out[start..].chunks_exact_mut(8).zip(words) {
        dst.copy_from_slice(&w.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_are_a_count_then_little_endian_words() {
        let mut out = vec![0xAA];
        put_words(&mut out, [1u64, 0x0102_0304_0506_0708].into_iter());
        let mut want = vec![0xAA, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0];
        want.extend_from_slice(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(out, want);
        assert_eq!(le_word(&out[17..]), 0x0102_0304_0506_0708);
        assert_eq!(le_word(&[0x34, 0x12]), 0x1234);
        assert_eq!(le_word(&[]), 0);
    }
}
