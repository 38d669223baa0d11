//! The word-wide checksum that closes every checkpoint snapshot and every
//! transport frame (`hpl_comm::transport::frame`): one definition, so a
//! torn deposit and a damaged frame are caught by the same arithmetic.
//!
//! Four independent `u64` lanes consume the input 32 bytes at a time, one
//! little-endian word per lane, each step being
//!
//! ```text
//! lane = ((lane ^ word) * K).rotate_left(R)        (K odd)
//! ```
//!
//! The lanes are folded with distinct rotations, then the total length
//! and the tail (the last `len % 32` bytes, as zero-padded words) are
//! mixed in with the same step, and a final avalanche spreads every bit.
//!
//! For a fixed word a step is a bijection of its lane (xor, multiplication
//! by an odd constant and rotation are each invertible), and so is every
//! later step, the fold (with the other lanes held), the length and tail
//! mixing and the avalanche. Two inputs of equal length that differ only
//! inside one 8-byte word (counted from the start) therefore always get
//! different sums: every single-bit flip and every change confined to one
//! word is detected with certainty, not just with high probability.
//! Wider damage collides with probability about 2^-64, as for any 64-bit
//! sum. It is not a cryptographic hash.
//!
//! The lanes are independent, so the four multiplies of a block overlap
//! and the sum keeps up with memory rather than waiting on one multiply
//! per byte.

use crate::words::le_word;

const K: u64 = 0x9E37_79B9_7F4A_7C15;
const R: u32 = 31;
const SEEDS: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];
const BLOCK: usize = 32;

#[inline(always)]
fn step(lane: u64, word: u64) -> u64 {
    ((lane ^ word).wrapping_mul(K)).rotate_left(R)
}

/// An incremental checksum: feeding a buffer in any number of pieces gives
/// the same sum as [`checksum()`] over the whole.
#[derive(Clone, Debug)]
pub struct Checksum {
    lanes: [u64; 4],
    /// Bytes of a block not yet complete (`pending[..npending]`).
    pending: [u8; BLOCK],
    npending: usize,
    len: u64,
}

impl Default for Checksum {
    fn default() -> Self {
        Self {
            lanes: SEEDS,
            pending: [0; BLOCK],
            npending: 0,
            len: 0,
        }
    }
}

impl Checksum {
    /// A checksum over no bytes yet.
    pub fn new() -> Self {
        Self::default()
    }

    fn absorb(&mut self, blocks: &[[u8; BLOCK]]) {
        let mut lanes = self.lanes;
        for block in blocks {
            for (lane, w) in lanes.iter_mut().zip(block.as_chunks::<8>().0) {
                *lane = step(*lane, u64::from_le_bytes(*w));
            }
        }
        self.lanes = lanes;
    }

    /// Appends `bytes` to the summed input.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len = self.len.wrapping_add(bytes.len() as u64);
        if self.npending > 0 {
            let take = (BLOCK - self.npending).min(bytes.len());
            self.pending[self.npending..self.npending + take].copy_from_slice(&bytes[..take]);
            self.npending += take;
            bytes = &bytes[take..];
            if self.npending < BLOCK {
                return;
            }
            let block = self.pending;
            self.absorb(&[block]);
            self.npending = 0;
        }
        let (blocks, rest) = bytes.as_chunks::<BLOCK>();
        self.absorb(blocks);
        self.pending[..rest.len()].copy_from_slice(rest);
        self.npending = rest.len();
    }

    /// The sum of everything fed so far.
    pub fn finish(&self) -> u64 {
        let [a, b, c, d] = self.lanes;
        let mut h = a.rotate_left(1) ^ b.rotate_left(7) ^ c.rotate_left(12) ^ d.rotate_left(18);
        h = step(h, self.len);
        for w in self.pending[..self.npending].chunks(8) {
            h = step(h, le_word(w));
        }
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }
}

/// The checksum of `bytes` in one call.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut c = Checksum::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 131 + 7) as u8).collect()
    }

    /// The definition, pinned over the empty input, every tail length,
    /// one and a bit blocks, and many blocks: a change to a constant, the
    /// step, the fold or the tail handling moves these and must come with
    /// a `VERSION` bump of both formats that store the sum.
    #[test]
    fn reference_values_are_pinned() {
        let lens = (0..=33).chain([4096]);
        let got: Vec<(usize, u64)> = lens.map(|n| (n, checksum(&pattern(n)))).collect();
        let want: [(usize, u64); 35] = [
            (0, 0x74BE_4240_902E_B146),
            (1, 0xF92E_A373_443B_C12A),
            (2, 0x0599_340C_0B2C_0E02),
            (3, 0x1C55_3BCB_167B_BCAA),
            (4, 0xD5B9_DFAC_A3A6_FAAD),
            (5, 0xC80D_05BA_2ADC_061F),
            (6, 0x89A2_7250_51E0_C6A8),
            (7, 0xBB2B_AC36_EBF5_852A),
            (8, 0x18AD_3C9C_F9EC_3F4E),
            (9, 0x8EB1_3FC1_776D_A742),
            (10, 0x2B46_5D36_7279_8C1D),
            (11, 0xE224_584B_8E13_06D5),
            (12, 0x6EE9_CC00_8FF1_BC78),
            (13, 0xC788_6A06_4238_968E),
            (14, 0xCEEF_3051_2B32_946C),
            (15, 0x2692_979F_112B_C0C4),
            (16, 0x19A3_2748_0A8D_7A25),
            (17, 0xE6FA_6972_0178_16AB),
            (18, 0x940C_50DC_CC6B_D7F0),
            (19, 0x3EF0_A8BB_F68B_C9B8),
            (20, 0x50A8_12E0_C840_6CCC),
            (21, 0x5B80_7FEB_8983_6140),
            (22, 0x4AA6_4D5C_C10E_E109),
            (23, 0xDFA4_F449_3472_F7F1),
            (24, 0x962E_DE62_0454_82BC),
            (25, 0xB071_F5B0_9582_6A18),
            (26, 0x4725_8F3B_5429_F2E9),
            (27, 0xAEC8_CEB7_0842_FC91),
            (28, 0x38EF_6553_B42E_D7CB),
            (29, 0x17F6_46E7_A5A0_7053),
            (30, 0x2D22_8EC9_9E76_B129),
            (31, 0x3057_C6FD_B93B_DAA5),
            (32, 0x2391_4121_D445_4489),
            (33, 0x345F_E6FB_6128_702D),
            (4096, 0xD96A_C9C9_94CE_6BFD),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn any_split_matches_the_one_shot_sum() {
        let data = pattern(200);
        for n in [0, 1, 31, 32, 33, 64, 95, 200] {
            let whole = checksum(&data[..n]);
            for cut in 0..=n {
                for cut2 in [cut, (cut + 1).min(n), (cut + n) / 2, n] {
                    let mut c = Checksum::new();
                    c.update(&data[..cut]);
                    c.update(&data[cut..cut2]);
                    c.update(&data[cut2..n]);
                    assert_eq!(c.finish(), whole, "n {n} cuts {cut} {cut2}");
                }
            }
        }
    }

    #[test]
    fn every_single_word_change_is_detected() {
        for n in 0..=100 {
            let data = pattern(n);
            let sum = checksum(&data);
            for at in (0..n).step_by(8) {
                let end = (at + 8).min(n);
                for delta in [1u8, 0x80, 0xFF] {
                    let mut bad = data.clone();
                    for b in &mut bad[at..end] {
                        *b ^= delta;
                    }
                    assert_ne!(checksum(&bad), sum, "len {n} word at {at} delta {delta:#x}");
                }
            }
        }
    }
}
