//! Reproducible, process-independent matrix generation.
//!
//! HPL's `pdmatgen` fills each process's local blocks from a splittable
//! linear congruential generator with `O(log k)` jump-ahead, so every
//! process can generate exactly its slice of the same global random matrix
//! without communication — and the verification step can regenerate any
//! entry on demand. We reproduce that scheme with a 64-bit LCG (the classic
//! Knuth MMIX constants) whose `k`-step jump is computed by squaring.

use hpl_blas::Element;

use crate::dist::Axis;

/// Multiplier of the underlying LCG.
const LCG_A: u64 = 6364136223846793005;
/// Increment of the underlying LCG.
const LCG_C: u64 = 1442695040888963407;

/// Independent LCG states [`MatGen::fill_strip`] advances side by side.
const LANES: usize = 8;

/// The LCG step composed `k` times, `x -> a^k x + c_k`, as `(a^k, c_k)`.
const fn compose(k: usize) -> (u64, u64) {
    let (mut a, mut c) = (1u64, 0u64);
    let mut i = 0;
    while i < k {
        a = a.wrapping_mul(LCG_A);
        c = LCG_A.wrapping_mul(c).wrapping_add(LCG_C);
        i += 1;
    }
    (a, c)
}

/// One step of a lane: `LANES` LCG steps, from an entry's state to the
/// state of the entry `LANES` rows further down the strip.
const STRIDE: (u64, u64) = compose(LANES);

/// Generator of the entries of one global random matrix.
///
/// Entry `(i, j)` of the `N x (N+1)` augmented HPL matrix is a pure
/// function of `(seed, j * nrows + i)`, uniform in `[-0.5, 0.5)` like HPL's
/// generator.
#[derive(Clone, Copy, Debug)]
pub struct MatGen {
    seed: u64,
    nrows: u64,
}

impl MatGen {
    /// Creates a generator for a matrix with `nrows` rows under `seed`.
    pub fn new(seed: u64, nrows: usize) -> Self {
        Self {
            seed: seed.wrapping_mul(LCG_A).wrapping_add(LCG_C) | 1,
            nrows: nrows as u64,
        }
    }

    /// LCG state after `k` steps from `state`, in `O(log k)`.
    fn jump(mut state: u64, mut k: u64) -> u64 {
        // Compose x -> a*x + c, k times, by repeated squaring of the affine
        // map (a, c) -> (a^2, a*c + c).
        let mut a = LCG_A;
        let mut c = LCG_C;
        while k > 0 {
            if k & 1 == 1 {
                state = a.wrapping_mul(state).wrapping_add(c);
            }
            c = a.wrapping_mul(c).wrapping_add(c);
            a = a.wrapping_mul(a);
            k >>= 1;
        }
        state
    }

    /// The matrix entry a generator state stands for, uniform in
    /// `[-0.5, 0.5)`.
    #[inline]
    fn uniform(state: u64) -> f64 {
        // One tempering multiply-xor to decorrelate consecutive states'
        // low-entropy high bits (plain LCG streams have lattice structure).
        let mut x = state;
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51AFD7ED558CCD);
        x ^= x >> 33;
        (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }

    /// Flat stream position of entry `(i, j)`: column-major over the
    /// `nrows`-row matrix.
    #[inline]
    fn pos(&self, i: usize, j: usize) -> u64 {
        (j as u64).wrapping_mul(self.nrows).wrapping_add(i as u64)
    }

    /// Matrix entry `(i, j)`, uniform in `[-0.5, 0.5)`.
    #[inline]
    pub fn entry(&self, i: usize, j: usize) -> f64 {
        Self::uniform(Self::jump(self.seed, self.pos(i, j)))
    }

    /// One LCG step.
    #[inline]
    fn step(state: u64) -> u64 {
        LCG_A.wrapping_mul(state).wrapping_add(LCG_C)
    }

    /// Fills `out` with the strip of column `j` starting at global row
    /// `i0` — `out[k]` is `entry(i0 + k, j)` bit for bit, demoted to `E` —
    /// the way HPL's `pdmatgen` does: one `O(log pos)` jump to the strip's
    /// first state, then stepping. The steps run in `LANES` independent
    /// chains: lane `l` holds the state of `out[LANES * c + l]` for chunk
    /// `c` and advances by the composed map `STRIDE`, so no entry waits on
    /// the previous entry's multiply; the tail past the last full chunk
    /// steps one state at a time from where lane 0 stopped.
    pub fn fill_strip<E: Element>(&self, i0: usize, j: usize, out: &mut [E]) {
        let mut state = Self::jump(self.seed, self.pos(i0, j));
        let mut lanes = [0u64; LANES];
        for lane in &mut lanes {
            *lane = state;
            state = Self::step(state);
        }
        let mut chunks = out.chunks_exact_mut(LANES);
        for chunk in &mut chunks {
            for (v, lane) in chunk.iter_mut().zip(&mut lanes) {
                *v = E::from_f64(Self::uniform(*lane));
                *lane = STRIDE.0.wrapping_mul(*lane).wrapping_add(STRIDE.1);
            }
        }
        let mut state = lanes[0];
        for v in chunks.into_remainder() {
            *v = E::from_f64(Self::uniform(state));
            state = Self::step(state);
        }
    }

    /// Fills one rank's column-major `rows.local_len() x cols.local_len()`
    /// slice of the block-cyclic matrix: a strip per (local column, local
    /// row block), since a local row block is contiguous in global rows.
    pub fn fill_local<E: Element>(&self, buf: &mut [E], rows: Axis, cols: Axis) {
        let (mloc, nloc) = (rows.local_len(), cols.local_len());
        assert_eq!(buf.len(), mloc * nloc);
        if mloc == 0 {
            return;
        }
        for (lj, col) in buf.chunks_exact_mut(mloc).enumerate() {
            let j = cols.to_global(lj);
            for (b, strip) in col.chunks_mut(rows.nb).enumerate() {
                self.fill_strip(rows.to_global(b * rows.nb), j, strip);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let g1 = MatGen::new(42, 100);
        let g2 = MatGen::new(42, 100);
        let g3 = MatGen::new(43, 100);
        assert_eq!(g1.entry(3, 7), g2.entry(3, 7));
        assert_ne!(g1.entry(3, 7), g3.entry(3, 7));
    }

    #[test]
    fn entries_in_range() {
        let g = MatGen::new(7, 50);
        for i in 0..50 {
            for j in 0..51 {
                let v = g.entry(i, j);
                assert!((-0.5..0.5).contains(&v), "({i},{j}) = {v}");
            }
        }
    }

    #[test]
    fn jump_matches_iteration() {
        let mut s = 12345u64;
        for k in 0..100u64 {
            assert_eq!(MatGen::jump(12345, k), s, "k={k}");
            s = MatGen::step(s);
        }
        assert_eq!(
            STRIDE.0.wrapping_mul(99).wrapping_add(STRIDE.1),
            MatGen::jump(99, LANES as u64)
        );
        // Large jumps compose: jump(jump(x, a), b) == jump(x, a+b).
        let a = 1_000_000_007u64;
        let b = 999_999_937u64;
        assert_eq!(
            MatGen::jump(MatGen::jump(99, a), b),
            MatGen::jump(99, a + b)
        );
    }

    #[test]
    fn mean_is_near_zero() {
        let g = MatGen::new(2024, 200);
        let mut sum = 0.0;
        let n = 200 * 200;
        for i in 0..200 {
            for j in 0..200 {
                sum += g.entry(i, j);
            }
        }
        let mean = sum / n as f64;
        assert!(mean.abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn distinct_entries() {
        // Adjacent entries must differ (tempering breaks LCG lattice).
        let g = MatGen::new(1, 10);
        let a = g.entry(0, 0);
        let b = g.entry(1, 0);
        let c = g.entry(0, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    /// Every strip length from empty through two full lane chunks plus a
    /// tail, at even and odd first rows: each entry is `entry` bit for bit.
    #[test]
    fn strips_equal_entries_bit_for_bit() {
        let g = MatGen::new(5, 40);
        for (i0, j) in [(0usize, 0usize), (7, 3), (12, 9), (21, 40), (38, 1)] {
            for len in 0..=2 * LANES + 1 {
                let mut strip = vec![0.0f64; len];
                g.fill_strip(i0, j, &mut strip);
                for (k, &v) in strip.iter().enumerate() {
                    let want = g.entry(i0 + k, j);
                    assert_eq!(v.to_bits(), want.to_bits(), "({i0}+{k},{j}) len {len}");
                }
                let mut demoted = vec![0.0f32; len];
                g.fill_strip(i0, j, &mut demoted);
                for (k, &v) in demoted.iter().enumerate() {
                    let want = g.entry(i0 + k, j) as f32;
                    assert_eq!(v.to_bits(), want.to_bits(), "({i0}+{k},{j}) len {len}");
                }
            }
        }
    }
}
