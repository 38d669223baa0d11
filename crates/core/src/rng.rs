//! Reproducible, process-independent matrix generation.
//!
//! HPL's `pdmatgen` fills each process's local blocks from a splittable
//! linear congruential generator with `O(log k)` jump-ahead, so every
//! process can generate exactly its slice of the same global random matrix
//! without communication — and the verification step can regenerate any
//! entry on demand. We reproduce that scheme with a 64-bit LCG (the classic
//! Knuth MMIX constants) whose `k`-step jump is computed by squaring.
//!
//! A rank's part of a column is a run of strips, one per local row block,
//! `P·NB` stream positions apart. The walk jumps once, to the column's
//! first local state, and reaches each later strip with one precomputed
//! affine step, the LCG composed `P·NB` times — as `HPL_pdmatgen` moves
//! between a process's blocks with the multipliers `HPL_xjumpm` computed
//! once. Inside a strip the entries come from independent lanes seeded
//! from a `const` table of lane offsets, on one of two paths that write
//! the same bits (DESIGN.md §10): the portable one runs [`LANES`] LCG
//! chains side by side, the AVX-512 one [`WIDE_LANES`] chains as four ZMM
//! registers. Which one runs follows the process kernel
//! ([`kernels::active`]), so `RHPL_KERNEL=scalar` runs the portable path
//! and no other switch exists.

use hpl_blas::kernels::{self, Tier};
use hpl_blas::Element;

use crate::dist::Axis;

/// Multiplier of the underlying LCG.
const LCG_A: u64 = 6364136223846793005;
/// Increment of the underlying LCG.
const LCG_C: u64 = 1442695040888963407;
/// Multiplier of the tempering that turns a state into an entry.
const TEMPER: u64 = 0xFF51AFD7ED558CCD;

/// Independent LCG states the portable path advances side by side.
const LANES: usize = 8;
/// Independent LCG states the AVX-512 path advances side by side: four
/// ZMM chains of eight, so neither 64-bit multiply of a chain waits on the
/// previous one's latency.
const WIDE_LANES: usize = 32;

/// An affine map of generator states, `x -> a x + c`: the LCG step
/// composed some number of times. Every composition is exact `u64`
/// arithmetic, so any way of reaching a position gives the same state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Affine {
    a: u64,
    c: u64,
}

impl Affine {
    /// The LCG step composed no times.
    const IDENTITY: Affine = Affine { a: 1, c: 0 };
    /// One LCG step.
    const STEP: Affine = Affine { a: LCG_A, c: LCG_C };

    /// The map applied to `state`.
    #[inline]
    pub(crate) const fn apply(self, state: u64) -> u64 {
        self.a.wrapping_mul(state).wrapping_add(self.c)
    }

    /// `self`, then `next`.
    const fn then(self, next: Affine) -> Affine {
        Affine {
            a: next.a.wrapping_mul(self.a),
            c: next.apply(self.c),
        }
    }

    /// The LCG step composed `k` times, in `O(log k)` by repeated squaring
    /// (powers of one map commute, so the order of the factors is free).
    const fn steps(mut k: u64) -> Affine {
        let (mut acc, mut square) = (Affine::IDENTITY, Affine::STEP);
        while k > 0 {
            if k & 1 == 1 {
                acc = acc.then(square);
            }
            square = square.then(square);
            k >>= 1;
        }
        acc
    }
}

/// One step of a portable lane: `LANES` LCG steps, from an entry's state
/// to the state of the entry `LANES` rows further down the strip.
const STRIDE: Affine = Affine::steps(LANES as u64);
/// One step of an AVX-512 lane: `WIDE_LANES` LCG steps.
const WIDE_STRIDE: Affine = Affine::steps(WIDE_LANES as u64);

/// Lane `l`'s first state from a strip's first state `s` is
/// `LANE_A[l] * s + LANE_C[l]`, the LCG composed `l` times: the lanes are
/// seeded side by side, not by a serial chain of steps. Held as two
/// arrays so eight consecutive lanes load as one vector.
const LANE_A: [u64; WIDE_LANES] = lane_table().0;
/// The increments of the lane offsets ([`LANE_A`]).
const LANE_C: [u64; WIDE_LANES] = lane_table().1;

/// The multipliers and increments of `Affine::steps(l)` for every lane `l`.
const fn lane_table() -> ([u64; WIDE_LANES], [u64; WIDE_LANES]) {
    let (mut a, mut c) = ([0u64; WIDE_LANES], [0u64; WIDE_LANES]);
    let mut map = Affine::IDENTITY;
    let mut l = 0;
    while l < WIDE_LANES {
        a[l] = map.a;
        c[l] = map.c;
        map = map.then(Affine::STEP);
        l += 1;
    }
    (a, c)
}

/// The loop that steps a strip's states into entries. Every path writes
/// the same bits: the LCG steps and the tempering are exact integer
/// operations, and the conversion of a 53-bit integer and its scaling by
/// `2^-53` are exact, so only the final `- 0.5` rounds, once, the same way
/// on every path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum GenPath {
    /// `LANES` scalar chains; every host.
    Portable,
    /// `WIDE_LANES` chains in ZMM registers (`vpmullq`, `vcvtuqq2pd`).
    /// Constructed only after AVX-512F and AVX-512DQ were detected.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    Avx512,
}

impl GenPath {
    /// The path a kernel tier runs: AVX-512 on the AVX-512 tier of a CPU
    /// that also has the DQ extension, the portable loop everywhere else.
    fn for_tier(tier: Tier) -> GenPath {
        #[cfg(target_arch = "x86_64")]
        if tier == Tier::Avx512 && is_x86_feature_detected!("avx512dq") {
            return GenPath::Avx512;
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = tier;
        GenPath::Portable
    }

    /// The path of the process kernel.
    fn active() -> GenPath {
        GenPath::for_tier(kernels::active().tier())
    }

    /// Writes the entries of the consecutive states starting at `state`
    /// into `out`, demoted to `E`.
    fn fill<E: Element>(self, state: u64, out: &mut [E]) {
        match self {
            #[cfg(target_arch = "x86_64")]
            GenPath::Avx512 => {
                // SAFETY: an Avx512 path exists only after `for_tier` saw
                // the Avx512 tier (avx512f detected) and avx512dq on this
                // CPU, which is `fill_avx512`'s `#[target_feature]`
                // contract.
                unsafe { x86::fill_avx512(state, out) }
            }
            _ => fill_portable(state, out),
        }
    }
}

/// The portable path: `LANES` independent chains — lane `l` starts at the
/// strip's state composed with its [`LANE_A`]/[`LANE_C`] offset, holds the
/// state of `out[LANES * c + l]` for chunk `c` and advances by the composed
/// map `STRIDE`, so no entry waits on the previous entry's multiply. Past
/// the last full chunk, lane `l` holds the state of the `l`-th remaining
/// entry.
fn fill_portable<E: Element>(state: u64, out: &mut [E]) {
    let mut lanes = [0u64; LANES];
    for (l, lane) in lanes.iter_mut().enumerate() {
        *lane = Affine {
            a: LANE_A[l],
            c: LANE_C[l],
        }
        .apply(state);
    }
    let mut chunks = out.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        for (v, lane) in chunk.iter_mut().zip(&mut lanes) {
            *v = E::from_f64(MatGen::uniform(*lane));
            *lane = STRIDE.apply(*lane);
        }
    }
    for (v, &lane) in chunks.into_remainder().iter_mut().zip(&lanes) {
        *v = E::from_f64(MatGen::uniform(lane));
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Element, MatGen, LANE_A, LANE_C, TEMPER, WIDE_LANES, WIDE_STRIDE};
    use core::arch::x86_64::{
        __m512i, _mm512_add_epi64, _mm512_cvtepu64_pd, _mm512_loadu_si512, _mm512_mul_pd,
        _mm512_mullo_epi64, _mm512_set1_epi64, _mm512_set1_pd, _mm512_srli_epi64, _mm512_storeu_pd,
        _mm512_storeu_si512, _mm512_sub_pd, _mm512_xor_si512,
    };

    /// ZMM registers of eight `u64` lanes that make up the `WIDE_LANES`.
    const CHAINS: usize = WIDE_LANES / 8;

    /// The AVX-512 path: [`super::fill_portable`] with `WIDE_LANES` lanes
    /// held as `CHAINS` independent ZMM chains — chain `q`, lane `r` starts
    /// at the strip's state composed with lane `8q + r`'s offset, holds the
    /// state of `out[WIDE_LANES * c + 8q + r]` for chunk `c` and advances by
    /// `WIDE_STRIDE`. Each chunk tempers and converts in registers
    /// (`vpmullq`, `vcvtuqq2pd`, then `* 2^-53 - 0.5`, the scalar
    /// `uniform`'s operations in its order); past the last full chunk the
    /// lanes hold the remaining entries' states, which the scalar
    /// `uniform` turns into entries.
    ///
    /// # Safety
    /// The caller must have verified at runtime that the CPU supports the
    /// `avx512f` and `avx512dq` target features.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn fill_avx512<E: Element>(state: u64, out: &mut [E]) {
        let first = _mm512_set1_epi64(state as i64);
        let mut chains = [first; CHAINS];
        for (q, chain) in chains.iter_mut().enumerate() {
            // SAFETY: avx512f — `LANE_A[8q..8q + 8]` is 8 readable u64.
            let a = unsafe { _mm512_loadu_si512(LANE_A[8 * q..8 * q + 8].as_ptr().cast()) };
            // SAFETY: avx512f — `LANE_C[8q..8q + 8]` is 8 readable u64.
            let c = unsafe { _mm512_loadu_si512(LANE_C[8 * q..8 * q + 8].as_ptr().cast()) };
            *chain = _mm512_add_epi64(_mm512_mullo_epi64(first, a), c);
        }
        let (a, c) = (
            _mm512_set1_epi64(WIDE_STRIDE.a as i64),
            _mm512_set1_epi64(WIDE_STRIDE.c as i64),
        );
        let temper = _mm512_set1_epi64(TEMPER as i64);
        let scale = _mm512_set1_pd(1.0 / (1u64 << 53) as f64);
        let half = _mm512_set1_pd(0.5);
        let mut chunks = out.chunks_exact_mut(WIDE_LANES);
        for chunk in &mut chunks {
            let mut vals = [0.0f64; WIDE_LANES];
            for (q, chain) in chains.iter_mut().enumerate() {
                let mut x: __m512i = *chain;
                x = _mm512_xor_si512(x, _mm512_srli_epi64::<33>(x));
                x = _mm512_mullo_epi64(x, temper);
                x = _mm512_xor_si512(x, _mm512_srli_epi64::<33>(x));
                let u = _mm512_cvtepu64_pd(_mm512_srli_epi64::<11>(x));
                let v = _mm512_sub_pd(_mm512_mul_pd(u, scale), half);
                // SAFETY: avx512f — `vals[8q..8q + 8]` is 8 writable f64.
                unsafe { _mm512_storeu_pd(vals[8 * q..8 * q + 8].as_mut_ptr(), v) };
                *chain = _mm512_add_epi64(_mm512_mullo_epi64(*chain, a), c);
            }
            for (o, &v) in chunk.iter_mut().zip(&vals) {
                *o = E::from_f64(v);
            }
        }
        let rest = chunks.into_remainder();
        if rest.is_empty() {
            return;
        }
        let mut lanes = [0u64; WIDE_LANES];
        for (q, chain) in chains.iter().enumerate() {
            // SAFETY: avx512f — `lanes[8q..8q + 8]` is 8 writable u64.
            unsafe { _mm512_storeu_si512(lanes[8 * q..8 * q + 8].as_mut_ptr().cast(), *chain) };
        }
        for (v, &lane) in rest.iter_mut().zip(&lanes) {
            *v = E::from_f64(MatGen::uniform(lane));
        }
    }
}

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
        x = x.wrapping_mul(TEMPER);
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

    /// Fills `out` with the strip of column `j` starting at global row
    /// `i0` — `out[k]` is `entry(i0 + k, j)` bit for bit, demoted to `E` —
    /// with one `O(log pos)` jump to the strip's first state, then stepping
    /// on the process kernel's path.
    pub fn fill_strip<E: Element>(&self, i0: usize, j: usize, out: &mut [E]) {
        self.fill_strip_on(GenPath::active(), i0, j, out);
    }

    /// [`MatGen::fill_strip`] on a given path.
    fn fill_strip_on<E: Element>(&self, path: GenPath, i0: usize, j: usize, out: &mut [E]) {
        path.fill(Self::jump(self.seed, self.pos(i0, j)), out);
    }

    /// The walk down this rank's rows (`rows`) of the matrix's columns, on
    /// the process kernel's path.
    pub(crate) fn column_walk(&self, rows: Axis) -> ColumnWalk {
        ColumnWalk::new(*self, GenPath::active(), rows)
    }

    /// Fills one rank's column-major `rows.local_len() x cols.local_len()`
    /// slice of the block-cyclic matrix, stored with column stride `lda`,
    /// column by column ([`ColumnWalk::fill`]). The `lda - mloc` padding
    /// entries of each column are left as they are.
    pub fn fill_local<E: Element>(&self, buf: &mut [E], lda: usize, rows: Axis, cols: Axis) {
        self.fill_local_on(GenPath::active(), buf, lda, rows, cols);
    }

    /// [`MatGen::fill_local`] on a given path.
    fn fill_local_on<E: Element>(
        &self,
        path: GenPath,
        buf: &mut [E],
        lda: usize,
        rows: Axis,
        cols: Axis,
    ) {
        let (mloc, nloc) = (rows.local_len(), cols.local_len());
        if mloc == 0 || nloc == 0 {
            return;
        }
        assert!(lda >= mloc && buf.len() >= lda * (nloc - 1) + mloc);
        let walk = ColumnWalk::new(*self, path, rows);
        for (lj, col) in buf.chunks_mut(lda).take(nloc).enumerate() {
            walk.fill(cols.to_global(lj), &mut col[..mloc]);
        }
    }
}

/// One rank's walk down the columns of a row distribution: a local column
/// is one strip per local row block — or, when the rows axis has one
/// process, one strip — and consecutive strips start `P·NB` stream
/// positions apart. The step between them is composed once per walk, so
/// a column costs one jump, to its first state, plus one affine step per
/// later strip. A column can also be walked in chunks of local rows
/// ([`ColumnWalk::chunks`]), each reached from the last by one more
/// composed step.
#[derive(Clone, Copy)]
pub(crate) struct ColumnWalk {
    gen: MatGen,
    path: GenPath,
    rows: Axis,
    /// Entries of one strip: a row block, or the whole column at P = 1.
    run: usize,
    /// The LCG composed `P·NB` times: one strip's first state to the next's.
    next_strip: Affine,
}

impl ColumnWalk {
    fn new(gen: MatGen, path: GenPath, rows: Axis) -> Self {
        let (run, next_strip) = if rows.nprocs == 1 {
            (usize::MAX, Affine::IDENTITY)
        } else {
            (rows.nb, Affine::steps((rows.nprocs * rows.nb) as u64))
        };
        Self {
            gen,
            path,
            rows,
            run,
            next_strip,
        }
    }

    /// The state of the first local entry of global column `j`.
    pub(crate) fn start(&self, j: usize) -> u64 {
        MatGen::jump(self.gen.seed, self.gen.pos(self.rows.to_global(0), j))
    }

    /// Fills `out` with consecutive local entries of one column, the first
    /// of which has `state` and starts a local row block.
    pub(crate) fn fill_from<E: Element>(&self, mut state: u64, out: &mut [E]) {
        for strip in out.chunks_mut(self.run) {
            self.path.fill(state, strip);
            state = self.next_strip.apply(state);
        }
    }

    /// Fills `col` with this process's rows of global column `j`.
    pub(crate) fn fill<E: Element>(&self, j: usize, col: &mut [E]) {
        if !col.is_empty() {
            self.fill_from(self.start(j), col);
        }
    }

    /// Chunks of about `target` local rows to walk a column in: the rows
    /// per chunk — at P > 1 a whole number of row blocks, so every chunk
    /// starts one — and the map from a chunk's first state to the next's.
    pub(crate) fn chunks(&self, target: usize) -> (usize, Affine) {
        if self.rows.nprocs == 1 {
            let rows = target.max(1);
            (rows, Affine::steps(rows as u64))
        } else {
            let blocks = (target / self.rows.nb).max(1);
            (
                blocks * self.rows.nb,
                Affine::steps((blocks * self.rows.nprocs * self.rows.nb) as u64),
            )
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
            s = Affine::STEP.apply(s);
        }
        // Large jumps compose: jump(jump(x, a), b) == jump(x, a+b).
        let a = 1_000_000_007u64;
        let b = 999_999_937u64;
        assert_eq!(
            MatGen::jump(MatGen::jump(99, a), b),
            MatGen::jump(99, a + b)
        );
    }

    /// The composed step is `k` single LCG steps and `jump` by `k`, for the
    /// lane counts, their neighbours and every strip step `P·NB` of a
    /// P = 2..=4 grid, from a state near the seed and from one past stream
    /// position 2^32; the lane tables and lane strides are the same maps.
    #[test]
    fn affine_steps_are_single_steps_and_jumps() {
        let far = MatGen::jump(77, (1 << 32) + 12_345);
        let mut ks = vec![0u64, 1, 31, 32, 33];
        for p in 2..=4u64 {
            for nb in [1u64, 7, 32, 33, 128] {
                ks.push(p * nb);
            }
        }
        for &k in &ks {
            let map = Affine::steps(k);
            for start in [77u64, far] {
                let mut s = start;
                for _ in 0..k {
                    s = Affine::STEP.apply(s);
                }
                assert_eq!(map.apply(start), s, "k={k} from {start:#x}");
                assert_eq!(map.apply(start), MatGen::jump(start, k), "k={k}");
            }
        }
        for l in 0..WIDE_LANES {
            let lane = Affine {
                a: LANE_A[l],
                c: LANE_C[l],
            };
            assert_eq!(lane, Affine::steps(l as u64), "lane {l}");
        }
        assert_eq!(STRIDE.apply(far), MatGen::jump(far, LANES as u64));
        assert_eq!(WIDE_STRIDE.apply(far), MatGen::jump(far, WIDE_LANES as u64));
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

    /// The generator paths this host can run: the portable one, plus
    /// the AVX-512 one where the CPU has it.
    fn paths() -> Vec<GenPath> {
        let mut paths: Vec<GenPath> = hpl_blas::Kernel::available()
            .iter()
            .map(|k| GenPath::for_tier(k.tier()))
            .collect();
        paths.dedup();
        #[cfg(target_arch = "x86_64")]
        if hpl_blas::Kernel::available()
            .iter()
            .any(|k| k.tier() == Tier::Avx512)
            && is_x86_feature_detected!("avx512dq")
        {
            assert!(paths.contains(&GenPath::Avx512), "{paths:?}");
        }
        assert_eq!(paths[0], GenPath::Portable);
        paths
    }

    /// On every path this host can run: every strip length from empty
    /// through two full 32-lane chunks plus a tail, at even and odd first
    /// rows, across a column boundary and at stream positions above 2^32 —
    /// each entry is `entry` bit for bit, in `f64` and demoted to `f32`.
    #[test]
    fn strips_equal_entries_bit_for_bit() {
        let (small, tall) = (MatGen::new(5, 40), MatGen::new(9, 1 << 20));
        let starts = [
            (small, 0usize, 0usize),
            (small, 7, 3),
            (small, 12, 9),
            (small, 21, 40),
            (small, 38, 1),
            (tall, 1, 4099),
            (tall, (1 << 20) - 31, 4096),
        ];
        assert!(tall.pos(1, 4099) > 1 << 32);
        for path in paths() {
            for &(g, i0, j) in &starts {
                for len in 0..=2 * WIDE_LANES + 1 {
                    let mut strip = vec![0.0f64; len];
                    g.fill_strip_on(path, i0, j, &mut strip);
                    for (k, &v) in strip.iter().enumerate() {
                        let want = g.entry(i0 + k, j);
                        assert_eq!(
                            v.to_bits(),
                            want.to_bits(),
                            "{path:?} ({i0}+{k},{j}) len {len}"
                        );
                    }
                    let mut demoted = vec![0.0f32; len];
                    g.fill_strip_on(path, i0, j, &mut demoted);
                    for (k, &v) in demoted.iter().enumerate() {
                        let want = g.entry(i0 + k, j) as f32;
                        assert_eq!(
                            v.to_bits(),
                            want.to_bits(),
                            "{path:?} ({i0}+{k},{j}) len {len} f32"
                        );
                    }
                }
            }
        }
    }

    /// A column under one process row is one strip; under several it is
    /// one strip per local row block, each reached from the last by the
    /// walk's `P·NB` step. On every path, for block sizes of one row, odd,
    /// one lane chunk and one past it — with a partial last block where NB
    /// does not divide N — each entry is `entry` bit for bit, and walking
    /// the column in row chunks gives the same bits.
    #[test]
    fn columns_equal_entries_bit_for_bit() {
        let n = 101usize;
        let g = MatGen::new(3, n);
        for path in paths() {
            for nb in [1usize, 7, 32, 33] {
                for (iproc, nprocs) in [(0usize, 1usize), (0, 2), (1, 2), (0, 3), (2, 3)] {
                    let rows = Axis {
                        n,
                        nb,
                        iproc,
                        nprocs,
                    };
                    let walk = ColumnWalk::new(g, path, rows);
                    for j in [0usize, 5, n] {
                        let mut col = vec![0.0f64; rows.local_len()];
                        walk.fill(j, &mut col);
                        let at = format!("{path:?} NB={nb} P={nprocs} column {j}");
                        for (li, v) in col.iter().enumerate() {
                            let want = g.entry(rows.to_global(li), j);
                            assert_eq!(v.to_bits(), want.to_bits(), "{at} row {li}");
                        }
                        // The same column in chunks, each from the last's
                        // first state by the composed chunk step.
                        for target in [1usize, 6, 40, 1000] {
                            let (len, next_chunk) = walk.chunks(target);
                            assert!(nprocs == 1 || len % nb == 0, "{at} chunk {len}");
                            let mut chunked = vec![0.0f64; col.len()];
                            let mut state = walk.start(j);
                            for piece in chunked.chunks_mut(len) {
                                walk.fill_from(state, piece);
                                state = next_chunk.apply(state);
                            }
                            let bits =
                                |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
                            assert_eq!(bits(&chunked), bits(&col), "{at} chunks of {len}");
                        }
                    }
                }
            }
        }
    }

    /// Every rank's `fill_local` slice of a 2x3 grid, on every path, in
    /// `f64` and `f32`, with a padded column stride and a partial last
    /// block on both axes: each stored entry is `entry` bit for bit and
    /// the padding is left alone.
    #[test]
    fn fill_local_equals_entries_bit_for_bit() {
        let (n, nb, (p, q)) = (70usize, 8usize, (2usize, 3usize));
        let g = MatGen::new(21, n);
        for path in paths() {
            for (iproc, jproc) in (0..p).flat_map(|r| (0..q).map(move |c| (r, c))) {
                let rows = Axis {
                    n,
                    nb,
                    iproc,
                    nprocs: p,
                };
                let cols = Axis {
                    n: n + 1,
                    nb,
                    iproc: jproc,
                    nprocs: q,
                };
                let (mloc, nloc) = (rows.local_len(), cols.local_len());
                let lda = mloc + 3;
                let mut wide = vec![7.0f64; lda * nloc];
                g.fill_local_on(path, &mut wide, lda, rows, cols);
                let mut narrow = vec![7.0f32; lda * nloc];
                g.fill_local_on(path, &mut narrow, lda, rows, cols);
                for lj in 0..nloc {
                    for li in 0..lda {
                        let at = format!("{path:?} rank ({iproc},{jproc}) ({li},{lj})");
                        let (v, w) = (wide[lj * lda + li], narrow[lj * lda + li]);
                        if li >= mloc {
                            assert_eq!((v, w), (7.0, 7.0), "{at} padding");
                            continue;
                        }
                        let want = g.entry(rows.to_global(li), cols.to_global(lj));
                        assert_eq!(v.to_bits(), want.to_bits(), "{at}");
                        assert_eq!(w.to_bits(), (want as f32).to_bits(), "{at} f32");
                    }
                }
            }
        }
    }
}
