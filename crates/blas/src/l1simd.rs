//! Vectorized level-1 kernels for the panel factorization (FACT) hot loops:
//! pivot-search argmax, reciprocal-free column scaling, and the fused
//! multiply-free rank-1 row kernels — in both pipeline precisions.
//!
//! Unlike the FMA GEMM microkernels in [`crate::l3::kernels`], every kernel
//! here is **bitwise identical** to its scalar oracle by construction, so the
//! factorization trace (`seq_hash`) and the replay/checkpoint guarantees are
//! preserved across `RHPL_KERNEL=scalar|simd` in f64 and f32 alike:
//!
//! * `argmax_abs` uses only comparisons (`_CMP_GT_OQ` matches the
//!   scalar `>` exactly, including NaN rejection), with first-index-wins tie
//!   breaking folded out of the lanes at the end. The AVX2 bodies run
//!   [`CHAINS`] independent value/index chains, so the loop is bound by
//!   loads rather than by one chain's compare-and-blend latency;
//! * `axpy_sub_argmax` is `axpy_sub` then `argmax_abs` over the updated `y`
//!   in one pass — FACT's rank-1 update of the next column fused with that
//!   column's pivot search — with the same two contracts;
//! * `dscal_inv` divides (`vdivpd` is correctly rounded, identical to the
//!   scalar `/`) instead of multiplying by a reciprocal;
//! * `axpy_sub` / `axpy_add` round the product and the sum separately
//!   (mul-then-add, **no FMA**), which is elementwise the scalar sequence.
//!
//! Dispatch goes through the same per-process [`crate::kernels::active`]
//! selection as GEMM, so `RHPL_KERNEL` governs both, and through
//! the [`Element`] hooks so generic FACT code never names a precision. The
//! `*_f64` / `*_f32` pairs are the monomorphic backing entry points those
//! hooks call.

use crate::kernels::{self, KernelKind};
use crate::Element;

/// Index and absolute value of the first maximal `|x[i]|`, exactly as the
/// scalar loop `if x[i].abs() > best` computes it: ties keep the earlier
/// index, NaN entries never win, and an empty (or all-NaN) slice returns
/// `(usize::MAX, E::NEG_INFINITY)`.
pub fn argmax_abs<E: Element>(x: &[E]) -> (usize, E) {
    E::l1_argmax_abs(kernels::active().kind(), x)
}

/// `x[i] /= pivot` for all `i` — division, not reciprocal multiplication,
/// so the simd path rounds identically to the scalar path.
pub fn dscal_inv<E: Element>(pivot: E, x: &mut [E]) {
    E::l1_scal_inv(kernels::active().kind(), pivot, x)
}

/// `y[i] -= alpha * x[i]` (rank-1 DGER row kernel), mul-then-sub with no
/// FMA contraction so both paths round twice per element.
pub fn axpy_sub<E: Element>(alpha: E, x: &[E], y: &mut [E]) {
    debug_assert!(y.len() <= x.len());
    E::l1_axpy_sub(kernels::active().kind(), alpha, x, y)
}

/// `y[i] -= alpha * x[i]`, then the index and absolute value of the first
/// maximal `|y[i]|` — bit for bit [`axpy_sub`] followed by [`argmax_abs`]
/// on `y`, in one pass over it.
pub fn axpy_sub_argmax<E: Element>(alpha: E, x: &[E], y: &mut [E]) -> (usize, E) {
    E::l1_axpy_sub_argmax(kernels::active().kind(), alpha, x, y)
}

/// `y[i] += alpha * x[i]` (lazy column-update accumulator), mul-then-add
/// with no FMA contraction.
pub fn axpy_add<E: Element>(alpha: E, x: &[E], y: &mut [E]) {
    debug_assert!(y.len() <= x.len());
    E::l1_axpy_add(kernels::active().kind(), alpha, x, y)
}

/// `y[i] -= x[i]` — the apply step of the lazy column update.
pub fn dsub<E: Element>(y: &mut [E], x: &[E]) {
    debug_assert!(y.len() <= x.len());
    E::l1_sub(kernels::active().kind(), y, x)
}

// --------------------------------------------- per-precision entry points
//
// Monomorphic backing functions for the `Element` l1 hooks: a Simd kernel
// runs the AVX2 body on x86-64; a Scalar kernel, or any kernel on another
// architecture, runs the generic scalar body.

macro_rules! kind_entry {
    ($name:ident, $scalar:ident, $avx2:ident,
     ($($arg:ident: $aty:ty),*) -> $ret:ty) => {
        #[inline]
        pub(crate) fn $name(kind: KernelKind, $($arg: $aty),*) -> $ret {
            match kind {
                #[cfg(target_arch = "x86_64")]
                KernelKind::Simd => {
                    // SAFETY: on x86_64 a Simd kernel exists only after
                    // `is_x86_feature_detected!` confirmed avx2 (every
                    // x86-64 SIMD tier requires it, see `kernels::detected`),
                    // so the `#[target_feature(enable = "avx2")]` contract
                    // holds.
                    unsafe { x86::$avx2($($arg),*) }
                }
                _ => $scalar($($arg),*),
            }
        }
    };
}

kind_entry!(argmax_abs_f64, argmax_abs_scalar, argmax_abs_avx2,
    (x: &[f64]) -> (usize, f64));
kind_entry!(scal_inv_f64, dscal_inv_scalar, dscal_inv_avx2,
    (pivot: f64, x: &mut [f64]) -> ());
kind_entry!(axpy_sub_f64, axpy_sub_scalar, axpy_sub_avx2,
    (alpha: f64, x: &[f64], y: &mut [f64]) -> ());
kind_entry!(axpy_sub_argmax_f64, axpy_sub_argmax_scalar, axpy_sub_argmax_avx2,
    (alpha: f64, x: &[f64], y: &mut [f64]) -> (usize, f64));
kind_entry!(axpy_add_f64, axpy_add_scalar, axpy_add_avx2,
    (alpha: f64, x: &[f64], y: &mut [f64]) -> ());
kind_entry!(sub_f64, dsub_scalar, dsub_avx2,
    (y: &mut [f64], x: &[f64]) -> ());

kind_entry!(argmax_abs_f32, argmax_abs_scalar, argmax_abs_avx2_f32,
    (x: &[f32]) -> (usize, f32));
kind_entry!(scal_inv_f32, dscal_inv_scalar, dscal_inv_avx2_f32,
    (pivot: f32, x: &mut [f32]) -> ());
kind_entry!(axpy_sub_f32, axpy_sub_scalar, axpy_sub_avx2_f32,
    (alpha: f32, x: &[f32], y: &mut [f32]) -> ());
kind_entry!(axpy_sub_argmax_f32, axpy_sub_argmax_scalar, axpy_sub_argmax_avx2_f32,
    (alpha: f32, x: &[f32], y: &mut [f32]) -> (usize, f32));
kind_entry!(axpy_add_f32, axpy_add_scalar, axpy_add_avx2_f32,
    (alpha: f32, x: &[f32], y: &mut [f32]) -> ());
kind_entry!(sub_f32, dsub_scalar, dsub_avx2_f32,
    (y: &mut [f32], x: &[f32]) -> ());

// ---------------------------------------------------------------- scalar
//
// Generic scalar oracles: one body per kernel, monomorphized per precision.

fn argmax_abs_scalar<E: Element>(x: &[E]) -> (usize, E) {
    let mut best_v = E::NEG_INFINITY;
    let mut best_i = usize::MAX;
    for (i, &v) in x.iter().enumerate() {
        let av = v.abs();
        if av > best_v {
            best_v = av;
            best_i = i;
        }
    }
    (best_i, best_v)
}

fn dscal_inv_scalar<E: Element>(pivot: E, x: &mut [E]) {
    for v in x {
        *v /= pivot;
    }
}

fn axpy_sub_scalar<E: Element>(alpha: E, x: &[E], y: &mut [E]) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi -= alpha * xi;
    }
}

fn axpy_sub_argmax_scalar<E: Element>(alpha: E, x: &[E], y: &mut [E]) -> (usize, E) {
    assert!(x.len() >= y.len(), "x shorter than y");
    let mut best_v = E::NEG_INFINITY;
    let mut best_i = usize::MAX;
    for (i, (yi, &xi)) in y.iter_mut().zip(x).enumerate() {
        *yi -= alpha * xi;
        let av = yi.abs();
        if av > best_v {
            best_v = av;
            best_i = i;
        }
    }
    (best_i, best_v)
}

fn axpy_add_scalar<E: Element>(alpha: E, x: &[E], y: &mut [E]) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

fn dsub_scalar<E: Element>(y: &mut [E], x: &[E]) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi -= xi;
    }
}

/// Largest slice length whose lane indices stay exactly representable in an
/// f32 index register (integers <= 2^24 are exact in f32). Longer argmax
/// inputs take the scalar path — never hit in practice, the pipeline's
/// column heights are far smaller.
#[cfg(target_arch = "x86_64")]
const F32_IDX_EXACT: usize = 1 << 24;

/// Independent value/index chains in the AVX2 argmax bodies: each takes
/// every [`CHAINS`]-th register-wide chunk, so consecutive chunks' compare
/// and blend overlap instead of waiting on one another.
#[cfg(target_arch = "x86_64")]
const CHAINS: usize = 4;

/// Folds per-lane `(value, index)` argmax candidates into the scalar
/// first-index-wins answer: the largest value, and among equal values the
/// smallest index, so the order the lanes (and chains) come in does not
/// matter. Lanes that never won keep the `NEG_INFINITY`
/// sentinel (no data element has `|v| == -inf`) and are skipped, which is
/// exactly the scalar loop never updating from its initial state. Index
/// lanes hold small exact integers in either precision (`F32_IDX_EXACT`
/// guards the f32 path), so `to_f64 as usize` is lossless.
#[cfg(target_arch = "x86_64")]
fn fold_lanes<E: Element>(vs: &[E], is: &[E], best_v: &mut E, best_i: &mut usize) {
    for (&v, &fi) in vs.iter().zip(is) {
        if v == E::NEG_INFINITY {
            continue;
        }
        let i = fi.to_f64() as usize;
        if v > *best_v || (v == *best_v && i < *best_i) {
            *best_v = v;
            *best_i = i;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::{
        __m256, __m256d, _mm256_add_pd, _mm256_add_ps, _mm256_and_pd, _mm256_and_ps,
        _mm256_blendv_pd, _mm256_blendv_ps, _mm256_castsi256_pd, _mm256_castsi256_ps,
        _mm256_cmp_pd, _mm256_cmp_ps, _mm256_div_pd, _mm256_div_ps, _mm256_loadu_pd,
        _mm256_loadu_ps, _mm256_mul_pd, _mm256_mul_ps, _mm256_or_pd, _mm256_or_ps,
        _mm256_set1_epi32, _mm256_set1_epi64x, _mm256_set1_pd, _mm256_set1_ps, _mm256_setr_pd,
        _mm256_setr_ps, _mm256_storeu_pd, _mm256_storeu_ps, _mm256_sub_pd, _mm256_sub_ps,
        _CMP_EQ_OQ, _CMP_GT_OQ, _CMP_LT_OQ,
    };

    /// Clears the sign bit of each lane — bit-identical to `f64::abs`
    /// (NaN payloads pass through, `-0.0` becomes `+0.0`).
    #[inline]
    fn abs_mask() -> __m256d {
        // SAFETY: avx2 — pure lane-constant construction.
        let bits = unsafe { _mm256_set1_epi64x(0x7fff_ffff_ffff_ffff_u64 as i64) };
        // SAFETY: avx2 — lane-wise bit cast.
        unsafe { _mm256_castsi256_pd(bits) }
    }

    /// f32 twin of [`abs_mask`]: clears the sign bit of each of 8 lanes,
    /// bit-identical to `f32::abs`.
    #[inline]
    fn abs_mask_ps() -> __m256 {
        // SAFETY: avx2 — pure lane-constant construction.
        let bits = unsafe { _mm256_set1_epi32(0x7fff_ffff_u32 as i32) };
        // SAFETY: avx2 — lane-wise bit cast.
        unsafe { _mm256_castsi256_ps(bits) }
    }

    /// [`super::CHAINS`] running `(|max|, index)` pairs of 4 f64 lanes.
    /// Every lane sees its elements in ascending index order and keeps a
    /// strict-`>` maximum, so it holds the first maximum of its elements;
    /// [`super::fold_lanes`] then restores the global first-index-wins
    /// answer. `_CMP_GT_OQ` is the ordered quiet `>` — NaN compares false
    /// exactly like the scalar `av > best_v`.
    struct ChainsPd {
        bv: [__m256d; super::CHAINS],
        bi: [__m256d; super::CHAINS],
        idx: [__m256d; super::CHAINS],
    }

    impl ChainsPd {
        /// Chain `c`'s first chunk holds indices `4c..4c + 4`.
        #[target_feature(enable = "avx2")]
        fn new() -> Self {
            let lane = |c: usize| {
                let b = (4 * c) as f64;
                _mm256_setr_pd(b, b + 1.0, b + 2.0, b + 3.0)
            };
            let mut idx = [_mm256_set1_pd(0.0); super::CHAINS];
            for (c, v) in idx.iter_mut().enumerate() {
                *v = lane(c);
            }
            Self {
                bv: [_mm256_set1_pd(f64::NEG_INFINITY); super::CHAINS],
                bi: [_mm256_set1_pd(0.0); super::CHAINS],
                idx,
            }
        }

        /// Offers chain `c` the absolute values `av` of its next chunk.
        #[target_feature(enable = "avx2")]
        #[inline]
        fn track(&mut self, c: usize, av: __m256d) {
            let gt = _mm256_cmp_pd::<_CMP_GT_OQ>(av, self.bv[c]);
            self.bv[c] = _mm256_blendv_pd(self.bv[c], av, gt);
            self.bi[c] = _mm256_blendv_pd(self.bi[c], self.idx[c], gt);
            self.idx[c] = _mm256_add_pd(self.idx[c], _mm256_set1_pd((4 * super::CHAINS) as f64));
        }

        /// Folds every chain's lanes into `(best_v, best_i)`: the chains
        /// merge lane by lane first — a lane of a later chain wins only
        /// with a larger value, or an equal one at a smaller index, which
        /// is [`super::fold_lanes`]'s rule — and the 4 merged lanes then
        /// fold as one chain's would. Lanes that never won hold
        /// `(NEG_INFINITY, 0)`, which no lane that did win loses to.
        #[target_feature(enable = "avx2")]
        fn fold(&self, best_v: &mut f64, best_i: &mut usize) {
            let (mut v, mut i) = (self.bv[0], self.bi[0]);
            for c in 1..super::CHAINS {
                let (cv, ci) = (self.bv[c], self.bi[c]);
                let gt = _mm256_cmp_pd::<_CMP_GT_OQ>(cv, v);
                let tie = _mm256_and_pd(
                    _mm256_cmp_pd::<_CMP_EQ_OQ>(cv, v),
                    _mm256_cmp_pd::<_CMP_LT_OQ>(ci, i),
                );
                let take = _mm256_or_pd(gt, tie);
                v = _mm256_blendv_pd(v, cv, take);
                i = _mm256_blendv_pd(i, ci, take);
            }
            let mut vs = [0.0f64; 4];
            let mut is = [0.0f64; 4];
            // SAFETY: avx2 — both stack arrays have 4 writable lanes.
            unsafe { _mm256_storeu_pd(vs.as_mut_ptr(), v) };
            // SAFETY: avx2 — as above.
            unsafe { _mm256_storeu_pd(is.as_mut_ptr(), i) };
            super::fold_lanes(&vs, &is, best_v, best_i);
        }
    }

    /// 8-lane f32 twin of [`ChainsPd`]; index lanes are f32, exact below
    /// `F32_IDX_EXACT`.
    struct ChainsPs {
        bv: [__m256; super::CHAINS],
        bi: [__m256; super::CHAINS],
        idx: [__m256; super::CHAINS],
    }

    impl ChainsPs {
        /// Chain `c`'s first chunk holds indices `8c..8c + 8`.
        #[target_feature(enable = "avx2")]
        fn new() -> Self {
            let lane = |c: usize| {
                let b = (8 * c) as f32;
                _mm256_setr_ps(
                    b,
                    b + 1.0,
                    b + 2.0,
                    b + 3.0,
                    b + 4.0,
                    b + 5.0,
                    b + 6.0,
                    b + 7.0,
                )
            };
            let mut idx = [_mm256_set1_ps(0.0); super::CHAINS];
            for (c, v) in idx.iter_mut().enumerate() {
                *v = lane(c);
            }
            Self {
                bv: [_mm256_set1_ps(f32::NEG_INFINITY); super::CHAINS],
                bi: [_mm256_set1_ps(0.0); super::CHAINS],
                idx,
            }
        }

        /// Offers chain `c` the absolute values `av` of its next chunk.
        #[target_feature(enable = "avx2")]
        #[inline]
        fn track(&mut self, c: usize, av: __m256) {
            let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(av, self.bv[c]);
            self.bv[c] = _mm256_blendv_ps(self.bv[c], av, gt);
            self.bi[c] = _mm256_blendv_ps(self.bi[c], self.idx[c], gt);
            self.idx[c] = _mm256_add_ps(self.idx[c], _mm256_set1_ps((8 * super::CHAINS) as f32));
        }

        /// Folds every chain's lanes into `(best_v, best_i)`: the chains
        /// merge lane by lane first — a lane of a later chain wins only
        /// with a larger value, or an equal one at a smaller index, which
        /// is [`super::fold_lanes`]'s rule — and the 8 merged lanes then
        /// fold as one chain's would. Lanes that never won hold
        /// `(NEG_INFINITY, 0)`, which no lane that did win loses to.
        #[target_feature(enable = "avx2")]
        fn fold(&self, best_v: &mut f32, best_i: &mut usize) {
            let (mut v, mut i) = (self.bv[0], self.bi[0]);
            for c in 1..super::CHAINS {
                let (cv, ci) = (self.bv[c], self.bi[c]);
                let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(cv, v);
                let tie = _mm256_and_ps(
                    _mm256_cmp_ps::<_CMP_EQ_OQ>(cv, v),
                    _mm256_cmp_ps::<_CMP_LT_OQ>(ci, i),
                );
                let take = _mm256_or_ps(gt, tie);
                v = _mm256_blendv_ps(v, cv, take);
                i = _mm256_blendv_ps(i, ci, take);
            }
            let mut vs = [0.0f32; 8];
            let mut is = [0.0f32; 8];
            // SAFETY: avx2 — both stack arrays have 8 writable lanes.
            unsafe { _mm256_storeu_ps(vs.as_mut_ptr(), v) };
            // SAFETY: avx2 — as above.
            unsafe { _mm256_storeu_ps(is.as_mut_ptr(), i) };
            super::fold_lanes(&vs, &is, best_v, best_i);
        }
    }

    /// 4-lane pivot search over [`super::CHAINS`] chains ([`ChainsPd`]);
    /// chunk `q` goes to chain `q % CHAINS`, the scalar tail follows the
    /// fold with a strict `>`, as every tail index is past every chunk's.
    ///
    /// # Safety
    /// Caller must have verified the `avx2` target feature at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn argmax_abs_avx2(x: &[f64]) -> (usize, f64) {
        let n = x.len();
        let mut best_v = f64::NEG_INFINITY;
        let mut best_i = usize::MAX;
        let chunks = n / 4;
        if chunks > 0 {
            let mask = abs_mask();
            let mut ch = ChainsPd::new();
            for b in 0..chunks.div_ceil(super::CHAINS) {
                for c in 0..super::CHAINS {
                    let q = super::CHAINS * b + c;
                    if q < chunks {
                        // SAFETY: avx2 — offset `4q` is in bounds (`q < n/4`).
                        let ptr = unsafe { x.as_ptr().add(4 * q) };
                        // SAFETY: avx2 — lanes `4q..4q+4` are in bounds.
                        let v = unsafe { _mm256_loadu_pd(ptr) };
                        ch.track(c, _mm256_and_pd(v, mask));
                    }
                }
            }
            ch.fold(&mut best_v, &mut best_i);
        }
        for i in 4 * chunks..n {
            let av = x[i].abs();
            if av > best_v {
                best_v = av;
                best_i = i;
            }
        }
        (best_i, best_v)
    }

    /// 8-lane f32 pivot search; see the f64 twin for the chain/fold
    /// argument. Slices of `F32_IDX_EXACT` entries or more take the
    /// (bitwise-identical) scalar loop.
    ///
    /// # Safety
    /// Caller must have verified the `avx2` target feature at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn argmax_abs_avx2_f32(x: &[f32]) -> (usize, f32) {
        let n = x.len();
        if n >= super::F32_IDX_EXACT {
            return super::argmax_abs_scalar(x);
        }
        let mut best_v = f32::NEG_INFINITY;
        let mut best_i = usize::MAX;
        let chunks = n / 8;
        if chunks > 0 {
            let mask = abs_mask_ps();
            let mut ch = ChainsPs::new();
            for b in 0..chunks.div_ceil(super::CHAINS) {
                for c in 0..super::CHAINS {
                    let q = super::CHAINS * b + c;
                    if q < chunks {
                        // SAFETY: avx2 — offset `8q` is in bounds (`q < n/8`).
                        let ptr = unsafe { x.as_ptr().add(8 * q) };
                        // SAFETY: avx2 — lanes `8q..8q+8` are in bounds.
                        let v = unsafe { _mm256_loadu_ps(ptr) };
                        ch.track(c, _mm256_and_ps(v, mask));
                    }
                }
            }
            ch.fold(&mut best_v, &mut best_i);
        }
        for i in 8 * chunks..n {
            let av = x[i].abs();
            if av > best_v {
                best_v = av;
                best_i = i;
            }
        }
        (best_i, best_v)
    }

    /// `y -= alpha * x` (mul then sub, no FMA) with the pivot search of the
    /// updated `y` riding along: each chunk's result is stored and offered
    /// to its chain ([`ChainsPd`]) while still in a register.
    ///
    /// # Safety
    /// Caller must have verified the `avx2` target feature at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_sub_argmax_avx2(
        alpha: f64,
        x: &[f64],
        y: &mut [f64],
    ) -> (usize, f64) {
        let n = y.len();
        assert!(x.len() >= n, "x shorter than y");
        let mut best_v = f64::NEG_INFINITY;
        let mut best_i = usize::MAX;
        let chunks = n / 4;
        if chunks > 0 {
            let mask = abs_mask();
            let a = _mm256_set1_pd(alpha);
            let mut ch = ChainsPd::new();
            for b in 0..chunks.div_ceil(super::CHAINS) {
                for c in 0..super::CHAINS {
                    let q = super::CHAINS * b + c;
                    if q < chunks {
                        // SAFETY: avx2 — offset `4q` is within both slices
                        // (`q < n/4`, `x.len() >= n`).
                        let xptr = unsafe { x.as_ptr().add(4 * q) };
                        // SAFETY: avx2 — lanes `4q..4q+4` of `x` are readable.
                        let xv = unsafe { _mm256_loadu_pd(xptr) };
                        // SAFETY: avx2 — the same in-bounds offset of `y`.
                        let yptr = unsafe { y.as_mut_ptr().add(4 * q) };
                        // SAFETY: avx2 — lanes `4q..4q+4` of `y` are readable.
                        let yv = unsafe { _mm256_loadu_pd(yptr) };
                        // Separate mul and sub (NOT fmsub), as `axpy_sub`.
                        let r = _mm256_sub_pd(yv, _mm256_mul_pd(a, xv));
                        // SAFETY: avx2 — same writable lanes.
                        unsafe { _mm256_storeu_pd(yptr, r) };
                        ch.track(c, _mm256_and_pd(r, mask));
                    }
                }
            }
            ch.fold(&mut best_v, &mut best_i);
        }
        for i in 4 * chunks..n {
            y[i] -= alpha * x[i];
            let av = y[i].abs();
            if av > best_v {
                best_v = av;
                best_i = i;
            }
        }
        (best_i, best_v)
    }

    /// f32 twin of [`axpy_sub_argmax_avx2`]. Slices of `F32_IDX_EXACT`
    /// entries or more take the (bitwise-identical) scalar loop.
    ///
    /// # Safety
    /// Caller must have verified the `avx2` target feature at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_sub_argmax_avx2_f32(
        alpha: f32,
        x: &[f32],
        y: &mut [f32],
    ) -> (usize, f32) {
        let n = y.len();
        assert!(x.len() >= n, "x shorter than y");
        if n >= super::F32_IDX_EXACT {
            return super::axpy_sub_argmax_scalar(alpha, x, y);
        }
        let mut best_v = f32::NEG_INFINITY;
        let mut best_i = usize::MAX;
        let chunks = n / 8;
        if chunks > 0 {
            let mask = abs_mask_ps();
            let a = _mm256_set1_ps(alpha);
            let mut ch = ChainsPs::new();
            for b in 0..chunks.div_ceil(super::CHAINS) {
                for c in 0..super::CHAINS {
                    let q = super::CHAINS * b + c;
                    if q < chunks {
                        // SAFETY: avx2 — offset `8q` is within both slices
                        // (`q < n/8`, `x.len() >= n`).
                        let xptr = unsafe { x.as_ptr().add(8 * q) };
                        // SAFETY: avx2 — lanes `8q..8q+8` of `x` are readable.
                        let xv = unsafe { _mm256_loadu_ps(xptr) };
                        // SAFETY: avx2 — the same in-bounds offset of `y`.
                        let yptr = unsafe { y.as_mut_ptr().add(8 * q) };
                        // SAFETY: avx2 — lanes `8q..8q+8` of `y` are readable.
                        let yv = unsafe { _mm256_loadu_ps(yptr) };
                        // Separate mul and sub (NOT fmsub), as `axpy_sub`.
                        let r = _mm256_sub_ps(yv, _mm256_mul_ps(a, xv));
                        // SAFETY: avx2 — same writable lanes.
                        unsafe { _mm256_storeu_ps(yptr, r) };
                        ch.track(c, _mm256_and_ps(r, mask));
                    }
                }
            }
            ch.fold(&mut best_v, &mut best_i);
        }
        for i in 8 * chunks..n {
            y[i] -= alpha * x[i];
            let av = y[i].abs();
            if av > best_v {
                best_v = av;
                best_i = i;
            }
        }
        (best_i, best_v)
    }

    /// # Safety
    /// Caller must have verified the `avx2` target feature at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dscal_inv_avx2(pivot: f64, x: &mut [f64]) {
        let n = x.len();
        let p = _mm256_set1_pd(pivot);
        let chunks = n / 4;
        for c in 0..chunks {
            // SAFETY: avx2 — offset `4c` is in bounds (`c < n/4`).
            let ptr = unsafe { x.as_mut_ptr().add(4 * c) };
            // SAFETY: avx2 — lanes `4c..4c+4` are in bounds (`c < n/4`).
            let v = unsafe { _mm256_loadu_pd(ptr) };
            // `vdivpd` is correctly rounded: bit-identical to the scalar `/`.
            let q = _mm256_div_pd(v, p);
            // SAFETY: avx2 — same in-bounds lanes, writable.
            unsafe { _mm256_storeu_pd(ptr, q) };
        }
        for v in &mut x[4 * chunks..] {
            *v /= pivot;
        }
    }

    /// # Safety
    /// Caller must have verified the `avx2` target feature at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dscal_inv_avx2_f32(pivot: f32, x: &mut [f32]) {
        let n = x.len();
        let p = _mm256_set1_ps(pivot);
        let chunks = n / 8;
        for c in 0..chunks {
            // SAFETY: avx2 — offset `8c` is in bounds (`c < n/8`).
            let ptr = unsafe { x.as_mut_ptr().add(8 * c) };
            // SAFETY: avx2 — lanes `8c..8c+8` are in bounds (`c < n/8`).
            let v = unsafe { _mm256_loadu_ps(ptr) };
            // `vdivps` is correctly rounded: bit-identical to the scalar `/`.
            let q = _mm256_div_ps(v, p);
            // SAFETY: avx2 — same in-bounds lanes, writable.
            unsafe { _mm256_storeu_ps(ptr, q) };
        }
        for v in &mut x[8 * chunks..] {
            *v /= pivot;
        }
    }

    /// # Safety
    /// Caller must have verified the `avx2` target feature at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_sub_avx2(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = y.len().min(x.len());
        let a = _mm256_set1_pd(alpha);
        let chunks = n / 4;
        for c in 0..chunks {
            // SAFETY: avx2 — offset `4c` is within both slices.
            let xptr = unsafe { x.as_ptr().add(4 * c) };
            // SAFETY: avx2 — lanes `4c..4c+4` are within both slices.
            let xv = unsafe { _mm256_loadu_pd(xptr) };
            // SAFETY: avx2 — same in-bounds offset on the writable side.
            let yptr = unsafe { y.as_mut_ptr().add(4 * c) };
            // SAFETY: avx2 — lanes `4c..4c+4` of `y` are readable.
            let yv = unsafe { _mm256_loadu_pd(yptr) };
            // Separate mul and sub (NOT fmsub): two roundings, exactly the
            // scalar `*yi -= alpha * xi` sequence.
            let r = _mm256_sub_pd(yv, _mm256_mul_pd(a, xv));
            // SAFETY: avx2 — same writable lanes.
            unsafe { _mm256_storeu_pd(yptr, r) };
        }
        for (yi, &xi) in y[4 * chunks..n].iter_mut().zip(&x[4 * chunks..n]) {
            *yi -= alpha * xi;
        }
    }

    /// # Safety
    /// Caller must have verified the `avx2` target feature at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_sub_avx2_f32(alpha: f32, x: &[f32], y: &mut [f32]) {
        let n = y.len().min(x.len());
        let a = _mm256_set1_ps(alpha);
        let chunks = n / 8;
        for c in 0..chunks {
            // SAFETY: avx2 — offset `8c` is within both slices.
            let xptr = unsafe { x.as_ptr().add(8 * c) };
            // SAFETY: avx2 — lanes `8c..8c+8` are within both slices.
            let xv = unsafe { _mm256_loadu_ps(xptr) };
            // SAFETY: avx2 — same in-bounds offset on the writable side.
            let yptr = unsafe { y.as_mut_ptr().add(8 * c) };
            // SAFETY: avx2 — lanes `8c..8c+8` of `y` are readable.
            let yv = unsafe { _mm256_loadu_ps(yptr) };
            // Separate mul and sub (NOT fmsub): two roundings, exactly the
            // scalar `*yi -= alpha * xi` sequence.
            let r = _mm256_sub_ps(yv, _mm256_mul_ps(a, xv));
            // SAFETY: avx2 — same writable lanes.
            unsafe { _mm256_storeu_ps(yptr, r) };
        }
        for (yi, &xi) in y[8 * chunks..n].iter_mut().zip(&x[8 * chunks..n]) {
            *yi -= alpha * xi;
        }
    }

    /// # Safety
    /// Caller must have verified the `avx2` target feature at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_add_avx2(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = y.len().min(x.len());
        let a = _mm256_set1_pd(alpha);
        let chunks = n / 4;
        for c in 0..chunks {
            // SAFETY: avx2 — offset `4c` is within both slices.
            let xptr = unsafe { x.as_ptr().add(4 * c) };
            // SAFETY: avx2 — lanes `4c..4c+4` are within both slices.
            let xv = unsafe { _mm256_loadu_pd(xptr) };
            // SAFETY: avx2 — same in-bounds offset on the writable side.
            let yptr = unsafe { y.as_mut_ptr().add(4 * c) };
            // SAFETY: avx2 — lanes `4c..4c+4` of `y` are readable.
            let yv = unsafe { _mm256_loadu_pd(yptr) };
            // Separate mul and add (NOT fmadd): two roundings, matching the
            // scalar `*yi += alpha * xi`.
            let r = _mm256_add_pd(yv, _mm256_mul_pd(a, xv));
            // SAFETY: avx2 — same writable lanes.
            unsafe { _mm256_storeu_pd(yptr, r) };
        }
        for (yi, &xi) in y[4 * chunks..n].iter_mut().zip(&x[4 * chunks..n]) {
            *yi += alpha * xi;
        }
    }

    /// # Safety
    /// Caller must have verified the `avx2` target feature at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_add_avx2_f32(alpha: f32, x: &[f32], y: &mut [f32]) {
        let n = y.len().min(x.len());
        let a = _mm256_set1_ps(alpha);
        let chunks = n / 8;
        for c in 0..chunks {
            // SAFETY: avx2 — offset `8c` is within both slices.
            let xptr = unsafe { x.as_ptr().add(8 * c) };
            // SAFETY: avx2 — lanes `8c..8c+8` are within both slices.
            let xv = unsafe { _mm256_loadu_ps(xptr) };
            // SAFETY: avx2 — same in-bounds offset on the writable side.
            let yptr = unsafe { y.as_mut_ptr().add(8 * c) };
            // SAFETY: avx2 — lanes `8c..8c+8` of `y` are readable.
            let yv = unsafe { _mm256_loadu_ps(yptr) };
            // Separate mul and add (NOT fmadd): two roundings, matching the
            // scalar `*yi += alpha * xi`.
            let r = _mm256_add_ps(yv, _mm256_mul_ps(a, xv));
            // SAFETY: avx2 — same writable lanes.
            unsafe { _mm256_storeu_ps(yptr, r) };
        }
        for (yi, &xi) in y[8 * chunks..n].iter_mut().zip(&x[8 * chunks..n]) {
            *yi += alpha * xi;
        }
    }

    /// # Safety
    /// Caller must have verified the `avx2` target feature at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dsub_avx2(y: &mut [f64], x: &[f64]) {
        let n = y.len().min(x.len());
        let chunks = n / 4;
        for c in 0..chunks {
            // SAFETY: avx2 — offset `4c` is within both slices.
            let xptr = unsafe { x.as_ptr().add(4 * c) };
            // SAFETY: avx2 — lanes `4c..4c+4` are within both slices.
            let xv = unsafe { _mm256_loadu_pd(xptr) };
            // SAFETY: avx2 — same in-bounds offset on the writable side.
            let yptr = unsafe { y.as_mut_ptr().add(4 * c) };
            // SAFETY: avx2 — lanes `4c..4c+4` of `y` are readable.
            let yv = unsafe { _mm256_loadu_pd(yptr) };
            let r = _mm256_sub_pd(yv, xv);
            // SAFETY: avx2 — same writable lanes.
            unsafe { _mm256_storeu_pd(yptr, r) };
        }
        for (yi, &xi) in y[4 * chunks..n].iter_mut().zip(&x[4 * chunks..n]) {
            *yi -= xi;
        }
    }

    /// # Safety
    /// Caller must have verified the `avx2` target feature at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dsub_avx2_f32(y: &mut [f32], x: &[f32]) {
        let n = y.len().min(x.len());
        let chunks = n / 8;
        for c in 0..chunks {
            // SAFETY: avx2 — offset `8c` is within both slices.
            let xptr = unsafe { x.as_ptr().add(8 * c) };
            // SAFETY: avx2 — lanes `8c..8c+8` are within both slices.
            let xv = unsafe { _mm256_loadu_ps(xptr) };
            // SAFETY: avx2 — same in-bounds offset on the writable side.
            let yptr = unsafe { y.as_mut_ptr().add(8 * c) };
            // SAFETY: avx2 — lanes `8c..8c+8` of `y` are readable.
            let yv = unsafe { _mm256_loadu_ps(yptr) };
            let r = _mm256_sub_ps(yv, xv);
            // SAFETY: avx2 — same writable lanes.
            unsafe { _mm256_storeu_ps(yptr, r) };
        }
        for (yi, &xi) in y[8 * chunks..n].iter_mut().zip(&x[8 * chunks..n]) {
            *yi -= xi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::Kernel;

    /// Deterministic xorshift values spanning signs, magnitudes, exact ties,
    /// signed zeros, subnormals and NaN — the cases where a simd kernel
    /// could diverge from the scalar oracle.
    fn data(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed | 1;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let v = match s % 11 {
                0 => 0.0,
                1 => -0.0,
                2 => f64::NAN,
                3 => 4.25,                    // deliberate repeated tie value
                4 => -4.25,                   // |.| ties the positive twin
                5 => f64::MIN_POSITIVE / 2.0, // subnormal
                _ => ((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1e3,
            };
            // Early indices get the tie values too, so first-wins is probed.
            out.push(if i == 0 && n > 4 { 4.25 } else { v });
        }
        out
    }

    /// f32 twin of [`data`], with f32 tie values and subnormals.
    fn data_f32(n: usize, seed: u64) -> Vec<f32> {
        let mut s = seed | 1;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let v = match s % 11 {
                0 => 0.0f32,
                1 => -0.0,
                2 => f32::NAN,
                3 => 4.25,                    // deliberate repeated tie value
                4 => -4.25,                   // |.| ties the positive twin
                5 => f32::MIN_POSITIVE / 2.0, // subnormal
                _ => ((s >> 11) as f32 / (1u64 << 40) as f32 - 0.5) * 1e3,
            };
            out.push(if i == 0 && n > 4 { 4.25 } else { v });
        }
        out
    }

    fn simd_available() -> bool {
        Kernel::simd().is_some()
    }

    #[test]
    fn scalar_argmax_matches_the_plain_loop_contract() {
        assert_eq!(
            argmax_abs_scalar::<f64>(&[]),
            (usize::MAX, f64::NEG_INFINITY)
        );
        assert_eq!(
            argmax_abs_scalar(&[f64::NAN, f64::NAN]),
            (usize::MAX, f64::NEG_INFINITY)
        );
        assert_eq!(argmax_abs_scalar(&[-3.0f64, 3.0, -3.0]), (0, 3.0));
        assert_eq!(argmax_abs_scalar(&[1.0f64, -5.0, 5.0]), (1, 5.0));
        // The generic body serves f32 with the same contract.
        assert_eq!(argmax_abs_scalar(&[-3.0f32, 3.0, -3.0]), (0, 3.0f32));
        assert_eq!(
            argmax_abs_scalar::<f32>(&[f32::NAN]),
            (usize::MAX, f32::NEG_INFINITY)
        );
    }

    #[test]
    fn simd_argmax_is_bitwise_equal_to_scalar() {
        if !simd_available() {
            return;
        }
        for n in 0..=67 {
            for seed in [1u64, 42, 1234567, 987654321] {
                let x = data(n, seed);
                let (si, sv) = argmax_abs_scalar(&x);
                let (vi, vv) = argmax_abs_f64(KernelKind::Simd, &x);
                assert_eq!((si, sv.to_bits()), (vi, vv.to_bits()), "n={n} seed={seed}");
            }
        }
    }

    #[test]
    fn simd_argmax_f32_is_bitwise_equal_to_scalar() {
        if !simd_available() {
            return;
        }
        // 0..=67 crosses several 8-lane (and 4-lane) chunk boundaries.
        for n in 0..=67 {
            for seed in [1u64, 42, 1234567, 987654321] {
                let x = data_f32(n, seed);
                let (si, sv) = argmax_abs_scalar(&x);
                let (vi, vv) = argmax_abs_f32(KernelKind::Simd, &x);
                assert_eq!((si, sv.to_bits()), (vi, vv.to_bits()), "n={n} seed={seed}");
            }
        }
    }

    #[test]
    fn simd_row_kernels_are_bitwise_equal_to_scalar() {
        if !simd_available() {
            return;
        }
        for n in 0..=67 {
            for seed in [7u64, 99, 31337] {
                let x = data(n, seed);
                let pivot = 3.141592653589793e-2;
                let alpha = -1.7724538509055159;

                let mut ys = data(n, seed ^ 0xdead);
                let mut yv = ys.clone();
                dscal_inv_scalar(pivot, &mut ys);
                scal_inv_f64(KernelKind::Simd, pivot, &mut yv);
                assert_bits_eq(&ys, &yv, "dscal_inv", n, seed);

                let mut ys = data(n, seed ^ 0xbeef);
                let mut yv = ys.clone();
                axpy_sub_scalar(alpha, &x, &mut ys);
                axpy_sub_f64(KernelKind::Simd, alpha, &x, &mut yv);
                assert_bits_eq(&ys, &yv, "axpy_sub", n, seed);

                let mut ys = data(n, seed ^ 0xf00d);
                let mut yv = ys.clone();
                axpy_add_scalar(alpha, &x, &mut ys);
                axpy_add_f64(KernelKind::Simd, alpha, &x, &mut yv);
                assert_bits_eq(&ys, &yv, "axpy_add", n, seed);

                let mut ys = data(n, seed ^ 0xcafe);
                let mut yv = ys.clone();
                dsub_scalar(&mut ys, &x);
                sub_f64(KernelKind::Simd, &mut yv, &x);
                assert_bits_eq(&ys, &yv, "dsub", n, seed);
            }
        }
    }

    #[test]
    fn simd_row_kernels_f32_are_bitwise_equal_to_scalar() {
        if !simd_available() {
            return;
        }
        for n in 0..=67 {
            for seed in [7u64, 99, 31337] {
                let x = data_f32(n, seed);
                let pivot = 3.141_593e-2_f32;
                let alpha = -1.7724539f32;

                let mut ys = data_f32(n, seed ^ 0xdead);
                let mut yv = ys.clone();
                dscal_inv_scalar(pivot, &mut ys);
                scal_inv_f32(KernelKind::Simd, pivot, &mut yv);
                assert_bits_eq_f32(&ys, &yv, "dscal_inv", n, seed);

                let mut ys = data_f32(n, seed ^ 0xbeef);
                let mut yv = ys.clone();
                axpy_sub_scalar(alpha, &x, &mut ys);
                axpy_sub_f32(KernelKind::Simd, alpha, &x, &mut yv);
                assert_bits_eq_f32(&ys, &yv, "axpy_sub", n, seed);

                let mut ys = data_f32(n, seed ^ 0xf00d);
                let mut yv = ys.clone();
                axpy_add_scalar(alpha, &x, &mut ys);
                axpy_add_f32(KernelKind::Simd, alpha, &x, &mut yv);
                assert_bits_eq_f32(&ys, &yv, "axpy_add", n, seed);

                let mut ys = data_f32(n, seed ^ 0xcafe);
                let mut yv = ys.clone();
                dsub_scalar(&mut ys, &x);
                sub_f32(KernelKind::Simd, &mut yv, &x);
                assert_bits_eq_f32(&ys, &yv, "dsub", n, seed);
            }
        }
    }

    fn assert_bits_eq(a: &[f64], b: &[f64], what: &str, n: usize, seed: u64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what} diverged at [{i}] (n={n} seed={seed}): {x:e} vs {y:e}"
            );
        }
    }

    fn assert_bits_eq_f32(a: &[f32], b: &[f32], what: &str, n: usize, seed: u64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what} diverged at [{i}] (n={n} seed={seed}): {x:e} vs {y:e}"
            );
        }
    }

    /// Every kernel kind this host can run (scalar first).
    fn kinds() -> Vec<KernelKind> {
        let mut kinds: Vec<KernelKind> = Kernel::available().iter().map(|k| k.kind()).collect();
        kinds.dedup();
        kinds
    }

    /// Columns of length `n` that probe the argmax contract in either
    /// precision: mixed values with NaN, ±0, ±inf, subnormals and repeated
    /// ties; all-equal magnitudes; all NaN; and a maximum repeated at
    /// strides that put its copies in different lanes, chains and blocks
    /// of the AVX2 bodies (4 or 8 lanes, [`CHAINS`] chains), including
    /// ties that only later chains hold.
    fn probe_columns<E: Element>(n: usize) -> Vec<Vec<E>> {
        let mut cols = Vec::new();
        for seed in [1u64, 42, 1234567, 987654321] {
            let mut s = seed | 1;
            cols.push(
                (0..n)
                    .map(|i| {
                        s ^= s << 13;
                        s ^= s >> 7;
                        s ^= s << 17;
                        match s % 13 {
                            0 => E::ZERO,
                            1 => E::from_f64(-0.0),
                            2 => E::from_f64(f64::NAN),
                            3 => E::from_f64(4.25),
                            4 => E::from_f64(-4.25),
                            5 => E::from_bits_u64(1 + s % 3), // subnormal
                            6 => E::from_f64(f64::INFINITY),
                            7 => E::from_f64(f64::NEG_INFINITY),
                            // Early indices get the tie values too.
                            _ if i == 0 && n > 4 => E::from_f64(4.25),
                            _ => E::from_f64(((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1e3),
                        }
                    })
                    .collect(),
            );
        }
        cols.push(vec![E::from_f64(2.5); n]);
        let signs = |i: usize| if i.is_multiple_of(3) { -2.5 } else { 2.5 };
        cols.push((0..n).map(|i| E::from_f64(signs(i))).collect());
        cols.push(vec![E::from_f64(f64::NAN); n]);
        cols.push(vec![E::from_f64(-0.0); n]);
        for (stride, first) in [
            (5, 4),
            (7, 6),
            (9, 8),
            (4, 4),
            (8, 8),
            (16, 5),
            (17, 16),
            (33, 32),
        ] {
            cols.push(
                (0..n)
                    .map(|i| {
                        let peak = i >= first && (i - first) % stride == 0;
                        let v = if peak { 7.0 } else { (i % 3) as f64 };
                        E::from_f64(if i % 2 == 0 { v } else { -v })
                    })
                    .collect(),
            );
        }
        cols
    }

    /// `(index, value bits)` of an argmax answer.
    fn key<E: Element>((i, v): (usize, E)) -> (usize, u64) {
        (i, v.to_bits_u64())
    }

    fn bits<E: Element>(v: &[E]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits_u64()).collect()
    }

    fn multi_chain_argmax_is_the_scalar_oracle<E: Element>() {
        for kind in kinds() {
            for n in 0..=67 {
                for (c, x) in probe_columns::<E>(n).iter().enumerate() {
                    assert_eq!(
                        key(E::l1_argmax_abs(kind, x)),
                        key(argmax_abs_scalar(x)),
                        "{} {kind:?} n={n} column {c}",
                        E::NAME
                    );
                }
            }
        }
    }

    #[test]
    fn multi_chain_argmax_is_the_scalar_oracle_f64() {
        multi_chain_argmax_is_the_scalar_oracle::<f64>();
    }

    #[test]
    fn multi_chain_argmax_is_the_scalar_oracle_f32() {
        multi_chain_argmax_is_the_scalar_oracle::<f32>();
    }

    fn fused_update_search_is_axpy_sub_then_argmax<E: Element>() {
        let alphas = [0.0, -0.0, 1.0, -1.7724538509055159, 3.0e-3].map(E::from_f64);
        for kind in kinds() {
            for n in 0..=67 {
                let mut xs = probe_columns::<E>(n + 3);
                xs.truncate(2);
                xs.push(vec![E::ZERO; n + 3]);
                for (c, y0) in probe_columns::<E>(n).iter().enumerate() {
                    for (xc, x) in xs.iter().enumerate() {
                        for alpha in alphas {
                            let what = format!(
                                "{} {kind:?} n={n} column {c} x {xc} alpha {}",
                                E::NAME,
                                alpha.to_f64()
                            );
                            let mut fused = y0.clone();
                            let got = E::l1_axpy_sub_argmax(kind, alpha, x, &mut fused);
                            let mut split = y0.clone();
                            E::l1_axpy_sub(kind, alpha, x, &mut split);
                            let want = E::l1_argmax_abs(kind, &split);
                            assert_eq!(bits(&fused), bits(&split), "y: {what}");
                            assert_eq!(key(got), key(want), "argmax: {what}");
                            assert_eq!(key(got), key(argmax_abs_scalar(&split)), "oracle: {what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fused_update_search_is_axpy_sub_then_argmax_f64() {
        fused_update_search_is_axpy_sub_then_argmax::<f64>();
    }

    #[test]
    fn fused_update_search_is_axpy_sub_then_argmax_f32() {
        fused_update_search_is_axpy_sub_then_argmax::<f32>();
    }

    #[test]
    fn dispatched_entry_points_agree_with_scalar_semantics() {
        // Whatever kernel `RHPL_KERNEL` froze for this process, the public
        // functions must satisfy the scalar contract (bitwise determinism
        // across kernels is proven by the direct pairs above).
        let x = data(33, 5);
        let (i, v) = argmax_abs(&x);
        assert_eq!((i, v.to_bits()), {
            let (si, sv) = argmax_abs_scalar(&x);
            (si, sv.to_bits())
        });
        let mut y = data(33, 6);
        let mut ys = y.clone();
        axpy_sub(2.5, &x, &mut y);
        axpy_sub_scalar(2.5, &x, &mut ys);
        assert_bits_eq(&ys, &y, "dispatched axpy_sub", 33, 6);
        // And the f32 instantiation of the same generic entry points.
        let x = data_f32(33, 5);
        let (i, v) = argmax_abs(&x);
        assert_eq!((i, v.to_bits()), {
            let (si, sv) = argmax_abs_scalar(&x);
            (si, sv.to_bits())
        });
        let mut y = data_f32(33, 6);
        let mut ys = y.clone();
        axpy_sub(2.5f32, &x, &mut y);
        axpy_sub_scalar(2.5f32, &x, &mut ys);
        assert_bits_eq_f32(&ys, &y, "dispatched axpy_sub f32", 33, 6);
    }
}
