//! Vectorized level-1 kernels for the panel factorization (FACT) hot loops:
//! pivot-search argmax, reciprocal-free column scaling, and the fused
//! multiply-free rank-1 row kernels — in both pipeline precisions.
//!
//! Unlike the FMA GEMM microkernels in [`crate::l3::kernels`], every kernel
//! here is **bitwise identical** to its scalar oracle by construction, so the
//! factorization trace (`seq_hash`) and the replay/checkpoint guarantees are
//! preserved across `RHPL_KERNEL=scalar|simd` in f64 and f32 alike:
//!
//! * `argmax_abs` uses only comparisons (`_CMP_GT_OQ` / `vcgtq_f64` match the
//!   scalar `>` exactly, including NaN rejection), with first-index-wins tie
//!   breaking folded out of the lanes at the end;
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
// Monomorphic backing functions for the `Element` l1 hooks: each picks the
// scalar or per-arch simd body for an explicit kernel kind.

macro_rules! kind_entry {
    ($name:ident, $ty:ty, $scalar:ident, $simd:ident,
     ($($arg:ident: $aty:ty),*) -> $ret:ty) => {
        #[inline]
        pub(crate) fn $name(kind: KernelKind, $($arg: $aty),*) -> $ret {
            match kind {
                KernelKind::Scalar => $scalar($($arg),*),
                KernelKind::Simd => $simd($($arg),*),
            }
        }
    };
}

kind_entry!(argmax_abs_f64, f64, argmax_abs_scalar, argmax_abs_simd_f64,
    (x: &[f64]) -> (usize, f64));
kind_entry!(scal_inv_f64, f64, dscal_inv_scalar, dscal_inv_simd_f64,
    (pivot: f64, x: &mut [f64]) -> ());
kind_entry!(axpy_sub_f64, f64, axpy_sub_scalar, axpy_sub_simd_f64,
    (alpha: f64, x: &[f64], y: &mut [f64]) -> ());
kind_entry!(axpy_add_f64, f64, axpy_add_scalar, axpy_add_simd_f64,
    (alpha: f64, x: &[f64], y: &mut [f64]) -> ());
kind_entry!(sub_f64, f64, dsub_scalar, dsub_simd_f64,
    (y: &mut [f64], x: &[f64]) -> ());

kind_entry!(argmax_abs_f32, f32, argmax_abs_scalar, argmax_abs_simd_f32,
    (x: &[f32]) -> (usize, f32));
kind_entry!(scal_inv_f32, f32, dscal_inv_scalar, dscal_inv_simd_f32,
    (pivot: f32, x: &mut [f32]) -> ());
kind_entry!(axpy_sub_f32, f32, axpy_sub_scalar, axpy_sub_simd_f32,
    (alpha: f32, x: &[f32], y: &mut [f32]) -> ());
kind_entry!(axpy_add_f32, f32, axpy_add_scalar, axpy_add_simd_f32,
    (alpha: f32, x: &[f32], y: &mut [f32]) -> ());
kind_entry!(sub_f32, f32, dsub_scalar, dsub_simd_f32,
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

// ------------------------------------------------------------- dispatch

/// The per-arch simd entry points. Only reachable through a [`kernels::Kernel`]
/// whose construction verified the ISA (mirrors `l3::kernels::micro_simd`);
/// non-simd architectures fall back to the scalar body.
macro_rules! simd_entry {
    ($name:ident, $x86:ident, $neon:ident, $scalar:ident,
     ($($arg:ident: $ty:ty),*) -> $ret:ty) => {
        #[inline]
        fn $name($($arg: $ty),*) -> $ret {
            #[cfg(target_arch = "x86_64")]
            {
                // SAFETY: `Kernel::simd()` is the only constructor of a Simd
                // kernel on x86_64 and it requires `is_x86_feature_detected!`
                // to confirm the avx2 target feature before handing one out,
                // so the `#[target_feature(enable = "avx2")]` contract holds.
                unsafe { x86::$x86($($arg),*) }
            }
            #[cfg(target_arch = "aarch64")]
            {
                // SAFETY: the neon target feature is baseline on every
                // aarch64 target rustc supports, so the
                // `#[target_feature(enable = "neon")]` contract is met.
                unsafe { aarch64::$neon($($arg),*) }
            }
            #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
            {
                $scalar($($arg),*)
            }
        }
    };
}

simd_entry!(argmax_abs_simd_f64, argmax_abs_avx2, argmax_abs_neon, argmax_abs_scalar,
    (x: &[f64]) -> (usize, f64));
simd_entry!(dscal_inv_simd_f64, dscal_inv_avx2, dscal_inv_neon, dscal_inv_scalar,
    (pivot: f64, x: &mut [f64]) -> ());
simd_entry!(axpy_sub_simd_f64, axpy_sub_avx2, axpy_sub_neon, axpy_sub_scalar,
    (alpha: f64, x: &[f64], y: &mut [f64]) -> ());
simd_entry!(axpy_add_simd_f64, axpy_add_avx2, axpy_add_neon, axpy_add_scalar,
    (alpha: f64, x: &[f64], y: &mut [f64]) -> ());
simd_entry!(dsub_simd_f64, dsub_avx2, dsub_neon, dsub_scalar,
    (y: &mut [f64], x: &[f64]) -> ());

simd_entry!(argmax_abs_simd_f32, argmax_abs_avx2_f32, argmax_abs_neon_f32, argmax_abs_scalar,
    (x: &[f32]) -> (usize, f32));
simd_entry!(dscal_inv_simd_f32, dscal_inv_avx2_f32, dscal_inv_neon_f32, dscal_inv_scalar,
    (pivot: f32, x: &mut [f32]) -> ());
simd_entry!(axpy_sub_simd_f32, axpy_sub_avx2_f32, axpy_sub_neon_f32, axpy_sub_scalar,
    (alpha: f32, x: &[f32], y: &mut [f32]) -> ());
simd_entry!(axpy_add_simd_f32, axpy_add_avx2_f32, axpy_add_neon_f32, axpy_add_scalar,
    (alpha: f32, x: &[f32], y: &mut [f32]) -> ());
simd_entry!(dsub_simd_f32, dsub_avx2_f32, dsub_neon_f32, dsub_scalar,
    (y: &mut [f32], x: &[f32]) -> ());

/// Largest slice length whose lane indices stay exactly representable in an
/// f32 index register (integers <= 2^24 are exact in f32). Longer argmax
/// inputs take the scalar path — never hit in practice, the pipeline's
/// column heights are far smaller.
const F32_IDX_EXACT: usize = 1 << 24;

/// Folds per-lane `(value, index)` argmax candidates into the scalar
/// first-index-wins answer. Lanes that never won keep the `NEG_INFINITY`
/// sentinel (no data element has `|v| == -inf`) and are skipped, which is
/// exactly the scalar loop never updating from its initial state. Index
/// lanes hold small exact integers in either precision (`F32_IDX_EXACT`
/// guards the f32 path), so `to_f64 as usize` is lossless.
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
        _mm256_loadu_ps, _mm256_mul_pd, _mm256_mul_ps, _mm256_set1_epi32, _mm256_set1_epi64x,
        _mm256_set1_pd, _mm256_set1_ps, _mm256_setr_pd, _mm256_setr_ps, _mm256_storeu_pd,
        _mm256_storeu_ps, _mm256_sub_pd, _mm256_sub_ps, _CMP_GT_OQ,
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

    /// 4-lane pivot search. Each lane tracks a strict-`>` running max over
    /// its index class; the cross-lane/tail fold restores the global
    /// first-index-wins order. `_CMP_GT_OQ` is the ordered quiet `>` — NaN
    /// compares false exactly like the scalar `av > best_v`.
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
            let mut bv = _mm256_set1_pd(f64::NEG_INFINITY);
            let mut bi = _mm256_set1_pd(0.0);
            let mut idx = _mm256_setr_pd(0.0, 1.0, 2.0, 3.0);
            let four = _mm256_set1_pd(4.0);
            for c in 0..chunks {
                // SAFETY: avx2 — offset `4c` is in bounds (`c < n/4`).
                let ptr = unsafe { x.as_ptr().add(4 * c) };
                // SAFETY: avx2 — lanes `4c..4c+4` are in bounds (`c < n/4`).
                let v = unsafe { _mm256_loadu_pd(ptr) };
                let av = _mm256_and_pd(v, mask);
                let gt = _mm256_cmp_pd::<_CMP_GT_OQ>(av, bv);
                bv = _mm256_blendv_pd(bv, av, gt);
                bi = _mm256_blendv_pd(bi, idx, gt);
                idx = _mm256_add_pd(idx, four);
            }
            let mut vs = [0.0f64; 4];
            let mut is = [0.0f64; 4];
            // SAFETY: avx2 — both stack arrays have 4 writable lanes.
            unsafe { _mm256_storeu_pd(vs.as_mut_ptr(), bv) };
            // SAFETY: avx2 — as above.
            unsafe { _mm256_storeu_pd(is.as_mut_ptr(), bi) };
            super::fold_lanes(&vs, &is, &mut best_v, &mut best_i);
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

    /// 8-lane f32 pivot search; see the f64 twin for the lane/fold argument.
    /// Index lanes are f32, exact for slices below `F32_IDX_EXACT` — longer
    /// inputs fall back to the (bitwise-identical) scalar loop.
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
            let mut bv = _mm256_set1_ps(f32::NEG_INFINITY);
            let mut bi = _mm256_set1_ps(0.0);
            let mut idx = _mm256_setr_ps(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0);
            let eight = _mm256_set1_ps(8.0);
            for c in 0..chunks {
                // SAFETY: avx2 — offset `8c` is in bounds (`c < n/8`).
                let ptr = unsafe { x.as_ptr().add(8 * c) };
                // SAFETY: avx2 — lanes `8c..8c+8` are in bounds (`c < n/8`).
                let v = unsafe { _mm256_loadu_ps(ptr) };
                let av = _mm256_and_ps(v, mask);
                let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(av, bv);
                bv = _mm256_blendv_ps(bv, av, gt);
                bi = _mm256_blendv_ps(bi, idx, gt);
                idx = _mm256_add_ps(idx, eight);
            }
            let mut vs = [0.0f32; 8];
            let mut is = [0.0f32; 8];
            // SAFETY: avx2 — both stack arrays have 8 writable lanes.
            unsafe { _mm256_storeu_ps(vs.as_mut_ptr(), bv) };
            // SAFETY: avx2 — as above.
            unsafe { _mm256_storeu_ps(is.as_mut_ptr(), bi) };
            super::fold_lanes(&vs, &is, &mut best_v, &mut best_i);
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

#[cfg(target_arch = "aarch64")]
mod aarch64 {
    use core::arch::aarch64::{
        vabsq_f32, vabsq_f64, vaddq_f32, vaddq_f64, vbslq_f32, vbslq_f64, vcgtq_f32, vcgtq_f64,
        vdivq_f32, vdivq_f64, vdupq_n_f32, vdupq_n_f64, vld1q_f32, vld1q_f64, vmulq_f32, vmulq_f64,
        vst1q_f32, vst1q_f64, vsubq_f32, vsubq_f64,
    };

    /// 2-lane pivot search; see the avx2 twin for the lane/fold argument.
    /// `vcgtq_f64` is ordered `>` (NaN compares false, like scalar).
    ///
    /// # Safety
    /// Caller must be on a target with the `neon` feature (aarch64 baseline).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn argmax_abs_neon(x: &[f64]) -> (usize, f64) {
        let n = x.len();
        let mut best_v = f64::NEG_INFINITY;
        let mut best_i = usize::MAX;
        let chunks = n / 2;
        if chunks > 0 {
            let mut bv = vdupq_n_f64(f64::NEG_INFINITY);
            let mut bi = vdupq_n_f64(0.0);
            // SAFETY: neon — loading a 2-lane constant from the stack.
            let mut idx = unsafe { vld1q_f64([0.0f64, 1.0].as_ptr()) };
            let two = vdupq_n_f64(2.0);
            for c in 0..chunks {
                // SAFETY: neon — offset `2c` is in bounds (`c < n/2`).
                let ptr = unsafe { x.as_ptr().add(2 * c) };
                // SAFETY: neon — lanes `2c..2c+2` are in bounds (`c < n/2`).
                let v = unsafe { vld1q_f64(ptr) };
                let av = vabsq_f64(v);
                let gt = vcgtq_f64(av, bv);
                bv = vbslq_f64(gt, av, bv);
                bi = vbslq_f64(gt, idx, bi);
                idx = vaddq_f64(idx, two);
            }
            let mut vs = [0.0f64; 2];
            let mut is = [0.0f64; 2];
            // SAFETY: neon — both stack arrays have 2 writable lanes.
            unsafe { vst1q_f64(vs.as_mut_ptr(), bv) };
            // SAFETY: neon — as above.
            unsafe { vst1q_f64(is.as_mut_ptr(), bi) };
            super::fold_lanes(&vs, &is, &mut best_v, &mut best_i);
        }
        for i in 2 * chunks..n {
            let av = x[i].abs();
            if av > best_v {
                best_v = av;
                best_i = i;
            }
        }
        (best_i, best_v)
    }

    /// 4-lane f32 pivot search; see the f64 twin for the lane/fold argument.
    /// Index lanes are f32, exact for slices below `F32_IDX_EXACT` — longer
    /// inputs fall back to the (bitwise-identical) scalar loop.
    ///
    /// # Safety
    /// Caller must be on a target with the `neon` feature (aarch64 baseline).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn argmax_abs_neon_f32(x: &[f32]) -> (usize, f32) {
        let n = x.len();
        if n >= super::F32_IDX_EXACT {
            return super::argmax_abs_scalar(x);
        }
        let mut best_v = f32::NEG_INFINITY;
        let mut best_i = usize::MAX;
        let chunks = n / 4;
        if chunks > 0 {
            let mut bv = vdupq_n_f32(f32::NEG_INFINITY);
            let mut bi = vdupq_n_f32(0.0);
            // SAFETY: neon — loading a 4-lane constant from the stack.
            let mut idx = unsafe { vld1q_f32([0.0f32, 1.0, 2.0, 3.0].as_ptr()) };
            let four = vdupq_n_f32(4.0);
            for c in 0..chunks {
                // SAFETY: neon — offset `4c` is in bounds (`c < n/4`).
                let ptr = unsafe { x.as_ptr().add(4 * c) };
                // SAFETY: neon — lanes `4c..4c+4` are in bounds (`c < n/4`).
                let v = unsafe { vld1q_f32(ptr) };
                let av = vabsq_f32(v);
                let gt = vcgtq_f32(av, bv);
                bv = vbslq_f32(gt, av, bv);
                bi = vbslq_f32(gt, idx, bi);
                idx = vaddq_f32(idx, four);
            }
            let mut vs = [0.0f32; 4];
            let mut is = [0.0f32; 4];
            // SAFETY: neon — both stack arrays have 4 writable lanes.
            unsafe { vst1q_f32(vs.as_mut_ptr(), bv) };
            // SAFETY: neon — as above.
            unsafe { vst1q_f32(is.as_mut_ptr(), bi) };
            super::fold_lanes(&vs, &is, &mut best_v, &mut best_i);
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

    /// # Safety
    /// Caller must be on a target with the `neon` feature (aarch64 baseline).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn dscal_inv_neon(pivot: f64, x: &mut [f64]) {
        let n = x.len();
        let p = vdupq_n_f64(pivot);
        let chunks = n / 2;
        for c in 0..chunks {
            // SAFETY: neon — offset `2c` is in bounds (`c < n/2`).
            let ptr = unsafe { x.as_mut_ptr().add(2 * c) };
            // SAFETY: neon — lanes `2c..2c+2` are in bounds (`c < n/2`).
            let v = unsafe { vld1q_f64(ptr) };
            // `fdiv` is correctly rounded: bit-identical to the scalar `/`.
            let q = vdivq_f64(v, p);
            // SAFETY: neon — same in-bounds lanes, writable.
            unsafe { vst1q_f64(ptr, q) };
        }
        for v in &mut x[2 * chunks..] {
            *v /= pivot;
        }
    }

    /// # Safety
    /// Caller must be on a target with the `neon` feature (aarch64 baseline).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn dscal_inv_neon_f32(pivot: f32, x: &mut [f32]) {
        let n = x.len();
        let p = vdupq_n_f32(pivot);
        let chunks = n / 4;
        for c in 0..chunks {
            // SAFETY: neon — offset `4c` is in bounds (`c < n/4`).
            let ptr = unsafe { x.as_mut_ptr().add(4 * c) };
            // SAFETY: neon — lanes `4c..4c+4` are in bounds (`c < n/4`).
            let v = unsafe { vld1q_f32(ptr) };
            // `fdiv` is correctly rounded: bit-identical to the scalar `/`.
            let q = vdivq_f32(v, p);
            // SAFETY: neon — same in-bounds lanes, writable.
            unsafe { vst1q_f32(ptr, q) };
        }
        for v in &mut x[4 * chunks..] {
            *v /= pivot;
        }
    }

    /// # Safety
    /// Caller must be on a target with the `neon` feature (aarch64 baseline).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn axpy_sub_neon(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = y.len().min(x.len());
        let a = vdupq_n_f64(alpha);
        let chunks = n / 2;
        for c in 0..chunks {
            // SAFETY: neon — offset `2c` is within both slices.
            let xptr = unsafe { x.as_ptr().add(2 * c) };
            // SAFETY: neon — lanes `2c..2c+2` are within both slices.
            let xv = unsafe { vld1q_f64(xptr) };
            // SAFETY: neon — same in-bounds offset on the writable side.
            let yptr = unsafe { y.as_mut_ptr().add(2 * c) };
            // SAFETY: neon — lanes `2c..2c+2` of `y` are readable.
            let yv = unsafe { vld1q_f64(yptr) };
            // Separate mul and sub (NOT vfmsq): matches scalar rounding.
            let r = vsubq_f64(yv, vmulq_f64(a, xv));
            // SAFETY: neon — same writable lanes.
            unsafe { vst1q_f64(yptr, r) };
        }
        for (yi, &xi) in y[2 * chunks..n].iter_mut().zip(&x[2 * chunks..n]) {
            *yi -= alpha * xi;
        }
    }

    /// # Safety
    /// Caller must be on a target with the `neon` feature (aarch64 baseline).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn axpy_sub_neon_f32(alpha: f32, x: &[f32], y: &mut [f32]) {
        let n = y.len().min(x.len());
        let a = vdupq_n_f32(alpha);
        let chunks = n / 4;
        for c in 0..chunks {
            // SAFETY: neon — offset `4c` is within both slices.
            let xptr = unsafe { x.as_ptr().add(4 * c) };
            // SAFETY: neon — lanes `4c..4c+4` are within both slices.
            let xv = unsafe { vld1q_f32(xptr) };
            // SAFETY: neon — same in-bounds offset on the writable side.
            let yptr = unsafe { y.as_mut_ptr().add(4 * c) };
            // SAFETY: neon — lanes `4c..4c+4` of `y` are readable.
            let yv = unsafe { vld1q_f32(yptr) };
            // Separate mul and sub (NOT vfmsq): matches scalar rounding.
            let r = vsubq_f32(yv, vmulq_f32(a, xv));
            // SAFETY: neon — same writable lanes.
            unsafe { vst1q_f32(yptr, r) };
        }
        for (yi, &xi) in y[4 * chunks..n].iter_mut().zip(&x[4 * chunks..n]) {
            *yi -= alpha * xi;
        }
    }

    /// # Safety
    /// Caller must be on a target with the `neon` feature (aarch64 baseline).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn axpy_add_neon(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = y.len().min(x.len());
        let a = vdupq_n_f64(alpha);
        let chunks = n / 2;
        for c in 0..chunks {
            // SAFETY: neon — offset `2c` is within both slices.
            let xptr = unsafe { x.as_ptr().add(2 * c) };
            // SAFETY: neon — lanes `2c..2c+2` are within both slices.
            let xv = unsafe { vld1q_f64(xptr) };
            // SAFETY: neon — same in-bounds offset on the writable side.
            let yptr = unsafe { y.as_mut_ptr().add(2 * c) };
            // SAFETY: neon — lanes `2c..2c+2` of `y` are readable.
            let yv = unsafe { vld1q_f64(yptr) };
            // Separate mul and add (NOT vfmaq): matches scalar rounding.
            let r = vaddq_f64(yv, vmulq_f64(a, xv));
            // SAFETY: neon — same writable lanes.
            unsafe { vst1q_f64(yptr, r) };
        }
        for (yi, &xi) in y[2 * chunks..n].iter_mut().zip(&x[2 * chunks..n]) {
            *yi += alpha * xi;
        }
    }

    /// # Safety
    /// Caller must be on a target with the `neon` feature (aarch64 baseline).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn axpy_add_neon_f32(alpha: f32, x: &[f32], y: &mut [f32]) {
        let n = y.len().min(x.len());
        let a = vdupq_n_f32(alpha);
        let chunks = n / 4;
        for c in 0..chunks {
            // SAFETY: neon — offset `4c` is within both slices.
            let xptr = unsafe { x.as_ptr().add(4 * c) };
            // SAFETY: neon — lanes `4c..4c+4` are within both slices.
            let xv = unsafe { vld1q_f32(xptr) };
            // SAFETY: neon — same in-bounds offset on the writable side.
            let yptr = unsafe { y.as_mut_ptr().add(4 * c) };
            // SAFETY: neon — lanes `4c..4c+4` of `y` are readable.
            let yv = unsafe { vld1q_f32(yptr) };
            // Separate mul and add (NOT vfmaq): matches scalar rounding.
            let r = vaddq_f32(yv, vmulq_f32(a, xv));
            // SAFETY: neon — same writable lanes.
            unsafe { vst1q_f32(yptr, r) };
        }
        for (yi, &xi) in y[4 * chunks..n].iter_mut().zip(&x[4 * chunks..n]) {
            *yi += alpha * xi;
        }
    }

    /// # Safety
    /// Caller must be on a target with the `neon` feature (aarch64 baseline).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn dsub_neon(y: &mut [f64], x: &[f64]) {
        let n = y.len().min(x.len());
        let chunks = n / 2;
        for c in 0..chunks {
            // SAFETY: neon — offset `2c` is within both slices.
            let xptr = unsafe { x.as_ptr().add(2 * c) };
            // SAFETY: neon — lanes `2c..2c+2` are within both slices.
            let xv = unsafe { vld1q_f64(xptr) };
            // SAFETY: neon — same in-bounds offset on the writable side.
            let yptr = unsafe { y.as_mut_ptr().add(2 * c) };
            // SAFETY: neon — lanes `2c..2c+2` of `y` are readable.
            let yv = unsafe { vld1q_f64(yptr) };
            let r = vsubq_f64(yv, xv);
            // SAFETY: neon — same writable lanes.
            unsafe { vst1q_f64(yptr, r) };
        }
        for (yi, &xi) in y[2 * chunks..n].iter_mut().zip(&x[2 * chunks..n]) {
            *yi -= xi;
        }
    }

    /// # Safety
    /// Caller must be on a target with the `neon` feature (aarch64 baseline).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn dsub_neon_f32(y: &mut [f32], x: &[f32]) {
        let n = y.len().min(x.len());
        let chunks = n / 4;
        for c in 0..chunks {
            // SAFETY: neon — offset `4c` is within both slices.
            let xptr = unsafe { x.as_ptr().add(4 * c) };
            // SAFETY: neon — lanes `4c..4c+4` are within both slices.
            let xv = unsafe { vld1q_f32(xptr) };
            // SAFETY: neon — same in-bounds offset on the writable side.
            let yptr = unsafe { y.as_mut_ptr().add(4 * c) };
            // SAFETY: neon — lanes `4c..4c+4` of `y` are readable.
            let yv = unsafe { vld1q_f32(yptr) };
            let r = vsubq_f32(yv, xv);
            // SAFETY: neon — same writable lanes.
            unsafe { vst1q_f32(yptr, r) };
        }
        for (yi, &xi) in y[4 * chunks..n].iter_mut().zip(&x[4 * chunks..n]) {
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
                let (vi, vv) = argmax_abs_simd_f64(&x);
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
                let (vi, vv) = argmax_abs_simd_f32(&x);
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
                dscal_inv_simd_f64(pivot, &mut yv);
                assert_bits_eq(&ys, &yv, "dscal_inv", n, seed);

                let mut ys = data(n, seed ^ 0xbeef);
                let mut yv = ys.clone();
                axpy_sub_scalar(alpha, &x, &mut ys);
                axpy_sub_simd_f64(alpha, &x, &mut yv);
                assert_bits_eq(&ys, &yv, "axpy_sub", n, seed);

                let mut ys = data(n, seed ^ 0xf00d);
                let mut yv = ys.clone();
                axpy_add_scalar(alpha, &x, &mut ys);
                axpy_add_simd_f64(alpha, &x, &mut yv);
                assert_bits_eq(&ys, &yv, "axpy_add", n, seed);

                let mut ys = data(n, seed ^ 0xcafe);
                let mut yv = ys.clone();
                dsub_scalar(&mut ys, &x);
                dsub_simd_f64(&mut yv, &x);
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
                dscal_inv_simd_f32(pivot, &mut yv);
                assert_bits_eq_f32(&ys, &yv, "dscal_inv", n, seed);

                let mut ys = data_f32(n, seed ^ 0xbeef);
                let mut yv = ys.clone();
                axpy_sub_scalar(alpha, &x, &mut ys);
                axpy_sub_simd_f32(alpha, &x, &mut yv);
                assert_bits_eq_f32(&ys, &yv, "axpy_sub", n, seed);

                let mut ys = data_f32(n, seed ^ 0xf00d);
                let mut yv = ys.clone();
                axpy_add_scalar(alpha, &x, &mut ys);
                axpy_add_simd_f32(alpha, &x, &mut yv);
                assert_bits_eq_f32(&ys, &yv, "axpy_add", n, seed);

                let mut ys = data_f32(n, seed ^ 0xcafe);
                let mut yv = ys.clone();
                dsub_scalar(&mut ys, &x);
                dsub_simd_f32(&mut yv, &x);
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
