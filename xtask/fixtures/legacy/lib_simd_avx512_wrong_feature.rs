fn f(p: *const f64) {
    // SAFETY: avx2 verified by is_x86_feature_detected!; p has 8 lanes.
    let v = unsafe { _mm512_loadu_pd(p) };
}

/// Kernel.
///
/// # Safety
/// CPU must support avx2 and fma (runtime-detected).
pub unsafe fn k(p: *const f64) { let v = _mm512_loadu_pd(p); }
