fn f(p: *const f64) {
    // SAFETY: avx512f verified by is_x86_feature_detected!; p has 8 lanes.
    let v = unsafe { _mm512_loadu_pd(p) };
}

/// Kernel.
///
/// # Safety
/// CPU must support avx512f (runtime-detected).
pub unsafe fn k(p: *const f64) { let v = _mm512_loadu_pd(p); }

fn narrow(p: *const f64) {
    // SAFETY: avx2 verified by is_x86_feature_detected!; p has 4 lanes.
    let v = unsafe { _mm256_loadu_pd(p) };
}
