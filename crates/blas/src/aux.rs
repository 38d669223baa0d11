//! LAPACK-style auxiliary routines used throughout HPL: norms (DLANGE)
//! and row interchanges (DLASWP) — generic over the pipeline [`Element`].

use crate::mat::{MatMut, MatRef};
use crate::Element;

/// Which norm [`dlange`] computes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Norm {
    /// Maximum absolute element value.
    Max,
    /// Maximum absolute column sum (the 1-norm).
    One,
    /// Maximum absolute row sum (the infinity norm).
    Inf,
}

/// Computes a norm of `a` (LAPACK DLANGE).
///
/// Accumulates in `f64` for either precision — the norms feed the residual
/// gate, which is an `f64` computation even for an f32 factorization. For
/// `E = f64` this is exactly the historical behaviour.
pub fn dlange<E: Element>(norm: Norm, a: MatRef<'_, E>) -> f64 {
    match norm {
        Norm::Max => {
            let mut m = 0.0f64;
            for j in 0..a.cols() {
                for &v in a.col(j) {
                    m = m.max(v.to_f64().abs());
                }
            }
            m
        }
        Norm::One => {
            let mut m = 0.0f64;
            for j in 0..a.cols() {
                let s: f64 = a.col(j).iter().map(|v| v.to_f64().abs()).sum();
                m = m.max(s);
            }
            m
        }
        Norm::Inf => {
            let mut sums = vec![0.0f64; a.rows()];
            for j in 0..a.cols() {
                for (s, &v) in sums.iter_mut().zip(a.col(j)) {
                    *s += v.to_f64().abs();
                }
            }
            sums.into_iter().fold(0.0, f64::max)
        }
    }
}

/// Applies a sequence of row interchanges to `a` (LAPACK DLASWP).
///
/// For `k` in `0..ipiv.len()`, swaps row `k` with row `ipiv[k]`
/// (0-based, `ipiv[k] >= k`), in order. This matches the forward
/// (`incx = 1`) direction of the reference routine.
pub fn dlaswp<E: Element>(a: &mut MatMut<'_, E>, ipiv: &[usize]) {
    for (k, &p) in ipiv.iter().enumerate() {
        assert!(p < a.rows(), "dlaswp: pivot {p} out of {} rows", a.rows());
        if p != k {
            swap_rows(a, k, p);
        }
    }
}

/// Applies the interchanges of [`dlaswp`] in reverse order, undoing them.
pub fn dlaswp_inv<E: Element>(a: &mut MatMut<'_, E>, ipiv: &[usize]) {
    for (k, &p) in ipiv.iter().enumerate().rev() {
        assert!(p < a.rows(), "dlaswp: pivot {p} out of {} rows", a.rows());
        if p != k {
            swap_rows(a, k, p);
        }
    }
}

/// Swaps rows `r1` and `r2` of `a`.
pub fn swap_rows<E: Element>(a: &mut MatMut<'_, E>, r1: usize, r2: usize) {
    if r1 == r2 {
        return;
    }
    for j in 0..a.cols() {
        let col = a.col_mut(j);
        col.swap(r1, r2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::Matrix;

    #[test]
    fn dlange_norms() {
        // [[1, -2], [-3, 4]]
        let a = Matrix::from_vec(2, 2, vec![1.0, -3.0, -2.0, 4.0]);
        assert_eq!(dlange(Norm::Max, a.view()), 4.0);
        assert_eq!(dlange(Norm::One, a.view()), 6.0); // col sums: 4, 6
        assert_eq!(dlange(Norm::Inf, a.view()), 7.0); // row sums: 3, 7
    }

    #[test]
    fn dlange_widens_f32_to_f64() {
        let a = Matrix::<f32>::from_vec(2, 2, vec![1.0, -3.0, -2.0, 4.0]);
        assert_eq!(dlange(Norm::Max, a.view()), 4.0f64);
        assert_eq!(dlange(Norm::Inf, a.view()), 7.0f64);
    }

    #[test]
    fn dlaswp_roundtrip() {
        let orig = Matrix::from_fn(5, 3, |i, j| (i * 100 + j) as f64);
        let mut a = orig.clone();
        let ipiv = vec![2usize, 4, 2, 3, 4];
        let mut v = a.view_mut();
        dlaswp(&mut v, &ipiv);
        assert_ne!(a, orig);
        let mut v = a.view_mut();
        dlaswp_inv(&mut v, &ipiv);
        assert_eq!(a, orig);
    }

    #[test]
    fn dlaswp_matches_manual_swaps() {
        let mut a = Matrix::from_fn(4, 1, |i, _| i as f64);
        let ipiv = vec![1usize, 1, 3];
        let mut v = a.view_mut();
        dlaswp(&mut v, &ipiv);
        // swap(0,1) -> [1,0,2,3]; swap(1,1) no-op; swap(2,3) -> [1,0,3,2]
        assert_eq!(a.as_slice(), &[1.0, 0.0, 3.0, 2.0]);
    }
}
