//! LAPACK-style row interchanges — [`swap_rows`], which the serial
//! [`crate::lu`] oracle applies, and the DLASWP sequence of them — generic
//! over the pipeline [`Element`].

use crate::mat::MatMut;
use crate::Element;

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
    fn dlaswp_roundtrip() {
        let orig = Matrix::from_fn(5, 3, |i, j| (i * 100 + j) as f64);
        let mut a = orig.clone();
        let ipiv = vec![2usize, 4, 2, 3, 4];
        let mut v = a.view_mut();
        dlaswp(&mut v, &ipiv);
        assert_ne!(a, orig);
        // Undo: the same interchanges in reverse order.
        let mut v = a.view_mut();
        for (k, &p) in ipiv.iter().enumerate().rev() {
            swap_rows(&mut v, k, p);
        }
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
