//! Serial dense LU factorization with partial pivoting (LAPACK DGETRF
//! equivalent) and a dense solver.
//!
//! This is the single-process oracle the distributed HPL factorization is
//! validated against. The panel factorization (`rhpl-core`'s FACT) has its
//! own recursive and base-case kernels; nothing here runs in it.

use crate::aux::swap_rows;
use crate::l1::idamax;
use crate::l2::dger;
use crate::l3::{dgemm, dtrsm};
use crate::mat::MatMut;
use crate::{Diag, Side, Trans, Uplo};

/// Error returned when a zero pivot makes the factorization singular.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Singular {
    /// Global column index (0-based) where the zero pivot occurred.
    pub col: usize,
}

impl core::fmt::Display for Singular {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "matrix is singular: zero pivot at column {}", self.col)
    }
}

impl std::error::Error for Singular {}

/// Unblocked right-looking LU with partial pivoting on an `m x n` matrix
/// (`m >= n` callers only, as in a panel). Writes 0-based pivot indices
/// (`piv[k]` = row swapped with row `k`) into `piv[..n]`.
fn getrf_unblocked(a: &mut MatMut<'_>, piv: &mut [usize]) -> Result<(), Singular> {
    let m = a.rows();
    let n = a.cols();
    assert!(piv.len() >= n, "pivot array too small");
    for k in 0..n.min(m) {
        // Find the pivot in column k, rows k..m.
        let p = k + idamax(&a.col(k)[k..]).expect("nonempty column");
        piv[k] = p;
        if a.get(p, k) == 0.0 {
            return Err(Singular { col: k });
        }
        swap_rows(a, k, p);
        // Scale the multipliers.
        let akk = a.get(k, k);
        for v in &mut a.col_mut(k)[k + 1..] {
            *v /= akk;
        }
        // Rank-1 update of the trailing submatrix.
        if k + 1 < n && k + 1 < m {
            let (cols_k, mut rest) = a.submatrix_mut(0, 0, m, n).split_at_col(k + 1);
            let x = &cols_k.col(k)[k + 1..];
            // y = row k of the trailing columns.
            let y: Vec<f64> = (0..rest.cols()).map(|j| rest.as_ref().get(k, j)).collect();
            let mut trail = rest.submatrix_mut(k + 1, 0, m - k - 1, n - k - 1);
            dger(-1.0, x, &y, &mut trail);
        }
    }
    Ok(())
}

/// Blocked right-looking LU with partial pivoting (DGETRF). `piv` receives
/// one 0-based pivot per column.
pub fn getrf(a: &mut MatMut<'_>, piv: &mut [usize], nb: usize) -> Result<(), Singular> {
    let m = a.rows();
    let n = a.cols();
    assert!(piv.len() >= n.min(m), "pivot array too small");
    let nb = nb.max(1);
    let kmax = n.min(m);
    let mut k = 0;
    while k < kmax {
        let kb = nb.min(kmax - k);
        // Factor the current panel A[k.., k..k+kb].
        {
            let mut panel = a.submatrix_mut(k, k, m - k, kb);
            let mut lp = vec![0usize; kb];
            getrf_unblocked(&mut panel, &mut lp).map_err(|e| Singular { col: k + e.col })?;
            for (i, &p) in lp.iter().enumerate() {
                piv[k + i] = k + p;
            }
        }
        // Apply the pivots to the columns outside the panel.
        for i in 0..kb {
            let p = piv[k + i];
            if p != k + i {
                if k > 0 {
                    let mut left = a.submatrix_mut(0, 0, m, k);
                    swap_rows(&mut left, k + i, p);
                }
                if k + kb < n {
                    let mut right = a.submatrix_mut(0, k + kb, m, n - k - kb);
                    swap_rows(&mut right, k + i, p);
                }
            }
        }
        if k + kb < n {
            // U12 = L11^{-1} * A12.
            let (mid, mut right) = a.submatrix_mut(0, 0, m, n).split_at_col(k + kb);
            let l11 = mid.as_ref().submatrix(k, k, kb, kb);
            let mut a12 = right.submatrix_mut(k, 0, kb, n - k - kb);
            dtrsm(
                Side::Left,
                Uplo::Lower,
                Trans::No,
                Diag::Unit,
                1.0,
                l11,
                &mut a12,
            );
            // A22 -= L21 * U12.
            if k + kb < m {
                let l21 = mid.as_ref().submatrix(k + kb, k, m - k - kb, kb);
                let (u_rows, mut a22) = right.split_at_row(k + kb);
                let u12 = u_rows.as_ref().submatrix(k, 0, kb, n - k - kb);
                dgemm(Trans::No, Trans::No, -1.0, l21, u12, 1.0, &mut a22);
            }
        }
        k += kb;
    }
    Ok(())
}

/// Solves `A x = b` in place using a factorization produced by [`getrf`]:
/// applies the row interchanges to `b`, then `L^{-1}` and `U^{-1}`.
pub fn getrs(lu: &MatMut<'_>, piv: &[usize], b: &mut [f64]) {
    let n = lu.rows();
    assert_eq!(lu.cols(), n, "getrs: LU must be square");
    assert_eq!(b.len(), n, "getrs: rhs length mismatch");
    for (k, &p) in piv.iter().enumerate() {
        if p != k {
            b.swap(k, p);
        }
    }
    crate::l2::dtrsv(Uplo::Lower, Trans::No, Diag::Unit, lu.as_ref(), b);
    crate::l2::dtrsv(Uplo::Upper, Trans::No, Diag::NonUnit, lu.as_ref(), b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::l3::dgemm_naive;
    use crate::mat::{MatRef, Matrix};

    fn test_matrix(n: usize, seed: u64) -> Matrix {
        // Simple deterministic LCG fill, diagonally dominant enough to be
        // well-conditioned but still exercising pivoting.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Matrix::from_fn(n, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
    }

    fn check_solve(n: usize, nb: usize, seed: u64) {
        let a0 = test_matrix(n, seed);
        let xtrue: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
        let mut b = vec![0.0; n];
        let xv = MatRef::from_slice(&xtrue, n, 1, n);
        let mut bv = MatMut::from_slice(&mut b, n, 1, n);
        dgemm_naive(Trans::No, Trans::No, 1.0, a0.view(), xv, 0.0, &mut bv);

        let mut a = a0.clone();
        let mut piv = vec![0usize; n];
        let mut av = a.view_mut();
        getrf(&mut av, &mut piv, nb).expect("nonsingular");
        getrs(&av, &piv, &mut b);
        for (got, want) in b.iter().zip(&xtrue) {
            assert!((got - want).abs() < 1e-8, "n={n} nb={nb}: {got} vs {want}");
        }
    }

    #[test]
    fn blocked_lu_solves() {
        for &(n, nb) in &[
            (1, 1),
            (5, 2),
            (16, 4),
            (33, 8),
            (64, 16),
            (100, 32),
            (128, 128),
        ] {
            check_solve(n, nb, 42 + n as u64);
        }
    }

    #[test]
    fn blocked_matches_unblocked() {
        let n = 40;
        let a0 = test_matrix(n, 7);
        let mut a1 = a0.clone();
        let mut a2 = a0.clone();
        let mut p1 = vec![0usize; n];
        let mut p2 = vec![0usize; n];
        let mut v1 = a1.view_mut();
        getrf_unblocked(&mut v1, &mut p1).expect("test matrix is well conditioned");
        let mut v2 = a2.view_mut();
        getrf(&mut v2, &mut p2, 8).expect("test matrix is well conditioned");
        assert_eq!(p1, p2, "pivot sequences must agree");
        for (x, y) in a1.as_slice().iter().zip(a2.as_slice()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn singular_detected() {
        let mut a = Matrix::zeros(3, 3);
        let mut piv = vec![0usize; 3];
        let mut v = a.view_mut();
        let err = getrf(&mut v, &mut piv, 2).unwrap_err();
        assert_eq!(err.col, 0);
    }

    #[test]
    fn pivoting_actually_pivots() {
        // First pivot must pick the largest-magnitude entry of column 0.
        let a0 = Matrix::from_vec(3, 3, vec![1.0, -9.0, 2.0, 0.5, 1.0, 2.0, 3.0, 1.0, 1.0]);
        let mut a = a0.clone();
        let mut piv = vec![0usize; 3];
        let mut v = a.view_mut();
        getrf(&mut v, &mut piv, 1).expect("matrix has a nonzero pivot in every column");
        assert_eq!(piv[0], 1);
        // All multipliers must be <= 1 in magnitude thanks to pivoting.
        for k in 0..3 {
            for i in k + 1..3 {
                assert!(a.get(i, k).abs() <= 1.0 + 1e-12);
            }
        }
    }
}
