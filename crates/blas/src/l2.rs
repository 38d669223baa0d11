//! Level-2 BLAS kernels: the rank-1 update of the serial [`crate::lu`]
//! oracle and the triangular solve against a vector — generic over the
//! pipeline [`Element`].

use crate::mat::{MatMut, MatRef};
use crate::Element;
use crate::{Diag, Trans, Uplo};

/// Rank-1 update `A <- A + alpha * x * y^T`.
///
/// `x.len() == A.rows()`, `y.len() == A.cols()`. This is the inner kernel of
/// the unblocked right-looking LU factorization.
pub(crate) fn dger<E: Element>(alpha: E, x: &[E], y: &[E], a: &mut MatMut<'_, E>) {
    assert_eq!(x.len(), a.rows(), "dger: x length mismatch");
    assert_eq!(y.len(), a.cols(), "dger: y length mismatch");
    if alpha == E::ZERO || a.is_empty() {
        return;
    }
    for j in 0..a.cols() {
        let ayj = alpha * y[j];
        if ayj == E::ZERO {
            continue;
        }
        let col = a.col_mut(j);
        for (ci, &xi) in col.iter_mut().zip(x) {
            *ci += ayj * xi;
        }
    }
}

/// Triangular solve `x <- op(A)^{-1} x` for a triangular `A`.
///
/// Used by the final back-substitution on the diagonal blocks.
pub fn dtrsv<E: Element>(uplo: Uplo, trans: Trans, diag: Diag, a: MatRef<'_, E>, x: &mut [E]) {
    let n = a.rows();
    assert_eq!(a.cols(), n, "dtrsv: A must be square");
    assert_eq!(x.len(), n, "dtrsv: x length mismatch");
    match (uplo, trans) {
        (Uplo::Lower, Trans::No) => {
            // Forward substitution.
            for j in 0..n {
                if matches!(diag, Diag::NonUnit) {
                    x[j] /= a.get(j, j);
                }
                let xj = x[j];
                if xj != E::ZERO {
                    let col = a.col(j);
                    for i in j + 1..n {
                        x[i] -= xj * col[i];
                    }
                }
            }
        }
        (Uplo::Upper, Trans::No) => {
            // Backward substitution.
            for j in (0..n).rev() {
                if matches!(diag, Diag::NonUnit) {
                    x[j] /= a.get(j, j);
                }
                let xj = x[j];
                if xj != E::ZERO {
                    let col = a.col(j);
                    for (i, xi) in x.iter_mut().enumerate().take(j) {
                        *xi -= xj * col[i];
                    }
                }
            }
        }
        (Uplo::Lower, Trans::Yes) => {
            // Solve L^T x = b: backward over columns of L.
            for j in (0..n).rev() {
                let col = a.col(j);
                let mut s = x[j];
                for i in j + 1..n {
                    s -= col[i] * x[i];
                }
                x[j] = match diag {
                    Diag::Unit => s,
                    Diag::NonUnit => s / col[j],
                };
            }
        }
        (Uplo::Upper, Trans::Yes) => {
            // Solve U^T x = b: forward over columns of U.
            for j in 0..n {
                let col = a.col(j);
                let mut s = x[j];
                for (i, &xi) in x.iter().enumerate().take(j) {
                    s -= col[i] * xi;
                }
                x[j] = match diag {
                    Diag::Unit => s,
                    Diag::NonUnit => s / col[j],
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::l3::dgemm_naive;
    use crate::mat::Matrix;

    /// `op(A) * x`, through the naive GEMM on one column.
    fn matvec(trans: Trans, a: &Matrix, x: &[f64]) -> Vec<f64> {
        let m = match trans {
            Trans::No => a.rows(),
            Trans::Yes => a.cols(),
        };
        let mut y = vec![0.0; m];
        let xv = MatRef::from_slice(x, x.len(), 1, x.len());
        let mut yv = MatMut::from_slice(&mut y, m, 1, m);
        dgemm_naive(trans, Trans::No, 1.0, a.view(), xv, 0.0, &mut yv);
        y
    }

    #[test]
    fn dger_rank1() {
        let mut a = Matrix::zeros(3, 2);
        let x = vec![1.0, 2.0, 3.0];
        let y = vec![10.0, 20.0];
        let mut v = a.view_mut();
        dger(0.5, &x, &y, &mut v);
        assert_eq!(a.get(0, 0), 5.0);
        assert_eq!(a.get(2, 1), 30.0);
    }

    #[test]
    fn l2_kernels_serve_f32() {
        // Lower triangle [[1, 0], [3, 4]]: forward substitution of [1, 7].
        let a = Matrix::<f32>::from_vec(2, 2, vec![1.0, 3.0, 2.0, 4.0]);
        let mut x = vec![1.0f32, 7.0];
        dtrsv(Uplo::Lower, Trans::No, Diag::NonUnit, a.view(), &mut x);
        assert_eq!(x, vec![1.0f32, 1.0]);
        let mut b = Matrix::<f32>::zeros(2, 2);
        let mut bv = b.view_mut();
        dger(2.0f32, &[1.0, 2.0], &[10.0, 20.0], &mut bv);
        assert_eq!(b.get(1, 1), 80.0f32);
    }

    fn tri_lower(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            if i > j {
                0.1 * (i as f64 + 1.0) + j as f64
            } else if i == j {
                2.0 + i as f64
            } else {
                0.0
            }
        })
    }

    #[test]
    fn dtrsv_lower_solves() {
        let n = 5;
        let l = tri_lower(n);
        let xtrue: Vec<f64> = (0..n).map(|i| i as f64 - 2.0).collect();
        let mut b = matvec(Trans::No, &l, &xtrue);
        dtrsv(Uplo::Lower, Trans::No, Diag::NonUnit, l.view(), &mut b);
        for (got, want) in b.iter().zip(&xtrue) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
    }

    #[test]
    fn dtrsv_upper_solves() {
        let n = 5;
        let l = tri_lower(n);
        // Use L^T as an upper-triangular matrix.
        let u = Matrix::from_fn(n, n, |i, j| l.get(j, i));
        let xtrue: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5 + 1.0).collect();
        let mut b = matvec(Trans::No, &u, &xtrue);
        dtrsv(Uplo::Upper, Trans::No, Diag::NonUnit, u.view(), &mut b);
        for (got, want) in b.iter().zip(&xtrue) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
    }

    #[test]
    fn dtrsv_transposed_variants() {
        let n = 6;
        let l = tri_lower(n);
        let xtrue: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 2.0).collect();
        // Solve L^T x = b where b = L^T xtrue.
        let mut b = matvec(Trans::Yes, &l, &xtrue);
        dtrsv(Uplo::Lower, Trans::Yes, Diag::NonUnit, l.view(), &mut b);
        for (got, want) in b.iter().zip(&xtrue) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
        // Upper^T: U = L^T, solve U^T x = L x = b.
        let u = Matrix::from_fn(n, n, |i, j| l.get(j, i));
        let mut b2 = matvec(Trans::No, &l, &xtrue);
        dtrsv(Uplo::Upper, Trans::Yes, Diag::NonUnit, u.view(), &mut b2);
        for (got, want) in b2.iter().zip(&xtrue) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn dtrsv_unit_diag_ignores_diagonal() {
        let n = 4;
        // Store garbage on the diagonal; Diag::Unit must ignore it.
        let mut l = tri_lower(n);
        let mut lu = l.clone();
        for i in 0..n {
            l.set(i, i, 1.0);
            lu.set(i, i, 1234.5);
        }
        let xtrue = vec![1.0, -1.0, 2.0, 0.5];
        let mut b = matvec(Trans::No, &l, &xtrue);
        dtrsv(Uplo::Lower, Trans::No, Diag::Unit, lu.view(), &mut b);
        for (got, want) in b.iter().zip(&xtrue) {
            assert!((got - want).abs() < 1e-12);
        }
    }
}
