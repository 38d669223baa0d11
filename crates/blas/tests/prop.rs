//! Property-based tests for the BLAS kernels.

use hpl_blas::mat::Matrix;
use hpl_blas::{dgemm, dgemm_naive, getrf, getrs, idamax, MatMut, MatRef, Trans};
use proptest::prelude::*;

fn matrix_strategy(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f64..10.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn idamax_returns_max_abs(v in proptest::collection::vec(-100.0f64..100.0, 1..200)) {
        let i = idamax(&v).unwrap();
        let m = v.iter().map(|x| x.abs()).fold(0.0, f64::max);
        prop_assert_eq!(v[i].abs(), m);
        // First occurrence wins.
        for &x in &v[..i] {
            prop_assert!(x.abs() < m);
        }
    }

    #[test]
    fn dgemm_identity_left_is_noop(b in matrix_strategy(24)) {
        let id = Matrix::identity(b.rows());
        let mut c = Matrix::zeros(b.rows(), b.cols());
        let mut cv = c.view_mut();
        dgemm(Trans::No, Trans::No, 1.0, id.view(), b.view(), 0.0, &mut cv);
        for (x, y) in c.as_slice().iter().zip(b.as_slice()) {
            prop_assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn dgemm_is_linear_in_alpha(a in matrix_strategy(16), bcols in 1usize..16) {
        let b = Matrix::from_fn(a.cols(), bcols, |i, j| ((i * 3 + j * 7) % 13) as f64 - 6.0);
        let mut c1 = Matrix::zeros(a.rows(), bcols);
        let mut c2 = Matrix::zeros(a.rows(), bcols);
        let mut v1 = c1.view_mut();
        dgemm(Trans::No, Trans::No, 2.0, a.view(), b.view(), 0.0, &mut v1);
        let mut v2 = c2.view_mut();
        dgemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.0, &mut v2);
        for (x, y) in c1.as_slice().iter().zip(c2.as_slice()) {
            prop_assert!((x - 2.0 * y).abs() < 1e-10);
        }
    }

    #[test]
    fn dgemm_transpose_consistency(a in matrix_strategy(20), bcols in 1usize..20) {
        // op(A)=A^T computed directly vs materialized transpose.
        let at = Matrix::from_fn(a.cols(), a.rows(), |i, j| a.get(j, i));
        let b = Matrix::from_fn(a.rows(), bcols, |i, j| (i as f64 - j as f64) * 0.25);
        let mut c1 = Matrix::zeros(a.cols(), bcols);
        let mut c2 = Matrix::zeros(a.cols(), bcols);
        let mut v1 = c1.view_mut();
        dgemm(Trans::Yes, Trans::No, 1.0, a.view(), b.view(), 0.0, &mut v1);
        let mut v2 = c2.view_mut();
        dgemm_naive(Trans::No, Trans::No, 1.0, at.view(), b.view(), 0.0, &mut v2);
        for (x, y) in c1.as_slice().iter().zip(c2.as_slice()) {
            prop_assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn lu_solve_recovers_solution(n in 1usize..40, seed in 0u64..500) {
        let mut s = seed.wrapping_mul(0x2545F4914F6CDD1D) | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        // Diagonally dominant => nonsingular and well conditioned.
        let mut a = Matrix::from_fn(n, n, |_, _| next());
        for i in 0..n {
            let v = a.get(i, i);
            a.set(i, i, v + n as f64);
        }
        let xtrue: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
        let mut b = vec![0.0; n];
        let xv = MatRef::from_slice(&xtrue, n, 1, n);
        let mut bv = MatMut::from_slice(&mut b, n, 1, n);
        dgemm_naive(Trans::No, Trans::No, 1.0, a.view(), xv, 0.0, &mut bv);
        let mut piv = vec![0usize; n];
        let mut av = a.view_mut();
        getrf(&mut av, &mut piv, 8).unwrap();
        getrs(&av, &piv, &mut b);
        for (got, want) in b.iter().zip(&xtrue) {
            prop_assert!((got - want).abs() < 1e-7);
        }
    }
}
