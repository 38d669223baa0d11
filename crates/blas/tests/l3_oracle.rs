//! DGEMM/DTRSM validated against a naive oracle across shapes, transposes,
//! alpha/beta values, and non-trivial leading dimensions — and DTRSM
//! pinned bit for bit to its historical dot-product form, which lives on
//! here as the reference.

// The reference keeps the indexed loops and the full BLAS argument lists
// of the code it preserves (the crate itself allows both, for the same
// reason).
#![allow(clippy::needless_range_loop)]
#![allow(clippy::too_many_arguments)]

use hpl_blas::mat::{MatMut, MatRef, Matrix};
use hpl_blas::{
    dgemm, dgemm_naive, dgemm_with, dtrsm, dtrsm_with, Diag, Element, Kernel, Side, Trans, Uplo,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn rand_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
}

fn max_abs_diff(a: &Matrix, b: &Matrix) -> f64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[test]
fn dgemm_matches_naive_over_shapes() {
    let mut rng = StdRng::seed_from_u64(1);
    let shapes = [
        (1, 1, 1),
        (3, 5, 2),
        (8, 4, 8),
        (9, 5, 17),
        (17, 19, 23),
        (64, 64, 64),
        (65, 33, 70),
        (100, 1, 100),
        (1, 100, 50),
        (130, 130, 7),
        (300, 64, 512),
    ];
    for &(m, n, k) in &shapes {
        for &ta in &[Trans::No, Trans::Yes] {
            for &tb in &[Trans::No, Trans::Yes] {
                for &(alpha, beta) in &[(1.0, 0.0), (-1.0, 1.0), (0.5, -2.0), (0.0, 3.0)] {
                    let a = match ta {
                        Trans::No => rand_matrix(&mut rng, m, k),
                        Trans::Yes => rand_matrix(&mut rng, k, m),
                    };
                    let b = match tb {
                        Trans::No => rand_matrix(&mut rng, k, n),
                        Trans::Yes => rand_matrix(&mut rng, n, k),
                    };
                    let c0 = rand_matrix(&mut rng, m, n);
                    let mut c1 = c0.clone();
                    let mut c2 = c0.clone();
                    let mut v1 = c1.view_mut();
                    dgemm(ta, tb, alpha, a.view(), b.view(), beta, &mut v1);
                    let mut v2 = c2.view_mut();
                    dgemm_naive(ta, tb, alpha, a.view(), b.view(), beta, &mut v2);
                    let d = max_abs_diff(&c1, &c2);
                    assert!(
                        d < 1e-11 * (k as f64).max(1.0),
                        "m={m} n={n} k={k} ta={ta:?} tb={tb:?} alpha={alpha} beta={beta}: diff {d}"
                    );
                }
            }
        }
    }
}

#[test]
fn dgemm_respects_leading_dimension() {
    // C is a window in a larger buffer; elements outside the window must not
    // be touched.
    let mut rng = StdRng::seed_from_u64(2);
    let (m, n, k, lda) = (13, 9, 11, 20);
    let a = rand_matrix(&mut rng, m, k);
    let b = rand_matrix(&mut rng, k, n);
    let mut buf = vec![7.5f64; lda * n];
    let orig = buf.clone();
    {
        let mut c = MatMut::from_slice(&mut buf, m, n, lda);
        dgemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.0, &mut c);
    }
    // Check padding rows untouched.
    for j in 0..n {
        for i in m..lda {
            assert_eq!(
                buf[j * lda + i],
                orig[j * lda + i],
                "padding touched at ({i},{j})"
            );
        }
    }
    // And the window is correct.
    let mut cref = Matrix::zeros(m, n);
    let mut v = cref.view_mut();
    dgemm_naive(Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.0, &mut v);
    let cw = MatRef::from_slice(&buf, m, n, lda);
    for j in 0..n {
        for i in 0..m {
            assert!((cw.get(i, j) - cref.get(i, j)).abs() < 1e-11);
        }
    }
}

fn make_triangular(rng: &mut StdRng, n: usize, uplo: Uplo, diag: Diag) -> Matrix {
    Matrix::from_fn(n, n, |i, j| {
        let inside = match uplo {
            Uplo::Lower => i >= j,
            Uplo::Upper => i <= j,
        };
        if i == j {
            match diag {
                // Storage holds garbage on the diagonal for Unit: the solver
                // must never read it.
                Diag::Unit => rng.gen_range(5.0..9.0),
                Diag::NonUnit => {
                    rng.gen_range(1.5..2.5) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 }
                }
            }
        } else if inside {
            rng.gen_range(-0.5..0.5)
        } else {
            0.0
        }
    })
}

/// Computes op(T) as a dense matrix honoring uplo/diag, for oracle checks.
fn dense_op_t(t: &Matrix, uplo: Uplo, trans: Trans, diag: Diag) -> Matrix {
    let n = t.rows();
    let mut d = Matrix::from_fn(n, n, |i, j| {
        let inside = match uplo {
            Uplo::Lower => i >= j,
            Uplo::Upper => i <= j,
        };
        if i == j {
            match diag {
                Diag::Unit => 1.0,
                Diag::NonUnit => t.get(i, j),
            }
        } else if inside {
            t.get(i, j)
        } else {
            0.0
        }
    });
    if matches!(trans, Trans::Yes) {
        d = Matrix::from_fn(n, n, |i, j| d.get(j, i));
    }
    d
}

#[test]
fn dtrsm_all_combinations() {
    let mut rng = StdRng::seed_from_u64(3);
    for &n in &[1usize, 2, 7, 33, 70] {
        for &nrhs in &[1usize, 5, 40] {
            for &side in &[Side::Left, Side::Right] {
                for &uplo in &[Uplo::Lower, Uplo::Upper] {
                    for &trans in &[Trans::No, Trans::Yes] {
                        for &diag in &[Diag::Unit, Diag::NonUnit] {
                            let t = make_triangular(&mut rng, n, uplo, diag);
                            let (brows, bcols) = match side {
                                Side::Left => (n, nrhs),
                                Side::Right => (nrhs, n),
                            };
                            let b0 = rand_matrix(&mut rng, brows, bcols);
                            let alpha = 1.5;
                            let mut x = b0.clone();
                            let mut xv = x.view_mut();
                            dtrsm(side, uplo, trans, diag, alpha, t.view(), &mut xv);
                            // Verify op(T)-product reproduces alpha*B.
                            let opt = dense_op_t(&t, uplo, trans, diag);
                            let mut prod = Matrix::zeros(brows, bcols);
                            let mut pv = prod.view_mut();
                            match side {
                                Side::Left => dgemm_naive(
                                    Trans::No,
                                    Trans::No,
                                    1.0,
                                    opt.view(),
                                    x.view(),
                                    0.0,
                                    &mut pv,
                                ),
                                Side::Right => dgemm_naive(
                                    Trans::No,
                                    Trans::No,
                                    1.0,
                                    x.view(),
                                    opt.view(),
                                    0.0,
                                    &mut pv,
                                ),
                            }
                            for (got, want) in prod.as_slice().iter().zip(b0.as_slice()) {
                                let want = alpha * want;
                                assert!(
                                    (got - want).abs() < 1e-9 * (n as f64).max(1.0),
                                    "n={n} nrhs={nrhs} side={side:?} uplo={uplo:?} trans={trans:?} diag={diag:?}: {got} vs {want}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn dtrsm_empty_rhs_is_noop() {
    let t = Matrix::identity(4);
    let mut b = Matrix::zeros(4, 0);
    let mut bv = b.view_mut();
    dtrsm(
        Side::Left,
        Uplo::Lower,
        Trans::No,
        Diag::NonUnit,
        2.0,
        t.view(),
        &mut bv,
    );
}

// ---------------------------------------------------------------------
// The DTRSM this crate shipped until the leaf was rewritten, kept as the
// reference: the same recursion (split at n/2 down to 32, rectangles
// through the packed GEMM) over a dot-product leaf that reads `T` one
// bounds-checked element at a time. The live `dtrsm` must reproduce it
// bit for bit — that is what lets the rewrite leave every `x_hash`
// untouched.
// ---------------------------------------------------------------------

/// Recursion cutoff of the historical solve (and of the current one).
const TRSM_BASE: usize = 32;

fn dtrsm_rec<E: Element>(
    kern: Kernel,
    side: Side,
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    t: MatRef<'_, E>,
    b: &mut MatMut<'_, E>,
) {
    let n = t.rows();
    if n == 0 {
        return;
    }
    if n <= TRSM_BASE {
        dtrsm_unblocked(side, uplo, trans, diag, t, b);
        return;
    }
    let h = n / 2;
    let t11 = t.submatrix(0, 0, h, h);
    let t22 = t.submatrix(h, h, n - h, n - h);
    // The off-diagonal block of the triangle.
    let (t21, t12) = (
        if matches!(uplo, Uplo::Lower) {
            Some(t.submatrix(h, 0, n - h, h))
        } else {
            None
        },
        if matches!(uplo, Uplo::Upper) {
            Some(t.submatrix(0, h, h, n - h))
        } else {
            None
        },
    );
    match side {
        Side::Left => {
            let nrhs = b.cols();
            let (mut b1, mut b2) = b.submatrix_mut(0, 0, n, nrhs).split_at_row(h);
            // Effective operator is op(T); "lower" behaviour means the first
            // block row is solved first.
            let lower_first = matches!(
                (uplo, trans),
                (Uplo::Lower, Trans::No) | (Uplo::Upper, Trans::Yes)
            );
            if lower_first {
                dtrsm_rec(kern, side, uplo, trans, diag, t11, &mut b1);
                // B2 -= op(T)21 * X1.
                match (uplo, trans) {
                    (Uplo::Lower, Trans::No) => dgemm_with(
                        kern,
                        Trans::No,
                        Trans::No,
                        -E::ONE,
                        t21.expect("off-diagonal block present when n > 1"),
                        b1.as_ref(),
                        E::ONE,
                        &mut b2,
                    ),
                    (Uplo::Upper, Trans::Yes) => dgemm_with(
                        kern,
                        Trans::Yes,
                        Trans::No,
                        -E::ONE,
                        t12.expect("off-diagonal block present when n > 1"),
                        b1.as_ref(),
                        E::ONE,
                        &mut b2,
                    ),
                    _ => unreachable!(),
                }
                dtrsm_rec(kern, side, uplo, trans, diag, t22, &mut b2);
            } else {
                dtrsm_rec(kern, side, uplo, trans, diag, t22, &mut b2);
                // B1 -= op(T)12 * X2.
                match (uplo, trans) {
                    (Uplo::Upper, Trans::No) => dgemm_with(
                        kern,
                        Trans::No,
                        Trans::No,
                        -E::ONE,
                        t12.expect("off-diagonal block present when n > 1"),
                        b2.as_ref(),
                        E::ONE,
                        &mut b1,
                    ),
                    (Uplo::Lower, Trans::Yes) => dgemm_with(
                        kern,
                        Trans::Yes,
                        Trans::No,
                        -E::ONE,
                        t21.expect("off-diagonal block present when n > 1"),
                        b2.as_ref(),
                        E::ONE,
                        &mut b1,
                    ),
                    _ => unreachable!(),
                }
                dtrsm_rec(kern, side, uplo, trans, diag, t11, &mut b1);
            }
        }
        Side::Right => {
            let nrows = b.rows();
            let (mut b1, mut b2) = b.submatrix_mut(0, 0, nrows, n).split_at_col(h);
            // X * op(T) = B. "first" = the block column solved first.
            let first_is_left = matches!(
                (uplo, trans),
                (Uplo::Upper, Trans::No) | (Uplo::Lower, Trans::Yes)
            );
            if first_is_left {
                dtrsm_rec(kern, side, uplo, trans, diag, t11, &mut b1);
                // B2 -= X1 * op(T)12.
                match (uplo, trans) {
                    (Uplo::Upper, Trans::No) => dgemm_with(
                        kern,
                        Trans::No,
                        Trans::No,
                        -E::ONE,
                        b1.as_ref(),
                        t12.expect("off-diagonal block present when n > 1"),
                        E::ONE,
                        &mut b2,
                    ),
                    (Uplo::Lower, Trans::Yes) => dgemm_with(
                        kern,
                        Trans::No,
                        Trans::Yes,
                        -E::ONE,
                        b1.as_ref(),
                        t21.expect("off-diagonal block present when n > 1"),
                        E::ONE,
                        &mut b2,
                    ),
                    _ => unreachable!(),
                }
                dtrsm_rec(kern, side, uplo, trans, diag, t22, &mut b2);
            } else {
                dtrsm_rec(kern, side, uplo, trans, diag, t22, &mut b2);
                // B1 -= X2 * op(T)21.
                match (uplo, trans) {
                    (Uplo::Lower, Trans::No) => dgemm_with(
                        kern,
                        Trans::No,
                        Trans::No,
                        -E::ONE,
                        b2.as_ref(),
                        t21.expect("off-diagonal block present when n > 1"),
                        E::ONE,
                        &mut b1,
                    ),
                    (Uplo::Upper, Trans::Yes) => dgemm_with(
                        kern,
                        Trans::No,
                        Trans::Yes,
                        -E::ONE,
                        b2.as_ref(),
                        t12.expect("off-diagonal block present when n > 1"),
                        E::ONE,
                        &mut b1,
                    ),
                    _ => unreachable!(),
                }
                dtrsm_rec(kern, side, uplo, trans, diag, t11, &mut b1);
            }
        }
    }
}

/// Unblocked dot-product solve, the historical recursion base case.
fn dtrsm_unblocked<E: Element>(
    side: Side,
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    t: MatRef<'_, E>,
    b: &mut MatMut<'_, E>,
) {
    let n = t.rows();
    match side {
        Side::Left => {
            // Solve op(T) X = B column by column of B.
            let forward = matches!(
                (uplo, trans),
                (Uplo::Lower, Trans::No) | (Uplo::Upper, Trans::Yes)
            );
            for j in 0..b.cols() {
                let col = b.col_mut(j);
                if forward {
                    for r in 0..n {
                        let mut s = col[r];
                        for p in 0..r {
                            let trp = match trans {
                                Trans::No => t.get(r, p),
                                Trans::Yes => t.get(p, r),
                            };
                            s -= trp * col[p];
                        }
                        col[r] = match diag {
                            Diag::Unit => s,
                            Diag::NonUnit => s / t.get(r, r),
                        };
                    }
                } else {
                    for r in (0..n).rev() {
                        let mut s = col[r];
                        for p in r + 1..n {
                            let trp = match trans {
                                Trans::No => t.get(r, p),
                                Trans::Yes => t.get(p, r),
                            };
                            s -= trp * col[p];
                        }
                        col[r] = match diag {
                            Diag::Unit => s,
                            Diag::NonUnit => s / t.get(r, r),
                        };
                    }
                }
            }
        }
        Side::Right => {
            // Solve X op(T) = B row-block at a time: process B's columns in
            // dependency order; column c of X depends on previously solved
            // columns.
            let forward = matches!(
                (uplo, trans),
                (Uplo::Upper, Trans::No) | (Uplo::Lower, Trans::Yes)
            );
            let m = b.rows();
            // Dependency order as index arithmetic (`ci`-th solved column is
            // `ci` forward, `n-1-ci` backward): this loop sits on the dtrsm
            // hot path, so it must not materialize an order list.
            let at = |i: usize| if forward { i } else { n - 1 - i };
            for ci in 0..n {
                let c = at(ci);
                // X[:,c] = (B[:,c] - sum_{p solved before} X[:,p] * op(T)[p,c]) / op(T)[c,c]
                let tcc = match diag {
                    Diag::Unit => E::ONE,
                    Diag::NonUnit => t.get(c, c),
                };
                // The columns solved before `c` are exactly `at(0..ci)`.
                for p in (0..ci).map(at) {
                    let tpc = match trans {
                        Trans::No => t.get(p, c),
                        Trans::Yes => t.get(c, p),
                    };
                    if tpc != E::ZERO {
                        // B[:,c] -= X[:,p] * tpc; split to satisfy borrows.
                        for i in 0..m {
                            let xp = b.get(i, p);
                            let v = b.get(i, c) - xp * tpc;
                            b.set(i, c, v);
                        }
                    }
                }
                if matches!(diag, Diag::NonUnit) {
                    for v in b.col_mut(c) {
                        *v /= tcc;
                    }
                }
            }
        }
    }
}

/// The historical `dtrsm` entry: scale by `alpha`, then recurse.
fn dtrsm_reference<E: Element>(
    kern: Kernel,
    side: Side,
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    alpha: E,
    t: MatRef<'_, E>,
    b: &mut MatMut<'_, E>,
) {
    if alpha != E::ONE {
        for j in 0..b.cols() {
            for v in b.col_mut(j) {
                *v *= alpha;
            }
        }
    }
    dtrsm_rec(kern, side, uplo, trans, diag, t, b);
}

/// Every side/uplo/trans/diag combination, triangle sizes on both sides
/// of the leaf cutoff and of its row groups, right-hand-side widths on
/// both sides of the leaf's column block, on every kernel tier: the live
/// solve equals the dot-product reference bitwise.
fn dtrsm_matches_the_dot_form_bitwise<E: Element>() {
    // Entries with full mantissas, so every product and difference rounds.
    let fill = |r: usize, c: usize, salt: usize| {
        Matrix::<E>::from_fn(r, c, |i, j| {
            E::from_f64(((i * 31 + j * 17 + salt * 7) % 43) as f64 / 43.0 - 0.47)
        })
    };
    for kern in Kernel::available() {
        for n in [1usize, 31, 32, 33, 64, 100, 128] {
            // A well-conditioned triangle: small off-diagonal entries, a
            // diagonal near 2 (never read under Diag::Unit).
            let mut t = fill(n, n, 1);
            for i in 0..n {
                let d = t.get(i, i);
                t.set(i, i, E::from_f64(2.0) + d);
            }
            for w in [1usize, 5, 6, 7, 97] {
                for side in [Side::Left, Side::Right] {
                    let b0 = match side {
                        Side::Left => fill(n, w, 2),
                        Side::Right => fill(w, n, 2),
                    };
                    for uplo in [Uplo::Lower, Uplo::Upper] {
                        for trans in [Trans::No, Trans::Yes] {
                            for diag in [Diag::Unit, Diag::NonUnit] {
                                for alpha in [1.0, -0.5] {
                                    let alpha = E::from_f64(alpha);
                                    let mut want = b0.clone();
                                    let mut wv = want.view_mut();
                                    dtrsm_reference(
                                        kern,
                                        side,
                                        uplo,
                                        trans,
                                        diag,
                                        alpha,
                                        t.view(),
                                        &mut wv,
                                    );
                                    let mut got = b0.clone();
                                    let mut gv = got.view_mut();
                                    dtrsm_with(
                                        kern,
                                        side,
                                        uplo,
                                        trans,
                                        diag,
                                        alpha,
                                        t.view(),
                                        &mut gv,
                                    );
                                    let same = got
                                        .as_slice()
                                        .iter()
                                        .zip(want.as_slice())
                                        .all(|(g, w)| g.to_bits_u64() == w.to_bits_u64());
                                    assert!(
                                        same,
                                        "{} {} n={n} w={w} {side:?} {uplo:?} {trans:?} {diag:?} \
                                         alpha={alpha}",
                                        kern.describe(),
                                        E::NAME
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn dtrsm_matches_the_dot_form_bitwise_f64() {
    dtrsm_matches_the_dot_form_bitwise::<f64>();
}

#[test]
fn dtrsm_matches_the_dot_form_bitwise_f32() {
    dtrsm_matches_the_dot_form_bitwise::<f32>();
}
