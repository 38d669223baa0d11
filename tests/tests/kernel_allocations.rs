//! The level-3 kernels' allocation contract, measured on every tier: a
//! warm `dgemm_with` or `dtrsm_with` call takes its pack buffers from the
//! thread's arena and allocates nothing. The tiers come from
//! `Kernel::available()`, so the AVX2 micro-kernels stay covered on a host
//! whose `simd` resolves to AVX-512.
//!
//! `common` installs a counting global allocator; this binary holds one
//! test, so nothing else allocates beside it.

mod common;

use hpl_blas::{dgemm_with, dtrsm_with, Diag, Element, Kernel, Matrix, Side, Trans, Uplo};

use common::during;

/// `m x k` times `k x n`, with `k` over one `KC` panel and `m` over one
/// `MC` block, so every loop of the blocked GEMM turns more than once; the
/// triangle is `t x t`, several recursion levels above the solve's leaf.
const M: usize = 300;
const N: usize = 70;
const K: usize = 300;
const T: usize = 150;

fn filled<E: Element>(r: usize, c: usize, seed: usize) -> Matrix<E> {
    Matrix::from_fn(r, c, |i, j| {
        E::from_f64(((i * 29 + j * 13 + seed * 7) % 41) as f64 * 0.0625 - 1.25)
    })
}

/// A unit-lower triangle with small off-diagonal entries, well
/// conditioned for the solve.
fn triangle<E: Element>(t: usize) -> Matrix<E> {
    Matrix::from_fn(t, t, |i, j| {
        E::from_f64(match i.cmp(&j) {
            std::cmp::Ordering::Equal => 1.0,
            std::cmp::Ordering::Greater => ((i + 3 * j) % 7) as f64 * 0.01,
            std::cmp::Ordering::Less => 0.0,
        })
    })
}

/// Allocations of one warm GEMM and one warm triangular solve on `kern`.
fn warm_allocs<E: Element>(kern: Kernel) -> [usize; 2] {
    let (a, b) = (filled::<E>(M, K, 1), filled::<E>(K, N, 2));
    let mut c = filled::<E>(M, N, 3);
    let t = triangle::<E>(T);
    let mut x = filled::<E>(T, N, 4);
    let gemm = |c: &mut Matrix<E>| {
        let one = E::ONE;
        let minus = E::from_f64(-0.5);
        dgemm_with(
            kern,
            Trans::No,
            Trans::No,
            minus,
            a.view(),
            b.view(),
            one,
            &mut c.view_mut(),
        );
    };
    let trsm = |x: &mut Matrix<E>| {
        dtrsm_with(
            kern,
            Side::Left,
            Uplo::Lower,
            Trans::No,
            Diag::Unit,
            E::ONE,
            t.view(),
            &mut x.view_mut(),
        );
    };
    // The first calls size the arena.
    gemm(&mut c);
    trsm(&mut x);
    let ((), gemm_seen) = during(|| gemm(&mut c));
    let ((), trsm_seen) = during(|| trsm(&mut x));
    [gemm_seen.allocs, trsm_seen.allocs]
}

#[test]
fn warm_level3_calls_allocate_nothing_on_any_tier() {
    for kern in Kernel::available() {
        for (elem, [gemm, trsm]) in [
            ("f64", warm_allocs::<f64>(kern)),
            ("f32", warm_allocs::<f32>(kern)),
        ] {
            eprintln!(
                "{:?} {elem}: dgemm_with {gemm}, dtrsm_with {trsm} allocations",
                kern.tier()
            );
            assert_eq!(
                (gemm, trsm),
                (0, 0),
                "{:?} {elem}: a warm dgemm_with made {gemm} allocations and a warm dtrsm_with \
                 {trsm}; the kernels take their storage from the pack arena",
                kern.tier()
            );
        }
    }
}
