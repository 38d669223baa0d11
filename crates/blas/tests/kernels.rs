//! Kernel-dispatch correctness and determinism tests: every microkernel
//! against the naive oracle over adversarial edge shapes, bitwise
//! serial-vs-parallel equivalence per kernel, an `A` read in place inside
//! a larger matrix against a compact copy, and the allocation-free steady
//! state of the pack arena.

use hpl_blas::mat::Matrix;
use hpl_blas::{
    arena, dgemm_naive, dgemm_parallel, dgemm_with, Element, Kernel, KernelKind, MatRef, Trans,
};
use hpl_threads::Pool;
use proptest::prelude::*;

/// Every kernel this machine can run: scalar, then each SIMD tier the CPU
/// has — not only the widest one `simd` resolves to.
fn all_kernels() -> Vec<Kernel> {
    Kernel::available()
}

fn filled(r: usize, c: usize, seed: usize) -> Matrix {
    Matrix::from_fn(r, c, |i, j| {
        ((i * 29 + j * 13 + seed * 7) % 41) as f64 * 0.0625 - 1.25
    })
}

/// Shapes straddling every blocking boundary: m/n/k not multiples of
/// MR (8) / NR (4 or 6) / KC (256), degenerate m < MR, n < NR, k = 1, and
/// k crossing a KC panel boundary.
const EDGE_SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (3, 2, 1),
    (7, 5, 1),
    (8, 6, 16),
    (9, 7, 17),
    (5, 11, 3),
    (16, 12, 31),
    (33, 29, 30),
    (70, 50, 64),
    (13, 3, 300),
    (40, 9, 257),
];

#[test]
fn every_kernel_matches_naive_on_edge_shapes() {
    for kern in all_kernels() {
        for &(m, n, k) in EDGE_SHAPES {
            let a = filled(m, k, 1);
            let b = filled(k, n, 2);
            let c0 = filled(m, n, 3);
            let mut want = c0.clone();
            let mut wv = want.view_mut();
            dgemm_naive(
                Trans::No,
                Trans::No,
                -0.5,
                a.view(),
                b.view(),
                0.75,
                &mut wv,
            );
            let mut got = c0.clone();
            let mut gv = got.view_mut();
            dgemm_with(
                kern,
                Trans::No,
                Trans::No,
                -0.5,
                a.view(),
                b.view(),
                0.75,
                &mut gv,
            );
            for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
                assert!(
                    (x - y).abs() <= 1e-10 * (1.0 + y.abs()),
                    "kernel {} m={m} n={n} k={k}: {x} vs {y}",
                    kern.describe()
                );
            }
        }
    }
}

#[test]
fn scalar_kernel_is_bit_identical_to_naive_order_free_cases() {
    // With k = 1 there is exactly one product per element, so even the
    // accumulation-order caveat vanishes: every kernel must be bit-equal
    // to the oracle.
    for kern in all_kernels() {
        for &(m, n) in &[(1usize, 1usize), (7, 5), (33, 29), (70, 50)] {
            let a = filled(m, 1, 4);
            let b = filled(1, n, 5);
            let c0 = filled(m, n, 6);
            let mut want = c0.clone();
            let mut wv = want.view_mut();
            dgemm_naive(Trans::No, Trans::No, 1.0, a.view(), b.view(), 1.0, &mut wv);
            let mut got = c0.clone();
            let mut gv = got.view_mut();
            dgemm_with(
                kern,
                Trans::No,
                Trans::No,
                1.0,
                a.view(),
                b.view(),
                1.0,
                &mut gv,
            );
            assert_eq!(
                got.as_slice(),
                want.as_slice(),
                "kernel {} m={m} n={n} k=1",
                kern.describe()
            );
        }
    }
}

#[test]
fn scalar_serial_and_parallel_are_bit_identical() {
    // The determinism contract the schedule-equivalence and fault-soak
    // gates rely on: under the scalar kernel, any thread count of the
    // trailing update's parallel path produces the same bytes as the
    // serial kernel.
    let kern = Kernel::scalar();
    let pool = Pool::new(4);
    for &(m, n, k) in EDGE_SHAPES {
        let a = filled(m, k, 1);
        let b = filled(k, n, 2);
        let c0 = filled(m, n, 3);
        let mut serial = c0.clone();
        let mut sv = serial.view_mut();
        dgemm_with(
            kern,
            Trans::No,
            Trans::No,
            -1.0,
            a.view(),
            b.view(),
            1.0,
            &mut sv,
        );
        for threads in [2usize, 4] {
            let mut par = c0.clone();
            let mut pv = par.view_mut();
            dgemm_parallel(
                kern,
                &pool,
                threads,
                -1.0,
                Trans::No,
                a.view(),
                Trans::No,
                b.view(),
                1.0,
                &mut pv,
            );
            assert_eq!(
                par.as_slice(),
                serial.as_slice(),
                "m={m} n={n} k={k} threads={threads}"
            );
        }
    }
}

/// The trailing update reads `L2` where it lies — rows of the panel
/// columns inside the local matrix, or a block of the broadcast buffer —
/// not from a compact copy. A view whose rows start inside a larger matrix
/// and whose columns are that matrix's `lda` apart gives the bits a compact
/// copy of it gives, on every kernel, serial and on the parallel grid.
#[test]
fn a_view_in_place_is_bit_identical_to_a_compact_copy() {
    let pool = Pool::new(3);
    for kern in all_kernels() {
        for &(m, n, k) in EDGE_SHAPES {
            // `A` is rows 5.. of a taller matrix with columns of its own.
            let host = filled(m + 9, k + 2, 7);
            let a_in_place = host.view().submatrix(5, 1, m, k);
            let a = Matrix::from_fn(m, k, |i, j| a_in_place.get(i, j));
            let (b, c0) = (filled(k, n, 8), filled(m, n, 9));
            // At one thread `dgemm_parallel` is the serial kernel.
            let product = |a: MatRef<'_, f64>, threads: usize| {
                let (mut c, no) = (c0.clone(), Trans::No);
                let mut cv = c.view_mut();
                dgemm_parallel(
                    kern,
                    &pool,
                    threads,
                    -1.0,
                    no,
                    a,
                    no,
                    b.view(),
                    1.0,
                    &mut cv,
                );
                c
            };
            let want = product(a.view(), 1);
            let (serial, par) = (product(a_in_place, 1), product(a_in_place, 3));
            for (got, path) in [(&serial, "serial"), (&par, "parallel")] {
                assert_eq!(
                    got.as_slice(),
                    want.as_slice(),
                    "kernel {} {path} m={m} n={n} k={k}",
                    kern.describe()
                );
            }
        }
    }
}

/// The property that lets every SIMD tier answer to the one name `simd`:
/// a tile shape decides which elements are computed side by side, never
/// how one element is computed, so all tiers give identical bits — serial,
/// through a transposed `A`, and on the parallel tile grid. Shapes are
/// the edge shapes plus `m`, `n` one short of and one past every tier's
/// `mr`, `nr` (and a few tiles of them).
fn simd_tiers_agree_bitwise<E: Element>() {
    let tiers: Vec<Kernel> = all_kernels()
        .into_iter()
        .filter(|k| k.kind() == KernelKind::Simd)
        .collect();
    let Some((reference, others)) = tiers.split_first() else {
        return;
    };
    let mut shapes = EDGE_SHAPES.to_vec();
    for kern in &tiers {
        let (mr, nr) = (kern.mr_for::<E>(), kern.nr_for::<E>());
        for (m, n) in [(mr - 1, nr - 1), (mr + 1, nr + 1), (3 * mr + 1, 2 * nr - 1)] {
            shapes.push((m, n, 19));
        }
    }
    // Thirds and forty-firsts, not the dyadic `filled` values: every
    // product and sum must round, or a fused writeback would go unnoticed.
    let fill = |r: usize, c: usize, seed: usize| {
        Matrix::<E>::from_fn(r, c, |i, j| {
            E::from_f64(((i * 29 + j * 13 + seed * 7) % 41) as f64 / 41.0 - 1.0 / 3.0)
        })
    };
    let pool = Pool::new(3);
    for &(m, n, k) in &shapes {
        let (a, b, c0) = (fill(m, k, 1), fill(k, n, 2), fill(m, n, 3));
        let a_t = Matrix::<E>::from_fn(k, m, |i, j| a.get(j, i));
        // The last pair has an `alpha` that is no power of two, so that
        // `alpha * acc` rounds and a fused `alpha*acc + c` would differ.
        for (alpha, beta) in [(-1.0, 1.0), (-0.5, 0.75), (1.0, 0.0), (-0.3, 0.7)] {
            let (alpha, beta) = (E::from_f64(alpha), E::from_f64(beta));
            // Three runs of one kernel, in a fixed order.
            let run = |kern: Kernel| {
                let (mut s, mut t, mut pp) = (c0.clone(), c0.clone(), c0.clone());
                let (no, yes) = (Trans::No, Trans::Yes);
                let (av, at, bv) = (a.view(), a_t.view(), b.view());
                dgemm_with(kern, no, no, alpha, av, bv, beta, &mut s.view_mut());
                dgemm_with(kern, yes, no, alpha, at, bv, beta, &mut t.view_mut());
                let mut ppv = pp.view_mut();
                dgemm_parallel(kern, &pool, 3, alpha, no, av, no, bv, beta, &mut ppv);
                [s, t, pp]
            };
            let bits = |m: &Matrix<E>| -> Vec<u64> {
                m.as_slice().iter().map(|v| v.to_bits_u64()).collect()
            };
            let want = run(*reference);
            assert_eq!(bits(&want[0]), bits(&want[1]), "serial vs transposed A");
            assert_eq!(bits(&want[0]), bits(&want[2]), "serial vs parallel");
            for other in others {
                let got = run(*other);
                for (w, g) in want.iter().zip(&got) {
                    assert_eq!(
                        bits(w),
                        bits(g),
                        "{} vs {} {} m={m} n={n} k={k} alpha={alpha} beta={beta}",
                        reference.describe(),
                        other.describe(),
                        E::NAME
                    );
                }
            }
        }
    }
}

#[test]
fn simd_tiers_agree_bitwise_f64() {
    simd_tiers_agree_bitwise::<f64>();
}

#[test]
fn simd_tiers_agree_bitwise_f32() {
    simd_tiers_agree_bitwise::<f32>();
}

#[test]
fn second_dgemm_call_performs_zero_allocations() {
    // A dedicated thread gives the test a pristine arena. The first call
    // grows the thread's buffers; the second identical call must reuse
    // them outright.
    std::thread::spawn(|| {
        let a = filled(100, 60, 1);
        let b = filled(60, 80, 2);
        let run = || {
            let mut c = Matrix::zeros(100, 80);
            let mut cv = c.view_mut();
            dgemm_with(
                Kernel::scalar(),
                Trans::No,
                Trans::No,
                1.0,
                a.view(),
                b.view(),
                0.0,
                &mut cv,
            );
        };
        run();
        let after_first = arena::thread_stats();
        assert!(after_first.grows >= 1, "first call must size the arena");
        run();
        let after_second = arena::thread_stats();
        assert_eq!(
            after_second.grows, after_first.grows,
            "second call must not allocate"
        );
        assert_eq!(after_second.calls, after_first.calls + 1);
        assert_eq!(after_second.capacity, after_first.capacity);
    })
    .join()
    .expect("arena test thread panicked");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random shapes and operands: every kernel stays within float
    /// reassociation distance of the oracle.
    #[test]
    fn kernels_match_naive_on_random_shapes(
        m in 1usize..48,
        n in 1usize..48,
        k in 1usize..48,
        seed in 0usize..1000,
    ) {
        let a = filled(m, k, seed);
        let b = filled(k, n, seed + 1);
        let c0 = filled(m, n, seed + 2);
        let mut want = c0.clone();
        let mut wv = want.view_mut();
        dgemm_naive(Trans::No, Trans::No, 1.0, a.view(), b.view(), -1.0, &mut wv);
        for kern in all_kernels() {
            let mut got = c0.clone();
            let mut gv = got.view_mut();
            dgemm_with(kern, Trans::No, Trans::No, 1.0, a.view(), b.view(), -1.0, &mut gv);
            for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
                prop_assert!(
                    (x - y).abs() <= 1e-10 * (1.0 + y.abs()),
                    "kernel {} m={} n={} k={}: {} vs {}",
                    kern.name(), m, n, k, x, y
                );
            }
        }
    }
}
