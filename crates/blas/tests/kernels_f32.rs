//! f32 instantiations of the kernel-dispatch correctness and determinism
//! tests in `kernels.rs`: every microkernel against the naive oracle over
//! the same adversarial edge shapes, bitwise serial-vs-parallel
//! equivalence, and packed-A path equivalence — the guarantees HPL-MxP's
//! resident f32 factorization leans on.

use hpl_blas::mat::Matrix;
use hpl_blas::{
    dgemm_naive, dgemm_packed, dgemm_parallel_with, dgemm_with, Kernel, PackedA, Trans,
};
use hpl_threads::Pool;
use proptest::prelude::*;

/// Every kernel this machine can run: scalar, then each SIMD tier the CPU
/// has — not only the widest one `simd` resolves to.
fn all_kernels() -> Vec<Kernel> {
    Kernel::available()
}

fn filled(r: usize, c: usize, seed: usize) -> Matrix<f32> {
    Matrix::from_fn(r, c, |i, j| {
        ((i * 29 + j * 13 + seed * 7) % 41) as f32 * 0.0625 - 1.25
    })
}

/// The `kernels.rs` edge shapes, which straddle the f32 blocking
/// boundaries too: the f32 SIMD tile is wider in m (MR = 16 on x86_64),
/// so the shapes with m in 1..=15 exercise its row padding.
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

/// Reassociation tolerance: |entries| <= 1.25 and k <= 300, so the
/// accumulated f32 rounding differences stay far below 1e-3 relative.
fn close(x: f32, y: f32) -> bool {
    (x - y).abs() <= 1e-3 * (1.0 + y.abs())
}

#[test]
fn every_kernel_matches_naive_on_edge_shapes_f32() {
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
                -0.5f32,
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
                -0.5f32,
                a.view(),
                b.view(),
                0.75,
                &mut gv,
            );
            for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
                assert!(
                    close(*x, *y),
                    "kernel {} m={m} n={n} k={k}: {x} vs {y}",
                    kern.describe()
                );
            }
        }
    }
}

#[test]
fn every_kernel_is_bit_identical_to_naive_order_free_cases_f32() {
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
            dgemm_naive(
                Trans::No,
                Trans::No,
                1.0f32,
                a.view(),
                b.view(),
                1.0,
                &mut wv,
            );
            let mut got = c0.clone();
            let mut gv = got.view_mut();
            dgemm_with(
                kern,
                Trans::No,
                Trans::No,
                1.0f32,
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
fn f32_serial_and_parallel_are_bit_identical_per_kernel() {
    // The determinism contract `--mxp` leans on across transports: under
    // any one kernel, any thread count produces the same f32 bytes as the
    // serial path (simd included — the schedule is deterministic within a
    // kernel, only scalar-vs-simd semantics differ).
    let pool = Pool::new(4);
    for kern in all_kernels() {
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
                -1.0f32,
                a.view(),
                b.view(),
                1.0,
                &mut sv,
            );
            for threads in [2usize, 4] {
                let mut par = c0.clone();
                let mut pv = par.view_mut();
                dgemm_parallel_with(
                    kern,
                    &pool,
                    threads,
                    Trans::No,
                    Trans::No,
                    -1.0f32,
                    a.view(),
                    b.view(),
                    1.0,
                    &mut pv,
                );
                assert_eq!(
                    par.as_slice(),
                    serial.as_slice(),
                    "kernel {} m={m} n={n} k={k} threads={threads}",
                    kern.describe()
                );
            }
        }
    }
}

#[test]
fn packed_a_path_is_bit_identical_to_on_the_fly_packing_f32() {
    for kern in all_kernels() {
        for &(m, n, k) in EDGE_SHAPES {
            let a = filled(m, k, 7);
            let b = filled(k, n, 8);
            let c0 = filled(m, n, 9);
            let mut want = c0.clone();
            let mut wv = want.view_mut();
            dgemm_with(
                kern,
                Trans::No,
                Trans::No,
                -1.0f32,
                a.view(),
                b.view(),
                1.0,
                &mut wv,
            );
            let packed = PackedA::pack(kern, Trans::No, a.view());
            assert_eq!((packed.rows(), packed.depth()), (m, k));
            let mut got = c0.clone();
            let mut gv = got.view_mut();
            dgemm_packed(kern, -1.0f32, &packed, 0, Trans::No, b.view(), 1.0, &mut gv);
            assert_eq!(
                got.as_slice(),
                want.as_slice(),
                "kernel {} m={m} n={n} k={k}",
                kern.describe()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random shapes and operands: every kernel stays within f32
    /// reassociation distance of the oracle.
    #[test]
    fn f32_kernels_match_naive_on_random_shapes(
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
        dgemm_naive(Trans::No, Trans::No, 1.0f32, a.view(), b.view(), -1.0, &mut wv);
        for kern in all_kernels() {
            let mut got = c0.clone();
            let mut gv = got.view_mut();
            dgemm_with(kern, Trans::No, Trans::No, 1.0f32, a.view(), b.view(), -1.0, &mut gv);
            for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
                prop_assert!(
                    close(*x, *y),
                    "kernel {} m={} n={} k={}: {} vs {}",
                    kern.name(), m, n, k, x, y
                );
            }
        }
    }
}
