//! Criterion bench: the trailing-update GEMM kernel across the shapes HPL
//! produces (tall C, k = NB), backing the §IV.A DGEMM-rate discussion.
//! Each shape runs once per kernel tier the CPU has (`scalar` always, then
//! every SIMD tier — not only the widest, which is what `simd` resolves
//! to) and per element type (`f64` classic HPL, `f32` the HPL-MxP
//! factorization precision) so the per-tier and the per-precision GFLOPS
//! gaps are visible in the criterion report.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hpl_blas::mat::Matrix;
use hpl_blas::{dgemm_with, Element, Kernel, Trans};

const SHAPES: &[(usize, usize, usize)] = &[
    (256, 256, 64),
    (512, 512, 64),
    (512, 512, 128),
    (1024, 512, 128),
];

fn bench_element<E: Element>(c: &mut Criterion) {
    for kern in Kernel::available() {
        let mut g = c.benchmark_group(format!("dgemm_update/{}/{}", E::NAME, kern.isa()));
        g.sample_size(10);
        g.measurement_time(std::time::Duration::from_secs(2));
        g.warm_up_time(std::time::Duration::from_millis(300));
        for &(m, n, k) in SHAPES {
            let a =
                Matrix::<E>::from_fn(m, k, |i, j| E::from_f64(((i + j) % 7) as f64 * 0.1 - 0.3));
            let b = Matrix::<E>::from_fn(k, n, |i, j| {
                E::from_f64(((i * 3 + j) % 5) as f64 * 0.2 - 0.4)
            });
            let mut cm = Matrix::<E>::zeros(m, n);
            g.throughput(Throughput::Elements((2 * m * n * k) as u64));
            g.bench_with_input(
                BenchmarkId::from_parameter(format!("{m}x{n}x{k}")),
                &(),
                |bch, _| {
                    bch.iter(|| {
                        let mut cv = cm.view_mut();
                        dgemm_with(
                            kern,
                            Trans::No,
                            Trans::No,
                            E::from_f64(-1.0),
                            a.view(),
                            b.view(),
                            E::ONE,
                            &mut cv,
                        );
                    })
                },
            );
        }
        g.finish();
    }
}

fn bench_dgemm(c: &mut Criterion) {
    bench_element::<f64>(c);
    bench_element::<f32>(c);
}

criterion_group!(benches, bench_dgemm);
criterion_main!(benches);
