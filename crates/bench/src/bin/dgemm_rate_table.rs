//! §IV.A in-text anchor — DGEMM rates vs blocking factor.
//!
//! The paper quotes 49 TFLOPS per MI250X for the NB=512 trailing-update
//! DGEMMs and motivates NB=512 as the balance point between DGEMM
//! efficiency and communication granularity. This binary prints the modeled
//! per-module rate across NB values (default), and with `--measured` the
//! real hpl-blas DGEMM GFLOPS on this host across the same shapes scaled
//! down — the *shape* (rates rising and saturating with NB) is the
//! reproduction target.

use std::time::Instant;

use hpl_bench::{emit_json, has_flag, row};
use hpl_blas::mat::Matrix;
use hpl_blas::{dgemm_with, Element, Kernel, MatRef, Trans};
use hpl_sim::DgemmModel;
use serde::Serialize;

#[derive(Serialize)]
struct Rate {
    nb: usize,
    gflops: f64,
}

#[derive(Serialize)]
struct KernelRate {
    nb: usize,
    /// The tier's instruction set (`portable`, `avx2+fma`, `avx512f`, ...).
    isa: &'static str,
    f64_gflops: f64,
    f32_gflops: f64,
}

fn main() {
    if has_flag("--measured") {
        measured();
    } else {
        model();
    }
}

fn model() {
    let m = DgemmModel::default();
    println!("DGEMM rate vs NB (model, per MI250X module = 2 GCDs)");
    println!("paper anchor: 49 TFLOPS at NB = 512 for large trailing updates\n");
    let widths = [6usize, 14];
    println!("{}", row(&["NB", "TFLOPS/module"], &widths));
    let mut rates = Vec::new();
    for nb in [64usize, 128, 256, 512, 1024] {
        let r = 2.0 * m.flops_rate(64000.0, 128000.0, nb as f64) / 1e12;
        println!("{}", row(&[format!("{nb}"), format!("{r:.1}")], &widths));
        rates.push(Rate {
            nb,
            gflops: r * 1e3,
        });
    }
    emit_json("dgemm_model", &rates);
}

/// Times one `m x n x nb` update with kernel `kern`, returning GFLOPS.
fn time_kernel<E: Element>(
    kern: Kernel,
    m: usize,
    n: usize,
    nb: usize,
    a: MatRef<'_, E>,
    b: MatRef<'_, E>,
) -> f64 {
    let mut c = Matrix::<E>::zeros(m, n);
    // Warm-up: fault in the pack arena and caches outside the timed loop.
    let mut cv = c.view_mut();
    dgemm_with(
        kern,
        Trans::No,
        Trans::No,
        E::from_f64(-1.0),
        a,
        b,
        E::ONE,
        &mut cv,
    );
    let reps = (256 / nb).max(1);
    let t0 = Instant::now();
    for _ in 0..reps {
        let mut cv = c.view_mut();
        dgemm_with(
            kern,
            Trans::No,
            Trans::No,
            E::from_f64(-1.0),
            a,
            b,
            E::ONE,
            &mut cv,
        );
    }
    let dt = t0.elapsed().as_secs_f64() / reps as f64;
    2.0 * (m * n * nb) as f64 / dt / 1e9
}

fn measured() {
    println!("GEMM GFLOPS vs NB per kernel tier and element (measured on this host, m = n = 1024)");
    let (m, n) = (1024usize, 1024usize);
    let a_full = Matrix::from_fn(m, 1024, |i, j| ((i * 13 + j * 7) % 17) as f64 * 0.1 - 0.8);
    let b_full = Matrix::from_fn(1024, n, |i, j| ((i * 5 + j * 11) % 19) as f64 * 0.1 - 0.9);
    let a32 = Matrix::<f32>::from_fn(m, 1024, |i, j| ((i * 13 + j * 7) % 17) as f32 * 0.1 - 0.8);
    let b32 = Matrix::<f32>::from_fn(1024, n, |i, j| ((i * 5 + j * 11) % 19) as f32 * 0.1 - 0.9);
    // One pair of columns per tier this CPU has; `simd` resolves to the
    // last of them.
    let tiers = Kernel::available();
    for kern in &tiers {
        println!("  {:<9} {}", kern.isa(), kern.describe());
    }
    let mut heads = vec!["NB".to_string()];
    for kern in &tiers {
        heads.push(format!("f64 {}", kern.isa()));
        heads.push(format!("f32 {}", kern.isa()));
    }
    let widths: Vec<usize> = heads.iter().map(|h| h.len().max(6) + 2).collect();
    println!("{}", row(&heads, &widths));
    let mut rates = Vec::new();
    for nb in [16usize, 32, 64, 128, 256, 512, 1024] {
        let a = a_full.view().submatrix(0, 0, m, nb);
        let b = b_full.view().submatrix(0, 0, nb, n);
        let af = a32.view().submatrix(0, 0, m, nb);
        let bf = b32.view().submatrix(0, 0, nb, n);
        let mut cells = vec![format!("{nb}")];
        for &kern in &tiers {
            let f64_gflops = time_kernel(kern, m, n, nb, a, b);
            let f32_gflops = time_kernel(kern, m, n, nb, af, bf);
            cells.push(format!("{f64_gflops:.2}"));
            cells.push(format!("{f32_gflops:.2}"));
            rates.push(KernelRate {
                nb,
                isa: kern.isa(),
                f64_gflops,
                f32_gflops,
            });
        }
        println!("{}", row(&cells, &widths));
    }
    emit_json("dgemm_measured", &rates);
}
