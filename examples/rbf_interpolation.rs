//! Using rhpl as a *library solver*: radial-basis-function interpolation.
//!
//! Scattered-data interpolation with Gaussian RBFs produces exactly the
//! kind of large dense linear system the paper's introduction motivates:
//! `A[i][j] = exp(-|x_i - x_j|^2 / (2 sigma^2))` over interpolation nodes,
//! solved against samples of a target function. We build the system through
//! a `System::Fill` function (no materialized global matrix),
//! solve it on a 2x2 thread grid with the full rocHPL pipeline, and check
//! the interpolant reproduces the target at the nodes and between them.
//!
//! ```text
//! cargo run --release -p hpl-examples --bin rbf_interpolation [N]
//! ```

use hpl_comm::{Grid, GridOrder, Universe};
use rhpl_core::config::Schedule;
use rhpl_core::{run_hpl_system, verify_system, HplConfig, System};

/// Interpolation nodes: a jittered 1D grid on [0, 1].
fn node(i: usize, n: usize) -> f64 {
    let t = i as f64 / (n - 1) as f64;
    t + 0.3 / n as f64 * ((i * 2654435761) % 97) as f64 / 97.0
}

/// The function being interpolated.
fn target(x: f64) -> f64 {
    (6.0 * x).sin() + 0.5 * (17.0 * x).cos()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(512);
    let nb = 32usize;
    let sigma = 2.0 / n as f64 * 8.0;
    let (p, q) = (2usize, 2usize);

    println!("RBF interpolation of sin(6x) + 0.5 cos(17x) with {n} Gaussian centers");
    println!("dense {n}x{n} kernel system solved by the rocHPL pipeline on a {p}x{q} grid\n");

    // The fill function defines the augmented system; a small ridge on the
    // diagonal keeps the kernel matrix comfortably nonsingular.
    let fill = move |i: usize, j: usize| -> f64 {
        if j == n {
            target(node(i, n))
        } else {
            let d = node(i, n) - node(j, n);
            let k = (-d * d / (2.0 * sigma * sigma)).exp();
            if i == j {
                k + 1e-8
            } else {
                k
            }
        }
    };

    let mut cfg = HplConfig::new(n, nb, p, q);
    cfg.schedule = Schedule::SplitUpdate { frac: 0.5 };
    cfg.fact.threads = 2;

    let results = Universe::run(cfg.ranks(), |comm| {
        run_hpl_system::<f64>(comm, &cfg, System::Fill(&fill)).expect("nonsingular")
    });
    let weights = results[0].x.clone();
    println!(
        "solved in {:.3} s ({:.2} GFLOPS)",
        results[0].wall, results[0].gflops
    );

    // HPL-style residual on the custom system.
    let w = weights.clone();
    let res = Universe::run(cfg.ranks(), |comm| {
        let grid = Grid::new(comm, p, q, GridOrder::ColumnMajor);
        verify_system(&grid, n, nb, System::Fill(&fill), &w, f64::EPSILON)
            .expect("verification collectives")
    })[0];
    println!(
        "scaled residual {:.4} -> {}",
        res.scaled,
        if res.passed() { "PASSED" } else { "FAILED" }
    );
    assert!(res.passed());

    // Evaluate the interpolant at the nodes and at off-node probes.
    let interp = |x: f64| -> f64 {
        weights
            .iter()
            .enumerate()
            .map(|(j, &wj)| {
                let d = x - node(j, n);
                wj * (-d * d / (2.0 * sigma * sigma)).exp()
            })
            .sum()
    };
    let node_err = (0..n)
        .map(|i| (interp(node(i, n)) - target(node(i, n))).abs())
        .fold(0.0f64, f64::max);
    let probe_err = (0..1000)
        .map(|k| {
            let x = 0.05 + 0.9 * k as f64 / 999.0;
            (interp(x) - target(x)).abs()
        })
        .fold(0.0f64, f64::max);
    println!("max error at nodes:    {node_err:.3e}");
    println!("max error off nodes:   {probe_err:.3e} (interior probes)");
    assert!(node_err < 1e-5, "interpolation must reproduce node values");
    assert!(
        probe_err < 1e-2,
        "interpolant must track the target between nodes"
    );
    println!("\ninterpolation quality OK");
}
