//! HPL-MxP scenario: solve an HPL random dense system with the
//! mixed-precision scheme — O(n^3) factorization in `f32`, O(n^2)
//! refinement in `f64` — and compare cost and accuracy against the pure
//! double-precision benchmark on the same system. Both runs go through the
//! shipped pipeline (`rhpl_core::run_hpl`, `hpl_mxp::solve_mxp`) on a 1x1
//! grid.
//!
//! ```text
//! cargo run --release -p hpl-examples --bin mixed_precision [N]
//! ```

use hpl_comm::{Grid, Universe};
use rhpl_core::{run_hpl, verify, HplConfig, Residuals};

fn verdict(scaled: f64) -> &'static str {
    if scaled < Residuals::THRESHOLD {
        "PASSED"
    } else {
        "FAILED"
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(512);
    let mut cfg = HplConfig::new(n, 64, 1, 1);
    cfg.seed = 4242;
    println!(
        "HPL-MxP demonstration, N = {n}, NB = {}, 1x1 grid\n",
        cfg.nb
    );

    // Pure double-precision reference.
    let (r64, res64) = Universe::run(1, |comm| {
        let r = run_hpl(comm.clone(), &cfg).expect("nonsingular");
        let grid = Grid::new(comm, 1, 1, cfg.order);
        let res = verify(&grid, n, cfg.nb, cfg.seed, &r.x).expect("verification collectives");
        (r, res)
    })
    .remove(0);
    println!(
        "FP64 HPL:           {:.3} s, scaled residual {:.4} ({})",
        r64.wall,
        res64.scaled,
        verdict(res64.scaled)
    );

    // Mixed precision: f32 factorization plus f64 refinement.
    let mxp = Universe::run(1, |comm| {
        hpl_mxp::solve_mxp(comm, &cfg).expect("nonsingular")
    })
    .remove(0);
    println!(
        "FP32 LU alone:      {:.3} s, scaled residual {:.4} ({})",
        mxp.fact_seconds,
        mxp.history[0],
        verdict(mxp.history[0])
    );
    println!(
        "  + refinement:     {:.3} s, {} sweep(s), residual {:.4} ({})",
        mxp.wall - mxp.fact_seconds,
        mxp.sweeps,
        mxp.residuals.scaled,
        verdict(mxp.residuals.scaled)
    );

    println!(
        "\nfactorization speed ratio (fp64 / fp32): {:.2}x",
        r64.wall / mxp.fact_seconds
    );
    println!("(the FP32 time also covers generating the system, which the FP64 HPL clock");
    println!("excludes; on MI250X-class hardware the matrix engines make the ratio ~4x,");
    println!("which is why HPL-MxP scores land several times above HPL on the same machine)");
    assert!(res64.passed() && mxp.converged);
}
