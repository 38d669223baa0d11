//! Cross-crate integration: the full benchmark through the public API,
//! on larger problems and richer option combinations than the per-crate
//! unit tests, always validated by HPL's own acceptance criterion.

use hpl_comm::{BcastAlgo, Grid, GridOrder, Universe};
use rhpl_core::config::Schedule;
use rhpl_core::{run_hpl, verify, HplConfig};

fn check(cfg: &HplConfig) -> Vec<f64> {
    let results = Universe::run(cfg.ranks(), |comm| run_hpl(comm, cfg).expect("nonsingular"));
    let x = results[0].x.clone();
    for r in &results[1..] {
        assert_eq!(r.x, x, "replicated solutions must agree bitwise");
    }
    let res = Universe::run(cfg.ranks(), |comm| {
        let grid = Grid::new(comm, cfg.p, cfg.q, cfg.order);
        verify(&grid, cfg.n, cfg.nb, cfg.seed, &x).expect("verification collectives")
    })[0];
    assert!(
        res.passed(),
        "N={} NB={} {}x{}: scaled residual {}",
        cfg.n,
        cfg.nb,
        cfg.p,
        cfg.q,
        res.scaled
    );
    x
}

#[test]
fn medium_problem_full_options() {
    // The "everything on" configuration at the largest size the test
    // budget allows: split update, multithreaded recursive FACT, modified
    // ring broadcast.
    let mut cfg = HplConfig::new(480, 32, 2, 2);
    cfg.schedule = Schedule::SplitUpdate { frac: 0.5 };
    cfg.fact.threads = 3;
    cfg.bcast = BcastAlgo::OneRingM;
    cfg.seed = 2024;
    check(&cfg);
}

#[test]
fn three_by_three_grid() {
    let mut cfg = HplConfig::new(270, 15, 3, 3);
    cfg.schedule = Schedule::SplitUpdate { frac: 0.4 };
    cfg.seed = 99;
    check(&cfg);
}

#[test]
fn tall_and_wide_grids() {
    for (p, q) in [(6usize, 1usize), (1, 6)] {
        let mut cfg = HplConfig::new(192, 16, p, q);
        cfg.schedule = Schedule::LookAhead;
        cfg.seed = 7 + p as u64;
        check(&cfg);
    }
}

#[test]
fn long_bcast_with_split_update() {
    let mut cfg = HplConfig::new(256, 16, 2, 4);
    cfg.bcast = BcastAlgo::Long;
    cfg.schedule = Schedule::SplitUpdate { frac: 0.5 };
    check(&cfg);
}

#[test]
fn deterministic_across_runs() {
    let mut cfg = HplConfig::new(160, 16, 2, 2);
    cfg.schedule = Schedule::SplitUpdate { frac: 0.5 };
    cfg.fact.threads = 2;
    let x1 = check(&cfg);
    let x2 = check(&cfg);
    assert_eq!(x1, x2, "same configuration twice must be bitwise identical");
}

#[test]
fn different_seeds_solve_different_systems() {
    let mut a = HplConfig::new(96, 16, 2, 2);
    a.seed = 1;
    let mut b = a.clone();
    b.seed = 2;
    assert_ne!(check(&a), check(&b));
}

#[test]
fn row_major_grid_order() {
    let mut cfg = HplConfig::new(180, 12, 2, 3);
    cfg.order = GridOrder::RowMajor;
    cfg.schedule = Schedule::SplitUpdate { frac: 0.5 };
    check(&cfg);
}

#[test]
fn extreme_split_fractions() {
    for frac in [0.05, 0.95] {
        let mut cfg = HplConfig::new(192, 16, 2, 2);
        cfg.schedule = Schedule::SplitUpdate { frac };
        cfg.seed = (frac * 100.0) as u64;
        check(&cfg);
    }
}

#[test]
fn both_row_swap_algorithms_agree_bitwise() {
    use rhpl_core::RowSwapAlgo;
    // The two allgathers produce the same U bytes, so whole runs agree
    // exactly. P = 4 is a power of two, exercising real recursive doubling.
    let mut ring = HplConfig::new(256, 16, 4, 2);
    ring.schedule = Schedule::SplitUpdate { frac: 0.5 };
    ring.swap = RowSwapAlgo::Ring;
    let mut bex = ring.clone();
    bex.swap = RowSwapAlgo::BinaryExchange;
    assert_eq!(check(&ring), check(&bex));
    // Non-power-of-two column count falls back to the ring internally.
    let mut odd = HplConfig::new(180, 12, 3, 2);
    odd.swap = RowSwapAlgo::BinaryExchange;
    check(&odd);
}

#[test]
fn mix_swap_algorithm_matches_fixed_variants() {
    use rhpl_core::RowSwapAlgo;
    let mut base = HplConfig::new(192, 16, 4, 1);
    base.schedule = Schedule::SplitUpdate { frac: 0.5 };
    let reference = check(&base);
    // Mix with a mid-run threshold switches algorithms part-way; the
    // result must still be bitwise identical (same bytes, different route).
    let mut mix = base.clone();
    mix.swap = RowSwapAlgo::Mix { threshold: 96 };
    assert_eq!(check(&mix), reference);
}

#[test]
fn custom_system_through_solver_api() {
    use rhpl_core::{run_hpl_system, verify_system, System};
    let n = 160usize;
    // A diagonally dominant Toeplitz-ish system with a known solution.
    let xtrue: Vec<f64> = (0..n).map(|i| ((i % 9) as f64) - 4.0).collect();
    let entry = move |i: usize, j: usize| -> f64 {
        if i == j {
            4.0
        } else {
            1.0 / (1.0 + (i as f64 - j as f64).abs())
        }
    };
    let fill = {
        let xtrue = xtrue.clone();
        move |i: usize, j: usize| -> f64 {
            if j == n {
                (0..n).map(|k| entry(i, k) * xtrue[k]).sum()
            } else {
                entry(i, j)
            }
        }
    };
    let cfg = HplConfig::new(n, 16, 2, 2);
    let results = Universe::run(cfg.ranks(), |comm| {
        run_hpl_system::<f64>(comm, &cfg, System::Fill(&fill)).expect("nonsingular")
    });
    let x = results[0].x.clone();
    for (got, want) in x.iter().zip(&xtrue) {
        assert!((got - want).abs() < 1e-8, "{got} vs {want}");
    }
    let res = Universe::run(cfg.ranks(), |comm| {
        let grid = Grid::new(comm, cfg.p, cfg.q, cfg.order);
        verify_system(&grid, n, cfg.nb, System::Fill(&fill), &x, f64::EPSILON)
            .expect("verification collectives")
    })[0];
    assert!(res.passed());
}

#[test]
fn crout_and_left_variants_through_full_run() {
    use rhpl_core::FactVariant;
    for variant in [FactVariant::Crout, FactVariant::Left] {
        let mut cfg = HplConfig::new(160, 16, 2, 2);
        cfg.fact.variant = variant;
        cfg.fact.nbmin = 4;
        cfg.schedule = Schedule::SplitUpdate { frac: 0.5 };
        check(&cfg);
    }
}
