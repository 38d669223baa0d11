//! End-to-end distributed HPL solves, validated against HPL's scaled
//! residual and a serial LU oracle, across grids, schedules, factorization
//! variants, broadcast algorithms, and thread counts.

use hpl_blas::mat::Matrix;
use hpl_blas::{getrf, getrs};
use hpl_comm::{BcastAlgo, Grid, GridOrder, Universe};
use rhpl_core::config::Schedule;
use rhpl_core::{run_hpl, verify, FactVariant, HplConfig, MatGen};

/// Serial oracle: regenerate the system, LU-solve with hpl-blas.
fn serial_solution(cfg: &HplConfig) -> Vec<f64> {
    let n = cfg.n;
    let gen = MatGen::new(cfg.seed, n);
    let mut a = Matrix::from_fn(n, n, |i, j| gen.entry(i, j));
    let mut b: Vec<f64> = (0..n).map(|i| gen.entry(i, n)).collect();
    let mut piv = vec![0usize; n];
    let mut av = a.view_mut();
    getrf(&mut av, &mut piv, cfg.nb).expect("oracle factorization");
    getrs(&av, &piv, &mut b);
    b
}

fn run_and_check(cfg: &HplConfig) -> Vec<f64> {
    let results = Universe::run(cfg.ranks(), |comm| {
        let r = run_hpl(comm, cfg).expect("nonsingular");
        r.x
    });
    // All ranks return the identical replicated solution.
    for x in &results[1..] {
        assert_eq!(x, &results[0], "solution must be replicated identically");
    }
    // Scaled residual via a fresh grid.
    let x = results[0].clone();
    let res = Universe::run(cfg.ranks(), |comm| {
        let grid = Grid::new(comm, cfg.p, cfg.q, GridOrder::ColumnMajor);
        verify(&grid, cfg.n, cfg.nb, cfg.seed, &x).expect("verification collectives")
    });
    assert!(
        res[0].passed(),
        "{}x{} n={} nb={}: scaled residual {} >= 16",
        cfg.p,
        cfg.q,
        cfg.n,
        cfg.nb,
        res[0].scaled
    );
    // And against the serial oracle.
    let oracle = serial_solution(cfg);
    for (i, (got, want)) in x.iter().zip(&oracle).enumerate() {
        assert!(
            (got - want).abs() < 1e-6 * want.abs().max(1.0),
            "x[{i}] = {got}, oracle {want}"
        );
    }
    x
}

#[test]
fn single_rank_solves() {
    run_and_check(&HplConfig::new(64, 16, 1, 1));
}

#[test]
fn grids_solve_correctly() {
    for &(p, q) in &[(1usize, 2usize), (2, 1), (2, 2), (2, 3), (3, 2), (4, 2)] {
        let mut cfg = HplConfig::new(96, 16, p, q);
        cfg.seed = 11 + (p * 10 + q) as u64;
        run_and_check(&cfg);
    }
}

#[test]
fn non_divisible_n() {
    // N not a multiple of NB: exercises the partial last panel.
    for &n in &[61usize, 97, 100] {
        let mut cfg = HplConfig::new(n, 16, 2, 2);
        cfg.seed = n as u64;
        run_and_check(&cfg);
    }
}

#[test]
fn all_schedules_bitwise_identical() {
    let mut base = HplConfig::new(120, 12, 2, 2);
    base.seed = 3;
    let mut sols = Vec::new();
    for schedule in [
        Schedule::Simple,
        Schedule::LookAhead,
        Schedule::SplitUpdate { frac: 0.5 },
        Schedule::SplitUpdate { frac: 0.25 },
        Schedule::SplitUpdate { frac: 0.75 },
    ] {
        let mut cfg = base.clone();
        cfg.schedule = schedule;
        sols.push((schedule, run_and_check(&cfg)));
    }
    let (_, ref first) = sols[0];
    for (schedule, x) in &sols[1..] {
        assert_eq!(x, first, "{schedule:?} must be bitwise identical to Simple");
    }
}

#[test]
fn all_fact_variants_agree() {
    let mut base = HplConfig::new(80, 16, 2, 2);
    base.seed = 17;
    let mut sols = Vec::new();
    for variant in FactVariant::ALL {
        let mut cfg = base.clone();
        cfg.fact.variant = variant;
        sols.push(run_and_check(&cfg));
    }
    // Same pivot decisions, but different summation orders: solutions agree
    // to rounding, not bitwise.
    for other in &sols[1..] {
        for (a, b) in sols[0].iter().zip(other) {
            assert!((a - b).abs() < 1e-7 * b.abs().max(1.0), "{a} vs {b}");
        }
    }
}

#[test]
fn recursion_parameters() {
    for &(ndiv, nbmin) in &[(2usize, 1usize), (2, 4), (3, 2), (4, 8), (2, 64)] {
        let mut cfg = HplConfig::new(64, 32, 2, 1);
        cfg.seed = 23;
        cfg.fact.ndiv = ndiv;
        cfg.fact.nbmin = nbmin;
        run_and_check(&cfg);
    }
}

#[test]
fn multithreaded_fact_matches_serial() {
    let mut base = HplConfig::new(128, 16, 2, 2);
    base.seed = 29;
    let serial = run_and_check(&base);
    for threads in [2usize, 3, 4] {
        let mut cfg = base.clone();
        cfg.fact.threads = threads;
        let mt = run_and_check(&cfg);
        // Identical pivots and tile-local arithmetic order => identical bits.
        assert_eq!(mt, serial, "threads={threads}");
    }
}

#[test]
fn bcast_algorithms_all_work() {
    for algo in BcastAlgo::ALL {
        let mut cfg = HplConfig::new(72, 12, 2, 3);
        cfg.seed = 31;
        cfg.bcast = algo;
        run_and_check(&cfg);
    }
}

#[test]
fn split_update_with_threads_and_row_major() {
    let mut cfg = HplConfig::new(144, 16, 2, 2);
    cfg.seed = 37;
    cfg.schedule = Schedule::SplitUpdate { frac: 0.5 };
    cfg.fact.threads = 2;
    cfg.order = GridOrder::RowMajor;
    run_and_check(&cfg);
}

#[test]
fn parallel_update_matches_serial_bitwise() {
    // The "device" update on 1 vs several pool threads: identical bytes.
    let mut base = HplConfig::new(128, 16, 2, 2);
    base.seed = 43;
    base.schedule = Schedule::SplitUpdate { frac: 0.5 };
    let serial = run_and_check(&base);
    for threads in [2usize, 4] {
        let mut cfg = base.clone();
        cfg.update_threads = threads;
        assert_eq!(run_and_check(&cfg), serial, "update_threads={threads}");
    }
    // Combined with multithreaded FACT.
    let mut both = base.clone();
    both.fact.threads = 2;
    both.update_threads = 3;
    assert_eq!(run_and_check(&both), serial);
}

#[test]
fn nb_larger_than_n() {
    // Degenerates to a single panel solve.
    let mut cfg = HplConfig::new(20, 32, 2, 2);
    cfg.seed = 41;
    run_and_check(&cfg);
}

#[test]
fn f32_pipeline_solves_to_f32_accuracy() {
    use rhpl_core::{run_hpl_system, verify_system, System};
    let mut cfg = HplConfig::new(96, 16, 2, 2);
    cfg.seed = 47;
    let gen = MatGen::new(cfg.seed, cfg.n);
    let results = Universe::run(cfg.ranks(), |comm| {
        let r = run_hpl_system::<f32>(comm, &cfg, System::Fill(&|i, j| gen.entry(i, j)))
            .expect("nonsingular");
        assert_eq!(r.element, "f32");
        r.x
    });
    for x in &results[1..] {
        assert_eq!(x, &results[0], "solution must be replicated identically");
    }
    // The f32 factorization passes the classic gate scaled by f32's unit
    // roundoff — single-precision accuracy, judged as single precision.
    let x = results[0].clone();
    let res = Universe::run(cfg.ranks(), |comm| {
        let grid = Grid::new(comm, cfg.p, cfg.q, GridOrder::ColumnMajor);
        verify_system(&grid, 96, 16, System::Seeded(47), &x, f32::EPSILON as f64)
            .expect("verification collectives")
    });
    assert!(
        res[0].passed(),
        "f32 scaled residual {} >= 16",
        res[0].scaled
    );
}

#[test]
fn f32_schedules_bitwise_identical() {
    use rhpl_core::{run_hpl_system, System};
    let mut base = HplConfig::new(120, 12, 2, 2);
    base.seed = 53;
    let mut sols = Vec::new();
    for schedule in [
        Schedule::Simple,
        Schedule::LookAhead,
        Schedule::SplitUpdate { frac: 0.5 },
    ] {
        let mut cfg = base.clone();
        cfg.schedule = schedule;
        let gen = MatGen::new(cfg.seed, cfg.n);
        let results = Universe::run(cfg.ranks(), |comm| {
            run_hpl_system::<f32>(comm, &cfg, System::Fill(&|i, j| gen.entry(i, j)))
                .expect("nonsingular")
                .x
        });
        sols.push((schedule, results[0].clone()));
    }
    let (_, ref first) = sols[0];
    for (schedule, x) in &sols[1..] {
        assert_eq!(x, first, "{schedule:?} must be bitwise identical in f32");
    }
}

#[test]
fn factorize_returns_full_pivot_log() {
    let cfg = HplConfig::new(64, 16, 2, 2);
    let logs = Universe::run(cfg.ranks(), |comm| {
        let grid = Grid::new(comm, cfg.p, cfg.q, cfg.order);
        let gen = MatGen::new(cfg.seed, cfg.n);
        let out =
            rhpl_core::factorize::<f32>(&grid, &cfg, &|i, j| gen.entry(i, j)).expect("nonsingular");
        out.pivot_log
    });
    for log in &logs {
        // One pivot per factored global column, always from the trailing rows.
        assert_eq!(log.len(), cfg.n);
        for (k, &p) in log.iter().enumerate() {
            assert!(p as usize >= k && (p as usize) < cfg.n, "pivot {p} at {k}");
        }
    }
    for log in &logs[1..] {
        assert_eq!(log, &logs[0], "pivot log must be replicated identically");
    }
}
