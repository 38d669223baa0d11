//! Property-based end-to-end testing: random problem shapes, grids and
//! option combinations must all solve to HPL accuracy. Complements the
//! hand-picked configurations in the other suites with coverage of odd
//! sizes and interactions.

use hpl_comm::{BcastAlgo, Grid, GridOrder, Universe};
use proptest::prelude::*;
use rhpl_core::config::Schedule;
use rhpl_core::{run_hpl, verify, FactVariant, HplConfig, RowSwapAlgo};

fn schedule_strategy() -> impl Strategy<Value = Schedule> {
    prop_oneof![
        Just(Schedule::Simple),
        Just(Schedule::LookAhead),
        (1u32..=9).prop_map(|f| Schedule::SplitUpdate {
            frac: f as f64 / 10.0
        }),
    ]
}

proptest! {
    // Each case is a full distributed solve; keep the count moderate.
    #![proptest_config(ProptestConfig { cases: 24, max_shrink_iters: 8 })]

    #[test]
    fn random_configurations_solve(
        n in 24usize..160,
        nb in 4usize..40,
        grid_idx in 0usize..5,
        variant_idx in 0usize..3,
        bcast_idx in 0..BcastAlgo::ALL.len(),
        swap_idx in 0usize..3,
        threads in 1usize..4,
        schedule in schedule_strategy(),
        seed in 0u64..10_000,
    ) {
        let (p, q) = [(1usize, 1usize), (1, 2), (2, 1), (2, 2), (3, 2)][grid_idx];
        let mut cfg = HplConfig::new(n, nb, p, q);
        cfg.seed = seed;
        cfg.schedule = schedule;
        cfg.fact.variant = FactVariant::ALL[variant_idx];
        cfg.fact.threads = threads;
        cfg.bcast = BcastAlgo::ALL[bcast_idx];
        cfg.swap = [RowSwapAlgo::Ring, RowSwapAlgo::BinaryExchange, RowSwapAlgo::Mix { threshold: nb * 2 }][swap_idx];
        let results = Universe::run(cfg.ranks(), |comm| {
            run_hpl(comm, &cfg).expect("random system is nonsingular")
        });
        let x = results[0].x.clone();
        let res = Universe::run(cfg.ranks(), |comm| {
            let grid = Grid::new(comm, cfg.p, cfg.q, GridOrder::ColumnMajor);
            verify(&grid, cfg.n, cfg.nb, cfg.seed, &x).expect("verification collectives")
        })[0];
        prop_assert!(
            res.passed(),
            "n={n} nb={nb} grid={p}x{q} variant={variant_idx} bcast={bcast_idx} \
             swap={swap_idx} threads={threads} schedule={schedule:?} seed={seed}: \
             residual {}",
            res.scaled
        );
    }

    #[test]
    fn random_recursion_parameters_solve(
        ndiv in 2usize..5,
        nbmin in 1usize..20,
        nb in 8usize..48,
        seed in 0u64..1000,
    ) {
        let mut cfg = HplConfig::new(96, nb, 2, 2);
        cfg.seed = seed;
        cfg.fact.ndiv = ndiv;
        cfg.fact.nbmin = nbmin;
        let results = Universe::run(cfg.ranks(), |comm| {
            run_hpl(comm, &cfg).expect("nonsingular")
        });
        let x = results[0].x.clone();
        let res = Universe::run(cfg.ranks(), |comm| {
            let grid = Grid::new(comm, 2, 2, GridOrder::ColumnMajor);
            verify(&grid, cfg.n, nb, seed, &x).expect("verification collectives")
        })[0];
        prop_assert!(res.passed(), "ndiv={ndiv} nbmin={nbmin} nb={nb}: {}", res.scaled);
    }
}
