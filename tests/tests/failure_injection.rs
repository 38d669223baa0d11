//! Failure injection: singular systems, invalid configurations, and
//! degenerate layouts must fail loudly and consistently on every rank.

use hpl_blas::mat::Matrix;
use hpl_comm::Universe;
use hpl_threads::Pool;
use rhpl_core::dist::Axis;
use rhpl_core::fact::{panel_factor, FactInput};
use rhpl_core::{FactOpts, HplConfig, HplError, MatGen};

/// Factors the `n x nb` panel whose global entry `(i, j)` is `f(i, j)` over
/// a process column of `p` ranks with `threads` FACT threads; returns every
/// rank's error.
fn panel_errors(
    p: usize,
    threads: usize,
    n: usize,
    nb: usize,
    f: &(dyn Fn(usize, usize) -> f64 + Sync),
) -> Vec<HplError> {
    Universe::run(p, |comm| {
        let rows = Axis {
            n,
            nb,
            iproc: comm.rank(),
            nprocs: p,
        };
        let pool = Pool::new(threads);
        let mut panel = Matrix::from_fn(rows.local_len(), nb, |i, j| f(rows.to_global(i), j));
        let inp = FactInput {
            col_comm: &comm,
            rows,
            k0: 0,
            jb: nb,
            lb: 0,
            is_curr: comm.rank() == 0,
            pool: &pool,
            opts: FactOpts {
                threads,
                ..FactOpts::default()
            },
        };
        panel_factor(&inp, &mut panel.view_mut()).unwrap_err()
    })
}

/// A panel with an all-zero column is singular: every rank of the process
/// column must return the same `Singular { col }` error (no rank may hang
/// or succeed).
#[test]
fn singular_panel_detected_consistently_across_ranks() {
    // Column 5 of the panel is zero on every rank.
    let f = |i: usize, j: usize| {
        if j == 5 {
            0.0
        } else {
            ((i * 31 + j * 17) % 23) as f64 - 11.0
        }
    };
    for e in &panel_errors(3, 1, 48, 8, &f) {
        assert_eq!(
            *e,
            HplError::Singular { col: 5 },
            "all ranks must report the same singular column"
        );
    }
}

/// Multithreaded factorization detects singularity too (the error flag
/// must cross the barrier protocol cleanly).
#[test]
fn singular_panel_with_threads() {
    let f = |i: usize, j: usize| if j == 0 { 0.0 } else { (i + j) as f64 };
    let errs = panel_errors(2, 4, 64, 16, &f);
    assert!(errs.iter().all(|e| *e == HplError::Singular { col: 0 }));
}

/// A process column of one rank swaps pivot rows in place instead of
/// running the pivot collective; a singular panel must still end in the
/// `Singular { col }` the collective path reports, at one FACT thread and
/// at four, without hanging. A zero column stays zero under elimination
/// and a NaN column stays NaN (the argmax rejects NaN), so each fails at
/// its own column.
#[test]
fn one_rank_singular_panels_match_the_collective_path() {
    let (n, nb) = (48usize, 8usize);
    let gen = MatGen::new(7, n);
    for (col, poison) in [(0, 0.0), (5, 0.0), (nb - 1, 0.0), (3, f64::NAN)] {
        let f = |i: usize, j: usize| if j == col { poison } else { gen.entry(i, j) };
        let want = HplError::Singular { col };
        let collective = panel_errors(2, 1, n, nb, &f);
        assert!(
            collective.iter().all(|e| *e == want),
            "P=2, column {col} = {poison}: {collective:?}"
        );
        for threads in [1, 4] {
            let got = panel_errors(1, threads, n, nb, &f);
            assert_eq!(
                got,
                std::slice::from_ref(&want),
                "P=1 T={threads}, column {col} = {poison}"
            );
        }
    }
}

#[test]
#[should_panic(expected = "NB must be positive")]
fn zero_block_size_rejected() {
    HplConfig::new(64, 0, 2, 2).validate();
}

#[test]
#[should_panic(expected = "grid must be non-empty")]
fn empty_grid_rejected() {
    HplConfig::new(64, 16, 0, 2).validate();
}

#[test]
#[should_panic(expected = "needs exactly")]
fn wrong_rank_count_rejected() {
    let cfg = HplConfig::new(64, 16, 2, 2);
    // 3 ranks for a 2x2 grid: the grid constructor must abort.
    Universe::run(3, |comm| {
        let _ = hpl_comm::Grid::new(comm, cfg.p, cfg.q, cfg.order);
    });
}

/// N smaller than the grid still works (some ranks own nothing).
#[test]
fn more_ranks_than_blocks() {
    let cfg = HplConfig::new(24, 8, 3, 3);
    let results = Universe::run(cfg.ranks(), |comm| {
        rhpl_core::run_hpl(comm, &cfg).expect("nonsingular")
    });
    assert_eq!(results[0].x.len(), 24);
}
