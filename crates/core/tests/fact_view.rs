//! `panel_factor` on a view inside the local matrix — how the driver factors
//! since it stopped copying the panel out to a host buffer — must be
//! bitwise the factorization of a contiguous copy: same `top`, same pivots,
//! same factored `L`, and nothing outside the view touched. The view has
//! `lda > mp` and non-zero row and column offsets; process columns of one
//! rank and of two (one rank with the diagonal block, one without), one and
//! two FACT threads, every variant and several `NBMIN` / `NDIV`. Under a
//! debug build the aliasing ledger checks the threaded tile protocol on the
//! strided view.

use hpl_blas::mat::Matrix;
use hpl_blas::Element;
use hpl_comm::{Grid, GridOrder, Universe, WireElem};
use hpl_threads::Pool;
use rhpl_core::fact::{panel_factor, FactInput};
use rhpl_core::panel::PanelGeom;
use rhpl_core::{FactOpts, FactVariant, LocalMatrix};

fn bits<E: Element>(v: E) -> u64 {
    v.to_f64().to_bits()
}

fn check<E: WireElem>(p: usize, n: usize, nb: usize, it: usize, opts: FactOpts) {
    Universe::run(p, |comm| {
        let grid = Grid::new(comm, p, 1, GridOrder::ColumnMajor);
        let pool = Pool::new(2);
        let fresh = || LocalMatrix::<E>::generate(n, nb, &grid, 11);
        let mut a = fresh();
        let k0 = it * nb;
        let jb = nb.min(n - k0);
        let g = PanelGeom::new(&a, &grid, k0, jb);
        assert!(g.lb > 0 && g.lj0 > 0, "the view must be offset");
        let inp = FactInput {
            col_comm: grid.col(),
            rows: a.rows,
            k0,
            jb,
            lb: g.lb,
            is_curr: g.in_curr_row,
            pool: &pool,
            opts,
        };

        let mut copy = Matrix::from_fn(g.mp, jb, |i, j| a.get(g.lb + i, g.lj0 + j));
        let want = panel_factor(&inp, &mut copy.view_mut()).expect("nonsingular");
        let got = {
            let mut av = a.view_mut();
            let mut view = av.submatrix_mut(g.lb, g.lj0, g.mp, jb);
            assert!(view.lda() > g.mp, "the view must be strided");
            panel_factor(&inp, &mut view).expect("nonsingular")
        };

        let ctx = format!("P={p} it={it} rank={} {opts:?}", grid.myrow());
        assert_eq!(got.ipiv, want.ipiv, "ipiv, {ctx}");
        let top = |m: &Matrix<E>| m.as_slice().iter().map(|&v| bits(v)).collect::<Vec<_>>();
        assert_eq!(top(&got.top), top(&want.top), "top, {ctx}");
        let pristine = fresh();
        for lj in 0..a.nloc {
            for li in 0..a.mloc {
                let in_panel = (g.lj0..g.lj0 + jb).contains(&lj) && li >= g.lb;
                let want = if in_panel {
                    copy.get(li - g.lb, lj - g.lj0)
                } else {
                    pristine.get(li, lj)
                };
                assert_eq!(bits(a.get(li, lj)), bits(want), "A({li}, {lj}), {ctx}");
            }
        }
    });
}

#[test]
fn factoring_a_strided_view_equals_factoring_a_copy() {
    let (n, nb) = (100, 16);
    for p in [1, 2] {
        // A full-width panel and the ragged last one (jb = 4).
        for it in [2, 6] {
            for threads in [1, 2] {
                for (variant, nbmin, ndiv) in [
                    (FactVariant::Right, 16, 2),
                    (FactVariant::Right, 4, 3),
                    (FactVariant::Left, 1, 2),
                    (FactVariant::Crout, 8, 4),
                ] {
                    let opts = FactOpts {
                        variant,
                        ndiv,
                        nbmin,
                        threads,
                    };
                    check::<f64>(p, n, nb, it, opts);
                    check::<f32>(p, n, nb, it, opts);
                }
            }
        }
    }
}
