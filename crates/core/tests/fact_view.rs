//! `panel_factor` on a view inside the local matrix — how the driver factors
//! since it stopped copying the panel out to a host buffer — must be
//! bitwise the factorization of a contiguous copy: same `top`, same pivots,
//! same factored `L`, and nothing outside the view touched. On the rank
//! owning the diagonal block the factored block is left where it lives:
//! the view's leading `jb` rows are `FactOut::top` bit for bit. The view
//! has `lda > mp` and non-zero row and column offsets; process columns of
//! one rank and of two (one rank with the diagonal block, one without),
//! one to three FACT threads, every variant and several `NBMIN` / `NDIV`;
//! random panels, a diagonally dominant one (no row moves) and one whose
//! pivots all come from the last rows. Under a debug build the aliasing
//! ledger checks the threaded tile protocol on the strided view.

use hpl_blas::mat::Matrix;
use hpl_blas::Element;
use hpl_comm::{Grid, GridOrder, Universe, WireElem};
use hpl_threads::Pool;
use rhpl_core::fact::{panel_factor, FactInput};
use rhpl_core::panel::PanelGeom;
use rhpl_core::{FactOpts, FactVariant, MatGen, System};

fn bits<E: Element>(v: E) -> u64 {
    v.to_f64().to_bits()
}

/// Which matrix the panel is cut from.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// HPL's seeded random matrix.
    Random,
    /// Random plus `2N` on the diagonal: column diagonally dominant, so
    /// partial pivoting picks row `k` at every step.
    DiagDominant,
    /// Random plus a large entry at global row `N - jb + q` of panel column
    /// `q`: step `q` pivots on that row, so every pivot comes from the last
    /// `jb` rows — on one rank, the panel's last tile.
    LastRows,
}

fn check<E: WireElem>(p: usize, n: usize, nb: usize, it: usize, opts: FactOpts, shape: Shape) {
    let k0 = it * nb;
    let jb = nb.min(n - k0);
    let gen = MatGen::new(11, n);
    let fill = |i: usize, j: usize| {
        let big = match shape {
            Shape::Random => false,
            Shape::DiagDominant => i == j,
            Shape::LastRows => (k0..k0 + jb).contains(&j) && i == n - jb + (j - k0),
        };
        gen.entry(i, j) + if big { 2.0 * n as f64 } else { 0.0 }
    };
    let want_ipiv: Option<Vec<usize>> = match shape {
        Shape::Random => None,
        Shape::DiagDominant => Some((k0..k0 + jb).collect()),
        Shape::LastRows => Some((n - jb..n).collect()),
    };
    Universe::run(p, |comm| {
        let grid = Grid::new(comm, p, 1, GridOrder::ColumnMajor);
        let pool = Pool::new(3);
        let fresh = || match shape {
            Shape::Random => System::Seeded(11).local::<E>(n, nb, &grid),
            _ => System::Fill(&fill).local::<E>(n, nb, &grid),
        };
        let mut a = fresh();
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

        let ctx = format!("P={p} it={it} rank={} {shape:?} {opts:?}", grid.myrow());
        assert_eq!(got.ipiv, want.ipiv, "ipiv, {ctx}");
        if let Some(w) = &want_ipiv {
            assert_eq!(&got.ipiv, w, "designed pivots, {ctx}");
        }
        let top = |m: &Matrix<E>| m.as_slice().iter().map(|&v| bits(v)).collect::<Vec<_>>();
        assert_eq!(top(&got.top), top(&want.top), "top, {ctx}");
        if g.in_curr_row {
            for j in 0..jb {
                for i in 0..jb {
                    assert_eq!(
                        bits(a.get(g.lb + i, g.lj0 + j)),
                        bits(got.top.get(i, j)),
                        "diagonal block ({i}, {j}) in place, {ctx}"
                    );
                }
            }
        }
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

/// Every variant and recursion shape at one to three FACT threads.
fn opts_matrix() -> impl Iterator<Item = FactOpts> {
    [1, 2, 3].into_iter().flat_map(|threads| {
        [
            (FactVariant::Right, 16, 2),
            (FactVariant::Right, 4, 3),
            (FactVariant::Left, 1, 2),
            (FactVariant::Crout, 8, 4),
        ]
        .into_iter()
        .map(move |(variant, nbmin, ndiv)| FactOpts {
            variant,
            ndiv,
            nbmin,
            threads,
        })
    })
}

#[test]
fn factoring_a_strided_view_equals_factoring_a_copy() {
    let (n, nb) = (100, 16);
    for p in [1, 2] {
        // A full-width panel and the ragged last one (jb = 4).
        for it in [2, 6] {
            for opts in opts_matrix() {
                check::<f64>(p, n, nb, it, opts, Shape::Random);
                check::<f32>(p, n, nb, it, opts, Shape::Random);
            }
        }
    }
}

/// `N = 96`, `NB = 16`, panel 2: on one rank the local panel is four full
/// tiles, so the last `jb` rows are exactly its last tile.
#[test]
fn panels_with_no_row_moves_and_with_every_pivot_in_the_last_tile() {
    let (n, nb, it) = (96, 16, 2);
    for p in [1, 2] {
        for shape in [Shape::DiagDominant, Shape::LastRows] {
            for opts in opts_matrix() {
                check::<f64>(p, n, nb, it, opts, shape);
                check::<f32>(p, n, nb, it, opts, shape);
            }
        }
    }
}
