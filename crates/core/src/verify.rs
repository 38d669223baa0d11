//! HPL's solution verification: the scaled residual
//! `r = ||A x - b||_inf / (eps * (||A||_inf * ||x||_inf + ||b||_inf) * N)`
//! must be below 16.0 for the run to pass, computed against a *freshly
//! regenerated* copy of the original system (the factorization destroyed
//! the one in place).

use hpl_comm::{Grid, Op};

use crate::error::HplError;
use crate::local::{LocalMatrix, System};

/// Verification report.
#[derive(Clone, Copy, Debug)]
pub struct Residuals {
    /// `||A x - b||_inf`.
    pub err_inf: f64,
    /// `||A||_inf` of the original matrix.
    pub a_inf: f64,
    /// `||x||_inf`.
    pub x_inf: f64,
    /// `||b||_inf`.
    pub b_inf: f64,
    /// The HPL scaled residual.
    pub scaled: f64,
}

impl Residuals {
    /// HPL's pass threshold.
    pub const THRESHOLD: f64 = 16.0;

    /// Whether the run passes HPL's check.
    pub fn passed(&self) -> bool {
        self.scaled < Self::THRESHOLD
    }
}

/// Computes the scaled residual for solution `x`. Regenerates the original
/// system from `(seed, n, nb)` so it can be called after the in-place
/// factorization. Collective over the grid.
pub fn verify(
    grid: &Grid,
    n: usize,
    nb: usize,
    seed: u64,
    x: &[f64],
) -> Result<Residuals, HplError> {
    verify_system(grid, n, nb, System::Seeded(seed), x, f64::EPSILON)
}

/// The verifier proper: regenerates `system` and scales the residual by
/// `eps` — a pure `f32` factorization is judged against `f32` accuracy
/// ([`hpl_blas::Element::UNIT_ROUNDOFF`]), while mixed-precision
/// refinement must recover `f64::EPSILON`-scaled accuracy to pass.
/// Collective over the grid.
pub fn verify_system(
    grid: &Grid,
    n: usize,
    nb: usize,
    system: System<'_>,
    x: &[f64],
    eps: f64,
) -> Result<Residuals, HplError> {
    let a: LocalMatrix<f64> = system.local(n, nb, grid);
    let (_, res) = residual(grid, &a, &system.rhs(n), x, eps)?;
    Ok(res)
}

/// The residual `b - A x` of `x` against an original system that is
/// already in memory — this rank's unfactored slice `a` and the whole
/// right-hand side `b` — replicated on every rank, with its HPL scaling
/// by `eps`. One walk over `a` yields both the partial `A x` and the
/// partial `|A|` row sums of `||A||_inf`. Collective over the grid.
pub fn residual(
    grid: &Grid,
    a: &LocalMatrix<f64>,
    b: &[f64],
    x: &[f64],
    eps: f64,
) -> Result<(Vec<f64>, Residuals), HplError> {
    let n = a.rows.n;
    assert_eq!(x.len(), n);
    assert_eq!(b.len(), n);
    let av = a.view();
    let mut ax_local = vec![0.0f64; a.mloc];
    let mut row_sums = vec![0.0f64; a.mloc];
    // Local columns only, excluding the appended b column.
    for lj in 0..a.nloc {
        let g = a.cols.to_global(lj);
        if g >= n {
            continue;
        }
        let col = av.col(lj);
        let xv = x[g];
        if xv != 0.0 {
            for ((yi, si), &aij) in ax_local.iter_mut().zip(&mut row_sums).zip(col) {
                *yi += aij * xv;
                *si += aij.abs();
            }
        } else {
            for (si, &aij) in row_sums.iter_mut().zip(col) {
                *si += aij.abs();
            }
        }
    }
    // A x: sum the partials across the process row, scatter into global
    // positions, then sum across the process column (one owner per row).
    hpl_comm::allreduce(grid.row(), Op::Sum, &mut ax_local)?;
    let mut r = vec![0.0f64; n];
    for (li, &v) in ax_local.iter().enumerate() {
        r[a.rows.to_global(li)] = v;
    }
    hpl_comm::allreduce(grid.col(), Op::Sum, &mut r)?;
    // ||A||_inf: global row sums across the process row, maxed down the
    // process column.
    hpl_comm::allreduce(grid.row(), Op::Sum, &mut row_sums)?;
    let mut a_inf = [row_sums.into_iter().fold(0.0f64, f64::max)];
    hpl_comm::allreduce(grid.col(), Op::Max, &mut a_inf)?;
    let a_inf = a_inf[0];

    let mut err_inf = 0.0f64;
    let mut b_inf = 0.0f64;
    for (ri, &bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
        err_inf = err_inf.max(ri.abs());
        b_inf = b_inf.max(bi.abs());
    }
    let x_inf = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let scaled = err_inf / (eps * (a_inf * x_inf + b_inf) * n as f64);
    Ok((
        r,
        Residuals {
            err_inf,
            a_inf,
            x_inf,
            b_inf,
            scaled,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpl_comm::{GridOrder, Universe};

    #[test]
    fn residual_matches_serial() {
        let (n, nb, p, q) = (20usize, 4usize, 2usize, 2usize);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let outs = Universe::run(p * q, |comm| {
            let grid = Grid::new(comm, p, q, GridOrder::ColumnMajor);
            let system = System::Seeded(9);
            let a = system.local(n, nb, &grid);
            residual(&grid, &a, &system.rhs(n), &x, f64::EPSILON).unwrap()
        });
        // Serial reference from the generator.
        let gen = crate::rng::MatGen::new(9, n);
        let mut want = vec![0.0f64; n];
        let mut a_inf = 0.0f64;
        for (i, w) in want.iter_mut().enumerate() {
            let mut ax = 0.0;
            let mut row = 0.0;
            for (j, &xj) in x.iter().enumerate() {
                ax += gen.entry(i, j) * xj;
                row += gen.entry(i, j).abs();
            }
            *w = gen.entry(i, n) - ax;
            a_inf = a_inf.max(row);
        }
        for (r, res) in outs {
            for (got, wantv) in r.iter().zip(&want) {
                assert!((got - wantv).abs() < 1e-10);
            }
            assert!((res.a_inf - a_inf).abs() < 1e-10);
        }
    }
}
