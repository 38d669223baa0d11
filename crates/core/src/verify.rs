//! HPL's solution verification: the scaled residual
//! `r = ||A x - b||_inf / (eps * (||A||_inf * ||x||_inf + ||b||_inf) * N)`
//! must be below 16.0 for the run to pass, computed against the original
//! system regenerated one column at a time (the factorization destroyed the
//! one in place).

use hpl_blas::mat::MatRef;
use hpl_comm::{Grid, Op};

use crate::dist::Axis;
use crate::error::HplError;
use crate::local::{axes, LocalMatrix, System};

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

/// The verifier proper: regenerates `system` column by column and scales
/// the residual by `eps` — a pure `f32` factorization is judged against
/// `f32` accuracy ([`hpl_blas::Element::UNIT_ROUNDOFF`]), while
/// mixed-precision refinement must recover `f64::EPSILON`-scaled accuracy
/// to pass. It streams: each local column is generated into one buffer and
/// consumed before the next, so it holds `O(mloc + n)` entries, never the
/// local slice, and its result is [`residual`]'s on that slice bit for bit
/// (the same walk reads both). Collective over the grid.
pub fn verify_system(
    grid: &Grid,
    n: usize,
    nb: usize,
    system: System<'_>,
    x: &[f64],
    eps: f64,
) -> Result<Residuals, HplError> {
    let (rows, cols) = axes(n, nb, grid);
    let mut streamed = Streamed {
        system,
        rows,
        col: vec![0.0; rows.local_len()],
    };
    let (_, res) = residual_walk(grid, rows, cols, &mut streamed, &system.rhs(n), x, eps)?;
    Ok(res)
}

/// The residual `b - A x` of `x` against an original system that is
/// already in memory — this rank's unfactored slice `a` and the whole
/// right-hand side `b` — replicated on every rank, with its HPL scaling
/// by `eps`. Collective over the grid.
pub fn residual(
    grid: &Grid,
    a: &LocalMatrix<f64>,
    b: &[f64],
    x: &[f64],
    eps: f64,
) -> Result<(Vec<f64>, Residuals), HplError> {
    residual_walk(grid, a.rows, a.cols, &mut a.view(), b, x, eps)
}

/// Where [`residual_walk`] reads the original system's local columns.
trait Columns {
    /// Local column `lj`, which is global column `g`.
    fn column(&mut self, lj: usize, g: usize) -> &[f64];
}

/// A slice already in memory.
impl Columns for MatRef<'_, f64> {
    fn column(&mut self, lj: usize, _g: usize) -> &[f64] {
        self.col(lj)
    }
}

/// A system regenerated into one column buffer per call.
struct Streamed<'s> {
    system: System<'s>,
    rows: Axis,
    col: Vec<f64>,
}

impl Columns for Streamed<'_> {
    fn column(&mut self, _lj: usize, g: usize) -> &[f64] {
        self.system
            .fill_column(self.rows.n, self.rows, g, &mut self.col);
        &self.col
    }
}

/// The one residual walk behind [`residual`] and [`verify_system`]: one
/// pass over the local columns of `A` (not the appended `b` column) yields
/// both the partial `A x` and the partial `|A|` row sums of `||A||_inf`,
/// then the partials are summed across the grid and scaled.
fn residual_walk(
    grid: &Grid,
    rows: Axis,
    cols: Axis,
    a: &mut impl Columns,
    b: &[f64],
    x: &[f64],
    eps: f64,
) -> Result<(Vec<f64>, Residuals), HplError> {
    let n = rows.n;
    assert_eq!(x.len(), n);
    assert_eq!(b.len(), n);
    let mloc = rows.local_len();
    let mut ax_local = vec![0.0f64; mloc];
    let mut row_sums = vec![0.0f64; mloc];
    for lj in 0..cols.local_len() {
        let g = cols.to_global(lj);
        if g >= n {
            continue;
        }
        let col = a.column(lj, g);
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
        r[rows.to_global(li)] = v;
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

    /// The streaming verifier reads the same columns through the same walk
    /// as [`residual`] over the materialized slice, so every field of its
    /// report is the same bits — on grids where some ranks own a partial
    /// block (NB does not divide N), for both kinds of system.
    #[test]
    fn streaming_verify_is_residual_bit_for_bit() {
        let (n, nb) = (37usize, 5usize);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let fill = |i: usize, j: usize| ((i * 31 + j * 17) % 97) as f64 / 97.0 - 0.5;
        let bits =
            |r: &Residuals| [r.err_inf, r.a_inf, r.x_inf, r.b_inf, r.scaled].map(f64::to_bits);
        for (p, q) in [(1usize, 1usize), (2, 1), (3, 2)] {
            for system in [System::Seeded(13), System::Fill(&fill)] {
                let outs = Universe::run(p * q, |comm| {
                    let grid = Grid::new(comm, p, q, GridOrder::ColumnMajor);
                    let a = system.local(n, nb, &grid);
                    let (_, held) = residual(&grid, &a, &system.rhs(n), &x, f64::EPSILON).unwrap();
                    let streamed = verify_system(&grid, n, nb, system, &x, f64::EPSILON).unwrap();
                    (bits(&held), bits(&streamed))
                });
                for (held, streamed) in outs {
                    assert_eq!(held, streamed, "{p}x{q}");
                }
            }
        }
    }
}
