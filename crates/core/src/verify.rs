//! HPL's solution verification: the scaled residual
//! `r = ||A x - b||_inf / (eps * (||A||_inf * ||x||_inf + ||b||_inf) * N)`
//! must be below 16.0 for the run to pass, computed against the original
//! system regenerated one column at a time (the factorization destroyed the
//! one in place). HPL-MxP's refinement sweeps call the same [`residual`],
//! so the sweep that stops its loop is this verification.

use hpl_blas::kernels::{self, Tier};
use hpl_comm::{Grid, Op};

use crate::dist::Axis;
use crate::error::HplError;
use crate::local::{axes, System};

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

/// The verifier proper: the [`Residuals`] half of [`residual`], scaled by
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
    residual(grid, n, nb, system, x, eps).map(|(_, res)| res)
}

/// The residual `b - A x` of `x` against the original `n`-row `system`,
/// blocked by `nb`, replicated on every rank, with its HPL scaling by
/// `eps`. It streams: each local column of `A` (not the appended `b`
/// column) is regenerated into one buffer and consumed before the next,
/// so the call holds `O(mloc + n)` entries, never the local slice. One
/// pass yields both the partial `A x` and the partial `|A|` row sums of
/// `||A||_inf`; the partials are then summed across the grid and scaled.
/// Collective over the grid.
pub fn residual(
    grid: &Grid,
    n: usize,
    nb: usize,
    system: System<'_>,
    x: &[f64],
    eps: f64,
) -> Result<(Vec<f64>, Residuals), HplError> {
    assert_eq!(x.len(), n);
    let (rows, cols) = axes(n, nb, grid);
    let mloc = rows.local_len();
    let tier = kernels::active().tier();
    let mut col = vec![0.0f64; mloc];
    let mut ax_local = vec![0.0f64; mloc];
    let mut row_sums = vec![0.0f64; mloc];
    for lj in 0..cols.local_len() {
        let g = cols.to_global(lj);
        if g >= n {
            continue;
        }
        system.fill_column(n, rows, g, &mut col);
        accumulate(tier, &col, x[g], &mut ax_local, &mut row_sums);
    }
    reduce_and_scale(grid, rows, ax_local, row_sums, &system.rhs(n), x, eps)
}

/// One column of the residual walk, row by row: `y += a * xv` (skipped
/// when `xv` is zero) and `s += |a|`. On x86-64 the AVX-512 tier runs
/// [`accumulate_body`] compiled for 512-bit registers; every other tier
/// runs the portable build (an AVX2 build gained too little to keep, see
/// EXPERIMENTS.md). Neither build may fuse — Rust never contracts a
/// separate multiply and add — and the lanes run across rows, each row's
/// sum still taking the columns in order, so both give the same bits.
fn accumulate(tier: Tier, col: &[f64], xv: f64, y: &mut [f64], s: &mut [f64]) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => {
            // SAFETY: a kernel of the Avx512 tier is only constructed
            // after avx512f was detected on this CPU.
            unsafe { accumulate_avx512(col, xv, y, s) }
        }
        _ => accumulate_body(col, xv, y, s),
    }
}

/// [`accumulate_body`] compiled for 512-bit registers.
///
/// # Safety
/// The CPU must support the `avx512f` target feature.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn accumulate_avx512(col: &[f64], xv: f64, y: &mut [f64], s: &mut [f64]) {
    accumulate_body(col, xv, y, s)
}

/// The portable body of [`accumulate`].
#[inline(always)]
fn accumulate_body(col: &[f64], xv: f64, y: &mut [f64], s: &mut [f64]) {
    if xv != 0.0 {
        for ((yi, si), &aij) in y.iter_mut().zip(s.iter_mut()).zip(col) {
            *yi += aij * xv;
            *si += aij.abs();
        }
    } else {
        for (si, &aij) in s.iter_mut().zip(col) {
            *si += aij.abs();
        }
    }
}

/// The collective end of [`residual`]: sums this rank's partial `A x`
/// (`ax_local`) and `|A|` row sums across the grid, forms `r = b - A x`
/// and scales it.
fn reduce_and_scale(
    grid: &Grid,
    rows: Axis,
    mut ax_local: Vec<f64>,
    mut row_sums: Vec<f64>,
    b: &[f64],
    x: &[f64],
    eps: f64,
) -> Result<(Vec<f64>, Residuals), HplError> {
    let n = rows.n;
    assert_eq!(b.len(), n);
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
    use hpl_blas::kernels::Kernel;
    use hpl_comm::{GridOrder, Universe};

    #[test]
    fn residual_matches_serial() {
        let (n, nb, p, q) = (20usize, 4usize, 2usize, 2usize);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let outs = Universe::run(p * q, |comm| {
            let grid = Grid::new(comm, p, q, GridOrder::ColumnMajor);
            residual(&grid, n, nb, System::Seeded(9), &x, f64::EPSILON).unwrap()
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

    /// The streamed walk is, bit for bit, the same walk run by a plain loop
    /// over the materialized `f64` slice — on grids where some ranks own a
    /// partial block (NB does not divide N), for both kinds of system —
    /// and `verify_system` is its `Residuals` half.
    #[test]
    fn streaming_verify_is_residual_bit_for_bit() {
        let (n, nb) = (37usize, 5usize);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let fill = |i: usize, j: usize| ((i * 31 + j * 17) % 97) as f64 / 97.0 - 0.5;
        let bits =
            |r: &Residuals| [r.err_inf, r.a_inf, r.x_inf, r.b_inf, r.scaled].map(f64::to_bits);
        let vbits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        for (p, q) in [(1usize, 1usize), (2, 1), (3, 2)] {
            for system in [System::Seeded(13), System::Fill(&fill)] {
                let outs = Universe::run(p * q, |comm| {
                    let grid = Grid::new(comm, p, q, GridOrder::ColumnMajor);
                    let a = system.local::<f64>(n, nb, &grid);
                    let mut ax = vec![0.0f64; a.mloc];
                    let mut sums = vec![0.0f64; a.mloc];
                    for lj in 0..a.nloc {
                        let g = a.cols.to_global(lj);
                        if g < n {
                            for ((yi, si), &aij) in ax.iter_mut().zip(&mut sums).zip(a.col(lj)) {
                                if x[g] != 0.0 {
                                    *yi += aij * x[g];
                                }
                                *si += aij.abs();
                            }
                        }
                    }
                    let held =
                        reduce_and_scale(&grid, a.rows, ax, sums, &system.rhs(n), &x, f64::EPSILON)
                            .unwrap();
                    let streamed = residual(&grid, n, nb, system, &x, f64::EPSILON).unwrap();
                    let verified = verify_system(&grid, n, nb, system, &x, f64::EPSILON).unwrap();
                    assert_eq!(bits(&streamed.1), bits(&verified));
                    (
                        (vbits(&held.0), bits(&held.1)),
                        (vbits(&streamed.0), bits(&streamed.1)),
                    )
                });
                for (held, streamed) in outs {
                    assert_eq!(held, streamed, "{p}x{q}");
                }
            }
        }
    }

    /// Every tier's build of the column walk gives the portable body's bits:
    /// every column length through a few vectors and a tail, a zero and a
    /// nonzero `x` entry, signed zeros, subnormals and magnitudes whose
    /// products and sums overflow.
    #[test]
    fn every_tier_walks_a_column_bit_for_bit() {
        let specials = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 3.0,
            f64::MAX / 2.0,
            -f64::MAX,
            1.0e300,
            -3.5e-310,
        ];
        let entry = |k: usize, salt: usize| {
            if (k + salt).is_multiple_of(3) {
                specials[(k * 5 + salt) % specials.len()]
            } else {
                ((k * 37 + salt * 11) % 101) as f64 / 101.0 - 0.5
            }
        };
        let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        for kern in Kernel::available() {
            for len in 0..=67usize {
                let col: Vec<f64> = (0..len).map(|k| entry(k, 1)).collect();
                let y0: Vec<f64> = (0..len).map(|k| entry(k, 2)).collect();
                let s0: Vec<f64> = (0..len).map(|k| entry(k, 4).abs()).collect();
                for xv in [0.0, -0.0, 0.75, -1.0e10, 3.0e-320, f64::MAX] {
                    let (mut y, mut s) = (y0.clone(), s0.clone());
                    accumulate(kern.tier(), &col, xv, &mut y, &mut s);
                    let (mut y_ref, mut s_ref) = (y0.clone(), s0.clone());
                    accumulate_body(&col, xv, &mut y_ref, &mut s_ref);
                    let at = format!("{} len={len} xv={xv:e}", kern.isa());
                    assert_eq!(bits(&y), bits(&y_ref), "A x, {at}");
                    assert_eq!(bits(&s), bits(&s_ref), "row sums, {at}");
                }
            }
        }
    }
}
