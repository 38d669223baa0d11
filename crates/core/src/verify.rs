//! HPL's solution verification: the scaled residual
//! `r = ||A x - b||_inf / (eps * (||A||_inf * ||x||_inf + ||b||_inf) * N)`
//! must be below 16.0 for the run to pass, computed against the original
//! system regenerated a block of columns at a time (the factorization
//! destroyed the one in place). HPL-MxP's refinement sweeps call the same [`residual`],
//! so the sweep that stops its loop is this verification.

use hpl_blas::kernels::{self, Tier};
use hpl_comm::{Grid, Op};

use crate::dist::Axis;
use crate::error::HplError;
use crate::local::{axes, ColumnCursor, System};

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

/// Local columns the residual walk regenerates and accumulates together:
/// a row of `A x` and of the row sums is loaded and stored once per block
/// instead of once per column.
const COL_BLOCK: usize = 8;
/// Local rows the walk regenerates a block's columns for at a time (at
/// P > 1 rounded to whole row blocks): the block's chunk (16 KiB) and its
/// rows of `A x` and of the row sums (4 KiB) stay in L1.
const ROW_CHUNK: usize = 256;

/// The residual `b - A x` of `x` against the original `n`-row `system`,
/// blocked by `nb`, replicated on every rank, with its HPL scaling by
/// `eps`. It streams: the local columns of `A` (not the appended `b`
/// column) are taken [`COL_BLOCK`] at a time, and each block is
/// regenerated and consumed a chunk of about [`ROW_CHUNK`] local rows at a
/// time, so the call holds `O(mloc + n)` entries, never the local slice.
/// One pass yields both the partial `A x` and the partial `|A|` row sums
/// of `||A||_inf`; the partials are then summed across the grid and
/// scaled. Collective over the grid.
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
    let walk = system.column_chunks(n, rows, ROW_CHUNK);
    let chunk = walk.rows_per_chunk;
    let mut block = vec![0.0f64; COL_BLOCK * chunk.min(mloc)];
    let mut cursors = [ColumnCursor::default(); COL_BLOCK];
    let mut xs = [0.0f64; COL_BLOCK];
    let mut ax_local = vec![0.0f64; mloc];
    let mut row_sums = vec![0.0f64; mloc];
    let mut globals = (0..cols.local_len())
        .map(|lj| cols.to_global(lj))
        .filter(|&g| g < n);
    loop {
        let mut width = 0;
        for g in globals.by_ref().take(COL_BLOCK) {
            cursors[width] = walk.start(g);
            xs[width] = x[g];
            width += 1;
        }
        if width == 0 {
            break;
        }
        for li0 in (0..mloc).step_by(chunk) {
            let li1 = mloc.min(li0 + chunk);
            let block = &mut block[..width * (li1 - li0)];
            for (cur, col) in cursors.iter_mut().zip(block.chunks_exact_mut(li1 - li0)) {
                walk.fill_next(cur, col);
            }
            accumulate(
                tier,
                block,
                &xs[..width],
                &mut ax_local[li0..li1],
                &mut row_sums[li0..li1],
            );
        }
    }
    reduce_and_scale(grid, rows, ax_local, row_sums, &system.rhs(n), x, eps)
}

/// A block of columns of the residual walk: `block` holds `xs.len()`
/// columns of `y.len()` rows, column-major, and column `c` adds
/// `a * xs[c]` to `y` (skipped when `xs[c]` is zero) and `|a|` to `s`,
/// row by row. On x86-64 the AVX-512 tier runs [`accumulate_body`]
/// compiled for 512-bit registers; every other tier runs the portable
/// build (an AVX2 build gained too little to keep, see EXPERIMENTS.md).
/// Neither build may fuse — Rust never contracts a separate multiply and
/// add — and the lanes run across rows, each row taking its columns in
/// ascending order, so both give the bits of a walk one column at a time.
fn accumulate(tier: Tier, block: &[f64], xs: &[f64], y: &mut [f64], s: &mut [f64]) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => {
            // SAFETY: a kernel of the Avx512 tier is only constructed
            // after avx512f was detected on this CPU.
            unsafe { accumulate_avx512(block, xs, y, s) }
        }
        _ => accumulate_body(block, xs, y, s),
    }
}

/// [`accumulate_body`] compiled for 512-bit registers.
///
/// # Safety
/// The CPU must support the `avx512f` target feature.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn accumulate_avx512(block: &[f64], xs: &[f64], y: &mut [f64], s: &mut [f64]) {
    accumulate_body(block, xs, y, s)
}

/// The portable body of [`accumulate`]. A full block whose `x` entries are
/// all nonzero (every block of a typical solve but the last) holds each
/// row's two sums in registers across its [`COL_BLOCK`] columns; any other
/// block goes one column at a time.
#[inline(always)]
fn accumulate_body(block: &[f64], xs: &[f64], y: &mut [f64], s: &mut [f64]) {
    let m = y.len();
    debug_assert!(block.len() == m * xs.len() && s.len() == m);
    if m == 0 {
        return;
    }
    if xs.len() == COL_BLOCK && xs.iter().all(|&v| v != 0.0) {
        let mut cols: [&[f64]; COL_BLOCK] = [&[]; COL_BLOCK];
        for (c, col) in cols.iter_mut().enumerate() {
            *col = &block[c * m..(c + 1) * m];
        }
        for i in 0..m {
            let (mut yi, mut si) = (y[i], s[i]);
            for c in 0..COL_BLOCK {
                let a = cols[c][i];
                yi += a * xs[c];
                si += a.abs();
            }
            y[i] = yi;
            s[i] = si;
        }
        return;
    }
    for (col, &xv) in block.chunks_exact(m).zip(xs) {
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

    /// The per-column walk the blocked one must reproduce: for one column,
    /// row by row, `y += a * xv` unless `xv` is zero, and `s += |a|`.
    fn column_oracle(col: &[f64], xv: f64, y: &mut [f64], s: &mut [f64]) {
        for ((yi, si), &aij) in y.iter_mut().zip(s.iter_mut()).zip(col) {
            if xv != 0.0 {
                *yi += aij * xv;
            }
            *si += aij.abs();
        }
    }

    /// The streamed, blocked walk is, bit for bit, the per-column walk run
    /// over the materialized `f64` slice — on grids where some ranks own a
    /// partial block (NB does not divide N), with local row counts above
    /// and not a multiple of the row chunk and local column counts not a
    /// multiple of `COL_BLOCK`, with full blocks of nonzero `x` entries and
    /// blocks holding zero entries of both signs, for both kinds of system
    /// — and `verify_system` is its `Residuals` half.
    #[test]
    fn streaming_verify_is_residual_bit_for_bit() {
        let fill = |i: usize, j: usize| ((i * 31 + j * 17) % 97) as f64 / 97.0 - 0.5;
        let bits =
            |r: &Residuals| [r.err_inf, r.a_inf, r.x_inf, r.b_inf, r.scaled].map(f64::to_bits);
        let vbits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        let cases = [
            (
                37usize,
                5usize,
                [(1usize, 1usize), (2, 1), (3, 2)].as_slice(),
            ),
            (555, 16, [(1, 1), (2, 2)].as_slice()),
        ];
        for (n, nb, grids) in cases {
            assert!(n % COL_BLOCK != 0 && n % ROW_CHUNK != 0);
            // Zeros of both signs in the first columns only, so later
            // blocks are full and nonzero.
            let x: Vec<f64> = (0..n)
                .map(|i| match i {
                    0 | 9 => 0.0,
                    3 => -0.0,
                    _ => (i as f64 * 0.7).cos() + 2.0,
                })
                .collect();
            for &(p, q) in grids {
                for system in [System::Seeded(13), System::Fill(&fill)] {
                    let outs = Universe::run(p * q, |comm| {
                        let grid = Grid::new(comm, p, q, GridOrder::ColumnMajor);
                        let a = system.local::<f64>(n, nb, &grid);
                        let mut ax = vec![0.0f64; a.mloc];
                        let mut sums = vec![0.0f64; a.mloc];
                        for lj in 0..a.nloc {
                            let g = a.cols.to_global(lj);
                            if g < n {
                                column_oracle(a.col(lj), x[g], &mut ax, &mut sums);
                            }
                        }
                        let rhs = system.rhs(n);
                        let held =
                            reduce_and_scale(&grid, a.rows, ax, sums, &rhs, &x, f64::EPSILON)
                                .unwrap();
                        let streamed = residual(&grid, n, nb, system, &x, f64::EPSILON).unwrap();
                        let verified =
                            verify_system(&grid, n, nb, system, &x, f64::EPSILON).unwrap();
                        assert_eq!(bits(&streamed.1), bits(&verified));
                        (
                            (vbits(&held.0), bits(&held.1)),
                            (vbits(&streamed.0), bits(&streamed.1)),
                        )
                    });
                    for (held, streamed) in outs {
                        assert_eq!(held, streamed, "N={n} {p}x{q}");
                    }
                }
            }
        }
    }

    /// Every tier's build of the blocked walk gives the per-column
    /// oracle's bits: every block width through `COL_BLOCK`, row counts
    /// through a few vectors and a tail, blocks whose `x` entries are all
    /// nonzero, mixed and all zeros of either sign, signed zeros,
    /// subnormals, infinities and magnitudes whose products and sums
    /// overflow.
    #[test]
    fn every_tier_walks_a_block_bit_for_bit() {
        let specials = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 3.0,
            f64::MAX / 2.0,
            -f64::MAX,
            1.0e300,
            -3.5e-310,
            f64::INFINITY,
        ];
        let entry = |k: usize, salt: usize| {
            if (k + salt).is_multiple_of(3) {
                specials[(k * 5 + salt) % specials.len()]
            } else {
                ((k * 37 + salt * 11) % 101) as f64 / 101.0 - 0.5
            }
        };
        let xvs = [0.0, -0.0, 0.75, -1.0e10, 3.0e-320, f64::MAX, 0.0, -2.5];
        let nonzero = [
            0.75,
            -1.0e10,
            3.0e-320,
            f64::MAX,
            -2.5,
            1.0,
            -f64::MAX,
            1.0e-300,
        ];
        let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        let lens = (0..=19usize).chain([64, 67, 300]);
        for kern in Kernel::available() {
            for len in lens.clone() {
                let y0: Vec<f64> = (0..len).map(|k| entry(k, 2)).collect();
                let s0: Vec<f64> = (0..len).map(|k| entry(k, 4).abs()).collect();
                for width in 0..=COL_BLOCK {
                    // Mixed zero and nonzero `x`, all nonzero, all zero.
                    for shift in [0, 3, 8, 13, 16] {
                        let pick = |c: usize| {
                            let k = (c + shift) % 8;
                            match shift {
                                0..8 => xvs[k],
                                8..16 => nonzero[k],
                                _ => xvs[k % 2],
                            }
                        };
                        let xs: Vec<f64> = (0..width).map(pick).collect();
                        let block: Vec<f64> =
                            (0..width * len).map(|k| entry(k, 1 + shift)).collect();
                        let (mut y, mut s) = (y0.clone(), s0.clone());
                        accumulate(kern.tier(), &block, &xs, &mut y, &mut s);
                        let (mut y_ref, mut s_ref) = (y0.clone(), s0.clone());
                        for (c, &xv) in xs.iter().enumerate() {
                            let col = &block[c * len..(c + 1) * len];
                            column_oracle(col, xv, &mut y_ref, &mut s_ref);
                        }
                        let at = format!("{} len={len} width={width} xs={xs:?}", kern.isa());
                        assert_eq!(bits(&y), bits(&y_ref), "A x, {at}");
                        assert_eq!(bits(&s), bits(&s_ref), "row sums, {at}");
                    }
                }
            }
        }
    }
}
