//! Distributed backward substitution (HPL's `pdtrsv`): solves
//! `U x = b_hat` after the elimination has reduced the augmented system,
//! block row by block row from the bottom, with a row-communicator
//! reduction to assemble each block's right-hand side and a
//! column-communicator broadcast of each solved block.

use hpl_blas::{dtrsv, Diag, Trans, Uplo};
use hpl_comm::{allgatherv, bcast, reduce, Grid, Op, WireElem};

use crate::error::HplError;
use crate::local::LocalMatrix;

/// Solves `U x = b_hat` where `U` is the factored upper triangle stored in
/// the distributed local matrices and `b_hat` is the transformed right-hand
/// side in global column `n`. Returns the full solution vector, replicated
/// on every rank. Collective over the grid.
pub fn back_substitute<E: WireElem>(
    a: &LocalMatrix<E>,
    grid: &Grid,
    nb: usize,
) -> Result<Vec<E>, HplError> {
    let n = a.rows.n;
    let cb = a.cols.owner(n); // process column holding b
    let nblocks = n.div_ceil(nb);
    // Accumulated U[rows above solved blocks] * x contributions for this
    // rank's local rows (only its own column blocks contribute).
    let mut contrib = vec![E::ZERO; a.mloc];
    // Solved x blocks this process column owns, keyed by local col offset.
    let mut x_parts: Vec<(usize, Vec<E>)> = Vec::new();
    let av = a.view();

    for j in (0..nblocks).rev() {
        let j0 = j * nb;
        let jbw = nb.min(n - j0);
        let prow_j = a.rows.owner(j0);
        let pcol_j = a.cols.owner(j0);
        let mut xj: Option<Vec<E>> = None;
        if grid.myrow() == prow_j {
            // Partial r_j on this rank: b part (if we hold b) minus our
            // accumulated contributions for the block's rows.
            let lb = a.rows.to_local(j0);
            let mut r = vec![E::ZERO; jbw];
            if grid.mycol() == cb {
                let ljb = a.cols.to_local(n);
                for (i, ri) in r.iter_mut().enumerate() {
                    *ri = a.get(lb + i, ljb);
                }
            }
            for (i, ri) in r.iter_mut().enumerate() {
                *ri -= contrib[lb + i];
            }
            // Sum partials across the process row onto the diagonal owner.
            reduce(grid.row(), pcol_j, Op::Sum, &mut r)?;
            if grid.mycol() == pcol_j {
                // Solve the diagonal block.
                let lc = a.cols.to_local(j0);
                let ujj = av.submatrix(lb, lc, jbw, jbw);
                dtrsv(Uplo::Upper, Trans::No, Diag::NonUnit, ujj, &mut r);
                xj = Some(r);
            }
        }
        if grid.mycol() == pcol_j {
            // Broadcast x_j down the process column and fold it into the
            // contributions of all rows above the block.
            let xj = bcast(grid.col(), prow_j, xj)?;
            let lc = a.cols.to_local(j0);
            let above = a.rows.local_lower_bound(j0);
            for (dj, &xv) in xj.iter().enumerate() {
                if xv != E::ZERO {
                    let col = av.col(lc + dj);
                    for (ci, &uv) in contrib.iter_mut().zip(col).take(above) {
                        *ci += uv * xv;
                    }
                }
            }
            x_parts.push((lc, xj));
        }
    }

    assemble_solution(a, grid, nb, x_parts)
}

/// Gathers the block-cyclic solution pieces into a full vector replicated
/// on every rank: process row 0 allgathers along its row communicator, then
/// broadcasts down each process column.
fn assemble_solution<E: WireElem>(
    a: &LocalMatrix<E>,
    grid: &Grid,
    nb: usize,
    mut x_parts: Vec<(usize, Vec<E>)>,
) -> Result<Vec<E>, HplError> {
    let n = a.rows.n;
    x_parts.sort_by_key(|&(lc, _)| lc);
    let full = if grid.myrow() == 0 {
        // Concatenate my column blocks in local order.
        let mine: Vec<E> = x_parts
            .iter()
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        // Local x-element counts per process column (x is distributed like
        // the matrix columns restricted to the first n columns).
        let counts: Vec<usize> = (0..grid.npcol())
            .map(|c| crate::dist::numroc(n, nb, c, grid.npcol()))
            .collect();
        debug_assert_eq!(mine.len(), counts[grid.mycol()]);
        let mut flat = Vec::new();
        allgatherv(grid.row(), &mine, &counts, &mut flat)?;
        // Un-cycle: element `l` of column-owner `c`'s chunk is global index
        // local_to_global(l, nb, c, Q).
        let mut offsets = vec![0usize; grid.npcol()];
        for c in 1..grid.npcol() {
            offsets[c] = offsets[c - 1] + counts[c - 1];
        }
        let mut x = vec![E::ZERO; n];
        for c in 0..grid.npcol() {
            for l in 0..counts[c] {
                let g = crate::dist::local_to_global(l, nb, c, grid.npcol());
                x[g] = flat[offsets[c] + l];
            }
        }
        Some(x)
    } else {
        None
    };
    Ok(bcast(grid.col(), 0, full)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpl_comm::{GridOrder, Universe};

    /// Build a distributed upper-triangular system directly (no
    /// factorization) and check the distributed solve against it.
    #[test]
    fn backsolve_recovers_known_solution() {
        for &(n, nb, p, q) in &[
            (24usize, 4usize, 2usize, 2usize),
            (30, 7, 2, 3),
            (16, 16, 1, 1),
            (13, 3, 3, 1),
        ] {
            let outs = Universe::run(p * q, |comm| {
                let grid = Grid::new(comm, p, q, GridOrder::ColumnMajor);
                let mut a = LocalMatrix::generate(n, nb, &grid, 5);
                // Overwrite with a known upper-triangular U and b = U * xtrue.
                let xtrue: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
                let u = |i: usize, j: usize| -> f64 {
                    if i > j {
                        0.0
                    } else if i == j {
                        2.0 + (i % 3) as f64
                    } else {
                        ((i * 7 + j * 3) % 11) as f64 / 11.0 - 0.5
                    }
                };
                for lj in 0..a.nloc {
                    let gj = a.cols.to_global(lj);
                    for li in 0..a.mloc {
                        let gi = a.rows.to_global(li);
                        let v = if gj < n {
                            u(gi, gj)
                        } else {
                            (0..n).map(|k| u(gi, k) * xtrue[k]).sum()
                        };
                        a.set(li, lj, v);
                    }
                }
                let x = back_substitute(&a, &grid, nb).unwrap();
                (x, xtrue)
            });
            for (x, xtrue) in outs {
                for (got, want) in x.iter().zip(&xtrue) {
                    assert!(
                        (got - want).abs() < 1e-9,
                        "n={n} p={p} q={q}: {got} vs {want}"
                    );
                }
            }
        }
    }
}
