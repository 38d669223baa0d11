//! Trailing update (UPDATE): the DTRSM on the `U` block and the rank-`NB`
//! DGEMM on the local trailing submatrix (paper Fig 2d).
//!
//! This is the phase rocHPL runs on the GPU; 95% of GPU-active time is
//! spent in the DGEMM here. In this reproduction it runs through
//! `hpl-blas`'s packed DGEMM on the rank's thread (or its update pool),
//! which packs both operands one cache block at a time as it goes.
//!
//! The kernels work on views, wherever their operands lie. [`dgemm_l2`]
//! reads `L2` where it is: with a process row of one rank (`Q = 1`) in
//! the matrix's panel columns where FACT left it, otherwise in the
//! broadcast buffer the rank holds. With a process column of one rank
//! (`P = 1`) the driver updates inside the matrix, as netlib HPL does
//! there: the row swap has left `U` in the diagonal block's own rows of
//! the section, [`dtrsm_u`] solves it in place with `L1` read from the
//! panel columns where FACT left it (or from the broadcast copy on a rank
//! that did not factor the panel), and [`dgemm_l2`] packs its `B` operand
//! from the same rows — no `U` block, and nothing to store back. At
//! `P > 1` `U` arrives by allgather into its own block, and the
//! diagonal-owning process row stores the solved block into its rows. A
//! row move is exact and neither kernel depends on where its operands lie
//! or on their leading dimension, so every path gives the same bits.
//!
//! [`solve_u`], [`store_u`], [`gemm_update`] and [`full_update`] are the
//! same kernels over a [`Matrix`] `U` block and a panel's `top`, for
//! callers outside the driver.

use hpl_blas::mat::{MatMut, MatRef, Matrix};
use hpl_blas::{dgemm_parallel, dgemm_with, dtrsm, kernels, Diag, Element, Side, Trans, Uplo};
use hpl_threads::Pool;

use crate::panel::{PanelGeom, PanelL};
use crate::swap::ColRange;

/// `U <- L1^{-1} U` with the unit-lower factor `l1` (`jb x jb`), on the
/// `jb`-row block `u` wherever it lies (every rank performs this
/// redundantly on its own columns, exactly like rocHPL where it is the
/// first kernel of the update).
pub(crate) fn dtrsm_u<E: Element>(l1: MatRef<'_, E>, u: &mut MatMut<'_, E>) {
    let _span = hpl_trace::span(hpl_trace::Phase::Update);
    debug_assert_eq!(u.rows(), l1.rows());
    dtrsm(
        Side::Left,
        Uplo::Lower,
        Trans::No,
        Diag::Unit,
        E::ONE,
        l1,
        u,
    );
}

/// `C -= L2 * U` with `l2` read where it lies (`c` is the `l2_rows`-row
/// block under the diagonal block), on `threads` pool threads when `pool`
/// is given (2D work-stealing macro tiles, bitwise identical to the serial
/// kernel within one kernel choice).
pub(crate) fn dgemm_l2<E: Element>(
    l2: MatRef<'_, E>,
    u: MatRef<'_, E>,
    c: &mut MatMut<'_, E>,
    pool: Option<(&Pool, usize)>,
) {
    if c.cols() == 0 || c.rows() == 0 {
        return;
    }
    let _span = hpl_trace::span(hpl_trace::Phase::Update);
    debug_assert_eq!(u.cols(), c.cols());
    let (kern, no) = (kernels::active(), Trans::No);
    match pool {
        Some((pool, threads)) => {
            dgemm_parallel(kern, pool, threads, -E::ONE, no, l2, no, u, E::ONE, c)
        }
        None => dgemm_with(kern, no, no, -E::ONE, l2, u, E::ONE, c),
    }
}

/// Applies `U <- L1^{-1} U` using the replicated unit-lower factor in
/// `panel.top`.
pub fn solve_u<E: Element>(panel: &PanelL<E>, u: &mut Matrix<E>) {
    debug_assert_eq!(u.rows(), panel.jb);
    dtrsm_u(panel.top.view(), &mut u.view_mut());
}

/// Writes the solved `U` block into the local matrix rows of the diagonal
/// block (only meaningful on ranks in the diagonal-owning process row):
/// after the iteration, global rows `k0..k0+jb` of the trailing columns
/// must hold the final `U` factor.
pub fn store_u<E: Element>(g: &PanelGeom, u: &Matrix<E>, a: &mut MatMut<'_, E>, range: ColRange) {
    debug_assert!(g.in_curr_row);
    debug_assert_eq!(u.cols(), range.width());
    copy_u(
        u.view(),
        &mut a.submatrix_mut(g.lb, range.start, g.jb, range.width()),
    );
}

/// The store of [`store_u`] on views: `dst <- u`.
pub(crate) fn copy_u<E: Element>(u: MatRef<'_, E>, dst: &mut MatMut<'_, E>) {
    let _span = hpl_trace::span(hpl_trace::Phase::Update);
    for j in 0..u.cols() {
        dst.col_mut(j).copy_from_slice(u.col(j));
    }
}

/// The local rank-`jb` DGEMM: `A[below, range] -= L2 * U`.
///
/// `below` is every trailing local row strictly under the diagonal block —
/// `l2_rows` rows starting at `lb` (+`jb` on the current row).
pub fn gemm_update<E: Element>(
    g: &PanelGeom,
    panel: &PanelL<E>,
    u: &Matrix<E>,
    a: &mut MatMut<'_, E>,
    range: ColRange,
) {
    let row0 = g.lb + if g.in_curr_row { g.jb } else { 0 };
    let mut c = a.submatrix_mut(row0, range.start, g.l2_rows, range.width());
    dgemm_l2(panel.l2_view(), u.view(), &mut c, None);
}

/// Convenience composition used by the simple schedule: solve `U`, store it
/// on the diagonal row, and apply the DGEMM.
pub fn full_update<E: Element>(
    g: &PanelGeom,
    panel: &PanelL<E>,
    mut u: Matrix<E>,
    a: &mut MatMut<'_, E>,
    range: ColRange,
) {
    solve_u(panel, &mut u);
    if g.in_curr_row {
        store_u(g, &u, a, range);
    }
    gemm_update(g, panel, &u, a, range);
}
