//! Trailing update (UPDATE): the DTRSM on the assembled `U` block and the
//! rank-`NB` DGEMM on the local trailing submatrix (paper Fig 2d).
//!
//! This is the phase rocHPL runs on the GPU; 95% of GPU-active time is
//! spent in the DGEMM here. In this reproduction it runs through
//! `hpl-blas`'s packed DGEMM on the rank's thread.

use hpl_blas::mat::{MatMut, Matrix};
use hpl_blas::{
    dgemm_packed, dgemm_parallel_packed, dtrsm, kernels, Diag, Element, Side, Trans, Uplo,
};
use hpl_threads::Pool;

use crate::panel::{PanelGeom, PanelL};
use crate::swap::ColRange;

/// Applies `U <- L1^{-1} U` using the replicated unit-lower factor in
/// `panel.top` (every rank performs this redundantly on its own columns,
/// exactly like rocHPL where it is the first kernel of the update).
pub fn solve_u<E: Element>(panel: &PanelL<E>, u: &mut Matrix<E>) {
    let _span = hpl_trace::span(hpl_trace::Phase::Update);
    debug_assert_eq!(u.rows(), panel.jb);
    let mut uv = u.view_mut();
    dtrsm(
        Side::Left,
        Uplo::Lower,
        Trans::No,
        Diag::Unit,
        E::ONE,
        panel.top.view(),
        &mut uv,
    );
}

/// Writes the solved `U` block into the local matrix rows of the diagonal
/// block (only meaningful on ranks in the diagonal-owning process row):
/// after the iteration, global rows `k0..k0+jb` of the trailing columns
/// must hold the final `U` factor.
pub fn store_u<E: Element>(g: &PanelGeom, u: &Matrix<E>, a: &mut MatMut<'_, E>, range: ColRange) {
    let _span = hpl_trace::span(hpl_trace::Phase::Update);
    debug_assert!(g.in_curr_row);
    debug_assert_eq!(u.cols(), range.width());
    let uv = u.view();
    for (off, lj) in (range.start..range.end).enumerate() {
        a.col_mut(lj)[g.lb..g.lb + g.jb].copy_from_slice(uv.col(off));
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
    let w = range.width();
    if w == 0 || g.l2_rows == 0 {
        return;
    }
    let _span = hpl_trace::span(hpl_trace::Phase::Update);
    debug_assert_eq!(u.cols(), w);
    let row0 = g.lb + if g.in_curr_row { g.jb } else { 0 };
    let mut c = a.submatrix_mut(row0, range.start, g.l2_rows, w);
    // `L2` is packed once per iteration (cached on the panel) and shared by
    // every section of the split update instead of being repacked per call.
    let kern = kernels::active();
    dgemm_packed(
        kern,
        -E::ONE,
        panel.l2_packed(kern),
        0,
        Trans::No,
        u.view(),
        E::ONE,
        &mut c,
    );
}

/// [`gemm_update`] on `threads` pool threads (2D work-stealing macro
/// tiles, bitwise identical to the serial kernel within one kernel
/// choice) — the device-parallel update path.
pub fn gemm_update_parallel<E: Element>(
    g: &PanelGeom,
    panel: &PanelL<E>,
    u: &Matrix<E>,
    a: &mut MatMut<'_, E>,
    range: ColRange,
    pool: &Pool,
    threads: usize,
) {
    let w = range.width();
    if w == 0 || g.l2_rows == 0 {
        return;
    }
    let _span = hpl_trace::span(hpl_trace::Phase::Update);
    debug_assert_eq!(u.cols(), w);
    let row0 = g.lb + if g.in_curr_row { g.jb } else { 0 };
    let mut c = a.submatrix_mut(row0, range.start, g.l2_rows, w);
    // All workers slice the one panel-cached packed `L2` read-only; only
    // `U` is repacked (per B tile) inside the workers.
    let kern = kernels::active();
    dgemm_parallel_packed(
        kern,
        pool,
        threads,
        -E::ONE,
        panel.l2_packed(kern),
        Trans::No,
        u.view(),
        E::ONE,
        &mut c,
    );
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
