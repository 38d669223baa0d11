//! Panel geometry, the LBCAST buffer packing, and the host panel copy
//! ("device-to-host transfer").
//!
//! In rocHPL the panel columns are copied from the GPU's HBM to host DDR
//! for factorization and back afterwards. Here both sides are CPU memory,
//! so the driver factors the panel in place in the local matrix; what is
//! left of the transfer is [`pack_panel_in_place`] — pack the broadcast
//! buffer from the matrix columns — and the driver times it as the
//! `Transfer` phase so Fig 7's column exists. The host round trip
//! ([`panel_to_host`], [`host_view`], [`panel_from_host`], [`pack_panel`])
//! stays for `benchmark/`'s layer replay.

use std::sync::OnceLock;

use hpl_blas::mat::{MatMut, MatRef, Matrix};
use hpl_blas::{Element, Kernel, PackedA, Trans};
use hpl_comm::{panel_bcast, panel_bcast_checked, BcastAlgo, Communicator, Grid, WireElem};

use crate::dist::Axis;
use crate::error::HplError;
use crate::local::LocalMatrix;

/// Where iteration `k0`'s panel lives relative to this rank.
#[derive(Clone, Copy, Debug)]
pub struct PanelGeom {
    /// Global first row/column of the panel.
    pub k0: usize,
    /// Panel width (`NB`, or the remainder on the last iteration).
    pub jb: usize,
    /// Process column owning the panel columns.
    pub pcol: usize,
    /// Process row owning the diagonal block.
    pub prow: usize,
    /// This rank is in the panel-owning process column.
    pub in_panel_col: bool,
    /// This rank is in the diagonal-owning process row.
    pub in_curr_row: bool,
    /// Local row index of the first trailing row (`>= k0`).
    pub lb: usize,
    /// Local panel row count (`mloc - lb`).
    pub mp: usize,
    /// Local column index of the first panel column (valid when
    /// `in_panel_col`).
    pub lj0: usize,
    /// Local rows strictly below the diagonal block (`mp` minus `jb` on the
    /// current row, `mp` elsewhere) — the height of the local `L2`.
    pub l2_rows: usize,
}

impl PanelGeom {
    /// Computes the geometry of the panel starting at `k0` with width `jb`.
    pub fn new<E: Element>(a: &LocalMatrix<E>, grid: &Grid, k0: usize, jb: usize) -> Self {
        let rows: Axis = a.rows;
        let cols: Axis = a.cols;
        let pcol = cols.owner(k0);
        let prow = rows.owner(k0);
        let in_panel_col = grid.mycol() == pcol;
        let in_curr_row = grid.myrow() == prow;
        let lb = rows.local_lower_bound(k0);
        let mp = a.mloc - lb;
        let lj0 = if in_panel_col { cols.to_local(k0) } else { 0 };
        let l2_rows = if in_curr_row {
            mp.saturating_sub(jb)
        } else {
            mp
        };
        Self {
            k0,
            jb,
            pcol,
            prow,
            in_panel_col,
            in_curr_row,
            lb,
            mp,
            lj0,
            l2_rows,
        }
    }

    /// Length of the LBCAST buffer `[top | L2 | ipiv]`.
    pub fn bcast_len(&self) -> usize {
        self.jb * (self.jb + self.l2_rows + 1)
    }
}

/// Copies this rank's panel columns out of the local matrix into a
/// contiguous host buffer (`mp x jb`, lda = mp). The H2D/D2H analogue.
///
/// The driver factors in place and does not call this; it stays for
/// `benchmark/`'s layer replay (its removal waits for a `benchmark` PR).
pub fn panel_to_host<E: Element>(a: &LocalMatrix<E>, g: &PanelGeom) -> Vec<E> {
    let _span = hpl_trace::span(hpl_trace::Phase::Transfer);
    debug_assert!(g.in_panel_col);
    let mut host = vec![E::ZERO; g.mp * g.jb];
    let av = a.view();
    for j in 0..g.jb {
        let src = &av.col(g.lj0 + j)[g.lb..g.lb + g.mp];
        host[j * g.mp..(j + 1) * g.mp].copy_from_slice(src);
    }
    host
}

/// Copies the factored host panel back into the local matrix; on the
/// diagonal-owning row the first `jb` rows are taken from the replicated
/// `top` (the factored diagonal block, which the host panel's leading rows
/// already equal).
///
/// The driver factors in place and does not call this; it stays for
/// `benchmark/`'s layer replay (its removal waits for a `benchmark` PR).
pub fn panel_from_host<E: Element>(
    a: &mut LocalMatrix<E>,
    g: &PanelGeom,
    host: &[E],
    top: &Matrix<E>,
) {
    let _span = hpl_trace::span(hpl_trace::Phase::Transfer);
    debug_assert!(g.in_panel_col);
    let (lb, mp, jb, lj0) = (g.lb, g.mp, g.jb, g.lj0);
    let mut av = a.view_mut();
    for j in 0..jb {
        let dst = &mut av.col_mut(lj0 + j)[lb..lb + mp];
        dst.copy_from_slice(&host[j * mp..(j + 1) * mp]);
        if g.in_curr_row {
            for (i, d) in dst.iter_mut().take(jb).enumerate() {
                *d = top.get(i, j);
            }
        }
    }
}

/// The panel payload every rank holds after LBCAST: the replicated factored
/// diagonal block, this process row's slice of `L2`, and the pivot vector.
/// `L2` is read in place from the broadcast buffer the panel arrived in.
pub struct PanelL<E: Element = f64> {
    /// `jb x jb` factored diagonal block (unit-lower `L1` + `U11`).
    pub top: Matrix<E>,
    /// The LBCAST buffer `[top | L2 | ipiv]`; local `L2` is its
    /// `l2_rows x jb` column-major block at offset `jb * jb`.
    buf: Vec<E>,
    /// Global pivot row per panel column.
    pub ipiv: Vec<usize>,
    /// Rows of `L2`.
    pub l2_rows: usize,
    /// Panel width.
    pub jb: usize,
    /// `L2` packed once into DGEMM strip layout on first use, then shared
    /// by every update section and worker thread of the iteration.
    l2_packed: OnceLock<PackedA<E>>,
}

impl<E: Element> PanelL<E> {
    /// Takes ownership of the LBCAST buffer of panel `g`.
    fn from_buf(g: &PanelGeom, buf: Vec<E>) -> Self {
        assert_eq!(buf.len(), g.bcast_len(), "panel buffer size mismatch");
        let (jb, l2_rows) = (g.jb, g.l2_rows);
        let top = Matrix::from_vec(jb, jb, buf[..jb * jb].to_vec());
        let ipiv = buf[jb * (jb + l2_rows)..]
            .iter()
            .map(|&v| v.to_f64() as usize)
            .collect();
        Self {
            top,
            buf,
            ipiv,
            l2_rows,
            jb,
            l2_packed: OnceLock::new(),
        }
    }

    /// View of `L2`.
    pub fn l2_view(&self) -> MatRef<'_, E> {
        let (jb, l2_rows) = (self.jb, self.l2_rows);
        let l2 = &self.buf[jb * jb..jb * (jb + l2_rows)];
        MatRef::from_slice(l2, l2_rows, jb, l2_rows.max(1))
    }

    /// `L2` in packed DGEMM layout for kernel `kern`, packed on first call
    /// and reused afterwards — across the `n1`/`n2` split-update sections
    /// and across `gemm_update_parallel` workers. The kernel is frozen
    /// per process, so one panel only ever sees one `kern`.
    pub fn l2_packed(&self, kern: Kernel) -> &PackedA<E> {
        self.l2_packed
            .get_or_init(|| PackedA::pack(kern, Trans::No, self.l2_view()))
    }
}

/// Appends `[top | L2 | ipiv]` to `buf`, with column `j` of `L2` read from
/// `l2_col(j)`.
fn pack_into<'s, E: Element>(
    top: &Matrix<E>,
    l2_col: impl Fn(usize) -> &'s [E],
    ipiv: &[usize],
    buf: &mut Vec<E>,
) {
    buf.extend_from_slice(top.as_slice());
    for j in 0..ipiv.len() {
        buf.extend_from_slice(l2_col(j));
    }
    // Pivot indices ride the panel buffer as elements; an f32 mantissa
    // represents every integer up to 2^24 exactly, far beyond any global
    // row index this in-process benchmark can reach.
    buf.extend(ipiv.iter().map(|&p| {
        let e = E::from_f64(p as f64);
        debug_assert_eq!(
            e.to_f64() as usize,
            p,
            "pivot index not exact in {}",
            E::NAME
        );
        e
    }));
}

/// The transfer of a panel factored in place in the local matrix: fills
/// `buf` with the broadcast buffer `[top | L2 | ipiv]`, `L2` read straight
/// from the matrix columns. On the current row the factored diagonal block
/// is already in place — `panel_factor` factors it where it lives, and
/// `top` is a copy of it — so only the rows below it are read as `L2`.
/// `buf` should hold [`PanelGeom::bcast_len`] elements of capacity; the
/// caller sizes it, so this allocates nothing.
pub fn pack_panel_in_place<E: Element>(
    a: &LocalMatrix<E>,
    g: &PanelGeom,
    top: &Matrix<E>,
    ipiv: &[usize],
    buf: &mut Vec<E>,
) {
    let _span = hpl_trace::span(hpl_trace::Phase::Transfer);
    debug_assert!(g.in_panel_col);
    let (lb, mp, lj0) = (g.lb, g.mp, g.lj0);
    let skip = if g.in_curr_row { g.jb } else { 0 };
    let av = a.view();
    buf.clear();
    pack_into(top, |j| &av.col(lj0 + j)[lb + skip..lb + mp], ipiv, buf);
}

/// Packs `[top | L2 | ipiv]` into one flat broadcast buffer.
///
/// `host` is the factored host panel (`mp x jb`); on the current row its
/// leading `jb` rows (the factored diagonal block) are skipped — `top`
/// carries them. The driver uses [`pack_panel_in_place`].
pub fn pack_panel<E: Element>(
    g: &PanelGeom,
    top: &Matrix<E>,
    ipiv: &[usize],
    host: &[E],
) -> Vec<E> {
    let _span = hpl_trace::span(hpl_trace::Phase::Transfer);
    let (mp, skip) = (g.mp, if g.in_curr_row { g.jb } else { 0 });
    let mut buf = Vec::with_capacity(g.bcast_len());
    pack_into(top, |j| &host[j * mp + skip..(j + 1) * mp], ipiv, &mut buf);
    buf
}

/// Inverse of [`pack_panel`] (a copy of `buf`; [`lbcast`] keeps the buffer
/// it broadcast into instead).
pub fn unpack_panel<E: Element>(g: &PanelGeom, buf: &[E]) -> PanelL<E> {
    PanelL::from_buf(g, buf.to_vec())
}

/// Broadcasts the packed panel along the process row from the panel-owning
/// column; every rank returns the [`PanelL`] built around the buffer the
/// panel arrived in.
///
/// On fault-armed runs (an injector is attached to the fabric) the
/// checksummed [`panel_bcast_checked`] variant is used, so an in-flight
/// bit-flip is detected and repaired by retransmission instead of silently
/// corrupting every downstream update. Fault-free runs keep the plain
/// broadcast and its exact message structure.
pub fn lbcast<E: WireElem>(
    row_comm: &Communicator,
    algo: BcastAlgo,
    g: &PanelGeom,
    packed: Option<Vec<E>>,
) -> Result<PanelL<E>, HplError> {
    let mut buf = match packed {
        Some(b) => {
            debug_assert!(g.in_panel_col);
            b
        }
        None => vec![E::ZERO; g.bcast_len()],
    };
    if row_comm.fault_injector().is_some() {
        panel_bcast_checked(row_comm, algo, g.pcol, &mut buf)?;
    } else {
        panel_bcast(row_comm, algo, g.pcol, &mut buf)?;
    }
    Ok(PanelL::from_buf(g, buf))
}

/// Convenience: extracts the trailing-rows view of the panel columns as a
/// mutable matrix view (used by the factorization).
///
/// The driver factors in place on a view of the local matrix and does not
/// call this; it stays for `benchmark/`'s layer replay (its removal waits
/// for a `benchmark` PR).
pub fn host_view<'a, E: Element>(host: &'a mut [E], g: &PanelGeom) -> MatMut<'a, E> {
    MatMut::from_slice(host, g.mp, g.jb, g.mp.max(1))
}
