//! Panel geometry, the panel every rank updates with ([`PanelL`]), the
//! LBCAST buffer packing, and the host panel copy ("device-to-host
//! transfer").
//!
//! In rocHPL the panel columns are copied from the GPU's HBM to host DDR
//! for factorization and back afterwards. Here both sides are CPU memory,
//! so the driver factors the panel in place in the local matrix, and the
//! update's GEMM reads `L2` where it lies, packing it one cache block at a
//! time as it goes. With one process column (as netlib HPL's
//! `HPL_pdpanel_init` does for `Q = 1`) there is no broadcast and no copy
//! at all: `PanelL::in_place` holds only FACT's pivots (and `top` off the
//! diagonal owner), and the update reads `L2` from the matrix's panel
//! columns. With several, [`pack_panel_in_place`] packs the broadcast
//! buffer `[top | L2 | ipiv]` from the matrix columns — the one copy left,
//! timed as the `Transfer` phase, so Fig 7's column exists — and every
//! rank's update reads `L2` from the buffer it holds.
//!
//! The factored diagonal block `L1`/`U11` (`top`) is never copied on the
//! rank that factored it in place: the broadcast pack and the update read
//! it from the panel columns. A panel's `top` holds it only on the ranks
//! that receive it — the other ranks of the process column, through FACT's
//! pivot exchange, and the broadcast's receivers.
//!
//! A panel's storage lives as long as the run: the driver takes a retired
//! panel's back (`PanelL::into_store`) and the next panel refills it, so
//! the loop takes no fresh pages for panels after the first two. The host
//! round trip ([`panel_to_host`], [`host_view`], [`panel_from_host`],
//! [`pack_panel`]) stays for `benchmark/`'s layer replay.

use hpl_blas::mat::{MatMut, MatRef, Matrix};
use hpl_blas::Element;
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
pub struct PanelL<E: Element = f64> {
    /// `jb x jb` factored diagonal block (unit-lower `L1` + `U11`), on the
    /// ranks that received it. Unfilled on the rank that factored it in
    /// place, whose block is in the local matrix.
    pub top: Matrix<E>,
    /// The LBCAST buffer `[top | L2 | ipiv]`; local `L2` is its
    /// `l2_rows x jb` column-major block at offset `jb * jb`. Empty for a
    /// panel built in place (`PanelL::in_place`), whose `L2` is in the
    /// local matrix.
    buf: Vec<E>,
    /// Global pivot row per panel column.
    pub ipiv: Vec<usize>,
    /// Rows of `L2`.
    pub l2_rows: usize,
    /// Panel width.
    pub jb: usize,
}

/// The storage of a retired panel, for the next panel to refill (see
/// [`PanelL::into_store`]). Every part only grows, and panels only shrink
/// over a run, so refilling takes no fresh pages.
pub(crate) struct PanelStore<E: Element> {
    /// FACT's `top` (the factored diagonal block once FACT has run, off
    /// the diagonal owner).
    pub(crate) top: Matrix<E>,
    /// FACT's pivots (likewise).
    pub(crate) ipiv: Vec<usize>,
    /// The LBCAST buffer (unused with one process column).
    pub(crate) buf: Vec<E>,
}

impl<E: Element> PanelStore<E> {
    /// Storage for a first panel: nothing yet.
    pub(crate) fn empty() -> Self {
        Self {
            top: Matrix::zeros(0, 0),
            ipiv: Vec::new(),
            buf: Vec::new(),
        }
    }
}

impl<E: Element> PanelL<E> {
    /// Builds panel `g`, factored in place in the local matrix, where it
    /// lies — for a row communicator of one rank, where LBCAST sends
    /// nothing. FACT's `ipiv` (and `top`, filled off the diagonal owner; on
    /// it the block is in the matrix) move in from `store`. Nothing is
    /// copied: the update reads `L2` (the rows below the diagonal block on
    /// the current row) from the matrix's panel columns.
    pub(crate) fn in_place(g: &PanelGeom, store: PanelStore<E>) -> Self {
        debug_assert!(g.in_panel_col);
        Self {
            top: store.top,
            buf: store.buf,
            ipiv: store.ipiv,
            l2_rows: g.l2_rows,
            jb: g.jb,
        }
    }

    /// Builds panel `g` around its LBCAST buffer `store.buf`, refilling
    /// `store`'s `ipiv` from it, and `top` too when `fill_top`.
    fn from_store(g: &PanelGeom, store: PanelStore<E>, fill_top: bool) -> Self {
        let PanelStore {
            mut top,
            mut ipiv,
            buf,
        } = store;
        assert_eq!(buf.len(), g.bcast_len(), "panel buffer size mismatch");
        let (jb, l2_rows) = (g.jb, g.l2_rows);
        if fill_top {
            top.reshape(jb, jb);
            top.as_mut_slice().copy_from_slice(&buf[..jb * jb]);
        }
        ipiv.clear();
        ipiv.extend(
            buf[jb * (jb + l2_rows)..]
                .iter()
                .map(|&v| v.to_f64() as usize),
        );
        Self {
            top,
            buf,
            ipiv,
            l2_rows,
            jb,
        }
    }

    /// Gives the panel's storage back, for the next panel to refill.
    pub(crate) fn into_store(self) -> PanelStore<E> {
        PanelStore {
            top: self.top,
            ipiv: self.ipiv,
            buf: self.buf,
        }
    }

    /// View of `L2` in the broadcast buffer. A panel built in place has no
    /// buffer: its `L2` is in the local matrix, where the driver reads it.
    pub(crate) fn l2_view(&self) -> MatRef<'_, E> {
        let (jb, l2_rows) = (self.jb, self.l2_rows);
        let l2 = &self.buf[jb * jb..jb * (jb + l2_rows)];
        MatRef::from_slice(l2, l2_rows, jb, l2_rows.max(1))
    }
}

/// Appends `[top | L2 | ipiv]` to `buf`, with column `j` of `L2` read from
/// `l2_col(j)`.
fn pack_into<'s, E: Element>(
    top: MatRef<'_, E>,
    l2_col: impl Fn(usize) -> &'s [E],
    ipiv: &[usize],
    buf: &mut Vec<E>,
) {
    for j in 0..ipiv.len() {
        buf.extend_from_slice(top.col(j));
    }
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
/// `buf` with the broadcast buffer `[top | L2 | ipiv]`, read straight from
/// the matrix columns. On the current row the factored diagonal block is
/// in place — `panel_factor` factors it where it lives — so `top` is read
/// from the panel's leading rows and the rows below them are `L2`; `top`
/// is read only on the other rows, where FACT's pivot exchange filled it.
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
    let (lb, mp, lj0, jb) = (g.lb, g.mp, g.lj0, g.jb);
    let av = a.view();
    let (top, skip) = if g.in_curr_row {
        (av.submatrix(lb, lj0, jb, jb), jb)
    } else {
        (top.view(), 0)
    };
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
    pack_into(
        top.view(),
        |j| &host[j * mp + skip..(j + 1) * mp],
        ipiv,
        &mut buf,
    );
    buf
}

/// Inverse of [`pack_panel`] (a copy of `buf`; [`lbcast`] keeps the buffer
/// it broadcast into instead).
pub fn unpack_panel<E: Element>(g: &PanelGeom, buf: &[E]) -> PanelL<E> {
    let store = PanelStore {
        buf: buf.to_vec(),
        ..PanelStore::empty()
    };
    PanelL::from_store(g, store, true)
}

/// Broadcasts the packed panel along the process row from the panel-owning
/// column; every rank returns the [`PanelL`] built around the buffer the
/// panel arrived in, with `top` filled from it.
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
    let store = PanelStore {
        buf: packed.unwrap_or_default(),
        ..PanelStore::empty()
    };
    lbcast_store(row_comm, algo, g, store, true)
}

/// [`lbcast`] into a retired panel's storage. On the panel-owning column
/// `store.buf` holds the packed panel; elsewhere it is resized to receive
/// it, and the broadcast overwrites every element. `top` is filled from
/// the buffer when `fill_top`: the driver asks for it only on the
/// receivers, the panel-owning column having `top` already (off the
/// diagonal owner) or reading it from the matrix (on it).
pub(crate) fn lbcast_store<E: WireElem>(
    row_comm: &Communicator,
    algo: BcastAlgo,
    g: &PanelGeom,
    mut store: PanelStore<E>,
    fill_top: bool,
) -> Result<PanelL<E>, HplError> {
    store.buf.resize(g.bcast_len(), E::ZERO);
    if row_comm.fault_injector().is_some() {
        panel_bcast_checked(row_comm, algo, g.pcol, &mut store.buf)?;
    } else {
        panel_bcast(row_comm, algo, g.pcol, &mut store.buf)?;
    }
    Ok(PanelL::from_store(g, store, fill_top))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FactOpts;
    use crate::fact::{panel_factor, panel_factor_into, FactInput};
    use crate::local::System;
    use hpl_blas::{dgemm_with, kernels, Trans};
    use hpl_comm::{GridOrder, Universe};
    use hpl_threads::Pool;

    /// The bits of every entry of `m`, column by column.
    fn bits<E: Element>(m: MatRef<'_, E>) -> Vec<u64> {
        (0..m.cols())
            .flat_map(|j| m.col(j).iter().map(|v| v.to_bits_u64()))
            .collect()
    }

    /// Every panel of an `n x n` system on a `p x 1` grid, built both ways
    /// on each rank: in place into the storage the previous panel retired,
    /// and through `pack_panel_in_place` and `lbcast` into fresh storage.
    /// The factored diagonal block (in the matrix on the diagonal owner,
    /// the in-place panel's `top` elsewhere) against the broadcast `top`,
    /// the pivots and the product of `L2` (read from the matrix's panel
    /// columns for the in-place panel, from the buffer for the broadcast
    /// one) with a fixed `B` must agree bit for bit. Each side factors its own copy of the system, so
    /// FACT's recycled `top` is under test too.
    fn in_place_equals_broadcast<E: WireElem>(p: usize, threads: usize) {
        let (n, nb, seed) = (100usize, 24usize, 11u64);
        assert_ne!(n % nb, 0, "the last panel must be narrower");
        Universe::run(p, |comm| {
            let grid = Grid::new(comm, p, 1, GridOrder::ColumnMajor);
            let system = System::Seeded(seed);
            let mut a_in = system.local::<E>(n, nb, &grid);
            let mut a_bc = system.local::<E>(n, nb, &grid);
            let pool = Pool::new(threads);
            let kern = kernels::active();
            let mut store = PanelStore::empty();
            for k0 in (0..n).step_by(nb) {
                let g = PanelGeom::new(&a_in, &grid, k0, nb.min(n - k0));
                let what = format!("{} p={p} t={threads} k0={k0}", E::NAME);
                let inp = FactInput {
                    col_comm: grid.col(),
                    rows: a_in.rows,
                    k0,
                    jb: g.jb,
                    lb: g.lb,
                    is_curr: g.in_curr_row,
                    pool: &pool,
                    opts: FactOpts {
                        threads,
                        ..FactOpts::default()
                    },
                };
                let (top, ipiv) = (store.top, store.ipiv);
                let out = {
                    let mut av = a_in.view_mut();
                    let mut panel = av.submatrix_mut(g.lb, g.lj0, g.mp, g.jb);
                    panel_factor_into(&inp, &mut panel, top, ipiv).expect("nonsingular")
                };
                (store.top, store.ipiv) = (out.top, out.ipiv);
                let in_place = PanelL::in_place(&g, store);

                let out = {
                    let mut av = a_bc.view_mut();
                    let mut panel = av.submatrix_mut(g.lb, g.lj0, g.mp, g.jb);
                    panel_factor(&inp, &mut panel).expect("nonsingular")
                };
                let mut buf = Vec::with_capacity(g.bcast_len());
                pack_panel_in_place(&a_bc, &g, &out.top, &out.ipiv, &mut buf);
                let bcast = lbcast(grid.row(), BcastAlgo::OneRingM, &g, Some(buf))
                    .expect("a one-rank row sends nothing");

                // The in-place panel holds no `top` where FACT factored
                // the diagonal block in place: the block is in the matrix.
                let l1 = if g.in_curr_row {
                    a_in.view().submatrix(g.lb, g.lj0, g.jb, g.jb)
                } else {
                    in_place.top.view()
                };
                assert_eq!(bits(l1), bits(bcast.top.view()), "{what}");
                assert_eq!(in_place.ipiv, bcast.ipiv, "{what}");
                assert_eq!(in_place.l2_rows, bcast.l2_rows, "{what}");
                let w = 7;
                let b = Matrix::<E>::from_fn(g.jb, w, |i, j| {
                    E::from_f64(((i * 7 + j * 3) % 11) as f64 / 11.0 - 0.5)
                });
                let product = |l2: MatRef<'_, E>| {
                    let mut c = Matrix::<E>::from_fn(g.l2_rows, w, |i, j| {
                        E::from_f64(((i + 5 * j) % 13) as f64 / 13.0)
                    });
                    let (no, one) = (Trans::No, E::ONE);
                    dgemm_with(kern, no, no, -one, l2, b.view(), one, &mut c.view_mut());
                    bits(c.view())
                };
                let skip = if g.in_curr_row { g.jb } else { 0 };
                let l2_in_place = a_in.view().submatrix(g.lb + skip, g.lj0, g.l2_rows, g.jb);
                assert_eq!(product(l2_in_place), product(bcast.l2_view()), "{what}");
                store = in_place.into_store();
            }
        });
    }

    #[test]
    fn in_place_equals_broadcast_1x1() {
        for threads in [1, 2] {
            in_place_equals_broadcast::<f64>(1, threads);
            in_place_equals_broadcast::<f32>(1, threads);
        }
    }

    #[test]
    fn in_place_equals_broadcast_2x1() {
        for threads in [1, 2] {
            in_place_equals_broadcast::<f64>(2, threads);
            in_place_equals_broadcast::<f32>(2, threads);
        }
    }
}
