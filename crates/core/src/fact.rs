//! Panel factorization (FACT) — the latency-critical phase of HPL.
//!
//! At iteration `k0` the `jb` panel columns are LU-factored with partial
//! pivoting by the `P` ranks of one process column. Every pivot selection is
//! one combined collective (like HPL's `HPL_pdmxswp`): the reduction payload
//! carries the winning candidate row *and* the current top row, so a single
//! reduce+broadcast both decides the pivot and performs the data motion of
//! the swap.
//!
//! Replication discipline: the factored rows of the diagonal block
//! (`top`, `jb x jb`, full panel width) are replicated on all ranks of the
//! process column — each row is installed by the pivot collective at its
//! step, and all subsequent triangular updates to `top` are performed
//! redundantly by every rank. Unfactored rows (including the not-yet-chosen
//! rows of the diagonal block, which live on the "current" process row)
//! stay local and are updated in place.
//!
//! Where `top` lives: on the rank owning the diagonal block it *is* the
//! panel's leading `jb` rows — row `k` of the block is factored row `k`
//! once step `k` has run — so installing a pivot row writes one row, not a
//! separate copy plus the local one. Only the other ranks of the process
//! column keep `top` in a buffer of its own. With a process column of one
//! rank the pivot step exchanges nothing: thread 0 swaps rows `k` and the
//! winner in one walk.
//!
//! Multi-threading (paper §III.A, Fig 4): the tall-skinny local panel is cut
//! into `jb`-row tiles round-robined over `T` pool threads. Each tile is
//! touched only by its owner between barriers (Parallel Cache Assignment);
//! the pivot search is a two-level reduction (thread-level
//! [`hpl_threads::Ctx::reduce_maxloc`], then the process-column collective
//! executed by thread 0, which is the only thread that talks to the
//! "network"). Serial execution is the `T = 1` special case of the same
//! code path. With the default right-looking variant a column costs three
//! barriers at `T >= 2`: the argmax reduction, the close of the pivot step
//! (row `k` is final from there on), and the close of the rank-1 update;
//! the multiplier scale and the rank-1 update both touch only the thread's
//! own tiles, so nothing separates them.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use hpl_blas::mat::{MatMut, MatRef, Matrix};
use hpl_blas::{dgemm, dtrsm, Diag, Element, Side, Trans};
use hpl_comm::{allreduce_with, CommError, Communicator};
use hpl_threads::{ledger, Ctx, Pool};

use crate::config::{FactOpts, FactVariant};
use crate::dist::Axis;
use crate::error::HplError;

/// Everything the factorization needs to know about the panel's place in
/// the distributed matrix.
pub struct FactInput<'a> {
    /// Communicator over the process column (size `P`).
    pub col_comm: &'a Communicator,
    /// Row distribution of the global matrix.
    pub rows: Axis,
    /// Global index of the panel's first row/column.
    pub k0: usize,
    /// Panel width.
    pub jb: usize,
    /// Local row index (in the full local matrix) of the first panel row.
    pub lb: usize,
    /// Whether this rank's process row owns the diagonal block.
    pub is_curr: bool,
    /// Thread pool for the parallel region.
    pub pool: &'a Pool,
    /// Factorization recipe.
    pub opts: FactOpts,
}

/// Factorization output.
#[derive(Debug)]
pub struct FactOut<E: Element = f64> {
    /// Replicated factored diagonal block: row `k` holds the final content
    /// of global row `k0 + k` (unit-lower `L1` below the diagonal, `U11`
    /// on and above it), full panel width. On the diagonal owner it is a
    /// copy, taken once after the factorization, of the panel's leading
    /// `jb` rows, which hold the same block bit for bit.
    pub top: Matrix<E>,
    /// Global pivot row chosen at each of the `jb` steps.
    pub ipiv: Vec<usize>,
    /// Wall time thread 0 spent inside the pivot collectives (the MPI
    /// share of FACT, reported separately in the Fig 7 breakdown).
    pub comm_seconds: f64,
}

/// `FactState::err` sentinel: no error.
const ERR_NONE: usize = usize::MAX;
/// `FactState::err` sentinel: a communication error was captured in
/// `FactState::comm_err` (distinct from any real column index).
const ERR_COMM: usize = usize::MAX - 1;

/// The payload of the combined pivot-search collective. The candidate
/// magnitude is always carried widened to `f64` (exact for both
/// precisions), so the winner-selection logic is precision-independent;
/// the row contents stay in the pipeline element type.
#[derive(Clone, Debug)]
struct PivotMsg<E: Element> {
    /// `|candidate|` (negative infinity when the rank has no candidates).
    val: f64,
    /// Global row of the candidate.
    grow: u64,
    /// Full-width content of the candidate row.
    row: Vec<E>,
    /// Full-width content of the current top row `k` (supplied only by the
    /// rank owning the diagonal block).
    currow: Vec<E>,
}

impl<E: Element> PivotMsg<E> {
    fn combine(a: PivotMsg<E>, b: PivotMsg<E>) -> PivotMsg<E> {
        let (val, grow, row) = if b.val > a.val || (b.val == a.val && b.grow < a.grow) {
            (b.val, b.grow, b.row)
        } else {
            (a.val, a.grow, a.row)
        };
        let currow = if a.currow.is_empty() {
            b.currow
        } else {
            a.currow
        };
        PivotMsg {
            val,
            grow,
            row,
            currow,
        }
    }
}

impl<E: Element> hpl_comm::Wire for PivotMsg<E> {
    // Core-crate wire ids live above 0x4000_0000 to stay clear of the comm
    // crate's built-in ids; each precision gets its own id (f64 = ...01,
    // f32 = ...02) so a schema mismatch is caught as corruption.
    const WIRE_ID: u32 = 0x4000_0001 + E::ELEM_CODE;

    fn wire_encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.val.to_bits().to_le_bytes());
        out.extend_from_slice(&self.grow.to_le_bytes());
        for vec in [&self.row, &self.currow] {
            out.extend_from_slice(&(vec.len() as u64).to_le_bytes());
            for v in vec {
                v.wire_write(out);
            }
        }
    }

    fn wire_decode(bytes: &[u8]) -> Option<Self> {
        fn word(bytes: &[u8], at: usize) -> Option<u64> {
            Some(u64::from_le_bytes(bytes.get(at..at + 8)?.try_into().ok()?))
        }
        fn floats<E: Element>(bytes: &[u8], at: &mut usize) -> Option<Vec<E>> {
            let n = word(bytes, *at)? as usize;
            *at += 8;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(E::wire_read(bytes.get(*at..)?)?);
                *at += E::WIRE_BYTES;
            }
            Some(v)
        }
        let val = f64::from_bits(word(bytes, 0)?);
        let grow = word(bytes, 8)?;
        let mut at = 16;
        let row = floats::<E>(bytes, &mut at)?;
        let currow = floats::<E>(bytes, &mut at)?;
        if at != bytes.len() {
            return None;
        }
        Some(PivotMsg {
            val,
            grow,
            row,
            currow,
        })
    }
}

/// A column-major matrix shared across pool threads by raw pointer.
///
/// Safety protocol: tiles (disjoint row ranges) are accessed only by their
/// owning thread between barriers; whole-matrix access happens only in
/// thread-0-exclusive phases separated from parallel phases by barriers.
///
/// Every access registers its row range with the dynamic aliasing ledger
/// ([`hpl_threads::ledger`]), which panics on cross-thread overlap in debug
/// builds (and under the `race-check` feature); claims are released at each
/// pool barrier, matching the protocol's phase boundaries.
struct SharedMat<E: Element> {
    ptr: *mut E,
    rows: usize,
    cols: usize,
    lda: usize,
}

// SAFETY: `SharedMat` is a pointer + dims bundle over an element buffer
// that the owning `panel_factor` call keeps alive for the whole region (the
// pool region cannot outlive `panel_factor`'s stack frame). Which thread
// may dereference what is governed by the tile-ownership protocol above and
// checked at runtime by the aliasing ledger, not by these impls.
unsafe impl<E: Element> Send for SharedMat<E> {}
// SAFETY: see the `Send` impl; `&SharedMat` only exposes `unsafe` accessors
// whose contracts restate the protocol.
unsafe impl<E: Element> Sync for SharedMat<E> {}

impl<E: Element> SharedMat<E> {
    fn new(m: &mut MatMut<'_, E>) -> Self {
        Self {
            ptr: m.as_mut_ptr(),
            rows: m.rows(),
            cols: m.cols(),
            lda: m.lda(),
        }
    }

    /// Mutable view of rows `r0..r1` (all columns).
    ///
    /// # Safety
    /// The caller must hold exclusive logical access to those rows under
    /// the tile-ownership/barrier protocol described on the type. Distinct
    /// row ranges access disjoint elements (the column stride skips other
    /// ranges' rows), so concurrent tile views are sound.
    #[track_caller]
    unsafe fn rows_mut(&self, r0: usize, r1: usize) -> MatMut<'_, E> {
        debug_assert!(r0 <= r1 && r1 <= self.rows);
        ledger::claim_excl(self.ptr as usize, r0, r1);
        // SAFETY: `r0` is in-bounds by the assert, so the offset stays
        // within the allocation.
        let p = unsafe { self.ptr.add(r0) };
        // SAFETY: exclusivity of the row range is the caller's contract,
        // enforced dynamically by the ledger claim.
        unsafe { MatMut::from_raw_parts(p, r1 - r0, self.cols, self.lda) }
    }

    /// Immutable view of rows `r0..r1` (all columns). Readers claim only
    /// the rows they read: on the diagonal owner `top` is the panel's
    /// leading rows, whose unfactored part other threads' tiles hold
    /// mutably in the same phase.
    ///
    /// # Safety
    /// No thread may be mutating those rows (guaranteed between barriers
    /// when readers only touch rows the protocol froze).
    #[track_caller]
    unsafe fn rows(&self, r0: usize, r1: usize) -> MatRef<'_, E> {
        debug_assert!(r0 <= r1 && r1 <= self.rows);
        ledger::claim_shared(self.ptr as usize, r0, r1);
        // SAFETY: `r0` is in-bounds by the assert, so the offset stays
        // within the allocation.
        let p = unsafe { self.ptr.add(r0) };
        // SAFETY: the caller promises no concurrent writer (ledger-checked:
        // a shared claim conflicts with any other thread's mutable claim).
        unsafe { MatRef::from_raw_parts(p, r1 - r0, self.cols, self.lda) }
    }
}

/// Interior-mutable cell written only by thread 0 in exclusive phases.
struct RacyCell<T>(UnsafeCell<T>);

// SAFETY: the cell is a plain wrapper; moving it between threads is fine for
// `T: Send`. Aliased access through `get_mut` is restricted by that method's
// contract (thread-0-exclusive phases) and checked by the aliasing ledger.
unsafe impl<T: Send> Send for RacyCell<T> {}
// SAFETY: `&RacyCell<T>` only yields `&mut T` via the `unsafe` `get_mut`,
// whose contract confines all access to one thread per phase, so no `&T`
// is ever observable concurrently with a `&mut T` (`T: Send` suffices; no
// `T: Sync` needed because shared references to `T` are never handed out).
unsafe impl<T: Send> Sync for RacyCell<T> {}

impl<T> RacyCell<T> {
    fn new(v: T) -> Self {
        Self(UnsafeCell::new(v))
    }
    /// # Safety
    /// Only thread 0, in a phase where no other thread accesses the cell.
    #[allow(clippy::mut_from_ref)]
    #[track_caller]
    unsafe fn get_mut(&self) -> &mut T {
        ledger::claim_excl(self.0.get() as usize, 0, 1);
        // SAFETY: single-thread access per the contract above; the ledger
        // claim turns a violation into a panic naming both claim sites.
        unsafe { &mut *self.0.get() }
    }
    fn into_inner(self) -> T {
        self.0.into_inner()
    }
}

struct FactState<'a, E: Element> {
    inp: &'a FactInput<'a>,
    a: SharedMat<E>,
    /// The factored diagonal block: `a`'s leading `jb` rows (same base
    /// pointer, so the ledger sees both names as one object) on the
    /// diagonal owner, a buffer of its own elsewhere.
    top: SharedMat<E>,
    ipiv: RacyCell<Vec<usize>>,
    /// Nanoseconds thread 0 spent in the pivot collectives.
    comm_ns: AtomicU64,
    /// [`ERR_NONE`], [`ERR_COMM`], or the global column of a zero pivot.
    err: AtomicUsize,
    /// The communication error behind an [`ERR_COMM`] flag (written by
    /// thread 0 only; read after the pool region ends).
    comm_err: Mutex<Option<CommError>>,
    /// Local panel rows.
    m: usize,
    jb: usize,
}

impl<E: Element> FactState<'_, E> {
    /// First local panel row still unfactored before step `k`.
    #[inline]
    fn cand_start(&self, k: usize) -> usize {
        if self.inp.is_curr {
            k
        } else {
            0
        }
    }

    /// First local panel row strictly below the (just-factored) row `k`.
    #[inline]
    fn below_start(&self, k: usize) -> usize {
        if self.inp.is_curr {
            k + 1
        } else {
            0
        }
    }

    /// Global row of local panel row `pli`.
    #[inline]
    fn global_row(&self, pli: usize) -> usize {
        self.inp.rows.to_global(self.inp.lb + pli)
    }

    /// Calls `f(r0, r1)` for every row range this thread owns, clipped to
    /// rows `>= start`. Tiles are `jb` rows, round-robined (Fig 4).
    fn for_own_tiles(&self, ctx: &Ctx<'_>, start: usize, mut f: impl FnMut(usize, usize)) {
        let tile = self.jb.max(1);
        let nthreads = ctx.num_threads();
        let mut t = ctx.thread_id();
        while t * tile < self.m {
            let r0 = (t * tile).max(start);
            let r1 = ((t + 1) * tile).min(self.m);
            if r0 < r1 {
                f(r0, r1);
            }
            t += nthreads;
        }
    }
}

/// Factors the local panel `a` (all trailing local rows x `jb` columns;
/// on the diagonal-owning process row the first `jb` rows are the diagonal
/// block). Collective over the process column. See module docs.
pub fn panel_factor<E: Element>(
    inp: &FactInput<'_>,
    a: &mut MatMut<'_, E>,
) -> Result<FactOut<E>, HplError> {
    // The span covers the whole factorization wall, pivot collectives
    // included; the driver records those separately as a `FactComm` span
    // from `FactOut::comm_seconds` (they may run on pool worker threads,
    // invisible to this thread-local tracer).
    let _span = hpl_trace::span(hpl_trace::Phase::Fact);
    let jb = inp.jb;
    assert!(jb > 0, "empty panel");
    assert_eq!(a.cols(), jb, "panel width mismatch");
    if inp.is_curr {
        assert!(
            a.rows() >= jb,
            "diagonal owner must hold the full diagonal block"
        );
    }
    // Ranks without the diagonal block keep `top` in a buffer of their own;
    // the diagonal owner factors it where it lives.
    let mut own_top = (!inp.is_curr).then(|| Matrix::<E>::zeros(jb, jb));
    let top = match own_top.as_mut() {
        Some(t) => SharedMat::new(&mut t.view_mut()),
        None => SharedMat::new(&mut a.submatrix_mut(0, 0, jb, jb)),
    };
    let st = FactState {
        inp,
        m: a.rows(),
        jb,
        a: SharedMat::new(a),
        top,
        ipiv: RacyCell::new(vec![0usize; jb]),
        comm_ns: AtomicU64::new(0),
        err: AtomicUsize::new(ERR_NONE),
        comm_err: Mutex::new(None),
    };
    let nthreads = inp.opts.threads.clamp(1, inp.pool.size());
    inp.pool.run(nthreads, |ctx| {
        rec_factor(&st, ctx, 0, jb);
    });
    let err = st.err.load(Ordering::Relaxed);
    if err == ERR_COMM {
        // A pivot collective failed (dead peer, timeout, ...). All pool
        // threads left the region through the normal error path above, so
        // the rank unwinds cleanly with the captured cause.
        let e = st
            .comm_err
            .lock()
            .expect("comm error slot poisoned")
            .take()
            .expect("ERR_COMM flagged without a captured error");
        return Err(HplError::from(e));
    }
    if err != ERR_NONE {
        return Err(HplError::Singular { col: err });
    }
    let top = own_top
        .unwrap_or_else(|| Matrix::from_vec(jb, jb, a.as_ref().submatrix(0, 0, jb, jb).to_vec()));
    Ok(FactOut {
        top,
        ipiv: st.ipiv.into_inner(),
        comm_seconds: st.comm_ns.load(Ordering::Relaxed) as f64 * 1e-9,
    })
}

/// Recursive column splitting (HPL's `RFACT` driver with `NDIV`/`NBMIN`).
fn rec_factor<E: Element>(st: &FactState<'_, E>, ctx: &Ctx<'_>, lo: usize, hi: usize) {
    let w = hi - lo;
    if w <= st.inp.opts.nbmin {
        base_factor(st, ctx, lo, hi);
        return;
    }
    let ndiv = st.inp.opts.ndiv.max(2).min(w);
    // Nearly equal pieces, earlier pieces absorb the remainder.
    let base = w / ndiv;
    let rem = w % ndiv;
    let mut bounds = Vec::with_capacity(ndiv + 1);
    let mut x = lo;
    bounds.push(x);
    for i in 0..ndiv {
        x += base + usize::from(i < rem);
        bounds.push(x);
    }
    for i in 0..ndiv {
        let (plo, phi) = (bounds[i], bounds[i + 1]);
        rec_factor(st, ctx, plo, phi);
        if st.err.load(Ordering::Relaxed) != ERR_NONE {
            return;
        }
        if phi < hi {
            // Apply the factored piece to the columns on its right.
            if ctx.thread_id() == 0 {
                // Replicated DTRSM on the factored top rows:
                // top[plo..phi, phi..hi] <- L(plo..phi)^{-1} * same.
                // SAFETY: exclusive phase (between barriers).
                let mut t = unsafe { st.top.rows_mut(plo, phi) };
                let (l_part, mut rest) = t.submatrix_mut(0, 0, phi - plo, hi).split_at_col(phi);
                let l11 = l_part.as_ref().submatrix(0, plo, phi - plo, phi - plo);
                let mut tgt = rest.submatrix_mut(0, 0, phi - plo, hi - phi);
                dtrsm(
                    Side::Left,
                    hpl_blas::Uplo::Lower,
                    Trans::No,
                    Diag::Unit,
                    E::ONE,
                    l11,
                    &mut tgt,
                );
            }
            ctx.barrier();
            // Local trailing GEMM on candidate rows, tile-parallel.
            // SAFETY: rows `plo..phi` of `top` are frozen during this
            // parallel phase; each thread mutates only rows of its own
            // tiles, which start at `phi` on the diagonal owner.
            let u = unsafe { st.top.rows(plo, phi) }.submatrix(0, phi, phi - plo, hi - phi);
            st.for_own_tiles(ctx, st.cand_start(phi), |r0, r1| {
                // SAFETY: `r0..r1` is a tile this thread owns (Fig 4
                // round-robin); no other thread touches it this phase.
                let mut rows = unsafe { st.a.rows_mut(r0, r1) };
                let (l_cols, mut rest) = rows.submatrix_mut(0, 0, r1 - r0, hi).split_at_col(phi);
                let l = l_cols.as_ref().submatrix(0, plo, r1 - r0, phi - plo);
                let mut c = rest.submatrix_mut(0, 0, r1 - r0, hi - phi);
                dgemm(Trans::No, Trans::No, -E::ONE, l, u, E::ONE, &mut c);
            });
            ctx.barrier();
        }
    }
}

/// Unblocked factorization of columns `lo..hi` (the recursion base).
fn base_factor<E: Element>(st: &FactState<'_, E>, ctx: &Ctx<'_>, lo: usize, hi: usize) {
    for k in lo..hi {
        match st.inp.opts.variant {
            FactVariant::Right => {}
            FactVariant::Left => {
                // Lazy update of column k by columns lo..k.
                if k > lo {
                    if ctx.thread_id() == 0 {
                        // U(lo..k, k) = unit_lower(top[lo..k, lo..k])^{-1} top[lo..k, k].
                        // SAFETY: exclusive phase.
                        let mut t = unsafe { st.top.rows_mut(lo, k) };
                        let (l_part, mut ck) = t.submatrix_mut(0, 0, k - lo, k + 1).split_at_col(k);
                        let l11 = l_part.as_ref().submatrix(0, lo, k - lo, k - lo);
                        let mut tgt = ck.submatrix_mut(0, 0, k - lo, 1);
                        dtrsm(
                            Side::Left,
                            hpl_blas::Uplo::Lower,
                            Trans::No,
                            Diag::Unit,
                            E::ONE,
                            l11,
                            &mut tgt,
                        );
                    }
                    ctx.barrier();
                    update_col(st, ctx, lo, k);
                    ctx.barrier();
                }
            }
            FactVariant::Crout => {
                // Column k already holds final U above; update candidates.
                if k > lo {
                    update_col(st, ctx, lo, k);
                    ctx.barrier();
                }
            }
        }

        if !pivot_step(st, ctx, k) {
            return; // singular; flag already set and visible to all threads
        }

        // Scale the multipliers in column k below the pivot.
        // SAFETY: row k of `top` is frozen from the pivot step's closing
        // barrier on; each thread touches only its tiles, below row k.
        let pivot = unsafe { st.top.rows(k, k + 1) }.get(0, k);
        st.for_own_tiles(ctx, st.below_start(k), |r0, r1| {
            // SAFETY: own tile, parallel phase (disjoint across threads).
            let mut rows = unsafe { st.a.rows_mut(r0, r1) };
            hpl_blas::dscal_inv(pivot, rows.col_mut(k));
        });

        match st.inp.opts.variant {
            FactVariant::Right => {
                // Eager rank-1 trailing update within the sub-panel. No
                // barrier after the scale: a thread's update reads only the
                // multipliers of its own tiles, and row k stays frozen.
                if k + 1 < hi {
                    // SAFETY: as for the pivot read above.
                    let yrow = unsafe { st.top.rows(k, k + 1) }.submatrix(0, k + 1, 1, hi - k - 1);
                    st.for_own_tiles(ctx, st.below_start(k), |r0, r1| {
                        // SAFETY: own tile, parallel phase.
                        let mut rows = unsafe { st.a.rows_mut(r0, r1) };
                        let (xcol, mut rest) =
                            rows.submatrix_mut(0, 0, r1 - r0, hi).split_at_col(k + 1);
                        let x = xcol.col(k);
                        let mut c = rest.submatrix_mut(0, 0, r1 - r0, hi - k - 1);
                        for j in 0..c.cols() {
                            let yj = yrow.get(0, j);
                            if yj != E::ZERO {
                                hpl_blas::axpy_sub(yj, x, c.col_mut(j));
                            }
                        }
                    });
                }
            }
            FactVariant::Crout => {
                // Finalize row k across the remaining sub-panel columns:
                // top[k, k+1..hi] -= top[k, lo..k] * top[lo..k, k+1..hi].
                // The barrier separates the parallel scale from thread 0's
                // exclusive mutation of the shared `top`.
                ctx.barrier();
                if ctx.thread_id() == 0 && k + 1 < hi && k > lo {
                    // SAFETY: thread-0-exclusive phase — every other thread
                    // is parked at the loop's closing barrier.
                    let topv = unsafe { st.top.rows(lo, k + 1) };
                    // This runs once per panel column: scratch comes from
                    // the arena pool so the steady state stays
                    // allocation-free (hot-path-alloc contract).
                    E::with_scratch(hi - k - 1, |contrib| {
                        for (jj, c) in contrib.iter_mut().enumerate() {
                            let mut s = E::ZERO;
                            for p in lo..k {
                                s += topv.get(k - lo, p) * topv.get(p - lo, k + 1 + jj);
                            }
                            *c = s;
                        }
                        // SAFETY: same thread-0-exclusive phase as above.
                        let mut t = unsafe { st.top.rows_mut(k, k + 1) };
                        for (jj, &c) in contrib.iter().enumerate() {
                            let v = t.get(0, k + 1 + jj) - c;
                            t.set(0, k + 1 + jj, v);
                        }
                    });
                }
            }
            FactVariant::Left => {}
        }
        ctx.barrier();
    }
}

/// Lazy column-k update used by the Left and Crout variants:
/// `a[cand.., k] -= a[cand.., lo..k] * top[lo..k, k]`, tile-parallel.
fn update_col<E: Element>(st: &FactState<'_, E>, ctx: &Ctx<'_>, lo: usize, k: usize) {
    // SAFETY: rows `lo..k` of `top` are frozen during this parallel phase;
    // the candidate tiles start at row k.
    let topv = unsafe { st.top.rows(lo, k) };
    // Per-column workspaces come from the arena pool (nested regions check
    // out separate buffers), keeping the lazy column update allocation-free
    // in the steady state — this is the innermost FACT loop.
    E::with_scratch(k - lo, |u| {
        for (p, up) in u.iter_mut().enumerate() {
            *up = topv.get(p, k);
        }
        st.for_own_tiles(ctx, st.cand_start(k), |r0, r1| {
            // SAFETY: own tile, parallel phase.
            let mut rows = unsafe { st.a.rows_mut(r0, r1) };
            E::with_scratch(r1 - r0, |acc| {
                for (p, &up) in u.iter().enumerate() {
                    if up != E::ZERO {
                        hpl_blas::axpy_add(up, rows.col(lo + p), acc);
                    }
                }
                hpl_blas::dsub(rows.col_mut(k), acc);
            });
        });
    });
}

/// One pivot selection + swap at column `k`: thread-level argmax reduction,
/// then, on thread 0, the process-column collective and installation of the
/// winning row — or, with a process column of one rank, the swap of rows
/// `k` and the winner in place. Returns `false` if a zero pivot was found
/// or the collective failed (error flag set).
fn pivot_step<E: Element>(st: &FactState<'_, E>, ctx: &Ctx<'_>, k: usize) -> bool {
    // Thread-level argmax over this thread's tiles.
    let mut best_v = f64::NEG_INFINITY;
    let mut best_i = usize::MAX;
    st.for_own_tiles(ctx, st.cand_start(k), |r0, r1| {
        // SAFETY: reading own tiles during a parallel phase.
        let rows = unsafe { st.a.rows_mut(r0, r1) };
        // Tiles are visited in ascending row order, so merging per-tile
        // first-max winners with a strict `>` reproduces the flat
        // first-index-wins element loop exactly.
        let (off, av) = hpl_blas::argmax_abs(rows.col(k));
        let av = av.to_f64();
        if av > best_v {
            best_v = av;
            best_i = r0 + off;
        }
    });
    let (lv, li) = ctx.reduce_maxloc(best_v, best_i);

    // Thread 0 alone from here to the barrier below: every other thread has
    // left its tiles (their claims died at the reduction's barrier).
    if ctx.thread_id() == 0 {
        if st.inp.col_comm.size() == 1 {
            swap_in_place(st, k, lv, li);
        } else {
            pivot_exchange(st, k, lv, li);
        }
    }
    ctx.barrier();
    st.err.load(Ordering::Relaxed) == ERR_NONE
}

/// The pivot step's data motion when this rank is the whole process column
/// (so it owns the diagonal block and every candidate): rows `k` and `li`
/// trade places in one walk, which is what the collective's install would
/// write — no message, no copy. The zero-pivot test is the collective
/// path's on the payload that path would have built, so both report the
/// same [`HplError::Singular`]. Thread 0 only, between barriers.
fn swap_in_place<E: Element>(st: &FactState<'_, E>, k: usize, lv: f64, li: usize) {
    debug_assert!(
        st.inp.is_curr,
        "a one-rank process column owns the diagonal"
    );
    if li == usize::MAX || lv == 0.0 || !lv.is_finite() {
        st.err.store(st.inp.k0 + k, Ordering::Relaxed);
        return;
    }
    // SAFETY: thread-0-exclusive phase.
    let ipiv = unsafe { st.ipiv.get_mut() };
    ipiv[k] = st.global_row(li);
    if li != k {
        // Candidates start at row k, so `li > k`.
        // SAFETY: still the thread-0-exclusive phase.
        let mut rows = unsafe { st.a.rows_mut(k, li + 1) };
        for j in 0..st.jb {
            rows.col_mut(j).swap(0, li - k);
        }
    }
}

/// The pivot step across a process column of several ranks: one combined
/// collective (the winning candidate row and the diagonal owner's row `k`)
/// decides the pivot and carries both rows; the winner becomes row `k` of
/// `top` — on the diagonal owner that is the panel's own row `k` — and the
/// old row `k` moves to the winner's slot on the rank that owns it.
/// Thread 0 only, between barriers.
fn pivot_exchange<E: Element>(st: &FactState<'_, E>, k: usize, lv: f64, li: usize) {
    // Build this rank's contribution.
    let mine = if li != usize::MAX && lv > f64::NEG_INFINITY {
        // SAFETY: thread-0-exclusive phase.
        let cand = unsafe { st.a.rows(li, li + 1) };
        // xtask-allow: hot-path-alloc — pivot collective payload: ownership transfers to the fabric, which frees it on delivery
        let mut row = Vec::with_capacity(st.jb);
        for j in 0..st.jb {
            row.push(cand.get(0, j));
        }
        PivotMsg {
            val: lv,
            grow: st.global_row(li) as u64,
            row,
            currow: Vec::new(), // xtask-allow: hot-path-alloc — empty sentinel, never allocates
        }
    } else {
        PivotMsg {
            val: f64::NEG_INFINITY,
            grow: u64::MAX,
            row: Vec::new(), // xtask-allow: hot-path-alloc — empty sentinel, never allocates
            currow: Vec::new(), // xtask-allow: hot-path-alloc — empty sentinel, never allocates
        }
    };
    let mine = if st.inp.is_curr {
        // SAFETY: thread-0-exclusive phase.
        let cur = unsafe { st.a.rows(k, k + 1) };
        // xtask-allow: hot-path-alloc — pivot collective payload: ownership transfers to the fabric, which frees it on delivery
        let mut currow = Vec::with_capacity(st.jb);
        for j in 0..st.jb {
            currow.push(cur.get(0, j));
        }
        PivotMsg { currow, ..mine }
    } else {
        mine
    };
    let t0 = std::time::Instant::now();
    let win = allreduce_with(st.inp.col_comm, mine, PivotMsg::combine);
    st.comm_ns
        .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    let win = match win {
        Ok(w) => w,
        Err(e) => {
            // A peer died or the collective wedged. Record the cause and
            // raise the shared abort flag; every thread exits the region at
            // the pivot step's barrier and `panel_factor` surfaces the error
            // — no panic crosses the pool boundary.
            *st.comm_err.lock().expect("comm error slot poisoned") = Some(e);
            st.err.store(ERR_COMM, Ordering::Relaxed);
            return;
        }
    };
    if win.val == 0.0 || !win.val.is_finite() {
        st.err.store(st.inp.k0 + k, Ordering::Relaxed);
        return;
    }
    let grow = win.grow as usize;
    // SAFETY: thread-0-exclusive phase.
    let ipiv = unsafe { st.ipiv.get_mut() };
    ipiv[k] = grow;
    // Install the pivot row as factored row k (replicated).
    // SAFETY: still the thread-0-exclusive phase.
    let mut t = unsafe { st.top.rows_mut(k, k + 1) };
    for (j, &v) in win.row.iter().enumerate() {
        t.set(0, j, v);
    }
    // Move the old top row into the pivot position if we own it.
    if st.inp.rows.is_mine(grow) {
        let pli = st.inp.rows.to_local(grow) - st.inp.lb;
        // SAFETY: still the thread-0-exclusive phase.
        let mut arow = unsafe { st.a.rows_mut(pli, pli + 1) };
        for (j, &v) in win.currow.iter().enumerate() {
            arow.set(0, j, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// The aliasing ledger must catch two threads taking `rows_mut` views
    /// with overlapping row ranges in the same phase — the exact bug class
    /// the tile-ownership protocol exists to prevent. Ordering between the
    /// two claims is enforced so the violation is deterministic.
    #[test]
    fn ledger_catches_overlapping_rows_mut() {
        assert!(ledger::enabled(), "test builds must have the ledger on");
        let pool = Pool::new(2);
        let mut m = Matrix::<f64>::zeros(32, 4);
        let mut mv = m.view_mut();
        let shared = SharedMat::new(&mut mv);
        let step = AtomicUsize::new(0);
        struct Resolved<'a>(&'a AtomicUsize);
        impl Drop for Resolved<'_> {
            fn drop(&mut self) {
                self.0.store(2, Ordering::Release);
            }
        }
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(2, |ctx| {
                if ctx.thread_id() == 0 {
                    // SAFETY: rows 0..16 claimed by thread 0 only.
                    let _t0 = unsafe { shared.rows_mut(0, 16) };
                    step.store(1, Ordering::Release);
                    while step.load(Ordering::Acquire) < 2 {
                        std::thread::yield_now();
                    }
                } else {
                    while step.load(Ordering::Acquire) == 0 {
                        std::thread::yield_now();
                    }
                    let _resolved = Resolved(&step);
                    // SAFETY: deliberately violates the protocol (overlaps
                    // thread 0's live claim); the ledger must panic before
                    // any aliased &mut is actually used.
                    let _t1 = unsafe { shared.rows_mut(8, 24) };
                }
            });
        }))
        .expect_err("overlapping rows_mut claims must panic");
        let msg = err
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| err.downcast_ref::<&str>().copied())
            .unwrap_or("");
        assert!(
            msg.contains("race-ledger") || msg.contains("pool worker died"),
            "unexpected panic payload: {msg}"
        );
        // The claim outlived the region its holder died in; the matrix's
        // address may be handed to another test's matrix next.
        ledger::reset_object(m.as_slice().as_ptr() as usize);
    }

    /// Disjoint tiles and protocol-respecting phases must NOT trip the
    /// ledger (guards against false positives in the wiring).
    #[test]
    fn ledger_accepts_disjoint_tiles_and_frozen_reads() {
        let pool = Pool::new(4);
        let mut m = Matrix::<f64>::zeros(64, 4);
        let mut mv = m.view_mut();
        let shared = SharedMat::new(&mut mv);
        pool.run(4, |ctx| {
            let tid = ctx.thread_id();
            {
                // SAFETY: 16-row tiles, one per thread — disjoint.
                let mut t = unsafe { shared.rows_mut(tid * 16, (tid + 1) * 16) };
                t.set(0, 0, tid as f64);
            }
            ctx.barrier();
            // SAFETY: read-only phase, nobody mutates after the barrier.
            let v = unsafe { shared.rows(0, 64) };
            assert_eq!(v.get(tid * 16, 0), tid as f64);
        });
    }
}
