//! Row swapping (RS) — applying the panel's pivots to a range of trailing
//! columns and assembling the replicated `U` block (paper Fig 2c).
//!
//! The `NB` sequential swaps of the factorization are first collapsed into
//! their net permutation (HPL's `HPL_pipid` equivalent), which yields
//! * the **U sources**: for each panel row `k`, the original global row
//!   whose content becomes `U` row `k`, and
//! * the **moves**: rows whose content must land at positions outside the
//!   diagonal block (the "swapped-out" old diagonal rows, possibly chained).
//!
//! Communication then follows the paper's structure: move sources are
//! gathered to the diagonal-owning process row, scattered to their
//! destination rows (`MPI_Scatterv`), and the U sources are assembled on
//! every process row with a ring `MPI_Allgatherv`.
//!
//! Rows leave and enter the local matrix through **column-walk** kernels
//! (rocHPL's gather/scatter GPU kernels): the matrix is column-major, so
//! they visit one local column at a time and pick the wanted rows out of
//! it, touching each cache line and page of the section once. Everything
//! they produce is column-major too — a block of `r` rows over `w` columns
//! is `r x w` with leading dimension `r` — so a gathered block of all `jb`
//! U sources *is* the `U` operand the update reads.
//!
//! When the process column holds every row (`col_comm.size() == 1`) one
//! kernel, `swap_cols`, is the whole phase: per column it reads `U` and the
//! move sources and writes the moves back while the column is hot, so no
//! collective runs, nothing is left for [`apply_moves`] and the section is
//! walked once. Otherwise `gather_cols` packs this rank's sources, the
//! collectives route them, and `scatter_cols` ([`apply_moves`]) writes the
//! received moves — possibly one iteration later (the split update).

use hpl_blas::mat::{MatMut, Matrix};
use hpl_blas::Element;
use hpl_comm::{allgatherv, allgatherv_rd, gatherv, scatterv, Communicator, WireElem};

use crate::dist::Axis;
use crate::error::HplError;

/// Which allgather algorithm assembles the `U` block (HPL's row-swap
/// algorithm choice, `SWAP` in HPL.dat).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RowSwapAlgo {
    /// Bandwidth-optimal ring ("spread & roll" / long variant).
    #[default]
    Ring,
    /// Latency-optimal recursive doubling ("binary exchange").
    BinaryExchange,
    /// HPL's "mix": binary exchange while the section is narrower than the
    /// swapping threshold (latency-bound tail), ring otherwise.
    Mix {
        /// Column-width threshold below which binary exchange is used.
        threshold: usize,
    },
}

impl RowSwapAlgo {
    /// The fixed variants, for sweeps (Mix is parameterized).
    pub const ALL: [RowSwapAlgo; 2] = [RowSwapAlgo::Ring, RowSwapAlgo::BinaryExchange];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            RowSwapAlgo::Ring => "ring",
            RowSwapAlgo::BinaryExchange => "bin-exch",
            RowSwapAlgo::Mix { .. } => "mix",
        }
    }

    /// Resolves the algorithm for a section of `width` local columns.
    pub fn resolve(self, width: usize) -> RowSwapAlgo {
        match self {
            RowSwapAlgo::Mix { threshold } => {
                if width < threshold {
                    RowSwapAlgo::BinaryExchange
                } else {
                    RowSwapAlgo::Ring
                }
            }
            fixed => fixed,
        }
    }
}

/// The net effect of a panel's row interchanges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SwapPlan {
    /// Panel start.
    pub k0: usize,
    /// Panel width.
    pub jb: usize,
    /// `u_src[k]` = original global row whose content becomes `U` row `k`.
    pub u_src: Vec<usize>,
    /// `(dst, src)` pairs for content that must land outside the diagonal
    /// block, sorted by `dst`.
    pub moves: Vec<(usize, usize)>,
}

impl SwapPlan {
    /// Collapses the sequential swaps `k0+k <-> ipiv[k]` into a net plan.
    pub fn build(k0: usize, jb: usize, ipiv: &[usize]) -> Self {
        assert_eq!(ipiv.len(), jb);
        // The swaps touch the diagonal block (dense: `diag[k]` is the
        // content of position `k0 + k`) and the distinct pivot rows below
        // it (`below`, sorted, with `below_src[i]` the content of position
        // `below[i]`): a lookup is a binary search and the moves come out
        // ordered by destination.
        let mut below: Vec<usize> = ipiv.iter().copied().filter(|&p| p >= k0 + jb).collect();
        below.sort_unstable();
        below.dedup();
        let mut below_src = below.clone();
        let mut diag: Vec<usize> = (k0..k0 + jb).collect();
        for (k, &p) in ipiv.iter().enumerate() {
            debug_assert!(p >= k0 + k, "pivot must come from the trailing rows");
            if p < k0 + jb {
                diag.swap(k, p - k0);
            } else {
                let i = below
                    .binary_search(&p)
                    .expect("every pivot row below the block was collected");
                std::mem::swap(&mut diag[k], &mut below_src[i]);
            }
        }
        let moves = below
            .into_iter()
            .zip(below_src)
            .filter(|(dst, src)| dst != src)
            .collect();
        Self {
            k0,
            jb,
            u_src: diag,
            moves,
        }
    }
}

/// A contiguous range of local columns the swap applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ColRange {
    /// First local column (inclusive).
    pub start: usize,
    /// One past the last local column.
    pub end: usize,
}

impl ColRange {
    /// Number of columns.
    #[inline]
    pub fn width(&self) -> usize {
        self.end - self.start
    }
}

/// The "gather" kernel: walks the columns of `range` once and copies two
/// sets of local rows out of each — `u_rows` into column `j` of `u_out` and
/// `mv_rows` into column `j` of `mv_out`, both column-major with leading
/// dimension equal to their row count.
fn gather_cols<E: Element>(
    a: &MatMut<'_, E>,
    range: ColRange,
    u_rows: &[usize],
    u_out: &mut [E],
    mv_rows: &[usize],
    mv_out: &mut [E],
) {
    let (nu, nm) = (u_rows.len(), mv_rows.len());
    debug_assert_eq!(u_out.len(), nu * range.width());
    debug_assert_eq!(mv_out.len(), nm * range.width());
    for (j, lj) in (range.start..range.end).enumerate() {
        let col = a.col(lj);
        for (o, &r) in u_out[j * nu..(j + 1) * nu].iter_mut().zip(u_rows) {
            *o = col[r];
        }
        for (o, &r) in mv_out[j * nm..(j + 1) * nm].iter_mut().zip(mv_rows) {
            *o = col[r];
        }
    }
}

/// The "scatter" kernel, `gather_cols`'s inverse for one row set: writes
/// column `j` of the column-major `rows.len() x width` block `vals` into
/// local rows `rows` of column `range.start + j`.
fn scatter_cols<E: Element>(a: &mut MatMut<'_, E>, range: ColRange, rows: &[usize], vals: &[E]) {
    let n = rows.len();
    debug_assert_eq!(vals.len(), n * range.width());
    if n == 0 {
        return;
    }
    for (j, lj) in (range.start..range.end).enumerate() {
        let col = a.col_mut(lj);
        for (&r, &v) in rows.iter().zip(&vals[j * n..(j + 1) * n]) {
            col[r] = v;
        }
    }
}

/// The whole swap of a process column that holds every row, in one walk:
/// per column `j` of `range`, the `u_rows` go into column `j` of `u_out`
/// and the `mv_src` rows into `col_buf`, then `col_buf` is written to the
/// `mv_dst` rows while the column is hot. Every read of a column comes
/// before its first write: a pivot row below the diagonal block is both a
/// `U` source and a move destination, and `U` must get its pre-swap value.
fn swap_cols<E: Element>(
    a: &mut MatMut<'_, E>,
    range: ColRange,
    u_rows: &[usize],
    u_out: &mut [E],
    mv_src: &[usize],
    mv_dst: &[usize],
    col_buf: &mut [E],
) {
    let nu = u_rows.len();
    debug_assert_eq!(u_out.len(), nu * range.width());
    debug_assert_eq!(col_buf.len(), mv_src.len());
    debug_assert_eq!(mv_dst.len(), mv_src.len());
    for (j, lj) in (range.start..range.end).enumerate() {
        let col = a.col_mut(lj);
        for (o, &r) in u_out[j * nu..(j + 1) * nu].iter_mut().zip(u_rows) {
            *o = col[r];
        }
        for (o, &r) in col_buf.iter_mut().zip(mv_src) {
            *o = col[r];
        }
        for (&r, &v) in mv_dst.iter().zip(col_buf.iter()) {
            col[r] = v;
        }
    }
}

/// Sets `v`'s length to `n` without touching what is already there;
/// allocation-free once `v` has held `n` elements.
fn set_len<E: Element>(v: &mut Vec<E>, n: usize) {
    if v.len() < n {
        v.resize(n, E::ZERO);
    } else {
        v.truncate(n);
    }
}

/// What one section's row swap leaves behind — the assembled `U` block
/// and, after a communicated swap (`P > 1`), the move rows destined for
/// this rank, not yet scattered into the local matrix — and the buffers
/// the phase packs through. A value is reusable across calls and sections:
/// every buffer only grows, so a driver that sizes one with
/// [`RsData::for_sections`] at setup allocates nothing in the phase
/// afterwards.
pub struct RsData<E: Element = f64> {
    /// Replicated `U` block (`jb x width`), raw (pre-DTRSM).
    pub u: Matrix<E>,
    /// Local destination row of each move row this rank receives, in move
    /// order.
    move_dst: Vec<usize>,
    /// The received move rows, column-major `move_dst.len() x width`; what
    /// [`apply_moves`] scatters. At `P = 1`, the one column `swap_cols`
    /// stages the move sources through.
    move_vals: Vec<E>,
    /// Whether `move_vals` still has to be scattered: `false` after a
    /// `P = 1` swap, which wrote the moves itself.
    moves_pending: bool,
    /// Local rows of the `U` sources this rank owns, in `k` order.
    u_rows: Vec<usize>,
    /// Local rows of the move sources this rank owns, in move order.
    mv_rows: Vec<usize>,
    /// Packed `U` sources of this rank (`P > 1` only; at `P = 1` the
    /// kernel reads straight into `u`).
    u_chunk: Vec<E>,
    /// Packed move sources of this rank (`P > 1` only).
    mv_chunk: Vec<E>,
}

impl<E: Element> RsData<E> {
    /// Buffers for sections of up to `jb x width` on a process column of
    /// `nprow` ranks (`0 x 0`: nothing is allocated until the first use).
    pub fn for_sections(jb: usize, width: usize, nprow: usize) -> Self {
        // At `P = 1` the move rows pass through one column; otherwise they
        // arrive in the scatterv's own vector.
        let (column, packed) = if nprow == 1 { (jb, 0) } else { (0, jb * width) };
        Self {
            u: Matrix::zeros(jb, width),
            move_dst: Vec::with_capacity(jb),
            move_vals: Vec::with_capacity(column),
            moves_pending: false,
            u_rows: Vec::with_capacity(jb),
            mv_rows: Vec::with_capacity(jb),
            u_chunk: Vec::with_capacity(packed),
            mv_chunk: Vec::with_capacity(packed),
        }
    }
}

/// Where the rows of a rank-major concatenation of per-rank column-major
/// blocks live: item `i`, the `t`-th row owned by rank `r`, starts at
/// `slots[i].0 = width * (rows owned by ranks < r) + t` and advances by
/// `slots[i].1 = (rows owned by r)` per column. `counts` is each rank's
/// block size in elements — the collectives' count vector.
struct Blocks {
    slots: Vec<(usize, usize)>,
    counts: Vec<usize>,
}

impl Blocks {
    fn layout(owners: impl Iterator<Item = usize> + Clone, nprow: usize, width: usize) -> Self {
        let mut nrows = vec![0usize; nprow];
        for r in owners.clone() {
            nrows[r] += 1;
        }
        let mut base = vec![0usize; nprow];
        for r in 1..nprow {
            base[r] = base[r - 1] + nrows[r - 1] * width;
        }
        let mut seen = vec![0usize; nprow];
        let slots = owners
            .map(|r| {
                let slot = (base[r] + seen[r], nrows[r]);
                seen[r] += 1;
                slot
            })
            .collect();
        Self {
            slots,
            counts: nrows.iter().map(|&c| c * width).collect(),
        }
    }
}

/// Copies `width` columns of rows between two block layouts: row `i` goes
/// from `src` slot `from[i]` to `dst` slot `to[i]`, column by column.
fn repack<E: Element>(
    width: usize,
    from: &[(usize, usize)],
    src: &[E],
    to: &[(usize, usize)],
    dst: &mut [E],
) {
    debug_assert_eq!(from.len(), to.len());
    for j in 0..width {
        for (&(s0, sld), &(d0, dld)) in from.iter().zip(to) {
            dst[d0 + j * dld] = src[s0 + j * sld];
        }
    }
}

/// The row-swap phase up to the scatter, over one process column. At
/// `P = 1` that is the whole phase: one `swap_cols` walk assembles `U` in
/// `data` and writes the moves into `a`, leaving [`apply_moves`] nothing to
/// do. At `P > 1` it gathers the source rows this rank owns, routes move
/// rows via the diagonal-owning process row (gatherv + scatterv),
/// allgathers the `U` sources, and leaves everything in `data` *without
/// writing to `a`* — the split-update schedule scatters one iteration
/// later.
///
/// Collective over `col_comm`; all ranks of the process column must call it
/// with the same `plan`.
pub fn row_swap_comm<E: WireElem>(
    col_comm: &Communicator,
    rows: Axis,
    plan: &SwapPlan,
    prow_curr: usize,
    a: &mut MatMut<'_, E>,
    range: ColRange,
    algo: RowSwapAlgo,
    data: &mut RsData<E>,
) -> Result<(), HplError> {
    let _span = hpl_trace::span(hpl_trace::Phase::RowSwap);
    let w = range.width();
    let jb = plan.jb;
    let me = col_comm.rank();
    let nprow = col_comm.size();

    let local = |g: &usize| rows.to_local(*g);
    let mine = |g: &&usize| rows.owner(**g) == me;
    data.u_rows.clear();
    data.u_rows
        .extend(plan.u_src.iter().filter(mine).map(local));
    data.mv_rows.clear();
    data.mv_rows.extend(
        plan.moves
            .iter()
            .map(|(_, src)| src)
            .filter(mine)
            .map(local),
    );
    data.move_dst.clear();
    data.move_dst.extend(
        plan.moves
            .iter()
            .map(|(dst, _)| dst)
            .filter(mine)
            .map(local),
    );
    data.u.reshape(jb, w);
    data.moves_pending = nprow > 1;

    if nprow == 1 {
        // Every source and destination row is local: swap in one walk.
        set_len(&mut data.move_vals, data.mv_rows.len());
        swap_cols(
            a,
            range,
            &data.u_rows,
            data.u.as_mut_slice(),
            &data.mv_rows,
            &data.move_dst,
            &mut data.move_vals,
        );
        return Ok(());
    }

    set_len(&mut data.u_chunk, data.u_rows.len() * w);
    set_len(&mut data.mv_chunk, data.mv_rows.len() * w);
    gather_cols(
        a,
        range,
        &data.u_rows,
        &mut data.u_chunk,
        &data.mv_rows,
        &mut data.mv_chunk,
    );

    // ---- Move routing: gather sources to the current row, scatter to
    // destinations (paper: "scatter the NB source rows to their destination
    // processes ... via a Scatterv"). ----
    data.move_vals.clear();
    if !plan.moves.is_empty() {
        let gathered = gatherv(col_comm, prow_curr, &data.mv_chunk)?;
        // On the root, `flat` concatenates each rank's block of the moves
        // it owns the *source* of; the scatter wants them blocked by
        // destination owner.
        let routed = gathered.map(|flat| {
            let by_src = Blocks::layout(plan.moves.iter().map(|&(_, s)| rows.owner(s)), nprow, w);
            let by_dst = Blocks::layout(plan.moves.iter().map(|&(d, _)| rows.owner(d)), nprow, w);
            let mut out = vec![E::ZERO; flat.len()];
            repack(w, &by_src.slots, &flat, &by_dst.slots, &mut out);
            (out, by_dst.counts)
        });
        data.move_vals = match routed {
            Some((buf, counts)) => scatterv(col_comm, prow_curr, Some((&buf, &counts)))?,
            None => scatterv(col_comm, prow_curr, None)?,
        };
        debug_assert_eq!(data.move_vals.len(), data.move_dst.len() * w);
    }

    // ---- U assembly: allgatherv of the U source rows, then rank-major
    // blocks into k-order. ----
    let by_owner = Blocks::layout(plan.u_src.iter().map(|&s| rows.owner(s)), nprow, w);
    let flat = match algo.resolve(w) {
        RowSwapAlgo::Ring => allgatherv(col_comm, &data.u_chunk, &by_owner.counts)?,
        RowSwapAlgo::BinaryExchange => allgatherv_rd(col_comm, &data.u_chunk, &by_owner.counts)?,
        RowSwapAlgo::Mix { .. } => unreachable!("resolve() returns a fixed variant"),
    };
    let in_u: Vec<(usize, usize)> = (0..jb).map(|k| (k, jb)).collect();
    repack(w, &by_owner.slots, &flat, &in_u, data.u.as_mut_slice());
    Ok(())
}

/// Scatters previously communicated move rows back into the local matrix
/// (rocHPL's "scatter" GPU kernel). A no-op, with no `Scatter` span, after
/// a `P = 1` swap: [`row_swap_comm`] wrote the moves itself.
pub fn apply_moves<E: Element>(a: &mut MatMut<'_, E>, range: ColRange, data: &RsData<E>) {
    if !data.moves_pending {
        return;
    }
    let _span = hpl_trace::span(hpl_trace::Phase::Scatter);
    scatter_cols(a, range, &data.move_dst, &data.move_vals);
}

/// The complete row-swap phase: swap (communicating at `P > 1`), scatter
/// the moves, and return the assembled `U` block. Owns its buffers; the
/// driver, which runs the phase every iteration, keeps an [`RsData`] and
/// calls the two halves.
pub fn row_swap<E: WireElem>(
    col_comm: &Communicator,
    rows: Axis,
    plan: &SwapPlan,
    prow_curr: usize,
    a: &mut MatMut<'_, E>,
    range: ColRange,
    algo: RowSwapAlgo,
) -> Result<Matrix<E>, HplError> {
    let mut data = RsData::for_sections(plan.jb, range.width(), col_comm.size());
    row_swap_comm(col_comm, rows, plan, prow_curr, a, range, algo, &mut data)?;
    apply_moves(a, range, &data);
    Ok(data.u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_pivots_produce_no_moves() {
        let ipiv: Vec<usize> = (10..14).collect();
        let plan = SwapPlan::build(10, 4, &ipiv);
        assert!(plan.moves.is_empty());
        assert_eq!(plan.u_src, vec![10, 11, 12, 13]);
    }

    #[test]
    fn single_distant_pivot() {
        // k0 = 0, jb = 2: step 0 picks row 7, step 1 picks row 1 (itself).
        let plan = SwapPlan::build(0, 2, &[7, 1]);
        assert_eq!(plan.u_src, vec![7, 1]);
        assert_eq!(plan.moves, vec![(7, 0)]);
    }

    #[test]
    fn chained_pivot_positions() {
        // Position 5 is pivot twice: step 0 moves row 0 content to 5;
        // step 1 moves that content onward to the diagonal.
        let plan = SwapPlan::build(0, 2, &[5, 5]);
        // After swap 0: pos0=5, pos5=0. After swap 1: pos1=pos5(=0), pos5=1.
        assert_eq!(plan.u_src, vec![5, 0]);
        assert_eq!(plan.moves, vec![(5, 1)]);
    }

    #[test]
    fn pivot_inside_diag_block() {
        // jb = 3, step 0 picks row 2 (inside the diagonal block).
        let plan = SwapPlan::build(0, 3, &[2, 1, 2]);
        // swap0: p0=2, p2=0; swap1: identity; swap2: p2<->p2 identity.
        assert_eq!(plan.u_src, vec![2, 1, 0]);
        assert!(plan.moves.is_empty());
    }

    #[test]
    fn net_permutation_matches_sequential_simulation() {
        // Randomized: apply swaps to an explicit vector and compare.
        let k0 = 4;
        let jb = 6;
        let n = 30;
        let mut s = 12345u64;
        for trial in 0..50 {
            let ipiv: Vec<usize> = (0..jb)
                .map(|k| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(trial + 1);
                    k0 + k + (s >> 33) as usize % (n - k0 - k)
                })
                .collect();
            let mut v: Vec<usize> = (0..n).collect();
            for (k, &p) in ipiv.iter().enumerate() {
                v.swap(k0 + k, p);
            }
            let plan = SwapPlan::build(k0, jb, &ipiv);
            for k in 0..jb {
                assert_eq!(plan.u_src[k], v[k0 + k], "trial {trial} k {k}");
            }
            for &(dst, src) in &plan.moves {
                assert_eq!(v[dst], src, "trial {trial} dst {dst}");
                assert!(dst >= k0 + jb);
            }
            // Every position outside the diagonal block whose content
            // changed must appear as a move destination.
            for (pos, &c) in v.iter().enumerate().skip(k0 + jb) {
                if c != pos {
                    assert!(plan.moves.iter().any(|&(d, s2)| d == pos && s2 == c));
                }
            }
        }
    }
}
