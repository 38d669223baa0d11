//! The benchmark driver: one schedule loop runs FACT, LBCAST, RS and UPDATE
//! over the panel iterations, then the distributed back-substitution.
//!
//! Iteration `it` of the loop:
//! 1. takes the panel carried from iteration `it - 1`, or factors and
//!    broadcasts panel `it` when none is carried;
//! 2. scatters the right section's prefetched rows if the split is live;
//! 3. swaps and updates the look-ahead columns (the local columns of panel
//!    `it + 1`);
//! 4. factors and broadcasts panel `it + 1` in a `hidden` slot, *before*
//!    the rest of the update when this rank holds look-ahead columns or the
//!    split is live, and otherwise *after* it, not hidden;
//! 5. swaps and updates the rest: up to the split point, `hidden`, when the
//!    split is live; to the last local column otherwise;
//! 6. if the split is live, runs UPDATE2 on the right section, then
//!    prefetches its RS2 for iteration `it + 1` (`hidden`).
//!
//! The three schedules are this loop with look-ahead off (the reference
//! order: nothing is carried, so step 4 never runs), on (paper Fig 3), and
//! on with a right section (Fig 6: the split is live until the shrinking
//! left section reaches the split point). The `hidden` slots are those a
//! GPU timeline overlaps with an update. All three perform the same
//! arithmetic on the same operands in a different order *between*
//! independent column groups, so their results are bitwise identical; the
//! integration tests rely on this.
//!
//! The phase trace (`hpl_trace`) is the driver's only timing record;
//! `hpl_trace::report::iteration_table` turns it into the per-iteration
//! breakdown of Fig 7.

use std::sync::Arc;
use std::time::Instant;

use hpl_blas::Element;
use hpl_ckpt::CkptStore;
use hpl_comm::{Communicator, Grid, WireElem};
use hpl_threads::Pool;

use crate::config::{HplConfig, Schedule};
use crate::error::HplError;
use crate::fact::{panel_factor_into, FactInput, FactOut};
use crate::local::{LocalMatrix, System};
use crate::panel::{lbcast_store, pack_panel_in_place, PanelGeom, PanelL, PanelStore};
use crate::solve::back_substitute;
use crate::swap::{apply_moves, row_swap_comm, ColRange, RsData, SwapPlan};
use crate::update::{copy_u, dgemm_l2, dtrsm_u};

/// Result of a benchmark run on one rank.
pub struct HplResult {
    /// The solution vector, replicated on every rank.
    pub x: Vec<f64>,
    /// Total factorization+solve wall time on this rank (seconds).
    pub wall: f64,
    /// Benchmark GFLOPS (HPL formula over the wall time).
    pub gflops: f64,
    /// Minor page faults the whole process took over the same clock as
    /// `wall` ([`hpl_trace::minor_faults`]; every in-process rank counts).
    pub minor_faults: u64,
    /// Phase trace of this rank (when `cfg.trace.enabled`).
    pub trace: Option<hpl_trace::Trace>,
    /// Name of the DGEMM microkernel the run resolved to
    /// (`"scalar"` / `"simd"`; see `hpl_blas::kernels`).
    pub kernel: &'static str,
    /// Element precision the factorization ran in (`"f64"` / `"f32"`;
    /// see [`hpl_blas::Element::NAME`]).
    pub element: &'static str,
    /// Iteration this run restored to from a checkpoint (`None` for a
    /// from-scratch run).
    pub resumed_from: Option<usize>,
    /// Timed-out receive polls this rank retried with backoff (see
    /// `hpl_comm::RecoveryCounters`).
    pub retries: u64,
    /// Digest of the answer: [`hpl_trace::report::x_hash`] over `x` and
    /// the pivot log. Identical on every rank.
    pub x_hash: u64,
}

/// One iteration's panel, after factorization and broadcast.
struct IterPanel<E: Element> {
    geom: PanelGeom,
    panel: PanelL<E>,
    plan: SwapPlan,
}

/// Which row-swap workspace of the driver a section's `U` block is in.
#[derive(Clone, Copy)]
enum Section {
    /// `Driver::rs`.
    Immediate,
    /// `Driver::rs_right`.
    Right,
}

/// Driver-side checkpoint machinery (inert when no store is configured).
struct CkptState<E: Element> {
    every: usize,
    store: Option<Arc<CkptStore>>,
    /// This rank's world rank (the snapshot index in the store).
    rank: usize,
    id: hpl_ckpt::ConfigId,
    /// `(iter, [(packed index, value)])`: local-matrix entries as they were
    /// before iteration `iter`'s own work overwrote them ahead of its
    /// snapshot. Under look-ahead, panel `k` is factored during iteration
    /// `k-1`, and at `P = 1` the split update's right section is swapped
    /// by panel `k`'s pivots there too (its moves and its `U` rows, which
    /// the swap writes in place); the snapshot taken at the top of
    /// iteration `k` overlays this stash to recover the state a restore
    /// must hand back to `fact_and_bcast` and `prefetch_rs2`.
    pre_image: Option<(usize, Vec<(usize, E)>)>,
}

impl<E: Element> CkptState<E> {
    /// Adds the current values of `a` at the local `(li, lj)` entries `at`
    /// to iteration `it`'s pre-image when `it` is a checkpoint boundary,
    /// keyed by their index in the snapshot's packed `mloc x nloc` layout.
    fn stash(&mut self, it: usize, a: &LocalMatrix<E>, at: impl Iterator<Item = (usize, usize)>) {
        if self.store.is_none() || !hpl_ckpt::due(self.every, it) {
            return;
        }
        if !matches!(self.pre_image, Some((i, _)) if i == it) {
            self.pre_image = Some((it, Vec::new()));
        }
        if let Some((_, vals)) = &mut self.pre_image {
            vals.extend(at.map(|(li, lj)| (lj * a.mloc + li, a.get(li, lj))));
        }
    }
}

struct Driver<'a, E: Element> {
    grid: &'a Grid,
    cfg: &'a HplConfig,
    pool: Pool,
    a: LocalMatrix<E>,
    ckpt: CkptState<E>,
    /// Global pivot row per factored global column, grown panel by panel.
    /// Maintained unconditionally (not just on checkpointed runs): the
    /// mixed-precision refinement sweeps replay the factorization's row
    /// exchanges against fresh right-hand sides from this log.
    pivot_log: Vec<u64>,
    /// Row-swap workspace of the sections swapped and updated at once,
    /// sized at setup for the widest (see `swap::RsData`).
    rs: RsData<E>,
    /// Row-swap workspace of the split update's right section, whose
    /// communication is prefetched one iteration ahead of its scatter and
    /// update — it must outlive the immediate sections in between. Empty
    /// outside the split-update schedule.
    rs_right: RsData<E>,
    /// The storage of the last retired panel and its swap plan, which the
    /// next `fact_and_bcast` refills. At most two panels are live at once
    /// (the current one and the look-ahead one), so one spare keeps the
    /// loop off the allocator after its first two panels.
    spare: Option<(PanelStore<E>, SwapPlan)>,
}

/// Maps a checkpoint-layer failure into the pipeline taxonomy.
fn ckpt_err(e: hpl_ckpt::CkptError) -> HplError {
    HplError::Ckpt {
        what: e.to_string(),
    }
}

/// Runs the full HPL benchmark on this rank with the seeded random system.
/// Collective over all ranks of `comm` (which must have exactly
/// `cfg.p * cfg.q` ranks).
pub fn run_hpl(comm: Communicator, cfg: &HplConfig) -> Result<HplResult, HplError> {
    run_hpl_system::<f64>(comm, cfg, System::Seeded(cfg.seed))
}

/// The benchmark on `system`, monomorphized over the pipeline [`Element`]:
/// the whole elimination — panel factorization, LBCAST, row swaps, split
/// update and the distributed back-substitution — runs in `E`, and the
/// solution is widened to `f64` only at the very end (exact for both
/// precisions). An `f32` run is the HPL-MxP factorization; its solution
/// carries `f32` accuracy until iterative refinement recovers the rest.
///
/// The HPL clock (`wall`, `gflops`) covers factorization and solve, as in
/// netlib HPL and rocHPL: it starts once the system is generated.
pub fn run_hpl_system<E: WireElem>(
    comm: Communicator,
    cfg: &HplConfig,
    system: System<'_>,
) -> Result<HplResult, HplError> {
    cfg.validate();
    let grid = Grid::new(comm, cfg.p, cfg.q, cfg.order);
    // The tracer lives in thread-local storage of this rank's thread; no
    // signature in the pipeline changes whether tracing is on or off.
    hpl_trace::install(cfg.trace);
    let a = system.local::<E>(cfg.n, cfg.nb, &grid);
    let (t0, faults0) = (Instant::now(), hpl_trace::minor_faults());
    let solved = factorize_local(&grid, cfg, a)
        .and_then(|out| Ok((back_substitute(&out.a, &grid, cfg.nb)?, out)));
    let wall = t0.elapsed().as_secs_f64();
    let minor_faults = hpl_trace::minor_faults().saturating_sub(faults0);
    let trace = hpl_trace::take();
    let (x, out) = solved?;
    let x: Vec<f64> = x.iter().map(|v| v.to_f64()).collect();
    Ok(HplResult {
        x_hash: hpl_trace::report::x_hash(&x, &out.pivot_log),
        x,
        wall,
        gflops: cfg.flops() / wall / 1e9,
        minor_faults,
        trace,
        kernel: hpl_blas::kernels::active().name(),
        element: E::NAME,
        resumed_from: out.resumed_from,
        retries: grid.world().comm_retries(),
    })
}

/// Everything the elimination leaves resident on one rank: the factored
/// local matrix (`L` strictly below the diagonal, `U` on and above it, the
/// transformed right-hand side in global column `n`) plus the complete
/// pivot history. This is the substrate of HPL-MxP: `hpl-mxp` keeps the
/// `f32` factors resident and replays `pivot_log` against fresh residual
/// right-hand sides each refinement sweep.
pub struct PipelineOut<E: Element = f64> {
    /// The factored local matrix slice.
    pub a: LocalMatrix<E>,
    /// Global pivot row chosen for every factored global column.
    pub pivot_log: Vec<u64>,
    /// Iteration this run restored to from a checkpoint (`None` for a
    /// from-scratch run).
    pub resumed_from: Option<usize>,
}

/// Generates the caller-supplied system `fill` and runs
/// [`factorize_local`] on it.
pub fn factorize<E: WireElem>(
    grid: &Grid,
    cfg: &HplConfig,
    fill: &(dyn Fn(usize, usize) -> f64 + Sync),
) -> Result<PipelineOut<E>, HplError> {
    factorize_local(grid, cfg, System::Fill(fill).local(cfg.n, cfg.nb, grid))
}

/// Runs the distributed elimination (everything up to but excluding the
/// back-substitution) of this rank's slice `a` under `cfg.schedule` and
/// returns the resident factors. Collective over the grid; the caller owns
/// tracing (`hpl_trace::install`/`take`) when it wants a phase trace.
pub fn factorize_local<E: WireElem>(
    grid: &Grid,
    cfg: &HplConfig,
    a: LocalMatrix<E>,
) -> Result<PipelineOut<E>, HplError> {
    let rs = RsData::for_sections(cfg.nb.min(cfg.n), a.nloc, grid.nprow());
    let pool = Pool::new(cfg.fact.threads.max(cfg.update_threads).max(1));
    // On fault-injected runs, tag the pool with this rank's identity so
    // worker-thread faults (slow worker, death during FACT) match
    // deterministically; fault-free runs pay one uninitialized OnceLock read
    // per region.
    if let Some(inj) = grid.world().fault_injector() {
        pool.arm_faults(grid.world().rank(), inj);
    }
    let mut d = Driver {
        grid,
        cfg,
        pool,
        a,
        ckpt: CkptState {
            every: cfg.ckpt.every,
            store: cfg.ckpt.store.clone(),
            rank: grid.world().rank(),
            id: cfg.ckpt_id(),
            pre_image: None,
        },
        pivot_log: Vec::with_capacity(cfg.n),
        rs,
        // Sized for the schedule's right section by `run`.
        rs_right: RsData::for_sections(0, 0, 1),
        spare: None,
    };
    let resumed_from = d.restore_if_due()?;
    let start = resumed_from.unwrap_or(0);
    d.run(start)?;
    Ok(PipelineOut {
        a: d.a,
        pivot_log: d.pivot_log,
        resumed_from,
    })
}

impl<E: WireElem> Driver<'_, E> {
    /// Panel geometry for iteration `it`.
    fn geom(&self, it: usize) -> PanelGeom {
        let k0 = it * self.cfg.nb;
        let jb = self.cfg.nb.min(self.cfg.n - k0);
        PanelGeom::new(&self.a, self.grid, k0, jb)
    }

    /// First local trailing column after iteration `it`'s panel.
    fn trailing(&self, it: usize) -> usize {
        let k0 = it * self.cfg.nb;
        let jb = self.cfg.nb.min(self.cfg.n - k0);
        self.a.cols.local_lower_bound(k0 + jb)
    }

    /// Factors panel `it` and broadcasts it, into the storage of the last
    /// retired panel. With one process column there is nothing to
    /// broadcast, and the panel is built where it lies.
    fn fact_and_bcast(&mut self, it: usize) -> Result<IterPanel<E>, HplError> {
        let geom = self.geom(it);
        let (mut store, mut plan) = self
            .spare
            .take()
            .unwrap_or_else(|| (PanelStore::empty(), SwapPlan::default()));
        let row = self.grid.row();
        let panel = if geom.in_panel_col {
            // Factoring destroys the panel columns' pre-fact values, which
            // the snapshot at the top of iteration `it` needs (see
            // `CkptState::pre_image`).
            let mloc = self.a.mloc;
            let cols =
                (geom.lj0..geom.lj0 + geom.jb).flat_map(|lj| (0..mloc).map(move |li| (li, lj)));
            self.ckpt.stash(it, &self.a, cols);

            let f0 = hpl_trace::now_ns();
            let out: FactOut<E> = {
                let inp = FactInput {
                    col_comm: self.grid.col(),
                    rows: self.a.rows,
                    k0: geom.k0,
                    jb: geom.jb,
                    lb: geom.lb,
                    is_curr: geom.in_curr_row,
                    pool: &self.pool,
                    opts: self.cfg.fact,
                };
                let mut av = self.a.view_mut();
                let mut panel = av.submatrix_mut(geom.lb, geom.lj0, geom.mp, geom.jb);
                panel_factor_into(&inp, &mut panel, store.top, store.ipiv)?
            };
            // The pivot collectives run inside `panel_factor` — possibly on
            // pool worker threads where the rank's tracer is invisible — so
            // their time is re-exported here as one aggregate span nested in
            // the Fact window. Consumers treat `fact_comm` as the comm share
            // *inside* `fact`, not an addition to it.
            hpl_trace::record(
                hpl_trace::Phase::FactComm,
                f0,
                (out.comm_seconds * 1e9) as u64,
                0,
            );

            (store.top, store.ipiv) = (out.top, out.ipiv);
            if row.size() == 1 {
                PanelL::in_place(&geom, store)
            } else {
                store.buf.clear();
                store.buf.reserve_exact(geom.bcast_len());
                pack_panel_in_place(&self.a, &geom, &store.top, &store.ipiv, &mut store.buf);
                lbcast_store(row, self.cfg.bcast, &geom, store, false)?
            }
        } else {
            lbcast_store(row, self.cfg.bcast, &geom, store, true)?
        };
        plan.rebuild(geom.k0, geom.jb, &panel.ipiv);
        // Every rank holds the broadcast pivots; extend the history
        // unconditionally (idempotent on a resumed re-factor) — snapshots
        // carry it, and the refinement sweeps replay it.
        let log = &mut self.pivot_log;
        if log.len() < geom.k0 + geom.jb {
            log.resize(geom.k0 + geom.jb, 0);
        }
        for (j, &piv) in panel.ipiv.iter().enumerate() {
            log[geom.k0 + j] = piv as u64;
        }
        Ok(IterPanel { geom, panel, plan })
    }

    /// This rank's injection-site cursors (send, recv, region), recorded in
    /// snapshots as recovery diagnostics: they say how far through the fault
    /// plan the rank was at the boundary. In-process recovery keeps the live
    /// armed injector, which stays authoritative.
    fn fault_cursors(&self) -> Vec<u64> {
        use hpl_faults::Site;
        match self.grid.world().fault_injector() {
            Some(inj) => [Site::Send, Site::Recv, Site::Region]
                .iter()
                .map(|&s| inj.site_count(self.ckpt.rank, s))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Deposits this rank's snapshot when iteration `it` is a checkpoint
    /// boundary. Purely local — no messages — so a boundary costs one local
    /// matrix copy plus the encode; the store's completion marker provides
    /// the coordination (a generation is restorable only once every rank
    /// has deposited).
    fn maybe_checkpoint(&mut self, it: usize) -> Result<(), HplError> {
        if !hpl_ckpt::due(self.ckpt.every, it) {
            return Ok(());
        }
        let Some(store) = self.ckpt.store.clone() else {
            return Ok(());
        };
        let _sp = hpl_trace::span(hpl_trace::Phase::Ckpt);
        // Snapshots are stored widened to `f64` and packed without the
        // storage's padding regardless of the pipeline element (one on-disk
        // format; see `LocalMatrix::packed_f64`).
        let mut data = self.a.packed_f64();
        if let Some((siter, vals)) = &self.ckpt.pre_image {
            if *siter == it {
                // Under look-ahead, iteration `it`'s work began in
                // iteration `it - 1`; snapshot what it overwrote. Reversed,
                // so the earliest stash of an entry wins.
                for &(i, v) in vals.iter().rev() {
                    data[i] = v.to_f64();
                }
            }
        }
        let factored = (it * self.cfg.nb).min(self.cfg.n);
        let snap = hpl_ckpt::Snapshot {
            id: self.ckpt.id,
            rank: self.ckpt.rank as u64,
            next_iter: it as u64,
            mloc: self.a.mloc as u64,
            nloc: self.a.nloc as u64,
            data,
            pivots: self.pivot_log.get(..factored).unwrap_or(&[]).to_vec(),
            cursors: self.fault_cursors(),
        };
        store
            .deposit(it as u64, self.ckpt.rank, hpl_ckpt::encode(&snap))
            .map_err(ckpt_err)?;
        Ok(())
    }

    /// Restores this rank from the store's latest complete generation when
    /// the configuration asks for a resume. Returns the iteration to start
    /// from (`None`: cold start). The `Restore` span it records is excluded
    /// from `hpl_trace::report::seq_hash_from`, so a resumed run's hash can
    /// be compared against an uninterrupted one.
    fn restore_if_due(&mut self) -> Result<Option<usize>, HplError> {
        if !self.cfg.ckpt.resume {
            return Ok(None);
        }
        let Some(store) = self.ckpt.store.clone() else {
            return Ok(None);
        };
        let Some(gen) = store.latest_complete() else {
            return Ok(None);
        };
        let _sp = hpl_trace::span(hpl_trace::Phase::Restore);
        let bytes = store.load(gen, self.ckpt.rank).map_err(ckpt_err)?;
        let snap = hpl_ckpt::decode(&bytes).map_err(ckpt_err)?;
        snap.validate_id(&self.ckpt.id).map_err(ckpt_err)?;
        let (mloc, nloc) = (self.a.mloc, self.a.nloc);
        if snap.rank != self.ckpt.rank as u64 || snap.data.len() != mloc * nloc {
            return Err(HplError::Ckpt {
                what: format!(
                    "snapshot shape mismatch: rank {} with {} local elements, expected rank {} \
                     with {}",
                    snap.rank,
                    snap.data.len(),
                    self.ckpt.rank,
                    mloc * nloc
                ),
            });
        }
        self.a.unpack_f64(&snap.data);
        self.pivot_log.clear();
        self.pivot_log.extend_from_slice(&snap.pivots);
        Ok(Some(snap.next_iter as usize))
    }

    /// Row swap + full update over `range` using iteration panel `ip`.
    fn swap_and_update(&mut self, ip: &IterPanel<E>, range: ColRange) -> Result<(), HplError> {
        if range.width() == 0 {
            // Still participate in the column collectives: peers in this
            // process column have the same width (identical column
            // distribution), so zero width is column-wide and nobody calls.
            return Ok(());
        }
        let rows = self.a.rows;
        let mut av = self.a.view_mut();
        row_swap_comm(
            self.grid.col(),
            rows,
            &ip.plan,
            ip.geom.prow,
            &mut av,
            range,
            self.cfg.swap,
            &mut self.rs,
        )?;
        apply_moves(&mut av, range, &self.rs);
        self.apply_update(ip, Section::Immediate, range);
        Ok(())
    }

    /// DTRSM (+ store) + DGEMM over `range` with the `U` the row swap left:
    /// at `P = 1` in the diagonal block's own rows of `range`, where it is
    /// solved and read in place; otherwise in `section`'s workspace. `L2`
    /// is read where it lies: at `Q = 1` in the panel columns, otherwise in
    /// the panel's broadcast buffer.
    fn apply_update(&mut self, ip: &IterPanel<E>, section: Section, range: ColRange) {
        let g = &ip.geom;
        // The panel columns lie left of every section, so `L1` and `L2` can
        // be read where FACT left them while the section's columns are
        // written: FACT of the next panel writes other columns, and no later
        // row swap touches factored columns.
        let (left, cols) = self.a.view_mut().split_at_col(range.start);
        let (left, mut cols) = (left.as_ref(), cols.split_at_col(range.width()).0);
        let l1 = if g.in_panel_col && g.in_curr_row {
            left.submatrix(g.lb, g.lj0, g.jb, g.jb)
        } else {
            ip.panel.top.view()
        };
        let row0 = g.lb + if g.in_curr_row { g.jb } else { 0 };
        let l2 = if self.grid.row().size() == 1 {
            left.submatrix(row0, g.lj0, g.l2_rows, g.jb)
        } else {
            ip.panel.l2_view()
        };
        let pool = Some((&self.pool, self.cfg.update_threads));
        if self.grid.nprow() == 1 {
            let (u, mut c) = cols.split_at_row(g.lb + g.jb);
            let mut u = u.split_at_row(g.lb).1;
            dtrsm_u(l1, &mut u);
            dgemm_l2(l2, u.as_ref(), &mut c, pool);
            return;
        }
        let u = match section {
            Section::Immediate => &mut self.rs.u,
            Section::Right => &mut self.rs_right.u,
        };
        dtrsm_u(l1, &mut u.view_mut());
        if g.in_curr_row {
            copy_u(
                u.view(),
                &mut cols.submatrix_mut(g.lb, 0, g.jb, range.width()),
            );
        }
        let mut c = cols.submatrix_mut(row0, 0, g.l2_rows, range.width());
        dgemm_l2(l2, u.view(), &mut c, pool);
    }

    /// The schedule loop. `cfg.schedule` maps onto it as look-ahead on or
    /// off plus the split's right-section share (see the module doc).
    /// `start` is 0 on a cold start, the restored boundary on a resume —
    /// the look-ahead prologue then re-factors panel `start` from its
    /// snapshotted pre-fact state, which is bitwise the factorization the
    /// interrupted run performed.
    fn run(&mut self, start: usize) -> Result<(), HplError> {
        let (lookahead, frac) = match self.cfg.schedule {
            Schedule::Simple => (false, 0.0),
            Schedule::LookAhead => (true, 0.0),
            Schedule::SplitUpdate { frac } => (true, frac),
        };
        let iters = self.cfg.iterations();
        let nloc = self.a.nloc;
        // Fixed split point: local column where the right section starts,
        // aligned down to a local block boundary so the shrinking left
        // section hits it exactly (`nloc`: no split).
        let split_lj = if frac > 0.0 {
            let t0 = self.trailing(0);
            let right_target = ((nloc - t0) as f64 * frac).round() as usize;
            let s = nloc.saturating_sub(right_target).max(t0);
            t0 + ((s - t0) / self.cfg.nb) * self.cfg.nb
        } else {
            nloc
        };
        self.rs_right = RsData::for_sections(
            self.cfg.nb.min(self.cfg.n),
            nloc - split_lj,
            self.grid.nprow(),
        );
        let right = ColRange {
            start: split_lj,
            end: nloc,
        };

        // Look-ahead prologue: factor+broadcast panel `start` and prefetch
        // its RS2, so every iteration finds its panel carried.
        let mut carried = None;
        let mut split = false;
        if lookahead {
            hpl_trace::set_iter(start);
            let cur = self.fact_and_bcast(start)?;
            split = self.prefetch_rs2(&cur, split_lj)?;
            carried = Some(cur);
        }

        for it in start..iters {
            hpl_trace::set_iter(it);
            self.maybe_checkpoint(it)?;
            let cur = match carried.take() {
                Some(cur) => cur,
                None => self.fact_and_bcast(it)?,
            };
            let tstart = self.trailing(it);
            let has_next = lookahead && it + 1 < iters;
            // The look-ahead section: the next panel's local columns.
            let la_width = match has_next.then(|| self.geom(it + 1)) {
                Some(g) if g.in_panel_col => g.jb.min(nloc - tstart),
                _ => 0,
            };
            let la_end = tstart + la_width;
            // FACT(it+1) sits in the slot a GPU timeline overlaps with the
            // rest of the update (Fig 3) or with UPDATE2 (Fig 6) — unless
            // this rank holds none of the next panel and no right section
            // waits, when it follows the update.
            let hide_fact = la_width > 0 || split;

            // Scatter the rows RS2 prefetched for the right section.
            if split {
                apply_moves(&mut self.a.view_mut(), right, &self.rs_right);
            }
            self.swap_and_update(
                &cur,
                ColRange {
                    start: tstart,
                    end: la_end,
                },
            )?;
            let mut next = None;
            if has_next && hide_fact {
                hpl_trace::set_hidden(true);
                next = Some(self.fact_and_bcast(it + 1)?);
            }
            // RS1 + UPDATE1, hidden by UPDATE2 when the split is live.
            hpl_trace::set_hidden(split);
            self.swap_and_update(
                &cur,
                ColRange {
                    start: la_end,
                    end: if split { split_lj } else { nloc },
                },
            )?;
            hpl_trace::set_hidden(false);
            if has_next && !hide_fact {
                next = Some(self.fact_and_bcast(it + 1)?);
            }

            if std::mem::take(&mut split) {
                // UPDATE2 with the prefetched U2, then RS2 of the next
                // iteration (hidden by UPDATE1 on the GPU timeline).
                self.apply_update(&cur, Section::Right, right);
                if let Some(nx) = &next {
                    hpl_trace::set_hidden(true);
                    split = self.prefetch_rs2(nx, split_lj)?;
                    hpl_trace::set_hidden(false);
                }
            }
            self.spare = Some((cur.panel.into_store(), cur.plan));
            carried = next;
        }
        Ok(())
    }

    /// Runs the right-section row swap for iteration `ip` ahead of time
    /// into `rs_right`: communicated without scattering at `P > 1`,
    /// complete at `P = 1`. Returns `false` when the left section is
    /// exhausted (the pipeline then falls back to Fig 3 form).
    fn prefetch_rs2(&mut self, ip: &IterPanel<E>, split_lj: usize) -> Result<bool, HplError> {
        let tstart = self.a.cols.local_lower_bound(ip.geom.k0 + ip.geom.jb);
        if tstart >= split_lj || split_lj >= self.a.nloc {
            return Ok(false);
        }
        let right = ColRange {
            start: split_lj,
            end: self.a.nloc,
        };
        // The snapshot at the top of iteration `ip` must not see the moves
        // and the `U` rows a `P = 1` swap writes now (see
        // `CkptState::pre_image`).
        let rows = self.a.rows;
        let (k0, jb) = (ip.geom.k0, ip.geom.jb);
        let written = (ip.plan.moves.iter().map(|&(d, _)| d)).chain(k0..k0 + jb);
        let at = (right.start..right.end).flat_map(|lj| {
            (written.clone())
                .filter(move |&d| rows.is_mine(d))
                .map(move |d| (rows.to_local(d), lj))
        });
        self.ckpt.stash(ip.geom.k0 / self.cfg.nb, &self.a, at);

        let mut av = self.a.view_mut();
        row_swap_comm(
            self.grid.col(),
            rows,
            &ip.plan,
            ip.geom.prow,
            &mut av,
            right,
            self.cfg.swap,
            &mut self.rs_right,
        )?;
        Ok(true)
    }
}
