//! The distributed HPL-MxP benchmark: `f32` elimination over the full
//! `rhpl-core` pipeline, `f64` iterative refinement over the resident
//! low-precision factors.
//!
//! [`solve_mxp`] runs the 2D block-cyclic LU — look-ahead, split update,
//! LBCAST, multi-threaded panel factorization, all of it — monomorphized
//! over `f32` via [`rhpl_core::factorize`], takes the `f32`-accurate
//! initial solution from the distributed back-substitution, and then
//! recovers `f64::EPSILON`-scaled accuracy with O(n^2) refinement sweeps:
//! the residual `b - A x` is evaluated in `f64` against the full-precision
//! system, regenerated a block of columns at a time by the verifier's walk
//! ([`rhpl_core::residual`]), and each correction is solved in `f32`
//! against the factors the elimination left resident
//! ([`rhpl_core::PipelineOut`]). The run holds one matrix, the `f32`
//! operand, which is generated directly in `f32`.
//!
//! The correction solve is the subtle part. HPL pivoting is
//! *trailing-only*: at panel `k` the row exchanges touch the panel and the
//! columns to its right, never the already-factored `L` columns to the
//! left. A fresh right-hand side therefore cannot be permuted up front
//! (LAPACK `getrs` style); [`replay_solve`] instead replays history — it
//! applies panel `k`'s recorded exchanges, eliminates with panel `k`'s
//! `L`, and only then moves to panel `k + 1`, exactly the order the
//! factorization processed its own (appended) right-hand side.

use std::time::Instant;

use hpl_comm::{Communicator, Grid, Op};
use rhpl_core::{
    back_substitute, factorize_local, residual, HplConfig, HplError, LocalMatrix, Residuals, System,
};

/// Refinement sweeps allowed after the initial `f32` solve. Classic
/// refinement gains roughly a factor `1 / (eps_f32 * kappa(A))` per sweep,
/// so HPL-grade random systems converge in a handful.
const MAX_SWEEPS: usize = 12;

/// Result of a distributed mixed-precision run on one rank.
pub struct MxpOutput {
    /// The refined solution, replicated on every rank.
    pub x: Vec<f64>,
    /// Scaled residual (HPL formula, `f64::EPSILON`) after the initial
    /// `f32` solve and after each refinement sweep.
    pub history: Vec<f64>,
    /// Refinement sweeps actually applied (`history.len() - 1`).
    pub sweeps: usize,
    /// Whether the final residual beat HPL's threshold (16.0) — i.e. the
    /// mixed-precision solve reached double accuracy.
    pub converged: bool,
    /// The final residual gate at `f64::EPSILON` scaling: the last
    /// sweep's residual of the returned `x` against the system regenerated
    /// in `f64` one column at a time — the same call
    /// [`rhpl_core::verify_system`] makes, so the last sweep is the
    /// verification.
    pub residuals: Residuals,
    /// Wall time of generating the `f32` operand, the `f32` factorization
    /// and the initial solve (seconds).
    pub fact_seconds: f64,
    /// Total wall time: the [`MxpOutput::fact_seconds`] window plus the
    /// refinement sweeps, the last of which is the verification (seconds).
    pub wall: f64,
    /// Mixed-precision GFLOPS: the HPL flop count over the *total* time to
    /// a double-accurate solution (what HPL-MxP reports).
    pub gflops: f64,
    /// Minor page faults the whole process took over the same clock as
    /// [`MxpOutput::wall`] ([`hpl_trace::minor_faults`]).
    pub minor_faults: u64,
    /// The HPL flop count over [`MxpOutput::fact_seconds`]: generation,
    /// `f32` factorization and initial solve, without the refinement.
    pub fact_gflops: f64,
    /// Phase trace of this rank (when `cfg.trace.enabled`).
    pub trace: Option<hpl_trace::Trace>,
    /// Name of the DGEMM microkernel the run resolved to.
    pub kernel: &'static str,
    /// Element precision of the factorization (always `"f32"` here).
    pub element: &'static str,
    /// Timed-out receive polls this rank retried with backoff.
    pub retries: u64,
    /// Digest of the answer: [`hpl_trace::report::x_hash`] over the refined
    /// `x` and the factorization's pivot log.
    pub x_hash: u64,
}

/// Runs the distributed HPL-MxP benchmark on the seeded generator system
/// of `cfg` (the same matrix family the `f64` benchmark factors).
/// Collective: call from every rank of `comm`.
pub fn solve_mxp(comm: Communicator, cfg: &HplConfig) -> Result<MxpOutput, HplError> {
    solve_mxp_system(comm, cfg, MAX_SWEEPS, System::Seeded(cfg.seed))
}

/// [`solve_mxp`] on `system`, stopping after at most `max_sweeps`
/// refinement sweeps.
fn solve_mxp_system(
    comm: Communicator,
    cfg: &HplConfig,
    max_sweeps: usize,
    system: System<'_>,
) -> Result<MxpOutput, HplError> {
    cfg.validate();
    let grid = Grid::new(comm, cfg.p, cfg.q, cfg.order);
    hpl_trace::install(cfg.trace);
    let out = refine_pipeline(&grid, cfg, max_sweeps, system);
    let trace = hpl_trace::take();
    let mut out = out?;
    out.trace = trace;
    out.retries = grid.world().comm_retries();
    Ok(out)
}

/// The factor-then-refine pipeline body (tracing owned by the caller).
///
/// The `f32` operand is generated directly and the factorization destroys
/// it; no `f64` slice exists. Every sweep's residual, `||A||_inf` and the
/// final verification regenerate the `f64` system one column at a time.
fn refine_pipeline(
    grid: &Grid,
    cfg: &HplConfig,
    max_sweeps: usize,
    system: System<'_>,
) -> Result<MxpOutput, HplError> {
    let n = cfg.n;
    let (t0, faults0) = (Instant::now(), hpl_trace::minor_faults());
    let out = factorize_local(grid, cfg, system.local::<f32>(n, cfg.nb, grid))?;
    let x0 = back_substitute(&out.a, grid, cfg.nb)?;
    let fact_seconds = t0.elapsed().as_secs_f64();

    let mut x: Vec<f64> = x0.iter().map(|&v| f64::from(v)).collect();
    let mut d = vec![0.0f32; n];
    let mut history = Vec::new();
    // Each sweep's residual is HPL's check of the current `x`; the sweep
    // that stops the loop is therefore the verification of the answer.
    let residuals = loop {
        let (r, res) = residual(grid, n, cfg.nb, system, &x, f64::EPSILON)?;
        history.push(res.scaled);
        if res.passed() || history.len() > max_sweeps {
            break res;
        }
        // Correction solve on the resident f32 factors; x += d in f64.
        for (di, &ri) in d.iter_mut().zip(&r) {
            *di = ri as f32;
        }
        replay_solve(&out.a, &out.pivot_log, grid, cfg.nb, &mut d)?;
        for (xi, &di) in x.iter_mut().zip(&d) {
            *xi += f64::from(di);
        }
    };
    let wall = t0.elapsed().as_secs_f64();
    let minor_faults = hpl_trace::minor_faults().saturating_sub(faults0);
    Ok(MxpOutput {
        x_hash: hpl_trace::report::x_hash(&x, &out.pivot_log),
        x,
        sweeps: history.len() - 1,
        history,
        converged: residuals.passed(),
        residuals,
        fact_seconds,
        wall,
        gflops: cfg.flops() / wall / 1e9,
        minor_faults,
        fact_gflops: cfg.flops() / fact_seconds / 1e9,
        trace: None,
        kernel: hpl_blas::kernels::active().name(),
        element: "f32",
        retries: 0,
    })
}

/// Solves `L U d = P r` against the resident `f32` factors of
/// [`rhpl_core::factorize`], replaying the recorded pivot history panel by
/// panel. Collective over the grid; `r` must be replicated (identical on
/// every rank) on entry and holds the replicated solution on exit.
///
/// The forward sweep interleaves exchanges and elimination (see the module
/// docs): panel `k`'s stored `L` columns live in the row order after
/// panels `0..=k`'s swaps and before any later panel's, so the right-hand
/// side is swapped with panel `k`'s exchanges immediately before panel
/// `k`'s columns eliminate into it. The backward `U` sweep has no
/// exchanges to replay.
///
/// All arithmetic runs in `f32` (this is the preconditioner application of
/// the refinement scheme). The off-diagonal updates accumulate each
/// block's columns into this rank's local rows with
/// [`hpl_blas::axpy_add`] — mul-then-add, columns in order, so every
/// entry is the same sum a scalar loop forms — and scatter the sums to
/// global rows once per block. Replication uses disjoint-support sum
/// allreduces — every entry has exactly one rank contributing a nonzero,
/// so the reduction is order-exact and the result bitwise identical on
/// every rank and transport.
pub fn replay_solve(
    a: &LocalMatrix<f32>,
    pivot_log: &[u64],
    grid: &Grid,
    nb: usize,
    r: &mut [f32],
) -> Result<(), HplError> {
    let n = a.rows.n;
    assert_eq!(r.len(), n, "right-hand side must have length n");
    assert_eq!(pivot_log.len(), n, "pivot log must cover every column");
    let av = a.view();
    let nblocks = n.div_ceil(nb);
    // Workspaces shared by every block: the solved diagonal block, the
    // local-row accumulator and the global-row scatter of the update.
    let mut blk = vec![0.0f32; nb.min(n)];
    let mut acc = vec![0.0f32; a.mloc];
    let mut delta = vec![0.0f32; n];

    // Forward: d = L^{-1} P r, replaying exchanges panel by panel.
    for kblk in 0..nblocks {
        let k0 = kblk * nb;
        let jb = nb.min(n - k0);
        for j in 0..jb {
            r.swap(k0 + j, pivot_log[k0 + j] as usize);
        }
        let prow = a.rows.owner(k0);
        let pcol = a.cols.owner(k0);
        // Unit-lower solve of the jb x jb diagonal block at its owner.
        let y = &mut blk[..jb];
        y.fill(0.0);
        if grid.myrow() == prow && grid.mycol() == pcol {
            let li = a.rows.to_local(k0);
            let lj = a.cols.to_local(k0);
            for i in 0..jb {
                let mut s = r[k0 + i];
                for (j, &yj) in y.iter().enumerate().take(i) {
                    s -= av.col(lj + j)[li + i] * yj;
                }
                y[i] = s;
            }
        }
        hpl_comm::allreduce(grid.world(), Op::Sum, y)?;
        r[k0..k0 + jb].copy_from_slice(y);
        // Trailing entries: r[base..] -= L21 * y; column pcol owns L21.
        let base = k0 + jb;
        if base < n {
            let delta = &mut delta[..n - base];
            delta.fill(0.0);
            if grid.mycol() == pcol {
                let lj = a.cols.to_local(k0);
                let lb = a.rows.local_lower_bound(base);
                let acc = &mut acc[lb..];
                acc.fill(0.0);
                for (j, &yj) in y.iter().enumerate() {
                    if yj != 0.0 {
                        hpl_blas::axpy_add(yj, &av.col(lj + j)[lb..], acc);
                    }
                }
                for (li, &v) in (lb..).zip(acc.iter()) {
                    delta[a.rows.to_global(li) - base] = v;
                }
            }
            hpl_comm::allreduce(grid.world(), Op::Sum, delta)?;
            for (ri, &di) in r[base..].iter_mut().zip(delta.iter()) {
                *ri -= di;
            }
        }
    }

    // Backward: d = U^{-1} d (no exchanges).
    for kblk in (0..nblocks).rev() {
        let k0 = kblk * nb;
        let jb = nb.min(n - k0);
        let prow = a.rows.owner(k0);
        let pcol = a.cols.owner(k0);
        // Upper (non-unit) solve of the diagonal block at its owner.
        let xk = &mut blk[..jb];
        xk.fill(0.0);
        if grid.myrow() == prow && grid.mycol() == pcol {
            let li = a.rows.to_local(k0);
            let lj = a.cols.to_local(k0);
            for i in (0..jb).rev() {
                let mut s = r[k0 + i];
                for j in i + 1..jb {
                    s -= av.col(lj + j)[li + i] * xk[j];
                }
                xk[i] = s / av.col(lj + i)[li + i];
            }
        }
        hpl_comm::allreduce(grid.world(), Op::Sum, xk)?;
        r[k0..k0 + jb].copy_from_slice(xk);
        // Entries above the block: r[..k0] -= U01 * xk.
        if k0 > 0 {
            let delta = &mut delta[..k0];
            delta.fill(0.0);
            if grid.mycol() == pcol {
                let lj = a.cols.to_local(k0);
                let above = a.rows.local_lower_bound(k0);
                let acc = &mut acc[..above];
                acc.fill(0.0);
                for (j, &xj) in xk.iter().enumerate() {
                    if xj != 0.0 {
                        hpl_blas::axpy_add(xj, &av.col(lj + j)[..above], acc);
                    }
                }
                for (li, &v) in acc.iter().enumerate() {
                    delta[a.rows.to_global(li)] = v;
                }
            }
            hpl_comm::allreduce(grid.world(), Op::Sum, delta)?;
            for (ri, &di) in r[..k0].iter_mut().zip(delta.iter()) {
                *ri -= di;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpl_comm::Universe;
    use rhpl_core::{factorize, verify_system, MatGen, Schedule};

    #[test]
    fn mxp_recovers_double_accuracy() {
        for (p, q) in [(1, 1), (2, 2)] {
            let cfg = HplConfig::new(120, 16, p, q);
            let outs = Universe::run(cfg.ranks(), |comm| {
                solve_mxp(comm, &cfg).expect("nonsingular")
            });
            for o in &outs {
                assert!(o.converged, "{p}x{q}: history {:?}", o.history);
                assert!(o.residuals.passed(), "scaled {:.3e}", o.residuals.scaled);
                // The pure f32 solve must FAIL the f64-eps gate at this
                // size, otherwise the refinement demonstrates nothing.
                assert!(
                    o.history[0] > Residuals::THRESHOLD,
                    "{p}x{q}: f32 solve alone must not pass the f64 gate: {:?}",
                    o.history
                );
                assert!(o.sweeps >= 1, "refinement applied no correction");
                assert_eq!(o.element, "f32");
            }
            // Solution and history bitwise replicated across ranks.
            for o in &outs[1..] {
                assert_eq!(o.x, outs[0].x);
                assert_eq!(o.history, outs[0].history);
            }
        }
    }

    #[test]
    fn mxp_bitwise_identical_across_schedules() {
        // The f32 factors are bitwise schedule-independent (rhpl-core e2e),
        // and the refinement is deterministic on top of them.
        let mut base: Option<Vec<f64>> = None;
        for schedule in [
            Schedule::Simple,
            Schedule::LookAhead,
            Schedule::SplitUpdate { frac: 0.5 },
        ] {
            let mut cfg = HplConfig::new(96, 16, 2, 2);
            cfg.seed = 31;
            cfg.schedule = schedule;
            let outs = Universe::run(4, |comm| solve_mxp(comm, &cfg).expect("nonsingular"));
            match &base {
                None => base = Some(outs[0].x.clone()),
                Some(want) => assert_eq!(&outs[0].x, want, "schedule {schedule:?} diverged"),
            }
        }
    }

    #[test]
    fn final_sweep_is_verify_system_bit_for_bit() {
        // The last sweep's residual stands in for a verification pass: it
        // must be the number verify_system computes from a fresh
        // regeneration, in all five fields — for the seeded system, a
        // caller-supplied one, and a run stopped before it converged.
        let bits =
            |r: &Residuals| [r.err_inf, r.a_inf, r.x_inf, r.b_inf, r.scaled].map(f64::to_bits);
        let gen = MatGen::new(5, 100);
        let fill = |i: usize, j: usize| gen.entry(i, j);
        for (p, q) in [(1, 1), (2, 1), (1, 2), (2, 3)] {
            let cfg = HplConfig::new(100, 16, p, q);
            for (system, max_sweeps) in [
                (System::Seeded(cfg.seed), MAX_SWEEPS),
                (System::Fill(&fill), MAX_SWEEPS),
                (System::Seeded(cfg.seed), 0),
            ] {
                let outs = Universe::run(cfg.ranks(), |comm| {
                    solve_mxp_system(comm, &cfg, max_sweeps, system).expect("nonsingular")
                });
                let o = &outs[0];
                assert_eq!(o.converged, max_sweeps > 0, "{p}x{q}: {:?}", o.history);
                let fresh = Universe::run(cfg.ranks(), |comm| {
                    let grid = Grid::new(comm, p, q, cfg.order);
                    verify_system(&grid, cfg.n, cfg.nb, system, &o.x, f64::EPSILON).expect("verify")
                });
                for (out, want) in outs.iter().zip(&fresh) {
                    assert_eq!(bits(&out.residuals), bits(want), "{p}x{q}");
                    assert_eq!(out.history.last(), Some(&want.scaled));
                }
            }
        }
    }

    #[test]
    fn replay_solve_matches_backsubstitution() {
        // Solving the original right-hand side through the pivot replay
        // must land on (approximately) the same f32 solution the pipeline's
        // own back-substitution produced from the co-eliminated b column.
        let cfg = HplConfig::new(64, 16, 2, 2);
        let outs = Universe::run(4, |comm| {
            let grid = Grid::new(comm, cfg.p, cfg.q, cfg.order);
            let gen = MatGen::new(cfg.seed, cfg.n);
            let fill = |i: usize, j: usize| gen.entry(i, j);
            let out = factorize::<f32>(&grid, &cfg, &fill).expect("nonsingular");
            let x0 = back_substitute(&out.a, &grid, cfg.nb).expect("solvable");
            let mut r: Vec<f32> = (0..cfg.n).map(|i| fill(i, cfg.n) as f32).collect();
            replay_solve(&out.a, &out.pivot_log, &grid, cfg.nb, &mut r).expect("solvable");
            (x0, r)
        });
        for (x0, r) in &outs {
            let x_inf = x0.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            for (a, b) in x0.iter().zip(r) {
                assert!(
                    (a - b).abs() <= 1e-2 * x_inf.max(1.0),
                    "{a} vs {b} (x_inf {x_inf})"
                );
            }
        }
        // And the replayed solution is bitwise replicated.
        for (_, r) in &outs[1..] {
            assert_eq!(r, &outs[0].1);
        }
    }

    #[test]
    fn singular_matrix_surfaces_typed_error() {
        let cfg = HplConfig::new(16, 4, 1, 1);
        let outs = Universe::run(1, |comm| {
            solve_mxp_system(comm, &cfg, MAX_SWEEPS, System::Fill(&|_, _| 0.0)).map(|o| o.x)
        });
        assert_eq!(outs[0], Err(HplError::Singular { col: 0 }));
    }
}
