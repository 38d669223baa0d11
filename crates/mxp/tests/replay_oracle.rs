//! `replay_solve` against the per-element loop it replaced, bit for bit.
//!
//! [`replay_oracle`] is the correction solve as it was first written: every
//! off-diagonal update adds one `col[li] * y_j` straight into the global
//! row it lands in. The product path accumulates each block into local
//! rows with `hpl_blas::axpy_add` and scatters once; both form every entry
//! as the same mul-then-add chain over the block's columns in order, so
//! they must agree exactly — on every grid shape, with a ragged last
//! block, with right-hand sides whose exact zeros take the `!= 0` skip,
//! and under every kernel tier (`axpy_add` dispatches on the kernel).

// The oracle keeps the indexed loops of the code it preserves.
#![allow(clippy::needless_range_loop)]

use hpl_blas::{Kernel, KernelKind};
use hpl_comm::{Grid, Op, Universe};
use hpl_mxp::replay_solve;
use rhpl_core::{factorize, HplConfig, HplError, LocalMatrix, MatGen};

/// `N = 75`, `NB = 8`: nine full blocks and a ragged tenth of width 3.
const N: usize = 75;
const NB: usize = 8;

/// The reference: the product's diagonal solves and collectives, with the
/// off-diagonal updates one element at a time.
fn replay_oracle(
    a: &LocalMatrix<f32>,
    pivot_log: &[u64],
    grid: &Grid,
    nb: usize,
    r: &mut [f32],
) -> Result<(), HplError> {
    let n = a.rows.n;
    let av = a.view();
    let nblocks = n.div_ceil(nb);
    for kblk in 0..nblocks {
        let k0 = kblk * nb;
        let jb = nb.min(n - k0);
        for j in 0..jb {
            r.swap(k0 + j, pivot_log[k0 + j] as usize);
        }
        let prow = a.rows.owner(k0);
        let pcol = a.cols.owner(k0);
        let mut y = vec![0.0f32; jb];
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
        hpl_comm::allreduce(grid.world(), Op::Sum, &mut y)?;
        r[k0..k0 + jb].copy_from_slice(&y);
        let base = k0 + jb;
        if base < n {
            let mut delta = vec![0.0f32; n - base];
            if grid.mycol() == pcol {
                let lj = a.cols.to_local(k0);
                let lb = a.rows.local_lower_bound(base);
                for (j, &yj) in y.iter().enumerate() {
                    if yj != 0.0 {
                        let col = av.col(lj + j);
                        for li in lb..a.mloc {
                            delta[a.rows.to_global(li) - base] += col[li] * yj;
                        }
                    }
                }
            }
            hpl_comm::allreduce(grid.world(), Op::Sum, &mut delta)?;
            for (ri, &di) in r[base..].iter_mut().zip(&delta) {
                *ri -= di;
            }
        }
    }
    for kblk in (0..nblocks).rev() {
        let k0 = kblk * nb;
        let jb = nb.min(n - k0);
        let prow = a.rows.owner(k0);
        let pcol = a.cols.owner(k0);
        let mut xk = vec![0.0f32; jb];
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
        hpl_comm::allreduce(grid.world(), Op::Sum, &mut xk)?;
        r[k0..k0 + jb].copy_from_slice(&xk);
        if k0 > 0 {
            let mut delta = vec![0.0f32; k0];
            if grid.mycol() == pcol {
                let lj = a.cols.to_local(k0);
                let above = a.rows.local_lower_bound(k0);
                for (j, &xj) in xk.iter().enumerate() {
                    if xj != 0.0 {
                        let col = av.col(lj + j);
                        for li in 0..above {
                            delta[a.rows.to_global(li)] += col[li] * xj;
                        }
                    }
                }
            }
            hpl_comm::allreduce(grid.world(), Op::Sum, &mut delta)?;
            for (ri, &di) in r[..k0].iter_mut().zip(&delta) {
                *ri -= di;
            }
        }
    }
    Ok(())
}

/// Right-hand sides: dense; every third entry an exact zero (signed zeros
/// included); and zero but for two late entries, so whole leading blocks
/// solve to exact zeros and skip their columns.
fn right_hand_sides(gen: &MatGen) -> Vec<Vec<f32>> {
    let dense: Vec<f32> = (0..N).map(|i| gen.entry(i, N) as f32).collect();
    let holes = dense
        .iter()
        .enumerate()
        .map(|(i, &v)| match i % 6 {
            0 => 0.0,
            3 => -0.0,
            _ => v,
        })
        .collect();
    let mut sparse = vec![0.0f32; N];
    sparse[N - 20] = 1.0;
    sparse[N - 2] = -0.5;
    vec![dense, holes, sparse]
}

/// Every `P, Q` in `1..=3`: both paths on the same resident factors.
fn check_all_grids() {
    for p in 1..=3 {
        for q in 1..=3 {
            let cfg = HplConfig::new(N, NB, p, q);
            let gen = MatGen::new(cfg.seed, N);
            let fill = |i: usize, j: usize| gen.entry(i, j);
            Universe::run(cfg.ranks(), |comm| {
                let grid = Grid::new(comm, p, q, cfg.order);
                let out = factorize::<f32>(&grid, &cfg, &fill).expect("nonsingular");
                for (case, rhs) in right_hand_sides(&gen).into_iter().enumerate() {
                    let mut want = rhs.clone();
                    replay_oracle(&out.a, &out.pivot_log, &grid, NB, &mut want).expect("oracle");
                    let mut got = rhs;
                    replay_solve(&out.a, &out.pivot_log, &grid, NB, &mut got).expect("replay");
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "{p}x{q} rhs {case}");
                }
            });
        }
    }
}

/// The kernel freezes per process, so each tier runs in a process of its
/// own: this test is that process's body (run by name from the test below,
/// never by a plain `cargo test`). The tier's index into
/// `Kernel::available()` arrives as a second test-name filter, `tier=<i>`,
/// which matches no test and which libtest leaves in `std::env::args`.
#[test]
#[ignore = "child process of replay_matches_the_per_element_loop_on_every_tier"]
fn replay_tier_child() {
    let index: usize = std::env::args()
        .find_map(|a| a.strip_prefix("tier=").map(str::to_owned))
        .expect("tier=<index> argument")
        .parse()
        .expect("tier index");
    let kern = Kernel::available()[index];
    assert_eq!(hpl_blas::kernels::freeze(kern), kern, "kernel frozen early");
    eprintln!("replay oracle under {}", kern.describe());
    check_all_grids();
}

#[test]
fn replay_matches_the_per_element_loop_on_every_tier() {
    let tiers = Kernel::available();
    assert_eq!(tiers[0].kind(), KernelKind::Scalar);
    let exe = std::env::current_exe().expect("test binary path");
    for (index, tier) in tiers.iter().enumerate() {
        let out = std::process::Command::new(&exe)
            .args(["--ignored", "--exact", "replay_tier_child", "--nocapture"])
            .arg(format!("tier={index}"))
            .env_remove("RHPL_KERNEL")
            .output()
            .expect("spawn the tier child");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "{}: replay_solve diverged from the oracle:\n{stdout}{}",
            tier.describe(),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
