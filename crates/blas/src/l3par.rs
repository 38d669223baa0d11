//! Thread-parallel Level-3 kernels over an `hpl-threads` pool.
//!
//! rocHPL's trailing update runs on a massively parallel device; this
//! module is the CPU-side analogue: `C` is cut into a 2D grid of
//! `(jc, ic)` macro tiles which the pool threads claim by work-stealing
//! from a shared atomic counter — so wide, tall *and* skinny-but-tall
//! updates all scale. Each element of `C` is produced by the same packed
//! strips, the same register tile and the same `k`-accumulation order as
//! the serial kernel regardless of how the grid is cut, so within one
//! kernel choice the parallel result is **bitwise identical** to the
//! serial one — a property the benchmark driver's schedule-equivalence
//! tests rely on. All of it is generic over the pipeline [`Element`], so
//! the f32 factorization scales across the same tile grid.

use std::sync::atomic::{AtomicUsize, Ordering};

use hpl_threads::Pool;

use crate::l3::kernels::{self, Kernel};
use crate::l3::{dgemm_packed, dgemm_with, mc_for, round_up, PackedA, NC};
use crate::mat::{MatMut, MatRef};
use crate::Element;
use crate::Trans;

/// Parallel `C <- alpha * op(A) * op(B) + beta * C` over `nthreads` pool
/// threads with the process-wide kernel. Falls back to the serial kernel
/// for one thread or tiny `C`.
#[allow(clippy::too_many_arguments)]
pub fn dgemm_parallel<E: Element>(
    pool: &Pool,
    nthreads: usize,
    transa: Trans,
    transb: Trans,
    alpha: E,
    a: MatRef<'_, E>,
    b: MatRef<'_, E>,
    beta: E,
    c: &mut MatMut<'_, E>,
) {
    dgemm_parallel_with(
        kernels::active(),
        pool,
        nthreads,
        transa,
        transb,
        alpha,
        a,
        b,
        beta,
        c,
    );
}

/// [`dgemm_parallel`] with an explicit microkernel.
#[allow(clippy::too_many_arguments)]
pub fn dgemm_parallel_with<E: Element>(
    kern: Kernel,
    pool: &Pool,
    nthreads: usize,
    transa: Trans,
    transb: Trans,
    alpha: E,
    a: MatRef<'_, E>,
    b: MatRef<'_, E>,
    beta: E,
    c: &mut MatMut<'_, E>,
) {
    let m = c.rows();
    let n = c.cols();
    let k = match transa {
        Trans::No => a.cols(),
        Trans::Yes => a.rows(),
    };
    let nthreads = nthreads.clamp(1, pool.size());
    let grid = TileGrid::new(kern.mr_for::<E>(), kern.nr_for::<E>(), m, n, nthreads);
    if nthreads <= 1 || grid.tiles() <= 1 || alpha == E::ZERO || k == 0 {
        dgemm_with(kern, transa, transb, alpha, a, b, beta, c);
        return;
    }
    let lda = c.lda();
    // Shared as an address so the `Fn + Sync` closure can capture it; the
    // disjoint-tile protocol below governs the actual accesses.
    let cbase = c.as_mut_ptr() as usize;
    let next = AtomicUsize::new(0);
    pool.run(nthreads.min(grid.tiles()), |_ctx| {
        loop {
            let t = next.fetch_add(1, Ordering::Relaxed);
            if t >= grid.tiles() {
                break;
            }
            let (ic, jc, mc, nc) = grid.tile(t);
            let cptr = (cbase as *mut E).wrapping_add(jc * lda + ic);
            // SAFETY: the grid assigns every (ic, jc) tile to exactly one
            // `fetch_add` winner, so tiles are disjoint in memory, and the
            // parent `c` borrow is held for the whole pool region.
            let mut ctile = unsafe { MatMut::from_raw_parts(cptr, mc, nc, lda) };
            let atile = match transa {
                Trans::No => a.submatrix(ic, 0, mc, k),
                Trans::Yes => a.submatrix(0, ic, k, mc),
            };
            let btile = match transb {
                Trans::No => b.submatrix(0, jc, k, nc),
                Trans::Yes => b.submatrix(jc, 0, nc, k),
            };
            dgemm_with(kern, transa, transb, alpha, atile, btile, beta, &mut ctile);
        }
    });
}

/// Parallel `C <- alpha * A * op(B) + beta * C` where `A` is a pre-packed
/// [`PackedA`] shared (read-only) by every worker — the trailing-update
/// path: the `L2` panel is packed once per iteration and each thread's row
/// tile slices straight into it instead of repacking.
#[allow(clippy::too_many_arguments)]
pub fn dgemm_parallel_packed<E: Element>(
    kern: Kernel,
    pool: &Pool,
    nthreads: usize,
    alpha: E,
    packed: &PackedA<E>,
    transb: Trans,
    b: MatRef<'_, E>,
    beta: E,
    c: &mut MatMut<'_, E>,
) {
    let m = c.rows();
    let n = c.cols();
    let k = packed.depth();
    let nthreads = nthreads.clamp(1, pool.size());
    let grid = TileGrid::new(kern.mr_for::<E>(), kern.nr_for::<E>(), m, n, nthreads);
    if nthreads <= 1 || grid.tiles() <= 1 || alpha == E::ZERO || k == 0 {
        dgemm_packed(kern, alpha, packed, 0, transb, b, beta, c);
        return;
    }
    let lda = c.lda();
    let cbase = c.as_mut_ptr() as usize;
    let next = AtomicUsize::new(0);
    pool.run(nthreads.min(grid.tiles()), |_ctx| {
        loop {
            let t = next.fetch_add(1, Ordering::Relaxed);
            if t >= grid.tiles() {
                break;
            }
            let (ic, jc, mc, nc) = grid.tile(t);
            let cptr = (cbase as *mut E).wrapping_add(jc * lda + ic);
            // SAFETY: the grid assigns every (ic, jc) tile to exactly one
            // `fetch_add` winner, so tiles are disjoint in memory, and the
            // parent `c` borrow is held for the whole pool region.
            let mut ctile = unsafe { MatMut::from_raw_parts(cptr, mc, nc, lda) };
            let btile = match transb {
                Trans::No => b.submatrix(0, jc, k, nc),
                Trans::Yes => b.submatrix(jc, 0, nc, k),
            };
            dgemm_packed(kern, alpha, packed, ic, transb, btile, beta, &mut ctile);
        }
    });
}

/// The 2D macro-tile decomposition of an `m x n` C.
///
/// Tiles start at the serial cache-block shape (`mc_for(mr) x NC`) and the
/// larger dimension is halved (keeping register-tile alignment, so row
/// tiles stay valid `PackedA` offsets) until the grid has enough tiles to
/// keep every thread busy or the tiles reach the minimum of four register
/// tiles a side. Register-tile shapes are per tier and per precision, so
/// the grid takes the `(mr, nr)` the caller resolved for its kernel and
/// element type.
#[derive(Clone, Copy, Debug)]
struct TileGrid {
    m: usize,
    n: usize,
    tm: usize,
    tn: usize,
    mtiles: usize,
    ntiles: usize,
}

impl TileGrid {
    fn new(mr: usize, nr: usize, m: usize, n: usize, nthreads: usize) -> TileGrid {
        let mut tm = mc_for(mr).min(round_up(m.max(1), mr));
        let mut tn = NC.min(round_up(n.max(1), nr));
        let target = 3 * nthreads.max(1);
        loop {
            if m.div_ceil(tm) * n.div_ceil(tn) >= target {
                break;
            }
            let can_m = tm / 2 >= 4 * mr;
            let can_n = tn / 2 >= 4 * nr;
            if can_n && (tn >= tm || !can_m) {
                tn = round_up(tn / 2, nr);
            } else if can_m {
                tm = round_up(tm / 2, mr);
            } else {
                break;
            }
        }
        TileGrid {
            m,
            n,
            tm,
            tn,
            mtiles: m.div_ceil(tm).max(1),
            ntiles: n.div_ceil(tn).max(1),
        }
    }

    fn tiles(&self) -> usize {
        if self.m == 0 || self.n == 0 {
            0
        } else {
            self.mtiles * self.ntiles
        }
    }

    /// Maps a claimed index to `(ic, jc, mc, nc)`; row tiles vary fastest
    /// so consecutive claims share the same B panel while it is hot.
    fn tile(&self, t: usize) -> (usize, usize, usize, usize) {
        let ic = (t % self.mtiles) * self.tm;
        let jc = (t / self.mtiles) * self.tn;
        (ic, jc, self.tm.min(self.m - ic), self.tn.min(self.n - jc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::l3::dgemm;
    use crate::mat::Matrix;

    fn filled(r: usize, c: usize, seed: usize) -> Matrix {
        Matrix::from_fn(r, c, |i, j| {
            ((i * 31 + j * 17 + seed) % 23) as f64 * 0.125 - 1.0
        })
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let pool = Pool::new(4);
        for &(m, n, k) in &[
            (40usize, 60usize, 16usize),
            (33, 7, 5),
            (64, 128, 32),
            (10, 3, 10),
        ] {
            for &(ta, tb) in &[
                (Trans::No, Trans::No),
                (Trans::Yes, Trans::No),
                (Trans::No, Trans::Yes),
            ] {
                let a = match ta {
                    Trans::No => filled(m, k, 1),
                    Trans::Yes => filled(k, m, 1),
                };
                let b = match tb {
                    Trans::No => filled(k, n, 2),
                    Trans::Yes => filled(n, k, 2),
                };
                let c0 = filled(m, n, 3);
                let mut serial = c0.clone();
                let mut sv = serial.view_mut();
                dgemm(ta, tb, -1.0, a.view(), b.view(), 1.0, &mut sv);
                for threads in [2usize, 3, 4] {
                    let mut par = c0.clone();
                    let mut pv = par.view_mut();
                    dgemm_parallel(
                        &pool,
                        threads,
                        ta,
                        tb,
                        -1.0,
                        a.view(),
                        b.view(),
                        1.0,
                        &mut pv,
                    );
                    assert_eq!(
                        par.as_slice(),
                        serial.as_slice(),
                        "m={m} n={n} k={k} t={threads} ta={ta:?} tb={tb:?}"
                    );
                }
            }
        }
    }

    /// Both explicit kernels, both parallel paths (repacking and
    /// shared-`PackedA`), against the serial kernel — bitwise.
    #[test]
    fn parallel_paths_match_serial_bitwise_per_kernel() {
        let pool = Pool::new(4);
        for kern in Kernel::available() {
            for &(m, n, k) in &[(70usize, 9usize, 33usize), (9, 70, 12), (64, 64, 64)] {
                let a = filled(m, k, 4);
                let b = filled(k, n, 5);
                let c0 = filled(m, n, 6);
                let mut serial = c0.clone();
                let mut sv = serial.view_mut();
                dgemm_with(
                    kern,
                    Trans::No,
                    Trans::No,
                    -1.0,
                    a.view(),
                    b.view(),
                    1.0,
                    &mut sv,
                );
                let mut par = c0.clone();
                let mut pv = par.view_mut();
                dgemm_parallel_with(
                    kern,
                    &pool,
                    4,
                    Trans::No,
                    Trans::No,
                    -1.0,
                    a.view(),
                    b.view(),
                    1.0,
                    &mut pv,
                );
                assert_eq!(
                    par.as_slice(),
                    serial.as_slice(),
                    "repack path, kernel {} m={m} n={n} k={k}",
                    kern.describe()
                );
                let packed = PackedA::pack(kern, Trans::No, a.view());
                let mut ppar = c0.clone();
                let mut ppv = ppar.view_mut();
                dgemm_parallel_packed(
                    kern,
                    &pool,
                    4,
                    -1.0,
                    &packed,
                    Trans::No,
                    b.view(),
                    1.0,
                    &mut ppv,
                );
                assert_eq!(
                    ppar.as_slice(),
                    serial.as_slice(),
                    "packed path, kernel {} m={m} n={n} k={k}",
                    kern.describe()
                );
            }
        }
    }

    /// The f32 instantiation runs the same grid and stays bitwise equal to
    /// its own serial kernel.
    #[test]
    fn parallel_matches_serial_bitwise_f32() {
        let pool = Pool::new(4);
        let a = Matrix::<f32>::from_fn(70, 33, |i, j| ((i * 31 + j * 17 + 4) % 23) as f32 * 0.125);
        let b = Matrix::<f32>::from_fn(33, 9, |i, j| ((i * 31 + j * 17 + 5) % 23) as f32 * 0.125);
        let c0 = Matrix::<f32>::from_fn(70, 9, |i, j| ((i * 31 + j * 17 + 6) % 23) as f32 * 0.125);
        let mut serial = c0.clone();
        let mut sv = serial.view_mut();
        dgemm(
            Trans::No,
            Trans::No,
            -1.0f32,
            a.view(),
            b.view(),
            1.0f32,
            &mut sv,
        );
        let mut par = c0.clone();
        let mut pv = par.view_mut();
        dgemm_parallel(
            &pool,
            4,
            Trans::No,
            Trans::No,
            -1.0f32,
            a.view(),
            b.view(),
            1.0f32,
            &mut pv,
        );
        assert_eq!(par.as_slice(), serial.as_slice());
    }

    #[test]
    fn more_threads_than_columns() {
        let pool = Pool::new(8);
        let a = filled(5, 4, 1);
        let b = filled(4, 2, 2);
        let c0 = filled(5, 2, 3);
        let mut serial = c0.clone();
        let mut sv = serial.view_mut();
        dgemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.5, &mut sv);
        let mut par = c0.clone();
        let mut pv = par.view_mut();
        dgemm_parallel(
            &pool,
            8,
            Trans::No,
            Trans::No,
            1.0,
            a.view(),
            b.view(),
            0.5,
            &mut pv,
        );
        assert_eq!(par.as_slice(), serial.as_slice());
    }

    #[test]
    fn single_thread_falls_back() {
        let pool = Pool::new(2);
        let a = filled(8, 8, 1);
        let b = filled(8, 8, 2);
        let mut c = Matrix::zeros(8, 8);
        let mut cv = c.view_mut();
        dgemm_parallel(
            &pool,
            1,
            Trans::No,
            Trans::No,
            1.0,
            a.view(),
            b.view(),
            0.0,
            &mut cv,
        );
        assert!(c.as_slice().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn tile_grid_covers_exactly_once() {
        // Every tier's tile shape, both precisions: row tiles must stay
        // valid `PackedA` offsets whatever `mr` is.
        let shapes = Kernel::available().into_iter().flat_map(|k| {
            [
                (k.mr_for::<f64>(), k.nr_for::<f64>()),
                (k.mr_for::<f32>(), k.nr_for::<f32>()),
            ]
        });
        for (mr, nr) in shapes {
            for &(m, n, t) in &[(1000usize, 7usize, 8usize), (7, 1000, 8), (513, 513, 4)] {
                let grid = TileGrid::new(mr, nr, m, n, t);
                let mut hits = vec![0u8; m * n];
                for idx in 0..grid.tiles() {
                    let (ic, jc, mc, nc) = grid.tile(idx);
                    assert_eq!(ic % mr, 0, "row tiles stay mr-aligned");
                    for j in jc..jc + nc {
                        for i in ic..ic + mc {
                            hits[j * m + i] += 1;
                        }
                    }
                }
                assert!(hits.iter().all(|&h| h == 1), "{mr}x{nr} m={m} n={n} t={t}");
                assert!(
                    grid.tiles() >= 3 * t || grid.tiles() >= (m * n) / (64 * mr * nr),
                    "skinny shapes still split: {mr}x{nr} m={m} n={n} t={t} tiles={}",
                    grid.tiles()
                );
            }
        }
    }
}
