//! Per-rank storage of the distributed augmented matrix.
//!
//! In rocHPL this buffer lives in the GPU's HBM; here it is the rank
//! thread's heap. The right-hand side `b` is appended as global column `N`
//! (HPL's augmented-system trick), so the row swaps and trailing updates of
//! the elimination transform `b` in place and only a triangular solve
//! remains at the end.

use hpl_blas::mat::{MatMut, MatRef};
use hpl_blas::Element;
use hpl_comm::Grid;

use crate::dist::Axis;
use crate::rng::MatGen;

/// One rank's slice of the global `N x (N+1)` augmented matrix, plus the
/// index machinery to navigate it. Generic over the pipeline [`Element`]:
/// entries are always *generated* in `f64` (one seeded generator serves
/// both precisions, and verification regenerates in `f64`) and demoted on
/// store for an `f32` factorization.
pub struct LocalMatrix<E: Element = f64> {
    /// Row distribution (dimension `N` over `P` process rows).
    pub rows: Axis,
    /// Column distribution (dimension `N + 1` over `Q` process columns).
    pub cols: Axis,
    /// Local row count.
    pub mloc: usize,
    /// Local column count (including the `b` column if owned).
    pub nloc: usize,
    data: Vec<E>,
}

/// Where the entries of an `N x (N+1)` augmented system come from. The
/// pipeline, the verifier and HPL-MxP all generate the system through it,
/// and each must do so the same way the solve did.
#[derive(Clone, Copy)]
pub enum System<'a> {
    /// HPL's seeded random system ([`MatGen`]), generated by strips.
    Seeded(u64),
    /// A caller-supplied system: `fill(i, j)` is global entry `(i, j)`,
    /// column `N` the right-hand side. Must be a pure function of its
    /// arguments — every rank calls it for its own slice, one entry a call.
    Fill(&'a (dyn Fn(usize, usize) -> f64 + Sync)),
}

impl System<'_> {
    /// This rank's slice of the system.
    pub fn local<E: Element>(&self, n: usize, nb: usize, grid: &Grid) -> LocalMatrix<E> {
        match *self {
            System::Seeded(seed) => LocalMatrix::generate(n, nb, grid, seed),
            System::Fill(_) => {
                let mut m = LocalMatrix::unfilled(n, nb, grid);
                if m.mloc > 0 {
                    for (lj, col) in m.data.chunks_exact_mut(m.mloc).enumerate() {
                        self.fill_column(n, m.rows, m.cols.to_global(lj), col);
                    }
                }
                m
            }
        }
    }

    /// Fills `col` with this rank's rows (`rows`) of global column `j` of
    /// the `n`-row system — the column [`System::local`] stores, bit for
    /// bit, so the verifier can regenerate one column at a time.
    pub(crate) fn fill_column<E: Element>(&self, n: usize, rows: Axis, j: usize, col: &mut [E]) {
        match *self {
            System::Seeded(seed) => MatGen::new(seed, n).fill_column(rows, j, col),
            System::Fill(fill) => {
                for (li, v) in col.iter_mut().enumerate() {
                    *v = E::from_f64(fill(rows.to_global(li), j));
                }
            }
        }
    }

    /// The whole right-hand side (global column `n`), which every rank can
    /// produce without communication.
    pub fn rhs(&self, n: usize) -> Vec<f64> {
        match *self {
            System::Seeded(seed) => {
                let mut b = vec![0.0; n];
                MatGen::new(seed, n).fill_strip(0, n, &mut b);
                b
            }
            System::Fill(fill) => (0..n).map(|i| fill(i, n)).collect(),
        }
    }
}

/// The row and column distributions of the `N x (N+1)` augmented system
/// over `grid`, blocked by `nb`.
pub(crate) fn axes(n: usize, nb: usize, grid: &Grid) -> (Axis, Axis) {
    let rows = Axis {
        n,
        nb,
        iproc: grid.myrow(),
        nprocs: grid.nprow(),
    };
    let cols = Axis {
        n: n + 1,
        nb,
        iproc: grid.mycol(),
        nprocs: grid.npcol(),
    };
    (rows, cols)
}

impl<E: Element> LocalMatrix<E> {
    /// This rank's slice of the `N x (N+1)` layout, zero-filled.
    fn unfilled(n: usize, nb: usize, grid: &Grid) -> Self {
        let (rows, cols) = axes(n, nb, grid);
        let mloc = rows.local_len();
        let nloc = cols.local_len();
        Self {
            rows,
            cols,
            mloc,
            nloc,
            data: fresh_storage(mloc * nloc),
        }
    }

    /// Allocates and fills this rank's slice of the seeded random system.
    pub fn generate(n: usize, nb: usize, grid: &Grid, seed: u64) -> Self {
        let mut m = Self::unfilled(n, nb, grid);
        MatGen::new(seed, n).fill_local(&mut m.data, m.rows, m.cols);
        m
    }

    /// Full local view.
    pub fn view_mut(&mut self) -> MatMut<'_, E> {
        MatMut::from_slice(&mut self.data, self.mloc, self.nloc, self.mloc.max(1))
    }

    /// Full local view (immutable).
    pub fn view(&self) -> MatRef<'_, E> {
        MatRef::from_slice(&self.data, self.mloc, self.nloc, self.mloc.max(1))
    }

    /// Leading dimension of the local buffer.
    #[inline]
    pub fn lda(&self) -> usize {
        self.mloc.max(1)
    }

    /// Raw storage (column-major).
    pub fn as_slice(&self) -> &[E] {
        &self.data
    }

    /// Raw mutable storage (column-major).
    pub fn as_mut_slice(&mut self) -> &mut [E] {
        &mut self.data
    }

    /// Element by local indices.
    #[inline]
    pub fn get(&self, li: usize, lj: usize) -> E {
        self.data[lj * self.lda() + li]
    }

    /// Writes element by local indices.
    #[inline]
    pub fn set(&mut self, li: usize, lj: usize, v: E) {
        let lda = self.lda();
        self.data[lj * lda + li] = v;
    }
}

impl LocalMatrix<f64> {
    /// This slice with every entry rounded to `E` — bitwise the slice
    /// [`System::local::<E>`] generates, since generation computes each
    /// entry in `f64` and rounds it on store the same way.
    pub fn demoted<E: Element>(&self) -> LocalMatrix<E> {
        let mut data = fresh_storage(self.data.len());
        for (d, &v) in data.iter_mut().zip(&self.data) {
            *d = E::from_f64(v);
        }
        LocalMatrix {
            rows: self.rows,
            cols: self.cols,
            mloc: self.mloc,
            nloc: self.nloc,
            data,
        }
    }
}

/// Storage for a slice of `len` entries, all zero and none written yet.
/// `vec![E::ZERO; len]` is a `calloc`, which at slice sizes returns fresh
/// anonymous pages the kernel has not faulted in; advising them onto
/// transparent huge pages before the first write lets that write fault
/// 2 MiB at a time instead of 4 KiB. Every value is the same either way.
fn fresh_storage<E: Element>(len: usize) -> Vec<E> {
    let data = vec![E::ZERO; len];
    advise_huge_pages(&data);
    data
}

/// Asks the kernel to back the 2 MiB-aligned interior of `data` with
/// transparent huge pages (`madvise(MADV_HUGEPAGE)`). Best effort: a
/// failure, a slice too small to hold an aligned 2 MiB range, or THP set to
/// `never` leaves the pages as they were. Linux on x86-64 and aarch64
/// only; elsewhere a no-op.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn advise_huge_pages<E>(data: &[E]) {
    use std::ffi::{c_int, c_void};
    /// Huge-page size and alignment on x86-64 and 4 KiB-page aarch64; a
    /// multiple of every base page size, so the range is page-aligned.
    const HUGE: usize = 2 << 20;
    /// `MADV_HUGEPAGE` from the generic `<asm-generic/mman-common.h>`,
    /// which both architectures use.
    const MADV_HUGEPAGE: c_int = 14;
    // SAFETY: this is the C declaration of `madvise` from `<sys/mman.h>`,
    // which the C library every Linux target links provides.
    unsafe extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    let start = data.as_ptr() as usize;
    let end = start + std::mem::size_of_val(data);
    let (lo, hi) = (start.next_multiple_of(HUGE), end / HUGE * HUGE);
    if lo < hi {
        // SAFETY: `[lo, hi)` is page-aligned and lies inside `data`'s
        // allocation, which this process owns; `MADV_HUGEPAGE` changes how
        // the range's pages are backed, never what they hold, so no Rust
        // reference to them is affected. The result is ignored on purpose.
        unsafe { madvise(lo as *mut c_void, hi - lo, MADV_HUGEPAGE) };
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn advise_huge_pages<E>(_data: &[E]) {}

#[cfg(test)]
mod tests {
    use super::*;
    use hpl_comm::{GridOrder, Universe};

    /// The union of all ranks' local slices reconstructs the global matrix.
    #[test]
    fn distributed_generation_tiles_global_matrix() {
        let (n, nb, p, q) = (37usize, 5usize, 2usize, 3usize);
        let locals = Universe::run(p * q, |comm| {
            let grid = Grid::new(comm, p, q, GridOrder::ColumnMajor);
            let lm = LocalMatrix::<f64>::generate(n, nb, &grid, 7);
            let mut entries = Vec::new();
            for lj in 0..lm.nloc {
                for li in 0..lm.mloc {
                    entries.push((lm.rows.to_global(li), lm.cols.to_global(lj), lm.get(li, lj)));
                }
            }
            entries
        });
        let gen = MatGen::new(7, n);
        let mut count = 0usize;
        for entries in locals {
            for (i, j, v) in entries {
                assert!(i < n && j < n + 1);
                assert_eq!(v, gen.entry(i, j), "({i},{j})");
                count += 1;
            }
        }
        assert_eq!(
            count,
            n * (n + 1),
            "every global entry generated exactly once"
        );
    }

    /// The strip generator and the per-entry `fill` path build the same
    /// slice, in both precisions, and demoting the `f64` slice is
    /// generating in `f32`.
    #[test]
    fn seeded_and_fill_systems_agree_bitwise() {
        let (n, nb, p, q) = (37usize, 5usize, 3usize, 2usize);
        Universe::run(p * q, |comm| {
            let grid = Grid::new(comm, p, q, GridOrder::ColumnMajor);
            let gen = MatGen::new(7, n);
            let fill = |i: usize, j: usize| gen.entry(i, j);
            let (seeded, filled) = (System::Seeded(7), System::Fill(&fill));
            let a64 = seeded.local::<f64>(n, nb, &grid);
            assert_eq!(a64.as_slice(), filled.local::<f64>(n, nb, &grid).as_slice());
            let a32 = seeded.local::<f32>(n, nb, &grid);
            assert_eq!(a32.as_slice(), filled.local::<f32>(n, nb, &grid).as_slice());
            let demoted = a64.demoted::<f32>();
            assert_eq!((demoted.mloc, demoted.nloc), (a32.mloc, a32.nloc));
            let bits =
                |m: &LocalMatrix<f32>| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&demoted), bits(&a32));
            assert_eq!(seeded.rhs(n), filled.rhs(n));
        });
    }

    /// The seeded right-hand side is global column `n`, entry by entry.
    #[test]
    fn seeded_rhs_is_column_n() {
        for n in [0usize, 1, 7, 8, 9, 17, 40] {
            let gen = MatGen::new(11, n);
            let b = System::Seeded(11).rhs(n);
            assert_eq!(b.len(), n);
            for (i, v) in b.iter().enumerate() {
                assert_eq!(v.to_bits(), gen.entry(i, n).to_bits(), "n={n} i={i}");
            }
        }
    }

    /// Slices with no storage at all (`mloc == 0` on a process row past the
    /// last block) and single entries build, generate and demote.
    #[test]
    fn tiny_and_empty_slices_build() {
        let shapes = Universe::run(2, |comm| {
            let grid = Grid::new(comm, 2, 1, GridOrder::ColumnMajor);
            let a = LocalMatrix::<f64>::generate(1, 4, &grid, 3);
            let d = a.demoted::<f32>();
            assert_eq!(a.as_slice().len(), d.as_slice().len());
            (a.mloc, a.nloc, d.as_slice().len())
        });
        assert_eq!(shapes, vec![(1, 2, 2), (0, 2, 0)]);
    }

    /// Sums `AnonHugePages` over the mappings of `/proc/self/smaps` that
    /// overlap `data`, in KiB.
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    fn anon_huge_kib<E>(data: &[E]) -> u64 {
        let smaps = std::fs::read_to_string("/proc/self/smaps").expect("read /proc/self/smaps");
        let lo = data.as_ptr() as u64;
        let hi = lo + std::mem::size_of_val(data) as u64;
        let mut overlaps = false;
        let mut kib = 0;
        for line in smaps.lines() {
            let head = line.split_whitespace().next().unwrap_or("");
            if let Some((a, b)) = head.split_once('-') {
                if let (Ok(a), Ok(b)) = (u64::from_str_radix(a, 16), u64::from_str_radix(b, 16)) {
                    overlaps = a < hi && lo < b;
                    continue;
                }
            }
            if let Some(v) = line.strip_prefix("AnonHugePages:") {
                if overlaps {
                    kib += v
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<u64>()
                        .unwrap();
                }
            }
        }
        kib
    }

    /// Where THP is on (`[always]` or `[madvise]`), a slice well past the
    /// allocator's mmap threshold, and its demoted copy, end up on huge pages.
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn large_slices_sit_on_huge_pages() {
        let mode = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
            .unwrap_or_default();
        if !mode.contains("[always]") && !mode.contains("[madvise]") {
            eprintln!(
                "skipped: transparent huge pages are off ({:?})",
                mode.trim()
            );
            return;
        }
        // N = 2900: the f64 slice is 64 MiB and its f32 copy 32 MiB.
        let n = 2900;
        Universe::run(1, |comm| {
            let grid = Grid::new(comm, 1, 1, GridOrder::ColumnMajor);
            let a = LocalMatrix::<f64>::generate(n, 64, &grid, 5);
            let d = a.demoted::<f32>();
            assert!(std::mem::size_of_val(d.as_slice()) >= 32 << 20);
            assert!(
                anon_huge_kib(a.as_slice()) > 0,
                "f64 slice has no huge pages"
            );
            assert!(
                anon_huge_kib(d.as_slice()) > 0,
                "f32 slice has no huge pages"
            );
        });
    }

    #[test]
    fn single_rank_owns_everything() {
        let out = Universe::run(1, |comm| {
            let grid = Grid::new(comm, 1, 1, GridOrder::ColumnMajor);
            let lm = LocalMatrix::<f64>::generate(10, 4, &grid, 1);
            (lm.mloc, lm.nloc)
        });
        assert_eq!(out, vec![(10, 11)]);
    }
}
