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
use crate::rng::{Affine, ColumnWalk, MatGen};

/// One rank's slice of the global `N x (N+1)` augmented matrix, plus the
/// index machinery to navigate it. Generic over the pipeline [`Element`]:
/// entries are always *generated* in `f64` (one seeded generator serves
/// both precisions, and verification regenerates in `f64`) and rounded on
/// store for an `f32` factorization, so an `f32` slice is the `f64` one
/// rounded entry by entry.
pub struct LocalMatrix<E: Element = f64> {
    /// Row distribution (dimension `N` over `P` process rows).
    pub rows: Axis,
    /// Column distribution (dimension `N + 1` over `Q` process columns).
    pub cols: Axis,
    /// Local row count.
    pub mloc: usize,
    /// Local column count (including the `b` column if owned).
    pub nloc: usize,
    /// Column stride of `data` ([`padded_lda`]).
    lda: usize,
    data: Vec<E>,
}

/// Bytes in one cache line, the unit of the leading-dimension padding.
const LINE_BYTES: usize = 64;
/// Lines in 4 KiB, the span an L1 cache of 64 sets maps onto its sets once:
/// addresses a multiple of it apart share a set.
const SET_SPAN_LINES: usize = 64;

/// Leading dimension of a column-major slice of `mloc`-row columns of `E`:
/// `mloc` rounded up to whole 64-byte cache lines, plus one more line when
/// that stride is a whole number of 4 KiB. Such a stride puts the copies of
/// one row in every column into the same L1 set, so a row walk across the
/// panel (the pivot swap) gets one set's ways; one line more makes the line
/// count odd, and 64 consecutive columns then fall in 64 different sets.
/// Other strides keep their length: a line more costs `1/lines` of the
/// slice (1% at the 2x1 inputs' 96 lines) and bought nothing measurable
/// there. `mloc == 0` stores nothing and keeps the unit stride.
pub(crate) fn padded_lda<E>(mloc: usize) -> usize {
    if mloc == 0 {
        return 1;
    }
    let per_line = LINE_BYTES / std::mem::size_of::<E>();
    let lines = mloc.div_ceil(per_line);
    let lines = if lines.is_multiple_of(SET_SPAN_LINES) {
        lines + 1
    } else {
        lines
    };
    lines * per_line
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
            System::Fill(fill) => {
                let mut m = LocalMatrix::unfilled(n, nb, grid);
                for lj in 0..m.nloc {
                    let (rows, j) = (m.rows, m.cols.to_global(lj));
                    for (li, v) in m.col_mut(lj).iter_mut().enumerate() {
                        *v = E::from_f64(fill(rows.to_global(li), j));
                    }
                }
                m
            }
        }
    }

    /// This rank's rows (`rows`) of the `n`-row system's columns, walked a
    /// chunk of about `target` local rows at a time — the entries
    /// [`System::local`] stores, bit for bit, so the verifier can
    /// regenerate the system a few columns and rows at a time.
    pub(crate) fn column_chunks(&self, n: usize, rows: Axis, target: usize) -> ColumnChunks<'_> {
        match *self {
            System::Seeded(seed) => {
                let walk = MatGen::new(seed, n).column_walk(rows);
                let (rows_per_chunk, next_chunk) = walk.chunks(target);
                ColumnChunks {
                    source: ChunkSource::Seeded { walk, next_chunk },
                    rows,
                    rows_per_chunk,
                }
            }
            System::Fill(fill) => ColumnChunks {
                source: ChunkSource::Fill(fill),
                rows,
                rows_per_chunk: target.max(1),
            },
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

/// A walk down one rank's rows of a [`System`]'s columns, a chunk of
/// local rows at a time ([`System::column_chunks`]).
pub(crate) struct ColumnChunks<'a> {
    source: ChunkSource<'a>,
    rows: Axis,
    /// Local rows per chunk; every chunk but a column's last is this long.
    pub(crate) rows_per_chunk: usize,
}

/// Where a [`ColumnChunks`] walk takes its entries from.
enum ChunkSource<'a> {
    /// The seeded generator, and the map from one chunk's first state to
    /// the next's.
    Seeded {
        walk: ColumnWalk,
        next_chunk: Affine,
    },
    /// The caller's entries, one call an entry.
    Fill(&'a (dyn Fn(usize, usize) -> f64 + Sync)),
}

/// Where one column's chunked walk stands: the next chunk's first local
/// row and, for a seeded system, its generator state.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ColumnCursor {
    j: usize,
    li: usize,
    state: u64,
}

impl ColumnChunks<'_> {
    /// A cursor at the first local row of global column `j`.
    pub(crate) fn start(&self, j: usize) -> ColumnCursor {
        let state = match &self.source {
            ChunkSource::Seeded { walk, .. } => walk.start(j),
            ChunkSource::Fill(_) => 0,
        };
        ColumnCursor { j, li: 0, state }
    }

    /// Fills `out` — a whole chunk, or less at the column's end — with the
    /// cursor's next local rows and moves the cursor one chunk down.
    pub(crate) fn fill_next<E: Element>(&self, cur: &mut ColumnCursor, out: &mut [E]) {
        debug_assert!(out.len() <= self.rows_per_chunk);
        match &self.source {
            ChunkSource::Seeded { walk, next_chunk } => {
                walk.fill_from(cur.state, out);
                cur.state = next_chunk.apply(cur.state);
            }
            ChunkSource::Fill(fill) => {
                for (k, v) in out.iter_mut().enumerate() {
                    *v = E::from_f64(fill(self.rows.to_global(cur.li + k), cur.j));
                }
            }
        }
        cur.li += self.rows_per_chunk;
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
        let lda = padded_lda::<E>(mloc);
        let len = if mloc == 0 { 0 } else { lda * nloc };
        Self {
            rows,
            cols,
            mloc,
            nloc,
            lda,
            data: fresh_storage(len),
        }
    }

    /// Allocates and fills this rank's slice of the seeded random system.
    pub fn generate(n: usize, nb: usize, grid: &Grid, seed: u64) -> Self {
        let mut m = Self::unfilled(n, nb, grid);
        MatGen::new(seed, n).fill_local(&mut m.data, m.lda, m.rows, m.cols);
        m
    }

    /// Full local view.
    pub fn view_mut(&mut self) -> MatMut<'_, E> {
        MatMut::from_slice(&mut self.data, self.mloc, self.nloc, self.lda)
    }

    /// Full local view (immutable).
    pub fn view(&self) -> MatRef<'_, E> {
        MatRef::from_slice(&self.data, self.mloc, self.nloc, self.lda)
    }

    /// Leading dimension of the local buffer ([`padded_lda`]): at least
    /// `mloc`, so entries `mloc..lda` of each column are padding no view
    /// shows.
    #[inline]
    pub fn lda(&self) -> usize {
        self.lda
    }

    /// Raw storage: column-major with stride [`LocalMatrix::lda`], padding
    /// included. Index it as `lj * lda() + li`, never with an `mloc`
    /// stride.
    pub fn as_slice(&self) -> &[E] {
        &self.data
    }

    /// The `mloc` entries of local column `lj`.
    #[inline]
    pub(crate) fn col(&self, lj: usize) -> &[E] {
        assert!(lj < self.nloc, "column {lj} out of {}", self.nloc);
        if self.mloc == 0 {
            return &[];
        }
        &self.data[lj * self.lda..][..self.mloc]
    }

    /// The `mloc` entries of local column `lj`, mutably.
    #[inline]
    pub(crate) fn col_mut(&mut self, lj: usize) -> &mut [E] {
        assert!(lj < self.nloc, "column {lj} out of {}", self.nloc);
        if self.mloc == 0 {
            return &mut [];
        }
        &mut self.data[lj * self.lda..][..self.mloc]
    }

    /// The `mloc x nloc` entries widened to `f64` and packed column-major
    /// with stride `mloc`, without the storage's padding — the layout of a
    /// checkpoint snapshot, which therefore does not depend on [`padded_lda`].
    /// Widening is exact, so an `f32` slice restores bitwise.
    pub(crate) fn packed_f64(&self) -> Vec<f64> {
        let mut data = Vec::with_capacity(self.mloc * self.nloc);
        for lj in 0..self.nloc {
            data.extend(self.col(lj).iter().map(|v| v.to_f64()));
        }
        data
    }

    /// Overwrites every entry from `data`, laid out as
    /// [`LocalMatrix::packed_f64`] packs it.
    pub(crate) fn unpack_f64(&mut self, data: &[f64]) {
        assert_eq!(data.len(), self.mloc * self.nloc, "packed slice shape");
        if self.mloc == 0 {
            return;
        }
        for (lj, src) in data.chunks_exact(self.mloc).enumerate() {
            for (d, &v) in self.col_mut(lj).iter_mut().zip(src) {
                *d = E::from_f64(v);
            }
        }
    }

    /// Element by local indices.
    #[inline]
    pub fn get(&self, li: usize, lj: usize) -> E {
        debug_assert!(li < self.mloc);
        self.data[lj * self.lda + li]
    }

    /// Writes element by local indices.
    #[inline]
    pub fn set(&mut self, li: usize, lj: usize, v: E) {
        debug_assert!(li < self.mloc);
        self.data[lj * self.lda + li] = v;
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
    /// slice, in both precisions.
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
            let bits =
                |m: &LocalMatrix<f32>| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let a32 = seeded.local::<f32>(n, nb, &grid);
            assert_eq!(bits(&a32), bits(&filled.local::<f32>(n, nb, &grid)));
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
    /// last block) and single entries build and generate; a one-row column
    /// is stored as one cache line in either precision.
    #[test]
    fn tiny_and_empty_slices_build() {
        let shapes = Universe::run(2, |comm| {
            let grid = Grid::new(comm, 2, 1, GridOrder::ColumnMajor);
            let a = LocalMatrix::<f64>::generate(1, 4, &grid, 3);
            let d = LocalMatrix::<f32>::generate(1, 4, &grid, 3);
            assert_eq!((a.mloc, a.nloc), (d.mloc, d.nloc));
            assert_eq!(a.as_slice().len() * 8, d.as_slice().len() * 4);
            (a.mloc, a.nloc, d.as_slice().len())
        });
        assert_eq!(shapes, vec![(1, 2, 32), (0, 2, 0)]);
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

    /// Where THP is on (`[always]` or `[madvise]`), slices well past the
    /// allocator's mmap threshold end up on huge pages in either precision.
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
            let a = System::Seeded(5).local::<f64>(n, 64, &grid);
            let d = System::Seeded(5).local::<f32>(n, 64, &grid);
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

    /// The leading dimension of both precisions: at least `mloc`, whole
    /// 64-byte lines, never a whole number of 4 KiB, and the smallest such;
    /// `mloc == 0` keeps the unit stride.
    #[test]
    fn lda_is_whole_lines_off_4kib_multiples() {
        fn check<E>(name: &str) {
            let size = std::mem::size_of::<E>();
            let per_line = 64 / size;
            assert_eq!(padded_lda::<E>(0), 1, "{name} mloc=0");
            // Up to 3 x 4 KiB of column in either precision.
            for mloc in 1..=3 * 4096 / size + 2 * per_line {
                let lda = padded_lda::<E>(mloc);
                let bytes = lda * size;
                assert!(lda >= mloc, "{name} mloc={mloc} lda={lda}");
                assert!(
                    bytes.is_multiple_of(64) && !bytes.is_multiple_of(4096),
                    "{name} mloc={mloc}: {bytes} B"
                );
                let least = mloc.div_ceil(per_line) * per_line;
                let want = if (least * size).is_multiple_of(4096) {
                    least + per_line
                } else {
                    least
                };
                assert_eq!(lda, want, "{name} mloc={mloc}: not the least");
            }
        }
        check::<f64>("f64");
        check::<f32>("f32");
        // The benchmark inputs' local columns: 1x1 N = 1536 and N = 3072 in
        // f64 (and N = 3072 in f32) gain a line, 2x1 N = 1536 keeps 96.
        assert_eq!(padded_lda::<f64>(1536), 1544);
        assert_eq!(padded_lda::<f64>(3072), 3080);
        assert_eq!(padded_lda::<f32>(3072), 3088);
        assert_eq!(padded_lda::<f64>(768), 768);
    }

    /// `view`, `view_mut`, `get`, `set` and the column accessors address
    /// the same entries of the padded storage, and generation leaves the
    /// padding untouched.
    #[test]
    fn accessors_agree_on_the_padded_layout() {
        fn check<E: Element>(n: usize, nb: usize, p: usize) {
            let ranks = Universe::run(p, |comm| {
                let grid = Grid::new(comm, p, 1, GridOrder::ColumnMajor);
                let mut a = LocalMatrix::<E>::generate(n, nb, &grid, 9);
                assert_eq!(a.lda(), padded_lda::<E>(a.mloc));
                let gen = MatGen::new(9, n);
                for lj in 0..a.nloc {
                    let j = a.cols.to_global(lj);
                    for li in 0..a.mloc {
                        let want = E::from_f64(gen.entry(a.rows.to_global(li), j));
                        assert_eq!(a.get(li, lj).to_bits_u64(), want.to_bits_u64());
                        assert_eq!(a.view().get(li, lj).to_bits_u64(), want.to_bits_u64());
                        assert_eq!(a.col(lj)[li].to_bits_u64(), want.to_bits_u64());
                    }
                    if a.mloc > 0 {
                        let pad = &a.as_slice()[lj * a.lda() + a.mloc..(lj + 1) * a.lda()];
                        assert!(pad.iter().all(|&v| v == E::ZERO), "padding written");
                    }
                }
                for lj in 0..a.nloc {
                    for li in 0..a.mloc {
                        let v = E::from_f64((li * 1000 + lj) as f64);
                        if (li + lj) % 2 == 0 {
                            a.set(li, lj, v);
                        } else {
                            a.view_mut().set(li, lj, v);
                        }
                    }
                }
                for lj in 0..a.nloc {
                    for li in 0..a.mloc {
                        let v = E::from_f64((li * 1000 + lj) as f64);
                        assert_eq!(a.get(li, lj), v);
                        assert_eq!(a.view().col(lj)[li], v);
                        assert_eq!(a.as_slice()[lj * a.lda() + li], v);
                    }
                }
                a.mloc
            });
            assert_eq!(ranks.iter().sum::<usize>(), n);
        }
        // N = 1024 on one rank: a 4 KiB f32 column, an 8 KiB f64 one, both
        // a line longer.
        for (n, nb, p) in [
            (37, 5, 1),
            (37, 5, 3),
            (150, 16, 2),
            (7, 8, 2),
            (1024, 128, 1),
        ] {
            check::<f64>(n, nb, p);
            check::<f32>(n, nb, p);
        }
    }

    /// Generating in `f32` is generating in `f64` and rounding each entry
    /// with `as f32`, entry by entry and by bits, and the `f32` slice lays
    /// out storage of its own precision's stride.
    #[test]
    fn demoted_equals_f32_generation_by_columns() {
        let fill = |i: usize, j: usize| ((i * 7 + j * 13) % 23) as f64 / 3.0 - 3.7;
        for (n, nb, p) in [
            (37usize, 5usize, 2usize),
            (64, 16, 1),
            (9, 4, 3),
            (1024, 64, 1),
        ] {
            for system in [System::Seeded(3), System::Fill(&fill)] {
                Universe::run(p, |comm| {
                    let grid = Grid::new(comm, p, 1, GridOrder::ColumnMajor);
                    let a64 = system.local::<f64>(n, nb, &grid);
                    let a32 = system.local::<f32>(n, nb, &grid);
                    assert_eq!(a32.lda(), padded_lda::<f32>(a32.mloc));
                    assert_eq!((a32.mloc, a32.nloc), (a64.mloc, a64.nloc));
                    for lj in 0..a32.nloc {
                        for li in 0..a32.mloc {
                            let want = a64.get(li, lj) as f32;
                            assert_eq!(a32.get(li, lj).to_bits(), want.to_bits(), "({li},{lj})");
                        }
                    }
                });
            }
        }
    }

    /// A snapshot of a padded slice holds `mloc * nloc` entries and encodes
    /// byte for byte as the same entries packed with stride `mloc`; unpacking
    /// it restores the slice.
    #[test]
    fn snapshots_pack_without_padding() {
        Universe::run(2, |comm| {
            let grid = Grid::new(comm, 2, 1, GridOrder::ColumnMajor);
            let a = LocalMatrix::<f32>::generate(45, 8, &grid, 4);
            assert!(a.lda() > a.mloc, "the slice must be padded");
            let packed = a.packed_f64();
            assert_eq!(packed.len(), a.mloc * a.nloc);
            let mut flat = Vec::new();
            for lj in 0..a.nloc {
                for li in 0..a.mloc {
                    flat.push(a.get(li, lj).to_f64());
                }
            }
            let snap = |data: Vec<f64>| hpl_ckpt::Snapshot {
                id: hpl_ckpt::ConfigId::default(),
                rank: 0,
                next_iter: 1,
                mloc: a.mloc as u64,
                nloc: a.nloc as u64,
                data,
                pivots: Vec::new(),
                cursors: Vec::new(),
            };
            assert_eq!(
                hpl_ckpt::encode(&snap(packed.clone())),
                hpl_ckpt::encode(&snap(flat))
            );
            let mut b = LocalMatrix::<f32>::unfilled(45, 8, &grid);
            b.unpack_f64(&packed);
            assert_eq!(b.as_slice(), a.as_slice());
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
