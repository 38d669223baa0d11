//! Level-3 BLAS kernels: GEMM and TRSM, generic over the pipeline
//! [`Element`] (f64 and f32 instantiate the same code).
//!
//! GEMM is the kernel that dominates HPL's trailing update; it is
//! implemented GotoBLAS-style with cache blocking, panel packing and an
//! `MR x NR` register microkernel supplied by [`kernels`] — the portable
//! scalar tile or a runtime-detected SIMD tile (see that module for the
//! accumulation-order contract). Pack workspaces come from the
//! thread-local [`crate::arena`], so steady-state calls are
//! allocation-free, and a panel of `A` can be packed once into a
//! [`PackedA`] and reused across many calls — the `L2` panel of the
//! trailing update is packed once per iteration and shared across the
//! split-update sections and all worker threads. TRSM recurses on the
//! triangular factor and delegates the rectangular updates to GEMM, so it
//! inherits its throughput.

pub mod kernels;

use crate::arena;
use crate::mat::{MatMut, MatRef};
use crate::Element;
use crate::{Diag, Side, Trans, Uplo};
use kernels::Kernel;

/// Nominal cache block in the `m` dimension (packed A panel height); a
/// kernel blocks by [`mc_for`] of its tile height.
pub(crate) const MC: usize = 256;
/// Cache block in the `k` dimension (packed panel depth). Unlike `MC` and
/// `NC` this one is part of the answer: `C` is written back once per `KC`
/// panel, so changing it changes where the accumulator is rounded.
pub(crate) const KC: usize = 256;
/// Cache block in the `n` dimension (packed B panel width).
pub(crate) const NC: usize = 2048;

/// The `m` cache block for a register tile `mr` rows tall: `MC` rounded
/// down to whole tiles, so every block of a [`PackedA`] starts on a strip
/// boundary whatever the tile shape (a 24-row tile with a 256-row block
/// would slice strips in half).
#[inline]
pub(crate) fn mc_for(mr: usize) -> usize {
    (MC / mr).max(1) * mr
}

/// General matrix-matrix multiply `C <- alpha * op(A) * op(B) + beta * C`
/// using the process-wide [`kernels::active`] microkernel.
///
/// Dimensions: `op(A)` is `m x k`, `op(B)` is `k x n`, `C` is `m x n`.
pub fn dgemm<E: Element>(
    transa: Trans,
    transb: Trans,
    alpha: E,
    a: MatRef<'_, E>,
    b: MatRef<'_, E>,
    beta: E,
    c: &mut MatMut<'_, E>,
) {
    dgemm_with(kernels::active(), transa, transb, alpha, a, b, beta, c);
}

/// [`dgemm`] with an explicit microkernel — the entry point [`dtrsm_with`]'s
/// updates, tests and benches use so one logical operation runs on one
/// chosen tier.
#[allow(clippy::too_many_arguments)]
pub fn dgemm_with<E: Element>(
    kern: Kernel,
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
    let k = checked_dims(transa, transb, a, b, c);
    if m == 0 || n == 0 {
        return;
    }
    if alpha == E::ZERO || k == 0 {
        scale_c(beta, c);
        return;
    }
    let (mr, nr) = (kern.mr_for::<E>(), kern.nr_for::<E>());
    let mc_blk = mc_for(mr);
    // Pack workspaces from the thread-local arena: zero allocations in the
    // steady state. The packing below overwrites every element the macro
    // kernel reads (padding included), so stale contents are harmless.
    let alen = round_up(m.min(mc_blk), mr) * k.min(KC);
    let blen = k.min(KC) * round_up(n.min(NC), nr);
    E::with_pack_bufs(alen, blen, |apack, bpack| {
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                pack_b(transb, b, pc, jc, kc, nc, nr, bpack);
                // beta applies only on the first k-panel; afterwards
                // accumulate.
                let beta_eff = if pc == 0 { beta } else { E::ONE };
                for ic in (0..m).step_by(mc_blk) {
                    let mc = mc_blk.min(m - ic);
                    pack_a(transa, a, ic, pc, mc, kc, mr, apack);
                    macro_kernel(
                        kern,
                        mc,
                        nc,
                        kc,
                        alpha,
                        apack,
                        bpack,
                        beta_eff,
                        &mut c.submatrix_mut(ic, jc, mc, nc),
                    );
                }
            }
        }
    });
}

/// Validates the `op(A)` / `op(B)` / `C` dimension triangle; returns `k`.
fn checked_dims<E: Element>(
    transa: Trans,
    transb: Trans,
    a: MatRef<'_, E>,
    b: MatRef<'_, E>,
    c: &MatMut<'_, E>,
) -> usize {
    let m = c.rows();
    let n = c.cols();
    let k = match transa {
        Trans::No => {
            assert_eq!(a.rows(), m, "dgemm: op(A) rows != C rows");
            a.cols()
        }
        Trans::Yes => {
            assert_eq!(a.cols(), m, "dgemm: op(A) rows != C rows");
            a.rows()
        }
    };
    match transb {
        Trans::No => {
            assert_eq!(b.rows(), k, "dgemm: op(B) rows != op(A) cols");
            assert_eq!(b.cols(), n, "dgemm: op(B) cols != C cols");
        }
        Trans::Yes => {
            assert_eq!(b.cols(), k, "dgemm: op(B) rows != op(A) cols");
            assert_eq!(b.rows(), n, "dgemm: op(B) cols != C cols");
        }
    }
    k
}

/// A full `m x k` operand `op(A)` packed once into register-strip layout
/// for reuse across many GEMM calls.
///
/// The `k` dimension is cut into the same `KC` panels [`dgemm`] uses:
/// panel `pc` starts at element `mup * pc` (`mup` = `m` rounded up to the
/// kernel's `mr`) and holds `ceil(m / mr)` strips of `kc * mr` values
/// each — bit-for-bit what `dgemm` would pack on the fly, which keeps the
/// packed and on-the-fly paths bitwise interchangeable. The packed data
/// starts `off` elements into `buf`, on a cache line, so no full-width
/// vector load of a strip straddles two lines.
pub struct PackedA<E: Element = f64> {
    buf: Vec<E>,
    off: usize,
    mr: usize,
    m: usize,
    k: usize,
    mup: usize,
}

impl<E: Element> PackedA<E> {
    /// An operand holding no storage, for [`PackedA::refill`] to fill.
    pub fn empty() -> PackedA<E> {
        PackedA {
            buf: Vec::new(),
            off: 0,
            mr: 1,
            m: 0,
            k: 0,
            mup: 0,
        }
    }

    /// Packs all of the `m x k` operand `op(A)` for kernel `kern` into
    /// fresh storage ([`PackedA::refill`] on an empty operand).
    pub fn pack(kern: Kernel, transa: Trans, a: MatRef<'_, E>) -> PackedA<E> {
        let mut packed = PackedA::empty();
        packed.refill(kern, transa, a);
        packed
    }

    /// Packs all of the `m x k` operand `op(A)` for kernel `kern` into this
    /// operand's storage, replacing what it held. The storage only grows:
    /// an operand no larger than the largest packed before lands where
    /// that one did, so a caller that keeps one `PackedA` across a run's
    /// shrinking panels touches no fresh page after the first. The result
    /// is bit for bit what [`PackedA::pack`] gives.
    pub fn refill(&mut self, kern: Kernel, transa: Trans, a: MatRef<'_, E>) {
        let (m, k) = match transa {
            Trans::No => (a.rows(), a.cols()),
            Trans::Yes => (a.cols(), a.rows()),
        };
        let mr = kern.mr_for::<E>();
        let mup = round_up(m, mr);
        let need = mup * k + arena::line_len::<E>();
        if self.buf.len() < need {
            // xtask-allow: hot-path-alloc — the grow step: taken only when an operand outgrows every one packed before, so a run's shrinking panels take it once
            self.buf = vec![E::ZERO; need];
            self.off = arena::line_offset(&self.buf);
        }
        let (buf, off) = (&mut self.buf, self.off);
        let mc_blk = mc_for(mr);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            // One cache block of rows at a time, as `dgemm` packs them: a
            // column pass then scatters into `mc_blk / mr` strips, not
            // into every strip of a tall panel.
            for ic in (0..m).step_by(mc_blk) {
                let mc = mc_blk.min(m - ic);
                let start = off + mup * pc + ic * kc;
                let out = &mut buf[start..start + round_up(mc, mr) * kc];
                pack_a(transa, a, ic, pc, mc, kc, mr, out);
            }
        }
        (self.mr, self.m, self.k, self.mup) = (mr, m, k, mup);
    }

    /// Row count of the packed operand.
    pub fn rows(&self) -> usize {
        self.m
    }

    /// Depth (`k`) of the packed operand.
    pub fn depth(&self) -> usize {
        self.k
    }

    /// Register-strip height this operand was packed for.
    pub fn mr(&self) -> usize {
        self.mr
    }

    /// The packed strips covering rows `ic..ic+mc` of `k`-panel `pc`, in
    /// exactly the layout [`macro_kernel`] consumes. `ic` must be
    /// `mr`-aligned — a block that starts inside a strip would hand the
    /// kernel rows of the wrong tile — and (`pc`, `kc`) must name one of
    /// the `KC` panels the constructor created.
    fn block(&self, ic: usize, pc: usize, mc: usize, kc: usize) -> &[E] {
        assert_eq!(ic % self.mr, 0, "PackedA::block: ic must be mr-aligned");
        debug_assert_eq!(pc % KC, 0);
        debug_assert_eq!(kc, KC.min(self.k - pc));
        debug_assert!(ic + mc <= self.m);
        let start = self.off + self.mup * pc + ic * kc;
        &self.buf[start..start + round_up(mc, self.mr) * kc]
    }
}

/// `C <- alpha * A[row0 .. row0 + C.rows(), :] * op(B) + beta * C` where
/// `A` was packed ahead of time with [`PackedA::pack`].
///
/// `row0` must be `mr`-aligned (row tiles in the parallel path are) and
/// `kern` must be the kernel `packed` was built for. Bitwise identical to
/// [`dgemm_with`] on the same operands and kernel.
#[allow(clippy::too_many_arguments)]
pub fn dgemm_packed<E: Element>(
    kern: Kernel,
    alpha: E,
    packed: &PackedA<E>,
    row0: usize,
    transb: Trans,
    b: MatRef<'_, E>,
    beta: E,
    c: &mut MatMut<'_, E>,
) {
    let m = c.rows();
    let n = c.cols();
    let k = packed.k;
    let (mr, nr) = (kern.mr_for::<E>(), kern.nr_for::<E>());
    assert_eq!(packed.mr, mr, "dgemm_packed: kernel/packing mismatch");
    assert_eq!(row0 % mr, 0, "dgemm_packed: row0 must be mr-aligned");
    assert!(row0 + m <= packed.m, "dgemm_packed: rows out of range");
    match transb {
        Trans::No => {
            assert_eq!(b.rows(), k, "dgemm_packed: op(B) rows != A depth");
            assert_eq!(b.cols(), n, "dgemm_packed: op(B) cols != C cols");
        }
        Trans::Yes => {
            assert_eq!(b.cols(), k, "dgemm_packed: op(B) rows != A depth");
            assert_eq!(b.rows(), n, "dgemm_packed: op(B) cols != C cols");
        }
    }
    if m == 0 || n == 0 {
        return;
    }
    if alpha == E::ZERO || k == 0 {
        scale_c(beta, c);
        return;
    }
    let mc_blk = mc_for(mr);
    let blen = k.min(KC) * round_up(n.min(NC), nr);
    E::with_pack_bufs(0, blen, |_, bpack| {
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                pack_b(transb, b, pc, jc, kc, nc, nr, bpack);
                let beta_eff = if pc == 0 { beta } else { E::ONE };
                for ic in (0..m).step_by(mc_blk) {
                    let mc = mc_blk.min(m - ic);
                    let apack = packed.block(row0 + ic, pc, mc, kc);
                    macro_kernel(
                        kern,
                        mc,
                        nc,
                        kc,
                        alpha,
                        apack,
                        bpack,
                        beta_eff,
                        &mut c.submatrix_mut(ic, jc, mc, nc),
                    );
                }
            }
        }
    });
}

/// Rounds `x` up to a multiple of `to`.
#[inline]
pub(crate) fn round_up(x: usize, to: usize) -> usize {
    x.div_ceil(to) * to
}

fn scale_c<E: Element>(beta: E, c: &mut MatMut<'_, E>) {
    if beta == E::ONE {
        return;
    }
    for j in 0..c.cols() {
        if beta == E::ZERO {
            c.col_mut(j).fill(E::ZERO);
        } else {
            for v in c.col_mut(j) {
                *v *= beta;
            }
        }
    }
}

/// Packs an `mc x kc` block of `op(A)` starting at `(ic, pc)` into
/// `mr`-row strips, each strip stored k-major, zero-padded to `mr`.
#[allow(clippy::too_many_arguments)]
fn pack_a<E: Element>(
    transa: Trans,
    a: MatRef<'_, E>,
    ic: usize,
    pc: usize,
    mc: usize,
    kc: usize,
    mr: usize,
    out: &mut [E],
) {
    pack_strips(a, matches!(transa, Trans::No), ic, pc, mc, kc, mr, out);
}

/// Packs a `kc x nc` block of `op(B)` starting at `(pc, jc)` into
/// `nr`-column strips, each strip stored k-major, zero-padded to `nr`.
#[allow(clippy::too_many_arguments)]
fn pack_b<E: Element>(
    transb: Trans,
    b: MatRef<'_, E>,
    pc: usize,
    jc: usize,
    kc: usize,
    nc: usize,
    nr: usize,
    out: &mut [E],
) {
    pack_strips(b, matches!(transb, Trans::Yes), jc, pc, nc, kc, nr, out);
}

/// The one packing routine behind [`pack_a`] and [`pack_b`]: `len` lanes
/// starting at `s0`, `kc` depth steps starting at `p0`, cut into strips of
/// `w` lanes (the last zero-padded), each strip depth-major — lane `s` of
/// step `p` of strip `t` lands at `(t*kc + p)*w + s`.
///
/// `lanes_down_cols` says which way the operand lies in `x`. When lane
/// `s`, step `p` is `x[s0+s, p0+p]`, a step is a run of a column and the
/// strips take slice copies of it; otherwise it is `x[p0+p, s0+s]`, a
/// lane is a run of a column and is laid down `w` apart. Either way the
/// transpose flag is decided once, outside the loops.
#[allow(clippy::too_many_arguments)]
fn pack_strips<E: Element>(
    x: MatRef<'_, E>,
    lanes_down_cols: bool,
    s0: usize,
    p0: usize,
    len: usize,
    kc: usize,
    w: usize,
    out: &mut [E],
) {
    let strip = kc * w;
    let out = &mut out[..len.div_ceil(w) * strip];
    if lanes_down_cols {
        for p in 0..kc {
            let src = &x.col(p0 + p)[s0..s0 + len];
            for (piece, dst) in src.chunks(w).zip(out[p * w..].chunks_mut(strip)) {
                dst[..piece.len()].copy_from_slice(piece);
                dst[piece.len()..w].fill(E::ZERO);
            }
        }
    } else {
        for (t, dst) in out.chunks_exact_mut(strip).enumerate() {
            let lanes = w.min(len - t * w);
            for s in 0..lanes {
                let src = &x.col(s0 + t * w + s)[p0..p0 + kc];
                for (row, &v) in dst.chunks_exact_mut(w).zip(src) {
                    row[s] = v;
                }
            }
            if lanes < w {
                for row in dst.chunks_exact_mut(w) {
                    row[lanes..].fill(E::ZERO);
                }
            }
        }
    }
}

/// Multiplies packed panels into the `mc x nc` block of C: one
/// [`Kernel::micro`] call per register tile, which updates its tile of
/// `C` itself (clipped at the block's edge).
#[allow(clippy::too_many_arguments)]
fn macro_kernel<E: Element>(
    kern: Kernel,
    mc: usize,
    nc: usize,
    kc: usize,
    alpha: E,
    apack: &[E],
    bpack: &[E],
    beta: E,
    c: &mut MatMut<'_, E>,
) {
    let (mr, nr) = (kern.mr_for::<E>(), kern.nr_for::<E>());
    for (jb, j0) in (0..nc).step_by(nr).enumerate() {
        let nw = nr.min(nc - j0);
        let bstrip = &bpack[jb * kc * nr..(jb + 1) * kc * nr];
        for (ib, i0) in (0..mc).step_by(mr).enumerate() {
            let mh = mr.min(mc - i0);
            let astrip = &apack[ib * kc * mr..(ib + 1) * kc * mr];
            let mut tile = c.submatrix_mut(i0, j0, mh, nw);
            kern.micro(kc, astrip, bstrip, alpha, beta, &mut tile);
        }
    }
}

/// Reference (naive) GEMM used by tests and as a fallback oracle.
pub fn dgemm_naive<E: Element>(
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
    for j in 0..n {
        for i in 0..m {
            let mut s = E::ZERO;
            for p in 0..k {
                let aip = match transa {
                    Trans::No => a.get(i, p),
                    Trans::Yes => a.get(p, i),
                };
                let bpj = match transb {
                    Trans::No => b.get(p, j),
                    Trans::Yes => b.get(j, p),
                };
                s += aip * bpj;
            }
            let old = c.get(i, j);
            c.set(i, j, alpha * s + beta * old);
        }
    }
}

/// Triangular solve with multiple right-hand sides:
/// `B <- alpha * op(T)^{-1} B` (Side::Left) or `B <- alpha * B * op(T)^{-1}`
/// (Side::Right), where `T` is triangular per `uplo`/`diag`, using the
/// process-wide [`kernels::active`] microkernel for the rectangular parts.
pub fn dtrsm<E: Element>(
    side: Side,
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    alpha: E,
    t: MatRef<'_, E>,
    b: &mut MatMut<'_, E>,
) {
    dtrsm_with(kernels::active(), side, uplo, trans, diag, alpha, t, b);
}

/// [`dtrsm`] with an explicit microkernel.
///
/// The solve recurses on the triangle (split at `n / 2` down to
/// [`TRSM_BASE`]): the off-diagonal rectangle of every split is a
/// [`dgemm_with`] call, the triangles at the leaves go through
/// [`trsm_base`]. Where the splits fall decides which `t * x` products
/// reach an element fused (inside a GEMM) and which as a multiply and a
/// subtract (inside a leaf), so the split rule is part of the answer and
/// does not change with the kernel.
#[allow(clippy::too_many_arguments)]
pub fn dtrsm_with<E: Element>(
    kern: Kernel,
    side: Side,
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    alpha: E,
    t: MatRef<'_, E>,
    b: &mut MatMut<'_, E>,
) {
    let dim = match side {
        Side::Left => b.rows(),
        Side::Right => b.cols(),
    };
    assert_eq!(t.rows(), dim, "dtrsm: T dimension mismatch");
    assert_eq!(t.cols(), dim, "dtrsm: T must be square");
    if b.is_empty() {
        return;
    }
    if alpha != E::ONE {
        for j in 0..b.cols() {
            for v in b.col_mut(j) {
                *v *= alpha;
            }
        }
    }
    dtrsm_rec(kern, side, uplo, trans, diag, t, b);
}

/// Recursion cutoff for the triangular dimension.
const TRSM_BASE: usize = 32;

/// Does op(T) act as a lower triangle? On the left that means a forward
/// sweep (the leading unknowns depend on no other); on the right, a
/// backward one.
fn op_is_lower(uplo: Uplo, trans: Trans) -> bool {
    matches!(
        (uplo, trans),
        (Uplo::Lower, Trans::No) | (Uplo::Upper, Trans::Yes)
    )
}

fn dtrsm_rec<E: Element>(
    kern: Kernel,
    side: Side,
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    t: MatRef<'_, E>,
    b: &mut MatMut<'_, E>,
) {
    let n = t.rows();
    if n == 0 {
        return;
    }
    if n <= TRSM_BASE {
        trsm_base(kern, side, uplo, trans, diag, t, b);
        return;
    }
    let h = n / 2;
    let t11 = t.submatrix(0, 0, h, h);
    let t22 = t.submatrix(h, h, n - h, n - h);
    // The off-diagonal block of the triangle.
    let off = match uplo {
        Uplo::Lower => t.submatrix(h, 0, n - h, h),
        Uplo::Upper => t.submatrix(0, h, h, n - h),
    };
    // The half of the unknowns that depends on no other is solved first:
    // the leading one when op(T) is lower triangular on the left, or upper
    // triangular on the right.
    let op_lower = op_is_lower(uplo, trans);
    let (rows, cols) = (b.rows(), b.cols());
    let whole = b.submatrix_mut(0, 0, rows, cols);
    match side {
        Side::Left => {
            let (b1, b2) = whole.split_at_row(h);
            let (mut first, tf, mut second, ts) = if op_lower {
                (b1, t11, b2, t22)
            } else {
                (b2, t22, b1, t11)
            };
            dtrsm_rec(kern, side, uplo, trans, diag, tf, &mut first);
            // second -= op(T)[second, first] * X[first].
            let x = first.as_ref();
            dgemm_with(kern, trans, Trans::No, -E::ONE, off, x, E::ONE, &mut second);
            dtrsm_rec(kern, side, uplo, trans, diag, ts, &mut second);
        }
        Side::Right => {
            let (b1, b2) = whole.split_at_col(h);
            let (mut first, tf, mut second, ts) = if op_lower {
                (b2, t22, b1, t11)
            } else {
                (b1, t11, b2, t22)
            };
            dtrsm_rec(kern, side, uplo, trans, diag, tf, &mut first);
            // second -= X[first] * op(T)[first, second].
            let x = first.as_ref();
            dgemm_with(kern, Trans::No, trans, -E::ONE, x, off, E::ONE, &mut second);
            dtrsm_rec(kern, side, uplo, trans, diag, ts, &mut second);
        }
    }
}

/// The leaf of [`dtrsm_rec`]: an unblocked solve against a triangle of at
/// most [`TRSM_BASE`] rows. On x86-64 the SIMD tiers run
/// [`trsm_base_body`] compiled with 256-bit registers, so its fixed-width
/// row groups become whole-register operations. (A 512-bit build of the
/// same loops measured slower on the host this was sized on: the groups
/// are eight rows, and the mask code LLVM emits for the in-group triangle
/// costs more than the wider subtract saves.)
///
/// Neither build may fuse: Rust never contracts a separate multiply and
/// subtract, and the 256-bit instance does not even enable `fma`. Every
/// instance therefore computes `y - t*x` with two roundings and gives the
/// same bits as the portable one.
fn trsm_base<E: Element>(
    kern: Kernel,
    side: Side,
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    t: MatRef<'_, E>,
    b: &mut MatMut<'_, E>,
) {
    match kern.tier() {
        #[cfg(target_arch = "x86_64")]
        kernels::Tier::Avx2 | kernels::Tier::Avx512 => {
            // SAFETY: a kernel of either x86-64 SIMD tier is only
            // constructed after avx2 was detected on this CPU.
            unsafe { trsm_base_avx2(side, uplo, trans, diag, t, b) }
        }
        _ => trsm_base_body(side, uplo, trans, diag, t, b),
    }
}

/// [`trsm_base_body`] compiled for 256-bit registers.
///
/// # Safety
/// The CPU must support the `avx2` target feature.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn trsm_base_avx2<E: Element>(
    side: Side,
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    t: MatRef<'_, E>,
    b: &mut MatMut<'_, E>,
) {
    trsm_base_body(side, uplo, trans, diag, t, b)
}

/// Right-hand-side columns a forward left solve sweeps per block of the
/// triangle: their dependency chains are independent, so the core overlaps
/// them instead of waiting out one column's chain.
const TRSM_COLS: usize = 8;
/// Rows of a column that move together as one fixed-width group in a
/// forward left solve.
const TRSM_ROWS: usize = 8;

/// The unblocked solve. Every element receives its `t * x` products as a
/// multiply then a subtract, in the order the historical dot-product form
/// applied them (ascending `p` on the left, solve order on the right), and
/// is divided by the diagonal last — so the result is that form's, bit for
/// bit, whichever way the loops below are nested.
#[inline(always)]
fn trsm_base_body<E: Element>(
    side: Side,
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    t: MatRef<'_, E>,
    b: &mut MatMut<'_, E>,
) {
    let n = t.rows();
    debug_assert!(n <= TRSM_BASE);
    let unit = matches!(diag, Diag::Unit);
    let op_lower = op_is_lower(uplo, trans);
    // `line(q)` is the run of op(T) the loops below walk: column `q` of
    // op(T) for a forward left solve and for a right solve, row `q` for a
    // backward left solve. It is a column of `T` as stored, or — decided
    // here, once — a column of a transposed copy.
    let transposed = match side {
        Side::Left => op_lower == matches!(trans, Trans::Yes),
        Side::Right => matches!(trans, Trans::Yes),
    };
    let tt_store;
    let tt: &[E] = if transposed {
        tt_store = transposed_copy(t);
        &tt_store
    } else {
        &[]
    };
    let line = |q: usize| -> &[E] {
        if transposed {
            &tt[q * n..(q + 1) * n]
        } else {
            &t.col(q)[..n]
        }
    };
    match side {
        Side::Left if op_lower => {
            let w = b.cols();
            if n == TRSM_BASE && w >= TRSM_COLS {
                forward_full(unit, &line, b);
                return;
            }
            // Right-looking: once x[p] is final, every later row of the
            // column takes its product. Row r thus sees p = 0, 1, .. r-1,
            // the dot-product order.
            for j0 in (0..w).step_by(TRSM_COLS) {
                for p in 0..n {
                    let tp = line(p);
                    for j in j0..w.min(j0 + TRSM_COLS) {
                        let col = b.col_mut(j);
                        if !unit {
                            col[p] /= tp[p];
                        }
                        let x = col[p];
                        for (y, &tv) in col[p + 1..].iter_mut().zip(&tp[p + 1..]) {
                            *y -= tv * x;
                        }
                    }
                }
            }
        }
        Side::Left => {
            // The backward sweep keeps the dot-product form: row r takes
            // p = r+1, .. n-1 ascending, and x[r+1] — its first factor —
            // is the last of them to become final, so no right-looking
            // order reproduces it.
            for j in 0..b.cols() {
                let col = b.col_mut(j);
                for r in (0..n).rev() {
                    let tr = line(r);
                    let mut s = col[r];
                    for p in r + 1..n {
                        s -= tr[p] * col[p];
                    }
                    col[r] = if unit { s } else { s / tr[r] };
                }
            }
        }
        Side::Right => {
            // X op(T) = B, one column of X at a time in dependency order:
            // column c takes the columns solved before it, in that order.
            let m = b.rows();
            let at = |i: usize| if op_lower { n - 1 - i } else { i };
            for ci in 0..n {
                let c = at(ci);
                let tc = line(c);
                for p in (0..ci).map(at) {
                    let tpc = tc[p];
                    if tpc == E::ZERO {
                        continue;
                    }
                    let (mut left, mut right) = b.submatrix_mut(0, 0, m, n).split_at_col(p.max(c));
                    let (xp, yc) = if p < c {
                        (left.col(p), right.col_mut(0))
                    } else {
                        (right.col(0), left.col_mut(c))
                    };
                    for (y, &x) in yc.iter_mut().zip(xp) {
                        *y -= x * tpc;
                    }
                }
                if !unit {
                    for v in b.col_mut(c) {
                        *v /= tc[c];
                    }
                }
            }
        }
    }
}

/// The forward left solve of a full `TRSM_BASE`-row leaf against at least
/// `TRSM_COLS` right-hand sides — every leaf of the update's `U` solve —
/// with every trip count fixed, so the row groups compile to
/// whole-register operations. Right-looking by blocks of `G` unknowns: a
/// block first solves its own `G x G` triangle (step `q` reaches only the
/// rows below `q`, the others keep their value), then every group of rows
/// under it takes the block's `G` products in `p` order while it sits in
/// registers. Row r thus sees p = 0, 1, .. r-1, the dot-product order.
///
/// op(T) is copied to the stack first: through the views the compiler
/// must assume a store to `B` may change `T`, and re-derives every column
/// of it inside the innermost loops (measured: 6 against 16 GFLOPS).
#[inline(always)]
fn forward_full<'t, E: Element>(
    unit: bool,
    line: &impl Fn(usize) -> &'t [E],
    b: &mut MatMut<'_, E>,
) {
    const N: usize = TRSM_BASE;
    const G: usize = TRSM_ROWS;
    let group = |col: &[E; N], r0: usize| -> [E; G] {
        col[r0..r0 + G].try_into().expect("a group is G rows")
    };
    let mut tl = [[E::ZERO; N]; N];
    for (p, tp) in tl.iter_mut().enumerate() {
        tp.copy_from_slice(line(p));
    }
    let w = b.cols();
    for j0 in (0..w).step_by(TRSM_COLS) {
        for pb in (0..N).step_by(G) {
            for j in j0..w.min(j0 + TRSM_COLS) {
                let col: &mut [E; N] = b.col_mut(j).try_into().expect("a full leaf has N rows");
                let mut x = group(col, pb);
                for q in 0..G {
                    let tv = group(&tl[pb + q], pb);
                    if !unit {
                        x[q] /= tv[q];
                    }
                    let xq = x[q];
                    for i in 0..G {
                        let v = x[i] - tv[i] * xq;
                        x[i] = if i > q { v } else { x[i] };
                    }
                }
                col[pb..pb + G].copy_from_slice(&x);
                for r0 in (pb + G..N).step_by(G) {
                    let mut y = group(col, r0);
                    for q in 0..G {
                        let tv = group(&tl[pb + q], r0);
                        for i in 0..G {
                            y[i] -= tv[i] * x[q];
                        }
                    }
                    col[r0..r0 + G].copy_from_slice(&y);
                }
            }
        }
    }
}

/// `T` transposed into a dense `n x n` column-major stack tile
/// (`n <= TRSM_BASE`): element `(i, q)` of the copy is `T[q, i]`.
#[inline(always)]
fn transposed_copy<E: Element>(t: MatRef<'_, E>) -> [E; TRSM_BASE * TRSM_BASE] {
    let n = t.rows();
    let mut tt = [E::ZERO; TRSM_BASE * TRSM_BASE];
    for i in 0..n {
        for (q, &v) in t.col(i)[..n].iter().enumerate() {
            tt[q * n + i] = v;
        }
    }
    tt
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::Matrix;

    #[test]
    fn cache_block_is_whole_tiles_for_any_tile_height() {
        for mr in [4usize, 8, 16, 24, 32, 48, 64, 96, 256, 300] {
            let mc = mc_for(mr);
            assert_eq!(mc % mr, 0, "mr={mr}");
            assert!(mc >= mr && (mc <= MC || mc == mr), "mr={mr} mc={mc}");
            assert!(mc + mr > MC, "mr={mr}: a whole further tile would fit");
        }
    }

    /// Every block `dgemm_packed` can ask a `PackedA` for starts on a strip
    /// boundary, on every tier and for both precisions, and the strips it
    /// gets are the rows it asked for: three cache blocks and a ragged
    /// tail, through `row0 = 0` and through each aligned `row0` the
    /// parallel grid could pass, against the on-the-fly packing.
    fn packed_blocks_are_strip_aligned<E: Element>() {
        for kern in Kernel::available() {
            let mr = kern.mr_for::<E>();
            let mc_blk = mc_for(mr);
            assert_eq!(mc_blk % mr, 0, "{}", kern.describe());
            let (m, n, k) = (3 * mc_blk + mr + 3, 7, KC + 5);
            let val = |i: usize, j: usize, s: usize| {
                E::from_f64(((i * 29 + j * 13 + s) % 41) as f64 / 41.0 - 0.4)
            };
            let a = Matrix::<E>::from_fn(m, k, |i, j| val(i, j, 1));
            let b = Matrix::<E>::from_fn(k, n, |i, j| val(i, j, 2));
            let c0 = Matrix::<E>::from_fn(m, n, |i, j| val(i, j, 3));
            let packed = PackedA::pack(kern, Trans::No, a.view());
            for pc in (0..k).step_by(KC) {
                for ic in (0..m).step_by(mc_blk) {
                    let (mc, kc) = (mc_blk.min(m - ic), KC.min(k - pc));
                    assert_eq!(packed.block(ic, pc, mc, kc).len(), round_up(mc, mr) * kc);
                }
            }
            let mut want = c0.clone();
            let (no, one) = (Trans::No, E::ONE);
            dgemm_with(
                kern,
                no,
                no,
                -one,
                a.view(),
                b.view(),
                one,
                &mut want.view_mut(),
            );
            for row0 in [0, mr, mc_blk, mc_blk + 2 * mr] {
                let mut got = c0.clone();
                let mut tail = got.view_mut().split_at_row(row0).1;
                dgemm_packed(kern, -one, &packed, row0, no, b.view(), one, &mut tail);
                for j in 0..n {
                    for i in row0..m {
                        assert_eq!(
                            got.get(i, j).to_bits_u64(),
                            want.get(i, j).to_bits_u64(),
                            "{} {} row0={row0} ({i},{j})",
                            kern.describe(),
                            E::NAME
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn packed_blocks_are_strip_aligned_f64() {
        packed_blocks_are_strip_aligned::<f64>();
    }

    #[test]
    fn packed_blocks_are_strip_aligned_f32() {
        packed_blocks_are_strip_aligned::<f32>();
    }

    /// The packed strips of `p`, the region `dgemm_packed` reads.
    fn strips<E: Element>(p: &PackedA<E>) -> Vec<u64> {
        p.buf[p.off..p.off + p.mup * p.k]
            .iter()
            .map(|v| v.to_bits_u64())
            .collect()
    }

    /// Refilling one `PackedA` gives what a fresh `pack` does, bit for bit:
    /// after a larger operand, after a smaller one, transposed or not, on
    /// every tier this host runs. A smaller operand lands in the storage
    /// the larger one left; only outgrowing it takes new storage.
    fn refill_is_a_fresh_pack<E: Element>() {
        let val = |i: usize, j: usize, s: usize| {
            E::from_f64(((i * 31 + j * 17 + s) % 43) as f64 / 43.0 - 0.45)
        };
        for kern in Kernel::available() {
            let mr = kern.mr_for::<E>();
            let mut packed = PackedA::empty();
            // Large, smaller, ragged, transposed, then larger than all.
            let shapes = [
                (2 * mc_for(mr) + 5, KC + 3, Trans::No),
                (mc_for(mr) + mr - 1, 40, Trans::No),
                (7, 3, Trans::No),
                (mr + 2, KC + 1, Trans::Yes),
                (3 * mc_for(mr), KC + 9, Trans::No),
            ];
            let mut cap = 0;
            for (s, &(m, k, tr)) in shapes.iter().enumerate() {
                let a = match tr {
                    Trans::No => Matrix::<E>::from_fn(m, k, |i, j| val(i, j, s)),
                    Trans::Yes => Matrix::<E>::from_fn(k, m, |i, j| val(i, j, s)),
                };
                let before = packed.buf.as_ptr();
                packed.refill(kern, tr, a.view());
                let fresh = PackedA::pack(kern, tr, a.view());
                let what = format!("{} {} shape {s}", kern.describe(), E::NAME);
                assert_eq!((packed.m, packed.k, packed.mr), (m, k, mr), "{what}");
                assert_eq!(strips(&packed), strips(&fresh), "{what}");
                let need = round_up(m, mr) * k + arena::line_len::<E>();
                if need <= cap {
                    assert_eq!(packed.buf.as_ptr(), before, "{what}: shrinking moved");
                }
                cap = cap.max(need);
                // And the product through it is the fresh pack's.
                let n = 5;
                let b = Matrix::<E>::from_fn(k, n, |i, j| val(i, j, 7));
                let c0 = Matrix::<E>::from_fn(m, n, |i, j| val(i, j, 9));
                let (mut got, mut want) = (c0.clone(), c0);
                let one = E::ONE;
                dgemm_packed(
                    kern,
                    -one,
                    &packed,
                    0,
                    Trans::No,
                    b.view(),
                    one,
                    &mut got.view_mut(),
                );
                dgemm_packed(
                    kern,
                    -one,
                    &fresh,
                    0,
                    Trans::No,
                    b.view(),
                    one,
                    &mut want.view_mut(),
                );
                let bits = |c: &Matrix<E>| -> Vec<u64> {
                    c.as_slice().iter().map(|v| v.to_bits_u64()).collect()
                };
                assert_eq!(bits(&got), bits(&want), "{what}");
            }
        }
    }

    #[test]
    fn refill_is_a_fresh_pack_f64() {
        refill_is_a_fresh_pack::<f64>();
    }

    #[test]
    fn refill_is_a_fresh_pack_f32() {
        refill_is_a_fresh_pack::<f32>();
    }

    #[test]
    #[should_panic(expected = "mr-aligned")]
    fn a_block_inside_a_strip_is_refused() {
        let kern = Kernel::scalar();
        let a = Matrix::<f64>::from_fn(40, 4, |i, j| (i + j) as f64);
        PackedA::pack(kern, Trans::No, a.view()).block(kern.mr() + 1, 0, 8, 4);
    }
}
