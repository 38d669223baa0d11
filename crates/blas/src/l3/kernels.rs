//! Register microkernels and run-level kernel selection for GEMM.
//!
//! The GotoBLAS macro loop in [`crate::l3`] funnels every flop through one
//! `MR x NR` register tile; this module supplies that tile in two
//! accumulation semantics, for both pipeline precisions:
//!
//! * **scalar** — the portable 8x4 mul-then-add kernel. It is the
//!   bit-exactness oracle: its results are identical on every platform and
//!   to every earlier release of this crate.
//! * **simd** — explicitly vectorized FMA kernels behind runtime feature
//!   detection, one per instruction-set [`Tier`]; `simd` resolves to the
//!   widest tier the CPU has. FMA contracts `a*b + acc` into one rounding,
//!   so simd results differ from scalar results in the last bits —
//!   *within* a kernel every result is still deterministic and independent
//!   of thread count.
//!
//! | tier      | f64 tile | f32 tile | accumulators | A loads + B broadcasts / depth step |
//! |-----------|----------|----------|--------------|-------------------------------------|
//! | `Scalar`  | 8x4      | 8x4      | stack tile   | —                                   |
//! | `Avx2`    | 8x6      | 16x6     | 12 of 16 YMM | 2 + 6                               |
//! | `Avx512`  | 32x6     | 64x6     | 24 of 32 ZMM | 4 + 6                               |
//!
//! **Every SIMD tier gives the same bits.** A tile shape only decides
//! which elements of `C` are computed side by side; each element is still
//! one fused multiply-add chain over `p = 0..kc` from a zero accumulator,
//! in `p` order, followed by `beta*c + alpha*acc` as separate multiplies
//! and an add. Lanes never mix, so an element's value does not depend on
//! the tile it fell in, the tier, or the thread that computed it — which
//! is what lets all tiers share the name `simd` (one `x_hash` table, one
//! `bench/baseline.json`) and is pinned by `tests/kernels.rs`.
//!
//! **The microkernel owns the `C` update.** On the x86-64 tiers a full
//! `MR x NR` tile of `C` is prefetched before the depth loop and updated
//! from the accumulator registers: `alpha*acc` and `beta*c` are vector
//! multiplies and their sum a vector add — never a fused multiply-add,
//! which would round once where the scalar writeback rounds twice. Edge
//! tiles (and every tile of the scalar kernel) spill the
//! accumulators to a stack tile and go through the shared scalar
//! writeback [`store_tile`], which clips to the `mh x nw` edge.
//!
//! Because the two semantics round differently, the kernel is a **per-run
//! choice**, resolved once per process from the `RHPL_KERNEL` environment
//! variable (`scalar` | `simd`, default `simd`) and then frozen: mixing
//! kernels inside one factorization would break the bitwise
//! schedule-equivalence and replay guarantees the test suite leans on.
//! `simd` falls back to scalar on a CPU without a SIMD tier, keeping
//! `RHPL_KERNEL=simd` portable in CI. An *unparseable* value is a
//! configuration error, not a fallback: the CLI validates `RHPL_KERNEL`
//! pre-flight, and a library-only entry fails fast with the same message
//! rather than silently running a different kernel than the one requested.
//!
//! The per-precision shapes and entry points are reached through
//! [`crate::Element::micro_shape`] / [`crate::Element::micro`]; the
//! selection machinery here stays precision-agnostic (one `RHPL_KERNEL`
//! choice governs both element types in a mixed-precision process).

use crate::mat::MatMut;
use crate::Element;
use std::sync::OnceLock;

/// Accumulation semantics of the active microkernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelKind {
    /// Portable mul-then-add 8x4 tile; bit-identical everywhere.
    Scalar,
    /// Runtime-detected FMA tile (see [`Tier`]; shape per precision).
    Simd,
}

/// The instruction set behind a kernel. Every tier but `Scalar` has
/// [`KernelKind::Simd`] semantics and produces the same bits (module
/// docs), so the tier is a property of the host, not a user choice: it is
/// never parsed from the environment or the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// The portable mul-then-add tile.
    Scalar,
    /// x86-64 AVX2 + FMA, 256-bit registers.
    Avx2,
    /// x86-64 AVX-512F, 512-bit registers.
    Avx512,
}

/// A user-facing kernel request, before hardware resolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum KernelSel {
    /// Force the portable scalar kernel.
    Scalar,
    /// The widest SIMD tier the CPU has (resolves to scalar on CPUs
    /// without one).
    #[default]
    Simd,
}

impl std::str::FromStr for KernelSel {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        match s {
            "scalar" => Ok(KernelSel::Scalar),
            "simd" => Ok(KernelSel::Simd),
            _ => Err(()),
        }
    }
}

/// A resolved microkernel. Only this module constructs one, and a SIMD
/// tier only after detecting its target features on the running CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Kernel {
    tier: Tier,
}

/// ZMM vectors per tile column, and tile columns, of the AVX-512 tiles:
/// `32x6` f64 and `64x6` f32 — 24 accumulators, 4 A vectors and the
/// broadcast in 29 of 32 registers. It is the AVX2 tile with twice the
/// lanes and twice the vectors per column, so a depth step issues 24 FMAs
/// for 4 loads and 6 broadcasts. DESIGN.md §10 has the shapes that lost.
const AVX512_TILE: (usize, usize) = (4, 6);

/// `(mr, nr)` of the f64 tile on each tier.
pub(crate) fn shape_f64(tier: Tier) -> (usize, usize) {
    match tier {
        Tier::Scalar => (8, 4),
        Tier::Avx2 => (8, 6),
        Tier::Avx512 => (8 * AVX512_TILE.0, AVX512_TILE.1),
    }
}

/// `(mr, nr)` of the f32 tile on each tier.
pub(crate) fn shape_f32(tier: Tier) -> (usize, usize) {
    match tier {
        Tier::Scalar => (8, 4),
        Tier::Avx2 => (16, 6),
        Tier::Avx512 => (16 * AVX512_TILE.0, AVX512_TILE.1),
    }
}

/// The SIMD tiers this CPU supports, narrowest first.
fn detected() -> [Option<Tier>; 2] {
    #[cfg(target_arch = "x86_64")]
    {
        let avx2 = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
        // The level-1 FACT kernels of a Simd kernel are AVX2 code on every
        // x86-64 tier, so the wide tier requires the narrow one too.
        let avx512 = avx2 && is_x86_feature_detected!("avx512f");
        [avx2.then_some(Tier::Avx2), avx512.then_some(Tier::Avx512)]
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        [None, None]
    }
}

impl Kernel {
    /// The portable scalar kernel (always available).
    pub fn scalar() -> Kernel {
        Kernel { tier: Tier::Scalar }
    }

    /// The widest vectorized kernel this CPU has, if any — what `simd`
    /// means on this host.
    pub fn simd() -> Option<Kernel> {
        let tier = detected().into_iter().flatten().last()?;
        Some(Kernel { tier })
    }

    /// Every kernel this CPU can run: scalar first, then the SIMD tiers
    /// narrowest to widest. Tests and benches iterate this so a narrower
    /// tier stays exercised on a host where `simd` resolves past it.
    pub fn available() -> Vec<Kernel> {
        let simd = detected().into_iter().flatten();
        [Tier::Scalar]
            .into_iter()
            .chain(simd)
            .map(|tier| Kernel { tier })
            .collect()
    }

    /// Resolves a request against the hardware.
    pub fn resolve(sel: KernelSel) -> Kernel {
        match sel {
            KernelSel::Scalar => Kernel::scalar(),
            KernelSel::Simd => Kernel::simd().unwrap_or_else(Kernel::scalar),
        }
    }

    /// Accumulation semantics.
    pub fn kind(&self) -> KernelKind {
        match self.tier {
            Tier::Scalar => KernelKind::Scalar,
            Tier::Avx2 | Tier::Avx512 => KernelKind::Simd,
        }
    }

    /// The instruction-set tier this kernel runs on.
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// f64 register-tile rows; packed-A strips are this tall (zero-padded).
    pub fn mr(&self) -> usize {
        self.mr_for::<f64>()
    }

    /// f64 register-tile columns; packed-B strips are this wide
    /// (zero-padded).
    pub fn nr(&self) -> usize {
        self.nr_for::<f64>()
    }

    /// Register-tile rows for precision `E`.
    pub fn mr_for<E: Element>(&self) -> usize {
        E::micro_shape(self.tier).0
    }

    /// Register-tile columns for precision `E`.
    pub fn nr_for<E: Element>(&self) -> usize {
        E::micro_shape(self.tier).1
    }

    /// Short name for logs, JSON and the CLI: the accumulation semantics,
    /// which is all a result's bits depend on.
    pub fn name(&self) -> &'static str {
        match self.kind() {
            KernelKind::Scalar => "scalar",
            KernelKind::Simd => "simd",
        }
    }

    /// The instruction set the tier was detected as.
    pub fn isa(&self) -> &'static str {
        match self.tier {
            Tier::Scalar => "portable",
            Tier::Avx2 => "avx2+fma",
            Tier::Avx512 => "avx512f",
        }
    }

    /// Human description including the tile shapes and the ISA resolved
    /// on this host.
    pub fn describe(&self) -> String {
        let (mr, nr) = shape_f64(self.tier);
        match self.kind() {
            KernelKind::Scalar => format!("scalar {mr}x{nr} (portable mul+add)"),
            KernelKind::Simd => {
                let (mr32, nr32) = shape_f32(self.tier);
                format!("simd {mr}x{nr} f64 / {mr32}x{nr32} f32 ({})", self.isa())
            }
        }
    }

    /// Runs the register tile and updates `C` with it: `c = beta*c +
    /// alpha * sum_p a[p*mr + i] * b[p*nr + j]` over `kc` depth steps for
    /// the `c.rows() x c.cols()` top-left part of the tile (a full tile,
    /// or an edge clipped by the matrix).
    #[inline]
    pub(crate) fn micro<E: Element>(
        &self,
        kc: usize,
        astrip: &[E],
        bstrip: &[E],
        alpha: E,
        beta: E,
        c: &mut MatMut<'_, E>,
    ) {
        let (mr, nr) = E::micro_shape(self.tier);
        debug_assert!(astrip.len() >= kc * mr);
        debug_assert!(bstrip.len() >= kc * nr);
        debug_assert!(c.rows() <= mr && c.cols() <= nr);
        E::micro(self.tier, kc, astrip, bstrip, alpha, beta, c)
    }
}

/// f64 microkernel entry for the [`Element`] dispatch. A SIMD tier only
/// arrives here inside a [`Kernel`], whose constructors detected it.
#[inline]
pub(crate) fn micro_f64(
    tier: Tier,
    kc: usize,
    astrip: &[f64],
    bstrip: &[f64],
    alpha: f64,
    beta: f64,
    c: &mut MatMut<'_, f64>,
) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => {
            const MV: usize = AVX512_TILE.0;
            const NR: usize = AVX512_TILE.1;
            // SAFETY: an Avx512 tier exists only after `detected()` saw
            // avx512f on this CPU, which is the kernel's
            // `#[target_feature]` contract.
            unsafe { x86::micro_avx512_f64::<MV, NR>(kc, astrip, bstrip, alpha, beta, c) }
        }
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => {
            // SAFETY: an Avx2 tier exists only after `detected()` saw avx2
            // and fma on this CPU, which is the kernel's
            // `#[target_feature]` contract.
            unsafe { x86::micro_8x6_avx2fma(kc, astrip, bstrip, alpha, beta, c) }
        }
        // Scalar, and the tiers of other architectures (never constructed
        // here): scalar semantics rather than aborting.
        _ => micro_portable(kc, astrip, bstrip, alpha, beta, c),
    }
}

/// f32 microkernel entry for the [`Element`] dispatch.
#[inline]
pub(crate) fn micro_f32(
    tier: Tier,
    kc: usize,
    astrip: &[f32],
    bstrip: &[f32],
    alpha: f32,
    beta: f32,
    c: &mut MatMut<'_, f32>,
) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => {
            const MV: usize = AVX512_TILE.0;
            const NR: usize = AVX512_TILE.1;
            // SAFETY: as in `micro_f64` — an Avx512 tier only exists after
            // runtime detection of avx512f.
            unsafe { x86::micro_avx512_f32::<MV, NR>(kc, astrip, bstrip, alpha, beta, c) }
        }
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => {
            // SAFETY: as in `micro_f64` — an Avx2 tier only exists after
            // runtime detection of avx2+fma.
            unsafe { x86::micro_16x6_avx2fma_f32(kc, astrip, bstrip, alpha, beta, c) }
        }
        _ => micro_portable(kc, astrip, bstrip, alpha, beta, c),
    }
}

/// The portable 8x4 tile: accumulates into a column-major stack tile,
/// then writes the tile back.
#[inline(always)]
fn micro_portable<E: Element>(
    kc: usize,
    astrip: &[E],
    bstrip: &[E],
    alpha: E,
    beta: E,
    c: &mut MatMut<'_, E>,
) {
    let mut acc = [E::ZERO; 32];
    micro_scalar::<E, 8, 4>(kc, astrip, bstrip, &mut acc);
    store_tile(&acc, 8, alpha, beta, c);
}

/// The scalar writeback `c = beta*c + alpha*acc` of the `c.rows() x
/// c.cols()` top-left part of a column-major accumulator tile whose
/// columns are `mr` apart. Each `C` element depends only on its own
/// accumulator lane, so edge padding never leaks into stored values. The
/// three `beta` cases are the historical ones: `beta == 0` never reads
/// `C`, `beta == 1` skips the multiply.
#[inline]
fn store_tile<E: Element>(acc: &[E], mr: usize, alpha: E, beta: E, c: &mut MatMut<'_, E>) {
    let mh = c.rows();
    for j in 0..c.cols() {
        let lane = &acc[j * mr..j * mr + mh];
        let col = c.col_mut(j);
        if beta == E::ZERO {
            for (ci, &acci) in col.iter_mut().zip(lane) {
                *ci = alpha * acci;
            }
        } else if beta == E::ONE {
            for (ci, &acci) in col.iter_mut().zip(lane) {
                *ci += alpha * acci;
            }
        } else {
            for (ci, &acci) in col.iter_mut().zip(lane) {
                *ci = beta * *ci + alpha * acci;
            }
        }
    }
}

/// The portable `MR x NR` register tile, kept bit-identical to the original
/// serial implementation: plain mul-then-add in (p, j, i) order.
#[inline(always)]
fn micro_scalar<E: Element, const MR: usize, const NR: usize>(
    kc: usize,
    astrip: &[E],
    bstrip: &[E],
    acc: &mut [E],
) {
    for p in 0..kc {
        let av: &[E; MR] = astrip[p * MR..p * MR + MR]
            .try_into()
            .expect("slice is exactly MR long by construction");
        let bv: &[E; NR] = bstrip[p * NR..p * NR + NR]
            .try_into()
            .expect("slice is exactly NR long by construction");
        for j in 0..NR {
            let bj = bv[j];
            for i in 0..MR {
                acc[j * MR + i] += av[i] * bj;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::store_tile;
    use crate::mat::MatMut;
    use crate::Element;
    use core::arch::x86_64::{
        _mm256_add_pd, _mm256_add_ps, _mm256_fmadd_pd, _mm256_fmadd_ps, _mm256_loadu_pd,
        _mm256_loadu_ps, _mm256_mul_pd, _mm256_mul_ps, _mm256_set1_pd, _mm256_set1_ps,
        _mm256_setzero_pd, _mm256_setzero_ps, _mm256_storeu_pd, _mm256_storeu_ps, _mm512_add_pd,
        _mm512_add_ps, _mm512_fmadd_pd, _mm512_fmadd_ps, _mm512_loadu_pd, _mm512_loadu_ps,
        _mm512_mul_pd, _mm512_mul_ps, _mm512_set1_pd, _mm512_set1_ps, _mm512_setzero_pd,
        _mm512_setzero_ps, _mm512_storeu_pd, _mm512_storeu_ps, _mm_prefetch, _MM_HINT_T0,
    };

    /// Requests every cache line of a full `C` tile before the depth loop,
    /// so the in-register writeback finds them in L1.
    #[inline(always)]
    fn prefetch_tile<E: Element>(c: &MatMut<'_, E>) {
        let line = 64 / core::mem::size_of::<E>();
        for j in 0..c.cols() {
            let col = c.col(j);
            // Columns are not line-aligned: the last element may sit one
            // line past the strided ones.
            for l in (0..col.len()).step_by(line).chain([col.len() - 1]) {
                // SAFETY: sse (x86-64 baseline) — a prefetch is a hint that
                // cannot fault, and the address is inside column j.
                unsafe { _mm_prefetch::<_MM_HINT_T0>(col[l..].as_ptr().cast()) };
            }
        }
    }

    /// AVX-512F f64 register tile of `8*MV x NR`: `MV * NR` 8-lane
    /// accumulators (rows split into `MV` ZMM vectors per column) fed by
    /// `MV` A loads and `NR` broadcast B values per depth step. A full
    /// tile of `c` is updated from the registers; an edge goes through
    /// [`store_tile`].
    ///
    /// # Safety
    /// The caller must have verified at runtime that the CPU supports the
    /// `avx512f` target feature.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn micro_avx512_f64<const MV: usize, const NR: usize>(
        kc: usize,
        astrip: &[f64],
        bstrip: &[f64],
        alpha: f64,
        beta: f64,
        c: &mut MatMut<'_, f64>,
    ) {
        const L: usize = 8;
        let mr = L * MV;
        let full = c.rows() == mr && c.cols() == NR;
        if full {
            prefetch_tile(c);
        }
        let mut acc = [[_mm512_setzero_pd(); MV]; NR];
        let steps = astrip[..kc * mr]
            .chunks_exact(mr)
            .zip(bstrip[..kc * NR].chunks_exact(NR));
        for (arow, brow) in steps {
            let mut a = [_mm512_setzero_pd(); MV];
            for (v, av) in a.iter_mut().enumerate() {
                // SAFETY: avx512f — lanes `8v..8v+8` of the `mr`-tall step.
                *av = unsafe { _mm512_loadu_pd(arow[L * v..L * v + L].as_ptr()) };
            }
            for j in 0..NR {
                let bj = _mm512_set1_pd(brow[j]);
                for v in 0..MV {
                    acc[j][v] = _mm512_fmadd_pd(a[v], bj, acc[j][v]);
                }
            }
        }
        if !full {
            let mut tile = [[[0.0f64; L]; MV]; NR];
            for j in 0..NR {
                for v in 0..MV {
                    // SAFETY: avx512f — `tile[j][v]` is 8 writable f64.
                    unsafe { _mm512_storeu_pd(tile[j][v].as_mut_ptr(), acc[j][v]) };
                }
            }
            store_tile(tile.as_flattened().as_flattened(), mr, alpha, beta, c);
            return;
        }
        let (av, bv) = (_mm512_set1_pd(alpha), _mm512_set1_pd(beta));
        for j in 0..NR {
            let col = c.col_mut(j);
            for v in 0..MV {
                let lanes = &mut col[L * v..L * v + L];
                // Multiplies and an add, never a fused multiply-add: the
                // writeback rounds exactly like `store_tile`.
                let s = _mm512_mul_pd(av, acc[j][v]);
                let out = if beta == 0.0 {
                    s
                } else {
                    // SAFETY: avx512f — `lanes` is 8 readable f64.
                    let old = unsafe { _mm512_loadu_pd(lanes.as_ptr()) };
                    let scaled = if beta == 1.0 {
                        old
                    } else {
                        _mm512_mul_pd(bv, old)
                    };
                    _mm512_add_pd(scaled, s)
                };
                // SAFETY: avx512f — `lanes` is 8 writable f64.
                unsafe { _mm512_storeu_pd(lanes.as_mut_ptr(), out) };
            }
        }
    }

    /// AVX-512F f32 register tile of `16*MV x NR` — [`micro_avx512_f64`]
    /// at 16 lanes per ZMM.
    ///
    /// # Safety
    /// The caller must have verified at runtime that the CPU supports the
    /// `avx512f` target feature.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn micro_avx512_f32<const MV: usize, const NR: usize>(
        kc: usize,
        astrip: &[f32],
        bstrip: &[f32],
        alpha: f32,
        beta: f32,
        c: &mut MatMut<'_, f32>,
    ) {
        const L: usize = 16;
        let mr = L * MV;
        let full = c.rows() == mr && c.cols() == NR;
        if full {
            prefetch_tile(c);
        }
        let mut acc = [[_mm512_setzero_ps(); MV]; NR];
        let steps = astrip[..kc * mr]
            .chunks_exact(mr)
            .zip(bstrip[..kc * NR].chunks_exact(NR));
        for (arow, brow) in steps {
            let mut a = [_mm512_setzero_ps(); MV];
            for (v, av) in a.iter_mut().enumerate() {
                // SAFETY: avx512f — lanes `16v..16v+16` of the `mr`-tall
                // step.
                *av = unsafe { _mm512_loadu_ps(arow[L * v..L * v + L].as_ptr()) };
            }
            for j in 0..NR {
                let bj = _mm512_set1_ps(brow[j]);
                for v in 0..MV {
                    acc[j][v] = _mm512_fmadd_ps(a[v], bj, acc[j][v]);
                }
            }
        }
        if !full {
            let mut tile = [[[0.0f32; L]; MV]; NR];
            for j in 0..NR {
                for v in 0..MV {
                    // SAFETY: avx512f — `tile[j][v]` is 16 writable f32.
                    unsafe { _mm512_storeu_ps(tile[j][v].as_mut_ptr(), acc[j][v]) };
                }
            }
            store_tile(tile.as_flattened().as_flattened(), mr, alpha, beta, c);
            return;
        }
        let (av, bv) = (_mm512_set1_ps(alpha), _mm512_set1_ps(beta));
        for j in 0..NR {
            let col = c.col_mut(j);
            for v in 0..MV {
                let lanes = &mut col[L * v..L * v + L];
                // Multiplies and an add, never a fused multiply-add.
                let s = _mm512_mul_ps(av, acc[j][v]);
                let out = if beta == 0.0 {
                    s
                } else {
                    // SAFETY: avx512f — `lanes` is 16 readable f32.
                    let old = unsafe { _mm512_loadu_ps(lanes.as_ptr()) };
                    let scaled = if beta == 1.0 {
                        old
                    } else {
                        _mm512_mul_ps(bv, old)
                    };
                    _mm512_add_ps(scaled, s)
                };
                // SAFETY: avx512f — `lanes` is 16 writable f32.
                unsafe { _mm512_storeu_ps(lanes.as_mut_ptr(), out) };
            }
        }
    }

    /// AVX2+FMA `8x6` f64 register tile: twelve 4-lane accumulators (rows
    /// split into two YMM halves, one pair per column) fed by broadcast B
    /// values, leaving three YMM registers for the A loads and the
    /// broadcast. A full tile of `c` is updated from the registers; an
    /// edge goes through [`store_tile`].
    ///
    /// # Safety
    /// The caller must have verified at runtime that the CPU supports the
    /// `avx2` and `fma` target features.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn micro_8x6_avx2fma(
        kc: usize,
        astrip: &[f64],
        bstrip: &[f64],
        alpha: f64,
        beta: f64,
        c: &mut MatMut<'_, f64>,
    ) {
        const L: usize = 4;
        const MV: usize = 2;
        const MR: usize = L * MV;
        const NR: usize = 6;
        let full = c.rows() == MR && c.cols() == NR;
        if full {
            prefetch_tile(c);
        }
        let mut acc = [[_mm256_setzero_pd(); MV]; NR];
        let steps = astrip[..kc * MR]
            .chunks_exact(MR)
            .zip(bstrip[..kc * NR].chunks_exact(NR));
        for (arow, brow) in steps {
            // SAFETY: avx2+fma — `arow` has 8 readable f64 lanes.
            let a0 = unsafe { _mm256_loadu_pd(arow.as_ptr()) };
            // SAFETY: avx2+fma — lanes 4..8 of the same MR-tall step.
            let a1 = unsafe { _mm256_loadu_pd(arow[L..].as_ptr()) };
            for j in 0..NR {
                let bj = _mm256_set1_pd(brow[j]);
                acc[j][0] = _mm256_fmadd_pd(a0, bj, acc[j][0]);
                acc[j][1] = _mm256_fmadd_pd(a1, bj, acc[j][1]);
            }
        }
        if !full {
            let mut tile = [[[0.0f64; L]; MV]; NR];
            for j in 0..NR {
                for v in 0..MV {
                    // SAFETY: avx2+fma — `tile[j][v]` is 4 writable f64.
                    unsafe { _mm256_storeu_pd(tile[j][v].as_mut_ptr(), acc[j][v]) };
                }
            }
            store_tile(tile.as_flattened().as_flattened(), MR, alpha, beta, c);
            return;
        }
        let (av, bv) = (_mm256_set1_pd(alpha), _mm256_set1_pd(beta));
        for j in 0..NR {
            let col = c.col_mut(j);
            for v in 0..MV {
                let lanes = &mut col[L * v..L * v + L];
                // Multiplies and an add, never a fused multiply-add.
                let s = _mm256_mul_pd(av, acc[j][v]);
                let out = if beta == 0.0 {
                    s
                } else {
                    // SAFETY: avx2+fma — `lanes` is 4 readable f64.
                    let old = unsafe { _mm256_loadu_pd(lanes.as_ptr()) };
                    let scaled = if beta == 1.0 {
                        old
                    } else {
                        _mm256_mul_pd(bv, old)
                    };
                    _mm256_add_pd(scaled, s)
                };
                // SAFETY: avx2+fma — `lanes` is 4 writable f64.
                unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), out) };
            }
        }
    }

    /// AVX2+FMA `16x6` f32 register tile: twelve 8-lane accumulators (rows
    /// split into two YMM halves, one pair per column) — the same
    /// two-loads, six-broadcasts, twelve-FMAs port schedule per depth step
    /// as the f64 `8x6` tile, with every register twice as wide. An `8x12`
    /// shape issues the same twelve FMAs but needs twelve B broadcasts per
    /// step, saturating the load ports and halving throughput in practice.
    ///
    /// # Safety
    /// The caller must have verified at runtime that the CPU supports the
    /// `avx2` and `fma` target features.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn micro_16x6_avx2fma_f32(
        kc: usize,
        astrip: &[f32],
        bstrip: &[f32],
        alpha: f32,
        beta: f32,
        c: &mut MatMut<'_, f32>,
    ) {
        const L: usize = 8;
        const MV: usize = 2;
        const MR: usize = L * MV;
        const NR: usize = 6;
        let full = c.rows() == MR && c.cols() == NR;
        if full {
            prefetch_tile(c);
        }
        let mut acc = [[_mm256_setzero_ps(); MV]; NR];
        let steps = astrip[..kc * MR]
            .chunks_exact(MR)
            .zip(bstrip[..kc * NR].chunks_exact(NR));
        for (arow, brow) in steps {
            // SAFETY: avx2+fma — `arow` has 16 readable f32 lanes.
            let a0 = unsafe { _mm256_loadu_ps(arow.as_ptr()) };
            // SAFETY: avx2+fma — lanes 8..16 of the same MR-tall step.
            let a1 = unsafe { _mm256_loadu_ps(arow[L..].as_ptr()) };
            for j in 0..NR {
                let bj = _mm256_set1_ps(brow[j]);
                acc[j][0] = _mm256_fmadd_ps(a0, bj, acc[j][0]);
                acc[j][1] = _mm256_fmadd_ps(a1, bj, acc[j][1]);
            }
        }
        if !full {
            let mut tile = [[[0.0f32; L]; MV]; NR];
            for j in 0..NR {
                for v in 0..MV {
                    // SAFETY: avx2+fma — `tile[j][v]` is 8 writable f32.
                    unsafe { _mm256_storeu_ps(tile[j][v].as_mut_ptr(), acc[j][v]) };
                }
            }
            store_tile(tile.as_flattened().as_flattened(), MR, alpha, beta, c);
            return;
        }
        let (av, bv) = (_mm256_set1_ps(alpha), _mm256_set1_ps(beta));
        for j in 0..NR {
            let col = c.col_mut(j);
            for v in 0..MV {
                let lanes = &mut col[L * v..L * v + L];
                // Multiplies and an add, never a fused multiply-add.
                let s = _mm256_mul_ps(av, acc[j][v]);
                let out = if beta == 0.0 {
                    s
                } else {
                    // SAFETY: avx2+fma — `lanes` is 8 readable f32.
                    let old = unsafe { _mm256_loadu_ps(lanes.as_ptr()) };
                    let scaled = if beta == 1.0 {
                        old
                    } else {
                        _mm256_mul_ps(bv, old)
                    };
                    _mm256_add_ps(scaled, s)
                };
                // SAFETY: avx2+fma — `lanes` is 8 writable f32.
                unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), out) };
            }
        }
    }
}

static ACTIVE: OnceLock<Kernel> = OnceLock::new();

/// The process-wide kernel, resolved on first use from `RHPL_KERNEL`
/// (`scalar` | `simd`; unset means `simd`). An unrecognized value is a
/// configuration error: the process fails fast with the offending value
/// rather than silently benchmarking a kernel nobody asked for (the CLI
/// validates `RHPL_KERNEL` pre-flight and turns the same message into a
/// clean exit).
pub fn active() -> Kernel {
    *ACTIVE.get_or_init(|| Kernel::resolve(sel_from_env()))
}

/// Freezes the process-wide kernel to `kern` — one of
/// [`Kernel::available`] — unless one is frozen already; returns the
/// kernel in effect. This is how a test process runs the whole pipeline
/// on a tier narrower than the one `simd` resolves to on its host; it is
/// not reachable from the environment or the command line.
pub fn freeze(kern: Kernel) -> Kernel {
    *ACTIVE.get_or_init(|| kern)
}

fn sel_from_env() -> KernelSel {
    match std::env::var("RHPL_KERNEL") {
        Ok(v) => match v.parse() {
            Ok(sel) => sel,
            // xtask-allow: no-panic — config fail-fast (the CLI validates pre-flight; a library entry must not silently fall back to a different kernel)
            Err(()) => panic!("invalid RHPL_KERNEL={v:?}: expected one of scalar, simd"),
        },
        Err(_) => KernelSel::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::Matrix;

    #[test]
    fn sel_parses_known_names_only() {
        assert_eq!("scalar".parse(), Ok(KernelSel::Scalar));
        assert_eq!("simd".parse(), Ok(KernelSel::Simd));
        assert_eq!("auto".parse::<KernelSel>(), Err(()));
        assert_eq!("AVX".parse::<KernelSel>(), Err(()));
        assert_eq!("avx512".parse::<KernelSel>(), Err(()));
        assert_eq!("".parse::<KernelSel>(), Err(()));
    }

    #[test]
    fn scalar_resolution_never_depends_on_hardware() {
        let k = Kernel::resolve(KernelSel::Scalar);
        assert_eq!(k.kind(), KernelKind::Scalar);
        assert_eq!((k.mr(), k.nr()), (8, 4));
        assert_eq!((k.mr_for::<f32>(), k.nr_for::<f32>()), (8, 4));
        assert_eq!(k.name(), "scalar");
    }

    #[test]
    fn simd_resolves_to_the_widest_available_tier() {
        // On hardware without a simd kernel the request resolves to scalar.
        let k = Kernel::resolve(KernelSel::Simd);
        let all = Kernel::available();
        assert_eq!(all[0], Kernel::scalar());
        assert_eq!(k, *all.last().expect("scalar is always available"));
        assert_eq!(Kernel::simd(), all[1..].last().copied());
        for kern in &all[1..] {
            // Every tier answers to the one name results are keyed by, and
            // says which ISA it is only in the description.
            assert_eq!(kern.name(), "simd");
            assert!(kern.describe().contains(kern.isa()), "{}", kern.describe());
        }
    }

    /// Integer data, so no product or sum rounds and every kernel must hit
    /// the exact dot products — through the full-tile path, and through
    /// the edge path one row and one column short of the tile.
    fn micro_tiles_agree_with_reference_sum<E: Element>() {
        for kern in Kernel::available() {
            let (mr, nr, kc) = (kern.mr_for::<E>(), kern.nr_for::<E>(), 7usize);
            let val = |x: usize, m: usize| E::from_f64((x % m) as f64 - (m / 2) as f64);
            let a: Vec<E> = (0..kc * mr).map(|x| val(x, 11)).collect();
            let b: Vec<E> = (0..kc * nr).map(|x| val(x, 7)).collect();
            for (mh, nw) in [(mr, nr), (mr - 1, nr - 1)] {
                let mut c = Matrix::<E>::from_fn(mh, nw, |i, j| val(i + 3 * j, 5));
                let c0 = c.clone();
                let two = E::ONE + E::ONE;
                kern.micro(kc, &a, &b, -E::ONE, two, &mut c.view_mut());
                for j in 0..nw {
                    for i in 0..mh {
                        let mut dot = E::ZERO;
                        for p in 0..kc {
                            dot += a[p * mr + i] * b[p * nr + j];
                        }
                        assert_eq!(
                            c.get(i, j),
                            two * c0.get(i, j) - dot,
                            "{} {mh}x{nw} ({i},{j})",
                            kern.describe()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn f64_micro_tiles_agree_with_reference_sum() {
        micro_tiles_agree_with_reference_sum::<f64>();
    }

    #[test]
    fn f32_micro_tiles_agree_with_reference_sum() {
        micro_tiles_agree_with_reference_sum::<f32>();
    }
}
