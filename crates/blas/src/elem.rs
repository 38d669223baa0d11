//! The precision seam: an [`Element`] trait abstracting the scalar type of
//! the whole LU pipeline (f64 for classic HPL, f32 for the HPL-MxP
//! factorization), so panel/update/swap/collectives are written once and
//! monomorphized per precision.
//!
//! The trait bundles four concerns that would otherwise fork the code path:
//!
//! * **scalar ops** — arithmetic, `abs`, comparisons, and exact bit access
//!   (`to_bits_u64`) for the checksummed broadcast and bitwise tests;
//! * **SIMD dispatch** — per-precision microkernel shapes (`micro_shape`)
//!   and entry points for the DGEMM macro loop and the FACT level-1
//!   kernels, so `RHPL_KERNEL` governs both precisions through one
//!   [`crate::kernels::active`] selection;
//! * **wire codec** — a fixed little-endian encoding (`WIRE_BYTES`,
//!   `wire_write`/`wire_read`) that `hpl-comm` uses to type frame payloads
//!   without a per-precision codec fork;
//! * **tolerance model** — the unit roundoff ([`Element::UNIT_ROUNDOFF`])
//!   that scales the classic residual gate, so an f32 factorization is
//!   judged against f32 accuracy while mixed-precision refinement is
//!   judged against f64.
//!
//! Pack arenas are thread-local and `thread_local!` cannot be generic, so
//! the arena hooks delegate to one concrete arena per precision in
//! [`crate::arena`].

use crate::kernels::{KernelKind, Tier};
use crate::mat::MatMut;
use crate::{arena, kernels, l1simd};

/// A user-facing element-precision request (`rhpl --element`),
/// before the run is monomorphized: the enum form that config parsing and
/// the CLI carry around where a type parameter cannot flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ElementSel {
    /// Classic HPL: factor and solve in double precision.
    #[default]
    F64,
    /// HPL-MxP style: factor in single precision.
    F32,
}

impl ElementSel {
    /// Display name (`"f64"` / `"f32"`), matching [`Element::NAME`].
    pub fn name(self) -> &'static str {
        match self {
            ElementSel::F64 => f64::NAME,
            ElementSel::F32 => f32::NAME,
        }
    }
}

impl std::str::FromStr for ElementSel {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        match s {
            "f64" => Ok(ElementSel::F64),
            "f32" => Ok(ElementSel::F32),
            _ => Err(()),
        }
    }
}

/// Scalar element type of the LU pipeline: `f64` or `f32`.
///
/// See the module docs for what each group of items is for. The trait is
/// sealed in practice (the SIMD kernels and pack arenas exist only for the
/// two floating-point widths), but not formally, to keep the bound list
/// readable at use sites.
pub trait Element:
    Copy
    + Default
    + PartialEq
    + PartialOrd
    + Send
    + Sync
    + core::fmt::Debug
    + core::fmt::Display
    + core::ops::Add<Output = Self>
    + core::ops::Sub<Output = Self>
    + core::ops::Mul<Output = Self>
    + core::ops::Div<Output = Self>
    + core::ops::Neg<Output = Self>
    + core::ops::AddAssign
    + core::ops::SubAssign
    + core::ops::MulAssign
    + core::ops::DivAssign
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// The argmax sentinel: no data element has `|v| == -inf`.
    const NEG_INFINITY: Self;
    /// Machine epsilon of this precision, widened to `f64` — the unit
    /// roundoff that scales the residual gate for a pure run in this
    /// precision.
    const UNIT_ROUNDOFF: f64;
    /// Display name (`"f64"` / `"f32"`), reported in `BENCH_hpl.json`.
    const NAME: &'static str;
    /// Stable small integer per precision (f64 = 0, f32 = 1); used to
    /// derive distinct wire ids for generic payloads like the pivot
    /// allreduce message.
    const ELEM_CODE: u32;
    /// Bytes per element in the wire encoding.
    const WIRE_BYTES: usize;

    /// Rounds an `f64` into this precision (demotion for f32).
    fn from_f64(v: f64) -> Self;
    /// Widens into `f64` (exact for both precisions).
    fn to_f64(self) -> f64;
    /// `|self|`.
    fn abs(self) -> Self;
    /// IEEE max (NaN-propagating like the std float `max`).
    fn max(self, other: Self) -> Self;
    /// IEEE min.
    fn min(self, other: Self) -> Self;
    /// `true` when neither infinite nor NaN.
    fn is_finite(self) -> bool;
    /// Raw bits, zero-extended to 64 — the checksum/bitwise-test currency.
    fn to_bits_u64(self) -> u64;
    /// Inverse of [`Element::to_bits_u64`] (truncating for f32).
    fn from_bits_u64(bits: u64) -> Self;

    /// Appends the little-endian bit pattern (`WIRE_BYTES` bytes).
    fn wire_write(self, out: &mut Vec<u8>);
    /// Reads one element from the front of `bytes`; `None` if short.
    fn wire_read(bytes: &[u8]) -> Option<Self>;

    /// `(mr, nr)` microkernel tile shape for this precision and tier.
    fn micro_shape(tier: Tier) -> (usize, usize);
    /// One microkernel call: `c = beta*c + alpha * A-strip * B-strip` over
    /// `kc` rank-1 terms. `astrip`/`bstrip` are the packed strips, `c` is
    /// the tile of `C` the strips meet in — `mr x nr`, or smaller at the
    /// matrix edge.
    fn micro(
        tier: Tier,
        kc: usize,
        astrip: &[Self],
        bstrip: &[Self],
        alpha: Self,
        beta: Self,
        c: &mut MatMut<'_, Self>,
    );

    /// FACT pivot search (see [`crate::l1simd::argmax_abs`]).
    fn l1_argmax_abs(kind: KernelKind, x: &[Self]) -> (usize, Self);
    /// FACT column scaling by division.
    fn l1_scal_inv(kind: KernelKind, pivot: Self, x: &mut [Self]);
    /// FACT rank-1 row kernel `y -= alpha * x`.
    fn l1_axpy_sub(kind: KernelKind, alpha: Self, x: &[Self], y: &mut [Self]);
    /// FACT lazy-update accumulator `y += alpha * x`.
    fn l1_axpy_add(kind: KernelKind, alpha: Self, x: &[Self], y: &mut [Self]);
    /// FACT lazy-update apply `y -= x`.
    fn l1_sub(kind: KernelKind, y: &mut [Self], x: &[Self]);

    /// This thread's pack-buffer arena for this precision
    /// (see [`crate::arena`]).
    fn with_pack_bufs<R>(
        alen: usize,
        blen: usize,
        f: impl FnOnce(&mut [Self], &mut [Self]) -> R,
    ) -> R;
    /// One zeroed thread-local scratch slice for this precision.
    fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [Self]) -> R) -> R;
    /// Two independent zeroed scratch slices for this precision.
    fn with_scratch2<R>(
        len0: usize,
        len1: usize,
        f: impl FnOnce(&mut [Self], &mut [Self]) -> R,
    ) -> R;
}

impl Element for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const NEG_INFINITY: Self = f64::NEG_INFINITY;
    const UNIT_ROUNDOFF: f64 = f64::EPSILON;
    const NAME: &'static str = "f64";
    const ELEM_CODE: u32 = 0;
    const WIRE_BYTES: usize = 8;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }
    #[inline(always)]
    fn min(self, other: Self) -> Self {
        f64::min(self, other)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    #[inline(always)]
    fn to_bits_u64(self) -> u64 {
        self.to_bits()
    }
    #[inline(always)]
    fn from_bits_u64(bits: u64) -> Self {
        f64::from_bits(bits)
    }

    #[inline]
    fn wire_write(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    #[inline]
    fn wire_read(bytes: &[u8]) -> Option<Self> {
        let raw: [u8; 8] = bytes.get(..8)?.try_into().ok()?;
        Some(f64::from_bits(u64::from_le_bytes(raw)))
    }

    #[inline]
    fn micro_shape(tier: Tier) -> (usize, usize) {
        kernels::shape_f64(tier)
    }
    #[inline]
    fn micro(
        tier: Tier,
        kc: usize,
        astrip: &[Self],
        bstrip: &[Self],
        alpha: Self,
        beta: Self,
        c: &mut MatMut<'_, Self>,
    ) {
        kernels::micro_f64(tier, kc, astrip, bstrip, alpha, beta, c)
    }

    #[inline]
    fn l1_argmax_abs(kind: KernelKind, x: &[Self]) -> (usize, Self) {
        l1simd::argmax_abs_f64(kind, x)
    }
    #[inline]
    fn l1_scal_inv(kind: KernelKind, pivot: Self, x: &mut [Self]) {
        l1simd::scal_inv_f64(kind, pivot, x)
    }
    #[inline]
    fn l1_axpy_sub(kind: KernelKind, alpha: Self, x: &[Self], y: &mut [Self]) {
        l1simd::axpy_sub_f64(kind, alpha, x, y)
    }
    #[inline]
    fn l1_axpy_add(kind: KernelKind, alpha: Self, x: &[Self], y: &mut [Self]) {
        l1simd::axpy_add_f64(kind, alpha, x, y)
    }
    #[inline]
    fn l1_sub(kind: KernelKind, y: &mut [Self], x: &[Self]) {
        l1simd::sub_f64(kind, y, x)
    }

    #[inline]
    fn with_pack_bufs<R>(
        alen: usize,
        blen: usize,
        f: impl FnOnce(&mut [Self], &mut [Self]) -> R,
    ) -> R {
        arena::for_f64::with_pack_bufs(alen, blen, f)
    }
    #[inline]
    fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [Self]) -> R) -> R {
        arena::for_f64::with_scratch(len, f)
    }
    #[inline]
    fn with_scratch2<R>(
        len0: usize,
        len1: usize,
        f: impl FnOnce(&mut [Self], &mut [Self]) -> R,
    ) -> R {
        arena::for_f64::with_scratch2(len0, len1, f)
    }
}

impl Element for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const NEG_INFINITY: Self = f32::NEG_INFINITY;
    const UNIT_ROUNDOFF: f64 = f32::EPSILON as f64;
    const NAME: &'static str = "f32";
    const ELEM_CODE: u32 = 1;
    const WIRE_BYTES: usize = 4;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f32::max(self, other)
    }
    #[inline(always)]
    fn min(self, other: Self) -> Self {
        f32::min(self, other)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
    #[inline(always)]
    fn to_bits_u64(self) -> u64 {
        u64::from(self.to_bits())
    }
    #[inline(always)]
    fn from_bits_u64(bits: u64) -> Self {
        f32::from_bits(bits as u32)
    }

    #[inline]
    fn wire_write(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    #[inline]
    fn wire_read(bytes: &[u8]) -> Option<Self> {
        let raw: [u8; 4] = bytes.get(..4)?.try_into().ok()?;
        Some(f32::from_bits(u32::from_le_bytes(raw)))
    }

    #[inline]
    fn micro_shape(tier: Tier) -> (usize, usize) {
        kernels::shape_f32(tier)
    }
    #[inline]
    fn micro(
        tier: Tier,
        kc: usize,
        astrip: &[Self],
        bstrip: &[Self],
        alpha: Self,
        beta: Self,
        c: &mut MatMut<'_, Self>,
    ) {
        kernels::micro_f32(tier, kc, astrip, bstrip, alpha, beta, c)
    }

    #[inline]
    fn l1_argmax_abs(kind: KernelKind, x: &[Self]) -> (usize, Self) {
        l1simd::argmax_abs_f32(kind, x)
    }
    #[inline]
    fn l1_scal_inv(kind: KernelKind, pivot: Self, x: &mut [Self]) {
        l1simd::scal_inv_f32(kind, pivot, x)
    }
    #[inline]
    fn l1_axpy_sub(kind: KernelKind, alpha: Self, x: &[Self], y: &mut [Self]) {
        l1simd::axpy_sub_f32(kind, alpha, x, y)
    }
    #[inline]
    fn l1_axpy_add(kind: KernelKind, alpha: Self, x: &[Self], y: &mut [Self]) {
        l1simd::axpy_add_f32(kind, alpha, x, y)
    }
    #[inline]
    fn l1_sub(kind: KernelKind, y: &mut [Self], x: &[Self]) {
        l1simd::sub_f32(kind, y, x)
    }

    #[inline]
    fn with_pack_bufs<R>(
        alen: usize,
        blen: usize,
        f: impl FnOnce(&mut [Self], &mut [Self]) -> R,
    ) -> R {
        arena::for_f32::with_pack_bufs(alen, blen, f)
    }
    #[inline]
    fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [Self]) -> R) -> R {
        arena::for_f32::with_scratch(len, f)
    }
    #[inline]
    fn with_scratch2<R>(
        len0: usize,
        len1: usize,
        f: impl FnOnce(&mut [Self], &mut [Self]) -> R,
    ) -> R {
        arena::for_f32::with_scratch2(len0, len1, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_are_exact() {
        for v in [0.0f64, -0.0, 1.5, -3.25e10, f64::MIN_POSITIVE] {
            assert_eq!(f64::from_bits_u64(v.to_bits_u64()).to_bits(), v.to_bits());
            let mut buf = Vec::new();
            v.wire_write(&mut buf);
            assert_eq!(buf.len(), f64::WIRE_BYTES);
            assert_eq!(f64::wire_read(&buf).unwrap().to_bits(), v.to_bits());
        }
        for v in [0.0f32, -0.0, 1.5, -3.25e10, f32::MIN_POSITIVE] {
            assert_eq!(f32::from_bits_u64(v.to_bits_u64()).to_bits(), v.to_bits());
            let mut buf = Vec::new();
            v.wire_write(&mut buf);
            assert_eq!(buf.len(), f32::WIRE_BYTES);
            assert_eq!(f32::wire_read(&buf).unwrap().to_bits(), v.to_bits());
        }
        assert_eq!(f64::wire_read(&[0u8; 7]), None);
        assert_eq!(f32::wire_read(&[0u8; 3]), None);
    }

    #[test]
    fn precision_constants_disagree_where_they_must() {
        assert_ne!(f64::ELEM_CODE, f32::ELEM_CODE);
        let (u32_, u64_) = (f32::UNIT_ROUNDOFF, f64::UNIT_ROUNDOFF);
        assert!(u32_ > u64_);
        assert_eq!(f64::NAME, "f64");
        assert_eq!(f32::NAME, "f32");
    }

    #[test]
    fn demotion_rounds_and_promotion_is_exact() {
        let v = 1.0 + f64::EPSILON;
        assert_eq!(<f32 as Element>::from_f64(v), 1.0f32);
        let w = 1.5f32;
        assert_eq!(w.to_f64(), 1.5f64);
    }
}
