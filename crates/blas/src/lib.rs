//! # hpl-blas
//!
//! Dense, column-major linear-algebra kernels for the `rhpl` workspace —
//! the subset of BLAS/LAPACK that the High-Performance Linpack benchmark
//! consumes, implemented from scratch in safe-by-construction Rust (all
//! pointer arithmetic is private to the [`mat`] view types) and generic
//! over the pipeline precision via the [`Element`] trait (`f64` for
//! classic HPL, `f32` for the HPL-MxP factorization; every public entry
//! point defaults to `f64`, so existing call sites read unchanged).
//!
//! In the paper's system these roles are played by rocBLAS (on the GPU) and
//! BLIS (on the CPU); here one portable implementation backs both the
//! "device" and "host" sides of the reproduction, while the relative
//! *performance* of the two is modeled by the `hpl-sim` crate.
//!
//! Quick map:
//! * [`elem`] — the [`Element`] precision seam (scalar ops, SIMD shapes,
//!   wire codec, tolerance model) that the rest of the crate is generic
//!   over.
//! * [`mat`] — `MatRef` / `MatMut` column-major views, owned [`mat::Matrix`].
//! * [`l1`] — `idamax`, the pivot search of the serial [`lu`] oracle.
//! * [`l1simd`] — the vectorized FACT level-1 kernels (pivot search,
//!   scaling, rank-1 row updates), bitwise equal to their scalar bodies.
//! * [`l2`] — `dtrsv`, and the rank-1 update of the [`lu`] oracle.
//! * [`l3`] — blocked/packed [`l3::dgemm`] and recursive [`l3::dtrsm`].
//! * [`l3::kernels`] — register microkernels (scalar / AVX2+FMA / AVX-512F,
//!   the widest detected tier answering to `simd`; off x86-64 only the
//!   portable tile) and the per-run kernel selection (`RHPL_KERNEL`).
//! * [`l3par`] — the thread-parallel packed GEMM of the trailing update.
//! * [`arena`] — thread-local grow-only pack buffers (allocation-free
//!   steady-state DGEMM).
//! * [`aux`] — the `swap_rows` row interchange.
//! * [`lu`] — serial DGETRF/DGETRS used as the correctness oracle.

// Lint policy: indexed loops are used deliberately where they mirror the
// reference BLAS/HPL loop structure, and several kernels take the full
// argument list their BLAS counterparts do.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::too_many_arguments)]

pub mod arena;
pub mod aux;
pub mod elem;
pub mod l1;
pub mod l1simd;
pub mod l2;
pub mod l3;
pub mod l3par;
pub mod lu;
pub mod mat;

pub use aux::swap_rows;
pub use elem::{Element, ElementSel};
pub use l1::idamax;
pub use l1simd::{argmax_abs, axpy_add, axpy_sub, axpy_sub_argmax, dscal_inv, dsub};
pub use l2::dtrsv;
pub use l3::kernels::{self, Kernel, KernelKind, KernelSel};
pub use l3::{dgemm, dgemm_naive, dgemm_packed, dgemm_with, dtrsm, dtrsm_with, PackedA};
pub use l3par::dgemm_parallel_packed;
pub use lu::{getrf, getrs, Singular};
pub use mat::{MatMut, MatRef, Matrix};

/// Whether a matrix argument is used transposed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trans {
    /// Use the matrix as stored.
    No,
    /// Use the transpose of the stored matrix.
    Yes,
}

/// Which triangle of a triangular matrix is referenced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Uplo {
    /// Upper triangle.
    Upper,
    /// Lower triangle.
    Lower,
}

/// Whether a triangular matrix has an implicit unit diagonal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Diag {
    /// Diagonal entries are taken to be 1 and never read.
    Unit,
    /// Diagonal entries are read from storage.
    NonUnit,
}

/// Which side a triangular factor multiplies from in [`l3::dtrsm`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// Solve `op(T) X = alpha B`.
    Left,
    /// Solve `X op(T) = alpha B`.
    Right,
}
