//! # hpl-mxp
//!
//! Mixed-precision LU with iterative refinement — the **HPL-MxP** scheme
//! the paper's introduction describes as the benchmark "which stresses the
//! system's computational throughput of mixed- and lower-precision math
//! operations" (the same MI250X matrix engines rocHPL's FP64 path uses
//! deliver 4x the FP32 rate, which is what made Frontier's 7+ ExaFLOPS
//! HPL-MxP runs possible).
//!
//! Scope note (see DESIGN.md): the paper's *contribution* is the FP64 HPL
//! pipeline reproduced in `rhpl-core`; this crate implements the sibling
//! benchmark on top of it. [`dist`] runs the *full* `rhpl-core` pipeline
//! (look-ahead, split update, LBCAST, threaded FACT) in `f32` via
//! [`rhpl_core::factorize_local`], then replicated `f64` refinement sweeps
//! replay the pivot log against the resident factors until the solution
//! passes HPL's residual gate at double accuracy. The only matrix a run
//! holds is its `f32` operand, generated directly in `f32`; every sweep's
//! `f64` residual regenerates the system one column at a time through
//! the verifier's walk ([`rhpl_core::residual`]).

// Lint policy: the triangular solves index their loops the way the
// reference BLAS/HPL loops do.
#![allow(clippy::needless_range_loop)]

pub mod dist;

pub use dist::{replay_solve, solve_mxp, MxpOutput};
