//! # rhpl-core
//!
//! A from-scratch Rust reproduction of **rocHPL** — the High-Performance
//! Linpack implementation for exascale accelerated architectures described
//! in Chalmers, Kurzak, McDougall & Bauman (SC 2023) — running on the
//! thread-backed message-passing substrate of `hpl-comm` and the dense
//! kernels of `hpl-blas`.
//!
//! The benchmark solves a random `N x N` system by blocked Gaussian
//! elimination with partial pivoting over a 2D block-cyclic `P x Q` process
//! grid, with the paper's three signature optimizations:
//!
//! * **Multi-threaded panel factorization** ([`fact`], §III.A): the
//!   tall-skinny panel is tiled and round-robined over a persistent thread
//!   pool; pivot search is a two-level (threads, then process-column)
//!   reduction whose payload carries the pivot row itself.
//! * **CPU core time-sharing** (§III.B, in `hpl-threads`): FACT thread
//!   counts come from the `T = 1 + C̄/P` pool-partition formula.
//! * **Look-ahead and split update** ([`driver`], §III.C, Figs 3/6): the
//!   next panel is factored while the trailing update proceeds, and the
//!   row-swap communication of each column section is staggered under the
//!   other section's update.
//!
//! ```no_run
//! use hpl_comm::Universe;
//! use rhpl_core::{run_hpl, HplConfig};
//!
//! let cfg = HplConfig::new(512, 64, 2, 2);
//! let results = Universe::run(cfg.ranks(), |comm| {
//!     rhpl_core::run_hpl(comm, &cfg).expect("nonsingular")
//! });
//! println!("GFLOPS: {:.2}", results[0].gflops);
//! ```

// Lint policy: indexed loops are used deliberately where they mirror the
// reference BLAS/HPL loop structure, and several kernels take the full
// argument list their BLAS counterparts do.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::too_many_arguments)]

pub mod config;
pub mod dist;
pub mod driver;
pub mod error;
pub mod fact;
pub mod local;
pub mod panel;
pub mod rng;
pub mod solve;
pub mod swap;
pub mod update;
pub mod verify;

pub use config::{CkptOpts, FactOpts, FactVariant, HplConfig, Schedule};
pub use driver::{factorize, factorize_local, run_hpl, run_hpl_system, HplResult, PipelineOut};
pub use error::HplError;
pub use fact::{panel_factor, FactInput, FactOut};
pub use local::{LocalMatrix, System};
pub use rng::MatGen;
pub use solve::back_substitute;
pub use swap::RowSwapAlgo;
pub use verify::{residual, verify, verify_system, Residuals};
