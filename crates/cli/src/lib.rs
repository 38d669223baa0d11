//! # rhpl-cli
//!
//! The `rhpl` benchmark binary: reads a classic `HPL.dat` (the same input
//! format Netlib HPL and rocHPL use), runs the described sweep on
//! thread-backed ranks, and prints results in the classic HPL layout —
//! so existing HPL tooling and muscle memory work against this
//! reproduction.
//!
//! * [`dat`] — the `HPL.dat` parser.
//! * [`flags`] — the command line's valued flags, checked.
//! * [`runner`] — sweep expansion and execution.
//! * [`report`] — classic output formatting.
//! * [`bench`] — the `BENCH_hpl.json` phase-trace emitter (`--trace-json`).
//! * [`faults`] — the `--fault` soak mode with its `HPLOK`/`HPLERROR`
//!   stdout protocol.
//! * [`recover`] — the checkpoint/restart supervisor (`--ckpt-every`),
//!   which survives injected rank deaths mid-run.
//! * [`launch`] — `rhpl launch`: one OS process per rank over a real
//!   transport (tcp/shm), with heartbeat failure detection and gang restart
//!   from checkpoints when a rank is killed.

// Lint policy: indexed loops are used deliberately where they mirror the
// reference BLAS/HPL loop structure, and several kernels take the full
// argument list their BLAS counterparts do.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::too_many_arguments)]

pub mod bench;
pub mod dat;
pub mod faults;
pub mod flags;
pub mod launch;
pub mod recover;
pub mod report;
pub mod runner;

pub use dat::{parse, JobSpec, ParseError, SAMPLE};
pub use runner::{encode_tv, expand, run_one, run_one_mxp, run_one_on, MxpStats, RunRecord};
