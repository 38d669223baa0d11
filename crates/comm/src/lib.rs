//! # hpl-comm
//!
//! A thread-backed message-passing substrate with the MPI surface HPL
//! needs. The paper's system runs over Cray-MPICH on Slingshot; Rust has no
//! mature MPI binding, so this crate plays that role: ranks are OS threads
//! inside one process, point-to-point messages match on `(source, tag)`
//! with FIFO order per pair, and the collectives are implemented *as
//! algorithms over point-to-point messages* — binomial trees, rings, and
//! scatter+allgather — rather than shared-memory shortcuts, so the
//! communication structure (who talks to whom, in what order, with what
//! volume) is exactly what an MPI-based HPL would produce.
//!
//! Quick map:
//! * [`Universe::run`] — `mpirun -np N` analogue (one thread per rank).
//! * [`Communicator`] — typed `send`/`recv`, `sendrecv`,
//!   [`Communicator::split`] (every split a view over the one world
//!   fabric).
//! * [`coll`] — `bcast`, `reduce`/`allreduce` (+[`coll::allreduce_maxloc`]
//!   for pivot search), `gatherv`, `scatterv`, ring `allgatherv`.
//! * [`ring`] — the six HPL panel-broadcast variants ([`BcastAlgo`]).
//! * [`Grid`] — the `P x Q` process grid with row/column communicators.
//!
//! Robustness (PR 4): every blocking operation has a fallible `try_*` /
//! `Result` form returning [`CommError`]; a dead rank poisons the fabric so
//! peers unwind promptly with its identity ([`Universe::run_with_faults`]
//! arms a deterministic [`hpl_faults::FaultPlan`] on the job); and
//! [`abft::panel_bcast_checked`] adds checksum-verified panel broadcasts
//! with bounded retransmission against in-flight corruption.
//!
//! Recovery (PR 6): timed-out receive polls back off under a configurable
//! [`RetryPolicy`] (bounded exponential with deterministic jitter) and are
//! counted per rank in [`RecoveryCounters`]; the receive deadline is
//! settable per process ([`set_comm_timeout`], the CLI's `--comm-timeout`)
//! or per fabric ([`FabricOpts`]); and [`Universe::run_with_injector`] restarts a
//! job on a fresh fabric while keeping the armed injector's fault cursors —
//! the supervisor primitive behind checkpoint/restart.

// Lint policy: indexed loops are used deliberately where they mirror the
// reference BLAS/HPL loop structure, and several kernels take the full
// argument list their BLAS counterparts do.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::too_many_arguments)]

pub mod abft;
pub mod coll;
pub mod comm;
pub mod config;
pub mod error;
pub mod fabric;
pub mod grid;
pub mod ring;
pub mod spsc;
pub mod transport;
pub mod universe;

pub use abft::panel_bcast_checked;
pub use coll::{
    allgatherv, allgatherv_rd, allreduce, allreduce_maxloc, allreduce_with, bcast, bcast_vec,
    gatherv, reduce, scatterv, MaxLoc, Op,
};
pub use comm::Communicator;
pub use config::ConfigError;
pub use error::CommError;
pub use fabric::{
    recv_timeout, set_comm_timeout, CommStats, Fabric, FabricOpts, RecoveryCounters, RetryPolicy,
    Tag,
};
pub use grid::{Grid, GridOrder};
pub use ring::{panel_bcast, BcastAlgo};
pub use spsc::SpscRing;
pub use transport::wire::{Wire, WireElem};
pub use transport::{last_run_link_stats, LinkStat, TransportSel};
pub use universe::{active_transport_name, FaultedRun, Universe};
