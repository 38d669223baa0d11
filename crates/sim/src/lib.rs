//! # hpl-sim
//!
//! A calibrated performance model of HPL on GPU-accelerated
//! exascale nodes — the substitution this reproduction makes for the
//! MI250X GPUs, Infinity Fabric, and Slingshot network the paper measures
//! on Crusher/Frontier (see DESIGN.md §2).
//!
//! The functional algorithm lives in `rhpl-core` and really executes; this
//! crate prices the *same schedule* (look-ahead pipeline of Fig 3, split
//! update of Fig 6) with hardware models anchored to the paper's published
//! rates (49 TFLOPS DGEMM per MI250X at `NB = 512`, 200 Gb/s NICs, 64-core
//! EPYC FACT throughput), which regenerates the shapes of Fig 7 (two-regime
//! per-iteration breakdown, 153 TFLOPS single node) and Fig 8 (>90% weak
//! scaling to 128 nodes, 17.75 PFLOPS).
//!
//! Quick map:
//! * [`gpu`] — DGEMM efficiency surface + HBM kernel model.
//! * [`cpu`] — multithreaded FACT throughput (the Fig 5 surface).
//! * [`link`] — alpha-beta links and collective cost models.
//! * [`node`] — the Frontier node, HBM-filling problem sizes, §III.B
//!   thread counts.
//! * [`schedule`] — the pricing function: one iteration's phase durations.
//! * [`des`] — a deterministic discrete-event engine over exclusive
//!   resources.
//! * [`des_hpl`] — the pipeline (Figs 3/6) as a task graph on that engine:
//!   [`simulate_des`] is the one entry point, and every figure (7, 8, the
//!   ablations) reads its [`SimResult`].
//! * [`cluster`] — weak scaling (Fig 8).
//! * [`timeline`] — ASCII Gantt rendering of iterations cut from a trace.

pub mod cluster;
pub mod cpu;
pub mod des;
pub mod des_hpl;
pub mod gpu;
pub mod link;
pub mod node;
pub mod schedule;
pub mod timeline;

pub use cluster::{weak_scaling, ScalePoint};
pub use cpu::FactModel;
pub use des::{Des, ResourceId, TaskId, Trace, TraceSpan};
pub use des_hpl::{simulate_des, IterRecord, SimResult, RESOURCES};
pub use gpu::{DgemmModel, HbmModel};
pub use link::{CollectiveModel, LinkModel};
pub use node::{NodeModel, RunParams};
pub use schedule::{Phases, Pipeline, Simulator};
pub use timeline::{iteration_spans, render, Span};
