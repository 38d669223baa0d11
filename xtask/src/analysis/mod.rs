//! The AST-based analysis engine behind `cargo xtask check`; the rules it
//! runs live in [`crate::rules`].
//!
//! Layering, bottom to top:
//!
//! - [`ast`] — token trees over the std-only lexer, an item walker and
//!   per-function fact extraction (the workspace is offline; a vendored
//!   `syn` would dwarf the analyzer, so this is the purpose-built subset).
//! - [`model`] — the workspace index: function table, lightweight call
//!   graph, reachability queries, declared tag constants.
//! - [`engine`] — orchestration, waiver accounting, `stale-waiver`
//!   detection, text/JSON reporting.

pub mod ast;
pub mod engine;
#[cfg(test)]
mod fixture_tests;
pub mod model;
