//! `hot-path-alloc` — statically enforces the `PackArena` contract from
//! PR 5: the steady-state DGEMM/update/factorization inner loops must not
//! allocate. Roots are the per-element / per-column kernels (one call per
//! matrix entry or per panel column — among them FACT's recursion
//! `rec_factor`, one call per recursion node, and the fused rank-1 update
//! and pivot search `axpy_sub_argmax`), the level-3 inner layer by name (the
//! register microkernels, the tile writeback, the strip packer and the
//! TRSM leaf — one call per register tile, pack block or leaf, so they
//! stay covered even if a caller's name stops resolving), the row swap's
//! column-walk kernels (`gather_cols` / `scatter_cols` and the `P = 1`
//! one-walk `swap_cols`, one call per section), the panel transfers (the
//! broadcast pack `pack_panel_in_place`, which fills a caller-sized
//! buffer, and the `Q = 1` constructor `PanelL::in_place`, which packs
//! `L2` into a retired panel's storage) and the matrix generator
//! (`fill_local` and its per-strip `fill_strip`, one call per column
//! block, whose lane states live on the stack); anything they reach
//! transitively in the compute crates is hot, and any `Vec::new` / `vec!`
//! / `Box::new` / `format!` / `.collect()` / `.to_vec()` / `.to_string()`
//! there is a violation.
//!
//! Panel-grain allocations are not free: a fresh panel-sized buffer lands
//! on pages the process has never touched, and the minor faults that
//! first touch takes cost as much as a large share of the panel's work
//! (EXPERIMENTS.md, "The panel where it lies"). So the driver recycles a
//! retired panel's storage — `top`, the pivots, the broadcast buffer and
//! the packed `L2` — into the next, and every part only grows. The one
//! allocation the panel transfers reach is `PackedA::refill`'s grow step,
//! waived because panels only shrink over a run. What stays outside the
//! roots is per-run setup (the row-swap workspaces, the pool) and the
//! broadcast itself, whose payloads belong to the fabric.

use crate::analysis::model::{FnId, Workspace};
use crate::rules::Violation;

/// `(crate, fn name)` roots of the hot region.
pub const ROOTS: &[(&str, &str)] = &[
    ("blas", "dgemm"),
    ("blas", "dgemm_with"),
    ("blas", "dgemm_packed"),
    ("blas", "dtrsm"),
    ("blas", "dtrsm_with"),
    ("blas", "micro_avx512_f64"),
    ("blas", "micro_avx512_f32"),
    ("blas", "micro_8x6_avx2fma"),
    ("blas", "micro_16x6_avx2fma_f32"),
    ("blas", "micro_stack_tile"),
    ("blas", "store_tile"),
    ("blas", "pack_strips"),
    ("blas", "trsm_base"),
    ("blas", "forward_full"),
    ("blas", "axpy_sub_argmax"),
    ("core", "solve_u"),
    ("core", "store_u"),
    ("core", "gemm_update"),
    ("core", "full_update"),
    ("core", "dtrsm_u"),
    ("core", "copy_u"),
    ("core", "dgemm_l2"),
    ("core", "rec_factor"),
    ("core", "base_factor"),
    ("core", "update_col"),
    ("core", "pivot_step"),
    ("core", "gather_cols"),
    ("core", "scatter_cols"),
    ("core", "swap_cols"),
    ("core", "apply_moves"),
    ("core", "pack_panel_in_place"),
    ("core", "in_place"),
    ("core", "fill_strip"),
    ("core", "fill_local"),
];

/// Crates the traversal stays inside. Comm payload assembly allocates by
/// design (ownership transfers to the fabric), so following call edges
/// into `comm` would only produce waiver noise.
pub const HOT_CRATES: &[&str] = &["blas", "core"];

/// Resolves the root set against the workspace (non-test fns only).
pub fn roots(ws: &Workspace) -> Vec<FnId> {
    let mut out = Vec::new();
    for (krate, name) in ROOTS {
        out.extend(
            ws.fns_named(name, Some(krate))
                .into_iter()
                .filter(|&id| !ws.fns[id].facts.cfg_test),
        );
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Runs the rule over the whole workspace.
pub fn check(ws: &Workspace, out: &mut Vec<Violation>) {
    let roots = roots(ws);
    let crate_ok = |k: &str| HOT_CRATES.contains(&k);
    let reach = ws.reachable(&roots, crate_ok);
    for &id in reach.keys() {
        let entry = &ws.fns[id];
        if entry.facts.allocs.is_empty() {
            continue;
        }
        let via = ws.path_to(&roots, id, crate_ok).join(" -> ");
        for a in &entry.facts.allocs {
            out.push(Violation {
                file: ws.file_of(id).to_string(),
                line: a.line,
                rule: "hot-path-alloc",
                msg: format!(
                    "heap allocation `{}` on a hot path (reachable via {via}); use the \
                     PackArena scratch API or hoist the allocation out of the kernel",
                    a.what
                ),
            });
        }
    }
}
