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
//! one-walk `swap_cols`, one call per section), the panel construction
//! (the broadcast pack `pack_panel_in_place`, which fills a caller-sized
//! buffer, and the `Q = 1` constructor `PanelL::in_place`, which takes a
//! retired panel's storage) and the matrix generator
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
//! retired panel's storage — `top`, the pivots and the broadcast buffer —
//! into the next, and every part only grows; the update's GEMM packs `L2`
//! one cache block at a time into its pack arena, so no panel keeps a
//! packed copy. The panel path allocates nothing and waives nothing. What
//! stays outside the roots is per-run setup (the row-swap workspaces, the
//! pool) and the broadcast itself, whose payloads belong to the fabric.
//!
//! Every root must resolve: a name that matches no non-test function
//! roots nothing, so a renamed kernel would leave the hot region without
//! a word. [`roots`] returns such names as its error, and `cargo xtask
//! check` fails with them.

use crate::analysis::model::{FnId, Workspace};
use crate::rules::Violation;

/// `(crate, fn name)` roots of the hot region.
pub const ROOTS: &[(&str, &str)] = &[
    ("blas", "dgemm"),
    ("blas", "dgemm_with"),
    ("blas", "dgemm_parallel"),
    ("blas", "dtrsm"),
    ("blas", "dtrsm_with"),
    ("blas", "micro_avx512_f64"),
    ("blas", "micro_avx512_f32"),
    ("blas", "micro_8x6_avx2fma"),
    ("blas", "micro_16x6_avx2fma_f32"),
    ("blas", "micro_portable"),
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

/// Resolves the root set against the workspace (non-test fns only). The
/// error names, as `crate::fn`, every root that resolves to no function.
pub fn roots(ws: &Workspace) -> Result<Vec<FnId>, Vec<String>> {
    match resolve(ws) {
        (ids, missing) if missing.is_empty() => Ok(ids),
        (_, missing) => Err(missing),
    }
}

/// The roots that resolve, and the names of those that do not.
fn resolve(ws: &Workspace) -> (Vec<FnId>, Vec<String>) {
    let (mut ids, mut missing) = (Vec::new(), Vec::new());
    for (krate, name) in ROOTS {
        let before = ids.len();
        ids.extend(
            ws.fns_named(name, Some(krate))
                .into_iter()
                .filter(|&id| !ws.fns[id].facts.cfg_test),
        );
        if ids.len() == before {
            missing.push(format!("{krate}::{name}"));
        }
    }
    ids.sort_unstable();
    ids.dedup();
    (ids, missing)
}

/// Runs the rule over the whole workspace, from the roots that resolve (a
/// single fixture file resolves only those it defines).
pub fn check(ws: &Workspace, out: &mut Vec<Violation>) {
    let roots = resolve(ws).0;
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
