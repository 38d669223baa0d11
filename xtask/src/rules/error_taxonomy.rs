//! `error-taxonomy` — the typed-error discipline from PRs 4/6, promoted
//! from a token heuristic to call-graph facts. Two sub-checks:
//!
//! 1. **Swallow**: `.unwrap()` / `.expect(..)` directly on a call whose
//!    workspace callee returns `Result<_, HplError|CommError>` converts a
//!    recoverable pipeline error into a process abort. Flagged in the
//!    driver crates (`core`, `comm`, `cli`) even when the `.expect`
//!    carries a message — a message doesn't restore recoverability — and
//!    even in bin targets, which the base `no-unwrap` rule exempts.
//! 2. **Reachability**: a `panic!`/`todo!`/`unimplemented!` or bare
//!    `.unwrap()` reachable through the call graph from a function that
//!    itself returns `Result<_, HplError|CommError>` means a typed error
//!    path hides an abort. `.expect("...")` with a message is the
//!    sanctioned invariant-documentation form and is not followed.

use std::collections::BTreeSet;

use crate::analysis::model::{FnId, Workspace};
use crate::rules::Violation;

/// Crates whose code must respect the typed-error taxonomy.
pub const TYPED_CRATES: &[&str] = &["core", "comm", "cli"];

/// Runs the rule over the whole workspace.
pub fn check(ws: &Workspace, out: &mut Vec<Violation>) {
    let crate_ok = |k: &str| TYPED_CRATES.contains(&k);
    // Dedup is against *this rule's* findings only (swallow vs.
    // reachability on the same line), never against other rules' —
    // a line may legitimately carry both `no-panic` and `error-taxonomy`.
    let start = out.len();

    // Names of workspace fns returning the typed error (for swallow checks).
    let fallible_names: BTreeSet<&str> = ws
        .fns
        .iter()
        .filter(|e| e.facts.returns_typed_error())
        .map(|e| e.facts.name.as_str())
        .collect();

    // Sub-check 1: swallowing a typed Result at the call site.
    for (id, entry) in ws.fns.iter().enumerate() {
        if entry.facts.cfg_test || !crate_ok(&entry.krate) {
            continue;
        }
        for u in &entry.facts.unwraps {
            let Some(recv) = &u.receiver_call else {
                continue;
            };
            if fallible_names.contains(recv.as_str()) {
                let method = if u.is_expect { "expect" } else { "unwrap" };
                out.push(Violation {
                    file: ws.file_of(id).to_string(),
                    line: u.line,
                    rule: "error-taxonomy",
                    msg: format!(
                        "`.{method}(..)` swallows the typed error of `{recv}` (returns \
                         `Result<_, HplError>`-shaped); propagate it with `?` so the \
                         driver keeps its recovery options"
                    ),
                });
            }
        }
    }

    // Sub-check 2: aborts reachable from typed-Result functions.
    let roots: Vec<FnId> = ws
        .fns
        .iter()
        .enumerate()
        .filter(|(_, e)| !e.facts.cfg_test && crate_ok(&e.krate) && e.facts.returns_typed_error())
        .map(|(id, _)| id)
        .collect();
    let reach = ws.reachable(&roots, crate_ok);
    let mut seen: BTreeSet<(String, u32)> = out[start..]
        .iter()
        .map(|v| (v.file.clone(), v.line))
        .collect();
    for &id in reach.keys() {
        let entry = &ws.fns[id];
        let mut sites: Vec<(u32, String)> = entry
            .facts
            .panics
            .iter()
            .map(|p| (p.line, format!("`{}!`", p.mac)))
            .collect();
        sites.extend(
            entry
                .facts
                .unwraps
                .iter()
                .filter(|u| !u.is_expect)
                .map(|u| (u.line, "`.unwrap()`".to_string())),
        );
        if sites.is_empty() {
            continue;
        }
        let via = ws.path_to(&roots, id, crate_ok).join(" -> ");
        for (line, what) in sites {
            if !seen.insert((ws.file_of(id).to_string(), line)) {
                continue; // already reported by the swallow check
            }
            out.push(Violation {
                file: ws.file_of(id).to_string(),
                line,
                rule: "error-taxonomy",
                msg: format!(
                    "{what} reachable from typed-error code (via {via}); return \
                     `HplError` instead of aborting"
                ),
            });
        }
    }
}
