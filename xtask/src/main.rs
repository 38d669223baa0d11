//! Workspace automation. Run as `cargo xtask <command>` (aliased in
//! `.cargo/config.toml` to `cargo run -p xtask --`).
//!
//! Commands:
//!
//! - `check` — source-level safety analyzer over `crates/`, `examples/`,
//!   `tests/` and `shims/`: the [`analysis`] engine running the [`rules`].
//!   Exits non-zero with `file:line: [rule] message` diagnostics when any
//!   rule is violated; `--json` prints the full report.
//! - `faults` — fault-injection soak gate: drives a pinned scenario matrix
//!   (each fault kind x pinned configs) through `rhpl --fault` and asserts
//!   clean completion or the expected structured error, inside a deadline,
//!   byte-identical per seed (see [`faults`]). `--recovery` swaps in the
//!   checkpoint-restore matrix, `--kill` runs the multi-process chaos soak
//!   (`rhpl launch` transport parity + a real `kill -9` of a rank process
//!   mid-factorization), `--self-test` verifies the gate can trip.
//! - `list-rules` — print the rule identifiers and one-line descriptions.
//!
//! The analyzer is std-only and runs fully offline: it lexes and parses
//! each `.rs` file itself (no rustc, no network) so it works in the
//! sandboxed CI image.

mod analysis;
mod faults;
mod json;
mod lexer;
mod rules;

use rules::FileKind;
use std::path::{Path, PathBuf};

/// Library crates subject to the full rule set. Bins, benches, examples,
/// test trees and shims only get the safety rules (`safety-comment`,
/// `simd-safety`, `no-static-mut`).
const LIB_CRATES: &[&str] = &[
    "blas", "threads", "ckpt", "comm", "core", "faults", "mxp", "sim", "trace",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("check");
    match cmd {
        "check" => {
            let json = args[1..].iter().any(|a| a == "--json");
            if let Some(bad) = args[1..].iter().find(|a| *a != "--json") {
                eprintln!("unknown `check` flag `{bad}` (expected `--json`)");
                std::process::exit(2);
            }
            let root = workspace_root();
            std::process::exit(run_check_mode(&root, json));
        }
        "faults" => {
            let root = workspace_root();
            std::process::exit(faults::run_faults(&root, &args[1..]));
        }
        "list-rules" => {
            for (name, desc) in rules::RULES {
                println!("{name:16} {desc}");
            }
        }
        other => {
            eprintln!(
                "unknown xtask command `{other}` (expected `check`, `faults` or `list-rules`)"
            );
            std::process::exit(2);
        }
    }
}

/// The workspace root is the parent of xtask's own manifest directory.
fn workspace_root() -> PathBuf {
    let manifest =
        std::env::var("CARGO_MANIFEST_DIR").expect("CARGO_MANIFEST_DIR is always set under cargo");
    Path::new(&manifest)
        .parent()
        .expect("xtask lives one level below the workspace root")
        .to_path_buf()
}

/// Runs the AST engine over the workspace: collects every `.rs` file,
/// classifies it, and hands the batch to [`analysis::engine::run`].
/// Text mode prints unwaived diagnostics only; `--json` emits the full
/// `rhpl-check-v1` document (waived diagnostics included) on stdout.
fn run_check_mode(root: &Path, json: bool) -> i32 {
    let mut files = Vec::new();
    // Not `benchmark/` (its own workspace) nor `xtask/fixtures/`, whose
    // files break the rules on purpose.
    for dir in ["crates", "examples", "tests", "shims"] {
        collect_rs_files(&root.join(dir), &mut files);
    }
    files.sort();

    let mut inputs: Vec<(String, String, FileKind)> = Vec::new();
    for path in &files {
        let Ok(src) = std::fs::read_to_string(path) else {
            eprintln!("warning: unreadable file {}", path.display());
            continue;
        };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let kind = classify(&rel);
        inputs.push((rel, src, kind));
    }

    let report = analysis::engine::run(&inputs);
    let unwaived = report.unwaived().count();
    let unresolved = &report.unresolved_roots;
    if json {
        println!("{}", analysis::engine::to_json(&report).write());
        return i32::from(unwaived > 0 || !unresolved.is_empty());
    }
    for root in unresolved {
        println!(
            "xtask/src/rules/hot_path.rs: [hot-path-alloc] root `{root}` resolves to no non-test \
             function: rename or delete it in `ROOTS`"
        );
    }
    if unwaived == 0 && unresolved.is_empty() {
        println!("xtask check: {} files clean", report.scanned);
        0
    } else {
        for d in report.unwaived() {
            println!("{}", d.v);
        }
        println!(
            "xtask check: {unwaived} violation(s) and {} unresolved hot-path root(s) in {} files",
            unresolved.len(),
            report.scanned
        );
        1
    }
}

/// Classifies a repo-relative path: `crates/<lib>/src/**` (excluding
/// `src/bin/`) gets the full rule set; everything else, `shims/**`
/// included, is binary/test code.
fn classify(rel: &str) -> FileKind {
    for lib in LIB_CRATES {
        let src = format!("crates/{lib}/src/");
        if rel.starts_with(&src) && !rel.starts_with(&format!("{src}bin/")) {
            return FileKind::Library;
        }
    }
    FileKind::Binary
}

/// Recursively collects `.rs` files, skipping `target/` build output.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lib_src_is_library_kind() {
        assert_eq!(classify("crates/blas/src/l3.rs"), FileKind::Library);
        assert_eq!(classify("crates/core/src/fact.rs"), FileKind::Library);
        assert_eq!(classify("crates/trace/src/lib.rs"), FileKind::Library);
        assert_eq!(classify("crates/trace/src/report.rs"), FileKind::Library);
    }

    #[test]
    fn bins_benches_tests_are_binary_kind() {
        assert_eq!(classify("crates/bench/src/lib.rs"), FileKind::Binary);
        assert_eq!(classify("crates/bench/src/bin/sweep.rs"), FileKind::Binary);
        assert_eq!(classify("crates/mxp/src/bin/tool.rs"), FileKind::Binary);
        assert_eq!(classify("crates/blas/tests/prop.rs"), FileKind::Binary);
        assert_eq!(classify("tests/tests/prop_e2e.rs"), FileKind::Binary);
        assert_eq!(classify("examples/quickstart.rs"), FileKind::Binary);
        assert_eq!(classify("crates/cli/src/main.rs"), FileKind::Binary);
        assert_eq!(classify("shims/loom/src/sync.rs"), FileKind::Binary);
    }

    #[test]
    fn check_runs_clean_on_this_workspace() {
        // End-to-end guard: the real workspace must stay violation-free.
        let root = workspace_root();
        assert_eq!(
            run_check_mode(&root, false),
            0,
            "xtask check found violations"
        );
    }
}
