//! The `xtask check` rules (see DESIGN.md "Safety model & analysis tooling").
//!
//! Per-file rules take one [`crate::analysis::ast::ParsedFile`];
//! workspace rules take the resolved [`crate::analysis::model::Workspace`]
//! so they can follow call edges across crates. [`RULES`] is the catalog,
//! in `list-rules` order.
//!
//! Any violation can be waived in place with
//! `// xtask-allow: <rule> — <justification>` on the same line or the line
//! directly above (see [`crate::analysis::engine`]). `#[cfg(test)]` code
//! is exempt from `no-unwrap` and `no-panic`.

pub mod base;
pub mod comm_protocol;
pub mod error_taxonomy;
pub mod span_balance;

#[cfg(test)]
mod tests;

/// Every rule, `(id, one-line description)`. The ids are what diagnostics
/// and `xtask-allow` annotations name.
pub const RULES: &[(&str, &str)] = &[
    (
        "safety-comment",
        "every `unsafe` must be preceded by a `// SAFETY:` comment",
    ),
    (
        "no-unwrap",
        "no `.unwrap()` / message-less `.expect()` in library crates",
    ),
    (
        "no-panic",
        "no `panic!`/`todo!`/`unimplemented!` in library crates",
    ),
    ("no-static-mut", "no `static mut` items"),
    (
        "simd-safety",
        "unsafe SIMD intrinsic code must name its detected target feature in the SAFETY comment",
    ),
    (
        "comm-protocol",
        "every statically-known fabric send tag must have a matching recv (and vice versa)",
    ),
    (
        "error-taxonomy",
        "no panic/unwrap swallowing or reachable from code that must return `HplError`",
    ),
    (
        "span-balance",
        "every `hpl-trace` phase span guard must stay bound for its scope",
    ),
    (
        "stale-waiver",
        "every `xtask-allow` annotation must still suppress at least one violation",
    ),
];

/// What kind of file is being scanned; controls which rules apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// `src/**` of a library crate: all rules.
    Library,
    /// Bins, benches, examples, test trees, shims: safety rules only.
    Binary,
}

/// One diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule identifier.
    pub rule: &'static str,
    /// Human-readable message.
    pub msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}
