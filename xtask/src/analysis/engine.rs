//! The engine: orchestrates the passes, applies waivers with consumption
//! accounting, and renders text or JSON reports.
//!
//! Pipeline (see DESIGN.md §12):
//!
//! 1. **Parse** — every `.rs` file is lexed and parsed into token trees
//!    and per-function facts ([`super::ast`]).
//! 2. **Resolve** — the files are indexed into a [`Workspace`] with a
//!    name-resolved call graph and the tag-constant table
//!    ([`super::model`]).
//! 3. **Per-file rules** — the five base rules plus `span-balance`.
//! 4. **Workspace rules** — `hot-path-alloc`, `comm-protocol`,
//!    `error-taxonomy` (these need call edges across files).
//! 5. **Waivers** — every violation is checked against the
//!    `// xtask-allow: <rules> — <justification>` annotation on its line
//!    or the line above. Each annotation records whether it suppressed
//!    anything.
//! 6. **Staleness** — an annotation that suppressed nothing, or that
//!    names a rule the catalog doesn't know, becomes a `stale-waiver`
//!    violation at the annotation's own line.

use std::collections::BTreeMap;

use super::ast::{parse_file, ParsedFile};
use super::model::Workspace;
use crate::json::Value;
use crate::rules::{
    base, comm_protocol, error_taxonomy, hot_path, span_balance, FileKind, Violation, RULES,
};

/// One diagnostic after waiver resolution.
#[derive(Clone, Debug)]
pub struct Diag {
    /// The underlying violation.
    pub v: Violation,
    /// Suppressed by an `xtask-allow` annotation.
    pub waived: bool,
}

/// The engine's result for a whole run.
pub struct Report {
    /// Every diagnostic, waived ones included, sorted by (file, line, rule).
    pub diags: Vec<Diag>,
    /// Number of files scanned.
    pub scanned: usize,
}

impl Report {
    /// Unwaived diagnostics — what gates the exit code.
    pub fn unwaived(&self) -> impl Iterator<Item = &Diag> {
        self.diags.iter().filter(|d| !d.waived)
    }
}

/// An `xtask-allow` annotation found in a file.
struct Waiver {
    line: u32,
    /// Rule ids listed before the em-dash separator.
    rules: Vec<String>,
    /// Whether any violation was suppressed by this annotation.
    used: bool,
}

/// Parses the `xtask-allow` annotations out of one file's comments:
/// everything after `xtask-allow:` up to an em-dash is a rule list split
/// on commas/spaces (only the em-dash separates the justification, since
/// rule names themselves contain `-`).
fn collect_waivers(pf: &ParsedFile) -> Vec<Waiver> {
    let mut out = Vec::new();
    for c in &pf.lexed.comments {
        let Some(rest) = c.text.split("xtask-allow:").nth(1) else {
            continue;
        };
        let list = rest.split('—').next().unwrap_or(rest);
        let rules: Vec<String> = list
            .split([',', ' ', '—'])
            .map(str::trim)
            .filter(|r| !r.is_empty())
            .map(str::to_string)
            .collect();
        out.push(Waiver {
            line: c.line,
            rules,
            used: false,
        });
    }
    out
}

/// Runs the whole engine over `(rel, src, kind)` file inputs.
pub fn run(inputs: &[(String, String, FileKind)]) -> Report {
    // Pass 1: parse.
    let parsed: Vec<ParsedFile> = inputs
        .iter()
        .map(|(rel, src, _)| parse_file(rel, src))
        .collect();

    // Pass 3 (per-file) runs before the workspace build because the build
    // consumes the parsed files; violations only borrow them.
    let mut violations: Vec<Violation> = Vec::new();
    for (pf, (_, _, kind)) in parsed.iter().zip(inputs) {
        base::check(pf, *kind, &mut violations);
        span_balance::check(pf, &mut violations);
    }
    let mut waivers: BTreeMap<String, Vec<Waiver>> = parsed
        .iter()
        .map(|pf| (pf.rel.clone(), collect_waivers(pf)))
        .collect();

    // Pass 2 + 4: resolve and run the workspace rules.
    let ws = Workspace::build(parsed);
    hot_path::check(&ws, &mut violations);
    comm_protocol::check(&ws, &mut violations);
    error_taxonomy::check(&ws, &mut violations);

    // Pass 5: waiver application with consumption accounting.
    let mut diags: Vec<Diag> = Vec::new();
    for v in violations {
        let mut waived = false;
        if let Some(ws) = waivers.get_mut(&v.file) {
            for w in ws.iter_mut() {
                let adjacent = w.line == v.line || w.line + 1 == v.line;
                if adjacent && w.rules.iter().any(|r| r == v.rule) {
                    w.used = true;
                    waived = true;
                }
            }
        }
        diags.push(Diag { v, waived });
    }

    // Pass 6: staleness.
    let known = |r: &String| RULES.iter().any(|(id, _)| id == r);
    let mut stale: Vec<Violation> = Vec::new();
    for (file, ws) in &waivers {
        for w in ws {
            for r in &w.rules {
                if !known(r) {
                    stale.push(Violation {
                        file: file.clone(),
                        line: w.line,
                        rule: "stale-waiver",
                        msg: format!(
                            "`xtask-allow` names unknown rule `{r}` (see `cargo xtask \
                             list-rules`)"
                        ),
                    });
                }
            }
            if !w.used && w.rules.iter().all(known) {
                stale.push(Violation {
                    file: file.clone(),
                    line: w.line,
                    rule: "stale-waiver",
                    msg: format!(
                        "stale `xtask-allow: {}` — no violation fires here any more; \
                         delete the annotation",
                        w.rules.join(", ")
                    ),
                });
            }
        }
    }
    // Stale-waiver findings go through waiver matching themselves so a
    // deliberate `xtask-allow: stale-waiver` keep-alive is expressible.
    for v in stale {
        let waived = waivers.get(&v.file).is_some_and(|ws| {
            ws.iter().any(|w| {
                (w.line == v.line || w.line + 1 == v.line)
                    && w.rules.iter().any(|r| r == "stale-waiver")
            })
        });
        diags.push(Diag { v, waived });
    }

    diags.sort_by(|a, b| (&a.v.file, a.v.line, a.v.rule).cmp(&(&b.v.file, b.v.line, b.v.rule)));
    Report {
        diags,
        scanned: inputs.len(),
    }
}

/// Renders the report as the stable `rhpl-check-v1` JSON document.
pub fn to_json(report: &Report) -> Value {
    let mut root = BTreeMap::new();
    root.insert(
        "schema".to_string(),
        Value::Str("rhpl-check-v1".to_string()),
    );
    root.insert("scanned".to_string(), Value::Num(report.scanned as f64));
    root.insert(
        "unwaived".to_string(),
        Value::Num(report.unwaived().count() as f64),
    );
    let diags = report
        .diags
        .iter()
        .map(|d| {
            let mut o = BTreeMap::new();
            o.insert("file".to_string(), Value::Str(d.v.file.clone()));
            o.insert("line".to_string(), Value::Num(f64::from(d.v.line)));
            o.insert("rule".to_string(), Value::Str(d.v.rule.to_string()));
            o.insert("severity".to_string(), Value::Str("error".to_string()));
            o.insert("waived".to_string(), Value::Bool(d.waived));
            o.insert("msg".to_string(), Value::Str(d.v.msg.clone()));
            Value::Obj(o)
        })
        .collect();
    root.insert("diagnostics".to_string(), Value::Arr(diags));
    Value::Obj(root)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib(rel: &str, src: &str) -> (String, String, FileKind) {
        (rel.to_string(), src.to_string(), FileKind::Library)
    }

    fn unwaived_rules(report: &Report) -> Vec<&'static str> {
        report.unwaived().map(|d| d.v.rule).collect()
    }

    #[test]
    fn waiver_suppresses_and_is_consumed() {
        let r = run(&[lib(
            "crates/core/src/a.rs",
            "fn f() {\n    // xtask-allow: no-panic — test\n    panic!(\"x\");\n}",
        )]);
        assert!(unwaived_rules(&r).is_empty(), "{:?}", r.diags);
        assert_eq!(r.diags.len(), 1);
        assert!(r.diags[0].waived);
    }

    #[test]
    fn stale_waiver_is_flagged() {
        let r = run(&[lib(
            "crates/core/src/a.rs",
            "// xtask-allow: no-panic — nothing here panics\nfn f() {}",
        )]);
        assert_eq!(unwaived_rules(&r), ["stale-waiver"]);
    }

    #[test]
    fn unknown_rule_in_waiver_is_flagged() {
        let r = run(&[lib(
            "crates/core/src/a.rs",
            "fn f() {\n    // xtask-allow: no-pnic — typo\n    panic!(\"x\");\n}",
        )]);
        let rules = unwaived_rules(&r);
        assert!(rules.contains(&"stale-waiver"));
        assert!(
            rules.contains(&"no-panic"),
            "typo'd waiver must not suppress"
        );
    }

    #[test]
    fn json_shape_is_stable() {
        let r = run(&[lib("crates/core/src/a.rs", "fn f() { panic!(\"x\"); }")]);
        let v = to_json(&r);
        let Value::Obj(o) = &v else {
            panic!("not an object")
        };
        assert_eq!(o["schema"], Value::Str("rhpl-check-v1".into()));
        let Value::Arr(diags) = &o["diagnostics"] else {
            panic!("diagnostics not an array")
        };
        let Value::Obj(d) = &diags[0] else {
            panic!("diag not an object")
        };
        for k in ["file", "line", "rule", "severity", "waived", "msg"] {
            assert!(d.contains_key(k), "missing key {k}");
        }
    }
}
