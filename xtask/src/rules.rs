//! The `xtask check` rules, evaluated over the lexer's token stream.
//!
//! Rules (see DESIGN.md "Safety model & analysis tooling"):
//!
//! - `safety-comment` — every `unsafe` block / fn / impl / trait must be
//!   preceded by a `// SAFETY:` comment (an `unsafe fn` may instead carry a
//!   doc comment with a `# Safety` section). Applies to every scanned file.
//! - `no-unwrap` — no `.unwrap()` and no `.expect(..)` without a descriptive
//!   string-literal message in library crates (bins/benches/tests exempt).
//! - `no-panic` — no `panic!` / `todo!` / `unimplemented!` in library crates
//!   (`unreachable!`, `assert!` and friends are allowed: they document
//!   impossibility rather than give up on an error path).
//! - `no-static-mut` — no `static mut` items anywhere.
//! - `simd-safety` — an `unsafe` block or fn containing SIMD intrinsics
//!   (`_mm*`, NEON `v..q_f*`) must carry a SAFETY comment (or `# Safety`
//!   doc section) that **names the target feature** the surrounding code
//!   detected (`avx2`, `avx512`, `fma`, `neon`, `sse` — `avx512` itself
//!   when the region uses a 512-bit `_mm512*` intrinsic): the justification
//!   of an intrinsic call is precisely which CPU feature check makes the
//!   `#[target_feature]` contract hold.
//!
//! Any violation can be waived in place with
//! `// xtask-allow: <rule> — <justification>` on the same line or the line
//! directly above. `#[cfg(test)]` items are exempt from `no-unwrap` and
//! `no-panic`.

use crate::lexer::{lex, Lexed, Tok};

/// Rule identifiers, used in diagnostics and `xtask-allow` annotations.
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
];

/// What kind of file is being scanned; controls which rules apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// `src/**` of a library crate: all rules.
    Library,
    /// Bins, benches, examples, test trees: safety rules only.
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

/// Analyzes one file's source, returning all violations found.
///
/// This is the legacy single-file entry point. `cargo xtask check` now
/// runs the AST engine in `analysis::engine`; this function survives as
/// the regression oracle the engine's fixture tests compare against.
#[cfg_attr(not(test), allow(dead_code))]
pub fn analyze(file: &str, src: &str, kind: FileKind) -> Vec<Violation> {
    let lexed = lex(src);
    let test_lines = cfg_test_lines(&lexed);
    let mut out = Vec::new();

    check_safety_comments(file, &lexed, &mut out);
    check_simd_safety(file, &lexed, &mut out);
    check_static_mut(file, &lexed, &mut out);
    if kind == FileKind::Library {
        check_unwrap(file, &lexed, &test_lines, &mut out);
        check_panic(file, &lexed, &test_lines, &mut out);
    }

    out.retain(|v| !allowed(&lexed, v.line, v.rule));
    out.sort_by_key(|v| v.line);
    out
}

/// True if `// xtask-allow: <rule>` appears on `line` or the line above.
/// The annotation must name the rule (several may be comma-separated).
fn allowed(lexed: &Lexed, line: u32, rule: &str) -> bool {
    for l in [line, line.saturating_sub(1)] {
        if l == 0 {
            continue;
        }
        let text = lexed.comment_text(l);
        if let Some(rest) = text.split("xtask-allow:").nth(1) {
            // Take the rule list up to an explanation separator. Only the
            // em-dash splits here: rule names themselves contain `-`.
            let list = rest.split('—').next().unwrap_or(rest);
            if list.split([',', ' ', '—']).any(|r| r.trim() == rule) {
                return true;
            }
        }
    }
    false
}

/// Lines covered by `#[cfg(test)]` items (typically the test module at the
/// bottom of a file). Detected token-wise: `# [ cfg ( test ) ]`, then any
/// further attributes, then an item whose body is the next balanced `{..}`
/// (or which ends at `;`).
fn cfg_test_lines(lexed: &Lexed) -> Vec<(u32, u32)> {
    let toks = &lexed.tokens;
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if is_cfg_test_at(toks, i) {
            let start_line = toks[i].line;
            // Skip to the end of this attribute: the matching `]`.
            let mut j = i + 1;
            let mut depth = 0;
            while j < toks.len() {
                match toks[j].tok {
                    Tok::Punct('[') => depth += 1,
                    Tok::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            // Skip any further attributes.
            while j < toks.len() && toks[j].tok == Tok::Punct('#') {
                let mut d = 0;
                j += 1;
                while j < toks.len() {
                    match toks[j].tok {
                        Tok::Punct('[') => d += 1,
                        Tok::Punct(']') => {
                            d -= 1;
                            if d == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            // Find the item body: first `{` before a top-level `;`.
            let mut body_end_line = start_line;
            let mut brace_depth = 0;
            let mut entered = false;
            while j < toks.len() {
                match toks[j].tok {
                    Tok::Punct('{') => {
                        brace_depth += 1;
                        entered = true;
                    }
                    Tok::Punct('}') => {
                        brace_depth -= 1;
                        if entered && brace_depth == 0 {
                            body_end_line = toks[j].line;
                            break;
                        }
                    }
                    Tok::Punct(';') if !entered => {
                        body_end_line = toks[j].line;
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            if j >= toks.len() {
                body_end_line = toks.last().map_or(start_line, |t| t.line);
            }
            spans.push((start_line, body_end_line));
            i = j;
        }
        i += 1;
    }
    spans
}

/// True if the tokens at `i` (pointing at `fn` or `extern`) form a
/// fn-pointer *type* — i.e. `fn` is followed directly by `(` instead of a
/// name: `fn(args) -> R`, `extern "C" fn(args)`.
fn is_fn_pointer_type(toks: &[crate::lexer::SpannedTok], i: usize) -> bool {
    let mut j = i;
    if matches!(&toks[j].tok, Tok::Ident(s) if s == "extern") {
        j += 1;
        if matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Str(_))) {
            j += 1;
        }
    }
    matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Ident(s)) if s == "fn")
        && toks.get(j + 1).map(|t| &t.tok) == Some(&Tok::Punct('('))
}

fn is_cfg_test_at(toks: &[crate::lexer::SpannedTok], i: usize) -> bool {
    let pat = [
        Tok::Punct('#'),
        Tok::Punct('['),
        Tok::Ident("cfg".into()),
        Tok::Punct('('),
        Tok::Ident("test".into()),
        Tok::Punct(')'),
        Tok::Punct(']'),
    ];
    toks.len() >= i + pat.len() && toks[i..i + pat.len()].iter().map(|t| &t.tok).eq(pat.iter())
}

fn in_spans(spans: &[(u32, u32)], line: u32) -> bool {
    spans.iter().any(|&(a, b)| (a..=b).contains(&line))
}

/// `safety-comment`: walk up from each `unsafe` token through comment-only,
/// blank, and attribute lines; the contiguous comment block there must
/// contain `SAFETY:` (or, for `unsafe fn`, a `# Safety` doc section).
pub(crate) fn check_safety_comments(file: &str, lexed: &Lexed, out: &mut Vec<Violation>) {
    for (idx, st) in lexed.tokens.iter().enumerate() {
        if !matches!(&st.tok, Tok::Ident(s) if s == "unsafe") {
            continue;
        }
        // What follows `unsafe`? (fn/impl/trait/{ ...)
        let next = lexed.tokens.get(idx + 1).map(|t| &t.tok);
        let is_fn = matches!(next, Some(Tok::Ident(s)) if s == "fn")
            || matches!(next, Some(Tok::Ident(s)) if s == "extern");
        if is_fn && is_fn_pointer_type(&lexed.tokens, idx + 1) {
            // `unsafe fn(..)` / `unsafe extern "C" fn(..)` as a *type* is
            // not an unsafe operation; the call sites are what need
            // justification.
            continue;
        }
        let form = match next {
            Some(Tok::Ident(s)) if s == "fn" || s == "extern" => "fn",
            Some(Tok::Ident(s)) if s == "impl" => "impl",
            Some(Tok::Ident(s)) if s == "trait" => "trait",
            _ => "block",
        };

        let blob = comment_blob(lexed, st.line);
        let ok = blob.contains("SAFETY:") || (is_fn && blob.contains("# Safety"));
        if !ok {
            out.push(Violation {
                file: file.to_string(),
                line: st.line,
                rule: "safety-comment",
                msg: format!("`unsafe` {form} without a `// SAFETY:` comment"),
            });
        }
    }
}

/// The comment text associated with the code at `line`: the same-line
/// comment plus the contiguous comment block directly above, walking
/// upward through attributes and doc comments (a blank line or a code
/// line ends the block).
fn comment_blob(lexed: &Lexed, line: u32) -> String {
    let mut texts = vec![lexed.comment_text(line)];
    let mut l = line;
    while l > 1 {
        l -= 1;
        let has_code = lexed.line_has_code(l);
        let is_attr = lexed.line_is_attr(l);
        let has_comment = lexed.line_has_comment(l);
        if has_code && !is_attr {
            break;
        }
        if has_comment {
            texts.push(lexed.comment_text(l));
        } else if !is_attr && !has_comment && !has_code {
            // Blank line ends the contiguous comment block — unless we
            // haven't seen any comments yet (blank between code and
            // comment breaks the association).
            break;
        }
    }
    texts.join(" ")
}

/// Target-feature names the `simd-safety` rule accepts in a SAFETY comment;
/// `avx512` comes first because a region with `_mm512*` intrinsics accepts
/// nothing else.
const SIMD_FEATURES: &[&str] = &["avx512", "avx2", "avx", "fma", "neon", "sse"];

/// True for identifiers that look like `std::arch` SIMD intrinsics: x86
/// `_mm*` / `_mm256*` / `_mm512*`, and the NEON `v..q_f64`-style vector ops
/// (`vld1q_f64`, `vfmaq_f64`, ...).
fn is_simd_intrinsic(name: &str) -> bool {
    name.starts_with("_mm")
        || (name.starts_with('v') && (name.contains("q_f64") || name.contains("q_f32")))
}

/// `simd-safety`: an `unsafe` block or fn whose body contains SIMD
/// intrinsic calls must carry a SAFETY comment (or `# Safety` doc section)
/// naming the detected target feature — the soundness argument for an
/// intrinsic is exactly which runtime CPU feature check discharges its
/// `#[target_feature]` contract.
pub(crate) fn check_simd_safety(file: &str, lexed: &Lexed, out: &mut Vec<Violation>) {
    let toks = &lexed.tokens;
    for (idx, st) in toks.iter().enumerate() {
        if !matches!(&st.tok, Tok::Ident(s) if s == "unsafe") {
            continue;
        }
        let next = toks.get(idx + 1).map(|t| &t.tok);
        let is_block = next == Some(&Tok::Punct('{'));
        let is_fn =
            matches!(next, Some(Tok::Ident(s)) if s == "fn") && !is_fn_pointer_type(toks, idx + 1);
        // Only block and fn forms have bodies that can call intrinsics.
        if !is_block && !is_fn {
            continue;
        }
        // Scan the balanced `{ .. }` span after the `unsafe` for intrinsics.
        let mut j = idx + 1;
        while j < toks.len() && toks[j].tok != Tok::Punct('{') {
            j += 1;
        }
        let mut depth = 0;
        let mut has_intrinsic = false;
        let mut has_avx512 = false;
        while j < toks.len() {
            match &toks[j].tok {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Tok::Ident(s) if is_simd_intrinsic(s) => {
                    has_intrinsic = true;
                    has_avx512 |= s.starts_with("_mm512");
                }
                _ => {}
            }
            j += 1;
        }
        if !has_intrinsic {
            continue;
        }
        let blob = comment_blob(lexed, st.line);
        // A 512-bit intrinsic is only discharged by the avx512 check: a
        // comment naming just avx2 documents the wrong detection.
        let accepted = if has_avx512 {
            &SIMD_FEATURES[..1]
        } else {
            SIMD_FEATURES
        };
        if !accepted.iter().any(|f| blob.contains(f)) {
            out.push(Violation {
                file: file.to_string(),
                line: st.line,
                rule: "simd-safety",
                msg: format!(
                    "`unsafe` {} contains SIMD intrinsics but its SAFETY comment names no \
                     target feature (expected one of: {})",
                    if is_fn { "fn" } else { "block" },
                    accepted.join(", ")
                ),
            });
        }
    }
}

/// `no-static-mut`: `static` immediately followed by `mut`.
pub(crate) fn check_static_mut(file: &str, lexed: &Lexed, out: &mut Vec<Violation>) {
    for w in lexed.tokens.windows(2) {
        if matches!(&w[0].tok, Tok::Ident(a) if a == "static")
            && matches!(&w[1].tok, Tok::Ident(b) if b == "mut")
        {
            out.push(Violation {
                file: file.to_string(),
                line: w[0].line,
                rule: "no-static-mut",
                msg: "`static mut` item (use interior mutability with a documented protocol)"
                    .to_string(),
            });
        }
    }
}

/// `no-unwrap`: `.unwrap()` always; `.expect(..)` unless the argument is a
/// non-empty string literal (a descriptive message is the sanctioned form).
fn check_unwrap(file: &str, lexed: &Lexed, test_spans: &[(u32, u32)], out: &mut Vec<Violation>) {
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if in_spans(test_spans, toks[i].line) {
            continue;
        }
        if toks[i].tok != Tok::Punct('.') {
            continue;
        }
        let (Some(name), Some(paren)) = (toks.get(i + 1), toks.get(i + 2)) else {
            continue;
        };
        if paren.tok != Tok::Punct('(') {
            continue;
        }
        match &name.tok {
            Tok::Ident(s)
                if s == "unwrap" && toks.get(i + 3).map(|t| &t.tok) == Some(&Tok::Punct(')')) =>
            {
                out.push(Violation {
                    file: file.to_string(),
                    line: name.line,
                    rule: "no-unwrap",
                    msg: "`.unwrap()` in library code (use `.expect(\"why the invariant \
                          holds\")`, propagate a Result, or `// xtask-allow: no-unwrap` \
                          with justification)"
                        .to_string(),
                });
            }
            Tok::Ident(s) if s == "expect" => {
                let descriptive = matches!(
                    toks.get(i + 3).map(|t| &t.tok),
                    Some(Tok::Str(m)) if !m.trim().is_empty()
                );
                if !descriptive {
                    out.push(Violation {
                        file: file.to_string(),
                        line: name.line,
                        rule: "no-unwrap",
                        msg: "`.expect()` without a descriptive string-literal message".to_string(),
                    });
                }
            }
            _ => {}
        }
    }
}

/// `no-panic`: `panic!` / `todo!` / `unimplemented!` invocations.
fn check_panic(file: &str, lexed: &Lexed, test_spans: &[(u32, u32)], out: &mut Vec<Violation>) {
    for w in lexed.tokens.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        if in_spans(test_spans, a.line) {
            continue;
        }
        let is_macro =
            matches!(&a.tok, Tok::Ident(s) if s == "panic" || s == "todo" || s == "unimplemented");
        if is_macro && b.tok == Tok::Punct('!') {
            let name = match &a.tok {
                Tok::Ident(s) => s.clone(),
                _ => unreachable!("guarded by is_macro"),
            };
            out.push(Violation {
                file: file.to_string(),
                line: a.line,
                rule: "no-panic",
                msg: format!(
                    "`{name}!` in library code (return an error, or `// xtask-allow: no-panic` \
                     with justification)"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(src: &str, kind: FileKind) -> Vec<Violation> {
        analyze("fixture.rs", src, kind)
    }

    fn rules_of(vs: &[Violation]) -> Vec<&'static str> {
        vs.iter().map(|v| v.rule).collect()
    }

    // --- safety-comment -------------------------------------------------

    #[test]
    fn unsafe_block_without_comment_is_flagged() {
        let vs = check("fn f() { unsafe { danger() } }", FileKind::Library);
        assert_eq!(rules_of(&vs), ["safety-comment"]);
        assert_eq!(vs[0].line, 1);
    }

    #[test]
    fn safety_comment_above_passes() {
        let src = "fn f() {\n    // SAFETY: caller holds the lock.\n    unsafe { danger() }\n}";
        assert!(check(src, FileKind::Library).is_empty());
    }

    #[test]
    fn safety_comment_spanning_lines_passes() {
        let src = "fn f() {\n    // SAFETY: the region protocol guarantees\n    // exclusive access between barriers.\n    unsafe { danger() }\n}";
        assert!(check(src, FileKind::Library).is_empty());
    }

    #[test]
    fn unrelated_comment_above_fails() {
        let src = "fn f() {\n    // speed hack\n    unsafe { danger() }\n}";
        assert_eq!(rules_of(&check(src, FileKind::Library)), ["safety-comment"]);
    }

    #[test]
    fn unsafe_impl_needs_comment() {
        let src = "unsafe impl Send for X {}";
        assert_eq!(rules_of(&check(src, FileKind::Library)), ["safety-comment"]);
        let ok = "// SAFETY: X owns no thread-affine state.\nunsafe impl Send for X {}";
        assert!(check(ok, FileKind::Library).is_empty());
    }

    #[test]
    fn unsafe_fn_accepts_doc_safety_section() {
        let src = "/// Does a thing.\n///\n/// # Safety\n/// `p` must be valid.\npub unsafe fn f(p: *const u8) {}";
        assert!(check(src, FileKind::Library).is_empty());
    }

    #[test]
    fn unsafe_fn_without_docs_fails() {
        assert_eq!(
            rules_of(&check(
                "pub unsafe fn f(p: *const u8) {}",
                FileKind::Library
            )),
            ["safety-comment"]
        );
    }

    #[test]
    fn fn_pointer_types_are_not_unsafe_operations() {
        let src = "struct J { call: unsafe fn(*const ()), ext: unsafe extern \"C\" fn(i32) }";
        assert!(check(src, FileKind::Library).is_empty());
        // A real unsafe fn item right after still gets flagged.
        let src2 = "struct J { call: unsafe fn(*const ()) }\nunsafe fn g() {}";
        let vs = check(src2, FileKind::Library);
        assert_eq!(rules_of(&vs), ["safety-comment"]);
        assert_eq!(vs[0].line, 2);
    }

    #[test]
    fn attribute_between_comment_and_unsafe_is_transparent() {
        let src = "// SAFETY: single caller.\n#[inline]\nunsafe fn g() {}\n";
        assert!(check(src, FileKind::Library).is_empty());
    }

    #[test]
    fn unsafe_in_string_or_comment_ignored() {
        let src = "fn f() { let s = \"unsafe { }\"; } // unsafe block here";
        assert!(check(src, FileKind::Library).is_empty());
    }

    #[test]
    fn blank_line_breaks_comment_association() {
        let src = "// SAFETY: stale comment.\n\nfn f() { unsafe { d() } }";
        assert_eq!(rules_of(&check(src, FileKind::Library)), ["safety-comment"]);
    }

    // --- simd-safety ----------------------------------------------------

    #[test]
    fn simd_unsafe_block_without_feature_name_is_flagged() {
        // A SAFETY comment exists (so `safety-comment` passes) but it does
        // not say which target feature makes the intrinsic sound.
        let src = "fn f(p: *const f64) {\n    // SAFETY: pointer is valid for 4 lanes.\n    let v = unsafe { _mm256_loadu_pd(p) };\n}";
        assert_eq!(rules_of(&check(src, FileKind::Library)), ["simd-safety"]);
    }

    #[test]
    fn simd_unsafe_block_naming_feature_passes() {
        let src = "fn f(p: *const f64) {\n    // SAFETY: avx2 verified by is_x86_feature_detected!; p has 4 lanes.\n    let v = unsafe { _mm256_loadu_pd(p) };\n}";
        assert!(check(src, FileKind::Library).is_empty());
    }

    #[test]
    fn neon_intrinsics_also_require_feature_name() {
        let bad = "fn f(p: *const f64) {\n    // SAFETY: p has 2 lanes.\n    let v = unsafe { vld1q_f64(p) };\n}";
        assert_eq!(rules_of(&check(bad, FileKind::Library)), ["simd-safety"]);
        let ok = "fn f(p: *const f64) {\n    // SAFETY: neon is mandatory on aarch64; p has 2 lanes.\n    let v = unsafe { vld1q_f64(p) };\n}";
        assert!(check(ok, FileKind::Library).is_empty());
    }

    #[test]
    fn unsafe_fn_with_simd_body_checks_doc_safety_section() {
        let bad = "/// Kernel.\n///\n/// # Safety\n/// Caller promises stuff.\npub unsafe fn k(p: *const f64) { let v = _mm256_loadu_pd(p); }";
        assert_eq!(rules_of(&check(bad, FileKind::Library)), ["simd-safety"]);
        let ok = "/// Kernel.\n///\n/// # Safety\n/// CPU must support avx2 and fma (runtime-detected).\npub unsafe fn k(p: *const f64) { let v = _mm256_loadu_pd(p); }";
        assert!(check(ok, FileKind::Library).is_empty());
    }

    #[test]
    fn avx512_intrinsics_accept_only_the_avx512_feature() {
        let wrong = "fn f(p: *const f64) {\n    // SAFETY: avx2 verified by is_x86_feature_detected!; p has 8 lanes.\n    let v = unsafe { _mm512_loadu_pd(p) };\n}";
        assert_eq!(rules_of(&check(wrong, FileKind::Library)), ["simd-safety"]);
        let right = "fn f(p: *const f64) {\n    // SAFETY: avx512f verified by is_x86_feature_detected!; p has 8 lanes.\n    let v = unsafe { _mm512_loadu_pd(p) };\n}";
        assert!(check(right, FileKind::Library).is_empty());
    }

    #[test]
    fn non_simd_unsafe_blocks_are_not_subject_to_simd_safety() {
        let src = "fn f(p: *const u8) {\n    // SAFETY: caller guarantees p is valid.\n    let v = unsafe { *p };\n}";
        assert!(check(src, FileKind::Library).is_empty());
    }

    #[test]
    fn simd_safety_waivable_with_allow() {
        let src = "fn f(p: *const f64) {\n    // SAFETY: see module docs. xtask-allow: simd-safety — feature named at module level\n    let v = unsafe { _mm256_loadu_pd(p) };\n}";
        assert!(check(src, FileKind::Library).is_empty());
    }

    // --- no-unwrap ------------------------------------------------------

    #[test]
    fn unwrap_flagged_in_library() {
        let vs = check("fn f() { x().unwrap(); }", FileKind::Library);
        assert_eq!(rules_of(&vs), ["no-unwrap"]);
    }

    #[test]
    fn unwrap_exempt_in_binary() {
        assert!(check("fn main() { x().unwrap(); }", FileKind::Binary).is_empty());
    }

    #[test]
    fn expect_with_message_passes() {
        assert!(check(
            "fn f() { x().expect(\"pool always outlives regions\"); }",
            FileKind::Library
        )
        .is_empty());
    }

    #[test]
    fn expect_with_empty_or_computed_message_fails() {
        assert_eq!(
            rules_of(&check("fn f() { x().expect(\"\"); }", FileKind::Library)),
            ["no-unwrap"]
        );
        assert_eq!(
            rules_of(&check("fn f() { x().expect(msg); }", FileKind::Library)),
            ["no-unwrap"]
        );
    }

    #[test]
    fn unwrap_in_cfg_test_module_exempt() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x().unwrap(); }\n}";
        assert!(check(src, FileKind::Library).is_empty());
    }

    #[test]
    fn unwrap_or_else_not_flagged() {
        assert!(check("fn f() { x().unwrap_or_else(|| 3); }", FileKind::Library).is_empty());
    }

    // --- no-panic -------------------------------------------------------

    #[test]
    fn panic_macros_flagged() {
        for m in ["panic!(\"x\")", "todo!()", "unimplemented!()"] {
            let src = format!("fn f() {{ {m}; }}");
            assert_eq!(
                rules_of(&check(&src, FileKind::Library)),
                ["no-panic"],
                "{m}"
            );
        }
    }

    #[test]
    fn assert_and_unreachable_allowed() {
        let src = "fn f() { assert!(x); debug_assert_eq!(a, b); unreachable!(); }";
        assert!(check(src, FileKind::Library).is_empty());
    }

    #[test]
    fn panic_in_cfg_test_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { panic!(\"boom\"); }\n}";
        assert!(check(src, FileKind::Library).is_empty());
    }

    // --- no-static-mut --------------------------------------------------

    #[test]
    fn static_mut_flagged_even_in_binaries() {
        let src = "static mut COUNTER: u64 = 0;";
        assert_eq!(rules_of(&check(src, FileKind::Binary)), ["no-static-mut"]);
    }

    #[test]
    fn plain_static_fine() {
        assert!(check("static N: u64 = 0;", FileKind::Library).is_empty());
    }

    // --- xtask-allow ----------------------------------------------------

    #[test]
    fn allow_on_same_line_waives() {
        let src = "fn f() { x().unwrap(); } // xtask-allow: no-unwrap — test helper";
        assert!(check(src, FileKind::Library).is_empty());
    }

    #[test]
    fn allow_on_line_above_waives() {
        let src = "// xtask-allow: no-panic — impossible state, documented in DESIGN.md\nfn f() { panic!(\"impossible\"); }";
        assert!(check(src, FileKind::Library).is_empty());
    }

    #[test]
    fn allow_must_name_the_rule() {
        let src = "fn f() { x().unwrap(); } // xtask-allow: no-panic";
        assert_eq!(rules_of(&check(src, FileKind::Library)), ["no-unwrap"]);
    }

    #[test]
    fn allow_list_may_name_several_rules() {
        let src = "fn f() { unsafe { d() } } // xtask-allow: safety-comment, no-unwrap — fixture";
        assert!(check(src, FileKind::Library).is_empty());
    }

    // --- diagnostics ----------------------------------------------------

    #[test]
    fn diagnostics_carry_file_line_rule() {
        let vs = check("fn f() {\n    x().unwrap();\n}", FileKind::Library);
        assert_eq!(vs.len(), 1);
        let d = vs[0].to_string();
        assert!(d.starts_with("fixture.rs:2: [no-unwrap]"), "{d}");
    }
}
