//! The five base rules: `safety-comment`, `simd-safety`, `no-static-mut`,
//! `no-unwrap` and `no-panic`.
//!
//! The first three are comment/token-association rules: they walk the
//! lexer's token stream and read the comment block above each site. The
//! last two read [`FnFacts`](crate::analysis::ast::FnFacts): the AST knows
//! which function a site lives in and whether that function is
//! `#[cfg(test)]` code.

use crate::analysis::ast::ParsedFile;
use crate::lexer::{Lexed, SpannedTok, Tok};
use crate::rules::{FileKind, Violation};

/// Runs the five base rules over one parsed file.
pub fn check(pf: &ParsedFile, kind: FileKind, out: &mut Vec<Violation>) {
    check_safety_comments(&pf.rel, &pf.lexed, out);
    check_simd_safety(&pf.rel, &pf.lexed, out);
    check_static_mut(&pf.rel, &pf.lexed, out);
    if kind != FileKind::Library {
        return;
    }
    for f in &pf.fns {
        if f.cfg_test {
            continue;
        }
        for u in &f.unwraps {
            if !u.is_expect {
                out.push(Violation {
                    file: pf.rel.clone(),
                    line: u.line,
                    rule: "no-unwrap",
                    msg: "`.unwrap()` in library code (use `.expect(\"why the invariant \
                          holds\")`, propagate a Result, or `// xtask-allow: no-unwrap` \
                          with justification)"
                        .to_string(),
                });
            } else if !u.has_msg {
                out.push(Violation {
                    file: pf.rel.clone(),
                    line: u.line,
                    rule: "no-unwrap",
                    msg: "`.expect()` without a descriptive string-literal message".to_string(),
                });
            }
        }
        for p in &f.panics {
            out.push(Violation {
                file: pf.rel.clone(),
                line: p.line,
                rule: "no-panic",
                msg: format!(
                    "`{}!` in library code (return an error, or `// xtask-allow: no-panic` \
                     with justification)",
                    p.mac
                ),
            });
        }
    }
}

/// True if the tokens at `i` (pointing at `fn` or `extern`) form a
/// fn-pointer *type* — i.e. `fn` is followed directly by `(` instead of a
/// name: `fn(args) -> R`, `extern "C" fn(args)`.
fn is_fn_pointer_type(toks: &[SpannedTok], i: usize) -> bool {
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

/// `safety-comment`: walk up from each `unsafe` token through comment-only,
/// blank, and attribute lines; the contiguous comment block there must
/// contain `SAFETY:` (or, for `unsafe fn`, a `# Safety` doc section).
fn check_safety_comments(file: &str, lexed: &Lexed, out: &mut Vec<Violation>) {
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
fn check_simd_safety(file: &str, lexed: &Lexed, out: &mut Vec<Violation>) {
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
fn check_static_mut(file: &str, lexed: &Lexed, out: &mut Vec<Violation>) {
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
