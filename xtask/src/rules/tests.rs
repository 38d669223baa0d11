//! Cases for the five base rules, each run through the whole engine
//! ([`engine::run`]) so waiver and staleness handling apply as in
//! `cargo xtask check`.

use super::{FileKind, Violation};
use crate::analysis::engine;

fn check(src: &str, kind: FileKind) -> Vec<Violation> {
    engine::run(&[("fixture.rs".to_string(), src.to_string(), kind)])
        .unwaived()
        .map(|d| d.v.clone())
        .collect()
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
    // The waiver suppresses nothing, so it is also reported stale.
    let src = "fn f() { x().unwrap(); } // xtask-allow: no-panic";
    assert_eq!(
        rules_of(&check(src, FileKind::Library)),
        ["no-unwrap", "stale-waiver"]
    );
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

// --- hot-path-alloc roots ----------------------------------------------

/// One library file per root, each defining that root's function in its
/// crate, leaving out `skip`; `cfg_test` wraps the definition of
/// `test_only` in a `#[cfg(test)]` module instead.
fn root_files(skip: &str, test_only: &str) -> Vec<(String, String, FileKind)> {
    super::hot_path::ROOTS
        .iter()
        .enumerate()
        .filter(|(_, (_, name))| *name != skip)
        .map(|(i, (krate, name))| {
            let src = if *name == test_only {
                format!("#[cfg(test)]\nmod tests {{\n    fn {name}() {{}}\n}}\n")
            } else {
                format!("fn {name}() {{}}\n")
            };
            (
                format!("crates/{krate}/src/root{i}.rs"),
                src,
                FileKind::Library,
            )
        })
        .collect()
}

#[test]
fn every_hot_path_root_resolves_when_defined() {
    let report = engine::run(&root_files("", ""));
    assert!(
        report.unresolved_roots.is_empty(),
        "{:?}",
        report.unresolved_roots
    );
}

#[test]
fn a_hot_path_root_matching_no_function_is_reported_by_name() {
    let report = engine::run(&root_files("micro_portable", ""));
    assert_eq!(report.unresolved_roots, ["blas::micro_portable"]);
    // A test-only function of the root's name roots nothing either.
    let report = engine::run(&root_files("", "dgemm_l2"));
    assert_eq!(report.unresolved_roots, ["core::dgemm_l2"]);
}

// --- hot-path-alloc call resolution ---------------------------------

/// The files of the hot-path allocations the engine finds in `files`
/// (library code, sorted, one entry per file).
fn hot_alloc_files(files: &[(&str, &str)]) -> Vec<String> {
    let inputs: Vec<_> = files
        .iter()
        .map(|(rel, src)| (rel.to_string(), src.to_string(), FileKind::Library))
        .collect();
    let mut hit: Vec<String> = engine::run(&inputs)
        .unwaived()
        .filter(|d| d.v.rule == "hot-path-alloc")
        .map(|d| d.v.file.clone())
        .collect();
    hit.sort();
    hit.dedup();
    hit
}

#[test]
fn a_path_qualified_call_reaches_only_what_its_path_could_name() {
    let hits = hot_alloc_files(&[
        // The std's `usize::from` and `core::array::from_fn` name no
        // workspace fn of their names: no edge to these two.
        (
            "crates/core/src/error.rs",
            "impl From<u8> for HplError {\n    fn from(_: u8) -> Self { HplError(Vec::new()) }\n}",
        ),
        (
            "crates/blas/src/matrix.rs",
            "impl Matrix {\n    pub fn from_fn() -> Self { Matrix(Vec::new()) }\n}",
        ),
        ("crates/core/src/fact.rs", "fn rec_factor(b: bool) -> usize { usize::from(b) }"),
        (
            "crates/blas/src/l3par.rs",
            "fn dgemm_parallel() { core::array::from_fn::<usize, 4, _>(|i| i); }",
        ),
        // A module or file stem, `Self`, a workspace crate and a generic
        // parameter of the caller each still resolve.
        ("crates/blas/src/mat.rs", "pub fn zeros() -> Vec<f64> { Vec::new() }"),
        ("crates/blas/src/l3.rs", "fn dgemm_with() { mat::zeros(); }"),
        (
            "crates/blas/src/pack.rs",
            "impl Packer {\n    fn dgemm() { Self::scratch(); }\n    fn scratch() -> Vec<f64> { Vec::new() }\n}",
        ),
        ("crates/blas/src/pool.rs", "pub fn workspace() -> Vec<f64> { Vec::new() }"),
        ("crates/core/src/update.rs", "fn gemm_update() { hpl_blas::workspace(); }"),
        (
            "crates/blas/src/elem.rs",
            "impl Elem for f64 {\n    fn zeroed() -> Vec<f64> { Vec::new() }\n}",
        ),
        ("crates/blas/src/trsm.rs", "fn dtrsm<T: Elem>() { T::zeroed(); }"),
    ]);
    assert_eq!(
        hits,
        [
            "crates/blas/src/elem.rs",
            "crates/blas/src/mat.rs",
            "crates/blas/src/pack.rs",
            "crates/blas/src/pool.rs",
        ]
    );
}
