//! Fixture tests for the AST engine, over the corpus in `xtask/fixtures/`.
//!
//! `<rule>/{positive,negative,waived}.rs` holds one directory per rule
//! beyond the five base rules. Positive must fire unwaived, negative must stay
//! silent, waived must fire but be suppressed by its annotation (and the
//! annotation must not be reported stale). The five base rules are
//! covered case by case in `rules::tests`.

use std::path::{Path, PathBuf};

use super::engine::{run, Report};
use crate::rules::FileKind;

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

/// Runs the engine over one fixture file mounted at `rel`.
fn run_one(rel: &str, src: &str, kind: FileKind) -> Report {
    run(&[(rel.to_string(), src.to_string(), kind)])
}

/// Unwaived `(line, rule)` pairs, optionally restricted to one rule.
fn unwaived(report: &Report, rule: Option<&str>) -> Vec<(u32, String)> {
    report
        .unwaived()
        .filter(|d| rule.is_none_or(|r| d.v.rule == r))
        .map(|d| (d.v.line, d.v.rule.to_string()))
        .collect()
}

/// `(rule, mount path)` for each `<rule>/` fixture directory. The mount
/// path puts the fixture in a crate where the rule is armed.
const RULE_MOUNTS: &[(&str, &str)] = &[
    ("hot-path-alloc", "crates/blas/src/fixture.rs"),
    ("comm-protocol", "crates/comm/src/fixture.rs"),
    ("error-taxonomy", "crates/core/src/fixture.rs"),
    ("span-balance", "crates/trace/src/fixture.rs"),
    ("stale-waiver", "crates/core/src/fixture.rs"),
];

#[test]
fn positive_fixtures_fire() {
    for (rule, rel) in RULE_MOUNTS {
        let src = read(&fixtures_dir().join(rule).join("positive.rs"));
        let report = run_one(rel, &src, FileKind::Library);
        let hits = unwaived(&report, Some(rule));
        assert!(!hits.is_empty(), "{rule}/positive.rs did not fire");
    }
}

#[test]
fn negative_fixtures_stay_silent() {
    for (rule, rel) in RULE_MOUNTS {
        let src = read(&fixtures_dir().join(rule).join("negative.rs"));
        let report = run_one(rel, &src, FileKind::Library);
        let hits = unwaived(&report, Some(rule));
        assert!(hits.is_empty(), "{rule}/negative.rs fired: {hits:?}");
    }
}

#[test]
fn waived_fixtures_are_suppressed_and_not_stale() {
    for (rule, rel) in RULE_MOUNTS {
        if *rule == "stale-waiver" {
            continue; // covered by its own positive/negative pair
        }
        let src = read(&fixtures_dir().join(rule).join("waived.rs"));
        let report = run_one(rel, &src, FileKind::Library);
        assert!(
            unwaived(&report, None).is_empty(),
            "{rule}/waived.rs left unwaived diagnostics: {:?}",
            unwaived(&report, None)
        );
        let waived: Vec<_> = report
            .diags
            .iter()
            .filter(|d| d.waived && d.v.rule == *rule)
            .collect();
        assert!(!waived.is_empty(), "{rule}/waived.rs: nothing was waived");
    }
}

/// The row-swap kernels joined the hot-path roots when the phase stopped
/// allocating; their fixtures mount in `core`, where those roots resolve.
#[test]
fn row_swap_kernels_are_hot_path_roots() {
    let dir = fixtures_dir().join("hot-path-alloc");
    let rel = "crates/core/src/fixture.rs";
    let report = run_one(rel, &read(&dir.join("swap_positive.rs")), FileKind::Library);
    let msgs: Vec<&str> = report.unwaived().map(|d| d.v.msg.as_str()).collect();
    assert!(
        msgs.iter()
            .any(|m| m.contains("`.collect()`") && m.contains("via gather_cols")),
        "gather_cols must be a root: {msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("`.to_vec()`") && m.contains("via apply_moves")),
        "apply_moves must be a root: {msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("`vec!`") && m.contains("via swap_cols")),
        "swap_cols must be a root: {msgs:?}"
    );
    let report = run_one(rel, &read(&dir.join("swap_negative.rs")), FileKind::Library);
    let hits = unwaived(&report, Some("hot-path-alloc"));
    assert!(hits.is_empty(), "swap_negative.rs fired: {hits:?}");
}

/// The in-place panel pack is a root: it fills the broadcast buffer its
/// caller sized, so neither it nor the packer it shares with `pack_panel`
/// may allocate.
#[test]
fn in_place_panel_pack_is_a_hot_path_root() {
    let dir = fixtures_dir().join("hot-path-alloc");
    let rel = "crates/core/src/fixture.rs";
    let report = run_one(
        rel,
        &read(&dir.join("panel_positive.rs")),
        FileKind::Library,
    );
    let msgs: Vec<&str> = report.unwaived().map(|d| d.v.msg.as_str()).collect();
    for (what, via) in [
        ("`Vec::with_capacity`", "via pack_panel_in_place"),
        ("`.to_vec()`", "pack_panel_in_place -> pack_into"),
    ] {
        assert!(
            msgs.iter().any(|m| m.contains(what) && m.contains(via)),
            "{what} {via} must be flagged: {msgs:?}"
        );
    }
    let report = run_one(
        rel,
        &read(&dir.join("panel_negative.rs")),
        FileKind::Library,
    );
    let hits = unwaived(&report, Some("hot-path-alloc"));
    assert!(hits.is_empty(), "panel_negative.rs fired: {hits:?}");
}

/// The matrix generator is a root: its lane states stay on the stack and it
/// writes into the slice its caller allocated.
#[test]
fn strip_generator_is_a_hot_path_root() {
    let dir = fixtures_dir().join("hot-path-alloc");
    let rel = "crates/core/src/fixture.rs";
    let report = run_one(rel, &read(&dir.join("gen_positive.rs")), FileKind::Library);
    let msgs: Vec<&str> = report.unwaived().map(|d| d.v.msg.as_str()).collect();
    for (what, via) in [
        ("`vec!`", "via fill_strip"),
        ("`.collect()`", "via fill_local"),
    ] {
        assert!(
            msgs.iter().any(|m| m.contains(what) && m.contains(via)),
            "{what} {via} must be flagged: {msgs:?}"
        );
    }
    let report = run_one(rel, &read(&dir.join("gen_negative.rs")), FileKind::Library);
    let hits = unwaived(&report, Some("hot-path-alloc"));
    assert!(hits.is_empty(), "gen_negative.rs fired: {hits:?}");
}

/// The level-3 inner layer is rooted function by function, so an
/// allocation in a microkernel, the writeback, the packer or the TRSM leaf
/// is flagged whether or not the call chain from `dgemm` still resolves.
#[test]
fn level3_inner_layer_fns_are_hot_path_roots() {
    let dir = fixtures_dir().join("hot-path-alloc");
    let rel = "crates/blas/src/fixture.rs";
    let report = run_one(rel, &read(&dir.join("l3_positive.rs")), FileKind::Library);
    let msgs: Vec<&str> = report.unwaived().map(|d| d.v.msg.as_str()).collect();
    for (what, via) in [
        ("`.collect()`", "via micro_avx512_f64"),
        ("`.to_vec()`", "via store_tile"),
        ("`vec!`", "via pack_strips"),
        ("`Box::new`", "forward_full"),
    ] {
        assert!(
            msgs.iter().any(|m| m.contains(what) && m.contains(via)),
            "{what} {via} must be flagged: {msgs:?}"
        );
    }
    let report = run_one(rel, &read(&dir.join("l3_negative.rs")), FileKind::Library);
    let hits = unwaived(&report, Some("hot-path-alloc"));
    assert!(hits.is_empty(), "l3_negative.rs fired: {hits:?}");
}

/// An `unsafe` region with AVX-512 intrinsics must name avx512 itself:
/// naming only the narrower feature the same function also detects would
/// document the wrong check.
#[test]
fn avx512_blocks_must_name_avx512() {
    let dir = fixtures_dir().join("simd-safety");
    let rel = "crates/fixture/src/lib_simd_avx512.rs";
    let ok = run_one(rel, &read(&dir.join("avx512_ok.rs")), FileKind::Library);
    let hits = unwaived(&ok, Some("simd-safety"));
    assert!(hits.is_empty(), "avx512_ok.rs fired: {hits:?}");
    let bad = run_one(
        rel,
        &read(&dir.join("avx512_wrong_feature.rs")),
        FileKind::Library,
    );
    let hits = unwaived(&bad, Some("simd-safety"));
    assert_eq!(hits.len(), 2, "block + fn must both fire: {hits:?}");
}

#[test]
fn positive_fixture_details() {
    // Spot-check the messages carry the analysis, not just the verdict.
    let src = read(&fixtures_dir().join("hot-path-alloc").join("positive.rs"));
    let report = run_one("crates/blas/src/fixture.rs", &src, FileKind::Library);
    let msgs: Vec<&str> = report.unwaived().map(|d| d.v.msg.as_str()).collect();
    assert!(
        msgs.iter().any(|m| m.contains("dgemm -> helper")),
        "hot-path message must carry the call path: {msgs:?}"
    );

    let src = read(&fixtures_dir().join("comm-protocol").join("positive.rs"));
    let report = run_one("crates/comm/src/fixture.rs", &src, FileKind::Library);
    let msgs: Vec<&str> = report.unwaived().map(|d| d.v.msg.as_str()).collect();
    assert!(
        msgs.iter().any(|m| m.contains("orphan send")),
        "expected an orphan-send diagnostic: {msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("BCSAT")),
        "expected a tag-typo diagnostic: {msgs:?}"
    );

    let src = read(&fixtures_dir().join("error-taxonomy").join("positive.rs"));
    let report = run_one("crates/core/src/fixture.rs", &src, FileKind::Library);
    let rules: Vec<(u32, String)> = unwaived(&report, Some("error-taxonomy"));
    assert_eq!(rules.len(), 2, "swallow + reachable abort: {rules:?}");
}
