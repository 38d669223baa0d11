//! Workspace model: every parsed file, a name-indexed function table, a
//! lightweight call graph and reachability queries — the resolution layer
//! between the per-file AST facts and the cross-crate rules.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use super::ast::{FnFacts, ParsedFile};

/// Index of one function in the workspace-wide table.
pub type FnId = usize;

/// The whole workspace, parsed and indexed.
pub struct Workspace {
    /// Parsed files in scan order.
    pub files: Vec<ParsedFile>,
    /// Flat function table; `FnId` indexes into it.
    pub fns: Vec<FnEntry>,
    /// Simple name → candidate `FnId`s (across all crates).
    by_name: BTreeMap<String, Vec<FnId>>,
    /// Call edges `caller → callees`, resolved per [`resolve`].
    edges: Vec<Vec<FnId>>,
    /// All `const NAME: Tag` declarations seen anywhere.
    pub tag_consts: BTreeSet<String>,
    /// Every crate name [`crate_of`] gives a scanned file.
    crates: BTreeSet<String>,
}

/// One function plus its location metadata.
pub struct FnEntry {
    /// Extracted facts.
    pub facts: FnFacts,
    /// Index of the owning file in [`Workspace::files`].
    pub file: usize,
    /// Crate the file belongs to (`core`, `blas`, `cli`, `examples`, ...).
    pub krate: String,
}

/// Crate name for a repo-relative path: `crates/<name>/...` maps the
/// directory name without any `hpl-`/`rhpl-` prefix; top-level dirs
/// (`examples/`, `tests/`) map to themselves.
pub fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") => parts
            .next()
            .unwrap_or("")
            .trim_start_matches("hpl-")
            .trim_start_matches("rhpl-")
            .to_string(),
        Some(top) => top.to_string(),
        None => String::new(),
    }
}

/// True for paths whose whole contents are test/bench/example code:
/// integration-test trees, benches and the examples crate. Functions there
/// are treated like `#[cfg(test)]` code — exempt from the production-code
/// rules and invisible to reachability traversals.
pub fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.starts_with("examples/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
}

/// Above this many same-name candidates a call edge is dropped rather than
/// fanned out — an ambiguity guard so `new`/`get`-style names don't connect
/// the whole workspace into one blob.
const MAX_CANDIDATES: usize = 8;

impl Workspace {
    /// Builds the model: indexes functions, collects tag constants and
    /// resolves the call graph.
    pub fn build(files: Vec<ParsedFile>) -> Self {
        let mut fns = Vec::new();
        let mut by_name: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        let mut tag_consts = BTreeSet::new();
        for (fi, pf) in files.iter().enumerate() {
            tag_consts.extend(pf.tag_consts.iter().cloned());
            let krate = crate_of(&pf.rel);
            let test_file = is_test_path(&pf.rel);
            for fx in &pf.fns {
                let id = fns.len();
                by_name.entry(fx.name.clone()).or_default().push(id);
                let mut facts = fx.clone();
                facts.cfg_test |= test_file;
                fns.push(FnEntry {
                    facts,
                    file: fi,
                    krate: krate.clone(),
                });
            }
        }
        let crates = files.iter().map(|pf| crate_of(&pf.rel)).collect();
        let mut ws = Workspace {
            files,
            fns,
            by_name,
            edges: Vec::new(),
            tag_consts,
            crates,
        };
        ws.edges = (0..ws.fns.len()).map(|id| ws.resolve_callees(id)).collect();
        ws
    }

    /// Resolved callees of `id`.
    pub fn callees(&self, id: FnId) -> &[FnId] {
        &self.edges[id]
    }

    /// All `FnId`s whose simple name is `name`, optionally restricted to
    /// one crate.
    #[cfg(test)]
    pub fn fns_named(&self, name: &str, krate: Option<&str>) -> Vec<FnId> {
        self.by_name
            .get(name)
            .map(|ids| {
                ids.iter()
                    .copied()
                    .filter(|&id| krate.is_none_or(|k| self.fns[id].krate == k))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Name-based callee resolution for one caller. A path-qualified call
    /// (`Type::f` / `module::f`) reaches, in any crate, the candidates
    /// whose impl type is the qualifier (for `Self`, the caller's own
    /// type); failing those, only the ones the qualifier could still name
    /// (a module, a crate, a generic), never every same-name fn:
    /// `usize::from` is not `HplError::from`. An unqualified call prefers
    /// same-crate candidates when any exist; method calls only ever resolve
    /// same-crate (cross-crate method dispatch through traits is beyond a
    /// name index, and guessing would wire unrelated `send`s together).
    fn resolve_callees(&self, id: FnId) -> Vec<FnId> {
        use super::ast::CallKind;
        let caller = &self.fns[id];
        let mut out = Vec::new();
        for call in &caller.facts.calls {
            if call.kind == CallKind::Macro {
                continue;
            }
            let Some(name) = call.path.last() else {
                continue;
            };
            let Some(cands) = self.by_name.get(name) else {
                continue;
            };
            let others = cands.iter().copied().filter(|&c| c != id);
            let same_crate = |&c: &FnId| self.fns[c].krate == caller.krate;
            let pool: Vec<FnId> = if call.path.len() >= 2 && call.kind == CallKind::Plain {
                let qual = &call.path[call.path.len() - 2];
                let (ty, home) = match qual.as_str() {
                    "Self" => (caller.facts.impl_ty.as_deref(), true),
                    q => (Some(q), false),
                };
                let of_type = |&c: &FnId| {
                    ty.is_some_and(|t| self.fns[c].facts.impl_ty.as_deref() == Some(t))
                        && (!home || same_crate(&c))
                };
                let matching: Vec<FnId> = others.clone().filter(of_type).collect();
                if matching.is_empty() {
                    others
                        .filter(|&c| self.may_name_home(qual, caller, c))
                        .collect()
                } else {
                    matching
                }
            } else {
                let local: Vec<FnId> = others.clone().filter(same_crate).collect();
                if !local.is_empty() {
                    local
                } else if call.kind == CallKind::Method {
                    continue;
                } else {
                    others.collect()
                }
            };
            if pool.len() > MAX_CANDIDATES {
                continue;
            }
            out.extend(pool);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// True when the path qualifier `qual` of a call in `caller` could name
    /// where candidate `cand` lives: a relative path keyword (`crate`,
    /// `self`, `super`, `Self`) the caller's crate, a workspace crate
    /// (`hpl_blas`, `rhpl_core`, ...) that crate, or a directory, file stem
    /// or inline `mod` on the candidate's path, or a generic parameter of
    /// the caller (`E::f()` dispatches on a type the index cannot see).
    fn may_name_home(&self, qual: &str, caller: &FnEntry, cand: FnId) -> bool {
        let krate = qual.trim_start_matches("hpl_").trim_start_matches("rhpl_");
        let c = &self.fns[cand];
        if matches!(qual, "crate" | "self" | "super" | "Self") {
            return c.krate == caller.krate;
        }
        if self.crates.contains(krate) {
            return c.krate == krate;
        }
        let rel = &self.files[c.file].rel;
        let path = rel.strip_suffix(".rs").unwrap_or(rel).split('/');
        path.chain(c.facts.mods.iter().map(String::as_str))
            .any(|seg| seg == qual)
            || caller.facts.generics.iter().any(|g| g == qual)
    }

    /// BFS over call edges from `roots`, visiting only functions whose
    /// crate passes `crate_ok` and skipping `#[cfg(test)]` code. Returns
    /// every reached `FnId` (roots included) with its hop distance.
    pub fn reachable(
        &self,
        roots: &[FnId],
        crate_ok: impl Fn(&str) -> bool,
    ) -> BTreeMap<FnId, u32> {
        let mut dist = BTreeMap::new();
        let mut q = VecDeque::new();
        for &r in roots {
            if dist.insert(r, 0).is_none() {
                q.push_back(r);
            }
        }
        while let Some(id) = q.pop_front() {
            let d = dist[&id];
            for &c in self.callees(id) {
                let e = &self.fns[c];
                if e.facts.cfg_test || !crate_ok(&e.krate) {
                    continue;
                }
                if let std::collections::btree_map::Entry::Vacant(v) = dist.entry(c) {
                    v.insert(d + 1);
                    q.push_back(c);
                }
            }
        }
        dist
    }

    /// Shortest call path from any root to `target` under the same filters
    /// as [`reachable`], as a list of qualified names — used to render
    /// "reachable via" diagnostics.
    pub fn path_to(
        &self,
        roots: &[FnId],
        target: FnId,
        crate_ok: impl Fn(&str) -> bool,
    ) -> Vec<String> {
        let mut prev: BTreeMap<FnId, FnId> = BTreeMap::new();
        let mut seen: BTreeSet<FnId> = roots.iter().copied().collect();
        let mut q: VecDeque<FnId> = roots.iter().copied().collect();
        while let Some(id) = q.pop_front() {
            if id == target {
                let mut path = vec![id];
                let mut cur = id;
                while let Some(&p) = prev.get(&cur) {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return path
                    .into_iter()
                    .map(|f| self.fns[f].facts.qual_name())
                    .collect();
            }
            for &c in self.callees(id) {
                let e = &self.fns[c];
                if e.facts.cfg_test || !crate_ok(&e.krate) {
                    continue;
                }
                if seen.insert(c) {
                    prev.insert(c, id);
                    q.push_back(c);
                }
            }
        }
        Vec::new()
    }

    /// Repo-relative path of the file owning `id`.
    pub fn file_of(&self, id: FnId) -> &str {
        &self.files[self.fns[id].file].rel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::ast::parse_file;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(files.iter().map(|(r, s)| parse_file(r, s)).collect())
    }

    #[test]
    fn crate_names() {
        assert_eq!(crate_of("crates/blas/src/l3.rs"), "blas");
        assert_eq!(crate_of("crates/hpl-comm/src/fabric.rs"), "comm");
        assert_eq!(crate_of("examples/src/lib.rs"), "examples");
    }

    #[test]
    fn call_graph_prefers_same_crate() {
        let w = ws(&[
            (
                "crates/a/src/lib.rs",
                "fn top() { helper(); }\nfn helper() {}",
            ),
            ("crates/b/src/lib.rs", "fn helper() {}"),
        ]);
        let top = w.fns_named("top", None)[0];
        let callees = w.callees(top);
        assert_eq!(callees.len(), 1);
        assert_eq!(w.fns[callees[0]].krate, "a");
    }

    /// The files of the callees of every fn named `caller`, sorted.
    fn callee_files<'w>(w: &'w Workspace, caller: &str) -> Vec<&'w str> {
        let mut files: Vec<&str> = (w.fns_named(caller, None).into_iter())
            .flat_map(|id| w.callees(id).iter().map(|&c| w.file_of(c)))
            .collect();
        files.sort_unstable();
        files.dedup();
        files
    }

    #[test]
    fn a_path_qualified_call_reaches_only_what_its_path_could_name() {
        let w = ws(&[
            // The std's `usize::from` and `core::array::from_fn` name no
            // workspace fn of their names: no edge to these two.
            (
                "crates/core/src/error.rs",
                "impl From<u8> for HplError {\n    fn from(_: u8) -> Self { HplError(0) }\n}",
            ),
            (
                "crates/blas/src/matrix.rs",
                "impl Matrix {\n    pub fn from_fn() -> Self { Matrix(0) }\n}",
            ),
            (
                "crates/core/src/fact.rs",
                "fn rec_factor(b: bool) -> usize { usize::from(b) }",
            ),
            (
                "crates/blas/src/l3par.rs",
                "fn dgemm_parallel() { core::array::from_fn::<usize, 4, _>(|i| i); }",
            ),
            // A module or file stem, `Self`, a workspace crate and a generic
            // parameter of the caller each still resolve.
            ("crates/blas/src/mat.rs", "pub fn zeros() {}"),
            ("crates/blas/src/l3.rs", "fn dgemm_with() { mat::zeros(); }"),
            (
                "crates/blas/src/pack.rs",
                "impl Packer {\n    fn dgemm() { Self::scratch(); }\n    fn scratch() {}\n}",
            ),
            ("crates/blas/src/pool.rs", "pub fn workspace() {}"),
            (
                "crates/core/src/update.rs",
                "fn gemm_update() { hpl_blas::workspace(); }",
            ),
            (
                "crates/blas/src/elem.rs",
                "impl Elem for f64 {\n    fn zeroed() {}\n}",
            ),
            (
                "crates/blas/src/trsm.rs",
                "fn dtrsm<T: Elem>() { T::zeroed(); }",
            ),
        ]);
        assert!(callee_files(&w, "rec_factor").is_empty());
        assert!(callee_files(&w, "dgemm_parallel").is_empty());
        assert_eq!(callee_files(&w, "dgemm_with"), ["crates/blas/src/mat.rs"]);
        assert_eq!(callee_files(&w, "dgemm"), ["crates/blas/src/pack.rs"]);
        assert_eq!(callee_files(&w, "gemm_update"), ["crates/blas/src/pool.rs"]);
        assert_eq!(callee_files(&w, "dtrsm"), ["crates/blas/src/elem.rs"]);
    }

    /// A qualified call reaches the fn its path names in another crate even
    /// when the caller's crate has a fn of the same name; an unqualified
    /// one still prefers the caller's crate.
    #[test]
    fn a_path_qualified_call_reaches_across_crates() {
        let w = ws(&[
            ("crates/blas/src/l3/kernels.rs", "pub fn active() -> u8 { 0 }"),
            ("crates/core/src/trace.rs", "pub fn active() -> bool { true }"),
            (
                "crates/core/src/update.rs",
                "fn dgemm_l2() { kernels::active(); }\nfn traced() { active(); }\nfn own() { crate::active(); }",
            ),
        ]);
        assert_eq!(
            callee_files(&w, "dgemm_l2"),
            ["crates/blas/src/l3/kernels.rs"]
        );
        assert_eq!(callee_files(&w, "traced"), ["crates/core/src/trace.rs"]);
        assert_eq!(callee_files(&w, "own"), ["crates/core/src/trace.rs"]);
    }

    #[test]
    fn reachability_skips_test_code_and_foreign_crates() {
        let w = ws(&[
            (
                "crates/a/src/lib.rs",
                "fn top() { mid(); }\nfn mid() { leaf(); outside(); }\nfn leaf() {}\n#[cfg(test)]\nmod t { fn leaf() {} }",
            ),
            ("crates/b/src/lib.rs", "fn outside() {}"),
        ]);
        let top = w.fns_named("top", Some("a"))[0];
        let reach = w.reachable(&[top], |k| k == "a");
        let names: Vec<&str> = reach
            .keys()
            .map(|&id| w.fns[id].facts.name.as_str())
            .collect();
        assert_eq!(names.len(), 3);
        assert!(names.contains(&"leaf") && !names.contains(&"outside"));
    }

    #[test]
    fn path_rendering() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "fn top() { mid(); }\nfn mid() { leaf(); }\nfn leaf() { panic!(\"x\"); }",
        )]);
        let top = w.fns_named("top", None)[0];
        let leaf = w.fns_named("leaf", None)[0];
        assert_eq!(w.path_to(&[top], leaf, |_| true), ["top", "mid", "leaf"]);
    }

    #[test]
    fn ambiguous_names_are_dropped() {
        let files: Vec<(String, String)> = (0..10)
            .map(|i| {
                (
                    format!("crates/c{i}/src/lib.rs"),
                    "pub fn new() {}".to_string(),
                )
            })
            .chain([(
                "crates/x/src/lib.rs".to_string(),
                "fn top() { new(); }".to_string(),
            )])
            .collect();
        let w = Workspace::build(files.iter().map(|(r, s)| parse_file(r, s)).collect());
        let top = w.fns_named("top", None)[0];
        assert!(w.callees(top).is_empty());
    }
}
