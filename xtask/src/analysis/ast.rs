//! Token trees and a lightweight item/expression walker over the lexer's
//! output — the parsing layer of the AST engine.
//!
//! The shape mirrors what `syn` would give us if the build image carried it
//! (the workspace is offline; every dependency is a vendored std-only shim,
//! and a full `syn` shim would be a bigger liability than this purpose-built
//! subset): balanced delimiter groups, an item walk that understands
//! `mod`/`impl`/`trait` nesting, `#[cfg(test)]` scoping and function
//! signatures, and per-function **facts** — call sites, panic macros,
//! `unwrap`/`expect` chains, `hpl-trace` span guards and fabric send/recv
//! sites with their tags — which is exactly the
//! vocabulary the rules in [`crate::rules`] are written in.

use crate::lexer::{Lexed, SpannedTok, Tok};

/// One node of the balanced-delimiter tree: a significant token, or a
/// `()`/`[]`/`{}` group containing a subtree.
#[derive(Clone, Debug)]
pub enum Tree {
    /// A single non-delimiter token.
    Leaf(SpannedTok),
    /// A balanced group.
    Group(Group),
}

/// A balanced `()`/`[]`/`{}` region.
#[derive(Clone, Debug)]
pub struct Group {
    /// Opening delimiter: `(`, `[` or `{`.
    pub delim: char,
    /// Line of the opening delimiter.
    pub open_line: u32,
    /// Line of the closing delimiter.
    pub close_line: u32,
    /// The nodes inside the delimiters.
    pub trees: Vec<Tree>,
}

impl Tree {
    /// The source line this node starts on.
    pub fn line(&self) -> u32 {
        match self {
            Tree::Leaf(t) => t.line,
            Tree::Group(g) => g.open_line,
        }
    }

    fn is_punct(&self, c: char) -> bool {
        matches!(self, Tree::Leaf(SpannedTok { tok: Tok::Punct(p), .. }) if *p == c)
    }

    fn ident(&self) -> Option<&str> {
        match self {
            Tree::Leaf(SpannedTok {
                tok: Tok::Ident(s), ..
            }) => Some(s),
            _ => None,
        }
    }

    fn group(&self) -> Option<&Group> {
        match self {
            Tree::Group(g) => Some(g),
            _ => None,
        }
    }
}

/// Builds the balanced tree for a token stream. Never fails: stray closers
/// are kept as leaves and unterminated groups close at end of input, so the
/// analyzer degrades gracefully on code mid-edit.
pub fn parse_trees(toks: &[SpannedTok]) -> Vec<Tree> {
    fn closer(open: char) -> char {
        match open {
            '(' => ')',
            '[' => ']',
            _ => '}',
        }
    }
    fn build(toks: &[SpannedTok], pos: &mut usize, until: Option<char>) -> (Vec<Tree>, u32) {
        let mut out = Vec::new();
        let mut last_line = toks.get(*pos).map_or(1, |t| t.line);
        while *pos < toks.len() {
            let t = &toks[*pos];
            last_line = t.line;
            match t.tok {
                Tok::Punct(c @ ('(' | '[' | '{')) => {
                    let open_line = t.line;
                    *pos += 1;
                    let (trees, close_line) = build(toks, pos, Some(closer(c)));
                    out.push(Tree::Group(Group {
                        delim: c,
                        open_line,
                        close_line,
                        trees,
                    }));
                }
                Tok::Punct(c @ (')' | ']' | '}')) => {
                    if until == Some(c) {
                        *pos += 1;
                        return (out, t.line);
                    }
                    // Stray closer: keep it as a leaf and continue.
                    out.push(Tree::Leaf(t.clone()));
                    *pos += 1;
                }
                _ => {
                    out.push(Tree::Leaf(t.clone()));
                    *pos += 1;
                }
            }
        }
        (out, last_line)
    }
    let mut pos = 0;
    build(toks, &mut pos, None).0
}

/// How a call site names its callee.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `path::to::f(..)` (or a bare `f(..)`).
    Plain,
    /// `.f(..)` on some receiver.
    Method,
    /// `name!(..)`.
    Macro,
}

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Path segments as written (`["Tag", "user"]` for `Tag::user(..)`).
    pub path: Vec<String>,
    /// 1-based line of the callee name (kept for future edge-level
    /// diagnostics; rules currently report at the callee's own sites).
    #[allow(dead_code)]
    pub line: u32,
    /// Plain call, method call or macro invocation.
    pub kind: CallKind,
}

/// A `panic!`/`todo!`/`unimplemented!` invocation.
#[derive(Clone, Debug)]
pub struct PanicSite {
    /// 1-based line.
    pub line: u32,
    /// Macro name without the `!`.
    pub mac: String,
}

/// An `.unwrap()` / `.expect(..)` chain link.
#[derive(Clone, Debug)]
pub struct UnwrapSite {
    /// 1-based line.
    pub line: u32,
    /// `true` for `.expect(..)`, `false` for `.unwrap()`.
    pub is_expect: bool,
    /// For `.expect(..)`: whether the argument is a non-empty string literal.
    pub has_msg: bool,
    /// Name of the immediately preceding call in the chain, when the
    /// receiver is syntactically a call (`f(..).unwrap()` → `Some("f")`).
    pub receiver_call: Option<String>,
}

/// How an `hpl_trace::span(..)` guard is bound at its statement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanBinding {
    /// `let g = span(..);` / `let _g = span(..);` — guard lives to scope end.
    Bound,
    /// `let _ = span(..);` — guard drops immediately; the span is empty.
    Discarded,
    /// `span(..);` as a bare statement — same immediate drop.
    BareStmt,
    /// Anything else (passed as an argument, returned, stored): the guard's
    /// lifetime is the surrounding expression's concern, not this rule's.
    Other,
}

/// One `hpl_trace::span(Phase::..)` call site.
#[derive(Clone, Debug)]
pub struct SpanSite {
    /// 1-based line.
    pub line: u32,
    /// How the returned guard is bound.
    pub binding: SpanBinding,
}

/// Direction of a fabric/communicator traffic call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CommDir {
    /// `send` / `try_send` / `send_slice` / `try_send_slice` / `send_packet`.
    Send,
    /// `recv` / `try_recv` / `recv_into` / `try_recv_into` / `recv_packet`.
    Recv,
}

/// The tag argument of a comm call, as far as the AST can see.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TagArg {
    /// `Tag::NAME` — a named tag constant.
    Const(String),
    /// `Tag::user(N)` with a literal `N`.
    User(u64),
    /// A variable, parameter or computed tag — invisible to static matching.
    Dynamic,
}

/// One send/recv call site with its tag argument.
#[derive(Clone, Debug)]
pub struct CommSite {
    /// 1-based line.
    pub line: u32,
    /// Send or receive.
    pub dir: CommDir,
    /// Callee name as written (`try_send_slice`, `recv`, ...).
    pub method: String,
    /// The tag argument.
    pub tag: TagArg,
}

/// Everything the rules need to know about one function.
#[derive(Clone, Debug, Default)]
pub struct FnFacts {
    /// Simple name.
    pub name: String,
    /// Enclosing `impl` type, when the fn is an associated item.
    pub impl_ty: Option<String>,
    /// Inline `mod` blocks enclosing the fn within its file, outermost
    /// first.
    pub mods: Vec<String>,
    /// Generic type and const parameters in scope: the enclosing `impl`'s,
    /// then the fn's own.
    pub generics: Vec<String>,
    /// 1-based line of the `fn` keyword (used by tests and kept for
    /// definition-site diagnostics).
    #[allow(dead_code)]
    pub line: u32,
    /// Last line of the body (== `line` for bodyless declarations).
    #[allow(dead_code)]
    pub end_line: u32,
    /// Inside a `#[cfg(test)]` item or carrying `#[test]`.
    pub cfg_test: bool,
    /// Identifiers appearing in the return type (`Result`, `HplError`, ...).
    pub ret_idents: Vec<String>,
    /// Call sites in the body.
    pub calls: Vec<CallSite>,
    /// Panic-macro invocations in the body.
    pub panics: Vec<PanicSite>,
    /// `.unwrap()` / `.expect(..)` sites in the body.
    pub unwraps: Vec<UnwrapSite>,
    /// `hpl_trace::span(..)` sites in the body.
    pub spans: Vec<SpanSite>,
    /// Fabric/communicator send/recv sites in the body.
    pub comms: Vec<CommSite>,
}

impl FnFacts {
    /// Display name for diagnostics: `Type::name` or `name`.
    pub fn qual_name(&self) -> String {
        match &self.impl_ty {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }

    /// True if the return type is `Result<_, HplError>`-shaped (the typed
    /// pipeline error or the comm layer's `CommError`).
    pub fn returns_typed_error(&self) -> bool {
        self.ret_idents.iter().any(|s| s == "Result")
            && self
                .ret_idents
                .iter()
                .any(|s| s == "HplError" || s == "CommError")
    }
}

/// A parsed file: the raw lex (comments/waivers live there), the token
/// tree, the function facts and the tag constants it declares.
#[derive(Debug)]
pub struct ParsedFile {
    /// Repo-relative path.
    pub rel: String,
    /// Lexer output (kept for comment/waiver queries).
    pub lexed: Lexed,
    /// Functions found anywhere in the item tree.
    pub fns: Vec<FnFacts>,
    /// Names of `const NAME: Tag = ..` items (incl. associated consts).
    pub tag_consts: Vec<String>,
}

/// Parses one file into items and function facts.
pub fn parse_file(rel: &str, src: &str) -> ParsedFile {
    let lexed = crate::lexer::lex(src);
    let trees = parse_trees(&lexed.tokens);
    let mut fns = Vec::new();
    let mut tag_consts = Vec::new();
    walk_items(&trees, &ItemCtx::default(), &mut fns, &mut tag_consts);
    ParsedFile {
        rel: rel.to_string(),
        lexed,
        fns,
        tag_consts,
    }
}

#[derive(Default)]
struct ItemCtx {
    cfg_test: bool,
    impl_ty: Option<String>,
    mods: Vec<String>,
    generics: Vec<String>,
}

/// True if the attribute group (`[..]` contents) marks test-only code:
/// `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, ..))]`, ...
fn attr_is_test(g: &Group) -> bool {
    let first = g.trees.first().and_then(Tree::ident);
    match first {
        Some("test") => true,
        Some("cfg") => group_mentions_ident(g, "test"),
        _ => false,
    }
}

fn group_mentions_ident(g: &Group, name: &str) -> bool {
    g.trees.iter().any(|t| match t {
        Tree::Leaf(SpannedTok {
            tok: Tok::Ident(s), ..
        }) => s == name,
        Tree::Group(inner) => group_mentions_ident(inner, name),
        _ => false,
    })
}

/// Skips a `<..>` generics region starting at `i` (pointing at `<`).
/// Returns the index just past the matching `>`. Tolerates `>>`-free
/// streams because the lexer emits single-char puncts.
fn skip_angles(trees: &[Tree], mut i: usize) -> usize {
    let mut depth = 0usize;
    while i < trees.len() {
        if trees[i].is_punct('<') {
            depth += 1;
        } else if trees[i].is_punct('>') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return i + 1;
            }
        } else if trees[i].is_punct(';') {
            return i; // malformed; bail at statement end
        }
        i += 1;
    }
    i
}

/// The names a `<..>` generics region (from its `<` to just past its `>`)
/// declares: the first identifier of each top-level parameter, after a
/// `const` keyword. Lifetimes never reach the token stream.
fn generic_params(angles: &[Tree]) -> Vec<String> {
    let mut names = Vec::new();
    let mut depth = 0usize;
    let mut expect_name = false;
    for t in angles {
        if t.is_punct('<') {
            depth += 1;
            expect_name = depth == 1;
        } else if t.is_punct('>') {
            depth = depth.saturating_sub(1);
        } else if depth == 1 && t.is_punct(',') {
            expect_name = true;
        } else if expect_name {
            match t.ident() {
                Some("const") => {}
                Some(name) => {
                    names.push(name.to_string());
                    expect_name = false;
                }
                None => expect_name = false,
            }
        }
    }
    names
}

/// Recursive item walk. `mod`/`impl`/`trait` bodies recurse with updated
/// context; `fn` items get their facts extracted.
fn walk_items(trees: &[Tree], ctx: &ItemCtx, fns: &mut Vec<FnFacts>, tags: &mut Vec<String>) {
    let mut i = 0usize;
    let mut pending_test_attr = false;
    while i < trees.len() {
        // Attributes: `#` `[..]` (outer) or `#` `!` `[..]` (inner).
        if trees[i].is_punct('#') {
            let mut j = i + 1;
            if j < trees.len() && trees[j].is_punct('!') {
                j += 1;
            }
            if let Some(g) = trees.get(j).and_then(Tree::group) {
                if g.delim == '[' {
                    if attr_is_test(g) {
                        pending_test_attr = true;
                    }
                    i = j + 1;
                    continue;
                }
            }
            i += 1;
            continue;
        }
        let word = trees[i].ident();
        match word {
            Some("fn") => {
                let item_test = ctx.cfg_test || pending_test_attr;
                i = parse_fn(trees, i, ctx, item_test, fns);
                pending_test_attr = false;
            }
            Some("mod") => {
                let item_test = ctx.cfg_test || pending_test_attr;
                pending_test_attr = false;
                // `mod name { .. }` or `mod name;`
                let mut j = i + 1;
                while j < trees.len() && trees[j].group().is_none() && !trees[j].is_punct(';') {
                    j += 1;
                }
                if let Some(g) = trees.get(j).and_then(Tree::group) {
                    let mut mods = ctx.mods.clone();
                    mods.extend(trees.get(i + 1).and_then(Tree::ident).map(str::to_string));
                    walk_items(
                        &g.trees,
                        &ItemCtx {
                            cfg_test: item_test,
                            mods,
                            ..ItemCtx::default()
                        },
                        fns,
                        tags,
                    );
                }
                i = j + 1;
            }
            Some("impl") | Some("trait") => {
                let is_impl = word == Some("impl");
                let item_test = ctx.cfg_test || pending_test_attr;
                pending_test_attr = false;
                // Find the body `{..}`, collecting the header tokens.
                let mut j = i + 1;
                let mut generics = ctx.generics.clone();
                if trees.get(j).is_some_and(|t| t.is_punct('<')) {
                    let end = skip_angles(trees, j);
                    generics.extend(generic_params(&trees[j..end]));
                    j = end;
                }
                let header_start = j;
                while j < trees.len() {
                    match &trees[j] {
                        Tree::Group(g) if g.delim == '{' => break,
                        t if t.is_punct(';') => break,
                        _ => j += 1,
                    }
                }
                let impl_ty = if is_impl {
                    impl_type_name(&trees[header_start..j])
                } else {
                    // Trait default bodies: attribute to the trait name.
                    trees[header_start..j]
                        .iter()
                        .find_map(Tree::ident)
                        .map(str::to_string)
                };
                if let Some(g) = trees.get(j).and_then(Tree::group) {
                    walk_items(
                        &g.trees,
                        &ItemCtx {
                            cfg_test: item_test,
                            impl_ty,
                            mods: ctx.mods.clone(),
                            generics,
                        },
                        fns,
                        tags,
                    );
                }
                i = j + 1;
            }
            // `const fn` (and `const unsafe fn`): `const` is a prefix like
            // `pub`, and the `fn` arm parses the item.
            Some("const")
                if matches!(
                    trees.get(i + 1).and_then(Tree::ident),
                    Some("fn") | Some("unsafe")
                ) =>
            {
                i += 1;
            }
            Some("const") => {
                // `const NAME: Tag = ..;` — collect tag constants. The type
                // is the path between `:` and `=`; we match its last
                // segment.
                let name = trees.get(i + 1).and_then(Tree::ident).map(str::to_string);
                let mut j = i + 2;
                let mut ty_last: Option<String> = None;
                let mut saw_colon = false;
                while j < trees.len() && !trees[j].is_punct('=') && !trees[j].is_punct(';') {
                    if trees[j].is_punct(':') {
                        saw_colon = true;
                    } else if saw_colon {
                        if let Some(id) = trees[j].ident() {
                            ty_last = Some(id.to_string());
                        }
                    }
                    j += 1;
                }
                if let (Some(n), Some(t)) = (name, ty_last) {
                    if t == "Tag" {
                        tags.push(n);
                    }
                }
                // Skip to the end of the item.
                while j < trees.len() && !trees[j].is_punct(';') {
                    j += 1;
                }
                pending_test_attr = false;
                i = j + 1;
            }
            Some("macro_rules") => {
                // `macro_rules! name { .. }` — skip entirely.
                let mut j = i + 1;
                while j < trees.len() && trees[j].group().is_none() {
                    j += 1;
                }
                pending_test_attr = false;
                i = j + 1;
            }
            _ => {
                // Visibility/unsafe/extern prefixes keep the pending attr;
                // anything else consumes it.
                if !matches!(
                    word,
                    Some("pub") | Some("unsafe") | Some("extern") | Some("async") | Some("crate")
                ) && !matches!(&trees[i], Tree::Group(_))
                    || matches!(&trees[i], Tree::Group(g) if g.delim == '{')
                {
                    pending_test_attr = false;
                }
                i += 1;
            }
        }
    }
}

/// The self type of an `impl` header (the part between `impl` and `{`):
/// `impl Foo` → `Foo`; `impl Trait for Foo` → `Foo`; generics skipped.
fn impl_type_name(header: &[Tree]) -> Option<String> {
    // If a `for` is present, the self type follows it; otherwise it is the
    // first path in the header.
    let mut start = 0usize;
    for (k, t) in header.iter().enumerate() {
        if t.ident() == Some("for") {
            start = k + 1;
        }
    }
    let mut last = None;
    let mut i = start;
    while i < header.len() {
        if header[i].is_punct('<') {
            i = skip_angles(header, i);
            continue;
        }
        if let Some(id) = header[i].ident() {
            if id == "where" {
                break;
            }
            last = Some(id.to_string());
            // Path segments: keep consuming `::ident`; the last segment wins.
            if !(header.get(i + 1).is_some_and(|t| t.is_punct(':'))) {
                break;
            }
        }
        i += 1;
    }
    last
}

/// Parses one `fn` item starting at `trees[i]` (the `fn` keyword); pushes
/// its facts and returns the index just past the item.
fn parse_fn(
    trees: &[Tree],
    i: usize,
    ctx: &ItemCtx,
    cfg_test: bool,
    fns: &mut Vec<FnFacts>,
) -> usize {
    let fn_line = trees[i].line();
    let mut j = i + 1;
    let Some(name) = trees.get(j).and_then(Tree::ident).map(str::to_string) else {
        // `fn(..)` pointer type or malformed — not an item.
        return i + 1;
    };
    j += 1;
    let mut generics = ctx.generics.clone();
    if trees.get(j).is_some_and(|t| t.is_punct('<')) {
        let end = skip_angles(trees, j);
        generics.extend(generic_params(&trees[j..end]));
        j = end;
    }
    // Parameter list.
    let Some(params) = trees
        .get(j)
        .and_then(Tree::group)
        .filter(|g| g.delim == '(')
    else {
        return i + 1;
    };
    let _ = params;
    j += 1;
    // Return type + where clause tokens up to the body or `;`.
    let mut ret_idents = Vec::new();
    let mut in_where = false;
    let body = loop {
        match trees.get(j) {
            None => break None,
            Some(t) if t.is_punct(';') => break None,
            Some(Tree::Group(g)) if g.delim == '{' => break Some(g),
            Some(t) => {
                if t.ident() == Some("where") {
                    in_where = true;
                }
                if !in_where {
                    collect_idents(t, &mut ret_idents);
                }
                j += 1;
            }
        }
    };
    let mut fx = FnFacts {
        name,
        impl_ty: ctx.impl_ty.clone(),
        mods: ctx.mods.clone(),
        generics,
        line: fn_line,
        end_line: body.map_or(fn_line, |g| g.close_line),
        cfg_test,
        ret_idents,
        ..FnFacts::default()
    };
    if let Some(g) = body {
        scan_body(&g.trees, true, &mut fx);
    }
    fns.push(fx);
    j + 1
}

fn collect_idents(t: &Tree, out: &mut Vec<String>) {
    match t {
        Tree::Leaf(SpannedTok {
            tok: Tok::Ident(s), ..
        }) => out.push(s.clone()),
        Tree::Group(g) => {
            for t in &g.trees {
                collect_idents(t, out);
            }
        }
        _ => {}
    }
}

/// Panic macros.
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented"];
/// Send-direction callee names. `ctrl_send` is the transport-era control
/// plane (barrier / trace gather frames that bypass fault hooks and
/// stats); its tag protocol deadlocks the same way the data plane's does,
/// so it participates in orphan matching. `send_packet` is the
/// communicator's one path to the fabric, which the collectives call with
/// a payload they encoded themselves — same frames on the wire, so same
/// orphan semantics.
const SEND_NAMES: &[&str] = &[
    "send",
    "try_send",
    "send_slice",
    "try_send_slice",
    "ctrl_send",
    "send_packet",
];
/// Recv-direction callee names (`ctrl_recv` / `recv_packet`: see
/// [`SEND_NAMES`]).
const RECV_NAMES: &[&str] = &[
    "recv",
    "try_recv",
    "recv_into",
    "try_recv_into",
    "ctrl_recv",
    "recv_packet",
];

/// Scans one nesting level of a function body. `stmt_level` is true when
/// the level is a block (statements separated by `;`), which is where span
/// guard bindings are judged.
fn scan_body(trees: &[Tree], stmt_level: bool, fx: &mut FnFacts) {
    let mut stmt_start = 0usize;
    let mut i = 0usize;
    while i < trees.len() {
        if trees[i].is_punct(';') {
            stmt_start = i + 1;
            i += 1;
            continue;
        }
        // Path assembly: an ident that is not a mid-path segment.
        if let Some(first) = trees[i].ident() {
            let mid_path = i >= 2 && trees[i - 1].is_punct(':') && trees[i - 2].is_punct(':');
            if !mid_path {
                let path_start = i;
                let mut path = vec![first.to_string()];
                let mut j = i + 1;
                while j + 2 < trees.len()
                    && trees[j].is_punct(':')
                    && trees[j + 1].is_punct(':')
                    && trees[j + 2].ident().is_some()
                {
                    path.push(trees[j + 2].ident().map(str::to_string).unwrap_or_default());
                    j += 3;
                }
                // Turbofish between the path and the argument list.
                if j + 2 < trees.len()
                    && trees[j].is_punct(':')
                    && trees[j + 1].is_punct(':')
                    && trees[j + 2].is_punct('<')
                {
                    j = skip_angles(trees, j + 2);
                }
                let line = trees[path_start].line();
                let is_method = path_start >= 1 && trees[path_start - 1].is_punct('.');
                // Macro invocation: `name!(..)` / `name![..]` / `name!{..}`.
                if trees.get(j).is_some_and(|t| t.is_punct('!'))
                    && trees.get(j + 1).and_then(Tree::group).is_some()
                    && path.len() == 1
                {
                    let mac = &path[0];
                    if PANIC_MACROS.contains(&mac.as_str()) {
                        fx.panics.push(PanicSite {
                            line,
                            mac: mac.clone(),
                        });
                    }
                    fx.calls.push(CallSite {
                        path: path.clone(),
                        line,
                        kind: CallKind::Macro,
                    });
                    i = j + 1; // recurse into the macro body below
                    continue;
                }
                // Call: path followed by `(..)`.
                if let Some(args) = trees
                    .get(j)
                    .and_then(Tree::group)
                    .filter(|g| g.delim == '(')
                {
                    let callee = path.last().cloned().unwrap_or_default();
                    fx.calls.push(CallSite {
                        path: path.clone(),
                        line,
                        kind: if is_method {
                            CallKind::Method
                        } else {
                            CallKind::Plain
                        },
                    });
                    if is_method && (callee == "unwrap" || callee == "expect") {
                        let is_expect = callee == "expect";
                        let unwrap_ok = !is_expect && args.trees.is_empty();
                        if unwrap_ok || is_expect {
                            fx.unwraps.push(UnwrapSite {
                                line,
                                is_expect,
                                has_msg: is_expect
                                    && matches!(
                                        args.trees.first(),
                                        Some(Tree::Leaf(SpannedTok { tok: Tok::Str(m), .. }))
                                            if !m.trim().is_empty()
                                    ),
                                receiver_call: receiver_call_name(trees, path_start),
                            });
                        }
                    }
                    if callee == "span"
                        && (path.len() > 1 && (path[0] == "hpl_trace" || path[0] == "trace")
                            || group_mentions_path(args, "Phase"))
                    {
                        fx.spans.push(SpanSite {
                            line,
                            binding: span_binding(trees, stmt_start, path_start, j, stmt_level),
                        });
                    }
                    let dir = if SEND_NAMES.contains(&callee.as_str()) {
                        Some(CommDir::Send)
                    } else if RECV_NAMES.contains(&callee.as_str()) {
                        Some(CommDir::Recv)
                    } else {
                        None
                    };
                    if let Some(dir) = dir {
                        fx.comms.push(CommSite {
                            line,
                            dir,
                            method: callee,
                            tag: tag_arg(args),
                        });
                    }
                    i = j; // descend into the args group on the next loop turn
                    continue;
                }
                i = j.max(i + 1);
                continue;
            }
        }
        if let Tree::Group(g) = &trees[i] {
            // Blocks judge span bindings per statement; expression groups
            // (call args, index expressions) do not.
            scan_body(&g.trees, g.delim == '{', fx);
        }
        i += 1;
    }
}

/// True if the group (or a nested group) contains path segment `name`.
fn group_mentions_path(g: &Group, name: &str) -> bool {
    group_mentions_ident(g, name)
}

/// Classifies how the span guard produced by the call at
/// `trees[path_start..]` is bound within its statement.
fn span_binding(
    trees: &[Tree],
    stmt_start: usize,
    path_start: usize,
    args_idx: usize,
    stmt_level: bool,
) -> SpanBinding {
    if !stmt_level {
        return SpanBinding::Other;
    }
    let prefix = &trees[stmt_start..path_start];
    let terminated = trees.get(args_idx + 1).is_none_or(|t| t.is_punct(';'));
    if prefix.is_empty() {
        return if terminated {
            SpanBinding::BareStmt
        } else {
            SpanBinding::Other
        };
    }
    // `let [mut] pat = <span call>`
    if prefix.first().and_then(Tree::ident) == Some("let") {
        let mut k = 1usize;
        if prefix.get(k).and_then(Tree::ident) == Some("mut") {
            k += 1;
        }
        let pat = prefix.get(k).and_then(Tree::ident);
        let eq = prefix.get(k + 1).is_some_and(|t| t.is_punct('='));
        if eq && terminated {
            return match pat {
                Some("_") => SpanBinding::Discarded,
                Some(_) => SpanBinding::Bound,
                None => SpanBinding::Other,
            };
        }
    }
    SpanBinding::Other
}

/// Extracts the tag argument of a comm call: the first `Tag::X` path (or
/// `Tag::user(N)` literal) anywhere in the argument list.
fn tag_arg(args: &Group) -> TagArg {
    fn find(trees: &[Tree]) -> Option<TagArg> {
        let mut i = 0usize;
        while i < trees.len() {
            if trees[i].ident() == Some("Tag")
                && trees.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && trees.get(i + 2).is_some_and(|t| t.is_punct(':'))
            {
                if let Some(name) = trees.get(i + 3).and_then(Tree::ident) {
                    if name == "user" {
                        if let Some(g) = trees.get(i + 4).and_then(Tree::group) {
                            if let Some(Tree::Leaf(SpannedTok {
                                tok: Tok::Num(n), ..
                            })) = g.trees.first()
                            {
                                if let Ok(v) = n.replace('_', "").parse::<u64>() {
                                    return Some(TagArg::User(v));
                                }
                            }
                        }
                        return Some(TagArg::Dynamic);
                    }
                    return Some(TagArg::Const(name.to_string()));
                }
            }
            if let Tree::Group(g) = &trees[i] {
                if let Some(t) = find(&g.trees) {
                    return Some(t);
                }
            }
            i += 1;
        }
        None
    }
    find(&args.trees).unwrap_or(TagArg::Dynamic)
}

/// The name of the call whose result the `.` at `dot = path_start - 1`
/// chains from: `f(..).unwrap()` → `Some("f")`. Walks back over one
/// argument group to the callee path's last segment.
fn receiver_call_name(trees: &[Tree], path_start: usize) -> Option<String> {
    if path_start < 2 || !trees[path_start - 1].is_punct('.') {
        return None;
    }
    let recv_end = path_start - 2; // last element of the receiver expression
    match &trees[recv_end] {
        Tree::Group(g) if g.delim == '(' => {
            // `..callee(args).unwrap()` — the ident before the group.
            trees
                .get(recv_end.checked_sub(1)?)
                .and_then(Tree::ident)
                .map(str::to_string)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts(src: &str) -> Vec<FnFacts> {
        parse_file("t.rs", src).fns
    }

    #[test]
    fn fn_names_and_impl_qualification() {
        let f = facts("impl Fabric { pub fn try_send(&self) {} }\nfn free() {}");
        assert_eq!(f[0].qual_name(), "Fabric::try_send");
        assert_eq!(f[1].qual_name(), "free");
    }

    #[test]
    fn trait_impls_attribute_to_self_type() {
        let f = facts("impl Display for Violation { fn fmt(&self) {} }");
        assert_eq!(f[0].qual_name(), "Violation::fmt");
    }

    #[test]
    fn cfg_test_modules_and_test_attr_mark_fns() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() {}\n  fn helper() {}\n}";
        let f = facts(src);
        assert_eq!(
            f.iter()
                .map(|x| (x.name.as_str(), x.cfg_test))
                .collect::<Vec<_>>(),
            [("lib", false), ("t", true), ("helper", true)]
        );
    }

    /// A `const fn` is a function like any other, and the items after it
    /// are still seen (the `const` item arm once skipped from `const fn`
    /// to the next top-level `;`, hiding every item in between).
    #[test]
    fn const_fns_are_fns_and_hide_nothing() {
        let src = "const fn a() -> u8 { 1 }\nstruct S { x: u8 }\n\
                   impl S { pub const fn b(&self) -> u8 { self.x } pub fn c() {} }\n\
                   const unsafe fn d() {}\nconst N: usize = 3;\nfn e() {}";
        let names: Vec<String> = facts(src).iter().map(FnFacts::qual_name).collect();
        assert_eq!(names, ["a", "S::b", "S::c", "d", "e"]);
    }

    #[test]
    fn return_type_idents_capture_typed_errors() {
        let f = facts("fn run(x: u8) -> Result<RunOut, HplError> { body() }");
        assert!(f[0].returns_typed_error());
        let g = facts("fn run(x: u8) -> Result<u8, String> { body() }");
        assert!(!g[0].returns_typed_error());
    }

    #[test]
    fn where_clause_does_not_pollute_return_idents() {
        let f = facts("fn f<T>(x: T) -> u8 where T: Into<HplError> { 0 }");
        assert!(!f[0].returns_typed_error());
    }

    #[test]
    fn calls_allocs_panics_collected() {
        let src = r#"fn f() {
            let v = Vec::new();
            let w = vec![0.0; n];
            let s = format!("x{}", 1);
            helper(v);
            other::path::g();
            if bad { panic!("boom"); }
        }"#;
        let f = &facts(src)[0];
        // Allocations are calls like any other.
        let kinds = |name: &str| {
            (f.calls.iter())
                .filter(|c| c.path.last().is_some_and(|l| l == name))
                .map(|c| c.kind)
                .collect::<Vec<_>>()
        };
        assert_eq!(kinds("new"), [CallKind::Plain]);
        assert_eq!(kinds("vec"), [CallKind::Macro]);
        assert_eq!(kinds("format"), [CallKind::Macro]);
        assert_eq!(f.panics.len(), 1);
        assert!(f.calls.iter().any(|c| c.path == ["helper"]));
        assert!(f.calls.iter().any(|c| c.path == ["other", "path", "g"]));
    }

    #[test]
    fn unwrap_receiver_call_detected() {
        let f = &facts("fn f() { run_hpl(c, cfg).expect(\"nonsingular\"); x.unwrap(); }")[0];
        assert_eq!(f.unwraps.len(), 2);
        assert_eq!(f.unwraps[0].receiver_call.as_deref(), Some("run_hpl"));
        assert!(f.unwraps[0].is_expect && f.unwraps[0].has_msg);
        assert_eq!(f.unwraps[1].receiver_call, None);
        assert!(!f.unwraps[1].is_expect);
    }

    #[test]
    fn span_bindings_classified() {
        let src = r#"fn f() {
            let _sp = hpl_trace::span(hpl_trace::Phase::Fact);
            let _ = hpl_trace::span(hpl_trace::Phase::Update);
            hpl_trace::span(hpl_trace::Phase::Bcast);
            consume(hpl_trace::span(hpl_trace::Phase::Fact));
        }"#;
        let f = &facts(src)[0];
        let kinds: Vec<SpanBinding> = f.spans.iter().map(|s| s.binding).collect();
        assert_eq!(
            kinds,
            [
                SpanBinding::Bound,
                SpanBinding::Discarded,
                SpanBinding::BareStmt,
                SpanBinding::Other
            ]
        );
    }

    #[test]
    fn comm_sites_and_tags() {
        let src = r#"fn f(c: &Comm) -> Result<(), CommError> {
            c.try_send(1, Tag::BCAST, v)?;
            c.try_recv::<u32>(1, Tag::user(7))?;
            c.try_send_slice(2, tag, buf)?;
            Ok(())
        }"#;
        let f = &facts(src)[0];
        assert_eq!(f.comms.len(), 3);
        assert_eq!(f.comms[0].tag, TagArg::Const("BCAST".into()));
        assert_eq!(f.comms[0].dir, CommDir::Send);
        assert_eq!(f.comms[1].tag, TagArg::User(7));
        assert_eq!(f.comms[1].dir, CommDir::Recv);
        assert_eq!(f.comms[2].tag, TagArg::Dynamic);
    }

    #[test]
    fn ctrl_plane_sites_are_comm_sites() {
        let src = r#"fn f(fab: &Fabric) -> Result<(), CommError> {
            fab.ctrl_send(me, root, Tag::BARRIER, pkt)?;
            fab.ctrl_recv(me, root, Tag::BARRIER)?;
            Ok(())
        }"#;
        let f = &facts(src)[0];
        assert_eq!(f.comms.len(), 2);
        assert_eq!(f.comms[0].dir, CommDir::Send);
        assert_eq!(f.comms[0].tag, TagArg::Const("BARRIER".into()));
        assert_eq!(f.comms[1].dir, CommDir::Recv);
        assert_eq!(f.comms[1].tag, TagArg::Const("BARRIER".into()));
    }

    #[test]
    fn tag_consts_collected_from_impls() {
        let p = parse_file(
            "t.rs",
            "impl Tag { pub(crate) const BCAST: Tag = Tag(1); const N: u64 = 3; }\nconst RING: Tag = Tag(2);",
        );
        assert_eq!(p.tag_consts, ["BCAST", "RING"]);
    }

    #[test]
    fn stray_closers_do_not_panic() {
        let _ = parse_file("t.rs", "fn f() { } } ) ]");
    }
}
