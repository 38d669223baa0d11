//! `comm-protocol` — cross-checks the fabric's tag protocol. A send whose
//! tag is statically known (`Tag::NAME` or `Tag::user(N)`) must have a
//! matching receive somewhere in the workspace, and vice versa: an orphan
//! side means the peer blocks until the 120 s watchdog fires, which is
//! exactly the failure mode this rule turns into a compile-time(-ish)
//! diagnostic. `Tag::X` names that don't resolve to a declared
//! `const X: Tag` are flagged as typos. Dynamic tags (parameters, computed
//! values) are invisible to static matching and are skipped — the
//! collectives' forwarding helpers stay out of the rule's way.
//!
//! The transport control plane (`ctrl_send`/`ctrl_recv` — the trace-gather
//! frames that bypass fault hooks and stats) is matched under
//! the same contract: an orphan ctrl side wedges a multi-process launch at
//! rendezvous exactly like an orphan data send does mid-run.

use std::collections::BTreeMap;

use crate::analysis::ast::{CommDir, TagArg};
use crate::analysis::model::Workspace;
use crate::rules::Violation;

/// A statically-known tag key.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Key {
    Const(String),
    User(u64),
}

impl std::fmt::Display for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Key::Const(n) => write!(f, "Tag::{n}"),
            Key::User(v) => write!(f, "Tag::user({v})"),
        }
    }
}

/// One `try_send`/`try_recv` call site: `(fn id, line, method name)`.
type Site = (usize, u32, String);

/// Runs the rule over the whole workspace.
pub fn check(ws: &Workspace, out: &mut Vec<Violation>) {
    // (key, dir) → every site, test code included: a test-side receiver
    // legitimately completes a library-side send's protocol.
    let mut sites: BTreeMap<(Key, CommDir), Vec<Site>> = BTreeMap::new();
    // Sites eligible for *reporting*: non-test code only.
    let mut reportable: Vec<(Key, CommDir, usize, u32, String)> = Vec::new();
    for (id, entry) in ws.fns.iter().enumerate() {
        for c in &entry.facts.comms {
            let key = match &c.tag {
                TagArg::Const(n) => Key::Const(n.clone()),
                TagArg::User(v) => Key::User(*v),
                TagArg::Dynamic => continue,
            };
            sites
                .entry((key.clone(), c.dir))
                .or_default()
                .push((id, c.line, c.method.clone()));
            if !entry.facts.cfg_test {
                reportable.push((key, c.dir, id, c.line, c.method.clone()));
            }
        }
    }

    for (key, dir, id, line, method) in reportable {
        // Typo check: a named tag constant must be declared somewhere.
        if let Key::Const(name) = &key {
            if !ws.tag_consts.contains(name) {
                out.push(Violation {
                    file: ws.file_of(id).to_string(),
                    line,
                    rule: "comm-protocol",
                    msg: format!(
                        "`Tag::{name}` is not a declared tag constant (typo? known tags are \
                         declared as `const NAME: Tag`)"
                    ),
                });
                continue;
            }
        }
        let peer_dir = match dir {
            CommDir::Send => CommDir::Recv,
            CommDir::Recv => CommDir::Send,
        };
        if !sites.contains_key(&(key.clone(), peer_dir)) {
            let (this, peer) = match dir {
                CommDir::Send => ("send", "receive"),
                CommDir::Recv => ("receive", "send"),
            };
            out.push(Violation {
                file: ws.file_of(id).to_string(),
                line,
                rule: "comm-protocol",
                msg: format!(
                    "orphan {this}: `{method}` with {key} in `{}` has no matching {peer} \
                     anywhere in the workspace (the peer rank would block until the \
                     comm watchdog fires)",
                    ws.fns[id].facts.qual_name()
                ),
            });
        }
    }
}
