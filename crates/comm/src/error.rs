//! Structured communication errors: the comm layer's half of the
//! [`HplError`](../../core) taxonomy.
//!
//! Every blocking operation that used to panic (receive timeout) or that
//! could previously only be misused (count mismatches in the collectives)
//! now has a fallible path returning [`CommError`], so the LU pipeline can
//! unwind cleanly with the failure's identity instead of wedging until the
//! deadlock detector fires.

use std::fmt;

use crate::fabric::Tag;

/// A failure inside the message-passing substrate.
#[derive(Clone, Debug, PartialEq)]
pub enum CommError {
    /// No matching message arrived within the deadlock-detection window
    /// (`--comm-timeout`). Carries the pending queue keys — the
    /// `(src, tag)` pairs that *are* waiting in the mailbox — so a
    /// mismatched collective ordering is diagnosable from the error alone.
    Timeout {
        /// Receiving rank.
        dst: usize,
        /// Expected source rank.
        src: usize,
        /// Expected tag.
        tag: Tag,
        /// How long the receive waited, in milliseconds.
        waited_ms: u64,
        /// Queue keys with undelivered messages in `dst`'s mailbox.
        pending: Vec<(usize, Tag)>,
    },
    /// A rank died (injected death or a panic on its thread); the fabric
    /// was poisoned so every peer fails promptly with the identity.
    RankFailed {
        /// World rank that failed.
        rank: usize,
        /// Where it failed (LU phase when known, else the comm site).
        phase: String,
    },
    /// A checksummed broadcast payload stayed corrupt through the bounded
    /// retransmit protocol.
    Corrupt {
        /// Root rank of the broadcast.
        root: usize,
        /// First rank still holding a corrupt payload.
        rank: usize,
        /// Delivery attempts made (initial broadcast + retransmits).
        attempts: u32,
    },
    /// A collective was called with inconsistent sizes (recoverable caller
    /// error: counts/buffer mismatch).
    CountMismatch {
        /// Which collective/buffer failed the check.
        what: &'static str,
        /// Expected element count.
        expected: usize,
        /// Actual element count.
        got: usize,
    },
    /// The designated root did not supply the value a rooted collective
    /// requires.
    MissingRoot {
        /// Which collective was missing its root value.
        what: &'static str,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Timeout {
                dst,
                src,
                tag,
                waited_ms,
                pending,
            } => {
                write!(
                    f,
                    "rank {dst}: no message from rank {src} with tag {tag:?} after \
                     {waited_ms} ms — mismatched send/recv or collective ordering \
                     (pass --comm-timeout to lengthen); pending queues: "
                )?;
                if pending.is_empty() {
                    write!(f, "none")
                } else {
                    let keys: Vec<String> = pending
                        .iter()
                        .map(|(s, t)| format!("(src={s}, {t:?})"))
                        .collect();
                    write!(f, "[{}]", keys.join(", "))
                }
            }
            CommError::RankFailed { rank, phase } => {
                write!(f, "rank {rank} failed during {phase} (fabric poisoned)")
            }
            CommError::Corrupt {
                root,
                rank,
                attempts,
            } => write!(
                f,
                "panel from root {root} still corrupt at rank {rank} after {attempts} attempts"
            ),
            CommError::CountMismatch {
                what,
                expected,
                got,
            } => write!(f, "{what}: expected {expected} elements, got {got}"),
            CommError::MissingRoot { what } => {
                write!(f, "{what}: root rank did not supply a value")
            }
        }
    }
}

impl std::error::Error for CommError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeout_display_keeps_legacy_diagnostic_and_dumps_pending() {
        let e = CommError::Timeout {
            dst: 1,
            src: 0,
            tag: Tag::user(9),
            waited_ms: 1500,
            pending: vec![(2, Tag::user(7))],
        };
        let s = e.to_string();
        assert!(s.contains("no message from rank 0"), "{s}");
        assert!(s.contains("pass --comm-timeout to lengthen"), "{s}");
        assert!(s.contains("src=2"), "{s}");
    }

    #[test]
    fn empty_pending_prints_none() {
        let e = CommError::Timeout {
            dst: 0,
            src: 1,
            tag: Tag::user(0),
            waited_ms: 10,
            pending: vec![],
        };
        assert!(e.to_string().contains("pending queues: none"));
    }

    #[test]
    fn other_variants_name_the_failure() {
        assert!(CommError::RankFailed {
            rank: 3,
            phase: "bcast".into()
        }
        .to_string()
        .contains("rank 3 failed during bcast"));
        assert!(CommError::Corrupt {
            root: 0,
            rank: 2,
            attempts: 3
        }
        .to_string()
        .contains("after 3 attempts"));
        assert!(CommError::MissingRoot { what: "bcast" }
            .to_string()
            .contains("bcast"));
    }
}
