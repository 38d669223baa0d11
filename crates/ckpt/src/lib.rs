//! # hpl-ckpt
//!
//! Coordinated, checksummed checkpoint/restart for the LU pipeline.
//!
//! At a panel boundary every `--ckpt-every K` iterations, each rank encodes
//! its slice of factorization state — the local block-cyclic matrix (which
//! at a boundary fully determines the remainder of the run), the global
//! pivot history of the completed panels, the iteration counter, and the
//! fault-injection cursors — into a self-describing binary [`Snapshot`]
//! ([`codec`]) and deposits it into a shared [`CkptStore`] ([`store`]).
//! The snapshot's trailer is the word-wide [`checksum()`], which the
//! transport frame codec in `hpl-comm` shares.
//!
//! The store is **double-buffered**: a checkpoint *generation* (one deposit
//! per rank) only becomes restorable once every rank has deposited, and the
//! last two complete generations are retained, so a crash mid-checkpoint
//! can never corrupt the last good snapshot. The on-disk backend writes
//! each deposit to a temporary file and promotes it with an atomic rename
//! for the same reason.
//!
//! Consistency protocol: the driver checkpoints at the *top* of a loop
//! iteration, when the trailing matrix is fully updated through the
//! previous panel and the current panel is not yet factored (look-ahead
//! schedules, which factor panel `k` one iteration early, substitute a
//! pre-factorization image of the panel columns so every schedule deposits
//! the same boundary state). Restoring generation `k` therefore lands every
//! rank exactly where an uninterrupted run stood when iteration `k` began,
//! and the deterministic pipeline replays identically from there.

pub mod checksum;
pub mod codec;
pub mod store;
pub mod words;

pub use checksum::{checksum, Checksum};
pub use codec::{decode, encode};
pub use store::CkptStore;

/// Identity of the run a snapshot belongs to. Restoring a snapshot into a
/// run with a different identity is a configuration error, caught by
/// [`Snapshot::validate_id`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct ConfigId {
    /// Global problem size `N`.
    pub n: u64,
    /// Panel width `NB`.
    pub nb: u64,
    /// Grid rows `P`.
    pub p: u64,
    /// Grid columns `Q`.
    pub q: u64,
    /// Matrix-generator seed.
    pub seed: u64,
    /// Schedule discriminant (0 = simple, 1 = look-ahead, 2 = split-update).
    pub schedule: u64,
    /// Bit pattern of the split-update fraction (0 for other schedules).
    pub frac_bits: u64,
}

/// One rank's checkpointed factorization state at a panel boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Identity of the run this snapshot belongs to.
    pub id: ConfigId,
    /// World rank that owns this slice.
    pub rank: u64,
    /// The iteration the restored run resumes at (the boundary iteration).
    pub next_iter: u64,
    /// Local row count of `data`.
    pub mloc: u64,
    /// Local column count of `data`.
    pub nloc: u64,
    /// Column-major local matrix slice (`mloc * nloc` values).
    pub data: Vec<f64>,
    /// Global pivot rows of the completed panels (columns `0..next_iter*nb`).
    pub pivots: Vec<u64>,
    /// Fault-injection cursors (per-site trigger counts) at the boundary.
    pub cursors: Vec<u64>,
}

impl Snapshot {
    /// Checks that this snapshot belongs to the run identified by `id`,
    /// returning the first mismatching field otherwise.
    pub fn validate_id(&self, id: &ConfigId) -> Result<(), CkptError> {
        let fields = [
            ("n", self.id.n, id.n),
            ("nb", self.id.nb, id.nb),
            ("p", self.id.p, id.p),
            ("q", self.id.q, id.q),
            ("seed", self.id.seed, id.seed),
            ("schedule", self.id.schedule, id.schedule),
            ("frac_bits", self.id.frac_bits, id.frac_bits),
        ];
        for (what, got, expected) in fields {
            if got != expected {
                return Err(CkptError::ConfigMismatch {
                    what,
                    expected,
                    got,
                });
            }
        }
        Ok(())
    }
}

/// Why a checkpoint operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CkptError {
    /// The byte stream ended before the advertised payload.
    Truncated {
        /// Bytes required by the header in scope.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The stream does not start with the `RCKP` magic.
    BadMagic(u32),
    /// The stream's format version is not understood.
    BadVersion(u32),
    /// The checksum trailer does not match the payload.
    Checksum {
        /// Checksum recorded in the trailer.
        expected: u64,
        /// Checksum recomputed over the payload.
        got: u64,
    },
    /// The snapshot belongs to a different run configuration.
    ConfigMismatch {
        /// Mismatching field name.
        what: &'static str,
        /// Value of the running configuration.
        expected: u64,
        /// Value recorded in the snapshot.
        got: u64,
    },
    /// No deposit exists for `(gen, rank)` in the store.
    Missing {
        /// Requested checkpoint generation.
        gen: u64,
        /// Requested rank.
        rank: usize,
    },
    /// A store I/O operation failed (on-disk backend).
    Io(String),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Truncated { need, have } => {
                write!(f, "snapshot truncated: need {need} bytes, have {have}")
            }
            CkptError::BadMagic(m) => write!(f, "bad snapshot magic {m:#010x}"),
            CkptError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            CkptError::Checksum { expected, got } => write!(
                f,
                "snapshot checksum mismatch: trailer {expected:#018x}, payload {got:#018x}"
            ),
            CkptError::ConfigMismatch {
                what,
                expected,
                got,
            } => write!(
                f,
                "snapshot from a different run: {what} = {got}, expected {expected}"
            ),
            CkptError::Missing { gen, rank } => {
                write!(f, "no deposit for generation {gen} rank {rank}")
            }
            CkptError::Io(e) => write!(f, "checkpoint store I/O error: {e}"),
        }
    }
}

impl std::error::Error for CkptError {}

/// True when iteration `it` is a checkpoint boundary under a `--ckpt-every`
/// cadence of `every` (0 disables checkpointing; iteration 0 is never a
/// boundary — there is nothing to save yet).
///
/// This is the *disabled-path guard* the driver evaluates every iteration;
/// it must stay branch-cheap (the trace_overhead harness pins its cost).
#[inline]
pub fn due(every: usize, it: usize) -> bool {
    every != 0 && it != 0 && it.is_multiple_of(every)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_matches_the_cadence() {
        assert!(!due(0, 0));
        assert!(!due(0, 4));
        assert!(!due(2, 0));
        assert!(!due(2, 1));
        assert!(due(2, 2));
        assert!(!due(2, 3));
        assert!(due(2, 4));
        assert!(due(1, 3));
    }

    #[test]
    fn validate_id_names_the_first_mismatch() {
        let id = ConfigId {
            n: 64,
            nb: 8,
            p: 2,
            q: 2,
            seed: 42,
            schedule: 2,
            frac_bits: 0.5f64.to_bits(),
        };
        let snap = Snapshot {
            id,
            rank: 0,
            next_iter: 2,
            mloc: 0,
            nloc: 0,
            data: vec![],
            pivots: vec![],
            cursors: vec![],
        };
        assert_eq!(snap.validate_id(&id), Ok(()));
        let other = ConfigId { seed: 43, ..id };
        assert_eq!(
            snap.validate_id(&other),
            Err(CkptError::ConfigMismatch {
                what: "seed",
                expected: 43,
                got: 42
            })
        );
    }
}
