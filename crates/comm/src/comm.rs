//! The [`Communicator`]: a rank's handle to one communication context,
//! offering MPI-style typed point-to-point operations and `split` for
//! building row/column sub-communicators.
//!
//! Every communicator is a *view* ([`CommView`]) over its job's one
//! world-sized fabric: a member list mapping local ranks to world ranks,
//! plus a context id folded into the tag bits from [`Tag::CTX_SHIFT`] up,
//! above the collective range, so traffic of sibling communicators can
//! never cross-match. The world communicator is the identity view with
//! context 0. The same views run on every transport — the in-process
//! fabric shared by all rank threads, and a transport-backed endpoint (one
//! OS process per rank, or the thread-mode harness) whose only receiving
//! mailbox is its own. Every typed payload crossing a process boundary is
//! encoded through [`Wire`] into a [`Packet`] *before* the fabric choke
//! point, so fault injection, stats and traced bytes see the identical
//! send either way — the invariant behind transport-invariant `seq_hash`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::CommError;
use crate::fabric::{CommStats, Fabric, Tag};
use crate::transport::wire::{Packet, SplitInfo, Wire, WireElem};

/// One communicator as seen by one of its members: which world ranks it
/// spans, the context its tags carry, and this member's own traffic ledger.
struct CommView {
    /// Folded into bits `Tag::CTX_SHIFT..` of every tag on this
    /// communicator; 0 for the world.
    ctx: u64,
    /// World rank of each member, indexed by local rank.
    members: Vec<usize>,
    /// Ordered split counter for deriving child contexts (the world
    /// communicator counts on its fabric instead; see [`Communicator::split`]).
    split_seq: AtomicU64,
    /// This member's sends on this communicator.
    stats: CommStats,
}

/// A rank's endpoint in one communicator (the analogue of an `MPI_Comm`
/// plus the caller's rank in it).
///
/// `Clone` produces another handle to the *same* context (same context id,
/// same rank, same stats) — useful for inspecting [`Communicator::stats`]
/// after a call that consumed the original handle. For a fresh isolated
/// context, call [`Communicator::split`] with one color.
#[derive(Clone)]
pub struct Communicator {
    fabric: Arc<Fabric>,
    rank: usize,
    view: Arc<CommView>,
}

impl Communicator {
    /// World rank `rank`'s world communicator on `fabric`: the identity
    /// view with context 0.
    pub(crate) fn new(fabric: Arc<Fabric>, rank: usize) -> Self {
        let members = (0..fabric.size()).collect();
        Self {
            fabric,
            rank,
            view: Arc::new(CommView {
                ctx: 0,
                members,
                split_seq: AtomicU64::new(0),
                stats: CommStats::default(),
            }),
        }
    }

    /// Wraps a [`Fabric::remote`] endpoint as that rank's world
    /// communicator — the entry point for process-per-rank launchers that
    /// wire their own transport instead of going through
    /// [`crate::universe::Universe`]. Each call is a fresh handle with its
    /// own stats; splits of it continue the fabric's context sequence, so
    /// they never reuse an earlier endpoint's contexts.
    pub fn endpoint(fabric: Arc<Fabric>) -> Self {
        let rank = fabric
            .remote_rank()
            .expect("Communicator::endpoint needs a remote fabric");
        Self::new(fabric, rank)
    }

    /// This rank's id in `0..size()`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.view.members.len()
    }

    /// World (fabric) rank of local rank `r` on this communicator.
    #[inline]
    fn world_of(&self, r: usize) -> usize {
        self.view.members[r]
    }

    /// This communicator's context folded into `tag`.
    #[inline]
    fn fold(&self, tag: Tag) -> Tag {
        Tag(tag.0 | (self.view.ctx << Tag::CTX_SHIFT))
    }

    /// True when payloads must cross a process boundary to reach `dst`.
    #[inline]
    fn crosses_process(&self, world_dst: usize) -> bool {
        self.fabric.remote_rank().is_some_and(|me| world_dst != me)
    }

    /// Sends `value` to `dst` with `tag`. Asynchronous: never blocks.
    pub fn send<T: Wire>(&self, dst: usize, tag: Tag, value: T) {
        if let Err(e) = self.try_send(dst, tag, value) {
            let CommError::RankFailed { rank, phase } = e else {
                // try_send's only errors are deaths (own or a peer's).
                unreachable!("unexpected send error: {e}");
            };
            std::panic::panic_any(hpl_faults::RankDeath { rank, phase });
        }
    }

    /// Sends an element slice (copied) to `dst`; counted in element stats.
    pub fn send_slice<E: WireElem>(&self, dst: usize, tag: Tag, data: &[E]) {
        if let Err(e) = self.try_send_slice(dst, tag, data) {
            let CommError::RankFailed { rank, phase } = e else {
                // try_send_slice's only errors are deaths (own or a peer's).
                unreachable!("unexpected send error: {e}");
            };
            std::panic::panic_any(hpl_faults::RankDeath { rank, phase });
        }
    }

    /// Fallible [`Communicator::send`]: the only error is a death — this
    /// rank's own injected one, or (transport-backed) a destination whose
    /// link is gone — returned after poisoning the job instead of unwinding
    /// so collectives running on pool worker threads can exit their
    /// parallel region cleanly.
    pub fn try_send<T: Wire>(&self, dst: usize, tag: Tag, value: T) -> Result<(), CommError> {
        self.try_send_counted(dst, tag, value, 1)
    }

    /// Fallible [`Communicator::send_slice`]; see [`Communicator::try_send`].
    pub fn try_send_slice<E: WireElem>(
        &self,
        dst: usize,
        tag: Tag,
        data: &[E],
    ) -> Result<(), CommError> {
        E::vec_send(self, dst, tag, data.to_vec(), data.len() as u64)
    }

    pub(crate) fn try_send_counted<T: Wire>(
        &self,
        dst: usize,
        tag: Tag,
        value: T,
        elems: u64,
    ) -> Result<(), CommError> {
        let world_dst = self.world_of(dst);
        let world_src = self.world_of(self.rank);
        let tag = self.fold(tag);
        // Encode *before* the choke point so the fault hooks (which fire
        // inside `try_send_counted`) mutate the bytes that actually travel.
        let boxed: Box<dyn std::any::Any + Send> = if self.crosses_process(world_dst) {
            Box::new(Packet::pack(&value))
        } else {
            Box::new(value)
        };
        self.fabric
            .try_send_counted(&self.view.stats, world_src, world_dst, tag, boxed, elems)
    }

    /// Receives a `T` from `(src, tag)`, blocking. Panics if the matching
    /// message has a different payload type (a programming error on the
    /// matched send side).
    pub fn recv<T: Wire>(&self, src: usize, tag: Tag) -> T {
        self.try_recv(src, tag).unwrap_or_else(|e| {
            // Deadlock/death diagnostics must fail loudly on the infallible
            // path (see `Fabric::recv`).
            // xtask-allow: no-panic, error-taxonomy — deadlock diagnostics
            panic!("{e}")
        })
    }

    /// Fallible [`Communicator::recv`]: returns [`CommError::Timeout`] (with
    /// the mailbox's pending `(src, tag)` keys) instead of wedging until the
    /// deadlock detector panics, [`CommError::RankFailed`] when the job was
    /// poisoned by a dead rank, and [`CommError::Corrupt`] when a
    /// transport-delivered payload failed its frame checksum or cannot be
    /// decoded as `T`. A payload-type mismatch on the in-process path still
    /// panics — that is a bug in the matched send, not a runtime condition.
    pub fn try_recv<T: Wire>(&self, src: usize, tag: Tag) -> Result<T, CommError> {
        let world_src = self.world_of(src);
        let world_dst = self.world_of(self.rank);
        let tag = self.fold(tag);
        let any = self.fabric.try_recv(world_dst, world_src, tag)?;
        let any = match any.downcast::<T>() {
            Ok(v) => return Ok(*v),
            Err(original) => original,
        };
        match any.downcast::<Packet>() {
            Ok(pkt) => pkt.unpack::<T>().ok_or(CommError::Corrupt {
                root: src,
                rank: self.rank,
                attempts: 1,
            }),
            Err(_) => {
                // A payload-type mismatch is a bug in the matched send, not
                // a runtime error (documented on the method).
                // xtask-allow: no-panic, error-taxonomy — programming-error contract
                panic!(
                    "rank {}: recv type mismatch from rank {src} tag {tag:?} (expected {})",
                    self.rank,
                    std::any::type_name::<T>()
                )
            }
        }
    }

    /// Receives a `Vec<E>` from `(src, tag)` into `buf` (lengths must
    /// match). The vector-copy variant of [`Communicator::recv`].
    pub fn recv_into<E: WireElem>(&self, src: usize, tag: Tag, buf: &mut [E]) {
        let v: Vec<E> = E::vec_recv(self, src, tag).unwrap_or_else(|e| {
            // Same rationale as `recv`: diagnostics must fail loudly on the
            // infallible path.
            // xtask-allow: no-panic, error-taxonomy — deadlock diagnostics
            panic!("{e}")
        });
        assert_eq!(v.len(), buf.len(), "recv_into length mismatch");
        buf.copy_from_slice(&v);
    }

    /// Fallible [`Communicator::recv_into`]: a length mismatch (which an
    /// injected corruption cannot cause, but a protocol bug can) comes back
    /// as [`CommError::CountMismatch`] instead of a panic.
    pub fn try_recv_into<E: WireElem>(
        &self,
        src: usize,
        tag: Tag,
        buf: &mut [E],
    ) -> Result<(), CommError> {
        let v: Vec<E> = E::vec_recv(self, src, tag)?;
        if v.len() != buf.len() {
            return Err(CommError::CountMismatch {
                what: "recv_into",
                expected: buf.len(),
                got: v.len(),
            });
        }
        buf.copy_from_slice(&v);
        Ok(())
    }

    /// Simultaneous exchange: sends `send` to `dst` and receives the
    /// matching message from `src`. Safe against head-of-line blocking
    /// because sends never block.
    pub fn sendrecv<E: WireElem>(&self, dst: usize, src: usize, tag: Tag, send: &[E]) -> Vec<E> {
        self.send_slice(dst, tag, send);
        E::vec_recv(self, src, tag).unwrap_or_else(|e| {
            // Same rationale as `recv`: diagnostics must fail loudly on the
            // infallible path.
            // xtask-allow: no-panic, error-taxonomy — deadlock diagnostics
            panic!("{e}")
        })
    }

    /// Traffic statistics for this rank on this communicator.
    pub fn stats(&self) -> &CommStats {
        &self.view.stats
    }

    /// The fault injector armed on this job, if any (`None` in production
    /// runs; the checked broadcast path keys off this).
    pub fn fault_injector(&self) -> Option<Arc<hpl_faults::Injector>> {
        self.fabric.fault_injector()
    }

    /// `(rank, phase)` of the first rank death recorded on this job, if any.
    pub fn poison_info(&self) -> Option<(usize, String)> {
        self.fabric.poison_info()
    }

    /// The retry/backoff policy installed on this job's fabric (shared by
    /// timed-out receive polls and ABFT retransmit rounds).
    pub fn retry_policy(&self) -> crate::fabric::RetryPolicy {
        self.fabric.retry_policy()
    }

    /// Records one ABFT retransmit applied on the calling world rank (used
    /// by [`crate::abft::panel_bcast_checked`]; surfaced per rank in
    /// [`crate::universe::FaultedRun`]).
    pub fn note_abft_repair(&self) {
        self.fabric.counters().note_abft_repair();
    }

    /// Timed-out receive polls retried with backoff on the calling world
    /// rank so far, across every communicator of this job.
    /// Zero when called off a rank thread (no world rank registered).
    pub fn comm_retries(&self) -> u64 {
        hpl_faults::world_rank()
            .map(|r| self.fabric.counters().retries(r))
            .unwrap_or(0)
    }

    /// Splits the communicator: ranks passing the same `color` form a new
    /// communicator, ordered by `(key, parent rank)`. Collective — every
    /// rank of the parent must call it.
    ///
    /// Rank 0 gathers every `(color, key)` and sends each member its
    /// [`SplitInfo`]; the result is a view over the same world fabric with
    /// a context id every member derives identically from the parent's
    /// ordered split count — no coordination traffic beyond the handshake.
    pub fn split(&self, color: usize, key: usize) -> Communicator {
        let n = self.size();
        let parent = &self.view;
        // The world communicator counts on the fabric, per world rank, so
        // endpoints opened later on the same fabric keep advancing it.
        let seq = if parent.ctx == 0 {
            self.fabric.next_split_seq(self.world_of(self.rank))
        } else {
            parent.split_seq.fetch_add(1, Ordering::SeqCst)
        };
        // 64 split contexts per communicator before the (debug-checked)
        // fold budget above Tag::CTX_SHIFT is exhausted — HPL performs two.
        debug_assert!(seq < 64, "more than 64 splits of one communicator");
        let ctx = parent.ctx * 64 + seq + 1;
        debug_assert!(ctx < (1 << (64 - Tag::CTX_SHIFT)), "split context overflow");
        let info: SplitInfo = if self.rank == 0 {
            let mut entries: Vec<(usize, usize, usize)> = Vec::with_capacity(n);
            entries.push((color, key, 0));
            for src in 1..n {
                let (c, k): (usize, usize) = self.recv(src, Tag::SPLIT);
                entries.push((c, k, src));
            }
            let mut colors: Vec<usize> = entries.iter().map(|e| e.0).collect();
            colors.sort_unstable();
            colors.dedup();
            let mut mine = None;
            for c in colors {
                let mut members: Vec<(usize, usize, usize)> =
                    entries.iter().copied().filter(|e| e.0 == c).collect();
                members.sort_by_key(|&(_, k, r)| (k, r));
                let world_members: Vec<usize> =
                    members.iter().map(|&(_, _, r)| self.world_of(r)).collect();
                for (new_rank, &(_, _, parent_rank)) in members.iter().enumerate() {
                    let info = SplitInfo {
                        members: world_members.clone(),
                        new_rank,
                    };
                    if parent_rank == 0 {
                        mine = Some(info);
                    } else {
                        self.send(parent_rank, Tag::SPLIT, info);
                    }
                }
            }
            mine.expect("rank 0 belongs to some color group")
        } else {
            self.send(0, Tag::SPLIT, (color, key));
            self.recv(0, Tag::SPLIT)
        };
        Communicator {
            fabric: Arc::clone(&self.fabric),
            rank: info.new_rank,
            view: Arc::new(CommView {
                ctx,
                members: info.members,
                split_seq: AtomicU64::new(0),
                stats: CommStats::default(),
            }),
        }
    }

    /// Control-plane gather of one `u64` stream per rank to rank 0 (which
    /// returns `Some(streams)` indexed by local rank; everyone else gets
    /// `None`). Used by launchers to assemble the cross-rank `seq_hash`
    /// after a run; rides the control plane so it is invisible to stats,
    /// fault hooks and trace byte attribution.
    pub fn ctrl_gather_words(&self, mine: Vec<u64>) -> Result<Option<Vec<Vec<u64>>>, CommError> {
        let n = self.size();
        let tag = self.fold(Tag::TRACE);
        let me = self.world_of(self.rank);
        if self.rank == 0 {
            let mut streams = Vec::with_capacity(n);
            streams.push(mine);
            for src in 1..n {
                let from = self.world_of(src);
                let any = self.fabric.ctrl_recv(me, from, tag)?;
                let words = any
                    .downcast::<Packet>()
                    .ok()
                    .and_then(|p| p.unpack::<Vec<u64>>())
                    .ok_or(CommError::Corrupt {
                        root: src,
                        rank: self.rank,
                        attempts: 1,
                    })?;
                streams.push(words);
            }
            Ok(Some(streams))
        } else {
            let root = self.world_of(0);
            self.fabric.ctrl_send(me, root, tag, Packet::pack(&mine))?;
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricOpts;
    use crate::transport::TransportSel;
    use crate::universe::Universe;

    #[test]
    fn p2p_roundtrip() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, Tag::user(1), vec![1.0f64, 2.0, 3.0]);
                let back: Vec<f64> = comm.recv(1, Tag::user(2));
                assert_eq!(back, vec![6.0]);
            } else {
                let v: Vec<f64> = comm.recv(0, Tag::user(1));
                comm.send(0, Tag::user(2), vec![v.iter().sum::<f64>()]);
            }
        });
    }

    #[test]
    fn sendrecv_ring_rotates() {
        let out = Universe::run(4, |comm| {
            let r = comm.rank();
            let n = comm.size();
            let got = comm.sendrecv((r + 1) % n, (r + n - 1) % n, Tag::user(0), &[r as f64]);
            got[0] as usize
        });
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    fn split_into_rows() {
        // 6 ranks -> 2 rows of 3 (color = rank / 3).
        let out = Universe::run(6, |comm| {
            let color = comm.rank() / 3;
            let sub = comm.split(color, comm.rank());
            assert_eq!(sub.size(), 3);
            // Ranks within a row are ordered by parent rank.
            assert_eq!(sub.rank(), comm.rank() % 3);
            // Sub-communicators are isolated: an exchange inside.
            let got = sub.sendrecv(
                (sub.rank() + 1) % 3,
                (sub.rank() + 2) % 3,
                Tag::user(5),
                &[comm.rank() as f64],
            );
            got[0] as usize
        });
        assert_eq!(out, vec![2, 0, 1, 5, 3, 4]);
    }

    #[test]
    fn split_respects_key_order() {
        let out = Universe::run(4, |comm| {
            // Reverse ordering via key.
            let sub = comm.split(0, 100 - comm.rank());
            sub.rank()
        });
        assert_eq!(out, vec![3, 2, 1, 0]);
    }

    #[test]
    fn duplicate_is_isolated() {
        Universe::run(3, |comm| {
            // One color keyed by parent rank: a duplicate, like
            // `MPI_Comm_dup`, with a fresh context.
            let dup = comm.split(0, comm.rank());
            assert_eq!(dup.rank(), comm.rank());
            assert_eq!(dup.size(), 3);
            // Message sent on dup must not be receivable on comm (different
            // context, same tag) — exchange on both and check values.
            let a = dup.sendrecv(
                (dup.rank() + 1) % 3,
                (dup.rank() + 2) % 3,
                Tag::user(9),
                &[dup.rank() as f64 * 10.0],
            );
            let b = comm.sendrecv(
                (comm.rank() + 1) % 3,
                (comm.rank() + 2) % 3,
                Tag::user(9),
                &[comm.rank() as f64],
            );
            assert_eq!(a[0], ((comm.rank() + 2) % 3) as f64 * 10.0);
            assert_eq!(b[0], ((comm.rank() + 2) % 3) as f64);
        });
    }

    #[test]
    fn sub_communicators_match_on_every_transport() {
        // 6 ranks as 2 rows x 3 columns, and each row split again into its
        // first member and the rest. Every communicator rotates the world
        // rank one step on the *same* user tag, so a context leak between
        // them would deliver a wrong value.
        let run = |sel| {
            Universe::run_with_transport(6, sel, FabricOpts::default(), |world| {
                let r = world.rank();
                let row = world.split(r / 3, r);
                let col = world.split(r % 3, r);
                let head = row.split(usize::from(row.rank() > 0), row.rank());
                let comms = [&world, &row, &col, &head];
                let got = comms.map(|c| {
                    let (me, n) = (c.rank(), c.size());
                    let v = c.sendrecv((me + 1) % n, (me + n - 1) % n, Tag::user(1), &[r as f64]);
                    v[0] as usize
                });
                (got, comms.map(|c| c.stats().snapshot()))
            })
        };
        let inproc = run(TransportSel::Inproc);
        let got: Vec<[usize; 4]> = inproc.iter().map(|o| o.0).collect();
        assert_eq!(
            got,
            vec![
                [5, 2, 3, 0],
                [0, 0, 4, 2],
                [1, 1, 5, 1],
                [2, 5, 0, 3],
                [3, 3, 1, 5],
                [4, 4, 2, 4]
            ]
        );
        for sel in [TransportSel::Tcp, TransportSel::Shm] {
            assert_eq!(run(sel), inproc, "{sel:?} diverged from inproc");
        }
    }

    #[test]
    fn death_unblocks_a_column_receive_on_every_transport() {
        for sel in [TransportSel::Inproc, TransportSel::Tcp, TransportSel::Shm] {
            let seen = std::sync::Mutex::new(None);
            let t0 = std::time::Instant::now();
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Universe::run_with_transport(6, sel, FabricOpts::default(), |world| {
                    let r = world.rank();
                    let col = world.split(r % 3, r);
                    match r {
                        // Column peer 1 (world rank 3) never sends.
                        0 => *seen.lock().unwrap() = Some(col.try_recv::<u32>(1, Tag::user(2))),
                        1 => {
                            std::thread::sleep(std::time::Duration::from_millis(50));
                            panic!("rank 1 killed");
                        }
                        _ => {}
                    }
                })
            }));
            assert!(
                run.is_err(),
                "{sel:?}: the killed rank's panic must re-raise"
            );
            let seen = seen.into_inner().unwrap();
            assert!(
                matches!(seen, Some(Err(CommError::RankFailed { rank: 1, .. }))),
                "{sel:?}: {seen:?}"
            );
            assert!(
                t0.elapsed() < std::time::Duration::from_secs(5),
                "{sel:?}: took {:?}",
                t0.elapsed()
            );
        }
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn recv_type_mismatch_panics() {
        // Single-rank "self-send" keeps the panic on the main thread.
        Universe::run(1, |comm| {
            comm.send(0, Tag::user(0), 42u32);
            let _: Vec<f64> = comm.recv(0, Tag::user(0));
        });
    }
}
