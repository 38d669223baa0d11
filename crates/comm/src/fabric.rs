//! The message fabric: per-rank mailboxes with MPI-style `(source, tag)`
//! matching.
//!
//! Sends are asynchronous (the payload is moved into the destination's
//! mailbox and the sender continues immediately — "eager protocol");
//! receives block until a matching message arrives. Message order between a
//! fixed `(source, tag)` pair is FIFO, which is what MPI guarantees per
//! (source, tag, communicator) and what the collective algorithms rely on.
//! Each rank's mailbox is the lock-free SPSC inbox of [`crate::spsc`].
//!
//! Two robustness layers live at this choke point, mirroring where
//! `hpl-trace` attributes payload bytes:
//!
//! * **Fault injection** — an optional armed [`hpl_faults::Injector`] decides
//!   per send/recv whether to delay, drop-and-retransmit, bit-flip, stall,
//!   or kill the rank. The unarmed path costs one `Option` discriminant
//!   check, gated by the same bench budget as a disabled trace span.
//! * **Poisoning** — when a rank dies (injected death or a panic on its
//!   thread), the fabric is poisoned with the rank's identity. Every blocked
//!   and future receive on the job — on the world communicator and every
//!   split of it alike, since a split is only a view over the one world
//!   fabric — fails promptly with [`CommError::RankFailed`] instead of
//!   wedging until the deadlock detector fires.

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::CommError;
use crate::spsc::LockfreeMailbox;
use crate::transport::frame::{Frame, FrameKind};
use crate::transport::wire::{Packet, VEC_F32_WIRE_ID, VEC_F64_WIRE_ID};
use crate::transport::{FrameSink, LinkStat, Transport};

/// Message tag. User tags live below [`Tag::RESERVED_BASE`]; the collective
/// implementations use reserved tags above it so user point-to-point traffic
/// can never match a collective's internal messages. A communicator folds
/// its context id into the bits from [`Tag::CTX_SHIFT`] up, so traffic of
/// sibling communicators can never cross-match either.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag(pub u64);

impl Tag {
    /// First reserved tag value; see type docs.
    pub const RESERVED_BASE: u64 = 1 << 48;

    /// Context ids occupy the tag bits from here up; reserved collective
    /// tags stay below it (`RESERVED_BASE` plus offsets < 64).
    pub const CTX_SHIFT: u32 = 50;

    pub(crate) const BCAST: Tag = Tag(Self::RESERVED_BASE + 1);
    pub(crate) const REDUCE: Tag = Tag(Self::RESERVED_BASE + 2);
    pub(crate) const GATHER: Tag = Tag(Self::RESERVED_BASE + 3);
    pub(crate) const SCATTER: Tag = Tag(Self::RESERVED_BASE + 4);
    pub(crate) const ALLGATHER: Tag = Tag(Self::RESERVED_BASE + 5);
    pub(crate) const SPLIT: Tag = Tag(Self::RESERVED_BASE + 6);
    pub(crate) const RING: Tag = Tag(Self::RESERVED_BASE + 7);
    pub(crate) const ABFT_SUM: Tag = Tag(Self::RESERVED_BASE + 8);
    pub(crate) const ABFT_ACK: Tag = Tag(Self::RESERVED_BASE + 9);
    pub(crate) const ABFT_CTRL: Tag = Tag(Self::RESERVED_BASE + 10);
    pub(crate) const TRACE: Tag = Tag(Self::RESERVED_BASE + 12);

    /// Creates a user tag; panics on collision with the reserved range.
    pub fn user(t: u64) -> Tag {
        assert!(
            t < Self::RESERVED_BASE,
            "tag {t} collides with reserved range"
        );
        Tag(t)
    }

    /// The tag with its communicator context stripped: the value the
    /// sender passed.
    pub fn base(self) -> u64 {
        self.0 & ((1 << Self::CTX_SHIFT) - 1)
    }

    /// The context id of the communicator the tag was sent on (0 for the
    /// world communicator).
    pub fn ctx(self) -> u64 {
        self.0 >> Self::CTX_SHIFT
    }
}

impl std::fmt::Display for Tag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tag={} ctx={}", self.base(), self.ctx())
    }
}

type Boxed = Box<dyn Any + Send>;

/// SPSC ring capacity per `(src, dst)` pair; deep enough that the
/// collectives and look-ahead panel traffic never spill in practice,
/// small enough to stay cache-resident. [`FabricOpts::mailbox_cap`]
/// overrides it — the spill lane makes any capacity correct, so tests pass
/// tiny values to force the overflow path.
const DEFAULT_RING_CAP: usize = 64;

/// Process-wide timeout override installed by [`set_comm_timeout`].
static TIMEOUT_OVERRIDE: std::sync::OnceLock<std::time::Duration> = std::sync::OnceLock::new();

/// Installs a process-wide receive timeout (the CLI's `--comm-timeout`
/// flag). First call wins, later calls are ignored (returns whether this
/// call installed it).
pub fn set_comm_timeout(timeout: std::time::Duration) -> bool {
    TIMEOUT_OVERRIDE.set(timeout.max(MIN_TIMEOUT)).is_ok()
}

/// Floor applied to every timeout source: sub-second timeouts would race
/// the 100 ms poison-poll step.
const MIN_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(1);

/// How long a `recv` waits before declaring the run deadlocked: the
/// [`set_comm_timeout`] override, or 120 s when there is none.
pub fn recv_timeout() -> std::time::Duration {
    TIMEOUT_OVERRIDE
        .get()
        .copied()
        .unwrap_or(std::time::Duration::from_secs(120))
}

/// Bounded-exponential-backoff schedule for blocked receives and
/// drop-retransmit recovery: attempt `a` waits `base * 2^a` (capped), with
/// a deterministic ±`jitter_frac` perturbation derived by hashing
/// `(salt, attempt)` — no RNG state, so a replayed run backs off
/// identically. Transient delay/drop faults are absorbed by these retry
/// rounds; only when the cumulative wait crosses the receive timeout does
/// the fabric escalate to [`CommError::Timeout`] (and poisoning escalates
/// to [`CommError::RankFailed`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// First backoff step, microseconds.
    pub base_us: u64,
    /// Largest backoff step, microseconds (also bounded by the 100 ms
    /// poison-poll step at the wait site).
    pub cap_us: u64,
    /// Jitter amplitude as a fraction of the step (0.0 disables).
    pub jitter_frac: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            base_us: 1_000,
            cap_us: WAIT_STEP.as_micros() as u64,
            jitter_frac: 0.25,
        }
    }
}

impl RetryPolicy {
    /// The wait for retry round `attempt` (0-based), jittered by `salt`.
    pub fn backoff(&self, salt: u64, attempt: u32) -> std::time::Duration {
        let exp = self
            .base_us
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.cap_us.max(1));
        // SplitMix64-style finalizer: deterministic jitter without RNG state.
        let mut z = salt
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(attempt).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        let factor = 1.0 + (unit * 2.0 - 1.0) * self.jitter_frac;
        let us = ((exp as f64 * factor) as u64).clamp(1, self.cap_us.max(1));
        std::time::Duration::from_micros(us)
    }
}

/// Per-world-rank recovery observability counters. Every communicator of a
/// job, world or split, counts into its fabric's ledger; the thread-mode
/// transport harness hands all rank endpoints one shared ledger so a run
/// report aggregates like the in-process fabric. `retries` counts timed-out
/// receive poll rounds (the backoff ladder absorbing delay/stall faults);
/// `abft_repairs` counts checksummed-broadcast retransmissions applied
/// (see `abft`). Indexed by the thread's world rank; threads outside the
/// rank universe (pool workers) skip counting.
#[derive(Debug)]
pub struct RecoveryCounters {
    retries: Vec<AtomicU64>,
    abft_repairs: Vec<AtomicU64>,
}

impl RecoveryCounters {
    /// Zeroed counters for a `size`-rank world.
    pub fn new(size: usize) -> Self {
        Self {
            retries: (0..size).map(|_| AtomicU64::new(0)).collect(),
            abft_repairs: (0..size).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn bump(slots: &[AtomicU64]) {
        if let Some(r) = hpl_faults::world_rank() {
            if let Some(c) = slots.get(r) {
                c.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Records one timed-out receive poll round on the calling thread's rank.
    pub fn note_retry(&self) {
        Self::bump(&self.retries);
    }

    /// Records one applied ABFT retransmission on the calling thread's rank.
    pub fn note_abft_repair(&self) {
        Self::bump(&self.abft_repairs);
    }

    /// Retry count of `rank`.
    pub fn retries(&self, rank: usize) -> u64 {
        self.retries
            .get(rank)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// ABFT repair count of `rank`.
    pub fn abft_repairs(&self, rank: usize) -> u64 {
        self.abft_repairs
            .get(rank)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Per-rank retry counts.
    pub fn retries_snapshot(&self) -> Vec<u64> {
        self.retries
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Per-rank ABFT repair counts.
    pub fn abft_repairs_snapshot(&self) -> Vec<u64> {
        self.abft_repairs
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

/// Death token for one job. Every communicator of the job is a view over
/// the same fabric, so a rank dying anywhere poisons all of them; blocked
/// receives observe the flag (woken, or at the next ≤100 ms poll step) and
/// unwind with the recorded identity.
#[derive(Default)]
pub(crate) struct Poison {
    flag: AtomicBool,
    info: Mutex<Option<(usize, String)>>,
}

impl Poison {
    fn set(&self, rank: usize, phase: &str) {
        let mut info = self.info.lock();
        // First death wins: it is the root cause every peer should report.
        if info.is_none() {
            *info = Some((rank, phase.to_string()));
        }
        self.flag.store(true, Ordering::Release);
    }

    fn get(&self) -> Option<(usize, String)> {
        if !self.flag.load(Ordering::Acquire) {
            return None;
        }
        self.info.lock().clone()
    }

    /// Cheap flag-only probe for wait loops (no info lock).
    fn is_set(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Per-rank traffic counters, useful for asserting the structural properties
/// of collective algorithms (message counts, communicated volume).
#[derive(Debug, Default)]
pub struct CommStats {
    /// Messages sent by this rank.
    pub messages_sent: AtomicU64,
    /// Total `f64`-equivalent elements sent (best-effort: only counted by
    /// the slice-payload helpers; `Any` payloads count as one element).
    pub elems_sent: AtomicU64,
}

impl CommStats {
    /// Snapshot `(messages_sent, elems_sent)`.
    pub fn snapshot(&self) -> (u64, u64) {
        (
            self.messages_sent.load(Ordering::Relaxed),
            self.elems_sent.load(Ordering::Relaxed),
        )
    }

    pub(crate) fn count(&self, elems: u64) {
        self.messages_sent.fetch_add(1, Ordering::Relaxed);
        self.elems_sent.fetch_add(elems, Ordering::Relaxed);
    }
}

/// The shared state of one job's world: `size` mailboxes, the job's poison
/// token, and the (optional) armed fault injector. Every communicator —
/// the world and each split of it — is a view over this one fabric.
pub struct Fabric {
    boxes: Vec<LockfreeMailbox>,
    poison: Poison,
    faults: Option<Arc<hpl_faults::Injector>>,
    /// Per-fabric receive-timeout override; falls back to [`recv_timeout`].
    timeout: Option<std::time::Duration>,
    retry: RetryPolicy,
    counters: Arc<RecoveryCounters>,
    /// Per-world-rank count of splits of the world communicator: every
    /// rank performs the same ordered sequence of collective `split` calls,
    /// so this yields identical context ids without coordination traffic.
    /// Kept on the fabric, not the world communicator, so endpoints opened
    /// later on the same fabric never reuse a context.
    split_seq: Vec<AtomicU64>,
    /// Remote endpoint state when this fabric is one rank of a
    /// transport-backed universe (`None` for the in-process oracle).
    remote: Option<RemoteCtx>,
}

/// What turns a world-sized fabric into *one rank's endpoint*: only
/// `boxes[my_rank]` ever receives; sends to other ranks are encoded into
/// frames and pushed through the attached [`Transport`].
pub(crate) struct RemoteCtx {
    my_rank: usize,
    /// Wired after construction (the sink needs the fabric `Arc` first).
    transport: std::sync::OnceLock<Arc<dyn Transport>>,
    /// Guards the one-shot Death broadcast in [`Fabric::poison`].
    death_sent: AtomicBool,
}

/// The fabric side of frame delivery: reader threads hold this (weakly)
/// and deposit into the owning rank's mailbox.
struct FabricSink {
    fabric: std::sync::Weak<Fabric>,
}

impl FrameSink for FabricSink {
    fn deliver(&self, frame: Frame, sum_ok: bool) {
        let Some(f) = self.fabric.upgrade() else {
            return;
        };
        let Some(r) = &f.remote else { return };
        let src = frame.src as usize;
        if src >= f.boxes.len() || frame.dst as usize != r.my_rank {
            return; // misrouted frame: drop rather than corrupt matching
        }
        let pkt = Packet {
            wire_id: frame.wire_id,
            bytes: frame.payload,
            corrupt: !sum_ok,
        };
        f.boxes[r.my_rank].deposit(src, Tag(frame.tag), Box::new(pkt));
    }

    fn peer_death(&self, _from: usize, dead: usize, phase: &str) {
        if let Some(f) = self.fabric.upgrade() {
            f.poison_observed(dead, phase);
        }
    }

    fn link_down(&self, src: usize, clean: bool) {
        if !clean {
            if let Some(f) = self.fabric.upgrade() {
                f.poison_observed(src, "link-lost");
            }
        }
    }
}

/// Longest single park of a blocked receive: each expiry advances the
/// timeout ladder and re-checks the poison flag, so even a missed wakeup
/// unwinds well inside the <5 s budget, while staying invisible on the
/// happy path (waits are normally satisfied by a notify, not the poll).
const WAIT_STEP: std::time::Duration = std::time::Duration::from_millis(100);

/// Robustness configuration for [`Fabric::new`] and [`Fabric::remote`].
#[derive(Clone, Default)]
pub struct FabricOpts {
    /// Armed fault injector, if any.
    pub faults: Option<Arc<hpl_faults::Injector>>,
    /// Receive timeout for this fabric; `None` uses the process-wide
    /// [`recv_timeout`] resolution.
    pub timeout: Option<std::time::Duration>,
    /// Backoff schedule for blocked receives and drop-retransmit recovery.
    pub retry: RetryPolicy,
    /// SPSC ring capacity override; `None` uses the built-in default.
    /// Tests pass tiny values to force the spill lane.
    pub mailbox_cap: Option<usize>,
}

impl Fabric {
    /// Creates an in-process fabric connecting `size` ranks, with the
    /// robustness options (timeout, retry policy, fault injector, ring
    /// capacity) of `opts`.
    pub fn new(size: usize, opts: FabricOpts) -> Arc<Self> {
        Self::build(size, opts, Arc::new(RecoveryCounters::new(size)), None)
    }

    /// Creates *one rank's endpoint* of a `size`-rank transport-backed
    /// universe: only `boxes[my_rank]` receives (fed by the transport's
    /// reader threads); sends to any other rank are framed and pushed
    /// through the transport wired by [`Fabric::attach_transport`]. The
    /// thread-mode harness passes every endpoint the same `counters` so a
    /// run report aggregates like the in-process fabric; a process-per-rank
    /// launcher passes fresh ones.
    pub fn remote(
        size: usize,
        my_rank: usize,
        opts: FabricOpts,
        counters: Arc<RecoveryCounters>,
    ) -> Arc<Self> {
        assert!(my_rank < size, "rank {my_rank} outside world of {size}");
        Self::build(
            size,
            opts,
            counters,
            Some(RemoteCtx {
                my_rank,
                transport: std::sync::OnceLock::new(),
                death_sent: AtomicBool::new(false),
            }),
        )
    }

    /// Wires the byte-moving backend into a [`Fabric::remote`] endpoint.
    /// Must happen before any cross-rank traffic; the two-step dance exists
    /// because the transport's reader threads need the fabric's sink first.
    pub fn attach_transport(&self, transport: Arc<dyn Transport>) {
        let remote = self
            .remote
            .as_ref()
            .expect("attach_transport on an in-process fabric");
        assert!(
            remote.transport.set(transport).is_ok(),
            "transport already attached"
        );
    }

    /// The frame-delivery sink a transport's reader threads feed. Holds the
    /// fabric weakly: late deliveries after teardown become no-ops.
    pub fn frame_sink(self: &Arc<Self>) -> Arc<dyn FrameSink> {
        Arc::new(FabricSink {
            fabric: Arc::downgrade(self),
        })
    }

    /// This endpoint's world rank when transport-backed, else `None`.
    pub fn remote_rank(&self) -> Option<usize> {
        self.remote.as_ref().map(|r| r.my_rank)
    }

    /// Per-destination link traffic of this endpoint (empty in-process).
    pub fn link_stats(&self) -> Vec<LinkStat> {
        self.remote
            .as_ref()
            .and_then(|r| r.transport.get())
            .map_or_else(Vec::new, |t| t.link_stats())
    }

    /// Announces a clean goodbye on every link and joins the transport's
    /// reader threads. Idempotent; a no-op for in-process fabrics.
    pub fn shutdown_transport(&self) {
        if let Some(t) = self.remote.as_ref().and_then(|r| r.transport.get()) {
            t.shutdown();
        }
    }

    /// Next split sequence number of world rank `rank`'s world
    /// communicator.
    pub(crate) fn next_split_seq(&self, rank: usize) -> u64 {
        self.split_seq[rank].fetch_add(1, Ordering::SeqCst)
    }

    fn build(
        size: usize,
        opts: FabricOpts,
        counters: Arc<RecoveryCounters>,
        remote: Option<RemoteCtx>,
    ) -> Arc<Self> {
        let ring_cap = opts.mailbox_cap.unwrap_or(DEFAULT_RING_CAP);
        Arc::new(Self {
            boxes: (0..size)
                .map(|_| LockfreeMailbox::new(size, ring_cap))
                .collect(),
            poison: Poison::default(),
            faults: opts.faults,
            timeout: opts.timeout,
            retry: opts.retry,
            counters,
            split_seq: (0..size).map(|_| AtomicU64::new(0)).collect(),
            remote,
        })
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.boxes.len()
    }

    /// The armed fault injector, if any.
    pub fn fault_injector(&self) -> Option<Arc<hpl_faults::Injector>> {
        self.faults.clone()
    }

    /// This fabric's retry/backoff schedule.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// This job's recovery observability counters.
    pub fn counters(&self) -> &RecoveryCounters {
        &self.counters
    }

    /// Marks the job as having lost `rank` during `phase` and wakes every
    /// waiter on this fabric. Idempotent — the first recorded death
    /// wins, so every peer reports the same root cause. On a transport-backed
    /// endpoint the first call also broadcasts a Death frame to every peer,
    /// so remote survivors learn the root cause within one delivery latency
    /// instead of waiting for heartbeat staleness.
    pub fn poison(&self, rank: usize, phase: &str) {
        self.poison_observed(rank, phase);
        if let Some(r) = &self.remote {
            if !r.death_sent.swap(true, Ordering::SeqCst) {
                if let Some(t) = r.transport.get() {
                    for dst in 0..self.boxes.len() {
                        if dst == r.my_rank {
                            continue;
                        }
                        let frame = Frame {
                            kind: FrameKind::Death,
                            src: r.my_rank as u32,
                            dst: dst as u32,
                            tag: rank as u64,
                            wire_id: 0,
                            payload: phase.as_bytes().to_vec(),
                        };
                        // Best effort: an unreachable peer is already dead.
                        let _ = t.send(dst, &frame);
                    }
                }
            }
        }
    }

    /// [`Fabric::poison`] without the Death broadcast — for deaths learned
    /// *from* the wire (Death frames, torn links, the launch supervisor's
    /// control plane), which every peer is told about by the original
    /// announcer; re-broadcasting would only echo.
    pub fn poison_observed(&self, rank: usize, phase: &str) {
        self.poison.set(rank, phase);
        for b in &self.boxes {
            // Touch each mailbox's park lock before notifying so sleepers
            // can't miss the wakeup between their flag check and their
            // wait (the loom-pinned discipline).
            b.wake_for_control();
        }
    }

    /// `(rank, phase)` of the first death recorded on this job, if any.
    pub fn poison_info(&self) -> Option<(usize, String)> {
        self.poison.get()
    }

    fn poison_err(&self) -> Option<CommError> {
        self.poison
            .get()
            .map(|(rank, phase)| CommError::RankFailed { rank, phase })
    }

    /// Where the current thread is in the pipeline, for death diagnostics:
    /// the innermost open trace phase when one exists, else the comm site.
    fn here(site: &'static str) -> String {
        hpl_trace::current_phase()
            .map(|p| p.name().to_string())
            .unwrap_or_else(|| site.to_string())
    }

    /// Deposits a message for `dst` (or frames it to a remote peer),
    /// applying any matched send-site fault and counting it in `ledger`,
    /// the sending communicator's stats. The only errors are deaths: the
    /// sending rank's own injected one (after poisoning the job), or a
    /// remote destination whose link is gone; fault-free sends cannot fail.
    pub(crate) fn try_send_counted(
        &self,
        ledger: &CommStats,
        src: usize,
        dst: usize,
        tag: Tag,
        msg: Boxed,
        elems: u64,
    ) -> Result<(), CommError> {
        assert!(
            dst < self.boxes.len(),
            "send to rank {dst} of {}",
            self.boxes.len()
        );
        let mut msg = msg;
        match hpl_faults::on_send(&self.faults) {
            hpl_faults::SendAction::Deliver => {}
            hpl_faults::SendAction::Delay { micros } => {
                let _sp = hpl_trace::span(hpl_trace::Phase::Fault);
                std::thread::sleep(std::time::Duration::from_micros(micros));
            }
            hpl_faults::SendAction::DropRetransmit => {
                // The message is "lost on the wire": count the wasted send,
                // back off one policy step, then fall through to the
                // retransmit delivery.
                ledger.count(elems);
                let _sp = hpl_trace::span(hpl_trace::Phase::Fault);
                std::thread::sleep(self.retry.backoff(src as u64, 0));
            }
            hpl_faults::SendAction::Corrupt { bit } => {
                if let Some(v) = msg.downcast_mut::<Vec<f64>>() {
                    if !v.is_empty() {
                        let i = v.len() / 2;
                        v[i] = f64::from_bits(v[i].to_bits() ^ (1u64 << (bit % 64)));
                    }
                } else if let Some(v) = msg.downcast_mut::<Vec<f32>>() {
                    if !v.is_empty() {
                        let i = v.len() / 2;
                        v[i] = f32::from_bits(v[i].to_bits() ^ (1u32 << (bit % 32)));
                    }
                } else if let Some(p) = msg.downcast_mut::<Packet>() {
                    // Remote payloads are already encoded when the hook
                    // fires; flip the same bit of the same element the
                    // in-process arm flips, *before* the frame checksum is
                    // computed — injected corruption travels with a valid
                    // frame and is caught by ABFT, exactly like in-process.
                    corrupt_packet(p, bit);
                }
            }
            hpl_faults::SendAction::Death => {
                let rank = hpl_faults::world_rank().unwrap_or(src);
                let phase = Self::here("send");
                self.poison(rank, &phase);
                return Err(CommError::RankFailed { rank, phase });
            }
        }
        ledger.count(elems);
        // Every point-to-point payload funnels through here, so this is the
        // one choke point where traced bytes are attributed to the calling
        // thread's open span. `elems` counts f64 payload words for the bulk
        // paths; typed control messages pass 1 and contribute 8 nominal
        // bytes — negligible against panel traffic, kept for determinism.
        hpl_trace::add_bytes(elems * 8);
        match &self.remote {
            Some(r) if dst != r.my_rank => {
                let pkt = match msg.downcast::<Packet>() {
                    Ok(p) => p,
                    // Remote sends are always pre-encoded by the
                    // communicator layer; anything else is a wiring bug.
                    // xtask-allow: no-panic, error-taxonomy — internal contract violation
                    Err(_) => panic!("remote send of a non-wire payload (tag {tag:?})"),
                };
                let frame = Frame {
                    kind: FrameKind::Data,
                    src: src as u32,
                    dst: dst as u32,
                    tag: tag.0,
                    wire_id: pkt.wire_id,
                    payload: pkt.bytes,
                };
                self.transport_send(r, dst, &frame)
            }
            _ => {
                self.boxes[dst].deposit(src, tag, msg);
                Ok(())
            }
        }
    }

    /// Pushes one frame through the attached transport; a failed link means
    /// the destination process is gone, which poisons the job with that
    /// rank's identity (first recorded death still wins).
    fn transport_send(&self, r: &RemoteCtx, dst: usize, frame: &Frame) -> Result<(), CommError> {
        let Some(t) = r.transport.get() else {
            return Err(CommError::RankFailed {
                rank: dst,
                phase: "transport-unwired".to_string(),
            });
        };
        match t.send(dst, frame) {
            Ok(()) => Ok(()),
            Err(_) => {
                self.poison_observed(dst, "link-lost");
                Err(self.poison_err().unwrap_or(CommError::RankFailed {
                    rank: dst,
                    phase: "link-lost".to_string(),
                }))
            }
        }
    }

    /// Control-plane send: no fault hooks, no stats, no traced bytes. Used
    /// for the post-run trace gather, which sits outside the measured run —
    /// keeping it invisible is what keeps `seq_hash` transport-invariant.
    pub(crate) fn ctrl_send(
        &self,
        src: usize,
        dst: usize,
        tag: Tag,
        pkt: Packet,
    ) -> Result<(), CommError> {
        assert!(
            dst < self.boxes.len(),
            "ctrl send to rank {dst} of {}",
            self.boxes.len()
        );
        match &self.remote {
            Some(r) if dst != r.my_rank => {
                let frame = Frame {
                    kind: FrameKind::Data,
                    src: src as u32,
                    dst: dst as u32,
                    tag: tag.0,
                    wire_id: pkt.wire_id,
                    payload: pkt.bytes,
                };
                self.transport_send(r, dst, &frame)
            }
            _ => {
                self.boxes[dst].deposit(src, tag, Box::new(pkt));
                Ok(())
            }
        }
    }

    /// Control-plane receive: the blocking wait without the recv-site fault
    /// hooks (see [`Fabric::ctrl_send`]).
    pub(crate) fn ctrl_recv(&self, dst: usize, src: usize, tag: Tag) -> Result<Boxed, CommError> {
        assert!(
            src < self.boxes.len(),
            "ctrl recv from rank {src} of {}",
            self.boxes.len()
        );
        self.wait_recv(dst, src, tag)
    }

    /// Blocks until a message from `(src, tag)` addressed to `dst` arrives.
    ///
    /// Fails with [`CommError::RankFailed`] if the job is poisoned before a
    /// matching message shows up, and with [`CommError::Timeout`] — carrying
    /// the mailbox's pending `(src, tag)` keys — once the [`RetryPolicy`]
    /// backoff ladder has cumulatively waited past the receive timeout
    /// ([`recv_timeout`]: default 120 s, `--comm-timeout` to override).
    /// Each timed-out poll round is counted in [`RecoveryCounters`]. A
    /// matched recv-site fault may stall first or kill the receiving rank.
    pub fn try_recv(&self, dst: usize, src: usize, tag: Tag) -> Result<Boxed, CommError> {
        assert!(
            src < self.boxes.len(),
            "recv from rank {src} of {}",
            self.boxes.len()
        );
        match hpl_faults::on_recv(&self.faults) {
            hpl_faults::RecvAction::Proceed => {}
            hpl_faults::RecvAction::Stall { millis } => {
                let _sp = hpl_trace::span(hpl_trace::Phase::Fault);
                std::thread::sleep(std::time::Duration::from_millis(millis));
            }
            hpl_faults::RecvAction::Death => {
                let rank = hpl_faults::world_rank().unwrap_or(dst);
                let phase = Self::here("recv");
                self.poison(rank, &phase);
                return Err(CommError::RankFailed { rank, phase });
            }
        }
        self.wait_recv(dst, src, tag)
    }

    /// Blocking wait on `dst`'s mailbox: bounded spin, then the park/poison
    /// protocol of [`crate::spsc`] under exponential-backoff poll rounds,
    /// each capped at the 100 ms poison-poll step so a peer's death still
    /// unwinds us promptly. A real MPI would hang here forever on a
    /// mismatched schedule; we turn that into a diagnosable failure after a
    /// (generous, overridable) timeout so broken collective orderings fail
    /// loudly in tests instead of wedging the whole run.
    fn wait_recv(&self, dst: usize, src: usize, tag: Tag) -> Result<Boxed, CommError> {
        let mbox = &self.boxes[dst];
        if let Some(m) = mbox.spin_take(src, tag) {
            return Ok(m);
        }
        let mut waited = std::time::Duration::ZERO;
        let mut attempt = 0u32;
        let timeout = self.timeout.unwrap_or_else(recv_timeout);
        loop {
            if let Some(m) = mbox.try_take(src, tag) {
                return Ok(m);
            }
            if let Some(e) = self.poison_err() {
                // Queue-first precedence without a shared lock: the flag
                // became visible *after* any deposit the dying rank
                // published first (it stores the flag after the ring
                // publish), so one final sweep keeps delivered-before-
                // death messages winning and data flow deterministic.
                mbox.ingest_all();
                if let Some(m) = mbox.try_take(src, tag) {
                    return Ok(m);
                }
                return Err(e);
            }
            // Quiesce every ring into the stash so the park-side re-check
            // only trips on deposits newer than this sweep.
            mbox.ingest_all();
            if let Some(m) = mbox.try_take(src, tag) {
                return Ok(m);
            }
            let step = self.retry.backoff(dst as u64, attempt).min(WAIT_STEP);
            if mbox.park(step, || self.poison.is_set()) {
                waited += step;
                attempt = attempt.saturating_add(1);
                self.counters.note_retry();
                if waited >= timeout {
                    return Err(CommError::Timeout {
                        dst,
                        src,
                        tag,
                        waited_ms: waited.as_millis() as u64,
                        pending: mbox.pending_keys(),
                    });
                }
            }
        }
    }

    /// Infallible [`Fabric::try_recv`] for call sites outside the fallible
    /// pipeline. Keeps the historical deadlock-detector behaviour: a timeout
    /// (or poisoned job) panics with the full diagnostic.
    pub fn recv(&self, dst: usize, src: usize, tag: Tag) -> Boxed {
        self.try_recv(dst, src, tag).unwrap_or_else(|e| {
            // Deliberate deadlock detector: real MPI would hang forever
            // here; failing loudly is the feature.
            // xtask-allow: no-panic, error-taxonomy — deadlock diagnostics
            panic!("{e}")
        })
    }

    /// True if no undelivered messages remain anywhere (used by tests to
    /// assert collectives are self-contained).
    pub fn quiescent(&self) -> bool {
        self.boxes.iter().all(LockfreeMailbox::is_empty)
    }
}

/// The encoded-payload twin of the in-process bulk-vector corruption arms:
/// flips bit `bit % word_bits` of element `len / 2`. A bulk wire payload
/// is an 8-byte length prefix followed by little-endian bit patterns
/// (8 bytes per element for `Vec<f64>`, 4 for `Vec<f32>`), so the
/// element's word starts at byte `8 + (len / 2) * word`.
fn corrupt_packet(p: &mut Packet, bit: u32) {
    let word = match p.wire_id {
        VEC_F64_WIRE_ID => 8,
        VEC_F32_WIRE_ID => 4,
        _ => return,
    };
    if p.bytes.len() < 8 + word {
        return;
    }
    let Ok(prefix) = <[u8; 8]>::try_from(&p.bytes[..8]) else {
        return;
    };
    let n = u64::from_le_bytes(prefix) as usize;
    if n == 0 {
        return;
    }
    let b = (bit as usize) % (word * 8);
    let idx = 8 + (n / 2) * word + b / 8;
    if let Some(byte) = p.bytes.get_mut(idx) {
        *byte ^= 1 << (b % 8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn fabric(size: usize) -> Arc<Fabric> {
        Fabric::new(size, FabricOpts::default())
    }

    /// Sends `msg` from `src` to `dst`, counted in a throwaway ledger.
    fn put<T: Any + Send>(f: &Fabric, src: usize, dst: usize, tag: Tag, msg: T) {
        f.try_send_counted(&CommStats::default(), src, dst, tag, Box::new(msg), 1)
            .unwrap();
    }

    #[test]
    fn fifo_per_source_tag() {
        let f = fabric(2);
        put(&f, 0, 1, Tag::user(7), 1u32);
        put(&f, 0, 1, Tag::user(7), 2u32);
        let a = *f.recv(1, 0, Tag::user(7)).downcast::<u32>().unwrap();
        let b = *f.recv(1, 0, Tag::user(7)).downcast::<u32>().unwrap();
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn tags_do_not_cross_match() {
        let f = fabric(2);
        put(&f, 0, 1, Tag::user(1), "one");
        put(&f, 0, 1, Tag::user(2), "two");
        let t2 = *f.recv(1, 0, Tag::user(2)).downcast::<&str>().unwrap();
        let t1 = *f.recv(1, 0, Tag::user(1)).downcast::<&str>().unwrap();
        assert_eq!((t1, t2), ("one", "two"));
    }

    #[test]
    fn recv_blocks_until_send() {
        let f = fabric(2);
        let f2 = Arc::clone(&f);
        let h = thread::spawn(move || *f2.recv(1, 0, Tag::user(3)).downcast::<u64>().unwrap());
        thread::sleep(std::time::Duration::from_millis(20));
        put(&f, 0, 1, Tag::user(3), 99u64);
        assert_eq!(h.join().unwrap(), 99);
    }

    #[test]
    #[should_panic(expected = "collides with reserved range")]
    fn reserved_tags_rejected() {
        let _ = Tag::user(Tag::RESERVED_BASE + 5);
    }

    /// A fabric that gives up on a silent peer after the 1 s floor.
    fn one_second_fabric(size: usize, cap: Option<usize>) -> Arc<Fabric> {
        Fabric::new(
            size,
            FabricOpts {
                timeout: Some(std::time::Duration::from_secs(1)),
                mailbox_cap: cap,
                ..FabricOpts::default()
            },
        )
    }

    fn with_cap(cap: usize) -> FabricOpts {
        FabricOpts {
            mailbox_cap: Some(cap),
            ..FabricOpts::default()
        }
    }

    #[test]
    fn recv_timeout_panics_with_diagnostic() {
        let f = one_second_fabric(2, None);
        put(&f, 1, 1, Tag::user(11), 5u8); // unrelated pending msg
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = f.recv(1, 0, Tag::user(9));
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("no message from rank 0"), "{msg}");
        assert!(msg.contains("pending queues"), "{msg}");
        assert!(msg.contains("src=1"), "should dump the pending key: {msg}");
    }

    #[test]
    fn try_recv_reports_pending_keys_on_timeout() {
        let f = one_second_fabric(3, None);
        put(&f, 2, 1, Tag::user(4), 1u8);
        let e = f.try_recv(1, 0, Tag::user(9)).unwrap_err();
        match e {
            CommError::Timeout {
                dst, src, pending, ..
            } => {
                assert_eq!((dst, src), (1, 0));
                assert_eq!(pending, vec![(2, Tag::user(4))]);
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn poison_unblocks_receivers_promptly() {
        let f = fabric(2);
        let f2 = Arc::clone(&f);
        let t0 = std::time::Instant::now();
        let h = thread::spawn(move || f2.try_recv(1, 0, Tag::user(3)));
        thread::sleep(std::time::Duration::from_millis(30));
        f.poison(0, "fact");
        let e = h.join().unwrap().unwrap_err();
        assert!(t0.elapsed() < std::time::Duration::from_secs(5));
        assert_eq!(
            e,
            CommError::RankFailed {
                rank: 0,
                phase: "fact".into()
            }
        );
    }

    #[test]
    fn poisoned_fabric_still_delivers_queued_messages() {
        let f = fabric(2);
        put(&f, 0, 1, Tag::user(1), 7u32);
        f.poison(0, "update");
        // The delivered-before-death message wins; the next recv fails.
        let v = *f
            .try_recv(1, 0, Tag::user(1))
            .unwrap()
            .downcast::<u32>()
            .unwrap();
        assert_eq!(v, 7);
        assert!(f.try_recv(1, 0, Tag::user(1)).is_err());
    }

    #[test]
    fn first_poison_wins() {
        let f = fabric(2);
        f.poison(1, "fact");
        f.poison(0, "update");
        assert_eq!(f.poison_info(), Some((1, "fact".to_string())));
    }

    #[test]
    fn retry_policy_is_deterministic_bounded_and_jittered() {
        let p = RetryPolicy::default();
        for attempt in 0..32 {
            for salt in 0..8u64 {
                let a = p.backoff(salt, attempt);
                let b = p.backoff(salt, attempt);
                assert_eq!(a, b, "same (salt, attempt) must give the same wait");
                assert!(a.as_micros() >= 1);
                assert!(
                    a.as_micros() as u64 <= p.cap_us,
                    "attempt {attempt} exceeded the cap: {a:?}"
                );
            }
        }
        // The ladder actually grows before the cap…
        assert!(p.backoff(0, 4) > p.backoff(0, 0));
        // …and jitter separates salts at the same attempt.
        assert_ne!(p.backoff(1, 0), p.backoff(2, 0));
    }

    #[test]
    fn per_fabric_timeout_overrides_the_global_default() {
        let f = one_second_fabric(2, None);
        let t0 = std::time::Instant::now();
        let e = f.try_recv(1, 0, Tag::user(9)).unwrap_err();
        assert!(matches!(e, CommError::Timeout { .. }), "{e:?}");
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(30),
            "per-fabric timeout was ignored"
        );
    }

    #[test]
    fn timed_out_poll_rounds_are_counted() {
        let f = one_second_fabric(2, None);
        hpl_faults::set_world_rank(1);
        let _ = f.try_recv(1, 0, Tag::user(3)).unwrap_err();
        assert!(
            f.counters().retries(1) > 0,
            "backoff rounds should be ledgered"
        );
        assert_eq!(f.counters().abft_repairs(1), 0);
    }

    #[test]
    fn stats_count_sends() {
        let f = fabric(2);
        let ledger = CommStats::default();
        f.try_send_counted(&ledger, 0, 1, Tag::user(0), Box::new(0u8), 128)
            .unwrap();
        assert_eq!(ledger.snapshot(), (1, 128));
        let _ = f.recv(1, 0, Tag::user(0));
        assert!(f.quiescent());
    }

    #[test]
    fn lockfree_round_trips_fifo_and_quiesces() {
        let f = fabric(2);
        put(&f, 0, 1, Tag::user(4), 41u32);
        put(&f, 0, 1, Tag::user(4), 42u32);
        for want in [41u32, 42] {
            let got = *f
                .recv(1, 0, Tag::user(4))
                .downcast::<u32>()
                .expect("payload type");
            assert_eq!(got, want, "FIFO broken");
        }
        assert!(f.quiescent(), "undelivered messages left behind");
    }

    #[test]
    fn lockfree_spill_preserves_fifo_past_a_tiny_ring() {
        // cap 1 forces nearly every deposit through the spill lane; order
        // must survive the ring→spill handoff and back.
        let f = Fabric::new(2, with_cap(1));
        for i in 0..64u32 {
            put(&f, 0, 1, Tag::user(7), i);
        }
        for want in 0..64u32 {
            let got = *f
                .recv(1, 0, Tag::user(7))
                .downcast::<u32>()
                .expect("payload type");
            assert_eq!(got, want);
        }
        assert!(f.quiescent());
    }

    #[test]
    fn lockfree_interleaved_tags_from_many_senders() {
        let f = Fabric::new(4, with_cap(2));
        for src in [0usize, 1, 2] {
            for i in 0..8u32 {
                put(&f, src, 3, Tag::user(src as u64), i);
            }
        }
        // Receive in an order that forces stash traffic: highest src first.
        for src in [2usize, 1, 0] {
            for want in 0..8u32 {
                let got = *f
                    .recv(3, src, Tag::user(src as u64))
                    .downcast::<u32>()
                    .expect("payload type");
                assert_eq!(got, want, "per-(src, tag) FIFO broken for src {src}");
            }
        }
        assert!(f.quiescent());
    }

    #[test]
    fn lockfree_timeout_reports_pending_keys() {
        let f = one_second_fabric(2, Some(1));
        put(&f, 0, 1, Tag::user(5), 1u8);
        put(&f, 0, 1, Tag::user(5), 2u8); // spills
        let e = f.try_recv(1, 0, Tag::user(6)).unwrap_err();
        match e {
            CommError::Timeout { pending, .. } => {
                assert_eq!(pending, vec![(0, Tag::user(5))], "spilled + rung keys");
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn lockfree_poison_unblocks_parked_receiver() {
        let f = fabric(2);
        let f2 = Arc::clone(&f);
        let h = thread::spawn(move || f2.try_recv(1, 0, Tag::user(0)));
        thread::sleep(std::time::Duration::from_millis(30));
        f.poison(0, "fact");
        let e = h.join().unwrap().unwrap_err();
        assert!(matches!(e, CommError::RankFailed { rank: 0, .. }), "{e:?}");
    }

    #[test]
    fn lockfree_deposit_before_poison_still_delivers() {
        let f = fabric(2);
        put(&f, 0, 1, Tag::user(2), 9u32);
        f.poison(0, "fact");
        let v = *f
            .recv(1, 0, Tag::user(2))
            .downcast::<u32>()
            .expect("payload type");
        assert_eq!(v, 9, "delivered-before-death message must beat the poison");
        let e = f.try_recv(1, 0, Tag::user(2)).unwrap_err();
        assert!(matches!(e, CommError::RankFailed { rank: 0, .. }));
    }
}
