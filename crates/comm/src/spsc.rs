//! The fabric's mailbox: a bounded SPSC ring per `(sender, receiver)`
//! pair, plus the park/poison protocol that lets a receiver sleep without
//! losing wakeups.
//!
//! The rank model makes every `(src, dst)` channel naturally
//! single-producer/single-consumer — rank `src`'s thread is the only
//! sender carrying that source id, and rank `dst`'s thread is the only
//! receiver draining its inbox — so a Lamport ring with one atomic cursor
//! per side carries every message without a shared lock on the hot path.
//! The blocking edges keep the exact protocol the loom suite verifies
//! (see `tests/loom_mailbox.rs` and DESIGN.md §13):
//!
//! * **publish → check-parked**: after publishing, the producer executes a
//!   `SeqCst` fence and reads the `parked` flag; if set it takes the park
//!   lock before notifying (a notify outside the lock could land inside
//!   the receiver's check-then-wait window — the exact lost wakeup the
//!   loom checker catches).
//! * **set-parked → re-check**: the receiver publishes `parked` under the
//!   park lock, fences, and re-checks every arrival source (and the
//!   poison flag) before waiting. The two fences form the Dekker pair
//!   that makes "producer saw no parked receiver" and "receiver saw no
//!   message" mutually exclusive.
//! * **ring full → spill lane**: sends never block. When a ring fills,
//!   the producer diverts to a mutex-guarded spill queue and marks the
//!   lane; while the mark is up every later send takes the spill lane
//!   too (FIFO is preserved because ring entries are all older than
//!   spill entries, and the mark only clears after the consumer drains
//!   the spill under the same lock).

use std::cell::UnsafeCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};

use parking_lot::{Condvar, Mutex};

use crate::fabric::Tag;
use crate::transport::wire::Packet;

/// A bounded single-producer/single-consumer ring (Lamport queue).
///
/// `head` is written only by the consumer, `tail` only by the producer;
/// both are monotonically increasing counters, indexed modulo the
/// power-of-two capacity. The producer's `Release` store of `tail`
/// publishes the slot write; the consumer's `Release` store of `head`
/// returns the slot to the producer.
///
/// The single-producer/single-consumer contract is the caller's; debug
/// builds detect violations with re-entrancy flags on both sides.
pub struct SpscRing<T> {
    slots: Box<[UnsafeCell<Option<T>>]>,
    mask: usize,
    /// Consumer cursor (next slot to pop).
    head: crossbeam::utils::CachePadded<AtomicUsize>,
    /// Producer cursor (next slot to fill).
    tail: crossbeam::utils::CachePadded<AtomicUsize>,
    /// Debug-only guards catching concurrent producers/consumers.
    push_busy: AtomicBool,
    pop_busy: AtomicBool,
}

// SAFETY: the head/tail protocol hands each slot to exactly one side at a
// time (producer owns slots in `[tail, head + capacity)`, consumer owns
// `[head, tail)`), with Release/Acquire cursor pairs ordering the slot
// accesses; `T: Send` payloads may therefore cross threads through it.
unsafe impl<T: Send> Send for SpscRing<T> {}
// SAFETY: see `Send` — shared references only expose the cursor-guarded
// protocol, never aliased slot access.
unsafe impl<T: Send> Sync for SpscRing<T> {}

impl<T> SpscRing<T> {
    /// Creates a ring holding at least `capacity` elements (rounded up to
    /// a power of two, minimum 1).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1).next_power_of_two();
        let mut slots = Vec::with_capacity(cap);
        slots.resize_with(cap, || UnsafeCell::new(None));
        Self {
            slots: slots.into_boxed_slice(),
            mask: cap - 1,
            head: crossbeam::utils::CachePadded::new(AtomicUsize::new(0)),
            tail: crossbeam::utils::CachePadded::new(AtomicUsize::new(0)),
            push_busy: AtomicBool::new(false),
            pop_busy: AtomicBool::new(false),
        }
    }

    /// Slot count (power of two).
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Undelivered element count (a racy snapshot when read from a third
    /// thread; exact from either endpoint).
    pub fn len(&self) -> usize {
        self.tail
            .load(Ordering::Acquire)
            .wrapping_sub(self.head.load(Ordering::Acquire))
    }

    /// True when no undelivered element remains (racy snapshot, as `len`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Producer side: appends `v`, or returns it back when the ring is
    /// full. Must only be called by the single producer.
    pub fn push(&self, v: T) -> Result<(), T> {
        let _guard = DebugReentry::enter(&self.push_busy, "producer");
        let tail = self.tail.load(Ordering::Relaxed);
        if tail.wrapping_sub(self.head.load(Ordering::Acquire)) > self.mask {
            return Err(v);
        }
        // SAFETY: `tail - head <= mask` proves the consumer has retired
        // this slot (its `head` Release store for lap `tail - cap`
        // happens-before our Acquire load above), and we are the sole
        // producer, so no other writer exists.
        unsafe { *self.slots[tail & self.mask].get() = Some(v) };
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Consumer side: pops the oldest element, if any. Must only be
    /// called by the single consumer.
    pub fn pop(&self) -> Option<T> {
        let _guard = DebugReentry::enter(&self.pop_busy, "consumer");
        let head = self.head.load(Ordering::Relaxed);
        if head == self.tail.load(Ordering::Acquire) {
            return None;
        }
        // SAFETY: `head < tail` proves the producer published this slot
        // (its `tail` Release store happens-before our Acquire load), and
        // we are the sole consumer, so no other reader exists.
        let v = unsafe { (*self.slots[head & self.mask].get()).take() };
        debug_assert!(v.is_some(), "published slot must hold a value");
        self.head.store(head.wrapping_add(1), Ordering::Release);
        v
    }
}

/// Debug-build guard proving the single-producer/single-consumer contract:
/// entering an endpoint that is already busy on another thread panics with
/// the violated side. Compiled to nothing in release builds.
struct DebugReentry<'a> {
    #[cfg(debug_assertions)]
    flag: &'a AtomicBool,
    #[cfg(not(debug_assertions))]
    _marker: std::marker::PhantomData<&'a ()>,
}

impl<'a> DebugReentry<'a> {
    #[inline]
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    fn enter(flag: &'a AtomicBool, side: &str) -> Self {
        #[cfg(debug_assertions)]
        {
            assert!(
                !flag.swap(true, Ordering::Acquire),
                "SPSC ring contract violated: two concurrent {side}s"
            );
            Self { flag }
        }
        #[cfg(not(debug_assertions))]
        {
            Self {
                _marker: std::marker::PhantomData,
            }
        }
    }
}

impl Drop for DebugReentry<'_> {
    #[inline]
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        self.flag.store(false, Ordering::Release);
    }
}

/// Overflow lane for one `(src, dst)` ring: sends divert here when the
/// ring fills, so `deposit` never blocks and never drops.
struct SpillLane {
    /// Raised by the producer when it first diverts; cleared by the
    /// consumer under `queue`'s lock once the lane is drained. While up,
    /// every send takes the lane (keeping FIFO against queued spills).
    spilled: AtomicBool,
    queue: Mutex<VecDeque<(Tag, Packet)>>,
}

impl SpillLane {
    fn new() -> Self {
        Self {
            spilled: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
        }
    }
}

/// How many busy-wait rounds a receiver burns before parking on the
/// condvar. The first few rounds spin-hint (the send is usually already
/// in flight); the rest yield so an oversubscribed sender can run.
const SPIN_ROUNDS: u32 = 48;
const SPIN_HINT_ROUNDS: u32 = 16;

/// One destination rank's lock-free inbox: a ring plus spill lane per
/// source, a consumer-private stash for tag-mismatched arrivals, and the
/// park state shared by all of them.
///
/// The stash exists because the rings deliver in *send* order while
/// `recv` matches on `(src, tag)`: a mismatched head entry is moved into
/// the stash (keyed by `(src, tag)`) and found there
/// first by a later receive. Only the consumer touches the stash, so its
/// mutex is uncontended; the `stashed` counter lets the fast path skip it
/// entirely.
pub(crate) struct LockfreeMailbox {
    rings: Vec<SpscRing<(Tag, Packet)>>,
    spill: Vec<SpillLane>,
    stash: Mutex<HashMap<(usize, Tag), VecDeque<Packet>>>,
    stashed: AtomicUsize,
    /// True while the consumer is (about to be) blocked on `arrived`.
    parked: AtomicBool,
    park_lock: Mutex<()>,
    arrived: Condvar,
}

impl LockfreeMailbox {
    pub(crate) fn new(senders: usize, ring_capacity: usize) -> Self {
        Self {
            rings: (0..senders).map(|_| SpscRing::new(ring_capacity)).collect(),
            spill: (0..senders).map(|_| SpillLane::new()).collect(),
            stash: Mutex::new(HashMap::new()),
            stashed: AtomicUsize::new(0),
            parked: AtomicBool::new(false),
            park_lock: Mutex::new(()),
            arrived: Condvar::new(),
        }
    }

    /// Producer side (rank `src`'s thread only): never blocks, never
    /// drops — a full ring diverts to the spill lane.
    pub(crate) fn deposit(&self, src: usize, tag: Tag, msg: Packet) {
        let lane = &self.spill[src];
        let bounced = if lane.spilled.load(Ordering::Acquire) {
            Some((tag, msg))
        } else {
            self.rings[src].push((tag, msg)).err()
        };
        if let Some(entry) = bounced {
            let mut q = lane.queue.lock();
            // Decide again under the lock: the consumer may have drained
            // the lane (clearing the mark) since our check — appending to
            // the queue then would order this message after future ring
            // deposits. The lock serializes against that drain.
            if lane.spilled.load(Ordering::Acquire) {
                q.push_back(entry);
            } else if let Err(entry) = self.rings[src].push(entry) {
                q.push_back(entry);
                lane.spilled.store(true, Ordering::Release);
            }
        }
        self.wake();
    }

    /// Publish-then-check-parked edge of the Dekker pair (see module
    /// docs): pairs with the fence in [`LockfreeMailbox::park`].
    fn wake(&self) {
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::Relaxed) {
            // Touch the park lock before notifying so a receiver can't
            // miss the wakeup between its re-check and its wait — the
            // discipline the loom contract pins for `Fabric::poison` too.
            let _g = self.park_lock.lock();
            self.arrived.notify_all();
        }
    }

    /// Wakes a parked receiver without depositing anything — the poison
    /// path. The flag this wake is announcing must be set *before* the
    /// call (the receiver re-checks it through `should_wake` in `park`).
    pub(crate) fn wake_for_control(&self) {
        self.wake();
    }

    fn stash_push(&self, src: usize, tag: Tag, msg: Packet) {
        self.stash
            .lock()
            .entry((src, tag))
            .or_default()
            .push_back(msg);
        self.stashed.fetch_add(1, Ordering::Relaxed);
    }

    fn stash_pop(&self, src: usize, tag: Tag) -> Option<Packet> {
        if self.stashed.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let mut g = self.stash.lock();
        let m = g.get_mut(&(src, tag)).and_then(VecDeque::pop_front);
        if m.is_some() {
            self.stashed.fetch_sub(1, Ordering::Relaxed);
        }
        m
    }

    /// Moves every spill-lane entry of `src` into the stash and clears
    /// the lane mark (consumer only).
    fn drain_spill(&self, src: usize) {
        let lane = &self.spill[src];
        if !lane.spilled.load(Ordering::Acquire) {
            return;
        }
        let mut q = lane.queue.lock();
        while let Some((t, m)) = q.pop_front() {
            self.stash_push(src, t, m);
        }
        // Clearing under the lock: a producer deciding between ring and
        // lane holds this lock too, so it either appended before the
        // drain (we got it) or sees the cleared mark and uses the ring.
        lane.spilled.store(false, Ordering::Release);
    }

    /// Non-blocking matched take (consumer only): stash first (older
    /// messages), then the source's ring — mismatches are stashed as they
    /// are passed over — then the spill lane.
    pub(crate) fn try_take(&self, src: usize, tag: Tag) -> Option<Packet> {
        if let Some(m) = self.stash_pop(src, tag) {
            return Some(m);
        }
        loop {
            match self.rings[src].pop() {
                Some((t, m)) if t == tag => return Some(m),
                Some((t, m)) => self.stash_push(src, t, m),
                None => break,
            }
        }
        if self.spill[src].spilled.load(Ordering::Acquire) {
            self.drain_spill(src);
            return self.stash_pop(src, tag);
        }
        None
    }

    /// Ingests every arrival (all rings, all spill lanes) into the stash
    /// (consumer only). Called before parking so the park-side re-check
    /// only fires on *new* deposits, and before timeout diagnostics so
    /// `pending_keys` sees everything.
    pub(crate) fn ingest_all(&self) {
        for src in 0..self.rings.len() {
            while let Some((t, m)) = self.rings[src].pop() {
                self.stash_push(src, t, m);
            }
            self.drain_spill(src);
        }
    }

    /// Bounded busy-wait for a match before parking (consumer only).
    pub(crate) fn spin_take(&self, src: usize, tag: Tag) -> Option<Packet> {
        for round in 0..SPIN_ROUNDS {
            if let Some(m) = self.try_take(src, tag) {
                return Some(m);
            }
            if round < SPIN_HINT_ROUNDS {
                core::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        None
    }

    /// Parks the consumer for at most `step`, unless an arrival or
    /// `should_wake()` (the poison check) is observed after the `parked`
    /// flag is published. Returns whether the wait timed out (for the
    /// retry ledger). This is the set-parked → re-check edge of the
    /// Dekker pair; the re-check happens under the park lock, which both
    /// `wake` and `Fabric::poison` take before notifying.
    pub(crate) fn park(&self, step: std::time::Duration, should_wake: impl Fn() -> bool) -> bool {
        let mut g = self.park_lock.lock();
        self.parked.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        if self.any_arrivals() || should_wake() {
            self.parked.store(false, Ordering::Relaxed);
            return false;
        }
        let timed_out = self.arrived.wait_for(&mut g, step).timed_out();
        self.parked.store(false, Ordering::Relaxed);
        timed_out
    }

    /// Any undelivered message outside the stash? (The stash needs no
    /// check here: only the consumer fills it, and it consults it before
    /// parking.)
    fn any_arrivals(&self) -> bool {
        self.rings.iter().any(|r| !r.is_empty())
            || self.spill.iter().any(|l| l.spilled.load(Ordering::Acquire))
    }

    /// True if no undelivered message remains anywhere (racy snapshot;
    /// exact once senders and the receiver are quiesced).
    pub(crate) fn is_empty(&self) -> bool {
        !self.any_arrivals() && self.stashed.load(Ordering::Relaxed) == 0
    }

    /// The `(src, tag)` keys currently holding undelivered messages, for
    /// timeout diagnostics (consumer only — ingests first so ring and
    /// spill contents are visible).
    pub(crate) fn pending_keys(&self) -> Vec<(usize, Tag)> {
        self.ingest_all();
        let g = self.stash.lock();
        let mut keys: Vec<(usize, Tag)> = g
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(k, _)| *k)
            .collect();
        keys.sort();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_capacity_rounds_up_to_power_of_two() {
        assert_eq!(SpscRing::<u32>::new(0).capacity(), 1);
        assert_eq!(SpscRing::<u32>::new(1).capacity(), 1);
        assert_eq!(SpscRing::<u32>::new(3).capacity(), 4);
        assert_eq!(SpscRing::<u32>::new(64).capacity(), 64);
    }

    #[test]
    fn ring_fifo_and_full() {
        let r = SpscRing::new(2);
        assert_eq!(r.push(1), Ok(()));
        assert_eq!(r.push(2), Ok(()));
        assert_eq!(r.push(3), Err(3), "full ring bounces the value back");
        assert_eq!(r.pop(), Some(1));
        assert_eq!(r.push(3), Ok(()));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn ring_wraps_around_many_laps() {
        let r = SpscRing::new(4);
        for lap in 0u64..100 {
            for i in 0..4 {
                r.push(lap * 4 + i).expect("room for a full lap");
            }
            assert!(r.push(u64::MAX).is_err());
            for i in 0..4 {
                assert_eq!(r.pop(), Some(lap * 4 + i));
            }
            assert!(r.is_empty());
        }
    }

    #[test]
    fn ring_drops_in_flight_messages() {
        // Undelivered payloads must be freed when the ring is dropped.
        let payload = std::sync::Arc::new(());
        let r = SpscRing::new(4);
        r.push(std::sync::Arc::clone(&payload)).expect("room");
        r.push(std::sync::Arc::clone(&payload)).expect("room");
        assert_eq!(std::sync::Arc::strong_count(&payload), 3);
        drop(r);
        assert_eq!(std::sync::Arc::strong_count(&payload), 1);
    }

    #[test]
    fn ring_cross_thread_stress() {
        let r = std::sync::Arc::new(SpscRing::new(8));
        let tx = std::sync::Arc::clone(&r);
        const N: u64 = 50_000;
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                let mut v = i;
                loop {
                    match tx.push(v) {
                        Ok(()) => break,
                        Err(back) => {
                            v = back;
                            std::thread::yield_now();
                        }
                    }
                }
            }
        });
        let mut next = 0u64;
        while next < N {
            if let Some(v) = r.pop() {
                assert_eq!(v, next, "FIFO order broken");
                next += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().expect("producer");
        assert!(r.is_empty());
    }

    fn pkt(v: u32) -> Packet {
        Packet::pack(&v)
    }

    fn take(mb: &LockfreeMailbox, src: usize, tag: Tag) -> Option<u32> {
        mb.try_take(src, tag)
            .map(|p| p.unpack().expect("payload type"))
    }

    #[test]
    fn mailbox_spills_on_full_ring_and_keeps_fifo() {
        let mb = LockfreeMailbox::new(1, 2);
        let t = Tag::user(1);
        for i in 0..10u32 {
            mb.deposit(0, t, pkt(i));
        }
        for want in 0..10u32 {
            let got = take(&mb, 0, t).expect("all ten must be delivered");
            assert_eq!(got, want, "ring→spill handoff must stay FIFO");
        }
        assert!(mb.try_take(0, t).is_none());
        assert!(mb.is_empty());
    }

    #[test]
    fn mailbox_tag_mismatch_goes_to_stash_in_order() {
        let mb = LockfreeMailbox::new(1, 8);
        let (a, b) = (Tag::user(1), Tag::user(2));
        mb.deposit(0, a, pkt(1));
        mb.deposit(0, b, pkt(10));
        mb.deposit(0, a, pkt(2));
        // Taking tag b first stashes the older a-message…
        assert_eq!(take(&mb, 0, b), Some(10));
        // …which must still come out before the newer a-message.
        assert_eq!(take(&mb, 0, a), Some(1));
        assert_eq!(take(&mb, 0, a), Some(2));
        assert!(mb.is_empty());
    }

    #[test]
    fn mailbox_pending_keys_sees_ring_spill_and_stash() {
        let mb = LockfreeMailbox::new(2, 1);
        mb.deposit(0, Tag::user(3), pkt(0));
        mb.deposit(0, Tag::user(4), pkt(0)); // spills (cap 1)
        mb.deposit(1, Tag::user(5), pkt(0));
        assert_eq!(
            mb.pending_keys(),
            vec![(0, Tag::user(3)), (0, Tag::user(4)), (1, Tag::user(5))]
        );
    }

    #[test]
    fn park_times_out_without_arrivals_and_skips_with() {
        let mb = LockfreeMailbox::new(1, 2);
        let step = std::time::Duration::from_millis(10);
        assert!(mb.park(step, || false), "empty mailbox: park times out");
        mb.deposit(0, Tag::user(1), pkt(0));
        assert!(!mb.park(step, || false), "pending arrival: no wait");
        let _ = mb.try_take(0, Tag::user(1));
        assert!(!mb.park(step, || true), "should_wake (poison): no wait");
    }

    #[test]
    #[cfg(debug_assertions)]
    fn ring_debug_guard_catches_concurrent_producers() {
        use std::sync::atomic::AtomicBool;
        let r = std::sync::Arc::new(SpscRing::new(1024));
        let caught = std::sync::Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let r = std::sync::Arc::clone(&r);
            let caught = std::sync::Arc::clone(&caught);
            handles.push(std::thread::spawn(move || {
                for i in 0..20_000u32 {
                    if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let _ = r.push(i);
                    }))
                    .is_err()
                    {
                        caught.store(true, Ordering::Relaxed);
                        return;
                    }
                }
            }));
        }
        for h in handles {
            let _ = h.join();
        }
        // Racy by nature: the violation is *usually* caught; the assert
        // stays soft (no failure when the schedule never overlapped) but
        // the panic path is exercised whenever it does.
        let _ = caught.load(Ordering::Relaxed);
    }
}
