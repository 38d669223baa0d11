//! Exhaustive model check of the mailbox send/recv/poison protocol behind
//! `Fabric::try_recv`.
//!
//! [`LockfreeModel`] mirrors the synchronization skeleton of the SPSC
//! mailbox in `crates/comm/src/spsc.rs`, with payloads and timeout polling
//! stripped away: a bounded ring (atomic head/tail), a `parked` flag
//! published before a locked re-check, and a park lock that `wake`/`poison`
//! must take before notifying. The shim serializes execution, so the
//! `SeqCst` fences of the real code are represented by the shim's
//! (SeqCst-only) atomics.
//!
//! The contract it is checked against:
//!
//! 1. a deposited message is always delivered (no lost wakeup);
//! 2. delivery is FIFO;
//! 3. poisoning always unblocks a parked receiver;
//! 4. a message deposited before a death beats the poison check.
//!
//! The model also proves the checker *catches* its own lost-wakeup bug
//! when `poison` skips the lock round-trip: the real implementation may
//! not "optimize away" that lock (its timeout polling would mask the bug
//! at a latency cost instead of failing loudly).

use std::panic::{catch_unwind, AssertUnwindSafe};

use loom::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use loom::sync::{Arc, Condvar, Mutex};
use loom::thread;

/// One rank's inbox plus the job poison flag: one bounded ring (capacity
/// 2 — enough for every contract scenario, small enough for exhaustive
/// DFS) and the park protocol of `LockfreeMailbox`: publish `parked`,
/// re-check under the park lock, wait.
///
/// Only the *control* state is modeled with (decision-point-generating)
/// shim atomics: `tail`, `parked` and `poison`. Slot payloads and the
/// consumer-private `head` are plain cells — the protocol under test keeps
/// them single-sided (slots are written strictly before the tail publish
/// and read strictly after observing it; head is touched only by the
/// consumer), and the shim's serialized scheduler means they add no
/// observable interleavings, only DFS depth.
struct LockfreeModel {
    slots: [std::cell::Cell<u32>; 2],
    head: std::cell::Cell<usize>,
    /// Producer-private tail cursor (the real ring's Relaxed self-load).
    ptail: std::cell::Cell<usize>,
    tail: AtomicUsize,
    parked: AtomicBool,
    park_lock: Mutex<()>,
    arrived: Condvar,
    poison: AtomicBool,
}

// SAFETY: the `Cell` fields are accessed single-sided under the SPSC
// protocol (the producer owns `ptail` and writes a slot only before
// publishing it via `tail`; the consumer owns `head` and reads slots only
// after observing the `tail` publication), and the loom shim runs threads
// strictly one at a time, so the cells are never physically touched
// concurrently.
unsafe impl Sync for LockfreeModel {}

impl LockfreeModel {
    fn new() -> Arc<Self> {
        Arc::new(LockfreeModel {
            slots: [std::cell::Cell::new(0), std::cell::Cell::new(0)],
            head: std::cell::Cell::new(0),
            ptail: std::cell::Cell::new(0),
            tail: AtomicUsize::new(0),
            parked: AtomicBool::new(false),
            park_lock: Mutex::new(()),
            arrived: Condvar::new(),
            poison: AtomicBool::new(false),
        })
    }

    /// Consumer-only ring pop (head is consumer-private).
    fn try_pop(&self) -> Option<u32> {
        let h = self.head.get();
        if self.tail.load(Ordering::SeqCst) == h {
            return None;
        }
        let v = self.slots[h & 1].get();
        self.head.set(h + 1);
        Some(v)
    }

    fn has_arrivals(&self) -> bool {
        self.tail.load(Ordering::SeqCst) != self.head.get()
    }

    /// Producer-only ring push, then the wake half of the Dekker pair:
    /// publish, then check `parked`, notifying only with the park lock held.
    /// (Contract scenarios never overfill the cap-2 ring, so the full/spill
    /// branch — covered by unit and property tests — is elided here.)
    fn deposit(&self, msg: u32) {
        let t = self.ptail.get();
        self.slots[t & 1].set(msg);
        self.ptail.set(t + 1);
        self.tail.store(t + 1, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) {
            let _g = self.park_lock.lock();
            self.arrived.notify_all();
        }
    }

    /// `Fabric::poison`: raise the flag, then touch the park lock before
    /// notifying so a sleeper can't miss the wakeup between its check and
    /// its wait.
    fn poison(&self) {
        self.poison.store(true, Ordering::SeqCst);
        let _g = self.park_lock.lock();
        self.arrived.notify_all();
    }

    /// The broken variant: same store and notify but without the lock.
    fn broken_poison(&self) {
        self.poison.store(true, Ordering::SeqCst);
        self.arrived.notify_all();
    }

    /// `Fabric::wait_recv`: non-blocking take, poison check with one final
    /// sweep (deposit-before-death precedence without a shared lock), then
    /// the park protocol. The model waits untimed where the real code uses
    /// a timed park, so a lost wakeup is a *deadlock* here instead of a
    /// 100 ms hiccup — that is the point.
    fn recv(&self) -> Result<u32, &'static str> {
        loop {
            if let Some(m) = self.try_pop() {
                return Ok(m);
            }
            if self.poison.load(Ordering::SeqCst) {
                // The dying rank publishes its last deposit before the
                // flag, so one final sweep keeps queue-first precedence.
                if let Some(m) = self.try_pop() {
                    return Ok(m);
                }
                return Err("rank failed");
            }
            let mut g = self.park_lock.lock();
            self.parked.store(true, Ordering::SeqCst);
            // Re-check after publishing `parked` (the consumer half of the
            // Dekker pair): anything deposited before the producer read
            // `parked == false` is visible here.
            if self.has_arrivals() || self.poison.load(Ordering::SeqCst) {
                self.parked.store(false, Ordering::SeqCst);
                continue;
            }
            g = self.arrived.wait(g);
            self.parked.store(false, Ordering::SeqCst);
            drop(g);
        }
    }
}

/// The contract properties, one plain test each over [`LockfreeModel`].
mod lockfree_mailbox {
    use super::*;

    #[test]
    fn message_is_delivered_in_every_interleaving() {
        loom::model(|| {
            let m = LockfreeModel::new();
            let tx = Arc::clone(&m);
            let sender = thread::spawn(move || tx.deposit(7));
            assert_eq!(m.recv(), Ok(7));
            sender.join().expect("sender");
        });
    }

    #[test]
    fn delivery_is_fifo() {
        loom::model(|| {
            let m = LockfreeModel::new();
            let tx = Arc::clone(&m);
            let sender = thread::spawn(move || {
                tx.deposit(1);
                tx.deposit(2);
            });
            assert_eq!(m.recv(), Ok(1));
            assert_eq!(m.recv(), Ok(2));
            sender.join().expect("sender");
        });
    }

    #[test]
    fn poison_always_unblocks_a_parked_receiver() {
        loom::model(|| {
            let m = LockfreeModel::new();
            let killer = Arc::clone(&m);
            let t = thread::spawn(move || killer.poison());
            // Empty mailbox: the only way out is the poison flag.
            // Every interleaving must terminate (a lost wakeup
            // would deadlock).
            assert_eq!(m.recv(), Err("rank failed"));
            t.join().expect("poisoner");
        });
    }

    #[test]
    fn message_deposited_before_death_beats_the_poison() {
        loom::model(|| {
            let m = LockfreeModel::new();
            let tx = Arc::clone(&m);
            let t = thread::spawn(move || {
                tx.deposit(9);
                tx.poison();
            });
            assert_eq!(m.recv(), Ok(9), "queued message wins over the poison");
            t.join().expect("dying sender");
        });
    }

    #[test]
    fn checker_catches_poison_without_the_park_lock() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            loom::model(|| {
                let m = LockfreeModel::new();
                let killer = Arc::clone(&m);
                let t = thread::spawn(move || killer.broken_poison());
                let _ = m.recv();
                t.join().expect("poisoner");
            });
        }));
        let msg = match r {
            Ok(()) => panic!("the lock-free poison's lost wakeup went undetected"),
            Err(e) => *e.downcast::<String>().expect("panic message"),
        };
        assert!(msg.contains("deadlock"), "unexpected diagnosis: {msg}");
        assert!(
            msg.contains("condvar"),
            "should blame the parked receiver: {msg}"
        );
    }
}
