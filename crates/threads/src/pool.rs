//! A persistent fork-join worker pool emulating OpenMP parallel regions.
//!
//! The paper's FACT phase opens an OpenMP parallel region of `T` threads at
//! every panel factorization; threads stay warm between regions so region
//! entry costs are dominated by a single wake + barrier. This pool gives the
//! same shape: `N-1` persistent workers plus the calling thread, a
//! [`Pool::run`] that executes one closure on `t <= N` participants, an
//! in-region sense-reversing [`Ctx::barrier`], and the `maxloc` reduction
//! that HPL's pivot search needs.
//!
//! Work distribution is ownership-based (the caller partitions tiles by
//! thread id), *not* work-stealing: Parallel Cache Assignment relies on each
//! tile staying with one thread so it remains resident in that core's cache.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, Receiver, Sender};
use crossbeam::utils::CachePadded;
use hpl_faults::Injector;

/// Fault arming for a pool: the owning rank's world id plus the job's
/// injector, so worker threads (which have no rank TLS of their own) can be
/// tagged and slow-worker faults can fire at region entry.
#[derive(Clone)]
struct FaultArm {
    world_rank: usize,
    injector: Arc<Injector>,
}

/// Reusable sense-reversing spin barrier for a fixed participant count,
/// with a park fallback so long waits (e.g. the FACT pivot collective
/// running on thread 0) stop stealing cycles from working siblings.
struct SpinBarrier {
    count: AtomicUsize,
    sense: AtomicBool,
    participants: usize,
    /// How many waiters are (or are about to be) parked on `gate`.
    sleepers: AtomicUsize,
    gate: parking_lot::Mutex<()>,
    wake: parking_lot::Condvar,
}

/// Pure-spin rounds before a waiter starts yielding the core.
const BARRIER_SPINS: u32 = 64;
/// Yield rounds after spinning before a waiter parks outright.
const BARRIER_YIELDS: u32 = 256;

impl SpinBarrier {
    fn new(participants: usize) -> Self {
        Self {
            count: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            participants,
            sleepers: AtomicUsize::new(0),
            gate: parking_lot::Mutex::new(()),
            wake: parking_lot::Condvar::new(),
        }
    }

    /// Blocks until all participants arrive. `local_sense` must be per-thread
    /// state initialized to `false` and owned by the caller.
    fn wait(&self, local_sense: &mut bool) {
        let my_sense = !*local_sense;
        *local_sense = my_sense;
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.participants {
            self.count.store(0, Ordering::Relaxed);
            // SeqCst store/load pair with the waiter's SeqCst
            // `sleepers`-increment/`sense`-recheck (Dekker): either this
            // load sees the sleeper (we notify under the gate lock), or the
            // sleeper's recheck sees the flipped sense (it never parks).
            self.sense.store(my_sense, Ordering::SeqCst);
            if self.sleepers.load(Ordering::SeqCst) > 0 {
                // Taking the gate before notifying pins the sleeper either
                // fully parked (the notify lands) or before its locked
                // recheck (it observes the flipped sense) — no lost wakeup.
                let _g = self.gate.lock();
                self.wake.notify_all();
            }
        } else {
            let mut spins = 0u32;
            while self.sense.load(Ordering::Acquire) != my_sense {
                spins += 1;
                if spins < BARRIER_SPINS {
                    core::hint::spin_loop();
                } else if spins < BARRIER_SPINS + BARRIER_YIELDS {
                    // Give oversubscribed siblings a chance to run; this is
                    // exactly the time-sharing scenario of §III.B.
                    std::thread::yield_now();
                } else {
                    self.park(my_sense);
                    return;
                }
            }
        }
    }

    /// Slow path: park on the condvar until the release flips `sense`.
    #[cold]
    fn park(&self, my_sense: bool) {
        let mut g = self.gate.lock();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        while self.sense.load(Ordering::SeqCst) != my_sense {
            self.wake.wait(&mut g);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Per-region shared state.
struct Region {
    barrier: SpinBarrier,
    /// Two banks of one `(value, index)` slot per participant; reductions
    /// alternate between them (see [`Ctx::reduce_maxloc`]).
    slots: [Vec<CachePadded<Slot>>; 2],
    nthreads: usize,
}

impl Region {
    fn new(nthreads: usize) -> Self {
        let bank = || {
            (0..nthreads)
                .map(|_| CachePadded::new(Slot::default()))
                .collect()
        };
        Self {
            barrier: SpinBarrier::new(nthreads),
            slots: [bank(), bank()],
            nthreads,
        }
    }
}

#[derive(Default)]
struct Slot {
    value: core::cell::Cell<f64>,
    index: core::cell::Cell<usize>,
}

// SAFETY: each slot's `Cell`s are written only by the owning thread (slot
// index == thread id) strictly before a barrier, and read by other threads
// strictly after it; the barrier's Release/Acquire pair orders the plain
// writes before the reads. A bank is written again only two reductions
// later, after a barrier every reader of its previous use has passed, so
// no two threads ever access a slot concurrently. `f64`/`usize` payloads
// carry no thread affinity.
unsafe impl Sync for Slot {}

/// Handle passed to the region closure: thread identity plus synchronization
/// and reduction primitives scoped to this region.
pub struct Ctx<'a> {
    tid: usize,
    region: &'a Region,
    local_sense: core::cell::Cell<bool>,
    /// Slot bank the next reduction uses. Every participant runs the same
    /// sequence of reductions, so the per-thread counters agree.
    bank: core::cell::Cell<usize>,
}

impl<'a> Ctx<'a> {
    fn new(tid: usize, region: &'a Region) -> Self {
        Self {
            tid,
            region,
            local_sense: core::cell::Cell::new(false),
            bank: core::cell::Cell::new(0),
        }
    }
}

impl Ctx<'_> {
    /// This thread's id within the region (`0..num_threads`). Thread 0 is the
    /// caller of [`Pool::run`] — the "main thread" in the paper's FACT
    /// description, which owns the first tile and talks to MPI.
    #[inline]
    pub fn thread_id(&self) -> usize {
        self.tid
    }

    /// Number of threads participating in this region.
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.region.nthreads
    }

    /// Region-wide barrier. A barrier is the phase boundary of the
    /// tile-ownership protocol, so the calling thread's aliasing-ledger
    /// claims are dropped before it waits (see [`crate::ledger`]).
    pub fn barrier(&self) {
        crate::ledger::release_current_thread();
        let mut s = self.local_sense.get();
        self.region.barrier.wait(&mut s);
        self.local_sense.set(s);
    }

    /// All-reduce of an `(|value|, index)` pair, returning the pair with the
    /// largest value (lowest index wins ties, so the result is deterministic
    /// and matches what a serial `idamax` over the concatenated ranges would
    /// pick when callers use ascending index spaces per thread).
    ///
    /// Every participant must call this exactly once per reduction; all
    /// receive the same result.
    ///
    /// One barrier per reduction: consecutive reductions (of either kind)
    /// alternate between two slot banks. A thread that writes a bank again
    /// two reductions later has passed the barrier of the reduction in
    /// between, which no thread reaches before it has finished reading that
    /// bank. Like any barrier, the reduction is a ledger release point; it
    /// is *not* a phase boundary after the read, so code that needs every
    /// thread past the reduction must add its own [`Ctx::barrier`].
    pub fn reduce_maxloc(&self, value: f64, index: usize) -> (f64, usize) {
        let mut best_v = f64::NEG_INFINITY;
        let mut best_i = usize::MAX;
        for s in self.publish(value, index) {
            let v = s.value.get();
            let i = s.index.get();
            if v > best_v || (v == best_v && i < best_i) {
                best_v = v;
                best_i = i;
            }
        }
        (best_v, best_i)
    }

    /// All-reduce sum of one `f64` per participant (deterministic order).
    /// Same protocol and cost as [`Ctx::reduce_maxloc`]: one barrier, the
    /// bank shared with it in alternation.
    pub fn reduce_sum(&self, value: f64) -> f64 {
        let mut s = 0.0;
        for sl in self.publish(value, 0) {
            s += sl.value.get();
        }
        s
    }

    /// Writes this thread's slot in the next bank, waits for every
    /// participant, and returns that bank's slots for reading.
    fn publish(&self, value: f64, index: usize) -> &[CachePadded<Slot>] {
        let bank = &self.region.slots[self.bank.get()];
        self.bank.set(self.bank.get() ^ 1);
        bank[self.tid].value.set(value);
        bank[self.tid].index.set(index);
        self.barrier();
        &bank[..self.region.nthreads]
    }
}

/// Type-erased borrowed job. The raw pointer is only dereferenced while
/// [`Pool::run`] is blocked waiting for region completion, so the borrow it
/// was created from is still live.
///
/// `call` is an `unsafe fn`: the caller must guarantee `data` points to a
/// live value of the closure type `call` was instantiated for.
#[derive(Clone, Copy)]
struct Job {
    data: *const (),
    call: unsafe fn(*const (), &Ctx<'_>),
}

// SAFETY: `data` points to a closure constrained to `Fn(&Ctx<'_>) + Sync` by
// `Pool::run`, so sharing the pointee across threads is sound; the pointer
// itself is plain data. Liveness is upheld by `Pool::run` blocking on the
// `done` channel until every worker has finished calling it.
unsafe impl Send for Job {}

struct Packet {
    job: Job,
    region: Arc<Region>,
    tid: usize,
    done: Sender<()>,
    arm: Option<FaultArm>,
}

enum Msg {
    Run(Packet),
    Shutdown,
}

/// Persistent fork-join worker pool. See the module docs.
pub struct Pool {
    senders: Vec<Sender<Msg>>,
    handles: Vec<JoinHandle<()>>,
    size: usize,
    /// Set once by [`Pool::arm_faults`] on fault-injected runs; `None` on
    /// normal runs (the per-region cost is then a single atomic load).
    faults: OnceLock<FaultArm>,
}

impl Pool {
    /// Creates a pool that can run regions of up to `size` threads
    /// (the calling thread plus `size - 1` workers).
    pub fn new(size: usize) -> Self {
        assert!(size >= 1, "pool needs at least one thread");
        let mut senders = Vec::with_capacity(size - 1);
        let mut handles = Vec::with_capacity(size - 1);
        for w in 1..size {
            let (tx, rx): (Sender<Msg>, Receiver<Msg>) = bounded(1);
            senders.push(tx);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("hpl-pool-{w}"))
                    .spawn(move || worker_loop(rx))
                    .expect("spawn pool worker"),
            );
        }
        Self {
            senders,
            handles,
            size,
            faults: OnceLock::new(),
        }
    }

    /// Maximum region width.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Arms deterministic fault injection for every subsequent region: each
    /// participant is tagged with `world_rank` (so injected faults match by
    /// rank even on pool worker threads, which have no rank TLS of their
    /// own) and slow-worker faults fire at region entry. Later calls are
    /// ignored — a pool belongs to one rank for its whole life.
    pub fn arm_faults(&self, world_rank: usize, injector: Arc<Injector>) {
        let _ = self.faults.set(FaultArm {
            world_rank,
            injector,
        });
    }

    /// Runs `f` on `nthreads` participants (1 ≤ nthreads ≤ size). The calling
    /// thread participates as thread 0 and the call returns only after every
    /// participant has finished, so `f` may borrow from the caller's stack.
    pub fn run<F>(&self, nthreads: usize, f: F)
    where
        F: Fn(&Ctx<'_>) + Sync,
    {
        let nthreads = nthreads.clamp(1, self.size);
        let arm = self.faults.get();
        if nthreads == 1 {
            let region = Region::new(1);
            enter_region(arm, 0);
            f(&Ctx::new(0, &region));
            crate::ledger::release_current_thread();
            return;
        }
        let region = Arc::new(Region::new(nthreads));
        /// # Safety
        /// `data` must point to a live `F`; `Pool::run` guarantees this by
        /// blocking until every worker's `done` signal arrives.
        unsafe fn trampoline<F: Fn(&Ctx<'_>) + Sync>(data: *const (), ctx: &Ctx<'_>) {
            // SAFETY: contract above — `data` was produced from `&f` in the
            // enclosing `run` call, which is still on the caller's stack.
            let f = unsafe { &*(data as *const F) };
            f(ctx);
        }
        let job = Job {
            data: &f as *const F as *const (),
            call: trampoline::<F>,
        };
        let (done_tx, done_rx) = bounded(nthreads - 1);
        for tid in 1..nthreads {
            self.senders[tid - 1]
                .send(Msg::Run(Packet {
                    job,
                    region: Arc::clone(&region),
                    tid,
                    done: done_tx.clone(),
                    arm: arm.cloned(),
                }))
                .expect("pool worker died");
        }
        // Drop the prototype sender so `done_rx` holds only the workers'
        // clones: if a worker dies without signaling (e.g. a panic in the
        // region closure), `recv` below reports it instead of hanging.
        drop(done_tx);
        // Participate as thread 0.
        enter_region(arm, 0);
        f(&Ctx::new(0, &region));
        crate::ledger::release_current_thread();
        // Wait for all workers before returning: this keeps the borrow of
        // `f` (captured by raw pointer) alive for the region's duration.
        for _ in 1..nthreads {
            done_rx.recv().expect("pool worker died");
        }
    }
}

/// Tags the current thread with the arming rank and fires any matching
/// slow-worker fault before the region body runs. No-op (one branch on an
/// already-loaded `Option`) when faults are not armed.
#[inline]
fn enter_region(arm: Option<&FaultArm>, tid: usize) {
    if let Some(a) = arm {
        hpl_faults::set_world_rank(a.world_rank);
        if let Some(millis) = a.injector.region_sleep(tid) {
            std::thread::sleep(std::time::Duration::from_millis(millis));
        }
    }
}

fn worker_loop(rx: Receiver<Msg>) {
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Run(p) => {
                let ctx = Ctx::new(p.tid, &p.region);
                enter_region(p.arm.as_ref(), p.tid);
                // SAFETY: `Pool::run` blocks until we signal `done`, so the
                // closure behind `job.data` outlives this call.
                unsafe { (p.job.call)(p.job.data, &ctx) };
                crate::ledger::release_current_thread();
                let _ = p.done.send(());
            }
            Msg::Shutdown => break,
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        for tx in &self.senders {
            let _ = tx.send(Msg::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn all_threads_participate() {
        let pool = Pool::new(4);
        let seen = AtomicU64::new(0);
        pool.run(4, |ctx| {
            seen.fetch_or(1 << ctx.thread_id(), Ordering::SeqCst);
        });
        assert_eq!(seen.load(Ordering::SeqCst), 0b1111);
    }

    #[test]
    fn narrower_region_than_pool() {
        let pool = Pool::new(8);
        let seen = AtomicU64::new(0);
        pool.run(3, |ctx| {
            assert_eq!(ctx.num_threads(), 3);
            seen.fetch_or(1 << ctx.thread_id(), Ordering::SeqCst);
        });
        assert_eq!(seen.load(Ordering::SeqCst), 0b111);
    }

    #[test]
    fn single_thread_region_runs_inline() {
        let pool = Pool::new(2);
        let touched = AtomicBool::new(false);
        pool.run(1, |ctx| {
            assert_eq!(ctx.thread_id(), 0);
            assert_eq!(ctx.num_threads(), 1);
            touched.store(true, Ordering::SeqCst);
        });
        assert!(touched.load(Ordering::SeqCst));
    }

    #[test]
    fn barrier_orders_phases() {
        let pool = Pool::new(4);
        let phase1 = AtomicUsize::new(0);
        let ok = AtomicUsize::new(0);
        pool.run(4, |ctx| {
            phase1.fetch_add(1, Ordering::SeqCst);
            ctx.barrier();
            // After the barrier every thread must observe all 4 arrivals.
            if phase1.load(Ordering::SeqCst) == 4 {
                ok.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(ok.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn repeated_barriers_do_not_deadlock() {
        let pool = Pool::new(3);
        let counter = AtomicUsize::new(0);
        pool.run(3, |ctx| {
            for _ in 0..100 {
                counter.fetch_add(1, Ordering::Relaxed);
                ctx.barrier();
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 300);
    }

    #[test]
    fn maxloc_reduction_agrees_everywhere() {
        let pool = Pool::new(4);
        let results = parking_lot::Mutex::new(Vec::new());
        pool.run(4, |ctx| {
            let tid = ctx.thread_id();
            // Thread 2 holds the max.
            let v = if tid == 2 { 100.0 } else { tid as f64 };
            let r = ctx.reduce_maxloc(v, tid * 10);
            results.lock().push(r);
        });
        let rs = results.into_inner();
        assert_eq!(rs.len(), 4);
        for r in rs {
            assert_eq!(r, (100.0, 20));
        }
    }

    #[test]
    fn maxloc_tie_breaks_by_lowest_index() {
        let pool = Pool::new(4);
        let out = parking_lot::Mutex::new((0.0, 0usize));
        pool.run(4, |ctx| {
            let r = ctx.reduce_maxloc(5.0, ctx.thread_id() + 7);
            if ctx.thread_id() == 0 {
                *out.lock() = r;
            }
        });
        assert_eq!(out.into_inner(), (5.0, 7));
    }

    #[test]
    fn sum_reduction() {
        let pool = Pool::new(5);
        let out = AtomicU64::new(0);
        pool.run(5, |ctx| {
            let s = ctx.reduce_sum(ctx.thread_id() as f64 + 1.0);
            if ctx.thread_id() == 0 {
                out.store(s as u64, Ordering::SeqCst);
            }
        });
        assert_eq!(out.load(Ordering::SeqCst), 15);
    }

    #[test]
    fn pool_reusable_across_regions() {
        let pool = Pool::new(4);
        let total = AtomicUsize::new(0);
        for t in 1..=4 {
            pool.run(t, |_| {
                total.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(total.load(Ordering::SeqCst), 1 + 2 + 3 + 4);
    }

    #[test]
    fn armed_pool_fires_slow_worker_and_tags_rank() {
        use hpl_faults::FaultPlan;
        // slowworker:30@0:region:1 — worker tid 1's first region entry on
        // rank 0 sleeps 30 ms; everyone else is untouched.
        let plan = FaultPlan::parse(7, &["slowworker:30@0:region:1".into()]).unwrap();
        let inj = hpl_faults::Injector::new(plan, 1);
        let pool = Pool::new(3);
        pool.arm_faults(0, Arc::clone(&inj));
        let t0 = std::time::Instant::now();
        let ranks = parking_lot::Mutex::new(Vec::new());
        pool.run(3, |ctx| {
            // Every participant (workers included) is tagged with the
            // arming rank.
            ranks
                .lock()
                .push((ctx.thread_id(), hpl_faults::world_rank()));
        });
        assert!(
            t0.elapsed() >= std::time::Duration::from_millis(30),
            "slow-worker fault must delay the region"
        );
        let mut seen = ranks.into_inner();
        seen.sort();
        assert_eq!(seen, vec![(0, Some(0)), (1, Some(0)), (2, Some(0))]);
        let ev: Vec<String> = inj.events(0).iter().map(|e| e.to_string()).collect();
        assert_eq!(ev, vec!["region#1:slowworker:30".to_string()]);
    }

    #[test]
    fn unarmed_pool_has_no_fault_state() {
        let pool = Pool::new(2);
        pool.run(2, |_| {});
        assert!(pool.faults.get().is_none());
    }

    #[test]
    fn borrows_caller_stack() {
        let pool = Pool::new(4);
        let data: Vec<usize> = (0..100).collect();
        let partial = AtomicUsize::new(0);
        pool.run(4, |ctx| {
            let t = ctx.thread_id();
            let s: usize = data.iter().skip(t).step_by(4).sum();
            partial.fetch_add(s, Ordering::SeqCst);
        });
        assert_eq!(partial.load(Ordering::SeqCst), 4950);
    }
}
