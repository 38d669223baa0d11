//! Pool stress tests with the aliasing ledger enabled.
//!
//! Tests build with `debug_assertions`, so every claim recorded here is
//! actually checked (see `hpl_threads::ledger::enabled`); an optimized
//! build checks them only with `race-check`, and without it the two tests
//! that need a live ledger are compiled out. The stress shapes
//! mirror FACT: many small regions back to back on one warm pool, randomized
//! tile counts per region, and heavy barrier reuse inside each region.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};

use hpl_threads::{ledger, round_robin_tiles, Pool};

#[cfg(any(debug_assertions, feature = "race-check"))]
#[test]
fn ledger_is_active_for_these_tests() {
    assert!(
        ledger::enabled(),
        "stress tests must run with the ledger on"
    );
}

/// Many small regions on one pool, each claiming its round-robin tiles
/// exclusively, as the FACT tile protocol does. No overlap → no panic, and
/// every claim must be gone once the region returns.
#[test]
fn repeated_small_regions_with_randomized_tiles() {
    let pool = Pool::new(4);
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for round in 0..200 {
        let nthreads = rng.gen_range(1..=4usize);
        let rows = rng.gen_range(1..=96usize);
        let tile = rng.gen_range(1..=16usize);
        let covered = AtomicUsize::new(0);
        let obj = 0xA000 + round; // fresh object per region
        pool.run(nthreads, |ctx| {
            for t in round_robin_tiles(rows, tile, ctx.num_threads(), ctx.thread_id()) {
                let r0 = t * tile;
                let r1 = ((t + 1) * tile).min(rows);
                ledger::claim_excl(obj, r0, r1);
                covered.fetch_add(r1 - r0, Ordering::Relaxed);
            }
            ctx.barrier();
            // Second phase: everyone reads the whole object.
            ledger::claim_shared(obj, 0, rows);
        });
        assert_eq!(
            covered.load(Ordering::Relaxed),
            rows,
            "tiles must cover all rows"
        );
        assert_eq!(
            ledger::live_claims_on(obj),
            0,
            "region end must release all claims"
        );
    }
}

/// Barrier reuse across phases: each phase claims a *different* disjoint
/// partition of the same object, so any claim leaking across a barrier would
/// collide with the next phase's rotated assignment.
#[test]
fn barrier_rotated_ownership_over_many_phases() {
    let pool = Pool::new(3);
    let rows = 30usize;
    let tile = 5usize;
    let obj = 0xB000;
    pool.run(3, |ctx| {
        let n = ctx.num_threads();
        for phase in 0..50 {
            // Rotate tile ownership by `phase` so every thread eventually
            // claims every tile.
            let shifted = (ctx.thread_id() + phase) % n;
            for t in round_robin_tiles(rows, tile, n, shifted) {
                ledger::claim_excl(obj, t * tile, ((t + 1) * tile).min(rows));
            }
            ctx.barrier();
        }
    });
    assert_eq!(ledger::live_claims_on(obj), 0);
}

/// The reductions are built on barriers, so they are release points too.
#[test]
fn reductions_release_claims() {
    let pool = Pool::new(4);
    let obj = 0xC000;
    pool.run(4, |ctx| {
        let tid = ctx.thread_id();
        ledger::claim_excl(obj, tid * 8, tid * 8 + 8);
        let (v, i) = ctx.reduce_maxloc(tid as f64, tid);
        assert_eq!((v, i), (3.0, 3));
        // Post-reduction phase: claim the tile to the "left" — only sound
        // because reduce_maxloc's barrier released phase 1.
        let left = (tid + 3) % 4;
        ledger::claim_excl(obj, left * 8, left * 8 + 8);
    });
    assert_eq!(ledger::live_claims_on(obj), 0);
}

/// A reduction is one barrier over two alternating slot banks. Ten thousand
/// back-to-back reductions of both kinds at T = 4, with the winner rotating
/// every round and a plain barrier now and then: each round's slots hold
/// values no other round writes, so a thread that reads a bank a faster
/// thread has already refilled for a later round gets a wrong answer.
/// Mismatches are counted, not asserted in the region, so a failure cannot
/// strand the other threads at a barrier.
#[test]
fn back_to_back_reductions_never_read_a_refilled_bank() {
    const ROUNDS: usize = 10_000;
    let pool = Pool::new(4);
    let wrong = AtomicUsize::new(0);
    pool.run(4, |ctx| {
        let (n, tid) = (ctx.num_threads(), ctx.thread_id());
        for r in 0..ROUNDS {
            let ok = if r % 3 == 2 {
                let s = ctx.reduce_sum((r * n + tid) as f64);
                s == (r * n * n + n * (n - 1) / 2) as f64
            } else {
                let winner = r % n;
                let v = if tid == winner {
                    (ROUNDS + r) as f64
                } else {
                    r as f64
                };
                ctx.reduce_maxloc(v, r * n + tid) == ((ROUNDS + r) as f64, r * n + winner)
            };
            if !ok {
                wrong.fetch_add(1, Ordering::Relaxed);
            }
            if r % 5 == 4 {
                ctx.barrier();
            }
        }
    });
    assert_eq!(
        wrong.load(Ordering::Relaxed),
        0,
        "reductions read a reused slot"
    );
}

/// The ledger must catch a deliberate ownership violation inside a pool
/// region: thread 0 claims a tile mutably, then thread 1 claims an
/// overlapping range in the same phase (ordering enforced, so the panic
/// always lands on thread 1 and `Pool::run` surfaces it as a dead worker).
#[cfg(any(debug_assertions, feature = "race-check"))]
#[test]
fn ledger_detects_deliberate_overlap_in_region() {
    let pool = Pool::new(2);
    let obj = 0xD000;
    let step = AtomicUsize::new(0);
    /// Marks thread 1's claim attempt finished even when it unwinds, so
    /// thread 0 provably holds its claim across the overlap.
    struct Done<'a>(&'a AtomicUsize);
    impl Drop for Done<'_> {
        fn drop(&mut self) {
            self.0.store(2, Ordering::Release);
        }
    }
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.run(2, |ctx| {
            if ctx.thread_id() == 0 {
                ledger::claim_excl(obj, 0, 10);
                step.store(1, Ordering::Release);
                // Hold the claim until thread 1's attempt has resolved.
                while step.load(Ordering::Acquire) < 2 {
                    std::thread::yield_now();
                }
            } else {
                while step.load(Ordering::Acquire) == 0 {
                    std::thread::yield_now();
                }
                let _done = Done(&step);
                ledger::claim_excl(obj, 5, 15); // overlaps thread 0's tile
            }
        });
    }))
    .expect_err("overlapping mutable claims must abort the region");
    let msg = err
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| err.downcast_ref::<&str>().copied())
        .expect("panic payload is a string");
    // Thread 1 dies inside the region; `Pool::run` (thread 0) then panics
    // on the severed done-channel. Either message proves detection.
    assert!(
        msg.contains("race-ledger") || msg.contains("pool worker died"),
        "unexpected panic: {msg}"
    );
    // Thread 0's claim outlived the region it died in; drop it.
    ledger::reset_object(obj);
    assert_eq!(ledger::live_claims_on(obj), 0);
}
