//! Dynamic aliasing ledger for the multi-threaded FACT path.
//!
//! The factorization shares matrices across pool threads by raw pointer
//! under a *tile-ownership-between-barriers* protocol: disjoint row ranges
//! are claimed by their owning thread during a parallel phase, and every
//! claim dies at the next [`crate::Ctx::barrier`]. The compiler cannot check
//! that protocol, so this module checks it at runtime in debug builds (and
//! whenever the `race-check` feature is on): each mutable or shared claim is
//! recorded here, and a claim that overlaps another *thread's* live mutable
//! claim — or a mutable claim overlapping any other thread's live claim —
//! panics immediately with **both** claim sites.
//!
//! Claims are keyed by the claimed object's base address and a half-open
//! row range `r0..r1`, matching `SharedMat::rows_mut` in `rhpl-core`
//! (distinct row ranges of a column-major matrix touch disjoint elements).
//! Scalar objects claim `0..1`.
//!
//! Release points (wired into [`crate::pool`]):
//! - [`crate::Ctx::barrier`] — a thread entering a barrier first drops all
//!   its claims (the protocol's phase boundary), so the reductions built on
//!   barriers release too;
//! - region end — both the worker loop and `Pool::run`'s thread-0 path drop
//!   the thread's claims when the region closure returns.
//!
//! In release builds without `race-check` every entry point is an empty
//! `#[inline]` no-op; the ledger costs nothing.

#[cfg(any(debug_assertions, feature = "race-check"))]
mod imp {
    use std::panic::Location;
    use std::thread::ThreadId;

    struct Claim {
        obj: usize,
        r0: usize,
        r1: usize,
        excl: bool,
        thread: ThreadId,
        site: &'static Location<'static>,
    }

    static CLAIMS: parking_lot::Mutex<Vec<Claim>> = parking_lot::Mutex::new(Vec::new());

    fn kind(excl: bool) -> &'static str {
        if excl {
            "mutable"
        } else {
            "shared"
        }
    }

    pub fn claim(obj: usize, r0: usize, r1: usize, excl: bool, site: &'static Location<'static>) {
        let me = std::thread::current().id();
        let mut claims = CLAIMS.lock();
        for c in claims.iter() {
            let overlap = c.obj == obj && r0 < c.r1 && c.r0 < r1;
            if overlap && c.thread != me && (c.excl || excl) {
                // Copy the diagnostics out, drop the lock, then panic so the
                // ledger itself stays usable from other threads.
                let msg = format!(
                    "race-ledger: {} claim of rows {r0}..{r1} of object {obj:#x} by thread \
                     {me:?} at {site} overlaps live {} claim of rows {}..{} by thread {:?} \
                     at {} (tile-ownership protocol violated: ranges claimed by different \
                     threads between two barriers must be disjoint unless all are shared)",
                    kind(excl),
                    kind(c.excl),
                    c.r0,
                    c.r1,
                    c.thread,
                    c.site,
                );
                drop(claims);
                // Panicking on a protocol violation is the ledger's entire
                // job; this is a debug-only facility.
                // xtask-allow: no-panic — the detection mechanism itself
                panic!("{msg}");
            }
        }
        claims.push(Claim {
            obj,
            r0,
            r1,
            excl,
            thread: me,
            site,
        });
    }

    pub fn release_current_thread() {
        let me = std::thread::current().id();
        CLAIMS.lock().retain(|c| c.thread != me);
    }

    pub fn live_claims_on(obj: usize) -> usize {
        CLAIMS.lock().iter().filter(|c| c.obj == obj).count()
    }

    pub fn reset_object(obj: usize) {
        CLAIMS.lock().retain(|c| c.obj != obj);
    }
}

/// Records a mutable (exclusive) claim of rows `r0..r1` of the object whose
/// base address is `obj`. Panics if the range overlaps any other thread's
/// live claim on the same object.
///
/// No-op in release builds without the `race-check` feature.
#[track_caller]
#[inline]
pub fn claim_excl(obj: usize, r0: usize, r1: usize) {
    #[cfg(any(debug_assertions, feature = "race-check"))]
    imp::claim(obj, r0, r1, true, std::panic::Location::caller());
    #[cfg(not(any(debug_assertions, feature = "race-check")))]
    let _ = (obj, r0, r1);
}

/// Records a shared (read) claim of rows `r0..r1` of the object whose base
/// address is `obj`. Panics if the range overlaps another thread's live
/// *mutable* claim on the same object.
///
/// No-op in release builds without the `race-check` feature.
#[track_caller]
#[inline]
pub fn claim_shared(obj: usize, r0: usize, r1: usize) {
    #[cfg(any(debug_assertions, feature = "race-check"))]
    imp::claim(obj, r0, r1, false, std::panic::Location::caller());
    #[cfg(not(any(debug_assertions, feature = "race-check")))]
    let _ = (obj, r0, r1);
}

/// Drops every live claim held by the calling thread. Called by the pool at
/// each barrier and at region end; claims never outlive a phase.
#[inline]
pub fn release_current_thread() {
    #[cfg(any(debug_assertions, feature = "race-check"))]
    imp::release_current_thread();
}

/// True when claims are actually recorded (debug build or `race-check`).
#[inline]
#[must_use]
pub fn enabled() -> bool {
    cfg!(any(debug_assertions, feature = "race-check"))
}

/// Number of live claims on the object whose base address is `obj`, across
/// all threads (0 when the ledger is disabled). Test support; keyed by
/// object because the ledger is process-global and tests run concurrently,
/// each on objects of its own.
#[inline]
#[must_use]
pub fn live_claims_on(obj: usize) -> usize {
    #[cfg(any(debug_assertions, feature = "race-check"))]
    {
        imp::live_claims_on(obj)
    }
    #[cfg(not(any(debug_assertions, feature = "race-check")))]
    {
        let _ = obj;
        0
    }
}

/// Drops every claim on `obj`, whichever thread holds it. Only for tests
/// that deliberately trigger a ledger panic and must clean up the claims the
/// panicking region left behind (a dead thread cannot release its own).
#[doc(hidden)]
#[inline]
pub fn reset_object(obj: usize) {
    #[cfg(any(debug_assertions, feature = "race-check"))]
    imp::reset_object(obj);
    #[cfg(not(any(debug_assertions, feature = "race-check")))]
    let _ = obj;
}

#[cfg(test)]
mod tests {
    use super::*;

    // The ledger is process-global and tests run concurrently: each test
    // claims an object id of its own and looks only at that object.

    #[test]
    fn disjoint_excl_claims_from_two_threads_pass() {
        let obj = 0x1000;
        claim_excl(obj, 0, 8);
        let t = std::thread::spawn(move || {
            claim_excl(obj, 8, 16);
            release_current_thread();
        });
        t.join().expect("disjoint claim must not panic");
        release_current_thread();
        assert_eq!(live_claims_on(obj), 0);
    }

    #[cfg(any(debug_assertions, feature = "race-check"))]
    #[test]
    fn overlapping_excl_claims_panic_with_both_sites() {
        use std::panic::AssertUnwindSafe;
        use std::sync::atomic::{AtomicBool, Ordering};

        let obj = 0x2000;
        let placed = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                claim_excl(obj, 0, 8);
                placed.store(true, Ordering::Release);
                // Hold the claim until the main thread has hit the overlap.
                while live_claims_on(obj) != 0 {
                    std::thread::yield_now();
                }
            });
            while !placed.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| claim_excl(obj, 4, 12)))
                .expect_err("overlapping mutable claims must panic");
            let msg = err
                .downcast_ref::<String>()
                .expect("ledger panics with a String payload");
            assert!(msg.contains("race-ledger"), "{msg}");
            assert!(msg.contains("rows 4..12"), "missing second site: {msg}");
            assert!(msg.contains("rows 0..8"), "missing first site: {msg}");
            assert!(msg.contains("ledger.rs"), "missing claim locations: {msg}");
            reset_object(obj); // releases the spawned thread's spin too
        });
    }

    #[test]
    fn shared_overlapping_shared_passes() {
        let obj = 0x3000;
        claim_shared(obj, 0, 16);
        std::thread::spawn(move || {
            claim_shared(obj, 4, 12);
            release_current_thread();
        })
        .join()
        .expect("shared/shared overlap is fine");
        release_current_thread();
    }

    #[cfg(any(debug_assertions, feature = "race-check"))]
    #[test]
    fn shared_overlapping_foreign_excl_panics() {
        let obj = 0x4000;
        claim_excl(obj, 0, 16);
        let r = std::thread::spawn(move || {
            std::panic::catch_unwind(|| claim_shared(obj, 10, 11)).is_err()
        })
        .join()
        .expect("probe thread itself must not die");
        assert!(r, "shared claim over a foreign mutable claim must panic");
        release_current_thread();
        assert_eq!(live_claims_on(obj), 0);
    }

    #[cfg(any(debug_assertions, feature = "race-check"))]
    #[test]
    fn same_thread_overlap_is_allowed() {
        let obj = 0x5000;
        claim_shared(obj, 0, 32);
        claim_excl(obj, 3, 5); // single-threaded re-borrow per the protocol
        assert_eq!(live_claims_on(obj), 2);
        release_current_thread();
        assert_eq!(live_claims_on(obj), 0);
    }

    #[test]
    fn different_objects_never_conflict() {
        claim_excl(0x6000, 0, 8);
        std::thread::spawn(|| {
            claim_excl(0x7000, 0, 8);
            release_current_thread();
        })
        .join()
        .expect("different objects are independent");
        release_current_thread();
    }

    #[cfg(any(debug_assertions, feature = "race-check"))]
    #[test]
    fn ledger_enabled_in_test_builds() {
        // Tests build with debug_assertions, so the dynamic pass is active
        // for the whole suite — including the FACT end-to-end tests.
        assert!(enabled());
    }

    /// An optimized build without `race-check` compiles the ledger out:
    /// claims record nothing, so an overlapping mutable claim from another
    /// thread returns instead of panicking.
    #[cfg(not(any(debug_assertions, feature = "race-check")))]
    #[test]
    fn ledger_is_a_no_op_when_compiled_out() {
        let obj = 0x8000;
        assert!(!enabled());
        claim_excl(obj, 0, 16);
        std::thread::spawn(move || {
            claim_excl(obj, 4, 12);
            claim_shared(obj, 0, 1);
            release_current_thread();
        })
        .join()
        .expect("a compiled-out ledger never panics");
        assert_eq!(live_claims_on(obj), 0);
        release_current_thread();
    }
}
