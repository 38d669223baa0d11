//! The verifier's memory: `verify` regenerates the original system one
//! column at a time, so while it runs it holds `O(mloc + n)` entries, never
//! a second copy of the local slice.
//!
//! A counting global allocator tracks the bytes live across every thread
//! (the ranks of `Universe::run` are threads of their own) and the peak
//! they reach. This binary holds one test, so nothing else allocates
//! beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use hpl_comm::{Grid, GridOrder, Universe};
use rhpl_core::{verify, LocalMatrix};

/// Bytes currently allocated, across threads.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most `LIVE` has been since the last [`peak_during`] began.
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

/// The system allocator, counting live bytes and their peak.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `Counting` upholds exactly the guarantees `System` does; the counters are
// atomics that never allocate.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, passed on.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: same layout the caller gave us, valid per its contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: same layout the caller gave us, valid per its contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from `System` through this allocator with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        shrink(layout.size());
        // SAFETY: `ptr`/`layout` came from `System` through this allocator
        // and `new_size` is valid, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the most bytes that were live
/// during it beyond those live when it began.
fn peak_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let r = f();
    (r, PEAK.load(Ordering::SeqCst) - base)
}

/// At N = 1024 on one rank the local slice is 8.4 MB; `verify` never holds
/// more than an eighth of that. Materializing the slice, as the verifier
/// once did, is measured too, so the counter is seen to count it.
#[test]
fn verify_never_holds_a_second_slice() {
    let (n, nb, seed) = (1024usize, 96usize, 7u64);
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
    let slice = n * (n + 1) * std::mem::size_of::<f64>();
    let out = Universe::run(1, |comm| {
        let grid = Grid::new(comm, 1, 1, GridOrder::ColumnMajor);
        let (res, verify_peak) =
            peak_during(|| verify(&grid, n, nb, seed, &x).expect("fault-free fabric"));
        let (a, materialize_peak) =
            peak_during(|| LocalMatrix::<f64>::generate(n, nb, &grid, seed));
        drop(a);
        (res.scaled.is_finite(), verify_peak, materialize_peak)
    });
    let (finite, verify_peak, materialize_peak) = out[0];
    assert!(finite);
    assert!(
        materialize_peak >= slice,
        "the counter missed the slice: {materialize_peak} < {slice} bytes"
    );
    assert!(
        verify_peak <= slice / 8,
        "verify held {verify_peak} bytes live, more than 1/8 of the {slice}-byte slice"
    );
    eprintln!("verify peak {verify_peak} bytes; local slice {slice} bytes");
}
