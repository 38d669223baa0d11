//! Shared by the allocation tests: a counting global allocator that tracks,
//! across every thread (the ranks of `Universe::run` are threads of their
//! own, and so are their pool workers), the bytes live and the peak they
//! reach, the calls that take storage, and the bytes of large blocks. A
//! test binary that declares `mod common;` installs it as its global
//! allocator; each such binary holds one test, so nothing else allocates
//! beside it.

// Each binary compiles its own copy of this module and uses part of it.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// An allocation at least this large counts towards [`Seen::big`].
pub const LARGE: usize = 64 << 10;

/// Bytes currently allocated, across threads.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most `LIVE` has been since the last [`Window::open`].
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Bytes of [`LARGE`] or larger allocations since the last
/// [`Window::open`].
static BIG: AtomicUsize = AtomicUsize::new(0);
/// Calls that took storage (`alloc`, `alloc_zeroed`, `realloc`) since the
/// last [`Window::open`].
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::SeqCst);
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
    if bytes >= LARGE {
        BIG.fetch_add(bytes, Ordering::SeqCst);
    }
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

/// The system allocator, counting.
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

/// What the allocator saw in a [`Window`].
#[derive(Clone, Copy, Debug)]
pub struct Seen {
    /// The most bytes live beyond those live when the window opened.
    pub peak: usize,
    /// Bytes of [`LARGE`] or larger allocations.
    pub big: usize,
    /// Calls that took storage.
    pub allocs: usize,
}

/// A span of allocator activity, across every thread. One window is open
/// at a time: opening one restarts the counters.
pub struct Window {
    base: usize,
}

impl Window {
    /// Opens a window here.
    pub fn open() -> Self {
        let base = LIVE.load(Ordering::SeqCst);
        PEAK.store(base, Ordering::SeqCst);
        BIG.store(0, Ordering::SeqCst);
        ALLOCS.store(0, Ordering::SeqCst);
        Self { base }
    }

    /// What the allocator has seen since the window opened.
    pub fn seen(&self) -> Seen {
        Seen {
            peak: PEAK.load(Ordering::SeqCst).saturating_sub(self.base),
            big: BIG.load(Ordering::SeqCst),
            allocs: ALLOCS.load(Ordering::SeqCst),
        }
    }
}

/// Runs `f` and returns its result with what the allocator saw during it.
pub fn during<R>(f: impl FnOnce() -> R) -> (R, Seen) {
    let window = Window::open();
    let r = f();
    (r, window.seen())
}

/// Runs `f` and returns its result with the most bytes that were live
/// during it beyond those live when it began.
pub fn peak_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let (r, seen) = during(f);
    (r, seen.peak)
}
