//! The pack arena's grow step, seen from the allocator: growing a buffer
//! frees the old storage first and then takes one zeroed block of the new
//! size — nothing copied, the two never live at once, and no block of the
//! old size taken again.
//!
//! A global allocator logs what the test thread asks of it while logging is
//! switched on; other threads of the test binary pass straight through.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hpl_blas::Element;

/// One request to the allocator, with its size in bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Event {
    Alloc(usize),
    AllocZeroed(usize),
    Realloc { from: usize, to: usize },
    Free(usize),
}

/// Events a log holds; the test expects two.
const LOG_LEN: usize = 8;

thread_local! {
    static LOGGING: Cell<bool> = const { Cell::new(false) };
    static LOG: Cell<[Option<Event>; LOG_LEN]> = const { Cell::new([None; LOG_LEN]) };
    static OVERFLOW: Cell<bool> = const { Cell::new(false) };
}

fn note(event: Event) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let on = LOGGING.try_with(Cell::get).unwrap_or(false);
    if !on {
        return;
    }
    let _ = LOG.try_with(|log| {
        let mut events = log.get();
        match events.iter_mut().find(|e| e.is_none()) {
            Some(slot) => *slot = Some(event),
            None => OVERFLOW.with(|o| o.set(true)),
        }
        log.set(events);
    });
}

/// The system allocator, logging the test thread's requests.
struct Logging;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `Logging` upholds exactly the guarantees `System` does; the log is
// const-initialised thread-local `Cell`s that never allocate.
unsafe impl GlobalAlloc for Logging {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, passed on.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(Event::Alloc(layout.size()));
        // SAFETY: same layout the caller gave us, valid per its contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(Event::AllocZeroed(layout.size()));
        // SAFETY: same layout the caller gave us, valid per its contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(Event::Free(layout.size()));
        // SAFETY: `ptr` came from `System` through this allocator with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(Event::Realloc {
            from: layout.size(),
            to: new_size,
        });
        // SAFETY: `ptr`/`layout` came from `System` through this allocator
        // and `new_size` is valid, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Logging = Logging;

/// Runs `f` with logging on and returns what the allocator was asked.
fn logged(f: impl FnOnce()) -> Vec<Event> {
    LOG.with(|log| log.set([None; LOG_LEN]));
    LOGGING.with(|on| on.set(true));
    f();
    LOGGING.with(|on| on.set(false));
    assert!(
        !OVERFLOW.with(Cell::get),
        "more than {LOG_LEN} allocator events"
    );
    LOG.with(Cell::get).into_iter().flatten().collect()
}

/// A grow of the `B` pack buffer from 1,000 to 5,000 elements frees the
/// 8,000 bytes and then takes 40,000 zeroed ones — in that order, and
/// nothing else. A warm call of the same size asks for nothing.
#[test]
fn a_grow_frees_the_old_buffer_then_takes_one_zeroed_block() {
    std::thread::spawn(|| {
        let size = std::mem::size_of::<f64>();
        f64::with_pack_bufs(0, 1000, |_, b| b.fill(1.0));
        let grow = logged(|| f64::with_pack_bufs(0, 5000, |_, b| b.fill(2.0)));
        assert_eq!(
            grow,
            [Event::Free(1000 * size), Event::AllocZeroed(5000 * size)],
            "a grow must free the old buffer first and then allocate the new size once"
        );
        let warm = logged(|| f64::with_pack_bufs(0, 5000, |_, b| b.fill(3.0)));
        assert_eq!(warm, [], "a warm call allocates nothing");
    })
    .join()
    .expect("arena test thread panicked");
}
