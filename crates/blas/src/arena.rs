//! Thread-local, grow-only scratch buffers for the GEMM packing pipeline.
//!
//! The GotoBLAS loop in [`crate::l3`] repacks panels of `A` and `B` on
//! every call. Allocating those workspaces per call puts `vec![]` (and the
//! page faults behind it) on the hottest path in the whole benchmark, so
//! this module keeps one pair of pack buffers per thread, growing them
//! monotonically and never shrinking. The pool threads in `hpl-threads`
//! are persistent, so after the first trailing update every worker runs
//! allocation-free.
//!
//! `thread_local!` cannot be generic, so the precision-generic pipeline
//! gets one concrete arena per element type ([`for_f64`] / [`for_f32`]),
//! reached through the [`crate::Element`] hooks. A mixed-precision process
//! (f32 factorization + f64 refinement) therefore keeps both arenas warm
//! independently.
//!
//! The pack buffers hand out uninitialized-looking storage: callers must
//! write every element they later read (the packing routines do — padding
//! included), so the arena never zeroes on reuse.

/// Counters for one thread's arenas, for tests and diagnostics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Number of `with_pack_bufs` regions entered on this thread.
    pub calls: u64,
    /// Number of regions that had to (re)allocate a buffer.
    pub grows: u64,
    /// Current combined capacity of both buffers, in elements.
    pub capacity: usize,
}

/// Elements of `T` in one 64-byte cache line: the slack a packed-A buffer
/// carries so that it can start on a line, and no full-width vector load
/// of a packed strip straddles two.
pub(crate) const fn line_len<T>() -> usize {
    64 / core::mem::size_of::<T>()
}

/// Index of the first cache-line-aligned element of `buf` (at most
/// [`line_len`]).
pub(crate) fn line_offset<T>(buf: &[T]) -> usize {
    buf.as_ptr().align_offset(64).min(line_len::<T>())
}

macro_rules! arena_for {
    ($modname:ident, $ty:ty) => {
        pub(crate) mod $modname {
            use std::cell::RefCell;

            pub(crate) struct PackArena {
                pub(crate) a: Vec<$ty>,
                pub(crate) b: Vec<$ty>,
                pub(crate) calls: u64,
                pub(crate) grows: u64,
            }

            impl PackArena {
                const fn new() -> Self {
                    PackArena {
                        a: Vec::new(),
                        b: Vec::new(),
                        calls: 0,
                        grows: 0,
                    }
                }
            }

            thread_local! {
                pub(crate) static ARENA: RefCell<PackArena> =
                    const { RefCell::new(PackArena::new()) };
                /// Pool of grow-only scratch vectors (see `with_scratch`).
                /// A pool — not a fixed pair — so nested regions each check
                /// a buffer out without falling back to per-call allocation.
                static SCRATCH: RefCell<Vec<Vec<$ty>>> = const { RefCell::new(Vec::new()) };
            }

            /// The slack that lets the A pack buffer start on a cache
            /// line whatever the allocator returned. (The B strips are
            /// read one scalar at a time; their alignment is immaterial.)
            pub(crate) const LINE: usize = super::line_len::<$ty>();

            /// The `len` elements of `buf` starting at its first
            /// cache-line boundary (`buf` holds at least `len + LINE`).
            fn line_aligned(buf: &mut [$ty], len: usize) -> &mut [$ty] {
                let off = super::line_offset(buf);
                &mut buf[off..off + len]
            }

            /// Grows `buf` to at least `len` elements, reporting whether it
            /// grew. What the buffer held is not kept: its contents are
            /// don't-care to every caller, so the old storage is freed
            /// before the new is taken (never both live, nothing copied),
            /// and the new comes zeroed from the allocator, whose fresh
            /// pages are zero until first touched.
            fn ensure(buf: &mut Vec<$ty>, len: usize) -> bool {
                if buf.len() >= len {
                    return false;
                }
                *buf = Vec::new();
                *buf = vec![0.0; len];
                true
            }

            /// Runs `f` with this thread's pack buffers sliced to
            /// `alen`/`blen` elements. Growth is monotone; a warm call of
            /// equal or smaller size performs no allocation. Falls back to
            /// fresh vectors in the (unused) reentrant case so nesting
            /// degrades to the old per-call behaviour instead of panicking.
            pub(crate) fn with_pack_bufs<R>(
                alen: usize,
                blen: usize,
                f: impl FnOnce(&mut [$ty], &mut [$ty]) -> R,
            ) -> R {
                ARENA.with(|cell| match cell.try_borrow_mut() {
                    Ok(mut arena) => {
                        let arena = &mut *arena;
                        arena.calls += 1;
                        let grew_a = ensure(&mut arena.a, alen + LINE);
                        let grew_b = ensure(&mut arena.b, blen);
                        if grew_a || grew_b {
                            arena.grows += 1;
                        }
                        f(line_aligned(&mut arena.a, alen), &mut arena.b[..blen])
                    }
                    Err(_) => {
                        // Reentrant fallback only; the steady state takes
                        // the borrowed grow-only path above.
                        let mut a = vec![0.0 as $ty; alen];
                        let mut b = vec![0.0 as $ty; blen];
                        f(&mut a, &mut b)
                    }
                })
            }

            fn scratch_take(len: usize) -> Vec<$ty> {
                // The borrow is released before the caller's closure runs,
                // so nested `with_scratch` regions take further buffers
                // instead of fighting over one RefCell.
                let mut buf = SCRATCH
                    .with(|cell| cell.borrow_mut().pop())
                    .unwrap_or_default();
                ensure(&mut buf, len);
                buf[..len].fill(0.0);
                buf
            }

            fn scratch_put(buf: Vec<$ty>) {
                SCRATCH.with(|cell| cell.borrow_mut().push(buf));
            }

            /// Runs `f` with one zeroed thread-local scratch slice of `len`
            /// elements (the factorization scratch is accumulated into, so
            /// unlike the pack buffers it must start clean). Nesting is
            /// fine — each region checks its own buffer out of the pool.
            pub(crate) fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [$ty]) -> R) -> R {
                let mut buf = scratch_take(len);
                let r = f(&mut buf[..len]);
                scratch_put(buf);
                r
            }
        }
    };
}

arena_for!(for_f64, f64);
arena_for!(for_f32, f32);

/// Snapshot of the calling thread's arena counters, summed over both
/// precisions (a single-precision run only ever touches one of them).
pub fn thread_stats() -> ArenaStats {
    let mut stats = ArenaStats::default();
    for_f64::ARENA.with(|cell| {
        let arena = cell.borrow();
        stats.calls += arena.calls;
        stats.grows += arena.grows;
        stats.capacity += arena.a.len() + arena.b.len();
    });
    for_f32::ARENA.with(|cell| {
        let arena = cell.borrow();
        stats.calls += arena.calls;
        stats.grows += arena.grows;
        stats.capacity += arena.a.len() + arena.b.len();
    });
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Element;

    #[test]
    fn warm_calls_do_not_grow() {
        // A dedicated thread gives this test a pristine arena regardless of
        // what other tests in the process have done.
        std::thread::spawn(|| {
            let s0 = thread_stats();
            assert_eq!((s0.calls, s0.grows, s0.capacity), (0, 0, 0));
            f64::with_pack_bufs(100, 50, |a, b| {
                assert_eq!((a.len(), b.len()), (100, 50));
                a[99] = 1.0;
                b[49] = 2.0;
            });
            // The A buffer carries one cache line of alignment slack.
            let slack = for_f64::LINE;
            let s1 = thread_stats();
            assert_eq!((s1.calls, s1.grows, s1.capacity), (1, 1, 150 + slack));
            // Warm: same sizes, then smaller — zero further growth.
            f64::with_pack_bufs(100, 50, |a, b| {
                assert_eq!((a[99], b[49]), (1.0, 2.0), "storage is reused");
            });
            f64::with_pack_bufs(10, 5, |a, b| {
                assert_eq!((a.len(), b.len()), (10, 5));
            });
            let s2 = thread_stats();
            assert_eq!((s2.calls, s2.grows, s2.capacity), (3, 1, 150 + slack));
            // Larger request grows again, once.
            f64::with_pack_bufs(200, 50, |_, _| {});
            let s3 = thread_stats();
            assert_eq!((s3.calls, s3.grows, s3.capacity), (4, 2, 250 + slack));
        })
        .join()
        .expect("arena test thread panicked");
    }

    #[test]
    fn precisions_have_independent_arenas() {
        std::thread::spawn(|| {
            f64::with_pack_bufs(64, 64, |a, _| a[0] = 1.0);
            f32::with_pack_bufs(32, 32, |a, _| a[0] = 2.0);
            let s = thread_stats();
            assert_eq!((s.calls, s.grows), (2, 2));
            assert_eq!(s.capacity, 128 + for_f64::LINE + 64 + for_f32::LINE);
            // The f32 arena growing did not disturb the warm f64 buffers.
            f64::with_pack_bufs(64, 64, |a, _| assert_eq!(a[0], 1.0));
            f32::with_pack_bufs(32, 32, |a, _| assert_eq!(a[0], 2.0));
            let s = thread_stats();
            assert_eq!(s.grows, 2, "warm calls in both precisions");
        })
        .join()
        .expect("arena test thread panicked");
    }

    #[test]
    fn scratch_is_zeroed_and_reused() {
        std::thread::spawn(|| {
            f64::with_scratch(16, |s| {
                assert!(s.iter().all(|&v| v == 0.0));
                s[3] = 9.0;
            });
            // Warm call: same storage, but zeroed again.
            f64::with_scratch(16, |s| {
                assert_eq!(s[3], 0.0, "scratch must be re-zeroed");
            });
            // Nested regions each check out their own pool buffer.
            f64::with_scratch(4, |outer| {
                outer[0] = 5.0;
                f64::with_scratch(4, |inner| {
                    assert_eq!(inner[0], 0.0, "inner scratch is its own buffer");
                    inner[0] = 6.0;
                });
                assert_eq!(outer[0], 5.0, "outer scratch untouched by nesting");
                // A pack region inside a scratch closure takes the warm path.
                f64::with_pack_bufs(4, 4, |pa, _| {
                    pa[0] = 1.0;
                });
            });
            // f32 scratch follows the same contract.
            f32::with_scratch(8, |s| {
                assert!(s.iter().all(|&v| v == 0.0));
                s[0] = 3.0;
            });
            f32::with_scratch(8, |s| assert_eq!(s[0], 0.0));
        })
        .join()
        .expect("scratch test thread panicked");
    }

    #[test]
    fn reentrant_use_falls_back_to_fresh_buffers() {
        std::thread::spawn(|| {
            f64::with_pack_bufs(8, 8, |outer_a, _| {
                outer_a[0] = 7.0;
                f64::with_pack_bufs(8, 8, |inner_a, inner_b| {
                    assert_eq!(inner_a[0], 0.0, "inner buffers are fresh");
                    assert_eq!((inner_a.len(), inner_b.len()), (8, 8));
                });
                assert_eq!(outer_a[0], 7.0, "outer buffer untouched");
            });
        })
        .join()
        .expect("arena test thread panicked");
    }
}
