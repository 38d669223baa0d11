//! The HPL loop's memory: a panel's storage outlives the panel. The driver
//! hands a retired panel's `top`, pivots and broadcast buffer to the next
//! panel, so after the first panels have sized them the loop asks the
//! allocator for no more panel-sized blocks. With one process (`1 x 1`)
//! the loop holds nothing of panel size at all: `U` is swapped into the
//! matrix and solved there, and the factored diagonal block and `L2` are
//! read where FACT left them, so there is no `U` block, no `top` copy and
//! no copy of `L2` — the GEMM packs `L2` one cache block at a time into
//! its pack arena.
//!
//! `common`'s counting allocator tracks the bytes live across every
//! thread, the peak they reach, and the running total of every large
//! allocation. Storage that lives as long as the run is counted once and
//! is part of the peak; a block allocated afresh for every panel is
//! counted once per panel while only two panels are ever live, so it
//! drives the total far past the peak. This binary holds one test, so
//! nothing else allocates beside it.

mod common;

use std::sync::{Barrier, OnceLock};

use hpl_comm::{FabricOpts, Grid, GridOrder, TransportSel, Universe};
use rhpl_core::{factorize_local, HplConfig, Schedule};

use common::{Seen, Window, LARGE};

/// What one window saw.
struct LoopWindow {
    /// What the allocator saw.
    seen: Seen,
    /// Bytes the leading rank's GEMM pack arena grew by (the loop runs its
    /// update on the rank's thread at one update thread).
    arena: usize,
}

/// Runs `factorize_local` on every rank of a `p x q` grid at once and
/// measures the window in which the ranks run it. The systems are
/// generated before the window opens, and the ranks talk through the
/// in-process fabric. Each rank runs the loop once before the window
/// opens as well: the GEMM pack arena is storage of the thread, sized by
/// the widest update and kept as long as the thread lives, so it is
/// full-size before the window and the window sees what the loop itself
/// holds.
fn loop_window(n: usize, nb: usize, p: usize, q: usize) -> LoopWindow {
    let mut cfg = HplConfig::new(n, nb, p, q);
    cfg.schedule = Schedule::LookAhead;
    let (generated, started, finished) = (
        Barrier::new(p * q),
        Barrier::new(p * q),
        Barrier::new(p * q),
    );
    let window = OnceLock::new();
    // The in-process fabric whatever `RHPL_TRANSPORT` says: a byte-moving
    // transport's frame buffers are its own, not the loop's.
    let out =
        Universe::run_with_transport(p * q, TransportSel::Inproc, FabricOpts::default(), |comm| {
            let grid = Grid::new(comm, p, q, GridOrder::ColumnMajor);
            let system = rhpl_core::System::Seeded(cfg.seed);
            let warm = system.local::<f64>(n, nb, &grid);
            drop(factorize_local(&grid, &cfg, warm).expect("fault-free fabric"));
            let a = system.local::<f64>(n, nb, &grid);
            let arena0 = arena_bytes();
            if generated.wait().is_leader() {
                let _ = window.set(Window::open());
            }
            started.wait();
            let factored = factorize_local(&grid, &cfg, a).expect("fault-free fabric");
            let seen = finished.wait().is_leader().then(|| LoopWindow {
                seen: window.get().expect("the leader opened the window").seen(),
                arena: arena_bytes() - arena0,
            });
            drop(factored);
            seen
        });
    out.into_iter().flatten().next().expect("one rank leads")
}

/// Bytes of the one message the broadcast's root sends per panel on a
/// `1 x 2` grid: the `[top | L2 | ipiv]` buffer encoded into one buffer of
/// bytes (`jb (jb + l2_rows + 1)` elements, `l2_rows` the rows below the
/// diagonal block).
fn bcast_copies_1x2(n: usize, nb: usize) -> usize {
    (0..n)
        .step_by(nb)
        .map(|k0| {
            let jb = nb.min(n - k0);
            jb * (n - k0 + 1) * std::mem::size_of::<f64>()
        })
        .sum()
}

/// Bytes of this thread's GEMM pack arena (f64).
fn arena_bytes() -> usize {
    hpl_blas::arena::thread_stats().capacity * std::mem::size_of::<f64>()
}

/// Small buffers the `1 x 1` loop holds besides the pack arena — pivots
/// and the pivot log, the row swap's column buffer and row lists, the
/// pool. They take 35 KiB at N = 2048, NB = 64; one more `nb x nb` block
/// (32 KiB) on top of them does not fit.
const SMALL: usize = 48 << 10;

/// At N = 2048, NB = 64 a panel-sized block is about 1 MB and the loop
/// runs 32 panels. Allocating the panel's storage afresh for every panel
/// (the broadcast buffer, copies of `top` and a packed `L2`, as the driver
/// once did) puts 6x the peak through the allocator on one rank; a loop
/// that recycles its panel storage allocates about what it holds at its
/// peak.
///
/// What the `1 x 1` loop holds at its peak is whatever the GEMM pack arena
/// grew by and the small buffers: no panel-sized block at all. A packed
/// `L2` panel (about 1 MB here), a `jb x nloc` `U` block (1 MiB) or a
/// `jb x jb` copy of the factored diagonal block (32 KiB) does not fit. On
/// an AVX-512 host the peak live growth reads 35,840 bytes; when the loop
/// kept two packed `L2` panels (1,998,976 bytes) it read 2,034,816, and
/// when it held a `U` block and `top` copies as well, 3,146,368.
///
/// On more than one rank the communication layer allocates as well: every
/// message is encoded into a buffer of its own. So `1 x 2` is allowed the
/// broadcast's one message per panel on top of the bound, and `2 x 1`,
/// where the row swap's messages put about 3x the peak through the
/// allocator, is measured and not bounded.
#[test]
fn the_loop_allocates_no_more_than_it_holds() {
    let (n, nb) = (2048usize, 64usize);
    for (p, q, allowance) in [
        (1, 1, Some(0)),
        (2, 1, None),
        (1, 2, Some(bcast_copies_1x2(n, nb))),
    ] {
        let LoopWindow { seen, arena } = loop_window(n, nb, p, q);
        let Seen { big, peak, .. } = seen;
        eprintln!("{p}x{q}: {big} bytes in large allocations, peak live growth {peak} bytes");
        if let Some(messages) = allowance {
            assert!(
                big <= 2 * peak + messages,
                "{p}x{q}: {big} bytes in allocations of {LARGE} bytes or more, more than twice \
                 the {peak}-byte peak live growth plus {messages} bytes of message copies: the \
                 loop allocates panel storage afresh"
            );
        }
        if (p, q) == (1, 1) {
            eprintln!("1x1: pack arena grew by {arena} bytes");
            assert!(
                peak <= arena + SMALL,
                "1x1: the loop's peak live growth of {peak} bytes exceeds the pack arena's \
                 growth ({arena} bytes) plus {SMALL} bytes: a panel-sized block (a packed L2, a \
                 U block, a copy of the diagonal block) is back"
            );
        }
    }
}
