//! The HPL loop's allocation contract, measured: once a run is set up, a
//! panel costs the allocator nothing on one process. FACT and the update
//! run on a persistent thread team and every panel reuses the buffers of
//! the one before (paper §III.A): the retired panel's storage, its swap
//! plan, the row-swap workspaces, the pivot log, the pool's regions and
//! the pack arenas of the GEMM.
//!
//! `common`'s counting allocator counts every call that takes storage,
//! on every thread. Each case runs `factorize_local` at two problem sizes
//! with the same `NB` and compares the counts: what does not grow with the
//! number of panels is setup, and what grows is per-panel work.

mod common;

use std::sync::{Barrier, OnceLock};

use hpl_comm::{FabricOpts, Grid, GridOrder, TransportSel, Universe, WireElem};
use rhpl_core::{factorize_local, HplConfig, Schedule};

use common::Window;

/// Panel width of every case.
const NB: usize = 64;
/// The two problem sizes: 4 and 20 panels. Sixteen extra panels put an
/// allocation a panel on one rank twice past [`STASH_SLACK`].
const SIZES: [usize; 2] = [256, 1280];
/// Panels the larger size runs beyond the smaller.
const EXTRA_PANELS: usize = (SIZES[1] - SIZES[0]) / NB;

/// One configuration of the loop.
#[derive(Clone, Copy)]
struct Case {
    p: usize,
    q: usize,
    /// FACT threads and update threads.
    threads: usize,
    schedule: Schedule,
}

const LOOK_AHEAD: Schedule = Schedule::LookAhead;
const SPLIT: Schedule = Schedule::SplitUpdate { frac: 0.5 };

/// Allocations made, on every thread, while every rank of the case's grid
/// runs `factorize_local` on an `n`-sized system in `E`. The systems are
/// generated before the window opens, and the ranks talk through the
/// in-process fabric. Each rank factors once before the window opens: the
/// pack arenas of the GEMM are storage of the thread, sized by the widest
/// update and kept as long as the thread lives, so the rank's own are
/// full-size before the window. A pool's workers are threads of the pool,
/// which lives as long as one `factorize_local`, so theirs grow inside.
fn loop_allocs<E: WireElem>(case: Case, n: usize) -> usize {
    let Case {
        p,
        q,
        threads,
        schedule,
    } = case;
    let mut cfg = HplConfig::new(n, NB, p, q);
    cfg.schedule = schedule;
    cfg.fact.threads = threads;
    cfg.update_threads = threads;
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
            let warm = system.local::<E>(n, NB, &grid);
            drop(factorize_local(&grid, &cfg, warm).expect("fault-free fabric"));
            let a = system.local::<E>(n, NB, &grid);
            if generated.wait().is_leader() {
                let _ = window.set(Window::open());
            }
            started.wait();
            let factored = factorize_local(&grid, &cfg, a).expect("fault-free fabric");
            let allocs = finished
                .wait()
                .is_leader()
                .then(|| window.get().expect("the leader opened the window").seen());
            drop(factored);
            allocs.map(|seen| seen.allocs)
        });
    out.into_iter().flatten().next().expect("one rank leads")
}

/// The case's allocation counts at both sizes, in `E`.
fn counts<E: WireElem>(case: Case) -> [usize; 2] {
    let counts = SIZES.map(|n| loop_allocs::<E>(case, n));
    let Case {
        p,
        q,
        threads,
        schedule,
    } = case;
    eprintln!(
        "{p}x{q} T={threads} {schedule:?} {}: {} allocations at N = {}, {} at N = {}",
        E::NAME,
        counts[0],
        SIZES[0],
        counts[1],
        SIZES[1]
    );
    counts
}

/// Allocations per panel on a `2 x 1` grid. Every one is the
/// communication layer's: every message is encoded into one buffer of
/// bytes; FACT's pivot collective builds its payload rows afresh at every
/// column, and each rank decodes the rows it receives into new vectors;
/// and the row swap lays out its routing tables per section. The row
/// swap's collectives decode into buffers the swap keeps.
const PER_PANEL_2X1: usize = 600;
/// Allocations per panel on a `1 x 2` grid: the panel broadcast's one
/// message, encoded into one buffer and decoded straight into the
/// receiver's panel. FACT and the row swap exchange nothing.
const PER_PANEL_1X2: usize = 1;
/// A message that arrives before its receive is posted waits in the
/// mailbox's stash, whose growth follows the ranks' timing, not the panel
/// count.
const STASH_SLACK: usize = 8;

#[test]
fn a_panel_allocates_only_for_its_messages() {
    // One process at one thread: nothing at all per panel.
    for schedule in [LOOK_AHEAD, SPLIT] {
        let case = Case {
            p: 1,
            q: 1,
            threads: 1,
            schedule,
        };
        for (elem, [small, large]) in [("f64", counts::<f64>(case)), ("f32", counts::<f32>(case))] {
            assert_eq!(
                small,
                large,
                "1x1 {schedule:?} {elem}: {small} allocations at {} panels but {large} at {}: \
                 the loop allocates per panel",
                SIZES[0] / NB,
                SIZES[1] / NB
            );
        }
    }
    // Two threads: the pool's workers are fresh threads of each run, and
    // their pack arenas grow with the widest update they see.
    for schedule in [LOOK_AHEAD, SPLIT] {
        let case = Case {
            p: 1,
            q: 1,
            threads: 2,
            schedule,
        };
        for (elem, [small, large]) in [("f64", counts::<f64>(case)), ("f32", counts::<f32>(case))] {
            assert!(
                large < small + EXTRA_PANELS,
                "1x1 T=2 {schedule:?} {elem}: {small} allocations at {} panels and {large} at \
                 {}, at least one per extra panel: the loop allocates per panel",
                SIZES[0] / NB,
                SIZES[1] / NB
            );
        }
    }
    // More than one process: what the messages take, per panel.
    for (p, q, per_panel) in [(2, 1, PER_PANEL_2X1), (1, 2, PER_PANEL_1X2)] {
        for threads in [1, 2] {
            let case = Case {
                p,
                q,
                threads,
                schedule: LOOK_AHEAD,
            };
            for (elem, [small, large]) in
                [("f64", counts::<f64>(case)), ("f32", counts::<f32>(case))]
            {
                let want = per_panel * EXTRA_PANELS;
                let grew = large as i64 - small as i64;
                assert!(
                    grew.abs_diff(want as i64) <= STASH_SLACK as u64,
                    "{p}x{q} T={threads} {elem}: the count grew by {grew} over {EXTRA_PANELS} \
                     extra panels, not {per_panel} a panel (within {STASH_SLACK})"
                );
            }
        }
    }
}
