//! Phase-trace guarantees (DESIGN.md §8), pinned exactly:
//!
//! 1. **Determinism** — the same seed and config produce the identical span
//!    *sequence* (iteration, phase, bytes, hidden flag) on every run; only
//!    durations vary. This is what lets a test pin an exact `seq_hash`.
//! 2. **Near-zero disabled cost** — with tracing off, a run carries no
//!    trace, and the compiled-in span guards, fault hooks and checkpoint
//!    cadence check each cost a few nanoseconds and well under 1% of wall
//!    time; checkpointing on costs under 15%.
//! 3. **A pinned order** — every schedule's span sequence is a golden
//!    `seq_hash` per grid and problem shape (see [`GOLDEN`]).

use std::hint::black_box;
use std::time::Instant;

use hpl_ckpt::CkptStore;
use hpl_comm::Universe;
use hpl_faults::{FaultPlan, Site};
use hpl_trace::Phase;
use rhpl_core::config::Schedule;
use rhpl_core::{run_hpl, CkptOpts, HplConfig};

/// One traced run; returns each rank's trace and wall time (rank-indexed).
fn traced_run_walls(cfg: &HplConfig) -> Vec<(hpl_trace::Trace, f64)> {
    let mut cfg = cfg.clone();
    cfg.trace = hpl_trace::TraceOpts::on();
    Universe::run(cfg.ranks(), |comm| {
        let r = run_hpl(comm, &cfg).expect("nonsingular");
        (r.trace.expect("tracing was enabled"), r.wall)
    })
}

/// One traced run; returns each rank's trace (rank-indexed).
fn traced_run(cfg: &HplConfig) -> Vec<hpl_trace::Trace> {
    traced_run_walls(cfg).into_iter().map(|(t, _)| t).collect()
}

#[test]
fn same_seed_and_config_give_identical_phase_sequence() {
    let mut cfg = HplConfig::new(160, 32, 2, 2);
    cfg.schedule = Schedule::SplitUpdate { frac: 0.5 };
    cfg.fact.threads = 2;
    cfg.seed = 77;

    let a = traced_run(&cfg);
    let b = traced_run(&cfg);

    // Exact structural equality, span by span: iteration, phase, bytes and
    // hidden flag all match. (Durations are wall-clock and excluded.)
    assert_eq!(a.len(), b.len());
    for (rank, (ta, tb)) in a.iter().zip(&b).enumerate() {
        assert_eq!(ta.dropped, 0, "rank {rank}: ring buffer overflowed");
        assert_eq!(
            ta.spans.len(),
            tb.spans.len(),
            "rank {rank}: span count differs between runs"
        );
        for (sa, sb) in ta.spans.iter().zip(&tb.spans) {
            assert_eq!(
                (sa.iter, sa.phase, sa.bytes, sa.hidden),
                (sb.iter, sb.phase, sb.bytes, sb.hidden),
                "rank {rank}: span sequence diverged"
            );
        }
    }

    // The rollup the golden tables pin.
    assert_eq!(
        hpl_trace::report::seq_hash(&a),
        hpl_trace::report::seq_hash(&b)
    );
}

#[test]
fn different_schedule_changes_the_sequence() {
    let mut cfg = HplConfig::new(160, 32, 2, 2);
    cfg.seed = 77;
    cfg.schedule = Schedule::Simple;
    let simple = traced_run(&cfg);
    cfg.schedule = Schedule::SplitUpdate { frac: 0.5 };
    let split = traced_run(&cfg);
    assert_ne!(
        hpl_trace::report::seq_hash(&simple),
        hpl_trace::report::seq_hash(&split),
        "seq_hash must distinguish schedules, not just validate lengths"
    );
}

/// Best-of-batches nanoseconds per call of `f` (given the call's index):
/// the fastest batch is the guard's cost with the least interference from
/// whatever else shares the machine.
fn ns_per_call(mut f: impl FnMut(usize)) -> f64 {
    const BATCHES: usize = 5;
    const CALLS: usize = 1_000_000;
    (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..CALLS {
                f(i);
            }
            t0.elapsed().as_nanos() as f64 / CALLS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Best of this many runs for every wall-clock reading below.
const RUNS: usize = 3;

/// What the instrumentation compiled into every run costs when it is
/// switched off, and what checkpointing costs when it is on, at
/// `N = 192`, `NB = 32`, 2x2, `split-update:0.5`:
///
/// - one disabled span guard, one fault hook with no injector armed
///   (`hpl_faults::on_send(&None)`) and one cadence check with
///   checkpointing off (`hpl_ckpt::due(0, i)`) each cost under 200 ns;
/// - the span guards of a run (guard cost x the spans a traced run
///   records) and its fault hooks (guard cost x the send, receive and
///   region sites an empty fault plan counts) each cost under 1% of the
///   untraced run's wall time — the deterministic form of "< 1% when off":
///   a wall-vs-wall comparison at this size is noise;
/// - checkpointing every 2 iterations into an in-memory store costs under
///   15%: the `Ckpt` spans' time over the ranks' summed wall, both from the
///   same run.
///
/// Every reading is the best of several, so a busy machine slows none of
/// them past its cap; the caps are never raised.
#[test]
fn disabled_tracing_carries_no_trace_and_costs_under_one_percent() {
    let mut cfg = HplConfig::new(192, 32, 2, 2);
    cfg.schedule = Schedule::SplitUpdate { frac: 0.5 };

    // An untraced run returns no trace at all. The first run warms the
    // allocator and the page cache; the fastest of the rest is the wall.
    let mut wall = f64::INFINITY;
    for _ in 0..=RUNS {
        let results = Universe::run(cfg.ranks(), |comm| {
            let r = run_hpl(comm, &cfg).expect("nonsingular");
            (r.wall, r.trace.is_none())
        });
        assert!(
            results.iter().all(|r| r.1),
            "trace must be None when disabled"
        );
        wall = wall.min(results.iter().map(|r| r.0).fold(0.0f64, f64::max));
    }

    // Span count the instrumentation would emit for this config, from a
    // traced run of the same problem.
    let spans: usize = traced_run(&cfg).iter().map(|t| t.spans.len()).sum();

    // Fault-hook count: an armed empty plan fires nothing, but its
    // injector counts every guard it passes, world and split
    // communicators alike. The armed path routes panel broadcasts through
    // the checksummed variant, which adds a few control messages per
    // panel, so the count is conservative.
    let run = Universe::run_with_faults(cfg.ranks(), FaultPlan::new(0), |comm| {
        run_hpl(comm, &cfg).expect("nonsingular");
    });
    let fault_guards: u64 = (0..cfg.ranks())
        .flat_map(|r| [Site::Send, Site::Recv, Site::Region].map(|s| run.injector.site_count(r, s)))
        .sum();

    // Guard costs, with no tracer installed and no injector armed on this
    // thread: every guard takes its fast path. The hooks are `#[inline]`,
    // so their inputs pass through `black_box`: the branch is measured,
    // not folded away.
    let span_ns = ns_per_call(|_| {
        let g = hpl_trace::span(Phase::Update);
        black_box(&g);
    });
    let no_injector = None;
    let fault_ns = ns_per_call(|_| {
        black_box(hpl_faults::on_send(black_box(&no_injector)));
    });
    let ckpt_ns = ns_per_call(|i| {
        black_box(hpl_ckpt::due(black_box(0), i));
    });

    // Checkpointing on: the best of a few runs' `Ckpt` share.
    let mut ckpt_cfg = cfg.clone();
    let mut ckpt_frac = f64::INFINITY;
    for _ in 0..RUNS {
        ckpt_cfg.ckpt = CkptOpts {
            every: 2,
            store: Some(CkptStore::mem(cfg.ranks())),
            resume: false,
        };
        let traces = traced_run_walls(&ckpt_cfg);
        let ckpt_span_ns: u64 = traces
            .iter()
            .flat_map(|(t, _)| &t.spans)
            .filter(|s| s.phase == Phase::Ckpt)
            .map(|s| s.dur_ns)
            .sum();
        let wall_sum: f64 = traces.iter().map(|(_, w)| w).sum();
        ckpt_frac = ckpt_frac.min(ckpt_span_ns as f64 / (wall_sum * 1e9));
    }

    let span_frac = span_ns * spans as f64 / (wall * 1e9);
    let fault_frac = fault_ns * fault_guards as f64 / (wall * 1e9);
    let readings = [
        ("span guard ns/call", span_ns, 200.0),
        ("disabled tracing share of wall", span_frac, 0.01),
        ("fault hook ns/call", fault_ns, 200.0),
        ("disabled fault hooks share of wall", fault_frac, 0.01),
        ("checkpoint cadence check ns/call", ckpt_ns, 200.0),
        ("enabled checkpointing share of wall", ckpt_frac, 0.15),
    ];
    for (what, v, cap) in &readings {
        println!("{what}: {v:.6} (cap {cap})");
    }
    let over: Vec<String> = readings
        .iter()
        .filter(|(_, v, cap)| v >= cap)
        .map(|(what, v, cap)| format!("{what} {v:.5} exceeds its cap {cap}"))
        .collect();
    assert!(
        over.is_empty(),
        "{over:#?}\n({spans} spans and {fault_guards} fault guards per run, untraced wall \
         {wall:.4} s)"
    );
}

/// `(p, q)` grids: a process column of one, two and three ranks, and a
/// process row of one and two — including ranks that never own the
/// look-ahead panel's columns.
const GRIDS: [(usize, usize); 5] = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)];

/// `(N, NB)`: six even panels, and nine full panels plus a ragged tenth.
const SHAPES: [(usize, usize); 2] = [(192, 32), (150, 16)];

/// Golden `seq_hash` of one schedule: `by_grid[g][s]` for `GRIDS[g]` and
/// `SHAPES[s]`, then `ckpt` for the 2x2 `N = 192` run checkpointed every
/// second iteration into an in-memory store, which pins where the `Ckpt`
/// span falls relative to the look-ahead prologue.
struct Golden {
    name: &'static str,
    schedule: Schedule,
    by_grid: [[u64; 2]; 5],
    ckpt: u64,
}

/// Captured at commit 810e257, before the driver's three schedule bodies
/// (the reference loop and the look-ahead loop's split and plain branches)
/// were folded into one loop. The order of phases is the schedule; a
/// refactor of how the driver is written must leave every value alone.
/// The `(1, 1)` and `(1, 2)` rows were re-pinned once since, when the
/// `P = 1` update began to solve `U` in the matrix rows the row swap wrote
/// it to, and its `store_u` span went away. The `(1, 1)` and `(2, 1)` rows
/// were re-pinned once more, when the `Q = 1` update began to read `L2`
/// from the panel columns and the panel's `Transfer` span (its one `L2`
/// pack) went away.
const GOLDEN: [Golden; 4] = [
    Golden {
        name: "simple",
        schedule: Schedule::Simple,
        by_grid: [
            [0xe60327558b2bb9a4, 0x438d545131894e28],
            [0xbf7aae9571accc31, 0x9b13e150dd990e4e],
            [0xa3a51a2dede3d58b, 0xa8a47a97b10ad07a],
            [0x14c3366c86b44da8, 0xc7f393d1a600c0a6],
            [0x23be99d7bdc1d1ae, 0x606c9de8bfe280a5],
        ],
        ckpt: 0xa09a9018d45cf254,
    },
    Golden {
        name: "lookahead",
        schedule: Schedule::LookAhead,
        by_grid: [
            [0x15b56de05d599243, 0xbfb649dcf8edfdc3],
            [0xf91d0dd8b3d698db, 0x7714a70d30c564ac],
            [0x465c31a783b5f4a6, 0x6ef870fcb2ecbe2c],
            [0x67cae0cf1c174bb0, 0x327c006a6b964f5b],
            [0xb25876f869f0930b, 0xa27db2ab95dd93ae],
        ],
        ckpt: 0x73f1d2211b6c51fc,
    },
    Golden {
        name: "split-update:0.5",
        schedule: Schedule::SplitUpdate { frac: 0.5 },
        by_grid: [
            [0x2d757c3b607adde1, 0xb5945d12fa0e4320],
            [0x9899e6d6f439ecd7, 0x86ca6320ae832d99],
            [0x2dd5da14fcb74b61, 0xf272d9365dafbc1d],
            [0x37c12d4ea2a5a128, 0xa06fca9d92f86822],
            [0x75f9b1db38c1b66b, 0xdd831628721f9e5a],
        ],
        ckpt: 0x147dde7faedc93a4,
    },
    Golden {
        name: "split-update:0.3",
        schedule: Schedule::SplitUpdate { frac: 0.3 },
        by_grid: [
            [0x8d4556c7ddc01a40, 0xd4b6e9b373a2c747],
            [0xab33947041c96ab6, 0x0f4ad56e7763d184],
            [0x17c31a7c73fabd87, 0xf453703dd6e278c3],
            [0x238e312564b8c45b, 0xee4130b9a0e1e090],
            [0xd0757747d7e2713f, 0xbc11bcfca882565f],
        ],
        ckpt: 0xd57ab7f0e904ea4b,
    },
];

fn golden_cfg(n: usize, nb: usize, p: usize, q: usize, schedule: Schedule) -> HplConfig {
    let mut cfg = HplConfig::new(n, nb, p, q);
    cfg.schedule = schedule;
    cfg.seed = 2023;
    cfg
}

fn check_golden(g: &Golden) {
    let mut by_grid = [[0u64; 2]; 5];
    for (row, &(p, q)) in by_grid.iter_mut().zip(&GRIDS) {
        for (h, &(n, nb)) in row.iter_mut().zip(&SHAPES) {
            let cfg = golden_cfg(n, nb, p, q, g.schedule);
            *h = hpl_trace::report::seq_hash(&traced_run(&cfg));
        }
    }
    let mut cfg = golden_cfg(192, 32, 2, 2, g.schedule);
    cfg.ckpt = CkptOpts {
        every: 2,
        store: Some(CkptStore::mem(cfg.ranks())),
        resume: false,
    };
    let ckpt = hpl_trace::report::seq_hash(&traced_run(&cfg));
    assert_eq!(
        (by_grid, ckpt),
        (g.by_grid, g.ckpt),
        "{}: seq_hash table (rows {GRIDS:?}, columns {SHAPES:?}) then the checkpointed run \
         drifted from the golden:\n{by_grid:#018x?}\n{ckpt:#018x}",
        g.name
    );
}

#[test]
fn simple_order_matches_the_golden() {
    check_golden(&GOLDEN[0]);
}

#[test]
fn lookahead_order_matches_the_golden() {
    check_golden(&GOLDEN[1]);
}

#[test]
fn half_split_order_matches_the_golden() {
    check_golden(&GOLDEN[2]);
}

#[test]
fn thirty_percent_split_order_matches_the_golden() {
    check_golden(&GOLDEN[3]);
}
