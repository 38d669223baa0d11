//! The answer, pinned bit for bit (ROADMAP item 5).
//!
//! `seq_hash` pins the *shape* of a run; it cannot see a numeric change.
//! These constants are `HplResult::x_hash` (FNV-1a over the solution's
//! `f64` bits, then the pivot log) captured at commit beccf1f — before the
//! row swap was rewritten around column-walk kernels and the generator
//! around strips — for every grid shape the swap distinguishes (P = 1, 2,
//! 3; Q = 1, 2), all three schedules, both pipeline elements, and an `NB`
//! that does not divide `N`. Any change to how rows move, how entries are
//! generated, or how `U` is assembled must leave every one of them alone:
//! those changes move data, they reorder no arithmetic.
//!
//! The DGEMM microkernels round differently (the SIMD tiles fuse the
//! multiply-add, the scalar oracle does not), so there is one table per
//! `hpl_blas::kernels` choice; the `kernel-matrix` CI lane runs both. The
//! `simd` table does not depend on which SIMD tier computed it: a tile
//! shape only decides which elements are computed side by side, and each
//! element is the same fused chain over `p` followed by the same unfused
//! `beta*c + alpha*acc` on every tier (`hpl_blas::kernels`). The table was
//! captured with the AVX2 tile; the last test below reruns it on every
//! tier narrower than the one `simd` resolves to on this host.
//!
//! The `mxp` rows pin HPL-MxP (`hpl_mxp::solve_mxp`) over the same grids,
//! schedules and input: the refined solution's `x_hash`, the final scaled
//! residual's bits and the sweep count, captured at commit 0c796d0 —
//! before the refinement stopped regenerating the system and the
//! correction solve moved onto `axpy_add`. Both changes reorder no
//! arithmetic, so neither may move a value.

use hpl_comm::Universe;
use rhpl_core::config::Schedule;
use rhpl_core::{run_hpl_system, HplConfig, MatGen, System};

const SCHEDULES: [(&str, Schedule); 3] = [
    ("simple", Schedule::Simple),
    ("lookahead", Schedule::LookAhead),
    ("split-update:0.5", Schedule::SplitUpdate { frac: 0.5 }),
];

/// `(p, q)` grids: every process-column height the swap distinguishes.
const GRIDS: [(usize, usize); 5] = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)];

/// `N = 150`, `NB = 16`: nine full panels and a ragged tenth of width 6.
const N: usize = 150;
const NB: usize = 16;

fn x_hash_of(p: usize, q: usize, schedule: Schedule, f32_pipeline: bool, threads: usize) -> u64 {
    let mut cfg = HplConfig::new(N, NB, p, q);
    cfg.schedule = schedule;
    cfg.seed = 2023;
    cfg.fact.threads = threads;
    let gen = MatGen::new(cfg.seed, cfg.n);
    let fill = |i: usize, j: usize| gen.entry(i, j);
    let hashes = Universe::run(cfg.ranks(), |comm| {
        let r = if f32_pipeline {
            run_hpl_system::<f32>(comm, &cfg, System::Fill(&fill))
        } else {
            run_hpl_system::<f64>(comm, &cfg, System::Fill(&fill))
        };
        r.expect("nonsingular").x_hash
    });
    assert!(
        hashes.iter().all(|&h| h == hashes[0]),
        "x_hash must be replicated: {hashes:x?}"
    );
    hashes[0]
}

/// One constant per `(element, Q)`. The answer does not depend on `P` or on
/// the schedule — row exchanges and the pivot reduction are exact, and the
/// schedules reorder only independent column groups — so the fifteen
/// configurations per element collapse to two values. `Q` changes the
/// answer through the back-substitution, which sums each block's `U x`
/// contributions per process column before reducing them across the
/// process row — a different association for a different `Q`. The DGEMM's
/// tiling (edge tiles included) never changes an element.
struct Golden {
    /// `[Q = 1, Q = 2]` for the `f64` pipeline.
    f64_by_q: [u64; 2],
    /// `[Q = 1, Q = 2]` for the `f32` pipeline.
    f32_by_q: [u64; 2],
    /// `[Q = 1, Q = 2]` for HPL-MxP. `Q` also enters through the residual
    /// matvec and `||A||_inf`, whose row sums are reduced across the
    /// process row.
    mxp_by_q: [MxpPin; 2],
}

/// What pins an HPL-MxP answer: `x_hash`, `residuals.scaled.to_bits()`
/// and `sweeps`.
type MxpPin = (u64, u64, usize);

const SIMD: Golden = Golden {
    f64_by_q: [0x6264f47b6698ede8, 0xfbe0f432c7fcecbd],
    f32_by_q: [0xe7363f9d12558c90, 0x2264224f6c0d956d],
    mxp_by_q: [
        (0x06257c967b48753a, 0x401dc6454a0e61e4, 1),
        (0x89e23ac700d73b87, 0x401bcaed8b899c6f, 1),
    ],
};

const SCALAR: Golden = Golden {
    f64_by_q: [0x9a33081d56a5dc38, 0xb913d8927baf2e84],
    f32_by_q: [0xcd5b292c782777e7, 0xf7db3372339b5023],
    mxp_by_q: [
        (0x12021b15e7811efe, 0x3f52c6f96e5dbdbe, 2),
        (0xeb752fb3b121bc6a, 0x3f578f1c5468e48a, 2),
    ],
};

fn golden() -> Option<&'static Golden> {
    match hpl_blas::kernels::active().name() {
        "scalar" => Some(&SCALAR),
        "simd" if cfg!(target_arch = "x86_64") => Some(&SIMD),
        // Another architecture's SIMD tile: no constants were captured.
        _ => None,
    }
}

fn check(f32_pipeline: bool) {
    check_grids(f32_pipeline, &GRIDS, 1);
}

/// Checks the HPL table on `grids` with `threads` FACT threads.
fn check_grids(f32_pipeline: bool, grids: &[(usize, usize)], threads: usize) {
    let Some(g) = golden() else { return };
    let by_q = if f32_pipeline {
        &g.f32_by_q
    } else {
        &g.f64_by_q
    };
    for &(p, q) in grids {
        for (name, schedule) in SCHEDULES {
            let got = x_hash_of(p, q, schedule, f32_pipeline, threads);
            let want = by_q[q - 1];
            assert_eq!(
                got, want,
                "{p}x{q} {name} f32={f32_pipeline} T={threads}: x_hash {got:#018x} != golden \
                 {want:#018x}"
            );
        }
    }
}

fn mxp_pin_of(p: usize, q: usize, schedule: Schedule, threads: usize) -> MxpPin {
    let mut cfg = HplConfig::new(N, NB, p, q);
    cfg.schedule = schedule;
    cfg.seed = 2023;
    cfg.fact.threads = threads;
    let pins = Universe::run(cfg.ranks(), |comm| {
        let o = hpl_mxp::solve_mxp(comm, &cfg).expect("nonsingular");
        (o.x_hash, o.residuals.scaled.to_bits(), o.sweeps)
    });
    assert!(
        pins.iter().all(|&pin| pin == pins[0]),
        "the MxP answer must be replicated: {pins:x?}"
    );
    pins[0]
}

fn check_mxp() {
    check_mxp_grids(&GRIDS, 1);
}

/// Checks the HPL-MxP table on `grids` with `threads` FACT threads.
fn check_mxp_grids(grids: &[(usize, usize)], threads: usize) {
    let Some(g) = golden() else { return };
    for &(p, q) in grids {
        for (name, schedule) in SCHEDULES {
            let got = mxp_pin_of(p, q, schedule, threads);
            let want = g.mxp_by_q[q - 1];
            assert_eq!(
                got, want,
                "{p}x{q} {name} T={threads} mxp: (x_hash, scaled bits, sweeps)"
            );
        }
    }
}

#[test]
fn f64_answers_match_the_parent_commit_bit_for_bit() {
    check(false);
}

#[test]
fn f32_answers_match_the_parent_commit_bit_for_bit() {
    check(true);
}

#[test]
fn mxp_answers_match_the_parent_commit_bit_for_bit() {
    check_mxp();
}

/// The tables were captured with one FACT thread. A second thread splits
/// the panel's tiles and the pivot search between threads but reorders no
/// arithmetic, so the same constants hold — on a process column of one
/// rank (the in-place pivot swap) and of two (the pivot collective).
#[test]
fn answers_do_not_depend_on_fact_threads() {
    let grids = [(1, 1), (2, 1)];
    check_grids(false, &grids, 2);
    check_grids(true, &grids, 2);
    check_mxp_grids(&[(1, 1)], 2);
}

/// The kernel freezes per process, so a narrower tier needs a process of
/// its own: this test is that process's body (run by name from the test
/// below, never by a plain `cargo test`). Its argument is the index into
/// `Kernel::available()` smuggled through the test filter, which libtest
/// hands back in `std::env::args`.
#[test]
#[ignore = "child process of simd_answers_do_not_depend_on_the_tier"]
fn narrower_tier_child() {
    let narrower = hpl_blas::Kernel::available()
        .into_iter()
        .filter(|k| k.kind() == hpl_blas::KernelKind::Simd)
        .filter(|k| Some(*k) != hpl_blas::Kernel::simd());
    // Whichever narrower tier freezes first is the one this process
    // checks; with one such tier on every host today that is all of them.
    for kern in narrower {
        if hpl_blas::kernels::freeze(kern) != kern {
            continue;
        }
        eprintln!("x_hash goldens under {}", kern.describe());
        check(false);
        check(true);
        check_mxp();
    }
}

/// Every SIMD tier narrower than the one `simd` resolves to here — the
/// AVX2 tile on an AVX-512 host — reproduces the same `simd` table.
#[test]
fn simd_answers_do_not_depend_on_the_tier() {
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args(["--ignored", "--exact", "narrower_tier_child", "--nocapture"])
        .env_remove("RHPL_KERNEL")
        .output()
        .expect("spawn the narrower-tier child");
    assert!(
        out.status.success(),
        "narrower tier disagrees with the simd goldens:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
