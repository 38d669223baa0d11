//! Tracing-overhead harness: quantifies what the `hpl-trace` subsystem
//! costs, feeding the `cargo xtask bench` overhead gate.
//!
//! Four measurements:
//!
//! 1. `disabled_ns_per_call` — cost of one disabled span guard (one
//!    thread-local flag read on open, one on drop), timed over `--calls`
//!    iterations (default 10 M) with no tracer installed.
//! 2. A real benchmark run with tracing **disabled** (`disabled_wall_s`) —
//!    the production path every untraced run takes.
//! 3. The same run with tracing **enabled** (`enabled_wall_s`,
//!    `spans_per_run` over all ranks).
//! 4. `fault_guard_ns_per_call` — cost of one *disabled* fault-injection
//!    guard (`hpl_faults::on_send` with no injector armed), the branch
//!    every fabric send/receive takes on a fault-free run.
//! 5. `ckpt_guard_ns_per_call` — cost of the *disabled* checkpoint cadence
//!    check (`hpl_ckpt::due` with `--ckpt-every 0`), the only thing a run
//!    without checkpointing pays per panel iteration.
//! 6. The same run with checkpointing **enabled** every 2 iterations into
//!    an in-memory store: `ckpt_ns_per_run` (total Ckpt-span time over all
//!    ranks) and `ckpt_enabled_frac`, that time over the ranks' summed wall.
//!
//! `disabled_frac` — the deterministic headline metric — is the disabled
//! guard cost times the span count, over the disabled run's wall time: the
//! fraction of wall the compiled-in (but switched-off) instrumentation
//! costs. The gate requires it below 1%. `faults_disabled_frac` is the
//! analogous metric for the fault hooks: guard cost times the send+recv
//! count per run, over the same wall — also gated below 1%.
//! `ckpt_enabled_frac` bounds the cost of *running* with checkpoints on
//! (gated below 15%), while `ckpt_guard_ns_per_call` pins the disabled path
//! at a branch. The wall-clock delta between the enabled and disabled runs
//! is also printed but is noisy at this problem size; the derived fractions
//! are the stable signal.

use hpl_bench::{arg_value, emit_json, row};
use hpl_comm::Universe;
use hpl_faults::{FaultPlan, Site};
use rhpl_core::config::Schedule;
use rhpl_core::{run_hpl, HplConfig};

/// The series consumed by `cargo xtask bench` (via `--json`).
#[derive(Debug, serde::Serialize)]
struct Overhead {
    calls: u64,
    disabled_ns_per_call: f64,
    spans_per_run: u64,
    disabled_wall_s: f64,
    enabled_wall_s: f64,
    disabled_frac: f64,
    fault_guard_ns_per_call: f64,
    fault_guards_per_run: u64,
    faults_disabled_frac: f64,
    ckpt_guard_ns_per_call: f64,
    ckpt_ns_per_run: u64,
    ckpt_enabled_frac: f64,
}

/// Returns (max wall over ranks, total spans).
fn run_once(trace: bool) -> (f64, u64) {
    let mut cfg = HplConfig::new(192, 32, 2, 2);
    cfg.schedule = Schedule::SplitUpdate { frac: 0.5 };
    cfg.trace.enabled = trace;
    let results = Universe::run(cfg.ranks(), |comm| {
        let r = run_hpl(comm, &cfg).expect("nonsingular");
        (r.wall, r.trace.map_or(0, |t| t.spans.len() as u64))
    });
    let wall = results.iter().map(|r| r.0).fold(0.0f64, f64::max);
    let spans = results.iter().map(|r| r.1).sum();
    (wall, spans)
}

/// Counts fault-guard invocations (send + recv + region) across all ranks
/// for one benchmark run, by arming an *empty* fault plan: the injector's
/// per-site counters tick on every guard, world and split communicators
/// alike. Slight overcount vs the unarmed path — an armed injector routes
/// panel broadcasts through the checksummed variant, which adds a few typed
/// control messages per panel — so the derived fraction is conservative.
/// Traced run with checkpointing every 2 panel iterations into a fresh
/// in-memory store; returns (summed wall over ranks, total Ckpt-span ns).
fn run_ckpt() -> (f64, u64) {
    let mut cfg = HplConfig::new(192, 32, 2, 2);
    cfg.schedule = Schedule::SplitUpdate { frac: 0.5 };
    cfg.trace.enabled = true;
    cfg.ckpt = rhpl_core::CkptOpts {
        every: 2,
        store: Some(hpl_ckpt::CkptStore::mem(cfg.ranks())),
        resume: false,
    };
    let results = Universe::run(cfg.ranks(), |comm| {
        let r = run_hpl(comm, &cfg).expect("nonsingular");
        let ckpt_ns: u64 = r.trace.as_ref().map_or(0, |t| {
            t.spans
                .iter()
                .filter(|s| s.phase == hpl_trace::Phase::Ckpt)
                .map(|s| s.dur_ns)
                .sum()
        });
        (r.wall, ckpt_ns)
    });
    let wall_sum = results.iter().map(|r| r.0).sum();
    let ckpt_ns = results.iter().map(|r| r.1).sum();
    (wall_sum, ckpt_ns)
}

fn count_fault_guards() -> u64 {
    let mut cfg = HplConfig::new(192, 32, 2, 2);
    cfg.schedule = Schedule::SplitUpdate { frac: 0.5 };
    let run = Universe::run_with_faults(cfg.ranks(), FaultPlan::new(0), |comm| {
        run_hpl(comm, &cfg).expect("nonsingular");
    });
    let inj = &run.injector;
    (0..cfg.ranks())
        .flat_map(|r| {
            [Site::Send, Site::Recv, Site::Region]
                .into_iter()
                .map(move |s| inj.site_count(r, s))
        })
        .sum()
}

fn main() {
    let calls: u64 = arg_value("--calls").unwrap_or(10_000_000);

    // 1. Disabled guard cost. No tracer is installed on this thread, so
    // every guard takes the fast path.
    let t0 = std::time::Instant::now();
    for _ in 0..calls {
        let g = hpl_trace::span(hpl_trace::Phase::Update);
        std::hint::black_box(&g);
    }
    let disabled_ns_per_call = t0.elapsed().as_nanos() as f64 / calls as f64;

    // 4. Disabled fault-guard cost: the `None`-injector branch every
    // send/recv takes when no fault plan is armed.
    let no_injector = None;
    let t1 = std::time::Instant::now();
    for _ in 0..calls {
        let a = hpl_faults::on_send(&no_injector);
        std::hint::black_box(&a);
    }
    let fault_guard_ns_per_call = t1.elapsed().as_nanos() as f64 / calls as f64;

    // 5. Disabled checkpoint guard: the cadence check every panel iteration
    // performs when `--ckpt-every` is 0.
    let t2 = std::time::Instant::now();
    for i in 0..calls {
        let d = hpl_ckpt::due(0, i as usize);
        std::hint::black_box(d);
    }
    let ckpt_guard_ns_per_call = t2.elapsed().as_nanos() as f64 / calls as f64;

    // 2./3. Paired runs. Warm up once so page-cache/allocator effects hit
    // neither side.
    run_once(false);
    let (disabled_wall_s, _) = run_once(false);
    let (enabled_wall_s, spans_per_run) = run_once(true);
    let fault_guards_per_run = count_fault_guards();

    // 6. Checkpointing enabled: Ckpt-span time as a fraction of the ranks'
    // summed wall (both sides of the ratio come from the same run, so the
    // metric is stable against machine speed).
    let (ckpt_wall_sum_s, ckpt_ns_per_run) = run_ckpt();

    let disabled_frac = disabled_ns_per_call * spans_per_run as f64 / (disabled_wall_s * 1e9);
    let faults_disabled_frac =
        fault_guard_ns_per_call * fault_guards_per_run as f64 / (disabled_wall_s * 1e9);
    let ckpt_enabled_frac = ckpt_ns_per_run as f64 / (ckpt_wall_sum_s * 1e9);
    let o = Overhead {
        calls,
        disabled_ns_per_call,
        spans_per_run,
        disabled_wall_s,
        enabled_wall_s,
        disabled_frac,
        fault_guard_ns_per_call,
        fault_guards_per_run,
        faults_disabled_frac,
        ckpt_guard_ns_per_call,
        ckpt_ns_per_run,
        ckpt_enabled_frac,
    };

    println!("trace overhead: N=192 NB=32 2x2 split-update");
    let widths = [26usize, 14];
    println!(
        "{}",
        row(
            &["disabled ns/call", &format!("{disabled_ns_per_call:.2}")],
            &widths
        )
    );
    println!(
        "{}",
        row(
            &["spans per traced run", &format!("{spans_per_run}")],
            &widths
        )
    );
    println!(
        "{}",
        row(
            &["disabled wall (s)", &format!("{disabled_wall_s:.4}")],
            &widths
        )
    );
    println!(
        "{}",
        row(
            &["enabled wall (s)", &format!("{enabled_wall_s:.4}")],
            &widths
        )
    );
    println!(
        "{}",
        row(
            &["disabled overhead frac", &format!("{disabled_frac:.6}")],
            &widths
        )
    );
    println!(
        "{}",
        row(
            &[
                "fault guard ns/call",
                &format!("{fault_guard_ns_per_call:.2}")
            ],
            &widths
        )
    );
    println!(
        "{}",
        row(
            &["fault guards per run", &format!("{fault_guards_per_run}")],
            &widths
        )
    );
    println!(
        "{}",
        row(
            &[
                "faults disabled frac",
                &format!("{faults_disabled_frac:.6}")
            ],
            &widths
        )
    );
    println!(
        "{}",
        row(
            &[
                "ckpt guard ns/call",
                &format!("{ckpt_guard_ns_per_call:.2}")
            ],
            &widths
        )
    );
    println!(
        "{}",
        row(&["ckpt ns per run", &format!("{ckpt_ns_per_run}")], &widths)
    );
    println!(
        "{}",
        row(
            &["ckpt enabled frac", &format!("{ckpt_enabled_frac:.6}")],
            &widths
        )
    );
    emit_json("trace_overhead", &o);
}
