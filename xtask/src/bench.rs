//! `cargo xtask bench` — the performance regression gate.
//!
//! Builds the release binaries, runs a pinned deterministic sweep
//! (`N = 192`, `NB = 32`, `2 x 2` grid, depths 0 and 1, fixed seed) through
//! `rhpl --trace-json`, plus the `trace_overhead` harness, and compares the
//! measured metrics against the committed `bench/baseline.json`:
//!
//! - **exact** across machines: run count, `T/V` codes, schedule names,
//!   iteration counts, the deterministic phase-sequence hash, the answer's
//!   `x_hash` (between runs of the same DGEMM kernel), and the residual
//!   check passing;
//! - **banded** (machine-speed tolerant): GFLOP/s no lower than
//!   `gflops_min_frac` of baseline, wall time and per-phase ns/iteration no
//!   higher than `*_max_factor` times baseline (with an absolute per-phase
//!   floor so microsecond phases don't trip on scheduler noise);
//! - **overhead**: the disabled-tracing cost fraction stays under
//!   `max_disabled_frac`, the disabled fault-hook fraction under
//!   `max_faults_disabled_frac` (the "< 1% when off" guarantees), the
//!   disabled checkpoint cadence check under `max_ckpt_guard_ns_per_call`,
//!   and the *enabled* checkpointing cost fraction under
//!   `max_ckpt_enabled_frac`.
//!
//! The bands live in the baseline file itself so maintainers can tune them
//! without touching code. Maintainer flows:
//!
//! - `cargo xtask bench --update-baseline` re-measures and rewrites
//!   `bench/baseline.json` (run on a quiet machine, commit the result);
//! - `cargo xtask bench --self-test` injects artificial slowdowns through
//!   `RHPL_TRACE_SLOW_PHASE`/`_NS` — first into the UPDATE phase, then
//!   into the FACT path — and succeeds only if the gate *fails on the
//!   injected phase* both times, proving the bands can trip on the
//!   dominant phase and on the threaded factorization alike.
//!
//! A normal gate run also prints a per-phase delta table (FACT, LBCAST,
//! UPDATE ns/iteration vs baseline) and appends it to the GitHub job
//! summary when `$GITHUB_STEP_SUMMARY` is set.

use std::path::Path;
use std::process::Command;

use crate::json::{self, Value};

/// Phases gated per iteration, in baseline-file order. `fact_comm` is part
/// of `fact` (see `hpl-trace`), so gating `fact` covers it; it is still
/// recorded in the baseline for inspection.
const PHASES: &[&str] = &[
    "fact_ns",
    "fact_comm_ns",
    "bcast_ns",
    "row_swap_ns",
    "scatter_ns",
    "update_ns",
    "transfer_ns",
];

/// Default tolerance bands, used when the baseline omits a `gate` section.
#[derive(Clone, Copy, Debug)]
struct Gate {
    gflops_min_frac: f64,
    wall_max_factor: f64,
    phase_max_factor: f64,
    phase_floor_ns_per_iter: f64,
    max_disabled_frac: f64,
    max_disabled_ns_per_call: f64,
    max_faults_disabled_frac: f64,
    max_fault_guard_ns_per_call: f64,
    max_ckpt_guard_ns_per_call: f64,
    max_ckpt_enabled_frac: f64,
}

impl Default for Gate {
    fn default() -> Self {
        Self {
            gflops_min_frac: 0.02,
            wall_max_factor: 50.0,
            phase_max_factor: 50.0,
            phase_floor_ns_per_iter: 10_000_000.0,
            max_disabled_frac: 0.01,
            max_disabled_ns_per_call: 200.0,
            max_faults_disabled_frac: 0.01,
            max_fault_guard_ns_per_call: 200.0,
            max_ckpt_guard_ns_per_call: 200.0,
            max_ckpt_enabled_frac: 0.15,
        }
    }
}

impl Gate {
    fn from_baseline(b: &Value) -> Self {
        let mut g = Gate::default();
        let Some(sec) = b.get("gate") else { return g };
        let f = |k: &str, d: f64| sec.get(k).and_then(Value::num).unwrap_or(d);
        g.gflops_min_frac = f("gflops_min_frac", g.gflops_min_frac);
        g.wall_max_factor = f("wall_max_factor", g.wall_max_factor);
        g.phase_max_factor = f("phase_max_factor", g.phase_max_factor);
        g.phase_floor_ns_per_iter = f("phase_floor_ns_per_iter", g.phase_floor_ns_per_iter);
        g.max_disabled_frac = f("max_disabled_frac", g.max_disabled_frac);
        g.max_disabled_ns_per_call = f("max_disabled_ns_per_call", g.max_disabled_ns_per_call);
        g.max_faults_disabled_frac = f("max_faults_disabled_frac", g.max_faults_disabled_frac);
        g.max_fault_guard_ns_per_call =
            f("max_fault_guard_ns_per_call", g.max_fault_guard_ns_per_call);
        g.max_ckpt_guard_ns_per_call =
            f("max_ckpt_guard_ns_per_call", g.max_ckpt_guard_ns_per_call);
        g.max_ckpt_enabled_frac = f("max_ckpt_enabled_frac", g.max_ckpt_enabled_frac);
        g
    }
}

/// The pinned benchmark input: deterministic, small enough for CI, two
/// schedules (reference and split-update) so the gate covers the overlap
/// path. Depth count/values are the only lines differing from `--sample`.
const BENCH_DAT: &str = "\
HPLinpack benchmark input file (xtask bench pinned configuration)
rhpl regression gate
HPL.out      output file name (if any)
6            device out (6=stdout,7=stderr,file)
1            # of problems sizes (Ns)
192          Ns
1            # of NBs
32           NBs
1            PMAP process mapping (0=Row-,1=Column-major)
1            # of process grids (P x Q)
2            Ps
2            Qs
16.0         threshold
1            # of panel fact
2            PFACTs (0=left, 1=Crout, 2=Right)
1            # of recursive stopping criterium
16           NBMINs (>= 1)
1            # of panels in recursion
2            NDIVs
1            # of recursive panel fact.
2            RFACTs (0=left, 1=Crout, 2=Right)
1            # of broadcast
1            BCASTs (0=1rg,1=1rM,2=2rg,3=2rM,4=Lng,5=LnM,6=binomial)
2            # of lookahead depth
0 1          DEPTHs (>=0)
1            SWAP (0=bin-exch,1=long,2=mix)
64           swapping threshold
0            L1 in (0=transposed,1=no-transposed) form
0            U  in (0=transposed,1=no-transposed) form
1            Equilibration (0=no,1=yes)
8            memory alignment in double (> 0)
";

/// One run's gated metrics (pulled from `BENCH_hpl.json` or the baseline).
#[derive(Clone, Debug)]
struct RunMetrics {
    tv: String,
    schedule: String,
    /// `"hpl"` (classic f64) or `"mxp"` (f32 factors + f64 refinement).
    mode: String,
    iterations: f64,
    seq_hash: String,
    /// Digest of the answer (solution bits, then the pivot log). The DGEMM
    /// microkernels round differently, so it is comparable only between
    /// runs of the same `kernel`; both are empty in a baseline that
    /// predates them.
    x_hash: String,
    kernel: String,
    passed: bool,
    gflops: f64,
    /// f32 factorization rate; 0 outside `--mxp` (band-gated only when set).
    fact_gflops: f64,
    wall_seconds: f64,
    /// ns per iteration, indexed like [`PHASES`].
    phase_ns_per_iter: Vec<f64>,
    overlap_efficiency: f64,
}

/// Entry point; returns the process exit code.
pub fn run_bench(root: &Path, args: &[String]) -> i32 {
    let update = args.iter().any(|a| a == "--update-baseline");
    let self_test = args.iter().any(|a| a == "--self-test");
    if self_test {
        return run_self_test(root);
    }

    let measured = match measure(root, None) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("xtask bench: {e}");
            return 1;
        }
    };
    let overhead = match measure_overhead(root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xtask bench: {e}");
            return 1;
        }
    };

    let baseline_path = root.join("bench/baseline.json");
    if update {
        let text = baseline_json(&measured, overhead);
        if let Err(e) = std::fs::write(&baseline_path, text) {
            eprintln!("xtask bench: cannot write {}: {e}", baseline_path.display());
            return 1;
        }
        println!(
            "xtask bench: baseline updated at {}",
            baseline_path.display()
        );
        return 0;
    }

    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "xtask bench: cannot read {} ({e}); run `cargo xtask bench --update-baseline`",
                baseline_path.display()
            );
            return 1;
        }
    };
    let baseline = match json::parse(&baseline) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("xtask bench: invalid baseline: {e}");
            return 1;
        }
    };

    let failures = compare(&measured, Some(overhead), &baseline);
    emit_phase_deltas(&measured, &baseline);
    report(&measured, &failures)
}

/// Self-test: two injected-slowdown passes, each of which must make the
/// gate fail *on the injected phase* (exit 0 when both do). Both go
/// through the `RHPL_TRACE_SLOW_PHASE`/`_NS` pair: UPDATE, then FACT, so a
/// regression in the threaded factorization path is provably catchable,
/// not just one in the dominant phase. (The FACT sleep is 100 ms: FACT's
/// sub-millisecond baseline puts its factor-50 cap around 30–40
/// ms/iteration — well above the 10 ms absolute floor UPDATE sits on —
/// and under the look-ahead schedules the last iteration factors no
/// panel, diluting the average.)
fn run_self_test(root: &Path) -> i32 {
    let baseline_path = root.join("bench/baseline.json");
    let baseline = match std::fs::read_to_string(&baseline_path)
        .map_err(|e| e.to_string())
        .and_then(|t| json::parse(&t))
    {
        Ok(v) => v,
        Err(e) => {
            eprintln!("xtask bench: cannot load baseline: {e}");
            return 1;
        }
    };
    let passes: [(&str, &[(&str, &str)]); 2] = [
        (
            "update_ns",
            &[
                ("RHPL_TRACE_SLOW_PHASE", "update"),
                ("RHPL_TRACE_SLOW_NS", "10000000"),
            ],
        ),
        (
            "fact_ns",
            &[
                ("RHPL_TRACE_SLOW_PHASE", "fact"),
                ("RHPL_TRACE_SLOW_NS", "100000000"),
            ],
        ),
    ];
    for (phase, slow) in passes {
        println!("xtask bench: self-test (artificially slowed {phase}; the gate must trip)");
        let measured = match measure(root, Some(slow)) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("xtask bench: {e}");
                return 1;
            }
        };
        // Overhead is skipped: the injected sleep would distort it.
        let failures = compare(&measured, None, &baseline);
        if !failures.iter().any(|f| f.contains(phase)) {
            eprintln!("xtask bench: SELF-TEST FAILED — the slowed {phase} run passed the gate");
            for f in &failures {
                eprintln!("  (other failure) {f}");
            }
            return 1;
        }
        println!("xtask bench: gate tripped on {phase} as expected:");
        for f in failures.iter().filter(|f| f.contains(phase)) {
            println!("  {f}");
        }
    }
    println!("xtask bench: self-test OK — both injected slowdowns tripped the gate");
    0
}

/// Phases surfaced in the delta table: the two this repo's comm/FACT fast
/// paths target, plus the dominant UPDATE for proportion.
const DELTA_PHASES: &[&str] = &["fact_ns", "bcast_ns", "update_ns"];

/// Renders a markdown table of per-iteration phase times against the
/// baseline (a negative delta is faster than baseline). `None` when the
/// baseline doesn't line up run-for-run — `compare` reports that case as a
/// gate failure on its own.
fn phase_delta_table(measured: &[RunMetrics], baseline: &Value) -> Option<String> {
    let base_runs = baseline.get("runs").and_then(Value::arr)?;
    if base_runs.len() != measured.len() {
        return None;
    }
    let mut t = String::from(
        "| run | phase | baseline ns/iter | measured ns/iter | delta |\n\
         |---|---|---:|---:|---:|\n",
    );
    for (m, b) in measured.iter().zip(base_runs) {
        let b = run_metrics(b).ok()?;
        for phase in DELTA_PHASES {
            let i = PHASES.iter().position(|p| p == phase)?;
            let (mv, bv) = (m.phase_ns_per_iter[i], b.phase_ns_per_iter[i]);
            let delta = if bv > 0.0 {
                format!("{:+.1}%", (mv - bv) / bv * 100.0)
            } else {
                "n/a".into()
            };
            t.push_str(&format!(
                "| {} | {} | {:.0} | {:.0} | {} |\n",
                m.tv, phase, bv, mv, delta
            ));
        }
    }
    Some(t)
}

/// Prints the phase-delta table and, under GitHub Actions, appends it to
/// the job summary (`$GITHUB_STEP_SUMMARY` names the file to append to).
fn emit_phase_deltas(measured: &[RunMetrics], baseline: &Value) {
    let Some(table) = phase_delta_table(measured, baseline) else {
        return;
    };
    println!("xtask bench: phase deltas vs bench/baseline.json");
    print!("{table}");
    if let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") {
        let doc = format!("### Bench phase deltas\n\n{table}\n");
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| std::io::Write::write_all(&mut f, doc.as_bytes()));
        if let Err(e) = appended {
            eprintln!("xtask bench: cannot append job summary {path}: {e}");
        }
    }
}

/// Builds release binaries and runs the pinned sweep; parses BENCH_hpl.json.
fn measure(root: &Path, extra_env: Option<&[(&str, &str)]>) -> Result<Vec<RunMetrics>, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "-q",
            "-p",
            "rhpl-cli",
            "-p",
            "hpl-bench",
        ])
        .current_dir(root)
        .status()
        .map_err(|e| format!("cannot spawn cargo: {e}"))?;
    if !status.success() {
        return Err("release build failed".into());
    }

    let work = root.join("target/xtask-bench");
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let dat = work.join("HPL.dat");
    std::fs::write(&dat, BENCH_DAT).map_err(|e| format!("cannot write {}: {e}", dat.display()))?;

    // The classic sweep and the `--mxp` sweep are separate invocations
    // (the mode is per-process); their runs concatenate in order, so the
    // baseline pins both the f64 pipeline and the mixed-precision one.
    let mut metrics = Vec::new();
    for mxp in [false, true] {
        let out_json = work.join(if mxp {
            "BENCH_mxp.json"
        } else {
            "BENCH_hpl.json"
        });
        let mut cmd = Command::new(root.join("target/release/rhpl"));
        cmd.arg(&dat)
            .args([
                "--seed",
                "42",
                "--split-frac",
                "0.5",
                "--threads",
                "2",
                "--trace-json",
            ])
            .arg(&out_json)
            .current_dir(&work);
        if mxp {
            cmd.arg("--mxp");
        }
        for (k, v) in extra_env.unwrap_or(&[]) {
            cmd.env(k, v);
        }
        let out = cmd
            .output()
            .map_err(|e| format!("cannot spawn rhpl: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "rhpl exited with {}: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            ));
        }

        let text = std::fs::read_to_string(&out_json)
            .map_err(|e| format!("cannot read {}: {e}", out_json.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("invalid BENCH_hpl.json: {e}"))?;
        if doc.get("schema").and_then(Value::str) != Some("rhpl-bench-v1") {
            return Err("BENCH_hpl.json has an unexpected schema".into());
        }
        let runs = doc
            .get("runs")
            .and_then(Value::arr)
            .ok_or("BENCH_hpl.json has no runs")?;
        metrics.extend(
            runs.iter()
                .map(run_metrics)
                .collect::<Result<Vec<_>, _>>()?,
        );
    }
    Ok(metrics)
}

/// Extracts one run's gated metrics from its `BENCH_hpl.json` entry.
fn run_metrics(run: &Value) -> Result<RunMetrics, String> {
    let s = |k: &str| {
        run.get(k)
            .and_then(Value::str)
            .map(str::to_string)
            .ok_or(format!("run missing `{k}`"))
    };
    let n = |k: &str| {
        run.get(k)
            .and_then(Value::num)
            .ok_or(format!("run missing `{k}`"))
    };
    let iterations = run
        .get("iterations")
        .and_then(Value::arr)
        .ok_or("run missing iterations")?;
    let iters = iterations.len().max(1) as f64;
    let totals = run.get("phase_totals").ok_or("run missing phase_totals")?;
    let phase_ns_per_iter = PHASES
        .iter()
        .map(|p| totals.get(p).and_then(Value::num).map(|v| v / iters))
        .collect::<Option<Vec<f64>>>()
        .ok_or("run missing a phase total")?;
    Ok(RunMetrics {
        tv: s("tv")?,
        schedule: s("schedule")?,
        // Absent in pre-mxp baselines: those recorded classic runs only.
        mode: s("mode").unwrap_or_else(|_| "hpl".into()),
        iterations: iters,
        seq_hash: s("seq_hash")?,
        x_hash: s("x_hash").unwrap_or_default(),
        kernel: s("kernel").unwrap_or_default(),
        passed: run.get("passed").and_then(Value::bool).unwrap_or(false),
        gflops: n("gflops")?,
        fact_gflops: n("fact_gflops").unwrap_or(0.0),
        wall_seconds: n("wall_seconds")?,
        phase_ns_per_iter,
        overlap_efficiency: n("overlap_efficiency")?,
    })
}

/// Guard costs with instrumentation compiled in but switched off, from the
/// `trace_overhead` harness: the trace span guard and the fault-injection
/// hook, each as ns/call and as a fraction of a fault-free run's wall time.
#[derive(Clone, Copy, Debug)]
struct Overhead {
    disabled_ns_per_call: f64,
    disabled_frac: f64,
    fault_guard_ns_per_call: f64,
    faults_disabled_frac: f64,
    ckpt_guard_ns_per_call: f64,
    ckpt_enabled_frac: f64,
}

/// Runs the `trace_overhead` harness and parses its JSON line.
fn measure_overhead(root: &Path) -> Result<Overhead, String> {
    let out = Command::new(root.join("target/release/trace_overhead"))
        .args(["--json", "--calls", "5000000"])
        .current_dir(root)
        .output()
        .map_err(|e| format!("cannot spawn trace_overhead: {e}"))?;
    if !out.status.success() {
        return Err(format!("trace_overhead exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("JSON trace_overhead "))
        .ok_or("trace_overhead emitted no JSON line")?;
    let doc = json::parse(line).map_err(|e| format!("invalid trace_overhead JSON: {e}"))?;
    let f = |k: &str| {
        doc.get(k)
            .and_then(Value::num)
            .ok_or(format!("overhead missing `{k}`"))
    };
    Ok(Overhead {
        disabled_ns_per_call: f("disabled_ns_per_call")?,
        disabled_frac: f("disabled_frac")?,
        fault_guard_ns_per_call: f("fault_guard_ns_per_call")?,
        faults_disabled_frac: f("faults_disabled_frac")?,
        ckpt_guard_ns_per_call: f("ckpt_guard_ns_per_call")?,
        ckpt_enabled_frac: f("ckpt_enabled_frac")?,
    })
}

/// Compares measured metrics against the baseline; returns failure strings
/// (empty = gate passes).
fn compare(measured: &[RunMetrics], overhead: Option<Overhead>, baseline: &Value) -> Vec<String> {
    let gate = Gate::from_baseline(baseline);
    let mut fails = Vec::new();
    let Some(base_runs) = baseline.get("runs").and_then(Value::arr) else {
        return vec!["baseline has no runs".into()];
    };
    if base_runs.len() != measured.len() {
        return vec![format!(
            "run count {} != baseline {}",
            measured.len(),
            base_runs.len()
        )];
    }
    for (m, b) in measured.iter().zip(base_runs) {
        let b = match run_metrics(b) {
            Ok(b) => b,
            Err(e) => {
                fails.push(format!("bad baseline run: {e}"));
                continue;
            }
        };
        let id = &m.tv;
        // Exact, machine-independent metrics.
        if m.tv != b.tv {
            fails.push(format!("[{id}] tv changed: {} -> {}", b.tv, m.tv));
        }
        if m.schedule != b.schedule {
            fails.push(format!(
                "[{id}] schedule changed: {} -> {}",
                b.schedule, m.schedule
            ));
        }
        if m.mode != b.mode {
            fails.push(format!("[{id}] mode changed: {} -> {}", b.mode, m.mode));
        }
        if m.iterations != b.iterations {
            fails.push(format!(
                "[{id}] iterations {} != baseline {}",
                m.iterations, b.iterations
            ));
        }
        if m.seq_hash != b.seq_hash {
            fails.push(format!(
                "[{id}] phase sequence diverged: {} != baseline {} (trace nondeterminism \
                 or an intentional schedule change; rerun with --update-baseline if the latter)",
                m.seq_hash, b.seq_hash
            ));
        }
        if b.x_hash.is_empty() || m.kernel != b.kernel {
            println!(
                "xtask bench: [{id}] x_hash {} not gated (baseline has {} under kernel `{}`, \
                 this host resolved `{}`)",
                m.x_hash,
                if b.x_hash.is_empty() {
                    "none"
                } else {
                    &b.x_hash
                },
                b.kernel,
                m.kernel
            );
        } else if m.x_hash != b.x_hash {
            fails.push(format!(
                "[{id}] answer diverged: x_hash {} != baseline {} (a bit of the solution or a \
                 pivot choice changed; rerun with --update-baseline only if the numerics were \
                 meant to change)",
                m.x_hash, b.x_hash
            ));
        }
        if !m.passed {
            fails.push(format!("[{id}] residual check FAILED"));
        }
        // Banded performance metrics.
        let gf_floor = b.gflops * gate.gflops_min_frac;
        if m.gflops < gf_floor {
            fails.push(format!(
                "[{id}] gflops {:.3} below {:.3} ({}x under baseline {:.3})",
                m.gflops,
                gf_floor,
                (b.gflops / m.gflops.max(1e-12)).round(),
                b.gflops
            ));
        }
        if b.fact_gflops > 0.0 {
            let fact_floor = b.fact_gflops * gate.gflops_min_frac;
            if m.fact_gflops < fact_floor {
                fails.push(format!(
                    "[{id}] {} fact_gflops {:.3} below {:.3} (baseline {:.3})",
                    m.mode, m.fact_gflops, fact_floor, b.fact_gflops
                ));
            }
        }
        let wall_cap = b.wall_seconds * gate.wall_max_factor;
        if m.wall_seconds > wall_cap {
            fails.push(format!(
                "[{id}] wall {:.4}s above cap {:.4}s (baseline {:.4}s x{})",
                m.wall_seconds, wall_cap, b.wall_seconds, gate.wall_max_factor
            ));
        }
        for (i, phase) in PHASES.iter().enumerate() {
            let cap =
                (b.phase_ns_per_iter[i] * gate.phase_max_factor).max(gate.phase_floor_ns_per_iter);
            if m.phase_ns_per_iter[i] > cap {
                fails.push(format!(
                    "[{id}] {phase}/iter {:.0} above cap {:.0} (baseline {:.0})",
                    m.phase_ns_per_iter[i], cap, b.phase_ns_per_iter[i]
                ));
            }
        }
    }
    if let Some(o) = overhead {
        if o.disabled_ns_per_call > gate.max_disabled_ns_per_call {
            fails.push(format!(
                "disabled span guard costs {:.1} ns/call (cap {})",
                o.disabled_ns_per_call, gate.max_disabled_ns_per_call
            ));
        }
        if o.disabled_frac > gate.max_disabled_frac {
            fails.push(format!(
                "disabled tracing overhead fraction {:.4} exceeds {}",
                o.disabled_frac, gate.max_disabled_frac
            ));
        }
        if o.fault_guard_ns_per_call > gate.max_fault_guard_ns_per_call {
            fails.push(format!(
                "disabled fault guard costs {:.1} ns/call (cap {})",
                o.fault_guard_ns_per_call, gate.max_fault_guard_ns_per_call
            ));
        }
        if o.faults_disabled_frac > gate.max_faults_disabled_frac {
            fails.push(format!(
                "disabled fault-hook overhead fraction {:.4} exceeds {}",
                o.faults_disabled_frac, gate.max_faults_disabled_frac
            ));
        }
        if o.ckpt_guard_ns_per_call > gate.max_ckpt_guard_ns_per_call {
            fails.push(format!(
                "disabled checkpoint guard costs {:.1} ns/call (cap {})",
                o.ckpt_guard_ns_per_call, gate.max_ckpt_guard_ns_per_call
            ));
        }
        if o.ckpt_enabled_frac > gate.max_ckpt_enabled_frac {
            fails.push(format!(
                "enabled checkpointing overhead fraction {:.4} exceeds {}",
                o.ckpt_enabled_frac, gate.max_ckpt_enabled_frac
            ));
        }
    }
    fails
}

/// Prints the gate verdict; returns the exit code.
fn report(measured: &[RunMetrics], failures: &[String]) -> i32 {
    for m in measured {
        println!(
            "xtask bench: [{}] {} mode={} gflops={:.3} fact={:.3} wall={:.4}s overlap={:.3} seq={} x={}",
            m.tv,
            m.schedule,
            m.mode,
            m.gflops,
            m.fact_gflops,
            m.wall_seconds,
            m.overlap_efficiency,
            m.seq_hash,
            m.x_hash
        );
    }
    if failures.is_empty() {
        println!(
            "xtask bench: PASS ({} runs within tolerance of baseline)",
            measured.len()
        );
        0
    } else {
        for f in failures {
            println!("xtask bench: FAIL {f}");
        }
        println!(
            "xtask bench: {} regression(s) against bench/baseline.json",
            failures.len()
        );
        1
    }
}

/// Serializes the measured metrics as the committed baseline document.
fn baseline_json(measured: &[RunMetrics], o: Overhead) -> String {
    let gate = Gate::default();
    let mut out = String::from("{\n  \"schema\": \"rhpl-bench-baseline-v1\",\n");
    out.push_str(&format!(
        "  \"gate\": {{\"gflops_min_frac\": {}, \"wall_max_factor\": {}, \
         \"phase_max_factor\": {}, \"phase_floor_ns_per_iter\": {}, \
         \"max_disabled_frac\": {}, \"max_disabled_ns_per_call\": {}, \
         \"max_faults_disabled_frac\": {}, \"max_fault_guard_ns_per_call\": {}, \
         \"max_ckpt_guard_ns_per_call\": {}, \"max_ckpt_enabled_frac\": {}}},\n",
        gate.gflops_min_frac,
        gate.wall_max_factor,
        gate.phase_max_factor,
        gate.phase_floor_ns_per_iter,
        gate.max_disabled_frac,
        gate.max_disabled_ns_per_call,
        gate.max_faults_disabled_frac,
        gate.max_fault_guard_ns_per_call,
        gate.max_ckpt_guard_ns_per_call,
        gate.max_ckpt_enabled_frac
    ));
    out.push_str(&format!(
        "  \"overhead\": {{\"disabled_ns_per_call\": {}, \"disabled_frac\": {}, \
         \"fault_guard_ns_per_call\": {}, \"faults_disabled_frac\": {}, \
         \"ckpt_guard_ns_per_call\": {}, \"ckpt_enabled_frac\": {}}},\n",
        o.disabled_ns_per_call,
        o.disabled_frac,
        o.fault_guard_ns_per_call,
        o.faults_disabled_frac,
        o.ckpt_guard_ns_per_call,
        o.ckpt_enabled_frac
    ));
    out.push_str("  \"runs\": [\n");
    for (i, m) in measured.iter().enumerate() {
        // `run_metrics` divides `phase_totals` by the `iterations` length
        // when reading this file back, so totals (avg x iters) are stored.
        let phases = PHASES
            .iter()
            .zip(&m.phase_ns_per_iter)
            .map(|(p, v)| format!("\"{p}\": {}", v * m.iterations))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "    {{\"tv\": \"{}\", \"schedule\": \"{}\", \"mode\": \"{}\", \"iterations\": [{}],\n     \
             \"seq_hash\": \"{}\", \"x_hash\": \"{}\", \"kernel\": \"{}\", \"passed\": {}, \
             \"gflops\": {}, \"fact_gflops\": {}, \"wall_seconds\": {},\n     \
             \"overlap_efficiency\": {}, \"phase_totals\": {{{}}}}}{}\n",
            m.tv,
            m.schedule,
            m.mode,
            // Placeholder rows: only the array length matters when read back.
            vec!["{}"; m.iterations as usize].join(", "),
            m.seq_hash,
            m.x_hash,
            m.kernel,
            m.passed,
            m.gflops,
            m.fact_gflops,
            m.wall_seconds,
            m.overlap_efficiency,
            phases,
            if i + 1 < measured.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(gflops: f64, update_ns: f64, seq: &str) -> RunMetrics {
        RunMetrics {
            tv: "WC102R16".into(),
            schedule: "simple".into(),
            mode: "hpl".into(),
            iterations: 6.0,
            seq_hash: seq.into(),
            x_hash: "0x1".into(),
            kernel: "simd".into(),
            passed: true,
            gflops,
            fact_gflops: 0.0,
            wall_seconds: 0.01,
            phase_ns_per_iter: vec![1e6, 5e5, 1e6, 1e6, 1e4, update_ns, 1e5],
            overlap_efficiency: 0.0,
        }
    }

    fn overhead(ns: f64, frac: f64) -> Overhead {
        Overhead {
            disabled_ns_per_call: ns,
            disabled_frac: frac,
            fault_guard_ns_per_call: ns,
            faults_disabled_frac: frac,
            ckpt_guard_ns_per_call: ns,
            ckpt_enabled_frac: frac,
        }
    }

    fn baseline_of(m: &[RunMetrics]) -> Value {
        json::parse(&baseline_json(m, overhead(3.0, 0.0002))).unwrap()
    }

    #[test]
    fn identical_measurement_passes() {
        let base = vec![metrics(1.0, 1e6, "0xaa")];
        let b = baseline_of(&base);
        assert!(compare(&base, Some(overhead(3.0, 0.0002)), &b).is_empty());
    }

    #[test]
    fn sequence_change_and_slow_phase_fail() {
        let base = vec![metrics(1.0, 1e6, "0xaa")];
        let b = baseline_of(&base);
        let diverged = vec![metrics(1.0, 1e6, "0xbb")];
        assert!(compare(&diverged, None, &b)
            .iter()
            .any(|f| f.contains("diverged")));
        // 1e6 * 50 = 5e7 < floor 1e7? no: max(5e7, 1e7) = 5e7; 6e7 trips.
        let slow = vec![metrics(1.0, 6e7, "0xaa")];
        assert!(compare(&slow, None, &b)
            .iter()
            .any(|f| f.contains("update_ns")));
    }

    #[test]
    fn answer_change_fails_only_between_runs_of_one_kernel() {
        let base = vec![metrics(1.0, 1e6, "0xaa")];
        let b = baseline_of(&base);
        let mut changed = base.clone();
        changed[0].x_hash = "0x2".into();
        let fails = compare(&changed, None, &b);
        assert!(
            fails.iter().any(|f| f.contains("answer diverged")),
            "{fails:?}"
        );
        // Another microkernel rounds differently: not comparable, not a failure.
        changed[0].kernel = "scalar".into();
        assert!(compare(&changed, None, &b).is_empty());
    }

    #[test]
    fn gflops_floor_and_overhead_fail() {
        let base = vec![metrics(1.0, 1e6, "0xaa")];
        let b = baseline_of(&base);
        let slow = vec![metrics(0.01, 1e6, "0xaa")];
        assert!(compare(&slow, None, &b)
            .iter()
            .any(|f| f.contains("gflops")));
        // All three guards over their ns/call caps, both disabled fractions
        // over their 1% caps, and the enabled-checkpoint fraction over its
        // 15% cap: six overhead failures.
        assert!(compare(&base, Some(overhead(500.0, 0.5)), &b).len() == 6);
    }

    #[test]
    fn baseline_roundtrips_through_parser() {
        let base = vec![metrics(1.0, 1e6, "0xaa"), metrics(2.0, 2e6, "0xcc")];
        let b = baseline_of(&base);
        assert_eq!(
            b.get("schema").and_then(Value::str),
            Some("rhpl-bench-baseline-v1")
        );
        assert_eq!(b.get("runs").and_then(Value::arr).unwrap().len(), 2);
        assert!(compare(&base, None, &b).is_empty());
    }

    #[test]
    fn delta_table_reports_signed_percentages() {
        let base = vec![metrics(1.0, 1e6, "0xaa")];
        let b = baseline_of(&base);
        // Halve UPDATE: the table must show it at -50% while the un-changed
        // FACT and LBCAST rows sit at +0.0%.
        let faster = vec![metrics(1.0, 5e5, "0xaa")];
        let t = phase_delta_table(&faster, &b).expect("aligned baseline");
        assert!(t.contains("| WC102R16 | update_ns | 1000000 | 500000 | -50.0% |"));
        assert!(t.contains("| WC102R16 | fact_ns | 1000000 | 1000000 | +0.0% |"));
        assert!(t.lines().count() == 2 + DELTA_PHASES.len());
        // A run-count mismatch is the gate's problem, not the table's.
        assert!(phase_delta_table(&[], &b).is_none());
    }

    #[test]
    fn pinned_dat_parses_shapewise() {
        // Guard the inline HPL.dat against drift: 30 lines, the depth line
        // carries two values.
        assert_eq!(BENCH_DAT.lines().count(), 31);
        assert!(BENCH_DAT.contains("0 1          DEPTHs"));
        assert!(BENCH_DAT.contains("192          Ns"));
    }
}
