//! `cargo xtask bench` — the exact regression gate.
//!
//! Builds the release binaries, runs a pinned deterministic sweep
//! (`N = 192`, `NB = 32`, `2 x 2` grid, depths 0 and 1, fixed seed) through
//! `rhpl --trace-json`, plus the `trace_overhead` harness, and checks only
//! what is exact on any machine:
//!
//! - against the committed `bench/baseline.json`: run count, `T/V` codes,
//!   schedule names, modes, iteration counts, the deterministic
//!   phase-sequence hash `seq_hash`, and the answer's `x_hash` (between
//!   runs of the same DGEMM kernel);
//! - the residual check passing in every run;
//! - the six guard costs of the `trace_overhead` harness under the fixed
//!   caps in [`OVERHEAD_CAPS`] (the "< 1% when off" guarantees).
//!
//! No timing is compared against a stored one: perf verdicts come from
//! `benchmark/`, which pairs runs and bounds each metric. After an
//! intentional schedule or numerics change, `cargo xtask bench
//! --update-baseline` re-pins the baseline's hashes.

use std::path::Path;
use std::process::Command;

use crate::json::{self, Value};

/// Caps on the `trace_overhead` harness's guard costs, by JSON key:
/// instrumentation compiled in but switched off (span guard, fault hook,
/// checkpoint cadence check) costs under 200 ns per call, the tracing and
/// fault hooks under 1% of a fault-free run's wall time; enabled
/// checkpointing costs under 15%.
const OVERHEAD_CAPS: [(&str, f64); 6] = [
    ("disabled_ns_per_call", 200.0),
    ("disabled_frac", 0.01),
    ("fault_guard_ns_per_call", 200.0),
    ("faults_disabled_frac", 0.01),
    ("ckpt_guard_ns_per_call", 200.0),
    ("ckpt_enabled_frac", 0.15),
];

/// One measurement per [`OVERHEAD_CAPS`] entry, in the same order.
type Overhead = [f64; OVERHEAD_CAPS.len()];

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
1            BCASTs (0=1rg,1=1rM,2=2rg,3=2rM,4=Lng,5=LnM)
2            # of lookahead depth
0 1          DEPTHs (>=0)
1            SWAP (0=bin-exch,1=long,2=mix)
64           swapping threshold
0            L1 in (0=transposed,1=no-transposed) form
0            U  in (0=transposed,1=no-transposed) form
1            Equilibration (0=no,1=yes)
8            memory alignment in double (> 0)
";

/// One run's gated fields (pulled from `BENCH_hpl.json` or the baseline).
#[derive(Clone, Debug)]
struct RunMetrics {
    tv: String,
    schedule: String,
    /// `"hpl"` (classic f64) or `"mxp"` (f32 factors + f64 refinement).
    mode: String,
    iterations: usize,
    seq_hash: String,
    /// Digest of the answer (solution bits, then the pivot log). The DGEMM
    /// microkernels round differently, so it is comparable only between
    /// runs of the same `kernel`.
    x_hash: String,
    kernel: String,
    passed: bool,
}

/// Entry point; returns the process exit code.
pub fn run_bench(root: &Path, args: &[String]) -> i32 {
    let update = match parse_args(args) {
        Ok(u) => u,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let measured = match measure(root) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("xtask bench: {e}");
            return 1;
        }
    };

    let baseline_path = root.join("bench/baseline.json");
    if update {
        if let Err(e) = std::fs::write(&baseline_path, baseline_json(&measured)) {
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

    let overhead = match measure_overhead(root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xtask bench: {e}");
            return 1;
        }
    };
    let failures = compare(&measured, &overhead, &baseline);
    report(&measured, &failures)
}

/// The one flag `bench` takes: `Ok(true)` for `--update-baseline`. Any
/// other argument is named in the error, so a typo cannot silently run
/// the plain gate.
fn parse_args(args: &[String]) -> Result<bool, String> {
    match args.iter().find(|a| *a != "--update-baseline") {
        Some(bad) => Err(format!(
            "unknown `bench` flag `{bad}` (expected `--update-baseline`)"
        )),
        None => Ok(!args.is_empty()),
    }
}

/// Builds release binaries and runs the pinned sweep; parses BENCH_hpl.json.
fn measure(root: &Path) -> Result<Vec<RunMetrics>, String> {
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

/// Extracts one run's gated fields from its `BENCH_hpl.json` entry (or
/// its baseline entry, which stores the same keys).
fn run_metrics(run: &Value) -> Result<RunMetrics, String> {
    let s = |k: &str| {
        run.get(k)
            .and_then(Value::str)
            .map(str::to_string)
            .ok_or(format!("run missing `{k}`"))
    };
    let iterations = run
        .get("iterations")
        .and_then(Value::arr)
        .ok_or("run missing iterations")?;
    Ok(RunMetrics {
        tv: s("tv")?,
        schedule: s("schedule")?,
        mode: s("mode")?,
        iterations: iterations.len(),
        seq_hash: s("seq_hash")?,
        x_hash: s("x_hash")?,
        kernel: s("kernel")?,
        passed: run.get("passed").and_then(Value::bool).unwrap_or(false),
    })
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
    let mut o: Overhead = [0.0; OVERHEAD_CAPS.len()];
    for (v, (k, _)) in o.iter_mut().zip(OVERHEAD_CAPS) {
        *v = doc
            .get(k)
            .and_then(Value::num)
            .ok_or(format!("overhead missing `{k}`"))?;
    }
    Ok(o)
}

/// Compares the measured runs against the baseline and the guard costs
/// against their caps; returns failure strings (empty = gate passes).
fn compare(measured: &[RunMetrics], overhead: &Overhead, baseline: &Value) -> Vec<String> {
    let mut fails = Vec::new();
    for (v, (key, cap)) in overhead.iter().zip(OVERHEAD_CAPS) {
        if *v > cap {
            fails.push(format!("trace_overhead `{key}` {v:.4} exceeds cap {cap}"));
        }
    }
    let Some(base_runs) = baseline.get("runs").and_then(Value::arr) else {
        fails.push("baseline has no runs".into());
        return fails;
    };
    if base_runs.len() != measured.len() {
        fails.push(format!(
            "run count {} != baseline {}",
            measured.len(),
            base_runs.len()
        ));
        return fails;
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
        if m.kernel != b.kernel {
            println!(
                "xtask bench: [{id}] x_hash {} not gated (baseline has {} under kernel `{}`, \
                 this host resolved `{}`)",
                m.x_hash, b.x_hash, b.kernel, m.kernel
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
    }
    fails
}

/// Prints the gate verdict; returns the exit code.
fn report(measured: &[RunMetrics], failures: &[String]) -> i32 {
    for m in measured {
        println!(
            "xtask bench: [{}] {} mode={} iterations={} seq={} x={}",
            m.tv, m.schedule, m.mode, m.iterations, m.seq_hash, m.x_hash
        );
    }
    if failures.is_empty() {
        println!(
            "xtask bench: PASS ({} runs match the baseline; guard costs under their caps)",
            measured.len()
        );
        0
    } else {
        for f in failures {
            println!("xtask bench: FAIL {f}");
        }
        println!(
            "xtask bench: {} failure(s) against bench/baseline.json and the guard caps",
            failures.len()
        );
        1
    }
}

/// Serializes the measured runs as the committed baseline document: the
/// exact fields only, no timing.
fn baseline_json(measured: &[RunMetrics]) -> String {
    let mut out = String::from("{\n  \"schema\": \"rhpl-bench-baseline-v1\",\n  \"runs\": [\n");
    for (i, m) in measured.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"tv\": \"{}\", \"schedule\": \"{}\", \"mode\": \"{}\", \"iterations\": [{}],\n     \
             \"seq_hash\": \"{}\", \"x_hash\": \"{}\", \"kernel\": \"{}\", \"passed\": {}}}{}\n",
            m.tv,
            m.schedule,
            m.mode,
            // Placeholder rows: only the array length is read back, the
            // same way as from `BENCH_hpl.json`.
            vec!["{}"; m.iterations].join(", "),
            m.seq_hash,
            m.x_hash,
            m.kernel,
            m.passed,
            if i + 1 < measured.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(seq: &str) -> RunMetrics {
        RunMetrics {
            tv: "WC102R16".into(),
            schedule: "simple".into(),
            mode: "hpl".into(),
            iterations: 6,
            seq_hash: seq.into(),
            x_hash: "0x1".into(),
            kernel: "simd".into(),
            passed: true,
        }
    }

    /// Every span-guard cost `ns`, every overhead fraction `frac`.
    fn overhead(ns: f64, frac: f64) -> Overhead {
        [ns, frac, ns, frac, ns, frac]
    }

    const QUIET: Overhead = [3.0, 0.0002, 3.0, 0.0002, 3.0, 0.0002];

    fn baseline_of(m: &[RunMetrics]) -> Value {
        json::parse(&baseline_json(m)).unwrap()
    }

    #[test]
    fn identical_measurement_passes() {
        let base = vec![metrics("0xaa")];
        let b = baseline_of(&base);
        assert!(compare(&base, &QUIET, &b).is_empty());
    }

    /// A `BENCH_hpl.json` run entry of `metrics("0xaa")` whose every
    /// timing is `slowdown` times a fixed one.
    fn traced_run(slowdown: f64) -> Value {
        let ns = |base: f64| base * slowdown;
        let iter = format!(
            "{{\"fact_ns\": {}, \"bcast_ns\": {}, \"update_ns\": {}}}",
            ns(1e6),
            ns(1e6),
            ns(5e6)
        );
        json::parse(&format!(
            "{{\"tv\": \"WC102R16\", \"schedule\": \"simple\", \"mode\": \"hpl\", \
             \"iterations\": [{}], \"seq_hash\": \"0xaa\", \"x_hash\": \"0x1\", \
             \"kernel\": \"simd\", \"passed\": true, \"gflops\": {}, \"fact_gflops\": 0, \
             \"wall_seconds\": {}, \"overlap_efficiency\": 0.3, \
             \"phase_totals\": {{\"fact_ns\": {}, \"bcast_ns\": {}, \"update_ns\": {}}}}}",
            vec![iter; 6].join(", "),
            1.0 / slowdown,
            ns(0.01),
            ns(6e6),
            ns(6e6),
            ns(3e7)
        ))
        .unwrap()
    }

    #[test]
    fn each_exact_field_fails_on_its_own_and_a_slow_run_passes() {
        let base = vec![metrics("0xaa")];
        let b = baseline_of(&base);
        let mut changed = vec![base[0].clone(); 4];
        changed[0].seq_hash = "0xbb".into();
        changed[1].x_hash = "0x2".into();
        changed[2].iterations = 7;
        changed[3].passed = false;
        let expected = [
            "phase sequence diverged",
            "answer diverged",
            "iterations 7 != baseline 6",
            "residual check FAILED",
        ];
        for (m, expect) in changed.into_iter().zip(expected) {
            let fails = compare(&[m], &QUIET, &b);
            assert_eq!(fails.len(), 1, "{fails:?}");
            assert!(fails[0].contains(expect), "{fails:?}");
        }
        // Timings are not gated: a run 100x slower in every phase, with
        // the same hashes, passes against a baseline pinned from a fast one.
        let fast = vec![run_metrics(&traced_run(1.0)).unwrap()];
        let text = baseline_json(&fast);
        for key in ["gflops", "wall_seconds", "phase_totals", "gate", "overhead"] {
            assert!(!text.contains(key), "baseline stores `{key}`: {text}");
        }
        let slow = vec![run_metrics(&traced_run(100.0)).unwrap()];
        let fails = compare(&slow, &QUIET, &json::parse(&text).unwrap());
        assert!(fails.is_empty(), "{fails:?}");
    }

    #[test]
    fn answer_change_fails_only_between_runs_of_one_kernel() {
        let base = vec![metrics("0xaa")];
        let b = baseline_of(&base);
        let mut changed = base.clone();
        changed[0].x_hash = "0x2".into();
        let fails = compare(&changed, &QUIET, &b);
        assert!(
            fails.iter().any(|f| f.contains("answer diverged")),
            "{fails:?}"
        );
        // Another microkernel rounds differently: not comparable, not a failure.
        changed[0].kernel = "scalar".into();
        assert!(compare(&changed, &QUIET, &b).is_empty());
    }

    #[test]
    fn guard_costs_over_their_caps_fail() {
        let base = vec![metrics("0xaa")];
        let b = baseline_of(&base);
        // All three guards over their ns/call caps, both disabled fractions
        // over their 1% caps, and the enabled-checkpoint fraction over its
        // 15% cap: six overhead failures.
        assert_eq!(compare(&base, &overhead(500.0, 0.5), &b).len(), 6);
    }

    #[test]
    fn baseline_roundtrips_through_parser() {
        let base = vec![metrics("0xaa"), metrics("0xcc")];
        let b = baseline_of(&base);
        assert_eq!(
            b.get("schema").and_then(Value::str),
            Some("rhpl-bench-baseline-v1")
        );
        assert_eq!(b.get("runs").and_then(Value::arr).unwrap().len(), 2);
        assert!(compare(&base, &QUIET, &b).is_empty());
    }

    #[test]
    fn only_update_baseline_is_accepted() {
        assert_eq!(parse_args(&[]), Ok(false));
        assert_eq!(parse_args(&["--update-baseline".into()]), Ok(true));
        for bad in ["--self-test", "--update-baselin"] {
            let err = parse_args(&["--update-baseline".into(), bad.into()]).unwrap_err();
            assert!(err.contains(&format!("`{bad}`")), "{err}");
        }
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
