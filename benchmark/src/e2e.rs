//! End-to-end measurement: spawn the release `rhpl` binary on a workload,
//! one process at a time (a closed loop with one client), and read its
//! classic output.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::child;
use crate::parse::{self, MxpScore};
use crate::stats;
use crate::workload::{hpl_dat, Workload};

/// Where the benchmark runs: the repository, the built binary, a scratch
/// directory inside the checkout, and the seed every run passes on.
pub struct Session {
    /// Repository root (the parent of this package).
    pub root: PathBuf,
    /// The release `rhpl` binary.
    pub rhpl: PathBuf,
    /// This invocation's scratch directory under `benchmark/out/`.
    pub scratch: PathBuf,
    /// `--seed`, passed through as `rhpl --seed`.
    pub seed: u64,
    /// The one processor every `rhpl` child is confined to.
    pub cpu: usize,
}

/// One successful `rhpl` run.
#[derive(Clone, Debug)]
pub struct Rep {
    /// The `Gflops` column.
    pub gflops: f64,
    /// HPL clock derived from `gflops`, seconds.
    pub clock_s: f64,
    /// Spawn to exit, seconds.
    pub wall_s: f64,
    /// `wall_s - clock_s`: exec, HPL.dat parse, universe/pool/transport
    /// bring-up, verification, teardown.
    pub setup_s: f64,
    /// Child `ru_maxrss`, MiB.
    pub peak_rss_mib: f64,
    /// The `HPL-MxP:` block of an `--mxp` run.
    pub mxp: Option<MxpScore>,
}

/// The repetitions of one workload.
#[derive(Default)]
pub struct E2e {
    /// Successful runs, in order.
    pub reps: Vec<Rep>,
    /// Why each failed run failed.
    pub failures: Vec<String>,
}

impl E2e {
    /// Runs attempted (warm-up excluded).
    pub fn attempted(&self) -> usize {
        self.reps.len() + self.failures.len()
    }

    fn column(&self, f: fn(&Rep) -> f64) -> Vec<f64> {
        self.reps.iter().map(f).collect()
    }

    /// `[q1, median, q3]` of one per-rep figure.
    pub fn quartiles(&self, f: fn(&Rep) -> f64) -> [f64; 3] {
        stats::quartiles(&self.column(f))
    }

    /// Median of one per-rep figure.
    pub fn median(&self, f: fn(&Rep) -> f64) -> f64 {
        self.quartiles(f)[1]
    }
}

impl Session {
    /// Builds `rhpl` (never timed) and creates the scratch directory.
    pub fn open(seed: u64) -> Result<Session, String> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .ok_or("benchmark package has no parent directory")?
            .to_path_buf();
        if !root.join("crates/cli/Cargo.toml").is_file() {
            return Err(format!(
                "{} is not the rhpl repository (no crates/cli)",
                root.display()
            ));
        }
        let status = Command::new("cargo")
            .args(["build", "--release", "--offline", "--quiet"])
            .args(["-p", "rhpl-cli", "--bin", "rhpl"])
            .current_dir(&root)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building rhpl failed: {status}"));
        }
        // cargo resolves a relative CARGO_TARGET_DIR against its working
        // directory, which was the root.
        let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
        let rhpl = root.join(target).join("release/rhpl");
        if !rhpl.is_file() {
            return Err(format!("built binary not found at {}", rhpl.display()));
        }
        let scratch = root
            .join("benchmark/out")
            .join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&scratch)
            .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
        let cpu = child::measurement_cpu().map_err(|e| format!("sched_getaffinity: {e}"))?;
        Ok(Session {
            root,
            rhpl,
            scratch,
            seed,
            cpu,
        })
    }

    /// An `rhpl` command line under the scrubbed environment, confined to
    /// the measurement processor, with this session's scratch directory as
    /// the temporary directory.
    pub fn rhpl_command(&self) -> Command {
        let mut cmd = Command::new(&self.rhpl);
        child::scrub_env(&mut cmd);
        child::confine(&mut cmd, self.cpu);
        cmd.env("TMPDIR", &self.scratch).current_dir(&self.scratch);
        cmd
    }

    /// Writes `w`'s HPL.dat into the scratch directory.
    pub fn write_dat(&self, w: &Workload) -> Result<PathBuf, String> {
        let path = self.scratch.join(format!("{}.dat", w.name));
        std::fs::write(&path, hpl_dat(w)).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    }

    /// One run of `w`; with `trace_json` the run is traced into that file.
    /// A non-zero exit, a missing result row or a residual line that does
    /// not say `PASSED` is a failed run.
    pub fn run_rep(&self, w: &Workload, trace_json: Option<&Path>) -> Result<Rep, String> {
        let dat = self.write_dat(w)?;
        let mut cmd = self.rhpl_command();
        cmd.arg(dat)
            .args(["--seed", &self.seed.to_string()])
            .args(["--threads", &w.threads.to_string()]);
        if w.mxp {
            cmd.arg("--mxp");
        }
        if let Some(path) = trace_json {
            cmd.arg("--trace-json").arg(path);
        }
        if w.transport != hpl_comm::TransportSel::Inproc {
            cmd.env("RHPL_TRANSPORT", w.transport.name());
        }
        let run = child::run(cmd).map_err(|e| format!("cannot run rhpl: {e}"))?;
        if !run.status.success() {
            return Err(format!("rhpl exited with {}", run.status));
        }
        let score = parse::parse_stdout(&run.stdout)?;
        if !score.passed {
            return Err("residual check FAILED".into());
        }
        if score.n != w.n {
            return Err(format!(
                "rhpl ran N={} for a workload of N={}",
                score.n, w.n
            ));
        }
        let clock_s = score.clock_s();
        Ok(Rep {
            gflops: score.gflops,
            clock_s,
            wall_s: run.wall_s,
            setup_s: run.wall_s - clock_s,
            peak_rss_mib: run.peak_rss_mib,
            mxp: score.mxp,
        })
    }

    /// One discarded warm-up run if `warm_up`, then runs back to back until
    /// `budget_s` seconds have been measured and at least `min_reps` were
    /// attempted.
    pub fn measure(&self, w: &Workload, budget_s: f64, min_reps: usize, warm_up: bool) -> E2e {
        let mut out = E2e::default();
        if warm_up {
            if let Err(e) = self.run_rep(w, None) {
                eprintln!("{}: warm-up run failed: {e}", w.name);
            }
        }
        let t0 = Instant::now();
        while out.attempted() < min_reps || t0.elapsed().as_secs_f64() < budget_s {
            match self.run_rep(w, None) {
                Ok(rep) => out.reps.push(rep),
                Err(e) => {
                    eprintln!("{}: run {} failed: {e}", w.name, out.attempted() + 1);
                    out.failures.push(e);
                    // A broken build fails every run the same way; do not
                    // spend the whole budget proving it.
                    if out.failures.len() >= 3 && out.reps.is_empty() {
                        break;
                    }
                }
            }
        }
        out
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // Scratch holds only regenerable inputs and per-run trace files.
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}
