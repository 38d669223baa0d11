//! `cargo xtask faults` — the fault-injection soak gate.
//!
//! Builds the release `rhpl` binary and drives a pinned scenario matrix
//! through its `--fault` soak mode (one scenario per fault kind, plus a
//! seeded random plan). Every scenario must:
//!
//! - finish inside its deadline (a wedged run — today's 120 s mailbox
//!   timeout — is the exact failure mode this gate exists to catch);
//! - end in the expected outcome: `HPLOK` with a passing residual, or the
//!   expected structured `HPLERROR kind=...` line (exit code 3);
//! - be byte-identical on stdout across two runs of the same seed — the
//!   determinism contract of `hpl-faults`.
//!
//! `cargo xtask faults --recovery` swaps in the recovery matrix instead:
//! rank deaths injected mid-run under `--ckpt-every`, which must end in
//! `HPLOK` — the supervisor restores every rank from the last complete
//! checkpoint and resumes — with the deterministic `RECOVERY` line present
//! and stdout still byte-identical across runs.
//!
//! `cargo xtask faults --kill` is the multi-process chaos soak: a clean
//! `rhpl launch` transport-parity check (tcp vs the in-process oracle must
//! agree on `seq_hash` bitwise), then a launch run under checkpointing
//! whose rank 1 *OS process* is killed with `SIGKILL` mid-factorization —
//! the supervisor must print `DOWN`/`RECOVERY`, respawn the gang from the
//! latest on-disk checkpoint generation, and still end in `HPLOK` with a
//! passing residual. Unlike the injected-death matrices this is real
//! process death: no destructor runs, no poison frame is sent by the
//! victim, and detection rides on link EOF and heartbeats alone.
//!
//! `cargo xtask faults --self-test` re-runs the rank-death scenario with a
//! deliberately wrong expectation and succeeds only if the gate *fails*,
//! proving the matrix can trip.

use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-run wall deadline. Rank-death unwind is asserted under 5 s by the
/// hang-freedom integration test; the soak cap only needs to be far below
/// the 120 s mailbox timeout while absorbing CI scheduler noise.
const DEADLINE: Duration = Duration::from_secs(30);

/// Deadline for recovery scenarios: a kill-and-restore run executes up to
/// three attempts (probe death, restore, resume), so it gets double budget.
const RECOVERY_DEADLINE: Duration = Duration::from_secs(60);

/// Deadline for one `--kill` soak launch: TCP rendezvous, a run stretched
/// by a sticky per-send delay so the kill lands mid-factorization, then a
/// full respawn-and-resume attempt.
const KILL_DEADLINE: Duration = Duration::from_secs(180);

/// Expected scenario outcome, matched against the protocol line.
enum Expect {
    /// `HPLOK` with a passing residual (exit code 0).
    Clean,
    /// An `HPLERROR` line starting with this prefix (exit code 3).
    Error(&'static str),
    /// Any non-wedged deterministic outcome (exit code 0 or 3) — used for
    /// the seeded random plan, whose outcome is seed-defined but not
    /// hand-pinned here.
    AnyOutcome,
}

struct Scenario {
    name: &'static str,
    /// Which pinned `HPL.dat` to run (index into [`DATS`]).
    dat: usize,
    /// Extra `rhpl` arguments (`--fault ...`, `--threads ...`).
    args: &'static [&'static str],
    expect: Expect,
    /// Substrings that must appear somewhere in stdout (beyond the outcome
    /// line) — e.g. the `RECOVERY` protocol line for supervised scenarios.
    require: &'static [&'static str],
    /// Per-run wall deadline.
    deadline: Duration,
}

/// Pinned inputs: a 1x2 grid (panel broadcasts carry the row traffic, so
/// bit-flips land on the checksummed path) and a 2x2 grid (column comms are
/// real, so recv faults land inside FACT).
const DATS: &[(&str, &str)] = &[("faults_1x2.dat", DAT_1X2), ("faults_2x2.dat", DAT_2X2)];

/// The `--recovery` matrix: the same injected rank deaths that end the
/// plain soak in `HPLERROR kind=rank_failed`, now run under the checkpoint
/// supervisor — which must restore from the last complete generation and
/// finish with a passing residual, on both pinned grid shapes and on both
/// store backends. `restored_gen` is pinned in the required substring where
/// the death lands past a checkpoint boundary, so a regression that
/// silently restarts from scratch (instead of restoring) also trips.
fn recovery_matrix() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "death-recovered-1x2",
            dat: 0,
            args: &["--fault", "death@1:send:4", "--ckpt-every", "2"],
            expect: Expect::Clean,
            require: &["RECOVERY attempt=1 kind=rank_failed restored_gen="],
            deadline: RECOVERY_DEADLINE,
        },
        Scenario {
            name: "death-recovered-2x2",
            dat: 1,
            args: &["--fault", "death@2:recv:6", "--ckpt-every", "2"],
            expect: Expect::Clean,
            require: &["RECOVERY attempt=1 kind=rank_failed restored_gen="],
            deadline: RECOVERY_DEADLINE,
        },
        Scenario {
            name: "death-recovered-disk",
            dat: 1,
            args: &[
                "--fault",
                "death@2:recv:6",
                "--ckpt-every",
                "2",
                "--ckpt-dir",
                "ckpt-recovery",
            ],
            expect: Expect::Clean,
            require: &["RECOVERY attempt=1 kind=rank_failed restored_gen="],
            deadline: RECOVERY_DEADLINE,
        },
    ]
}

fn matrix() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "delay-sticky",
            dat: 0,
            args: &["--fault", "delay:500@0:send:0:sticky"],
            expect: Expect::Clean,
            require: &[],
            deadline: DEADLINE,
        },
        Scenario {
            name: "drop-retransmit",
            dat: 0,
            args: &["--fault", "drop@0:send:0:sticky"],
            expect: Expect::Clean,
            require: &[],
            deadline: DEADLINE,
        },
        Scenario {
            name: "bitflip-repaired",
            dat: 0,
            args: &["--fault", "bitflip:17@0:send:2"],
            expect: Expect::Clean,
            require: &[],
            deadline: DEADLINE,
        },
        Scenario {
            name: "bitflip-sticky",
            dat: 0,
            args: &["--fault", "bitflip:7@0:send:0:sticky"],
            expect: Expect::Error("HPLERROR kind=corrupt_payload root=0"),
            require: &[],
            deadline: DEADLINE,
        },
        Scenario {
            name: "death-at-send",
            dat: 0,
            args: &["--fault", "death@1:send:4"],
            expect: Expect::Error("HPLERROR kind=rank_failed rank=1"),
            require: &[],
            deadline: DEADLINE,
        },
        Scenario {
            name: "death-in-fact",
            dat: 1,
            args: &["--fault", "death@2:recv:6"],
            expect: Expect::Error("HPLERROR kind=rank_failed rank=2 phase=fact"),
            require: &[],
            deadline: DEADLINE,
        },
        Scenario {
            name: "stall-recovered",
            dat: 0,
            args: &["--fault", "stall:80@1:recv:1"],
            expect: Expect::Clean,
            require: &[],
            deadline: DEADLINE,
        },
        Scenario {
            name: "stall-timeout",
            dat: 0,
            args: &[
                "--fault",
                "stall:2500@1:recv:3:sticky",
                "--comm-timeout",
                "1",
            ],
            expect: Expect::Error(
                "HPLERROR kind=comm_timeout src=1 dst=0 tag=281474976710665 ctx=1",
            ),
            require: &[],
            deadline: DEADLINE,
        },
        Scenario {
            name: "slow-worker",
            dat: 0,
            args: &["--fault", "slowworker:20@0:region:0", "--threads", "2"],
            expect: Expect::Clean,
            require: &[],
            deadline: DEADLINE,
        },
        Scenario {
            name: "seeded-random-plan",
            dat: 0,
            args: &["--fault-seed", "12345"],
            expect: Expect::AnyOutcome,
            require: &[],
            deadline: DEADLINE,
        },
    ]
}

/// Entry point; returns the process exit code.
pub fn run_faults(root: &Path, args: &[String]) -> i32 {
    let self_test = args.iter().any(|a| a == "--self-test");
    let recovery = args.iter().any(|a| a == "--recovery");
    let kill = args.iter().any(|a| a == "--kill");
    if let Err(e) = build(root) {
        eprintln!("xtask faults: {e}");
        return 1;
    }
    let work = root.join("target/xtask-faults");
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("xtask faults: cannot create {}: {e}", work.display());
        return 1;
    }
    for (name, text) in DATS {
        if let Err(e) = std::fs::write(work.join(name), text) {
            eprintln!("xtask faults: cannot write {name}: {e}");
            return 1;
        }
    }

    if self_test {
        return run_self_test(root, &work);
    }
    if kill {
        return run_kill_soak(root, &work);
    }

    let mut failures = Vec::new();
    let scenarios = if recovery {
        recovery_matrix()
    } else {
        matrix()
    };
    for sc in &scenarios {
        match run_scenario(root, &work, sc) {
            Ok(outcome) => println!("xtask faults: [{}] OK — {outcome}", sc.name),
            Err(e) => {
                println!("xtask faults: [{}] FAIL — {e}", sc.name);
                failures.push(sc.name);
            }
        }
    }
    if failures.is_empty() {
        println!(
            "xtask faults: PASS ({} scenarios, each run twice, zero wedged)",
            scenarios.len()
        );
        0
    } else {
        println!(
            "xtask faults: {} scenario(s) failed: {}",
            failures.len(),
            failures.join(", ")
        );
        1
    }
}

/// Self-test: the rank-death scenario judged against a deliberately wrong
/// expectation (`HPLOK`) must make the gate trip.
fn run_self_test(root: &Path, work: &Path) -> i32 {
    println!("xtask faults: self-test (rank death judged as clean; the gate must trip)");
    let wrong = Scenario {
        name: "self-test-death-as-clean",
        dat: 0,
        args: &["--fault", "death@1:send:4"],
        expect: Expect::Clean,
        require: &[],
        deadline: DEADLINE,
    };
    match run_scenario(root, work, &wrong) {
        Ok(outcome) => {
            eprintln!("xtask faults: SELF-TEST FAILED — wrong expectation passed ({outcome})");
            1
        }
        Err(e) => {
            println!("xtask faults: self-test OK — gate tripped as expected: {e}");
            0
        }
    }
}

/// The `--kill` chaos soak. Two phases on the pinned 2x2 grid:
///
/// 1. **Parity** — clean `rhpl launch --ranks 4` over tcp and over the
///    in-process oracle must both end `HPLOK` with bitwise-identical
///    `seq_hash` (the multi-process determinism contract).
/// 2. **Chaos** — a tcp launch under `--ckpt-every` with a sticky 100 ms
///    per-send delay on rank 3 (stretching factorization so the kill lands
///    mid-run); once the first complete checkpoint generation is on disk,
///    rank 1's OS process is killed with `SIGKILL`. The supervisor must
///    print `DOWN rank=1 reason=signal`, a `RECOVERY` line, respawn the
///    gang from the checkpoint, and finish `HPLOK` with exit 0.
fn run_kill_soak(root: &Path, work: &Path) -> i32 {
    let (dat_name, _) = DATS[1]; // 2x2 grid -> 4 ranks
    println!("xtask faults: [kill-parity] launch over tcp vs inproc oracle");
    let mut hashes = Vec::new();
    for transport in ["inproc", "tcp"] {
        let args: Vec<String> = ["launch", dat_name, "--ranks", "4", "--transport", transport]
            .iter()
            .map(|s| s.to_string())
            .collect();
        match run_launch_to_exit(root, work, &args, RECOVERY_DEADLINE) {
            Ok(out) => {
                if out.code != 0 {
                    println!(
                        "xtask faults: [kill-parity] FAIL — {transport} launch exit {}:\n{}",
                        out.code, out.stdout
                    );
                    return 1;
                }
                match seq_hash_of(&out.stdout) {
                    Some(h) => hashes.push((transport, h)),
                    None => {
                        println!(
                            "xtask faults: [kill-parity] FAIL — no seq_hash in {transport} \
                             stdout:\n{}",
                            out.stdout
                        );
                        return 1;
                    }
                }
            }
            Err(e) => {
                println!("xtask faults: [kill-parity] FAIL — {transport}: {e}");
                return 1;
            }
        }
    }
    if hashes[0].1 != hashes[1].1 {
        println!(
            "xtask faults: [kill-parity] FAIL — seq_hash diverged: inproc={} tcp={}",
            hashes[0].1, hashes[1].1
        );
        return 1;
    }
    println!(
        "xtask faults: [kill-parity] OK — seq_hash {} on both transports",
        hashes[0].1
    );

    println!("xtask faults: [kill-9] SIGKILL rank 1 mid-factorization under tcp");
    match run_kill_nine(root, work, dat_name) {
        Ok(outcome) => {
            println!("xtask faults: [kill-9] OK — {outcome}");
            println!("xtask faults: PASS (transport parity + kill -9 recovery)");
            0
        }
        Err(e) => {
            println!("xtask faults: [kill-9] FAIL — {e}");
            1
        }
    }
}

/// The chaos phase: launch, watch stdout live for the victim's pid, wait
/// for the first complete checkpoint generation, `kill -9` the victim,
/// then require DOWN + RECOVERY + HPLOK and exit 0.
fn run_kill_nine(root: &Path, work: &Path, dat_name: &str) -> Result<String, String> {
    let ckpt_dir = work.join("kill-ckpt");
    // The supervisor wipes the store itself (disk_fresh); stale markers
    // from a previous soak must not satisfy the "checkpoint exists" wait.
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let mut cmd = Command::new(root.join("target/release/rhpl"));
    cmd.args([
        "launch",
        dat_name,
        "--ranks",
        "4",
        "--transport",
        "tcp",
        "--ckpt-every",
        "2",
        "--ckpt-dir",
    ])
    .arg(&ckpt_dir)
    .args(["--fault", "delay:100000@3:send:0:sticky"])
    .current_dir(work)
    .stdout(Stdio::piped())
    .stderr(Stdio::null());
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot spawn rhpl launch: {e}"))?;

    // Drain stdout on a thread so the supervisor never blocks on a full
    // pipe; the main loop polls the accumulated text for protocol lines.
    let buf = Arc::new(Mutex::new(String::new()));
    let reader = {
        let buf = Arc::clone(&buf);
        let pipe = child.stdout.take().expect("stdout was piped");
        std::thread::spawn(move || {
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                let mut b = buf.lock().expect("stdout buffer");
                b.push_str(&line);
                b.push('\n');
            }
        })
    };

    let start = Instant::now();
    let mut killed = false;
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| format!("wait failed: {e}"))? {
            break status;
        }
        if start.elapsed() > KILL_DEADLINE {
            let _ = child.kill();
            let _ = child.wait();
            let _ = reader.join();
            return Err(format!(
                "WEDGED: no exit within {}s (killed={killed}):\n{}",
                KILL_DEADLINE.as_secs(),
                buf.lock().expect("stdout buffer")
            ));
        }
        if !killed {
            let pid = {
                let b = buf.lock().expect("stdout buffer");
                victim_pid(&b, 1)
            };
            if let Some(pid) = pid {
                if checkpoint_on_disk(&ckpt_dir) {
                    let status = Command::new("kill")
                        .args(["-9", &pid.to_string()])
                        .status()
                        .map_err(|e| format!("cannot spawn kill: {e}"))?;
                    if !status.success() {
                        return Err(format!("kill -9 {pid} failed: {status}"));
                    }
                    killed = true;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    let _ = reader.join();
    let stdout = buf.lock().expect("stdout buffer").clone();
    if !killed {
        return Err(format!(
            "run finished before the kill landed — stretch the delay fault:\n{stdout}"
        ));
    }
    for needle in ["DOWN rank=1 reason=signal", "RECOVERY attempt=", "HPLOK"] {
        if !stdout.contains(needle) {
            return Err(format!("`{needle}` missing from stdout:\n{stdout}"));
        }
    }
    if status.code() != Some(0) {
        return Err(format!(
            "expected exit 0 after recovery, got {:?}:\n{stdout}",
            status.code()
        ));
    }
    let outcome = stdout
        .lines()
        .find(|l| l.starts_with("HPLOK"))
        .expect("checked above")
        .to_string();
    Ok(format!(
        "{outcome} (victim respawned, resumed from checkpoint)"
    ))
}

/// Runs `rhpl <args...>` to completion against a deadline, capturing stdout.
fn run_launch_to_exit(
    root: &Path,
    work: &Path,
    args: &[String],
    deadline: Duration,
) -> Result<RunOutput, String> {
    let mut child = Command::new(root.join("target/release/rhpl"))
        .args(args)
        .current_dir(work)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot spawn rhpl: {e}"))?;
    let start = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => {
                if start.elapsed() > deadline {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("WEDGED: no exit within {}s", deadline.as_secs()));
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => return Err(format!("wait failed: {e}")),
        }
    };
    let mut stdout = String::new();
    if let Some(mut pipe) = child.stdout.take() {
        pipe.read_to_string(&mut stdout)
            .map_err(|e| format!("cannot read stdout: {e}"))?;
    }
    Ok(RunOutput {
        stdout,
        code: status.code().unwrap_or(-1),
    })
}

/// Extracts `seq_hash=0x...` from the `HPLOK` line.
fn seq_hash_of(stdout: &str) -> Option<String> {
    stdout
        .lines()
        .find(|l| l.starts_with("HPLOK"))?
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("seq_hash="))
        .map(str::to_string)
}

/// Parses the victim's pid from its `RANKPID rank={rank} pid=...` line.
fn victim_pid(stdout: &str, rank: usize) -> Option<u32> {
    let prefix = format!("RANKPID rank={rank} pid=");
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .and_then(|pid| pid.trim().parse().ok())
}

/// True once any complete checkpoint generation marker exists — the signal
/// that a kill now tests *restore* rather than restart-from-scratch.
fn checkpoint_on_disk(dir: &Path) -> bool {
    std::fs::read_dir(dir).is_ok_and(|entries| {
        entries
            .filter_map(Result::ok)
            .any(|e| e.file_name().to_string_lossy().ends_with(".ok"))
    })
}

fn build(root: &Path) -> Result<(), String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "-q", "-p", "rhpl-cli"])
        .current_dir(root)
        .status()
        .map_err(|e| format!("cannot spawn cargo: {e}"))?;
    if !status.success() {
        return Err("release build failed".into());
    }
    Ok(())
}

/// Runs one scenario twice; checks deadline, exit code, expected outcome
/// line, and byte-identical stdout. Returns the outcome line on success.
fn run_scenario(root: &Path, work: &Path, sc: &Scenario) -> Result<String, String> {
    let first = run_rhpl(root, work, sc)?;
    let second = run_rhpl(root, work, sc)?;
    if first.stdout != second.stdout {
        return Err(format!(
            "nondeterministic stdout across identical runs:\n--- first\n{}--- second\n{}",
            first.stdout, second.stdout
        ));
    }
    let outcome = first
        .stdout
        .lines()
        .find(|l| l.starts_with("HPLOK") || l.starts_with("HPLERROR") || l.starts_with("HPLBAD"))
        .ok_or_else(|| format!("no outcome line in stdout:\n{}", first.stdout))?;
    match &sc.expect {
        Expect::Clean => {
            if !outcome.starts_with("HPLOK") {
                return Err(format!("expected HPLOK, got `{outcome}`"));
            }
            if first.code != 0 {
                return Err(format!("expected exit 0, got {}", first.code));
            }
        }
        Expect::Error(prefix) => {
            if !outcome.starts_with(prefix) {
                return Err(format!("expected `{prefix}...`, got `{outcome}`"));
            }
            if first.code != 3 {
                return Err(format!("expected exit 3, got {}", first.code));
            }
        }
        Expect::AnyOutcome => {
            if first.code != 0 && first.code != 3 {
                return Err(format!("expected exit 0 or 3, got {}", first.code));
            }
        }
    }
    for needle in sc.require {
        if !first.stdout.contains(needle) {
            return Err(format!(
                "required line `{needle}` missing from stdout:\n{}",
                first.stdout
            ));
        }
    }
    Ok(outcome.to_string())
}

struct RunOutput {
    stdout: String,
    code: i32,
}

/// Spawns one `rhpl` soak run and polls it against [`DEADLINE`]; an
/// overrun kills the process and reports a wedge. The protocol output is
/// small (well under the pipe buffer), so draining stdout after exit is
/// safe.
fn run_rhpl(root: &Path, work: &Path, sc: &Scenario) -> Result<RunOutput, String> {
    let (dat_name, _) = DATS[sc.dat];
    let mut child = Command::new(root.join("target/release/rhpl"))
        .arg(dat_name)
        .args(sc.args)
        .current_dir(work)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot spawn rhpl: {e}"))?;
    let start = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => {
                if start.elapsed() > sc.deadline {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("WEDGED: no exit within {}s", sc.deadline.as_secs()));
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => return Err(format!("wait failed: {e}")),
        }
    };
    let mut stdout = String::new();
    if let Some(mut pipe) = child.stdout.take() {
        pipe.read_to_string(&mut stdout)
            .map_err(|e| format!("cannot read stdout: {e}"))?;
    }
    Ok(RunOutput {
        stdout,
        code: status.code().unwrap_or(-1),
    })
}

/// 1x2 grid, N=48: all row traffic is the panel broadcast path.
const DAT_1X2: &str = "\
HPLinpack benchmark input file (xtask faults pinned 1x2 configuration)
rhpl fault soak
HPL.out      output file name (if any)
6            device out (6=stdout,7=stderr,file)
1            # of problems sizes (N)
48           Ns
1            # of NBs
8            NBs
0            PMAP process mapping (0=Row-,1=Column-major)
1            # of process grids (P x Q)
1            Ps
2            Qs
16.0         threshold
1            # of panel fact
2            PFACTs (0=left, 1=Crout, 2=Right)
1            # of recursive stopping criterium
4            NBMINs (>= 1)
1            # of panels in recursion
2            NDIVs
1            # of recursive panel fact.
2            RFACTs (0=left, 1=Crout, 2=Right)
1            # of broadcast
0            BCASTs (0=1rg,1=1rM,2=2rg,3=2rM,4=Lng,5=LnM)
1            # of lookahead depth
1            DEPTHs (>=0)
2            SWAP (0=bin-exch,1=long,2=mix)
64           swapping threshold
0            L1 in (0=transposed,1=no-transposed) form
0            U  in (0=transposed,1=no-transposed) form
1            Equilibration (0=no,1=yes)
8            memory alignment in double (> 0)
";

/// 2x2 grid, N=64: real column comms, so recv faults land inside FACT.
const DAT_2X2: &str = "\
HPLinpack benchmark input file (xtask faults pinned 2x2 configuration)
rhpl fault soak
HPL.out      output file name (if any)
6            device out (6=stdout,7=stderr,file)
1            # of problems sizes (N)
64           Ns
1            # of NBs
8            NBs
0            PMAP process mapping (0=Row-,1=Column-major)
1            # of process grids (P x Q)
2            Ps
2            Qs
16.0         threshold
1            # of panel fact
2            PFACTs (0=left, 1=Crout, 2=Right)
1            # of recursive stopping criterium
4            NBMINs (>= 1)
1            # of panels in recursion
2            NDIVs
1            # of recursive panel fact.
2            RFACTs (0=left, 1=Crout, 2=Right)
1            # of broadcast
0            BCASTs (0=1rg,1=1rM,2=2rg,3=2rM,4=Lng,5=LnM)
1            # of lookahead depth
1            DEPTHs (>=0)
2            SWAP (0=bin-exch,1=long,2=mix)
64           swapping threshold
0            L1 in (0=transposed,1=no-transposed) form
0            U  in (0=transposed,1=no-transposed) form
1            Equilibration (0=no,1=yes)
8            memory alignment in double (> 0)
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_every_fault_kind() {
        let scenarios = matrix();
        for kind in ["delay", "drop", "bitflip", "death", "stall", "slowworker"] {
            assert!(
                scenarios
                    .iter()
                    .any(|s| s.args.iter().any(|a| a.starts_with(kind))),
                "no scenario injects `{kind}`"
            );
        }
        // Both failure and recovery paths are represented.
        assert!(scenarios
            .iter()
            .any(|s| matches!(s.expect, Expect::Error(_))));
        assert!(scenarios.iter().any(|s| matches!(s.expect, Expect::Clean)));
    }

    #[test]
    fn recovery_matrix_kills_and_restores_on_both_grids() {
        let scenarios = recovery_matrix();
        let dats: std::collections::HashSet<usize> = scenarios.iter().map(|s| s.dat).collect();
        assert_eq!(dats.len(), 2, "recovery must cover both grid shapes");
        for sc in &scenarios {
            assert!(
                sc.args.contains(&"--ckpt-every"),
                "{} lacks the supervisor flag",
                sc.name
            );
            assert!(
                sc.args.iter().any(|a| a.starts_with("death")),
                "{} does not kill a rank",
                sc.name
            );
            assert!(
                matches!(sc.expect, Expect::Clean),
                "{} must survive the death",
                sc.name
            );
            assert!(
                sc.require.iter().any(|r| r.contains("RECOVERY")),
                "{} does not assert the RECOVERY line",
                sc.name
            );
            assert_eq!(sc.deadline, RECOVERY_DEADLINE);
        }
        // Both store backends are represented.
        assert!(scenarios.iter().any(|s| s.args.contains(&"--ckpt-dir")));
        assert!(scenarios.iter().any(|s| !s.args.contains(&"--ckpt-dir")));
    }

    #[test]
    fn kill_soak_parsers_read_the_launch_protocol() {
        let stdout = "\
LAUNCH ranks=4 transport=tcp n=64 nb=8 grid=2x2 seed=42 ckpt_every=2
RANKPID rank=0 pid=1200
RANKPID rank=1 pid=1201
RANKPID rank=2 pid=1202
RANKPID rank=3 pid=1203
DOWN rank=1 reason=signal
RECOVERY attempt=1 kind=rank_failed restored_gen=2
HPLOK residual=6.926125e-3 seq_hash=0xdccdb6ca947fd457
";
        assert_eq!(victim_pid(stdout, 1), Some(1201));
        assert_eq!(victim_pid(stdout, 3), Some(1203));
        assert_eq!(victim_pid(stdout, 7), None);
        assert_eq!(seq_hash_of(stdout).as_deref(), Some("0xdccdb6ca947fd457"));
        assert_eq!(seq_hash_of("HPLERROR kind=rank_failed attempts=3\n"), None);
    }

    #[test]
    fn pinned_dats_parse_shapewise() {
        for (name, text) in DATS {
            assert_eq!(text.lines().count(), 31, "{name} drifted");
        }
        assert!(DAT_1X2.contains("1            Ps"));
        assert!(DAT_2X2.contains("2            Ps"));
    }
}
