//! `rhpl launch` — one OS process per rank, with real failure domains.
//!
//! Where [`crate::runner`] runs ranks as threads of one process, launch mode
//! spawns each rank as its own OS process connected by a byte-moving
//! transport (`tcp` or `shm`; `inproc` runs the whole job in one child as
//! the determinism oracle). The supervisor wires the mesh through a TCP
//! control plane, watches heartbeats and process exits, and — with
//! checkpointing armed — survives a `kill -9`'d rank by restarting the gang
//! from the last complete checkpoint generation.
//!
//! ```text
//! rhpl launch --ranks 4 --transport tcp [HPL.dat] [--ckpt-every K] ...
//! ```
//!
//! Supervisor stdout protocol (machine-readable, one line each):
//!
//! ```text
//! LAUNCH ranks=4 transport=tcp n=64 nb=8 grid=2x2 seed=42 ckpt_every=2
//! RANKPID rank=0 pid=12001
//! ...
//! DOWN rank=1 reason=signal
//! RECOVERY attempt=1 kind=rank_failed restored_gen=4
//! HPLOK residual=3.241587e-2 seq_hash=0x9f3a...
//! ```
//!
//! Exit codes: 0 success, 1 wrong answer or usage error, 2 configuration
//! error, 3 structured failure (unrecovered rank death and the like).
//!
//! Control-plane line protocol (child <-> supervisor over one TCP stream):
//!
//! ```text
//! child -> sup   hello rank=R addr=IP:PORT     (addr "-" when no data listener)
//! sup -> child   addrs A0 A1 ... A{N-1}        (or "addrs -")
//! child -> sup   hb rank=R                     (every 250 ms)
//! sup -> child   down rank=K                   (peer declared dead: poison)
//! child -> sup   ok residual=... seq_hash=... passed=0|1   (rank 0)
//! child -> sup   done rank=R                   (other ranks)
//! child -> sup   err rank=R kind=...           (structured failure)
//! ```
//!
//! The `down` broadcast is what bounds failure detection for transports
//! without a kernel-level death signal: a killed TCP peer closes its
//! sockets instantly, but a killed shm peer just stops appending — there
//! the supervisor's heartbeat monitor (250 ms beat, 2.5 s staleness) plus
//! the broadcast poisons survivors well inside the 5 s budget.

use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hpl_ckpt::CkptStore;
use hpl_comm::transport::shm::ShmTransport;
use hpl_comm::transport::tcp::TcpBootstrap;
use hpl_comm::{Communicator, Fabric, FabricOpts, Grid, TransportSel, Universe};
use hpl_faults::{FaultPlan, Injector, RankDeath};
use hpl_trace::report::{seq_hash, seq_hash_streams, seq_words};
use rhpl_core::{run_hpl, verify, CkptOpts, HplConfig};

use crate::dat;
use crate::flags::{any, flag, text, Flags};
use crate::recover::MAX_ATTEMPTS;

/// Child heartbeat period.
const HB_PERIOD: Duration = Duration::from_millis(250);
/// Supervisor-side staleness bound: a silent-but-running child past this is
/// declared dead (10 missed beats).
const HB_STALE: Duration = Duration::from_millis(2500);
/// Supervisor poll cadence for process exits and heartbeat age.
const POLL: Duration = Duration::from_millis(25);
/// Rendezvous budget: every child must dial the control plane and say hello.
const RENDEZVOUS_DEADLINE: Duration = Duration::from_secs(60);
/// After a `down` broadcast, survivors get this long to unwind on their own
/// before the supervisor kills the stragglers.
const UNWIND_DEADLINE: Duration = Duration::from_secs(15);

/// The launch invocation, parsed: supervisor-only knobs plus the argument
/// list forwarded verbatim to every `_rank` child.
struct LaunchSpec {
    ranks: usize,
    sel: TransportSel,
    ckpt_every: usize,
    ckpt_dir: PathBuf,
    child_args: Vec<String>,
    cfg: HplConfig,
}

fn parse_launch(
    args: &[String],
    ranks: Option<usize>,
    transport: Option<String>,
    flags: &Flags,
) -> Result<LaunchSpec, String> {
    let ranks = ranks.ok_or("launch needs --ranks N")?;
    let sel = match transport {
        Some(t) => t
            .parse::<TransportSel>()
            .map_err(|()| format!("--transport must be inproc, shm or tcp (got {t})"))?,
        None => TransportSel::Tcp,
    };
    // Everything except the launch-only flags is the child's business.
    let mut child_args = Vec::new();
    let mut skip = false;
    for (i, a) in args.iter().enumerate() {
        if skip {
            skip = false;
            continue;
        }
        if a == "--ranks" || a == "--transport" || a == "--ckpt-dir" {
            skip = true;
            continue;
        }
        let _ = i;
        child_args.push(a.clone());
    }
    // Launch runs ONE configuration: the first combination of the sweep
    // (document in --help; sweeps belong to single-process mode).
    let path = args
        .iter()
        .enumerate()
        .find(|(i, a)| !a.starts_with("--") && (*i == 0 || !args[i - 1].starts_with("--")))
        .map(|(_, a)| a.clone())
        .unwrap_or_else(|| "HPL.dat".to_string());
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let spec = dat::parse(&text).map_err(|e| e.to_string())?;
    let (cfg, _depth) = flags
        .expand(&spec)
        .into_iter()
        .next()
        .ok_or("empty sweep")?;
    if cfg.ranks() != ranks {
        return Err(format!(
            "--ranks {ranks} does not match the {}x{} grid of the input file",
            cfg.p, cfg.q
        ));
    }
    let ckpt_dir = flags.ckpt_dir.as_ref().map_or_else(
        || std::env::temp_dir().join(format!("rhpl-launch-ckpt-{}", std::process::id())),
        PathBuf::from,
    );
    Ok(LaunchSpec {
        ranks,
        sel,
        ckpt_every: flags.ckpt_every,
        ckpt_dir,
        child_args,
        cfg,
    })
}

/// What one gang attempt ended as.
enum Attempt {
    /// Rank 0 reported a result and every child exited cleanly.
    Ok {
        residual: String,
        seq: String,
        passed: bool,
    },
    /// A rank went down (killed, crashed, or unwound from a peer's death).
    Down { kind: String },
    /// Infrastructure failure (rendezvous timeout, spawn error) — no retry.
    Fatal(String),
}

/// Runs `rhpl launch ...`: the supervisor entry point. `flags` are the
/// shared flags, already checked; the launch-only ones are checked here,
/// before any rank is spawned.
pub fn run_launch(args: &[String], flags: &Flags) -> ExitCode {
    let launch_flags = flag(args, "--ranks", "a whole number of ranks", any)
        .and_then(|ranks| Ok((ranks, text(args, "--transport")?)));
    let (ranks, transport) = match launch_flags {
        Ok(v) => v,
        Err(e) => {
            eprintln!("rhpl: configuration error: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = match parse_launch(args, ranks, transport, flags) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rhpl: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The recovery protocol needs checkpoints that survive process death:
    // the store lives on disk, wiped once up front so attempt 1 is clean.
    let store = if spec.ckpt_every > 0 {
        match CkptStore::disk_fresh(&spec.ckpt_dir, spec.ranks) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("rhpl: cannot open checkpoint dir: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    println!(
        "LAUNCH ranks={} transport={} n={} nb={} grid={}x{} seed={} ckpt_every={}",
        spec.ranks,
        spec.sel.name(),
        spec.cfg.n,
        spec.cfg.nb,
        spec.cfg.p,
        spec.cfg.q,
        spec.cfg.seed,
        spec.ckpt_every
    );
    flush_stdout();
    for attempt in 1..=MAX_ATTEMPTS {
        match run_attempt(&spec, attempt) {
            Attempt::Ok {
                residual,
                seq,
                passed,
            } => {
                if passed {
                    println!("HPLOK residual={residual} seq_hash={seq}");
                    flush_stdout();
                    return ExitCode::SUCCESS;
                }
                println!("HPLBAD residual={residual}");
                flush_stdout();
                return ExitCode::FAILURE;
            }
            Attempt::Down { kind } => {
                if spec.ckpt_every == 0 || attempt == MAX_ATTEMPTS {
                    println!("HPLERROR kind={kind} attempts={attempt}");
                    flush_stdout();
                    return ExitCode::from(3);
                }
                let gen = store
                    .as_ref()
                    .and_then(|s| s.latest_complete())
                    .map_or_else(|| "-".to_string(), |g| g.to_string());
                println!("RECOVERY attempt={attempt} kind={kind} restored_gen={gen}");
                flush_stdout();
            }
            Attempt::Fatal(msg) => {
                eprintln!("rhpl: launch failed: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    unreachable!("attempt loop always returns");
}

/// Everything the control-plane reader threads share with the poll loop.
struct CtrlState {
    last_hb: Vec<Mutex<Instant>>,
    /// First `ok` line's (residual, seq_hash, passed).
    ok: Mutex<Option<(String, String, bool)>>,
    /// First structured-error kind reported by any child.
    err_kind: Mutex<Option<String>>,
    /// Write halves for the `down` broadcast.
    writers: Vec<Mutex<Option<TcpStream>>>,
}

fn run_attempt(spec: &LaunchSpec, attempt: usize) -> Attempt {
    let listener = match TcpListener::bind("127.0.0.1:0") {
        Ok(l) => l,
        Err(e) => return Attempt::Fatal(format!("bind control plane: {e}")),
    };
    let ctrl_addr = match listener.local_addr() {
        Ok(a) => a,
        Err(e) => return Attempt::Fatal(format!("control plane addr: {e}")),
    };
    let nprocs = match spec.sel {
        TransportSel::Inproc => 1,
        _ => spec.ranks,
    };
    let shm_dir = matches!(spec.sel, TransportSel::Shm).then(|| {
        std::env::temp_dir().join(format!("rhpl-launch-shm-{}-a{attempt}", std::process::id()))
    });
    if let Some(dir) = &shm_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            return Attempt::Fatal(format!("create shm dir: {e}"));
        }
    }
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return Attempt::Fatal(format!("current_exe: {e}")),
    };
    let mut children: Vec<(usize, Child)> = Vec::with_capacity(nprocs);
    for rank in 0..nprocs {
        let mut cmd = Command::new(&exe);
        cmd.arg("_rank")
            .args(&spec.child_args)
            .env("RHPL_LAUNCH_RANK", rank.to_string())
            .env("RHPL_LAUNCH_RANKS", spec.ranks.to_string())
            .env("RHPL_LAUNCH_CTRL", ctrl_addr.to_string())
            .env("RHPL_TRANSPORT", spec.sel.name())
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        if let Some(dir) = &shm_dir {
            cmd.env("RHPL_LAUNCH_SHM_DIR", dir);
        }
        if spec.ckpt_every > 0 {
            cmd.env("RHPL_LAUNCH_CKPT_DIR", &spec.ckpt_dir);
        }
        if attempt > 1 {
            // Replacement ranks are healthy hardware: one-shot faults fired
            // on a previous attempt and must not re-fire; sticky ones keep
            // firing (and eventually exhaust the attempt budget).
            cmd.env("RHPL_LAUNCH_DISARM", "1");
        }
        match cmd.spawn() {
            Ok(child) => {
                println!("RANKPID rank={rank} pid={}", child.id());
                flush_stdout();
                children.push((rank, child));
            }
            Err(e) => {
                kill_all(&mut children);
                return Attempt::Fatal(format!("spawn rank {rank}: {e}"));
            }
        }
    }
    let state = Arc::new(CtrlState {
        last_hb: (0..nprocs).map(|_| Mutex::new(Instant::now())).collect(),
        ok: Mutex::new(None),
        err_kind: Mutex::new(None),
        writers: (0..nprocs).map(|_| Mutex::new(None)).collect(),
    });
    // Rendezvous: every child dials in and introduces itself, then gets the
    // full data-plane address list back.
    let mut addrs: Vec<String> = vec!["-".to_string(); nprocs];
    let mut readers = Vec::with_capacity(nprocs);
    listener
        .set_nonblocking(true)
        .expect("nonblocking ctrl listener");
    let deadline = Instant::now() + RENDEZVOUS_DEADLINE;
    let mut connected = 0usize;
    while connected < nprocs {
        if Instant::now() > deadline {
            kill_all(&mut children);
            return Attempt::Fatal("rendezvous timed out".into());
        }
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
                continue;
            }
            Err(e) => {
                kill_all(&mut children);
                return Attempt::Fatal(format!("ctrl accept: {e}"));
            }
        };
        stream.set_nodelay(true).ok();
        let mut reader = BufReader::new(match stream.try_clone() {
            Ok(s) => s,
            Err(e) => {
                kill_all(&mut children);
                return Attempt::Fatal(format!("ctrl clone: {e}"));
            }
        });
        let mut hello = String::new();
        if reader.read_line(&mut hello).is_err() || hello.is_empty() {
            kill_all(&mut children);
            return Attempt::Fatal("child hung up during hello".into());
        }
        let Some((rank, addr)) = parse_hello(&hello) else {
            kill_all(&mut children);
            return Attempt::Fatal(format!("bad hello: {}", hello.trim()));
        };
        if rank >= nprocs {
            kill_all(&mut children);
            return Attempt::Fatal(format!("hello from unknown rank {rank}"));
        }
        addrs[rank] = addr;
        *state.writers[rank].lock().unwrap() = Some(stream);
        readers.push((rank, reader));
        connected += 1;
    }
    let addr_line = format!("addrs {}\n", addrs.join(" "));
    for (rank, _) in &readers {
        let mut w = state.writers[*rank].lock().unwrap();
        if let Some(s) = w.as_mut() {
            if s.write_all(addr_line.as_bytes()).is_err() {
                *w = None;
            }
        }
    }
    // One reader thread per child keeps heartbeats and reports flowing into
    // the shared state while the main thread polls for exits.
    let mut reader_handles = Vec::with_capacity(nprocs);
    for (rank, reader) in readers {
        let state = Arc::clone(&state);
        reader_handles.push(std::thread::spawn(move || ctrl_read(rank, reader, &state)));
    }

    let outcome = watch_children(spec, &state, &mut children);

    for h in reader_handles {
        let _ = h.join();
    }
    if let Some(dir) = &shm_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    outcome
}

/// The supervisor's watch loop: polls child exits and heartbeat age until
/// the attempt resolves.
fn watch_children(
    spec: &LaunchSpec,
    state: &Arc<CtrlState>,
    children: &mut Vec<(usize, Child)>,
) -> Attempt {
    let mut exited: Vec<(usize, std::process::ExitStatus)> = Vec::new();
    loop {
        children.retain_mut(|(rank, child)| match child.try_wait() {
            Ok(Some(status)) => {
                exited.push((*rank, status));
                false
            }
            Ok(None) => true,
            Err(_) => true,
        });
        // Clean completion: everyone exited 0 and rank 0 reported a result.
        if children.is_empty() {
            let all_clean = exited.iter().all(|(_, s)| s.success());
            let ok = state.ok.lock().unwrap().clone();
            if all_clean {
                if let Some((residual, seq, passed)) = ok {
                    return Attempt::Ok {
                        residual,
                        seq,
                        passed,
                    };
                }
                return Attempt::Fatal("children exited without a result".into());
            }
            let kind = state
                .err_kind
                .lock()
                .unwrap()
                .clone()
                .unwrap_or_else(|| "rank_failed".to_string());
            return Attempt::Down { kind };
        }
        // A rank down? Signal exits (kill -9) identify the victim directly;
        // a nonzero exit is a rank that unwound from a structured failure.
        let victim = exited
            .iter()
            .find(|(_, s)| !s.success() && s.code().is_none())
            .or_else(|| exited.iter().find(|(_, s)| !s.success()))
            .map(|(r, s)| (*r, *s));
        let stale = children
            .iter()
            .position(|(rank, _)| state.last_hb[*rank].lock().unwrap().elapsed() > HB_STALE);
        if let Some((rank, status)) = victim {
            let reason = if status.code().is_none() {
                "signal"
            } else {
                "exit"
            };
            println!("DOWN rank={rank} reason={reason}");
            flush_stdout();
            return unwind_survivors(rank, state, children, &mut exited);
        }
        if let Some(idx) = stale {
            let (rank, child) = &mut children[idx];
            let rank = *rank;
            println!("DOWN rank={rank} reason=heartbeat");
            flush_stdout();
            let _ = child.kill();
            let _ = child.wait();
            children.remove(idx);
            return unwind_survivors(rank, state, children, &mut exited);
        }
        let _ = spec;
        std::thread::sleep(POLL);
    }
}

/// Broadcasts the dead rank to the survivors (poisoning transports that
/// have no kernel-level death signal), waits for them to unwind, and kills
/// stragglers past the deadline.
fn unwind_survivors(
    dead: usize,
    state: &Arc<CtrlState>,
    children: &mut Vec<(usize, Child)>,
    exited: &mut Vec<(usize, std::process::ExitStatus)>,
) -> Attempt {
    let line = format!("down rank={dead}\n");
    for (rank, _) in children.iter() {
        let mut w = state.writers[*rank].lock().unwrap();
        if let Some(s) = w.as_mut() {
            if s.write_all(line.as_bytes()).is_err() {
                *w = None;
            }
        }
    }
    let deadline = Instant::now() + UNWIND_DEADLINE;
    while !children.is_empty() && Instant::now() < deadline {
        children.retain_mut(|(rank, child)| match child.try_wait() {
            Ok(Some(status)) => {
                exited.push((*rank, status));
                false
            }
            _ => true,
        });
        std::thread::sleep(POLL);
    }
    kill_all(children);
    let kind = state
        .err_kind
        .lock()
        .unwrap()
        .clone()
        .unwrap_or_else(|| "rank_failed".to_string());
    Attempt::Down { kind }
}

fn kill_all(children: &mut Vec<(usize, Child)>) {
    for (_, child) in children.iter_mut() {
        let _ = child.kill();
        let _ = child.wait();
    }
    children.clear();
}

/// Parses `hello rank=R addr=A`.
fn parse_hello(line: &str) -> Option<(usize, String)> {
    let mut rank = None;
    let mut addr = None;
    for tok in line.split_whitespace() {
        if let Some(v) = tok.strip_prefix("rank=") {
            rank = v.parse().ok();
        } else if let Some(v) = tok.strip_prefix("addr=") {
            addr = Some(v.to_string());
        }
    }
    Some((rank?, addr?))
}

/// Drains one child's control lines into the shared state.
fn ctrl_read(rank: usize, reader: BufReader<TcpStream>, state: &CtrlState) {
    for line in reader.lines() {
        let Ok(line) = line else { break };
        let mut toks = line.split_whitespace();
        match toks.next() {
            Some("hb") => {
                *state.last_hb[rank].lock().unwrap() = Instant::now();
            }
            Some("ok") => {
                let mut residual = String::new();
                let mut seq = String::new();
                let mut passed = false;
                for t in toks {
                    if let Some(v) = t.strip_prefix("residual=") {
                        residual = v.to_string();
                    } else if let Some(v) = t.strip_prefix("seq_hash=") {
                        seq = v.to_string();
                    } else if let Some(v) = t.strip_prefix("passed=") {
                        passed = v == "1";
                    }
                }
                *state.ok.lock().unwrap() = Some((residual, seq, passed));
            }
            Some("err") => {
                let kind = toks
                    .find_map(|t| t.strip_prefix("kind="))
                    .unwrap_or("rank_failed")
                    .to_string();
                let mut slot = state.err_kind.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(kind);
                }
            }
            _ => {} // "done" and anything unknown: no state to record
        }
    }
}

fn flush_stdout() {
    // Piped stdout is block-buffered; the protocol lines must be visible to
    // the consumer (xtask soak) the moment they happen.
    let _ = std::io::stdout().flush();
}

// ---------------------------------------------------------------------------
// `_rank` child side
// ---------------------------------------------------------------------------

/// The environment contract between supervisor and child.
struct RankEnv {
    rank: usize,
    ranks: usize,
    ctrl: SocketAddr,
    sel: TransportSel,
    shm_dir: Option<PathBuf>,
    ckpt_dir: Option<PathBuf>,
    disarm: bool,
}

fn read_rank_env() -> Result<RankEnv, String> {
    let var = |k: &str| std::env::var(k).map_err(|_| format!("missing {k}"));
    let rank = var("RHPL_LAUNCH_RANK")?
        .parse()
        .map_err(|e| format!("bad RHPL_LAUNCH_RANK: {e}"))?;
    let ranks = var("RHPL_LAUNCH_RANKS")?
        .parse()
        .map_err(|e| format!("bad RHPL_LAUNCH_RANKS: {e}"))?;
    let ctrl = var("RHPL_LAUNCH_CTRL")?
        .parse()
        .map_err(|e| format!("bad RHPL_LAUNCH_CTRL: {e}"))?;
    let sel = hpl_comm::config::env_transport().map_err(|e| e.to_string())?;
    Ok(RankEnv {
        rank,
        ranks,
        ctrl,
        sel,
        shm_dir: std::env::var("RHPL_LAUNCH_SHM_DIR").ok().map(PathBuf::from),
        ckpt_dir: std::env::var("RHPL_LAUNCH_CKPT_DIR")
            .ok()
            .map(PathBuf::from),
        disarm: std::env::var("RHPL_LAUNCH_DISARM").is_ok(),
    })
}

/// Builds this process's fault injector from the forwarded `--fault` flags.
/// On restart attempts (`disarm`) only sticky specs survive — a one-shot
/// fault fired on dead hardware that has since been replaced.
fn build_injector(
    args: &[String],
    fault_seed: Option<u64>,
    ranks: usize,
    disarm: bool,
) -> Result<Option<Arc<Injector>>, String> {
    let mut specs: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--fault")
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect();
    let has_seed = fault_seed.is_some();
    if specs.is_empty() && !has_seed {
        return Ok(None);
    }
    let seed = fault_seed.unwrap_or(1);
    if disarm {
        // The spec grammar puts `sticky` only in the trailing flag position.
        specs.retain(|s| s.ends_with(":sticky"));
    }
    let plan = if specs.is_empty() {
        if has_seed && !disarm {
            FaultPlan::from_seed(seed, ranks)
        } else {
            FaultPlan::new(seed)
        }
    } else {
        FaultPlan::parse(seed, &specs).map_err(|e| format!("bad --fault spec: {e}"))?
    };
    Ok(Some(Injector::new(plan, ranks)))
}

/// Runs `rhpl _rank ...`: one rank of a launched job, under the shared
/// `flags` its supervisor already checked.
pub fn run_rank(args: &[String], flags: &Flags) -> ExitCode {
    // Like fault-soak mode: outcomes travel on the control plane, not as
    // panic backtraces.
    std::panic::set_hook(Box::new(|_| {}));
    let env = match read_rank_env() {
        Ok(e) => e,
        Err(msg) => {
            eprintln!("rhpl (_rank): {msg}");
            return ExitCode::FAILURE;
        }
    };
    let spec = match parse_launch_child(args, flags, &env) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("rhpl (_rank): {msg}");
            return ExitCode::FAILURE;
        }
    };
    match rank_main(&env, spec) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("rhpl (_rank {}): {msg}", env.rank);
            ExitCode::FAILURE
        }
    }
}

struct ChildSpec {
    cfg: HplConfig,
    threshold: f64,
    injector: Option<Arc<Injector>>,
    /// Run the HPL-MxP benchmark (f32 factorization + f64 refinement)
    /// instead of the classic f64 pipeline.
    mxp: bool,
}

fn parse_launch_child(args: &[String], flags: &Flags, env: &RankEnv) -> Result<ChildSpec, String> {
    let path = args
        .iter()
        .enumerate()
        .find(|(i, a)| !a.starts_with("--") && (*i == 0 || !args[i - 1].starts_with("--")))
        .map(|(_, a)| a.clone())
        .unwrap_or_else(|| "HPL.dat".to_string());
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let spec = dat::parse(&text).map_err(|e| e.to_string())?;
    let (mut cfg, _depth) = flags
        .expand(&spec)
        .into_iter()
        .next()
        .ok_or("empty sweep")?;
    if cfg.ranks() != env.ranks {
        return Err(format!(
            "grid {}x{} does not match RHPL_LAUNCH_RANKS={}",
            cfg.p, cfg.q, env.ranks
        ));
    }
    cfg.trace = hpl_trace::TraceOpts::on();
    let ckpt_every = flags.ckpt_every;
    if ckpt_every > 0 {
        let dir = env
            .ckpt_dir
            .as_deref()
            .ok_or("--ckpt-every without RHPL_LAUNCH_CKPT_DIR")?;
        let store = CkptStore::disk(dir, env.ranks).map_err(|e| format!("ckpt store: {e}"))?;
        cfg.ckpt = CkptOpts {
            every: ckpt_every,
            store: Some(store),
            resume: true,
        };
    }
    let injector = build_injector(args, flags.fault_seed, env.ranks, env.disarm)?;
    let mxp = args.iter().any(|a| a == "--mxp");
    if mxp && injector.is_some() {
        return Err(
            "--mxp does not combine with --fault (fault soak runs the f64 pipeline)".into(),
        );
    }
    Ok(ChildSpec {
        cfg,
        threshold: spec.threshold,
        injector,
        mxp,
    })
}

/// What one rank's solve produced — the classic f64 pipeline's result or
/// the mixed-precision benchmark's output.
enum RankOutcome {
    /// Classic HPL: solution + trace; verified in a post-run collective.
    Hpl(rhpl_core::HplResult),
    /// HPL-MxP: residuals already computed inside the solve.
    Mxp(hpl_mxp::MxpOutput),
}

/// A write handle for control-plane lines, shared between the rank body and
/// the heartbeat thread.
#[derive(Clone)]
struct CtrlLine(Arc<Mutex<TcpStream>>);

impl CtrlLine {
    fn send(&self, line: &str) {
        let mut s = self.0.lock().unwrap();
        let _ = s.write_all(line.as_bytes());
        let _ = s.write_all(b"\n");
    }
}

fn rank_main(env: &RankEnv, spec: ChildSpec) -> Result<ExitCode, String> {
    let stream = TcpStream::connect_timeout(&env.ctrl, RENDEZVOUS_DEADLINE)
        .map_err(|e| format!("dial control plane: {e}"))?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let ctrl = CtrlLine(Arc::new(Mutex::new(stream)));

    // Data-plane listener first, so the hello can carry its address.
    let boot = match env.sel {
        TransportSel::Tcp => Some(TcpBootstrap::bind().map_err(|e| format!("bind data: {e}"))?),
        _ => None,
    };
    let my_addr = boot
        .as_ref()
        .map_or_else(|| "-".to_string(), |b| b.addr().to_string());
    ctrl.send(&format!("hello rank={} addr={my_addr}", env.rank));
    let mut addr_line = String::new();
    reader
        .read_line(&mut addr_line)
        .map_err(|e| format!("read addrs: {e}"))?;
    let addrs: Vec<String> = addr_line
        .split_whitespace()
        .skip(1) // "addrs"
        .map(str::to_string)
        .collect();

    // Heartbeats flow for the life of the process.
    let stopping = Arc::new(AtomicBool::new(false));
    let hb = {
        let ctrl = ctrl.clone();
        let stopping = Arc::clone(&stopping);
        let rank = env.rank;
        std::thread::spawn(move || {
            while !stopping.load(Ordering::Relaxed) {
                ctrl.send(&format!("hb rank={rank}"));
                std::thread::sleep(HB_PERIOD);
            }
        })
    };

    hpl_faults::set_world_rank(env.rank);
    let code = if matches!(env.sel, TransportSel::Inproc) {
        rank_body_inproc(env, &spec, &ctrl)
    } else {
        rank_body_transport(env, &spec, &ctrl, boot, &addrs, reader)
    };
    stopping.store(true, Ordering::Relaxed);
    let _ = hb.join();
    code
}

/// `--transport inproc`: the whole job runs in this one child as threads —
/// the oracle the multi-process transports are measured against, behind the
/// same supervisor protocol (so `kill -9` + restart works here too).
fn rank_body_inproc(env: &RankEnv, spec: &ChildSpec, ctrl: &CtrlLine) -> Result<ExitCode, String> {
    if spec.mxp {
        return rank_body_inproc_mxp(env, spec, ctrl);
    }
    let run = match &spec.injector {
        Some(inj) => {
            let run = Universe::run_with_injector(env.ranks, Arc::clone(inj), |comm| {
                run_hpl(comm, &spec.cfg)
            });
            if let Some((rank, _phase)) = &run.poison {
                ctrl.send(&format!("err rank={rank} kind=rank_failed"));
                return Ok(ExitCode::from(3));
            }
            run.results
        }
        None => {
            let opts = FabricOpts::default();
            let results = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Universe::run_with_transport(env.ranks, TransportSel::Inproc, opts, |comm| {
                    run_hpl(comm, &spec.cfg)
                })
            }));
            match results {
                Ok(r) => r.into_iter().map(Some).collect(),
                Err(_) => {
                    ctrl.send(&format!("err rank={} kind=rank_failed", env.rank));
                    return Ok(ExitCode::from(3));
                }
            }
        }
    };
    let mut results = Vec::with_capacity(env.ranks);
    for (rank, r) in run.into_iter().enumerate() {
        match r {
            Some(Ok(res)) => results.push(res),
            Some(Err(e)) => {
                ctrl.send(&format!("err rank={rank} kind={}", e.kind()));
                return Ok(ExitCode::from(3));
            }
            None => {
                ctrl.send(&format!("err rank={rank} kind=rank_failed"));
                return Ok(ExitCode::from(3));
            }
        }
    }
    let x = results[0].x.clone();
    let cfg = &spec.cfg;
    let res = Universe::run_with_transport(
        env.ranks,
        TransportSel::Inproc,
        FabricOpts::default(),
        |comm| {
            let grid = Grid::new(comm, cfg.p, cfg.q, cfg.order);
            verify(&grid, cfg.n, cfg.nb, cfg.seed, &x)
        },
    );
    let res = match res.into_iter().next().expect("rank 0 result") {
        Ok(r) => r,
        Err(e) => {
            ctrl.send(&format!("err rank=0 kind={}", e.kind()));
            return Ok(ExitCode::from(3));
        }
    };
    let traces: Vec<hpl_trace::Trace> = results
        .iter_mut()
        .map(|r| r.trace.take().expect("launch runs trace-enabled"))
        .collect();
    let seq = seq_hash(&traces);
    let passed = res.scaled < spec.threshold;
    ctrl.send(&format!(
        "ok residual={:.6e} seq_hash={seq:#018x} passed={}",
        res.scaled,
        u8::from(passed)
    ));
    Ok(ExitCode::SUCCESS)
}

/// `--transport inproc --mxp`: the whole HPL-MxP job as threads of this
/// child. The residual gate is computed inside the solve (at `f64`
/// accuracy), so no separate verify pass runs.
fn rank_body_inproc_mxp(
    env: &RankEnv,
    spec: &ChildSpec,
    ctrl: &CtrlLine,
) -> Result<ExitCode, String> {
    let cfg = &spec.cfg;
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Universe::run_with_transport(
            env.ranks,
            TransportSel::Inproc,
            FabricOpts::default(),
            |comm| hpl_mxp::solve_mxp(comm, cfg),
        )
    }));
    let run = match outcome {
        Ok(r) => r,
        Err(_) => {
            ctrl.send(&format!("err rank={} kind=rank_failed", env.rank));
            return Ok(ExitCode::from(3));
        }
    };
    let mut results = Vec::with_capacity(env.ranks);
    for (rank, r) in run.into_iter().enumerate() {
        match r {
            Ok(res) => results.push(res),
            Err(e) => {
                ctrl.send(&format!("err rank={rank} kind={}", e.kind()));
                return Ok(ExitCode::from(3));
            }
        }
    }
    let traces: Vec<hpl_trace::Trace> = results
        .iter_mut()
        .map(|r| r.trace.take().expect("launch runs trace-enabled"))
        .collect();
    let seq = seq_hash(&traces);
    let scaled = results[0].residuals.scaled;
    let passed = scaled < spec.threshold;
    ctrl.send(&format!(
        "ok residual={scaled:.6e} seq_hash={seq:#018x} passed={}",
        u8::from(passed)
    ));
    Ok(ExitCode::SUCCESS)
}

/// `--transport tcp|shm`: this process is exactly one rank, wired to its
/// peers by real frames.
fn rank_body_transport(
    env: &RankEnv,
    spec: &ChildSpec,
    ctrl: &CtrlLine,
    boot: Option<TcpBootstrap>,
    addrs: &[String],
    ctrl_reader: BufReader<TcpStream>,
) -> Result<ExitCode, String> {
    let opts = FabricOpts {
        faults: spec.injector.clone(),
        ..FabricOpts::default()
    };
    let fabric = Fabric::remote(env.ranks, env.rank, opts);
    let transport: Arc<dyn hpl_comm::transport::Transport> = match env.sel {
        TransportSel::Tcp => {
            let peers: Vec<SocketAddr> = addrs
                .iter()
                .map(|a| a.parse().map_err(|e| format!("bad peer addr {a}: {e}")))
                .collect::<Result<_, String>>()?;
            boot.expect("tcp bootstrap")
                .connect(env.rank, &peers, fabric.frame_sink())
                .map_err(|e| format!("wire tcp mesh: {e}"))?
        }
        TransportSel::Shm => {
            let dir = env
                .shm_dir
                .as_deref()
                .ok_or("shm transport without RHPL_LAUNCH_SHM_DIR")?;
            ShmTransport::start(dir, env.rank, env.ranks, fabric.frame_sink())
                .map_err(|e| format!("start shm transport: {e}"))?
        }
        TransportSel::Inproc => unreachable!("inproc handled separately"),
    };
    fabric.attach_transport(transport);

    // The supervisor's `down rank=K` is the death signal for transports
    // whose links don't die with the process (shm); for tcp it is a backup
    // to the instant EOF. Poison-observed, not poison: the rank announced
    // here is already dead, nobody needs Death frames echoed back.
    {
        let fabric = Arc::clone(&fabric);
        std::thread::spawn(move || {
            for line in ctrl_reader.lines() {
                let Ok(line) = line else { break };
                if let Some(rest) = line.strip_prefix("down rank=") {
                    if let Ok(dead) = rest.trim().parse::<usize>() {
                        fabric.poison_observed(dead, "killed");
                    }
                }
            }
        });
    }

    let comm = Communicator::endpoint(Arc::clone(&fabric));
    let cfg = spec.cfg.clone();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if spec.mxp {
            hpl_mxp::solve_mxp(comm, &cfg).map(RankOutcome::Mxp)
        } else {
            run_hpl(comm, &cfg).map(RankOutcome::Hpl)
        }
    }));
    let result = match outcome {
        Ok(Ok(r)) => r,
        Ok(Err(e)) => {
            ctrl.send(&format!("err rank={} kind={}", env.rank, e.kind()));
            fabric.shutdown_transport();
            return Ok(ExitCode::from(3));
        }
        Err(payload) => {
            let phase = payload
                .downcast_ref::<RankDeath>()
                .map_or("panic", |d| d.phase.as_str());
            fabric.poison(env.rank, phase);
            ctrl.send(&format!("err rank={} kind=rank_failed", env.rank));
            fabric.shutdown_transport();
            return Ok(ExitCode::from(3));
        }
    };

    // Post-run collectives on fresh endpoints over the same fabric: verify
    // (data plane, trace recorder already uninstalled; MxP verified inside
    // the solve at f64 accuracy, so only the classic path re-verifies) and
    // the seq_words gather (control plane, invisible to stats either way).
    let run_post = || -> Result<(f64, Option<u64>), rhpl_core::HplError> {
        let (scaled, trace) = match &result {
            RankOutcome::Hpl(r) => {
                let comm = Communicator::endpoint(Arc::clone(&fabric));
                let grid = Grid::new(comm, cfg.p, cfg.q, cfg.order);
                let res = verify(&grid, cfg.n, cfg.nb, cfg.seed, &r.x)?;
                (res.scaled, r.trace.as_ref())
            }
            RankOutcome::Mxp(o) => (o.residuals.scaled, o.trace.as_ref()),
        };
        let words = seq_words(trace.expect("launch runs trace-enabled"));
        let comm = Communicator::endpoint(Arc::clone(&fabric));
        let seq = comm
            .ctrl_gather_words(words)?
            .map(|streams| seq_hash_streams(&streams));
        Ok((scaled, seq))
    };
    let code = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run_post)) {
        Ok(Ok((scaled, seq))) => {
            if env.rank == 0 {
                let seq = seq.expect("rank 0 assembles the gathered hash");
                ctrl.send(&format!(
                    "ok residual={scaled:.6e} seq_hash={seq:#018x} passed={}",
                    u8::from(scaled < spec.threshold)
                ));
            } else {
                ctrl.send(&format!("done rank={}", env.rank));
            }
            ExitCode::SUCCESS
        }
        Ok(Err(e)) => {
            ctrl.send(&format!("err rank={} kind={}", env.rank, e.kind()));
            ExitCode::from(3)
        }
        Err(_) => {
            fabric.poison(env.rank, "verify");
            ctrl.send(&format!("err rank={} kind=rank_failed", env.rank));
            ExitCode::from(3)
        }
    };
    fabric.shutdown_transport();
    Ok(code)
}
