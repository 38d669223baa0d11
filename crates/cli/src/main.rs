//! `rhpl` — HPL.dat-driven benchmark runner.
//!
//! ```text
//! rhpl [HPL.dat]              run the sweep described by the input file
//! rhpl launch HPL.dat --ranks N --transport tcp|shm|inproc
//!                             one OS process per rank, supervised: rendezvous,
//!                             heartbeats, rank-death detection; with
//!                             --ckpt-every K also respawn + resume from the
//!                             latest checkpoint (see rhpl_cli::launch)
//! rhpl --sample               print a ready-to-edit sample HPL.dat
//! rhpl ... --split-frac 0.5   split-update fraction (0 = look-ahead only)
//! rhpl ... --threads 4        FACT threads per rank (SIII.A)
//! rhpl ... --mxp              run the HPL-MxP benchmark: f32 factorization
//!                             through the full pipeline, f64 refinement
//!                             sweeps to double accuracy (classic HPL table
//!                             plus the HPL-MxP summary block)
//! rhpl ... --element f32      pipeline element type: f64|f32 (default
//!                             f64). An f32 run is gated at f32 accuracy;
//!                             --mxp is how f32 factors earn the f64 gate
//! rhpl ... --seed 42          matrix generator seed
//! rhpl ... --trace-json BENCH_hpl.json   emit the per-iteration phase trace
//! rhpl ... --fault SPEC       arm a fault (repeatable); SPEC grammar is
//!                             kind[:param]@rank[:site][:nth][:sticky]
//! rhpl ... --fault-seed S     fault plan seed (with no --fault: a random
//!                             plan derived from the seed)
//! rhpl ... --ckpt-every K     checkpoint the factorization every K panel
//!                             iterations (0 = off); with faults armed this
//!                             enables the restart supervisor
//! rhpl ... --ckpt-dir PATH    keep checkpoints on disk under PATH instead
//!                             of in memory
//! rhpl ... --comm-timeout S   per-receive timeout in seconds (default 120)
//! ```
//!
//! With any fault flag present the classic table is replaced by the
//! machine-readable `HPLOK`/`HPLERROR` + `FAULTLOG` protocol (see
//! [`rhpl_cli::faults`]); exit code 3 signals a structured failure. Adding
//! `--ckpt-every K` to a faulted run routes through the recovery supervisor
//! ([`rhpl_cli::recover`]): injected rank deaths are survived by restoring
//! all ranks from the last complete checkpoint and resuming mid-stream.

use std::process::ExitCode;

use rhpl_cli::flags::Flags;
use rhpl_cli::{bench, dat, faults, launch, recover, report, runner};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Fabric knobs are read from the environment deep inside library code,
    // flag values deep inside the ranks; reject garbage in either here with
    // the typed message instead of a late panic or a silent default.
    let flags = match hpl_comm::config::validate_env().and_then(|()| Flags::parse(&args)) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("rhpl: configuration error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.iter().any(|a| a == "--sample") {
        print!("{}", dat::SAMPLE);
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: rhpl [HPL.dat] [--split-frac F] [--threads T] [--seed S] \
             [--mxp] [--element f64|f32] \
             [--trace-json PATH] [--fault SPEC]... \
             [--fault-seed S] [--ckpt-every K] [--ckpt-dir PATH] \
             [--comm-timeout SECS] [--sample]\n\
             \x20      rhpl launch [HPL.dat] --ranks N [--transport inproc|shm|tcp] \
             [--ckpt-every K] [--ckpt-dir PATH] [--fault SPEC]...\n\
             launch runs the first sweep combination with one OS process per \
             rank under a supervisor (rendezvous, heartbeats, respawn+resume \
             from checkpoints on rank death)"
        );
        return ExitCode::SUCCESS;
    }
    // The timeout freezes per fabric at construction, so apply the override
    // before any universe spins up.
    if let Some(secs) = flags.comm_timeout {
        hpl_comm::set_comm_timeout(std::time::Duration::from_secs(secs));
    }
    let mxp = args.iter().any(|a| a == "--mxp");
    // Multi-process modes: `launch` supervises one OS process per rank;
    // `_rank` is the (internal) child entry point it spawns. Both sit after
    // the global knob handling above so --comm-timeout applies to children
    // too.
    match args.first().map(String::as_str) {
        Some("launch") => return launch::run_launch(&args[1..], &flags),
        Some("_rank") => return launch::run_rank(&args[1..], &flags),
        _ => {}
    }
    let path = args
        .iter()
        .find(|a| !a.starts_with("--") && arg_is_positional(&args, a))
        .cloned()
        .unwrap_or_else(|| "HPL.dat".to_string());

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("rhpl: cannot read {path}: {e}");
            eprintln!("hint: `rhpl --sample > HPL.dat` writes a starting point");
            return ExitCode::FAILURE;
        }
    };
    let spec = match dat::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rhpl: {e}");
            return ExitCode::FAILURE;
        }
    };

    let combos = flags.expand(&spec);
    let fault_specs: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--fault")
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect();
    if !fault_specs.is_empty() || flags.fault_seed.is_some() {
        if mxp {
            eprintln!(
                "rhpl: --mxp does not combine with --fault (fault soak runs the f64 pipeline)"
            );
            return ExitCode::FAILURE;
        }
        return run_faulted(
            &combos,
            flags.fault_seed.unwrap_or(1),
            &fault_specs,
            spec.threshold,
            flags.ckpt_every,
            flags.ckpt_dir.as_deref(),
        );
    }
    let max_ranks = combos.iter().map(|(c, _)| c.ranks()).max().unwrap_or(1);
    print!("{}", report::banner(max_ranks));
    print!("{}", report::table_header());
    let mut failed = 0usize;
    let total = combos.len();
    let mut records = Vec::with_capacity(total);
    for (mut cfg, depth) in combos {
        if flags.trace_json.is_some() {
            cfg.trace = hpl_trace::TraceOpts::on();
        }
        if flags.ckpt_every > 0 {
            // Disk stores are re-opened (not wiped): a repeated invocation
            // after an interruption resumes from what the previous process
            // deposited. Each combination gets its own subdirectory.
            let store = match &flags.ckpt_dir {
                Some(dir) => {
                    let sub = std::path::Path::new(dir).join(format!(
                        "{}-n{}-nb{}-{}x{}",
                        runner::encode_tv(&cfg, depth),
                        cfg.n,
                        cfg.nb,
                        cfg.p,
                        cfg.q
                    ));
                    match hpl_ckpt::CkptStore::disk(&sub, cfg.ranks()) {
                        Ok(s) => s,
                        Err(e) => {
                            eprintln!("rhpl: cannot open checkpoint dir: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                None => hpl_ckpt::CkptStore::mem(cfg.ranks()),
            };
            cfg.ckpt = rhpl_core::CkptOpts {
                every: flags.ckpt_every,
                store: Some(store),
                resume: true,
            };
        }
        let run = if mxp {
            runner::run_one_mxp(&cfg, depth, spec.threshold)
        } else {
            runner::run_one(&cfg, depth, spec.threshold, flags.element)
        };
        let rec = match run {
            Ok(rec) => rec,
            Err(e) => {
                eprintln!("rhpl: run failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        print!("{}", report::format_record(&rec));
        if !rec.passed {
            failed += 1;
        }
        records.push(rec);
    }
    print!("{}", report::footer(total, failed));
    if let Some(path) = &flags.trace_json {
        if let Err(e) = bench::write_bench_json(&records, path) {
            eprintln!("rhpl: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("rhpl: wrote phase trace to {path}");
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Fault-soak mode: every combination runs under a freshly parsed copy of
/// the plan (per-rank fault counters must start at zero for each run) and
/// prints the `HPLOK`/`HPLERROR` + `FAULTLOG` protocol. Exit code 3 for a
/// structured failure, 1 for a wrong answer (`HPLBAD`) or a bad spec.
fn run_faulted(
    combos: &[(rhpl_core::HplConfig, usize)],
    fault_seed: u64,
    fault_specs: &[String],
    threshold: f64,
    ckpt_every: usize,
    ckpt_dir: Option<&str>,
) -> ExitCode {
    // Injected rank deaths unwind as panics; the default hook's backtraces
    // are nondeterministic noise next to the protocol lines. Outcomes are
    // reported exclusively via HPLOK/HPLERROR (a real crash surfaces as
    // kind=rank_failed phase=panic).
    std::panic::set_hook(Box::new(|_| {}));
    let mut structured = false;
    let mut bad = false;
    for (i, (cfg, _depth)) in combos.iter().enumerate() {
        let plan = if fault_specs.is_empty() {
            hpl_faults::FaultPlan::from_seed(fault_seed, cfg.ranks())
        } else {
            match hpl_faults::FaultPlan::parse(fault_seed, fault_specs) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("rhpl: bad --fault spec: {e}");
                    return ExitCode::FAILURE;
                }
            }
        };
        let out = if ckpt_every > 0 {
            let dir = ckpt_dir.map(|d| std::path::Path::new(d).join(format!("combo{i}")));
            recover::run_one_supervised(cfg, plan, threshold, ckpt_every, dir.as_deref())
        } else {
            faults::run_one_faulted(cfg, plan, threshold)
        };
        print!("{}", out.block);
        if !out.ok() {
            if out.structured_error() {
                structured = true;
            } else {
                bad = true;
            }
        }
    }
    if bad {
        ExitCode::FAILURE
    } else if structured {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}

/// A positional arg is one not consumed as a `--key value` pair.
fn arg_is_positional(args: &[String], a: &str) -> bool {
    match args.iter().position(|x| x == a) {
        Some(0) => true,
        Some(i) => !args[i - 1].starts_with("--"),
        None => false,
    }
}
