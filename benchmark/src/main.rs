//! `rhpl-benchmark` — the rhpl benchmark harness. See `benchmark/README.md`.
//!
//! ```text
//! rhpl-benchmark --workload W --seed N --seconds S --trace 0|1
//!     one workload, as the driver runs it: with --trace 0 the end-to-end
//!     metrics, with --trace 1 the per-layer metrics; the last line of
//!     stdout is the JSON result
//! rhpl-benchmark [--seed N] [--seconds S] [--sets K] [--quick]
//!     the whole benchmark: every workload end to end, its traced run and
//!     layer replay, and the per-layer chain; with --sets K, K times over
//!     and a check that the sets agree
//! ```

mod child;
mod e2e;
mod host;
mod layers;
mod metrics;
mod parse;
mod replay;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;

use e2e::{E2e, Rep, Session};
use host::Fingerprint;
use metrics::{Values, END_TO_END, PER_LAYER};
use replay::Replay;
use workload::{Workload, SCALING_BASE_1X1, WORKLOADS};

struct Args {
    workload: Option<String>,
    seed: u64,
    /// `--seconds`; each mode has its own default (see [`Budget`]).
    seconds: Option<f64>,
    trace: bool,
    sets: usize,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        sets: 1,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--sets" => {
                args.sets = value()?.parse().map_err(|e| format!("--sets: {e}"))?;
                if args.sets == 0 {
                    return Err("--sets must be at least 1".into());
                }
            }
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// How long each measurement may take, derived from `--seconds`.
struct Budget {
    /// Untraced repetitions of a workload being measured end to end, after
    /// one discarded warm-up run.
    e2e_s: f64,
    /// Minimum repetitions of such a workload.
    e2e_min_reps: usize,
    /// Untraced repetitions that only feed a per-layer ratio (no warm-up).
    aux_s: f64,
    /// One in-process kernel timing.
    slice_s: f64,
    /// `rhpl launch` runs behind `cli.launch_*`.
    launches: usize,
    /// Run the in-process message count and the layer replay.
    replay: bool,
}

impl Budget {
    /// `--seconds` of one workload as the driver runs it: `run_seconds` of
    /// `BENCHMARK.json`.
    const DRIVER_SECONDS: f64 = 20.0;
    /// `--seconds` per workload of the whole benchmark, sized so that five
    /// workloads, their traced runs and the layer chain end in ~2 minutes.
    const FULL_SECONDS: f64 = 12.0;

    /// One workload as the driver runs it. With `--trace 0` the whole of
    /// `seconds` goes to end-to-end repetitions; a `--trace 1` run divides
    /// about as much among ~50 kernel timings, the workload's own untraced
    /// repetitions and the other workloads' that the cross-workload ratios
    /// need.
    fn driver(seconds: f64) -> Budget {
        Budget {
            e2e_s: seconds,
            e2e_min_reps: 3,
            aux_s: seconds / 20.0,
            slice_s: seconds / 250.0,
            launches: 2,
            replay: true,
        }
    }

    /// The whole benchmark: every workload gets `seconds` end to end, and
    /// the layer metrics reuse those repetitions.
    fn full(seconds: f64) -> Budget {
        Budget {
            aux_s: seconds / 8.0,
            slice_s: seconds / 100.0,
            launches: 3,
            ..Budget::driver(seconds)
        }
    }

    /// `--quick`: one repetition and one sample of everything, no warm-up,
    /// no message count, no layer replay.
    fn quick() -> Budget {
        Budget {
            e2e_s: 0.0,
            e2e_min_reps: 1,
            aux_s: 0.0,
            slice_s: 0.0,
            launches: 1,
            replay: false,
        }
    }
}

/// End-to-end repetitions by workload name: measured at most once per set
/// and shared by every metric that needs them.
type E2eCache = BTreeMap<&'static str, E2e>;

fn e2e_of<'a>(
    cache: &'a mut E2eCache,
    session: &Session,
    w: &'static Workload,
    budget_s: f64,
) -> Result<&'a E2e, String> {
    let e2e = cache
        .entry(w.name)
        .or_insert_with(|| session.measure(w, budget_s, 1, false));
    if e2e.reps.is_empty() {
        return Err(format!("{}: no run succeeded", w.name));
    }
    Ok(e2e)
}

fn print_fingerprint(fp: &Fingerprint, session: &Session) {
    println!(
        "host: every rhpl run is confined to processor {}; the workloads that keep two threads \
         busy (fact_tail_t2, comm_2x1_*) are oversubscribed by construction: their end-to-end \
         figures are what the work costs on one processor, not scaling",
        session.cpu
    );
    println!(
        "host: nproc={} cpu=\"{}\" llc={} MiB kernel={} rustc=\"{}\" git={}",
        fp.nproc,
        fp.cpu_model,
        fp.llc_bytes >> 20,
        fp.kernel,
        fp.rustc,
        fp.git_commit
    );
    if fp.oversubscribed() {
        println!(
            "host: fewer than 2 processors — the in-process *_t2, *_p2 metrics are oversubscribed \
             too: read them as counts of work done, not as scaling"
        );
    }
}

/// Reads one end-to-end figure off a repetition.
type RepField = fn(&Rep) -> f64;

const E2E_FIELDS: [(&str, RepField); 4] = [
    ("gflops", |r| r.gflops),
    ("wall_s", |r| r.wall_s),
    ("setup_s", |r| r.setup_s),
    ("peak_rss_mb", |r| r.peak_rss_mib),
];

/// Spread of a metric's repetitions: interquartile range over the median.
fn spread_of([q1, med, q3]: [f64; 3]) -> f64 {
    (q3 - q1) / med.abs()
}

/// Prints one workload's end-to-end block and returns its medians — the
/// reported values — with the quartiles and the spread beside each. A
/// metric whose repetitions scatter more than its bound is marked: two runs
/// of the same code can then differ by the bound, so a difference that size
/// is unresolved on this host, not a regression.
fn report_e2e(w: &Workload, e2e: &E2e) -> Values {
    let mut values = Values::default();
    let shared = if w.busy_threads() > 1 {
        " [oversubscribed: one processor]"
    } else {
        ""
    };
    println!(
        "workload {}: N={} NB={} {}x{} T={}{} transport={}{shared}",
        w.name,
        w.n,
        w.nb,
        w.p,
        w.q,
        w.threads,
        if w.mxp { " mxp" } else { "" },
        w.transport
    );
    println!("  why: {}", w.why);
    for (i, r) in e2e.reps.iter().enumerate() {
        println!(
            "  rep {:>2}: gflops {:.4} wall_s {:.4} setup_s {:.4} peak_rss_mb {:.2}",
            i + 1,
            r.gflops,
            r.wall_s,
            r.setup_s,
            r.peak_rss_mib
        );
    }
    println!(
        "  runs: {} attempted, {} failed",
        e2e.attempted(),
        e2e.failures.len()
    );
    if e2e.reps.is_empty() {
        return values;
    }
    for (d, (name, field)) in END_TO_END.iter().zip(E2E_FIELDS) {
        assert_eq!(d.name, name);
        let quartiles = e2e.quartiles(field);
        let [q1, med, q3] = quartiles;
        let spread = spread_of(quartiles);
        println!(
            "  {:<12} {med:.6} {} (median of {}; q1 {q1:.6}, q3 {q3:.6}, spread {:.1}%; \
             {} is better, may worsen by {}){}",
            d.name,
            d.unit,
            e2e.reps.len(),
            100.0 * spread,
            if d.higher_is_better {
                "higher"
            } else {
                "lower"
            },
            d.bound,
            if spread > d.bound {
                " [spread wider than the bound: unresolved on this host]"
            } else {
                ""
            }
        );
        values.set(d.name, med);
    }
    values
}

/// Prints the recorded metrics of `PER_LAYER` that are (or are not)
/// per-workload, in table order.
fn print_layers(values: &Values, per_workload: bool) {
    for d in PER_LAYER.iter().filter(|d| d.per_workload == per_workload) {
        if let Some(v) = values.get(d.name) {
            println!("  {:<36} {v:.6} {}", d.name, d.unit);
        }
    }
}

/// The once-per-run layer metrics that need nothing but the linked crates.
fn in_process_layers(values: &mut Values, session: &Session, fp: &Fingerprint, budget: &Budget) {
    // Shared-memory frame logs and disk checkpoints land in the temporary
    // directory; keep them inside the checkout.
    std::env::set_var("TMPDIR", &session.scratch);
    let llc = if budget.replay {
        fp.llc_bytes
    } else {
        // --quick: a smoke run does not wait for gigabytes to be touched.
        println!("  --quick: bandwidth arrays are NOT 4x the last-level cache");
        (16 << 20) / 4
    };
    layers::host_and_blas(values, fp.nproc, llc, budget.slice_s);
    layers::threads(values, budget.slice_s);
    layers::comm(values, budget.slice_s);
    layers::core(values, budget.slice_s);
    layers::guards(values, &session.scratch, budget.slice_s);
}

/// The once-per-run layer metrics that come from spawning `rhpl`: `cli.*`,
/// `mxp.*` and the two-rank strong-scaling efficiency.
fn cross_workload_layers(
    values: &mut Values,
    session: &Session,
    cache: &mut E2eCache,
    budget: &Budget,
) -> Result<(), String> {
    let by_name = |n| workload::by_name(n).expect("declared workload");
    let spawns: Vec<f64> = (0..5)
        .map(|_| {
            let mut cmd = session.rhpl_command();
            cmd.arg("--sample");
            child::run(cmd).map(|r| r.wall_s)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("rhpl --sample: {e}"))?;
    values.set("cli.spawn_s", stats::median(&spawns));

    let tcp = by_name("comm_2x1_tcp");
    let dat = session.write_dat(tcp)?;
    let mut launches = Vec::new();
    for _ in 0..budget.launches {
        let mut cmd = session.rhpl_command();
        cmd.args(["launch"])
            .arg(&dat)
            .args(["--ranks", "2", "--transport", "tcp"])
            .args(["--seed", &session.seed.to_string()]);
        let run = child::run(cmd).map_err(|e| format!("rhpl launch: {e}"))?;
        if !run.status.success() || !run.stdout.contains("HPLOK") {
            return Err(format!(
                "rhpl launch failed ({}): {}",
                run.status, run.stdout
            ));
        }
        launches.push(run.wall_s);
    }
    let launch = stats::median(&launches);
    let tcp_e2e = e2e_of(cache, session, tcp, budget.aux_s)?;
    let tcp_wall = tcp_e2e.median(|r| r.wall_s);
    println!(
        "  launch base: {launch:.4} s (median of {}) over comm_2x1_tcp's wall_s {tcp_wall:.4} s \
         (median of {})",
        launches.len(),
        tcp_e2e.reps.len()
    );
    values.set("cli.launch_tcp_wall_s", launch);
    values.set("cli.launch_overhead_s", launch - tcp_wall);

    let mxp = e2e_of(cache, session, by_name("mxp_1x1"), budget.aux_s)?;
    let flops = parse::hpl_flops(by_name("mxp_1x1").n);
    // Per repetition: (f32 factorization rate, sweeps, refinement seconds).
    // The factorization's clock is derived like the HPL clock; the rest of
    // the mixed-precision clock is refinement (and verification).
    let scores: Vec<(f64, f64, f64)> = mxp
        .reps
        .iter()
        .filter_map(|r| {
            let m = r.mxp.as_ref()?;
            let refine_s = r.clock_s - flops / (m.fact_gflops * 1e9);
            Some((m.fact_gflops, m.sweeps as f64, refine_s))
        })
        .collect();
    if scores.is_empty() {
        return Err("mxp_1x1 printed no HPL-MxP block".into());
    }
    let column = |f: fn(&(f64, f64, f64)) -> f64| scores.iter().map(f).collect::<Vec<f64>>();
    for (name, col) in [
        ("mxp.fact_gflops", column(|s| s.0)),
        ("mxp.sweeps", column(|s| s.1)),
        ("mxp.refine_s", column(|s| s.2)),
    ] {
        values.set(name, stats::median(&col));
    }

    let two = e2e_of(cache, session, by_name("comm_2x1_inproc"), budget.aux_s)?;
    let (two, two_reps) = (two.median(|r| r.gflops), two.reps.len());
    let one = e2e_of(cache, session, &SCALING_BASE_1X1, budget.aux_s)?;
    let (one, one_reps) = (one.median(|r| r.gflops), one.reps.len());
    println!(
        "  strong scaling base: {two:.4} GFLOPS on 2x1 (median of {two_reps}) over 2 x {one:.4} \
         GFLOPS on 1x1 (median of {one_reps}), same HPL.dat, both on one processor: 0.5 is the \
         ceiling"
    );
    values.set("core.strong_scaling_eff_2r", two / (2.0 * one));
    Ok(())
}

/// One workload's traced run, message count and layer replay: the
/// per-workload layer metrics. `untraced` are its tracing-off repetitions.
fn workload_layers(
    values: &mut Values,
    session: &Session,
    w: &'static Workload,
    untraced: &E2e,
    budget: &Budget,
    replays: &mut Vec<Replay>,
) -> Result<(), String> {
    // The untraced medians: the statistic the end-to-end metrics report.
    let reps = untraced.reps.len();
    let clock_s = untraced.median(|r| r.clock_s);
    let gflops = untraced.median(|r| r.gflops);
    let gemm = match (w.mxp, w.nb) {
        (true, 128) => "blas.sgemm_nb128_gflops",
        (false, 128) => "blas.dgemm_nb128_gflops",
        (false, 32) => "blas.dgemm_nb32_gflops",
        (false, 512) => "blas.dgemm_nb512_gflops",
        _ => return Err(format!("{}: no GEMM rate is measured at its NB", w.name)),
    };
    let gemm_gflops = values.get(gemm).ok_or("blas.* must be measured first")?;
    // However many ranks, the run had one processor's GEMM to spend.
    println!(
        "  e2e base: {gflops:.4} GFLOPS (median of {reps}) over {gemm_gflops:.4} GFLOPS ({gemm})"
    );
    values.set("core.e2e_frac_of_dgemm", gflops / gemm_gflops);

    let path = session.scratch.join(format!("{}.trace.json", w.name));
    session.run_rep(w, Some(&path))?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let traced = replay::parse_trace_json(&text)?;
    println!(
        "  traced run: clock {:.4} s (1 run) against an untraced clock of {clock_s:.4} s \
         (median of {reps}); trace-attributed bytes {} (elems * 8, busiest rank)",
        traced.clock_s, traced.traced_bytes
    );
    values.set("trace.overhead_frac", traced.clock_s / clock_s - 1.0);
    values.set("trace.coverage", traced.coverage());
    for phase in ["fact", "fact_comm", "row_swap", "scatter", "update"] {
        values.set(&format!("core.share.{phase}"), traced.share(phase));
    }
    if !budget.replay {
        return Ok(());
    }

    let (msgs, bytes) = replay::comm_counts(w, session.seed)?;
    values.set("comm.msgs", msgs as f64);
    values.set("comm.bytes", bytes as f64);

    // On the processor the run was confined to, so the two are comparable.
    let replay = child::on_cpu(session.cpu, || replay::replay(w, session.seed))
        .map_err(|e| format!("sched_setaffinity: {e}"))??;
    let total = replay.scaled_total_s();
    println!(
        "  layer replay: {} of {} iterations; scaled total {total:.4} s over the clock {clock_s:.4} s",
        replay.sampled, replay.iterations
    );
    for (name, secs) in replay::self_times(&replay.spans[0]) {
        println!("    rank 0 self time {name:<20} {secs:.6} s");
    }
    values.set("replay.coverage", total / clock_s);
    replays.push(replay);
    Ok(())
}

fn write_spans(session: &Session, replays: &[Replay]) {
    let path = session.root.join("benchmark/out/trace.json");
    match replay::write_spans(&path, replays) {
        Ok(()) => println!("harness spans written to {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

/// One workload as the driver runs it.
fn driver_run(args: &Args, name: &str) -> Result<bool, String> {
    let w = workload::by_name(name).ok_or(format!("unknown workload {name}"))?;
    let session = Session::open(args.seed)?;
    let fp = Fingerprint::read(&session.root);
    print_fingerprint(&fp, &session);
    let budget = if args.quick {
        Budget::quick()
    } else {
        Budget::driver(args.seconds.unwrap_or(Budget::DRIVER_SECONDS))
    };
    if !args.trace {
        let e2e = session.measure(w, budget.e2e_s, budget.e2e_min_reps, !args.quick);
        let values = report_e2e(w, &e2e);
        let ok = e2e.failures.is_empty() && values.missing(&END_TO_END).is_empty();
        println!(
            "{}",
            values.result_line(&END_TO_END, ok, e2e.attempted(), e2e.failures.len())
        );
        return Ok(ok);
    }
    let mut values = Values::default();
    let mut cache = E2eCache::new();
    let mut replays = Vec::new();
    in_process_layers(&mut values, &session, &fp, &budget);
    let untraced = e2e_of(&mut cache, &session, w, 2.0 * budget.aux_s)?;
    let (attempted, failed) = (untraced.attempted(), untraced.failures.len());
    println!(
        "workload {}: {attempted} untraced runs, {failed} failed",
        w.name
    );
    workload_layers(&mut values, &session, w, untraced, &budget, &mut replays)?;
    cross_workload_layers(&mut values, &session, &mut cache, &budget)?;
    print_layers(&values, false);
    print_layers(&values, true);
    write_spans(&session, &replays);
    let missing = values.missing(&PER_LAYER);
    if !missing.is_empty() {
        eprintln!("metrics not measured: {missing:?}");
    }
    let failed: usize = cache.values().map(|e| e.failures.len()).sum();
    let attempted: usize = cache.values().map(E2e::attempted).sum::<usize>() + 1;
    let ok = failed == 0 && missing.is_empty();
    println!("{}", values.result_line(&PER_LAYER, ok, attempted, failed));
    Ok(ok)
}

/// The whole benchmark, `--sets` times over.
fn full_run(args: &Args) -> Result<bool, String> {
    let session = Session::open(args.seed)?;
    let fp = Fingerprint::read(&session.root);
    print_fingerprint(&fp, &session);
    let budget = if args.quick {
        Budget::quick()
    } else {
        Budget::full(args.seconds.unwrap_or(Budget::FULL_SECONDS))
    };
    let mut ok = true;
    let mut replays = Vec::new();
    // (workload, metric) -> per set, the median and the repetitions' spread
    // (counts have no spread).
    let mut medians: BTreeMap<(&str, &str), Vec<(f64, f64)>> = BTreeMap::new();
    // Every end-to-end set runs before any in-process layer work: a child's
    // `ru_maxrss` starts from the peak of the process that spawned it, so
    // the harness must still be small when `peak_rss_mb` is measured.
    let mut caches = Vec::new();
    for set in 1..=args.sets {
        println!("== end-to-end metrics, set {set} of {}", args.sets);
        let mut cache = E2eCache::new();
        for w in &WORKLOADS {
            let e2e = session.measure(w, budget.e2e_s, budget.e2e_min_reps, !args.quick);
            let values = report_e2e(w, &e2e);
            ok &= e2e.failures.is_empty() && values.missing(&END_TO_END).is_empty();
            if !e2e.reps.is_empty() {
                for (d, (_, field)) in END_TO_END.iter().zip(E2E_FIELDS) {
                    let quartiles = e2e.quartiles(field);
                    medians
                        .entry((w.name, d.name))
                        .or_default()
                        .push((quartiles[1], spread_of(quartiles)));
                }
            }
            cache.insert(w.name, e2e);
        }
        caches.push(cache);
    }
    for (set, mut cache) in (1..).zip(caches) {
        println!("== per-layer metrics, set {set} of {}", args.sets);
        let mut layer_values = Values::default();
        in_process_layers(&mut layer_values, &session, &fp, &budget);
        cross_workload_layers(&mut layer_values, &session, &mut cache, &budget)?;
        print_layers(&layer_values, false);
        for w in &WORKLOADS {
            println!("per-layer metrics of workload {}:", w.name);
            let Ok(untraced) = e2e_of(&mut cache, &session, w, 0.0) else {
                continue;
            };
            // Spans of the first set are the ones written out.
            let mut later_set = Vec::new();
            let keep = if set == 1 {
                &mut replays
            } else {
                &mut later_set
            };
            workload_layers(&mut layer_values, &session, w, untraced, &budget, keep)?;
            print_layers(&layer_values, true);
            for name in ["comm.msgs", "comm.bytes"] {
                medians
                    .entry((w.name, name))
                    .or_default()
                    .extend(layer_values.get(name).map(|v| (v, 0.0)));
            }
        }
        let missing = layer_values.missing(&PER_LAYER);
        if budget.replay && !missing.is_empty() {
            eprintln!("metrics not measured: {missing:?}");
            ok = false;
        }
    }
    write_spans(&session, &replays);
    if args.sets > 1 {
        ok &= sets_agree(args.sets, &medians);
    }
    Ok(ok)
}

/// Prints, per (workload, metric), each set's median and whether the sets
/// agree: counts exactly, timings within the metric's bound. Sets that
/// differ by more than the bound while the repetitions inside a set scatter
/// by more than the bound too are `unresolved` — the host cannot tell that
/// difference from its own noise — and do not fail the run; sets that
/// differ while each is steady `DISAGREE`, and do.
fn sets_agree(sets: usize, medians: &BTreeMap<(&str, &str), Vec<(f64, f64)>>) -> bool {
    println!("== agreement of {sets} sets");
    let (mut agreed, mut unresolved, mut disagreed) = (0, 0, 0);
    for ((workload, metric), per_set) in medians {
        let d = metrics::def(metric).expect("declared metric");
        let values: Vec<f64> = per_set.iter().map(|&(v, _)| v).collect();
        let (lo, hi) = values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        let spread = per_set.iter().map(|&(_, s)| s).fold(0.0, f64::max);
        let verdict = if per_set.len() == sets && (hi - lo) <= d.bound * lo.abs() {
            agreed += 1;
            "agree"
        } else if per_set.len() == sets && spread > d.bound {
            unresolved += 1;
            "unresolved"
        } else {
            disagreed += 1;
            "DISAGREE"
        };
        if d.bound == 0.0 {
            println!(
                "  {workload:<16} {metric:<12} {} {values:?} must repeat exactly: {verdict}",
                d.unit
            );
            continue;
        }
        println!(
            "  {workload:<16} {metric:<12} {} {values:?} differ by {:.1}% (bound {:.0}%, \
             widest spread inside a set {:.1}%) {verdict}",
            d.unit,
            100.0 * (hi - lo) / lo.abs(),
            100.0 * d.bound,
            100.0 * spread
        );
    }
    println!("  {agreed} agree, {unresolved} unresolved, {disagreed} disagree");
    disagreed == 0
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match &args.workload {
        Some(name) => driver_run(&args, name),
        None => full_run(&args),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("rhpl-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
