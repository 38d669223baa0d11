//! Fig 7 — per-iteration timing breakdown of a single-node run.
//!
//! Default: the calibrated Frontier model at the paper's configuration
//! (`N = 256000`, `NB = 512`, `P x Q = 4 x 2`, 50-50 split), printing the
//! same five series the paper plots — total iteration time, GPU active
//! time, and the stacked FACT / MPI / transfer components — plus the
//! summary statistics the paper quotes (regime boundary, overall score,
//! hidden-communication fractions).
//!
//! Pass `--functional` to instead *execute* the real distributed benchmark
//! at a scaled-down size (`--n`, `--nb`, `--p`, `--q`) with tracing on and
//! print its per-iteration phase table
//! (`hpl_trace::report::iteration_table`: each phase summed per rank, then
//! the maximum across ranks).

use hpl_bench::{arg_value, emit_json, has_flag, row};
use hpl_comm::Universe;
use hpl_sim::{simulate_des, NodeModel, Pipeline, RunParams, Simulator};
use hpl_trace::report::iteration_table;
use hpl_trace::TraceOpts;
use rhpl_core::config::Schedule;
use rhpl_core::{run_hpl, HplConfig};

fn main() {
    if has_flag("--functional") {
        functional();
    } else {
        model();
    }
}

fn model() {
    let sim = Simulator::new(NodeModel::frontier(), RunParams::paper_single_node());
    let r = simulate_des(&sim, Pipeline::SplitUpdate);
    println!("Fig 7 (model): per-iteration breakdown, N=256000 NB=512 4x2, split 50%");
    println!("paper anchors: 153 TFLOPS overall, regime change near iteration 250,");
    println!("iteration time == GPU time in the first regime\n");
    let widths = [6usize, 10, 10, 10, 10, 10];
    println!(
        "{}",
        row(
            &["iter", "total ms", "gpu ms", "fact ms", "mpi ms", "xfer ms"],
            &widths
        )
    );
    for it in (0..r.iters.len()).step_by(25).chain([r.iters.len() - 1]) {
        let x = &r.iters[it];
        println!(
            "{}",
            row(
                &[
                    format!("{}", x.iter),
                    format!("{:.2}", x.time * 1e3),
                    format!("{:.2}", x.gpu_active * 1e3),
                    format!("{:.2}", x.fact * 1e3),
                    format!("{:.2}", x.mpi * 1e3),
                    format!("{:.2}", x.transfer * 1e3),
                ],
                &widths
            )
        );
    }
    let boundary = r.iters.iter().position(|x| x.time > x.gpu_active * 1.02);
    println!(
        "\nscore:                  {:.1} TFLOPS (paper: 153)",
        r.tflops
    );
    println!(
        "regime boundary:        iteration {:?} of {} (paper: ~250 of 500)",
        boundary,
        r.iters.len()
    );
    println!(
        "hidden-iteration frac:  {:.2} (paper: ~0.5)",
        r.hidden_iter_fraction
    );
    println!(
        "hidden-time frac:       {:.2} (paper: ~0.75)",
        r.hidden_time_fraction
    );
    emit_json("fig7_model", &r.iters);
}

fn functional() {
    let n: usize = arg_value("--n").unwrap_or(768);
    let nb: usize = arg_value("--nb").unwrap_or(32);
    let p: usize = arg_value("--p").unwrap_or(2);
    let q: usize = arg_value("--q").unwrap_or(2);
    let mut cfg = HplConfig::new(n, nb, p, q);
    cfg.schedule = Schedule::SplitUpdate { frac: 0.5 };
    cfg.fact.threads = 2;
    cfg.trace = TraceOpts::on();
    println!("Fig 7 (functional): measured per-iteration phases, N={n} NB={nb} {p}x{q}");
    let results = Universe::run(cfg.ranks(), |comm| {
        run_hpl(comm, &cfg).expect("nonsingular")
    });
    let traces: Vec<_> = results.iter().filter_map(|r| r.trace.clone()).collect();
    let table = iteration_table(&traces, cfg.iterations());
    let ms = |ns: u64| format!("{:.3}", ns as f64 * 1e-6);
    let widths = [6usize, 10, 10, 10, 10];
    println!(
        "{}",
        row(
            &["iter", "total ms", "fact ms", "comm ms", "xfer ms"],
            &widths
        )
    );
    for r in &table {
        let t = &r.phases;
        println!(
            "{}",
            row(
                &[
                    format!("{}", r.iter),
                    ms(t.total_ns()),
                    // FACT's CPU share: its pivot collectives are in comm.
                    ms(t.fact_ns.saturating_sub(t.fact_comm_ns)),
                    ms(t.comm_ns()),
                    ms(t.transfer_ns),
                ],
                &widths
            )
        );
    }
    println!(
        "\nwall: {:.3} s, {:.2} GFLOPS",
        results[0].wall, results[0].gflops
    );
    emit_json("fig7_functional", &table);
}
