//! Frontier-node scenario: reproduce the paper's single-node study
//! (§IV.A) end to end — the calibrated model at full scale side by side
//! with a real scaled-down run of the same pipeline.
//!
//! ```text
//! cargo run --release -p hpl-examples --bin frontier_node
//! ```

use hpl_comm::Universe;
use hpl_sim::{iteration_spans, render, simulate_des, NodeModel, Pipeline, RunParams, Simulator};
use hpl_trace::report::{iteration_table, IterRow};
use hpl_trace::TraceOpts;
use rhpl_core::config::Schedule;
use rhpl_core::{run_hpl, HplConfig};

fn main() {
    // ---- Full-scale model (the paper's machine). ----
    let node = NodeModel::frontier();
    let params = RunParams::paper_single_node();
    let r = simulate_des(&Simulator::new(node, params), Pipeline::SplitUpdate);
    println!("== Crusher single node, modeled (N=256000, NB=512, 4x2, split 50%) ==");
    println!("score:            {:.1} TFLOPS   (paper: 153)", r.tflops);
    println!("run time:         {:.1} s", r.total_time);
    println!(
        "regime boundary:  iteration {} of {}   (paper: ~250)",
        r.iters
            .iter()
            .position(|x| x.time > x.gpu_active * 1.02)
            .unwrap_or(r.iters.len()),
        r.iters.len()
    );
    println!(
        "hidden MPI time:  {:.0}%   (paper: ~75%)\n",
        r.hidden_time_fraction * 100.0
    );
    println!("iteration 50 timeline (cf. paper Fig 6):");
    print!("{}", render(&iteration_spans(&r, 50..51), 90));
    println!("\niteration 400 (latency-bound tail, cf. Fig 7's right side):");
    let tail = &r.iters[400];
    println!(
        "  total {:.1} ms | gpu {:.1} ms | fact {:.1} ms | mpi {:.1} ms | xfer {:.1} ms",
        tail.time * 1e3,
        tail.gpu_active * 1e3,
        tail.fact * 1e3,
        tail.mpi * 1e3,
        tail.transfer * 1e3
    );

    // ---- Functional run at laptop scale, same pipeline. ----
    let mut cfg = HplConfig::new(768, 32, 4, 2);
    cfg.schedule = Schedule::SplitUpdate { frac: 0.5 };
    cfg.fact.threads = 2;
    cfg.trace = TraceOpts::on();
    println!("\n== Same pipeline executed for real (N=768, NB=32, 4x2 on threads) ==");
    let results = Universe::run(cfg.ranks(), |comm| {
        run_hpl(comm, &cfg).expect("nonsingular")
    });
    println!(
        "wall {:.3} s -> {:.2} GFLOPS over 8 rank-threads",
        results[0].wall, results[0].gflops
    );
    // Iteration time: the sum of its phase spans, each phase the maximum
    // across ranks.
    let traces: Vec<_> = results.iter().filter_map(|r| r.trace.clone()).collect();
    let table = iteration_table(&traces, cfg.iterations());
    let avg = |rows: &[IterRow]| {
        rows.iter().map(|r| r.phases.total_ns() as f64).sum::<f64>() * 1e-9 / rows.len() as f64
    };
    let head = avg(&table[..5]);
    let tail = avg(&table[table.len() - 5..]);
    println!(
        "avg iteration: {:.3} ms early vs {:.3} ms late (work shrinks)",
        head * 1e3,
        tail * 1e3
    );
}
