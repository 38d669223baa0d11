//! §IV.A in-text anchor — the blocking-factor balance.
//!
//! "The block size NB should be chosen at least large enough that the
//! large DGEMM computations reach a high percentage of peak ... while
//! choosing NB as small as possible allows for maximal overlap": the score
//! as a function of NB must rise (DGEMM efficiency), peak near the paper's
//! NB = 512, and fall again (panels too coarse to overlap / factor).
//! Default prints the model sweep at paper scale; `--functional` runs real
//! scaled-down benchmarks over NB.

use hpl_bench::{arg_value, emit_json, has_flag, row};
use hpl_comm::Universe;
use hpl_sim::{simulate_des, NodeModel, Pipeline, RunParams, Simulator};
use rhpl_core::config::Schedule;
use rhpl_core::{run_hpl, HplConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    nb: usize,
    tflops: f64,
}

fn main() {
    if has_flag("--functional") {
        functional();
    } else {
        model();
    }
}

fn model() {
    println!("NB sweep (model), paper single-node configuration");
    println!("paper: NB = 512 chosen to balance DGEMM rate vs overlap granularity\n");
    let node = NodeModel::frontier();
    let widths = [6usize, 10];
    println!("{}", row(&["NB", "TFLOPS"], &widths));
    let mut pts = Vec::new();
    let mut best = (0usize, 0.0f64);
    for nb in [64usize, 128, 256, 384, 512, 768, 1024, 2048] {
        let mut params = RunParams::paper_single_node();
        params.nb = nb;
        let r = simulate_des(&Simulator::new(node, params), Pipeline::SplitUpdate);
        println!(
            "{}",
            row(&[format!("{nb}"), format!("{:.1}", r.tflops)], &widths)
        );
        if r.tflops > best.1 {
            best = (nb, r.tflops);
        }
        pts.push(Point {
            nb,
            tflops: r.tflops,
        });
    }
    println!(
        "\noptimum at NB = {} ({:.1} TF) — paper uses 512",
        best.0, best.1
    );
    emit_json("nb_sweep_model", &pts);
}

fn functional() {
    let n: usize = arg_value("--n").unwrap_or(576);
    println!("NB sweep (functional), N={n} 2x2, split 50%");
    let widths = [6usize, 12];
    println!("{}", row(&["NB", "GFLOPS"], &widths));
    let mut pts = Vec::new();
    for nb in [8usize, 16, 24, 32, 48, 64, 96] {
        let mut cfg = HplConfig::new(n - n % nb, nb, 2, 2);
        cfg.schedule = Schedule::SplitUpdate { frac: 0.5 };
        let results = Universe::run(cfg.ranks(), |comm| {
            run_hpl(comm, &cfg).expect("nonsingular")
        });
        let g = results[0].gflops;
        println!("{}", row(&[format!("{nb}"), format!("{g:.2}")], &widths));
        pts.push(Point {
            nb,
            tflops: g / 1e3,
        });
    }
    emit_json("nb_sweep_functional", &pts);
}
