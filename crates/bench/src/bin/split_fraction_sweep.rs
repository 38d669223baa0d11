//! §III.C in-text anchor — the split-fraction tuning parameter.
//!
//! The paper leaves the left/right split as a user tunable and reports that
//! a 50-50 split is optimal on a single Frontier node. This binary sweeps
//! the fraction through the calibrated model (default) and, with
//! `--functional`, through real scaled-down runs, confirming the optimum's
//! location and the flat-top shape around it.

use hpl_bench::{arg_value, emit_json, has_flag, row};
use hpl_comm::Universe;
use hpl_sim::{simulate_des, NodeModel, Pipeline, RunParams, Simulator};
use rhpl_core::config::Schedule;
use rhpl_core::{run_hpl, HplConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    frac: f64,
    tflops: f64,
}

fn main() {
    let fracs = [0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875];
    if has_flag("--functional") {
        functional(&fracs);
    } else {
        model(&fracs);
    }
}

fn model(fracs: &[f64]) {
    println!("Split-fraction sweep (model), paper single-node configuration");
    println!("paper: \"splitting the local A matrix in half ... works optimally\"\n");
    let node = NodeModel::frontier();
    let widths = [8usize, 10];
    println!("{}", row(&["frac", "TFLOPS"], &widths));
    let mut pts = Vec::new();
    let mut best = (0.0, 0.0);
    for &frac in fracs {
        let mut params = RunParams::paper_single_node();
        params.split_frac = frac;
        let pipeline = if frac == 0.0 {
            Pipeline::LookAhead
        } else {
            Pipeline::SplitUpdate
        };
        let r = simulate_des(&Simulator::new(node, params), pipeline);
        println!(
            "{}",
            row(&[format!("{frac:.3}"), format!("{:.1}", r.tflops)], &widths)
        );
        if r.tflops > best.1 {
            best = (frac, r.tflops);
        }
        pts.push(Point {
            frac,
            tflops: r.tflops,
        });
    }
    println!("\noptimum at frac = {:.3} ({:.1} TF)", best.0, best.1);
    emit_json("split_sweep_model", &pts);
}

fn functional(fracs: &[f64]) {
    let n: usize = arg_value("--n").unwrap_or(512);
    let nb: usize = arg_value("--nb").unwrap_or(32);
    println!("Split-fraction sweep (functional), N={n} NB={nb} 2x2");
    let widths = [8usize, 12];
    println!("{}", row(&["frac", "GFLOPS"], &widths));
    let mut pts = Vec::new();
    for &frac in fracs {
        let mut cfg = HplConfig::new(n, nb, 2, 2);
        cfg.schedule = if frac == 0.0 {
            Schedule::LookAhead
        } else {
            Schedule::SplitUpdate { frac }
        };
        let results = Universe::run(cfg.ranks(), |comm| {
            run_hpl(comm, &cfg).expect("nonsingular")
        });
        let g = results[0].gflops;
        println!(
            "{}",
            row(&[format!("{frac:.3}"), format!("{g:.2}")], &widths)
        );
        pts.push(Point {
            frac,
            tflops: g / 1e3,
        });
    }
    emit_json("split_sweep_functional", &pts);
}
