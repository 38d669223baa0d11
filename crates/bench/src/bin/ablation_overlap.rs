//! Ablation — the value of each overlap mechanism.
//!
//! Compares the three pipelines (no overlap, look-ahead, look-ahead +
//! split update) through the calibrated model at paper scale (default) and
//! through real scaled-down runs (`--functional`). The DESIGN.md calls
//! this out as the design-choice ablation for §III.C.

use hpl_bench::{arg_value, emit_json, has_flag, row};
use hpl_comm::Universe;
use hpl_sim::{simulate_des, NodeModel, Pipeline, RunParams, Simulator};
use rhpl_core::config::Schedule;
use rhpl_core::{run_hpl, HplConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    schedule: String,
    tflops: f64,
    vs_baseline: f64,
}

fn main() {
    if has_flag("--functional") {
        functional();
    } else {
        model();
    }
}

fn model() {
    println!("Overlap ablation (model), paper single-node configuration\n");
    let node = NodeModel::frontier();
    let params = RunParams::paper_single_node();
    let widths = [22usize, 10, 12, 14];
    println!(
        "{}",
        row(&["schedule", "TFLOPS", "vs serial", "hidden time"], &widths)
    );
    let mut out = Vec::new();
    let mut base = 0.0;
    for (name, pl) in [
        ("no overlap", Pipeline::NoOverlap),
        ("look-ahead (Fig 3)", Pipeline::LookAhead),
        ("split update (Fig 6)", Pipeline::SplitUpdate),
    ] {
        let r = simulate_des(&Simulator::new(node, params), pl);
        if base == 0.0 {
            base = r.tflops;
        }
        println!(
            "{}",
            row(
                &[
                    name.to_string(),
                    format!("{:.1}", r.tflops),
                    format!("{:+.1}%", (r.tflops / base - 1.0) * 100.0),
                    format!("{:.2}", r.hidden_time_fraction),
                ],
                &widths
            )
        );
        out.push(Row {
            schedule: name.to_string(),
            tflops: r.tflops,
            vs_baseline: r.tflops / base,
        });
    }
    emit_json("ablation_model", &out);
}

fn functional() {
    let n: usize = arg_value("--n").unwrap_or(640);
    let nb: usize = arg_value("--nb").unwrap_or(32);
    println!("Overlap ablation (functional), N={n} NB={nb} 2x2, FACT threads 2\n");
    let widths = [22usize, 12];
    println!("{}", row(&["schedule", "GFLOPS"], &widths));
    let mut out = Vec::new();
    for (name, schedule) in [
        ("simple", Schedule::Simple),
        ("look-ahead", Schedule::LookAhead),
        ("split update 50%", Schedule::SplitUpdate { frac: 0.5 }),
    ] {
        let mut cfg = HplConfig::new(n, nb, 2, 2);
        cfg.schedule = schedule;
        cfg.fact.threads = 2;
        let results = Universe::run(cfg.ranks(), |comm| {
            run_hpl(comm, &cfg).expect("nonsingular")
        });
        println!(
            "{}",
            row(
                &[name.to_string(), format!("{:.2}", results[0].gflops)],
                &widths
            )
        );
        out.push(Row {
            schedule: name.to_string(),
            tflops: results[0].gflops / 1e3,
            vs_baseline: 0.0,
        });
    }
    println!("\n(note: on threads the schedules execute the same arithmetic, so the");
    println!("functional ablation measures orchestration overheads, not the GPU-side");
    println!("overlap wins — those are what the model quantifies)");
    emit_json("ablation_functional", &out);
}
