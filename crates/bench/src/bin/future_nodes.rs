//! The paper's Discussion-section claim, quantified: "as the improvement
//! of computational throughput outpaces inter-process communication
//! performance, the performance bottlenecks shift ... and lowers overall
//! performance, as measured by efficiency of peak computational
//! throughput."
//!
//! We run the calibrated single-node model on hypothetical future nodes
//! where GPU compute doubles `G` times per generation while network
//! bandwidth doubles only `W <= G` times, and report the achieved fraction
//! of the node's DGEMM limit plus the communication-hidden fraction — both
//! decay as the compute/network gap widens (asserted by a `hpl-sim::node`
//! unit test).

use hpl_bench::{emit_json, row};
use hpl_sim::{simulate_des, NodeModel, Pipeline, RunParams, Simulator};
use serde::Serialize;

#[derive(Serialize)]
struct GenRow {
    label: String,
    tflops: f64,
    dgemm_limit: f64,
    efficiency: f64,
    hidden_time: f64,
}

fn main() {
    println!("Future accelerated nodes (paper SV): compute doublings vs network doublings");
    println!("(single-node model, HBM-filling N, NB=512, 4x2 grid, split update)\n");
    let widths = [26usize, 10, 12, 12, 12];
    println!(
        "{}",
        row(
            &["node", "TFLOPS", "DGEMM limit", "% of limit", "hidden time"],
            &widths
        )
    );
    let mut out = Vec::new();
    for (label, compute_gen, net_gen) in [
        ("Frontier (baseline)", 0u32, 0u32),
        ("+1 compute, +1 net", 1, 1),
        ("+1 compute, +0 net", 1, 0),
        ("+2 compute, +1 net", 2, 1),
        ("+2 compute, +0 net", 2, 0),
        ("+3 compute, +1 net", 3, 1),
    ] {
        let node = NodeModel::future(compute_gen, net_gen);
        let mut params = RunParams::paper_single_node();
        params.n = node.fill_hbm_n(1);
        let r = simulate_des(&Simulator::new(node, params), Pipeline::SplitUpdate);
        // Node DGEMM limit at NB=512 (the paper's 196 TF figure for
        // Frontier).
        let limit = node.gcds as f64
            * node
                .dgemm
                .flops_rate(params.n as f64 / 4.0, params.n as f64 / 2.0, 512.0)
            / 1e12;
        let eff = r.tflops / limit;
        println!(
            "{}",
            row(
                &[
                    label.to_string(),
                    format!("{:.0}", r.tflops),
                    format!("{:.0}", limit),
                    format!("{:.1}%", eff * 100.0),
                    format!("{:.2}", r.hidden_time_fraction),
                ],
                &widths
            )
        );
        out.push(GenRow {
            label: label.to_string(),
            tflops: r.tflops,
            dgemm_limit: limit,
            efficiency: eff,
            hidden_time: r.hidden_time_fraction,
        });
    }
    println!("\npaper SV: widening the compute/network gap pushes the benchmark into the");
    println!("latency- and communication-dominated regime and lowers the achieved");
    println!("fraction of peak — the motivation for its future-work discussion.");
    emit_json("future_nodes", &out);
}
