//! Fig 6 — execution timeline of one iteration under the split-update
//! schedule: cuts one iteration out of the simulated paper single-node run
//! and renders it, showing RS1 hidden under UPDATE2 (together with the
//! host chain) and the next iteration's RS2 communication hidden under
//! UPDATE1 — no exposed communication while the left section lasts.

use hpl_bench::{arg_value, emit_json};
use hpl_sim::{iteration_spans, render, simulate_des, NodeModel, Pipeline, RunParams, Simulator};

fn main() {
    let it: usize = arg_value("--iter").unwrap_or(50);
    let sim = Simulator::new(NodeModel::frontier(), RunParams::paper_single_node());
    let r = simulate_des(&sim, Pipeline::SplitUpdate);
    let spans = iteration_spans(&r, it..it + 1);
    println!("Fig 6 (model): split-update iteration timeline, iteration {it} of the");
    println!("paper single-node run (N=256000, NB=512, 4x2, 50-50 split).\n");
    print!("{}", render(&spans, 100));
    let rec = &r.iters[it];
    let base = &simulate_des(&sim, Pipeline::LookAhead).iters[it];
    println!(
        "\niteration: {:.2} ms total vs {:.2} ms with look-ahead alone ({:.1}% saved)",
        rec.time * 1e3,
        base.time * 1e3,
        (1.0 - rec.time / base.time) * 100.0
    );
    println!(
        "GPU-active {:.2} ms; fully hidden: {}",
        rec.gpu_active * 1e3,
        rec.time <= rec.gpu_active * 1.02
    );
    emit_json(
        "fig6_spans",
        &spans
            .iter()
            .map(|s| (s.row, &s.label, s.start, s.len))
            .collect::<Vec<_>>(),
    );
}
