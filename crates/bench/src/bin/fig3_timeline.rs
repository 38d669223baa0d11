//! Fig 3 — execution timeline of one iteration under the look-ahead
//! schedule: cuts one iteration out of the simulated paper single-node run
//! and renders it as a Gantt chart (GPU / CPU / transfer / network rows),
//! showing FACT and LBCAST hidden under the trailing UPDATE while the
//! row-swap communication remains exposed.

use hpl_bench::{arg_value, emit_json};
use hpl_sim::{iteration_spans, render, simulate_des, NodeModel, Pipeline, RunParams, Simulator};

fn main() {
    let it: usize = arg_value("--iter").unwrap_or(50);
    let sim = Simulator::new(NodeModel::frontier(), RunParams::paper_single_node());
    let r = simulate_des(&sim, Pipeline::LookAhead);
    let spans = iteration_spans(&r, it..it + 1);
    println!("Fig 3 (model): look-ahead iteration timeline, iteration {it} of the");
    println!("paper single-node run (N=256000, NB=512, 4x2). RS is exposed; the");
    println!("next panel's host chain (D2H, FACT, H2D, LBCAST) hides under UPDATE.\n");
    print!("{}", render(&spans, 100));
    let rec = &r.iters[it];
    println!(
        "\niteration: {:.2} ms total, {:.2} ms GPU-active, exposure {:.2} ms",
        rec.time * 1e3,
        rec.gpu_active * 1e3,
        (rec.time - rec.gpu_active).max(0.0) * 1e3
    );
    emit_json(
        "fig3_spans",
        &spans
            .iter()
            .map(|s| (s.row, &s.label, s.start, s.len))
            .collect::<Vec<_>>(),
    );
}
