//! The simulated paper single-node run as a discrete-event trace: the
//! whole benchmark as a task graph on {GPU, CPU, XFER, NET} resources,
//! its score, each resource's utilization, and a rendered multi-iteration
//! Gantt window — the schedule the paper draws (Figs 3/6), derived from
//! dependencies rather than composed by formula.
//!
//! `--pipeline serial|lookahead|split` (default split), `--window N`
//! (iterations to render, default 3), `--start I` (first rendered
//! iteration, default 50).

use hpl_bench::{arg_value, emit_json};
use hpl_sim::{
    iteration_spans, render, simulate_des, NodeModel, Pipeline, ResourceId, RunParams, Simulator,
    RESOURCES,
};

fn main() {
    let pipeline = match arg_value::<String>("--pipeline").as_deref() {
        Some("serial") => Pipeline::NoOverlap,
        Some("lookahead") => Pipeline::LookAhead,
        _ => Pipeline::SplitUpdate,
    };
    let sim = Simulator::new(NodeModel::frontier(), RunParams::paper_single_node());
    let r = simulate_des(&sim, pipeline);
    let iters = r.iters.len();
    let start: usize = arg_value::<usize>("--start").unwrap_or(50).min(iters - 1);
    let end = (start + arg_value::<usize>("--window").unwrap_or(3).max(1)).min(iters);

    println!("Discrete-event model, paper single-node run, {pipeline:?}\n");
    println!("score:       {:.1} TFLOPS", r.tflops);
    println!(
        "total time:  {:.1} s ({} tasks)",
        r.total_time,
        r.trace.spans.len()
    );
    let util: Vec<String> = RESOURCES
        .iter()
        .enumerate()
        .map(|(i, name)| format!("{name} {:.1}%", r.trace.utilization(ResourceId(i)) * 100.0))
        .collect();
    println!("utilization: {}", util.join(", "));

    let spans = iteration_spans(&r, start..end);
    println!("\nemergent schedule, iterations {start}..{end} :");
    print!("{}", render(&spans, 100));
    let done: Vec<f64> = r.iters[..end].iter().map(|x| x.start + x.time).collect();
    emit_json("des_trace", &done);
}
