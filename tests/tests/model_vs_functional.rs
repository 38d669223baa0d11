//! Consistency between the performance model (hpl-sim) and the functional
//! implementation (rhpl-core): the two describe the same algorithm, so
//! their structural facts must agree.

use hpl_comm::Universe;
use hpl_sim::{simulate_des, NodeModel, Pipeline, RunParams, Simulator};
use hpl_threads::time_shared_bindings;
use rhpl_core::{run_hpl, HplConfig};

/// The §III.B thread-count formula implemented in hpl-threads and the one
/// the simulator uses must be the same function.
#[test]
fn fact_thread_counts_agree_between_crates() {
    let node = NodeModel::frontier();
    for (lp, lq) in [(8usize, 1usize), (4, 2), (2, 4), (1, 8)] {
        let params = RunParams {
            local_p: lp,
            local_q: lq,
            ..RunParams::paper_single_node()
        };
        let sim_t = params.fact_threads(&node);
        let bindings = time_shared_bindings(lp, lq, node.cores).unwrap();
        assert_eq!(sim_t, bindings[0].threads(), "grid {lp}x{lq}");
    }
}

/// Functional per-iteration times (the trace's phase spans summed, each
/// phase the maximum across ranks) must decay over the run (the trailing
/// matrix shrinks), matching the model's monotone GPU series.
/// Pinned to the in-process fabric: the claim is about O(k³) compute
/// decay, and at this tiny N a byte-moving transport's fixed per-message
/// latency (file polling, socket hops) legitimately flattens the curve.
#[test]
fn functional_iteration_times_decay_like_model() {
    let mut cfg = HplConfig::new(512, 32, 2, 2);
    cfg.schedule = rhpl_core::Schedule::SplitUpdate { frac: 0.5 };
    cfg.trace = hpl_trace::TraceOpts::on();
    let traces = Universe::run_with_transport(
        cfg.ranks(),
        hpl_comm::TransportSel::Inproc,
        hpl_comm::FabricOpts::default(),
        |comm| run_hpl(comm, &cfg).expect("nonsingular").trace.unwrap(),
    );
    let iters = cfg.iterations();
    let table = hpl_trace::report::iteration_table(&traces, iters);
    let time = |it: usize| table[it].phases.total_ns() as f64 * 1e-9;
    let head: f64 = (0..4).map(time).sum();
    let tail: f64 = (iters - 4..iters).map(time).sum();
    assert!(
        head > 2.0 * tail,
        "early iterations ({head:.5}s) must dominate late ones ({tail:.5}s)"
    );
    // The model shows the same decay at paper scale.
    let sim = Simulator::new(NodeModel::frontier(), RunParams::paper_single_node());
    let r = simulate_des(&sim, Pipeline::SplitUpdate);
    assert!(r.iters[0].time > 2.0 * r.iters[450].time);
}

/// The model's iteration count matches the functional driver's.
#[test]
fn iteration_counts_agree() {
    let params = RunParams::paper_single_node();
    assert_eq!(params.iterations(), 500);
    let cfg = HplConfig::new(params.n, params.nb, 1, 1);
    assert_eq!(cfg.iterations(), params.iterations());
}

/// The model's headline numbers stay pinned to the paper's (regression
/// guard for the calibration).
#[test]
fn calibration_regression_guard() {
    let sim = Simulator::new(NodeModel::frontier(), RunParams::paper_single_node());
    let split = simulate_des(&sim, Pipeline::SplitUpdate);
    assert!(
        (145.0..165.0).contains(&split.tflops),
        "single node {:.1} TF",
        split.tflops
    );
    let la = simulate_des(&sim, Pipeline::LookAhead);
    let serial = simulate_des(&sim, Pipeline::NoOverlap);
    assert!(split.tflops > la.tflops && la.tflops > serial.tflops);
    // Paper: look-ahead+split worth tens of TFLOPS over no overlap.
    assert!(split.tflops / serial.tflops > 1.3);
}

/// FLOP accounting is identical between config and model params.
#[test]
fn flops_formulas_agree() {
    let params = RunParams::paper_single_node();
    let cfg = HplConfig::new(params.n, params.nb, params.p, params.q);
    assert_eq!(cfg.flops(), params.flops());
}
