//! Calibration scratchpad: prints the key modeled quantities.
use hpl_sim::*;

fn main() {
    let node = NodeModel::frontier();
    let m = DgemmModel::default();
    println!(
        "GCD dgemm rate (30000x16000x512): {:.2} TF; module: {:.2} TF",
        m.flops_rate(30000.0, 16000.0, 512.0) / 1e12,
        2.0 * m.flops_rate(30000.0, 16000.0, 512.0) / 1e12
    );
    let f = FactModel::default();
    for t in [1usize, 2, 4, 8, 16, 32, 64] {
        let g: Vec<String> = [512.0f64, 2048.0, 8192.0, 32768.0, 131072.0]
            .iter()
            .map(|&mm| format!("{:7.1}", f.gflops(t, mm)))
            .collect();
        println!("T={t:2}: {}", g.join(" "));
    }
    let params = RunParams::paper_single_node();
    println!("fact_threads = {}", params.fact_threads(&node));
    let sim = Simulator::new(node, params);
    for pl in [
        Pipeline::NoOverlap,
        Pipeline::LookAhead,
        Pipeline::SplitUpdate,
    ] {
        let r = simulate_des(&sim, pl);
        println!(
            "{:?}: {:.1} TF, hidden iters {:.2}, hidden time {:.2}, total {:.1}s",
            pl, r.tflops, r.hidden_iter_fraction, r.hidden_time_fraction, r.total_time
        );
    }
    let r = simulate_des(&sim, Pipeline::SplitUpdate);
    for it in [0usize, 50, 150, 249, 250, 260, 300, 400, 480, 499] {
        let x = &r.iters[it];
        println!(
            "it {:3}: time {:.4} gpu {:.4} fact {:.4} mpi {:.5} xfer {:.5}",
            x.iter,
            x.time * 1e3,
            x.gpu_active * 1e3,
            x.fact * 1e3,
            x.mpi * 1e3,
            x.transfer * 1e3
        );
    }
    let first_exposed = r.iters.iter().position(|x| x.time > x.gpu_active * 1.02);
    println!("first exposed iter: {:?}", first_exposed);
    println!("-- weak scaling");
    for p in weak_scaling(&node, &[1, 2, 4, 8, 16, 32, 64, 128]) {
        println!(
            "nodes {:3}: N={} {}x{} {:.0} TF eff {:.3}",
            p.nodes, p.n, p.p, p.q, p.tflops, p.efficiency
        );
    }
}
