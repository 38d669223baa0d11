//! Multi-node weak scaling (paper Fig 8): simulates the split-update
//! schedule at the paper's node counts and reports scores against perfect
//! scaling.

use serde::Serialize;

use crate::des_hpl::simulate_des;
use crate::node::{NodeModel, RunParams};
use crate::schedule::{Pipeline, Simulator};

/// One point of the weak-scaling study.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ScalePoint {
    /// Node count.
    pub nodes: usize,
    /// Problem size used (HBM-filling).
    pub n: usize,
    /// Global grid.
    pub p: usize,
    /// Global grid.
    pub q: usize,
    /// Achieved score (TFLOPS).
    pub tflops: f64,
    /// Perfect scaling from the single-node score (TFLOPS).
    pub ideal_tflops: f64,
    /// Weak-scaling efficiency.
    pub efficiency: f64,
}

/// Simulates the Fig 8 sweep over `node_counts` (powers of two).
pub fn weak_scaling(node: &NodeModel, node_counts: &[usize]) -> Vec<ScalePoint> {
    let score = |params| simulate_des(&Simulator::new(*node, params), Pipeline::SplitUpdate).tflops;
    let base = score(RunParams::paper_multi_node(node, 1));
    node_counts
        .iter()
        .map(|&nodes| {
            let params = RunParams::paper_multi_node(node, nodes);
            let tflops = score(params);
            let ideal = base * nodes as f64;
            ScalePoint {
                nodes,
                n: params.n,
                p: params.p,
                q: params.q,
                tflops,
                ideal_tflops: ideal,
                efficiency: tflops / ideal,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_matches_paper_fig8() {
        // Paper: 153 TF on one node -> 17.75 PF on 128 nodes, > 90%
        // weak-scaling efficiency.
        let node = NodeModel::frontier();
        let pts = weak_scaling(&node, &[1, 2, 4, 8, 16, 32, 64, 128]);
        assert_eq!(pts[0].efficiency, 1.0);
        for p in &pts {
            assert!(
                p.efficiency > 0.88,
                "nodes={}: efficiency {:.3}",
                p.nodes,
                p.efficiency
            );
            assert!(p.efficiency <= 1.001);
        }
        let last = pts.last().unwrap();
        assert_eq!(last.nodes, 128);
        // 128-node score in the paper: 17.75 PFLOPS.
        assert!(
            (15_000.0..20_000.0).contains(&last.tflops),
            "128-node score {:.0} TF",
            last.tflops
        );
    }

    #[test]
    fn efficiency_declines_with_scale() {
        let node = NodeModel::frontier();
        let pts = weak_scaling(&node, &[1, 8, 128]);
        assert!(pts[1].efficiency <= pts[0].efficiency + 1e-9);
        assert!(pts[2].efficiency <= pts[1].efficiency + 1e-9);
    }
}
