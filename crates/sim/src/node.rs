//! Node and run configuration: the Frontier/Crusher node constants and the
//! HPL run parameters the schedule model consumes.

use serde::Serialize;

use crate::cpu::FactModel;
use crate::gpu::{DgemmModel, HbmModel};
use crate::link::LinkModel;

/// Hardware description of one node.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct NodeModel {
    /// GPU dies per node (Frontier: 4 MI250X = 8 GCDs).
    pub gcds: usize,
    /// CPU cores per node.
    pub cores: usize,
    /// Usable HBM per GCD (bytes); 64 GB nominal minus runtime overheads.
    pub hbm_per_gcd: f64,
    /// DGEMM throughput model of one GCD.
    pub dgemm: DgemmModel,
    /// Bandwidth-bound kernel model of one GCD.
    pub hbm: HbmModel,
    /// CPU panel-factorization model.
    pub fact: FactModel,
    /// GCD <-> GCD on-node link.
    pub fabric: LinkModel,
    /// Host <-> GCD link.
    pub host_link: LinkModel,
    /// Per-GCD share of the NIC for inter-node traffic.
    pub nic: LinkModel,
}

impl Default for NodeModel {
    fn default() -> Self {
        Self {
            gcds: 8,
            cores: 64,
            hbm_per_gcd: 60.0e9,
            dgemm: DgemmModel::default(),
            hbm: HbmModel::default(),
            fact: FactModel::default(),
            fabric: LinkModel::infinity_fabric(),
            host_link: LinkModel::host_link(),
            nic: LinkModel::slingshot_per_gcd(),
        }
    }
}

impl NodeModel {
    /// The Frontier/Crusher node.
    pub fn frontier() -> Self {
        Self::default()
    }

    /// A hypothetical next-generation node per the paper's discussion:
    /// "the improvement of computational throughput outpaces inter-process
    /// communication performance". `compute_gen` doublings of GPU compute
    /// (matrix engines + HBM bandwidth, which historically track each
    /// other) against `net_gen` doublings of every link — while CPU speed,
    /// communication latency and HBM *capacity* stay put, which is exactly
    /// the imbalance the paper warns shifts HPL into its latency- and
    /// communication-dominated regime.
    pub fn future(compute_gen: u32, net_gen: u32) -> Self {
        let c = 2.0f64.powi(compute_gen as i32);
        let w = 2.0f64.powi(net_gen as i32);
        let mut n = Self::frontier();
        n.dgemm.peak *= c;
        n.hbm.bandwidth *= c;
        n.fabric.bandwidth *= w;
        n.host_link.bandwidth *= w;
        n.nic.bandwidth *= w;
        n
    }

    /// Largest `N` such that the distributed `N x N` FP64 matrix plus ~10%
    /// workspace fits in the GCDs' HBM across `nodes` nodes.
    pub fn fill_hbm_n(&self, nodes: usize) -> usize {
        let total = self.hbm_per_gcd * (self.gcds * nodes) as f64;
        let usable = total / 1.1;
        let n = (usable / 8.0).sqrt().floor() as usize;
        // Round down to a multiple of a typical NB for tidy iteration counts.
        n - n % 512
    }
}

/// HPL run parameters for the model.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct RunParams {
    /// Global problem size.
    pub n: usize,
    /// Blocking factor.
    pub nb: usize,
    /// Global process rows.
    pub p: usize,
    /// Global process columns.
    pub q: usize,
    /// Node-local process rows (for core time sharing and link selection).
    pub local_p: usize,
    /// Node-local process columns.
    pub local_q: usize,
    /// Number of nodes.
    pub nodes: usize,
    /// Fraction of local columns in the split update's right section
    /// (0 disables the split).
    pub split_frac: f64,
}

impl RunParams {
    /// The paper's single-node configuration (§IV.A): `N = 256000`,
    /// `NB = 512`, `P x Q = 4 x 2`, 50-50 split.
    pub fn paper_single_node() -> Self {
        Self {
            n: 256_000,
            nb: 512,
            p: 4,
            q: 2,
            local_p: 4,
            local_q: 2,
            nodes: 1,
            split_frac: 0.5,
        }
    }

    /// The paper's multi-node configuration (§IV.B) for a given node count
    /// (power of two): grid kept square or 2:1, node-local grid maximizing
    /// process columns (1 x 8 once `Q >= 8`), `N` filling HBM.
    pub fn paper_multi_node(node: &NodeModel, nodes: usize) -> Self {
        assert!(nodes.is_power_of_two(), "paper scales by powers of two");
        let ranks = nodes * node.gcds;
        // Square or 2:1 grid with P >= Q.
        let mut q = (ranks as f64).sqrt() as usize;
        while !ranks.is_multiple_of(q) {
            q -= 1;
        }
        let p = ranks / q;
        let (p, q) = if p >= q { (p, q) } else { (q, p) };
        // Node-local grid: maximize columns up to 8.
        let local_q = q.min(node.gcds);
        let local_p = node.gcds / local_q;
        Self {
            n: node.fill_hbm_n(nodes),
            nb: 512,
            p,
            q,
            local_p,
            local_q,
            nodes,
            split_frac: 0.5,
        }
    }

    /// HPL's FLOP count.
    pub fn flops(&self) -> f64 {
        let n = self.n as f64;
        2.0 / 3.0 * n * n * n + 1.5 * n * n
    }

    /// Number of panel iterations.
    pub fn iterations(&self) -> usize {
        self.n.div_ceil(self.nb)
    }

    /// FACT threads per rank under §III.B time sharing.
    pub fn fact_threads(&self, node: &NodeModel) -> usize {
        let ranks_local = self.local_p * self.local_q;
        let pool = node.cores.saturating_sub(ranks_local);
        1 + pool / self.local_p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_hbm_matches_paper_single_node() {
        // Paper: N = 256000 "effectively fills the HBM capacity" of 4
        // MI250X (8 GCDs): 256000^2 * 8B = 524 GB of 512 GB nominal; our
        // usable-capacity model lands within 10% of the paper's N.
        let node = NodeModel::frontier();
        let n = node.fill_hbm_n(1);
        assert!(
            (n as f64 - 256_000.0).abs() / 256_000.0 < 0.12,
            "fill N = {n}"
        );
    }

    #[test]
    fn paper_single_node_params() {
        let p = RunParams::paper_single_node();
        assert_eq!(p.iterations(), 500);
        assert_eq!(p.fact_threads(&NodeModel::frontier()), 1 + 56 / 4);
    }

    #[test]
    fn multi_node_grids_stay_square_or_2to1() {
        let node = NodeModel::frontier();
        for nodes in [1usize, 2, 4, 8, 16, 32, 64, 128] {
            let p = RunParams::paper_multi_node(&node, nodes);
            assert_eq!(p.p * p.q, nodes * 8);
            let ratio = p.p as f64 / p.q as f64;
            assert!(
                (1.0..=2.0).contains(&ratio),
                "nodes={nodes}: {}x{}",
                p.p,
                p.q
            );
            assert_eq!(p.local_p * p.local_q, 8);
            if p.q >= 8 {
                assert_eq!((p.local_p, p.local_q), (1, 8), "nodes={nodes}");
            }
        }
    }

    #[test]
    fn efficiency_degrades_when_compute_outpaces_the_network() {
        // Paper §V: the fraction of the DGEMM limit achieved falls when GPU
        // compute doubles faster than network bandwidth.
        use crate::des_hpl::simulate_des;
        use crate::schedule::{Pipeline, Simulator};
        let efficiency = |compute_gen, net_gen| {
            let node = NodeModel::future(compute_gen, net_gen);
            let mut params = RunParams::paper_single_node();
            params.n = node.fill_hbm_n(1);
            let r = simulate_des(&Simulator::new(node, params), Pipeline::SplitUpdate);
            let n = params.n as f64;
            let limit = node.gcds as f64 * node.dgemm.flops_rate(n / 4.0, n / 2.0, 512.0) / 1e12;
            r.tflops / limit
        };
        let base = efficiency(0, 0);
        let balanced = efficiency(1, 1);
        let skewed = efficiency(2, 0);
        assert!(
            skewed < balanced && skewed < base,
            "base {base:.3}, balanced {balanced:.3}, skewed {skewed:.3}"
        );
    }

    #[test]
    fn weak_scaling_grows_n_by_sqrt2_per_doubling() {
        let node = NodeModel::frontier();
        let n1 = RunParams::paper_multi_node(&node, 1).n as f64;
        let n4 = RunParams::paper_multi_node(&node, 4).n as f64;
        assert!((n4 / n1 - 2.0).abs() < 0.05);
    }
}
