//! The pricing model: the durations of one HPL iteration's phases on the
//! critical-path rank (the diagonal owner), from the calibrated hardware
//! models in [`crate::gpu`], [`crate::cpu`] and [`crate::link`].
//!
//! How the phases overlap is not decided here: [`crate::des_hpl`] turns
//! them into the look-ahead (Fig 3) or split-update (Fig 6) task graph and
//! reads every figure's numbers off the executed trace.

use serde::Serialize;

use crate::link::CollectiveModel;
use crate::node::{NodeModel, RunParams};

/// Which pipeline the model prices.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Pipeline {
    /// Factor, broadcast, swap, update, fully serialized (ablation).
    NoOverlap,
    /// Look-ahead only (Fig 3): FACT/LBCAST hidden, RS exposed.
    LookAhead,
    /// Look-ahead + split update (Fig 6): everything hidden while the left
    /// section lasts.
    SplitUpdate,
}

/// Phase durations of one iteration, before overlap composition.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct Phases {
    /// Look-ahead column update (DTRSM + DGEMM on `NB` local columns).
    pub up_la: f64,
    /// Trailing update on the left section (excluding look-ahead columns).
    pub up_left: f64,
    /// Trailing update on the right section.
    pub up_right: f64,
    /// Row-swap gather/scatter GPU kernels (all sections).
    pub rs_kernels: f64,
    /// Row-swap communication, left section (+ look-ahead).
    pub rs1_comm: f64,
    /// Row-swap communication, right section.
    pub rs2_comm: f64,
    /// CPU factorization (local compute).
    pub fact_cpu: f64,
    /// Pivot-search collectives inside FACT.
    pub fact_comm: f64,
    /// Panel D2H + H2D transfers.
    pub transfer: f64,
    /// Panel broadcast.
    pub lbcast: f64,
}

/// The simulator.
pub struct Simulator {
    /// Hardware model.
    pub node: NodeModel,
    /// Run parameters.
    pub params: RunParams,
}

impl Simulator {
    /// Creates a simulator for `params` on `node`.
    pub fn new(node: NodeModel, params: RunParams) -> Self {
        Self { node, params }
    }

    /// Link used by process-column collectives (pivot search, row swap).
    fn col_coll(&self) -> CollectiveModel {
        let spans_nodes = self.params.p > self.params.local_p;
        let mut link = if spans_nodes {
            self.node.nic
        } else {
            self.node.fabric
        };
        if spans_nodes {
            // Latency grows mildly with machine size (Slingshot dragonfly
            // adds at most a couple of switch hops).
            link.latency *= 1.0 + 0.05 * (self.params.nodes as f64).log2().max(0.0);
        }
        CollectiveModel { link }
    }

    /// Link used by process-row collectives (LBCAST).
    fn row_coll(&self) -> CollectiveModel {
        let spans_nodes = self.params.q > self.params.local_q;
        let mut link = if spans_nodes {
            self.node.nic
        } else {
            self.node.fabric
        };
        if spans_nodes {
            link.latency *= 1.0 + 0.05 * (self.params.nodes as f64).log2().max(0.0);
        }
        CollectiveModel { link }
    }

    /// Local trailing geometry at iteration `it`: `(panel_rows_local,
    /// below_rows_local, trailing_cols_local)`.
    fn geometry(&self, it: usize) -> (f64, f64, f64) {
        let n = self.params.n as f64;
        let nb = self.params.nb as f64;
        let k0 = (it * self.params.nb) as f64;
        let mp = ((n - k0) / self.params.p as f64).max(0.0);
        let m = ((n - k0 - nb) / self.params.p as f64).max(0.0);
        let w = ((n - k0 - nb) / self.params.q as f64).max(0.0);
        (mp, m, w)
    }

    /// Right-section width (local columns), fixed for the whole run.
    fn right_width(&self) -> f64 {
        let w0 = self.params.n as f64 / self.params.q as f64;
        (w0 * self.params.split_frac).max(0.0)
    }

    /// DTRSM + DGEMM time to update `w` local columns with `m` local rows.
    /// The triangular solve runs at roughly half DGEMM efficiency.
    fn up_time(&self, m: f64, w: f64) -> f64 {
        if w <= 0.0 || m <= 0.0 {
            return 0.0;
        }
        let nb = self.params.nb as f64;
        2.0 * self.node.dgemm.time(nb, w, nb) + self.node.dgemm.time(m, w, nb)
    }

    /// Row-swap communication time over `w` local columns.
    fn rs_comm(&self, w: f64) -> f64 {
        if w <= 0.0 {
            return 0.0;
        }
        let p = self.params.p;
        let nb = self.params.nb as f64;
        let coll = self.col_coll();
        let bytes = nb * w * 8.0;
        coll.scatterv(p, bytes / p as f64) + coll.allgatherv(p, bytes)
    }

    /// Raw phase durations at iteration `it` for the given pipeline's
    /// section widths.
    pub fn phases(&self, it: usize, pipeline: Pipeline) -> Phases {
        let nb = self.params.nb as f64;
        let (mp, m, w) = self.geometry(it);
        let w2 = match pipeline {
            Pipeline::SplitUpdate => self.right_width().min(w),
            _ => 0.0,
        };
        let w_left_total = w - w2; // includes the look-ahead columns
        let la = nb.min(w);
        let up_la = self.up_time(m, la);
        let (up_left, up_right) = match pipeline {
            Pipeline::SplitUpdate => (
                self.up_time(m, (w_left_total - la).max(0.0)),
                self.up_time(m, w2),
            ),
            _ => (self.up_time(m, (w - la).max(0.0)), 0.0),
        };
        // FACT with time-shared threads.
        let t = self.params.fact_threads(&self.node);
        let fact_cpu = self.node.fact.time(t, mp, nb);
        let fact_comm = if self.params.p > 1 {
            // One combined maxloc+row collective per column.
            nb * self.col_coll().allreduce(self.params.p, 2.0 * nb * 8.0)
        } else {
            0.0
        };
        // Transfers: panel down + factored panel up.
        let panel_bytes = mp * nb * 8.0;
        let transfer = 2.0 * self.node.host_link.time(panel_bytes);
        // LBCAST: modified one-ring of L2 + L1 + pivots, pipelined across
        // iterations so only the root's sends sit on the critical path.
        let lb_bytes = (mp * nb + nb * nb) * 8.0;
        let lbcast = self
            .row_coll()
            .bcast_ring_pipelined(self.params.q, lb_bytes);
        // Row-swap kernels: gather + scatter over all sections, plus the U
        // pack/unpack. Row access is strided by the leading dimension, so
        // each 8-byte element costs a 64-byte cache line on one side of
        // every pass (6 passes: gather x2 sections, scatter x2, U store,
        // pivot-row writes).
        let rs_kernels = self.node.hbm.time(6.0 * nb * w * (64.0 + 8.0) / 2.0);
        let (rs1_comm, rs2_comm) = match pipeline {
            Pipeline::SplitUpdate => (self.rs_comm(w_left_total), self.rs_comm(w2)),
            _ => (self.rs_comm(w), 0.0),
        };
        Phases {
            up_la,
            up_left,
            up_right,
            rs_kernels,
            rs1_comm,
            rs2_comm,
            fact_cpu,
            fact_comm,
            transfer,
            lbcast,
        }
    }

    /// Whether the split pipeline still has a left section at iteration
    /// `it` (afterwards the right section is the whole trailing matrix and
    /// the iteration runs as plain look-ahead).
    pub(crate) fn split_active(&self, it: usize) -> bool {
        self.geometry(it).2 > self.right_width()
    }

    /// The backsolve epilogue: N^2 flops at memory-bound rates, plus one
    /// collective pair per block row — small but not free.
    pub(crate) fn backsolve(&self) -> f64 {
        let n = self.params.n as f64;
        2.0 * n * n * 8.0 / self.node.hbm.bandwidth / self.params.q as f64
            + self.params.iterations() as f64
                * self
                    .col_coll()
                    .allreduce(self.params.p, self.params.nb as f64 * 8.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des_hpl::{simulate_des, SimResult};

    fn paper_run(pipeline: Pipeline) -> SimResult {
        let sim = Simulator::new(NodeModel::frontier(), RunParams::paper_single_node());
        simulate_des(&sim, pipeline)
    }

    #[test]
    fn single_node_score_matches_paper_band() {
        // Paper §IV.A: 153 TFLOPS average on one Crusher node, i.e. 78% of
        // the 196 TF NB=512 DGEMM limit.
        let per_node = paper_run(Pipeline::SplitUpdate).tflops;
        assert!(
            (145.0..162.0).contains(&per_node),
            "single node score {per_node:.1} TF outside paper band"
        );
    }

    #[test]
    fn two_regimes_with_transition_near_half() {
        // Paper Fig 7: iteration time == GPU time early; transition around
        // iteration 250 of 500 (the 50-50 split point).
        let r = paper_run(Pipeline::SplitUpdate);
        let first_exposed = r
            .iters
            .iter()
            .position(|x| x.time > x.gpu_active * 1.02)
            .expect("tail regime exists");
        assert!(
            (200..300).contains(&first_exposed),
            "transition at iteration {first_exposed}"
        );
        // Early iterations fully hidden.
        assert!(r.iters[10].time <= r.iters[10].gpu_active * 1.02);
        // Tail iterations dominated by fact+mpi+transfer, not GPU.
        let tail = &r.iters[r.iters.len() - 10];
        assert!(tail.gpu_active < tail.time);
    }

    #[test]
    fn split_update_hides_more_than_lookahead_alone() {
        let with = paper_run(Pipeline::SplitUpdate);
        let without = paper_run(Pipeline::LookAhead);
        let serial = paper_run(Pipeline::NoOverlap);
        assert!(
            with.tflops > without.tflops,
            "{} vs {}",
            with.tflops,
            without.tflops
        );
        assert!(without.tflops > serial.tflops);
        // Paper: all MPI hidden for ~75% of execution time with the split.
        assert!(
            (0.55..0.90).contains(&with.hidden_time_fraction),
            "hidden time fraction {}",
            with.hidden_time_fraction
        );
        assert!(with.hidden_iter_fraction > 0.40);
    }

    #[test]
    fn first_regime_throughput_near_90pct_of_dgemm_limit() {
        // Paper: running throughput ~175 TF = 90% of the 196 TF limit in
        // the compute-bound regime.
        let params = RunParams::paper_single_node();
        let r = paper_run(Pipeline::SplitUpdate);
        // Flops of iteration `it`: 2*Nt^2*NB across the whole machine.
        let it = 50usize;
        let n = params.n as f64;
        let nb = params.nb as f64;
        let nt = n - (it as f64) * nb - nb;
        let fl = 2.0 * nt * nt * nb + 2.0 * nt * nb * nb;
        let rate = fl / r.iters[it].time / 1e12;
        assert!((160.0..196.0).contains(&rate), "regime-1 rate {rate:.1} TF");
    }

    #[test]
    fn gpu_active_decreases_monotonically_overall() {
        let r = paper_run(Pipeline::SplitUpdate);
        // Compare decade averages to smooth the split-phase transition.
        let avg = |lo: usize, hi: usize| -> f64 {
            r.iters[lo..hi].iter().map(|x| x.gpu_active).sum::<f64>() / (hi - lo) as f64
        };
        assert!(avg(0, 50) > avg(200, 250));
        assert!(avg(200, 250) > avg(420, 470));
    }
}
