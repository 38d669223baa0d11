//! The HPL schedule as a task graph on the discrete-event engine: every
//! iteration's phases, priced by [`Simulator::phases`], become tasks on
//! four exclusive resources (GPU stream, CPU, copy engine, NIC), with the
//! dependency edges of the serialized, look-ahead (Fig 3) or split-update
//! (Fig 6) pipeline. Overlap is an emergent property of the graph, and
//! every figure's numbers — the Fig 7 per-iteration records, the score and
//! the hidden fractions — are read off the executed trace.
//!
//! The graph also models contention: LBCAST and row-swap traffic share the
//! NIC resource (the paper's stated concern with Tan et al.'s extra-thread
//! pipelining is exactly such congestion).

use serde::Serialize;

use crate::des::{Des, ResourceId, TaskId, Trace};
use crate::schedule::{Pipeline, Simulator};

/// The critical rank's resources, in registration order; the names are
/// also the rows of the Gantt charts.
pub const RESOURCES: [&str; 4] = ["GPU", "CPU", "XFER", "NET"];
const GPU: ResourceId = ResourceId(0);
const CPU: ResourceId = ResourceId(1);
const XFER: ResourceId = ResourceId(2);
const NET: ResourceId = ResourceId(3);

/// One iteration's timing record (the Fig 7 series), read off the trace.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct IterRecord {
    /// Iteration index.
    pub iter: usize,
    /// When the iteration's window opens: the end of the previous
    /// iteration's last trailing update (for iteration 0, the end of the
    /// panel-0 prologue).
    pub start: f64,
    /// Window length: iteration wall time on the critical rank (seconds).
    pub time: f64,
    /// GPU busy time inside the window.
    pub gpu_active: f64,
    /// CPU panel-factorization time of this iteration's panel.
    pub fact: f64,
    /// MPI time (pivot collectives + LBCAST + row-swap communication).
    pub mpi: f64,
    /// Host<->device transfer time.
    pub transfer: f64,
}

/// A simulated run: the executed trace and everything the figures read
/// from it.
#[derive(Clone, Debug, Serialize)]
pub struct SimResult {
    /// The executed trace, one span per task.
    pub trace: Trace,
    /// Per-iteration records.
    pub iters: Vec<IterRecord>,
    /// Total run time, fill and backsolve included (seconds).
    pub total_time: f64,
    /// Benchmark score in TFLOPS.
    pub tflops: f64,
    /// Fraction of *iterations* where communication + CPU work is fully
    /// hidden by GPU activity (paper: ~50% of iterations single-node).
    pub hidden_iter_fraction: f64,
    /// Fraction of *execution time* spent in fully-hidden iterations
    /// (paper: ~75% single-node with the split update).
    pub hidden_time_fraction: f64,
}

/// Which Fig 7 series a task's duration is charged to, on its panel's
/// record. GPU work is counted instead by the GPU's busy time inside each
/// iteration's window.
#[derive(Clone, Copy)]
enum Charge {
    Gpu,
    Fact,
    Mpi,
    Transfer,
}

/// Carried dependencies between iterations.
#[derive(Default)]
struct Carry {
    /// Panel availability on all ranks (LBCAST completion).
    lbcast: Option<TaskId>,
    /// Prefetched right-section row-swap communication.
    rs2_comm: Option<TaskId>,
    /// Last trailing-update task of the previous iteration.
    last_update: Option<TaskId>,
}

/// The graph under construction: the engine plus each task's charge.
struct Graph<'a> {
    sim: &'a Simulator,
    des: Des,
    /// Per task id: the panel whose record it is charged to, and how.
    charges: Vec<(usize, Charge)>,
}

/// Builds and runs the full-benchmark task graph under `pipeline`
/// (`NoOverlap` factors each panel only after the previous update) and
/// derives the run's records from the trace.
pub fn simulate_des(sim: &Simulator, pipeline: Pipeline) -> SimResult {
    let mut g = Graph {
        sim,
        des: Des::new(),
        charges: Vec::new(),
    };
    for name in RESOURCES {
        g.des.resource(name);
    }
    let iters = sim.params.iterations();
    let split = |it| pipeline == Pipeline::SplitUpdate && sim.split_active(it);

    // Prologue (pipeline fill): factor + broadcast panel 0, and prefetch
    // its right-section row swap.
    let lb0 = g.panel_chain(0, &[]);
    let mut carry = Carry {
        lbcast: Some(lb0),
        ..Carry::default()
    };
    if split(0) {
        let ph = sim.phases(0, Pipeline::SplitUpdate);
        let gather = g.task(
            GPU,
            Charge::Gpu,
            "rs2-gather",
            0,
            ph.rs_kernels / 4.0,
            &[lb0],
        );
        carry.rs2_comm = Some(g.task(NET, Charge::Mpi, "rs2-comm", 0, ph.rs2_comm, &[gather]));
    }
    let fill = g.charges.len();

    let mut last = Vec::with_capacity(iters);
    for it in 0..iters {
        let update = if split(it) {
            g.split_iteration(it, &mut carry)
        } else {
            g.lookahead_iteration(it, &mut carry, pipeline)
        };
        carry.last_update = Some(update);
        last.push(update);
    }
    g.task(
        GPU,
        Charge::Gpu,
        "backsolve",
        iters,
        sim.backsolve(),
        &last[iters - 1..],
    );

    let trace = g.des.run();
    g.records(trace, fill, &last)
}

impl Graph<'_> {
    fn task(
        &mut self,
        on: ResourceId,
        charge: Charge,
        name: &str,
        panel: usize,
        secs: f64,
        deps: &[TaskId],
    ) -> TaskId {
        self.charges.push((panel, charge));
        self.des.task(on, format!("{name}:{panel}"), secs, deps)
    }

    /// D2H -> FACT (+ its pivot collectives) -> H2D -> LBCAST for `panel`,
    /// gated on `deps`; returns the broadcast.
    fn panel_chain(&mut self, panel: usize, deps: &[TaskId]) -> TaskId {
        let ph = self.sim.phases(panel, Pipeline::LookAhead);
        let half = ph.transfer / 2.0;
        let d2h = self.task(XFER, Charge::Transfer, "d2h", panel, half, deps);
        let fact = self.task(CPU, Charge::Fact, "fact", panel, ph.fact_cpu, &[d2h]);
        let pivot = self.task(CPU, Charge::Mpi, "pivot", panel, ph.fact_comm, &[fact]);
        let h2d = self.task(XFER, Charge::Transfer, "h2d", panel, half, &[pivot]);
        self.task(NET, Charge::Mpi, "lbcast", panel, ph.lbcast, &[h2d])
    }

    /// The next panel's chain, gated on `dep`, unless `it` is the last
    /// iteration.
    fn next_panel(&mut self, it: usize, dep: TaskId) -> Option<TaskId> {
        (it + 1 < self.sim.params.iterations()).then(|| self.panel_chain(it + 1, &[dep]))
    }

    /// Fig 3 iteration: RS exposed, the next panel's host chain under
    /// UPDATE. With `Pipeline::NoOverlap` the chain instead waits for the
    /// update, serializing everything.
    fn lookahead_iteration(&mut self, it: usize, carry: &mut Carry, pipeline: Pipeline) -> TaskId {
        let ph = self.sim.phases(it, Pipeline::LookAhead);
        let k = ph.rs_kernels / 2.0;
        let mut deps = vec![carry.lbcast.take().expect("panel broadcast exists")];
        deps.extend(carry.last_update);
        // A leftover RS2 prefetch (transition out of the split) lands first.
        deps.extend(carry.rs2_comm.take());
        let gather = self.task(GPU, Charge::Gpu, "rs-gather", it, k, &deps);
        let comm = self.task(NET, Charge::Mpi, "rs-comm", it, ph.rs1_comm, &[gather]);
        let scatter = self.task(GPU, Charge::Gpu, "rs-scatter", it, k, &[comm]);
        let up_la = self.task(GPU, Charge::Gpu, "up-la", it, ph.up_la, &[scatter]);
        let overlap = pipeline != Pipeline::NoOverlap;
        if overlap {
            carry.lbcast = self.next_panel(it, up_la);
        }
        let rest = ph.up_left + ph.up_right;
        let update = self.task(GPU, Charge::Gpu, "update", it, rest, &[up_la]);
        if !overlap {
            carry.lbcast = self.next_panel(it, update);
        }
        update
    }

    /// Fig 6 iteration: RS1 and the host chain under UPDATE2; the next RS2
    /// prefetch under UPDATE1.
    fn split_iteration(&mut self, it: usize, carry: &mut Carry) -> TaskId {
        let ph = self.sim.phases(it, Pipeline::SplitUpdate);
        let k = ph.rs_kernels / 4.0; // per-section gather/scatter kernel cost
        let mut deps = vec![carry.lbcast.take().expect("panel broadcast exists")];
        deps.extend(carry.last_update);
        // 1. Scatter the prefetched right-section rows.
        let mut rs2 = vec![carry
            .rs2_comm
            .take()
            .expect("split iteration has a prefetched RS2")];
        rs2.extend(carry.last_update);
        let scatter2 = self.task(GPU, Charge::Gpu, "rs2-scatter", it, k, &rs2);
        // 2. Look-ahead section swap + update (the look-ahead is one block
        // column, a small fraction of the left section).
        let la_gather = self.task(GPU, Charge::Gpu, "rsla-gather", it, k * 0.1, &deps);
        let la_comm = self.task(
            NET,
            Charge::Mpi,
            "rsla-comm",
            it,
            ph.rs1_comm * 0.1,
            &[la_gather],
        );
        let la_scatter = self.task(GPU, Charge::Gpu, "rsla-scatter", it, k * 0.1, &[la_comm]);
        let up_la = self.task(GPU, Charge::Gpu, "up-la", it, ph.up_la, &[la_scatter]);
        // 3. Next panel's host chain (hidden under UPDATE2 on the GPU).
        let lbn = self.next_panel(it, up_la);
        carry.lbcast = lbn;
        // 4. RS1: gathered at iteration start, communicated under UPDATE2
        // once the host thread has factored and broadcast the next panel.
        let mut rs1 = vec![self.task(GPU, Charge::Gpu, "rs1-gather", it, k, &deps)];
        rs1.extend(lbn);
        let rs1_comm = self.task(NET, Charge::Mpi, "rs1-comm", it, ph.rs1_comm, &rs1);
        let rs1_scatter = self.task(GPU, Charge::Gpu, "rs1-scatter", it, k, &[rs1_comm]);
        // 5. UPDATE2 (right section).
        let up2 = self.task(GPU, Charge::Gpu, "up2", it, ph.up_right, &[scatter2, up_la]);
        // 6. Prefetch RS2 for the next iteration: needs the next panel's
        // pivots, i.e. its broadcast. (The prefetch also covers the
        // transition iteration, where the right section is the whole
        // trailing matrix.)
        if let Some(lbn) = lbn {
            let rs2n = self.sim.phases(it + 1, Pipeline::SplitUpdate).rs2_comm;
            let g = self.task(GPU, Charge::Gpu, "rs2-gather", it + 1, k, &[up2, lbn]);
            carry.rs2_comm = Some(self.task(NET, Charge::Mpi, "rs2-comm", it + 1, rs2n, &[g]));
        }
        // 7. UPDATE1 (left section), hiding the RS2 prefetch communication.
        self.task(GPU, Charge::Gpu, "up1", it, ph.up_left, &[rs1_scatter, up2])
    }

    /// Derives the run's records from its trace. Iteration `it`'s window
    /// runs from the end of iteration `it - 1`'s last update (for `it = 0`,
    /// the end of the first `fill` tasks, the prologue) to the end of its
    /// own last update `last[it]`.
    fn records(self, trace: Trace, fill: usize, last: &[TaskId]) -> SimResult {
        let fill_end = trace.spans[..fill]
            .iter()
            .map(|s| s.end)
            .fold(0.0, f64::max);
        let bounds: Vec<f64> = std::iter::once(fill_end)
            .chain(last.iter().map(|&t| trace.span(t).end))
            .collect();
        let mut iters: Vec<IterRecord> = bounds
            .windows(2)
            .enumerate()
            .map(|(iter, w)| IterRecord {
                iter,
                start: w[0],
                time: w[1] - w[0],
                ..IterRecord::default()
            })
            .collect();
        for (s, &(panel, charge)) in trace.spans.iter().zip(&self.charges) {
            let secs = s.end - s.start;
            match charge {
                Charge::Gpu => {
                    // Split the span over the windows it overlaps.
                    let mut it = bounds.partition_point(|&b| b <= s.start).saturating_sub(1);
                    while it < iters.len() && bounds[it] < s.end {
                        iters[it].gpu_active += s.end.min(bounds[it + 1]) - s.start.max(bounds[it]);
                        it += 1;
                    }
                }
                Charge::Fact => iters[panel].fact += secs,
                Charge::Mpi => iters[panel].mpi += secs,
                Charge::Transfer => iters[panel].transfer += secs,
            }
        }
        let hidden = |r: &&IterRecord| r.time <= r.gpu_active * 1.02;
        let hidden_iters = iters.iter().filter(hidden).count();
        let hidden_time: f64 = iters.iter().filter(hidden).map(|r| r.time).sum();
        let total = trace.makespan;
        SimResult {
            tflops: self.sim.params.flops() / total / 1e12,
            hidden_iter_fraction: hidden_iters as f64 / iters.len().max(1) as f64,
            hidden_time_fraction: hidden_time / total,
            total_time: total,
            iters,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{NodeModel, RunParams};

    fn sim() -> Simulator {
        Simulator::new(NodeModel::frontier(), RunParams::paper_single_node())
    }

    #[test]
    fn des_pipeline_ordering_matches_paper() {
        let s = sim();
        let split = simulate_des(&s, Pipeline::SplitUpdate);
        let la = simulate_des(&s, Pipeline::LookAhead);
        let serial = simulate_des(&s, Pipeline::NoOverlap);
        assert!(
            split.tflops > la.tflops && la.tflops > serial.tflops,
            "split {:.1} > lookahead {:.1} > serial {:.1}",
            split.tflops,
            la.tflops,
            serial.tflops
        );
        // Paper: look-ahead+split worth tens of TFLOPS over no overlap.
        assert!(split.tflops / serial.tflops > 1.3);
    }

    #[test]
    fn gpu_utilization_high_in_first_regime() {
        // While the split is active the GPU should be nearly saturated:
        // compare GPU busy time against the first-regime span.
        let r = simulate_des(&sim(), Pipeline::SplitUpdate);
        let t_regime1 = r.iters[236].start;
        let gpu_busy: f64 = r
            .trace
            .spans
            .iter()
            .filter(|sp| sp.resource == GPU && sp.end <= t_regime1)
            .map(|sp| sp.end - sp.start)
            .sum();
        let util = gpu_busy / t_regime1;
        assert!(util > 0.93, "regime-1 GPU utilization {util:.3}");
    }

    #[test]
    fn fact_overlaps_update_in_the_trace() {
        // The emergent Fig 3/6 property: fact(i+1) runs while update(i)
        // runs on the GPU.
        let r = simulate_des(&sim(), Pipeline::SplitUpdate);
        let find = |label: &str| r.trace.spans.iter().find(|sp| sp.label == label).unwrap();
        let fact = find("fact:51");
        let up2 = find("up2:50");
        let overlap = fact.end.min(up2.end) - fact.start.max(up2.start);
        assert!(
            overlap > 0.5 * (fact.end - fact.start),
            "fact:51 [{:.4},{:.4}] vs up2:50 [{:.4},{:.4}]",
            fact.start,
            fact.end,
            up2.start,
            up2.end
        );
    }

    #[test]
    fn iteration_completions_are_monotone() {
        let r = simulate_des(&sim(), Pipeline::SplitUpdate);
        assert_eq!(r.iters.len(), 500);
        assert!(r.iters.iter().all(|x| x.time > 0.0));
        assert!(r.iters.windows(2).all(|w| w[0].start < w[1].start));
    }

    #[test]
    fn half_split_is_optimal() {
        // Paper §III.C: "splitting the local A matrix in half ... works
        // optimally". A smaller right section cannot hide the host chain
        // and RS1, which UPDATE1 must wait for.
        let score = |split_frac| {
            let params = RunParams {
                split_frac,
                ..RunParams::paper_single_node()
            };
            simulate_des(
                &Simulator::new(NodeModel::frontier(), params),
                Pipeline::SplitUpdate,
            )
            .tflops
        };
        let half = score(0.5);
        for frac in [0.125, 0.25, 0.375, 0.625, 0.75] {
            assert!(score(frac) < half, "frac {frac} beats the 50-50 split");
        }
    }

    #[test]
    fn records_account_for_the_whole_run() {
        // The windows tile the run between the prologue and the backsolve,
        // and each iteration charges exactly its panel's priced phases.
        let s = sim();
        for pipeline in [
            Pipeline::NoOverlap,
            Pipeline::LookAhead,
            Pipeline::SplitUpdate,
        ] {
            let r = simulate_des(&s, pipeline);
            let last = r.iters.last().unwrap();
            let solve = r.trace.spans.last().unwrap();
            assert_eq!(solve.start, last.start + last.time, "{pipeline:?}");
            assert!((r.total_time - solve.end).abs() < 1e-12);
            for x in &r.iters {
                let ph = s.phases(x.iter, Pipeline::LookAhead);
                assert!((x.fact - ph.fact_cpu).abs() < 1e-12);
                assert!((x.transfer - ph.transfer).abs() < 1e-12);
                assert!(x.gpu_active <= x.time * (1.0 + 1e-12));
            }
        }
    }
}
