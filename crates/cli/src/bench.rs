//! The `BENCH_hpl.json` emitter: serializes a sweep's phase traces into the
//! stable schema that `benchmark/` and the CLI tests read.
//!
//! Schema (`rhpl-bench-v1`) — one file per invocation:
//!
//! ```json
//! {
//!   "schema": "rhpl-bench-v1",
//!   "aggregate_gflops": 1.23,
//!   "runs": [{
//!     "tv": "WC112R16", "n": 192, "nb": 32, "p": 2, "q": 2,
//!     "schedule": "split-update:0.5", "threads": 2, "swap": "ring",
//!     "mode": "hpl", "element": "f64",
//!     "fact_seconds": 0.0, "fact_gflops": 0.0, "sweeps": 0,
//!     "wall_seconds": 0.01, "minor_faults": 120, "gflops": 1.2,
//!     "residual": 0.003, "passed": true,
//!     "overlap_efficiency": 0.4, "seq_hash": "0x1234abcd...",
//!     "x_hash": "0x5678ef01...",
//!     "dropped_spans": 0,
//!     "phase_totals": { "fact_ns": 1, "fact_comm_ns": 1, ... },
//!     "iterations": [{ "iter": 0, "phases": { ... } }],
//!     "ranks": [{ "rank": 0, "dropped": 0, "spans": [{ "iter": 0,
//!       "phase": "Fact", "start_ns": 1, "dur_ns": 2, "bytes": 0,
//!       "hidden": false }] }]
//!   }]
//! }
//! ```
//!
//! The per-iteration table is the critical-path view (per-rank phase sums,
//! maxima across ranks) matching the paper's Fig 7; `overlap_efficiency` is
//! hidden-comm-time / total-comm-time (see `hpl_trace::report`).

use hpl_trace::report::{
    iteration_table, overlap_efficiency, phase_totals, rank_traces, seq_hash, IterRow, PhaseTotals,
    RankTrace,
};

use crate::runner::RunRecord;

/// Schema identifier written to every file; bump on breaking changes.
pub const SCHEMA: &str = "rhpl-bench-v1";

/// Top level of `BENCH_hpl.json`.
#[derive(Debug, serde::Serialize)]
pub struct BenchFile {
    /// Schema identifier ([`SCHEMA`]).
    pub schema: String,
    /// HPL-accounted FLOPs of all runs over their summed wall time.
    pub aggregate_gflops: f64,
    /// One entry per sweep combination.
    pub runs: Vec<RunReport>,
}

/// One benchmark combination with its trace-derived metrics.
#[derive(Debug, serde::Serialize)]
pub struct RunReport {
    /// Classic `T/V` code identifying the variant.
    pub tv: String,
    /// Problem size.
    pub n: usize,
    /// Blocking factor.
    pub nb: usize,
    /// Grid rows.
    pub p: usize,
    /// Grid columns.
    pub q: usize,
    /// Schedule name (`simple`, `lookahead`, `split-update:<frac>`).
    pub schedule: String,
    /// FACT threads per rank (`--threads`).
    pub threads: usize,
    /// Row-swap algorithm (HPL.dat `SWAP`): `ring`, `bin-exch` or
    /// `mix:<threshold>`.
    pub swap: String,
    /// Benchmark mode: `hpl` (classic FP64) or `mxp` (mixed precision).
    pub mode: String,
    /// Element type the factorization ran in (`f64` / `f32`).
    pub element: String,
    /// Wall time of the low-precision factorization + initial solve
    /// (seconds; 0 outside `--mxp`).
    pub fact_seconds: f64,
    /// GFLOPS over the low-precision factorization alone — the
    /// mixed-precision headline rate (0 outside `--mxp`).
    pub fact_gflops: f64,
    /// Refinement sweeps to double accuracy (0 outside `--mxp`).
    pub sweeps: u64,
    /// DGEMM microkernel the process resolved to (`scalar` / `simd`).
    pub kernel: String,
    /// Transport the run's universe used (`inproc` / `shm` / `tcp`, from
    /// `RHPL_TRANSPORT`).
    pub transport: String,
    /// Per-directed-link transport counters of the run's universe, which
    /// also carried its verification (empty under the in-process fabric,
    /// which moves no bytes).
    pub links: Vec<LinkReport>,
    /// Wall time of factorization + solve (seconds).
    pub wall_seconds: f64,
    /// Minor page faults over the `wall_seconds` clock
    /// (`getrusage(RUSAGE_SELF)`, taken at the same two instants). The
    /// count is process-wide, so it covers every rank of the run (ranks
    /// are threads of this process) and their pool workers. Not part of
    /// `seq_hash`.
    pub minor_faults: u64,
    /// HPL score.
    pub gflops: f64,
    /// Scaled residual.
    pub residual: f64,
    /// Residual beat the threshold.
    pub passed: bool,
    /// Communication retries (timed-out receive rounds), summed over ranks.
    pub retries: u64,
    /// Supervisor restarts that contributed to this run (0 outside the
    /// fault-recovery path).
    pub recoveries: u64,
    /// Hidden-comm-time / total-comm-time over all ranks.
    pub overlap_efficiency: f64,
    /// Deterministic hash of the phase sequence (hex), durations excluded.
    pub seq_hash: String,
    /// Deterministic hash of the answer (hex): solution bits, then the
    /// pivot log.
    pub x_hash: String,
    /// Ring-buffer evictions summed over ranks (0 unless the run was longer
    /// than the trace ring, `hpl_trace::CAPACITY` spans).
    pub dropped_spans: u64,
    /// Critical-path aggregate: per-rank phase sums, maxima across ranks.
    pub phase_totals: PhaseTotals,
    /// Per-iteration critical-path phase table (Fig 7).
    pub iterations: Vec<IterRow>,
    /// The raw per-rank span streams.
    pub ranks: Vec<RankTrace>,
}

/// One directed transport link's byte/frame/latency counters.
#[derive(Debug, serde::Serialize)]
pub struct LinkReport {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Encoded frame bytes sent (headers + payload + trailers).
    pub bytes: u64,
    /// Frames sent.
    pub frames: u64,
    /// Cumulative wall time spent inside transport sends (nanoseconds).
    pub send_ns: u64,
}

/// Builds one [`RunReport`] from a finished record.
pub fn run_report(rec: &RunRecord) -> RunReport {
    let schedule = match rec.cfg.schedule {
        rhpl_core::config::Schedule::Simple => "simple".to_string(),
        rhpl_core::config::Schedule::LookAhead => "lookahead".to_string(),
        rhpl_core::config::Schedule::SplitUpdate { frac } => format!("split-update:{frac}"),
    };
    let swap = match rec.cfg.swap {
        rhpl_core::RowSwapAlgo::Mix { threshold } => format!("mix:{threshold}"),
        algo => algo.name().to_string(),
    };
    RunReport {
        tv: rec.tv.clone(),
        n: rec.cfg.n,
        nb: rec.cfg.nb,
        p: rec.cfg.p,
        q: rec.cfg.q,
        schedule,
        threads: rec.cfg.fact.threads,
        swap,
        mode: rec.mode().to_string(),
        element: rec.element.to_string(),
        fact_seconds: rec.mxp.as_ref().map_or(0.0, |m| m.fact_seconds),
        fact_gflops: rec.mxp.as_ref().map_or(0.0, |m| m.fact_gflops),
        sweeps: rec.mxp.as_ref().map_or(0, |m| m.sweeps as u64),
        kernel: hpl_blas::kernels::active().name().to_string(),
        transport: rec.transport.to_string(),
        links: rec
            .links
            .iter()
            .map(|l| LinkReport {
                src: l.src,
                dst: l.dst,
                bytes: l.bytes,
                frames: l.frames,
                send_ns: l.send_ns,
            })
            .collect(),
        wall_seconds: rec.time,
        minor_faults: rec.minor_faults,
        gflops: rec.gflops,
        residual: rec.residual,
        passed: rec.passed,
        retries: rec.retries,
        recoveries: rec.recoveries,
        overlap_efficiency: overlap_efficiency(&rec.traces),
        seq_hash: format!("{:#018x}", seq_hash(&rec.traces)),
        x_hash: format!("{:#018x}", rec.x_hash),
        dropped_spans: rec.traces.iter().map(|t| t.dropped).sum(),
        phase_totals: phase_totals(&rec.traces),
        iterations: iteration_table(&rec.traces, rec.cfg.iterations()),
        ranks: rank_traces(&rec.traces),
    }
}

/// Assembles the whole file from a sweep's records.
pub fn bench_file(records: &[RunRecord]) -> BenchFile {
    let flops: f64 = records.iter().map(|r| r.cfg.flops()).sum();
    let wall: f64 = records.iter().map(|r| r.time).sum();
    BenchFile {
        schema: SCHEMA.to_string(),
        aggregate_gflops: if wall > 0.0 { flops / wall / 1e9 } else { 0.0 },
        runs: records.iter().map(run_report).collect(),
    }
}

/// Serializes and writes `BENCH_hpl.json` to `path`.
pub fn write_bench_json(records: &[RunRecord], path: &str) -> std::io::Result<()> {
    let file = bench_file(records);
    let json = serde_json::to_string(&file).expect("bench schema serializes infallibly");
    std::fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dat::{parse, SAMPLE};
    use crate::runner::{expand, run_one};
    use hpl_blas::ElementSel;

    #[test]
    fn traced_run_produces_well_formed_report() {
        let mut spec = parse(SAMPLE).unwrap();
        spec.ns = vec![96];
        spec.nbs = vec![16];
        let (mut cfg, depth) = expand(&spec, 42, 0.5, 1).remove(0);
        cfg.trace = hpl_trace::TraceOpts::on();
        let rec = run_one(&cfg, depth, spec.threshold, ElementSel::F64).expect("clean run");
        assert!(rec.passed);
        assert_eq!(rec.traces.len(), cfg.ranks());
        let report = run_report(&rec);
        assert_eq!(report.iterations.len(), cfg.iterations());
        // Every iteration's critical path spends time in the row swap and
        // UPDATE; FACT appears in every iteration except the last, whose
        // panel was factored ahead of time under the look-ahead schedule
        // (spans attribute to the iteration in which the work executes).
        for row in &report.iterations {
            assert!(row.phases.row_swap_ns > 0, "iter {} missing RS", row.iter);
            assert!(row.phases.update_ns > 0, "iter {} missing UPDATE", row.iter);
        }
        let last = report.iterations.len() - 1;
        for row in &report.iterations[..last] {
            assert!(row.phases.fact_ns > 0, "iter {} missing FACT", row.iter);
            assert!(row.phases.bcast_ns > 0, "iter {} missing LBCAST", row.iter);
        }
        // The split-update schedule hides comm; the metric must see it.
        assert!(report.overlap_efficiency > 0.0);
        assert_eq!(report.dropped_spans, 0);
        let json = serde_json::to_string(&bench_file(&[rec])).unwrap();
        assert!(json.contains("\"schema\":\"rhpl-bench-v1\""));
        assert!(json.contains("\"phase\":\"Update\""));
    }

    #[test]
    fn untraced_record_serializes_empty_trace_sections() {
        let mut spec = parse(SAMPLE).unwrap();
        spec.ns = vec![64];
        spec.nbs = vec![16];
        let (cfg, depth) = expand(&spec, 42, 0.0, 1).remove(0);
        let rec = run_one(&cfg, depth, spec.threshold, ElementSel::F64).expect("clean run");
        assert!(rec.traces.is_empty());
        let report = run_report(&rec);
        assert_eq!(report.overlap_efficiency, 0.0);
        assert!(report.ranks.is_empty());
    }
}
