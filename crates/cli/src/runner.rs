//! Executes the Cartesian sweep an `HPL.dat` describes and collects one
//! result record per combination, exactly like the reference `xhpl` binary.

use hpl_blas::ElementSel;
use hpl_comm::{FabricOpts, Grid, LinkStat, TransportSel, Universe};
use rhpl_core::config::Schedule;
use rhpl_core::{run_hpl_system, verify_system, FactOpts, HplConfig, HplError, System};

use crate::dat::JobSpec;

/// Result of one benchmark combination.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Configuration that produced this record.
    pub cfg: HplConfig,
    /// Encoded variant name (the classic `T/V` column).
    pub tv: String,
    /// Wall time (seconds).
    pub time: f64,
    /// Score in GFLOPS.
    pub gflops: f64,
    /// Minor page faults the process took over the `time` clock (rank 0's
    /// count, which is process-wide: it covers every in-process rank).
    pub minor_faults: u64,
    /// HPL scaled residual.
    pub residual: f64,
    /// Whether the residual beat the threshold.
    pub passed: bool,
    /// Communication retries (timed-out receive rounds that were re-polled),
    /// summed over ranks.
    pub retries: u64,
    /// Restarts the recovery supervisor performed (0 outside supervised
    /// fault runs).
    pub recoveries: u64,
    /// Element type the factorization ran in (`"f64"` / `"f32"`).
    pub element: &'static str,
    /// Digest of the answer (`hpl_trace::report::x_hash` over the solution
    /// and the pivot log).
    pub x_hash: u64,
    /// Mixed-precision extras; `Some` only for `--mxp` runs.
    pub mxp: Option<MxpStats>,
    /// Transport the run's universe used (`inproc` / `shm` / `tcp`).
    pub transport: &'static str,
    /// Per-directed-link transport counters of the run's universe, which
    /// also carried its verification (empty under the in-process fabric,
    /// which moves no bytes).
    pub links: Vec<LinkStat>,
    /// Per-rank phase traces (empty unless `cfg.trace.enabled`).
    pub traces: Vec<hpl_trace::Trace>,
}

impl RunRecord {
    /// Benchmark mode this record came from: `"mxp"` when the run was the
    /// mixed-precision benchmark, `"hpl"` for the classic pipeline.
    pub fn mode(&self) -> &'static str {
        if self.mxp.is_some() {
            "mxp"
        } else {
            "hpl"
        }
    }
}

/// The HPL-MxP side of a [`RunRecord`]: what the f32 factorization cost and
/// how the f64 refinement closed the accuracy gap.
#[derive(Clone, Debug)]
pub struct MxpStats {
    /// Refinement sweeps performed after the initial f32 solve.
    pub sweeps: usize,
    /// Wall time of generating the system, the f32 factorization and the
    /// initial solve (seconds): the MxP clock up to its first sweep.
    pub fact_seconds: f64,
    /// HPL flop count over [`MxpStats::fact_seconds`] (GFLOPS).
    pub fact_gflops: f64,
    /// Scaled residual after each sweep, starting with the pure-f32 solve.
    pub history: Vec<f64>,
}

/// Encodes the classic `T/V` column: `W` (wall time), `R`/`C` (process
/// mapping), look-ahead depth, broadcast code, NDIV, PFACT initial, NBMIN.
pub fn encode_tv(cfg: &HplConfig, depth: usize) -> String {
    let order = match cfg.order {
        hpl_comm::GridOrder::RowMajor => 'R',
        hpl_comm::GridOrder::ColumnMajor => 'C',
    };
    let bcast = match cfg.bcast {
        hpl_comm::BcastAlgo::OneRing => '0',
        hpl_comm::BcastAlgo::OneRingM => '1',
        hpl_comm::BcastAlgo::TwoRing => '2',
        hpl_comm::BcastAlgo::TwoRingM => '3',
        hpl_comm::BcastAlgo::Long => '4',
        hpl_comm::BcastAlgo::LongM => '5',
    };
    let pf = match cfg.fact.variant {
        rhpl_core::FactVariant::Left => 'L',
        rhpl_core::FactVariant::Crout => 'C',
        rhpl_core::FactVariant::Right => 'R',
    };
    format!(
        "W{order}{depth}{bcast}{}{pf}{}",
        cfg.fact.ndiv, cfg.fact.nbmin
    )
}

/// Expands the sweep into concrete configurations (with their depths).
pub fn expand(
    spec: &JobSpec,
    seed: u64,
    split_frac: f64,
    threads: usize,
) -> Vec<(HplConfig, usize)> {
    let mut out = Vec::new();
    for &n in &spec.ns {
        for &nb in &spec.nbs {
            for &(p, q) in &spec.grids {
                for &variant in &spec.pfacts {
                    for &nbmin in &spec.nbmins {
                        for &ndiv in &spec.ndivs {
                            for &bcast in &spec.bcasts {
                                for &depth in &spec.depths {
                                    let mut cfg = HplConfig::new(n, nb, p, q);
                                    cfg.seed = seed;
                                    cfg.order = spec.order;
                                    cfg.bcast = bcast;
                                    cfg.swap = spec.swap;
                                    cfg.fact = FactOpts {
                                        variant,
                                        ndiv,
                                        nbmin,
                                        threads,
                                    };
                                    cfg.schedule = if depth == 0 {
                                        Schedule::Simple
                                    } else if split_frac > 0.0 {
                                        Schedule::SplitUpdate { frac: split_frac }
                                    } else {
                                        Schedule::LookAhead
                                    };
                                    out.push((cfg, depth));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Runs one configuration at pipeline element `elem` and verifies it, on
/// the transport `RHPL_TRANSPORT` selects ([`run_one_on`]).
pub fn run_one(
    cfg: &HplConfig,
    depth: usize,
    threshold: f64,
    elem: ElementSel,
) -> Result<RunRecord, HplError> {
    run_one_on(hpl_comm::env_transport_sel(), cfg, depth, threshold, elem)
}

/// Runs one configuration at pipeline element `elem` on transport `sel`
/// and verifies it in the same universe: the solution is replicated on
/// every rank, so each rank goes straight on to the collective residual
/// check, and the record's link counters cover the run and its check.
/// Any rank's solve or verification failure propagates as the typed
/// [`HplError`] so the caller (the CLI driver) keeps its recovery and
/// reporting options instead of aborting the whole sweep. Each rank's
/// phase trace is kept in the record (present only when
/// `cfg.trace.enabled`; index = rank, the order `Universe::run` returns).
///
/// Under [`ElementSel::F32`] the whole elimination runs in single precision
/// and the residual gate scales by `f32::EPSILON` — the precision the
/// answer actually carries (the classic `f64` gate would reject every f32
/// run; recovering double accuracy from f32 factors is [`run_one_mxp`]'s
/// job).
pub fn run_one_on(
    sel: TransportSel,
    cfg: &HplConfig,
    depth: usize,
    threshold: f64,
    elem: ElementSel,
) -> Result<RunRecord, HplError> {
    let system = System::Seeded(cfg.seed);
    let eps = match elem {
        ElementSel::F64 => f64::EPSILON,
        ElementSel::F32 => f32::EPSILON as f64,
    };
    let results = Universe::run_with_transport(cfg.ranks(), sel, FabricOpts::default(), |comm| {
        let solved = match elem {
            ElementSel::F64 => run_hpl_system::<f64>(comm.clone(), cfg, system),
            ElementSel::F32 => run_hpl_system::<f32>(comm.clone(), cfg, system),
        }?;
        let grid = Grid::new(comm, cfg.p, cfg.q, cfg.order);
        let res = verify_system(&grid, cfg.n, cfg.nb, system, &solved.x, eps)?;
        Ok::<_, HplError>((solved, res))
    });
    let links = links_of(sel);
    let (mut results, res): (Vec<_>, Vec<_>) = results
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .unzip();
    let res = res[0];
    let traces = results.iter_mut().filter_map(|r| r.trace.take()).collect();
    Ok(RunRecord {
        cfg: cfg.clone(),
        tv: encode_tv(cfg, depth),
        time: results[0].wall,
        gflops: results[0].gflops,
        minor_faults: results[0].minor_faults,
        residual: res.scaled,
        passed: res.scaled < threshold,
        retries: results.iter().map(|r| r.retries).sum(),
        recoveries: 0,
        element: results[0].element,
        x_hash: results[0].x_hash,
        mxp: None,
        transport: sel.name(),
        links,
        traces,
    })
}

/// The link counters of the universe that just ran on `sel`. The
/// in-process fabric records none, so under it an earlier transport run's
/// counters are not reported as this run's.
fn links_of(sel: TransportSel) -> Vec<LinkStat> {
    if sel == TransportSel::Inproc {
        Vec::new()
    } else {
        hpl_comm::last_run_link_stats()
    }
}

/// Runs one configuration as the HPL-MxP benchmark: f32 factorization via
/// the full distributed pipeline, f64 refinement sweeps to double accuracy,
/// judged by HPL's residual gate at `f64::EPSILON`. The MxP clock
/// ([`hpl_mxp::MxpOutput::wall`]) holds generation, factorization, initial
/// solve and every sweep; the last sweep's residual is the verification,
/// so there is no separate verify pass outside it.
pub fn run_one_mxp(cfg: &HplConfig, depth: usize, threshold: f64) -> Result<RunRecord, HplError> {
    let sel = hpl_comm::env_transport_sel();
    let results = Universe::run(cfg.ranks(), |comm| hpl_mxp::solve_mxp(comm, cfg));
    let links = links_of(sel);
    let mut results = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    let traces = results.iter_mut().filter_map(|r| r.trace.take()).collect();
    let r0 = &results[0];
    Ok(RunRecord {
        cfg: cfg.clone(),
        tv: encode_tv(cfg, depth),
        time: r0.wall,
        gflops: r0.gflops,
        minor_faults: r0.minor_faults,
        residual: r0.residuals.scaled,
        passed: r0.converged && r0.residuals.scaled < threshold,
        retries: results.iter().map(|r| r.retries).sum(),
        recoveries: 0,
        element: r0.element,
        x_hash: r0.x_hash,
        mxp: Some(MxpStats {
            sweeps: r0.sweeps,
            fact_seconds: r0.fact_seconds,
            fact_gflops: r0.fact_gflops,
            history: r0.history.clone(),
        }),
        transport: sel.name(),
        links,
        traces,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dat::{parse, SAMPLE};

    #[test]
    fn expansion_is_cartesian() {
        let mut spec = parse(SAMPLE).unwrap();
        spec.ns = vec![64, 128];
        spec.nbs = vec![8, 16];
        spec.bcasts = vec![hpl_comm::BcastAlgo::OneRing, hpl_comm::BcastAlgo::Long];
        let cfgs = expand(&spec, 1, 0.5, 1);
        assert_eq!(cfgs.len(), 2 * 2 * 2);
    }

    #[test]
    fn tv_encoding() {
        let spec = parse(SAMPLE).unwrap();
        let (cfg, depth) = expand(&spec, 1, 0.5, 1).remove(0);
        assert_eq!(encode_tv(&cfg, depth), "WC112R16");
    }

    #[test]
    fn tiny_run_passes() {
        let mut spec = parse(SAMPLE).unwrap();
        spec.ns = vec![96];
        spec.nbs = vec![16];
        let (cfg, depth) = expand(&spec, 42, 0.5, 1).remove(0);
        let rec = run_one(&cfg, depth, spec.threshold, ElementSel::F64).expect("clean run");
        assert!(rec.passed, "residual {}", rec.residual);
        assert!(rec.gflops > 0.0);
    }
}
