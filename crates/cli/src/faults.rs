//! Fault-soak execution mode (`--fault` / `--fault-seed`).
//!
//! Runs the sweep with a deterministic fault plan armed on the fabric and
//! prints a machine-readable outcome protocol instead of the classic HPL
//! table, one block per combination:
//!
//! ```text
//! FAULTRUN n=96 nb=16 grid=1x2 seed=42
//! HPLOK residual=3.241587e-2          (clean completion, residual < threshold)
//! HPLERROR kind=rank_failed rank=1 phase=send   (graceful structured failure)
//! FAULTLOG rank=0 events=-
//! FAULTLOG rank=1 events=send#0:death
//! ```
//!
//! Every field on the protocol lines is deterministic for a given plan seed
//! (wall-clock quantities such as `waited_ms` are deliberately omitted), so
//! the `cargo xtask faults` soak can assert byte-identical stdout across
//! repeated runs. Exit code is 0 for all-`HPLOK`, 3 when any combination
//! ends in `HPLERROR`, and 1 for a wrong answer that slipped past the
//! structured error taxonomy (`HPLBAD`, a gate failure).

use std::fmt::Write as _;

use hpl_comm::{FaultedRun, Grid, GridOrder, Tag, Universe};
use hpl_faults::FaultPlan;
use rhpl_core::{run_hpl, verify, HplConfig, HplError, HplResult};

/// Outcome of one faulted combination.
pub struct FaultOutcome {
    /// `Ok(residual)` for a clean completion, `Err(line)` carrying the
    /// already-formatted `HPLERROR`/`HPLBAD` protocol line otherwise.
    pub verdict: Result<f64, String>,
    /// The full stdout block (header + outcome + `FAULTLOG` digest).
    pub block: String,
    /// Restarts the recovery supervisor performed (always 0 in plain
    /// fault-soak mode; see [`crate::recover`]).
    pub recoveries: u64,
}

impl FaultOutcome {
    /// True when this combination completed with a passing residual.
    pub fn ok(&self) -> bool {
        self.verdict.is_ok()
    }

    /// True when the failure was a structured [`HplError`] (exit code 3)
    /// rather than a wrong answer (`HPLBAD`, exit code 1).
    pub fn structured_error(&self) -> bool {
        matches!(&self.verdict, Err(l) if l.starts_with("HPLERROR"))
    }
}

/// Runs one configuration under `plan` and formats its protocol block.
pub fn run_one_faulted(cfg: &HplConfig, plan: FaultPlan, threshold: f64) -> FaultOutcome {
    let run = Universe::run_with_faults(cfg.ranks(), plan, |comm| run_hpl(comm, cfg));
    let mut block = String::new();
    let _ = writeln!(
        block,
        "FAULTRUN n={} nb={} grid={}x{} seed={}",
        cfg.n, cfg.nb, cfg.p, cfg.q, cfg.seed
    );
    let verdict = judge(cfg, &run, threshold);
    match &verdict {
        Ok(residual) => {
            let _ = writeln!(block, "HPLOK residual={residual:.6e}");
        }
        Err(line) => {
            let _ = writeln!(block, "{line}");
        }
    }
    write_faultlog(&mut block, &run.injector, &run.abft_repairs);
    FaultOutcome {
        verdict,
        block,
        recoveries: 0,
    }
}

/// Appends the per-rank `FAULTLOG` digest: the injected-event log, plus a
/// ` repairs=N` suffix for ranks that applied ABFT retransmits (the repair
/// count is deterministic — it is driven by the injected corruption plan —
/// so the soak's byte-identical assertion still holds).
pub(crate) fn write_faultlog(
    block: &mut String,
    injector: &hpl_faults::Injector,
    abft_repairs: &[u64],
) {
    for (rank, events) in injector.all_events().iter().enumerate() {
        let digest = if events.is_empty() {
            "-".to_string()
        } else {
            events
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",")
        };
        let repairs = match abft_repairs.get(rank) {
            Some(&n) if n > 0 => format!(" repairs={n}"),
            _ => String::new(),
        };
        let _ = writeln!(block, "FAULTLOG rank={rank} events={digest}{repairs}");
    }
}

/// Decides the outcome of a faulted run.
///
/// Precedence: a recorded rank death wins (survivor results then carry
/// derived errors), then the lowest-rank structured error, then residual
/// verification of the replicated solution in a clean fault-free universe.
pub(crate) fn judge(
    cfg: &HplConfig,
    run: &FaultedRun<Result<HplResult, HplError>>,
    threshold: f64,
) -> Result<f64, String> {
    if let Some((rank, phase)) = &run.poison {
        return Err(error_line(&HplError::RankFailed {
            rank: *rank,
            phase: phase.clone(),
        }));
    }
    for result in &run.results {
        match result {
            Some(Ok(_)) => {}
            Some(Err(e)) => return Err(error_line(e)),
            // No poison recorded means every rank thread finished.
            None => return Err("HPLBAD missing rank result without poison".to_string()),
        }
    }
    let x = match &run.results[0] {
        Some(Ok(r)) => r.x.clone(),
        // Unreachable: the loop above returned on None / Err.
        _ => return Err("HPLBAD rank 0 produced no solution".to_string()),
    };
    let res = Universe::run(cfg.ranks(), |comm| {
        let grid = Grid::new(comm, cfg.p, cfg.q, GridOrder::ColumnMajor);
        verify(&grid, cfg.n, cfg.nb, cfg.seed, &x)
    });
    let res0 = match res.into_iter().next() {
        Some(Ok(r)) => r,
        Some(Err(e)) => return Err(error_line(&e)),
        None => return Err("HPLBAD empty verification universe".to_string()),
    };
    if res0.passed() && res0.scaled < threshold {
        Ok(res0.scaled)
    } else {
        Err(format!("HPLBAD residual={:.6e}", res0.scaled))
    }
}

/// Formats an [`HplError`] as the deterministic `HPLERROR` protocol line.
/// Wall-clock fields (`waited_ms`) are omitted so repeated runs of the same
/// plan produce byte-identical output.
pub(crate) fn error_line(e: &HplError) -> String {
    match e {
        HplError::Singular { col } => format!("HPLERROR kind=singular col={col}"),
        HplError::RankFailed { rank, phase } => {
            format!("HPLERROR kind=rank_failed rank={rank} phase={phase}")
        }
        HplError::CommTimeout { src, dst, tag, .. } => {
            format!(
                "HPLERROR kind=comm_timeout src={src} dst={dst} {}",
                Tag(*tag)
            )
        }
        HplError::CorruptPayload {
            root,
            rank,
            attempts,
        } => format!("HPLERROR kind=corrupt_payload root={root} rank={rank} attempts={attempts}"),
        HplError::Protocol {
            what,
            expected,
            got,
        } => format!("HPLERROR kind=protocol what={what} expected={expected} got={got}"),
        HplError::Ckpt { what } => format!("HPLERROR kind=ckpt what={what}"),
        HplError::Config { what } => format!("HPLERROR kind=config what={what:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> HplConfig {
        let mut cfg = HplConfig::new(48, 8, 1, 2);
        cfg.seed = 42;
        cfg
    }

    #[test]
    fn clean_plan_reports_hplok() {
        let out = run_one_faulted(&tiny_cfg(), FaultPlan::new(1), 16.0);
        assert!(out.ok(), "{}", out.block);
        assert!(out.block.contains("HPLOK residual="));
        assert!(out.block.contains("FAULTLOG rank=0 events=-"));
    }

    #[test]
    fn death_reports_rank_failed_and_event_digest() {
        let plan = FaultPlan::parse(1, &["death@1:send:0".to_string()]).expect("spec");
        let out = run_one_faulted(&tiny_cfg(), plan, 16.0);
        assert!(!out.ok());
        assert!(out.structured_error(), "{}", out.block);
        assert!(
            out.block.contains("HPLERROR kind=rank_failed rank=1"),
            "{}",
            out.block
        );
        assert!(out.block.contains("FAULTLOG rank=1 events=send#0:death"));
    }

    #[test]
    fn repeated_runs_are_byte_identical() {
        let specs = ["delay:200@0:send:0:sticky".to_string()];
        let a = run_one_faulted(
            &tiny_cfg(),
            FaultPlan::parse(7, &specs).expect("spec"),
            16.0,
        );
        let b = run_one_faulted(
            &tiny_cfg(),
            FaultPlan::parse(7, &specs).expect("spec"),
            16.0,
        );
        assert!(a.ok(), "{}", a.block);
        assert_eq!(a.block, b.block);
    }
}
