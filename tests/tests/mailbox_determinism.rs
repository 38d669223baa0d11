//! The SPSC mailbox's spill lane is a capacity escape hatch, not a semantic
//! change: a run whose rings hold one message each (so nearly every
//! deposit overflows) must be **bitwise identical** to an uncontended run —
//! same solution vector, same span sequence, same `seq_hash`.
//!
//! The capacity goes through `FabricOpts::mailbox_cap` (via
//! `Universe::run_with_opts`), so one process can construct both fabrics.

use hpl_comm::{FabricOpts, Universe};
use rhpl_core::config::Schedule;
use rhpl_core::{run_hpl, HplConfig};

/// One traced run at the given ring capacity; returns each rank's trace
/// and the root rank's solution vector.
fn traced_run(cfg: &HplConfig, cap: Option<usize>) -> RunOut {
    let mut cfg = cfg.clone();
    cfg.trace = hpl_trace::TraceOpts::on();
    let opts = FabricOpts {
        mailbox_cap: cap,
        ..FabricOpts::default()
    };
    let per_rank = Universe::run_with_opts(cfg.ranks(), opts, |comm| {
        let r = run_hpl(comm, &cfg).expect("nonsingular");
        (r.trace.expect("tracing was enabled"), r.x)
    });
    let traces = per_rank.iter().map(|(t, _)| t.clone()).collect();
    let x = per_rank.into_iter().next().expect("rank 0").1;
    RunOut { traces, x }
}

struct RunOut {
    traces: Vec<hpl_trace::Trace>,
    x: Vec<f64>,
}

#[test]
fn spill_pressure_does_not_change_the_answer() {
    let mut cfg = HplConfig::new(160, 32, 2, 2);
    cfg.schedule = Schedule::SplitUpdate { frac: 0.5 };
    cfg.fact.threads = 2;
    cfg.seed = 77;
    let tiny = traced_run(&cfg, Some(1));
    let wide = traced_run(&cfg, None);
    assert_eq!(tiny.x.len(), wide.x.len());
    for (i, (a, b)) in tiny.x.iter().zip(&wide.x).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "x[{i}] diverged under spill");
    }
    assert_eq!(
        hpl_trace::report::seq_hash(&tiny.traces),
        hpl_trace::report::seq_hash(&wide.traces)
    );
}
