//! HPL-MxP's memory: the run generates its `f32` operand directly and
//! regenerates the `f64` system one column at a time for every refinement
//! residual, so the only matrix it holds is the `f32` slice it factors.
//!
//! `common` installs a counting global allocator; this binary holds one
//! test, so nothing else allocates beside it.

mod common;

use hpl_comm::Universe;
use rhpl_core::HplConfig;

use common::peak_during;

/// At N = 1024 on one rank the `f32` slice is 4.2 MB. The whole MxP run —
/// generation, factorization, solve and every refinement sweep — stays
/// below 1.5 times that; an `f64` copy of the system beside it would put
/// the peak at three times.
#[test]
fn mxp_holds_only_its_f32_matrix() {
    let cfg = HplConfig::new(1024, 64, 1, 1);
    let slice = cfg.n * (cfg.n + 1) * std::mem::size_of::<f32>();
    let (outs, peak) = peak_during(|| {
        Universe::run(1, |comm| {
            let o = hpl_mxp::solve_mxp(comm, &cfg).expect("nonsingular");
            (o.converged, o.sweeps)
        })
    });
    let (converged, sweeps) = outs[0];
    assert!(converged && sweeps >= 1, "sweeps {sweeps}");
    assert!(
        peak >= slice,
        "the counter missed the f32 slice: {peak} < {slice} bytes"
    );
    assert!(
        2 * peak < 3 * slice,
        "solve_mxp held {peak} bytes live, not below 1.5x the {slice}-byte f32 slice"
    );
    eprintln!("mxp peak {peak} bytes; f32 slice {slice} bytes");
}
