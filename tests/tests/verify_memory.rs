//! The verifier's memory: `verify` regenerates the original system one
//! column at a time, so while it runs it holds `O(mloc + n)` entries, never
//! a second copy of the local slice.
//!
//! `common` installs a counting global allocator; this binary holds one
//! test, so nothing else allocates beside it.

mod common;

use common::peak_during;
use hpl_comm::{Grid, GridOrder, Universe};
use rhpl_core::{verify, LocalMatrix};

/// At N = 1024 on one rank the local slice is 8.4 MB; `verify` never holds
/// more than an eighth of that. Materializing the slice, as the verifier
/// once did, is measured too, so the counter is seen to count it.
#[test]
fn verify_never_holds_a_second_slice() {
    let (n, nb, seed) = (1024usize, 96usize, 7u64);
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
    let slice = n * (n + 1) * std::mem::size_of::<f64>();
    let out = Universe::run(1, |comm| {
        let grid = Grid::new(comm, 1, 1, GridOrder::ColumnMajor);
        let (res, verify_peak) =
            peak_during(|| verify(&grid, n, nb, seed, &x).expect("fault-free fabric"));
        let (a, materialize_peak) =
            peak_during(|| LocalMatrix::<f64>::generate(n, nb, &grid, seed));
        drop(a);
        (res.scaled.is_finite(), verify_peak, materialize_peak)
    });
    let (finite, verify_peak, materialize_peak) = out[0];
    assert!(finite);
    assert!(
        materialize_peak >= slice,
        "the counter missed the slice: {materialize_peak} < {slice} bytes"
    );
    assert!(
        verify_peak <= slice / 8,
        "verify held {verify_peak} bytes live, more than 1/8 of the {slice}-byte slice"
    );
    eprintln!("verify peak {verify_peak} bytes; local slice {slice} bytes");
}
