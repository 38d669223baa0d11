// Fixture: the fused rank-1 update and pivot search is a hot-path root
// (loaded at the rel path crates/blas/src/fixture.rs by the engine tests).
// Staging the updated column's magnitudes in a fresh buffer allocates once
// per panel column and tile.
pub fn axpy_sub_argmax(alpha: f64, x: &[f64], y: &mut [f64]) -> (usize, f64) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi -= alpha * xi;
    }
    let mags: Vec<f64> = y.iter().map(|v| v.abs()).collect();
    first_max(&mags)
}

fn first_max(mags: &[f64]) -> (usize, f64) {
    let mut best = (usize::MAX, f64::NEG_INFINITY);
    for (i, &m) in mags.iter().enumerate() {
        if m > best.1 {
            best = (i, m);
        }
    }
    best
}
