// Fixture: the fused rank-1 update and pivot search keeps its running
// maximum in registers and writes only the caller's column.
pub fn axpy_sub_argmax(alpha: f64, x: &[f64], y: &mut [f64]) -> (usize, f64) {
    let mut best = (usize::MAX, f64::NEG_INFINITY);
    for (i, (yi, &xi)) in y.iter_mut().zip(x).enumerate() {
        *yi -= alpha * xi;
        if yi.abs() > best.1 {
            best = (i, yi.abs());
        }
    }
    best
}
