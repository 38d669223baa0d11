// Fixture: the strip generator keeps its lane states in a stack array and
// writes straight into the caller's slice; the slice itself is allocated
// once, at setup, outside every root.
pub fn fill_strip(seed: u64, out: &mut [f64]) {
    let mut lanes = [seed; 8];
    for chunk in out.chunks_exact_mut(8) {
        for (v, lane) in chunk.iter_mut().zip(&mut lanes) {
            *v = *lane as f64;
            *lane = lane.wrapping_add(1);
        }
    }
}

pub fn fill_local(seed: u64, buf: &mut [f64], mloc: usize) {
    for col in buf.chunks_exact_mut(mloc) {
        fill_strip(seed, col);
    }
}

pub fn unfilled(len: usize) -> Vec<f64> {
    // Setup: not reachable from a kernel.
    vec![0.0f64; len]
}
