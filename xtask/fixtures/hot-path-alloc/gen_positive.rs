// Fixture: the strip generator is a hot-path root (loaded at the rel path
// crates/core/src/fixture.rs by the engine tests). Lane states kept in a
// `Vec` instead of an array, or a strip staged through a fresh buffer, is
// an allocation per strip.
pub fn fill_strip(seed: u64, out: &mut [f64]) {
    let mut lanes: Vec<u64> = vec![seed; 8];
    for chunk in out.chunks_exact_mut(8) {
        for (v, lane) in chunk.iter_mut().zip(lanes.iter_mut()) {
            *v = *lane as f64;
            *lane = lane.wrapping_add(1);
        }
    }
}

pub fn fill_local(seed: u64, buf: &mut [f64], mloc: usize) {
    for col in buf.chunks_exact_mut(mloc) {
        let staged: Vec<f64> = col.iter().map(|_| 0.0).collect();
        col.copy_from_slice(&staged);
        fill_strip(seed, col);
    }
}
