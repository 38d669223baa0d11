// Fixture: the level-3 inner layer is rooted by name (loaded at the rel
// path crates/blas/src/fixture.rs by the engine tests). None of these is
// called from `dgemm` here, so only their own root entries can flag them:
// a microkernel that collects its accumulators, a writeback that stages the
// tile on the heap, a packer that builds the strip in a fresh `Vec`, and a
// TRSM leaf that clones the triangle.
unsafe fn micro_avx512_f64(kc: usize, astrip: &[f64], bstrip: &[f64]) {
    let acc: Vec<f64> = (0..kc).map(|p| astrip[p] * bstrip[p]).collect();
    keep(acc);
}

fn store_tile(acc: &[f64], mr: usize) {
    let staged = acc.to_vec();
    write(staged, mr);
}

fn pack_strips(kc: usize, w: usize, out: &mut [f64]) {
    let strip = vec![0.0f64; kc * w];
    out[..strip.len()].copy_from_slice(&strip);
}

fn trsm_base(n: usize) {
    forward_full(n);
}

fn forward_full(n: usize) {
    let tl = Box::new([0.0f64; 1024]);
    solve(n, &tl);
}
