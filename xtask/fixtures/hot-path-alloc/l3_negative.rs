// Fixture: the same inner-layer names doing their work in place — register
// or stack tiles, caller-owned pack buffers, a stack copy of the triangle.
unsafe fn micro_avx512_f64(kc: usize, astrip: &[f64], bstrip: &[f64], tile: &mut [f64; 192]) {
    for p in 0..kc {
        tile[p % 192] += astrip[p] * bstrip[p];
    }
}

fn store_tile(acc: &[f64], mr: usize, c: &mut [f64]) {
    for (ci, &a) in c.iter_mut().zip(&acc[..mr]) {
        *ci += a;
    }
}

fn pack_strips(kc: usize, w: usize, src: &[f64], out: &mut [f64]) {
    out[..kc * w].copy_from_slice(&src[..kc * w]);
}

fn trsm_base(n: usize, t: &[f64], b: &mut [f64]) {
    forward_full(n, t, b);
}

fn forward_full(n: usize, t: &[f64], b: &mut [f64]) {
    let mut tl = [0.0f64; 1024];
    tl[..n * n].copy_from_slice(&t[..n * n]);
    solve(n, &tl, b);
}
