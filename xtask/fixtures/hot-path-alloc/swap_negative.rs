// Fixture: the row-swap kernels write into caller-owned buffers; sizing
// those buffers happens at setup, outside every root.
fn gather_cols(rows: &[usize], w: usize, out: &mut [f64]) {
    for j in 0..w {
        for (o, &r) in out[j * rows.len()..].iter_mut().zip(rows) {
            *o = load(r, j);
        }
    }
}

pub fn apply_moves(rows: &[usize], vals: &[f64]) {
    scatter_cols(rows, vals);
}

fn scatter_cols(rows: &[usize], vals: &[f64]) {
    for (&r, &v) in rows.iter().zip(vals) {
        store(r, v);
    }
}

fn swap_cols(src: &[usize], dst: &[usize], w: usize, col_buf: &mut [f64]) {
    for j in 0..w {
        for (o, &r) in col_buf.iter_mut().zip(src) {
            *o = load(r, j);
        }
        for (&r, &v) in dst.iter().zip(col_buf.iter()) {
            store(r, v);
        }
    }
}

pub fn for_sections(jb: usize, width: usize) -> Vec<f64> {
    // Setup: not reachable from a kernel.
    vec![0.0f64; jb * width]
}
