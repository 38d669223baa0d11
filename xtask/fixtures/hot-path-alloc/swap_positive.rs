// Fixture: the row-swap kernels are hot-path roots (loaded at the rel path
// crates/core/src/fixture.rs by the engine tests). A per-row `Vec` in the
// gather kernel, a buffer rebuilt on the scatter side, or a fresh column in
// the one-walk kernel is what the column-walk rewrites removed.
fn gather_cols(rows: &[usize], w: usize) {
    for &r in rows {
        let row: Vec<f64> = (0..w).map(|j| load(r, j)).collect();
        keep(row);
    }
}

pub fn apply_moves(rows: &[usize], vals: &[f64]) {
    let staged = vals.to_vec();
    scatter_cols(rows, &staged);
}

fn scatter_cols(rows: &[usize], vals: &[f64]) {
    for (&r, &v) in rows.iter().zip(vals) {
        store(r, v);
    }
}

fn swap_cols(src: &[usize], dst: &[usize], w: usize) {
    for j in 0..w {
        let col = vec![0.0f64; src.len()];
        move_rows(j, src, dst, &col);
    }
}
