// Fixture: the row-swap kernels are hot-path roots (loaded at the rel path
// crates/core/src/fixture.rs by the engine tests). A per-row `Vec` in the
// gather kernel, or a buffer rebuilt on the scatter side, is what the
// column-walk rewrite removed.
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
