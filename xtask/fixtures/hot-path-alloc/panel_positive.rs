// Fixture: the in-place panel pack is a hot-path root (loaded at the rel
// path crates/core/src/fixture.rs). Building the broadcast buffer inside
// it, or copying the factored block out through a temporary, is the
// per-panel copy the in-place FACT removed.
pub fn pack_panel_in_place(top: &[f64], cols: &[&[f64]]) -> Vec<f64> {
    let mut buf = Vec::with_capacity(top.len());
    buf.extend_from_slice(top);
    pack_into(cols, &mut buf);
    buf
}

fn pack_into(cols: &[&[f64]], buf: &mut Vec<f64>) {
    for c in cols {
        buf.extend(c.to_vec());
    }
}
