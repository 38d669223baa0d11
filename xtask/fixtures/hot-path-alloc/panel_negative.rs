// Fixture: the in-place panel pack fills a buffer its caller sized; the
// allocation lives in the driver, which no root reaches.
pub fn pack_panel_in_place(top: &[f64], cols: &[&[f64]], buf: &mut Vec<f64>) {
    buf.clear();
    buf.extend_from_slice(top);
    pack_into(cols, buf);
}

fn pack_into(cols: &[&[f64]], buf: &mut Vec<f64>) {
    for c in cols {
        buf.extend_from_slice(c);
    }
}

pub fn fact_and_bcast(top: &[f64], cols: &[&[f64]], len: usize) -> Vec<f64> {
    let mut buf = Vec::with_capacity(len);
    pack_panel_in_place(top, cols, &mut buf);
    buf
}
