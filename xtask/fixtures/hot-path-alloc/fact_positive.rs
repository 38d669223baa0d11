// Fixture: FACT's recursion is a hot-path root (loaded at the rel path
// crates/core/src/fixture.rs by the engine tests). Collecting a node's
// split points into a `Vec` allocates once per recursion node.
pub fn rec_factor(lo: usize, hi: usize, ndiv: usize, nbmin: usize) {
    let w = hi - lo;
    if w <= nbmin {
        return;
    }
    let (base, rem) = (w / ndiv, w % ndiv);
    let mut bounds = Vec::with_capacity(ndiv + 1);
    let mut x = lo;
    bounds.push(x);
    for i in 0..ndiv {
        x += base + usize::from(i < rem);
        bounds.push(x);
    }
    for i in 0..ndiv {
        rec_factor(bounds[i], bounds[i + 1], ndiv, nbmin);
    }
}
