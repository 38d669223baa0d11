// Fixture: FACT's recursion computes each piece's split points from the
// piece index, so a recursion node allocates nothing.
pub fn rec_factor(lo: usize, hi: usize, ndiv: usize, nbmin: usize) {
    let w = hi - lo;
    if w <= nbmin {
        return;
    }
    let (base, rem) = (w / ndiv, w % ndiv);
    for i in 0..ndiv {
        let plo = lo + i * base + i.min(rem);
        let phi = plo + base + usize::from(i < rem);
        rec_factor(plo, phi, ndiv, nbmin);
    }
}
