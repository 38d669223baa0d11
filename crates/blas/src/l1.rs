//! The serial level-1 BLAS the correctness oracle needs: `idamax` on a
//! contiguous (unit-stride) column. The pipeline's own vectorised level-1
//! kernels are in [`crate::l1simd`].

/// Index of the element with largest absolute value (first on ties),
/// or `None` for an empty slice. This is BLAS `idamax` (0-based).
pub fn idamax(x: &[f64]) -> Option<usize> {
    if x.is_empty() {
        return None;
    }
    let mut best = 0usize;
    let mut bestv = x[0].abs();
    for (i, &v) in x.iter().enumerate().skip(1) {
        let a = v.abs();
        if a > bestv {
            bestv = a;
            best = i;
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idamax_finds_largest_magnitude() {
        assert_eq!(idamax(&[1.0, -5.0, 3.0]), Some(1));
        assert_eq!(idamax(&[]), None);
        // First index wins on ties, matching reference BLAS.
        assert_eq!(idamax(&[2.0, -2.0]), Some(0));
    }
}
