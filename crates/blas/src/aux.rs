//! LAPACK-style row interchange — [`swap_rows`], which the serial
//! [`crate::lu`] oracle applies — generic over the pipeline [`Element`].

use crate::mat::MatMut;
use crate::Element;

/// Swaps rows `r1` and `r2` of `a`.
pub fn swap_rows<E: Element>(a: &mut MatMut<'_, E>, r1: usize, r2: usize) {
    if r1 == r2 {
        return;
    }
    for j in 0..a.cols() {
        let col = a.col_mut(j);
        col.swap(r1, r2);
    }
}
