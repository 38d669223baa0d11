//! Column-major matrix views.
//!
//! HPL operates on column-major storage with an explicit leading dimension
//! (`lda`), constantly taking submatrix views of one distributed local array.
//! [`MatRef`] and [`MatMut`] capture exactly that: a `(rows, cols, lda)`
//! window into a flat element buffer. Views are constructed from slices (so
//! the borrow checker governs aliasing at the buffer level) and sub-views
//! are produced by consuming/reborrowing splits, which keeps the `unsafe`
//! pointer arithmetic private to this module.
//!
//! All three types are generic over the pipeline [`Element`] with `f64` as
//! the default, so classic-HPL call sites read exactly as before while the
//! mixed-precision path instantiates the same code at `f32`.

use crate::Element;
use core::fmt;
use core::marker::PhantomData;

/// Immutable column-major matrix view with leading dimension `lda >= rows`.
#[derive(Clone, Copy)]
pub struct MatRef<'a, E: Element = f64> {
    ptr: *const E,
    rows: usize,
    cols: usize,
    lda: usize,
    _marker: PhantomData<&'a E>,
}

/// Mutable column-major matrix view with leading dimension `lda >= rows`.
pub struct MatMut<'a, E: Element = f64> {
    ptr: *mut E,
    rows: usize,
    cols: usize,
    lda: usize,
    _marker: PhantomData<&'a mut E>,
}

// A view is a window onto a `&[E]`/`&mut [E]`; sending it to another
// thread is as safe as sending the underlying borrow (`E: Element` is
// `Send + Sync` plain-old-data). `MatMut` is deliberately NOT `Sync`:
// `&MatMut` exposes reads (`get`, `col`) that would race with the owner's
// writes if shared across threads.
// SAFETY: semantically `&[E]` (shared read-only window); `&[E]` is Send.
unsafe impl<E: Element> Send for MatRef<'_, E> {}
// SAFETY: `&MatRef` exposes only reads of plain elements, like `&&[E]`.
unsafe impl<E: Element> Sync for MatRef<'_, E> {}
// SAFETY: semantically `&mut [E]` (exclusive window, the `from_raw_parts`
// contract forbids aliased access to the window); `&mut [E]` is Send.
unsafe impl<E: Element> Send for MatMut<'_, E> {}

#[inline]
fn check_dims(len: usize, rows: usize, cols: usize, lda: usize) {
    assert!(lda >= rows.max(1), "lda ({lda}) must be >= rows ({rows})");
    if rows > 0 && cols > 0 {
        let need = lda
            .checked_mul(cols - 1)
            .and_then(|x| x.checked_add(rows))
            .expect("matrix extent overflows usize");
        assert!(
            len >= need,
            "buffer of len {len} too small for {rows}x{cols} view with lda {lda} (need {need})"
        );
    }
}

impl<'a, E: Element> MatRef<'a, E> {
    /// Views `data` as a `rows x cols` column-major matrix with leading
    /// dimension `lda`. Panics if the buffer is too small.
    #[inline]
    pub fn from_slice(data: &'a [E], rows: usize, cols: usize, lda: usize) -> Self {
        check_dims(data.len(), rows, cols, lda);
        Self {
            ptr: data.as_ptr(),
            rows,
            cols,
            lda,
            _marker: PhantomData,
        }
    }

    /// Builds a view from a raw pointer to element `(0, 0)`.
    ///
    /// # Safety
    /// The window `(rows, cols, lda)` starting at `ptr` must be readable and
    /// unaliased by mutable accesses for the lifetime `'a`.
    #[inline]
    pub unsafe fn from_raw_parts(ptr: *const E, rows: usize, cols: usize, lda: usize) -> Self {
        assert!(lda >= rows.max(1), "lda ({lda}) must be >= rows ({rows})");
        Self {
            ptr,
            rows,
            cols,
            lda,
            _marker: PhantomData,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Leading dimension of the underlying buffer.
    #[inline]
    pub fn lda(&self) -> usize {
        self.lda
    }

    /// `true` if the view contains no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Element `(i, j)` without bounds checks.
    ///
    /// # Safety
    /// `i < rows()` and `j < cols()`.
    #[inline(always)]
    pub unsafe fn get_unchecked(&self, i: usize, j: usize) -> E {
        debug_assert!(i < self.rows && j < self.cols);
        // SAFETY: caller guarantees `(i, j)` is inside the window, so the
        // offset stays within the allocation.
        let p = unsafe { self.ptr.add(j * self.lda + i) };
        // SAFETY: the view's construction guarantees the window is readable.
        unsafe { *p }
    }

    /// Element `(i, j)` with bounds checks.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> E {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of {}x{}",
            self.rows,
            self.cols
        );
        // SAFETY: bounds just asserted.
        unsafe { self.get_unchecked(i, j) }
    }

    /// Column `j` as a contiguous slice.
    #[inline]
    pub fn col(&self, j: usize) -> &'a [E] {
        assert!(j < self.cols, "column {j} out of {}", self.cols);
        // SAFETY: `j` in bounds, so the column start is inside the window.
        let p = unsafe { self.ptr.add(j * self.lda) };
        // SAFETY: each column holds `rows` contiguous readable elements by
        // the view's construction contract.
        unsafe { core::slice::from_raw_parts(p, self.rows) }
    }

    /// Raw pointer to element `(0, 0)`.
    #[inline]
    pub fn as_ptr(&self) -> *const E {
        self.ptr
    }

    /// Sub-view of size `nrows x ncols` starting at `(i, j)`.
    #[inline]
    pub fn submatrix(&self, i: usize, j: usize, nrows: usize, ncols: usize) -> MatRef<'a, E> {
        assert!(
            i + nrows <= self.rows,
            "row window {i}+{nrows} out of {}",
            self.rows
        );
        assert!(
            j + ncols <= self.cols,
            "col window {j}+{ncols} out of {}",
            self.cols
        );
        MatRef {
            // SAFETY: `(i, j)` is inside the window by the asserts above.
            ptr: unsafe { self.ptr.add(j * self.lda + i) },
            rows: nrows,
            cols: ncols,
            lda: self.lda,
            _marker: PhantomData,
        }
    }

    /// Copies the view into a fresh dense `rows*cols` vector (lda == rows).
    pub fn to_vec(&self) -> Vec<E> {
        let mut out = Vec::with_capacity(self.rows * self.cols);
        for j in 0..self.cols {
            out.extend_from_slice(self.col(j));
        }
        out
    }
}

impl<'a, E: Element> MatMut<'a, E> {
    /// Views `data` as a mutable `rows x cols` column-major matrix.
    #[inline]
    pub fn from_slice(data: &'a mut [E], rows: usize, cols: usize, lda: usize) -> Self {
        check_dims(data.len(), rows, cols, lda);
        Self {
            ptr: data.as_mut_ptr(),
            rows,
            cols,
            lda,
            _marker: PhantomData,
        }
    }

    /// Builds a mutable view from a raw pointer to element `(0, 0)`.
    ///
    /// # Safety
    /// The elements of the window `(rows, cols, lda)` starting at `ptr`
    /// (i.e. rows `0..rows` of each of the `cols` columns, *not* the gaps
    /// between columns) must be exclusively accessible through this view
    /// for the lifetime `'a`.
    #[inline]
    pub unsafe fn from_raw_parts(ptr: *mut E, rows: usize, cols: usize, lda: usize) -> Self {
        assert!(lda >= rows.max(1), "lda ({lda}) must be >= rows ({rows})");
        Self {
            ptr,
            rows,
            cols,
            lda,
            _marker: PhantomData,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Leading dimension of the underlying buffer.
    #[inline]
    pub fn lda(&self) -> usize {
        self.lda
    }

    /// `true` if the view contains no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Element `(i, j)` without bounds checks.
    ///
    /// # Safety
    /// `i < rows()` and `j < cols()`.
    #[inline(always)]
    pub unsafe fn get_unchecked(&self, i: usize, j: usize) -> E {
        debug_assert!(i < self.rows && j < self.cols);
        // SAFETY: caller guarantees `(i, j)` is inside the window, so the
        // offset stays within the allocation.
        let p = unsafe { self.ptr.add(j * self.lda + i) };
        // SAFETY: the window is exclusively ours by the view's construction
        // contract, hence readable.
        unsafe { *p }
    }

    /// Writes element `(i, j)` without bounds checks.
    ///
    /// # Safety
    /// `i < rows()` and `j < cols()`.
    #[inline(always)]
    pub unsafe fn set_unchecked(&mut self, i: usize, j: usize, v: E) {
        debug_assert!(i < self.rows && j < self.cols);
        // SAFETY: caller guarantees `(i, j)` is inside the window, so the
        // offset stays within the allocation.
        let p = unsafe { self.ptr.add(j * self.lda + i) };
        // SAFETY: `&mut self` plus the construction contract make the
        // write exclusive.
        unsafe { *p = v };
    }

    /// Element `(i, j)` with bounds checks.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> E {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of {}x{}",
            self.rows,
            self.cols
        );
        // SAFETY: bounds just asserted.
        unsafe { self.get_unchecked(i, j) }
    }

    /// Writes element `(i, j)` with bounds checks.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: E) {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of {}x{}",
            self.rows,
            self.cols
        );
        // SAFETY: bounds just asserted.
        unsafe { self.set_unchecked(i, j, v) }
    }

    /// Column `j` as a contiguous mutable slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [E] {
        assert!(j < self.cols, "column {j} out of {}", self.cols);
        // SAFETY: `j` in bounds, so the column start is inside the window.
        let p = unsafe { self.ptr.add(j * self.lda) };
        // SAFETY: the column's `rows` elements are inside the
        // exclusively-owned window, and `&mut self` prevents overlap with
        // any other slice borrowed from this view.
        unsafe { core::slice::from_raw_parts_mut(p, self.rows) }
    }

    /// Column `j` as a contiguous immutable slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[E] {
        assert!(j < self.cols, "column {j} out of {}", self.cols);
        // SAFETY: `j` in bounds, so the column start is inside the window.
        let p = unsafe { self.ptr.add(j * self.lda) };
        // SAFETY: `&self` keeps writers out for the duration of the
        // returned borrow.
        unsafe { core::slice::from_raw_parts(p, self.rows) }
    }

    /// Raw pointer to element `(0, 0)`.
    #[inline]
    pub fn as_mut_ptr(&mut self) -> *mut E {
        self.ptr
    }

    /// Immutable view of the same window.
    #[inline]
    pub fn as_ref(&self) -> MatRef<'_, E> {
        MatRef {
            ptr: self.ptr,
            rows: self.rows,
            cols: self.cols,
            lda: self.lda,
            _marker: PhantomData,
        }
    }

    /// Reborrows a mutable sub-view of size `nrows x ncols` at `(i, j)`.
    #[inline]
    pub fn submatrix_mut(
        &mut self,
        i: usize,
        j: usize,
        nrows: usize,
        ncols: usize,
    ) -> MatMut<'_, E> {
        assert!(
            i + nrows <= self.rows,
            "row window {i}+{nrows} out of {}",
            self.rows
        );
        assert!(
            j + ncols <= self.cols,
            "col window {j}+{ncols} out of {}",
            self.cols
        );
        MatMut {
            // SAFETY: `(i, j)` is inside the window by the asserts above,
            // and `&mut self` makes the reborrow exclusive.
            ptr: unsafe { self.ptr.add(j * self.lda + i) },
            rows: nrows,
            cols: ncols,
            lda: self.lda,
            _marker: PhantomData,
        }
    }

    /// Splits into non-overlapping `(left, right)` views at column `j`.
    #[inline]
    pub fn split_at_col(self, j: usize) -> (MatMut<'a, E>, MatMut<'a, E>) {
        assert!(j <= self.cols, "split col {j} out of {}", self.cols);
        // SAFETY: `j <= cols`, so column `j` starts inside (or one past)
        // the window; the two halves cover disjoint column ranges.
        let right_ptr = unsafe { self.ptr.add(j * self.lda) };
        (
            MatMut {
                ptr: self.ptr,
                rows: self.rows,
                cols: j,
                lda: self.lda,
                _marker: PhantomData,
            },
            MatMut {
                ptr: right_ptr,
                rows: self.rows,
                cols: self.cols - j,
                lda: self.lda,
                _marker: PhantomData,
            },
        )
    }

    /// Splits into non-overlapping `(top, bottom)` views at row `i`.
    ///
    /// The two views alias distinct rows of the same columns; the shared
    /// `lda` stride keeps them inside the original buffer but disjoint.
    #[inline]
    pub fn split_at_row(self, i: usize) -> (MatMut<'a, E>, MatMut<'a, E>) {
        assert!(i <= self.rows, "split row {i} out of {}", self.rows);
        // SAFETY: `i <= rows`, so the offset stays inside the first
        // column; the halves cover disjoint row ranges of every column.
        let bot_ptr = unsafe { self.ptr.add(i) };
        (
            MatMut {
                ptr: self.ptr,
                rows: i,
                cols: self.cols,
                lda: self.lda,
                _marker: PhantomData,
            },
            MatMut {
                ptr: bot_ptr,
                rows: self.rows - i,
                cols: self.cols,
                lda: self.lda,
                _marker: PhantomData,
            },
        )
    }

    /// Fills the whole view with `v`.
    pub fn fill(&mut self, v: E) {
        for j in 0..self.cols {
            self.col_mut(j).fill(v);
        }
    }
}

impl<E: Element> fmt::Debug for MatRef<'_, E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "MatRef<{}> {}x{} (lda {})",
            E::NAME,
            self.rows,
            self.cols,
            self.lda
        )?;
        for i in 0..self.rows.min(8) {
            for j in 0..self.cols.min(8) {
                write!(f, "{:>12.5} ", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl<E: Element> fmt::Debug for MatMut<'_, E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_ref().fmt(f)
    }
}

/// Owned column-major matrix (lda == rows), the workhorse for tests,
/// workspaces and local matrix storage.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix<E: Element = f64> {
    rows: usize,
    cols: usize,
    data: Vec<E>,
}

impl<E: Element> Matrix<E> {
    /// All-zeros `rows x cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![E::ZERO; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = E::ONE;
        }
        m
    }

    /// Builds from a column-major data vector; `data.len()` must be
    /// `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<E>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Self { rows, cols, data }
    }

    /// Builds element-wise from `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> E) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Re-dimensions the matrix in place for a workspace that is refilled
    /// every use: the storage is kept, so nothing is allocated while
    /// `rows * cols` fits what the matrix has held before. The elements
    /// afterwards are whatever the storage held (zero where it grew).
    pub fn reshape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, E::ZERO);
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> E {
        self.data[j * self.rows + i]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: E) {
        self.data[j * self.rows + i] = v;
    }

    /// Column-major backing storage.
    #[inline]
    pub fn as_slice(&self) -> &[E] {
        &self.data
    }

    /// Mutable column-major backing storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [E] {
        &mut self.data
    }

    /// Full immutable view.
    #[inline]
    pub fn view(&self) -> MatRef<'_, E> {
        MatRef::from_slice(&self.data, self.rows, self.cols, self.rows.max(1))
    }

    /// Full mutable view.
    #[inline]
    pub fn view_mut(&mut self) -> MatMut<'_, E> {
        let (rows, cols) = (self.rows, self.cols);
        MatMut::from_slice(&mut self.data, rows, cols, rows.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_roundtrip() {
        let m = Matrix::from_fn(3, 4, |i, j| (i * 10 + j) as f64);
        let v = m.view();
        assert_eq!(v.rows(), 3);
        assert_eq!(v.cols(), 4);
        for i in 0..3 {
            for j in 0..4 {
                assert_eq!(v.get(i, j), (i * 10 + j) as f64);
            }
        }
    }

    #[test]
    fn f32_views_share_the_generic_path() {
        let m: Matrix<f32> = Matrix::from_fn(3, 3, |i, j| (i + 10 * j) as f32);
        assert_eq!(m.view().get(2, 1), 12.0f32);
        let mut m = m;
        m.view_mut().set(0, 0, -1.5);
        assert_eq!(m.get(0, 0), -1.5f32);
        assert_eq!(Matrix::<f32>::identity(2).get(1, 1), 1.0f32);
    }

    #[test]
    fn submatrix_indexing() {
        let m = Matrix::from_fn(5, 5, |i, j| (i + 100 * j) as f64);
        let v = m.view();
        let s = v.submatrix(1, 2, 3, 2);
        assert_eq!(s.get(0, 0), (1 + 200) as f64);
        assert_eq!(s.get(2, 1), (3 + 300) as f64);
        assert_eq!(s.lda(), 5);
    }

    #[test]
    fn split_at_col_disjoint() {
        let mut m = Matrix::zeros(4, 6);
        let v = m.view_mut();
        let (mut l, mut r) = v.split_at_col(2);
        l.fill(1.0);
        r.fill(2.0);
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(3, 2), 2.0);
        assert_eq!(m.get(0, 5), 2.0);
    }

    #[test]
    fn split_at_row_disjoint() {
        let mut m = Matrix::zeros(6, 3);
        let v = m.view_mut();
        let (mut t, mut b) = v.split_at_row(4);
        t.fill(7.0);
        b.fill(9.0);
        assert_eq!(m.get(3, 2), 7.0);
        assert_eq!(m.get(4, 0), 9.0);
    }

    #[test]
    fn col_slices_are_contiguous() {
        let mut m = Matrix::from_fn(4, 3, |i, j| (i + 10 * j) as f64);
        assert_eq!(m.view().col(1), &[10.0, 11.0, 12.0, 13.0]);
        m.view_mut().col_mut(2)[3] = -1.0;
        assert_eq!(m.get(3, 2), -1.0);
    }

    #[test]
    #[should_panic(expected = "buffer of len")]
    fn from_slice_rejects_short_buffer() {
        let data = vec![0.0; 10];
        let _ = MatRef::<f64>::from_slice(&data, 4, 3, 4);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn submatrix_out_of_bounds_panics() {
        let m = Matrix::<f64>::zeros(3, 3);
        let _ = m.view().submatrix(1, 1, 3, 1);
    }

    #[test]
    fn empty_views_are_fine() {
        let data: Vec<f64> = vec![];
        let v = MatRef::<f64>::from_slice(&data, 0, 0, 1);
        assert!(v.is_empty());
        let m = Matrix::<f64>::zeros(0, 5);
        assert!(m.view().is_empty());
    }

    #[test]
    fn reshape_keeps_the_storage() {
        let mut m = Matrix::<f64>::zeros(4, 6);
        let p = m.as_slice().as_ptr();
        m.reshape(2, 3);
        assert_eq!((m.rows(), m.cols(), m.as_slice().len()), (2, 3, 6));
        m.reshape(3, 8);
        assert_eq!((m.rows(), m.cols(), m.as_slice().len()), (3, 8, 24));
        assert_eq!(m.as_slice().as_ptr(), p, "24 elements were held before");
        m.view_mut().set(2, 7, 1.5);
        assert_eq!(m.get(2, 7), 1.5);
    }

    #[test]
    fn identity_is_identity() {
        let m = Matrix::<f64>::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }
}
