//! Row-major multi-vector blocks for batched SpMV (SpMM).
//!
//! Single-vector SpMV is memory-bandwidth-bound: every apply re-streams
//! the whole matrix for one dot product per row. A [`DenseBlock`] holds
//! `K` right-hand sides side by side in **row-major** layout — element
//! `(i, k)` at `data[i * stride + k]` — so a kernel that has gathered one
//! matrix entry `A[r, c]` can broadcast it against the `K` contiguous
//! values of input row `c`, amortising the matrix traversal over `K`
//! outputs. Column-major (one `Vec` per vector) would make those `K`
//! loads `rows`-strided gathers; row-major makes them one cache line.
//!
//! `stride >= k` is explicit so callers can operate on a sub-block of a
//! wider allocation (e.g. the first 8 columns of a 32-wide buffer)
//! without copying — the batched kernels only ever index
//! `i * stride + k` with `k < k()`, never the slack.

use crate::scalar::Scalar;

/// `rows × k` dense block of `K` column vectors, stored row-major with an
/// explicit row stride (`stride >= k`; slack beyond `k` is never read or
/// written by the kernels).
#[derive(Clone, Debug, PartialEq)]
pub struct DenseBlock<T> {
    rows: usize,
    k: usize,
    stride: usize,
    data: Vec<T>,
}

impl<T: Scalar> DenseBlock<T> {
    /// A zero-filled `rows × k` block with the tight stride `k`.
    pub fn zeros(rows: usize, k: usize) -> Self {
        Self::zeros_strided(rows, k, k)
    }

    /// A zero-filled `rows × k` block with an explicit row stride.
    ///
    /// # Panics
    ///
    /// Panics if `stride < k` (unless both are zero) or the total size
    /// overflows.
    pub fn zeros_strided(rows: usize, k: usize, stride: usize) -> Self {
        assert!(stride >= k, "row stride {stride} shorter than width {k}");
        let len = rows.checked_mul(stride).expect("dense block too large");
        Self {
            rows,
            k,
            stride,
            data: vec![T::ZERO; len],
        }
    }

    /// Build a block from `k` equal-length column vectors (the layout
    /// transpose: `out[i][j] = columns[j][i]`), in one streaming pass
    /// (see [`gather_columns`](Self::gather_columns)).
    ///
    /// # Panics
    ///
    /// Panics if the columns have unequal lengths.
    pub fn from_columns(columns: &[Vec<T>]) -> Self {
        let rows = columns.first().map_or(0, |c| c.len());
        let mut block = Self::zeros(rows, columns.len());
        block.gather_columns(columns);
        block
    }

    /// Reshape to `rows × k` with the tight stride `k`, reusing the
    /// allocation: a block kept across batches grows to the largest shape
    /// it has held and never reallocates below it. Element values are
    /// unspecified afterwards (stale or zero); callers overwrite every
    /// element, as [`gather_columns`](Self::gather_columns) and the
    /// batched kernels do.
    ///
    /// # Panics
    ///
    /// Panics if the total size overflows.
    pub fn reshape(&mut self, rows: usize, k: usize) {
        let len = rows.checked_mul(k).expect("dense block too large");
        self.data.resize(len, T::ZERO);
        self.rows = rows;
        self.k = k;
        self.stride = k;
    }

    /// Elements the allocation holds without growing (at least the
    /// current `rows × stride`).
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Release allocation beyond `max(len, rows × stride)` elements: the
    /// counterpart of [`reshape`](Self::reshape) for a long-lived block
    /// whose largest shape is no longer needed.
    pub fn shrink_to(&mut self, len: usize) {
        self.data.shrink_to(len);
    }

    /// Overwrite this block with the transpose of `columns`, reshaping it
    /// to `len × columns.len()` (tight stride) in place. One pass over the
    /// rows writes the block sequentially while reading the `K` columns as
    /// `K` forward streams; widths up to 8 (the serving batch bound) run a
    /// const-`K` loop with the row fully unrolled. Writing column by
    /// column instead strides the whole block once per column.
    ///
    /// # Panics
    ///
    /// Panics if the columns have unequal lengths.
    pub fn gather_columns<C: AsRef<[T]>>(&mut self, columns: &[C]) {
        let rows = columns.first().map_or(0, |c| c.as_ref().len());
        assert!(
            columns.iter().all(|c| c.as_ref().len() == rows),
            "columns of unequal length"
        );
        self.reshape(rows, columns.len());
        let out = &mut self.data;
        match columns.len() {
            0 => {}
            1 => out.copy_from_slice(columns[0].as_ref()),
            2 => gather_rows::<T, C, 2>(out, columns),
            3 => gather_rows::<T, C, 3>(out, columns),
            4 => gather_rows::<T, C, 4>(out, columns),
            5 => gather_rows::<T, C, 5>(out, columns),
            6 => gather_rows::<T, C, 6>(out, columns),
            7 => gather_rows::<T, C, 7>(out, columns),
            8 => gather_rows::<T, C, 8>(out, columns),
            k => {
                for (i, row) in out.chunks_exact_mut(k).enumerate() {
                    for (x, col) in row.iter_mut().zip(columns) {
                        *x = col.as_ref()[i];
                    }
                }
            }
        }
    }

    /// Split the block into its `k` columns, each a fresh contiguous
    /// vector (the inverse of [`gather_columns`](Self::gather_columns)).
    /// Rows are visited in tiles small enough to stay in L1, and each
    /// tile is read once per column while that column's output is
    /// appended sequentially, so the block streams from memory once
    /// rather than once per column as `k` calls to
    /// [`column`](Self::column) do.
    pub fn split_columns(&self) -> Vec<Vec<T>> {
        /// Rows per tile: 256 rows × 8 columns × 8 bytes = 16 KiB.
        const TILE_ROWS: usize = 256;
        let mut columns: Vec<Vec<T>> = (0..self.k).map(|_| Vec::with_capacity(self.rows)).collect();
        for r0 in (0..self.rows).step_by(TILE_ROWS) {
            let r1 = (r0 + TILE_ROWS).min(self.rows);
            let tile = &self.data[r0 * self.stride..r1 * self.stride];
            for (j, col) in columns.iter_mut().enumerate() {
                col.extend(tile.chunks_exact(self.stride).map(|row| row[j]));
            }
        }
        columns
    }

    /// Fill every addressable element `(i, k)` with values from `f(i, k)`.
    /// Stride slack is left untouched.
    pub fn fill_with(&mut self, mut f: impl FnMut(usize, usize) -> T) {
        for i in 0..self.rows {
            for j in 0..self.k {
                self.data[i * self.stride + j] = f(i, j);
            }
        }
    }

    /// Number of rows (the vector length).
    pub fn n_rows(&self) -> usize {
        self.rows
    }

    /// Number of vectors held side by side (`K`).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Row stride in elements (`>= k`).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Row `i`: the `k` values `(i, 0..k)`, contiguous.
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.stride..i * self.stride + self.k]
    }

    /// Mutable row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        &mut self.data[i * self.stride..i * self.stride + self.k]
    }

    /// Copy column `j` out into a contiguous vector.
    pub fn column(&self, j: usize) -> Vec<T> {
        assert!(j < self.k, "column {j} out of bounds (k = {})", self.k);
        (0..self.rows)
            .map(|i| self.data[i * self.stride + j])
            .collect()
    }

    /// Overwrite column `j` from a contiguous vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= k` or `col.len() != n_rows`.
    pub fn set_column(&mut self, j: usize, col: &[T]) {
        assert!(j < self.k, "column {j} out of bounds (k = {})", self.k);
        assert_eq!(col.len(), self.rows, "column length != rows");
        for (i, &x) in col.iter().enumerate() {
            self.data[i * self.stride + j] = x;
        }
    }

    /// The backing storage (row-major, including stride slack).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable backing storage.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }
}

/// `out[i * K + j] = columns[j][i]` for a compile-time width `K`: the
/// inner loop unrolls into `K` loads and one contiguous `K`-element store.
fn gather_rows<T: Scalar, C: AsRef<[T]>, const K: usize>(out: &mut [T], columns: &[C]) {
    let rows = out.len() / K;
    let cols: [&[T]; K] = std::array::from_fn(|j| &columns[j].as_ref()[..rows]);
    for (i, row) in out.chunks_exact_mut(K).enumerate() {
        for j in 0..K {
            row[j] = cols[j][i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_columns_through_rows() {
        let cols = vec![
            vec![1.0f64, 2.0, 3.0],
            vec![10.0, 20.0, 30.0],
            vec![-1.0, -2.0, -3.0],
        ];
        let b = DenseBlock::from_columns(&cols);
        assert_eq!((b.n_rows(), b.k(), b.stride()), (3, 3, 3));
        assert_eq!(b.row(1), &[2.0, 20.0, -2.0]);
        for (j, col) in cols.iter().enumerate() {
            assert_eq!(&b.column(j), col);
        }
    }

    /// Columns whose every element is distinct, so a transposed index
    /// shows up as a wrong value.
    fn columns(rows: usize, k: usize) -> Vec<Vec<f64>> {
        (0..k)
            .map(|j| (0..rows).map(|i| (i * 16 + j) as f64 + 0.5).collect())
            .collect()
    }

    #[test]
    fn gather_and_split_round_trip_every_width() {
        // Row counts off every tile multiple (the split tiles by 256),
        // widths across the const-K arms and the generic fallback.
        let mut reused = DenseBlock::<f64>::zeros(0, 0);
        for rows in [0usize, 1, 3, 255, 257, 1031] {
            for k in 1..=9 {
                let cols = columns(rows, k);
                let fresh = DenseBlock::from_columns(&cols);
                assert_eq!((fresh.n_rows(), fresh.k(), fresh.stride()), (rows, k, k));
                for i in 0..rows {
                    let want: Vec<f64> = cols.iter().map(|c| c[i]).collect();
                    assert_eq!(fresh.row(i), want.as_slice(), "rows {rows}, k {k}, row {i}");
                }
                assert_eq!(fresh.split_columns(), cols, "rows {rows}, k {k}");
                // A reused block holding a different shape (grown or
                // shrunk, stale contents) gathers to the same block.
                reused.gather_columns(&cols);
                assert_eq!(reused, fresh, "reused gather, rows {rows}, k {k}");
            }
        }
    }

    #[test]
    fn split_reads_strided_blocks_and_borrowed_columns_gather() {
        let mut b = DenseBlock::<f32>::zeros_strided(300, 3, 5);
        b.fill_with(|i, j| (i * 10 + j) as f32);
        let split = b.split_columns();
        assert_eq!(split.len(), 3);
        for (j, col) in split.iter().enumerate() {
            assert_eq!(col, &b.column(j));
        }
        let borrowed: Vec<&[f32]> = split.iter().map(|c| c.as_slice()).collect();
        let mut g = DenseBlock::<f32>::zeros(7, 7);
        g.gather_columns(&borrowed);
        assert_eq!((g.n_rows(), g.k(), g.stride()), (300, 3, 3));
        assert_eq!(g.split_columns(), split);
    }

    #[test]
    fn reshape_reuses_the_allocation() {
        let mut b = DenseBlock::<f64>::zeros(100, 8);
        let ptr = b.as_slice().as_ptr();
        b.reshape(40, 3);
        assert_eq!(
            (b.n_rows(), b.k(), b.stride(), b.as_slice().len()),
            (40, 3, 3, 120)
        );
        b.reshape(100, 8);
        assert_eq!(b.as_slice().as_ptr(), ptr, "shrink-then-grow reallocated");
    }

    #[test]
    #[should_panic(expected = "unequal length")]
    fn gather_rejects_ragged_columns() {
        DenseBlock::<f64>::zeros(0, 0).gather_columns(&[vec![1.0, 2.0], vec![3.0]]);
    }

    #[test]
    fn strided_blocks_keep_slack_untouched() {
        let mut b = DenseBlock::<f32>::zeros_strided(4, 2, 5);
        b.fill_with(|i, j| (i * 10 + j) as f32);
        assert_eq!(b.row(2), &[20.0, 21.0]);
        // Slack positions stay at their initial zero.
        assert_eq!(b.as_slice()[2 * 5 + 2], 0.0);
        let mut c = b.clone();
        c.set_column(1, &[9.0, 9.0, 9.0, 9.0]);
        assert_eq!(c.column(1), vec![9.0; 4]);
        assert_eq!(c.column(0), b.column(0));
    }

    #[test]
    fn zero_width_and_zero_rows_are_fine() {
        let b = DenseBlock::<f64>::zeros(5, 0);
        assert_eq!(b.k(), 0);
        assert_eq!(b.row(4), &[] as &[f64]);
        let c = DenseBlock::<f64>::zeros(0, 3);
        assert_eq!(c.n_rows(), 0);
        assert_eq!(c.as_slice().len(), 0);
    }

    #[test]
    #[should_panic(expected = "shorter than width")]
    fn stride_below_width_panics() {
        let _ = DenseBlock::<f64>::zeros_strided(2, 4, 3);
    }

    #[test]
    fn shrink_to_releases_capacity_and_keeps_the_shape() {
        let mut b = DenseBlock::<f64>::zeros(1000, 8);
        b.reshape(10, 3);
        assert!(b.capacity() >= 8000);
        b.shrink_to(40);
        assert!(b.capacity() >= 30 && b.capacity() < 8000);
        assert_eq!((b.n_rows(), b.k(), b.as_slice().len()), (10, 3, 30));
        // Never below the current shape.
        b.shrink_to(0);
        assert!(b.capacity() >= 30);
    }
}
