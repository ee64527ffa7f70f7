//! A minimal dense design-matrix container shared by all learners.

use crate::MlError;

/// A dense (rows × columns) matrix of feature values, row-major.
///
/// `Dataset` is deliberately simple: the training sets in this system are
/// small (hundreds to a few thousand rows, tens of features), so we favor a
/// flat `Vec<f64>` with contiguous rows over anything clever.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    data: Vec<f64>,
    n_rows: usize,
    n_cols: usize,
}

impl Dataset {
    /// Creates an empty dataset with `n_cols` feature columns.
    pub fn new(n_cols: usize) -> Self {
        Dataset {
            data: Vec::new(),
            n_rows: 0,
            n_cols,
        }
    }

    /// Creates an empty dataset with `n_cols` feature columns and room for
    /// `rows` rows.
    pub fn with_capacity(rows: usize, n_cols: usize) -> Self {
        Dataset {
            data: Vec::with_capacity(rows * n_cols),
            n_rows: 0,
            n_cols,
        }
    }

    /// Builds a dataset from complete rows. All rows must have equal length;
    /// an empty input yields a 0×0 dataset.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        let n_cols = rows.first().map_or(0, Vec::len);
        let mut ds = Dataset::new(n_cols);
        for row in rows {
            ds.push_row(&row);
        }
        ds
    }

    /// Appends one row.
    ///
    /// # Panics
    /// Panics if `row.len() != self.n_cols()`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(
            row.len(),
            self.n_cols,
            "row has {} values, dataset has {} columns",
            row.len(),
            self.n_cols
        );
        self.data.extend_from_slice(row);
        self.n_rows += 1;
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of feature columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// True when the dataset holds no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Borrow row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// Iterate over all rows.
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.n_cols.max(1))
    }

    /// Copy of column `j`.
    pub fn column(&self, j: usize) -> Vec<f64> {
        assert!(j < self.n_cols, "column {} out of {}", j, self.n_cols);
        (0..self.n_rows).map(|i| self.row(i)[j]).collect()
    }

    /// A new dataset containing only the given columns, in the given order.
    pub fn select_columns(&self, cols: &[usize]) -> Dataset {
        let mut out = Dataset::new(cols.len());
        let mut buf = Vec::with_capacity(cols.len());
        for i in 0..self.n_rows {
            let row = self.row(i);
            buf.clear();
            buf.extend(cols.iter().map(|&c| row[c]));
            out.push_row(&buf);
        }
        out
    }

    /// A new dataset containing only the given rows, in the given order.
    pub fn select_rows(&self, rows: &[usize]) -> Dataset {
        let mut out = Dataset::new(self.n_cols);
        for &i in rows {
            out.push_row(self.row(i));
        }
        out
    }

    /// A new dataset holding the given columns of the given rows, both in
    /// the given order: `select_rows(rows).select_columns(cols)` in one
    /// copy.
    pub fn select(&self, rows: &[usize], cols: &[usize]) -> Dataset {
        let mut data = Vec::with_capacity(rows.len() * cols.len());
        for &i in rows {
            let row = self.row(i);
            data.extend(cols.iter().map(|&c| row[c]));
        }
        Dataset {
            data,
            n_rows: rows.len(),
            n_cols: cols.len(),
        }
    }

    /// Validates that `y` has one target per row.
    pub fn check_targets(&self, y: &[f64]) -> Result<(), MlError> {
        if self.n_rows == 0 {
            return Err(MlError::EmptyDataset);
        }
        if y.len() != self.n_rows {
            return Err(MlError::ShapeMismatch {
                expected: self.n_rows,
                got: y.len(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        Dataset::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]])
    }

    #[test]
    fn shape_accessors() {
        let ds = sample();
        assert_eq!(ds.n_rows(), 3);
        assert_eq!(ds.n_cols(), 2);
        assert!(!ds.is_empty());
        assert!(Dataset::new(4).is_empty());
    }

    #[test]
    fn row_and_column_access() {
        let ds = sample();
        assert_eq!(ds.row(1), &[3.0, 4.0]);
        assert_eq!(ds.column(0), vec![1.0, 3.0, 5.0]);
        assert_eq!(ds.column(1), vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn select_columns_projects() {
        let ds = sample();
        let only_second = ds.select_columns(&[1]);
        assert_eq!(only_second.n_cols(), 1);
        assert_eq!(only_second.column(0), vec![2.0, 4.0, 6.0]);
        let swapped = ds.select_columns(&[1, 0]);
        assert_eq!(swapped.row(0), &[2.0, 1.0]);
    }

    #[test]
    fn select_rows_subsets() {
        let ds = sample();
        let sub = ds.select_rows(&[2, 0]);
        assert_eq!(sub.n_rows(), 2);
        assert_eq!(sub.row(0), &[5.0, 6.0]);
        assert_eq!(sub.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn select_is_rows_then_columns_in_one_copy() {
        let ds = sample();
        let both = ds.select(&[2, 0], &[1, 0]);
        assert_eq!(both, ds.select_rows(&[2, 0]).select_columns(&[1, 0]));
        assert_eq!(both.row(0), &[6.0, 5.0]);
        assert_eq!(ds.select(&[], &[1]).n_rows(), 0);
    }

    #[test]
    fn check_targets_validates() {
        let ds = sample();
        assert!(ds.check_targets(&[1.0, 2.0, 3.0]).is_ok());
        assert_eq!(
            ds.check_targets(&[1.0]),
            Err(MlError::ShapeMismatch {
                expected: 3,
                got: 1
            })
        );
        assert_eq!(
            Dataset::new(2).check_targets(&[]),
            Err(MlError::EmptyDataset)
        );
    }

    #[test]
    fn rows_iterator_covers_all() {
        let ds = sample();
        let collected: Vec<&[f64]> = ds.rows().collect();
        assert_eq!(collected.len(), 3);
        assert_eq!(collected[2], &[5.0, 6.0]);
    }
}
