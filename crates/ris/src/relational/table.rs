//! Tables and rows.

use crate::RisError;
use hcm_core::Value;

/// A row: one value per column, in column order.
pub type Row = Vec<Value>;

/// A named table with untyped columns (values carry their own types, as
/// in the loosely typed legacy systems the paper targets).
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    columns: Vec<String>,
    rows: Vec<Row>,
}

impl Table {
    /// A new empty table.
    #[must_use]
    pub(crate) fn new(name: &str, columns: &[&str]) -> Self {
        Table {
            name: name.to_owned(),
            columns: columns.iter().map(|c| (*c).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Column names in order.
    #[must_use]
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Index of a column.
    pub fn col_index(&self, col: &str) -> Result<usize, RisError> {
        self.columns
            .iter()
            .position(|c| c == col)
            .ok_or_else(|| RisError::BadCommand(format!("no column `{col}` in `{}`", self.name)))
    }

    /// All rows.
    #[must_use]
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Append a row (arity already validated by the caller).
    pub(crate) fn push_row(&mut self, row: Row) {
        debug_assert_eq!(row.len(), self.columns.len());
        self.rows.push(row);
    }

    /// Replace row `i`, returning the row it held.
    pub(crate) fn replace_row(&mut self, i: usize, row: Row) -> Row {
        debug_assert_eq!(row.len(), self.columns.len());
        std::mem::replace(&mut self.rows[i], row)
    }

    /// Remove the rows `pred(columns, row)` selects, returning them in
    /// original order.
    pub(crate) fn remove_rows(
        &mut self,
        mut pred: impl FnMut(&[String], &Row) -> bool,
    ) -> Vec<Row> {
        let columns = &self.columns;
        self.rows.extract_if(.., |row| pred(columns, row)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_operations() {
        let mut t = Table::new("t", &["a", "b"]);
        assert_eq!(t.col_index("b").unwrap(), 1);
        assert!(t.col_index("zz").is_err());
        t.push_row(vec![Value::Int(1), Value::Int(2)]);
        t.push_row(vec![Value::Int(3), Value::Int(4)]);
        t.replace_row(0, vec![Value::Int(9), Value::Int(2)]);
        assert_eq!(t.rows()[0][0], Value::Int(9));
        let removed = t.remove_rows(|_, r| r[0] == Value::Int(3));
        assert_eq!(removed.len(), 1);
        assert_eq!(t.rows().len(), 1);
    }
}
