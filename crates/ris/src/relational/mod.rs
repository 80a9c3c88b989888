//! A miniature relational engine with a textual SQL-subset interface.
//!
//! This is the stand-in for the paper's Sybase/Oracle sources. What
//! matters for the reproduction is its *capability profile*:
//!
//! * the CM talks to it by sending **command strings** (the CM-RID for
//!   site `B` in §4.2.1 literally stores
//!   `update employees set salary = $b where empid = $n` as the write
//!   command template);
//! * it has a **production-rule/trigger facility**, so a translator can
//!   implement a Notify Interface by declaring triggers (§4.1: "a
//!   CM-Translator supporting a Notify Interface for a Sybase RIS may
//!   need to declare triggers on the underlying database");
//! * it enforces **local CHECK constraints**, the "local constraint
//!   managers" the Demarcation Protocol builds on (§6.1).

mod sql;
mod table;

pub use sql::{parse_command, Aggregate, Command, Comparison, OrderBy, SqlOp};
pub use table::{Row, Table};

use crate::RisError;
use hcm_core::Value;
use std::collections::BTreeMap;
use std::fmt;

/// Which mutations a trigger observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerOp {
    /// Row inserted.
    Insert,
    /// Row updated.
    Update,
    /// Row deleted.
    Delete,
}

/// A trigger registration.
#[derive(Debug, Clone)]
struct Trigger {
    table: String,
    ops: Vec<TriggerOp>,
}

/// A recorded trigger firing, drained by the owner (the CM-Translator)
/// after each command.
#[derive(Debug, Clone, PartialEq)]
pub struct TriggerFiring {
    /// Affected table.
    pub table: String,
    /// Kind of mutation.
    pub op: TriggerOp,
    /// Row before the mutation (`None` for inserts).
    pub old_row: Option<Row>,
    /// Row after the mutation (`None` for deletes).
    pub new_row: Option<Row>,
}

/// A per-row CHECK constraint: `left op right` where each side is a
/// column or a literal. Enforced on insert and update; violating
/// commands are rejected atomically.
#[derive(Debug, Clone)]
pub struct Check {
    /// Table the check applies to.
    pub table: String,
    /// Left operand.
    pub left: CheckOperand,
    /// Comparison operator.
    pub op: SqlOp,
    /// Right operand.
    pub right: CheckOperand,
}

/// One side of a CHECK constraint.
#[derive(Debug, Clone)]
pub enum CheckOperand {
    /// A column of the row being checked.
    Col(String),
    /// A constant.
    Lit(Value),
}

/// Result of executing a command.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// Rows returned by a SELECT (projected columns, then rows).
    Rows {
        /// Projected column names.
        columns: Vec<String>,
        /// Result rows.
        rows: Vec<Row>,
    },
    /// Rows affected by INSERT/UPDATE/DELETE.
    Affected(usize),
    /// DDL acknowledged.
    Ok,
}

impl QueryResult {
    /// The single scalar of a one-row, one-column result, if that is
    /// what this is.
    #[must_use]
    pub fn scalar(&self) -> Option<&Value> {
        match self {
            QueryResult::Rows { rows, .. } if rows.len() == 1 && rows[0].len() == 1 => {
                Some(&rows[0][0])
            }
            _ => None,
        }
    }
}

/// The database: named tables, triggers, CHECK constraints, and a
/// pending-firings buffer.
#[derive(Debug, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    triggers: Vec<Trigger>,
    checks: Vec<Check>,
    firings: Vec<TriggerFiring>,
}

impl Database {
    /// An empty database.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a table programmatically (equivalent to `CREATE TABLE`).
    pub fn create_table(&mut self, name: &str, columns: &[&str]) -> Result<(), RisError> {
        if self.tables.contains_key(name) {
            return Err(RisError::BadCommand(format!(
                "table `{name}` already exists"
            )));
        }
        self.tables
            .insert(name.to_owned(), Table::new(name, columns));
        Ok(())
    }

    /// Declare a trigger on `table` for the given operations.
    pub fn add_trigger(&mut self, table: &str, ops: &[TriggerOp]) -> Result<(), RisError> {
        if !self.tables.contains_key(table) {
            return Err(RisError::NotFound(format!("table `{table}`")));
        }
        self.triggers.push(Trigger {
            table: table.to_owned(),
            ops: ops.to_vec(),
        });
        Ok(())
    }

    /// Install a CHECK constraint. Existing rows must already satisfy
    /// it.
    pub fn add_check(&mut self, check: Check) -> Result<(), RisError> {
        let table = self
            .tables
            .get(&check.table)
            .ok_or_else(|| RisError::NotFound(format!("table `{}`", check.table)))?;
        for row in table.rows() {
            if !eval_check(&check, table, row)? {
                return Err(RisError::ConstraintViolation(format!(
                    "existing row violates new check on `{}`",
                    check.table
                )));
            }
        }
        self.checks.push(check);
        Ok(())
    }

    /// Drain trigger firings accumulated since the last call.
    pub fn take_firings(&mut self) -> Vec<TriggerFiring> {
        std::mem::take(&mut self.firings)
    }

    /// Execute a textual command — the RISI. This is the *only* channel
    /// the CM-Translator uses at run time (besides draining trigger
    /// firings).
    pub fn execute(&mut self, command: &str) -> Result<QueryResult, RisError> {
        let cmd = parse_command(command)?;
        self.execute_parsed(&cmd)
    }

    /// Run a read-only command (a SELECT, plain or aggregate) without
    /// mutating anything; any other command is rejected.
    pub fn query(&self, command: &str) -> Result<QueryResult, RisError> {
        self.query_parsed(&parse_command(command)?)
    }

    fn query_parsed(&self, cmd: &Command) -> Result<QueryResult, RisError> {
        match cmd {
            Command::Select {
                table,
                columns,
                predicate,
                order,
                limit,
            } => self.select(table, columns, predicate, order.as_ref(), *limit),
            Command::SelectAggregate {
                table,
                agg,
                column,
                predicate,
            } => self.select_aggregate(table, *agg, column.as_deref(), predicate),
            _ => Err(RisError::BadCommand("a query must be a SELECT".to_owned())),
        }
    }

    /// Execute a pre-parsed command (saves re-parsing in hot loops).
    pub(crate) fn execute_parsed(&mut self, cmd: &Command) -> Result<QueryResult, RisError> {
        match cmd {
            Command::CreateTable { name, columns } => {
                let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
                self.create_table(name, &cols)?;
                Ok(QueryResult::Ok)
            }
            Command::Insert {
                table,
                columns,
                values,
            } => self.insert(table, columns.as_deref(), values.clone()),
            Command::DropTable { name } => self
                .tables
                .remove(name)
                .map(|_| QueryResult::Ok)
                .ok_or_else(|| RisError::NotFound(format!("table `{name}`"))),
            Command::Select { .. } | Command::SelectAggregate { .. } => self.query_parsed(cmd),
            Command::Update {
                table,
                assignments,
                predicate,
            } => self.update(table, assignments, predicate),
            Command::Delete { table, predicate } => self.delete(table, predicate),
        }
    }

    fn table(&self, name: &str) -> Result<&Table, RisError> {
        self.tables
            .get(name)
            .ok_or_else(|| RisError::NotFound(format!("table `{name}`")))
    }

    fn insert(
        &mut self,
        table: &str,
        columns: Option<&[String]>,
        values: Vec<Value>,
    ) -> Result<QueryResult, RisError> {
        let t = self.table(table)?;
        let row = match columns {
            None => {
                if values.len() != t.columns().len() {
                    return Err(RisError::BadCommand(format!(
                        "insert arity {} != table arity {}",
                        values.len(),
                        t.columns().len()
                    )));
                }
                values
            }
            Some(cols) => {
                if cols.len() != values.len() {
                    return Err(RisError::BadCommand("column/value count mismatch".into()));
                }
                let mut row = vec![Value::Null; t.columns().len()];
                for (c, v) in cols.iter().zip(values) {
                    row[t.col_index(c)?] = v;
                }
                row
            }
        };
        // CHECK constraints before mutation.
        let t = self.table(table)?;
        for check in self.checks.iter().filter(|c| c.table == table) {
            if !eval_check(check, t, &row)? {
                return Err(RisError::ConstraintViolation(format!(
                    "insert into `{table}` violates check"
                )));
            }
        }
        let t = self.tables.get_mut(table).expect("checked");
        t.push_row(row.clone());
        self.fire(table, TriggerOp::Insert, None, Some(row));
        Ok(QueryResult::Affected(1))
    }

    fn select(
        &self,
        table: &str,
        columns: &[String],
        predicate: &[Comparison],
        order: Option<&OrderBy>,
        limit: Option<usize>,
    ) -> Result<QueryResult, RisError> {
        let t = self.table(table)?;
        let proj: Vec<usize> = if columns.len() == 1 && columns[0] == "*" {
            (0..t.columns().len()).collect()
        } else {
            columns
                .iter()
                .map(|c| t.col_index(c))
                .collect::<Result<_, _>>()?
        };
        let pred_idx = compile_predicate(t, predicate)?;
        let matched = t.rows().iter().filter(|row| matches_pred(row, &pred_idx));
        let project = |row: &Row| proj.iter().map(|&i| row[i].clone()).collect();
        let limit = limit.unwrap_or(usize::MAX);
        let rows = match order {
            // Without ORDER BY, rows stream in table order.
            None => matched.take(limit).map(project).collect(),
            Some(ob) => {
                let oi = t.col_index(&ob.column)?;
                let mut matched: Vec<&Row> = matched.collect();
                matched.sort_by(|a, b| {
                    let ord = a[oi].cmp(&b[oi]);
                    if ob.desc {
                        ord.reverse()
                    } else {
                        ord
                    }
                });
                matched.into_iter().take(limit).map(project).collect()
            }
        };
        let out_cols = proj.iter().map(|&i| t.columns()[i].clone()).collect();
        Ok(QueryResult::Rows {
            columns: out_cols,
            rows,
        })
    }

    fn select_aggregate(
        &self,
        table: &str,
        agg: Aggregate,
        column: Option<&str>,
        predicate: &[Comparison],
    ) -> Result<QueryResult, RisError> {
        let t = self.table(table)?;
        let pred_idx = compile_predicate(t, predicate)?;
        let matched: Vec<&Row> = t
            .rows()
            .iter()
            .filter(|row| matches_pred(row, &pred_idx))
            .collect();
        let value = match agg {
            Aggregate::Count => Value::Int(matched.len() as i64),
            _ => {
                let col = column
                    .ok_or_else(|| RisError::BadCommand(format!("{agg:?} needs a column")))?;
                let ci = t.col_index(col)?;
                let nums: Vec<&Value> = matched
                    .iter()
                    .map(|r| &r[ci])
                    .filter(|v| v.exists())
                    .collect();
                if nums.is_empty() {
                    Value::Null
                } else {
                    match agg {
                        Aggregate::Sum => nums
                            .iter()
                            .try_fold(Value::Int(0), |acc, v| acc.add(v))
                            .ok_or_else(|| {
                                RisError::BadCommand(format!("SUM over non-numeric `{col}`"))
                            })?,
                        Aggregate::Avg => {
                            let sum = nums
                                .iter()
                                .try_fold(Value::Int(0), |acc, v| acc.add(v))
                                .and_then(|s| s.as_f64())
                                .ok_or_else(|| {
                                    RisError::BadCommand(format!("AVG over non-numeric `{col}`"))
                                })?;
                            Value::Float(sum / nums.len() as f64)
                        }
                        Aggregate::Min => (*nums.iter().min().expect("non-empty")).clone(),
                        Aggregate::Max => (*nums.iter().max().expect("non-empty")).clone(),
                        Aggregate::Count => unreachable!(),
                    }
                }
            }
        };
        Ok(QueryResult::Rows {
            columns: vec![format!("{agg:?}").to_lowercase()],
            rows: vec![vec![value]],
        })
    }

    fn update(
        &mut self,
        table: &str,
        assignments: &[(String, Value)],
        predicate: &[Comparison],
    ) -> Result<QueryResult, RisError> {
        let t = self.table(table)?;
        let assign_idx: Vec<(usize, Value)> = assignments
            .iter()
            .map(|(c, v)| Ok((t.col_index(c)?, v.clone())))
            .collect::<Result<_, RisError>>()?;
        let pred_idx = compile_predicate(t, predicate)?;
        let checks: Vec<Check> = self
            .checks
            .iter()
            .filter(|c| c.table == table)
            .cloned()
            .collect();

        // Two-phase: compute all updated rows, validate checks, then
        // apply — a violating command changes nothing.
        let t_ref = self.table(table)?;
        let mut planned: Vec<(usize, Row, Row)> = Vec::new();
        for (i, row) in t_ref.rows().iter().enumerate() {
            if matches_pred(row, &pred_idx) {
                let mut new_row = row.clone();
                for (ci, v) in &assign_idx {
                    new_row[*ci] = v.clone();
                }
                for check in &checks {
                    if !eval_check(check, t_ref, &new_row)? {
                        return Err(RisError::ConstraintViolation(format!(
                            "update of `{table}` violates check"
                        )));
                    }
                }
                planned.push((i, row.clone(), new_row));
            }
        }
        let n = planned.len();
        let t_mut = self.tables.get_mut(table).expect("checked");
        for (i, _, new_row) in &planned {
            t_mut.replace_row(*i, new_row.clone());
        }
        for (_, old_row, new_row) in planned {
            self.fire(table, TriggerOp::Update, Some(old_row), Some(new_row));
        }
        Ok(QueryResult::Affected(n))
    }

    fn delete(&mut self, table: &str, predicate: &[Comparison]) -> Result<QueryResult, RisError> {
        let t = self.table(table)?;
        let pred_idx = compile_predicate(t, predicate)?;
        let t_mut = self.tables.get_mut(table).expect("checked");
        let removed = t_mut.remove_rows(|row| matches_pred(row, &pred_idx));
        let n = removed.len();
        for row in removed {
            self.fire(table, TriggerOp::Delete, Some(row), None);
        }
        Ok(QueryResult::Affected(n))
    }

    fn fire(&mut self, table: &str, op: TriggerOp, old_row: Option<Row>, new_row: Option<Row>) {
        for tr in &self.triggers {
            if tr.table == table && tr.ops.contains(&op) {
                self.firings.push(TriggerFiring {
                    table: table.to_owned(),
                    op,
                    old_row: old_row.clone(),
                    new_row: new_row.clone(),
                });
            }
        }
    }

    /// Borrow a table for inspection.
    pub fn get_table(&self, name: &str) -> Result<&Table, RisError> {
        self.table(name)
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, t) in &self.tables {
            writeln!(
                f,
                "{name}({}) — {} rows",
                t.columns().join(", "),
                t.rows().len()
            )?;
        }
        Ok(())
    }
}

fn compile_predicate<'p>(
    t: &Table,
    predicate: &'p [Comparison],
) -> Result<Vec<(usize, SqlOp, &'p Value)>, RisError> {
    predicate
        .iter()
        .map(|c| Ok((t.col_index(&c.column)?, c.op, &c.value)))
        .collect()
}

fn matches_pred(row: &Row, pred: &[(usize, SqlOp, &Value)]) -> bool {
    pred.iter().all(|(i, op, v)| op.apply(&row[*i], v))
}

fn eval_check(check: &Check, t: &Table, row: &Row) -> Result<bool, RisError> {
    let side = |operand: &CheckOperand| -> Result<Value, RisError> {
        match operand {
            CheckOperand::Lit(v) => Ok(v.clone()),
            CheckOperand::Col(c) => Ok(row[t.col_index(c)?].clone()),
        }
    };
    let l = side(&check.left)?;
    let r = side(&check.right)?;
    Ok(check.op.apply(&l, &r))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn salary_db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE employees (empid, name, salary)")
            .unwrap();
        db.execute("INSERT INTO employees VALUES ('e1', 'ann', 90000)")
            .unwrap();
        db.execute("INSERT INTO employees VALUES ('e2', 'bob', 80000)")
            .unwrap();
        db
    }

    #[test]
    fn insert_select_update_delete() {
        let mut db = salary_db();
        let r = db
            .execute("SELECT salary FROM employees WHERE empid = 'e1'")
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(90000)));

        let r = db
            .execute("UPDATE employees SET salary = 95000 WHERE empid = 'e1'")
            .unwrap();
        assert_eq!(r, QueryResult::Affected(1));
        let r = db
            .execute("SELECT salary FROM employees WHERE empid = 'e1'")
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(95000)));

        let r = db
            .execute("DELETE FROM employees WHERE empid = 'e2'")
            .unwrap();
        assert_eq!(r, QueryResult::Affected(1));
        let r = db.execute("SELECT * FROM employees").unwrap();
        match r {
            QueryResult::Rows { rows, columns } => {
                assert_eq!(rows.len(), 1);
                assert_eq!(columns, vec!["empid", "name", "salary"]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn paper_write_command_shape() {
        // Exactly the §4.2.1 command, post parameter substitution.
        let mut db = salary_db();
        db.execute("update employees set salary = 70000 where empid = 'e2'")
            .unwrap();
        let r = db
            .execute("select salary from employees where empid = 'e2'")
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(70000)));
    }

    #[test]
    fn triggers_fire_on_update_with_old_and_new() {
        let mut db = salary_db();
        db.add_trigger("employees", &[TriggerOp::Update]).unwrap();
        db.execute("UPDATE employees SET salary = 91000 WHERE empid = 'e1'")
            .unwrap();
        let firings = db.take_firings();
        assert_eq!(firings.len(), 1);
        assert_eq!(firings[0].op, TriggerOp::Update);
        assert_eq!(firings[0].old_row.as_ref().unwrap()[2], Value::Int(90000));
        assert_eq!(firings[0].new_row.as_ref().unwrap()[2], Value::Int(91000));
        // Drained.
        assert!(db.take_firings().is_empty());
    }

    #[test]
    fn triggers_filter_by_op_and_table() {
        let mut db = salary_db();
        db.create_table("other", &["a"]).unwrap();
        db.add_trigger("employees", &[TriggerOp::Delete]).unwrap();
        db.execute("UPDATE employees SET salary = 1 WHERE empid = 'e1'")
            .unwrap();
        db.execute("INSERT INTO other VALUES (1)").unwrap();
        assert!(db.take_firings().is_empty());
        db.execute("DELETE FROM employees WHERE empid = 'e1'")
            .unwrap();
        assert_eq!(db.take_firings().len(), 1);
    }

    #[test]
    fn check_constraint_rejects_violating_update_atomically() {
        // The demarcation local constraint: value <= lim, per row.
        let mut db = Database::new();
        db.create_table("demarc", &["name", "value", "lim"])
            .unwrap();
        db.execute("INSERT INTO demarc VALUES ('X', 10, 100)")
            .unwrap();
        db.add_check(Check {
            table: "demarc".into(),
            left: CheckOperand::Col("value".into()),
            op: SqlOp::Le,
            right: CheckOperand::Col("lim".into()),
        })
        .unwrap();
        // Within limit: fine.
        db.execute("UPDATE demarc SET value = 100 WHERE name = 'X'")
            .unwrap();
        // Beyond limit: rejected, nothing changed.
        let err = db
            .execute("UPDATE demarc SET value = 101 WHERE name = 'X'")
            .unwrap_err();
        assert!(matches!(err, RisError::ConstraintViolation(_)));
        let r = db
            .execute("SELECT value FROM demarc WHERE name = 'X'")
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(100)));
        // Raising the limit then writing works.
        db.execute("UPDATE demarc SET lim = 200 WHERE name = 'X'")
            .unwrap();
        db.execute("UPDATE demarc SET value = 150 WHERE name = 'X'")
            .unwrap();
    }

    #[test]
    fn check_rejects_violating_insert() {
        let mut db = Database::new();
        db.create_table("t", &["v"]).unwrap();
        db.add_check(Check {
            table: "t".into(),
            left: CheckOperand::Col("v".into()),
            op: SqlOp::Ge,
            right: CheckOperand::Lit(Value::Int(0)),
        })
        .unwrap();
        assert!(db.execute("INSERT INTO t VALUES (-1)").is_err());
        db.execute("INSERT INTO t VALUES (5)").unwrap();
    }

    #[test]
    fn add_check_validates_existing_rows() {
        let mut db = Database::new();
        db.create_table("t", &["v"]).unwrap();
        db.execute("INSERT INTO t VALUES (-1)").unwrap();
        let err = db
            .add_check(Check {
                table: "t".into(),
                left: CheckOperand::Col("v".into()),
                op: SqlOp::Ge,
                right: CheckOperand::Lit(Value::Int(0)),
            })
            .unwrap_err();
        assert!(matches!(err, RisError::ConstraintViolation(_)));
    }

    #[test]
    fn insert_with_explicit_columns_fills_nulls() {
        let mut db = Database::new();
        db.create_table("t", &["a", "b", "c"]).unwrap();
        db.execute("INSERT INTO t (c, a) VALUES (3, 1)").unwrap();
        let r = db.execute("SELECT a, b, c FROM t").unwrap();
        match r {
            QueryResult::Rows { rows, .. } => {
                assert_eq!(rows[0], vec![Value::Int(1), Value::Null, Value::Int(3)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn errors() {
        let mut db = salary_db();
        assert!(matches!(
            db.execute("SELECT x FROM nope"),
            Err(RisError::NotFound(_))
        ));
        assert!(matches!(
            db.execute("SELECT nosuchcol FROM employees"),
            Err(RisError::BadCommand(_))
        ));
        assert!(db.execute("CREATE TABLE employees (a)").is_err());
        assert!(db.execute("INSERT INTO employees VALUES (1)").is_err());
        assert!(db.add_trigger("nope", &[TriggerOp::Insert]).is_err());
    }

    #[test]
    fn multi_row_update_counts_and_fires_per_row() {
        let mut db = salary_db();
        db.add_trigger("employees", &[TriggerOp::Update]).unwrap();
        let r = db.execute("UPDATE employees SET salary = 0").unwrap();
        assert_eq!(r, QueryResult::Affected(2));
        assert_eq!(db.take_firings().len(), 2);
    }

    #[test]
    fn display_summarizes() {
        let db = salary_db();
        let s = db.to_string();
        assert!(s.contains("employees(empid, name, salary) — 2 rows"));
        assert!(db.get_table("employees").is_ok());
    }
}

#[cfg(test)]
mod sql_extension_tests {
    use super::*;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table("accounts", &["acct", "bal"]).unwrap();
        for (a, v) in [("a1", 100), ("a2", 250), ("a3", 50), ("a4", 250)] {
            db.execute(&format!("INSERT INTO accounts VALUES ('{a}', {v})"))
                .unwrap();
        }
        db
    }

    #[test]
    fn count_sum_min_max_avg() {
        let mut d = db();
        assert_eq!(
            d.execute("SELECT COUNT(*) FROM accounts").unwrap().scalar(),
            Some(&Value::Int(4))
        );
        assert_eq!(
            d.execute("SELECT SUM(bal) FROM accounts").unwrap().scalar(),
            Some(&Value::Int(650))
        );
        assert_eq!(
            d.execute("SELECT MIN(bal) FROM accounts").unwrap().scalar(),
            Some(&Value::Int(50))
        );
        assert_eq!(
            d.execute("SELECT MAX(bal) FROM accounts").unwrap().scalar(),
            Some(&Value::Int(250))
        );
        assert_eq!(
            d.execute("SELECT AVG(bal) FROM accounts").unwrap().scalar(),
            Some(&Value::Float(162.5))
        );
    }

    #[test]
    fn aggregates_respect_where() {
        let mut d = db();
        assert_eq!(
            d.execute("SELECT COUNT(*) FROM accounts WHERE bal >= 100")
                .unwrap()
                .scalar(),
            Some(&Value::Int(3))
        );
        assert_eq!(
            d.execute("SELECT SUM(bal) FROM accounts WHERE bal < 100")
                .unwrap()
                .scalar(),
            Some(&Value::Int(50))
        );
        // Empty match: SUM/MIN/MAX yield NULL, COUNT yields 0.
        assert_eq!(
            d.execute("SELECT SUM(bal) FROM accounts WHERE bal > 9999")
                .unwrap()
                .scalar(),
            Some(&Value::Null)
        );
        assert_eq!(
            d.execute("SELECT COUNT(*) FROM accounts WHERE bal > 9999")
                .unwrap()
                .scalar(),
            Some(&Value::Int(0))
        );
    }

    #[test]
    fn order_by_and_limit() {
        let mut d = db();
        let r = d
            .execute("SELECT acct FROM accounts ORDER BY bal DESC LIMIT 2")
            .unwrap();
        match r {
            QueryResult::Rows { rows, .. } => {
                // a2 and a4 tie at 250; deterministic by stable sort on
                // insertion order.
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0][0], Value::from("a2"));
                assert_eq!(rows[1][0], Value::from("a4"));
            }
            other => panic!("unexpected {other:?}"),
        }
        let r = d
            .execute("SELECT acct FROM accounts ORDER BY bal ASC LIMIT 1")
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::from("a3")));
    }

    #[test]
    fn drop_table() {
        let mut d = db();
        d.execute("DROP TABLE accounts").unwrap();
        assert!(d.execute("SELECT * FROM accounts").is_err());
        assert!(d.execute("DROP TABLE accounts").is_err());
    }

    #[test]
    fn aggregate_errors() {
        let mut d = db();
        assert!(d.execute("SELECT SUM(nosuch) FROM accounts").is_err());
        assert!(
            d.execute("SELECT SUM(acct) FROM accounts").is_err(),
            "non-numeric"
        );
        assert!(d.execute("SELECT LIMIT FROM accounts").is_err());
    }

    #[test]
    fn count_distinct_column_form() {
        // COUNT(col) counts matching rows (no DISTINCT semantics).
        let mut d = db();
        assert_eq!(
            d.execute("SELECT COUNT(bal) FROM accounts")
                .unwrap()
                .scalar(),
            Some(&Value::Int(4))
        );
    }
}
