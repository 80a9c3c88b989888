//! A miniature relational engine with a textual SQL-subset interface.
//!
//! This is the stand-in for the paper's Sybase/Oracle sources. What
//! matters for the reproduction is its *capability profile*:
//!
//! * the CM talks to it in **SQL commands** (the CM-RID for site `B` in
//!   §4.2.1 literally stores
//!   `update employees set salary = $b where empid = $n` as the write
//!   command template). As a real RIS's prepared statements would, the
//!   engine parses such a template once ([`prepare`]) and runs it many
//!   times with typed values bound to its placeholders
//!   ([`Database::run`], [`Database::read_one`]); an application's
//!   command text goes through [`Database::execute`];
//! * it has a **production-rule/trigger facility**, so a translator can
//!   implement a Notify Interface by declaring triggers (§4.1: "a
//!   CM-Translator supporting a Notify Interface for a Sybase RIS may
//!   need to declare triggers on the underlying database");
//! * it enforces **local CHECK constraints**, the "local constraint
//!   managers" the Demarcation Protocol builds on (§6.1).
//!
//! The textual dialect is what those callers send: `INSERT`,
//! `SELECT cols|* FROM t [WHERE …]`, `UPDATE` and `DELETE`, each read by
//! [`parse_command`] or, with placeholders, [`prepare`]. Tables,
//! triggers and CHECKs are declared programmatically. A trigger fires
//! on every insert, update and delete of its table.
//!
//! A [`TriggerFiring`] owns its rows: an update or delete moves the
//! replaced or removed row into the firing, each new row is cloned once
//! for it (and not at all for a table no trigger watches), and the
//! firing names its table through the trigger's shared name, so
//! recording one allocates no string.

mod sql;
mod table;

pub use sql::{parse_command, prepare, Command, Comparison, Operand, SqlOp};
pub use table::{Row, Table};

use crate::RisError;
use hcm_core::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A recorded trigger firing, drained by the owner (the CM-Translator)
/// after each command.
#[derive(Debug, Clone, PartialEq)]
pub struct TriggerFiring {
    /// Affected table, shared with the trigger that fired.
    pub table: Arc<str>,
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
    /// Rows returned by a SELECT, projected to its columns.
    Rows(Vec<Row>),
    /// Rows affected by INSERT/UPDATE/DELETE.
    Affected(usize),
}

/// The database: named tables, triggers, CHECK constraints, and a
/// pending-firings buffer.
#[derive(Debug, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    /// The table of each declared trigger.
    triggers: Vec<Arc<str>>,
    checks: Vec<Check>,
    firings: Vec<TriggerFiring>,
}

impl Database {
    /// An empty database.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a table.
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

    /// Declare a trigger on `table`: from now on, every row a command
    /// inserts into it, updates or deletes is recorded as a
    /// [`TriggerFiring`].
    pub fn add_trigger(&mut self, table: &str) -> Result<(), RisError> {
        if !self.tables.contains_key(table) {
            return Err(RisError::NotFound(format!("table `{table}`")));
        }
        self.triggers.push(table.into());
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
            if !eval_check(&check, table, |i| &row[i])? {
                return Err(RisError::ConstraintViolation(format!(
                    "existing row violates new check on `{}`",
                    check.table
                )));
            }
        }
        self.checks.push(check);
        Ok(())
    }

    /// Drain trigger firings since the last call; the buffer keeps its capacity.
    pub fn drain_firings(&mut self) -> std::vec::Drain<'_, TriggerFiring> {
        self.firings.drain(..)
    }

    /// Parse and run an application's command text; it binds no
    /// placeholders.
    pub fn execute(&mut self, command: &str) -> Result<QueryResult, RisError> {
        self.run(&parse_command(command)?, &[])
    }

    /// Run a parsed command, `bindings` holding one value per
    /// placeholder name given to [`prepare`], in that order.
    pub fn run(&mut self, cmd: &Command, bindings: &[&Value]) -> Result<QueryResult, RisError> {
        match cmd {
            Command::Insert {
                table,
                columns,
                values,
            } => {
                let values = values
                    .iter()
                    .map(|v| v.bind(bindings).cloned())
                    .collect::<Result<_, _>>()?;
                self.insert(table, columns.as_deref(), values)
            }
            Command::Select {
                table,
                columns,
                predicate,
            } => {
                let t = self.get_table(table)?;
                let proj = projection(t, columns).collect::<Result<Vec<_>, _>>()?;
                let rows = matching_rows(t, predicate, bindings)?;
                let project = |row: &Row| proj.iter().map(|&i| row[i].clone()).collect();
                Ok(QueryResult::Rows(rows.map(project).collect()))
            }
            Command::Update {
                table,
                assignments,
                predicate,
            } => self.update(table, assignments, predicate, bindings),
            Command::Delete { table, predicate } => self.delete(table, predicate, bindings),
        }
    }

    /// Run a SELECT for one value: the first projected column of the
    /// first matching row, `Null` when no row matches. Any other
    /// command is rejected.
    pub fn read_one(&self, cmd: &Command, bindings: &[&Value]) -> Result<Value, RisError> {
        let Command::Select {
            table,
            columns,
            predicate,
        } = cmd
        else {
            return Err(RisError::BadCommand("a read must be a SELECT".to_owned()));
        };
        let t = self.get_table(table)?;
        // Every projected column must exist; the value is the first's.
        let mut proj = projection(t, columns);
        let first = proj.next().transpose()?;
        proj.try_for_each(|col| col.map(drop))?;
        let row = matching_rows(t, predicate, bindings)?.next();
        Ok(row
            .zip(first)
            .map_or(Value::Null, |(row, i)| row[i].clone()))
    }

    /// Borrow a table for inspection.
    pub fn get_table(&self, name: &str) -> Result<&Table, RisError> {
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
        let t = self.get_table(table)?;
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
        for check in self.checks.iter().filter(|c| c.table == table) {
            if !eval_check(check, t, |i| &row[i])? {
                return Err(RisError::ConstraintViolation(format!(
                    "insert into `{table}` violates check"
                )));
            }
        }
        fire(&self.triggers, &mut self.firings, table, None, Some(&row));
        let t = self.tables.get_mut(table).expect("checked");
        t.push_row(row);
        Ok(QueryResult::Affected(1))
    }

    fn update(
        &mut self,
        table: &str,
        assignments: &[(String, Operand)],
        predicate: &[Comparison],
        bindings: &[&Value],
    ) -> Result<QueryResult, RisError> {
        let t = self.get_table(table)?;
        for (column, value) in assignments {
            t.col_index(column)?;
            value.bind(bindings)?;
        }
        resolve_where(t, predicate, bindings)?;

        // Two-phase: check every updated row, then apply — a violating
        // command changes nothing.
        let hits = |row: &&Row| row_matches(t.columns(), predicate, bindings, row);
        for row in t.rows().iter().filter(hits) {
            for check in self.checks.iter().filter(|c| c.table == table) {
                let col = |i| assigned(t.columns(), assignments, bindings, row, i);
                if !eval_check(check, t, col)? {
                    return Err(RisError::ConstraintViolation(format!(
                        "update of `{table}` violates check"
                    )));
                }
            }
        }
        let t = self.tables.get_mut(table).expect("checked");
        let mut n = 0;
        for i in 0..t.rows().len() {
            let row = &t.rows()[i];
            if !row_matches(t.columns(), predicate, bindings, row) {
                continue;
            }
            let new_row = (0..row.len())
                .map(|c| assigned(t.columns(), assignments, bindings, row, c).clone())
                .collect();
            let old_row = t.replace_row(i, new_row);
            fire(
                &self.triggers,
                &mut self.firings,
                table,
                Some(old_row),
                Some(&t.rows()[i]),
            );
            n += 1;
        }
        Ok(QueryResult::Affected(n))
    }

    fn delete(
        &mut self,
        table: &str,
        predicate: &[Comparison],
        bindings: &[&Value],
    ) -> Result<QueryResult, RisError> {
        resolve_where(self.get_table(table)?, predicate, bindings)?;
        let t = self.tables.get_mut(table).expect("checked");
        let removed = t.remove_rows(|columns, row| row_matches(columns, predicate, bindings, row));
        let n = removed.len();
        for row in removed {
            fire(&self.triggers, &mut self.firings, table, Some(row), None);
        }
        Ok(QueryResult::Affected(n))
    }
}

/// Record one firing per trigger on `table` for a row change. The last
/// firing takes `old_row` itself; `new_row` (still in the table) is
/// cloned per firing, so a table no trigger watches costs nothing.
fn fire(
    triggers: &[Arc<str>],
    firings: &mut Vec<TriggerFiring>,
    table: &str,
    mut old_row: Option<Row>,
    new_row: Option<&Row>,
) {
    let mut on_table = triggers.iter().filter(|tr| tr.as_ref() == table).peekable();
    while let Some(tr) = on_table.next() {
        firings.push(TriggerFiring {
            table: Arc::clone(tr),
            old_row: match on_table.peek() {
                Some(_) => old_row.clone(),
                None => old_row.take(),
            },
            new_row: new_row.cloned(),
        });
    }
}

/// The rows of `t` a WHERE clause selects, in table order.
fn matching_rows<'a>(
    t: &'a Table,
    predicate: &'a [Comparison],
    bindings: &'a [&'a Value],
) -> Result<impl Iterator<Item = &'a Row>, RisError> {
    resolve_where(t, predicate, bindings)?;
    Ok((t.rows().iter()).filter(move |row| row_matches(t.columns(), predicate, bindings, row)))
}

/// The column indices a SELECT projects, in order (`*` is every
/// column).
fn projection<'a>(
    t: &'a Table,
    columns: &'a [String],
) -> impl Iterator<Item = Result<usize, RisError>> + 'a {
    let star = columns.len() == 1 && columns[0] == "*";
    let every = (0..t.columns().len()).filter(move |_| star).map(Ok);
    let named = (columns.iter())
        .filter(move |_| !star)
        .map(|c| t.col_index(c));
    every.chain(named)
}

/// Fail on the first column or placeholder of a WHERE clause that
/// does not resolve against `t`, before the command reads a row.
fn resolve_where(t: &Table, predicate: &[Comparison], bindings: &[&Value]) -> Result<(), RisError> {
    for c in predicate {
        t.col_index(&c.column)?;
        c.value.bind(bindings)?;
    }
    Ok(())
}

/// Whether `row` of a table with `columns` satisfies a WHERE clause
/// that [`resolve_where`] accepted. Each comparison finds its column
/// by name per row, so a command allocates nothing for its clause; on
/// the narrow tables a CM-RID addresses that is a string compare or
/// two.
fn row_matches(
    columns: &[String],
    predicate: &[Comparison],
    bindings: &[&Value],
    row: &Row,
) -> bool {
    predicate.iter().all(|c| {
        let col = columns.iter().position(|name| *name == c.column);
        match (col, c.value.bind(bindings)) {
            (Some(i), Ok(v)) => c.op.apply(&row[i], v),
            _ => false,
        }
    })
}

/// Column `i` of `row` once a SET list is applied: the value of the
/// column's last assignment, else the old one.
fn assigned<'v>(
    columns: &[String],
    assignments: &'v [(String, Operand)],
    bindings: &[&'v Value],
    row: &'v Row,
    i: usize,
) -> &'v Value {
    let set = assignments.iter().rev().find(|(c, _)| *c == columns[i]);
    set.and_then(|(_, v)| v.bind(bindings).ok())
        .unwrap_or(&row[i])
}

/// Whether a row satisfies `check`, `col(i)` reading its column `i`.
fn eval_check<'a>(
    check: &'a Check,
    t: &Table,
    col: impl Fn(usize) -> &'a Value,
) -> Result<bool, RisError> {
    let side = |operand: &'a CheckOperand| match operand {
        CheckOperand::Lit(v) => Ok(v),
        CheckOperand::Col(c) => Ok(col(t.col_index(c)?)),
    };
    Ok(check.op.apply(side(&check.left)?, side(&check.right)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn salary_db() -> Database {
        let mut db = Database::new();
        db.create_table("employees", &["empid", "name", "salary"])
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
        assert_eq!(r, QueryResult::Rows(vec![vec![Value::Int(90000)]]));

        let r = db
            .execute("UPDATE employees SET salary = 95000 WHERE empid = 'e1'")
            .unwrap();
        assert_eq!(r, QueryResult::Affected(1));
        let r = db
            .execute("SELECT salary FROM employees WHERE empid = 'e1'")
            .unwrap();
        assert_eq!(r, QueryResult::Rows(vec![vec![Value::Int(95000)]]));

        let r = db
            .execute("DELETE FROM employees WHERE empid = 'e2'")
            .unwrap();
        assert_eq!(r, QueryResult::Affected(1));
        let r = db.execute("SELECT * FROM employees").unwrap();
        assert_eq!(
            r,
            QueryResult::Rows(vec![vec![
                Value::from("e1"),
                Value::from("ann"),
                Value::Int(95000)
            ]])
        );
    }

    #[test]
    fn paper_write_command_shape() {
        // The §4.2.1 command with its parameters written out.
        let mut db = salary_db();
        db.execute("update employees set salary = 70000 where empid = 'e2'")
            .unwrap();
        let r = db
            .execute("select salary from employees where empid = 'e2'")
            .unwrap();
        assert_eq!(r, QueryResult::Rows(vec![vec![Value::Int(70000)]]));
    }

    #[test]
    fn prepared_commands_bind_typed_values() {
        let mut db = salary_db();
        let write = prepare(
            "update employees set salary = $value where empid = $p0",
            &["p0", "value"],
        )
        .unwrap();
        let read = prepare("select salary from employees where empid = $p0", &["p0"]).unwrap();
        let e1 = Value::from("e1");
        for v in [Value::Float(3.0), Value::from("x' or 'a"), Value::Null] {
            assert_eq!(db.run(&write, &[&e1, &v]), Ok(QueryResult::Affected(1)));
            assert_eq!(db.read_one(&read, &[&e1]), Ok(v));
        }
        // No matching row reads as Null; a missing binding and a
        // read that is not a SELECT are errors.
        assert_eq!(db.read_one(&read, &[&Value::from("e9")]), Ok(Value::Null));
        assert!(db.read_one(&read, &[]).is_err());
        assert!(db.read_one(&write, &[&e1, &e1]).is_err());
        let star = prepare("select * from employees where salary = $p0", &["p0"]).unwrap();
        assert_eq!(
            db.read_one(&star, &[&Value::Int(80000)]),
            Ok(Value::from("e2"))
        );
    }

    #[test]
    fn triggers_fire_on_update_with_old_and_new() {
        let mut db = salary_db();
        db.add_trigger("employees").unwrap();
        db.execute("UPDATE employees SET salary = 91000 WHERE empid = 'e1'")
            .unwrap();
        let firings: Vec<_> = db.drain_firings().collect();
        assert_eq!(firings.len(), 1);
        assert_eq!(firings[0].old_row.as_ref().unwrap()[2], Value::Int(90000));
        assert_eq!(firings[0].new_row.as_ref().unwrap()[2], Value::Int(91000));
        // Drained.
        assert!(db.drain_firings().as_slice().is_empty());
    }

    #[test]
    fn triggers_filter_by_op_and_table() {
        // Every operation fires; only the trigger's table does.
        let mut db = salary_db();
        db.create_table("other", &["a"]).unwrap();
        db.add_trigger("employees").unwrap();
        db.execute("INSERT INTO other VALUES (1)").unwrap();
        db.execute("UPDATE other SET a = 2").unwrap();
        db.execute("DELETE FROM other").unwrap();
        assert!(db.drain_firings().as_slice().is_empty());
        db.execute("DELETE FROM employees WHERE empid = 'e1'")
            .unwrap();
        let firings: Vec<_> = db.drain_firings().collect();
        assert_eq!(firings.len(), 1);
        assert_eq!(&*firings[0].table, "employees");
        assert_eq!(firings[0].new_row, None);
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
        assert_eq!(r, QueryResult::Rows(vec![vec![Value::Int(100)]]));
        // Raising the limit then writing works.
        db.execute("UPDATE demarc SET lim = 200 WHERE name = 'X'")
            .unwrap();
        db.execute("UPDATE demarc SET value = 150 WHERE name = 'X'")
            .unwrap();
    }

    /// Each firing as `(table, old row, new row)`.
    fn drained(db: &mut Database) -> Vec<(String, Option<Row>, Option<Row>)> {
        db.drain_firings()
            .map(|f| (f.table.to_string(), f.old_row, f.new_row))
            .collect()
    }

    fn row(empid: &str, name: &str, salary: i64) -> Option<Row> {
        Some(vec![
            Value::from(empid),
            Value::from(name),
            Value::Int(salary),
        ])
    }

    #[test]
    fn check_violating_update_changes_nothing_and_fires_nothing() {
        let mut db = Database::new();
        db.create_table("demarc", &["name", "value", "lim"])
            .unwrap();
        db.execute("INSERT INTO demarc VALUES ('X', 10, 100)")
            .unwrap();
        db.execute("INSERT INTO demarc VALUES ('Y', 10, 50)")
            .unwrap();
        db.add_trigger("demarc").unwrap();
        db.add_check(Check {
            table: "demarc".into(),
            left: CheckOperand::Col("value".into()),
            op: SqlOp::Le,
            right: CheckOperand::Col("lim".into()),
        })
        .unwrap();
        db.drain_firings();
        let before = db.get_table("demarc").unwrap().rows().to_vec();
        // `X` alone would pass, `Y` violates: neither row changes.
        for _ in 0..2 {
            let err = db.execute("UPDATE demarc SET value = 80").unwrap_err();
            assert_eq!(
                err,
                RisError::ConstraintViolation("update of `demarc` violates check".into())
            );
            assert_eq!(db.get_table("demarc").unwrap().rows(), &before[..]);
            assert!(db.drain_firings().as_slice().is_empty());
        }
    }

    #[test]
    fn multi_row_update_fires_per_row_in_row_order() {
        let mut db = salary_db();
        db.add_trigger("employees").unwrap();
        db.execute("UPDATE employees SET salary = 1, name = 'x' WHERE salary > 0")
            .unwrap();
        assert_eq!(
            drained(&mut db),
            [
                (
                    "employees".into(),
                    row("e1", "ann", 90000),
                    row("e1", "x", 1)
                ),
                (
                    "employees".into(),
                    row("e2", "bob", 80000),
                    row("e2", "x", 1)
                ),
            ]
        );
        // The rows in the table are the firings' new rows.
        let rows = db.get_table("employees").unwrap().rows().to_vec();
        assert_eq!(
            rows,
            [row("e1", "x", 1).unwrap(), row("e2", "x", 1).unwrap()]
        );
    }

    #[test]
    fn delete_fires_with_the_removed_row() {
        let mut db = salary_db();
        db.add_trigger("employees").unwrap();
        db.execute("DELETE FROM employees WHERE empid = 'e2'")
            .unwrap();
        assert_eq!(
            drained(&mut db),
            [("employees".into(), row("e2", "bob", 80000), None)]
        );
        db.execute("INSERT INTO employees VALUES ('e3', 'cy', 70000)")
            .unwrap();
        assert_eq!(
            drained(&mut db),
            [("employees".into(), None, row("e3", "cy", 70000))]
        );
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
        assert_eq!(
            r,
            QueryResult::Rows(vec![vec![Value::Int(1), Value::Null, Value::Int(3)]])
        );
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
        assert!(db.create_table("employees", &["a"]).is_err());
        assert!(db.execute("INSERT INTO employees VALUES (1)").is_err());
        assert!(db.add_trigger("nope").is_err());
    }

    #[test]
    fn multi_row_update_counts_and_fires_per_row() {
        let mut db = salary_db();
        db.add_trigger("employees").unwrap();
        let r = db.execute("UPDATE employees SET salary = 0").unwrap();
        assert_eq!(r, QueryResult::Affected(2));
        assert_eq!(db.drain_firings().len(), 2);
    }

    #[test]
    fn drained_firing_buffer_keeps_its_capacity() {
        let mut db = salary_db();
        db.add_trigger("employees").unwrap();
        db.execute("UPDATE employees SET salary = 0").unwrap();
        let capacity = db.firings.capacity();
        assert_eq!(db.drain_firings().len(), 2);
        assert!(db.firings.is_empty());
        assert_eq!(db.firings.capacity(), capacity);
        // A dropped drain discards what it did not yield.
        db.execute("UPDATE employees SET salary = 1").unwrap();
        db.drain_firings();
        assert!(db.firings.is_empty());
        assert_eq!(db.firings.capacity(), capacity);
    }
}
