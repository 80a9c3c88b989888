//! Backend for the relational store.
//!
//! Faithful to §4.2.1: every CM-initiated operation is a **command
//! string** built from the CM-RID's templates by `$param` substitution
//! and submitted through the store's textual `execute` interface.
//! Spontaneous changes surface through declared **triggers**, mapped
//! back to item names via the `[map <base>]` sections
//! (`table = …`, `key = …`, `col = …`).

use crate::backend::{single_param, wrong_op, Change, RisBackend};
use crate::msg::SpontaneousOp;
use crate::rid::{substitute, CmRid};
use hcm_core::{ItemId, ItemPattern, SimTime, Value};
use hcm_ris::relational::{Database, QueryResult};
use hcm_ris::RisError;

struct TableMap {
    base: String,
    table: String,
    key_col: String,
    val_col: String,
    /// `Some(k)` when the CM-RID pins the mapping to one row
    /// (`row = k`): the item is then the *unparameterized* `base`.
    fixed_key: Option<String>,
}

impl TableMap {
    fn item_for(&self, key: &hcm_core::Value) -> ItemId {
        match &self.fixed_key {
            Some(_) => ItemId::plain(self.base.clone()),
            None => ItemId::with(self.base.clone(), [key.clone()]),
        }
    }

    fn key_matches(&self, key: &hcm_core::Value) -> bool {
        match &self.fixed_key {
            Some(k) => key.as_str() == Some(k.as_str()) || key.to_string() == *k,
            None => true,
        }
    }
}

/// See module docs.
pub struct RelationalBackend {
    db: Database,
    maps: Vec<TableMap>,
    commands: std::collections::BTreeMap<(String, String), String>,
}

impl RelationalBackend {
    /// Wrap a database per the CM-RID, declaring the triggers the
    /// mapped tables need (the paper's "a CM-Translator supporting a
    /// Notify Interface … may need to declare triggers"). Fails when a
    /// mapped table does not exist: its notify interface could never
    /// fire.
    pub(crate) fn new(db: Database, rid: &CmRid) -> Result<Self, RisError> {
        let mut db = db;
        let mut maps = Vec::new();
        for (base, props) in &rid.maps {
            let (Some(table), Some(key_col), Some(val_col)) =
                (props.get("table"), props.get("key"), props.get("col"))
            else {
                continue;
            };
            // Triggers power the native change feed; tables may be
            // mapped by several bases, but one trigger each suffices.
            if !maps.iter().any(|m: &TableMap| &m.table == table) {
                db.add_trigger(table).map_err(|_| {
                    RisError::NotFound(format!("table `{table}` of `[map {base}]`"))
                })?;
            }
            maps.push(TableMap {
                base: base.clone(),
                table: table.clone(),
                key_col: key_col.clone(),
                val_col: val_col.clone(),
                fixed_key: props.get("row").cloned(),
            });
        }
        Ok(RelationalBackend {
            db,
            maps,
            commands: rid.commands.clone(),
        })
    }

    fn command(&self, op: &str, base: &str) -> Result<&str, RisError> {
        self.commands
            .get(&(op.to_owned(), base.to_owned()))
            .map(String::as_str)
            .ok_or_else(|| {
                RisError::Unsupported(format!("no `{op}` command template for `{base}`"))
            })
    }

    fn run(&mut self, cmd: &str) -> Result<QueryResult, RisError> {
        self.db.execute(cmd)
    }

    /// Convert drained trigger firings into item changes.
    fn changes_from_firings(&mut self) -> Vec<Change> {
        let firings = self.db.take_firings();
        let mut out = Vec::new();
        for f in firings {
            for m in self.maps.iter().filter(|m| m.table == f.table) {
                let Ok(table) = self.db.get_table(&f.table) else {
                    continue;
                };
                let (Ok(ki), Ok(vi)) = (table.col_index(&m.key_col), table.col_index(&m.val_col))
                else {
                    continue;
                };
                let key_row = f.new_row.as_ref().or(f.old_row.as_ref());
                let Some(key) = key_row.map(|r| r[ki].clone()) else {
                    continue;
                };
                if !m.key_matches(&key) {
                    continue;
                }
                let old = f.old_row.as_ref().map(|r| r[vi].clone());
                let new = f.new_row.as_ref().map_or(Value::Null, |r| r[vi].clone());
                // Updates that do not touch the mapped column are not
                // changes to this item.
                if old.as_ref() == Some(&new) {
                    continue;
                }
                out.push(Change {
                    item: m.item_for(&key),
                    old,
                    new,
                });
            }
        }
        out
    }
}

impl RisBackend for RelationalBackend {
    fn has_change_feed(&self) -> bool {
        true // triggers
    }

    fn apply_spontaneous(
        &mut self,
        op: &SpontaneousOp,
        _now: SimTime,
    ) -> Result<Vec<Change>, RisError> {
        let SpontaneousOp::Sql(cmd) = op else {
            return Err(wrong_op("relational", op));
        };
        self.run(cmd)?;
        Ok(self.changes_from_firings())
    }

    fn write(
        &mut self,
        item: &ItemId,
        value: &Value,
        _now: SimTime,
    ) -> Result<Option<Value>, RisError> {
        let old = self.read(item).ok();
        let param = single_param(item)?;
        let params = [Value::Str(param)];
        if *value == Value::Null {
            let tpl = self.command("delete", &item.base)?.to_owned();
            self.run(&substitute(&tpl, &params, None, true))?;
        } else {
            let tpl = self.command("write", &item.base)?.to_owned();
            let result = self.run(&substitute(&tpl, &params, Some(value), true))?;
            // UPDATE hit no rows: fall back to the insert template when
            // the CM-RID provides one (upsert behaviour).
            if result == QueryResult::Affected(0) {
                if let Ok(ins) = self.command("insert", &item.base) {
                    let ins = ins.to_owned();
                    self.run(&substitute(&ins, &params, Some(value), true))?;
                }
            }
        }
        // CM-initiated writes are not spontaneous: consume the trigger
        // firings they caused so they never surface as `Ws` changes.
        let _ = self.db.take_firings();
        Ok(old)
    }

    fn read(&self, item: &ItemId) -> Result<Value, RisError> {
        let tpl = self.command("read", &item.base)?;
        let param = single_param(item)?;
        let result = self
            .db
            .query(&substitute(tpl, &[Value::Str(param)], None, true))?;
        // The first column of the first row; no row reads as Null.
        let QueryResult::Rows(rows) = result else {
            return Ok(Value::Null);
        };
        Ok(rows
            .into_iter()
            .next()
            .and_then(|row| row.into_iter().next())
            .unwrap_or(Value::Null))
    }

    fn enumerate(&self, pattern: &ItemPattern) -> Vec<ItemId> {
        let Some(m) = self.maps.iter().find(|m| m.base == pattern.base) else {
            return Vec::new();
        };
        let Ok(table) = self.db.get_table(&m.table) else {
            return Vec::new();
        };
        let Ok(ki) = table.col_index(&m.key_col) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for row in table.rows() {
            if !m.key_matches(&row[ki]) {
                continue;
            }
            let item = m.item_for(&row[ki]);
            let mut b = hcm_core::Bindings::new();
            if pattern.match_item(&item, &mut b) {
                out.push(item);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcm_core::Term;

    const RID: &str = r#"
ris = relational
[interface]
Ws(salary1(n), b) -> N(salary1(n), b) within 2s
WR(salary1(n), b) -> W(salary1(n), b) within 1s
[command write salary1]
update employees set salary = $value where empid = $p0
[command insert salary1]
insert into employees values ($p0, $value)
[command read salary1]
select salary from employees where empid = $p0
[command delete salary1]
delete from employees where empid = $p0
[map salary1]
table = employees
key = empid
col = salary
"#;

    fn setup() -> RelationalBackend {
        let mut db = Database::new();
        db.create_table("employees", &["empid", "salary"]).unwrap();
        db.execute("INSERT INTO employees VALUES ('e1', 90000)")
            .unwrap();
        let rid = CmRid::parse(RID).unwrap();
        RelationalBackend::new(db, &rid).unwrap()
    }

    fn e1() -> ItemId {
        ItemId::with("salary1", [Value::from("e1")])
    }

    #[test]
    fn spontaneous_sql_produces_changes() {
        let mut b = setup();
        let changes = b
            .apply_spontaneous(
                &SpontaneousOp::Sql(
                    "update employees set salary = 95000 where empid = 'e1'".into(),
                ),
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].item, e1());
        assert_eq!(changes[0].old, Some(Value::Int(90000)));
        assert_eq!(changes[0].new, Value::Int(95000));
    }

    #[test]
    fn spontaneous_insert_and_delete_are_changes() {
        let mut b = setup();
        let ins = b
            .apply_spontaneous(
                &SpontaneousOp::Sql("insert into employees values ('e2', 50000)".into()),
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(ins[0].new, Value::Int(50000));
        assert_eq!(ins[0].old, None);
        let del = b
            .apply_spontaneous(
                &SpontaneousOp::Sql("delete from employees where empid = 'e2'".into()),
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(del[0].new, Value::Null);
    }

    #[test]
    fn no_change_when_other_column_updated() {
        let mut db = Database::new();
        db.create_table("employees", &["empid", "salary", "office"])
            .unwrap();
        db.execute("INSERT INTO employees VALUES ('e1', 90000, 'b1')")
            .unwrap();
        let rid = CmRid::parse(RID).unwrap();
        let mut b = RelationalBackend::new(db, &rid).unwrap();
        let changes = b
            .apply_spontaneous(
                &SpontaneousOp::Sql("update employees set office = 'b2' where empid = 'e1'".into()),
                SimTime::ZERO,
            )
            .unwrap();
        assert!(changes.is_empty());
    }

    #[test]
    fn cm_write_uses_template_and_suppresses_feed() {
        let mut b = setup();
        let old = b.write(&e1(), &Value::Int(99000), SimTime::ZERO).unwrap();
        assert_eq!(old, Some(Value::Int(90000)));
        assert_eq!(b.read(&e1()).unwrap(), Value::Int(99000));
        // No spontaneous change surfaced.
        let changes = b
            .apply_spontaneous(
                &SpontaneousOp::Sql("select empid from employees".into()),
                SimTime::ZERO,
            )
            .unwrap();
        assert!(changes.is_empty());
    }

    #[test]
    fn write_upserts_via_insert_template() {
        let mut b = setup();
        let item = ItemId::with("salary1", [Value::from("e9")]);
        b.write(&item, &Value::Int(12345), SimTime::ZERO).unwrap();
        assert_eq!(b.read(&item).unwrap(), Value::Int(12345));
    }

    #[test]
    fn quoted_string_values_round_trip() {
        let mut b = setup();
        for name in ["O'Brien", "x', salary = 'y", "''", "$p0 $value"] {
            let item = ItemId::with("salary1", [Value::from(name)]);
            b.write(&item, &Value::from(name), SimTime::ZERO).unwrap();
            assert_eq!(b.read(&item).unwrap(), Value::from(name), "key {name:?}");
        }
        // The injection attempt did not touch the existing row.
        assert_eq!(b.read(&e1()).unwrap(), Value::Int(90000));
    }

    #[test]
    fn null_write_deletes() {
        let mut b = setup();
        b.write(&e1(), &Value::Null, SimTime::ZERO).unwrap();
        assert_eq!(b.read(&e1()).unwrap(), Value::Null);
    }

    #[test]
    fn enumerate_matches_pattern() {
        let mut b = setup();
        b.write(
            &ItemId::with("salary1", [Value::from("e2")]),
            &Value::Int(1),
            SimTime::ZERO,
        )
        .unwrap();
        let pat = ItemPattern::with("salary1", [Term::var("n")]);
        let items = b.enumerate(&pat);
        assert_eq!(items.len(), 2);
        let ground = ItemPattern::with("salary1", [Term::Const(Value::from("e1"))]);
        assert_eq!(b.enumerate(&ground).len(), 1);
        assert!(b.enumerate(&ItemPattern::plain("unmapped")).is_empty());
    }

    #[test]
    fn wrong_op_shape_is_an_error() {
        let mut b = setup();
        let err = b
            .apply_spontaneous(
                &SpontaneousOp::KvPut {
                    key: "k".into(),
                    value: Value::Int(1),
                },
                SimTime::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, RisError::Unsupported(_)), "{err:?}");
        assert_eq!(b.read(&e1()).unwrap(), Value::Int(90000));
    }
}
