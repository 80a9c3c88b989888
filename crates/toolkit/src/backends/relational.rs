//! Backend for the relational store.
//!
//! Faithful to §4.2.1: every CM-initiated operation runs one of the
//! CM-RID's **command templates** through the store's SQL interface.
//! As a real RIS's prepared statements would, each template is parsed
//! once, when the backend is built, and each read or write binds the
//! item's parameter (`$p0`) and the written value (`$value`) into it as
//! typed values; no command text is built at run time. Spontaneous
//! changes surface through declared **triggers**, mapped back to item
//! names via the `[map <base>]` sections (`table = …`, `key = …`,
//! `col = …`). Each map's base is interned and its columns resolved
//! when the backend is built, so turning a firing into a change builds
//! only the item's parameter slice.
//!
//! A CM write still reads the item's old value through its `read`
//! template first (a template may address any row, so the UPDATE's own
//! firing cannot stand in for it), and drops the firings its commands
//! caused: they are not spontaneous changes.

use crate::backend::{wrong_op, Change, RisBackend};
use crate::msg::SpontaneousOp;
use crate::rid::CmRid;
use hcm_core::{ItemId, SimTime, Sym, Value};
use hcm_ris::relational::{prepare, Command, Database, QueryResult};
use hcm_ris::RisError;

/// One `[map <base>]` section, resolved against the table's schema
/// when the backend is built.
struct TableMap {
    base: Sym,
    table: String,
    /// Indices of the key and value columns in the table's rows.
    key_col: usize,
    val_col: usize,
    /// `Some(k)` when the CM-RID pins the mapping to one row
    /// (`row = k`): the item is then the *unparameterized* `base`.
    fixed_key: Option<String>,
}

impl TableMap {
    fn item_for(&self, key: &Value) -> ItemId {
        match &self.fixed_key {
            Some(_) => ItemId::plain(self.base),
            None => ItemId::with(self.base, [key.clone()]),
        }
    }

    fn key_matches(&self, key: &Value) -> bool {
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
    /// The CM-RID's command templates, prepared: `(op, base, command)`.
    commands: Vec<(String, Sym, Command)>,
}

/// The prepared `op` command for item base `base`.
fn command<'c>(
    commands: &'c [(String, Sym, Command)],
    op: &str,
    base: Sym,
) -> Result<&'c Command, RisError> {
    commands
        .iter()
        .find(|(o, b, _)| o == op && *b == base)
        .map(|(.., cmd)| cmd)
        .ok_or_else(|| RisError::Unsupported(format!("no `{op}` command template for `{base}`")))
}

/// The value `$p0` binds: the item's parameter, `''` for a plain item.
fn key(item: &ItemId) -> Result<&Value, RisError> {
    static PLAIN: Value = Value::Str(String::new());
    match &*item.params {
        [] => Ok(&PLAIN),
        [p] => Ok(p),
        more => Err(RisError::Unsupported(format!(
            "store mapping supports at most 1 item parameter, `{item}` has {}",
            more.len()
        ))),
    }
}

impl RelationalBackend {
    /// Wrap a database per the CM-RID, declaring the triggers the
    /// mapped tables need (the paper's "a CM-Translator supporting a
    /// Notify Interface … may need to declare triggers"), resolving each
    /// map's columns and preparing its command templates. Fails when a
    /// mapped table or column does not exist (its notify interface could
    /// never fire) and when a template does not parse or uses a
    /// placeholder its op does not bind.
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
            // The schema is fixed once built, so each column resolves
            // here, once, instead of by name per trigger firing.
            let schema = db.get_table(table)?;
            let column = |col: &str| {
                schema
                    .col_index(col)
                    .map_err(|_| RisError::NotFound(format!("column `{col}` of `[map {base}]`")))
            };
            maps.push(TableMap {
                base: Sym::intern(base),
                table: table.clone(),
                key_col: column(key_col)?,
                val_col: column(val_col)?,
                fixed_key: props.get("row").cloned(),
            });
        }
        let mut commands = Vec::new();
        for ((op, base), template) in &rid.commands {
            // `$p0` binds the item's parameter, `$value` the value written.
            let params: &[&str] = match op.as_str() {
                "read" | "delete" => &["p0"],
                _ => &["p0", "value"],
            };
            let cmd = prepare(template, params).map_err(|e| match e {
                RisError::BadCommand(msg) => {
                    RisError::BadCommand(format!("[command {op} {base}]: {msg}"))
                }
                other => other,
            })?;
            commands.push((op.clone(), Sym::intern(base), cmd));
        }
        Ok(RelationalBackend { db, maps, commands })
    }

    /// Convert drained trigger firings into item changes.
    fn changes_from_firings(&mut self) -> Vec<Change> {
        let mut out = Vec::new();
        for f in self.db.drain_firings() {
            for m in self.maps.iter().filter(|m| *m.table == *f.table) {
                let key_row = f.new_row.as_ref().or(f.old_row.as_ref());
                let Some(key) = key_row.map(|r| &r[m.key_col]) else {
                    continue;
                };
                if !m.key_matches(key) {
                    continue;
                }
                let old = f.old_row.as_ref().map(|r| r[m.val_col].clone());
                let new = f
                    .new_row
                    .as_ref()
                    .map_or(Value::Null, |r| r[m.val_col].clone());
                // Updates that do not touch the mapped column are not
                // changes to this item.
                if old.as_ref() == Some(&new) {
                    continue;
                }
                out.push(Change {
                    item: m.item_for(key),
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
        self.db.execute(cmd)?;
        Ok(self.changes_from_firings())
    }

    fn write(
        &mut self,
        item: &ItemId,
        value: &Value,
        _now: SimTime,
    ) -> Result<Option<Value>, RisError> {
        let old = self.read(item).ok();
        let key = key(item)?;
        if *value == Value::Null {
            self.db
                .run(command(&self.commands, "delete", item.base)?, &[key])?;
        } else {
            let write = command(&self.commands, "write", item.base)?;
            let result = self.db.run(write, &[key, value])?;
            // UPDATE hit no rows: fall back to the insert template when
            // the CM-RID provides one (upsert behaviour).
            if result == QueryResult::Affected(0) {
                if let Ok(insert) = command(&self.commands, "insert", item.base) {
                    self.db.run(insert, &[key, value])?;
                }
            }
        }
        // CM-initiated writes are not spontaneous: discard the trigger
        // firings they caused so they never surface as `Ws` changes.
        self.db.drain_firings();
        Ok(old)
    }

    fn read(&self, item: &ItemId) -> Result<Value, RisError> {
        let read = command(&self.commands, "read", item.base)?;
        self.db.read_one(read, &[key(item)?])
    }

    fn enumerate(&self, base: Sym) -> Vec<ItemId> {
        let Some(m) = self.maps.iter().find(|m| m.base == base) else {
            return Vec::new();
        };
        let Ok(table) = self.db.get_table(&m.table) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for row in table.rows() {
            let key = &row[m.key_col];
            if m.key_matches(key) {
                out.push(m.item_for(key));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn upsert_by_insert_returns_null_old_value() {
        let mut b = setup();
        let item = ItemId::with("salary1", [Value::from("e9")]);
        // No row yet: the old-value read finds none, the UPDATE hits
        // nothing and the insert template creates the row.
        let old = b.write(&item, &Value::Int(12345), SimTime::ZERO).unwrap();
        assert_eq!(old, Some(Value::Null));
        assert_eq!(b.read(&item).unwrap(), Value::Int(12345));
        let old = b.write(&item, &Value::Int(1), SimTime::ZERO).unwrap();
        assert_eq!(old, Some(Value::Int(12345)));
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

    /// What `e1` reads back after a CM write of `Value::Float(x)`.
    fn float_write_reads_back(x: f64) -> Value {
        let mut b = setup();
        b.write(&e1(), &Value::Float(x), SimTime::ZERO).unwrap();
        b.read(&e1()).unwrap()
    }

    #[test]
    fn float_beyond_the_integer_range_round_trips() {
        // `1e20` has no integer literal; a bound value needs none.
        let back = float_write_reads_back(1e20);
        assert!(matches!(back, Value::Float(f) if f == 1e20), "{back:?}");
    }

    #[test]
    fn integral_float_reads_back_as_a_float() {
        // The value keeps its type: `3.0` is not the integer `3`.
        let back = float_write_reads_back(3.0);
        assert!(matches!(back, Value::Float(f) if f == 3.0), "{back:?}");
    }

    #[test]
    fn unbound_placeholder_fails_the_build_and_names_the_site() {
        let rid = RID.replace(
            "set salary = $value where empid = $p0",
            "set salary = $value where empid = $p1",
        );
        let mut db = Database::new();
        db.create_table("employees", &["empid", "salary"]).unwrap();
        let err = crate::scenario::ScenarioBuilder::new(1)
            .site("B", crate::backends::RawStore::Relational(db), &rid)
            .unwrap()
            .build()
            .err()
            .expect("a `$p1` template must not build");
        assert!(err.msg.starts_with("site `B`: "), "{}", err.msg);
        assert!(err.msg.contains("[command write salary1]"), "{}", err.msg);
        assert!(err.msg.contains("`$p1`"), "{}", err.msg);
        // `$value` in a read or delete command has nothing to bind.
        for op in ["read", "delete"] {
            let src = format!(
                "ris = relational\n[command {op} x]\n\
                 select salary from employees where empid = $value\n"
            );
            let rid = CmRid::parse(&src).unwrap();
            let err = RelationalBackend::new(Database::new(), &rid).err();
            assert!(matches!(err, Some(RisError::BadCommand(_))), "{op}");
        }
    }

    #[test]
    fn missing_map_column_fails_the_build_and_names_the_site() {
        for (from, col) in [("key = empid", "key = id"), ("col = salary", "col = pay")] {
            let rid = RID.replace(from, col);
            let mut db = Database::new();
            db.create_table("employees", &["empid", "salary"]).unwrap();
            let err = crate::scenario::ScenarioBuilder::new(1)
                .site("A", crate::backends::RawStore::Relational(db), &rid)
                .unwrap()
                .build()
                .err()
                .expect("a map naming a missing column must not build");
            let missing = col.split(" = ").nth(1).unwrap();
            let want = format!("site `A`: not found: column `{missing}` of `[map salary1]`");
            assert_eq!(err.msg, want);
        }
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
        let e2 = ItemId::with("salary1", [Value::from("e2")]);
        b.write(&e2, &Value::Int(1), SimTime::ZERO).unwrap();
        assert_eq!(b.enumerate(Sym::from("salary1")), [e1(), e2]);
        assert!(b.enumerate(Sym::from("unmapped")).is_empty());
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
