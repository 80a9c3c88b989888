//! Model-based testing of the relational engine: random command
//! sequences are executed both by the engine (through its *textual*
//! interface, like a real client) and by a trivial in-memory model;
//! query results must agree, and trigger firings must mirror the
//! model's mutations. Reads are plain SELECTs, the only query form the
//! engine speaks: whole-table reads are compared with the model as
//! sorted row lists.
//!
//! Formerly proptest-based; now driven by a local SplitMix64 generator
//! so the suite needs no external crates and stays deterministic.

use hcm_core::Value;
use hcm_ris::relational::{Database, QueryResult, Row};
use std::collections::BTreeMap;

/// Minimal deterministic generator (SplitMix64).
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed)
    }
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn int_in(&mut self, lo: i64, hi: i64) -> i64 {
        let span = (hi - lo) as u64 + 1;
        lo + (self.next() % span) as i64
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert {
        id: u8,
        v: i64,
    },
    Update {
        id: u8,
        v: i64,
    },
    Delete {
        id: u8,
    },
    SelectOne {
        id: u8,
    },
    /// `SELECT id FROM t`: one row per model key.
    SelectIds,
    /// `SELECT * FROM t WHERE v >= lo`: the model's rows at or above
    /// `lo`.
    SelectAtLeast {
        lo: i64,
    },
}

fn random_op(g: &mut Gen) -> Op {
    match g.next() % 6 {
        0 => Op::Insert {
            id: g.int_in(0, 11) as u8,
            v: g.int_in(-100, 99),
        },
        1 => Op::Update {
            id: g.int_in(0, 11) as u8,
            v: g.int_in(-100, 99),
        },
        2 => Op::Delete {
            id: g.int_in(0, 11) as u8,
        },
        3 => Op::SelectOne {
            id: g.int_in(0, 11) as u8,
        },
        4 => Op::SelectIds,
        _ => Op::SelectAtLeast {
            lo: g.int_in(-100, 99),
        },
    }
}

/// The rows of a SELECT, sorted (the engine returns table order, which
/// the model does not track).
fn sorted_rows(r: QueryResult) -> Vec<Row> {
    let QueryResult::Rows(mut rows) = r else {
        panic!("a SELECT returned {r:?}");
    };
    rows.sort();
    rows
}

/// The model's `(id, v)` pairs as engine rows, in key order.
fn model_rows<'a>(model: impl Iterator<Item = (&'a u8, &'a i64)>) -> Vec<Row> {
    model
        .map(|(k, v)| vec![Value::Int(i64::from(*k)), Value::Int(*v)])
        .collect()
}

#[test]
fn engine_agrees_with_model() {
    let mut g = Gen::new(0x4B15_0001);
    for case in 0..128 {
        let ops: Vec<Op> = (0..g.int_in(1, 59)).map(|_| random_op(&mut g)).collect();

        let mut db = Database::new();
        db.create_table("t", &["id", "v"]).unwrap();
        db.add_trigger("t").unwrap();
        let mut model: BTreeMap<u8, i64> = BTreeMap::new();

        for op in ops {
            match op {
                Op::Insert { id, v } => {
                    // The engine has no primary keys; model duplicate
                    // inserts as update-or-insert like the workloads do.
                    if model.contains_key(&id) {
                        db.execute(&format!("UPDATE t SET v = {v} WHERE id = {id}"))
                            .unwrap();
                    } else {
                        db.execute(&format!("INSERT INTO t VALUES ({id}, {v})"))
                            .unwrap();
                    }
                    model.insert(id, v);
                    // One row is inserted or rewritten, so one firing —
                    // even when the value is unchanged; only the
                    // translator's *change mapping* filters those.
                    assert_eq!(db.drain_firings().len(), 1, "case {case}");
                }
                Op::Update { id, v } => {
                    let r = db
                        .execute(&format!("UPDATE t SET v = {v} WHERE id = {id}"))
                        .unwrap();
                    let expected = usize::from(model.contains_key(&id));
                    assert_eq!(r, QueryResult::Affected(expected), "case {case}");
                    if model.insert(id, v).is_some() {
                        assert_eq!(db.drain_firings().len(), 1, "case {case}");
                    } else {
                        model.remove(&id);
                        assert!(db.drain_firings().as_slice().is_empty(), "case {case}");
                    }
                }
                Op::Delete { id } => {
                    let r = db
                        .execute(&format!("DELETE FROM t WHERE id = {id}"))
                        .unwrap();
                    let expected = usize::from(model.remove(&id).is_some());
                    assert_eq!(r, QueryResult::Affected(expected), "case {case}");
                    assert_eq!(db.drain_firings().len(), expected, "case {case}");
                }
                Op::SelectOne { id } => {
                    let r = db
                        .execute(&format!("SELECT v FROM t WHERE id = {id}"))
                        .unwrap();
                    let want: Vec<Row> = model
                        .get(&id)
                        .map(|v| vec![Value::Int(*v)])
                        .into_iter()
                        .collect();
                    assert_eq!(r, QueryResult::Rows(want), "case {case}: select {id}");
                }
                Op::SelectIds => {
                    let got = sorted_rows(db.execute("SELECT id FROM t").unwrap());
                    let want: Vec<Row> = model
                        .keys()
                        .map(|k| vec![Value::Int(i64::from(*k))])
                        .collect();
                    assert_eq!(got, want, "case {case}");
                }
                Op::SelectAtLeast { lo } => {
                    let r = db
                        .execute(&format!("SELECT * FROM t WHERE v >= {lo}"))
                        .unwrap();
                    let want = model_rows(model.iter().filter(|(_, v)| **v >= lo));
                    assert_eq!(sorted_rows(r), want, "case {case}");
                }
            }
        }

        // Final full-table agreement.
        let got = sorted_rows(db.execute("SELECT id, v FROM t").unwrap());
        assert_eq!(got, model_rows(model.iter()), "case {case}");
    }
}

/// CHECK constraints: the engine accepts exactly the updates the
/// predicate admits, and rejected commands change nothing.
#[test]
fn check_constraints_are_exact() {
    use hcm_ris::relational::{Check, CheckOperand, SqlOp};
    let mut g = Gen::new(0x4B15_0002);
    for case in 0..128 {
        let updates: Vec<i64> = (0..g.int_in(1, 29)).map(|_| g.int_in(-50, 149)).collect();

        let mut db = Database::new();
        db.create_table("t", &["id", "v"]).unwrap();
        db.execute("INSERT INTO t VALUES (1, 0)").unwrap();
        db.add_check(Check {
            table: "t".into(),
            left: CheckOperand::Col("v".into()),
            op: SqlOp::Le,
            right: CheckOperand::Lit(Value::Int(100)),
        })
        .unwrap();
        let mut current = 0i64;
        for v in updates {
            let r = db.execute(&format!("UPDATE t SET v = {v} WHERE id = 1"));
            if v <= 100 {
                assert!(r.is_ok(), "case {case}: update to {v} rejected");
                current = v;
            } else {
                assert!(r.is_err(), "case {case}: update to {v} accepted");
            }
            let got = db.execute("SELECT v FROM t WHERE id = 1").unwrap();
            assert_eq!(
                got,
                QueryResult::Rows(vec![vec![Value::Int(current)]]),
                "case {case}"
            );
        }
    }
}
