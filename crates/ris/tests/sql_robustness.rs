//! Robustness of the relational RIS's command parser against damaged
//! command text.
//!
//! Every command shape the SQL subset accepts is mutated many times —
//! byte flips, truncation, token deletion and duplication, non-ASCII
//! insertions — and fed to `parse_command` and to `Database::execute`
//! on a populated database. Each call must return `Ok` or `Err`; none
//! may panic. Command text arrives from outside the process (the CM
//! sends it, and spontaneous workloads write it), so a malformed
//! command has to degrade to a `BadCommand` error.
//!
//! Driven by a local SplitMix64 generator, so every run checks the
//! same cases.

use hcm_core::Value;
use hcm_ris::relational::{parse_command, Check, CheckOperand, Database, SqlOp};
use hcm_ris::RisError;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Minimal deterministic generator (SplitMix64).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// One command of every shape the grammar accepts, valid against
/// [`populated`].
const SHAPES: &[&str] = &[
    "INSERT INTO employees VALUES ('e9', 'zoe', 70000)",
    "INSERT INTO employees (salary, empid) VALUES (-5, 'e8')",
    "INSERT INTO accounts VALUES ('O''Brien', 2.5)",
    "INSERT INTO scratch VALUES (NULL, TRUE, FALSE)",
    "SELECT salary FROM employees WHERE empid = 'e1'",
    "select empid, name from employees where salary >= 0 and salary < 100000",
    "SELECT * FROM employees",
    "SELECT * FROM accounts WHERE bal <> 3 AND acct != 'a'",
    "SELECT acct, bal FROM accounts WHERE bal <= 100 AND bal > -1",
    "update employees set salary = 90000 where empid = 'e42'",
    "UPDATE employees SET salary = 1, name = 'x' WHERE empid = 'e1' AND salary > -1",
    "UPDATE accounts SET bal = 0",
    "DELETE FROM employees WHERE empid = 'e2'",
    "DELETE FROM accounts",
];

/// A database the shapes run against: three tables, a trigger and a
/// CHECK constraint, so execution reaches every code path.
fn populated() -> Database {
    let mut db = Database::new();
    db.create_table("employees", &["empid", "name", "salary"])
        .unwrap();
    db.create_table("accounts", &["acct", "bal"]).unwrap();
    db.create_table("scratch", &["x", "y", "z"]).unwrap();
    for cmd in [
        "INSERT INTO employees VALUES ('e1', 'ann', 90000)",
        "INSERT INTO employees VALUES ('e2', 'bob', 80000)",
        "INSERT INTO accounts VALUES ('a', 10)",
        "INSERT INTO accounts VALUES ('b', 250.5)",
    ] {
        db.execute(cmd).unwrap();
    }
    db.add_trigger("employees").unwrap();
    db.add_check(Check {
        table: "accounts".into(),
        left: CheckOperand::Col("bal".into()),
        op: SqlOp::Ge,
        right: CheckOperand::Lit(Value::Int(0)),
    })
    .unwrap();
    db
}

const NON_ASCII: &[&str] = &["é", "ß", "Ω", "→", "😀", "\u{0}", "\u{FFFD}", "\u{300}"];

/// The char boundaries of `s`, end included.
fn boundaries(s: &str) -> Vec<usize> {
    s.char_indices().map(|(i, _)| i).chain([s.len()]).collect()
}

/// One random mutation of `src`.
fn mutate(g: &mut Gen, src: &str) -> String {
    if src.trim().is_empty() {
        return NON_ASCII[g.below(NON_ASCII.len())].to_owned();
    }
    match g.below(6) {
        // Flip one bit of one byte; invalid UTF-8 becomes U+FFFD.
        0 => {
            let mut bytes = src.as_bytes().to_vec();
            let i = g.below(bytes.len());
            bytes[i] ^= 1 << g.below(8);
            String::from_utf8_lossy(&bytes).into_owned()
        }
        // Truncate at a byte, which may split a character.
        1 => String::from_utf8_lossy(&src.as_bytes()[..g.below(src.len() + 1)]).into_owned(),
        // Delete or duplicate one whitespace-separated token.
        2 | 3 => {
            let mut words: Vec<&str> = src.split_whitespace().collect();
            let i = g.below(words.len());
            if g.below(2) == 0 {
                words.remove(i);
            } else {
                words.insert(i, words[i]);
            }
            words.join(" ")
        }
        // Delete one character: a parenthesis, quote or operator half.
        4 => {
            let b = boundaries(src);
            let k = g.below(b.len() - 1);
            format!("{}{}", &src[..b[k]], &src[b[k + 1]..])
        }
        // Insert a non-ASCII character anywhere, literals included.
        _ => {
            let b = boundaries(src);
            let at = b[g.below(b.len())];
            let ch = NON_ASCII[g.below(NON_ASCII.len())];
            format!("{}{ch}{}", &src[..at], &src[at..])
        }
    }
}

/// Parse and execute `cmd`, turning a panic into a test failure that
/// names the input. Returns whether the command parsed.
fn must_not_panic(db: &mut Database, cmd: &str) -> bool {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let parsed = parse_command(cmd).is_ok();
        let _ = db.execute(cmd);
        db.drain_firings();
        parsed
    }));
    outcome.unwrap_or_else(|_| panic!("panicked on {cmd:?}"))
}

#[test]
fn every_shape_parses_and_runs_unmutated() {
    for shape in SHAPES {
        assert!(parse_command(shape).is_ok(), "{shape}");
        populated()
            .execute(shape)
            .unwrap_or_else(|e| panic!("{shape}: {e}"));
    }
}

/// The forms outside the dialect — SQL DDL, aggregates, ORDER BY and
/// LIMIT — are ordinary bad commands, and leave the database as it was.
#[test]
fn removed_forms_are_bad_commands() {
    for cmd in [
        "CREATE TABLE fresh (a, b, c)",
        "DROP TABLE scratch",
        "SELECT COUNT(*) FROM accounts",
        "SELECT acct FROM accounts ORDER BY bal",
        "SELECT acct FROM accounts LIMIT 1",
    ] {
        let mut db = populated();
        match db.execute(cmd) {
            Err(RisError::BadCommand(_)) => {}
            other => panic!("{cmd}: expected BadCommand, got {other:?}"),
        }
        assert!(db.get_table("scratch").is_ok(), "{cmd}");
        assert!(db.get_table("fresh").is_err(), "{cmd}");
    }
}

#[test]
fn mutated_commands_return_errors_without_panicking() {
    let mut g = Gen(0x5EED);
    let (mut runs, mut rejected) = (0, 0);
    for shape in SHAPES {
        let mut db = populated();
        for round in 0..300 {
            let mut cmd = mutate(&mut g, shape);
            // Some rounds stack a second mutation on the first.
            if round % 3 == 0 {
                cmd = mutate(&mut g, &cmd);
            }
            runs += 1;
            if !must_not_panic(&mut db, &cmd) {
                rejected += 1;
            }
            if round % 50 == 49 {
                db = populated();
            }
        }
    }
    // The mutations really damage the text: most of it no longer parses.
    assert!(rejected * 2 > runs, "only {rejected} of {runs} rejected");
}
