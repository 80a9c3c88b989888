//! Parser for the engine's SQL subset.
//!
//! Grammar (keywords case-insensitive, identifiers case-sensitive):
//!
//! ```text
//! INSERT INTO t VALUES (v1, v2, …)
//! INSERT INTO t (c1, c2) VALUES (v1, v2)
//! SELECT c1, c2 FROM t [WHERE c = v [AND …]]
//! SELECT * FROM t [WHERE …]
//! UPDATE t SET c = v [, c = v …] [WHERE …]
//! DELETE FROM t [WHERE …]
//! ```
//!
//! Tables are created programmatically
//! ([`super::Database::create_table`]); the textual interface carries
//! only the commands a CM-RID template or an application sends.
//!
//! Literals: integers, floats, `'single-quoted strings'`, `NULL`,
//! `TRUE`, `FALSE`. Predicates compare a column to a literal with
//! `=`, `!=`/`<>`, `<`, `<=`, `>`, `>=`, joined by `AND`.
//!
//! A template read by [`prepare`] may also put a placeholder `$name`
//! where a literal may stand: a `WHERE` right-hand side, a `SET` value
//! or a `VALUES` entry. Each run binds it to a typed [`Value`].

use crate::RisError;
use hcm_core::Value;

/// Comparison operators usable in WHERE clauses and CHECK constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqlOp {
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl SqlOp {
    /// Apply the comparison; incomparable pairs are simply unequal /
    /// false (SQL three-valued logic collapsed to false, which is what
    /// a predicate needs).
    #[must_use]
    pub fn apply(self, a: &Value, b: &Value) -> bool {
        match self {
            SqlOp::Eq => a == b,
            SqlOp::Ne => a != b,
            _ => match a.compare(b) {
                Some(ord) => match self {
                    SqlOp::Lt => ord.is_lt(),
                    SqlOp::Le => ord.is_le(),
                    SqlOp::Gt => ord.is_gt(),
                    SqlOp::Ge => ord.is_ge(),
                    SqlOp::Eq | SqlOp::Ne => unreachable!(),
                },
                None => false,
            },
        }
    }
}

/// Where a literal may stand: a literal, or a placeholder that
/// [`prepare`] read and the caller binds when the command runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A literal.
    Lit(Value),
    /// The placeholder at this index of the names given to [`prepare`].
    Param(usize),
}

impl Operand {
    /// The value this operand stands for under `bindings`.
    pub(crate) fn bind<'a>(&'a self, bindings: &[&'a Value]) -> Result<&'a Value, RisError> {
        match self {
            Operand::Lit(v) => Ok(v),
            Operand::Param(i) => bindings
                .get(*i)
                .copied()
                .ok_or_else(|| bad("unbound placeholder")),
        }
    }
}

/// One `column op operand` conjunct of a WHERE clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Column name.
    pub column: String,
    /// Operator.
    pub op: SqlOp,
    /// Right-hand side.
    pub value: Operand,
}

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `INSERT INTO`.
    Insert {
        /// Table name.
        table: String,
        /// Explicit column list, if given.
        columns: Option<Vec<String>>,
        /// Values in declaration order.
        values: Vec<Operand>,
    },
    /// `SELECT`.
    Select {
        /// Table name.
        table: String,
        /// Projected columns (`["*"]` for all).
        columns: Vec<String>,
        /// WHERE conjuncts (empty = all rows).
        predicate: Vec<Comparison>,
    },
    /// `UPDATE`.
    Update {
        /// Table name.
        table: String,
        /// `SET` assignments.
        assignments: Vec<(String, Operand)>,
        /// WHERE conjuncts.
        predicate: Vec<Comparison>,
    },
    /// `DELETE`.
    Delete {
        /// Table name.
        table: String,
        /// WHERE conjuncts.
        predicate: Vec<Comparison>,
    },
}

/// A token; identifiers borrow from the command text.
#[derive(Debug, PartialEq)]
enum T<'a> {
    Ident(&'a str),
    Lit(Value),
    Param(usize),
    LParen,
    RParen,
    Comma,
    Op(SqlOp),
    Star,
}

fn bad(msg: impl Into<String>) -> RisError {
    RisError::BadCommand(msg.into())
}

/// The keyword in `keywords` that `word` spells, ignoring ASCII case.
fn keyword_in<'k>(word: &str, keywords: &[&'k str]) -> Option<&'k str> {
    keywords
        .iter()
        .copied()
        .find(|k| word.eq_ignore_ascii_case(k))
}

/// The tokens of `src`, reading `$name` as the placeholder `params`
/// names.
fn tokenize<'a>(src: &'a str, params: &[&str]) -> Result<Vec<T<'a>>, RisError> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'(' => {
                out.push(T::LParen);
                i += 1;
            }
            b')' => {
                out.push(T::RParen);
                i += 1;
            }
            b',' => {
                out.push(T::Comma);
                i += 1;
            }
            b'*' => {
                out.push(T::Star);
                i += 1;
            }
            b'=' => {
                out.push(T::Op(SqlOp::Eq));
                i += 1;
            }
            b'!' if b.get(i + 1) == Some(&b'=') => {
                out.push(T::Op(SqlOp::Ne));
                i += 2;
            }
            b'<' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push(T::Op(SqlOp::Le));
                    i += 2;
                } else if b.get(i + 1) == Some(&b'>') {
                    out.push(T::Op(SqlOp::Ne));
                    i += 2;
                } else {
                    out.push(T::Op(SqlOp::Lt));
                    i += 1;
                }
            }
            b'>' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push(T::Op(SqlOp::Ge));
                    i += 2;
                } else {
                    out.push(T::Op(SqlOp::Gt));
                    i += 1;
                }
            }
            b'\'' => {
                // `''` inside a literal is one escaped quote.
                let mut text = String::new();
                let mut j = i + 1;
                loop {
                    let Some(off) = src[j..].find('\'') else {
                        return Err(bad("unterminated string literal"));
                    };
                    text.push_str(&src[j..j + off]);
                    j += off + 1;
                    if b.get(j) != Some(&b'\'') {
                        break;
                    }
                    text.push('\'');
                    j += 1;
                }
                out.push(T::Lit(Value::Str(text)));
                i = j;
            }
            c if c.is_ascii_digit()
                || (c == b'-' && b.get(i + 1).is_some_and(u8::is_ascii_digit)) =>
            {
                let start = i;
                i += 1;
                let mut is_float = false;
                while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'.') {
                    if b[i] == b'.' {
                        is_float = true;
                    }
                    i += 1;
                }
                let text = &src[start..i];
                let v = if is_float {
                    Value::Float(text.parse().map_err(|e| bad(format!("bad float: {e}")))?)
                } else {
                    Value::Int(text.parse().map_err(|e| bad(format!("bad integer: {e}")))?)
                };
                out.push(T::Lit(v));
            }
            c if c.is_ascii_alphabetic() || c == b'_' || c == b'$' => {
                let start = i;
                i += 1;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                let word = &src[start..i];
                out.push(if let Some(name) = word.strip_prefix('$') {
                    let at = params.iter().position(|p| *p == name);
                    T::Param(at.ok_or_else(|| bad(format!("unknown placeholder `{word}`")))?)
                } else {
                    match keyword_in(word, &["NULL", "TRUE", "FALSE"]) {
                        Some("NULL") => T::Lit(Value::Null),
                        Some(kw) => T::Lit(Value::Bool(kw == "TRUE")),
                        None => T::Ident(word),
                    }
                });
            }
            _ => {
                let other = src[i..].chars().next().expect("i < len");
                return Err(bad(format!("unexpected character `{other}`")));
            }
        }
    }
    Ok(out)
}

/// The parser state: the tokens not yet consumed, last token first,
/// so consuming one pops it and moves it out.
struct P<'a> {
    rest: Vec<T<'a>>,
}

impl<'a> P<'a> {
    fn next(&mut self) -> Option<T<'a>> {
        self.rest.pop()
    }

    fn peek(&self) -> Option<&T<'a>> {
        self.rest.last()
    }

    fn keyword(&mut self, kw: &str) -> Result<(), RisError> {
        match self.next() {
            Some(T::Ident(w)) if w.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(bad(format!("expected `{kw}`, found {other:?}"))),
        }
    }

    fn is_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(T::Ident(w)) if w.eq_ignore_ascii_case(kw))
    }

    fn word(&mut self) -> Result<&'a str, RisError> {
        match self.next() {
            Some(T::Ident(w)) => Ok(w),
            other => Err(bad(format!("expected identifier, found {other:?}"))),
        }
    }

    /// An identifier the command keeps: a table or column name.
    fn ident(&mut self) -> Result<String, RisError> {
        self.word().map(str::to_owned)
    }

    fn literal(&mut self) -> Result<Operand, RisError> {
        match self.next() {
            Some(T::Lit(v)) => Ok(Operand::Lit(v)),
            Some(T::Param(i)) => Ok(Operand::Param(i)),
            other => Err(bad(format!("expected literal, found {other:?}"))),
        }
    }

    fn expect(&mut self, t: &T<'_>) -> Result<(), RisError> {
        match self.next() {
            Some(x) if x == *t => Ok(()),
            other => Err(bad(format!("expected {t:?}, found {other:?}"))),
        }
    }

    fn end(&self) -> Result<(), RisError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(bad("trailing input after command"))
        }
    }

    fn where_clause(&mut self) -> Result<Vec<Comparison>, RisError> {
        if !self.is_keyword("WHERE") {
            return Ok(Vec::new());
        }
        self.next();
        let mut preds = Vec::new();
        loop {
            let column = self.ident()?;
            let op = match self.next() {
                Some(T::Op(op)) => op,
                other => return Err(bad(format!("expected comparison, found {other:?}"))),
            };
            let value = self.literal()?;
            preds.push(Comparison { column, op, value });
            if self.is_keyword("AND") {
                self.next();
            } else {
                break;
            }
        }
        Ok(preds)
    }

    fn ident_list(&mut self) -> Result<Vec<String>, RisError> {
        self.expect(&T::LParen)?;
        let mut cols = Vec::new();
        loop {
            cols.push(self.ident()?);
            match self.next() {
                Some(T::Comma) => continue,
                Some(T::RParen) => break,
                other => return Err(bad(format!("expected `,` or `)`, found {other:?}"))),
            }
        }
        Ok(cols)
    }

    fn literal_list(&mut self) -> Result<Vec<Operand>, RisError> {
        self.expect(&T::LParen)?;
        let mut vals = Vec::new();
        loop {
            vals.push(self.literal()?);
            match self.next() {
                Some(T::Comma) => continue,
                Some(T::RParen) => break,
                other => return Err(bad(format!("expected `,` or `)`, found {other:?}"))),
            }
        }
        Ok(vals)
    }
}

/// Parse one command; a placeholder in it is a bad command.
pub fn parse_command(src: &str) -> Result<Command, RisError> {
    prepare(src, &[])
}

/// Parse a command template once, to run many times. `$name` is a
/// placeholder for each name in `params`; [`super::Database::run`] and
/// [`super::Database::read_one`] bind it to the value at that name's
/// index. Any other `$name` is a bad command.
pub fn prepare(src: &str, params: &[&str]) -> Result<Command, RisError> {
    let mut rest = tokenize(src, params)?;
    rest.reverse();
    let mut p = P { rest };
    let head = p.word()?;
    let cmd = match keyword_in(head, &["INSERT", "SELECT", "UPDATE", "DELETE"]) {
        Some("INSERT") => {
            p.keyword("INTO")?;
            let table = p.ident()?;
            let columns = if matches!(p.peek(), Some(T::LParen)) {
                Some(p.ident_list()?)
            } else {
                None
            };
            p.keyword("VALUES")?;
            let values = p.literal_list()?;
            Command::Insert {
                table,
                columns,
                values,
            }
        }
        Some("SELECT") => {
            let mut columns = Vec::new();
            if matches!(p.peek(), Some(T::Star)) {
                p.next();
                columns.push("*".to_owned());
            } else {
                loop {
                    columns.push(p.ident()?);
                    if matches!(p.peek(), Some(T::Comma)) {
                        p.next();
                    } else {
                        break;
                    }
                }
            }
            p.keyword("FROM")?;
            let table = p.ident()?;
            let predicate = p.where_clause()?;
            Command::Select {
                table,
                columns,
                predicate,
            }
        }
        Some("UPDATE") => {
            let table = p.ident()?;
            p.keyword("SET")?;
            let mut assignments = Vec::new();
            loop {
                let col = p.ident()?;
                match p.next() {
                    Some(T::Op(SqlOp::Eq)) => {}
                    other => return Err(bad(format!("expected `=`, found {other:?}"))),
                }
                let val = p.literal()?;
                assignments.push((col, val));
                if matches!(p.peek(), Some(T::Comma)) {
                    p.next();
                } else {
                    break;
                }
            }
            let predicate = p.where_clause()?;
            Command::Update {
                table,
                assignments,
                predicate,
            }
        }
        Some("DELETE") => {
            p.keyword("FROM")?;
            let table = p.ident()?;
            let predicate = p.where_clause()?;
            Command::Delete { table, predicate }
        }
        _ => {
            let head = head.to_ascii_uppercase();
            return Err(bad(format!("unknown command `{head}`")));
        }
    };
    p.end()?;
    Ok(cmd)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits<const N: usize>(values: [Value; N]) -> Vec<Operand> {
        values.into_iter().map(Operand::Lit).collect()
    }

    #[test]
    fn parses_insert_variants() {
        let c = parse_command("INSERT INTO t VALUES (1, 'x', NULL)").unwrap();
        match c {
            Command::Insert {
                columns: None,
                values,
                ..
            } => {
                assert_eq!(values, lits([Value::Int(1), Value::from("x"), Value::Null]));
            }
            other => panic!("unexpected {other:?}"),
        }
        let c = parse_command("insert into t (b, a) values (2.5, TRUE)").unwrap();
        match c {
            Command::Insert {
                columns: Some(cols),
                values,
                ..
            } => {
                assert_eq!(cols, vec!["b".to_string(), "a".to_string()]);
                assert_eq!(values, lits([Value::Float(2.5), Value::Bool(true)]));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_select_with_where() {
        let c = parse_command("SELECT salary FROM employees WHERE empid = 'e1' AND salary >= 0")
            .unwrap();
        match c {
            Command::Select {
                table,
                columns,
                predicate,
                ..
            } => {
                assert_eq!(table, "employees");
                assert_eq!(columns, vec!["salary".to_string()]);
                assert_eq!(predicate.len(), 2);
                assert_eq!(predicate[1].op, SqlOp::Ge);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_select_star() {
        let c = parse_command("SELECT * FROM t").unwrap();
        assert!(matches!(c, Command::Select { ref columns, .. } if columns == &["*".to_string()]));
    }

    #[test]
    fn parses_update_lowercase() {
        // The exact command template from the paper's CM-RID (§4.2.1).
        let c = parse_command("update employees set salary = 90000 where empid = 'e42'").unwrap();
        match c {
            Command::Update {
                table,
                assignments,
                predicate,
            } => {
                assert_eq!(table, "employees");
                assert_eq!(
                    assignments,
                    vec![("salary".to_string(), Operand::Lit(Value::Int(90000)))]
                );
                assert_eq!(predicate[0].value, Operand::Lit(Value::from("e42")));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_delete_and_ne_spellings() {
        let c = parse_command("DELETE FROM t WHERE a != 1 AND b <> 2").unwrap();
        match c {
            Command::Delete { predicate, .. } => {
                assert_eq!(predicate[0].op, SqlOp::Ne);
                assert_eq!(predicate[1].op, SqlOp::Ne);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn negative_numbers() {
        let c = parse_command("INSERT INTO t VALUES (-5, -2.5)").unwrap();
        match c {
            Command::Insert { values, .. } => {
                assert_eq!(values, lits([Value::Int(-5), Value::Float(-2.5)]));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sql_op_apply() {
        assert!(SqlOp::Le.apply(&Value::Int(3), &Value::Int(3)));
        assert!(SqlOp::Ne.apply(&Value::Int(3), &Value::from("x")));
        assert!(!SqlOp::Lt.apply(&Value::from("x"), &Value::Int(3)));
    }

    #[test]
    fn doubled_quote_is_an_escaped_quote() {
        let c = parse_command("INSERT INTO t VALUES ('O''Brien', '', '''')").unwrap();
        match c {
            Command::Insert { values, .. } => assert_eq!(
                values,
                lits([Value::from("O'Brien"), Value::from(""), Value::from("'")])
            ),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn non_ascii_input_is_reported_as_written() {
        for (src, bad_char) in [
            ("SELECT a FROM t WHERE a = é", 'é'),
            ("SELECT café FROM t", 'é'),
        ] {
            match parse_command(src) {
                Err(RisError::BadCommand(msg)) => {
                    assert_eq!(msg, format!("unexpected character `{bad_char}`"));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // Inside a literal it is just text.
        match parse_command("INSERT INTO t VALUES ('café')").unwrap() {
            Command::Insert { values, .. } => assert_eq!(values, lits([Value::from("café")])),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn errors() {
        assert!(parse_command("TRUNCATE TABLE t").is_err());
        assert!(parse_command("SELECT FROM t").is_err());
        assert!(parse_command("INSERT INTO t VALUES (1) trailing").is_err());
        assert!(parse_command("UPDATE t SET a > 1").is_err());
        assert!(parse_command("SELECT a FROM t WHERE a").is_err());
        assert!(parse_command("INSERT INTO t VALUES ('unterminated)").is_err());
        assert!(parse_command("INSERT INTO t VALUES ('a'')").is_err());
        assert!(parse_command("SELECT a FROM t WHERE a = $b").is_err());
    }

    #[test]
    fn execute_rejects_a_placeholder() {
        // Application SQL is parsed with no placeholder names, so a
        // template sent as a command is a syntax error, not a query.
        let mut db = crate::relational::Database::new();
        db.create_table("employees", &["empid", "salary"]).unwrap();
        let err = db
            .execute("select salary from employees where empid = $p0")
            .unwrap_err();
        assert_eq!(
            err,
            RisError::BadCommand("unknown placeholder `$p0`".to_owned())
        );
    }

    #[test]
    fn placeholders_are_read_only_by_prepare() {
        let c = prepare(
            "update t set v = $value where k = $p0 and w = 'x'",
            &["p0", "value"],
        )
        .unwrap();
        match c {
            Command::Update {
                assignments,
                predicate,
                ..
            } => {
                assert_eq!(assignments, vec![("v".to_string(), Operand::Param(1))]);
                assert_eq!(predicate[0].value, Operand::Param(0));
                assert_eq!(predicate[1].value, Operand::Lit(Value::from("x")));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Application SQL names no placeholders; a template names only
        // its own, and only where a literal may stand.
        for (src, params) in [
            ("SELECT v FROM t WHERE k = $p0", &[][..]),
            ("SELECT v FROM t WHERE k = $p1", &["p0"][..]),
            ("SELECT v FROM t WHERE $p0 = 1", &["p0"][..]),
            ("SELECT $p0 FROM t", &["p0"][..]),
            ("UPDATE t SET $p0 = 1", &["p0"][..]),
            ("SELECT v FROM t WHERE k = $", &["p0"][..]),
        ] {
            assert!(
                matches!(prepare(src, params), Err(RisError::BadCommand(_))),
                "{src}"
            );
        }
    }
}
