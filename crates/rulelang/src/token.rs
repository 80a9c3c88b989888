//! Lexer for the rule language.

use hcm_core::SimDuration;
use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword candidate.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (quotes stripped).
    Str(String),
    /// Duration literal: a number with an `s` or `ms` suffix, e.g.
    /// `5s`, `300ms`, `2.5s`. Normalized to milliseconds.
    Duration(SimDuration),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `*` — wild-card in templates, multiplication in expressions.
    Star,
    /// `->`
    Arrow,
    /// `=>`
    Implies,
    /// `@`
    At,
    /// `@@`
    AtAll,
    /// `@?`
    AtSome,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Int(i) => write!(f, "{i}"),
            Tok::Float(x) => write!(f, "{x}"),
            Tok::Str(s) => write!(f, "\"{s}\""),
            Tok::Duration(d) => write!(f, "{}ms", d.as_millis()),
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::LBracket => write!(f, "["),
            Tok::RBracket => write!(f, "]"),
            Tok::Comma => write!(f, ","),
            Tok::Semi => write!(f, ";"),
            Tok::Star => write!(f, "*"),
            Tok::Arrow => write!(f, "->"),
            Tok::Implies => write!(f, "=>"),
            Tok::At => write!(f, "@"),
            Tok::AtAll => write!(f, "@@"),
            Tok::AtSome => write!(f, "@?"),
            Tok::Eq => write!(f, "="),
            Tok::Ne => write!(f, "!="),
            Tok::Lt => write!(f, "<"),
            Tok::Le => write!(f, "<="),
            Tok::Gt => write!(f, ">"),
            Tok::Ge => write!(f, ">="),
            Tok::Plus => write!(f, "+"),
            Tok::Minus => write!(f, "-"),
            Tok::Slash => write!(f, "/"),
        }
    }
}

/// A lexing error with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Byte offset of the offending character.
    pub pos: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for LexError {}

/// Tokenize `src`. Comments run from `#` to end of line.
pub fn lex(src: &str) -> Result<Vec<Tok>, LexError> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            '[' => {
                toks.push(Tok::LBracket);
                i += 1;
            }
            ']' => {
                toks.push(Tok::RBracket);
                i += 1;
            }
            ',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            ';' => {
                toks.push(Tok::Semi);
                i += 1;
            }
            '*' => {
                toks.push(Tok::Star);
                i += 1;
            }
            '+' => {
                toks.push(Tok::Plus);
                i += 1;
            }
            '/' => {
                toks.push(Tok::Slash);
                i += 1;
            }
            '-' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    toks.push(Tok::Arrow);
                    i += 2;
                } else {
                    toks.push(Tok::Minus);
                    i += 1;
                }
            }
            '=' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    toks.push(Tok::Implies);
                    i += 2;
                } else {
                    toks.push(Tok::Eq);
                    i += 1;
                }
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(Tok::Ne);
                    i += 2;
                } else {
                    return Err(LexError {
                        pos: i,
                        msg: "expected `!=`".into(),
                    });
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(Tok::Le);
                    i += 2;
                } else {
                    toks.push(Tok::Lt);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(Tok::Ge);
                    i += 2;
                } else {
                    toks.push(Tok::Gt);
                    i += 1;
                }
            }
            '@' => match bytes.get(i + 1) {
                Some(b'@') => {
                    toks.push(Tok::AtAll);
                    i += 2;
                }
                Some(b'?') => {
                    toks.push(Tok::AtSome);
                    i += 2;
                }
                _ => {
                    toks.push(Tok::At);
                    i += 1;
                }
            },
            '"' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'"' {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(LexError {
                        pos: i,
                        msg: "unterminated string".into(),
                    });
                }
                toks.push(Tok::Str(src[start..j].to_owned()));
                i = j + 1;
            }
            _ if c.is_ascii_digit() => {
                let start = i;
                let mut is_float = false;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                if i < bytes.len()
                    && bytes[i] == b'.'
                    && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)
                {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                let num = &src[start..i];
                // Unit suffix: `s` or `ms`, attached without whitespace.
                let suffix_start = i;
                while i < bytes.len() && (bytes[i] as char).is_ascii_alphabetic() {
                    i += 1;
                }
                let suffix = &src[suffix_start..i];
                match suffix {
                    "" => {
                        if is_float {
                            let v = num.parse::<f64>().map_err(|e| LexError {
                                pos: start,
                                msg: format!("bad float: {e}"),
                            })?;
                            toks.push(Tok::Float(v));
                        } else {
                            let v = num.parse::<i64>().map_err(|e| LexError {
                                pos: start,
                                msg: format!("bad integer: {e}"),
                            })?;
                            toks.push(Tok::Int(v));
                        }
                    }
                    "s" | "ms" => {
                        let scale: i64 = if suffix == "s" { 1000 } else { 1 };
                        // Every duration must fit `i64` milliseconds, so
                        // time arithmetic can neither overflow nor flip
                        // sign.
                        let ms = if is_float {
                            let v = num.parse::<f64>().map_err(|e| LexError {
                                pos: start,
                                msg: format!("bad duration: {e}"),
                            })?;
                            let ms = (v * scale as f64).round();
                            (ms < 9_223_372_036_854_775_808.0).then_some(ms as i64)
                        } else {
                            num.parse::<i64>().ok().and_then(|v| v.checked_mul(scale))
                        };
                        let Some(ms) = ms else {
                            return Err(LexError {
                                pos: start,
                                msg: format!("duration `{num}{suffix}` is 2^63 ms or more"),
                            });
                        };
                        toks.push(Tok::Duration(SimDuration::from_millis(ms as u64)));
                    }
                    other => {
                        return Err(LexError {
                            pos: suffix_start,
                            msg: format!("unknown number suffix `{other}` (use `s` or `ms`)"),
                        })
                    }
                }
            }
            _ if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                toks.push(Tok::Ident(src[start..i].to_owned()));
            }
            other => {
                return Err(LexError {
                    pos: i,
                    msg: format!("unexpected character `{other}`"),
                })
            }
        }
    }
    Ok(toks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_interface_statement() {
        let toks = lex("WR(X, b) -> W(X, b) within 1s").unwrap();
        assert_eq!(
            toks,
            vec![
                Tok::Ident("WR".into()),
                Tok::LParen,
                Tok::Ident("X".into()),
                Tok::Comma,
                Tok::Ident("b".into()),
                Tok::RParen,
                Tok::Arrow,
                Tok::Ident("W".into()),
                Tok::LParen,
                Tok::Ident("X".into()),
                Tok::Comma,
                Tok::Ident("b".into()),
                Tok::RParen,
                Tok::Ident("within".into()),
                Tok::Duration(SimDuration::from_secs(1)),
            ]
        );
    }

    #[test]
    fn durations() {
        assert_eq!(
            lex("500ms").unwrap(),
            vec![Tok::Duration(SimDuration::from_millis(500))]
        );
        assert_eq!(
            lex("2.5s").unwrap(),
            vec![Tok::Duration(SimDuration::from_millis(2500))]
        );
        assert!(lex("5kg").is_err());
    }

    #[test]
    fn durations_must_fit_i64_millis() {
        let ms = |n: u64| vec![Tok::Duration(SimDuration::from_millis(n))];
        assert_eq!(lex("9223372036854775807ms").unwrap(), ms(i64::MAX as u64));
        assert_eq!(
            lex("9223372036854775s").unwrap(),
            ms(9_223_372_036_854_775_000)
        );
        for past in [
            "9223372036854775808ms",
            "9223372036854776s",
            "99999999999999999999999s",
            "9223372036854775807.9ms",
            "9223372036854775.9s",
        ] {
            let err = lex(past).unwrap_err();
            assert!(err.msg.contains("2^63 ms or more"), "{past}: {err}");
        }
    }

    #[test]
    fn at_operators() {
        assert_eq!(
            lex("@ @@ @?").unwrap(),
            vec![Tok::At, Tok::AtAll, Tok::AtSome]
        );
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            lex("= != < <= > >= => ->").unwrap(),
            vec![
                Tok::Eq,
                Tok::Ne,
                Tok::Lt,
                Tok::Le,
                Tok::Gt,
                Tok::Ge,
                Tok::Implies,
                Tok::Arrow
            ]
        );
    }

    #[test]
    fn strings_and_numbers() {
        assert_eq!(
            lex("\"e42\" 17 2.5 -3").unwrap(),
            vec![
                Tok::Str("e42".into()),
                Tok::Int(17),
                Tok::Float(2.5),
                Tok::Minus,
                Tok::Int(3)
            ]
        );
        assert!(lex("\"oops").is_err());
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            lex("X # the item\n= 5").unwrap(),
            vec![Tok::Ident("X".into()), Tok::Eq, Tok::Int(5)]
        );
    }

    #[test]
    fn unexpected_char() {
        let err = lex("X $ Y").unwrap_err();
        assert!(err.to_string().contains("unexpected character"));
        assert!(lex("a ! b").is_err());
    }
}
