//! CM-RID — the CM-Raw-Interface-Description file.
//!
//! §4.1: "The design and implementation of the CM-Translator is helped
//! by the CM-RID file, which configures standard CM-Translators to the
//! particular underlying data source by presenting the specifics of the
//! RISI in a standard format."
//!
//! A CM-RID contains:
//!
//! * top-level properties — `ris` (which backend kind), `service`
//!   (the database's internal processing delay, used when performing
//!   requested operations);
//! * an `[interface]` section with the interface statements the
//!   database offers, in the rule language;
//! * for the relational backend, `[command <op> <itembase>]` sections
//!   holding SQL command templates with `$p0` (the item's parameter)
//!   and `$value` (the value written) placeholders — the §4.2.1
//!   mechanism ("update employees set salary = $b where empid = $n").
//!   The backend prepares each template once and binds typed values
//!   into it on every read and write;
//! * for the other backends, `[map <itembase>]` sections describing how
//!   an item name maps onto the store's native namespace (file path,
//!   kv key, whois entry/field, biblio author/title) and how raw text
//!   converts to typed values.

use hcm_core::{SimDuration, TemplateDesc};
use hcm_rulelang::token::{lex, Tok};
use hcm_rulelang::{parse_interface, InterfaceStmt, SpecFile};
use std::collections::BTreeMap;
use std::fmt;

/// Which Raw Information Source a translator adapts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RisKind {
    /// `hcm_ris::relational::Database` — SQL commands, triggers, CHECKs.
    Relational,
    /// `hcm_ris::filestore::FileStore` — whole-file text.
    File,
    /// `hcm_ris::kvstore::KvStore` — typed get/put, watches.
    Kv,
    /// `hcm_ris::biblio::BiblioDb` — append-only records.
    Biblio,
    /// `hcm_ris::whois::WhoisDir` — read-only directory.
    Whois,
    /// `hcm_ris::email::MailSystem` — write-only notification sink.
    Email,
}

impl RisKind {
    fn parse(s: &str) -> Result<Self, RidError> {
        match s {
            "relational" => Ok(RisKind::Relational),
            "file" => Ok(RisKind::File),
            "kv" => Ok(RisKind::Kv),
            "biblio" => Ok(RisKind::Biblio),
            "whois" => Ok(RisKind::Whois),
            "email" => Ok(RisKind::Email),
            other => Err(RidError {
                msg: format!("unknown ris kind `{other}`"),
            }),
        }
    }
}

/// A CM-RID configuration error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RidError {
    /// Description.
    pub msg: String,
}

impl fmt::Display for RidError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CM-RID error: {}", self.msg)
    }
}

impl std::error::Error for RidError {}

/// The classification of an interface statement — which menu entry of
/// §3.1.1 it instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IfaceClass {
    /// `WR(X, b) → W(X, b)`.
    Write,
    /// `Ws(X, …) → N(X, b)` (plain or conditional).
    Notify,
    /// `P(p) ∧ C → N(X, b)`.
    PeriodicNotify,
    /// `RR(X) ∧ (X = b) → R(X, b)`.
    Read,
    /// `… → 𝓕` (e.g. no-spontaneous-writes).
    Prohibition,
}

/// Classify an interface statement; `None` for shapes the translator
/// does not know how to implement.
#[must_use]
pub(crate) fn classify(stmt: &InterfaceStmt) -> Option<IfaceClass> {
    if stmt.rhs == TemplateDesc::False {
        return Some(IfaceClass::Prohibition);
    }
    match (&stmt.lhs, &stmt.rhs) {
        (TemplateDesc::Wr { .. }, TemplateDesc::W { .. }) => Some(IfaceClass::Write),
        (TemplateDesc::Ws { .. }, TemplateDesc::N { .. }) => Some(IfaceClass::Notify),
        (TemplateDesc::P { .. }, TemplateDesc::N { .. }) => Some(IfaceClass::PeriodicNotify),
        (TemplateDesc::Rr { .. }, TemplateDesc::R { .. }) => Some(IfaceClass::Read),
        _ => None,
    }
}

/// A parsed CM-RID.
#[derive(Debug, Clone)]
pub struct CmRid {
    /// Backend kind.
    pub kind: RisKind,
    /// Internal service delay of the database when performing requested
    /// operations (must be below the write/read interface bounds or the
    /// database could never honor them).
    pub service: SimDuration,
    /// Offered interface statements, in file order.
    pub interfaces: Vec<InterfaceStmt>,
    /// Relational command templates: `(op, item base) → template`.
    /// Ops: `write`, `read`, `delete`, `insert`.
    pub commands: BTreeMap<(String, String), String>,
    /// Per-item-base mapping properties for the non-relational
    /// backends.
    pub maps: BTreeMap<String, BTreeMap<String, String>>,
}

impl CmRid {
    /// Parse a CM-RID file.
    pub fn parse(src: &str) -> Result<CmRid, RidError> {
        let spec = SpecFile::parse(src).map_err(|e| RidError { msg: e.to_string() })?;
        let kind = RisKind::parse(
            spec.require("ris")
                .map_err(|e| RidError { msg: e.to_string() })?,
        )?;
        let service = match spec.props.get("service") {
            None => SimDuration::from_millis(100),
            Some(s) => parse_duration(s)?,
        };
        let mut interfaces = Vec::new();
        for sect in spec.sections_of("interface") {
            for line in &sect.lines {
                let stmt = parse_interface(line).map_err(|e| RidError {
                    msg: format!("in [interface]: {e}"),
                })?;
                if classify(&stmt).is_none() {
                    return Err(RidError {
                        msg: format!("interface statement not implementable: {stmt}"),
                    });
                }
                interfaces.push(stmt);
            }
        }
        let mut commands = BTreeMap::new();
        for sect in spec.sections_of("command") {
            let [op, base] = sect.args() else {
                return Err(RidError {
                    msg: "[command] needs exactly `op itembase` arguments".into(),
                });
            };
            if !matches!(op.as_str(), "write" | "read" | "delete" | "insert") {
                return Err(RidError {
                    msg: format!("unknown command op `{op}`"),
                });
            }
            let template = sect.lines.join(" ");
            if template.is_empty() {
                return Err(RidError {
                    msg: format!("[command {op} {base}] has no body"),
                });
            }
            commands.insert((op.clone(), base.clone()), template);
        }
        let mut maps = BTreeMap::new();
        for sect in spec.sections_of("map") {
            let [base] = sect.args() else {
                return Err(RidError {
                    msg: "[map] needs exactly one itembase argument".into(),
                });
            };
            let pairs = sect
                .as_pairs()
                .map_err(|e| RidError { msg: e.to_string() })?;
            maps.insert(base.clone(), pairs);
        }
        Ok(CmRid {
            kind,
            service,
            interfaces,
            commands,
            maps,
        })
    }
}

/// A duration in the rule language's grammar: exactly one duration
/// token, so CM-RIDs and rule files share one syntax and one 2^63 ms
/// bound.
fn parse_duration(s: &str) -> Result<SimDuration, RidError> {
    let toks = lex(s).map_err(|e| RidError {
        msg: format!("bad duration `{s}`: {e}"),
    })?;
    match toks.as_slice() {
        [Tok::Duration(d)] => Ok(*d),
        _ => Err(RidError {
            msg: format!("`{s}` is not one duration (a number with an `s` or `ms` suffix)"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SALARY_RID: &str = r#"
ris = relational
service = 200ms

[interface]
Ws(salary1(n), b) -> N(salary1(n), b) within 2s
WR(salary2(n), b) -> W(salary2(n), b) within 1s
RR(salary1(n)) when salary1(n) = b -> R(salary1(n), b) within 1s

[command write salary2]
update employees set salary = $value where empid = $p0

[command read salary1]
select salary from employees where empid = $p0
"#;

    #[test]
    fn parses_full_rid() {
        let rid = CmRid::parse(SALARY_RID).unwrap();
        assert_eq!(rid.kind, RisKind::Relational);
        assert_eq!(rid.service, SimDuration::from_millis(200));
        assert_eq!(rid.interfaces.len(), 3);
        let classes: Vec<_> = rid.interfaces.iter().filter_map(classify).collect();
        assert_eq!(
            classes,
            [IfaceClass::Notify, IfaceClass::Write, IfaceClass::Read]
        );
        let command = |op: &str, base: &str| rid.commands.get(&(op.into(), base.into()));
        assert!(command("write", "salary2").unwrap().contains("$value"));
        assert!(command("write", "salary1").is_none());
    }

    #[test]
    fn parses_map_backend() {
        let rid = CmRid::parse(
            "ris = kv\n[interface]\nWs(phone(n), b) -> N(phone(n), b) within 1s\n\
             [map phone]\nkey = phone/$p0\ntype = str\n",
        )
        .unwrap();
        assert_eq!(rid.kind, RisKind::Kv);
        let phone = &rid.maps["phone"];
        assert_eq!(phone["key"], "phone/$p0");
        assert_eq!(phone["type"], "str");
        assert!(!rid.maps.contains_key("other"));
    }

    #[test]
    fn classification() {
        let w = parse_interface("WR(X, b) -> W(X, b) within 1s").unwrap();
        assert_eq!(classify(&w), Some(IfaceClass::Write));
        let p = parse_interface("Ws(X, b) -> false").unwrap();
        assert_eq!(classify(&p), Some(IfaceClass::Prohibition));
        let pn = parse_interface("P(300s) when X = b -> N(X, b) within 1s").unwrap();
        assert_eq!(classify(&pn), Some(IfaceClass::PeriodicNotify));
        let odd = parse_interface("N(X, b) -> W(X, b) within 1s").unwrap();
        assert_eq!(classify(&odd), None);
    }

    #[test]
    fn rejects_bad_rids() {
        assert!(CmRid::parse("ris = martian").is_err());
        assert!(CmRid::parse("service = 1s").is_err()); // missing ris
        assert!(CmRid::parse("ris = kv\nservice = soon").is_err());
        assert!(CmRid::parse("ris = kv\n[interface]\nN(X, b) -> W(X, b) within 1s\n").is_err());
        assert!(CmRid::parse("ris = relational\n[command write]\nfoo\n").is_err());
        assert!(CmRid::parse("ris = relational\n[command frobnicate x]\nfoo\n").is_err());
        assert!(CmRid::parse("ris = relational\n[command write x]\n").is_err());
        assert!(CmRid::parse("ris = kv\n[map]\nk = v\n").is_err());
    }

    #[test]
    fn default_service_delay() {
        let rid = CmRid::parse("ris = whois\n").unwrap();
        assert_eq!(rid.service, SimDuration::from_millis(100));
    }

    #[test]
    fn duration_suffixes() {
        let rid = CmRid::parse("ris = whois\nservice = 1.5s\n").unwrap();
        assert_eq!(rid.service, SimDuration::from_millis(1500));
    }

    #[test]
    fn durations_outside_the_rule_language_grammar_are_errors() {
        for bad in [
            "-5s",
            "-infms",
            "nans",
            "infs",
            "1e30s",
            "18446744073709551615ms",
            "5",
            "5s 3s",
        ] {
            let src = format!("ris = whois\nservice = {bad}\n");
            assert!(
                CmRid::parse(&src).is_err(),
                "service = {bad} must not parse"
            );
        }
    }
}
