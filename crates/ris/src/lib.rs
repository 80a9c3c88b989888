//! # hcm-ris — heterogeneous Raw Information Sources
//!
//! The paper's toolkit sits on top of "Raw Information Sources (RIS),
//! which could be relational or object-oriented database systems, file
//! systems, bibliographic information systems, electronic mail systems,
//! network news systems, and so on", each with "its own particular
//! interface, which we call RISI" (§4.1).
//!
//! This crate provides five stores whose **native APIs are deliberately
//! incompatible**, so that the CM-Translator layer in `hcm-toolkit` is
//! exercised for real rather than over a common trait:
//!
//! | store | native capability profile |
//! |---|---|
//! | [`relational::Database`] | textual SQL-subset commands, per-row CHECK constraints (a *local constraint manager*), update **triggers** |
//! | [`filestore::FileStore`] | whole-file read/replace of strings; no triggers — must be **polled** |
//! | [`kvstore::KvStore`] | typed get/put/delete, **watch** registrations reporting changes |
//! | [`biblio::BiblioDb`] | append-only records, query by author; **read-only** to outsiders |
//! | [`whois::WhoisDir`] | name → field lookup and full dumps; **read-only**, no change feed |
//! | [`email::MailSystem`] | append-only mailboxes; **write-only** to the CM (notification sink) |
//!
//! The stores know nothing about events, rules, sites or the CM — that
//! is exactly the point: database autonomy (§4.3) means the toolkit
//! adapts to them, not the reverse.

#![warn(missing_docs)]

pub mod biblio;
pub mod email;
pub mod filestore;
pub mod kvstore;
pub mod relational;
pub mod whois;

/// Errors surfaced by the native store interfaces. Each store reports
/// failures in its own vocabulary; translators map them onto the CM's
/// metric/logical failure classification (§5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RisError {
    /// Malformed command (SQL syntax error, bad key, …).
    BadCommand(String),
    /// Referenced object does not exist.
    NotFound(String),
    /// A local integrity constraint rejected the operation — the
    /// relational engine's CHECK facility.
    ConstraintViolation(String),
    /// The store does not support the attempted operation (e.g. writing
    /// to the whois directory).
    Unsupported(String),
}

impl std::fmt::Display for RisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RisError::BadCommand(m) => write!(f, "bad command: {m}"),
            RisError::NotFound(m) => write!(f, "not found: {m}"),
            RisError::ConstraintViolation(m) => write!(f, "constraint violation: {m}"),
            RisError::Unsupported(m) => write!(f, "unsupported operation: {m}"),
        }
    }
}

impl std::error::Error for RisError {}
