//! Concrete [`crate::backend::RisBackend`] implementations, one per
//! store kind. Construction is factored through [`build_backend`].

mod biblio;
mod email;
mod files;
mod kv;
mod relational;
mod whois;

pub use biblio::BiblioBackend;
pub use email::EmailBackend;
pub use files::FileBackend;
pub use kv::KvBackend;
pub use relational::RelationalBackend;
pub use whois::WhoisBackend;

use crate::backend::RisBackend;
use crate::rid::{CmRid, RisKind};
use hcm_ris::{
    biblio::BiblioDb, email::MailSystem, filestore::FileStore, kvstore::KvStore,
    relational::Database, whois::WhoisDir, RisError,
};

/// A prepared raw store, handed to [`build_backend`] together with its
/// CM-RID. The variant must match the RID's `ris` kind.
pub enum RawStore {
    /// Relational database.
    Relational(Database),
    /// File store.
    File(FileStore),
    /// Key-value store.
    Kv(KvStore),
    /// Bibliographic store.
    Biblio(BiblioDb),
    /// Whois directory.
    Whois(WhoisDir),
    /// Mail system.
    Email(MailSystem),
}

/// Wrap a raw store in the backend matching the CM-RID. Fails when the
/// store variant does not match the RID's declared kind, or when the
/// RID maps a base onto a relational table the database lacks.
pub fn build_backend(store: RawStore, rid: &CmRid) -> Result<Box<dyn RisBackend>, RisError> {
    Ok(match (store, rid.kind) {
        (RawStore::Relational(db), RisKind::Relational) => {
            Box::new(RelationalBackend::new(db, rid)?)
        }
        (RawStore::File(fs), RisKind::File) => Box::new(FileBackend::new(fs, rid)),
        (RawStore::Kv(kv), RisKind::Kv) => Box::new(KvBackend::new(kv, rid)),
        (RawStore::Biblio(db), RisKind::Biblio) => Box::new(BiblioBackend::new(db, rid)),
        (RawStore::Whois(d), RisKind::Whois) => Box::new(WhoisBackend::new(d, rid)),
        (RawStore::Email(m), RisKind::Email) => Box::new(EmailBackend::new(m, rid)),
        (_, kind) => {
            return Err(RisError::Unsupported(format!(
                "raw store does not match CM-RID kind {kind:?}"
            )))
        }
    })
}
