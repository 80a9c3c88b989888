//! A "whois"-style directory service.
//!
//! Models the Stanford "whois" database (§4.3): a name → fields
//! directory that the CM can only **look up** or **dump**. Entries are
//! maintained by an administrator (spontaneous from the CM's view);
//! there is no write access, no triggers, no mtimes — the weakest
//! interface profile in the suite, forcing a Periodic-Notify-by-polling
//! translator.

use crate::RisError;
use std::collections::BTreeMap;

/// A directory entry's fields (`phone`, `email`, `office`, …).
pub type Fields = BTreeMap<String, String>;

/// The directory.
#[derive(Debug, Default, Clone)]
pub struct WhoisDir {
    entries: BTreeMap<String, Fields>,
}

impl WhoisDir {
    /// An empty directory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Administrator operation: set a field of a person's entry,
    /// creating the entry if needed.
    pub fn admin_set(&mut self, name: &str, field: &str, value: &str) {
        self.entries
            .entry(name.to_owned())
            .or_default()
            .insert(field.to_owned(), value.to_owned());
    }

    /// Administrator operation: remove an entry entirely.
    pub fn admin_remove(&mut self, name: &str) -> Result<(), RisError> {
        self.entries
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| RisError::NotFound(format!("entry `{name}`")))
    }

    /// Public lookup of one person's entry.
    pub(crate) fn lookup(&self, name: &str) -> Result<&Fields, RisError> {
        self.entries
            .get(name)
            .ok_or_else(|| RisError::NotFound(format!("entry `{name}`")))
    }

    /// Public lookup of one field.
    pub fn lookup_field(&self, name: &str, field: &str) -> Result<&str, RisError> {
        self.lookup(name)?
            .get(field)
            .map(String::as_str)
            .ok_or_else(|| RisError::NotFound(format!("field `{field}` of `{name}`")))
    }

    /// Public dump of the whole directory (the only way to observe
    /// changes — translators diff successive dumps).
    #[must_use]
    pub fn dump(&self) -> Vec<(&str, &Fields)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admin_set_and_lookup() {
        let mut d = WhoisDir::new();
        d.admin_set("ann", "phone", "555-0100");
        d.admin_set("ann", "office", "Gates 4B");
        assert_eq!(d.lookup_field("ann", "phone").unwrap(), "555-0100");
        assert_eq!(d.lookup("ann").unwrap().len(), 2);
        assert!(d.lookup("bob").is_err());
        assert!(d.lookup_field("ann", "fax").is_err());
    }

    #[test]
    fn dump_is_sorted_and_complete() {
        let mut d = WhoisDir::new();
        d.admin_set("bob", "phone", "2");
        d.admin_set("ann", "phone", "1");
        let dump = d.dump();
        assert_eq!(dump.len(), 2);
        assert_eq!(dump[0].0, "ann");
    }

    #[test]
    fn admin_remove() {
        let mut d = WhoisDir::new();
        d.admin_set("ann", "phone", "1");
        d.admin_remove("ann").unwrap();
        assert!(d.dump().is_empty());
        assert!(d.admin_remove("ann").is_err());
    }

    #[test]
    fn field_overwrite() {
        let mut d = WhoisDir::new();
        d.admin_set("ann", "phone", "1");
        d.admin_set("ann", "phone", "2");
        assert_eq!(d.lookup_field("ann", "phone").unwrap(), "2");
    }
}
