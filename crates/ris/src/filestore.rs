//! A Unix-file-system-like store.
//!
//! The paper's toolkit "implemented CM-Translators for Unix files and
//! relational databases" (§4.3) and describes detecting Read Interface
//! failures through `read()` return codes (§5). This store models that
//! RIS profile: named files holding **plain text**, whole-file read and
//! replace — and *no* notification facility, so the only way to observe
//! changes is polling (content reads).
//!
//! Contents are strings; any typing is the translator's business.

use crate::RisError;
use std::collections::BTreeMap;

/// The file store: path → contents.
#[derive(Debug, Default, Clone)]
pub struct FileStore {
    files: BTreeMap<String, String>,
}

impl FileStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Read a file's contents (the `read()` call; a missing file is the
    /// analogue of `ENOENT`).
    pub fn read(&self, path: &str) -> Result<&str, RisError> {
        self.files
            .get(path)
            .map(String::as_str)
            .ok_or_else(|| RisError::NotFound(format!("file `{path}`")))
    }

    /// Create or replace a file.
    pub fn write(&mut self, path: &str, contents: &str) {
        self.files.insert(path.to_owned(), contents.to_owned());
    }

    /// Remove a file.
    pub fn remove(&mut self, path: &str) -> Result<(), RisError> {
        self.files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| RisError::NotFound(format!("file `{path}`")))
    }

    /// List all paths (sorted).
    #[must_use]
    pub fn list(&self) -> Vec<&str> {
        self.files.keys().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let mut fs = FileStore::new();
        fs.write("/etc/phone", "555-0100");
        assert_eq!(fs.read("/etc/phone").unwrap(), "555-0100");
    }

    #[test]
    fn overwrite_replaces_contents() {
        let mut fs = FileStore::new();
        fs.write("f", "a");
        fs.write("f", "b");
        assert_eq!(fs.read("f").unwrap(), "b");
    }

    #[test]
    fn missing_file_is_not_found() {
        let fs = FileStore::new();
        assert!(matches!(fs.read("nope"), Err(RisError::NotFound(_))));
    }

    #[test]
    fn remove_and_list() {
        let mut fs = FileStore::new();
        fs.write("/a/1", "x");
        fs.write("/a/2", "y");
        fs.write("/b/1", "z");
        assert_eq!(fs.list(), vec!["/a/1", "/a/2", "/b/1"]);
        fs.remove("/a/1").unwrap();
        assert!(fs.read("/a/1").is_err());
        assert!(fs.remove("/a/1").is_err());
    }
}
