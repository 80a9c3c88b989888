//! A bibliographic information system.
//!
//! Models the bibliographic database of the paper's Stanford scenario
//! (§4.3): an **append-only** collection of publication records that
//! outside software (the CM included) may only *query* — used there in
//! a referential-integrity constraint ("every paper authored by a
//! Stanford database researcher as reported by the bibliographic
//! database must also be mentioned in the Sybase database").
//!
//! There is no change feed and no deletion; translators implement
//! notify-like behaviour by periodically diffing query results (the
//! monotone key space makes "new since key k" queries cheap).

/// One publication record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BiblioRecord {
    /// Monotonically increasing record key, assigned by the store.
    pub key: u64,
    /// Author name.
    pub author: String,
    /// Title.
    pub title: String,
    /// Publication year.
    pub year: u32,
}

/// The bibliographic store.
#[derive(Debug, Default, Clone)]
pub struct BiblioDb {
    records: Vec<BiblioRecord>,
}

impl BiblioDb {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a record — the *librarian's* operation, spontaneous from
    /// the CM's point of view. Returns the assigned key.
    pub fn append(&mut self, author: &str, title: &str, year: u32) -> u64 {
        let key = self.records.len() as u64;
        self.records.push(BiblioRecord {
            key,
            author: author.to_owned(),
            title: title.to_owned(),
            year,
        });
        key
    }

    /// Query by author.
    #[must_use]
    pub fn by_author(&self, author: &str) -> Vec<&BiblioRecord> {
        self.records.iter().filter(|r| r.author == author).collect()
    }

    /// Records with keys strictly greater than `after` — the polling
    /// primitive translators build on.
    #[must_use]
    pub fn since(&self, after: Option<u64>) -> &[BiblioRecord] {
        let start = after.map_or(0, |k| (k + 1) as usize);
        self.records.get(start..).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_assigns_monotone_keys() {
        let mut db = BiblioDb::new();
        assert!(db.since(None).is_empty());
        let k1 = db.append("widom", "Active DB", 1994);
        let k2 = db.append("widom", "Constraints", 1996);
        assert!(k1 < k2);
        let all = db.since(None);
        assert_eq!(all.len(), 2);
        assert_eq!((all[0].key, all[0].title.as_str()), (k1, "Active DB"));
    }

    #[test]
    fn query_by_author() {
        let mut db = BiblioDb::new();
        db.append("widom", "A", 1994);
        db.append("garcia", "B", 1995);
        db.append("widom", "C", 1996);
        let hits = db.by_author("widom");
        assert_eq!(hits.len(), 2);
        assert!(db.by_author("nobody").is_empty());
    }

    #[test]
    fn since_supports_incremental_polls() {
        let mut db = BiblioDb::new();
        let a = db.append("x", "A", 1990);
        assert_eq!(db.since(None).len(), 1);
        assert!(db.since(Some(a)).is_empty());
        let b = db.append("x", "B", 1991);
        let fresh = db.since(Some(a));
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].key, b);
        assert!(db.since(Some(999)).is_empty());
    }
}
