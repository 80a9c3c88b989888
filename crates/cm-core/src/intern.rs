//! A process-wide symbol table for item base names.
//!
//! Hot paths hash, compare, and route on item base names constantly: a
//! `String`-keyed [`crate::ItemId`] is cloned and re-hashed on every
//! trace push, routing decision, and state lookup. [`Sym`] replaces
//! `String` in [`crate::ItemId`] / [`crate::ItemPattern`] so equality
//! and hashing touch a `u32` symbol instead of string bytes; the
//! display name resolves through the interned `&'static str` only at
//! formatting time.
//!
//! Determinism: symbols are assigned in first-intern order, which
//! depends on everything the process interned before (every earlier
//! scenario of a batch; under the test harness, thread scheduling).
//! `Ord` is therefore defined by *string content*, never by symbol id,
//! so `BTreeMap`s and sorts keyed on `Sym` order identically whatever
//! ran first. (`Hash` uses the id — `HashMap` iteration order is
//! unspecified anyway, and every determinism-sensitive structure in the
//! workspace is a `BTreeMap` or an explicit sort.)

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Mutex, OnceLock};

/// An interned string symbol: a `u32` id plus the leaked `&'static str`
/// it names. `Copy`; equality and hashing are O(1) on the id; ordering
/// is by string content (see module docs).
#[derive(Clone, Copy)]
pub struct Sym {
    id: u32,
    s: &'static str,
}

fn table() -> &'static Mutex<HashMap<&'static str, Sym>> {
    static TABLE: OnceLock<Mutex<HashMap<&'static str, Sym>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(HashMap::new()))
}

impl Sym {
    /// Intern `s`, returning its symbol (allocating one on first sight).
    /// Interning the same string twice yields the same symbol for the
    /// lifetime of the process.
    #[must_use]
    pub fn intern(s: &str) -> Sym {
        let mut t = table().lock().expect("interner poisoned");
        if let Some(&sym) = t.get(s) {
            return sym;
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let sym = Sym {
            id: u32::try_from(t.len()).expect("interner overflow"),
            s: leaked,
        };
        t.insert(leaked, sym);
        sym
    }

    /// The interned string.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        self.s
    }

    /// The symbol's id: unique per string, in first-intern order, so it
    /// may key a structure but must not order anything observable.
    #[must_use]
    pub(crate) fn id(self) -> u32 {
        self.id
    }
}

impl PartialEq for Sym {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for Sym {}

impl Hash for Sym {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u32(self.id);
    }
}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Sym {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // By content, not id: keeps sort order deterministic when the
        // interning order varied (see the module docs).
        self.s.cmp(other.s)
    }
}

impl Deref for Sym {
    type Target = str;
    fn deref(&self) -> &str {
        self.s
    }
}

impl AsRef<str> for Sym {
    fn as_ref(&self) -> &str {
        self.s
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.s)
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.s, f)
    }
}

impl From<&Sym> for Sym {
    fn from(s: &Sym) -> Sym {
        *s
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::intern(s)
    }
}

impl From<&String> for Sym {
    fn from(s: &String) -> Sym {
        Sym::intern(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Sym {
        Sym::intern(&s)
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        self.s == other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self.s == *other
    }
}

impl PartialEq<String> for Sym {
    fn eq(&self, other: &String) -> bool {
        self.s == other.as_str()
    }
}

impl PartialEq<Sym> for str {
    fn eq(&self, other: &Sym) -> bool {
        self == other.s
    }
}

impl PartialEq<Sym> for &str {
    fn eq(&self, other: &Sym) -> bool {
        *self == other.s
    }
}

impl PartialEq<Sym> for String {
    fn eq(&self, other: &Sym) -> bool {
        self.as_str() == other.s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedups() {
        let a = Sym::intern("alpha-test-sym");
        let b = Sym::intern("alpha-test-sym");
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
    }

    #[test]
    fn distinct_strings_distinct_syms() {
        let a = Sym::intern("sym-one");
        let b = Sym::intern("sym-two");
        assert_ne!(a, b);
    }

    #[test]
    fn ord_is_by_content() {
        // Intern in reverse lexicographic order; Ord must still sort
        // lexicographically (id order would not).
        let z = Sym::intern("zzz-ord-test");
        let a = Sym::intern("aaa-ord-test");
        assert!(a < z);
        let mut v = vec![z, a];
        v.sort();
        assert_eq!(v, vec![a, z]);
    }

    #[test]
    fn string_comparisons() {
        let s = Sym::intern("cmp-test");
        assert_eq!(s, "cmp-test");
        assert_eq!("cmp-test", s);
        assert_eq!(s, String::from("cmp-test"));
        assert!(s != "other");
    }

    #[test]
    fn deref_and_display() {
        let s = Sym::intern("disp-test");
        assert_eq!(s.len(), 9);
        assert_eq!(format!("{s}"), "disp-test");
        assert_eq!(format!("{s:?}"), "\"disp-test\"");
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let syms: Vec<Sym> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| Sym::intern("race-test-sym")))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for w in syms.windows(2) {
            assert_eq!(w[0], w[1]);
        }
    }
}
