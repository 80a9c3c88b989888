//! A key-value store with a watch facility.
//!
//! Stands in for the Computer Science Department's custom personnel
//! database ("lookup", §4.3): a typed get/put API plus *watch*
//! registrations — the native facility a translator uses to offer a
//! Notify Interface without SQL triggers. Watch reports are buffered in
//! the store and drained by the owner, mirroring how the relational
//! engine exposes trigger firings.

use crate::RisError;
use hcm_core::Value;
use std::collections::BTreeMap;

/// A change observed by a watch.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchEvent {
    /// Key affected.
    pub key: String,
    /// Previous value (`None` when the key was absent).
    pub old: Option<Value>,
    /// New value (`None` when the key was deleted).
    pub new: Option<Value>,
}

/// The key-value store.
#[derive(Debug, Default)]
pub struct KvStore {
    map: BTreeMap<String, Value>,
    /// Key prefixes under watch.
    watches: Vec<String>,
    pending: Vec<WatchEvent>,
}

impl KvStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Get a value.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.map.get(key)
    }

    /// Put a value, returning the previous one.
    pub fn put(&mut self, key: &str, value: Value) -> Option<Value> {
        let old = self.map.insert(key.to_owned(), value.clone());
        self.notify(key, old.clone(), Some(value));
        old
    }

    /// Delete a key.
    pub fn delete(&mut self, key: &str) -> Result<Value, RisError> {
        match self.map.remove(key) {
            Some(old) => {
                self.notify(key, Some(old.clone()), None);
                Ok(old)
            }
            None => Err(RisError::NotFound(format!("key `{key}`"))),
        }
    }

    /// Register a watch on all keys with the given prefix: each change
    /// to a matching key buffers one [`WatchEvent`].
    pub fn watch_prefix(&mut self, prefix: &str) {
        self.watches.push(prefix.to_owned());
    }

    /// Drain buffered watch events.
    pub fn take_events(&mut self) -> Vec<WatchEvent> {
        std::mem::take(&mut self.pending)
    }

    /// All keys (sorted).
    #[must_use]
    pub fn keys(&self) -> Vec<&str> {
        self.map.keys().map(String::as_str).collect()
    }

    fn notify(&mut self, key: &str, old: Option<Value>, new: Option<Value>) {
        for prefix in &self.watches {
            if key.starts_with(prefix.as_str()) {
                self.pending.push(WatchEvent {
                    key: key.to_owned(),
                    old: old.clone(),
                    new: new.clone(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete() {
        let mut kv = KvStore::new();
        assert_eq!(kv.put("phone/ann", Value::from("555-0100")), None);
        assert_eq!(kv.get("phone/ann"), Some(&Value::from("555-0100")));
        assert_eq!(
            kv.put("phone/ann", Value::from("555-0200")),
            Some(Value::from("555-0100"))
        );
        assert_eq!(kv.delete("phone/ann").unwrap(), Value::from("555-0200"));
        assert!(kv.delete("phone/ann").is_err());
    }

    #[test]
    fn watches_match_prefix_and_drain() {
        let mut kv = KvStore::new();
        kv.watch_prefix("phone/");
        kv.put("phone/ann", Value::from("1"));
        kv.put("office/ann", Value::from("b12"));
        kv.put("phone/ann", Value::from("2"));
        kv.delete("phone/ann").unwrap();
        let events = kv.take_events();
        assert_eq!(events.len(), 3);
        assert!(events.iter().all(|e| e.key == "phone/ann"));
        assert_eq!(events[0].old, None);
        assert_eq!(events[1].old, Some(Value::from("1")));
        assert_eq!(events[2].new, None);
        assert!(kv.take_events().is_empty());
    }

    #[test]
    fn keys_sorted() {
        let mut kv = KvStore::new();
        kv.put("b", Value::Int(1));
        kv.put("a", Value::Int(2));
        assert_eq!(kv.keys(), vec!["a", "b"]);
    }
}
