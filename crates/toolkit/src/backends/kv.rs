//! Backend for the key-value store ("lookup").
//!
//! Items map onto native keys via `[map <base>] key = prefix$p0suffix`.
//! Spontaneous changes surface through the store's **watch** facility.

use crate::backend::{single_param, wrong_op, Change, KeyPattern, RisBackend};
use crate::msg::SpontaneousOp;
use crate::rid::CmRid;
use hcm_core::{ItemId, SimTime, Sym, Value};
use hcm_ris::kvstore::KvStore;
use hcm_ris::RisError;

struct KvMap {
    base: Sym,
    key: KeyPattern,
}

/// See module docs.
pub struct KvBackend {
    kv: KvStore,
    maps: Vec<KvMap>,
}

impl KvBackend {
    /// Wrap a store per the CM-RID, registering a watch on every mapped
    /// key space.
    #[must_use]
    pub(crate) fn new(kv: KvStore, rid: &CmRid) -> Self {
        let mut kv = kv;
        let mut maps = Vec::new();
        for (base, props) in &rid.maps {
            let Some(key) = props.get("key") else {
                continue;
            };
            maps.push(KvMap {
                base: Sym::intern(base),
                key: KeyPattern::parse(key),
            });
        }
        // One catch-all watch; drain-time filtering maps events back to
        // items (pattern suffixes are not expressible as native prefix
        // watches).
        if !maps.is_empty() {
            kv.watch_prefix("");
        }
        KvBackend { kv, maps }
    }

    fn map_for(&self, base: Sym) -> Result<&KvMap, RisError> {
        self.maps
            .iter()
            .find(|m| m.base == base)
            .ok_or_else(|| RisError::Unsupported(format!("no kv mapping for `{base}`")))
    }

    fn drain_changes(&mut self) -> Vec<Change> {
        let events = self.kv.take_events();
        let mut out = Vec::new();
        for e in events {
            for m in &self.maps {
                if let Some(param) = m.key.extract(&e.key) {
                    out.push(Change {
                        item: m.key.item_for(m.base, param),
                        old: Some(e.old.clone().unwrap_or(Value::Null)),
                        new: e.new.clone().unwrap_or(Value::Null),
                    });
                }
            }
        }
        out
    }
}

impl RisBackend for KvBackend {
    fn has_change_feed(&self) -> bool {
        true // watches
    }

    fn apply_spontaneous(
        &mut self,
        op: &SpontaneousOp,
        _now: SimTime,
    ) -> Result<Vec<Change>, RisError> {
        match op {
            SpontaneousOp::KvPut { key, value } => {
                self.kv.put(key, value.clone());
            }
            SpontaneousOp::KvDelete { key } => {
                self.kv.delete(key)?;
            }
            other => return Err(wrong_op("kv", other)),
        }
        Ok(self.drain_changes())
    }

    fn write(
        &mut self,
        item: &ItemId,
        value: &Value,
        _now: SimTime,
    ) -> Result<Option<Value>, RisError> {
        let m = self.map_for(item.base)?;
        let key = m.key.render(&single_param(item)?);
        let old = if *value == Value::Null {
            match self.kv.delete(&key) {
                Ok(v) => Some(v),
                Err(RisError::NotFound(_)) => Some(Value::Null),
                Err(e) => return Err(e),
            }
        } else {
            self.kv.put(&key, value.clone())
        };
        // CM-initiated: consume the watch events this caused.
        let _ = self.kv.take_events();
        Ok(old)
    }

    fn read(&self, item: &ItemId) -> Result<Value, RisError> {
        let m = self.map_for(item.base)?;
        let key = m.key.render(&single_param(item)?);
        Ok(self.kv.get(&key).cloned().unwrap_or(Value::Null))
    }

    fn enumerate(&self, base: Sym) -> Vec<ItemId> {
        let Ok(m) = self.map_for(base) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for key in self.kv.keys() {
            if let Some(param) = m.key.extract(key) {
                out.push(m.key.item_for(m.base, param));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> KvBackend {
        let mut kv = KvStore::new();
        kv.put("phone/ann", Value::from("555-0100"));
        let rid = CmRid::parse(
            "ris = kv\n[interface]\nWs(phone(n), b) -> N(phone(n), b) within 1s\n\
             [map phone]\nkey = phone/$p0\n",
        )
        .unwrap();
        KvBackend::new(kv, &rid)
    }

    fn ann() -> ItemId {
        ItemId::with("phone", [Value::from("ann")])
    }

    #[test]
    fn spontaneous_put_yields_change() {
        let mut b = setup();
        let ch = b
            .apply_spontaneous(
                &SpontaneousOp::KvPut {
                    key: "phone/ann".into(),
                    value: Value::from("555-0200"),
                },
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(ch.len(), 1);
        assert_eq!(ch[0].item, ann());
        assert_eq!(ch[0].old, Some(Value::from("555-0100")));
        assert_eq!(ch[0].new, Value::from("555-0200"));
    }

    #[test]
    fn unmapped_keys_change_nothing() {
        let mut b = setup();
        let ch = b
            .apply_spontaneous(
                &SpontaneousOp::KvPut {
                    key: "office/ann".into(),
                    value: Value::from("b1"),
                },
                SimTime::ZERO,
            )
            .unwrap();
        assert!(ch.is_empty());
    }

    #[test]
    fn delete_is_null_change() {
        let mut b = setup();
        let ch = b
            .apply_spontaneous(
                &SpontaneousOp::KvDelete {
                    key: "phone/ann".into(),
                },
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(ch[0].new, Value::Null);
    }

    #[test]
    fn cm_write_and_read() {
        let mut b = setup();
        let old = b.write(&ann(), &Value::from("999"), SimTime::ZERO).unwrap();
        assert_eq!(old, Some(Value::from("555-0100")));
        assert_eq!(b.read(&ann()).unwrap(), Value::from("999"));
        // CM write produced no spontaneous change.
        let ch = b
            .apply_spontaneous(
                &SpontaneousOp::KvPut {
                    key: "unrelated".into(),
                    value: Value::Int(1),
                },
                SimTime::ZERO,
            )
            .unwrap();
        assert!(ch.is_empty());
        // Null write deletes; deleting an absent key is idempotent.
        b.write(&ann(), &Value::Null, SimTime::ZERO).unwrap();
        assert_eq!(b.read(&ann()).unwrap(), Value::Null);
        assert_eq!(
            b.write(&ann(), &Value::Null, SimTime::ZERO).unwrap(),
            Some(Value::Null)
        );
    }

    #[test]
    fn enumerate() {
        let mut kv = KvStore::new();
        for key in ["phone/ann", "phone/bob", "office/ann", "other"] {
            kv.put(key, Value::from("1"));
        }
        let rid = "ris = kv\n[map phone]\nkey = phone/$p0\n[map office]\nkey = office/$p0\n";
        let b = KvBackend::new(kv, &CmRid::parse(rid).unwrap());
        let bob = ItemId::with("phone", [Value::from("bob")]);
        assert_eq!(b.enumerate(Sym::from("phone")), [ann(), bob]);
        let office = ItemId::with("office", [Value::from("ann")]);
        assert_eq!(b.enumerate(Sym::from("office")), [office]);
        assert!(b.enumerate(Sym::from("zz")).is_empty());
    }

    #[test]
    fn unmapped_base_errors() {
        let b = setup();
        assert!(b.read(&ItemId::plain("zz")).is_err());
    }
}
