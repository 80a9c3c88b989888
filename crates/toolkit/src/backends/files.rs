//! Backend for the file store.
//!
//! Items map onto paths via `[map <base>] path = prefix$p0suffix`, with
//! a `type` property controlling text ↔ value conversion. The store has
//! **no change feed**: `apply_spontaneous` deliberately reports nothing
//! (the application's `write()` gives the CM no signal), so a notify
//! interface cannot be offered for this RIS — translators poll via
//! read/enumerate, exactly the situation of the paper's polling example
//! (§4.2.3).

use crate::backend::{
    single_param, text_to_value, value_to_text, wrong_op, Change, KeyPattern, RisBackend,
};
use crate::msg::SpontaneousOp;
use crate::rid::CmRid;
use hcm_core::{ItemId, SimTime, Sym, Value};
use hcm_ris::filestore::FileStore;
use hcm_ris::RisError;

struct FileMap {
    base: Sym,
    path: KeyPattern,
    ty: Option<String>,
}

/// See module docs.
pub struct FileBackend {
    fs: FileStore,
    maps: Vec<FileMap>,
}

impl FileBackend {
    /// Wrap a file store per the CM-RID.
    #[must_use]
    pub(crate) fn new(fs: FileStore, rid: &CmRid) -> Self {
        let maps = rid
            .maps
            .iter()
            .filter_map(|(base, props)| {
                props.get("path").map(|p| FileMap {
                    base: Sym::intern(base),
                    path: KeyPattern::parse(p),
                    ty: props.get("type").cloned(),
                })
            })
            .collect();
        FileBackend { fs, maps }
    }

    fn map_for(&self, base: Sym) -> Result<&FileMap, RisError> {
        self.maps
            .iter()
            .find(|m| m.base == base)
            .ok_or_else(|| RisError::Unsupported(format!("no file mapping for `{base}`")))
    }
}

impl RisBackend for FileBackend {
    fn has_change_feed(&self) -> bool {
        false // the CM must poll; changes below are trace ground truth
    }

    fn apply_spontaneous(
        &mut self,
        op: &SpontaneousOp,
        _now: SimTime,
    ) -> Result<Vec<Change>, RisError> {
        // Ground-truth bookkeeping for the recorded trace: the mapped
        // item's old/new value around the native operation. The
        // translator records the Ws event but must not *act* on it
        // (no change feed).
        let changed_path;
        let mut old = None;
        match op {
            SpontaneousOp::FileWrite { path, .. } | SpontaneousOp::FileRemove { path } => {
                changed_path = path.clone();
                for m in &self.maps {
                    if m.path.extract(path).is_some() {
                        old = self
                            .fs
                            .read(path)
                            .ok()
                            .map(|t| text_to_value(t, m.ty.as_deref()));
                    }
                }
            }
            other => return Err(wrong_op("file", other)),
        }
        match op {
            SpontaneousOp::FileWrite { path, contents } => {
                self.fs.write(path, contents);
            }
            SpontaneousOp::FileRemove { path } => {
                self.fs.remove(path)?;
            }
            _ => unreachable!(),
        }
        let mut out = Vec::new();
        for m in &self.maps {
            if let Some(param) = m.path.extract(&changed_path) {
                let item = m.path.item_for(m.base, param);
                let new = match op {
                    SpontaneousOp::FileWrite { contents, .. } => {
                        text_to_value(contents, m.ty.as_deref())
                    }
                    _ => Value::Null,
                };
                out.push(Change {
                    item,
                    old: Some(old.clone().unwrap_or(Value::Null)),
                    new,
                });
            }
        }
        Ok(out)
    }

    fn write(
        &mut self,
        item: &ItemId,
        value: &Value,
        _now: SimTime,
    ) -> Result<Option<Value>, RisError> {
        let m = self.map_for(item.base)?;
        let path = m.path.render(&single_param(item)?);
        let old = self
            .fs
            .read(&path)
            .ok()
            .map(|text| text_to_value(text, m.ty.as_deref()));
        if *value == Value::Null {
            // Removing an absent file is idempotent for the CM.
            let _ = self.fs.remove(&path);
        } else {
            self.fs.write(&path, &value_to_text(value));
        }
        Ok(old.or(Some(Value::Null)))
    }

    fn read(&self, item: &ItemId) -> Result<Value, RisError> {
        let m = self.map_for(item.base)?;
        let path = m.path.render(&single_param(item)?);
        match self.fs.read(&path) {
            Ok(text) => Ok(text_to_value(text, m.ty.as_deref())),
            Err(RisError::NotFound(_)) => Ok(Value::Null),
            Err(e) => Err(e),
        }
    }

    fn enumerate(&self, base: Sym) -> Vec<ItemId> {
        let Ok(m) = self.map_for(base) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for path in self.fs.list() {
            if let Some(param) = m.path.extract(path) {
                out.push(m.path.item_for(m.base, param));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> FileBackend {
        let mut fs = FileStore::new();
        fs.write("/phones/ann.txt", "5550100");
        let rid =
            CmRid::parse("ris = file\n[map phone]\npath = /phones/$p0.txt\ntype = int\n").unwrap();
        FileBackend::new(fs, &rid)
    }

    fn ann() -> ItemId {
        ItemId::with("phone", [Value::from("ann")])
    }

    #[test]
    fn no_change_feed_but_ground_truth_reported() {
        let mut b = setup();
        assert!(!b.has_change_feed(), "file store has no native feed");
        let ch = b
            .apply_spontaneous(
                &SpontaneousOp::FileWrite {
                    path: "/phones/ann.txt".into(),
                    contents: "1".into(),
                },
                SimTime::from_secs(1),
            )
            .unwrap();
        // The change IS reported — as trace ground truth the translator
        // records but must not base notifications on.
        assert_eq!(ch.len(), 1);
        assert_eq!(ch[0].old, Some(Value::Int(5_550_100)));
        assert_eq!(ch[0].new, Value::Int(1));
        assert_eq!(b.read(&ann()).unwrap(), Value::Int(1));
        // Unmapped paths produce nothing.
        let none = b
            .apply_spontaneous(
                &SpontaneousOp::FileWrite {
                    path: "/other.txt".into(),
                    contents: "x".into(),
                },
                SimTime::from_secs(2),
            )
            .unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn typed_read() {
        let b = setup();
        assert_eq!(b.read(&ann()).unwrap(), Value::Int(5_550_100));
        assert_eq!(
            b.read(&ItemId::with("phone", [Value::from("bob")]))
                .unwrap(),
            Value::Null
        );
    }

    #[test]
    fn cm_write_and_delete() {
        let mut b = setup();
        let old = b
            .write(&ann(), &Value::Int(42), SimTime::from_secs(2))
            .unwrap();
        assert_eq!(old, Some(Value::Int(5_550_100)));
        assert_eq!(b.read(&ann()).unwrap(), Value::Int(42));
        b.write(&ann(), &Value::Null, SimTime::from_secs(3))
            .unwrap();
        assert_eq!(b.read(&ann()).unwrap(), Value::Null);
    }

    #[test]
    fn enumerate_and_unmapped() {
        let mut fs = FileStore::new();
        for path in [
            "/phones/ann.txt",
            "/phones/bob.txt",
            "/rooms/ann.txt",
            "/other.txt",
        ] {
            fs.write(path, "1");
        }
        let rid =
            "ris = file\n[map phone]\npath = /phones/$p0.txt\n[map room]\npath = /rooms/$p0.txt\n";
        let b = FileBackend::new(fs, &CmRid::parse(rid).unwrap());
        let bob = ItemId::with("phone", [Value::from("bob")]);
        assert_eq!(b.enumerate(Sym::from("phone")), [ann(), bob]);
        let room = ItemId::with("room", [Value::from("ann")]);
        assert_eq!(b.enumerate(Sym::from("room")), [room]);
        assert!(b.read(&ItemId::plain("zz")).is_err());
        assert!(b.enumerate(Sym::from("zz")).is_empty());
    }

    #[test]
    fn file_remove_spontaneous() {
        let mut b = setup();
        b.apply_spontaneous(
            &SpontaneousOp::FileRemove {
                path: "/phones/ann.txt".into(),
            },
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(b.read(&ann()).unwrap(), Value::Null);
    }
}
