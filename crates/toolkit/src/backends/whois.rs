//! Backend for the whois directory.
//!
//! Items map via `[map <base>] field = phone`; the item's single
//! parameter is the directory entry name. **Read-only**: CM writes are
//! rejected with `Unsupported` — a constraint over whois data can only
//! be monitored or enforced *elsewhere* (paper §6.3). No change feed.

use crate::backend::{single_param, wrong_op, Change, RisBackend};
use crate::msg::SpontaneousOp;
use crate::rid::CmRid;
use hcm_core::{ItemId, SimTime, Sym, Value};
use hcm_ris::whois::WhoisDir;
use hcm_ris::RisError;

struct WhoisMap {
    base: Sym,
    field: String,
}

/// See module docs.
pub struct WhoisBackend {
    dir: WhoisDir,
    maps: Vec<WhoisMap>,
}

impl WhoisBackend {
    /// Wrap a directory per the CM-RID.
    #[must_use]
    pub(crate) fn new(dir: WhoisDir, rid: &CmRid) -> Self {
        let maps = rid
            .maps
            .iter()
            .filter_map(|(base, props)| {
                props.get("field").map(|f| WhoisMap {
                    base: Sym::intern(base),
                    field: f.clone(),
                })
            })
            .collect();
        WhoisBackend { dir, maps }
    }

    fn map_for(&self, base: Sym) -> Result<&WhoisMap, RisError> {
        self.maps
            .iter()
            .find(|m| m.base == base)
            .ok_or_else(|| RisError::Unsupported(format!("no whois mapping for `{base}`")))
    }
}

impl RisBackend for WhoisBackend {
    fn has_change_feed(&self) -> bool {
        false // the CM must poll; changes below are trace ground truth
    }

    fn apply_spontaneous(
        &mut self,
        op: &SpontaneousOp,
        _now: SimTime,
    ) -> Result<Vec<Change>, RisError> {
        // Ground-truth bookkeeping for the trace (the CM cannot see
        // these; its polling interfaces discover them later).
        let mut out = Vec::new();
        match op {
            SpontaneousOp::WhoisSet { name, field, value } => {
                for m in self.maps.iter().filter(|m| &m.field == field) {
                    let item = ItemId::with(m.base, [Value::from(name.as_str())]);
                    let old = self
                        .dir
                        .lookup_field(name, field)
                        .map(Value::from)
                        .unwrap_or(Value::Null);
                    out.push(Change {
                        item,
                        old: Some(old),
                        new: Value::from(value.as_str()),
                    });
                }
                self.dir.admin_set(name, field, value);
            }
            SpontaneousOp::WhoisRemove { name } => {
                for m in &self.maps {
                    if let Ok(old) = self.dir.lookup_field(name, &m.field) {
                        let item = ItemId::with(m.base, [Value::from(name.as_str())]);
                        out.push(Change {
                            item,
                            old: Some(Value::from(old)),
                            new: Value::Null,
                        });
                    }
                }
                self.dir.admin_remove(name)?;
            }
            other => return Err(wrong_op("whois", other)),
        }
        Ok(out)
    }

    fn write(
        &mut self,
        item: &ItemId,
        _value: &Value,
        _now: SimTime,
    ) -> Result<Option<Value>, RisError> {
        Err(RisError::Unsupported(format!(
            "whois directory is read-only (write to `{item}`)"
        )))
    }

    fn read(&self, item: &ItemId) -> Result<Value, RisError> {
        let m = self.map_for(item.base)?;
        let name = single_param(item)?;
        match self.dir.lookup_field(&name, &m.field) {
            Ok(v) => Ok(Value::from(v)),
            Err(RisError::NotFound(_)) => Ok(Value::Null),
            Err(e) => Err(e),
        }
    }

    fn enumerate(&self, base: Sym) -> Vec<ItemId> {
        let Ok(m) = self.map_for(base) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (name, fields) in self.dir.dump() {
            if fields.contains_key(&m.field) {
                out.push(ItemId::with(m.base, [Value::from(name)]));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> WhoisBackend {
        let mut dir = WhoisDir::new();
        dir.admin_set("ann", "phone", "555-0100");
        dir.admin_set("bob", "office", "b12");
        let rid = CmRid::parse("ris = whois\n[map wphone]\nfield = phone\n").unwrap();
        WhoisBackend::new(dir, &rid)
    }

    #[test]
    fn read_only() {
        let mut b = setup();
        let err = b
            .write(
                &ItemId::with("wphone", [Value::from("ann")]),
                &Value::from("1"),
                SimTime::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, RisError::Unsupported(_)));
    }

    #[test]
    fn read_and_absent() {
        let b = setup();
        assert_eq!(
            b.read(&ItemId::with("wphone", [Value::from("ann")]))
                .unwrap(),
            Value::from("555-0100")
        );
        // bob has no phone field.
        assert_eq!(
            b.read(&ItemId::with("wphone", [Value::from("bob")]))
                .unwrap(),
            Value::Null
        );
    }

    #[test]
    fn spontaneous_admin_ops_report_ground_truth() {
        let mut b = setup();
        assert!(!b.has_change_feed(), "whois has no native feed");
        let ch = b
            .apply_spontaneous(
                &SpontaneousOp::WhoisSet {
                    name: "ann".into(),
                    field: "phone".into(),
                    value: "555-0200".into(),
                },
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(ch.len(), 1);
        assert_eq!(ch[0].old, Some(Value::from("555-0100")));
        assert_eq!(ch[0].new, Value::from("555-0200"));
        assert_eq!(
            b.read(&ItemId::with("wphone", [Value::from("ann")]))
                .unwrap(),
            Value::from("555-0200")
        );
        // Unmapped fields produce nothing.
        let none = b
            .apply_spontaneous(
                &SpontaneousOp::WhoisSet {
                    name: "ann".into(),
                    field: "office".into(),
                    value: "b9".into(),
                },
                SimTime::ZERO,
            )
            .unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn enumerate_only_entries_with_field() {
        let mut dir = WhoisDir::new();
        dir.admin_set("ann", "phone", "555-0100");
        dir.admin_set("bob", "office", "b12");
        dir.admin_set("cy", "phone", "555-0300");
        let rid = "ris = whois\n[map wphone]\nfield = phone\n[map woffice]\nfield = office\n";
        let b = WhoisBackend::new(dir, &CmRid::parse(rid).unwrap());
        let item = |base: &str, name: &str| ItemId::with(base, [Value::from(name)]);
        // bob lacks `phone`, ann and cy lack `office`.
        let phones = [item("wphone", "ann"), item("wphone", "cy")];
        assert_eq!(b.enumerate(Sym::from("wphone")), phones);
        assert_eq!(b.enumerate(Sym::from("woffice")), [item("woffice", "bob")]);
        assert!(b.enumerate(Sym::from("zz")).is_empty());
    }
}
