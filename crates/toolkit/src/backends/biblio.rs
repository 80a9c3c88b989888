//! Backend for the bibliographic store.
//!
//! Items are two-parameter names `pub(author, title)` (base configured
//! by `[map <base>] mode = year`). Reading yields the publication year
//! when the record exists, `Null` otherwise — so the paper's
//! referential-integrity `E(x)` predicate works directly. **Read-only**
//! to the CM; no change feed (translators poll).

use crate::backend::{value_to_text, wrong_op, Change, RisBackend};
use crate::msg::SpontaneousOp;
use crate::rid::CmRid;
use hcm_core::{ItemId, SimTime, Sym, Value};
use hcm_ris::biblio::BiblioDb;
use hcm_ris::RisError;

/// See module docs.
pub struct BiblioBackend {
    db: BiblioDb,
    bases: Vec<Sym>,
}

impl BiblioBackend {
    /// Wrap a store per the CM-RID.
    #[must_use]
    pub(crate) fn new(db: BiblioDb, rid: &CmRid) -> Self {
        BiblioBackend {
            db,
            bases: rid.maps.keys().map(Sym::from).collect(),
        }
    }

    fn check_base(&self, base: Sym) -> Result<(), RisError> {
        if self.bases.contains(&base) {
            Ok(())
        } else {
            Err(RisError::Unsupported(format!(
                "no biblio mapping for `{base}`"
            )))
        }
    }

    fn author_title(item: &ItemId) -> Result<(String, String), RisError> {
        if item.params.len() != 2 {
            return Err(RisError::Unsupported(format!(
                "biblio items take (author, title): `{item}`"
            )));
        }
        Ok((
            value_to_text(&item.params[0]),
            value_to_text(&item.params[1]),
        ))
    }
}

impl RisBackend for BiblioBackend {
    fn has_change_feed(&self) -> bool {
        false // the CM must poll; changes below are trace ground truth
    }

    fn apply_spontaneous(
        &mut self,
        op: &SpontaneousOp,
        _now: SimTime,
    ) -> Result<Vec<Change>, RisError> {
        let mut out = Vec::new();
        match op {
            SpontaneousOp::BiblioAppend {
                author,
                title,
                year,
            } => {
                self.db.append(author, title, *year);
                for base in &self.bases {
                    out.push(Change {
                        item: ItemId::with(
                            *base,
                            [Value::from(author.as_str()), Value::from(title.as_str())],
                        ),
                        old: Some(Value::Null),
                        new: Value::Int(i64::from(*year)),
                    });
                }
            }
            other => return Err(wrong_op("biblio", other)),
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
            "bibliographic database is read-only (write to `{item}`)"
        )))
    }

    fn read(&self, item: &ItemId) -> Result<Value, RisError> {
        self.check_base(item.base)?;
        let (author, title) = Self::author_title(item)?;
        Ok(self
            .db
            .by_author(&author)
            .into_iter()
            .find(|r| r.title == title)
            .map_or(Value::Null, |r| Value::Int(i64::from(r.year))))
    }

    fn enumerate(&self, base: Sym) -> Vec<ItemId> {
        if self.check_base(base).is_err() {
            return Vec::new();
        }
        let mut out = Vec::new();
        for rec in self.db.since(None) {
            out.push(ItemId::with(
                base,
                [
                    Value::from(rec.author.as_str()),
                    Value::from(rec.title.as_str()),
                ],
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> BiblioBackend {
        let mut db = BiblioDb::new();
        db.append("widom", "Active Databases", 1994);
        db.append("garcia", "Sagas", 1987);
        let rid = CmRid::parse("ris = biblio\n[map paper]\nmode = year\n").unwrap();
        BiblioBackend::new(db, &rid)
    }

    #[test]
    fn read_existing_and_absent() {
        let b = setup();
        let item = ItemId::with(
            "paper",
            [Value::from("widom"), Value::from("Active Databases")],
        );
        assert_eq!(b.read(&item).unwrap(), Value::Int(1994));
        let missing = ItemId::with("paper", [Value::from("widom"), Value::from("Nope")]);
        assert_eq!(b.read(&missing).unwrap(), Value::Null);
    }

    #[test]
    fn read_only_and_arity() {
        let mut b = setup();
        let item = ItemId::with("paper", [Value::from("a"), Value::from("t")]);
        assert!(b.write(&item, &Value::Int(1), SimTime::ZERO).is_err());
        assert!(b.read(&ItemId::plain("paper")).is_err());
        assert!(b
            .read(&ItemId::with("zz", [Value::from("a"), Value::from("t")]))
            .is_err());
    }

    #[test]
    fn librarian_append_then_visible_via_read() {
        let mut b = setup();
        b.apply_spontaneous(
            &SpontaneousOp::BiblioAppend {
                author: "chawathe".into(),
                title: "Constraints".into(),
                year: 1996,
            },
            SimTime::ZERO,
        )
        .unwrap();
        let item = ItemId::with(
            "paper",
            [Value::from("chawathe"), Value::from("Constraints")],
        );
        assert_eq!(b.read(&item).unwrap(), Value::Int(1996));
    }

    #[test]
    fn enumerate_by_author() {
        let b = setup();
        let paper = |a: &str, t: &str| ItemId::with("paper", [Value::from(a), Value::from(t)]);
        assert_eq!(
            b.enumerate(Sym::from("paper")),
            [paper("widom", "Active Databases"), paper("garcia", "Sagas")]
        );
        assert!(b.enumerate(Sym::from("zz")).is_empty());
    }
}
