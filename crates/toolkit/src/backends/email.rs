//! Backend for the mail system — the write-only profile.
//!
//! Items map via `[map <base>] subject = …`; the item's single
//! parameter is the recipient. A CM write of a string value sends a
//! message; reads return `Null` (the CM cannot see mailboxes), and
//! there is no change feed.

use crate::backend::{single_param, value_to_text, Change, RisBackend};
use crate::msg::SpontaneousOp;
use crate::rid::CmRid;
use hcm_core::{ItemId, SimTime, Sym, Value};
use hcm_ris::email::MailSystem;
use hcm_ris::RisError;

struct MailMap {
    base: String,
    subject: String,
}

/// See module docs.
pub struct EmailBackend {
    mail: MailSystem,
    maps: Vec<MailMap>,
}

impl EmailBackend {
    /// Wrap a mail system per the CM-RID.
    #[must_use]
    pub(crate) fn new(mail: MailSystem, rid: &CmRid) -> Self {
        let maps = rid
            .maps
            .iter()
            .map(|(base, props)| MailMap {
                base: base.clone(),
                subject: props
                    .get("subject")
                    .cloned()
                    .unwrap_or_else(|| "constraint manager notice".to_owned()),
            })
            .collect();
        EmailBackend { mail, maps }
    }
}

impl RisBackend for EmailBackend {
    fn has_change_feed(&self) -> bool {
        false
    }

    fn apply_spontaneous(
        &mut self,
        op: &SpontaneousOp,
        _now: SimTime,
    ) -> Result<Vec<Change>, RisError> {
        Err(RisError::Unsupported(format!(
            "the mail system takes no application operations through the CM harness: {op:?}"
        )))
    }

    fn write(
        &mut self,
        item: &ItemId,
        value: &Value,
        now: SimTime,
    ) -> Result<Option<Value>, RisError> {
        let m = self
            .maps
            .iter()
            .find(|m| m.base == item.base)
            .ok_or_else(|| RisError::Unsupported(format!("no mail mapping for `{}`", item.base)))?;
        if *value == Value::Null {
            return self.mail.recall(&single_param(item)?).map(|()| None);
        }
        let to = single_param(item)?;
        self.mail.send(&to, &m.subject, &value_to_text(value), now);
        Ok(None)
    }

    fn read(&self, item: &ItemId) -> Result<Value, RisError> {
        // The CM has no read access to mailboxes; a mailbox "item"
        // reads as absent.
        let _ = item;
        Ok(Value::Null)
    }

    fn enumerate(&self, _base: Sym) -> Vec<ItemId> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> EmailBackend {
        let rid = CmRid::parse(
            "ris = email\n[interface]\nWR(mail(n), b) -> W(mail(n), b) within 1s\n\
             [map mail]\nsubject = record deleted\n",
        )
        .unwrap();
        EmailBackend::new(MailSystem::new(), &rid)
    }

    #[test]
    fn write_sends_mail() {
        let mut b = setup();
        let item = ItemId::with("mail", [Value::from("ann")]);
        b.write(
            &item,
            &Value::from("your project record was removed"),
            SimTime::from_secs(9),
        )
        .unwrap();
        let inbox = b.mail.inbox("ann");
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].subject, "record deleted");
        assert_eq!(inbox[0].body, "your project record was removed");
        assert_eq!(inbox[0].at, SimTime::from_secs(9));
    }

    #[test]
    fn cm_cannot_read_or_recall() {
        let mut b = setup();
        let item = ItemId::with("mail", [Value::from("ann")]);
        b.write(&item, &Value::from("x"), SimTime::ZERO).unwrap();
        assert_eq!(b.read(&item).unwrap(), Value::Null);
        assert!(b.write(&item, &Value::Null, SimTime::ZERO).is_err());
        assert!(b.enumerate(Sym::from("mail")).is_empty());
    }

    #[test]
    fn unmapped_base_rejected() {
        let mut b = setup();
        assert!(b
            .write(&ItemId::plain("zz"), &Value::from("x"), SimTime::ZERO)
            .is_err());
    }
}
