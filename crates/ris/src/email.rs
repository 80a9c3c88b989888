//! An electronic-mail system.
//!
//! The paper's RIS list includes "electronic mail systems" (§1, §4.1).
//! Mail has the *inverse* capability profile of the whois directory:
//! the CM can **send** (append a message) but never read back, update
//! or delete — a write-only sink. Its constraint-management role is
//! notification: §6.2's repair strategy deletes dangling records
//! "perhaps notifying the database owner of the deleted records".

use crate::RisError;
use hcm_core::SimTime;

/// A delivered message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mail {
    /// Recipient mailbox.
    pub to: String,
    /// Subject line.
    pub subject: String,
    /// Body text.
    pub body: String,
    /// Delivery time.
    pub at: SimTime,
}

/// The mail system: append-only mailboxes.
#[derive(Debug, Default, Clone)]
pub struct MailSystem {
    messages: Vec<Mail>,
}

impl MailSystem {
    /// An empty system.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Send a message (the only mutating operation).
    pub fn send(&mut self, to: &str, subject: &str, body: &str, now: SimTime) {
        self.messages.push(Mail {
            to: to.to_owned(),
            subject: subject.to_owned(),
            body: body.to_owned(),
            at: now,
        });
    }

    /// A recipient's inbox, oldest first. (Used by the *owner* of the
    /// mailbox — i.e. by tests and applications, not by the CM, which
    /// has no read access.)
    #[must_use]
    pub fn inbox(&self, to: &str) -> Vec<&Mail> {
        self.messages.iter().filter(|m| m.to == to).collect()
    }

    /// Mail cannot be recalled — the deletion API exists only to return
    /// the error a translator would see.
    pub fn recall(&mut self, _to: &str) -> Result<(), RisError> {
        Err(RisError::Unsupported("mail cannot be recalled".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_and_inbox() {
        let mut m = MailSystem::new();
        m.send("ann", "hello", "body1", SimTime::from_secs(1));
        m.send("bob", "hi", "body2", SimTime::from_secs(2));
        m.send("ann", "again", "body3", SimTime::from_secs(3));
        assert_eq!(m.inbox("bob").len(), 1);
        let ann = m.inbox("ann");
        assert_eq!(ann.len(), 2);
        assert_eq!(ann[0].subject, "hello");
        assert_eq!(ann[1].at, SimTime::from_secs(3));
        assert!(m.inbox("carol").is_empty());
    }

    #[test]
    fn recall_is_unsupported() {
        let mut m = MailSystem::new();
        assert!(matches!(m.recall("ann"), Err(RisError::Unsupported(_))));
    }
}
