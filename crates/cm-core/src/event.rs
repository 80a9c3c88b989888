//! Events — the six-tuples of Appendix A.
//!
//! The paper represents each event as
//! `E = (time, desc, old, new, rule, trigger)` where `old`/`new` are full
//! interpretations (system states) before and after the event. Storing a
//! full interpretation per event is redundant under the frame axiom
//! (Appendix property 2/3: only writes change state, and only for the
//! written item), so [`Event`] stores the *delta* — `old_value` of the
//! touched item — and full interpretations are reconstructed by
//! [`crate::trace::Trace`] on demand. The information content is
//! identical; `hcm-checker` verifies exactly the appendix properties.
//!
//! We additionally record the event's site explicitly (the paper: "each
//! event has a unique site"), which rule distribution and the in-order
//! property (property 7) require.

use crate::item::ItemId;
use crate::rule::RuleId;
use crate::site::SiteId;
use crate::time::{SimDuration, SimTime};
use crate::value::Value;
use std::fmt;

/// Identity of an event within a trace: its index in occurrence
/// order, so comparing ids compares positions (Appendix A's
/// "precedes").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub u64);

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// The descriptor of an event — drawn from the paper's descriptor set
/// `{Ws, W, RR, N, WR, R, P}`, plus `Custom` (the appendix notes the set
/// "can be expanded by adding new templates and their semantics").
///
/// Existence (`E(X)` of §6.2) is encoded through values: a write of
/// [`Value::Null`] deletes the item, a write of anything else
/// (re-)creates it. No separate insert/delete descriptors are needed.
#[derive(Debug, Clone, PartialEq)]
pub enum EventDesc {
    /// A *spontaneous* write `X ← new` performed by a local application,
    /// independent of constraint management. `old` is the prior value if
    /// the database exposes it (the conditional-notify interface needs
    /// it), `None` otherwise.
    Ws {
        /// Item written.
        item: ItemId,
        /// Previous value, when known.
        old: Option<Value>,
        /// New value.
        new: Value,
    },
    /// A *generated* write: the database performs `X ← value` on the
    /// CM's behalf (the RHS of a write interface).
    W {
        /// Item written.
        item: ItemId,
        /// Value written.
        value: Value,
    },
    /// The database receives a write request `X ← value` from the CM.
    Wr {
        /// Item addressed.
        item: ItemId,
        /// Requested value.
        value: Value,
    },
    /// The database receives a read request for `X` from the CM.
    Rr {
        /// Item addressed.
        item: ItemId,
    },
    /// The CM receives the response to a read request: `X` held `value`.
    R {
        /// Item read.
        item: ItemId,
        /// Value observed.
        value: Value,
    },
    /// The CM receives a notification that `X` now holds `value`.
    N {
        /// Item concerned.
        item: ItemId,
        /// Notified value.
        value: Value,
    },
    /// A periodic event `P(p)` that occurs every `period` by definition.
    P {
        /// The period.
        period: SimDuration,
    },
    /// A protocol-specific event (e.g. the demarcation protocol's
    /// limit-change requests/grants).
    Custom {
        /// Event name.
        name: String,
        /// Ground arguments.
        args: Vec<Value>,
    },
}

impl EventDesc {
    /// The item this event addresses, if it is item-addressed.
    #[must_use]
    pub fn item(&self) -> Option<&ItemId> {
        match self {
            EventDesc::Ws { item, .. }
            | EventDesc::W { item, .. }
            | EventDesc::Wr { item, .. }
            | EventDesc::Rr { item }
            | EventDesc::R { item, .. }
            | EventDesc::N { item, .. } => Some(item),
            EventDesc::P { .. } | EventDesc::Custom { .. } => None,
        }
    }

    /// For write descriptors (`Ws`/`W`), the item and the value written.
    /// These are the only descriptors that change system state
    /// (Appendix property 2).
    #[must_use]
    pub fn write_effect(&self) -> Option<(&ItemId, &Value)> {
        match self {
            EventDesc::Ws { item, new, .. } => Some((item, new)),
            EventDesc::W { item, value } => Some((item, value)),
            _ => None,
        }
    }

    /// `true` for descriptors that are *spontaneous by nature*: `Ws`
    /// (application activity) and `P` (occurs by definition). Such
    /// events carry no generating rule or trigger (properties 4/5).
    #[must_use]
    pub fn is_spontaneous_kind(&self) -> bool {
        matches!(self, EventDesc::Ws { .. } | EventDesc::P { .. })
    }

    /// Short tag for metrics and display (`"Ws"`, `"N"`, …).
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            EventDesc::Ws { .. } => "Ws",
            EventDesc::W { .. } => "W",
            EventDesc::Wr { .. } => "WR",
            EventDesc::Rr { .. } => "RR",
            EventDesc::R { .. } => "R",
            EventDesc::N { .. } => "N",
            EventDesc::P { .. } => "P",
            EventDesc::Custom { .. } => "Custom",
        }
    }
}

impl fmt::Display for EventDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventDesc::Ws { item, old, new } => match old {
                Some(o) => write!(f, "Ws({item}, {o}, {new})"),
                None => write!(f, "Ws({item}, {new})"),
            },
            EventDesc::W { item, value } => write!(f, "W({item}, {value})"),
            EventDesc::Wr { item, value } => write!(f, "WR({item}, {value})"),
            EventDesc::Rr { item } => write!(f, "RR({item})"),
            EventDesc::R { item, value } => write!(f, "R({item}, {value})"),
            EventDesc::N { item, value } => write!(f, "N({item}, {value})"),
            EventDesc::P { period } => write!(f, "P({period})"),
            EventDesc::Custom { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// An event occurrence: the paper's six-tuple
/// `(time, desc, old, new, rule, trigger)` with the `old`/`new`
/// interpretations replaced by the per-item delta (see module docs) and
/// the site made explicit.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Position in the trace (assigned by the recorder).
    pub id: EventId,
    /// Global virtual time of occurrence.
    pub time: SimTime,
    /// Site at which the event occurs.
    pub site: SiteId,
    /// The descriptor.
    pub desc: EventDesc,
    /// For write events: the value the written item held *just before*
    /// this event (the `old` interpretation restricted to the touched
    /// item). `None` for non-writes and for the first write of an item
    /// whose initial value is unspecified.
    pub old_value: Option<Value>,
    /// The rule whose firing produced this event; `None` for spontaneous
    /// events (Appendix property 4).
    pub rule: Option<RuleId>,
    /// The event whose occurrence fired that rule; `None` for
    /// spontaneous events.
    pub trigger: Option<EventId>,
}

impl Event {
    /// `true` when the event is spontaneous in the appendix sense: no
    /// generating rule and no trigger.
    #[must_use]
    pub fn is_spontaneous(&self) -> bool {
        self.rule.is_none() && self.trigger.is_none()
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} {} {}] {}", self.id, self.time, self.site, self.desc)?;
        if let Some(r) = self.rule {
            write!(f, " by {r}")?;
        }
        if let Some(t) = self.trigger {
            write!(f, " from {t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item_x() -> ItemId {
        ItemId::plain("X")
    }

    #[test]
    fn write_effect_only_for_writes() {
        let ws = EventDesc::Ws {
            item: item_x(),
            old: None,
            new: Value::Int(2),
        };
        let w = EventDesc::W {
            item: item_x(),
            value: Value::Int(3),
        };
        let n = EventDesc::N {
            item: item_x(),
            value: Value::Int(4),
        };
        assert_eq!(ws.write_effect(), Some((&item_x(), &Value::Int(2))));
        assert_eq!(w.write_effect(), Some((&item_x(), &Value::Int(3))));
        assert_eq!(n.write_effect(), None);
        assert_eq!(
            EventDesc::P {
                period: SimDuration::from_secs(1)
            }
            .write_effect(),
            None
        );
    }

    #[test]
    fn spontaneity_of_kinds() {
        assert!(EventDesc::Ws {
            item: item_x(),
            old: None,
            new: Value::Int(1)
        }
        .is_spontaneous_kind());
        assert!(EventDesc::P {
            period: SimDuration::from_secs(1)
        }
        .is_spontaneous_kind());
        assert!(!EventDesc::N {
            item: item_x(),
            value: Value::Int(1)
        }
        .is_spontaneous_kind());
    }

    #[test]
    fn item_accessor() {
        let rr = EventDesc::Rr { item: item_x() };
        assert_eq!(rr.item(), Some(&item_x()));
        assert_eq!(
            EventDesc::P {
                period: SimDuration::from_secs(1)
            }
            .item(),
            None
        );
        let c = EventDesc::Custom {
            name: "Grant".into(),
            args: vec![],
        };
        assert_eq!(c.item(), None);
    }

    #[test]
    fn display() {
        let e = Event {
            id: EventId(7),
            time: SimTime::from_millis(1500),
            site: SiteId::new(2),
            desc: EventDesc::N {
                item: item_x(),
                value: Value::Int(9),
            },
            old_value: None,
            rule: Some(RuleId(3)),
            trigger: Some(EventId(5)),
        };
        assert_eq!(e.to_string(), "[e7 t=1.500s site2] N(X, 9) by r3 from e5");
        assert!(!e.is_spontaneous());
    }

    #[test]
    fn tags() {
        assert_eq!(EventDesc::Rr { item: item_x() }.tag(), "RR");
        assert_eq!(
            EventDesc::Custom {
                name: "x".into(),
                args: vec![]
            }
            .tag(),
            "Custom"
        );
    }
}
