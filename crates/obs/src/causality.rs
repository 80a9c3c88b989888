//! The provenance walker: an event's causal chain, rebuilt from the
//! trace alone.
//!
//! Every recorded event's six-tuple carries the `rule` that produced
//! it and the `trigger` event that rule fired on. [`causal_chain`]
//! starts from any recorded event and walks the `trigger` links back
//! to a *spontaneous* root (an event with neither `rule` nor `trigger`
//! — an application write or a periodic tick). The checker's
//! rule-causality property (Appendix property 5) verifies each link is
//! a legitimate rule consequence; the walker reconstructs the chain
//! those links form, and the two are differentially tested against
//! each other.

use hcm_core::{EventId, Trace};

/// The provenance chain of one event: the event itself first, then its
/// trigger, its trigger's trigger, …, ending at the chain's last
/// reachable ancestor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalChain {
    /// Event ids from the queried event back to the last ancestor.
    pub ids: Vec<EventId>,
    /// Whether the last ancestor is a spontaneous event (no `rule`, no
    /// `trigger`) — a well-formed chain per Appendix property 5.
    pub rooted: bool,
    /// Why the walk stopped short, when it did.
    pub broken: Option<String>,
}

impl CausalChain {
    /// The spontaneous root, when the chain is rooted.
    #[must_use]
    pub fn root(&self) -> Option<EventId> {
        if self.rooted {
            self.ids.last().copied()
        } else {
            None
        }
    }
}

/// Walk an event's `trigger` links back to its spontaneous root.
///
/// The walk also re-checks the structural half of the rule-causality
/// property along the way: every trigger must exist in the trace and
/// must not be later than its consequence. A dangling trigger, an
/// out-of-order link, a cycle, or a non-spontaneous chain head leaves
/// `rooted == false` with the reason in `broken`.
#[must_use]
pub fn causal_chain(trace: &Trace, id: EventId) -> CausalChain {
    let mut ids = Vec::new();
    let mut broken = None;
    let mut cur = match trace.get(id) {
        Some(e) => e,
        None => {
            return CausalChain {
                ids,
                rooted: false,
                broken: Some(format!("unknown event {id}")),
            }
        }
    };
    ids.push(cur.id);
    // The trace is finite and triggers must strictly precede (same
    // time allowed), so a chain longer than the trace is a cycle.
    let cap = trace.len() + 1;
    while let Some(tid) = cur.trigger {
        if ids.len() >= cap {
            broken = Some("trigger cycle".to_string());
            break;
        }
        match trace.get(tid) {
            None => {
                broken = Some(format!("dangling trigger {tid}"));
                break;
            }
            Some(t) => {
                if t.time > cur.time {
                    broken = Some(format!(
                        "trigger {tid} at {} is later than its consequence at {}",
                        t.time, cur.time
                    ));
                    break;
                }
                ids.push(t.id);
                cur = t;
            }
        }
    }
    let rooted = broken.is_none() && cur.is_spontaneous();
    if !rooted && broken.is_none() {
        broken = Some(format!("chain head {} is not spontaneous", cur.id));
    }
    CausalChain {
        ids,
        rooted,
        broken,
    }
}

/// Render a chain for humans: one line per event, consequence first,
/// spontaneous root last.
#[must_use]
pub fn render_chain(trace: &Trace, chain: &CausalChain) -> String {
    let mut out = String::new();
    for (i, id) in chain.ids.iter().enumerate() {
        let prefix = if i == 0 { "  " } else { "  ⇐ caused by " };
        match trace.get(*id) {
            Some(e) => {
                out.push_str(prefix);
                out.push_str(&e.to_string());
                if i + 1 == chain.ids.len() && chain.rooted {
                    out.push_str("   [spontaneous root]");
                }
            }
            None => {
                out.push_str(prefix);
                out.push_str(&format!("{id} (missing)"));
            }
        }
        out.push('\n');
    }
    if let Some(b) = &chain.broken {
        out.push_str(&format!("  ✗ chain broken: {b}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcm_core::{EventDesc, ItemId, RuleId, SimTime, SiteId, Value};

    fn ws(item: &str, v: i64) -> EventDesc {
        EventDesc::Ws {
            item: ItemId::plain(item),
            old: None,
            new: Value::Int(v),
        }
    }

    #[test]
    fn chain_walks_to_spontaneous_root() {
        let mut tr = Trace::new();
        let root = tr.push(
            SimTime::from_millis(1),
            SiteId::new(0),
            ws("X", 1),
            None,
            None,
            None,
        );
        let mid = tr.push(
            SimTime::from_millis(5),
            SiteId::new(0),
            EventDesc::N {
                item: ItemId::plain("X"),
                value: Value::Int(1),
            },
            None,
            Some(RuleId(0)),
            Some(root),
        );
        let leaf = tr.push(
            SimTime::from_millis(9),
            SiteId::new(1),
            EventDesc::W {
                item: ItemId::plain("Y"),
                value: Value::Int(1),
            },
            None,
            Some(RuleId(1)),
            Some(mid),
        );
        let chain = causal_chain(&tr, leaf);
        assert!(chain.rooted, "{:?}", chain.broken);
        assert_eq!(chain.ids, vec![leaf, mid, root]);
        assert_eq!(chain.root(), Some(root));
        let rendered = render_chain(&tr, &chain);
        assert!(rendered.contains("spontaneous root"), "{rendered}");
    }

    #[test]
    fn non_spontaneous_head_is_flagged() {
        let mut tr = Trace::new();
        // An event claiming a rule but no trigger: not spontaneous, and
        // nothing to walk to.
        let odd = tr.push(
            SimTime::from_millis(1),
            SiteId::new(0),
            ws("X", 1),
            None,
            Some(RuleId(3)),
            None,
        );
        let chain = causal_chain(&tr, odd);
        assert!(!chain.rooted);
        assert!(chain.broken.unwrap().contains("not spontaneous"));
    }

    #[test]
    fn dangling_trigger_is_flagged() {
        let mut tr = Trace::new();
        let e = tr.push(
            SimTime::from_millis(4),
            SiteId::new(0),
            ws("X", 2),
            None,
            Some(RuleId(0)),
            Some(EventId(999)),
        );
        let chain = causal_chain(&tr, e);
        assert!(!chain.rooted);
        assert!(chain.broken.unwrap().contains("dangling"));
    }
}
