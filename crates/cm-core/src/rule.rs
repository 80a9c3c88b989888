//! Rule identities.
//!
//! The rule ASTs (interface statements, strategy rules, guarantees) live
//! in `hcm-rulelang`; events only need to *name* the rule that generated
//! them (the `rule` component of the six-tuple). [`RuleId`] is that name
//! and [`RuleRegistry`] hands the names out.

use std::fmt;

/// Identifier of a registered interface or strategy rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RuleId(pub u32);

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Registry assigning stable ids to rules, in registration order. The
/// toolkit registers every interface statement and strategy rule here
/// during initialization.
#[derive(Debug, Default, Clone)]
pub struct RuleRegistry {
    count: u32,
}

impl RuleRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a rule, returning its id.
    pub fn register(&mut self) -> RuleId {
        let id = RuleId(self.count);
        self.count += 1;
        id
    }

    /// Number of registered rules.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// `true` when no rule has been registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut reg = RuleRegistry::new();
        assert!(reg.is_empty());
        let a = reg.register();
        let b = reg.register();
        assert_ne!(a, b);
        assert_eq!(reg.len(), 2);
        assert_eq!(a.to_string(), "r0");
    }
}
