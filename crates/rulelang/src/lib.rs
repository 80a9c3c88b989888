//! # hcm-rulelang — the paper's rule language, concretely
//!
//! Section 3 and Appendix A of the paper define a rule-based notation
//! for three kinds of specification. This crate gives that notation a
//! concrete ASCII syntax, an AST, a parser, and an evaluator for the
//! condition sub-language:
//!
//! * **Interface statements** `E₁ ∧ C →δ E₂` —
//!   ```text
//!   WR(X, b) -> W(X, b) within 1s
//!   Ws(X, b) -> false
//!   Ws(X, a, b) when abs(b - a) > 0.1 * a -> N(X, b) within 2s
//!   P(300s) when X = b -> N(X, b) within 500ms
//!   ```
//! * **Strategy rules** `E₀ ∧ C₀ →δ C₁?E₁; …; Cₖ?Eₖ` with the paper's
//!   *sequenced* right-hand side (Appendix A.1) —
//!   ```text
//!   N(X, b) -> if Cx != b then WR(Y, b) ; W(Cx, b) within 5s
//!   ```
//! * **Guarantees** — metric and non-metric temporal formulas —
//!   ```text
//!   (Y = y) @ t1 => (X = y) @ t2 and t2 < t1
//!   (Flag = true and Tb = s) @ t => (X = Y) @@ [s, t - 10s]
//!   exists(project(i)) @ t => exists(salary(i)) @? [t, t + 86400s]
//!   ```
//!
//! Following the paper's convention (§3.1.1), identifiers in conditions
//! starting with an **upper-case letter denote local data items** and
//! those starting with a lower-case letter denote **rule parameters**;
//! any identifier applied to parentheses (`salary1(n)`) is a
//! parameterized data item.
//!
//! The [`specfile`] module implements the toolkit's two bespoke file
//! formats, the *CM-RID* and the *Strategy Specification* of §4.1.

#![warn(missing_docs)]

pub mod ast;
pub mod parser;
pub mod specfile;
pub mod token;

pub use ast::{
    CmpOp, Cond, CondEnv, Expr, GAtom, Guarantee, InterfaceStmt, Mention, RhsStep, StrategyRule,
    TimeExpr,
};
pub use parser::{
    parse_cond, parse_guarantee, parse_interface, parse_strategy_rule, parse_template, ParseError,
};
pub use specfile::{Section, SpecFile};
