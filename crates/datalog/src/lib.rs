//! # pasn-datalog
//!
//! The NDlog / SeNDlog language front-end for the *Provenance-aware Secure
//! Networks* reproduction (Zhou, Cronin, Loo — ICDE 2008).
//!
//! Declarative networks are specified in **Network Datalog (NDlog)**, a
//! distributed recursive query language; **Secure Network Datalog (SeNDlog)**
//! adds security contexts (`At P:` blocks), the `says` authentication
//! operator and explicit export annotations (`head(...)@Z`).  This crate
//! turns program text into validated, localized, planned rules ready for the
//! distributed evaluator in `pasn-engine`:
//!
//! * [`value`] — the runtime value model shared by constants and tuples;
//! * `ast` — programs, rules, atoms, expressions;
//! * `lexer` / [`parser`] — the surface syntax of Section 2 of the paper;
//! * `validate` — what the planner cannot see: location specifiers, `says`
//!   outside a context block, one aggregate per head, one arity and one
//!   `@` column per predicate;
//! * `localize` — the localization rewrite that turns multi-site rule
//!   bodies into single-site rules plus forwarding rules;
//! * [`plan`] — per-rule delta plans for semi-naive evaluation, whose
//!   binding walk is the one safety (range restriction) check, and
//!   [`plan::compile_program`] tying the whole pipeline together.  Every
//!   refusal of every stage is a [`PlanError`] naming the rule; `plan`'s
//!   module docs list them all.
//!
//! ```
//! use pasn_datalog::prelude::*;
//!
//! let program = parse_program(
//!     "r1 reachable(@S,D) :- link(@S,D).\n\
//!      r2 reachable(@S,D) :- link(@S,Z), reachable(@Z,D).",
//! ).unwrap();
//! let compiled = compile_program(&program).unwrap();
//! // The localization rewrite split r2 into a forwarding rule plus a
//! // single-site join.
//! assert_eq!(compiled.program.rules.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod ast;
pub(crate) mod lexer;
pub(crate) mod localize;
pub mod parser;
pub mod plan;
pub mod symbols;
pub(crate) mod validate;
pub mod value;

pub use ast::{AggFunc, Atom, BinOp, BodyLiteral, Expr, Fact, Program, Rule, Term};
pub use parser::{parse_program, parse_rule, ParseError};
pub use plan::{
    compile_program, Builtin, CompiledProgram, DeltaPlan, HeadPlan, IndexSpec, JoinStep, PlanError,
    PlanStep, RulePlan, SlotExpr, SlotTerm,
};
pub use symbols::{PredId, Symbols};
pub use value::Value;

/// Commonly used items, for glob import in examples and downstream crates.
pub mod prelude {
    pub use crate::ast::{AggFunc, Atom, BinOp, BodyLiteral, Expr, Fact, Program, Rule, Term};
    pub use crate::parser::{parse_program, parse_rule};
    pub use crate::plan::{compile_program, CompiledProgram, RulePlan};
    pub use crate::value::Value;
}
