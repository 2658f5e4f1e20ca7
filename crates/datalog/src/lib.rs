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
//! * [`ast`] — programs, rules, atoms, expressions;
//! * [`lexer`] / [`parser`] — the surface syntax of Section 2 of the paper;
//! * [`validate`] — safety (range restriction), location-specifier and
//!   aggregate checks;
//! * [`localize`] — the localization rewrite that turns multi-site rule
//!   bodies into single-site rules plus forwarding rules;
//! * [`plan`] — per-rule delta plans for semi-naive evaluation, and
//!   [`plan::compile_program`] tying the whole pipeline together.
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

pub mod ast;
pub mod lexer;
pub mod localize;
pub mod parser;
pub mod plan;
pub mod symbols;
pub mod validate;
pub mod value;

pub use ast::{AggFunc, Atom, BinOp, BodyLiteral, Expr, Fact, Program, Rule, Term};
pub use parser::{parse_program, parse_rule, ParseError};
pub use plan::{
    compile_program, Builtin, CompiledProgram, DeltaPlan, HeadPlan, IndexSpec, JoinStep, PlanError,
    PlanStep, RulePlan, SlotExpr, SlotTerm,
};
pub use symbols::{PredId, Symbols};
pub use value::{Address, Value};

/// Commonly used items, for glob import in examples and downstream crates.
pub mod prelude {
    pub use crate::ast::{AggFunc, Atom, BinOp, BodyLiteral, Expr, Fact, Program, Rule, Term};
    pub use crate::localize::localize_program;
    pub use crate::parser::{parse_program, parse_rule};
    pub use crate::plan::{compile_program, CompiledProgram, RulePlan};
    pub use crate::validate::validate_program;
    pub use crate::value::{Address, Value};
}
