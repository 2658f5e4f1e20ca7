//! Rule compilation for semi-naive, pipelined evaluation.
//!
//! The P2 system compiles each rule into a dataflow of relational operators.
//! This planner does the same job for the interpreter in `pasn-engine`: a
//! [`RulePlan`] is the *only* rule representation the evaluator reads, and it
//! speaks in dense ids only — no AST term, variable name or function name
//! survives into it.  Per rule it holds one [`DeltaPlan`] per body atom (how
//! to extend a newly arrived tuple of that atom's predicate with joins
//! against the other body atoms, interleaved with filters and assignments as
//! soon as their inputs are bound) and one [`HeadPlan`] (how to build and
//! route the derived tuple).
//!
//! What is compiled:
//!
//! * **Slot assignment** — every variable of a rule gets a dense slot, so
//!   the evaluator keeps bindings in a flat `Vec<Option<Value>>` sized by
//!   [`RulePlan::slot_count`].  Atom and head arguments compile to
//!   [`SlotTerm`]s, filter and assignment expressions to [`SlotExpr`]s with
//!   every `f_*` name resolved to a [`Builtin`].
//! * **Join-key inference** — for each [`JoinStep`] the planner records which
//!   argument positions are already bound when the join runs (constants, or
//!   variables bound by the delta atom / earlier steps).  Those positions
//!   become the `key_columns` of an [`IndexSpec`], which the store layer uses
//!   to maintain a secondary hash index: the join then probes the index with
//!   the rendered key instead of scanning the whole relation.
//!
//! What [`PlanError::Plan`] rejects, naming the rule, before any tuple moves:
//! a body without atoms, an unknown built-in or one called with the wrong
//! argument count, a wildcard or aggregate inside an expression or a
//! wildcard in a head, and any filter, assignment, head argument, aggregate
//! or export annotation that reads a variable no body literal binds.  What
//! stays a run-time `EvalError` is only what depends on the values: operand
//! types, division by zero, `f_first` / `f_last` of an empty list.

use crate::ast::{AggFunc, BinOp, BodyLiteral, Expr, Program, Rule, Term};
use crate::localize::{localize_program, LocalizeError};
use crate::symbols::{PredId, Symbols};
use crate::validate::{validate_program, ValidationError};
use crate::value::Value;
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// Errors produced while preparing a program for execution.
#[derive(Clone, Debug)]
pub enum PlanError {
    /// The program failed static validation.
    Validation(Vec<ValidationError>),
    /// A rule could not be localized.
    Localize(LocalizeError),
    /// A rule could not be compiled (see the module docs for what is
    /// rejected).
    Plan {
        /// Label of the offending rule.
        rule: String,
        /// Explanation of the failure.
        message: String,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Validation(errs) => {
                writeln!(f, "program failed validation:")?;
                for e in errs {
                    writeln!(f, "  {e}")?;
                }
                Ok(())
            }
            PlanError::Localize(e) => write!(f, "{e}"),
            PlanError::Plan { rule, message } => write!(f, "cannot plan rule {rule}: {message}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<LocalizeError> for PlanError {
    fn from(e: LocalizeError) -> Self {
        PlanError::Localize(e)
    }
}

/// Planner-internal variable name → dense slot table of one rule, filled in
/// deterministic first-occurrence order.
#[derive(Default)]
struct Slots(HashMap<String, usize>);

impl Slots {
    /// The slot of `name`, allocating a fresh one on first sight.
    fn slot(&mut self, name: &str) -> usize {
        if let Some(&slot) = self.0.get(name) {
            return slot;
        }
        let slot = self.0.len();
        self.0.insert(name.to_string(), slot);
        slot
    }
}

/// An atom or head argument compiled against a rule's slot assignment.
#[derive(Clone, PartialEq, Debug)]
pub enum SlotTerm {
    /// A constant value that must match exactly.
    Const(Value),
    /// A variable, referenced by its dense slot id.
    Slot(usize),
    /// The anonymous variable `_` (always matches, binds nothing).
    Wildcard,
}

impl SlotTerm {
    fn compile(term: &Term, slots: &mut Slots) -> SlotTerm {
        match term {
            Term::Constant(c) => SlotTerm::Const(c.clone()),
            Term::Variable(v) | Term::Aggregate(_, v) => SlotTerm::Slot(slots.slot(v)),
            Term::Wildcard => SlotTerm::Wildcard,
        }
    }
}

/// The NDlog built-in functions (the `f_*` family used by the Best-Path query
/// and the use-case programs), resolved from their names at plan time.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Builtin {
    /// `f_init(S, D)`: the initial path vector `[S, D]`.
    Init,
    /// `f_concat(X, P)`: prepend `X` to path vector `P`.
    Concat,
    /// `f_append(P, X)`: append `X` to path vector `P`.
    Append,
    /// `f_member(P, X)`: true if `X` occurs in `P`.
    Member,
    /// `f_size(P)`: number of elements in `P`.
    Size,
    /// `f_first(P)`: first element of a path vector.
    First,
    /// `f_last(P)`: last element of a path vector.
    Last,
    /// `f_list(...)`: build a list from the arguments.
    List,
    /// `f_min(a, b)` on integers.
    Min,
    /// `f_max(a, b)` on integers.
    Max,
}

impl Builtin {
    /// Every built-in.
    pub const ALL: [Builtin; 10] = [
        Builtin::Init,
        Builtin::Concat,
        Builtin::Append,
        Builtin::Member,
        Builtin::Size,
        Builtin::First,
        Builtin::Last,
        Builtin::List,
        Builtin::Min,
        Builtin::Max,
    ];

    /// NDlog surface name of the function.
    pub fn name(self) -> &'static str {
        match self {
            Builtin::Init => "f_init",
            Builtin::Concat => "f_concat",
            Builtin::Append => "f_append",
            Builtin::Member => "f_member",
            Builtin::Size => "f_size",
            Builtin::First => "f_first",
            Builtin::Last => "f_last",
            Builtin::List => "f_list",
            Builtin::Min => "f_min",
            Builtin::Max => "f_max",
        }
    }

    /// The built-in called `name`, if there is one.
    pub(crate) fn from_name(name: &str) -> Option<Builtin> {
        Builtin::ALL.into_iter().find(|b| b.name() == name)
    }

    /// Required argument count (`None`: `f_list` takes any number).
    pub fn arity(self) -> Option<usize> {
        match self {
            Builtin::List => None,
            Builtin::Size | Builtin::First | Builtin::Last => Some(1),
            _ => Some(2),
        }
    }
}

/// A filter or assignment expression compiled against a rule's slot
/// assignment.  The planner guarantees every [`SlotExpr::Call`] carries the
/// argument count its [`Builtin`] requires.
#[derive(Clone, PartialEq, Debug)]
pub enum SlotExpr {
    /// A constant.
    Const(Value),
    /// A variable, referenced by its dense slot id.
    Slot(usize),
    /// A binary operation.
    BinOp(BinOp, Box<SlotExpr>, Box<SlotExpr>),
    /// A built-in function call.
    Call(Builtin, Vec<SlotExpr>),
}

impl SlotExpr {
    /// Compiles `expr`, appending every slot it reads to `inputs`.
    fn compile(
        expr: &Expr,
        slots: &mut Slots,
        inputs: &mut Vec<usize>,
    ) -> Result<SlotExpr, String> {
        Ok(match expr {
            Expr::Term(Term::Constant(c)) => SlotExpr::Const(c.clone()),
            Expr::Term(Term::Variable(v)) => {
                let slot = slots.slot(v);
                inputs.push(slot);
                SlotExpr::Slot(slot)
            }
            Expr::Term(term) => return Err(format!("`{term}` cannot be used in an expression")),
            Expr::BinOp(op, lhs, rhs) => SlotExpr::BinOp(
                *op,
                Box::new(Self::compile(lhs, slots, inputs)?),
                Box::new(Self::compile(rhs, slots, inputs)?),
            ),
            Expr::Call(name, args) => {
                let builtin =
                    Builtin::from_name(name).ok_or_else(|| format!("unknown function `{name}`"))?;
                if let Some(expected) = builtin.arity().filter(|n| *n != args.len()) {
                    let got = args.len();
                    return Err(format!("`{name}` expects {expected} arguments, got {got}"));
                }
                let args = args.iter().map(|a| Self::compile(a, slots, inputs));
                SlotExpr::Call(builtin, args.collect::<Result<_, _>>()?)
            }
        })
    }
}

/// A secondary-index requirement emitted by join-key inference: the store
/// should maintain a hash index over `predicate` keyed on `key_columns`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct IndexSpec {
    /// The indexed predicate.
    pub predicate: String,
    /// Argument positions forming the index key, in ascending order.
    pub key_columns: Vec<usize>,
    /// The predicate's interned id in the compiled program's [`Symbols`]
    /// table — what the store layer actually keys on.
    pub pred: PredId,
}

/// A join against the stored tuples of one predicate, with its compiled
/// argument patterns and inferred index key.
#[derive(Clone, PartialEq, Debug)]
pub struct JoinStep {
    /// The joined predicate's interned id — the evaluator dispatches and
    /// probes by this `u32` instead of comparing predicate strings.
    pub pred: PredId,
    /// The atom's arguments compiled to slot terms.
    pub args: Vec<SlotTerm>,
    /// The `says` annotation compiled to a slot term, if present.
    pub says: Option<SlotTerm>,
    /// Index of the argument carrying the atom's `@` location specifier.
    pub location: Option<usize>,
    /// Argument positions guaranteed to be bound when this join runs
    /// (constants and previously bound variables).  Empty means the join
    /// must fall back to a full scan.
    pub key_columns: Vec<usize>,
}

/// One step of a delta plan.
#[derive(Clone, PartialEq, Debug)]
pub enum PlanStep {
    /// Join against the stored tuples of the step's predicate, probing a
    /// secondary index when key columns are bound.
    Join(JoinStep),
    /// Evaluate a filter over the bound slots and drop non-matching
    /// bindings.
    Filter(SlotExpr),
    /// Bind a new variable from an expression over bound slots.
    Assign {
        /// The dense slot of the variable being bound.
        slot: usize,
        /// The defining expression.
        expr: SlotExpr,
    },
}

/// The plan triggered when a new tuple of `delta_pred` arrives.
#[derive(Clone, PartialEq, Debug)]
pub struct DeltaPlan {
    /// The delta predicate's interned id (plan dispatch compares this).
    pub delta_pred: PredId,
    /// The delta atom's arguments compiled to slot terms.
    pub delta_args: Vec<SlotTerm>,
    /// The delta atom's `says` annotation compiled to a slot term.
    pub delta_says: Option<SlotTerm>,
    /// Index of the argument carrying the delta atom's `@` location
    /// specifier.
    pub location: Option<usize>,
    /// Remaining work, in execution order.
    pub steps: Vec<PlanStep>,
    /// Secondary indexes this plan's joins probe (one per indexed join).
    pub index_specs: Vec<IndexSpec>,
}

/// How a satisfied rule body becomes a head tuple and where it goes.
#[derive(Clone, PartialEq, Debug)]
pub struct HeadPlan {
    /// The head predicate's interned id.
    pub pred: PredId,
    /// The head arguments (never [`SlotTerm::Wildcard`]; an aggregate
    /// argument is the slot of its aggregated variable).
    pub args: Vec<SlotTerm>,
    /// The head's aggregate, if any: function, argument column, and the slot
    /// of the aggregated variable.
    pub aggregate: Option<(AggFunc, usize, usize)>,
    /// Index of the argument carrying the head's `@` location specifier.
    pub location: Option<usize>,
    /// The SeNDlog export annotation (`head(...)@Z`), if present.
    pub export_to: Option<SlotTerm>,
}

/// One compiled rule: its head and its per-delta execution plans.
#[derive(Clone, PartialEq, Debug)]
pub struct RulePlan {
    /// The rule's label (`r1`, `sp2`, ...), for traces and provenance.
    pub label: String,
    /// How the head tuple is built and routed.
    pub head: HeadPlan,
    /// Number of dense variable slots the rule uses.
    pub slot_count: usize,
    /// Slot of the SeNDlog context variable, if the rule has one.
    pub context_slot: Option<usize>,
    /// One delta plan per body atom.
    pub deltas: Vec<DeltaPlan>,
}

/// A body atom compiled once per rule and shared by every delta plan.
struct BodyAtom<'a> {
    predicate: &'a str,
    args: Vec<SlotTerm>,
    says: Option<SlotTerm>,
    location: Option<usize>,
    /// Slots the atom binds (its variable arguments and `says` principal).
    vars: Vec<usize>,
}

/// A filter or assignment compiled once per rule, with the slots it reads.
struct BodyStep<'a> {
    literal: &'a BodyLiteral,
    inputs: Vec<usize>,
    step: PlanStep,
}

impl RulePlan {
    /// Compiles one localized rule, interning every predicate it mentions
    /// into `symbols`.
    pub fn for_rule_in(rule: &Rule, symbols: &mut Symbols) -> Result<RulePlan, PlanError> {
        let fail = |message: String| PlanError::Plan {
            rule: rule.label.clone(),
            message,
        };
        // Slot assignment and expression compilation: one walk over the
        // rule in source order, so slot ids are stable across compilations.
        let mut slots = Slots::default();
        let context_slot = match &rule.context {
            Some(Term::Variable(v)) => Some(slots.slot(v)),
            _ => None,
        };
        let mut atoms: Vec<BodyAtom> = Vec::new();
        let mut others: Vec<BodyStep> = Vec::new();
        for literal in &rule.body {
            let mut inputs = Vec::new();
            let step = match literal {
                BodyLiteral::Atom(atom) => {
                    let says = atom.says.as_ref().map(|t| SlotTerm::compile(t, &mut slots));
                    let args: Vec<SlotTerm> = atom
                        .args
                        .iter()
                        .map(|t| SlotTerm::compile(t, &mut slots))
                        .collect();
                    let vars = says.iter().chain(&args).filter_map(|t| match t {
                        SlotTerm::Slot(s) => Some(*s),
                        _ => None,
                    });
                    atoms.push(BodyAtom {
                        predicate: &atom.predicate,
                        vars: vars.collect(),
                        args,
                        says,
                        location: atom.location,
                    });
                    continue;
                }
                BodyLiteral::Filter(expr) => PlanStep::Filter(
                    SlotExpr::compile(expr, &mut slots, &mut inputs).map_err(fail)?,
                ),
                BodyLiteral::Assign { var, expr } => PlanStep::Assign {
                    expr: SlotExpr::compile(expr, &mut slots, &mut inputs).map_err(fail)?,
                    slot: slots.slot(var),
                },
            };
            others.push(BodyStep {
                literal,
                inputs,
                step,
            });
        }
        if atoms.is_empty() {
            return Err(fail("rule body contains no atoms".into()));
        }
        let head_args: Vec<SlotTerm> = rule
            .head
            .args
            .iter()
            .map(|t| SlotTerm::compile(t, &mut slots))
            .collect();
        let export_to = rule.head.export_to.as_ref();
        let export_to = export_to.map(|t| SlotTerm::compile(t, &mut slots));
        let mut columns = rule.head.args.iter().zip(&head_args).enumerate();
        let aggregate = columns.find_map(|(column, arg)| match arg {
            (Term::Aggregate(func, _), SlotTerm::Slot(slot)) => Some((*func, column, *slot)),
            _ => None,
        });
        let slot_count = slots.0.len();

        let mut deltas = Vec::with_capacity(atoms.len());
        let mut bound = Vec::new();
        for (delta_index, delta) in atoms.iter().enumerate() {
            bound = vec![false; slot_count];
            for &slot in delta.vars.iter().chain(&context_slot) {
                bound[slot] = true;
            }
            let mut pending_atoms: Vec<&BodyAtom> = atoms.iter().collect();
            pending_atoms.remove(delta_index);
            let mut pending_other: Vec<&BodyStep> = others.iter().collect();
            let mut steps = Vec::new();
            let mut index_specs = Vec::new();

            while !pending_atoms.is_empty() || !pending_other.is_empty() {
                // 1. Emit any filter / assignment whose inputs are all bound.
                let ready = |o: &&BodyStep| o.inputs.iter().all(|&slot| bound[slot]);
                if let Some(pos) = pending_other.iter().position(ready) {
                    let step = pending_other.remove(pos).step.clone();
                    if let PlanStep::Assign { slot, .. } = step {
                        bound[slot] = true;
                    }
                    steps.push(step);
                    continue;
                }
                // 2. Otherwise join the next atom, preferring one that shares
                //    variables with the bound set (avoiding cross products
                //    whenever the rule graph is connected).
                if pending_atoms.is_empty() {
                    // Only filters/assignments left but none is ready: their
                    // variables can never become bound.
                    let literal = pending_other[0].literal;
                    return Err(fail(format!(
                        "`{literal}` references variables never bound by the body"
                    )));
                }
                let shares_bound = |a: &&BodyAtom| a.vars.iter().any(|&slot| bound[slot]);
                let pos = pending_atoms.iter().position(shares_bound).unwrap_or(0);
                let atom = pending_atoms.remove(pos);

                // Join-key inference: argument positions whose value is fully
                // determined before the join runs — constants, and variables
                // already in the bound set.  (A variable repeated *within*
                // the atom only counts once it is bound by an earlier step.)
                let key_columns: Vec<usize> = (0..atom.args.len())
                    .filter(|&i| match &atom.args[i] {
                        SlotTerm::Const(_) => true,
                        SlotTerm::Slot(slot) => bound[*slot],
                        SlotTerm::Wildcard => false,
                    })
                    .collect();
                for &slot in &atom.vars {
                    bound[slot] = true;
                }
                let pred = symbols.intern(atom.predicate);
                if !key_columns.is_empty() {
                    index_specs.push(IndexSpec {
                        predicate: atom.predicate.to_string(),
                        key_columns: key_columns.clone(),
                        pred,
                    });
                }
                steps.push(PlanStep::Join(JoinStep {
                    pred,
                    args: atom.args.clone(),
                    says: atom.says.clone(),
                    location: atom.location,
                    key_columns,
                }));
            }

            deltas.push(DeltaPlan {
                delta_pred: symbols.intern(delta.predicate),
                delta_args: delta.args.clone(),
                delta_says: delta.says.clone(),
                location: delta.location,
                steps,
                index_specs,
            });
        }

        // Every delta plan ends with the same slots bound — all atoms, all
        // assignments, the context — and the head may read only those.
        let head_terms = rule.head.args.iter().chain(&rule.head.export_to);
        for (term, compiled) in head_terms.zip(head_args.iter().chain(&export_to)) {
            match compiled {
                SlotTerm::Const(_) => {}
                SlotTerm::Slot(slot) if bound[*slot] => {}
                SlotTerm::Slot(_) => {
                    return Err(fail(format!(
                        "head term `{term}` reads a variable never bound by the body"
                    )))
                }
                SlotTerm::Wildcard => {
                    return Err(fail("wildcard `_` is not allowed in a rule head".into()))
                }
            }
        }
        Ok(RulePlan {
            label: rule.label.clone(),
            head: HeadPlan {
                pred: symbols.intern(&rule.head.predicate),
                args: head_args,
                aggregate,
                location: rule.head.location,
                export_to,
            },
            slot_count,
            context_slot,
            deltas,
        })
    }
}

/// A fully prepared program: validated, localized, and planned.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// The localized program (rules are single-site).
    pub program: Program,
    /// One plan per localized rule, in rule order.
    pub plans: Vec<RulePlan>,
    /// Interned predicate names shared by every plan; the evaluator seeds
    /// its runtime interner (and every node store) from this table so all
    /// layers agree on the same dense [`PredId`] space.
    pub symbols: Symbols,
    /// Arity of every interned predicate, indexed by [`PredId`] (`None` for
    /// predicates the program never constrains).
    pub arity_by_pred: Vec<Option<usize>>,
    /// The `@` column every interned predicate is declared with, indexed by
    /// [`PredId`]: `None` for predicates the program never mentions,
    /// `Some(None)` for the atoms of a SeNDlog context block.
    pub location_by_pred: Vec<Option<Option<usize>>>,
}

impl CompiledProgram {
    /// The deduplicated secondary-index specs required by every join of every
    /// plan, in deterministic order.  The store layer builds one index per
    /// spec and maintains it incrementally.
    pub fn index_specs(&self) -> Vec<IndexSpec> {
        let mut specs: BTreeSet<IndexSpec> = BTreeSet::new();
        for plan in &self.plans {
            for delta in &plan.deltas {
                specs.extend(delta.index_specs.iter().cloned());
            }
        }
        specs.into_iter().collect()
    }

    /// Declared arity of an interned predicate (the hot-path arity check).
    pub fn arity_of_pred(&self, pred: PredId) -> Option<usize> {
        self.arity_by_pred.get(pred.index()).copied().flatten()
    }

    /// Which interned predicates some rule reads through a `says` term,
    /// indexed by [`PredId`]: the rows whose recorded speaker a body atom can
    /// observe.  All false for an NDlog program.
    pub fn said_preds(&self) -> Vec<bool> {
        let mut said = vec![false; self.symbols.len()];
        for delta in self.plans.iter().flat_map(|plan| &plan.deltas) {
            said[delta.delta_pred.index()] |= delta.delta_says.is_some();
            for step in &delta.steps {
                if let PlanStep::Join(join) = step {
                    said[join.pred.index()] |= join.says.is_some();
                }
            }
        }
        said
    }

    /// The `@` column the program declares for an interned predicate (see
    /// `location_by_pred`).  A base tuple's rendered identity follows the
    /// declaration, so it is the one the rules name their antecedent by.
    pub fn location_of_pred(&self, pred: PredId) -> Option<Option<usize>> {
        self.location_by_pred.get(pred.index()).copied().flatten()
    }
}

/// Validates, localizes, and plans an NDlog / SeNDlog program.
pub fn compile_program(program: &Program) -> Result<CompiledProgram, PlanError> {
    validate_program(program).map_err(PlanError::Validation)?;
    let localized = localize_program(program)?;
    // The localized program must itself still be valid.
    validate_program(&localized).map_err(PlanError::Validation)?;
    let mut symbols = Symbols::new();
    let mut plans = Vec::with_capacity(localized.rules.len());
    for rule in &localized.rules {
        plans.push(RulePlan::for_rule_in(rule, &mut symbols)?);
    }
    let rule_atoms = localized
        .rules
        .iter()
        .flat_map(|rule| std::iter::once(&rule.head).chain(rule.body_atoms()));
    let (mut arity_by_pred, mut location_by_pred) = (Vec::new(), Vec::new());
    for atom in rule_atoms.chain(localized.facts.iter().map(|fact| &fact.atom)) {
        let pred = symbols.intern(&atom.predicate);
        if arity_by_pred.len() <= pred.index() {
            arity_by_pred.resize(pred.index() + 1, None);
            location_by_pred.resize(pred.index() + 1, None);
        }
        arity_by_pred[pred.index()] = Some(atom.args.len());
        location_by_pred[pred.index()] = Some(atom.location);
    }
    Ok(CompiledProgram {
        program: localized,
        plans,
        symbols,
        arity_by_pred,
        location_by_pred,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Atom;
    use crate::parser::parse_program;

    /// True if any rule or body atom uses SeNDlog constructs (`says`,
    /// context blocks, export annotations).
    fn uses_sendlog(program: &Program) -> bool {
        program.rules.iter().any(|r| {
            r.context.is_some()
                || r.head.export_to.is_some()
                || r.body_atoms().any(|a| a.says.is_some())
        })
    }

    const BEST_PATH: &str = "
        sp1 path(@S,D,P,C) :- link(@S,D,C), P := f_init(S,D).
        sp2 path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2), C := C1 + C2, P := f_concat(S,P2).
        sp3 bestPathCost(@S,D,a_MIN<C>) :- path(@S,D,P,C).
        sp4 bestPath(@S,D,P,C) :- bestPathCost(@S,D,C), path(@S,D,P,C).
    ";

    fn compile(source: &str) -> Result<CompiledProgram, PlanError> {
        compile_program(&parse_program(source).unwrap())
    }

    fn arity_of(compiled: &CompiledProgram, predicate: &str) -> Option<usize> {
        compiled.arity_of_pred(compiled.symbols.resolve(predicate)?)
    }

    #[test]
    fn compiles_the_reachability_program() {
        let compiled = compile(
            "r1 reachable(@S,D) :- link(@S,D).\n r2 reachable(@S,D) :- link(@S,Z), reachable(@Z,D).",
        )
        .unwrap();
        // r1 + (r2 localized into 2 rules) = 3 rules.
        assert_eq!(compiled.plans.len(), 3);
        // Every body atom of every rule has a delta plan.
        for (plan, rule) in compiled.plans.iter().zip(&compiled.program.rules) {
            assert_eq!(plan.label, rule.label);
            assert_eq!(plan.deltas.len(), rule.body_atoms().count());
        }
        // New link tuples trigger r1 and the forwarding rule.
        let triggered_by = |predicate: &str| {
            let pred = compiled.symbols.resolve(predicate).unwrap();
            let deltas = compiled.plans.iter().flat_map(|plan| &plan.deltas);
            deltas.filter(|delta| delta.delta_pred == pred).count()
        };
        assert_eq!(triggered_by("link"), 2);
        // New link_at_z tuples trigger the localized join.
        assert_eq!(triggered_by("link_at_z"), 1);
        // Arities are recorded for every predicate of the localized program.
        assert_eq!(arity_of(&compiled, "link"), Some(2));
        assert_eq!(arity_of(&compiled, "reachable"), Some(2));
        assert_eq!(arity_of(&compiled, "link_at_z"), Some(2));
        assert_eq!(arity_of(&compiled, "nonexistent"), None);
    }

    #[test]
    fn delta_plans_order_assignments_after_their_inputs() {
        let compiled = compile(BEST_PATH).unwrap();
        // The localized sp2 join rule (its body joins link_at_z with path).
        let sp2_plan = compiled.plans.iter().find(|p| p.label == "sp2").unwrap();
        for delta in &sp2_plan.deltas {
            let mut seen_join = delta.steps.is_empty();
            let mut c_assigned = false;
            for step in &delta.steps {
                match step {
                    PlanStep::Join(_) => seen_join = true,
                    PlanStep::Assign {
                        expr: SlotExpr::BinOp(BinOp::Add, ..),
                        ..
                    } => {
                        // C := C1 + C2 needs both link (C1) and path (C2)
                        // tuples, so it must come after the remaining join.
                        assert!(seen_join, "assignment of C before join in {delta:?}");
                        c_assigned = true;
                    }
                    _ => {}
                }
            }
            assert!(c_assigned, "C is always assigned");
        }
    }

    #[test]
    fn aggregation_rule_plans_single_delta() {
        let compiled = compile(BEST_PATH).unwrap();
        let sp3 = compiled.plans.iter().find(|p| p.label == "sp3").unwrap();
        assert_eq!(sp3.deltas.len(), 1);
        assert!(sp3.deltas[0].steps.is_empty());
        // a_MIN<C> sits in head column 2 and reads the slot `path`'s fourth
        // argument binds.
        let (func, column, slot) = sp3.head.aggregate.expect("sp3 aggregates");
        assert_eq!((func, column), (AggFunc::Min, 2));
        assert_eq!(sp3.head.args[2], SlotTerm::Slot(slot));
        assert_eq!(sp3.deltas[0].delta_args[3], SlotTerm::Slot(slot));
        assert_eq!(sp3.head.location, Some(0));
    }

    #[test]
    fn sendlog_program_compiles_without_localization() {
        let compiled = compile(
            "At S:\n s1 reachable(S,D) :- link(S,D).\n s2 linkD(D,S)@D :- link(S,D).\n s3 reachable(Z,Y)@Z :- Z says linkD(S,Z), W says reachable(S,Y).",
        )
        .unwrap();
        assert_eq!(compiled.plans.len(), 3);
        assert!(uses_sendlog(&compiled.program));
        // s2 exports to the slot its second body argument binds.
        let s2 = &compiled.plans[1];
        assert_eq!(s2.head.export_to, Some(s2.deltas[0].delta_args[1].clone()));
    }

    #[test]
    fn invalid_program_is_rejected_with_all_errors() {
        match compile("r1 p(@S,D) :- q(@S).\n r2 x(@S) :- y(@S), Z > 1.") {
            Err(PlanError::Validation(errs)) => assert!(errs.len() >= 2),
            other => panic!("expected validation failure, got {other:?}"),
        }
    }

    #[test]
    fn headless_body_is_rejected() {
        // A rule whose body is only a filter cannot be planned.
        let rule = Rule {
            label: "weird".into(),
            context: None,
            head: Atom::new("p", vec![Term::constant(1i64)]).at(0),
            body: vec![BodyLiteral::Filter(Expr::constant(true))],
        };
        let err = RulePlan::for_rule_in(&rule, &mut Symbols::new()).unwrap_err();
        assert!(err.to_string().contains("no atoms"));
    }

    // ---- plan-time rejection ----------------------------------------------

    #[test]
    fn unknown_builtins_and_wrong_arities_are_plan_errors() {
        let cases = [
            (
                "bad p(@S,X) :- q(@S,Y), X := f_frobnicate(Y).",
                "f_frobnicate",
            ),
            (
                "bad p(@S,X) :- q(@S,Y), X := f_init(Y).",
                "expects 2 arguments, got 1",
            ),
            (
                "bad p(@S) :- q(@S,Y), f_member(Y).",
                "expects 2 arguments, got 1",
            ),
            (
                "bad p(@S) :- q(@S,Y), f_size(Y, Y) > 1.",
                "expects 1 arguments, got 2",
            ),
        ];
        for (source, needle) in cases {
            match compile(source) {
                Err(PlanError::Plan { rule, message }) => {
                    assert_eq!(rule, "bad", "{source}");
                    assert!(message.contains(needle), "{source}: {message}");
                }
                other => panic!("{source}: expected a plan error, got {other:?}"),
            }
        }
    }

    #[test]
    fn never_bound_variables_are_rejected_naming_the_rule() {
        // Through `compile_program` validation reports them first ...
        for source in [
            "bad best(@S,a_MIN<C>) :- path(@S,D).",
            "At S:\n bad p(S,D)@Z :- q(S,D).",
        ] {
            let err = compile(source).unwrap_err();
            assert!(err.to_string().contains("rule bad"), "{source}: {err}");
        }
        // ... and the planner itself refuses them, so no plan can ever read
        // an empty slot at run time.
        for source in [
            "bad best(@S,a_MIN<C>) :- path(@S,D).",
            "bad p(S,D)@Z :- q(S,D).",
            "bad p(@S,X) :- q(@S), X := Y + 1.",
        ] {
            let rule = crate::parser::parse_rule(source).unwrap();
            match RulePlan::for_rule_in(&rule, &mut Symbols::new()) {
                Err(PlanError::Plan { rule, message }) => {
                    assert_eq!(rule, "bad");
                    assert!(message.contains("never bound"), "{source}: {message}");
                }
                other => panic!("{source}: expected a plan error, got {other:?}"),
            }
        }
    }

    #[test]
    fn builtins_round_trip_through_their_names() {
        for builtin in Builtin::ALL {
            assert!(builtin.name().starts_with("f_"));
            assert_eq!(Builtin::from_name(builtin.name()), Some(builtin));
        }
        assert_eq!(Builtin::from_name("f_frobnicate"), None);
        assert_eq!(Builtin::List.arity(), None);
    }

    // ---- slot assignment --------------------------------------------------

    #[test]
    fn every_rule_variable_gets_a_dense_slot() {
        let compiled = compile(BEST_PATH).unwrap();
        for plan in &compiled.plans {
            // The slots bound across a delta plan are exactly 0..slot_count.
            for delta in &plan.deltas {
                let mut bound = BTreeSet::new();
                let mut bind = |terms: &[SlotTerm]| {
                    bound.extend(terms.iter().filter_map(|t| match t {
                        SlotTerm::Slot(s) => Some(*s),
                        _ => None,
                    }))
                };
                bind(&delta.delta_args);
                for step in &delta.steps {
                    match step {
                        PlanStep::Join(join) => bind(&join.args),
                        PlanStep::Assign { slot, .. } => bind(&[SlotTerm::Slot(*slot)]),
                        PlanStep::Filter(_) => {}
                    }
                }
                let dense: BTreeSet<usize> = (0..plan.slot_count).collect();
                assert_eq!(bound, dense, "rule {}", plan.label);
            }
            assert!(plan
                .head
                .args
                .iter()
                .all(|t| matches!(t, SlotTerm::Slot(_))));
        }
    }

    #[test]
    fn context_variable_is_slotted() {
        let compiled = compile("At S:\n s1 reachable(S,D) :- link(S,D).").unwrap();
        let plan = &compiled.plans[0];
        let context = plan.context_slot.expect("context variable has a slot");
        assert_eq!(plan.deltas[0].delta_args[0], SlotTerm::Slot(context));
        assert_eq!(plan.head.args[0], SlotTerm::Slot(context));
    }

    // ---- join-key inference -----------------------------------------------

    /// Collects the (predicate, key_columns) of every join of every delta
    /// plan of the rule labelled `label`.
    fn join_keys(compiled: &CompiledProgram, label: &str) -> Vec<(String, Vec<usize>)> {
        compiled
            .plans
            .iter()
            .filter(|p| p.label == label)
            .flat_map(|p| p.deltas.iter())
            .flat_map(|d| d.steps.iter())
            .filter_map(|s| match s {
                PlanStep::Join(j) => {
                    let name = compiled.symbols.name(j.pred).unwrap();
                    Some((name.to_string(), j.key_columns.clone()))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn join_key_inference_table() {
        struct Case {
            name: &'static str,
            program: &'static str,
            rule: &'static str,
            expected: &'static [(&'static str, &'static [usize])],
        }
        let cases = [
            // The delta atom binds S and Z; the joined atom reuses Z in
            // position 0 (a bound prefix) while D is fresh.
            Case {
                name: "bound prefix",
                program: "r reachable(@S,D) :- link(@S,Z), reachable(@Z,D).",
                rule: "r",
                expected: &[("reachable", &[0]), ("link_at_z", &[1])],
            },
            // No shared value variables (SeNDlog context, so no location
            // columns): the join has no bound columns and must fall back to
            // a full scan (a cross product).
            Case {
                name: "unbound join falls back to scan",
                program: "At S:\n x p(X,Y) :- q(X), r(Y).",
                rule: "x",
                expected: &[("q", &[]), ("r", &[])],
            },
            // A constant argument is always part of the key.
            Case {
                name: "constant argument",
                program: "c alarm(@S,D) :- status(@S,D,5), link(@S,D).",
                rule: "c",
                expected: &[("link", &[0, 1]), ("status", &[0, 1, 2])],
            },
        ];
        for case in cases {
            let compiled = compile(case.program).unwrap();
            let mut got = join_keys(&compiled, case.rule);
            got.sort();
            let mut expected: Vec<(String, Vec<usize>)> = case
                .expected
                .iter()
                .map(|(p, cols)| (p.to_string(), cols.to_vec()))
                .collect();
            expected.sort();
            assert_eq!(got, expected, "case `{}`", case.name);
        }
    }

    #[test]
    fn says_qualified_atoms_still_infer_value_keys() {
        // s3 joins `W says reachable(S,Y)` after `Z says linkD(S,Z)`; the
        // delta on linkD binds S, so the reachable join keys on position 0.
        // The `says` principal is checked against the tuple origin and never
        // becomes a key column.
        let compiled =
            compile("At S:\n s3 reachable(Z,Y)@Z :- Z says linkD(S,Z), W says reachable(S,Y).")
                .unwrap();
        let keys = join_keys(&compiled, "s3");
        assert!(
            keys.contains(&("reachable".to_string(), vec![0])),
            "{keys:?}"
        );
        // Both joins carry a compiled `says` slot term.
        for plan in &compiled.plans {
            for delta in &plan.deltas {
                for step in &delta.steps {
                    if let PlanStep::Join(j) = step {
                        assert!(j.says.is_some(), "says-qualified join keeps its principal");
                        assert_eq!(Some(j.args.len()), compiled.arity_of_pred(j.pred));
                    }
                }
            }
        }
    }

    #[test]
    fn index_specs_are_deduplicated_and_deterministic() {
        let compiled = compile(BEST_PATH).unwrap();
        let specs = compiled.index_specs();
        // Deduplicated...
        let as_set: BTreeSet<&IndexSpec> = specs.iter().collect();
        assert_eq!(as_set.len(), specs.len());
        // ...sorted...
        let mut sorted = specs.clone();
        sorted.sort();
        assert_eq!(specs, sorted);
        // ...and present for the bound joins of sp4 (bestPathCost ⋈ path).
        assert!(specs.iter().any(|s| s.predicate == "path"), "{specs:?}");
        // Every spec's columns are within the predicate's arity.
        for spec in &specs {
            assert_eq!(compiled.symbols.name(spec.pred), Some(&*spec.predicate));
            let arity = compiled.arity_of_pred(spec.pred).unwrap();
            assert!(spec.key_columns.iter().all(|c| *c < arity));
            assert!(!spec.key_columns.is_empty());
        }
    }

    #[test]
    fn wildcards_never_join_the_key() {
        let compiled = compile("w p(@S) :- q(@S,_), r(@S,_,3).").unwrap();
        for (pred, cols) in join_keys(&compiled, "w") {
            match pred.as_str() {
                // r(@S,_,3): S bound, wildcard skipped, constant 3 included.
                "r" => assert_eq!(cols, vec![0, 2]),
                // q(@S,_): only the location variable is bound.
                "q" => assert_eq!(cols, vec![0]),
                other => panic!("unexpected join {other}"),
            }
        }
    }
}
