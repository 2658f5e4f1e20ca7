//! Rule planning for semi-naive, pipelined evaluation.
//!
//! The P2 system compiles each rule into a dataflow of relational operators;
//! this reproduction keeps an interpreted engine, but still pre-computes for
//! every rule the *delta plans* that semi-naive evaluation needs: one plan
//! per body atom, describing how to extend a newly arrived tuple of that
//! atom's predicate with joins against the other body atoms, interleaved with
//! filters and assignments as soon as their inputs are bound.
//!
//! Two pieces of static analysis make the runtime's joins cheap:
//!
//! * **Slot assignment** — every variable of a rule gets a dense slot id in
//!   the rule's [`VarSlots`] table, and every atom argument is compiled to a
//!   [`SlotTerm`], so the evaluator can keep bindings in a flat
//!   `Vec<Option<Value>>` instead of a string-keyed map.
//! * **Join-key inference** — for each [`JoinStep`] the planner records which
//!   argument positions are already bound when the join runs (constants, or
//!   variables bound by the delta atom / earlier steps).  Those positions
//!   become the `key_columns` of an [`IndexSpec`], which the store layer uses
//!   to maintain a secondary hash index: the join then probes the index with
//!   the rendered key instead of scanning the whole relation.

use crate::ast::{Atom, BodyLiteral, Expr, Program, Rule, Term};
use crate::localize::{localize_program, LocalizeError};
use crate::symbols::{PredId, Symbols};
use crate::validate::{validate_program, ValidationError};
use crate::value::Value;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// Errors produced while preparing a program for execution.
#[derive(Clone, Debug)]
pub enum PlanError {
    /// The program failed static validation.
    Validation(Vec<ValidationError>),
    /// A rule could not be localized.
    Localize(LocalizeError),
    /// A rule could not be planned (e.g. a cross-product with no shared
    /// variables is required but disallowed).
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

/// Dense slot assignment for the variables of one rule.
///
/// Extends the var-table idea of the provenance layer to rule evaluation:
/// every variable that occurs anywhere in a rule (context, head, body atoms,
/// `says` / export annotations, assignments, filters) is assigned a dense
/// `usize` slot at plan time, in deterministic first-occurrence order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VarSlots {
    names: Vec<String>,
    index: HashMap<String, usize>,
}

impl VarSlots {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the slot of `name`, allocating a fresh one on first sight.
    pub fn get_or_insert(&mut self, name: &str) -> usize {
        if let Some(&slot) = self.index.get(name) {
            return slot;
        }
        let slot = self.names.len();
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), slot);
        slot
    }

    /// The slot of `name`, if assigned.
    pub fn slot(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// The variable name occupying `slot`.
    pub fn name(&self, slot: usize) -> Option<&str> {
        self.names.get(slot).map(String::as_str)
    }

    /// Number of assigned slots.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no variable has been assigned a slot.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// An atom argument compiled against a rule's [`VarSlots`].
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
    fn compile(term: &Term, slots: &mut VarSlots) -> SlotTerm {
        match term {
            Term::Constant(c) => SlotTerm::Const(c.clone()),
            Term::Variable(v) | Term::Aggregate(_, v) => SlotTerm::Slot(slots.get_or_insert(v)),
            Term::Wildcard => SlotTerm::Wildcard,
        }
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
    /// The joined atom as written in the rule (kept for provenance keys and
    /// diagnostics).
    pub atom: Atom,
    /// The joined predicate's interned id — the evaluator dispatches and
    /// probes by this `u32` instead of comparing predicate strings.
    pub pred: PredId,
    /// The atom's arguments compiled to slot terms.
    pub args: Vec<SlotTerm>,
    /// The `says` annotation compiled to a slot term, if present.
    pub says: Option<SlotTerm>,
    /// Argument positions guaranteed to be bound when this join runs
    /// (constants and previously bound variables).  Empty means the join
    /// must fall back to a full scan.
    pub key_columns: Vec<usize>,
}

impl JoinStep {
    /// The index spec this join probes, if it has any bound key columns.
    pub fn index_spec(&self) -> Option<IndexSpec> {
        if self.key_columns.is_empty() {
            None
        } else {
            Some(IndexSpec {
                predicate: self.atom.predicate.clone(),
                key_columns: self.key_columns.clone(),
                pred: self.pred,
            })
        }
    }
}

/// One step of a delta plan.
#[derive(Clone, PartialEq, Debug)]
pub enum PlanStep {
    /// Join against the stored tuples of the step's predicate, probing a
    /// secondary index when key columns are bound.
    Join(JoinStep),
    /// Evaluate a filter over the bound variables and drop non-matching
    /// bindings.
    Filter(Expr),
    /// Bind a new variable from an expression over bound variables.
    Assign {
        /// The variable being bound.
        var: String,
        /// The variable's dense slot.
        slot: usize,
        /// The defining expression.
        expr: Expr,
    },
}

impl fmt::Display for PlanStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanStep::Join(j) => {
                write!(f, "join {}", j.atom)?;
                if !j.key_columns.is_empty() {
                    let cols: Vec<String> = j.key_columns.iter().map(|c| c.to_string()).collect();
                    write!(f, " via index({})", cols.join(","))?;
                }
                Ok(())
            }
            PlanStep::Filter(e) => write!(f, "filter {e}"),
            PlanStep::Assign { var, expr, .. } => write!(f, "assign {var} := {expr}"),
        }
    }
}

/// The plan triggered when a new tuple of `delta.predicate` arrives.
#[derive(Clone, PartialEq, Debug)]
pub struct DeltaPlan {
    /// Index of the delta atom within the rule body (among atoms only).
    pub delta_index: usize,
    /// The atom whose new tuples trigger this plan.
    pub delta: Atom,
    /// The delta predicate's interned id (plan dispatch compares this).
    pub delta_pred: PredId,
    /// The delta atom's arguments compiled to slot terms.
    pub delta_args: Vec<SlotTerm>,
    /// The delta atom's `says` annotation compiled to a slot term.
    pub delta_says: Option<SlotTerm>,
    /// Remaining work, in execution order.
    pub steps: Vec<PlanStep>,
    /// Secondary indexes this plan's joins probe (one per indexed join).
    pub index_specs: Vec<IndexSpec>,
}

/// A rule together with its per-delta execution plans.
#[derive(Clone, PartialEq, Debug)]
pub struct RulePlan {
    /// The (localized) rule this plan executes.
    pub rule: Rule,
    /// The head predicate's interned id.
    pub head_pred: PredId,
    /// Dense slot assignment for every variable of the rule.
    pub slots: Arc<VarSlots>,
    /// Slot of the SeNDlog context variable, if the rule has one.
    pub context_slot: Option<usize>,
    /// One delta plan per body atom.
    pub deltas: Vec<DeltaPlan>,
}

impl RulePlan {
    /// Plans the delta evaluations for one rule using a scratch predicate
    /// interner (tests and ad-hoc planning; [`compile_program`] uses
    /// [`RulePlan::for_rule_in`] so every plan shares one table).
    pub fn for_rule(rule: &Rule) -> Result<RulePlan, PlanError> {
        Self::for_rule_in(rule, &mut Symbols::new())
    }

    /// Plans the delta evaluations for one localized rule, interning every
    /// predicate it mentions into `symbols`.
    pub fn for_rule_in(rule: &Rule, symbols: &mut Symbols) -> Result<RulePlan, PlanError> {
        // Slot assignment: walk the rule in deterministic source order so
        // slot ids are stable across compilations.
        let mut slots = VarSlots::new();
        let context_slot = match &rule.context {
            Some(Term::Variable(v)) => Some(slots.get_or_insert(v)),
            _ => None,
        };
        for term in rule
            .head
            .args
            .iter()
            .chain(rule.head.export_to.iter())
            .chain(rule.head.says.iter())
        {
            SlotTerm::compile(term, &mut slots);
        }
        for lit in &rule.body {
            match lit {
                BodyLiteral::Atom(atom) => {
                    for term in atom.says.iter().chain(atom.args.iter()) {
                        SlotTerm::compile(term, &mut slots);
                    }
                }
                BodyLiteral::Assign { var, expr } => {
                    let mut used = BTreeSet::new();
                    expr.variables(&mut used);
                    for v in used {
                        slots.get_or_insert(&v);
                    }
                    slots.get_or_insert(var);
                }
                BodyLiteral::Filter(expr) => {
                    let mut used = BTreeSet::new();
                    expr.variables(&mut used);
                    for v in used {
                        slots.get_or_insert(&v);
                    }
                }
            }
        }

        let atoms: Vec<(usize, Atom)> = rule
            .body
            .iter()
            .filter_map(|l| match l {
                BodyLiteral::Atom(a) => Some(a.clone()),
                _ => None,
            })
            .enumerate()
            .collect();
        if atoms.is_empty() {
            return Err(PlanError::Plan {
                rule: rule.label.clone(),
                message: "rule body contains no atoms".into(),
            });
        }
        let non_atoms: Vec<BodyLiteral> = rule
            .body
            .iter()
            .filter(|l| !matches!(l, BodyLiteral::Atom(_)))
            .cloned()
            .collect();

        let mut deltas = Vec::with_capacity(atoms.len());
        for (delta_index, delta_atom) in &atoms {
            let mut bound: BTreeSet<String> = delta_atom.variables();
            if let Some(Term::Variable(v)) = &rule.context {
                bound.insert(v.clone());
            }
            let mut remaining_atoms: Vec<Atom> = atoms
                .iter()
                .filter(|(i, _)| i != delta_index)
                .map(|(_, a)| a.clone())
                .collect();
            let mut remaining_other = non_atoms.clone();
            let mut steps = Vec::new();
            let mut index_specs = Vec::new();

            while !remaining_atoms.is_empty() || !remaining_other.is_empty() {
                // 1. Emit any filter / assignment whose inputs are all bound.
                if let Some(pos) = remaining_other.iter().position(|lit| {
                    let mut used = BTreeSet::new();
                    match lit {
                        BodyLiteral::Filter(e) => e.variables(&mut used),
                        BodyLiteral::Assign { expr, .. } => expr.variables(&mut used),
                        BodyLiteral::Atom(_) => unreachable!(),
                    }
                    used.iter().all(|v| bound.contains(v))
                }) {
                    let lit = remaining_other.remove(pos);
                    match lit {
                        BodyLiteral::Filter(e) => steps.push(PlanStep::Filter(e)),
                        BodyLiteral::Assign { var, expr } => {
                            bound.insert(var.clone());
                            let slot = slots.get_or_insert(&var);
                            steps.push(PlanStep::Assign { var, slot, expr });
                        }
                        BodyLiteral::Atom(_) => unreachable!(),
                    }
                    continue;
                }
                // 2. Otherwise join the next atom, preferring one that shares
                //    variables with the bound set (avoiding cross products
                //    whenever the rule graph is connected).
                if remaining_atoms.is_empty() {
                    // Only filters/assignments left but none is ready: their
                    // variables can never become bound.
                    let lit = &remaining_other[0];
                    return Err(PlanError::Plan {
                        rule: rule.label.clone(),
                        message: format!("`{lit}` references variables never bound by the body"),
                    });
                }
                let pos = remaining_atoms
                    .iter()
                    .position(|a| a.variables().iter().any(|v| bound.contains(v)))
                    .unwrap_or(0);
                let atom = remaining_atoms.remove(pos);

                // Join-key inference: argument positions whose value is fully
                // determined before the join runs — constants, and variables
                // already in the bound set.  (A variable repeated *within*
                // the atom only counts once it is bound by an earlier step.)
                let key_columns: Vec<usize> = atom
                    .args
                    .iter()
                    .enumerate()
                    .filter(|(_, term)| match term {
                        Term::Constant(_) => true,
                        Term::Variable(v) => bound.contains(v),
                        Term::Wildcard | Term::Aggregate(..) => false,
                    })
                    .map(|(i, _)| i)
                    .collect();
                let args: Vec<SlotTerm> = atom
                    .args
                    .iter()
                    .map(|t| SlotTerm::compile(t, &mut slots))
                    .collect();
                let says = atom.says.as_ref().map(|t| SlotTerm::compile(t, &mut slots));
                bound.extend(atom.variables());
                let join = JoinStep {
                    pred: symbols.intern(&atom.predicate),
                    atom,
                    args,
                    says,
                    key_columns,
                };
                if let Some(spec) = join.index_spec() {
                    index_specs.push(spec);
                }
                steps.push(PlanStep::Join(join));
            }

            let delta_args: Vec<SlotTerm> = delta_atom
                .args
                .iter()
                .map(|t| SlotTerm::compile(t, &mut slots))
                .collect();
            let delta_says = delta_atom
                .says
                .as_ref()
                .map(|t| SlotTerm::compile(t, &mut slots));
            deltas.push(DeltaPlan {
                delta_index: *delta_index,
                delta: delta_atom.clone(),
                delta_pred: symbols.intern(&delta_atom.predicate),
                delta_args,
                delta_says,
                steps,
                index_specs,
            });
        }
        Ok(RulePlan {
            head_pred: symbols.intern(&rule.head.predicate),
            rule: rule.clone(),
            slots: Arc::new(slots),
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
    /// Arity of every predicate mentioned by the localized program.
    pub arities: HashMap<String, usize>,
    /// Interned predicate names shared by every plan; the evaluator seeds
    /// its runtime interner (and every node store) from this table so all
    /// layers agree on the same dense [`PredId`] space.
    pub symbols: Symbols,
    /// Arity of every interned predicate, indexed by [`PredId`] (`None` for
    /// predicates the program never constrains).
    pub arity_by_pred: Vec<Option<usize>>,
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

    /// Declared arity of `predicate`, if the program mentions it.
    pub fn arity_of(&self, predicate: &str) -> Option<usize> {
        self.arities.get(predicate).copied()
    }

    /// Declared arity of an interned predicate (the hot-path arity check).
    pub fn arity_of_pred(&self, pred: PredId) -> Option<usize> {
        self.arity_by_pred.get(pred.index()).copied().flatten()
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
    let mut arities = HashMap::new();
    for rule in &localized.rules {
        for atom in std::iter::once(&rule.head).chain(rule.body_atoms()) {
            symbols.intern(&atom.predicate);
            arities.insert(atom.predicate.clone(), atom.args.len());
        }
    }
    for fact in &localized.facts {
        symbols.intern(&fact.atom.predicate);
        arities.insert(fact.atom.predicate.clone(), fact.atom.args.len());
    }
    let mut arity_by_pred = vec![None; symbols.len()];
    for (pred, name) in symbols.iter() {
        arity_by_pred[pred.index()] = arities.get(name).copied();
    }
    Ok(CompiledProgram {
        program: localized,
        plans,
        arities,
        symbols,
        arity_by_pred,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    const BEST_PATH: &str = "
        sp1 path(@S,D,P,C) :- link(@S,D,C), P := f_init(S,D).
        sp2 path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2), C := C1 + C2, P := f_concat(S,P2).
        sp3 bestPathCost(@S,D,a_MIN<C>) :- path(@S,D,P,C).
        sp4 bestPath(@S,D,P,C) :- bestPathCost(@S,D,C), path(@S,D,P,C).
    ";

    #[test]
    fn compiles_the_reachability_program() {
        let program = parse_program(
            "r1 reachable(@S,D) :- link(@S,D).\n r2 reachable(@S,D) :- link(@S,Z), reachable(@Z,D).",
        )
        .unwrap();
        let compiled = compile_program(&program).unwrap();
        // r1 + (r2 localized into 2 rules) = 3 rules.
        assert_eq!(compiled.plans.len(), 3);
        // Every body atom of every rule has a delta plan.
        for plan in &compiled.plans {
            assert_eq!(plan.deltas.len(), plan.rule.body_atoms().count());
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
        assert_eq!(compiled.arity_of("link"), Some(2));
        assert_eq!(compiled.arity_of("reachable"), Some(2));
        assert_eq!(compiled.arity_of("link_at_z"), Some(2));
        assert_eq!(compiled.arity_of("nonexistent"), None);
    }

    #[test]
    fn delta_plans_order_assignments_after_their_inputs() {
        let program = parse_program(BEST_PATH).unwrap();
        let compiled = compile_program(&program).unwrap();
        // Find the localized sp2 join rule (its body joins link_at_z with path).
        let sp2_plan = compiled
            .plans
            .iter()
            .find(|p| p.rule.label == "sp2")
            .expect("sp2 exists");
        for delta in &sp2_plan.deltas {
            let mut seen_join = delta.steps.is_empty();
            let mut c_assigned = false;
            for step in &delta.steps {
                match step {
                    PlanStep::Join(_) => seen_join = true,
                    PlanStep::Assign { var, .. } if var == "C" => {
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
        let program = parse_program(BEST_PATH).unwrap();
        let compiled = compile_program(&program).unwrap();
        let sp3 = compiled
            .plans
            .iter()
            .find(|p| p.rule.label == "sp3")
            .unwrap();
        assert_eq!(sp3.deltas.len(), 1);
        assert!(sp3.deltas[0].steps.is_empty());
        assert!(sp3.rule.head.has_aggregate());
    }

    #[test]
    fn sendlog_program_compiles_without_localization() {
        let program = parse_program(
            "At S:\n s1 reachable(S,D) :- link(S,D).\n s2 linkD(D,S)@D :- link(S,D).\n s3 reachable(Z,Y)@Z :- Z says linkD(S,Z), W says reachable(S,Y).",
        )
        .unwrap();
        let compiled = compile_program(&program).unwrap();
        assert_eq!(compiled.plans.len(), 3);
        assert!(compiled.program.uses_sendlog());
    }

    #[test]
    fn invalid_program_is_rejected_with_all_errors() {
        let program = parse_program("r1 p(@S,D) :- q(@S).\n r2 x(@S) :- y(@S), Z > 1.").unwrap();
        match compile_program(&program) {
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
        let err = RulePlan::for_rule(&rule).unwrap_err();
        assert!(err.to_string().contains("no atoms"));
    }

    #[test]
    fn plan_display_is_readable() {
        let program = parse_program("r1 reachable(@S,D) :- link(@S,Z), reachable(@Z,D).").unwrap();
        let compiled = compile_program(&program).unwrap();
        let rendered: Vec<String> = compiled.plans[1]
            .deltas
            .iter()
            .flat_map(|d| d.steps.iter().map(|s| s.to_string()))
            .collect();
        assert!(rendered.iter().any(|s| s.starts_with("join ")));
        // The localized transitive-closure joins have bound key columns, so
        // the rendered plan names the index they probe.
        assert!(rendered.iter().any(|s| s.contains("via index(")));
    }

    // ---- slot assignment --------------------------------------------------

    #[test]
    fn every_rule_variable_gets_a_dense_slot() {
        let program = parse_program(BEST_PATH).unwrap();
        let compiled = compile_program(&program).unwrap();
        for plan in &compiled.plans {
            let vars = plan.rule.bound_variables();
            for v in &vars {
                let slot = plan
                    .slots
                    .slot(v)
                    .unwrap_or_else(|| panic!("variable {v} of {} has no slot", plan.rule.label));
                assert_eq!(plan.slots.name(slot), Some(v.as_str()));
            }
            // Slots are dense: ids 0..len, one name each.
            let len = plan.slots.len();
            assert!(!plan.slots.is_empty());
            for s in 0..len {
                assert!(plan.slots.name(s).is_some());
            }
            assert_eq!(plan.slots.name(len), None);
        }
    }

    #[test]
    fn context_variable_is_slotted() {
        let program = parse_program("At S:\n s1 reachable(S,D) :- link(S,D).").unwrap();
        let compiled = compile_program(&program).unwrap();
        let plan = &compiled.plans[0];
        assert_eq!(plan.context_slot, plan.slots.slot("S"));
        assert!(plan.context_slot.is_some());
    }

    // ---- join-key inference -----------------------------------------------

    /// Collects the (predicate, key_columns) of every join of every delta
    /// plan of the rule labelled `label`.
    fn join_keys(compiled: &CompiledProgram, label: &str) -> Vec<(String, Vec<usize>)> {
        compiled
            .plans
            .iter()
            .filter(|p| p.rule.label == label)
            .flat_map(|p| p.deltas.iter())
            .flat_map(|d| d.steps.iter())
            .filter_map(|s| match s {
                PlanStep::Join(j) => Some((j.atom.predicate.clone(), j.key_columns.clone())),
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
            let program = parse_program(case.program).unwrap();
            let compiled = compile_program(&program).unwrap();
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
        let program = parse_program(
            "At S:\n s3 reachable(Z,Y)@Z :- Z says linkD(S,Z), W says reachable(S,Y).",
        )
        .unwrap();
        let compiled = compile_program(&program).unwrap();
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
                        assert_eq!(j.args.len(), j.atom.args.len());
                    }
                }
            }
        }
    }

    #[test]
    fn index_specs_are_deduplicated_and_deterministic() {
        let program = parse_program(BEST_PATH).unwrap();
        let compiled = compile_program(&program).unwrap();
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
            let arity = compiled.arity_of(&spec.predicate).unwrap();
            assert!(spec.key_columns.iter().all(|c| *c < arity));
            assert!(!spec.key_columns.is_empty());
        }
    }

    #[test]
    fn wildcards_never_join_the_key() {
        let program = parse_program("w p(@S) :- q(@S,_), r(@S,_,3).").unwrap();
        let compiled = compile_program(&program).unwrap();
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
