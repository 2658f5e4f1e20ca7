//! Static validation of NDlog / SeNDlog programs.
//!
//! Checks performed before a program is handed to the localizer and planner:
//!
//! * **Safety (range restriction)** — every variable in a rule head must be
//!   bound by a positive body atom or an assignment.
//! * **Location specifiers** — NDlog rules must carry a location specifier on
//!   the head and on every body atom (SeNDlog rules instead execute inside a
//!   principal's context, so specifiers are optional there).
//! * **Aggregates** — at most one aggregate per head, and the aggregated
//!   variable must be bound by the body.
//! * **Assignments / filters** — all variables they reference must be bound
//!   by body atoms or earlier assignments.
//! * **Predicate arity** — every occurrence of a predicate (rule heads, body
//!   atoms, facts) must use the same number of arguments.  Without this
//!   check an arity conflict would only surface at runtime, where the
//!   evaluator would silently skip the mismatching stored tuples during
//!   joins and quietly drop derivations.

use crate::ast::{Atom, BodyLiteral, Program, Rule, Term};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A validation failure, tied to the offending rule.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ValidationError {
    /// Label of the rule that failed validation (or `<fact>`).
    pub rule: String,
    /// Explanation of the failure.
    pub message: String,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rule {}: {}", self.rule, self.message)
    }
}

impl std::error::Error for ValidationError {}

/// Validates every rule and fact of `program`, returning all errors found.
pub(crate) fn validate_program(program: &Program) -> Result<(), Vec<ValidationError>> {
    let mut errors = Vec::new();
    for rule in &program.rules {
        validate_rule(rule, &mut errors);
    }
    for fact in &program.facts {
        if !fact.atom.is_ground() {
            errors.push(ValidationError {
                rule: "<fact>".into(),
                message: format!("fact `{}` is not ground", fact.atom),
            });
        }
    }
    validate_arities(program, &mut errors);
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Checks that every predicate is used with a single arity across the whole
/// program.  The first occurrence (in source order) fixes the arity; every
/// conflicting later occurrence is reported against its own rule.
fn validate_arities(program: &Program, errors: &mut Vec<ValidationError>) {
    let mut declared: BTreeMap<String, (usize, String)> = BTreeMap::new();
    let mut check = |atom: &Atom, rule_label: &str, errors: &mut Vec<ValidationError>| {
        let arity = atom.args.len();
        match declared.get(atom.predicate.as_str()) {
            None => {
                declared.insert(atom.predicate.clone(), (arity, rule_label.to_string()));
            }
            Some((expected, first)) if *expected != arity => {
                errors.push(ValidationError {
                    rule: rule_label.to_string(),
                    message: format!(
                        "predicate `{}` used with arity {arity}, but rule {first} uses arity {expected}",
                        atom.predicate
                    ),
                });
            }
            Some(_) => {}
        }
    };
    for rule in &program.rules {
        check(&rule.head, &rule.label, errors);
        for atom in rule.body_atoms() {
            check(atom, &rule.label, errors);
        }
    }
    for fact in &program.facts {
        check(&fact.atom, "<fact>", errors);
    }
}

fn validate_rule(rule: &Rule, errors: &mut Vec<ValidationError>) {
    let err = |message: String| ValidationError {
        rule: rule.label.clone(),
        message,
    };

    let is_sendlog = rule.context.is_some();
    let bound = rule.bound_variables();

    // Safety: head variables must be bound.
    for arg in &rule.head.args {
        match arg {
            Term::Variable(v) | Term::Aggregate(_, v) => {
                if !bound.contains(v) {
                    errors.push(err(format!(
                        "head variable `{v}` is not bound by the rule body (unsafe rule)"
                    )));
                }
            }
            Term::Wildcard => {
                errors.push(err("wildcard `_` is not allowed in a rule head".into()));
            }
            Term::Constant(_) => {}
        }
    }
    if let Some(Term::Variable(v)) = &rule.head.export_to {
        if !bound.contains(v) {
            errors.push(err(format!(
                "export annotation variable `@{v}` is not bound by the rule body"
            )));
        }
    }

    // Aggregates: at most one, only in heads (the parser enforces placement).
    let agg_count = rule
        .head
        .args
        .iter()
        .filter(|t| matches!(t, Term::Aggregate(..)))
        .count();
    if agg_count > 1 {
        errors.push(err("at most one aggregate is allowed per rule head".into()));
    }

    // Location specifiers.
    if !is_sendlog {
        if rule.head.location.is_none() && rule.head.export_to.is_none() {
            errors.push(err(format!(
                "NDlog head `{}` has no location specifier",
                rule.head
            )));
        }
        for atom in rule.body_atoms() {
            if atom.location.is_none() {
                errors.push(err(format!(
                    "NDlog body atom `{atom}` has no location specifier"
                )));
            }
        }
    }
    // Location specifier terms must be variables or constants, not wildcards.
    for atom in std::iter::once(&rule.head).chain(rule.body_atoms()) {
        if let Some(Term::Wildcard) = atom.location_term() {
            errors.push(err(format!(
                "atom `{atom}` uses a wildcard as its location specifier"
            )));
        }
    }

    // Filters and assignments: variables must be bound by atoms or earlier
    // assignments (assignments may be written in any order relative to the
    // atoms, as in the paper's Best-Path listing, so we only require that a
    // binding exists somewhere in the rule).
    let mut assignable: BTreeSet<String> = BTreeSet::new();
    for lit in &rule.body {
        if let BodyLiteral::Assign { var, .. } = lit {
            assignable.insert(var.clone());
        }
    }
    let atom_bound: BTreeSet<String> = {
        let mut s = BTreeSet::new();
        for atom in rule.body_atoms() {
            s.extend(atom.variables());
        }
        if let Some(Term::Variable(v)) = &rule.context {
            s.insert(v.clone());
        }
        s
    };
    for lit in &rule.body {
        let mut used = BTreeSet::new();
        match lit {
            BodyLiteral::Filter(e) => e.variables(&mut used),
            BodyLiteral::Assign { expr, .. } => expr.variables(&mut used),
            BodyLiteral::Atom(_) => continue,
        }
        for v in used {
            if !atom_bound.contains(&v) && !assignable.contains(&v) {
                errors.push(err(format!(
                    "variable `{v}` used in `{lit}` is not bound by any body atom"
                )));
            }
        }
    }

    // `says` annotations only make sense for SeNDlog rules.
    if !is_sendlog {
        for atom in rule.body_atoms() {
            if atom.says.is_some() {
                errors.push(err(format!(
                    "`says` annotation on `{atom}` requires a SeNDlog context block (`At P:`)"
                )));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn validate(src: &str) -> Result<(), Vec<ValidationError>> {
        validate_program(&parse_program(src).unwrap())
    }

    #[test]
    fn accepts_the_paper_programs() {
        assert!(validate(
            "r1 reachable(@S,D) :- link(@S,D).\n r2 reachable(@S,D) :- link(@S,Z), reachable(@Z,D).\n link(a,b)."
        )
        .is_ok());

        assert!(validate(
            "At S:\n s1 reachable(S,D) :- link(S,D).\n s2 linkD(D,S)@D :- link(S,D).\n s3 reachable(Z,Y)@Z :- Z says linkD(S,Z), W says reachable(S,Y)."
        )
        .is_ok());

        assert!(validate(
            "sp1 path(@S,D,P,C) :- link(@S,D,C), P := f_init(S,D).\n sp3 bestPathCost(@S,D,a_MIN<C>) :- path(@S,D,P,C)."
        )
        .is_ok());
    }

    #[test]
    fn rejects_unsafe_head_variables() {
        let errs = validate("r1 reachable(@S,D) :- link(@S,Z).").unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("`D`")));
    }

    #[test]
    fn rejects_missing_location_specifiers_in_ndlog() {
        let errs = validate("r1 reachable(S,D) :- link(S,D).").unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message.contains("no location specifier")));
    }

    #[test]
    fn allows_missing_location_specifiers_in_sendlog() {
        assert!(validate("At S:\n s1 reachable(S,D) :- link(S,D).").is_ok());
    }

    #[test]
    fn rejects_says_outside_sendlog_context() {
        let errs = validate("r1 p(@S,D) :- W says link(@S,D).").unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("says")));
    }

    #[test]
    fn rejects_unbound_filter_variables() {
        let errs = validate("r1 p(@S) :- q(@S), N > 3.").unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("`N`")));
    }

    #[test]
    fn rejects_wildcard_in_head() {
        let errs = validate("r1 p(@S,_) :- q(@S,X).").unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("wildcard")));
    }

    #[test]
    fn rejects_unbound_export_annotation() {
        let errs = validate("At S:\n s1 p(S,D)@Z :- q(S,D).").unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("@Z")));
    }

    #[test]
    fn rejects_multiple_aggregates() {
        let errs = validate("r1 p(@S, a_MIN<C>, a_MAX<C>) :- q(@S, C).").unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("one aggregate")));
    }

    #[test]
    fn rejects_predicate_arity_conflicts() {
        // `link` is used with arity 2 by r1 and arity 3 by r2: the conflict
        // is reported against r2 (the later occurrence) and names r1.
        let errs =
            validate("r1 reachable(@S,D) :- link(@S,D).\n r2 reachable(@S,D) :- link(@S,D,C).")
                .unwrap_err();
        assert!(
            errs.iter().any(|e| e.rule == "r2"
                && e.message.contains("`link`")
                && e.message.contains("arity 3")
                && e.message.contains("rule r1 uses arity 2")),
            "{errs:?}"
        );
    }

    #[test]
    fn rejects_fact_arity_conflicts_with_rules() {
        let errs = validate("r1 reachable(@S,D) :- link(@S,D).\n link(a,b,c).").unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.rule == "<fact>" && e.message.contains("`link`")),
            "{errs:?}"
        );
    }

    #[test]
    fn head_and_body_arity_conflicts_are_caught() {
        let errs = validate("r1 p(@S,D,X) :- q(@S,D), X := 1.\n r2 s(@A) :- p(@A,B).").unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.rule == "r2" && e.message.contains("`p`")),
            "{errs:?}"
        );
    }

    #[test]
    fn error_display_mentions_rule_label() {
        let errs = validate("bad p(@S,D) :- q(@S).").unwrap_err();
        assert!(errs[0].to_string().starts_with("rule bad:"));
    }
}
