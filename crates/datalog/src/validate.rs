//! Static validation of NDlog / SeNDlog programs: the well-formedness rules
//! the planner cannot see (listed, with every other refusal, in `plan.rs`'s
//! module docs), checked once, before the localizer and the planner run.
//! Whether a rule binds what it reads is the planner's binding walk alone.
//!
//! A predicate keeps one arity and one `@` column across the program:
//! without that check a conflict would only surface at runtime, where the
//! evaluator would silently skip mismatching stored tuples during joins, or
//! file a predicate's tuples under the column of its last occurrence.

use crate::ast::{Atom, Program, Rule, Term};
use crate::plan::PlanError;
use std::collections::BTreeMap;

/// Validates every rule and fact of `program`, returning every refusal.
pub(crate) fn validate_program(program: &Program) -> Vec<PlanError> {
    let mut errors = Vec::new();
    for rule in &program.rules {
        validate_rule(rule, &mut errors);
    }
    for fact in &program.facts {
        if !fact.atom.is_ground() {
            errors.push(refusal(
                "<fact>",
                format!("fact `{}` is not ground", fact.atom),
            ));
        }
    }
    validate_shapes(program, &mut errors);
    errors
}

fn refusal(rule: &str, message: String) -> PlanError {
    PlanError::Plan {
        rule: rule.to_string(),
        message,
    }
}

/// Checks that every predicate is used with a single arity and located at a
/// single `@` column across the whole program.  The first occurrence (in
/// source order) fixes each; every conflicting later occurrence is reported
/// against its own rule.
fn validate_shapes(program: &Program, errors: &mut Vec<PlanError>) {
    let mut arities: BTreeMap<&str, (usize, &str)> = BTreeMap::new();
    let mut columns: BTreeMap<&str, (usize, &str)> = BTreeMap::new();
    let rule_atoms = program.rules.iter().flat_map(|rule| {
        let atoms = std::iter::once(&rule.head).chain(rule.body_atoms());
        atoms.map(move |atom| (atom, rule.label.as_str()))
    });
    let facts = program.facts.iter().map(|fact| (&fact.atom, "<fact>"));
    for (atom, label) in rule_atoms.chain(facts) {
        let predicate = atom.predicate.as_str();
        let arity = atom.args.len();
        let (expected, first) = *arities.entry(predicate).or_insert((arity, label));
        if expected != arity {
            errors.push(refusal(
                label,
                format!(
                    "predicate `{predicate}` used with arity {arity}, but rule {first} uses arity {expected}"
                ),
            ));
        }
        let Some(column) = atom.location else {
            continue;
        };
        let (expected, first) = *columns.entry(predicate).or_insert((column, label));
        if expected != column {
            errors.push(refusal(
                label,
                format!(
                    "predicate `{predicate}` located at column {column}, but rule {first} locates it at column {expected}"
                ),
            ));
        }
    }
}

fn validate_rule(rule: &Rule, errors: &mut Vec<PlanError>) {
    let mut err = |message: String| errors.push(refusal(&rule.label, message));
    let is_sendlog = rule.context.is_some();

    let aggregates = rule.head.args.iter();
    let aggregates = aggregates.filter(|t| matches!(t, Term::Aggregate(..)));
    if aggregates.count() > 1 {
        err("at most one aggregate is allowed per rule head".into());
    }

    if !is_sendlog {
        if rule.head.location.is_none() && rule.head.export_to.is_none() {
            err(format!(
                "NDlog head `{}` has no location specifier",
                rule.head
            ));
        }
        for atom in rule.body_atoms() {
            if atom.location.is_none() {
                err(format!(
                    "NDlog body atom `{atom}` has no location specifier"
                ));
            }
            if atom.says.is_some() {
                err(format!(
                    "`says` annotation on `{atom}` requires a SeNDlog context block (`At P:`)"
                ));
            }
        }
    }
    for atom in std::iter::once(&rule.head).chain(rule.body_atoms()) {
        validate_location(atom, &mut err);
    }
}

/// A location specifier names one of its atom's arguments, and that
/// argument is a variable or a constant, not a wildcard.
fn validate_location(atom: &Atom, err: &mut impl FnMut(String)) {
    match atom.location.map(|column| atom.args.get(column)) {
        Some(None) => err(format!(
            "atom `{atom}` places its location specifier past its {} arguments",
            atom.args.len()
        )),
        Some(Some(Term::Wildcard)) => err(format!(
            "atom `{atom}` uses a wildcard as its location specifier"
        )),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::BodyLiteral;
    use crate::parser::parse_program;

    /// Every refusal of `src`, as `(rule, message)`.
    fn validate(src: &str) -> Vec<(String, String)> {
        let refusals = validate_program(&parse_program(src).unwrap());
        let pair = |refusal| match refusal {
            PlanError::Plan { rule, message } => (rule, message),
            other => panic!("validation refuses one thing at a time, got {other:?}"),
        };
        refusals.into_iter().map(pair).collect()
    }

    fn any_message(errs: &[(String, String)], needle: &str) -> bool {
        errs.iter().any(|(_, message)| message.contains(needle))
    }

    #[test]
    fn accepts_the_paper_programs() {
        assert!(validate(
            "r1 reachable(@S,D) :- link(@S,D).\n r2 reachable(@S,D) :- link(@S,Z), reachable(@Z,D).\n link(a,b)."
        )
        .is_empty());

        assert!(validate(
            "At S:\n s1 reachable(S,D) :- link(S,D).\n s2 linkD(D,S)@D :- link(S,D).\n s3 reachable(Z,Y)@Z :- Z says linkD(S,Z), W says reachable(S,Y)."
        )
        .is_empty());

        assert!(validate(
            "sp1 path(@S,D,P,C) :- link(@S,D,C), P := f_init(S,D).\n sp3 bestPathCost(@S,D,a_MIN<C>) :- path(@S,D,P,C)."
        )
        .is_empty());
    }

    #[test]
    fn rejects_missing_location_specifiers_in_ndlog() {
        let errs = validate("r1 reachable(S,D) :- link(S,D).");
        assert!(any_message(&errs, "no location specifier"), "{errs:?}");
    }

    #[test]
    fn allows_missing_location_specifiers_in_sendlog() {
        assert!(validate("At S:\n s1 reachable(S,D) :- link(S,D).").is_empty());
    }

    #[test]
    fn rejects_says_outside_sendlog_context() {
        let errs = validate("r1 p(@S,D) :- W says link(@S,D).");
        assert!(any_message(&errs, "says"), "{errs:?}");
    }

    #[test]
    fn rejects_multiple_aggregates() {
        let errs = validate("r1 p(@S, a_MIN<C>, a_MAX<C>) :- q(@S, C).");
        assert!(any_message(&errs, "one aggregate"), "{errs:?}");
    }

    #[test]
    fn rejects_predicate_arity_conflicts() {
        // `link` is used with arity 2 by r1 and arity 3 by r2: the conflict
        // is reported against r2 (the later occurrence) and names r1.
        let errs =
            validate("r1 reachable(@S,D) :- link(@S,D).\n r2 reachable(@S,D) :- link(@S,D,C).");
        assert!(
            errs.iter().any(|(rule, message)| rule == "r2"
                && message.contains("`link`")
                && message.contains("arity 3")
                && message.contains("rule r1 uses arity 2")),
            "{errs:?}"
        );
    }

    #[test]
    fn rejects_fact_arity_conflicts_with_rules() {
        let errs = validate("r1 reachable(@S,D) :- link(@S,D).\n link(a,b,c).");
        assert!(
            errs.iter()
                .any(|(rule, message)| rule == "<fact>" && message.contains("`link`")),
            "{errs:?}"
        );
    }

    #[test]
    fn head_and_body_arity_conflicts_are_caught() {
        let errs = validate("r1 p(@S,D,X) :- q(@S,D), X := 1.\n r2 s(@A) :- p(@A,B).");
        assert!(
            errs.iter()
                .any(|(rule, message)| rule == "r2" && message.contains("`p`")),
            "{errs:?}"
        );
    }

    #[test]
    fn rejects_a_predicate_located_at_two_columns() {
        // r1 stores `p` at column 0, r2 at column 1: refused against r2,
        // naming r1.  The same holds between facts.
        let errs = validate("r1 p(@S,D) :- q(@S,D).\n r2 p(S,@D) :- q(@D,S).");
        let conflict = |rule: &str, first: &str| {
            errs.iter().any(|(r, message)| {
                r == rule
                    && message.contains("located at column 1")
                    && message.contains(&format!("rule {first} locates it at column 0"))
            })
        };
        assert!(conflict("r2", "r1"), "{errs:?}");
        let errs = validate("q(@1,2).\n q(1,@2).");
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert_eq!(errs[0].0, "<fact>");
        assert!(errs[0].1.contains("`q` located at column 1"), "{errs:?}");
        // A fact written without `@` declares no column of its own.
        assert!(validate("r1 p(@S,D) :- q(@S,D).\n q(1,2).").is_empty());
    }

    #[test]
    fn rejects_a_location_specifier_past_the_arguments() {
        let mut program = parse_program("r1 p(@S,D) :- q(@S,D).").unwrap();
        let BodyLiteral::Atom(atom) = &mut program.rules[0].body[0] else {
            unreachable!("the body is one atom")
        };
        atom.args.pop();
        atom.location = Some(1);
        let refusals = validate_program(&program);
        assert!(
            refusals
                .iter()
                .any(|e| e.to_string().contains("past its 1 arguments")),
            "{refusals:?}"
        );
    }

    #[test]
    fn error_display_mentions_rule_label() {
        let errs = validate_program(&parse_program("bad p(S,D) :- q(@S,D).").unwrap());
        assert!(errs[0].to_string().starts_with("rule bad:"), "{errs:?}");
    }
}
