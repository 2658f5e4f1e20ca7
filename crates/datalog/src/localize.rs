//! The localization rewrite of declarative networking.
//!
//! NDlog rules may reference tuples stored at different nodes — the
//! canonical example is the transitive-closure rule of Section 2.1:
//!
//! ```text
//! r2 reachable(@S,D) :- link(@S,Z), reachable(@Z,D).
//! ```
//!
//! whose body spans locations `S` and `Z`.  A distributed query processor can
//! only join tuples that are co-located, so the rule is rewritten (Loo et
//! al., SIGMOD 2006; referenced by the paper as the "localization rewrite")
//! into rules whose bodies are single-site:
//!
//! ```text
//! r2_loc1 link_at_z(S,@Z)  :- link(@S,Z).
//! r2      reachable(@S,D)  :- link_at_z(S,@Z), reachable(@Z,D).
//! ```
//!
//! The first rule sends every link tuple to its destination end; the second
//! then joins locally at `Z` and ships the derived `reachable` tuple back to
//! `S` (a head whose location differs from the body's is exactly what
//! generates network messages).
//!
//! Rules spanning more than two sites are handled by staging: all atoms
//! co-located at one site are joined into an intermediate predicate that is
//! shipped to the next site, repeating until the body is single-site.
//!
//! SeNDlog rules are localized by construction — all body atoms live in the
//! rule's context and exports are explicit `@` annotations — so the rewrite
//! only applies to plain NDlog rules.
//!
//! An intermediate's name must be new to the program: a rewrite that would
//! name it after a predicate the program already uses, or after an
//! intermediate another rule's rewrite defines differently, is refused, so
//! localization keeps a valid program valid.

use crate::ast::{Atom, BodyLiteral, Program, Rule, Term};
use crate::plan::PlanError;
use std::collections::{BTreeMap, BTreeSet};

/// Every predicate name the program uses (mapped to `None`), and each
/// intermediate a rewrite introduced, mapped to the head and body of the
/// forwarding rule that defines it.
type Names = BTreeMap<String, Option<(Atom, Vec<BodyLiteral>)>>;

/// Rewrites every rule of `program` so that all body atoms of each rule share
/// a single location specifier variable.  Facts are passed through unchanged;
/// a rule that cannot be rewritten is left out, its refusal pushed onto
/// `refusals`.
pub(crate) fn localize_program(program: &Program, refusals: &mut Vec<PlanError>) -> Program {
    let rule_atoms = program
        .rules
        .iter()
        .flat_map(|rule| std::iter::once(&rule.head).chain(rule.body_atoms()));
    let facts = program.facts.iter().map(|fact| &fact.atom);
    let mut names: Names = rule_atoms
        .chain(facts)
        .map(|a| (a.predicate.clone(), None))
        .collect();
    let mut out = Program {
        rules: Vec::new(),
        facts: program.facts.clone(),
    };
    for rule in &program.rules {
        match localize_rule(rule, &mut names) {
            Ok(rewritten) => out.rules.extend(rewritten),
            Err(message) => refusals.push(PlanError::Plan {
                rule: rule.label.clone(),
                message,
            }),
        }
    }
    out
}

/// Rewrites a single rule; returns the (possibly longer) list of localized
/// rules that replace it.  The last rule in the returned list derives the
/// original head.
fn localize_rule(rule: &Rule, names: &mut Names) -> Result<Vec<Rule>, String> {
    // SeNDlog rules are localized by construction.
    if rule.context.is_some() {
        return Ok(vec![rule.clone()]);
    }

    let mut current = rule.clone();
    let mut extra_rules: Vec<Rule> = Vec::new();
    let mut counter = 0usize;

    loop {
        let locations = current.body_location_variables();
        if locations.len() <= 1 {
            break;
        }
        let Some((from, to)) = choose_shipment(&current, &locations) else {
            return Err(format!(
                "body spans locations {{{}}} but no atom connects them; rewrite it manually",
                locations.iter().cloned().collect::<Vec<_>>().join(", ")
            ));
        };
        counter += 1;

        // Partition the body: atoms located at `from` form the shipped group.
        let mut group: Vec<Atom> = Vec::new();
        let mut rest: Vec<BodyLiteral> = Vec::new();
        for lit in &current.body {
            match lit {
                BodyLiteral::Atom(a) if atom_location_var(a) == Some(from.clone()) => {
                    group.push(a.clone());
                }
                other => rest.push(other.clone()),
            }
        }
        debug_assert!(!group.is_empty());

        // Variables the rest of the rule (head, other literals) still needs.
        let mut needed: BTreeSet<String> = rule_head_variables(&current);
        for lit in &rest {
            match lit {
                BodyLiteral::Atom(a) => needed.extend(a.variables()),
                BodyLiteral::Filter(e) => e.variables(&mut needed),
                BodyLiteral::Assign { expr, .. } => expr.variables(&mut needed),
            }
        }
        let group_vars: BTreeSet<String> = group.iter().flat_map(|a| a.variables()).collect();
        // The intermediate carries the group variables that are needed
        // downstream, always including the destination location variable.
        let mut carried: Vec<String> = group_vars
            .iter()
            .filter(|v| needed.contains(*v) || **v == to)
            .cloned()
            .collect();
        if !carried.contains(&to) {
            carried.push(to.clone());
        }
        carried.sort();

        // Intermediate predicate: a single-atom group keeps a readable
        // `pred_at_loc` name (the linkD pattern of the paper); larger groups
        // get a rule-derived name.
        let predicate = if group.len() == 1 {
            format!("{}_at_{}", group[0].predicate, to.to_lowercase())
        } else {
            format!("{}_stage{}_at_{}", rule.label, counter, to.to_lowercase())
        };
        let loc_idx = carried
            .iter()
            .position(|v| *v == to)
            .expect("destination variable is always carried");
        let mut intermediate = Atom::new(
            predicate,
            carried.iter().map(|v| Term::var(v.clone())).collect(),
        );
        intermediate.location = Some(loc_idx);

        // Forwarding rule: intermediate(@to, ...) :- group atoms (at `from`).
        let forward = Rule {
            label: format!("{}_loc{}", rule.label, counter),
            context: None,
            head: intermediate.clone(),
            body: group.into_iter().map(BodyLiteral::Atom).collect(),
        };
        let definition = Some((forward.head.clone(), forward.body.clone()));
        let name = &forward.head.predicate;
        if names.get(name).is_some_and(|taken| *taken != definition) {
            return Err(format!(
                "the rewrite's intermediate `{name}` already names another relation"
            ));
        }
        names.insert(name.clone(), definition);
        extra_rules.push(forward);

        // The main rule now joins the intermediate with the rest.
        let mut new_body = vec![BodyLiteral::Atom(intermediate)];
        new_body.extend(rest);
        current.body = new_body;
    }

    extra_rules.push(current);
    Ok(extra_rules)
}

fn atom_location_var(atom: &Atom) -> Option<String> {
    atom.location_term()
        .and_then(|t| t.variable_name().map(str::to_string))
}

fn rule_head_variables(rule: &Rule) -> BTreeSet<String> {
    let mut vars = rule.head.variables();
    if let Some(Term::Variable(v)) = &rule.head.export_to {
        vars.insert(v.clone());
    }
    vars
}

/// Chooses which location's atoms to ship (`from`) and where to ship them
/// (`to`).  A shipment is possible when some atom located at `from` mentions
/// `to` among its arguments (so the forwarded tuple knows its destination).
///
/// Preference: ship *towards* the location that hosts an occurrence of the
/// rule's own head predicate (the recursive side stays put, mirroring the
/// paper's linkD rewrite); break remaining ties by shipping the smaller group
/// and then lexicographically.
fn choose_shipment(rule: &Rule, locations: &BTreeSet<String>) -> Option<(String, String)> {
    let mut best: Option<(bool, usize, String, String)> = None;
    for from in locations {
        for to in locations {
            if from == to {
                continue;
            }
            let connects = rule.body_atoms().any(|a| {
                atom_location_var(a).as_deref() == Some(from.as_str())
                    && a.args
                        .iter()
                        .any(|t| t.variable_name() == Some(to.as_str()))
            });
            if !connects {
                continue;
            }
            let to_hosts_recursion = rule.body_atoms().any(|a| {
                a.predicate == rule.head.predicate
                    && atom_location_var(a).as_deref() == Some(to.as_str())
            });
            let group_size = rule
                .body_atoms()
                .filter(|a| atom_location_var(a).as_deref() == Some(from.as_str()))
                .count();
            // Larger key wins: recursion-hosting destination first, then
            // smaller shipped group (invert), then lexicographic for
            // determinism.
            let key = (
                to_hosts_recursion,
                usize::MAX - group_size,
                from.clone(),
                to.clone(),
            );
            let better = match &best {
                None => true,
                Some(b) => key > *b,
            };
            if better {
                best = Some(key);
            }
        }
    }
    best.map(|(_, _, from, to)| (from, to))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::validate::validate_program;

    /// The localized program, or every refusal.
    fn localize(program: &Program) -> Result<Program, Vec<PlanError>> {
        let mut refusals = Vec::new();
        let localized = localize_program(program, &mut refusals);
        if refusals.is_empty() {
            Ok(localized)
        } else {
            Err(refusals)
        }
    }

    #[test]
    fn single_site_rules_pass_through() {
        let program = parse_program("r1 reachable(@S,D) :- link(@S,D).").unwrap();
        let localized = localize(&program).unwrap();
        assert_eq!(localized.rules, program.rules);
    }

    #[test]
    fn transitive_closure_rule_is_rewritten() {
        let program = parse_program("r2 reachable(@S,D) :- link(@S,Z), reachable(@Z,D).").unwrap();
        let localized = localize(&program).unwrap();
        assert_eq!(localized.rules.len(), 2, "{localized}");

        // First rule forwards link tuples to their destination end.
        let fwd = &localized.rules[0];
        assert_eq!(fwd.head.predicate, "link_at_z");
        assert_eq!(fwd.head.location_term(), Some(&Term::var("Z")));
        assert_eq!(fwd.body.len(), 1);

        // Second rule joins locally at Z.
        let joined = &localized.rules[1];
        let locs = joined.body_location_variables();
        assert_eq!(locs.len(), 1);
        assert!(locs.contains("Z"));
        // The head still ships results back to S.
        assert_eq!(joined.head.location_term(), Some(&Term::var("S")));

        // The rewritten program is still valid.
        assert!(validate_program(&localized).is_empty());
    }

    #[test]
    fn best_path_recursive_rule_is_rewritten() {
        let program = parse_program(
            "sp2 path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2), C := C1 + C2, P := f_concat(S,P2).",
        )
        .unwrap();
        let localized = localize(&program).unwrap();
        assert_eq!(localized.rules.len(), 2);
        let joined = localized.rules.last().unwrap();
        assert_eq!(joined.body_location_variables().len(), 1);
        // Assignments survive the rewrite and their inputs are still carried.
        assert_eq!(
            joined
                .body
                .iter()
                .filter(|l| matches!(l, BodyLiteral::Assign { .. }))
                .count(),
            2
        );
        // C1 is produced at S but consumed by the assignment, so the
        // forwarded link tuple must still carry it.
        let fwd = &localized.rules[0];
        assert!(fwd.head.variables().contains("C1"), "{fwd}");
        assert!(validate_program(&localized).is_empty());
    }

    #[test]
    fn sendlog_rules_are_untouched() {
        let program = parse_program(
            "At S:\n s3 reachable(Z,Y)@Z :- Z says linkD(S,Z), W says reachable(S,Y).",
        )
        .unwrap();
        let localized = localize(&program).unwrap();
        assert_eq!(localized.rules, program.rules);
    }

    #[test]
    fn disconnected_locations_are_rejected() {
        // No body atom mentions both S and T, so the rewrite cannot find a
        // forwarding atom.
        let program = parse_program("r bad(@S,T) :- p(@S), q(@T).").unwrap();
        let refusals = localize(&program).unwrap_err();
        assert_eq!(refusals.len(), 1);
        let text = refusals[0].to_string();
        assert!(
            text.starts_with("rule r:") && text.contains("manually"),
            "{text}"
        );
    }

    #[test]
    fn localization_keeps_a_valid_program_valid() {
        // Every multi-site shape the rewrite stages: two sites, a carried
        // assignment input, three sites, a shared forwarding rule, and
        // multi-atom groups.
        let programs = [
            "r1 reachable(@S,D) :- link(@S,D).\n r2 reachable(@S,D) :- link(@S,Z), reachable(@Z,D).",
            "sp1 path(@S,D,P,C) :- link(@S,D,C), P := f_init(S,D).\n\
             sp2 path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2), C := C1 + C2, P := f_concat(S,P2).\n\
             sp3 best(@S,D,a_MIN<C>) :- path(@S,D,P,C).",
            "r3 threeHop(@S,D) :- link(@S,A), link(@A,B), link(@B,D).",
            "r2 reachable(@S,D) :- link(@S,Z), reachable(@Z,D).\n r4 twice(@S,D) :- link(@S,Z), reachable(@Z,D).",
            "r5 tri(@S,D) :- link(@S,Z), cost(@S,Z,C), reachable(@Z,D), up(@Z), C > 1.",
        ];
        for source in programs {
            let program = parse_program(source).unwrap();
            assert!(validate_program(&program).is_empty(), "{source}");
            let localized = localize(&program).unwrap();
            for rule in &localized.rules {
                assert!(rule.body_location_variables().len() <= 1, "{rule}");
            }
            let refusals = validate_program(&localized);
            assert!(refusals.is_empty(), "{source}: {refusals:?}\n{localized}");
        }
    }

    #[test]
    fn an_intermediate_never_takes_a_name_already_in_use() {
        // The program's own `link_at_z`, of another arity, and two rules
        // whose forwarding rules would define `link_at_z` differently (one
        // carries the cost, one does not).
        for (source, refused) in [
            (
                "r2 reachable(@S,D) :- link(@S,Z), reachable(@Z,D).\n r3 q(@Z) :- link_at_z(@Z).",
                "r2",
            ),
            (
                "r1 a(@S,D) :- link(@S,Z,C), b(@Z,D).\n r2 c(@S,D,C) :- link(@S,Z,C), b(@Z,D).",
                "r2",
            ),
        ] {
            let program = parse_program(source).unwrap();
            let refusals = localize(&program).unwrap_err();
            assert_eq!(refusals.len(), 1, "{source}: {refusals:?}");
            let text = refusals[0].to_string();
            assert!(text.starts_with(&format!("rule {refused}:")), "{text}");
            assert!(text.contains("`link_at_z`"), "{text}");
        }
    }

    #[test]
    fn three_site_chain_localizes_to_single_site_rules() {
        let program =
            parse_program("r3 threeHop(@S,D) :- link(@S,A), link(@A,B), link(@B,D).").unwrap();
        let localized = localize(&program).unwrap();
        for rule in &localized.rules {
            assert!(
                rule.body_location_variables().len() <= 1,
                "rule not single-site: {rule}"
            );
        }
        // One intermediate per removed site, plus the final rule.
        assert_eq!(localized.rules.len(), 3, "{localized}");
        assert!(validate_program(&localized).is_empty());
    }

    #[test]
    fn facts_are_preserved() {
        let program = parse_program(
            "r2 reachable(@S,D) :- link(@S,Z), reachable(@Z,D).\n link(a,b).\n link(b,c).",
        )
        .unwrap();
        let localized = localize(&program).unwrap();
        assert_eq!(localized.facts.len(), 2);
    }
}
