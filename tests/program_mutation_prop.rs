//! Property test: the negative twin of every shipped program.  A program one
//! AST mutation away from a valid one is refused by `compile_program` with a
//! `PlanError` that names the user's rule — never accepted, never a panic.
//!
//! Each case draws one of the nine `pasn::programs` sources, one of its
//! rules, one [`Mutation`] and a word that picks among the mutation's
//! options on that rule (a head variable, a body atom, a column, …).  A
//! mutation that has no option on the drawn rule (a location to drop in a
//! SeNDlog rule, say) is skipped; every (program, mutation) pair that has
//! one on some rule must be drawn at least once.

use pasn::programs;
use pasn_datalog::{
    compile_program, parse_program, AggFunc, Atom, BinOp, BodyLiteral, Expr, PlanError, Program,
    Term, Value,
};
use proptest::test_runner::TestRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Cases drawn per run.
const CASES: u32 = 2048;

const PROGRAMS: [(&str, &str); 9] = [
    ("REACHABILITY_NDLOG", programs::REACHABILITY_NDLOG),
    ("REACHABILITY_SENDLOG", programs::REACHABILITY_SENDLOG),
    ("BEST_PATH", programs::BEST_PATH),
    ("ROUTE_MONITOR", programs::ROUTE_MONITOR),
    ("DISTANCE_VECTOR", programs::DISTANCE_VECTOR),
    ("PATH_VECTOR", programs::PATH_VECTOR),
    ("PATH_VECTOR_POLICY", programs::PATH_VECTOR_POLICY),
    ("DNSSEC", programs::DNSSEC),
    ("CHORD", programs::CHORD),
];

/// One step from a valid program to an invalid one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mutation {
    /// A head argument, aggregated variable or export annotation reads a
    /// variable the body never mentions.
    UnbindHead,
    /// The head carries two aggregates.
    SecondAggregate,
    /// An NDlog body atom loses its location specifier.
    DropLocation,
    /// An NDlog atom moves its `@` to another column than the predicate's
    /// other located occurrences use.
    MoveColumn,
    /// An atom gains or loses an argument where its predicate occurs again.
    ChangeArity,
    /// A body atom is read through `says` outside an `At P:` block.
    SaysOutsideContext,
    /// A filter calls a built-in that does not exist.
    UnknownBuiltin,
}

const MUTATIONS: [Mutation; 7] = [
    Mutation::UnbindHead,
    Mutation::SecondAggregate,
    Mutation::DropLocation,
    Mutation::MoveColumn,
    Mutation::ChangeArity,
    Mutation::SaysOutsideContext,
    Mutation::UnknownBuiltin,
];

/// The head (atom 0) and the body atoms of `rule`, in order.
fn atoms_mut(rule: &mut pasn_datalog::Rule) -> Vec<&mut Atom> {
    let body = rule.body.iter_mut().filter_map(|literal| match literal {
        BodyLiteral::Atom(atom) => Some(atom),
        _ => None,
    });
    std::iter::once(&mut rule.head).chain(body).collect()
}

/// How many atoms of `program` name `predicate`, and how many of those are
/// located.
fn occurrences(program: &Program, predicate: &str) -> (usize, usize) {
    let atoms = program
        .rules
        .iter()
        .flat_map(|rule| std::iter::once(&rule.head).chain(rule.body_atoms()));
    let named: Vec<&Atom> = atoms.filter(|a| a.predicate == predicate).collect();
    let located = named.iter().filter(|a| a.location.is_some()).count();
    (named.len(), located)
}

/// `options[word % len]`, or `None` when there are none.
fn pick<T>(mut options: Vec<T>, word: u64) -> Option<T> {
    let len = options.len() as u64;
    (len > 0).then(|| options.swap_remove((word % len) as usize))
}

/// `program` with `mutation` applied to its rule `at`, choosing among the
/// mutation's options there by `word`; `None` when the rule offers none.
fn mutate(program: &Program, at: usize, mutation: Mutation, word: u64) -> Option<Program> {
    let mut mutant = program.clone();
    let ndlog = program.rules[at].context.is_none();
    let shape = |atom: &Atom| occurrences(program, &atom.predicate);
    let rule = &mut mutant.rules[at];
    let fresh = || "Unbound".to_string();
    match mutation {
        Mutation::UnbindHead => {
            let columns = rule.head.args.iter().enumerate();
            let mut options: Vec<usize> = columns
                .filter(|(_, t)| matches!(t, Term::Variable(_) | Term::Aggregate(..)))
                .map(|(column, _)| column)
                .collect();
            if let Some(Term::Variable(_)) = rule.head.export_to {
                options.push(rule.head.args.len());
            }
            match pick(options, word)? {
                column if column == rule.head.args.len() => {
                    rule.head.export_to = Some(Term::Variable(fresh()))
                }
                column => match &mut rule.head.args[column] {
                    Term::Aggregate(_, var) | Term::Variable(var) => *var = fresh(),
                    _ => unreachable!("only variables are options"),
                },
            }
        }
        Mutation::SecondAggregate => {
            let args = &mut rule.head.args;
            let aggregates = args
                .iter()
                .filter(|t| matches!(t, Term::Aggregate(..)))
                .count();
            let variables: Vec<usize> = (0..args.len())
                .filter(|&column| matches!(args[column], Term::Variable(_)))
                .collect();
            let needed = 2usize.saturating_sub(aggregates);
            if variables.len() < needed {
                return None;
            }
            let start = (word % variables.len() as u64) as usize;
            for i in 0..needed {
                let column = variables[(start + i) % variables.len()];
                if let Term::Variable(var) = &args[column] {
                    args[column] = Term::Aggregate(AggFunc::Max, var.clone());
                }
            }
        }
        Mutation::DropLocation => {
            let mut atoms = atoms_mut(rule);
            atoms.remove(0);
            atoms.retain(|atom| ndlog && atom.location.is_some());
            pick(atoms, word)?.location = None;
        }
        Mutation::MoveColumn => {
            let mut atoms = atoms_mut(rule);
            atoms.retain(|atom| ndlog && atom.args.len() >= 2 && shape(atom).1 >= 2);
            let atom = pick(atoms, word)?;
            let (column, width) = (atom.location? as u64, atom.args.len() as u64);
            atom.location = Some(((column + 1 + (word >> 8) % (width - 1)) % width) as usize);
        }
        Mutation::ChangeArity => {
            let mut atoms = atoms_mut(rule);
            atoms.retain(|atom| shape(atom).0 >= 2);
            let atom = pick(atoms, word)?;
            if (word >> 8) & 1 == 0 || atom.args.len() < 2 {
                atom.args.push(Term::Constant(Value::Int(0)));
            } else {
                atom.args.pop();
            }
        }
        Mutation::SaysOutsideContext => {
            rule.context = None;
            let mut atoms = atoms_mut(rule);
            atoms.remove(0);
            let atom = pick(atoms, word)?;
            atom.says.get_or_insert(Term::Variable("Speaker".into()));
        }
        Mutation::UnknownBuiltin => {
            let read = rule
                .body_atoms()
                .flat_map(|a| &a.args)
                .find_map(|t| match t {
                    Term::Variable(var) => Some(Expr::var(var.clone())),
                    _ => None,
                });
            let call = Expr::Call("f_unknown".into(), read.into_iter().collect());
            let truth = Expr::Term(Term::Constant(Value::Bool(true)));
            let filter = Expr::BinOp(BinOp::Eq, Box::new(call), Box::new(truth));
            rule.body.push(BodyLiteral::Filter(filter));
        }
    }
    Some(mutant)
}

/// Every refusal of `error` as `(rule, message)`.
fn refusals(error: PlanError) -> Vec<(String, String)> {
    let all = match error {
        PlanError::Validation(all) => all,
        one => vec![one],
    };
    let pair = |refusal| match refusal {
        PlanError::Plan { rule, message } => (rule, message),
        nested => panic!("a nested refusal: {nested:?}"),
    };
    all.into_iter().map(pair).collect()
}

/// Whether compiling `mutant` refuses it naming `label`, a rule of
/// `program`; `Err` says what happened instead.
fn refused_naming(program: &Program, mutant: &Program, label: &str) -> Result<(), String> {
    let compiled = catch_unwind(AssertUnwindSafe(|| compile_program(mutant)));
    let error = match compiled {
        Err(_) => return Err("panicked".into()),
        Ok(Ok(_)) => return Err("accepted".into()),
        Ok(Err(error)) => error,
    };
    let refusals = refusals(error);
    let user_rule = |rule: &str| rule == "<fact>" || program.rules.iter().any(|r| r.label == rule);
    if let Some((rule, _)) = refusals.iter().find(|(rule, _)| !user_rule(rule)) {
        return Err(format!("refused under `{rule}`, no rule of the program"));
    }
    let mention = format!("rule {label} ");
    let names = |(rule, message): &(String, String)| rule == label || message.contains(&mention);
    if refusals.iter().any(names) {
        Ok(())
    } else {
        Err(format!("refused without naming {label}: {refusals:?}"))
    }
}

#[test]
fn every_one_step_mutant_is_refused_naming_its_rule() {
    let parsed: Vec<Program> = PROGRAMS
        .iter()
        .map(|(name, source)| parse_program(source).unwrap_or_else(|e| panic!("{name}: {e}")))
        .collect();
    let mut drawn = [[0u32; MUTATIONS.len()]; PROGRAMS.len()];
    let mut rng = TestRng::for_test("program_mutation_prop");
    for number in 0..CASES {
        let which = rng.below(PROGRAMS.len() as u64) as usize;
        let program = &parsed[which];
        let at = rng.below(program.rules.len() as u64) as usize;
        let kind = rng.below(MUTATIONS.len() as u64) as usize;
        let word = rng.next_u64();
        let Some(mutant) = mutate(program, at, MUTATIONS[kind], word) else {
            continue;
        };
        drawn[which][kind] += 1;
        let label = &program.rules[at].label;
        if let Err(failure) = refused_naming(program, &mutant, label) {
            let (mutation, name) = (MUTATIONS[kind], PROGRAMS[which].0);
            panic!("case {number}: {mutation:?} on rule {label} of {name}: {failure}\nmutant:\n{mutant}");
        }
    }
    // Every mutation that applies to some rule of a program was drawn there.
    for (which, program) in parsed.iter().enumerate() {
        for (kind, &mutation) in MUTATIONS.iter().enumerate() {
            let applies =
                (0..program.rules.len()).any(|at| mutate(program, at, mutation, 0).is_some());
            assert!(
                !applies || drawn[which][kind] > 0,
                "{mutation:?} was never drawn on {}",
                PROGRAMS[which].0
            );
        }
    }
    let applied: u32 = drawn.iter().flatten().sum();
    assert!(
        applied > CASES / 2,
        "only {applied} of {CASES} cases applied"
    );
}
