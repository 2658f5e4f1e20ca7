//! Abstract syntax for NDlog and SeNDlog programs.
//!
//! The grammar follows Section 2 of the paper:
//!
//! ```text
//! r2 reachable(@S,D) :- link(@S,Z), reachable(@Z,D).
//! ```
//!
//! and, for SeNDlog, context blocks and the `says` operator:
//!
//! ```text
//! At S:
//! s3 reachable(Z,Y)@Z :- Z says linkD(S,Z), W says reachable(S,Y).
//! ```
//!
//! Location specifiers (`@X` on an attribute) mark the attribute that
//! determines where a tuple lives; the SeNDlog head annotation (`@Z` after
//! the head atom) marks the context a derived tuple is exported to.

use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Aggregate functions allowed in rule heads (`a_MIN<C>` in NDlog syntax).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum AggFunc {
    /// Minimum of the aggregated attribute over the group.
    Min,
    /// Maximum of the aggregated attribute over the group.
    Max,
    /// Number of derivations in the group.
    Count,
    /// Sum of the aggregated attribute over the group.
    Sum,
}

impl AggFunc {
    /// NDlog surface syntax for the aggregate.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Min => "a_MIN",
            AggFunc::Max => "a_MAX",
            AggFunc::Count => "a_COUNT",
            AggFunc::Sum => "a_SUM",
        }
    }

    /// The value of a group whose live candidates are `candidates` — each
    /// candidate value mapped to one entry per candidate holding it (no
    /// entry list empty): the least or greatest value, how many candidates
    /// there are, or their sum.  `None` for an empty group.
    pub fn value_of<T>(self, candidates: &BTreeMap<i64, Vec<T>>) -> Option<i64> {
        let (&least, _) = candidates.first_key_value()?;
        let mut by_value = candidates.iter().map(|(&v, c)| (v, c.len() as i64));
        Some(match self {
            AggFunc::Min => least,
            AggFunc::Max => by_value.next_back().map_or(least, |(v, _)| v),
            AggFunc::Count => by_value.map(|(_, n)| n).sum(),
            AggFunc::Sum => by_value.map(|(v, n)| v * n).sum(),
        })
    }
}

/// A term appearing as a predicate argument.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub enum Term {
    /// A variable (upper-case initial in the surface syntax).
    Variable(String),
    /// A constant value.
    Constant(Value),
    /// An aggregate over a variable; only valid in rule heads.
    Aggregate(AggFunc, String),
    /// The anonymous variable `_`.
    Wildcard,
}

impl Term {
    /// Convenience constructor for a variable term.
    pub fn var(name: impl Into<String>) -> Self {
        Term::Variable(name.into())
    }

    /// Convenience constructor for a constant term.
    pub(crate) fn constant(value: impl Into<Value>) -> Self {
        Term::Constant(value.into())
    }

    /// The variable name, if this term is a variable or aggregate.
    pub(crate) fn variable_name(&self) -> Option<&str> {
        match self {
            Term::Variable(v) => Some(v),
            Term::Aggregate(_, v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Variable(v) => write!(f, "{v}"),
            Term::Constant(c) => write!(f, "{c}"),
            Term::Aggregate(func, v) => write!(f, "{}<{v}>", func.name()),
            Term::Wildcard => write!(f, "_"),
        }
    }
}

/// Binary operators in arithmetic and comparison expressions.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Integer division.
    Div,
    /// Remainder.
    Mod,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Logical conjunction.
    And,
    /// Logical disjunction.
    Or,
}

impl BinOp {
    /// Surface syntax of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// An arithmetic / boolean / function expression.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub enum Expr {
    /// A term (variable or constant).
    Term(Term),
    /// A binary operation.
    BinOp(BinOp, Box<Expr>, Box<Expr>),
    /// A built-in function call (`f_concat(S, P)` etc.).
    Call(String, Vec<Expr>),
}

impl Expr {
    /// Convenience constructor for a variable expression.
    pub fn var(name: impl Into<String>) -> Self {
        Expr::Term(Term::var(name))
    }

    /// Convenience constructor for a constant expression.
    pub(crate) fn constant(value: impl Into<Value>) -> Self {
        Expr::Term(Term::constant(value))
    }

    /// Collects the variables referenced by this expression.
    pub(crate) fn variables(&self, out: &mut BTreeSet<String>) {
        match self {
            Expr::Term(Term::Variable(v)) | Expr::Term(Term::Aggregate(_, v)) => {
                out.insert(v.clone());
            }
            Expr::Term(_) => {}
            Expr::BinOp(_, a, b) => {
                a.variables(out);
                b.variables(out);
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.variables(out);
                }
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Term(t) => write!(f, "{t}"),
            Expr::BinOp(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            Expr::Call(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A predicate applied to arguments, possibly with NDlog/SeNDlog
/// annotations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Atom {
    /// Predicate name (lower-case initial in the surface syntax).
    pub predicate: String,
    /// Argument terms.
    pub args: Vec<Term>,
    /// Index of the argument carrying the `@` location specifier, if any.
    pub location: Option<usize>,
    /// SeNDlog export annotation on rule heads: the derived tuple is shipped
    /// to this principal's context (`head(...)@Z`).
    pub export_to: Option<Term>,
    /// SeNDlog `says` annotation on body atoms: the asserting principal
    /// (`W says reachable(S,Y)`).
    pub says: Option<Term>,
}

impl Atom {
    /// Creates a plain atom with no annotations.
    pub fn new(predicate: impl Into<String>, args: Vec<Term>) -> Self {
        Atom {
            predicate: predicate.into(),
            args,
            location: None,
            export_to: None,
            says: None,
        }
    }

    /// Builder: sets the location-specifier argument index.
    pub fn at(mut self, location: usize) -> Self {
        assert!(location < self.args.len(), "location index out of range");
        self.location = Some(location);
        self
    }

    /// Builder: sets the SeNDlog `says` annotation.
    pub fn said_by(mut self, principal: Term) -> Self {
        self.says = Some(principal);
        self
    }

    /// The term occupying the location-specifier position, if declared.
    pub(crate) fn location_term(&self) -> Option<&Term> {
        self.location.map(|i| &self.args[i])
    }

    /// Collects the variables appearing in the atom's arguments (including
    /// `says` / export annotations).
    pub(crate) fn variables(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for t in &self.args {
            if let Some(v) = t.variable_name() {
                out.insert(v.to_string());
            }
        }
        if let Some(Term::Variable(v)) = &self.says {
            out.insert(v.clone());
        }
        if let Some(Term::Variable(v)) = &self.export_to {
            out.insert(v.clone());
        }
        out
    }

    /// True if every argument is a constant (a ground fact).
    pub(crate) fn is_ground(&self) -> bool {
        self.args.iter().all(|t| matches!(t, Term::Constant(_)))
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(p) = &self.says {
            write!(f, "{p} says ")?;
        }
        write!(f, "{}(", self.predicate)?;
        for (i, arg) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            if self.location == Some(i) {
                write!(f, "@")?;
            }
            write!(f, "{arg}")?;
        }
        write!(f, ")")?;
        if let Some(e) = &self.export_to {
            write!(f, "@{e}")?;
        }
        Ok(())
    }
}

/// One element of a rule body.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BodyLiteral {
    /// A positive predicate occurrence.
    Atom(Atom),
    /// A boolean filter (selection) over bound variables.
    Filter(Expr),
    /// An assignment `X := expr` binding a new variable.
    Assign {
        /// The variable being bound.
        var: String,
        /// The defining expression.
        expr: Expr,
    },
}

impl fmt::Display for BodyLiteral {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BodyLiteral::Atom(a) => write!(f, "{a}"),
            BodyLiteral::Filter(e) => write!(f, "{e}"),
            BodyLiteral::Assign { var, expr } => write!(f, "{var} := {expr}"),
        }
    }
}

/// A single rule `head :- body.`
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Rule {
    /// Rule label (`r1`, `s2`, ...) — auto-generated when omitted.
    pub label: String,
    /// The SeNDlog context this rule executes in (`At S:`); `None` for plain
    /// NDlog rules.
    pub context: Option<Term>,
    /// The rule head.
    pub head: Atom,
    /// The rule body (conjunction).
    pub body: Vec<BodyLiteral>,
}

impl Rule {
    /// Body atoms only (skipping filters and assignments).
    pub fn body_atoms(&self) -> impl Iterator<Item = &Atom> {
        self.body.iter().filter_map(|l| match l {
            BodyLiteral::Atom(a) => Some(a),
            _ => None,
        })
    }

    /// The set of variables bound by body atoms and assignments.
    pub(crate) fn bound_variables(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for lit in &self.body {
            match lit {
                BodyLiteral::Atom(a) => out.extend(a.variables()),
                BodyLiteral::Assign { var, .. } => {
                    out.insert(var.clone());
                }
                BodyLiteral::Filter(_) => {}
            }
        }
        if let Some(Term::Variable(v)) = &self.context {
            out.insert(v.clone());
        }
        out
    }

    /// The distinct location-specifier variables used by body atoms.
    pub(crate) fn body_location_variables(&self) -> BTreeSet<String> {
        self.body_atoms()
            .filter_map(|a| a.location_term())
            .filter_map(|t| t.variable_name().map(|s| s.to_string()))
            .collect()
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} :- ", self.label, self.head)?;
        for (i, lit) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{lit}")?;
        }
        write!(f, ".")
    }
}

/// A ground fact inserted into a base relation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Fact {
    /// The ground atom.
    pub atom: Atom,
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.", self.atom)
    }
}

/// A parsed NDlog / SeNDlog program.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Program {
    /// Rules, in source order.
    pub rules: Vec<Rule>,
    /// Ground facts, in source order.
    pub facts: Vec<Fact>,
}

impl Program {
    /// Names of predicates that appear in some rule head (derived
    /// predicates); every other predicate is a base (extensional) relation.
    pub fn derived_predicates(&self) -> BTreeSet<String> {
        self.rules
            .iter()
            .map(|r| r.head.predicate.clone())
            .collect()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rule in &self.rules {
            writeln!(f, "{rule}")?;
        }
        for fact in &self.facts {
            writeln!(f, "{fact}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// True if any head argument is an aggregate.
    fn has_aggregate(atom: &Atom) -> bool {
        atom.args.iter().any(|t| matches!(t, Term::Aggregate(..)))
    }

    /// True if any rule or body atom uses SeNDlog constructs (`says`,
    /// context blocks, export annotations).
    fn uses_sendlog(program: &Program) -> bool {
        program.rules.iter().any(|r| {
            r.context.is_some()
                || r.head.export_to.is_some()
                || r.body_atoms().any(|a| a.says.is_some())
        })
    }

    fn reachable_rule() -> Rule {
        // r2 reachable(@S,D) :- link(@S,Z), reachable(@Z,D).
        Rule {
            label: "r2".into(),
            context: None,
            head: Atom::new("reachable", vec![Term::var("S"), Term::var("D")]).at(0),
            body: vec![
                BodyLiteral::Atom(Atom::new("link", vec![Term::var("S"), Term::var("Z")]).at(0)),
                BodyLiteral::Atom(
                    Atom::new("reachable", vec![Term::var("Z"), Term::var("D")]).at(0),
                ),
            ],
        }
    }

    #[test]
    fn atom_display_shows_location_and_annotations() {
        let atom = Atom::new("reachable", vec![Term::var("S"), Term::var("D")]).at(0);
        assert_eq!(atom.to_string(), "reachable(@S,D)");

        let says = Atom::new("linkD", vec![Term::var("S"), Term::var("Z")]).said_by(Term::var("Z"));
        assert_eq!(says.to_string(), "Z says linkD(S,Z)");

        let mut exported = Atom::new("reachable", vec![Term::var("Z"), Term::var("Y")]);
        exported.export_to = Some(Term::var("Z"));
        assert_eq!(exported.to_string(), "reachable(Z,Y)@Z");
    }

    #[test]
    fn rule_display_matches_surface_syntax() {
        assert_eq!(
            reachable_rule().to_string(),
            "r2 reachable(@S,D) :- link(@S,Z), reachable(@Z,D)."
        );
    }

    #[test]
    fn rule_variable_collection() {
        let rule = reachable_rule();
        let bound = rule.bound_variables();
        assert!(bound.contains("S") && bound.contains("Z") && bound.contains("D"));
        assert_eq!(
            rule.body_location_variables()
                .into_iter()
                .collect::<Vec<_>>(),
            vec!["S".to_string(), "Z".to_string()]
        );
    }

    #[test]
    fn program_predicate_classification() {
        let program = Program {
            rules: vec![reachable_rule()],
            facts: vec![Fact {
                atom: Atom::new(
                    "link",
                    vec![
                        Term::constant(Value::Addr(0)),
                        Term::constant(Value::Addr(1)),
                    ],
                ),
            }],
        };
        assert!(program.derived_predicates().contains("reachable"));
        assert!(!program.derived_predicates().contains("link"));
        assert!(!uses_sendlog(&program));
    }

    #[test]
    fn sendlog_detection() {
        let mut rule = reachable_rule();
        rule.context = Some(Term::var("S"));
        let program = Program {
            rules: vec![rule],
            facts: vec![],
        };
        assert!(uses_sendlog(&program));
    }

    #[test]
    fn ground_atoms_and_aggregates() {
        let ground = Atom::new(
            "link",
            vec![
                Term::constant(Value::Addr(1)),
                Term::constant(Value::Addr(2)),
            ],
        );
        assert!(ground.is_ground());
        let agg = Atom::new(
            "bestPathCost",
            vec![
                Term::var("S"),
                Term::var("D"),
                Term::Aggregate(AggFunc::Min, "C".into()),
            ],
        );
        assert!(has_aggregate(&agg));
        assert!(!agg.is_ground());
        assert_eq!(agg.to_string(), "bestPathCost(S,D,a_MIN<C>)");
    }

    #[test]
    fn an_aggregate_is_a_value_of_its_candidate_multiset() {
        // Candidates 3, 3 and -1: two entries at 3, one at -1.
        let candidates = BTreeMap::from([(-1, vec!['a']), (3, vec!['b', 'c'])]);
        let value = |func: AggFunc| func.value_of(&candidates);
        assert_eq!(value(AggFunc::Min), Some(-1));
        assert_eq!(value(AggFunc::Max), Some(3));
        assert_eq!(value(AggFunc::Count), Some(3));
        assert_eq!(value(AggFunc::Sum), Some(5));
        let empty: BTreeMap<i64, Vec<char>> = BTreeMap::new();
        assert_eq!(AggFunc::Count.value_of(&empty), None);
    }

    #[test]
    fn expr_display_and_variables() {
        let e = Expr::BinOp(
            BinOp::Add,
            Box::new(Expr::var("C1")),
            Box::new(Expr::var("C2")),
        );
        assert_eq!(e.to_string(), "(C1 + C2)");
        let mut vars = BTreeSet::new();
        e.variables(&mut vars);
        assert_eq!(vars.len(), 2);

        let call = Expr::Call("f_concat".into(), vec![Expr::var("S"), Expr::var("P")]);
        assert_eq!(call.to_string(), "f_concat(S, P)");
    }

    #[test]
    fn binop_metadata() {
        assert_eq!(BinOp::Ne.symbol(), "!=");
    }

    #[test]
    #[should_panic(expected = "location index out of range")]
    fn atom_location_bounds_checked() {
        let _ = Atom::new("p", vec![Term::var("X")]).at(3);
    }
}
