//! Recursive-descent parser for NDlog / SeNDlog programs.
//!
//! The parser accepts the syntax used throughout the paper:
//!
//! ```text
//! r1 reachable(@S,D) :- link(@S,D).
//! r2 reachable(@S,D) :- link(@S,Z), reachable(@Z,D).
//!
//! At S:
//! s2 linkD(D,S)@D :- link(S,D).
//! s3 reachable(Z,Y)@Z :- Z says linkD(S,Z), W says reachable(S,Y).
//! ```
//!
//! plus arithmetic, assignments (`C := C1 + C2`), comparisons, built-in
//! function calls (`f_concat(S,P)`), aggregates in rule heads (`a_MIN<C>`)
//! and facts (`link(a,b,1).`).  What a program means — a fact being
//! ground among it — is `compile_program`'s to decide, not the parser's.

use crate::ast::{AggFunc, Atom, BinOp, BodyLiteral, Expr, Fact, Program, Rule, Term};
use crate::lexer::{tokenize, LexError, Token, TokenKind};
use crate::value::Value;
use std::fmt;

/// A parse error with source position.
#[derive(Clone, PartialEq, Debug)]
pub struct ParseError {
    /// Explanation of the failure.
    pub message: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number.
    pub col: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            line: e.line,
            col: e.col,
        }
    }
}

/// Parses a complete NDlog / SeNDlog program.
pub fn parse_program(source: &str) -> Result<Program, ParseError> {
    let tokens = tokenize(source)?;
    Parser::new(tokens).parse_program()
}

/// Parses a single rule (without a trailing context block).  Convenient in
/// tests and for building programs programmatically from rule strings.
pub fn parse_rule(source: &str) -> Result<Rule, ParseError> {
    let program = parse_program(source)?;
    program.rules.into_iter().next().ok_or_else(|| ParseError {
        message: "expected a rule".into(),
        line: 1,
        col: 1,
    })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    auto_label: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            auto_label: 0,
        }
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, offset: usize) -> &TokenKind {
        let idx = (self.pos + offset).min(self.tokens.len() - 1);
        &self.tokens[idx].kind
    }

    fn here(&self) -> (usize, usize) {
        let t = &self.tokens[self.pos.min(self.tokens.len() - 1)];
        (t.line, t.col)
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        let (line, col) = self.here();
        ParseError {
            message: message.into(),
            line,
            col,
        }
    }

    fn advance(&mut self) -> TokenKind {
        let kind = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        kind
    }

    fn expect(&mut self, expected: &TokenKind) -> Result<(), ParseError> {
        if self.peek() == expected {
            self.advance();
            Ok(())
        } else {
            Err(self.error(format!("expected {expected}, found {}", self.peek())))
        }
    }

    fn parse_program(&mut self) -> Result<Program, ParseError> {
        let mut program = Program::default();
        let mut current_context: Option<Term> = None;
        while *self.peek() != TokenKind::Eof {
            if self.at_context_header() {
                current_context = Some(self.parse_context_header()?);
                continue;
            }
            self.parse_statement(&mut program, current_context.clone())?;
        }
        Ok(program)
    }

    /// `At S:` — `At` lexes as a variable, `at` as an identifier.
    fn at_context_header(&self) -> bool {
        match self.peek() {
            TokenKind::Variable(v) if v == "At" => true,
            TokenKind::Ident(v) if v == "at" => {
                // Disambiguate from a predicate named `at`: a header is
                // followed by a term and then a colon.
                matches!(self.peek_at(2), TokenKind::Colon)
            }
            _ => false,
        }
    }

    fn parse_context_header(&mut self) -> Result<Term, ParseError> {
        self.advance(); // At
        let term = self.parse_term()?;
        self.expect(&TokenKind::Colon)?;
        Ok(term)
    }

    fn parse_statement(
        &mut self,
        program: &mut Program,
        context: Option<Term>,
    ) -> Result<(), ParseError> {
        // Optional label: an identifier immediately followed by another
        // identifier (the head predicate) or a variable (a `says` principal).
        let label = match (self.peek(), self.peek_at(1)) {
            (TokenKind::Ident(l), TokenKind::Ident(_)) => {
                let label = l.clone();
                self.advance();
                Some(label)
            }
            _ => None,
        };

        let head = self.parse_atom(true)?;

        match self.peek() {
            TokenKind::Period => {
                self.advance();
                if label.is_some() {
                    return Err(self.error("facts cannot carry a rule label"));
                }
                program.facts.push(Fact { atom: head });
                Ok(())
            }
            TokenKind::ColonDash => {
                self.advance();
                let body = self.parse_body()?;
                self.expect(&TokenKind::Period)?;
                let label = label.unwrap_or_else(|| {
                    self.auto_label += 1;
                    format!("rule{}", self.auto_label)
                });
                program.rules.push(Rule {
                    label,
                    context,
                    head,
                    body,
                });
                Ok(())
            }
            other => Err(self.error(format!("expected `.` or `:-`, found {other}"))),
        }
    }

    fn parse_body(&mut self) -> Result<Vec<BodyLiteral>, ParseError> {
        let mut literals = vec![self.parse_body_literal()?];
        while *self.peek() == TokenKind::Comma {
            self.advance();
            literals.push(self.parse_body_literal()?);
        }
        Ok(literals)
    }

    fn parse_body_literal(&mut self) -> Result<BodyLiteral, ParseError> {
        // Assignment: `X := expr`
        if let (TokenKind::Variable(v), TokenKind::ColonEq) = (self.peek(), self.peek_at(1)) {
            let var = v.clone();
            self.advance();
            self.advance();
            let expr = self.parse_expr()?;
            return Ok(BodyLiteral::Assign { var, expr });
        }
        // Atom: `pred(...)` possibly prefixed with `P says`.  Identifiers
        // starting with `f_` are NDlog built-in functions, so a leading
        // `f_member(...)` is a filter expression rather than a predicate.
        let is_atom = match (self.peek(), self.peek_at(1)) {
            (TokenKind::Ident(name), TokenKind::LParen) => !name.starts_with("f_"),
            (TokenKind::Ident(_) | TokenKind::Variable(_), TokenKind::Ident(kw))
                if kw == "says" =>
            {
                true
            }
            _ => false,
        };
        if is_atom {
            let atom = self.parse_atom(false)?;
            return Ok(BodyLiteral::Atom(atom));
        }
        // Otherwise a filter expression.
        let expr = self.parse_expr()?;
        Ok(BodyLiteral::Filter(expr))
    }

    fn parse_atom(&mut self, is_head: bool) -> Result<Atom, ParseError> {
        // Optional `P says` prefix.
        let says = match (self.peek(), self.peek_at(1)) {
            (TokenKind::Variable(v), TokenKind::Ident(kw)) if kw == "says" => {
                let t = Term::var(v.clone());
                self.advance();
                self.advance();
                Some(t)
            }
            (TokenKind::Ident(c), TokenKind::Ident(kw)) if kw == "says" => {
                let t = Term::Constant(ident_constant(c));
                self.advance();
                self.advance();
                Some(t)
            }
            _ => None,
        };

        let predicate = match self.advance() {
            TokenKind::Ident(name) => name,
            other => return Err(self.error(format!("expected predicate name, found {other}"))),
        };
        self.expect(&TokenKind::LParen)?;

        let mut args = Vec::new();
        let mut location = None;
        if *self.peek() != TokenKind::RParen {
            loop {
                let mut is_location = false;
                if *self.peek() == TokenKind::At {
                    self.advance();
                    is_location = true;
                }
                let term = self.parse_atom_arg(is_head)?;
                if is_location {
                    if location.is_some() {
                        return Err(self.error("multiple location specifiers in one atom"));
                    }
                    location = Some(args.len());
                }
                args.push(term);
                if *self.peek() == TokenKind::Comma {
                    self.advance();
                } else {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;

        // SeNDlog export annotation `@Z` after a head atom.
        let mut export_to = None;
        if is_head && *self.peek() == TokenKind::At {
            self.advance();
            export_to = Some(self.parse_term()?);
        }

        let mut atom = Atom::new(predicate, args);
        atom.location = location;
        atom.export_to = export_to;
        atom.says = says;
        Ok(atom)
    }

    fn parse_atom_arg(&mut self, is_head: bool) -> Result<Term, ParseError> {
        // Aggregate: a_MIN<C>
        if let TokenKind::Ident(name) = self.peek() {
            let func = match name.to_ascii_uppercase().as_str() {
                "A_MIN" => Some(AggFunc::Min),
                "A_MAX" => Some(AggFunc::Max),
                "A_COUNT" => Some(AggFunc::Count),
                "A_SUM" => Some(AggFunc::Sum),
                _ => None,
            };
            if let Some(func) = func {
                if *self.peek_at(1) == TokenKind::Lt {
                    if !is_head {
                        return Err(self.error("aggregates are only allowed in rule heads"));
                    }
                    self.advance(); // a_MIN
                    self.advance(); // <
                    let var = match self.advance() {
                        TokenKind::Variable(v) => v,
                        other => {
                            return Err(
                                self.error(format!("expected aggregate variable, found {other}"))
                            )
                        }
                    };
                    self.expect(&TokenKind::Gt)?;
                    return Ok(Term::Aggregate(func, var));
                }
            }
        }
        self.parse_term()
    }

    fn parse_term(&mut self) -> Result<Term, ParseError> {
        match self.peek().clone() {
            TokenKind::Variable(v) => {
                self.advance();
                Ok(Term::Variable(v))
            }
            TokenKind::Underscore => {
                self.advance();
                Ok(Term::Wildcard)
            }
            _ => {
                let value = self.parse_constant()?;
                Ok(Term::Constant(value))
            }
        }
    }

    fn parse_constant(&mut self) -> Result<Value, ParseError> {
        match self.advance() {
            TokenKind::Number(n) => Ok(Value::Int(n)),
            TokenKind::Minus => match self.advance() {
                TokenKind::Number(n) => Ok(Value::Int(-n)),
                other => Err(self.error(format!("expected number after `-`, found {other}"))),
            },
            TokenKind::StringLit(s) => Ok(Value::Str(s.into())),
            TokenKind::Ident(name) => Ok(ident_constant(&name)),
            TokenKind::LBracket => {
                let mut items = Vec::new();
                if *self.peek() != TokenKind::RBracket {
                    loop {
                        items.push(self.parse_constant()?);
                        if *self.peek() == TokenKind::Comma {
                            self.advance();
                        } else {
                            break;
                        }
                    }
                }
                self.expect(&TokenKind::RBracket)?;
                Ok(Value::List(items.into()))
            }
            other => Err(self.error(format!("expected constant, found {other}"))),
        }
    }

    // ---- expressions ----------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_and()?;
        while *self.peek() == TokenKind::OrOr {
            self.advance();
            let rhs = self.parse_and()?;
            lhs = Expr::BinOp(BinOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_cmp()?;
        while *self.peek() == TokenKind::AndAnd {
            self.advance();
            let rhs = self.parse_cmp()?;
            lhs = Expr::BinOp(BinOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_cmp(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.parse_add()?;
        let op = match self.peek() {
            TokenKind::Lt => Some(BinOp::Lt),
            TokenKind::Le => Some(BinOp::Le),
            TokenKind::Gt => Some(BinOp::Gt),
            TokenKind::Ge => Some(BinOp::Ge),
            TokenKind::EqEq => Some(BinOp::Eq),
            TokenKind::Ne => Some(BinOp::Ne),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let rhs = self.parse_add()?;
            Ok(Expr::BinOp(op, Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn parse_add(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_mul()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.advance();
            let rhs = self.parse_mul()?;
            lhs = Expr::BinOp(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_mul(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_primary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Mod,
                _ => break,
            };
            self.advance();
            let rhs = self.parse_primary()?;
            lhs = Expr::BinOp(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            TokenKind::LParen => {
                self.advance();
                let e = self.parse_expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Variable(v) => {
                self.advance();
                Ok(Expr::var(v))
            }
            TokenKind::Ident(name) => {
                // Function call or identifier constant.
                if *self.peek_at(1) == TokenKind::LParen {
                    self.advance();
                    self.advance();
                    let mut args = Vec::new();
                    if *self.peek() != TokenKind::RParen {
                        loop {
                            args.push(self.parse_expr()?);
                            if *self.peek() == TokenKind::Comma {
                                self.advance();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(&TokenKind::RParen)?;
                    Ok(Expr::Call(name, args))
                } else {
                    self.advance();
                    Ok(Expr::Term(Term::Constant(ident_constant(&name))))
                }
            }
            TokenKind::LBracket => {
                // A list expression: [e1, e2, ...] becomes f_list(e1, e2, ...).
                self.advance();
                let mut items = Vec::new();
                if *self.peek() != TokenKind::RBracket {
                    loop {
                        items.push(self.parse_expr()?);
                        if *self.peek() == TokenKind::Comma {
                            self.advance();
                        } else {
                            break;
                        }
                    }
                }
                self.expect(&TokenKind::RBracket)?;
                Ok(Expr::Call("f_list".into(), items))
            }
            TokenKind::Number(_) | TokenKind::Minus | TokenKind::StringLit(_) => {
                let v = self.parse_constant()?;
                Ok(Expr::constant(v))
            }
            other => Err(self.error(format!("expected expression, found {other}"))),
        }
    }
}

/// Interprets a lower-case identifier used as a constant: `true`/`false` are
/// booleans, everything else is a string symbol (node names like `a`, `b`).
fn ident_constant(name: &str) -> Value {
    match name {
        "true" => Value::Bool(true),
        "false" => Value::Bool(false),
        _ => Value::Str(name.into()),
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

    const REACHABLE: &str = "
        r1 reachable(@S,D) :- link(@S,D).
        r2 reachable(@S,D) :- link(@S,Z), reachable(@Z,D).
        link(a,b).
        link(a,c).
        link(b,c).
    ";

    const SENDLOG_REACHABLE: &str = "
        At S:
        s1 reachable(S,D) :- link(S,D).
        s2 linkD(D,S)@D :- link(S,D).
        s3 reachable(Z,Y)@Z :- Z says linkD(S,Z), W says reachable(S,Y).
    ";

    const BEST_PATH: &str = "
        sp1 path(@S,D,P,C) :- link(@S,D,C), P := f_init(S,D).
        sp2 path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2), C := C1 + C2, P := f_concat(S,P2).
        sp3 bestPathCost(@S,D,a_MIN<C>) :- path(@S,D,P,C).
        sp4 bestPath(@S,D,P,C) :- bestPathCost(@S,D,C), path(@S,D,P,C).
    ";

    #[test]
    fn parses_the_reachability_program() {
        let program = parse_program(REACHABLE).unwrap();
        assert_eq!(program.rules.len(), 2);
        assert_eq!(program.facts.len(), 3);
        assert_eq!(program.rules[0].label, "r1");
        assert_eq!(program.rules[1].body.len(), 2);
        assert_eq!(program.rules[0].head.location, Some(0));
        assert!(!uses_sendlog(&program));
        // The pretty-printed rule round-trips through the parser.
        let printed = program.rules[1].to_string();
        let reparsed = parse_rule(&printed).unwrap();
        assert_eq!(reparsed.head, program.rules[1].head);
    }

    #[test]
    fn parses_the_sendlog_program_with_contexts() {
        let program = parse_program(SENDLOG_REACHABLE).unwrap();
        assert_eq!(program.rules.len(), 3);
        assert!(uses_sendlog(&program));
        for rule in &program.rules {
            assert_eq!(rule.context, Some(Term::var("S")));
        }
        let s2 = &program.rules[1];
        assert_eq!(s2.head.export_to, Some(Term::var("D")));
        let s3 = &program.rules[2];
        let atoms: Vec<&Atom> = s3.body_atoms().collect();
        assert_eq!(atoms[0].says, Some(Term::var("Z")));
        assert_eq!(atoms[1].says, Some(Term::var("W")));
        assert_eq!(s3.head.export_to, Some(Term::var("Z")));
    }

    #[test]
    fn parses_best_path_with_aggregates_and_assignments() {
        let program = parse_program(BEST_PATH).unwrap();
        assert_eq!(program.rules.len(), 4);
        let sp2 = &program.rules[1];
        let assigns: Vec<_> = sp2
            .body
            .iter()
            .filter(|l| matches!(l, BodyLiteral::Assign { .. }))
            .collect();
        assert_eq!(assigns.len(), 2);
        let sp3 = &program.rules[2];
        assert!(has_aggregate(&sp3.head));
        assert_eq!(sp3.head.args[2], Term::Aggregate(AggFunc::Min, "C".into()));
    }

    #[test]
    fn parses_filters_and_arithmetic_precedence() {
        let rule = parse_rule("r alarm(@S,N) :- change(@S,N), N > 3 + 2 * 4.").unwrap();
        let filter = rule
            .body
            .iter()
            .find_map(|l| match l {
                BodyLiteral::Filter(e) => Some(e.clone()),
                _ => None,
            })
            .unwrap();
        // N > (3 + (2*4))
        assert_eq!(filter.to_string(), "(N > (3 + (2 * 4)))");
    }

    #[test]
    fn parses_facts_with_varied_constants() {
        let program =
            parse_program("cost(a, b, 5).\nflag(c, true).\nname(d, \"edge\").\npathv(a, [a,b,c]).")
                .unwrap();
        assert_eq!(program.facts.len(), 4);
        assert_eq!(program.facts[0].atom.args[2], Term::Constant(Value::Int(5)));
        assert_eq!(
            program.facts[1].atom.args[1],
            Term::Constant(Value::Bool(true))
        );
        assert_eq!(
            program.facts[2].atom.args[1],
            Term::Constant(Value::Str("edge".into()))
        );
        assert_eq!(
            program.facts[3].atom.args[1],
            Term::Constant(Value::List(
                vec![
                    Value::Str("a".into()),
                    Value::Str("b".into()),
                    Value::Str("c".into())
                ]
                .into()
            ))
        );
    }

    #[test]
    fn rejects_labelled_facts() {
        let err = parse_program("f1 link(a, b).").unwrap_err();
        assert!(err.message.contains("label"), "{}", err.message);
    }

    #[test]
    fn rejects_aggregates_in_bodies() {
        let err = parse_program("r p(@S, C) :- q(@S, a_MIN<C>).").unwrap_err();
        assert!(err.message.contains("rule heads"), "{}", err.message);
    }

    #[test]
    fn rejects_duplicate_location_specifiers() {
        let err = parse_program("r p(@S, @D) :- q(@S, D).").unwrap_err();
        assert!(err.message.contains("multiple location"), "{}", err.message);
    }

    #[test]
    fn reports_positions_in_errors() {
        let err =
            parse_program("r1 reachable(@S,D) :- link(@S,D)\nr2 p(@S) :- q(@S).").unwrap_err();
        // Missing period after the first rule is detected at the second line.
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("parse error"));
    }

    #[test]
    fn auto_labels_unlabelled_rules() {
        let program = parse_program("reachable(@S,D) :- link(@S,D).").unwrap();
        assert_eq!(program.rules[0].label, "rule1");
    }

    #[test]
    fn parses_wildcards_and_negative_numbers() {
        let rule = parse_rule("r t(@S,C) :- m(@S, _, C), C != -1.").unwrap();
        let atom = rule.body_atoms().next().unwrap();
        assert_eq!(atom.args[1], Term::Wildcard);
        let filter = rule
            .body
            .iter()
            .find_map(|l| match l {
                BodyLiteral::Filter(e) => Some(e.to_string()),
                _ => None,
            })
            .unwrap();
        assert_eq!(filter, "(C != -1)");
    }

    #[test]
    fn parses_says_with_constant_principal() {
        let rule = parse_rule("r accept(@S,X) :- b says update(S,X).").unwrap();
        let atom = rule.body_atoms().next().unwrap();
        assert_eq!(atom.says, Some(Term::Constant(Value::Str("b".into()))));
    }

    #[test]
    fn parses_list_expressions_in_assignments() {
        let rule = parse_rule("r p(@S,P) :- q(@S), P := [1, 2, 3].").unwrap();
        let assign = rule
            .body
            .iter()
            .find_map(|l| match l {
                BodyLiteral::Assign { expr, .. } => Some(expr.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(
            assign,
            Expr::Call(
                "f_list".into(),
                vec![
                    Expr::constant(Value::Int(1)),
                    Expr::constant(Value::Int(2)),
                    Expr::constant(Value::Int(3)),
                ]
            )
        );
    }
}
