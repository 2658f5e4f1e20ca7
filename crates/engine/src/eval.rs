//! Expression evaluation, unification, and NDlog built-in functions, over
//! the planner's compiled forms only: `Bindings` is a flat slot frame, and
//! every variable is read through the dense slot `pasn_datalog::plan`
//! assigned it — there is no by-name path.

use pasn_datalog::plan::{Builtin, SlotExpr, SlotTerm};
use pasn_datalog::{BinOp, Value};
use std::fmt;

/// Variable bindings accumulated while evaluating a rule body: one
/// `Option<Value>` per dense slot of the rule's plan
/// ([`pasn_datalog::RulePlan::slot_count`]), so branching through a join is a
/// plain vector copy.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Bindings {
    slots: Vec<Option<Value>>,
}

impl Bindings {
    /// Creates an empty frame of `slot_count` slots.
    pub(crate) fn with_slots(slot_count: usize) -> Self {
        Bindings {
            slots: vec![None; slot_count],
        }
    }

    /// Looks up a variable by its dense slot.
    pub(crate) fn get_slot(&self, slot: usize) -> Option<&Value> {
        self.slots.get(slot).and_then(Option::as_ref)
    }

    /// Binds a variable by its dense slot (overwrites silently).
    pub(crate) fn bind_slot(&mut self, slot: usize, value: Value) {
        self.slots[slot] = Some(value);
    }

    /// The value `term` denotes under the current bindings (`None` for a
    /// wildcard or an unbound slot).
    pub(crate) fn value_of<'a>(&'a self, term: &'a SlotTerm) -> Option<&'a Value> {
        match term {
            SlotTerm::Const(value) => Some(value),
            SlotTerm::Slot(slot) => self.get_slot(*slot),
            SlotTerm::Wildcard => None,
        }
    }

    /// Attempts to unify `term` with `value`: constants must match, variables
    /// either bind or must agree with their existing binding, wildcards always
    /// match.  Every slot this call binds is pushed onto `bound`, so a caller
    /// trying one candidate row after another on the same frame can take the
    /// attempt back with [`Bindings::unbind`] instead of cloning the frame
    /// per candidate.  Returns false (leaving bindings possibly extended for
    /// fresh variables) when unification fails.
    pub(crate) fn unify_slot_term(
        &mut self,
        term: &SlotTerm,
        value: &Value,
        bound: &mut Vec<usize>,
    ) -> bool {
        match term {
            SlotTerm::Wildcard => true,
            SlotTerm::Const(c) => c == value,
            SlotTerm::Slot(slot) => match &self.slots[*slot] {
                Some(existing) => existing == value,
                None => {
                    self.slots[*slot] = Some(value.clone());
                    bound.push(*slot);
                    true
                }
            },
        }
    }

    /// Clears (and forgets) the slots recorded in `bound`.
    pub(crate) fn unbind(&mut self, bound: &mut Vec<usize>) {
        for slot in bound.drain(..) {
            self.slots[slot] = None;
        }
    }
}

/// Errors raised while evaluating expressions.  Unknown functions, wrong
/// argument counts and never-bound variables are not among them: the planner
/// rejects those before evaluation starts.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum EvalError {
    /// A slot had no binding (a frame not produced by the rule's plan).
    UnboundSlot(usize),
    /// Operand types did not match the operator.
    TypeMismatch {
        /// The operation being evaluated.
        operation: String,
        /// Description of the offending operands.
        operands: String,
    },
    /// Division or remainder by zero.
    DivisionByZero,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundSlot(slot) => write!(f, "variable slot {slot} is unbound"),
            EvalError::TypeMismatch {
                operation,
                operands,
            } => {
                write!(f, "type mismatch in {operation}: {operands}")
            }
            EvalError::DivisionByZero => write!(f, "division by zero"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Evaluates a compiled expression under the given bindings.
pub(crate) fn eval_expr(expr: &SlotExpr, bindings: &Bindings) -> Result<Value, EvalError> {
    match expr {
        SlotExpr::Const(value) => Ok(value.clone()),
        SlotExpr::Slot(slot) => bindings
            .get_slot(*slot)
            .cloned()
            .ok_or(EvalError::UnboundSlot(*slot)),
        SlotExpr::BinOp(op, lhs, rhs) => {
            let l = eval_expr(lhs, bindings)?;
            let r = eval_expr(rhs, bindings)?;
            eval_binop(*op, &l, &r)
        }
        // Every built-in but the variadic `f_list` takes one or two
        // arguments: those are evaluated onto the stack.
        SlotExpr::Call(builtin, args) => match &args[..] {
            [a] => eval_builtin(*builtin, &[eval_expr(a, bindings)?]),
            [a, b] => {
                let values = [eval_expr(a, bindings)?, eval_expr(b, bindings)?];
                eval_builtin(*builtin, &values)
            }
            _ => {
                let values: Result<Vec<Value>, EvalError> =
                    args.iter().map(|a| eval_expr(a, bindings)).collect();
                eval_builtin(*builtin, &values?)
            }
        },
    }
}

/// Evaluates a compiled filter expression to a boolean.
pub(crate) fn eval_filter(expr: &SlotExpr, bindings: &Bindings) -> Result<bool, EvalError> {
    match eval_expr(expr, bindings)? {
        Value::Bool(b) => Ok(b),
        other => Err(EvalError::TypeMismatch {
            operation: "filter".into(),
            operands: format!("expected bool, got {} ({})", other, other.type_name()),
        }),
    }
}

fn eval_binop(op: BinOp, l: &Value, r: &Value) -> Result<Value, EvalError> {
    use BinOp::*;
    let type_err = |operation: &str| EvalError::TypeMismatch {
        operation: operation.to_string(),
        operands: format!("{} ({}) and {} ({})", l, l.type_name(), r, r.type_name()),
    };
    match op {
        Add | Sub | Mul | Div | Mod => {
            let (a, b) = match (l, r) {
                (Value::Int(a), Value::Int(b)) => (*a, *b),
                _ => return Err(type_err(op.symbol())),
            };
            let result = match op {
                Add => a.wrapping_add(b),
                Sub => a.wrapping_sub(b),
                Mul => a.wrapping_mul(b),
                Div => {
                    if b == 0 {
                        return Err(EvalError::DivisionByZero);
                    }
                    a / b
                }
                Mod => {
                    if b == 0 {
                        return Err(EvalError::DivisionByZero);
                    }
                    a % b
                }
                _ => unreachable!(),
            };
            Ok(Value::Int(result))
        }
        Eq => Ok(Value::Bool(l == r)),
        Ne => Ok(Value::Bool(l != r)),
        Lt | Le | Gt | Ge => {
            // Ordered comparison requires same-variant comparable values.
            let ordering = match (l, r) {
                (Value::Int(a), Value::Int(b)) => a.cmp(b),
                (Value::Str(a), Value::Str(b)) => a.cmp(b),
                (Value::Addr(a), Value::Addr(b)) => a.cmp(b),
                _ => return Err(type_err(op.symbol())),
            };
            let result = match op {
                Lt => ordering.is_lt(),
                Le => ordering.is_le(),
                Gt => ordering.is_gt(),
                Ge => ordering.is_ge(),
                _ => unreachable!(),
            };
            Ok(Value::Bool(result))
        }
        And | Or => {
            let (a, b) = match (l, r) {
                (Value::Bool(a), Value::Bool(b)) => (*a, *b),
                _ => return Err(type_err(op.symbol())),
            };
            Ok(Value::Bool(if op == And { a && b } else { a || b }))
        }
    }
}

/// NDlog built-in functions.  Argument counts were checked by the planner.
fn eval_builtin(builtin: Builtin, args: &[Value]) -> Result<Value, EvalError> {
    let mismatch = |operands: String| EvalError::TypeMismatch {
        operation: builtin.name().into(),
        operands,
    };
    let list = |i: usize, which: &str| {
        let found = &args[i];
        let describe = || mismatch(format!("{which} must be a list, got {found}"));
        found.as_list().ok_or_else(describe)
    };
    match builtin {
        Builtin::Init => Ok(Value::List(args[..2].into())),
        Builtin::Concat => {
            let tail = list(1, "second argument")?.iter();
            let items = std::iter::once(&args[0]).chain(tail);
            Ok(Value::List(items.cloned().collect()))
        }
        Builtin::Append => {
            let head = list(0, "first argument")?.iter();
            let items = head.chain(std::iter::once(&args[1]));
            Ok(Value::List(items.cloned().collect()))
        }
        Builtin::Member => Ok(Value::Bool(list(0, "first argument")?.contains(&args[1]))),
        Builtin::Size => Ok(Value::Int(list(0, "argument")?.len() as i64)),
        Builtin::First | Builtin::Last => {
            let items = list(0, "argument")?;
            let item = if builtin == Builtin::First {
                items.first()
            } else {
                items.last()
            };
            item.cloned().ok_or_else(|| mismatch("empty list".into()))
        }
        Builtin::List => Ok(Value::List(args.into())),
        Builtin::Min | Builtin::Max => match (&args[0], &args[1]) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(if builtin == Builtin::Min {
                *a.min(b)
            } else {
                *a.max(b)
            })),
            _ => Err(mismatch(format!("{} and {}", args[0], args[1]))),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasn_datalog::parse_rule;
    use pasn_datalog::plan::{PlanStep, RulePlan};
    use pasn_datalog::Symbols;

    /// Fires the single-atom rule `source` on one delta `row` through the
    /// production path — `parse_rule` → `RulePlan::for_rule_in` → the delta
    /// plan's filters and assignments — and returns the head row (`None`
    /// when a filter rejects the row).
    fn fire(source: &str, row: &[Value]) -> Result<Option<Vec<Value>>, EvalError> {
        let plan =
            RulePlan::for_rule_in(&parse_rule(source).unwrap(), &mut Symbols::new()).unwrap();
        let delta = &plan.deltas[0];
        let mut bindings = Bindings::with_slots(plan.slot_count);
        for (term, value) in delta.delta_args.iter().zip(row) {
            assert!(bindings.unify_slot_term(term, value, &mut Vec::new()));
        }
        for step in &delta.steps {
            match step {
                PlanStep::Filter(expr) => {
                    if !eval_filter(expr, &bindings)? {
                        return Ok(None);
                    }
                }
                PlanStep::Assign { slot, expr } => {
                    let value = eval_expr(expr, &bindings)?;
                    bindings.bind_slot(*slot, value);
                }
                PlanStep::Join(_) => unreachable!("single-atom rules have no joins"),
            }
        }
        let head = plan.head.args.iter();
        Ok(Some(
            head.map(|t| bindings.value_of(t).unwrap().clone())
                .collect(),
        ))
    }

    /// The value `X := <expr>` assigns over the row `q(@S, A, B)`.
    fn eval(expr: &str, a: Value, b: Value) -> Result<Value, EvalError> {
        let source = format!("r p(@S,X) :- q(@S,A,B), X := {expr}.");
        let head = fire(&source, &[Value::Addr(0), a, b])?;
        Ok(head.expect("no filter")[1].clone())
    }

    #[test]
    fn slot_frames_unify_constants_variables_and_wildcards() {
        let mut b = Bindings::with_slots(2);
        let mut bound = Vec::new();
        assert_eq!(b.get_slot(0), None);
        assert!(b.unify_slot_term(&SlotTerm::Slot(0), &Value::Addr(1), &mut bound));
        assert_eq!(b.get_slot(0), Some(&Value::Addr(1)));
        assert_eq!(b.get_slot(1), None);
        // Rebinding to the same value succeeds, to a different one fails;
        // neither binds anything new.
        assert!(b.unify_slot_term(&SlotTerm::Slot(0), &Value::Addr(1), &mut bound));
        assert!(!b.unify_slot_term(&SlotTerm::Slot(0), &Value::Addr(2), &mut bound));
        assert_eq!(bound, vec![0]);
        let three = SlotTerm::Const(Value::Int(3));
        assert!(b.unify_slot_term(&three, &Value::Int(3), &mut bound));
        assert!(!b.unify_slot_term(&three, &Value::Int(4), &mut bound));
        assert!(b.unify_slot_term(&SlotTerm::Wildcard, &Value::Int(9), &mut bound));
        // Taking the attempt back frees exactly the slots it bound.
        b.unbind(&mut bound);
        assert_eq!((b.get_slot(0), bound.len()), (None, 0));
        // bind_slot overwrites.
        b.bind_slot(1, Value::Addr(7));
        b.bind_slot(1, Value::Addr(8));
        assert_eq!(b.value_of(&SlotTerm::Slot(1)), Some(&Value::Addr(8)));
        assert_eq!(b.value_of(&SlotTerm::Wildcard), None);
        // An empty slot is an error, not a panic.
        let empty = Bindings::with_slots(1);
        assert_eq!(
            eval_expr(&SlotExpr::Slot(0), &empty),
            Err(EvalError::UnboundSlot(0))
        );
    }

    #[test]
    fn arithmetic_and_comparison() {
        assert_eq!(
            eval("A + B * 3", Value::Int(2), Value::Int(5)),
            Ok(Value::Int(17))
        );
        let row = [Value::Addr(0), Value::Int(2), Value::Int(5)];
        let kept = fire("r p(@S) :- q(@S,C1,C2), C1 < C2, C1 != 3.", &row);
        assert_eq!(kept, Ok(Some(vec![Value::Addr(0)])));
        let dropped = fire("r p(@S) :- q(@S,C1,C2), C1 < C2, C1 != 2.", &row);
        assert_eq!(dropped, Ok(None));
    }

    #[test]
    fn comparison_type_errors_and_division_by_zero() {
        let bad = eval("A < B", Value::Int(1), Value::Str("a".into()));
        assert!(matches!(bad, Err(EvalError::TypeMismatch { .. })));
        let div = eval("A / 0", Value::Int(1), Value::Int(0));
        assert_eq!(div, Err(EvalError::DivisionByZero));
        let rem = eval("A % B", Value::Int(1), Value::Int(0));
        assert_eq!(rem, Err(EvalError::DivisionByZero));
    }

    #[test]
    fn path_builtins_cover_best_path_usage() {
        let path = || Value::List(vec![Value::Addr(1), Value::Addr(3)].into());
        let eval = |expr: &str| eval(expr, Value::Addr(3), path()).unwrap();
        // Row: S = n0, A = n3, B = [n1, n3].
        // f_init(S,A) = [S,A]
        assert_eq!(
            eval("f_init(S,A)"),
            Value::List(vec![Value::Addr(0), Value::Addr(3)].into())
        );
        // f_concat(S, B) = [S | B]
        assert_eq!(
            eval("f_concat(S,B)"),
            Value::List(vec![Value::Addr(0), Value::Addr(1), Value::Addr(3)].into())
        );
        // f_member(B, S) = false, f_member(B, A) = true
        assert_eq!(eval("f_member(B,S)"), Value::Bool(false));
        assert_eq!(eval("f_member(B,A)"), Value::Bool(true));
        // f_size, f_first, f_last, f_append, f_list, f_min, f_max
        assert_eq!(eval("f_size(B)"), Value::Int(2));
        assert_eq!(eval("f_first(B)"), Value::Addr(1));
        assert_eq!(eval("f_last(B)"), Value::Addr(3));
        assert_eq!(
            eval("f_append(B,S)"),
            Value::List(vec![Value::Addr(1), Value::Addr(3), Value::Addr(0)].into())
        );
        assert_eq!(eval("f_list(S,A)"), eval("f_init(S,A)"));
        assert_eq!(eval("f_min(4,9)"), Value::Int(4));
        assert_eq!(eval("f_max(4,9)"), Value::Int(9));
    }

    #[test]
    fn builtin_error_cases() {
        let not_a_list = eval("f_member(1,1)", Value::Int(0), Value::Int(0));
        assert!(matches!(not_a_list, Err(EvalError::TypeMismatch { .. })));
        let empty_first = eval("f_first(f_list())", Value::Int(0), Value::Int(0));
        assert!(matches!(empty_first, Err(EvalError::TypeMismatch { .. })));
        let mixed_min = eval("f_min(A,B)", Value::Int(0), Value::Addr(0));
        assert!(matches!(mixed_min, Err(EvalError::TypeMismatch { .. })));
        // Unknown functions and wrong argument counts never reach evaluation.
        for source in [
            "r p(@S,X) :- q(@S,A), X := f_init(A).",
            "r p(@S,X) :- q(@S,A), X := f_frobnicate(A).",
        ] {
            assert!(
                RulePlan::for_rule_in(&parse_rule(source).unwrap(), &mut Symbols::new()).is_err()
            );
        }
        // Errors render as human-readable strings.
        assert!(EvalError::DivisionByZero.to_string().contains("zero"));
        assert!(EvalError::UnboundSlot(4).to_string().contains('4'));
    }

    #[test]
    fn boolean_connectives() {
        let row = [Value::Addr(0), Value::Bool(true), Value::Bool(false)];
        assert_eq!(fire("r p(@S) :- q(@S,A,B), A && B.", &row), Ok(None));
        let kept = fire("r p(@S) :- q(@S,A,B), A || B.", &row);
        assert_eq!(kept, Ok(Some(vec![Value::Addr(0)])));
        assert_eq!(
            eval("A && B", Value::Bool(true), Value::Bool(false)),
            Ok(Value::Bool(false))
        );
        assert_eq!(
            eval("A || B", Value::Bool(true), Value::Bool(false)),
            Ok(Value::Bool(true))
        );
        // A filter must evaluate to a boolean.
        assert!(fire("r p(@S) :- q(@S,A,B), 3.", &row).is_err());
    }
}
