//! Global program states and predicate evaluation.
//!
//! A state is "a map assigning values to variables" (Section 1). The
//! observer reconstructs these maps from the write messages and evaluates
//! the specification's atoms over them.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use jmpax_core::{Value, VarId};

use crate::ast::{Atom, BinOp, CmpOp, Expr};

/// A global state: shared-variable values at one point of a run.
///
/// Variables never written (and absent from the initial state) read as
/// integer `0` — the same default the JVM gives primitive fields.
///
/// The values are a vector sorted by variable: the observer clones one
/// state per lattice node and reads a handful of variables from it, which
/// a flat vector serves with one allocation and a binary search.
#[derive(Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ProgramState {
    /// Ascending by variable, one entry per variable.
    values: Vec<(VarId, Value)>,
}

impl ProgramState {
    /// The empty state (all variables 0).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a state from any `(VarId, Value)` map.
    #[must_use]
    pub fn from_map(values: BTreeMap<VarId, Value>) -> Self {
        Self {
            values: values.into_iter().collect(),
        }
    }

    /// The value of `var` (integer 0 when unset).
    #[must_use]
    pub fn get(&self, var: VarId) -> Value {
        match self.values.binary_search_by_key(&var, |&(v, _)| v) {
            Ok(i) => self.values[i].1,
            Err(_) => Value::Int(0),
        }
    }

    /// Sets `var` to `value`.
    pub fn set(&mut self, var: VarId, value: impl Into<Value>) {
        let value = value.into();
        match self.values.binary_search_by_key(&var, |&(v, _)| v) {
            Ok(i) => self.values[i].1 = value,
            Err(i) => self.values.insert(i, (var, value)),
        }
    }

    /// Returns a copy with `var` updated — the state-transition taken when
    /// the observer applies one write message.
    #[must_use]
    pub fn updated(&self, var: VarId, value: Value) -> ProgramState {
        let mut next = self.clone();
        next.set(var, value);
        next
    }

    /// Iterates over explicitly set variables in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, Value)> + '_ {
        self.values.iter().copied()
    }

    /// Evaluates an arithmetic expression over this state.
    ///
    /// Division and modulo by zero evaluate to 0 (monitors must be total:
    /// a crash in the observer must never take down the analysis).
    /// Arithmetic wraps on overflow for the same reason.
    #[must_use]
    pub fn eval_expr(&self, expr: &Expr) -> i64 {
        match expr {
            Expr::Const(c) => *c,
            Expr::Var(v) => self.get(*v).as_int(),
            Expr::Neg(e) => self.eval_expr(e).wrapping_neg(),
            Expr::Bin(op, a, b) => {
                let a = self.eval_expr(a);
                let b = self.eval_expr(b);
                match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    BinOp::Div => {
                        if b == 0 {
                            0
                        } else {
                            a.wrapping_div(b)
                        }
                    }
                    BinOp::Mod => {
                        if b == 0 {
                            0
                        } else {
                            a.wrapping_rem(b)
                        }
                    }
                }
            }
        }
    }

    /// Evaluates an atomic predicate over this state.
    #[must_use]
    pub fn eval_atom(&self, atom: &Atom) -> bool {
        match atom {
            Atom::BoolVar(v) => self.get(*v).as_bool(),
            Atom::Cmp(a, op, b) => {
                let a = self.eval_expr(a);
                let b = self.eval_expr(b);
                match op {
                    CmpOp::Eq => a == b,
                    CmpOp::Ne => a != b,
                    CmpOp::Lt => a < b,
                    CmpOp::Le => a <= b,
                    CmpOp::Gt => a > b,
                    CmpOp::Ge => a >= b,
                }
            }
        }
    }
}

impl fmt::Display for ProgramState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, (var, value)) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{var}={value}")?;
        }
        write!(f, ">")
    }
}

/// Renders like the map it models (`ProgramState { values: {v: x, ..} }`).
impl fmt::Debug for ProgramState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProgramState")
            .field("values", &self.iter().collect::<BTreeMap<_, _>>())
            .finish()
    }
}

/// Later pairs overwrite earlier ones for the same variable.
impl FromIterator<(VarId, Value)> for ProgramState {
    fn from_iter<I: IntoIterator<Item = (VarId, Value)>>(iter: I) -> Self {
        Self::from_map(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const X: VarId = VarId(0);
    const Y: VarId = VarId(1);

    #[test]
    fn defaults_to_zero() {
        let s = ProgramState::new();
        assert_eq!(s.get(X), Value::Int(0));
        assert_eq!(s.eval_expr(&Expr::Var(X)), 0);
    }

    #[test]
    fn set_and_update() {
        let mut s = ProgramState::new();
        s.set(X, 3);
        let s2 = s.updated(Y, Value::Int(4));
        assert_eq!(s.get(Y), Value::Int(0)); // original untouched
        assert_eq!(s2.get(X), Value::Int(3));
        assert_eq!(s2.get(Y), Value::Int(4));
    }

    #[test]
    fn arithmetic() {
        let mut s = ProgramState::new();
        s.set(X, 7);
        let e = Expr::Bin(BinOp::Add, Box::new(Expr::Var(X)), Box::new(Expr::Const(1)));
        assert_eq!(s.eval_expr(&e), 8);
        let e = Expr::Neg(Box::new(Expr::Var(X)));
        assert_eq!(s.eval_expr(&e), -7);
        let e = Expr::Bin(BinOp::Mul, Box::new(Expr::Var(X)), Box::new(Expr::Const(3)));
        assert_eq!(s.eval_expr(&e), 21);
    }

    #[test]
    fn division_by_zero_is_total() {
        let s = ProgramState::new();
        let div = Expr::Bin(BinOp::Div, Box::new(Expr::Const(5)), Box::new(Expr::Var(X)));
        let modulo = Expr::Bin(BinOp::Mod, Box::new(Expr::Const(5)), Box::new(Expr::Var(X)));
        assert_eq!(s.eval_expr(&div), 0);
        assert_eq!(s.eval_expr(&modulo), 0);
    }

    #[test]
    fn overflow_wraps() {
        let mut s = ProgramState::new();
        s.set(X, i64::MAX);
        let e = Expr::Bin(BinOp::Add, Box::new(Expr::Var(X)), Box::new(Expr::Const(1)));
        assert_eq!(s.eval_expr(&e), i64::MIN);
    }

    #[test]
    fn comparisons() {
        let mut s = ProgramState::new();
        s.set(X, 2);
        s.set(Y, 3);
        let cmp = |op| Atom::Cmp(Expr::Var(X), op, Expr::Var(Y));
        assert!(s.eval_atom(&cmp(CmpOp::Lt)));
        assert!(s.eval_atom(&cmp(CmpOp::Le)));
        assert!(s.eval_atom(&cmp(CmpOp::Ne)));
        assert!(!s.eval_atom(&cmp(CmpOp::Eq)));
        assert!(!s.eval_atom(&cmp(CmpOp::Gt)));
        assert!(!s.eval_atom(&cmp(CmpOp::Ge)));
    }

    #[test]
    fn bool_vars_are_truthy_nonzero() {
        let mut s = ProgramState::new();
        s.set(X, Value::Bool(true));
        s.set(Y, -5);
        assert!(s.eval_atom(&Atom::BoolVar(X)));
        assert!(s.eval_atom(&Atom::BoolVar(Y)));
        assert!(!s.eval_atom(&Atom::BoolVar(VarId(9))));
    }

    #[test]
    fn set_keeps_variables_sorted_and_unique() {
        let mut s = ProgramState::new();
        s.set(Y, 2);
        s.set(X, 1);
        s.set(Y, 3);
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            [(X, Value::Int(1)), (Y, Value::Int(3))]
        );
        let collected: ProgramState = [(Y, Value::Int(1)), (X, Value::Int(5)), (Y, Value::Int(2))]
            .into_iter()
            .collect();
        assert_eq!(
            collected.iter().collect::<Vec<_>>(),
            [(X, Value::Int(5)), (Y, Value::Int(2))]
        );
    }

    #[test]
    fn debug_renders_as_a_map() {
        let mut s = ProgramState::new();
        s.set(Y, 2);
        s.set(X, 1);
        assert_eq!(
            format!("{s:?}"),
            "ProgramState { values: {VarId(0): Int(1), VarId(1): Int(2)} }"
        );
    }

    #[test]
    fn display_is_compact() {
        let mut s = ProgramState::new();
        s.set(X, 1);
        s.set(Y, Value::Bool(false));
        assert_eq!(s.to_string(), "<v0=1,v1=false>");
    }
}
