//! Columnar kernels: selection-vector filtering and vectorized
//! expression evaluation over row batches.
//!
//! [`PredicateSet::compile`] turns a conjunction of predicate expressions
//! into *kernels*. Simple comparisons (`col <op> literal`, `col <op>
//! col`) and AND/OR combinations of them compile into typed column loops
//! that resolve the column index **once** and then run a tight
//! compare-per-row loop over the batch — no expression-tree walk, no
//! per-row name resolution, no `Value` cloning. Anything else falls back
//! to the row-at-a-time evaluator ([`crate::expr::eval_predicate`]), so
//! compilation never changes semantics, only speed.
//!
//! Filtering is expressed through **selection vectors**: a sorted list of
//! row indexes still alive in the batch. Each conjunct kernel narrows the
//! selection of the previous one, so a selective leading conjunct makes
//! every later kernel touch only the survivors.
//!
//! NULL semantics match the evaluator exactly: a comparison with NULL is
//! not true, so the row is dropped (SQL's `WHERE` treats unknown as
//! false), and OR keeps a row if *any* branch is true regardless of other
//! branches being NULL — which is precisely the union of the branch
//! selection vectors.
//!
//! **Projection kernels** — [`ProjectionSet::compile`] does the same for
//! scalar *computation*: arithmetic and comparison expression trees over
//! columns and literals compile into [`ExprKernel`]s evaluated
//! column-at-a-time ([`ExprKernel::eval_column`]), resolving every column
//! index once and reusing the scalar `arith` kernel per element — no
//! expression-tree walk and no per-row name resolution. Shapes whose
//! semantics depend on per-row short-circuiting (AND/OR/NOT) or that the
//! kernels don't model (aggregates, unresolvable names) fall back to
//! row-at-a-time [`crate::expr::eval`] with identical results, including
//! NULL propagation, integer/float promotion, and division-by-zero
//! yielding NULL.

use crate::expr::{arith, eval, eval_predicate, literal_value, Bindings, EvalError};
use crate::planner::normalize_cmp;
use neurdb_sql::{BinaryOp, Expr, SelectItem, UnaryOp};
use neurdb_storage::{Tuple, Value};
use std::cmp::Ordering;

/// A selection vector: sorted indexes of batch rows that passed.
pub type SelVec = Vec<u32>;

/// Comparison operators the typed kernels support.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Neq,
    Lt,
    Lte,
    Gt,
    Gte,
}

impl CmpOp {
    fn from_binary(op: BinaryOp) -> Option<CmpOp> {
        Some(match op {
            BinaryOp::Eq => CmpOp::Eq,
            BinaryOp::Neq => CmpOp::Neq,
            BinaryOp::Lt => CmpOp::Lt,
            BinaryOp::Lte => CmpOp::Lte,
            BinaryOp::Gt => CmpOp::Gt,
            BinaryOp::Gte => CmpOp::Gte,
            _ => return None,
        })
    }

    #[inline]
    fn test(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Neq => !ord.is_eq(),
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Lte => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Gte => ord.is_ge(),
        }
    }

    #[inline]
    fn test_i64(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Neq => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Lte => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Gte => a >= b,
        }
    }
}

/// One compiled predicate kernel.
#[derive(Debug, Clone)]
enum Kernel {
    /// `col <op> constant`: typed column loop.
    CmpColLit { col: usize, op: CmpOp, lit: Value },
    /// `col <op> col`.
    CmpColCol { a: usize, op: CmpOp, b: usize },
    /// Conjunction: sequential narrowing.
    And(Vec<Kernel>),
    /// Disjunction: union of branch selections.
    Or(Vec<Kernel>),
    /// Fallback: row-at-a-time expression evaluation.
    Row(Expr),
}

/// A compiled conjunction of predicates, applied batch-at-a-time.
#[derive(Debug, Clone, Default)]
pub struct PredicateSet {
    conjuncts: Vec<Kernel>,
    env: Bindings,
}

impl PredicateSet {
    /// Compile `predicates` (an implicit AND) against a row layout.
    pub fn compile(predicates: &[Expr], env: &Bindings) -> PredicateSet {
        let mut conjuncts = Vec::with_capacity(predicates.len());
        for p in predicates {
            conjuncts.push(compile_kernel(p, env));
        }
        PredicateSet {
            conjuncts,
            env: env.clone(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.conjuncts.is_empty()
    }

    /// How many conjuncts compiled to typed column kernels (not row-eval
    /// fallbacks). Exposed for tests.
    pub fn compiled_count(&self) -> usize {
        fn columnar(k: &Kernel) -> bool {
            match k {
                Kernel::Row(_) => false,
                Kernel::And(ks) | Kernel::Or(ks) => ks.iter().all(columnar),
                _ => true,
            }
        }
        self.conjuncts.iter().filter(|k| columnar(k)).count()
    }

    /// The selection vector of rows in `batch` passing every conjunct.
    pub fn filter_batch(&self, batch: &[Tuple]) -> Result<SelVec, EvalError> {
        let mut sel: SelVec = (0..batch.len() as u32).collect();
        for k in &self.conjuncts {
            if sel.is_empty() {
                break;
            }
            sel = apply_kernel(k, batch, &sel, &self.env)?;
        }
        Ok(sel)
    }

    /// Filter an owned batch down to the passing rows.
    pub fn filter_rows(&self, batch: Vec<Tuple>) -> Result<Vec<Tuple>, EvalError> {
        if self.conjuncts.is_empty() {
            return Ok(batch);
        }
        let sel = self.filter_batch(&batch)?;
        if sel.len() == batch.len() {
            return Ok(batch);
        }
        let mut iter = sel.into_iter();
        let mut next_keep = iter.next();
        let mut out = Vec::with_capacity(iter.len() + 1);
        for (i, row) in batch.into_iter().enumerate() {
            if next_keep == Some(i as u32) {
                out.push(row);
                next_keep = iter.next();
            }
        }
        Ok(out)
    }
}

/// Extract a column reference's index, if `e` is one.
fn col_idx(e: &Expr, env: &Bindings) -> Option<usize> {
    match e {
        Expr::Column(c) => env.resolve(c).ok(),
        Expr::Qualified(q, c) => env.resolve_qualified(q, c).ok(),
        _ => None,
    }
}

/// Compile one predicate expression into a kernel, falling back to
/// [`Kernel::Row`] whenever the shape is not a simple comparison tree.
/// Column-vs-literal normalization (operand order, operator mirroring,
/// NULL-literal rejection) is shared with the planner's selectivity
/// estimator and index chooser via [`normalize_cmp`] — one normalizer,
/// so the kernel path cannot drift from SQL comparison semantics again
/// (a NULL literal refuses to compile and row-eval yields
/// unknown-as-false).
fn compile_kernel(e: &Expr, env: &Bindings) -> Kernel {
    if let Expr::Binary { op, left, right } = e {
        match op {
            BinaryOp::And | BinaryOp::Or => {
                let l = compile_kernel(left, env);
                let r = compile_kernel(right, env);
                // A disjunction with a row-eval branch gains nothing over
                // evaluating the whole expression row-wise; keep the
                // fallback at the top so semantics stay in one place.
                if matches!(l, Kernel::Row(_)) || matches!(r, Kernel::Row(_)) {
                    return Kernel::Row(e.clone());
                }
                return match op {
                    BinaryOp::And => Kernel::And(vec![l, r]),
                    _ => Kernel::Or(vec![l, r]),
                };
            }
            _ if CmpOp::from_binary(*op).is_some() => {
                if let Some((col, nop, lit)) = normalize_cmp(e, env) {
                    let op = CmpOp::from_binary(nop).expect("normalized comparison");
                    return Kernel::CmpColLit { col, op, lit };
                }
                if let (Some(a), Some(b)) = (col_idx(left, env), col_idx(right, env)) {
                    return Kernel::CmpColCol {
                        a,
                        op: CmpOp::from_binary(*op).expect("comparison"),
                        b,
                    };
                }
            }
            _ => {}
        }
    }
    Kernel::Row(e.clone())
}

/// Rows from `sel` that pass `kernel`.
fn apply_kernel(
    kernel: &Kernel,
    batch: &[Tuple],
    sel: &[u32],
    env: &Bindings,
) -> Result<SelVec, EvalError> {
    match kernel {
        Kernel::CmpColLit { col, op, lit } => {
            let mut out = Vec::with_capacity(sel.len());
            match lit {
                // Int-vs-Int is the dominant case in every workload we
                // generate; give it a branch that skips `total_cmp`.
                Value::Int(rhs) => {
                    for &i in sel {
                        match &batch[i as usize].values[*col] {
                            Value::Int(v) => {
                                if op.test_i64(*v, *rhs) {
                                    out.push(i);
                                }
                            }
                            Value::Null => {}
                            v => {
                                if op.test(v.total_cmp(lit)) {
                                    out.push(i);
                                }
                            }
                        }
                    }
                }
                _ => {
                    for &i in sel {
                        let v = &batch[i as usize].values[*col];
                        if !v.is_null() && op.test(v.total_cmp(lit)) {
                            out.push(i);
                        }
                    }
                }
            }
            Ok(out)
        }
        Kernel::CmpColCol { a, op, b } => {
            let mut out = Vec::with_capacity(sel.len());
            for &i in sel {
                let row = &batch[i as usize];
                let (va, vb) = (&row.values[*a], &row.values[*b]);
                if !va.is_null() && !vb.is_null() && op.test(va.total_cmp(vb)) {
                    out.push(i);
                }
            }
            Ok(out)
        }
        Kernel::And(ks) => {
            let mut cur = sel.to_vec();
            for k in ks {
                if cur.is_empty() {
                    break;
                }
                cur = apply_kernel(k, batch, &cur, env)?;
            }
            Ok(cur)
        }
        Kernel::Or(ks) => {
            // Union of branch selections, preserving sorted order.
            let mut acc: SelVec = Vec::new();
            for k in ks {
                let s = apply_kernel(k, batch, sel, env)?;
                acc = union_sorted(&acc, &s);
                if acc.len() == sel.len() {
                    break;
                }
            }
            Ok(acc)
        }
        Kernel::Row(e) => {
            let mut out = Vec::with_capacity(sel.len());
            for &i in sel {
                if eval_predicate(e, &batch[i as usize], env)? {
                    out.push(i);
                }
            }
            Ok(out)
        }
    }
}

// ------------------------- projection kernels -------------------------

/// A compiled scalar expression, evaluated column-at-a-time.
///
/// Every variant mirrors one [`crate::expr::eval`] case exactly; shapes
/// with per-row short-circuit semantics (AND/OR) or that the kernels
/// don't model stay [`ExprKernel::Row`] so results and errors cannot
/// diverge from the row evaluator.
#[derive(Debug, Clone)]
pub enum ExprKernel {
    /// A column reference, resolved once at compile time.
    Col(usize),
    /// A constant (literal or negated numeric literal).
    Const(Value),
    /// Arithmetic (`+ - * /`): NULL propagates, ints stay integral,
    /// floats promote, division by zero yields NULL.
    Arith {
        op: BinaryOp,
        left: Box<ExprKernel>,
        right: Box<ExprKernel>,
    },
    /// Comparison: NULL operands yield NULL, else a boolean via the
    /// total order (exactly `eval`'s comparison path).
    Cmp {
        op: CmpOp,
        left: Box<ExprKernel>,
        right: Box<ExprKernel>,
    },
    /// Numeric negation.
    Neg(Box<ExprKernel>),
    /// Fallback: row-at-a-time evaluation.
    Row(Expr),
}

impl ExprKernel {
    /// Compile one scalar expression against a row layout.
    pub fn compile(e: &Expr, env: &Bindings) -> ExprKernel {
        match e {
            Expr::Literal(l) => ExprKernel::Const(literal_value(l)),
            Expr::Column(_) | Expr::Qualified(..) => match col_idx(e, env) {
                Some(i) => ExprKernel::Col(i),
                // Unresolvable name: the row evaluator owns the error.
                None => ExprKernel::Row(e.clone()),
            },
            Expr::Unary {
                op: UnaryOp::Neg,
                expr,
            } => match ExprKernel::compile(expr, env) {
                ExprKernel::Row(_) => ExprKernel::Row(e.clone()),
                inner => ExprKernel::Neg(Box::new(inner)),
            },
            Expr::Binary { op, left, right }
                if matches!(
                    op,
                    BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div
                ) || CmpOp::from_binary(*op).is_some() =>
            {
                let l = ExprKernel::compile(left, env);
                let r = ExprKernel::compile(right, env);
                if matches!(l, ExprKernel::Row(_)) || matches!(r, ExprKernel::Row(_)) {
                    return ExprKernel::Row(e.clone());
                }
                match CmpOp::from_binary(*op) {
                    Some(cmp) => ExprKernel::Cmp {
                        op: cmp,
                        left: Box::new(l),
                        right: Box::new(r),
                    },
                    None => ExprKernel::Arith {
                        op: *op,
                        left: Box::new(l),
                        right: Box::new(r),
                    },
                }
            }
            // AND/OR short-circuit per row (an error in the pruned branch
            // must not surface), NOT and aggregates are row-only shapes.
            other => ExprKernel::Row(other.clone()),
        }
    }

    /// Whether this kernel tree is fully columnar (no row-eval fallback).
    pub fn is_columnar(&self) -> bool {
        match self {
            ExprKernel::Row(_) => false,
            ExprKernel::Col(_) | ExprKernel::Const(_) => true,
            ExprKernel::Neg(k) => k.is_columnar(),
            ExprKernel::Arith { left, right, .. } | ExprKernel::Cmp { left, right, .. } => {
                left.is_columnar() && right.is_columnar()
            }
        }
    }

    /// Evaluate over a whole batch, yielding one output value per row.
    pub fn eval_column(&self, batch: &[Tuple], env: &Bindings) -> Result<Vec<Value>, EvalError> {
        match self {
            ExprKernel::Col(i) => Ok(batch.iter().map(|t| t.values[*i].clone()).collect()),
            ExprKernel::Const(v) => Ok(vec![v.clone(); batch.len()]),
            ExprKernel::Neg(k) => {
                let mut col = k.eval_column(batch, env)?;
                for v in &mut col {
                    *v = match v {
                        Value::Int(i) => Value::Int(-*i),
                        Value::Float(f) => Value::Float(-*f),
                        Value::Null => Value::Null,
                        other => return Err(EvalError::TypeMismatch(format!("-{other}"))),
                    };
                }
                Ok(col)
            }
            ExprKernel::Arith { op, left, right } => {
                let lc = left.eval_column(batch, env)?;
                let rc = right.eval_column(batch, env)?;
                lc.iter()
                    .zip(rc.iter())
                    .map(|(a, b)| {
                        if a.is_null() || b.is_null() {
                            Ok(Value::Null)
                        } else {
                            arith(*op, a, b)
                        }
                    })
                    .collect()
            }
            ExprKernel::Cmp { op, left, right } => {
                let lc = left.eval_column(batch, env)?;
                let rc = right.eval_column(batch, env)?;
                Ok(lc
                    .iter()
                    .zip(rc.iter())
                    .map(|(a, b)| {
                        if a.is_null() || b.is_null() {
                            Value::Null
                        } else {
                            Value::Bool(op.test(a.total_cmp(b)))
                        }
                    })
                    .collect())
            }
            ExprKernel::Row(e) => batch.iter().map(|t| eval(e, t, env)).collect(),
        }
    }
}

/// One projected item: a wildcard passthrough or a compiled expression.
#[derive(Debug, Clone)]
enum ProjKernel {
    Wildcard,
    Expr(ExprKernel),
}

/// A compiled projection list, applied batch-at-a-time.
#[derive(Debug, Clone, Default)]
pub struct ProjectionSet {
    items: Vec<ProjKernel>,
    env: Bindings,
}

impl ProjectionSet {
    /// Compile a SELECT item list against the input row layout.
    pub fn compile(items: &[SelectItem], env: &Bindings) -> ProjectionSet {
        let items = items
            .iter()
            .map(|item| match item {
                SelectItem::Wildcard => ProjKernel::Wildcard,
                SelectItem::Expr { expr, .. } => ProjKernel::Expr(ExprKernel::compile(expr, env)),
            })
            .collect();
        ProjectionSet {
            items,
            env: env.clone(),
        }
    }

    /// How many items compiled to fully columnar kernels (wildcards
    /// count: they are pure copies). Exposed for tests.
    pub fn compiled_count(&self) -> usize {
        self.items
            .iter()
            .filter(|k| match k {
                ProjKernel::Wildcard => true,
                ProjKernel::Expr(e) => e.is_columnar(),
            })
            .count()
    }

    /// Project an owned batch: each item is evaluated as one column,
    /// then rows are reassembled in item order. A lone `*` is the
    /// identity, so the batch passes through without a copy.
    pub fn project(&self, batch: Vec<Tuple>) -> Result<Vec<Tuple>, EvalError> {
        if batch.is_empty() || matches!(self.items[..], [ProjKernel::Wildcard]) {
            return Ok(batch);
        }
        enum Out {
            Whole,
            Col(Vec<Value>),
        }
        let mut cols = Vec::with_capacity(self.items.len());
        for item in &self.items {
            cols.push(match item {
                ProjKernel::Wildcard => Out::Whole,
                ProjKernel::Expr(k) => Out::Col(k.eval_column(&batch, &self.env)?),
            });
        }
        let mut out = Vec::with_capacity(batch.len());
        for (i, row) in batch.iter().enumerate() {
            let mut vals = Vec::with_capacity(cols.len());
            for c in &mut cols {
                match c {
                    Out::Whole => vals.extend(row.values.iter().cloned()),
                    // Move the computed value out (each cell is read once).
                    Out::Col(col) => vals.push(std::mem::replace(&mut col[i], Value::Null)),
                }
            }
            out.push(Tuple::new(vals));
        }
        Ok(out)
    }
}

/// Merge two sorted selection vectors without duplicates.
fn union_sorted(a: &[u32], b: &[u32]) -> SelVec {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurdb_sql::{parse, Statement};

    fn env() -> Bindings {
        Bindings::for_table("t", &["a", "b", "s"])
    }

    fn rows() -> Vec<Tuple> {
        (0..20)
            .map(|i| {
                Tuple::new(vec![
                    if i == 7 { Value::Null } else { Value::Int(i) },
                    Value::Float(i as f64 / 2.0),
                    Value::Text(format!("s{}", i % 3)),
                ])
            })
            .collect()
    }

    fn pred(where_clause: &str) -> Expr {
        let Statement::Select(s) = parse(&format!("SELECT * FROM t WHERE {where_clause}")).unwrap()
        else {
            panic!()
        };
        s.predicate.unwrap()
    }

    /// Every kernel must agree with the row-at-a-time evaluator.
    fn check(where_clause: &str, expect_columnar: bool) {
        let e = env();
        let p = pred(where_clause);
        let batch = rows();
        let set = PredicateSet::compile(std::slice::from_ref(&p), &e);
        assert_eq!(
            set.compiled_count() == 1,
            expect_columnar,
            "compilation shape for {where_clause}: {set:?}"
        );
        let sel = set.filter_batch(&batch).unwrap();
        let want: Vec<u32> = batch
            .iter()
            .enumerate()
            .filter(|(_, r)| eval_predicate(&p, r, &e).unwrap())
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(sel, want, "{where_clause}");
    }

    #[test]
    fn kernels_match_row_eval() {
        check("a = 5", true);
        check("a <> 5", true);
        check("a < 5", true);
        check("5 >= a", true); // flipped literal side
        check("a >= -3", true); // negated literal
        check("b > 4.5", true);
        check("s = 's1'", true);
        check("a = b", true); // col-col, mixed int/float
        check("a > 3 AND b < 8", true);
        check("a < 3 OR a > 15", true);
        check("(a < 3 OR a > 15) AND s = 's0'", true);
        // Fallbacks: arithmetic and NOT are row-eval.
        check("a + 1 = 5", false);
        check("NOT a = 5", false);
        check("a < 3 OR a + 0 > 15", false);
        // NULL literals refuse to compile: the row evaluator's
        // unknown-as-false is the only correct semantics (a kernel
        // comparing against Value::Null via kind-rank ordering would
        // keep rows that SQL drops).
        check("a <> NULL", false);
        check("a > NULL", false);
        check("NULL = a", false);
    }

    #[test]
    fn null_literal_comparisons_select_nothing() {
        let e = env();
        let batch = rows();
        for w in ["a = NULL", "a <> NULL", "a < NULL", "NULL >= a"] {
            let set = PredicateSet::compile(&[pred(w)], &e);
            assert_eq!(
                set.filter_batch(&batch).unwrap(),
                Vec::<u32>::new(),
                "{w} must select no rows"
            );
        }
    }

    #[test]
    fn null_rows_never_pass() {
        // Row 7 has a NULL in column a: every comparison drops it.
        let e = env();
        let batch = rows();
        for w in ["a = 7", "a <> 7", "a < 100", "a >= 0", "a = b"] {
            let set = PredicateSet::compile(&[pred(w)], &e);
            let sel = set.filter_batch(&batch).unwrap();
            assert!(!sel.contains(&7), "{w} kept the NULL row");
        }
    }

    #[test]
    fn filter_rows_keeps_order() {
        let e = env();
        let set = PredicateSet::compile(&[pred("a >= 10")], &e);
        let out = set.filter_rows(rows()).unwrap();
        let got: Vec<i64> = out.iter().filter_map(|t| t.get(0).as_i64()).collect();
        assert_eq!(got, (10..20).collect::<Vec<_>>());
    }

    /// Every projection kernel must agree with the row-at-a-time
    /// evaluator — values, NULL propagation, and promotion included.
    fn check_projection(select_list: &str, expect_columnar: bool) {
        let e = env();
        let batch = rows();
        let Statement::Select(s) = parse(&format!("SELECT {select_list} FROM t")).unwrap() else {
            panic!()
        };
        let set = ProjectionSet::compile(&s.items, &e);
        assert_eq!(
            set.compiled_count() == s.items.len(),
            expect_columnar,
            "compilation shape for {select_list}: {set:?}"
        );
        let got = set.project(batch.clone()).unwrap();
        for (row_in, row_out) in batch.iter().zip(got.iter()) {
            let mut want = Vec::new();
            for item in &s.items {
                match item {
                    neurdb_sql::SelectItem::Wildcard => want.extend(row_in.values.iter().cloned()),
                    neurdb_sql::SelectItem::Expr { expr, .. } => {
                        want.push(crate::expr::eval(expr, row_in, &e).unwrap())
                    }
                }
            }
            assert_eq!(row_out.values, want, "{select_list}");
        }
    }

    #[test]
    fn projection_kernels_match_row_eval() {
        check_projection("a", true);
        check_projection("*", true);
        check_projection("a, b, s", true);
        check_projection("a + 1", true);
        check_projection("a * 2 - b", true);
        check_projection("a / 0", true); // division by zero -> NULL
        check_projection("b / a", true); // row 0 divides by 0 -> NULL
        check_projection("-a, -b", true);
        check_projection("a + b * 2.5", true); // int/float promotion
        check_projection("a = b, a < 5", true);
        check_projection("a + 1 = b * 2", true);
        check_projection("s, a - -3", true);
        // Row fallbacks: short-circuit logic and unresolvable names.
        check_projection("a > 1 AND b < 4", false);
        check_projection("NOT a = 5", false);
    }

    #[test]
    fn projection_kernels_propagate_null_and_type_errors() {
        let e = env();
        let batch = rows(); // row 7 has NULL in column a
        let Statement::Select(s) = parse("SELECT a + 1, -a FROM t").unwrap() else {
            panic!()
        };
        let set = ProjectionSet::compile(&s.items, &e);
        let got = set.project(batch).unwrap();
        assert_eq!(got[7].values, vec![Value::Null, Value::Null]);
        // Arithmetic over text errors exactly like the row evaluator.
        let Statement::Select(s) = parse("SELECT s + 1 FROM t").unwrap() else {
            panic!()
        };
        let set = ProjectionSet::compile(&s.items, &e);
        assert!(matches!(
            set.project(rows()),
            Err(EvalError::TypeMismatch(_))
        ));
    }

    #[test]
    fn conjunct_narrowing_short_circuits() {
        let e = env();
        // First conjunct empties the selection; the second would error on
        // an unknown column if it ever ran row-eval... but compile keeps
        // it as a Row kernel, so emptiness must short-circuit before it.
        let set = PredicateSet::compile(&[pred("a > 100"), pred("nope = 1")], &e);
        assert_eq!(set.filter_batch(&rows()).unwrap(), Vec::<u32>::new());
    }
}
