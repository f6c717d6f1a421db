//! The SELECT planner: lowers a parsed [`SelectStmt`] into a
//! [`PhysicalPlan`] tree that the operator executor ([`crate::exec`])
//! runs batch-by-batch.
//!
//! Planning proceeds in three stages (the paper's plan path, Section 3):
//!
//! 1. **Logical analysis** — split the WHERE clause into conjuncts, push
//!    single-table predicates down to their scans, and estimate per-scan
//!    cardinalities from live [`neurdb_storage::TableStats`] (MCV/histogram
//!    selectivities, not stale catalog guesses).
//! 2. **Join ordering** — for queries joining three or more tables the
//!    planner builds a [`neurdb_qo::JoinGraph`] from the scan estimates
//!    and the equi-join conjuncts and asks `neurdb-qo` for an order:
//!    the learned optimizer ([`neurdb_qo::Optimizer`], e.g. `NeurQo`)
//!    when one is installed on the session, else the exhaustive
//!    cost-based DP ([`neurdb_qo::dp_best_plan`]).
//! 3. **Physical lowering** — the chosen join tree becomes HashJoin /
//!    NestedLoopJoin nodes (hash when an equi conjunct bridges the two
//!    sides), remaining conjuncts become Filters at the lowest node where
//!    they resolve, and the aggregate / project / sort / limit tail is
//!    stacked on top. A hash join whose probe side is a parallel scan
//!    becomes a [`PhysicalPlan::PartitionedHashJoin`] that absorbs that
//!    scan's Gather; the build side keeps its own plan, Gather included.
//!    A `Reorder` node restores the FROM-clause column layout whenever
//!    the optimizer's join order differs, so `SELECT *` output is
//!    independent of the plan shape.

use crate::error::CoreError;
use crate::exec::{collect_aggs, item_name};
use crate::expr::{literal_value, Bindings, EvalError};
use crate::transactions::ScanOverlay;
use neurdb_qo::{
    dp_best_plan, JoinEdge, JoinGraph, Optimizer, PlanTree, SystemConditions, TableInfo,
};
use neurdb_sql::{AggFunc, BinaryOp, Expr, SelectItem, SelectStmt, SortOrder, UnaryOp};
use neurdb_storage::{Table, TableStats, Value};
use std::sync::Arc;

/// Session knobs the planner consults (see `SET parallelism`).
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Maximum degree of parallelism per scan. `1` (the default) keeps
    /// every operator single-threaded; higher values let the planner fan
    /// large scans out to morsel workers behind a Gather exchange — and
    /// hash joins probing such a scan become partitioned parallel joins
    /// ([`PhysicalPlan::PartitionedHashJoin`]).
    pub parallelism: usize,
    /// Minimum estimated input rows before a scan fans out (default
    /// [`PARALLEL_MIN_EST_ROWS`]): morsel workers cost thread spawns and
    /// a channel hop per batch, which small inputs never amortize.
    /// Setting `0.0` force-parallelizes every scan at full `parallelism`
    /// regardless of size or page count — a testing knob that drives the
    /// parallel operators (empty partitions included) over tiny tables.
    pub parallel_min_rows: f64,
    /// Fresh system conditions (buffer-pool state) stamped onto the join
    /// graph so the learned optimizer is conditioned on them.
    /// [`crate::database::Database`] refreshes this from the buffer pool
    /// right before planning.
    pub system: SystemConditions,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            parallelism: 1,
            parallel_min_rows: PARALLEL_MIN_EST_ROWS,
            system: SystemConditions::default(),
        }
    }
}

/// A physical plan node. Every node knows its output binding environment
/// (`env`) — the `(qualifier, column)` layout of the tuples it yields.
#[derive(Clone)]
pub enum PhysicalPlan {
    /// Sequential scan over a table's heap with pushed-down predicates,
    /// pulled in batches via `Table::scan_batches`. With `dop > 1` the
    /// scan runs under an [`PhysicalPlan::Exchange`]: each worker drains
    /// one page-range partition (`Table::scan_partitions`). `overlay` is
    /// the open transaction's pending changes to merge in (always at
    /// `dop = 1`, so its rows are emitted exactly once).
    SeqScan {
        table: Arc<Table>,
        binding: String,
        predicates: Vec<Expr>,
        env: Bindings,
        est_rows: f64,
        dop: usize,
        overlay: Option<Arc<ScanOverlay>>,
    },
    /// B-tree index scan: a range/point cursor over `col`'s index narrows
    /// the heap to matching rids; `predicates` (every pushed-down
    /// conjunct, including the ones the bounds came from) re-filter the
    /// fetched rows, so inclusive index bounds stay exact for strict
    /// comparisons. `overlay` as for [`PhysicalPlan::SeqScan`]; its rows
    /// pass `predicates` only, never the bounds.
    IndexScan {
        table: Arc<Table>,
        binding: String,
        col: usize,
        col_name: String,
        lo: Option<Value>,
        hi: Option<Value>,
        predicates: Vec<Expr>,
        env: Bindings,
        est_rows: f64,
        overlay: Option<Arc<ScanOverlay>>,
    },
    /// Parallelism boundary (Gather): `dop` workers each execute a copy
    /// of the child fragment over their own scan partition and stream
    /// batches into a bounded channel; the parent pulls the merged
    /// stream single-threaded, so stateful consumers (Sort, hash builds)
    /// never see concurrency.
    Exchange {
        input: Box<PhysicalPlan>,
        dop: usize,
        env: Bindings,
    },
    /// Per-worker partial aggregation below an Exchange: emits encoded
    /// aggregate *states* (one row per group), which the parent
    /// [`PhysicalPlan::HashAggregate`] (with `from_partials`) merges.
    PartialHashAggregate {
        input: Box<PhysicalPlan>,
        group_by: Vec<Expr>,
        aggs: Vec<(AggFunc, Option<Expr>)>,
        in_env: Bindings,
    },
    /// Build a hash table on the right input keyed on `right_key`, probe
    /// with the left input on `left_key`.
    HashJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        left_key: usize,
        right_key: usize,
        /// The equi conjunct this join consumes (for display).
        cond: Expr,
        env: Bindings,
        est_rows: f64,
    },
    /// Parallel hash join. The planner absorbs the probe side's Gather
    /// into the join (the scan-dop cardinality gating behind `SET
    /// parallelism` carries over): the build side drains serially into
    /// one shared read-only hash table — through whatever plan its scan
    /// got, a Gather included — and `probe_dop` morsel workers each probe
    /// it with their own page-range stream of the probe fragment.
    PartitionedHashJoin {
        /// Probe-side fragment: runs inside every probe worker and
        /// contains the probe scan leaf.
        probe: Box<PhysicalPlan>,
        build: Box<PhysicalPlan>,
        left_key: usize,
        right_key: usize,
        /// The equi conjunct this join consumes (for display).
        cond: Expr,
        env: Bindings,
        est_rows: f64,
        probe_dop: usize,
    },
    /// Cross/theta join: materialize the right input, stream the left.
    NestedLoopJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        env: Bindings,
        est_rows: f64,
    },
    /// Apply residual conjuncts.
    Filter {
        input: Box<PhysicalPlan>,
        predicates: Vec<Expr>,
        env: Bindings,
    },
    /// Permute columns back to the canonical FROM-clause layout after the
    /// optimizer reordered the joins: `out[i] = in[perm[i]]`.
    Reorder {
        input: Box<PhysicalPlan>,
        perm: Vec<usize>,
        env: Bindings,
    },
    /// Grouped aggregation (also handles the no-GROUP-BY all-aggregate
    /// case, which yields exactly one row). With `from_partials` the
    /// input rows are encoded per-worker aggregate states (from
    /// [`PhysicalPlan::PartialHashAggregate`]) to merge rather than raw
    /// rows to accumulate.
    HashAggregate {
        input: Box<PhysicalPlan>,
        group_by: Vec<Expr>,
        items: Vec<SelectItem>,
        in_env: Bindings,
        columns: Vec<String>,
        from_partials: bool,
    },
    /// Scalar projection.
    Project {
        input: Box<PhysicalPlan>,
        items: Vec<SelectItem>,
        in_env: Bindings,
        columns: Vec<String>,
    },
    /// Sort the projected rows by input column *positions*. Sort keys
    /// over columns the visible projection does not carry are planned as
    /// *hidden* projection columns (positions `>= visible`) and stripped
    /// from each row after sorting — standard SQL `ORDER BY
    /// unprojected_column` semantics without any re-evaluation of key
    /// expressions inside the operator.
    Sort {
        input: Box<PhysicalPlan>,
        /// `(input position, order)` per key.
        keys: Vec<(usize, SortOrder)>,
        /// Output arity; hidden sort-key columns beyond it are stripped.
        visible: usize,
        /// Full input column names (visible then hidden), for display.
        columns: Vec<String>,
    },
    /// Keep the first `n` rows.
    Limit { input: Box<PhysicalPlan>, n: u64 },
}

/// A planned SELECT: the physical plan plus provenance of the join order.
pub struct PlannedSelect {
    pub plan: PhysicalPlan,
    /// Which `neurdb-qo` component chose the join order (set for queries
    /// with ≥ 2 joins): `"neurdb-qo/dp"` or `"neurdb-qo/<model name>"`.
    pub join_order: Option<String>,
    /// The optimizer's view of the query (built for multi-table
    /// queries): [`crate::database::Database::record_plan_feedback`]
    /// overwrites its `true_*` fields with observed cardinalities after a
    /// metered execution and feeds it back to the learned optimizer.
    pub graph: Option<JoinGraph>,
}

// ------------------------- conjunct analysis -------------------------

/// Split a predicate into AND-conjuncts.
pub(crate) fn conjuncts(expr: &Expr) -> Vec<Expr> {
    match expr {
        Expr::Binary {
            op: BinaryOp::And,
            left,
            right,
        } => {
            let mut out = conjuncts(left);
            out.extend(conjuncts(right));
            out
        }
        other => vec![other.clone()],
    }
}

/// Does every column referenced by `expr` resolve within `env`?
pub(crate) fn resolvable(expr: &Expr, env: &Bindings) -> bool {
    expr.referenced_columns().iter().all(|c| {
        if let Some((q, n)) = c.split_once('.') {
            env.resolve_qualified(q, n).is_ok()
        } else {
            env.resolve(c).is_ok()
        }
    })
}

/// If `expr` is `left_col = right_col` bridging the two environments,
/// return the column indexes `(left_idx, right_idx)`.
pub(crate) fn equi_join_key(
    expr: &Expr,
    left: &Bindings,
    right: &Bindings,
) -> Option<(usize, usize)> {
    let Expr::Binary {
        op: BinaryOp::Eq,
        left: a,
        right: b,
    } = expr
    else {
        return None;
    };
    let col_idx = |e: &Expr, env: &Bindings| -> Option<usize> {
        match e {
            Expr::Column(c) => env.resolve(c).ok(),
            Expr::Qualified(q, c) => env.resolve_qualified(q, c).ok(),
            _ => None,
        }
    };
    match (col_idx(a, left), col_idx(b, right)) {
        (Some(l), Some(r)) => Some((l, r)),
        _ => match (col_idx(b, left), col_idx(a, right)) {
            (Some(l), Some(r)) => Some((l, r)),
            _ => None,
        },
    }
}

// ---------------------- cardinality estimation -----------------------

/// Classic fallback selectivity when no usable statistics exist.
const DEFAULT_SEL: f64 = 0.33;

/// Row-density guess for page-count-based cardinality estimates (used
/// only when no statistics are cached and none are needed for planning).
const ROWS_PER_PAGE_GUESS: f64 = 64.0;

/// Normalize a conjunct to `col <op> value` form (flipping the operator
/// when the literal sits on the left) — the shape the selectivity
/// estimator, the index chooser, and the predicate-kernel compiler
/// ([`crate::vector`]) all consume. NULL literals yield `None`: a
/// comparison with NULL is never true, which callers must not paper over
/// with kind-rank ordering.
pub(crate) fn normalize_cmp(c: &Expr, env: &Bindings) -> Option<(usize, BinaryOp, Value)> {
    let Expr::Binary { op, left, right } = c else {
        return None;
    };
    let col_idx = |e: &Expr| -> Option<usize> {
        match e {
            Expr::Column(name) => env.resolve(name).ok(),
            Expr::Qualified(q, name) => env.resolve_qualified(q, name).ok(),
            _ => None,
        }
    };
    let lit = |e: &Expr| -> Option<Value> {
        match e {
            Expr::Literal(l) => Some(literal_value(l)),
            Expr::Unary {
                op: UnaryOp::Neg,
                expr,
            } => match expr.as_ref() {
                Expr::Literal(l) => match literal_value(l) {
                    Value::Int(i) => Some(Value::Int(-i)),
                    Value::Float(f) => Some(Value::Float(-f)),
                    _ => None,
                },
                _ => None,
            },
            _ => None,
        }
    };
    let normalized = match (col_idx(left), lit(right)) {
        (Some(i), Some(v)) => Some((i, *op, v)),
        _ => match (col_idx(right), lit(left)) {
            (Some(i), Some(v)) => {
                let flipped = match op {
                    BinaryOp::Lt => BinaryOp::Gt,
                    BinaryOp::Lte => BinaryOp::Gte,
                    BinaryOp::Gt => BinaryOp::Lt,
                    BinaryOp::Gte => BinaryOp::Lte,
                    other => *other,
                };
                Some((i, flipped, v))
            }
            _ => None,
        },
    };
    match normalized {
        Some((_, _, v)) if v.is_null() => None,
        other => other,
    }
}

/// Estimated selectivity of one pushed-down conjunct against a single
/// table, using its live column statistics.
fn conjunct_selectivity(c: &Expr, env: &Bindings, stats: &TableStats) -> f64 {
    let Some((idx, op, val)) = normalize_cmp(c, env) else {
        return DEFAULT_SEL;
    };
    let Some(col) = stats.columns.get(idx) else {
        return DEFAULT_SEL;
    };
    match op {
        BinaryOp::Eq => col.eq_selectivity(&val),
        BinaryOp::Neq => (1.0 - col.eq_selectivity(&val)).max(0.0),
        BinaryOp::Lt | BinaryOp::Lte => match val.as_f64() {
            Some(x) => col.range_selectivity(None, Some(x)),
            None => DEFAULT_SEL,
        },
        BinaryOp::Gt | BinaryOp::Gte => match val.as_f64() {
            Some(x) => col.range_selectivity(Some(x), None),
            None => DEFAULT_SEL,
        },
        _ => DEFAULT_SEL,
    }
}

// ------------------------ access-path selection -----------------------

/// Don't take an index scan expected to visit more than this fraction of
/// the table: beyond it, random heap probes lose to a sequential sweep.
const INDEX_SCAN_MAX_SEL: f64 = 0.25;

/// Assumed selectivity of an equality probe on an indexed column when no
/// statistics are cached — equality on an indexed key is almost always
/// selective, so the index is taken even blind.
const BLIND_EQ_SEL: f64 = 0.05;

/// Scans expected to read fewer rows than this stay serial: morsel
/// fan-out costs thread spawns and a channel hop per batch, which small
/// inputs never amortize (the default for
/// [`PlannerConfig::parallel_min_rows`]).
pub const PARALLEL_MIN_EST_ROWS: f64 = 512.0;

/// An index access path chosen for a scan.
pub(crate) struct IndexChoice {
    pub(crate) col: usize,
    col_name: String,
    pub(crate) lo: Option<Value>,
    pub(crate) hi: Option<Value>,
    /// Estimated selectivity of the bounds alone.
    sel: f64,
}

/// Pick the best indexed access path for a scan, if any: an equality or
/// range conjunct over an indexed column whose estimated selectivity
/// (live statistics when available) clears [`INDEX_SCAN_MAX_SEL`].
/// Bounds are accumulated across conjuncts on the same column
/// (`a > 5 AND a < 9` becomes one `[5, 9]` cursor); strict bounds stay
/// inclusive here because the scan re-applies every conjunct as a
/// residual filter. SELECT scans and DML candidate collection
/// ([`crate::database::dml_candidates`]) both pick their access path
/// here.
pub(crate) fn choose_index(
    table: &Table,
    env: &Bindings,
    predicates: &[Expr],
    stats: Option<&TableStats>,
) -> Option<IndexChoice> {
    let mut best: Option<IndexChoice> = None;
    for col in table.indexed_columns() {
        let (mut lo, mut hi): (Option<Value>, Option<Value>) = (None, None);
        let mut has_eq = false;
        for c in predicates {
            let Some((idx, op, val)) = normalize_cmp(c, env) else {
                continue;
            };
            if idx != col {
                continue;
            }
            let tighten_lo = |lo: &mut Option<Value>, v: &Value| {
                if lo.as_ref().is_none_or(|cur| v > cur) {
                    *lo = Some(v.clone());
                }
            };
            let tighten_hi = |hi: &mut Option<Value>, v: &Value| {
                if hi.as_ref().is_none_or(|cur| v < cur) {
                    *hi = Some(v.clone());
                }
            };
            match op {
                BinaryOp::Eq => {
                    has_eq = true;
                    tighten_lo(&mut lo, &val);
                    tighten_hi(&mut hi, &val);
                }
                BinaryOp::Gt | BinaryOp::Gte => tighten_lo(&mut lo, &val),
                BinaryOp::Lt | BinaryOp::Lte => tighten_hi(&mut hi, &val),
                _ => {}
            }
        }
        if lo.is_none() && hi.is_none() {
            continue;
        }
        let sel = match stats.and_then(|st| st.columns.get(col)) {
            Some(cs) => {
                if has_eq {
                    cs.eq_selectivity(lo.as_ref().expect("eq sets both bounds"))
                } else {
                    cs.range_selectivity(
                        lo.as_ref().and_then(|v| v.as_f64()),
                        hi.as_ref().and_then(|v| v.as_f64()),
                    )
                }
            }
            // Blind: trust equality probes, refuse blind range scans.
            None if has_eq => BLIND_EQ_SEL,
            None => continue,
        };
        if sel > INDEX_SCAN_MAX_SEL {
            continue;
        }
        if best.as_ref().is_none_or(|b| sel < b.sel) {
            best = Some(IndexChoice {
                col,
                col_name: table.schema.column(col).name.clone(),
                lo,
                hi,
                sel,
            });
        }
    }
    best
}

/// Degree of parallelism for a sequential scan: fan out only when the
/// *input* (pre-predicate) cardinality amortizes worker startup, and
/// never wider than the page count (partitions are page-granular). A
/// zero `parallel_min_rows` forces full fan-out (testing knob; extra
/// workers just drain empty partitions).
fn scan_dop(table: &Table, input_rows: f64, config: &PlannerConfig) -> usize {
    if config.parallelism <= 1 {
        return 1;
    }
    if config.parallel_min_rows <= 0.0 {
        return config.parallelism;
    }
    let pages = table.num_pages();
    if pages < 2 || input_rows < config.parallel_min_rows {
        return 1;
    }
    config.parallelism.min(pages)
}

// ----------------------------- planning ------------------------------

struct ScanInfo {
    binding: String,
    table: Arc<Table>,
    env: Bindings,
    predicates: Vec<Expr>,
    /// Always built for multi-table queries. Single-table plans take the
    /// cache only (writes keep it current) and never pay a build (an
    /// O(table) scan) for an estimate that is cosmetic there.
    stats: Option<Arc<TableStats>>,
    est_rows: f64,
    /// Indexed access path, when one wins over the sequential sweep.
    index: Option<IndexChoice>,
    /// Morsel workers for a sequential scan (1 = serial).
    dop: usize,
    /// The open transaction's pending changes to this table.
    overlay: Option<Arc<ScanOverlay>>,
}

/// Plan a SELECT over resolved tables (`binding name -> table`) with the
/// default (serial) planner configuration. When a learned optimizer is
/// supplied it chooses the join order for ≥ 3-table queries; otherwise
/// `neurdb-qo`'s cost-based DP does.
pub fn plan_select(
    stmt: &SelectStmt,
    tables: &[(String, Arc<Table>)],
    learned: Option<&mut dyn Optimizer>,
) -> Result<PlannedSelect, CoreError> {
    plan_select_with(stmt, tables, learned, &PlannerConfig::default())
}

/// [`plan_select`] with explicit session configuration (parallelism).
pub fn plan_select_with(
    stmt: &SelectStmt,
    tables: &[(String, Arc<Table>)],
    learned: Option<&mut dyn Optimizer>,
    config: &PlannerConfig,
) -> Result<PlannedSelect, CoreError> {
    plan_select_overlaid(stmt, tables, &[], learned, config)
}

/// [`plan_select_with`] where `overlays[i]` (missing = none) carries an
/// open transaction's pending changes to `tables[i]`; that table's scan
/// merges them in and stays serial.
pub(crate) fn plan_select_overlaid(
    stmt: &SelectStmt,
    tables: &[(String, Arc<Table>)],
    overlays: &[Option<Arc<ScanOverlay>>],
    mut learned: Option<&mut dyn Optimizer>,
    config: &PlannerConfig,
) -> Result<PlannedSelect, CoreError> {
    if tables.is_empty() {
        return Err(CoreError::Unsupported("SELECT without FROM".into()));
    }

    // 1. Scans with predicate pushdown and cardinality estimates. Column
    //    statistics are built (a full scan, on first use or once writes
    //    pass the table's rebuild threshold) only when a join graph will
    //    consume them; otherwise the write-maintained cache is used.
    let need_stats = tables.len() >= 2;
    let mut scans: Vec<ScanInfo> = Vec::with_capacity(tables.len());
    for (i, (binding, table)) in tables.iter().enumerate() {
        let names = table.schema.names();
        scans.push(ScanInfo {
            binding: binding.clone(),
            env: Bindings::for_table(binding, &names),
            stats: if need_stats {
                Some(table.stats()?)
            } else {
                // Cosmetic estimate only: take the cache if it is warm,
                // never pay a build (a full scan) for it.
                table.cached_stats()
            },
            table: table.clone(),
            predicates: Vec::new(),
            est_rows: 0.0,
            index: None,
            dop: 1,
            overlay: overlays.get(i).cloned().flatten(),
        });
    }
    let all_conjuncts: Vec<Expr> = stmt.predicate.as_ref().map(conjuncts).unwrap_or_default();
    let mut used = vec![false; all_conjuncts.len()];
    for scan in &mut scans {
        for (j, c) in all_conjuncts.iter().enumerate() {
            if !used[j] && resolvable(c, &scan.env) {
                used[j] = true;
                scan.predicates.push(c.clone());
            }
        }
        let mut sel = 1.0;
        for p in &scan.predicates {
            sel *= match &scan.stats {
                Some(st) => conjunct_selectivity(p, &scan.env, st),
                None => DEFAULT_SEL,
            };
        }
        let input_rows = match &scan.stats {
            Some(st) => st.row_count as f64,
            // No stats cached: a page-count guess (O(1)) — never a page
            // walk for an estimate that is display-only on this path.
            None => scan.table.num_pages() as f64 * ROWS_PER_PAGE_GUESS,
        };
        scan.est_rows = input_rows * sel;
        // Access path: a selective indexed predicate beats the sweep; a
        // big sweep fans out to morsel workers.
        scan.index = choose_index(
            &scan.table,
            &scan.env,
            &scan.predicates,
            scan.stats.as_deref(),
        );
        scan.dop = match (&scan.index, &scan.overlay) {
            (None, None) => scan_dop(&scan.table, input_rows, config),
            _ => 1,
        };
    }
    let n = scans.len();
    // Join-tree masks (and qo's JoinGraph) are u32 bitsets.
    if n > 32 {
        return Err(CoreError::Unsupported(format!(
            "FROM clause with {n} tables (max 32)"
        )));
    }

    // 2. Join ordering through neurdb-qo, conditioned on the session's
    //    fresh system state.
    let graph = (n >= 2).then(|| build_join_graph(&scans, &all_conjuncts, &used, config.system));
    let from_order: Vec<usize> = (0..n).collect();
    let (tree, join_order) = if (3..=16).contains(&n) {
        let g = graph.as_ref().unwrap();
        let (tree, source) = match learned.as_mut() {
            Some(opt) => {
                let name = opt.name().to_string();
                (opt.choose_plan(g), format!("neurdb-qo/{name}"))
            }
            None => (dp_best_plan(g), "neurdb-qo/dp".to_string()),
        };
        // Defensive: an optimizer must cover every table exactly once;
        // fall back to the FROM order if it misbehaves.
        if tree.mask() == (1u32 << n) - 1 && tree.num_joins() == n - 1 {
            (tree, Some(source))
        } else {
            (PlanTree::left_deep(&from_order), None)
        }
    } else {
        (PlanTree::left_deep(&from_order), None)
    };

    // 3. Lower the join tree to physical operators.
    let mut builder = JoinBuilder {
        scans: &scans,
        graph: graph.as_ref(),
        conjuncts: &all_conjuncts,
        used,
    };
    let built = builder.build(&tree);
    let mut plan = built.plan;
    let mut env = built.env;
    let used = builder.used;

    // Aggregation resolves its inputs by name and its output layout is
    // the SELECT list, so aggregated queries never need the canonical
    // FROM-clause column order restored — skipping the Reorder both
    // saves a per-row permutation and keeps a parallel join directly
    // under the aggregate, where two-phase aggregation can push into
    // the join workers.
    let has_agg = stmt
        .items
        .iter()
        .any(|i| matches!(i, SelectItem::Expr { expr, .. } if contains_agg(expr)));
    let aggregated = has_agg || !stmt.group_by.is_empty();

    // Restore the FROM-clause column layout if the join order moved it.
    if built.leaf_order != from_order && !aggregated {
        let mut cur_off = vec![0usize; n];
        let mut acc = 0;
        for &r in &built.leaf_order {
            cur_off[r] = acc;
            acc += scans[r].env.arity();
        }
        let canonical = scans
            .iter()
            .fold(Bindings::default(), |e, s| e.join(&s.env));
        let mut perm = Vec::with_capacity(canonical.arity());
        for (i, s) in scans.iter().enumerate() {
            for k in 0..s.env.arity() {
                perm.push(cur_off[i] + k);
            }
        }
        plan = PhysicalPlan::Reorder {
            input: Box::new(plan),
            perm,
            env: canonical.clone(),
        };
        env = canonical;
    }

    // 4. Residual conjuncts must resolve over the full join output.
    let mut residual = Vec::new();
    for (j, c) in all_conjuncts.iter().enumerate() {
        if !used[j] {
            if !resolvable(c, &env) {
                return Err(CoreError::Unsupported(format!(
                    "predicate references unknown columns: {:?}",
                    c.referenced_columns()
                )));
            }
            residual.push(c.clone());
        }
    }
    if !residual.is_empty() {
        plan = PhysicalPlan::Filter {
            input: Box::new(plan),
            predicates: residual,
            env: env.clone(),
        };
    }

    // 5. Aggregate or project, then sort, then limit.
    let columns = output_columns_for(&stmt.items, &env, aggregated);

    // Sort-key planning happens *before* the projection is emitted so
    // keys the projection would drop can ride along as hidden columns
    // (standard SQL: `SELECT a FROM t ORDER BY b`). Constant keys are
    // dropped (they cannot affect the order).
    let mut proj_items = stmt.items.clone();
    let mut all_columns = columns.clone();
    let visible = columns.len();
    let mut sort_keys: Vec<(usize, SortOrder)> = Vec::new();
    for (key, ord) in &stmt.order_by {
        if matches!(key, Expr::Literal(_)) {
            continue;
        }
        match output_position(key, &columns, &stmt.items, &env)? {
            Some(pos) => sort_keys.push((pos, *ord)),
            None if aggregated => {
                // Post-aggregation rows only carry the SELECT list; a key
                // outside it has nothing to evaluate against.
                return Err(CoreError::Unsupported(format!(
                    "ORDER BY key {} must appear in the SELECT list of an aggregated query",
                    expr_sql(key)
                )));
            }
            None => {
                if !resolvable(key, &env) {
                    return Err(CoreError::Eval(EvalError::UnknownColumn(format!(
                        "{} in ORDER BY",
                        expr_sql(key)
                    ))));
                }
                sort_keys.push((all_columns.len(), *ord));
                proj_items.push(SelectItem::Expr {
                    expr: key.clone(),
                    alias: None,
                });
                all_columns.push(expr_sql(key));
            }
        }
    }

    plan = if aggregated {
        let mut aggs = Vec::new();
        for item in &stmt.items {
            if let SelectItem::Expr { expr, .. } = item {
                collect_aggs(expr, &mut aggs);
            }
        }
        // A partial aggregate directly above a parallel join is fused
        // into the join's probe workers at execution time, so only
        // encoded aggregate states reach the final merge.
        let parallel_join = matches!(&plan, PhysicalPlan::PartitionedHashJoin { .. });
        match plan {
            // A parallel scan feeding an aggregate directly: aggregate
            // *inside* the workers (one state row per group per worker)
            // and merge the partials at the gather — the classic
            // two-phase parallel aggregate.
            PhysicalPlan::Exchange {
                input,
                dop,
                env: xenv,
            } => {
                let partial = PhysicalPlan::PartialHashAggregate {
                    input,
                    group_by: stmt.group_by.clone(),
                    aggs,
                    in_env: env.clone(),
                };
                PhysicalPlan::HashAggregate {
                    input: Box::new(PhysicalPlan::Exchange {
                        input: Box::new(partial),
                        dop,
                        env: xenv,
                    }),
                    group_by: stmt.group_by.clone(),
                    items: stmt.items.clone(),
                    in_env: env.clone(),
                    columns: columns.clone(),
                    from_partials: true,
                }
            }
            // Two-phase aggregation above a parallel join: the partial
            // phase rides inside the join workers and the final
            // HashAggregate merges their states.
            join if parallel_join => {
                let partial = PhysicalPlan::PartialHashAggregate {
                    input: Box::new(join),
                    group_by: stmt.group_by.clone(),
                    aggs,
                    in_env: env.clone(),
                };
                PhysicalPlan::HashAggregate {
                    input: Box::new(partial),
                    group_by: stmt.group_by.clone(),
                    items: stmt.items.clone(),
                    in_env: env.clone(),
                    columns: columns.clone(),
                    from_partials: true,
                }
            }
            other => PhysicalPlan::HashAggregate {
                input: Box::new(other),
                group_by: stmt.group_by.clone(),
                items: stmt.items.clone(),
                in_env: env.clone(),
                columns: columns.clone(),
                from_partials: false,
            },
        }
    } else {
        PhysicalPlan::Project {
            input: Box::new(plan),
            items: proj_items,
            in_env: env.clone(),
            columns: all_columns.clone(),
        }
    };
    if !sort_keys.is_empty() {
        plan = PhysicalPlan::Sort {
            input: Box::new(plan),
            keys: sort_keys,
            visible,
            columns: all_columns,
        };
    }
    if let Some(limit) = stmt.limit {
        plan = PhysicalPlan::Limit {
            input: Box::new(plan),
            n: limit,
        };
    }
    Ok(PlannedSelect {
        plan,
        join_order,
        graph,
    })
}

/// Resolve an ORDER BY key against the projected output: by output
/// column name (`ORDER BY alias_or_name`), by qualified name (`ORDER BY
/// t.c` when the item kept that label), or by syntactic equality with a
/// projected expression (`SELECT a+1 ... ORDER BY a+1`, `SELECT COUNT(*)
/// ... ORDER BY COUNT(*)`). `Ok(None)` means the key needs a hidden
/// projection column.
fn output_position(
    key: &Expr,
    columns: &[String],
    items: &[SelectItem],
    in_env: &Bindings,
) -> Result<Option<usize>, CoreError> {
    let name = match key {
        Expr::Column(c) => Some(c.clone()),
        Expr::Qualified(q, c) => Some(format!("{q}.{c}")),
        _ => None,
    };
    if let Some(name) = name {
        let hits: Vec<usize> = columns
            .iter()
            .enumerate()
            .filter(|(_, c)| **c == name)
            .map(|(i, _)| i)
            .collect();
        match hits.len() {
            1 => return Ok(Some(hits[0])),
            0 => {}
            _ => {
                return Err(CoreError::Eval(EvalError::AmbiguousColumn(format!(
                    "{name} in ORDER BY"
                ))))
            }
        }
    }
    // Positions of each item in the output layout (wildcards expand).
    let mut out_pos = 0usize;
    for item in items {
        match item {
            SelectItem::Wildcard => out_pos += in_env.arity(),
            SelectItem::Expr { expr, .. } => {
                if expr == key {
                    return Ok(Some(out_pos));
                }
                out_pos += 1;
            }
        }
    }
    Ok(None)
}

fn contains_agg(e: &Expr) -> bool {
    match e {
        Expr::Agg { .. } => true,
        Expr::Binary { left, right, .. } => contains_agg(left) || contains_agg(right),
        Expr::Unary { expr, .. } => contains_agg(expr),
        _ => false,
    }
}

fn output_columns_for(items: &[SelectItem], env: &Bindings, aggregated: bool) -> Vec<String> {
    let mut columns = Vec::new();
    for (i, item) in items.iter().enumerate() {
        match item {
            SelectItem::Wildcard if !aggregated => {
                columns.extend(env.cols.iter().map(|(_, c)| c.clone()));
            }
            _ => columns.push(item_name(item, i)),
        }
    }
    columns
}

/// Build the optimizer's view of the query: per-table post-predicate
/// cardinalities (live statistics, so `est == true`) and equi-join edges
/// with classic `1/max(ndv)` selectivities.
fn build_join_graph(
    scans: &[ScanInfo],
    all_conjuncts: &[Expr],
    used: &[bool],
    system: SystemConditions,
) -> JoinGraph {
    let row_count = |s: &ScanInfo| s.stats.as_ref().map_or(0, |st| st.row_count);
    let ndv = |s: &ScanInfo, col: usize| {
        s.stats
            .as_ref()
            .and_then(|st| st.columns.get(col))
            .map_or(1, |c| c.distinct)
    };
    let tables = scans
        .iter()
        .map(|s| {
            let rows = s.est_rows.max(1.0);
            TableInfo {
                name: s.binding.clone(),
                est_rows: rows,
                true_rows: rows,
                est_selectivity: if row_count(s) == 0 {
                    1.0
                } else {
                    (s.est_rows / row_count(s) as f64).clamp(0.0, 1.0)
                },
            }
        })
        .collect();
    let mut joins: Vec<JoinEdge> = Vec::new();
    for (j, c) in all_conjuncts.iter().enumerate() {
        if used[j] {
            continue;
        }
        // One conjunct contributes at most one edge (the executor will
        // consume it at exactly one join).
        'pairs: for a in 0..scans.len() {
            for b in a + 1..scans.len() {
                if let Some((ka, kb)) = equi_join_key(c, &scans[a].env, &scans[b].env) {
                    let sel = 1.0 / ndv(&scans[a], ka).max(ndv(&scans[b], kb)).max(1) as f64;
                    match joins
                        .iter_mut()
                        .find(|e| (e.a, e.b) == (a, b) || (e.a, e.b) == (b, a))
                    {
                        // Multiple equi conjuncts on one pair compound.
                        Some(edge) => {
                            edge.est_sel *= sel;
                            edge.true_sel *= sel;
                        }
                        None => joins.push(JoinEdge {
                            a,
                            b,
                            est_sel: sel,
                            true_sel: sel,
                        }),
                    }
                    break 'pairs;
                }
            }
        }
    }
    JoinGraph {
        tables,
        joins,
        system,
    }
}

struct JoinBuilder<'a> {
    scans: &'a [ScanInfo],
    graph: Option<&'a JoinGraph>,
    conjuncts: &'a [Expr],
    used: Vec<bool>,
}

struct Built {
    plan: PhysicalPlan,
    env: Bindings,
    leaf_order: Vec<usize>,
    mask: u32,
    est_rows: f64,
}

impl JoinBuilder<'_> {
    fn build(&mut self, tree: &PlanTree) -> Built {
        match tree {
            PlanTree::Leaf(i) => {
                let s = &self.scans[*i];
                let plan = match &s.index {
                    Some(ic) => PhysicalPlan::IndexScan {
                        table: s.table.clone(),
                        binding: s.binding.clone(),
                        col: ic.col,
                        col_name: ic.col_name.clone(),
                        lo: ic.lo.clone(),
                        hi: ic.hi.clone(),
                        predicates: s.predicates.clone(),
                        env: s.env.clone(),
                        est_rows: s.est_rows,
                        overlay: s.overlay.clone(),
                    },
                    None => {
                        let scan = PhysicalPlan::SeqScan {
                            table: s.table.clone(),
                            binding: s.binding.clone(),
                            predicates: s.predicates.clone(),
                            env: s.env.clone(),
                            est_rows: s.est_rows,
                            dop: s.dop,
                            overlay: s.overlay.clone(),
                        };
                        if s.dop > 1 {
                            PhysicalPlan::Exchange {
                                input: Box::new(scan),
                                dop: s.dop,
                                env: s.env.clone(),
                            }
                        } else {
                            scan
                        }
                    }
                };
                Built {
                    plan,
                    env: s.env.clone(),
                    leaf_order: vec![*i],
                    mask: 1u32 << *i,
                    est_rows: s.est_rows,
                }
            }
            PlanTree::Join(l, r) => {
                let left = self.build(l);
                let right = self.build(r);
                let env = left.env.join(&right.env);
                let mask = left.mask | right.mask;
                let sel = self
                    .graph
                    .map_or(1.0, |g| g.cross_selectivity(left.mask, right.mask, false));
                let est_rows = sel * left.est_rows * right.est_rows;
                // Hash join when an unused equi conjunct bridges the sides.
                let mut join_key = None;
                for (j, c) in self.conjuncts.iter().enumerate() {
                    if self.used[j] {
                        continue;
                    }
                    if let Some(k) = equi_join_key(c, &left.env, &right.env) {
                        join_key = Some((j, k, c.clone()));
                        break;
                    }
                }
                let mut plan = match join_key {
                    Some((j, (lk, rk), cond)) => {
                        self.used[j] = true;
                        // A probe side arriving as a parallel scan gets
                        // its Gather absorbed into the join, so the
                        // workers probe instead of just scanning (the
                        // scan's cardinality gating already authorized
                        // the fan-out). The build side keeps its plan:
                        // one consumer drains it into the shared table.
                        match left.plan {
                            PhysicalPlan::Exchange { input, dop, .. } => {
                                PhysicalPlan::PartitionedHashJoin {
                                    probe: input,
                                    build: Box::new(right.plan),
                                    left_key: lk,
                                    right_key: rk,
                                    cond,
                                    env: env.clone(),
                                    est_rows,
                                    probe_dop: dop,
                                }
                            }
                            probe => PhysicalPlan::HashJoin {
                                left: Box::new(probe),
                                right: Box::new(right.plan),
                                left_key: lk,
                                right_key: rk,
                                cond,
                                env: env.clone(),
                                est_rows,
                            },
                        }
                    }
                    None => PhysicalPlan::NestedLoopJoin {
                        left: Box::new(left.plan),
                        right: Box::new(right.plan),
                        env: env.clone(),
                        est_rows,
                    },
                };
                // Conjuncts that become resolvable right after this join
                // are applied immediately (smallest intermediate).
                let mut newly = Vec::new();
                for (j, c) in self.conjuncts.iter().enumerate() {
                    if !self.used[j] && resolvable(c, &env) {
                        self.used[j] = true;
                        newly.push(c.clone());
                    }
                }
                if !newly.is_empty() {
                    plan = PhysicalPlan::Filter {
                        input: Box::new(plan),
                        predicates: newly,
                        env: env.clone(),
                    };
                }
                let mut leaf_order = left.leaf_order;
                leaf_order.extend(right.leaf_order);
                Built {
                    plan,
                    env,
                    leaf_order,
                    mask,
                    est_rows,
                }
            }
        }
    }
}

// ------------------------------ EXPLAIN ------------------------------

impl PhysicalPlan {
    /// Output column names of this plan.
    pub fn output_columns(&self) -> Vec<String> {
        match self {
            PhysicalPlan::Project { columns, .. } | PhysicalPlan::HashAggregate { columns, .. } => {
                columns.clone()
            }
            PhysicalPlan::Sort {
                visible, columns, ..
            } => columns[..*visible].to_vec(),
            PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Reorder { input, .. }
            | PhysicalPlan::Exchange { input, .. }
            | PhysicalPlan::PartialHashAggregate { input, .. } => input.output_columns(),
            PhysicalPlan::SeqScan { env, .. }
            | PhysicalPlan::IndexScan { env, .. }
            | PhysicalPlan::HashJoin { env, .. }
            | PhysicalPlan::PartitionedHashJoin { env, .. }
            | PhysicalPlan::NestedLoopJoin { env, .. } => {
                env.cols.iter().map(|(_, c)| c.clone()).collect()
            }
        }
    }

    /// One-line operator label (shared by EXPLAIN and operator metrics).
    pub fn label(&self) -> String {
        match self {
            PhysicalPlan::SeqScan {
                table,
                binding,
                predicates,
                est_rows,
                dop,
                overlay,
                ..
            } => {
                let name = if *binding == table.name {
                    table.name.clone()
                } else {
                    format!("{} AS {}", table.name, binding)
                };
                let filter = if predicates.is_empty() {
                    String::new()
                } else {
                    format!(" filter=[{}]", exprs_sql(predicates))
                };
                let overlay = overlay_note(overlay);
                format!("SeqScan({name}){filter}{overlay} (est={est_rows:.0} rows, dop={dop})")
            }
            PhysicalPlan::IndexScan {
                table,
                binding,
                col_name,
                lo,
                hi,
                predicates,
                est_rows,
                overlay,
                ..
            } => {
                let name = if *binding == table.name {
                    table.name.clone()
                } else {
                    format!("{} AS {}", table.name, binding)
                };
                let bounds = match (lo, hi) {
                    (Some(l), Some(h)) if l == h => format!("{col_name}={l}"),
                    (l, h) => format!(
                        "{col_name}=[{}..{}]",
                        l.as_ref().map_or("-inf".to_string(), |v| v.to_string()),
                        h.as_ref().map_or("+inf".to_string(), |v| v.to_string()),
                    ),
                };
                let filter = if predicates.is_empty() {
                    String::new()
                } else {
                    format!(" filter=[{}]", exprs_sql(predicates))
                };
                let overlay = overlay_note(overlay);
                format!("IndexScan({name} {bounds}){filter}{overlay} (est={est_rows:.0} rows)")
            }
            PhysicalPlan::Exchange { dop, .. } => format!("Gather(dop={dop})"),
            PhysicalPlan::PartialHashAggregate { group_by, .. } => {
                if group_by.is_empty() {
                    "PartialHashAggregate".to_string()
                } else {
                    format!("PartialHashAggregate(group_by=[{}])", exprs_sql(group_by))
                }
            }
            PhysicalPlan::HashJoin { cond, est_rows, .. } => {
                format!("HashJoin({}) (est={est_rows:.0} rows)", expr_sql(cond))
            }
            PhysicalPlan::PartitionedHashJoin {
                cond,
                est_rows,
                probe_dop,
                ..
            } => format!(
                "PartitionedHashJoin({}) (est={est_rows:.0} rows, dop={probe_dop})",
                expr_sql(cond)
            ),
            PhysicalPlan::NestedLoopJoin { est_rows, .. } => {
                format!("NestedLoopJoin (est={est_rows:.0} rows)")
            }
            PhysicalPlan::Filter { predicates, .. } => {
                format!("Filter({})", exprs_sql(predicates))
            }
            PhysicalPlan::Reorder { .. } => "Reorder(FROM-clause column order)".to_string(),
            PhysicalPlan::HashAggregate { group_by, .. } => {
                if group_by.is_empty() {
                    "HashAggregate".to_string()
                } else {
                    format!("HashAggregate(group_by=[{}])", exprs_sql(group_by))
                }
            }
            PhysicalPlan::Project { columns, .. } => {
                format!("Project({})", columns.join(", "))
            }
            PhysicalPlan::Sort {
                keys,
                visible,
                columns,
                ..
            } => {
                let rendered: Vec<String> = keys
                    .iter()
                    .map(|(pos, o)| {
                        let name = columns
                            .get(*pos)
                            .cloned()
                            .unwrap_or_else(|| pos.to_string());
                        let hidden = if *pos >= *visible { " hidden" } else { "" };
                        format!(
                            "{name}{hidden}{}",
                            match o {
                                SortOrder::Asc => "",
                                SortOrder::Desc => " DESC",
                            }
                        )
                    })
                    .collect();
                format!("Sort({})", rendered.join(", "))
            }
            PhysicalPlan::Limit { n, .. } => format!("Limit({n})"),
        }
    }

    pub(crate) fn children(&self) -> Vec<&PhysicalPlan> {
        match self {
            PhysicalPlan::SeqScan { .. } | PhysicalPlan::IndexScan { .. } => vec![],
            PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::NestedLoopJoin { left, right, .. } => vec![left, right],
            PhysicalPlan::PartitionedHashJoin { probe, build, .. } => vec![probe, build],
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Reorder { input, .. }
            | PhysicalPlan::Exchange { input, .. }
            | PhysicalPlan::PartialHashAggregate { input, .. }
            | PhysicalPlan::HashAggregate { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. } => vec![input],
        }
    }

    /// Render the plan as an indented tree. `metrics`, when given, is the
    /// pre-order metrics vector from
    /// [`crate::exec::execute_plan_instrumented`] — each line then gets
    /// its operator's observed `rows`, `batches`, and inclusive time.
    pub fn render(&self, metrics: Option<&[crate::exec::OpMetrics]>) -> Vec<String> {
        let mut lines = Vec::new();
        let mut next_id = 0usize;
        self.render_into(&mut lines, &mut next_id, "", "", metrics);
        lines
    }

    fn render_into(
        &self,
        lines: &mut Vec<String>,
        next_id: &mut usize,
        prefix: &str,
        child_prefix: &str,
        metrics: Option<&[crate::exec::OpMetrics]>,
    ) {
        let id = *next_id;
        *next_id += 1;
        let mut line = format!("{prefix}{}", self.label());
        if let Some(ms) = metrics {
            if let Some(m) = ms.get(id) {
                line.push_str(&format!(
                    " [rows={} batches={} time={:.3}ms]",
                    m.rows_out,
                    m.batches,
                    m.nanos as f64 / 1e6
                ));
                if !m.note.is_empty() {
                    line.push_str(&format!(" {}", m.note));
                }
            }
        }
        lines.push(line);
        let children = self.children();
        let last = children.len().saturating_sub(1);
        for (i, child) in children.into_iter().enumerate() {
            let (branch, cont) = if i == last {
                ("└─ ", "   ")
            } else {
                ("├─ ", "│  ")
            };
            child.render_into(
                lines,
                next_id,
                &format!("{child_prefix}{branch}"),
                &format!("{child_prefix}{cont}"),
                metrics,
            );
        }
    }
}

/// EXPLAIN annotation of a scan's transaction overlay: record ids it
/// hides and rows it adds.
fn overlay_note(overlay: &Option<Arc<ScanOverlay>>) -> String {
    match overlay {
        Some(ov) => format!(" overlay=[-{} +{}]", ov.hidden.len(), ov.rows.len()),
        None => String::new(),
    }
}

/// Render an expression back to SQL-ish text (for EXPLAIN output).
pub(crate) fn expr_sql(e: &Expr) -> String {
    match e {
        Expr::Column(c) => c.clone(),
        Expr::Qualified(q, c) => format!("{q}.{c}"),
        Expr::Literal(l) => l.to_string(),
        Expr::Binary { op, left, right } => {
            format!("{} {op} {}", expr_sql(left), expr_sql(right))
        }
        Expr::Unary { op, expr } => match op {
            UnaryOp::Not => format!("NOT {}", expr_sql(expr)),
            UnaryOp::Neg => format!("-{}", expr_sql(expr)),
        },
        Expr::Agg { func, arg } => {
            let inner = arg.as_ref().map_or("*".to_string(), |a| expr_sql(a));
            format!("{func:?}({inner})").to_lowercase()
        }
    }
}

fn exprs_sql(es: &[Expr]) -> String {
    es.iter().map(expr_sql).collect::<Vec<_>>().join(" AND ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurdb_sql::{parse, Statement};
    use neurdb_storage::{BufferPool, ColumnDef, DataType, DiskManager, Schema, Tuple};

    fn table(name: &str, cols: &[(&str, DataType)], rows: Vec<Vec<Value>>) -> Arc<Table> {
        let pool = Arc::new(BufferPool::new(Arc::new(DiskManager::new()), 256));
        let schema = Schema::new(
            cols.iter()
                .map(|(n, t)| ColumnDef::new(*n, *t))
                .collect::<Vec<_>>(),
        );
        let t = Arc::new(Table::new(name, schema, pool));
        for r in rows {
            t.insert(Tuple::new(r)).unwrap();
        }
        t
    }

    fn select(sql: &str) -> SelectStmt {
        match parse(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("{other:?}"),
        }
    }

    fn three_tables() -> Vec<(String, Arc<Table>)> {
        let a = table(
            "a",
            &[("id", DataType::Int), ("x", DataType::Int)],
            (0..50)
                .map(|i| vec![Value::Int(i), Value::Int(i % 5)])
                .collect(),
        );
        let b = table(
            "b",
            &[("id", DataType::Int), ("aid", DataType::Int)],
            (0..500)
                .map(|i| vec![Value::Int(i), Value::Int(i % 50)])
                .collect(),
        );
        let c = table(
            "c",
            &[("id", DataType::Int), ("bid", DataType::Int)],
            (0..2000)
                .map(|i| vec![Value::Int(i), Value::Int(i % 500)])
                .collect(),
        );
        vec![
            ("a".to_string(), a),
            ("b".to_string(), b),
            ("c".to_string(), c),
        ]
    }

    #[test]
    fn multi_join_routes_through_qo() {
        let tables = three_tables();
        let stmt = select("SELECT * FROM a, b, c WHERE a.id = b.aid AND b.id = c.bid");
        let planned = plan_select(&stmt, &tables, None).unwrap();
        assert_eq!(planned.join_order.as_deref(), Some("neurdb-qo/dp"));
        // Two hash joins in the tree, no nested loops.
        let rendered = planned.plan.render(None).join("\n");
        assert_eq!(rendered.matches("HashJoin").count(), 2, "{rendered}");
        assert!(!rendered.contains("NestedLoopJoin"), "{rendered}");
    }

    #[test]
    fn single_table_has_no_join_order() {
        let tables = vec![three_tables().remove(0)];
        let stmt = select("SELECT x FROM a WHERE id > 10");
        let planned = plan_select(&stmt, &tables, None).unwrap();
        assert!(planned.join_order.is_none());
        let rendered = planned.plan.render(None).join("\n");
        assert!(rendered.contains("SeqScan(a)"), "{rendered}");
        assert!(rendered.contains("filter=[id > 10]"), "{rendered}");
    }

    #[test]
    fn pushdown_estimates_shrink_scans() {
        let tables = three_tables();
        let stmt = select("SELECT * FROM a, b, c WHERE a.id = b.aid AND b.id = c.bid AND c.id = 7");
        let planned = plan_select(&stmt, &tables, None).unwrap();
        let rendered = planned.plan.render(None).join("\n");
        // The c scan estimate reflects the equality predicate (1 row).
        assert!(
            rendered.contains("filter=[c.id = 7] (est=1 rows"),
            "{rendered}"
        );
    }

    #[test]
    fn wildcard_column_order_is_from_clause_order() {
        // Force a qo-chosen order that differs from FROM order by putting
        // the huge table first in FROM.
        let mut tables = three_tables();
        tables.reverse(); // c, b, a
        let stmt = select("SELECT * FROM c, b, a WHERE a.id = b.aid AND b.id = c.bid");
        let planned = plan_select(&stmt, &tables, None).unwrap();
        let cols = planned.plan.output_columns();
        assert_eq!(cols, vec!["id", "bid", "id", "aid", "id", "x"]);
    }

    #[test]
    fn unknown_column_in_predicate_errors() {
        let tables = vec![three_tables().remove(0)];
        let stmt = select("SELECT * FROM a WHERE nope = 1");
        assert!(plan_select(&stmt, &tables, None).is_err());
    }
}
